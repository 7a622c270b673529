"""Exact Nijenhuis/Haantjes tensor evaluation for chain-class coefficient matrices.

A hydrodynamic chain u_t = A(u) u_x with a chain-class matrix A (finitely many
nonzero entries per row, each depending on finitely many components u^p) is
diagonalisable iff its Haantjes tensor vanishes.  This module evaluates

    N^i_jk = a^p_j d_p a^i_k - a^p_k d_p a^i_j - a^i_p (d_j a^p_k - d_k a^p_j)

    H^i_jk = N^i_pr a^p_j a^r_k - N^p_jr a^i_p a^r_k
             - N^p_rk a^i_p a^r_j + N^p_jk a^i_r a^r_p

(summation over repeated indices, d_p = d/du^p) in exact rational arithmetic,
so "vanishes" means the integer 0, never a tolerance.  Summation ranges for the
repeated indices are derived mechanically from the sparsity of the registered
matrix, which keeps the engine usable for user-supplied chain-class matrices.

The flagship instance is the skew-ensemble chain matrix.  Its rows are not
written out here: row k is read off the order-0 Taylor expansion of the even
lattice flow ``lax.t2_even_w_terms``, the v = 0 part of the second flow's
table ``lax.t2_w_terms`` (each term of the expansion carries exactly one
x-derivative u^j_x, which names the column j).  They come out as

    row k (generic):  col 0: (k+2)u^{k+1} - k u^{k-1} + u^1 u^k   (k < 0)
                             (k+1)u^{k+1} - (k-1)u^{k-1} - u^1 u^k (k > 1)
                      col 1: +-u^0 u^k,   col k-1: u^0,   col k+1: u^0
    row 0:            {-1: u^0, 0: u^0 u^1, 1: (u^0)^2}
    row 1:            {0: 2u^2 - (u^1)^2, 1: -u^0 u^1, 2: u^0}

For k in {-1, 2} two of the four structural columns coincide and their
contributions add (row -1 col 0 becomes 2u^0 + u^{-2} + u^1 u^{-1}, row 2
col 1 becomes u^0 - u^0 u^2).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping

from .lax import expand_lattice_terms, t2_even_w_terms

__all__ = [
    "Poly",
    "RationalPoint",
    "WindowError",
    "ChainMatrixSpec",
    "paper_chain_spec",
    "diagonal_chain_spec",
    "constant_chain_spec",
    "spec_from_table",
    "spec_with_overrides",
    "load_spec_json",
    "TensorPoint",
    "nijenhuis",
    "haantjes",
    "random_rational_point",
    "appendix_nijenhuis_table",
    "nijenhuis_oracle_check",
    "haantjes_scan",
]


class WindowError(ValueError):
    """A tensor evaluation needed u^p values outside the supplied window."""


# ---------------------------------------------------------------------------
# sparse exact polynomials in the chain components u^p
# ---------------------------------------------------------------------------

Monomial = tuple[int, ...]  # sorted component indices with multiplicity


class Poly:
    """Polynomial in the components u^p with exact rational coefficients.

    Monomials are sorted index tuples with multiplicity: u^0*u^1 is (0, 1),
    (u^0)^2 is (0, 0), the constant monomial is ().
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        self.terms: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = Fraction(coeff)
                if c:
                    self.terms[tuple(sorted(mono))] = c

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(): Fraction(c)})

    @staticmethod
    def u(p: int) -> "Poly":
        return Poly({(p,): Fraction(1)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, Fraction(0)) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        res = Poly()
        res.terms = out
        return res

    def __neg__(self) -> "Poly":
        res = Poly()
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            out: dict[Monomial, Fraction] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mono = tuple(sorted(m1 + m2))
                    s = out.get(mono, Fraction(0)) + c1 * c2
                    if s:
                        out[mono] = s
                    else:
                        out.pop(mono, None)
            res = Poly()
            res.terms = out
            return res
        c = Fraction(other)
        res = Poly()
        if c:
            res.terms = {m: cc * c for m, cc in self.terms.items()}
        return res

    __rmul__ = __mul__

    def diff(self, p: int) -> "Poly":
        """Exact partial derivative with respect to u^p."""
        out: dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            mult = mono.count(p)
            if not mult:
                continue
            reduced = list(mono)
            reduced.remove(p)
            mono2 = tuple(reduced)
            s = out.get(mono2, Fraction(0)) + c * mult
            if s:
                out[mono2] = s
            else:
                out.pop(mono2, None)
        res = Poly()
        res.terms = out
        return res

    def variables(self) -> frozenset[int]:
        return frozenset(p for mono in self.terms for p in mono)

    def eval(self, value_of: Callable[[int], object]):
        """Evaluate with any numeric type supplied by ``value_of``."""
        total = None
        for mono, c in self.terms.items():
            term = c
            for p in mono:
                term = term * value_of(p)
            total = term if total is None else total + term
        return Fraction(0) if total is None else total

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mono, c in sorted(self.terms.items()):
            mono_s = "*".join(f"u[{p}]" for p in mono) or "1"
            bits.append(f"{c}*{mono_s}")
        return " + ".join(bits)

    def to_table(self) -> list[list]:
        """JSON-friendly form: [[coeff-string, [indices...]], ...]."""
        return [[str(c), list(m)] for m, c in sorted(self.terms.items())]

    @staticmethod
    def from_table(table: Iterable) -> "Poly":
        terms: dict[Monomial, Fraction] = {}
        for coeff, mono in table:
            terms[tuple(sorted(int(p) for p in mono))] = Fraction(str(coeff))
        return Poly(terms)


# ---------------------------------------------------------------------------
# rational points and chain-matrix specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalPoint:
    """Exact values for the components u^p on the window |p| <= window."""

    values: Mapping[int, Fraction]
    window: int

    def at(self, p: int) -> Fraction:
        if abs(p) > self.window:
            raise WindowError(
                f"component u^{p} outside the supplied window |p| <= {self.window}"
            )
        return self.values.get(p, Fraction(0))


def random_rational_point(rng: random.Random, window: int) -> RationalPoint:
    """Random exact point: numerators in [-9, 9], denominators in [1, 7].

    u^0 is resampled until nonzero so the point is usable by the reduction
    machinery as well.
    """
    values: dict[int, Fraction] = {}
    for p in range(-window, window + 1):
        values[p] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    while values[0] == 0:
        values[0] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return RationalPoint(values=values, window=window)


@dataclass(frozen=True)
class ChainMatrixSpec:
    """A chain-class matrix given by a per-row sparse polynomial generator.

    ``rows(k)`` returns {column j: Poly}; ``stencil`` bounds the structural
    band: a^k_j == 0 whenever j not in {0, 1} and |j - k| > stencil.
    """

    name: str
    rows: Callable[[int], dict[int, Poly]]
    stencil: int = 1


def _row_add(row: dict[int, Poly], j: int, poly: Poly) -> None:
    row[j] = row.get(j, Poly()) + poly


@lru_cache(maxsize=None)
def _even_chain_row(k: int) -> tuple[tuple[int, Poly], ...]:
    row: dict[int, Poly] = {}
    expansion = expand_lattice_terms(t2_even_w_terms(k), 0, rescale=True)[0]
    for factors, coeff in expansion.items():
        [col] = [band for _kind, band, d in factors if d == 1]
        mono = tuple(band for _kind, band, d in factors if d == 0)
        _row_add(row, col, Poly({mono: coeff}))
    return tuple((j, p) for j, p in row.items() if p)


def _paper_rows(k: int) -> dict[int, Poly]:
    return dict(_even_chain_row(k))


def paper_chain_spec() -> ChainMatrixSpec:
    """The skew-ensemble hydrodynamic chain matrix (flagship instance)."""
    return ChainMatrixSpec(name="even-chain", rows=_paper_rows, stencil=1)


def diagonal_chain_spec() -> ChainMatrixSpec:
    """Control: diagonal rows a^k_k = (k+2) u^k; trivially diagonalisable."""

    def rows(k: int) -> dict[int, Poly]:
        return {k: (k + 2) * Poly.u(k)}

    return ChainMatrixSpec(name="diagonal-control", rows=rows, stencil=0)


def constant_chain_spec() -> ChainMatrixSpec:
    """Control: constant coefficients; both tensors vanish identically."""

    def rows(k: int) -> dict[int, Poly]:
        return {k - 1: Poly.const(2), k: Poly.const(k), k + 1: Poly.const(3)}

    return ChainMatrixSpec(name="constant-control", rows=rows, stencil=1)


def spec_from_table(name: str, table: Mapping[str, Mapping[str, list]],
                    stencil: int) -> ChainMatrixSpec:
    """Build a spec from a finite coefficient table; absent rows are zero."""
    if not isinstance(table, Mapping) or not all(isinstance(r, Mapping) for r in table.values()):
        raise ValueError("spec 'rows' must be an object of per-row objects")
    parsed: dict[int, dict[int, Poly]] = {}
    for k_s, row in table.items():
        parsed[int(k_s)] = {int(j_s): Poly.from_table(t) for j_s, t in row.items()}

    def rows(k: int) -> dict[int, Poly]:
        return dict(parsed.get(k, {}))

    return ChainMatrixSpec(name=name, rows=rows, stencil=stencil)


def spec_with_overrides(base: ChainMatrixSpec,
                        overrides: Mapping[str, list],
                        name: str | None = None) -> ChainMatrixSpec:
    """Replace individual entries (key "k,j") of an existing spec."""
    parsed: dict[tuple[int, int], Poly] = {}
    for key, table in overrides.items():
        k_s, j_s = key.split(",")
        parsed[(int(k_s), int(j_s))] = Poly.from_table(table)

    def rows(k: int) -> dict[int, Poly]:
        row = dict(base.rows(k))
        for (kk, j), poly in parsed.items():
            if kk == k:
                if poly:
                    row[j] = poly
                else:
                    row.pop(j, None)
        return row

    return ChainMatrixSpec(name=name or f"{base.name}+overrides",
                           rows=rows, stencil=base.stencil)


def load_spec_json(path_or_obj) -> ChainMatrixSpec:
    """Registration hook: load a chain matrix from a JSON description.

    Two forms are accepted::

        {"name": ..., "stencil": s, "rows": {"k": {"j": [[coeff, [p..]], ..]}}}
        {"base": "paper", "overrides": {"k,j": [[coeff, [p..]], ...]}}
    """
    if isinstance(path_or_obj, Mapping):
        obj = path_or_obj
    else:
        with open(path_or_obj, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    if not isinstance(obj, Mapping) or not isinstance(obj.get("overrides", {}), Mapping):
        raise ValueError("spec JSON must be an object, and its 'overrides' an object")
    if "rows" in obj:
        return spec_from_table(obj.get("name", "user-spec"), obj["rows"],
                               int(obj.get("stencil", 1)))
    if obj.get("base") == "paper":
        return spec_with_overrides(paper_chain_spec(), obj.get("overrides", {}),
                                   name=obj.get("name"))
    raise ValueError("spec JSON needs either 'rows' or 'base': 'paper'")


# ---------------------------------------------------------------------------
# per-point tensor evaluator
# ---------------------------------------------------------------------------


class TensorPoint:
    """All tensor evaluations of one spec at one rational point, cached.

    The nonzero-support supersets used to truncate the repeated-index sums are
    computed from the row sparsity alone, so completeness of the sums does not
    assume any result about the tensors themselves.
    """

    def __init__(self, spec: ChainMatrixSpec, point: RationalPoint):
        self.spec = spec
        self.point = point
        self._row_polys: dict[int, dict[int, Poly]] = {}
        self._rows: dict[int, dict[int, Fraction]] = {}
        self._partials: dict[tuple[int, int, int], Fraction] = {}
        self._nij: dict[tuple[int, int, int], Fraction] = {}
        self._support: dict[int, tuple[int, ...]] = {}

    # -- sparsity bookkeeping ------------------------------------------------

    def row_polys(self, k: int) -> dict[int, Poly]:
        row = self._row_polys.get(k)
        if row is None:
            row = self.spec.rows(k)
            self._row_polys[k] = row
        return row

    def cols(self, k: int) -> tuple[int, ...]:
        return tuple(sorted(self.row_polys(k)))

    def deps(self, k: int, j: int) -> frozenset[int]:
        poly = self.row_polys(k).get(j)
        return poly.variables() if poly is not None else frozenset()

    def row_deps(self, k: int) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for poly in self.row_polys(k).values():
            out |= poly.variables()
        return out

    def lower_support(self, i: int) -> tuple[int, ...]:
        """Superset of indices that can occur as a lower index of N^i."""
        cached = self._support.get(i)
        if cached is not None:
            return cached
        s: set[int] = set(self.cols(i))
        for p in self.row_deps(i):
            s.update(self.cols(p))
        for p in self.cols(i):
            s.update(self.cols(p))
            s.update(self.row_deps(p))
        out = tuple(sorted(s))
        self._support[i] = out
        return out

    # -- exact values ----------------------------------------------------------

    def row(self, k: int) -> dict[int, Fraction]:
        row = self._rows.get(k)
        if row is None:
            row = {j: poly.eval(self.point.at)
                   for j, poly in self.row_polys(k).items()}
            self._rows[k] = row
        return row

    def entry(self, k: int, j: int) -> Fraction:
        return self.row(k).get(j, Fraction(0))

    def partial(self, k: int, j: int, p: int) -> Fraction:
        key = (k, j, p)
        val = self._partials.get(key)
        if val is None:
            poly = self.row_polys(k).get(j)
            val = poly.diff(p).eval(self.point.at) if poly is not None else Fraction(0)
            self._partials[key] = val
        return val

    # -- tensors ---------------------------------------------------------------

    def nijenhuis(self, i: int, j: int, k: int) -> Fraction:
        if j == k:
            return Fraction(0)
        sign = 1
        if j > k:
            j, k, sign = k, j, -1
        key = (i, j, k)
        val = self._nij.get(key)
        if val is None:
            val = self._nijenhuis_raw(i, j, k)
            self._nij[key] = val
        return val if sign == 1 else -val

    def _nijenhuis_raw(self, i: int, j: int, k: int) -> Fraction:
        acc = Fraction(0)
        for p in self.deps(i, k):
            apj = self.entry(p, j)
            if apj:
                acc += apj * self.partial(i, k, p)
        for p in self.deps(i, j):
            apk = self.entry(p, k)
            if apk:
                acc -= apk * self.partial(i, j, p)
        for p, aip in self.row(i).items():
            if aip:
                acc -= aip * (self.partial(p, k, j) - self.partial(p, j, k))
        return acc

    def haantjes(self, i: int, j: int, k: int) -> Fraction:
        supp_i = self.lower_support(i)
        acc = Fraction(0)
        # N^i_pr a^p_j a^r_k
        for p in supp_i:
            apj = self.entry(p, j)
            if not apj:
                continue
            for r in supp_i:
                ark = self.entry(r, k)
                if not ark:
                    continue
                n = self.nijenhuis(i, p, r)
                if n:
                    acc += n * apj * ark
        # - N^p_jr a^i_p a^r_k  and  - N^p_rk a^i_p a^r_j
        for p, aip in self.row(i).items():
            if not aip:
                continue
            for r in self.lower_support(p):
                ark = self.entry(r, k)
                if ark:
                    n = self.nijenhuis(p, j, r)
                    if n:
                        acc -= n * aip * ark
                arj = self.entry(r, j)
                if arj:
                    n = self.nijenhuis(p, r, k)
                    if n:
                        acc -= n * aip * arj
        # + N^p_jk a^i_r a^r_p
        for r, air in self.row(i).items():
            if not air:
                continue
            for p, arp in self.row(r).items():
                if not arp:
                    continue
                n = self.nijenhuis(p, j, k)
                if n:
                    acc += n * air * arp
        return acc


def _check_window(point: RationalPoint, spec: ChainMatrixSpec,
                  indices: Iterable[int], depth: int) -> None:
    need = max(abs(i) for i in indices) + depth * spec.stencil + depth
    if point.window < need:
        raise WindowError(f"window {point.window} too small; need W >= {need}")


def nijenhuis(spec: ChainMatrixSpec, i: int, j: int, k: int,
              point: RationalPoint) -> Fraction:
    """Exact N^i_jk of ``spec`` at ``point`` (window W >= max index + s + 1)."""
    _check_window(point, spec, (i, j, k), 1)
    return TensorPoint(spec, point).nijenhuis(i, j, k)


def haantjes(spec: ChainMatrixSpec, i: int, j: int, k: int,
             point: RationalPoint) -> Fraction:
    """Exact H^i_jk of ``spec`` at ``point`` (window W >= max index + 2s + 2)."""
    _check_window(point, spec, (i, j, k), 2)
    return TensorPoint(spec, point).haantjes(i, j, k)


# ---------------------------------------------------------------------------
# oracle table for the flagship chain (printed nonzero Nijenhuis entries)
# ---------------------------------------------------------------------------


def _sgn(i: int) -> int:
    return (i > 0) - (i < 0)


def appendix_nijenhuis_table(i: int, point: RationalPoint) -> dict[tuple[int, int], Fraction]:
    """Expected nonzero N^i_(j,k) with j < ordering as printed, for i != 0.

    Returns {(j, k): value}; entries with swapped lower indices follow from
    antisymmetry.  Everything absent is expected to vanish.
    """
    u = point.at
    table: dict[tuple[int, int], Fraction] = {}
    if i == 0:
        return table
    if abs(i) > 2:
        if i > 2:
            table[(0, 1)] = u(0) * ((i - 1) * u(i - 1) - (i + 1) * u(i + 1))
            table[(0, -1)] = (i - 1) * u(i - 1) + u(1) * u(i) - (i + 1) * u(i + 1)
        else:
            table[(0, 1)] = u(0) * (i * u(i - 1) - (i + 2) * u(i + 1))
            table[(0, -1)] = i * u(i - 1) - u(i) * u(1) - (i + 2) * u(i + 1)
        table[(-1, 1)] = -_sgn(i) * u(0) * u(i)
        table[(0, i)] = -4 * u(0)
        table[(0, i + 1)] = u(0) * u(1)
        table[(0, i - 1)] = u(0) * u(1)
        table[(1, i + 1)] = u(0) * u(0)
        table[(1, i - 1)] = u(0) * u(0)
        table[(-1, i + 1)] = u(0)
        table[(-1, i - 1)] = u(0)
    elif i == 2:
        table[(0, 1)] = u(0) * (2 * u(1) - 3 * u(3))
        table[(0, -1)] = u(1) * (1 + u(2)) - 3 * u(3)
        table[(-1, 1)] = -u(0) * (u(2) - 1)
        table[(0, 2)] = -4 * u(0)
        table[(0, 3)] = u(0) * u(1)
        table[(1, 3)] = u(0) * u(0)
        table[(-1, 3)] = u(0)
    elif i == 1:
        table[(0, 1)] = -2 * u(0) * (2 + u(2))
        table[(0, 2)] = u(0) * u(1)
        table[(1, 2)] = u(0) * u(0)
        table[(-1, 0)] = 2 * u(2) - u(1) * u(1)
        table[(-1, 1)] = -u(0) * u(1)
        table[(-1, 2)] = u(0)
    elif i == -2:
        table[(0, 1)] = -2 * u(-3) * u(0)
        table[(0, -1)] = -2 * u(-3) + (u(0) - u(-2)) * u(1)
        table[(-1, 1)] = (u(-2) - u(0)) * u(0)
        table[(0, -2)] = -4 * u(0)
        table[(0, -3)] = u(0) * u(1)
        table[(1, -3)] = u(0) * u(0)
        table[(-1, -3)] = u(0)
    elif i == -1:
        table[(0, 1)] = -u(0) * (u(-2) + 2 * u(0))
        table[(0, -1)] = -u(-2) - 6 * u(0) - u(-1) * u(1)
        table[(0, -2)] = u(0) * u(1)
        table[(1, -2)] = u(0) * u(0)
        table[(-1, -2)] = u(0)
        table[(-1, 1)] = u(0) * u(-1)
    return table


def _expected_nijenhuis(i: int, j: int, k: int, point: RationalPoint) -> Fraction:
    table = appendix_nijenhuis_table(i, point)
    if (j, k) in table:
        return table[(j, k)]
    if (k, j) in table:
        return -table[(k, j)]
    return Fraction(0)


def nijenhuis_oracle_check(point: RationalPoint) -> dict:
    """Compare every engine N^i_jk against the printed table.

    Scans |i| <= 6 and |j|, |k| <= 8; entries absent from the printed table
    must evaluate to the exact integer 0.
    """
    spec = paper_chain_spec()
    ev = TensorPoint(spec, point)
    mismatches = []
    checked = 0
    for i in range(-6, 7):
        for j in range(-8, 9):
            for k in range(j + 1, 9):
                expected = _expected_nijenhuis(i, j, k, point)
                got = ev.nijenhuis(i, j, k)
                checked += 1
                if got != expected:
                    mismatches.append({
                        "entry": [i, j, k],
                        "engine": str(got),
                        "printed": str(expected),
                    })
    return {
        "entries_checked": checked,
        "nijenhuis_mismatches": mismatches,
    }


def haantjes_scan(window: int = 6, points: int = 50, seed: int = 0,
                  spec: ChainMatrixSpec | None = None) -> dict:
    """Evaluate H^i_jk for all |i|,|j|,|k| <= window at random rational points.

    Returns the JSON-ready report; ``haantjes_nonzero`` empty means the
    diagonalisability test passed (exact zeros, no tolerance).
    """
    if window < 0 or points < 1:
        raise ValueError(f"window {window} and points {points} check nothing; "
                         f"need window >= 0 and points >= 1")
    spec = spec or paper_chain_spec()
    rng = random.Random(seed)
    point_window = window + 2 * spec.stencil + 2
    nonzero = []
    for p_idx in range(points):
        point = random_rational_point(rng, point_window)
        ev = TensorPoint(spec, point)
        for i in range(-window, window + 1):
            for j in range(-window, window + 1):
                for k in range(j, window + 1):
                    val = ev.haantjes(i, j, k)
                    if val:
                        nonzero.append({
                            "entry": [i, j, k],
                            "point_index": p_idx,
                            "value": str(val),
                        })
    return {
        "spec": spec.name,
        "window": window,
        "points": points,
        "seed": seed,
        "haantjes_nonzero": nonzero,
        "nijenhuis_mismatches": [],
    }
