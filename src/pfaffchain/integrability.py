"""Exact Nijenhuis/Haantjes tensor evaluation for chain-class coefficient matrices.

A hydrodynamic chain u_t = A(u) u_x with a chain-class matrix A (finitely many
nonzero entries per row, each depending on finitely many components u^p) is
diagonalisable iff its Haantjes tensor vanishes.  This module evaluates

    N^i_jk = a^p_j d_p a^i_k - a^p_k d_p a^i_j - a^i_p (d_j a^p_k - d_k a^p_j)

    H^i_jk = N^i_pr a^p_j a^r_k - N^p_jr a^i_p a^r_k
             - N^p_rk a^i_p a^r_j + N^p_jk a^i_r a^r_p

(summation over repeated indices, d_p = d/du^p) in exact rational arithmetic,
so "vanishes" means the integer 0, never a tolerance.  The sums are scattered,
not gathered: for one upper index i, every nonzero product in them is reached
by looping over nonzero matrix entries and partials and is added at the lower
indices (j, k) it names.  No summation range is bounded, so the engine serves
any user-supplied chain-class matrix.

``TensorPoint`` computes over whatever values its point supplies: Fractions,
Polys (a symbolic point) or, in the scans ``haantjes_scan`` and
``nijenhuis_oracle_check``, unreduced ``lazyfraction.LazyFraction``s over
one common denominator L (``RationalPoint.lazy``), which takes in the
spec's coefficient denominators too, and those coefficients are put over L
(``_lazy_tensor_point``).  Every product then carries a power of L and
every sum reuses the larger power, so no operation pays a gcd.  A value is reduced to a Fraction once, where it
leaves the scan as a report string; an exact zero is a numerator 0, and
zero entries are dropped from every row.

The flagship instance is the skew-ensemble chain matrix.  Its rows are not
written out here, nor anywhere else: row k is ``lax.chain_matrix_terms(k)``,
{j: a^k_j} with a^k_j the derivative by u^j_x of the order-0 Taylor
expansion of the even second-flow table ``lax.flow_terms(2, "w", k,
even=True)``, read off the commutator on the Lax matrix with v = 0.  Its
entries are exact Polys (``poly``, imported here as ``integrability.Poly``)
whose variables ("w", p, 0) are renamed to p.  They come out as

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
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping

from .lax import chain_matrix_terms
from .lazyfraction import LazyFraction, over_lcm
from .poly import _ZERO, Poly

__all__ = [
    "Poly",
    "RationalPoint",
    "WindowError",
    "ChainMatrixSpec",
    "paper_chain_spec",
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
# rational points and chain-matrix specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalPoint:
    """Exact values for the components u^p on the window |p| <= window;
    ``common`` is the one denominator of a ``lazy`` point's values, else 0."""

    values: Mapping[int, Fraction]
    window: int
    common: int = 0

    def at(self, p: int) -> Fraction:
        if abs(p) > self.window:
            raise WindowError(
                f"component u^{p} outside the supplied window |p| <= {self.window}"
            )
        return self.values.get(p, _ZERO)

    def lazy(self, denominator: int = 1) -> "RationalPoint":
        """The same point with LazyFraction values over one denominator L,
        the lcm of theirs and ``denominator`` (``_lazy_tensor_point`` passes
        that of a spec's coefficients)."""
        common, numerators = over_lcm(self.values.values(), denominator)
        return RationalPoint(values={p: LazyFraction(n, common)
                                     for p, n in zip(self.values, numerators)},
                             window=self.window, common=common)


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


@lru_cache(maxsize=None)
def _even_chain_row(k: int) -> tuple[tuple[int, Poly], ...]:
    return tuple((j, Poly({tuple(p for _w, p, _d in mono): c for mono, c in a.terms.items()}))
                 for j, a in chain_matrix_terms(k).items())


def _paper_rows(k: int) -> dict[int, Poly]:
    return dict(_even_chain_row(k))


def paper_chain_spec() -> ChainMatrixSpec:
    """The skew-ensemble hydrodynamic chain matrix (flagship instance)."""
    return ChainMatrixSpec(name="even-chain", rows=_paper_rows, stencil=1)


def spec_from_table(name: str, table: Mapping[str, Mapping[str, list]],
                    stencil: int) -> ChainMatrixSpec:
    """Build a spec from a finite coefficient table; absent rows are zero."""
    if not isinstance(table, Mapping) or not all(isinstance(r, Mapping) for r in table.values()):
        raise ValueError("spec 'rows' must be an object of per-row objects")
    parsed: dict[int, dict[int, Poly]] = {}
    for k_s, row in table.items():
        for j_s, t in row.items():
            with _blamed(f"spec row {k_s!r}, column {j_s!r}"):
                parsed.setdefault(int(k_s), {})[int(j_s)] = Poly.from_table(t)

    def rows(k: int) -> dict[int, Poly]:
        return dict(parsed.get(k, {}))

    return ChainMatrixSpec(name=name, rows=rows, stencil=stencil)


def spec_with_overrides(base: ChainMatrixSpec,
                        overrides: Mapping[str, list],
                        name: str | None = None) -> ChainMatrixSpec:
    """Replace individual entries (key "k,j") of an existing spec."""
    parsed: dict[tuple[int, int], Poly] = {}
    for key, table in overrides.items():
        with _blamed(f"spec override {key!r}"):
            if key.count(",") != 1:
                raise ValueError("need a key 'k,j' and a table [[coeff, [index, ...]], ...]")
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


@contextmanager
def _blamed(where: str) -> Iterator[None]:
    """Re-raise a ValueError from parsing one spec entry with the entry named."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


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
        stencil = obj.get("stencil", 1)
        if not isinstance(stencil, int) or stencil < 0:
            raise ValueError(f"spec 'stencil' must be a non-negative integer, got {stencil!r}")
        return spec_from_table(obj.get("name", "user-spec"), obj["rows"], stencil)
    if obj.get("base") == "paper":
        return spec_with_overrides(paper_chain_spec(), obj.get("overrides", {}),
                                   name=obj.get("name"))
    raise ValueError("spec JSON needs either 'rows' or 'base': 'paper'")


# ---------------------------------------------------------------------------
# per-point tensor evaluator
# ---------------------------------------------------------------------------


class TensorPoint:
    """All tensor evaluations of one spec at one rational point, cached.

    Each object is a sparse row of exact values, built once per point on
    first read: ``row(k)`` = {j: a^k_j}, the partials {(j, p): d_p a^k_j} of
    row k, ``nijenhuis_row(i)`` = {(j, k): N^i_jk} and ``haantjes_row(i)`` =
    {(j, k): H^i_jk}.  A tensor row is scattered from the nonzero entries of
    the rows it reads (see the module docstring).  Values are of the
    point's type; zero values are dropped, and anything absent reads as one
    shared ``Fraction(0)``.
    """

    def __init__(self, spec: ChainMatrixSpec, point: RationalPoint):
        self.spec = spec
        self.point = point
        self._row_polys: dict[int, dict[int, Poly]] = {}
        self._rows: dict[int, dict[int, Fraction]] = {}
        self._jacobians: dict[int, dict[tuple[int, int], Fraction]] = {}
        self._n: dict[int, dict[tuple[int, int], Fraction]] = {}
        self._h: dict[int, dict[tuple[int, int], Fraction]] = {}

    # -- exact values ----------------------------------------------------------

    def row_polys(self, k: int) -> dict[int, Poly]:
        row = self._row_polys.get(k)
        if row is None:
            row = self.spec.rows(k)
            self._row_polys[k] = row
        return row

    def row(self, k: int) -> dict[int, Fraction]:
        row = self._rows.get(k)
        if row is None:
            row = {j: poly.eval(self.point.at)
                   for j, poly in self.row_polys(k).items()}
            self._rows[k] = row
        return row

    def entry(self, k: int, j: int) -> Fraction:
        return self.row(k).get(j, _ZERO)

    def _jacobian(self, k: int) -> dict[tuple[int, int], Fraction]:
        """{(j, p): d_p a^k_j}, the nonzero partials of row k."""
        out = self._jacobians.get(k)
        if out is None:
            out = {}
            for j, poly in self.row_polys(k).items():
                for p in poly.variables():
                    val = poly.diff(p).eval(self.point.at)
                    if val:
                        out[(j, p)] = val
            self._jacobians[k] = out
        return out

    def partial(self, k: int, j: int, p: int) -> Fraction:
        return self._jacobian(k).get((j, p), _ZERO)

    # -- tensors ---------------------------------------------------------------

    def nijenhuis_row(self, i: int) -> dict[tuple[int, int], Fraction]:
        """{(j, k): N^i_jk}, nonzero entries only."""
        out = self._n.get(i)
        if out is None:
            acc: dict[tuple[int, int], Fraction] = {}
            for (k, p), dik in self._jacobian(i).items():
                for j, apj in self.row(p).items():
                    v = apj * dik                    # a^p_j d_p a^i_k
                    _scatter(acc, (j, k), v)
                    _scatter(acc, (k, j), -v)
            for p, aip in self.row(i).items():
                for (k, j), dpk in self._jacobian(p).items():
                    v = aip * dpk                    # a^i_p d_j a^p_k
                    _scatter(acc, (j, k), -v)
                    _scatter(acc, (k, j), v)
            out = self._n[i] = _nonzero(acc)
        return out

    def haantjes_row(self, i: int) -> dict[tuple[int, int], Fraction]:
        """{(j, k): H^i_jk}, nonzero entries only."""
        out = self._h.get(i)
        if out is None:
            acc: dict[tuple[int, int], Fraction] = {}
            # + N^i_pr a^p_j a^r_k
            for (p, r), n in self.nijenhuis_row(i).items():
                for j, apj in self.row(p).items():
                    for k, ark in self.row(r).items():
                        _scatter(acc, (j, k), n * apj * ark)
            # - N^p_ab a^i_p a^b_k at (a, k), - N^p_ab a^i_p a^a_j at (j, b),
            # + a^i_p a^p_q N^q_jk
            for p, aip in self.row(i).items():
                for (a, b), n in self.nijenhuis_row(p).items():
                    v = -(aip * n)
                    for k, abk in self.row(b).items():
                        _scatter(acc, (a, k), v * abk)
                    for j, aaj in self.row(a).items():
                        _scatter(acc, (j, b), v * aaj)
                for q, apq in self.row(p).items():
                    v = aip * apq
                    for jk, n in self.nijenhuis_row(q).items():
                        _scatter(acc, jk, v * n)
            out = self._h[i] = _nonzero(acc)
        return out

    def nijenhuis(self, i: int, j: int, k: int) -> Fraction:
        return self.nijenhuis_row(i).get((j, k), _ZERO)

    def haantjes(self, i: int, j: int, k: int) -> Fraction:
        return self.haantjes_row(i).get((j, k), _ZERO)


def _over(poly: Poly, common: int) -> Poly:
    """``poly`` with each non-integer coefficient whose denominator divides
    ``common`` written as a LazyFraction over ``common``."""
    return Poly._of({m: LazyFraction(c.numerator * (common // c.denominator), common)
                     if c.denominator != 1 and common % c.denominator == 0 else c
                     for m, c in poly.terms.items()})


def _lazy_tensor_point(spec: ChainMatrixSpec, point: RationalPoint) -> TensorPoint:
    """``TensorPoint`` of ``spec`` over ``point.lazy``, with the coefficient
    denominators of the spec's rows |k| <= point.window folded into the
    common denominator L and those coefficients put over L.  Every
    coefficient and value of those rows is then an integer or a
    LazyFraction over L, so every product carries a power of L and every
    sum reuses the larger power."""
    denominator = _denominator(spec.rows, point.window)
    point = point.lazy(denominator)
    if denominator == 1:
        return TensorPoint(spec, point)
    rows = spec.rows
    return TensorPoint(replace(spec, rows=lambda k: {j: _over(poly, point.common)
                                                     for j, poly in rows(k).items()}), point)


@lru_cache(maxsize=64)
def _denominator(rows: Callable[[int], dict[int, Poly]], window: int) -> int:
    """The lcm of the coefficient denominators of the rows |k| <= window that
    a spec's ``rows`` generates, cached per generator and window."""
    return over_lcm(c for k in range(-window, window + 1)
                    for poly in rows(k).values() for c in poly.terms.values())[0]


def _scatter(acc: dict, key: tuple[int, int], value) -> None:
    old = acc.get(key)
    acc[key] = value if old is None else old + value


def _nonzero(acc: dict) -> dict:
    return {key: v for key, v in acc.items() if v}


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


def _expected_nijenhuis(table: Mapping[tuple[int, int], Fraction], j: int,
                        k: int) -> Fraction:
    """N^i_jk read off the printed table of one i, antisymmetric in (j, k)."""
    if (j, k) in table:
        return table[(j, k)]
    if (k, j) in table:
        return -table[(k, j)]
    return _ZERO


def nijenhuis_oracle_check(point: RationalPoint) -> dict:
    """Compare every engine N^i_jk against the printed table.

    Scans |i| <= 6 and |j|, |k| <= 8; entries absent from the printed table
    must evaluate to the exact integer 0.  Both sides are evaluated at
    ``point.lazy()``; a mismatch is reported as reduced Fraction strings.
    """
    ev = _lazy_tensor_point(paper_chain_spec(), point)
    point = ev.point
    mismatches = []
    checked = 0
    for i in range(-6, 7):
        table = appendix_nijenhuis_table(i, point)
        for j in range(-8, 9):
            for k in range(j + 1, 9):
                expected = _expected_nijenhuis(table, j, k)
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
    diagonalisability test passed (exact zeros, no tolerance).  Each point
    is evaluated over one common denominator (``RationalPoint.lazy``) and a
    nonzero entry is reduced once, for its report string.
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
        ev = _lazy_tensor_point(spec, point)
        for i in range(-window, window + 1):
            for (j, k), val in sorted(ev.haantjes_row(i).items()):
                if -window <= j <= k <= window:
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
