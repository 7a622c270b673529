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
Polys (a symbolic point) or plain ints.  Every exact point the package
draws is read in ints, by one reader: ``_IntegerRows.point`` serves both
the scans ``haantjes_scan`` and ``nijenhuis_oracle_check`` and the chain
rows of the reduction jets (``reductions.ReductionJet``).  A point's values
are put over one denominator L by ``poly.over_lcm``, u^p = n_p / L, and the
spec's rows are rewritten once per point as integer polynomials at one
scale: with D the largest monomial degree (at least 1) and C the lcm of the
coefficient denominators over the rows the reader's window covers, a term
c u^{p_1}..u^{p_d} becomes c C L^(D-d) n_{p_1}..n_{p_d}.  At the numerators
n_p a row entry then evaluates to a^k_j S with S = C L^D, a partial by n_p
to d_p a^k_j S/L, so N^i_jk carries S^2/L and H^i_jk S^4/L, and no
operation pays a gcd.  A
value is reduced once, ``Fraction(value, scale)``, where it enters a report;
an exact zero is the int 0, and zero entries are dropped from every row.

Every per-point table of a ``TensorPoint`` follows one memo rule
(``_Memo``): a missing row is built on first read and kept.  A build
closes over the memos it reads, never over the ``TensorPoint``, so the
object is in no reference cycle and is freed with its last reference.

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

import functools
import itertools
import json
import random
import re
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterator, Mapping, NamedTuple

from .lax import chain_matrix_terms
from .poly import _ZERO, Poly, over_lcm

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
    """Exact values for the components u^p on the window |p| <= window."""

    values: Mapping[int, Fraction]
    window: int

    def at(self, p: int) -> Fraction:
        if abs(p) > self.window:
            raise WindowError(
                f"component u^{p} outside the supplied window |p| <= {self.window}"
            )
        return self.values.get(p, _ZERO)


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


@functools.lru_cache(maxsize=None)
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
                parsed.setdefault(_index(k_s), {})[_index(j_s)] = Poly.from_table(t)
    band = max([1] + [abs(j - k) for k, row in parsed.items() for j in row if j not in (0, 1)])
    if stencil > band:
        raise ValueError(f"spec 'stencil' {stencil} is past the table's band: its entries "
                         f"with j not in {{0, 1}} need stencil <= {band}")

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
            parsed[(_index(k_s), _index(j_s))] = Poly.from_table(table)

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


def _index(key: str) -> int:
    """A spec's row or column key: an optional minus sign and ASCII digits,
    so that "1_0", " 2", "+3" or a non-ASCII digit, which ``int`` reads as
    another row or column, is a ValueError."""
    if not isinstance(key, str) or not re.fullmatch(r"-?[0-9]+", key):
        raise ValueError(f"the key {key!r} is not an optional '-' and the digits 0-9")
    return int(key)


class _JSONNumber(Fraction):
    """A JSON number read exactly from its decimal text, which it shows as
    its repr: 1e-400 is 10^-400, not the float 0.0."""

    __slots__ = ("_text",)

    def __new__(cls, text: str):
        self = super().__new__(cls, text)
        self._text = text
        return self

    def __repr__(self) -> str:
        return self._text


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

    The ``stencil`` s (default 1) sizes a scan's random points
    (``_scan_points``); it must be an integer 0 <= s <= max(1, the largest
    |j - k| over the entries with j not in {0, 1}), else ValueError.  A
    row key k or column key j is an optional '-' and the digits 0-9.  A
    file's JSON numbers with a fraction or an exponent are read exactly
    from their decimal text, so a coefficient 1e-400 is 10^-400.
    """
    if isinstance(path_or_obj, Mapping):
        obj = path_or_obj
    else:
        with open(path_or_obj, "r", encoding="utf-8") as fh:
            obj = json.load(fh, parse_float=_JSONNumber)
    if not isinstance(obj, Mapping) or not isinstance(obj.get("overrides", {}), Mapping):
        raise ValueError("spec JSON must be an object, and its 'overrides' an object")
    if "rows" in obj:
        stencil = obj.get("stencil", 1)
        if type(stencil) is not int or stencil < 0:
            raise ValueError(f"spec 'stencil' must be a non-negative integer, got {stencil!r}")
        return spec_from_table(obj.get("name", "user-spec"), obj["rows"], stencil)
    if obj.get("base") == "paper":
        return spec_with_overrides(paper_chain_spec(), obj.get("overrides", {}),
                                   name=obj.get("name"))
    raise ValueError("spec JSON needs either 'rows' or 'base': 'paper'")


# ---------------------------------------------------------------------------
# per-point tensor evaluator
# ---------------------------------------------------------------------------


class _Memo(dict):
    """A table whose missing entry is built by ``build(key)`` on first read
    and kept; ``memo(key)`` reads as ``memo[key]`` does."""

    def __init__(self, build: Callable):
        self._build = build

    def __missing__(self, key):
        value = self[key] = self._build(key)
        return value

    __call__ = dict.__getitem__


class TensorPoint:
    """All tensor evaluations of one spec at one rational point, each table a
    ``_Memo`` of sparse rows: ``row_polys(k)`` = ``spec.rows(k)``, ``row(k)`` =
    {j: a^k_j}, ``_jacobian(k)`` = {(j, p): d_p a^k_j}, ``nijenhuis_row(i)`` =
    {(j, k): N^i_jk} and ``haantjes_row(i)`` = {(j, k): H^i_jk}.  A build
    closes over the memos it reads, not over the object.  Values are of the
    point's type; zero values are dropped, so an entry absent from its row
    is zero (``row.get(key, 0)``); there are no single-entry readers.
    """

    def __init__(self, spec: ChainMatrixSpec, point: RationalPoint):
        self.spec = spec
        self.point = point
        at = point.at
        self.row_polys = row_polys = _Memo(spec.rows)
        self.row = row = _Memo(lambda k: {j: v for j, poly in row_polys[k].items()
                                          if (v := poly.eval(at))})
        self._jacobian = jacobian = _Memo(functools.partial(_jacobian, row_polys, at))
        self.nijenhuis_row = n_row = _Memo(functools.partial(_nijenhuis_row, row, jacobian))
        self.haantjes_row = _Memo(functools.partial(_haantjes_row, row, n_row))


def _jacobian(row_polys: _Memo, at: Callable, k: int) -> dict[tuple[int, int], Fraction]:
    """{(j, p): d_p a^k_j}, the nonzero partials of row k."""
    out = {}
    for j, poly in row_polys[k].items():
        for p in poly.variables():
            val = poly.diff(p).eval(at)
            if val:
                out[(j, p)] = val
    return out


def _nijenhuis_row(row: _Memo, jacobian: _Memo, i: int) -> dict[tuple[int, int], Fraction]:
    """{(j, k): N^i_jk}, nonzero entries only."""
    acc: dict[tuple[int, int], Fraction] = {}
    for (k, p), dik in jacobian[i].items():
        for j, apj in row[p].items():
            v = apj * dik                    # a^p_j d_p a^i_k
            _scatter(acc, (j, k), v)
            _scatter(acc, (k, j), -v)
    for p, aip in row[i].items():
        for (k, j), dpk in jacobian[p].items():
            v = aip * dpk                    # a^i_p d_j a^p_k
            _scatter(acc, (j, k), -v)
            _scatter(acc, (k, j), v)
    return _nonzero(acc)


def _haantjes_row(row: _Memo, nijenhuis_row: _Memo, i: int) -> dict[tuple[int, int], Fraction]:
    """{(j, k): H^i_jk}, nonzero entries only."""
    acc: dict[tuple[int, int], Fraction] = {}
    # + N^i_pr a^p_j a^r_k
    for (p, r), n in nijenhuis_row[i].items():
        for j, apj in row[p].items():
            for k, ark in row[r].items():
                _scatter(acc, (j, k), n * apj * ark)
    # - N^p_ab a^i_p a^b_k at (a, k), - N^p_ab a^i_p a^a_j at (j, b),
    # + a^i_p a^p_q N^q_jk
    for p, aip in row[i].items():
        for (a, b), n in nijenhuis_row[p].items():
            v = -(aip * n)
            for k, abk in row[b].items():
                _scatter(acc, (a, k), v * abk)
            for j, aaj in row[a].items():
                _scatter(acc, (j, b), v * aaj)
        for q, apq in row[p].items():
            v = aip * apq
            for jk, n in nijenhuis_row[q].items():
                _scatter(acc, jk, v * n)
    return _nonzero(acc)


def _scatter(acc: dict, key: tuple[int, int], value) -> None:
    old = acc.get(key)
    acc[key] = value if old is None else old + value


def _nonzero(acc: dict) -> dict:
    return {key: v for key, v in acc.items() if v}


class _IntegerRows:
    """The rows of ``spec`` as integer polynomials, one scale per point.

    Over the rows |k| <= ``window``, the window of the points read, ``degree`` D
    is the largest monomial degree, at least 1 so that a partial's scale S/L
    is an integer, and ``denominator`` C the lcm of the coefficient
    denominators.  ``point`` evaluates a point in ints: with L the lcm of
    its denominators, the spec whose term c u^{p_1}..u^{p_d} has the int
    coefficient c C L^(D-d), at the numerators n_p = L u^p, gives each entry
    as a^k_j S, S = C L^D, exactly.  A row of degree above D or with a
    coefficient denominator that does not divide C (one outside the range,
    say) raises ValueError: it has no value at that scale.
    """

    def __init__(self, spec: ChainMatrixSpec, window: int):
        self.spec = spec
        polys = [poly for k in range(-window, window + 1) for poly in spec.rows(k).values()]
        self.degree = max([1] + [len(mono) for poly in polys for mono in poly.terms])
        self.denominator = lcm(*(c.denominator for poly in polys for c in poly.terms.values()))
        self._window = window
        self._terms = _Memo(self._integer_terms)

    def _integer_terms(self, k: int) -> dict[int, tuple[tuple[tuple, int, int], ...]]:
        """{j: ((monomial, c C, D - d), ...)} of row k, its zero entries dropped."""
        out = {}
        for j, poly in self.spec.rows(k).items():
            terms = []
            for mono, c in poly.terms.items():
                if len(mono) > self.degree or self.denominator % c.denominator:
                    raise ValueError(
                        f"spec row {k}, column {j}: the term {c} at u^{list(mono)} has no "
                        f"integer value at the scale C L^D with C = {self.denominator}, "
                        f"D = {self.degree}, set by the rows |k| <= {self._window}")
                terms.append((mono, c.numerator * (self.denominator // c.denominator),
                              self.degree - len(mono)))
            if terms:
                out[j] = tuple(terms)
        return out

    def point(self, point: RationalPoint) -> "_ScanPoint":
        """``point`` and the spec at it in ints: with L the lcm of the point's
        denominators, the numerators n_p = L u^p and every row at the scale
        S = C L^D."""
        common, numerators = over_lcm(point.values.values())
        powers = [common ** e for e in range(self.degree + 1)]

        def rows(k: int) -> dict[int, Poly]:
            return {j: Poly._of({mono: c * powers[e] for mono, c, e in row})
                    for j, row in self._terms[k].items()}

        spec = ChainMatrixSpec(name=self.spec.name, rows=rows, stencil=self.spec.stencil)
        integers = RationalPoint(values=dict(zip(point.values, numerators)), window=point.window)
        return _ScanPoint(point, TensorPoint(spec, integers), self.denominator * powers[-1],
                          common)


class _ScanPoint(NamedTuple):
    """One point read in ints: the exact ``point`` and ``tensors``, the spec
    at it in ints.  a^k_j is ``tensors.row(k)[j]`` / ``scale`` (S = C L^D, with L =
    ``common`` the lcm of the point's denominators); a partial carries S/L,
    N^i_jk S^2/L and H^i_jk S^4/L."""

    point: RationalPoint
    tensors: TensorPoint
    scale: int
    common: int


def _scan_points(spec: ChainMatrixSpec, points: int, seed: int, reach: int,
                 order: int) -> Iterator[_ScanPoint]:
    """``_ScanPoint``s of ``spec`` at ``points`` random points of one
    ``random.Random(seed)``, of the least window at which every N (``order``
    1) or H (``order`` 2) entry with indices in [-reach, reach] evaluates:
    each order reads rows ``spec.stencil`` further out, and partials one
    more."""
    rng = random.Random(seed)
    window = reach + order * (spec.stencil + 1)
    integer_rows = _IntegerRows(spec, window)
    for _ in range(points):
        yield integer_rows.point(random_rational_point(rng, window))


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


def nijenhuis_oracle_check(points: int = 5, seed: int = 0) -> dict:
    """Compare every engine N^i_jk against the printed table at ``points``
    random points drawn from one ``random.Random(seed)``.

    Scans |i| <= 6 and |j|, |k| <= 8; entries absent from the printed table
    must evaluate to the exact integer 0.  The printed table is evaluated at
    the Fraction point, the engine in ints (``_scan_points``); an engine
    value is reduced once, over its scale S^2/L, and a mismatch is reported
    as reduced Fraction strings.
    """
    if points < 1:
        raise ValueError(f"points={points} checks nothing; need points >= 1")
    mismatches = []
    checked = 0
    pairs = set(itertools.combinations(range(-8, 9), 2))
    for point, ev, scale, common in _scan_points(paper_chain_spec(), points, seed, 8, 1):
        n_scale = scale * scale // common
        for i in range(-6, 7):
            table = appendix_nijenhuis_table(i, point)
            row = ev.nijenhuis_row(i)
            checked += len(pairs)
            # a pair in neither the printed table nor the engine row is 0 on both sides
            for j, k in sorted(pairs.intersection((min(jk), max(jk)) for jk in (*table, *row))):
                expected = _expected_nijenhuis(table, j, k)
                got = row.get((j, k))
                got = Fraction(got, n_scale) if got else _ZERO
                if got != expected:
                    mismatches.append({"entry": [i, j, k], "engine": str(got),
                                       "printed": str(expected)})
    return {"points": points, "seed": seed, "entries_checked": checked,
            "nijenhuis_mismatches": mismatches}


def haantjes_scan(window: int = 6, points: int = 50, seed: int = 0,
                  spec: ChainMatrixSpec | None = None) -> dict:
    """Evaluate H^i_jk for all |i|,|j|,|k| <= window at random rational points.

    Returns the JSON-ready report; ``haantjes_nonzero`` empty means the
    diagonalisability test passed (exact zeros, no tolerance).  Each point
    is evaluated in ints at one scale (``_scan_points``) and a nonzero entry
    is reduced once, over its scale S^4/L, for its report string.
    """
    if window < 0 or points < 1:
        raise ValueError(f"window {window} and points {points} check nothing; "
                         f"need window >= 0 and points >= 1")
    spec = spec or paper_chain_spec()
    nonzero = []
    for p_idx, (_point, ev, scale, common) in enumerate(
            _scan_points(spec, points, seed, window, 2)):
        h_scale = scale ** 4 // common
        for i in range(-window, window + 1):
            for (j, k), val in sorted(ev.haantjes_row(i).items()):
                if -window <= j <= k <= window:
                    nonzero.append({
                        "entry": [i, j, k],
                        "point_index": p_idx,
                        "value": str(Fraction(val, h_scale)),
                    })
    return {
        "spec": spec.name,
        "window": window,
        "points": points,
        "seed": seed,
        "haantjes_nonzero": nonzero,
        "nijenhuis_mismatches": [],
    }
