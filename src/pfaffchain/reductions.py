"""Hydrodynamic reductions of the even chain: tangent recursion and the
Gibbons-Tsarev closure, all in exact rational arithmetic.

An N-phase ansatz u^k = u^k(R^1..R^N) with diagonal invariants
R^i_t = lambda^i R^i_x turns the chain into the eigenvalue relation
lambda^i d_i u = A(u) d_i u.  Because each row of A has the structural
columns {0, 1, k-1, k+1}, the eigenvector components d_i u^k are determined
row by row from the two seeds (d_i u^0, d_i u^1); rows 0 and 1 yield
d_i u^-1 and d_i u^2 and the remaining rows propagate outward dividing by
u^0.  Cross-differentiating the first few of these relations closes into the
Gibbons-Tsarev system

    d_j lambda^i  = (4(u^0)^2 - lambda^i lambda^j)
                    / (u^0 (lambda^i - lambda^j)) * d_j u^0
    d_i d_j u^0   = ((lambda^i)^2 + (lambda^j)^2 - 8(u^0)^2)
                    / (u^0 (lambda^i - lambda^j)^2) * d_i u^0 d_j u^0
    d_i d_j u^1   = -((lambda^j - 2 lambda^i) lambda^j + 4(u^0)^2)
                    / (u^0 (lambda^i - lambda^j)^2) * d_i u^0 d_j u^1
                    - (i <-> j)

whose involutivity (equality of mixed third derivatives modulo the closure)
is what certifies integrability.  The system is written once, as
``_closure``, which returns the three values of a pair (i, j), the last two
symmetric in (i, j).  Each residual d_k F(i, j) - d_j F(i, k) reads one
first derivative of each of two closure values, so the check runs
``_closure`` forward-mode along one direction R^k at a time, over duals
(value, derivative along R^k): ``_closure`` of a pair (i, k) supplies the
derivatives of i's coordinates along R^k, and over those duals it gives the
residuals' terms.

A ``ReductionJet`` reads N, u^0 and u^1 off ``lam`` and ``u_window``, and
refuses ``lam``, ``du0`` and ``du1`` unless all three name the directions 1..N.

The chain rows only add and multiply, so they are read in ints by the
scans' reader (``integrability._IntegerRows``, one per u-window for the
paper rows): entry a^k_j reads as a^k_j S, S = C L^D with L the lcm of the
u-window's denominators.  lambda^i d_i u = A d_i u is homogeneous, so the
tangent solve multiplies lambda^i by S and every d_i u^k comes out the same
rational; ``eigen_residual`` divides its maximum by S once.  The tangent
solve divides by a pivot and the closure by differences of speeds, so those
two kernels run on unreduced rationals (``lazyfraction.LazyFraction``),
never reduced along the way.  A value is reduced to a Fraction once, where
it leaves this module: the components ``tangent_recursion`` returns, the
residuals ``gt_involutivity`` returns, the maximum ``eigen_residual``
returns and the strings of ``involutivity_report``.  Exact zero means
numerator 0, so a residual reads as the integer 0, never as a value under a
tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping

from .integrability import (RationalPoint, _IntegerRows, _ScanPoint, paper_chain_spec,
                            random_rational_point)
from .lazyfraction import LazyFraction, lazy

__all__ = [
    "ReductionJet",
    "random_jet",
    "tangent_recursion",
    "eigen_residual",
    "DegenerateSpeedsError",
    "gt_involutivity",
    "involutivity_report",
]


class DegenerateSpeedsError(ValueError):
    """Two characteristic speeds coincide."""


@dataclass(frozen=True)
class ReductionJet:
    """First-order jet data of an N-component reduction at one point.

    ``lam``, ``du0`` and ``du1`` map each direction i = 1..N, and only those,
    to lambda^i, d_i u^0 and d_i u^1; ``u_window`` carries the u^k values the
    tangent recursion needs, and N, u^0 and u^1 are read off ``lam`` and
    ``u_window``.  ``_rows`` reads the chain rows at ``u_window`` in ints at
    the scale S (an ``integrability._ScanPoint``), once per jet, for
    ``tangent_recursion`` and ``eigen_residual`` in every direction.
    """

    lam: Mapping[int, Fraction]
    du0: Mapping[int, Fraction]
    du1: Mapping[int, Fraction]
    u_window: RationalPoint

    def __post_init__(self):
        directions = set(range(1, len(self.lam) + 1))
        if not self.lam.keys() == self.du0.keys() == self.du1.keys() == directions:
            raise ValueError(f"lam, du0 and du1 must name the directions 1..{len(self.lam)}, "
                             f"not {sorted(self.lam)}, {sorted(self.du0)}, {sorted(self.du1)}")
        if self.u0 == 0:
            raise ValueError("u^0 must be nonzero")
        if len(set(self.lam.values())) != len(self.lam):
            raise DegenerateSpeedsError("characteristic speeds must be pairwise distinct")

    n_components = property(lambda self: len(self.lam))
    u0 = property(lambda self: self.u_window.at(0))
    u1 = property(lambda self: self.u_window.at(1))

    @cached_property
    def _rows(self) -> _ScanPoint:
        return _paper_integer_rows(self.u_window.window).point(self.u_window)


@lru_cache(maxsize=None)
def _paper_integer_rows(window: int) -> _IntegerRows:
    """The paper spec's integer rows for jets of one u-window."""
    return _IntegerRows(paper_chain_spec(), window)


def random_jet(rng: random.Random, n_components: int = 3, window: int = 10) -> ReductionJet:
    """Random exact jet with pairwise distinct speeds and u^0 != 0."""
    point = random_rational_point(rng, window)
    lam: dict[int, Fraction] = {}
    while len(set(lam.values())) < n_components:
        lam = {i: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
               for i in range(1, n_components + 1)}
    du0 = {i: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
           for i in range(1, n_components + 1)}
    du1 = {i: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
           for i in range(1, n_components + 1)}
    return ReductionJet(lam=lam, du0=du0, du1=du1, u_window=point)


# ---------------------------------------------------------------------------
# tangent recursion and the eigenvalue relation
# ---------------------------------------------------------------------------


def tangent_recursion(jet: ReductionJet, i: int, depth: int) -> dict[int, Fraction]:
    """Solve lambda^i d_i u = A(u) d_i u for d_i u^k, |k| <= depth.

    Row k determines the single unknown neighbour (k+1 going up, k-1 going
    down); each step divides by the structural entry a^k_{k+-1} = u^0.
    ValueError for depth < 1, a direction outside the jet's 1..N or a
    ``u_window`` narrower than depth + 1.
    """
    return {k: v.fraction() for k, v in _tangent(jet, i, depth).items()}


def _tangent(jet: ReductionJet, i: int, depth: int) -> dict[int, LazyFraction]:
    """``tangent_recursion``, unreduced."""
    if depth < 1:
        raise ValueError(f"depth={depth} solves no row; need depth >= 1")
    if i not in jet.lam:
        raise ValueError(f"direction {i} is not one of the jet's 1..{jet.n_components}")
    if jet.u_window.window < depth + 1:
        raise ValueError(f"u_window must cover |k| <= {depth + 1}")
    lam = lazy(jet.lam[i]) * jet._rows.scale
    du = {0: lazy(jet.du0[i]), 1: lazy(jet.du1[i])}

    def solve_row(k: int, target: int) -> LazyFraction:
        row = jet._rows.tensors.row(k)
        pivot = row.get(target, 0)
        if pivot == 0:
            raise ZeroDivisionError(f"row {k} pivot a^{k}_{target} vanished")
        return _row_defect(row, lam, du, k, target) / pivot

    du[-1] = solve_row(0, -1)
    if depth >= 2:
        du[2] = solve_row(1, 2)
    for k in range(2, depth):
        du[k + 1] = solve_row(k, k + 1)
    for k in range(-1, -depth, -1):
        du[k - 1] = solve_row(k, k - 1)
    return {k: v for k, v in du.items() if abs(k) <= depth}


def _row_defect(row, lam, du, k: int, unknown: int | None = None) -> LazyFraction:
    """lambda d_i u^k - sum_j a^k_j d_i u^j over the columns j of ``row`` (row
    k of A) other than ``unknown``."""
    acc = lam * du[k]
    for j, coeff in row.items():
        if j != unknown:
            acc -= coeff * du[j]
    return acc


def eigen_residual(jet: ReductionJet, i: int, depth: int) -> Fraction:
    """max_k |lambda^i d_i u^k - (A d_i u)^k| over |k| <= depth-1, exact."""
    du = _tangent(jet, i, depth)
    lam = lazy(jet.lam[i]) * jet._rows.scale
    worst = Fraction(0)
    for k in range(-(depth - 1), depth):
        res = _row_defect(jet._rows.tensors.row(k), lam, du, k)
        if res:
            worst = max(worst, abs(res.fraction()))
    return worst / jet._rows.scale


# ---------------------------------------------------------------------------
# Gibbons-Tsarev closure
# ---------------------------------------------------------------------------


_COUPLING = 4  # the constant in 4 (u^0)^2 of the closure


def _closure(lam_i, lam_j, u0, diu0, dju0, diu1, dju1, c_lam):
    """(d_j lambda^i, d_i d_j u^0, d_i d_j u^1) of the Gibbons-Tsarev system
    for a distinct pair (i, j); the last two are symmetric in (i, j).
    ``c_lam`` is the constant of the d_j lambda^i formula: ``_COUPLING``
    except in the non-vacuity mutation."""
    sq = u0 * u0
    gap = lam_i - lam_j
    den = u0 * gap
    den2 = den * gap
    dlam = (c_lam * sq - lam_i * lam_j) / den * dju0
    d2u0 = (lam_i * lam_i + lam_j * lam_j - 2 * _COUPLING * sq) / den2 * diu0 * dju0
    ci = (lam_j - 2 * lam_i) * lam_j + _COUPLING * sq
    cj = (lam_i - 2 * lam_j) * lam_i + _COUPLING * sq
    return dlam, d2u0, -(ci * diu0 * dju1 + cj * dju0 * diu1) / den2


# ---------------------------------------------------------------------------
# involutivity, forward mode along one direction at a time
# ---------------------------------------------------------------------------


class _Dual:
    """A value and its derivative along one direction R^k.  The closure
    formulas combine duals by + - * / and scale them by constants."""

    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v = v
        self.d = d

    def __add__(self, other):
        return _Dual(self.v + other.v, self.d + other.d)

    def __sub__(self, other):
        return _Dual(self.v - other.v, self.d - other.d)

    def __neg__(self):
        return _Dual(-self.v, -self.d)

    def __mul__(self, other):
        if type(other) is _Dual:
            return _Dual(self.v * other.v, self.d * other.v + self.v * other.d)
        return _Dual(self.v * other, self.d * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        q = self.v / other.v
        return _Dual(q, (self.d - q * other.d) / other.v)


def _coordinates_along(k: int, u0, coords, c_lam):
    """u^0 and, for each direction i != k, i's coordinates (lambda^i, d_i u^0,
    d_i u^1) of ``coords`` as duals along R^k, their derivatives the closure
    of the pair (i, k); d_k of k's own is not closed, and no residual reads it."""
    lam_k, du0_k, du1_k = coords[k]
    return _Dual(u0, du0_k), {
        i: tuple(map(_Dual, (lam_i, du0_i, du1_i),
                     _closure(lam_i, lam_k, u0, du0_i, du0_k, du1_i, du1_k, c_lam)))
        for i, (lam_i, du0_i, du1_i) in coords.items() if i != k}


def gt_involutivity(jet: ReductionJet,
                    mutate_dlam: Fraction | None = None) -> dict[str, Fraction]:
    """Symmetrized-derivative residuals of the closure at ``jet``, exact.

    d_k of a closure value is its formula re-evaluated over duals along R^k,
    every first derivative replaced by its closure value; involutivity says
    the (j, k) symmetrizations vanish.  Only fully distinct index triples
    are formed (N = 3 suffices: every compatibility condition involves at
    most three directions).

    ``mutate_dlam`` replaces the coupling constant in the d_j lambda^i
    formula only (the non-vacuity mutation).  Mutating the coupling in all
    formulas at once keeps the system involutive -- the coherent family is
    equivalent to the original under a rescaling of u^0 -- so a corrupted
    constant has to be injected non-coherently to have any power.
    """
    if len(jet.lam) != 3:
        raise ValueError("involutivity check uses exactly three components")
    c_lam = lazy(_COUPLING if mutate_dlam is None else mutate_dlam)
    coords = {i: (lazy(jet.lam[i]), lazy(jet.du0[i]), lazy(jet.du1[i])) for i in (1, 2, 3)}
    along = {k: _coordinates_along(k, lazy(jet.u0), coords, c_lam) for k in (1, 2, 3)}

    def closure_along(k, i, j):  # d_k of the closure values of the pair (i, j)
        u0, duals = along[k]
        (lam_i, du0_i, du1_i), (lam_j, du0_j, du1_j) = duals[i], duals[j]
        return [v.d for v in _closure(lam_i, lam_j, u0, du0_i, du0_j, du1_i, du1_j, c_lam)]

    residuals: dict[str, Fraction] = {}
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        names = (f"lambda^{i}: d{k}d{j} - d{j}d{k}", f"u0: d{k}d{i}d{j} - d{j}d{i}d{k}",
                 f"u1: d{k}d{i}d{j} - d{j}d{i}d{k}")
        for name, a, b in zip(names, closure_along(k, i, j), closure_along(j, i, k)):
            residuals[name] = (a - b).fraction()
    return residuals


def involutivity_report(jets: int = 100, seed: int = 0,
                        mutate_dlam: Fraction | None = None) -> dict:
    """JSON-ready batch report over random jets (Rationals as strings)."""
    if jets < 1:
        raise ValueError(f"jets={jets} checks nothing; need jets >= 1")
    rng = random.Random(seed)
    worst_inv = Fraction(0)
    worst_eig = Fraction(0)
    for _ in range(jets):
        jet = random_jet(rng, n_components=3)
        for r in gt_involutivity(jet, mutate_dlam=mutate_dlam).values():
            worst_inv = max(worst_inv, abs(r))
        for i in (1, 2, 3):
            worst_eig = max(worst_eig, eigen_residual(jet, i, depth=6))
    return {
        "jets": jets,
        "seed": seed,
        "max_involutivity_residual": str(worst_inv),
        "eigen_residual": str(worst_eig),
    }
