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
is what certifies integrability.  Every compatibility condition involves at
most three directions, so involutivity and Tsarev's semi-Hamiltonian
property for a generic triple prove them for reductions in any number of
components.  That proof is in tier-1
(``tests/test_reductions.py::test_the_closure_is_involutive_and_semi_hamiltonian_for_every_n``):
it runs ``_closure`` over sympy's rational-function field on its 10
generators, and every residual vanishes identically.  The ``gt`` report is
an exact regression check of the same closure on sampled jets.  The system
is written once, as ``_closure``, which returns the three values of a pair
(i, j) as numerators over denominators, using only + - *; the last two are
symmetric in (i, j).  Each residual d_k F(i, j) - d_j F(i, k) reads one
first derivative of each of two closure values, so the check runs
``_closure`` forward-mode along one direction R^k at a time, over duals
(value, derivative along R^k): ``_closure`` of a pair (i, k) supplies the
derivatives of i's coordinates along R^k, and over those duals it gives
the residuals' terms.

A ``ReductionJet`` reads N, u^0 and u^1 off ``lam`` and ``u_window``, and
refuses ``lam``, ``du0`` and ``du1`` unless all three name the directions 1..N
and they and u^0 are exact (ints or Fractions).

The whole module runs on Python ints and reduces nothing along the way; a
value is reduced to a Fraction once, where it leaves the module (the components
``tangent_recursion`` returns, the residuals ``gt_involutivity`` returns and
the maximum ``eigen_residual`` returns, whose strings ``involutivity_report``
writes).  The chain rows are read by the scans' integer reader
(``integrability._IntegerRows``, one per u-window for the paper rows): entry
a^k_j reads as the int a^k_j S, S = C L^D with L the lcm of the u-window's
denominators.  The tangent solve is fraction-free elimination: with
lambda^i = p/q, row k reads p S d_i u^k - q sum_j (a^k_j S) d_i u^j = 0, every
known d_i u^j is an int numerator over one running scale sigma, and solving
a row multiplies sigma and those numerators by its pivot q a^k_target S.
The closure is homogeneous of degree 1 in its coordinates, so they are put
over one L and every residual divides by L once; along R^k every first
derivative is an int over Q_k = q u^0 prod_(i != k) (lambda^i - lambda^k)^2,
q the denominator of the constant of d_j lambda^i.
Exact zero means numerator 0, so a residual reads as the integer 0, never
as a value under a tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import prod
from typing import Mapping

from .integrability import (RationalPoint, _IntegerRows, _ScanPoint, paper_chain_spec,
                            random_rational_point)
from .poly import over_lcm

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
    ``u_window``.  ``_rows`` reads the chain rows at ``u_window`` as ints at
    the scale S (an ``integrability._ScanPoint``), once per jet, for the
    fraction-free tangent solve of ``tangent_recursion`` and
    ``eigen_residual`` in every direction.
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
        if not all(isinstance(x, (int, Fraction)) for x in (
                *self.lam.values(), *self.du0.values(), *self.du1.values(), self.u0)):
            raise TypeError("lam, du0, du1 and u^0 must be exact rationals (ints or Fractions)")
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
    du, sigma = _tangent(jet, i, depth)
    return {k: Fraction(n, sigma) for k, n in du.items()}


def _tangent(jet: ReductionJet, i: int, depth: int) -> tuple[dict[int, int], int]:
    """``tangent_recursion`` by fraction-free elimination: the numerators
    n_k and the one scale sigma of d_i u^k = n_k / sigma.  Solving row k for
    its target multiplies sigma and every known numerator by the pivot
    q a^k_target S and stores the row's defect as the target's numerator."""
    if depth < 1:
        raise ValueError(f"depth={depth} solves no row; need depth >= 1")
    if i not in jet.lam:
        raise ValueError(f"direction {i} is not one of the jet's 1..{jet.n_components}")
    if jet.u_window.window < depth + 1:
        raise ValueError(f"u_window must cover |k| <= {depth + 1}")
    lam, rows = _speed(jet, i), jet._rows.tensors
    sigma, (du0, du1) = over_lcm((jet.du0[i], jet.du1[i]))
    du = {0: du0, 1: du1}

    def solve_row(k: int, target: int) -> None:
        nonlocal sigma
        row = rows.row(k)
        pivot = lam[1] * row.get(target, 0)
        if pivot == 0:
            raise ZeroDivisionError(f"row {k} pivot a^{k}_{target} vanished")
        defect = _row_defect(row, lam, du, k, target)
        for j in du:
            du[j] *= pivot
        sigma *= pivot
        du[target] = defect

    solve_row(0, -1)
    if depth >= 2:
        solve_row(1, 2)
    for k in range(2, depth):
        solve_row(k, k + 1)
    for k in range(-1, -depth, -1):
        solve_row(k, k - 1)
    return du, sigma


def _speed(jet: ReductionJet, i: int) -> tuple[int, int]:
    """lambda^i = p/q cleared for the rows at the scale S: (p S, q)."""
    lam = jet.lam[i]
    return lam.numerator * jet._rows.scale, lam.denominator


def _row_defect(row, lam: tuple[int, int], du, k: int, unknown: int | None = None) -> int:
    """p S d_i u^k - q sum_j (a^k_j S) d_i u^j over the columns j of ``row``
    (row k of A at the scale S) other than ``unknown``: the row's defect
    lambda^i d_i u^k - (A d_i u)^k times q S, in the numerators of ``du``."""
    acc = 0
    for j, coeff in row.items():
        if j != unknown:
            acc += coeff * du[j]
    return lam[0] * du[k] - lam[1] * acc


def eigen_residual(jet: ReductionJet, i: int, depth: int) -> Fraction:
    """max_k |lambda^i d_i u^k - (A d_i u)^k| over |k| <= depth-1, exact."""
    du, sigma = _tangent(jet, i, depth)
    lam = _speed(jet, i)
    worst = max(abs(_row_defect(jet._rows.tensors.row(k), lam, du, k))
                for k in range(-(depth - 1), depth))
    return Fraction(worst, abs(sigma * lam[1] * jet._rows.scale))


# ---------------------------------------------------------------------------
# Gibbons-Tsarev closure
# ---------------------------------------------------------------------------


_COUPLING = 4  # the constant in 4 (u^0)^2 of the closure


def _closure(lam_i, lam_j, u0, diu0, dju0, diu1, dju1, c_lam: Fraction):
    """(d_j lambda^i, d_i d_j u^0, d_i d_j u^1) of the Gibbons-Tsarev system
    for a distinct pair (i, j), each a pair (numerator, denominator) made
    with + - * only.  With ``c_lam`` = p/q the constant of the d_j lambda^i
    formula (``_COUPLING`` except in the non-vacuity mutation), the
    denominators are q u^0 (lambda^i - lambda^j), then u^0 (lambda^i -
    lambda^j)^2 twice.  The last two values are symmetric in (i, j)."""
    sq = u0 * u0
    gap = lam_i - lam_j
    den = u0 * gap
    den2 = den * gap
    p, q = c_lam.numerator, c_lam.denominator
    d2u0 = (lam_i * lam_i + lam_j * lam_j - 2 * _COUPLING * sq) * diu0 * dju0
    ci = (lam_j - 2 * lam_i) * lam_j + _COUPLING * sq
    cj = (lam_i - 2 * lam_j) * lam_i + _COUPLING * sq
    return (((p * sq - q * (lam_i * lam_j)) * dju0, q * den), (d2u0, den2),
            (-(ci * diu0 * dju1 + cj * dju0 * diu1), den2))


# ---------------------------------------------------------------------------
# involutivity, forward mode along one direction at a time
# ---------------------------------------------------------------------------


class _Dual:
    """An int value and the int numerator of its derivative along one
    direction R^k, over that direction's Q_k.  The closure formulas combine
    duals by + - * and scale them by int constants."""

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


def _coordinates_along(k: int, u0, coords, c_lam: Fraction):
    """u^0 and, for each direction i != k, i's coordinates (lambda^i, d_i u^0,
    d_i u^1) of ``coords`` as duals along R^k, their derivatives the closure
    of the pair (i, k) as ints over Q_k, which comes third; d_k of k's own
    is not closed, and no residual reads it."""
    lam_k, du0_k, du1_k = coords[k]
    q_k = c_lam.denominator * u0 * prod((coords[i][0] - lam_k) ** 2 for i in coords if i != k)
    duals = {}
    for i, (lam_i, du0_i, du1_i) in coords.items():
        if i != k:
            closed = _closure(lam_i, lam_k, u0, du0_i, du0_k, du1_i, du1_k, c_lam)
            duals[i] = tuple(_Dual(v, n * (q_k // d))
                             for v, (n, d) in zip((lam_i, du0_i, du1_i), closed))
    return _Dual(u0, du0_k * q_k), duals, q_k


def _duals(jet: ReductionJet, c_lam: Fraction) -> tuple[int, dict]:
    """L, the lcm of the denominators of the jet's 10 coordinates u^0 and
    (lambda^i, d_i u^0, d_i u^1), and for k = 1, 2, 3 the
    ``_coordinates_along`` R^k of their numerators over L."""
    common, (u0, *values) = over_lcm([jet.u0] + [x for i in (1, 2, 3)
                                                 for x in (jet.lam[i], jet.du0[i], jet.du1[i])])
    coords = {i: tuple(values[3 * i - 3:3 * i]) for i in (1, 2, 3)}
    return common, {k: _coordinates_along(k, u0, coords, c_lam) for k in (1, 2, 3)}


def gt_involutivity(jet: ReductionJet,
                    mutate_dlam: Fraction | None = None) -> dict[str, Fraction]:
    """Symmetrized-derivative residuals of the closure at ``jet``, exact.

    d_k of a closure value is its formula re-evaluated over duals along R^k,
    every first derivative replaced by its closure value; involutivity says
    the (j, k) symmetrizations vanish.  Only fully distinct index triples
    are formed (N = 3 suffices: every compatibility condition involves at
    most three directions).  The jet's 10 coordinates are put over one L;
    the closure is homogeneous of degree 1, so each residual divides by L
    once.

    ``mutate_dlam`` replaces the coupling constant in the d_j lambda^i
    formula only (the non-vacuity mutation).  Mutating the coupling in all
    formulas at once keeps the system involutive -- the coherent family is
    equivalent to the original under a rescaling of u^0 -- so a corrupted
    constant has to be injected non-coherently to have any power.
    """
    if len(jet.lam) != 3:
        raise ValueError("involutivity check uses exactly three components")
    if not isinstance(mutate_dlam, (int, Fraction, type(None))):
        raise TypeError(f"mutate_dlam must be an exact rational, not {mutate_dlam!r}")
    c_lam = Fraction(_COUPLING if mutate_dlam is None else mutate_dlam)
    common, along = _duals(jet, c_lam)

    def closure_along(k, i, j):  # d_k of the closure values of (i, j), as (n, d)
        u0, duals, q_k = along[k]
        (lam_i, du0_i, du1_i), (lam_j, du0_j, du1_j) = duals[i], duals[j]
        return [(n.d * d.v - n.v * d.d, q_k * d.v * d.v)
                for n, d in _closure(lam_i, lam_j, u0, du0_i, du0_j, du1_i, du1_j, c_lam)]

    residuals: dict[str, Fraction] = {}
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        names = (f"lambda^{i}: d{k}d{j} - d{j}d{k}", f"u0: d{k}d{i}d{j} - d{j}d{i}d{k}",
                 f"u1: d{k}d{i}d{j} - d{j}d{i}d{k}")
        for name, (a_n, a_d), (b_n, b_d) in zip(names, closure_along(k, i, j),
                                                closure_along(j, i, k)):
            residuals[name] = Fraction(a_n * b_d - b_n * a_d, a_d * b_d * common)
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
