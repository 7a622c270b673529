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
is what certifies integrability.  The involutivity check differentiates the
closure formulas forward-mode over the jet coordinates, with the closure
itself supplying the derivatives of the coordinates, so every residual is an
exact Fraction and zero means zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .integrability import RationalPoint, TensorPoint, paper_chain_spec, random_rational_point

__all__ = [
    "ReductionJet",
    "random_jet",
    "tangent_recursion",
    "eigen_residual",
    "DegenerateSpeedsError",
    "GTDerivatives",
    "gt_rhs",
    "JetNum",
    "gt_involutivity",
    "involutivity_report",
]


class DegenerateSpeedsError(ValueError):
    """Two characteristic speeds coincide."""


@dataclass(frozen=True)
class ReductionJet:
    """First-order jet data of an N-component reduction at one point.

    ``lam`` maps the direction index i (1-based) to the characteristic speed
    lambda^i; ``du0``/``du1`` hold d_i u^0 and d_i u^1.  ``u_window`` carries
    the u^k values the tangent recursion needs (with u^0/u^1 agreeing with
    the jet's own fields).  ``_rows`` evaluates the chain rows at
    ``u_window`` once per jet, for ``tangent_recursion`` and
    ``eigen_residual`` in every direction.
    """

    n_components: int
    lam: Mapping[int, Fraction]
    u0: Fraction
    u1: Fraction
    du0: Mapping[int, Fraction]
    du1: Mapping[int, Fraction]
    u_window: RationalPoint

    def __post_init__(self):
        if self.u0 == 0:
            raise ValueError("u^0 must be nonzero")
        speeds = [self.lam[i] for i in range(1, self.n_components + 1)]
        if len(set(speeds)) != len(speeds):
            raise DegenerateSpeedsError("characteristic speeds must be pairwise distinct")
        if self.u_window.at(0) != self.u0 or self.u_window.at(1) != self.u1:
            raise ValueError("u_window must agree with the jet's u^0, u^1")

    @cached_property
    def _rows(self) -> TensorPoint:
        return TensorPoint(paper_chain_spec(), self.u_window)


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
    return ReductionJet(n_components=n_components, lam=lam,
                        u0=point.at(0), u1=point.at(1),
                        du0=du0, du1=du1, u_window=point)


# ---------------------------------------------------------------------------
# tangent recursion and the eigenvalue relation
# ---------------------------------------------------------------------------


def tangent_recursion(jet: ReductionJet, i: int, depth: int) -> dict[int, Fraction]:
    """Solve lambda^i d_i u = A(u) d_i u for d_i u^k, |k| <= depth.

    Row k determines the single unknown neighbour (k+1 going up, k-1 going
    down); each step divides by the structural entry a^k_{k+-1} = u^0.
    """
    if jet.u_window.window < depth + 1:
        raise ValueError(f"u_window must cover |k| <= {depth + 1}")
    lam = jet.lam[i]
    du: dict[int, Fraction] = {0: jet.du0[i], 1: jet.du1[i]}

    def solve_row(k: int, target: int) -> Fraction:
        row = jet._rows.row(k)
        acc = lam * du[k]
        for j, coeff in row.items():
            if j != target:
                acc -= coeff * du[j]
        pivot = row[target]
        if pivot == 0:
            raise ZeroDivisionError(f"row {k} pivot a^{k}_{target} vanished")
        return acc / pivot

    du[-1] = solve_row(0, -1)
    if depth >= 2:
        du[2] = solve_row(1, 2)
    for k in range(2, depth):
        du[k + 1] = solve_row(k, k + 1)
    for k in range(-1, -depth, -1):
        du[k - 1] = solve_row(k, k - 1)
    return {k: v for k, v in du.items() if abs(k) <= depth}


def eigen_residual(jet: ReductionJet, i: int, depth: int) -> Fraction:
    """max_k |lambda^i d_i u^k - (A d_i u)^k| over |k| <= depth-1, exact."""
    du = tangent_recursion(jet, i, depth)
    lam = jet.lam[i]
    worst = Fraction(0)
    for k in range(-(depth - 1), depth):
        acc = Fraction(0)
        for j, coeff in jet._rows.row(k).items():
            acc += coeff * du.get(j, Fraction(0))
        res = abs(lam * du[k] - acc)
        if res > worst:
            worst = res
    return worst


# ---------------------------------------------------------------------------
# Gibbons-Tsarev closure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GTDerivatives:
    dlam_ij: Fraction  # d_j lambda^i
    dlam_ji: Fraction  # d_i lambda^j
    d2u0_ij: Fraction  # d_i d_j u^0
    d2u1_ij: Fraction  # d_i d_j u^1


_COUPLING = Fraction(4)  # the constant in 4 (u^0)^2 of the closure


def _gt_dlam(lam_i, lam_j, u0, dju0, coupling=_COUPLING):
    # d_j lambda^i; `coupling` differs from _COUPLING only in the
    # non-vacuity mutation
    return (coupling * u0 * u0 - lam_i * lam_j) / (u0 * (lam_i - lam_j)) * dju0


def _gt_d2u0(lam_i, lam_j, u0, diu0, dju0):
    num = lam_i * lam_i + lam_j * lam_j - 2 * _COUPLING * u0 * u0
    return num / (u0 * (lam_i - lam_j) ** 2) * diu0 * dju0


def _gt_d2u1(lam_i, lam_j, u0, diu0, dju0, diu1, dju1):
    den = u0 * (lam_i - lam_j) ** 2
    ci = (lam_j - 2 * lam_i) * lam_j + _COUPLING * u0 * u0
    cj = (lam_i - 2 * lam_j) * lam_i + _COUPLING * u0 * u0
    return -(ci / den) * diu0 * dju1 - (cj / den) * dju0 * diu1


def gt_rhs(jet: ReductionJet, i: int, j: int) -> GTDerivatives:
    """The four closure values for a distinct pair (i, j), exact."""
    if i == j:
        raise ValueError("indices must be distinct")
    li, lj = jet.lam[i], jet.lam[j]
    if li == lj:
        raise DegenerateSpeedsError(f"lambda^{i} == lambda^{j}")
    u0 = jet.u0
    return GTDerivatives(
        dlam_ij=_gt_dlam(li, lj, u0, jet.du0[j]),
        dlam_ji=_gt_dlam(lj, li, u0, jet.du0[i]),
        d2u0_ij=_gt_d2u0(li, lj, u0, jet.du0[i], jet.du0[j]),
        d2u1_ij=_gt_d2u1(li, lj, u0, jet.du0[i], jet.du0[j],
                         jet.du1[i], jet.du1[j]),
    )


# ---------------------------------------------------------------------------
# involutivity via forward-mode jets
# ---------------------------------------------------------------------------


class JetNum:
    """A value with its derivatives along the directions R^1..R^N.

    A slot is None when the direction's action on the underlying coordinate
    is not supplied by the closure (diagonal derivatives such as d_i
    lambda^i); arithmetic propagates None so reading such a slot is an error
    only if it is actually needed.
    """

    __slots__ = ("val", "d")

    def __init__(self, val: Fraction, d: tuple):
        self.val = val
        self.d = d

    @staticmethod
    def const(c, n: int) -> "JetNum":
        return JetNum(Fraction(c), (Fraction(0),) * n)

    def _coerce(self, other) -> "JetNum":
        if isinstance(other, JetNum):
            return other
        return JetNum.const(other, len(self.d))

    @staticmethod
    def _zip(a, b, op):
        return tuple(None if (x is None or y is None) else op(x, y)
                     for x, y in zip(a, b))

    def __add__(self, other):
        o = self._coerce(other)
        return JetNum(self.val + o.val, self._zip(self.d, o.d, lambda x, y: x + y))

    __radd__ = __add__

    def __neg__(self):
        return JetNum(-self.val, tuple(None if x is None else -x for x in self.d))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        d = tuple(None if (x is None or y is None)
                  else x * o.val + self.val * y
                  for x, y in zip(self.d, o.d))
        return JetNum(self.val * o.val, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        val = self.val / o.val
        d = tuple(None if (x is None or y is None)
                  else (x * o.val - self.val * y) / (o.val * o.val)
                  for x, y in zip(self.d, o.d))
        return JetNum(val, d)

    def __pow__(self, n: int):
        out = JetNum.const(1, len(self.d))
        for _ in range(n):
            out = out * self
        return out

    def slot(self, k: int) -> Fraction:
        v = self.d[k - 1]
        if v is None:
            raise ValueError(f"derivative along R^{k} is not closed for this value")
        return v


def _jet_coordinates(jet: ReductionJet, c_lam: Fraction):
    """Base coordinates as JetNums with closure-supplied first derivatives;
    ``c_lam`` is the constant of the d_j lambda^i formula."""
    n = jet.n_components
    idx = range(1, n + 1)
    u0 = JetNum(jet.u0, tuple(jet.du0[k] for k in idx))
    u1 = JetNum(jet.u1, tuple(jet.du1[k] for k in idx))
    lam = {}
    for i in idx:
        slots = tuple(
            None if k == i else _gt_dlam(jet.lam[i], jet.lam[k], jet.u0,
                                         jet.du0[k], c_lam)
            for k in idx)
        lam[i] = JetNum(jet.lam[i], slots)
    du0 = {}
    du1 = {}
    for j in idx:
        slots0 = tuple(
            None if k == j else _gt_d2u0(jet.lam[k], jet.lam[j], jet.u0,
                                         jet.du0[k], jet.du0[j])
            for k in idx)
        du0[j] = JetNum(jet.du0[j], slots0)
        slots1 = tuple(
            None if k == j else _gt_d2u1(jet.lam[k], jet.lam[j], jet.u0,
                                         jet.du0[k], jet.du0[j],
                                         jet.du1[k], jet.du1[j])
            for k in idx)
        du1[j] = JetNum(jet.du1[j], slots1)
    return u0, u1, lam, du0, du1


def gt_involutivity(jet: ReductionJet,
                    mutate_dlam: Fraction | None = None) -> dict[str, Fraction]:
    """Symmetrized-derivative residuals of the closure at ``jet``, exact.

    Re-evaluates the closure formulas over JetNum coordinates, so slot k of
    d_j lambda^i is d_k d_j lambda^i with every first derivative replaced by
    its closure value; involutivity says the (j, k) symmetrizations vanish.
    Only fully distinct index triples are formed (N = 3 suffices: every
    compatibility condition involves at most three directions).

    ``mutate_dlam`` replaces the coupling constant in the d_j lambda^i
    formula only (the non-vacuity mutation).  Mutating the coupling in all
    formulas at once keeps the system involutive -- the coherent family is
    equivalent to the original under a rescaling of u^0 -- so a corrupted
    constant has to be injected non-coherently to have any power.
    """
    if jet.n_components != 3:
        raise ValueError("involutivity check uses exactly three components")
    c_lam = _COUPLING if mutate_dlam is None else mutate_dlam
    u0, u1, lam, du0, du1 = _jet_coordinates(jet, c_lam)

    def dlam_expr(i, j):
        return _gt_dlam(lam[i], lam[j], u0, du0[j], c_lam)

    def d2u0_expr(i, j):
        return _gt_d2u0(lam[i], lam[j], u0, du0[i], du0[j])

    def d2u1_expr(i, j):
        return _gt_d2u1(lam[i], lam[j], u0, du0[i], du0[j], du1[i], du1[j])

    residuals: dict[str, Fraction] = {}
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        residuals[f"lambda^{i}: d{k}d{j} - d{j}d{k}"] = (
            dlam_expr(i, j).slot(k) - dlam_expr(i, k).slot(j))
        residuals[f"u0: d{k}d{i}d{j} - d{j}d{i}d{k}"] = (
            d2u0_expr(i, j).slot(k) - d2u0_expr(i, k).slot(j))
        residuals[f"u1: d{k}d{i}d{j} - d{j}d{i}d{k}"] = (
            d2u1_expr(i, j).slot(k) - d2u1_expr(i, k).slot(j))
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
