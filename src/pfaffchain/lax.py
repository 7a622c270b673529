"""Band representation of the lattice Lax matrix, its projection-commutator
flows, the explicit flow formulas, skew factorisation and time stepping.

Layout of the semi-infinite Lax matrix in band coordinates (1-based):

    (2n-1, 2n) = 1            (2n, 2n+1) = w^0_n
    (2n, 2n)   = +v^0_n       (2n+1, 2n+1) = -v^0_n
    lower diagonal 2k-1:  odd columns j=2n-1 -> w^-k_n, even j=2n -> w^k_n
    lower diagonal 2k:    odd columns j=2n-1 -> v^-k_n, even j=2n -> v^k_n

The flows are dL/dt_k = [-(L^k)_t, L] where X_t is the projection onto
block-lower-triangular matrices with scalar 2x2 diagonal blocks:

    X_t = X_lo - J X_up^T J + (X_blk - J X_blk^T J) / 2,   J^2 = -I

with X_up/X_lo the strict upper/lower parts excluding the 2x2 diagonal
blocks and X_blk those blocks.  The explicit t_1/t_2 flow formulas are kept
as *term tables* (rational coefficient, product of shifted band factors).
One evaluator (``_Fields``/``_sum_terms``) sums a table over whole band
rows: here each factor is a zero-filling site shift, in ``chain`` an
x-derivative stencil, and the rows are float64 for speed or object arrays
of Fractions for exact commutator cross-validation.  The even reduction's
second flow ``t2_even_w_terms`` is not a table of its own: it is the v = 0
part of ``t2_w_terms``, so the commutator check of the full second flow
covers it.
The Taylor expansion of these tables (``expand_lattice_terms``, with the
cached float form ``continuum_terms``) is the continuum limit: the chain
right-hand sides in ``chain`` and the chain-matrix rows in ``integrability``
are both read off ``t2_even_w_terms`` that way.

Out-of-window band references read zero; the left lattice boundary (site 0)
reads zero as well, which matches the semi-infinite matrix, while
right-boundary truncation is quarantined by the interior mask.

``integrate_flow`` and ``chain.evolve_chain`` share one stepping loop
(``_march``) and one RK4 step (``_rk4_step``) over flat state arrays.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .ensemble import QuadratureConfig, CouplingVector, moment_matrix

__all__ = [
    "LaxBands",
    "BandDerivs",
    "assemble_lax",
    "disassemble_lax",
    "disassemble_derivs",
    "placements",
    "project_t",
    "project_n",
    "lax_rhs_commutator",
    "interior_mask",
    "flow_t1_explicit",
    "flow_t2_explicit",
    "flow_t2_even_explicit",
    "t1_v_terms",
    "t1_w_terms",
    "t2_v_terms",
    "t2_w_terms",
    "t2_even_w_terms",
    "FLOWS",
    "expand_lattice_terms",
    "continuum_terms",
    "skew_factorize",
    "FactorizationError",
    "FlowBlowupError",
    "initial_bands_gaussian",
    "integrate_flow",
    "random_bands",
    "bands_to_json",
    "bands_from_json",
    "trajectory_to_csv",
]


_V_TOL = 1e-8  # largest |v| that initial_bands_gaussian reads as zero


class FactorizationError(RuntimeError):
    pass


class FlowBlowupError(RuntimeError):
    def __init__(self, step: int, where: str):
        super().__init__(f"non-finite value at step {step} ({where})")
        self.step = step


# ---------------------------------------------------------------------------
# band states
# ---------------------------------------------------------------------------


@dataclass
class LaxBands:
    """Band variables w^k_n, v^k_n for |k| <= depth, 1 <= n <= sites.

    References outside the stored window (including site 0 and sites beyond
    ``sites``) read zero.  ``even_reduced`` states carry no v storage at all.
    """

    sites: int
    depth: int
    w: dict[tuple[int, int], object] = field(default_factory=dict)
    v: dict[tuple[int, int], object] = field(default_factory=dict)
    even_reduced: bool = False

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError(f"depth {self.depth} must be non-negative")
        if self.even_reduced and any(self.v.values()):
            raise ValueError("even-reduced states must have vanishing v bands")

    def wval(self, k: int, n: int):
        return self.w.get((k, n), 0)

    def vval(self, k: int, n: int):
        if self.even_reduced:
            return 0
        return self.v.get((k, n), 0)

    def value(self, kind: str, k: int, n: int):
        return self.wval(k, n) if kind == "w" else self.vval(k, n)

    def as_float(self) -> "LaxBands":
        return LaxBands(self.sites, self.depth,
                        {k: float(x) for k, x in self.w.items()},
                        {k: float(x) for k, x in self.v.items()},
                        self.even_reduced)


@dataclass
class BandDerivs:
    """Derivative values for band slots; missing slots mean zero."""

    dw: dict[tuple[int, int], object] = field(default_factory=dict)
    dv: dict[tuple[int, int], object] = field(default_factory=dict)

    def get(self, kind: str, k: int, n: int):
        return (self.dw if kind == "w" else self.dv).get((k, n), 0)


def random_bands(rng, sites: int, depth: int, even: bool = False,
                 exact: bool = False) -> LaxBands:
    """Random band state; ``exact`` draws small Fractions instead of floats."""

    def draw():
        if exact:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return rng.uniform(-2.0, 2.0)

    w = {(k, n): draw() for k in range(-depth, depth + 1)
         for n in range(1, sites + 1)}
    v = {} if even else {(k, n): draw() for k in range(-depth, depth + 1)
                         for n in range(1, sites + 1)}
    return LaxBands(sites=sites, depth=depth, w=w, v=v, even_reduced=even)


# ---------------------------------------------------------------------------
# dense assembly
# ---------------------------------------------------------------------------


def placements(M: int, depth: int) -> Iterator[tuple[str, int, int, int, int]]:
    """Yield (kind, band k, site n, row, col), 0-based positions, within M."""
    for n in range(1, M // 2 + 1):
        if 2 * n + 1 <= M:
            yield ("w", 0, n, 2 * n - 1, 2 * n)
        yield ("v", 0, n, 2 * n - 1, 2 * n - 1)
        for k in range(1, depth + 1):
            if 2 * n + 2 * k - 2 <= M:
                yield ("w", -k, n, 2 * n + 2 * k - 3, 2 * n - 2)
            if 2 * n + 2 * k - 1 <= M:
                yield ("w", k, n, 2 * n + 2 * k - 2, 2 * n - 1)
            if 2 * n + 2 * k - 1 <= M:
                yield ("v", -k, n, 2 * n + 2 * k - 2, 2 * n - 2)
            if 2 * n + 2 * k <= M:
                yield ("v", k, n, 2 * n + 2 * k - 1, 2 * n - 1)


def assemble_lax(b: LaxBands, M: int, dtype=float) -> np.ndarray:
    """Dense M x M Lax matrix; use ``dtype=object`` for exact band values."""
    if M % 2:
        raise ValueError("Lax matrix dimension must be even")
    if M > 2 * b.sites:
        raise ValueError(f"M={M} exceeds 2*sites={2 * b.sites}")
    one = Fraction(1) if dtype is object else 1.0
    L = np.zeros((M, M), dtype=dtype)
    for n in range(1, M // 2 + 1):  # structural superdiagonal ones
        if 2 * n <= M:
            L[2 * n - 2, 2 * n - 1] = one
    for kind, k, n, r, c in placements(M, b.depth):
        val = b.value(kind, k, n)
        L[r, c] = val
        if kind == "v" and k == 0 and r + 1 < M:
            L[r + 1, c + 1] = -val
    return L


def disassemble_lax(A: np.ndarray, depth: int) -> LaxBands:
    """Read band variables back from a dense matrix on the stored window;
    each v^0_n must come with its -v^0_n partner on the diagonal."""
    M = A.shape[0]
    d = disassemble_derivs(A, depth)
    for (k, n), val in d.dv.items():  # v^0_n at (2n - 1, 2n - 1), -v^0_n at (2n, 2n)
        if k == 0 and 2 * n < M and A[2 * n, 2 * n] != -val:
            raise ValueError(f"diagonal pair mismatch for v^0_{n}")
    return LaxBands(sites=M // 2, depth=depth, w=d.dw, v=d.dv)


def disassemble_derivs(C: np.ndarray, depth: int) -> BandDerivs:
    """Read band-slot entries of a derivative matrix (no pair validation)."""
    M = C.shape[0]
    out = BandDerivs()
    for kind, k, n, r, c in placements(M, depth):
        if kind == "w":
            out.dw[(k, n)] = C[r, c]
        else:
            out.dv[(k, n)] = C[r, c]
    return out


# ---------------------------------------------------------------------------
# projection and commutator flows
# ---------------------------------------------------------------------------


def _block_j(M: int, dtype) -> np.ndarray:
    one = Fraction(1) if dtype is object else 1.0
    J = np.zeros((M, M), dtype=dtype)
    for r in range(0, M - 1, 2):
        J[r, r + 1] = one
        J[r + 1, r] = -one
    return J


def _block_mask(M: int) -> np.ndarray:
    i = np.arange(M)
    return (i[:, None] // 2) == (i[None, :] // 2)


def project_t(A: np.ndarray) -> np.ndarray:
    """Projection onto the lower-triangular factor of the splitting.

    A_t = A_lo - J A_up^T J + (A_blk - J A_blk^T J)/2 with A_up/A_lo strict
    block-triangular parts and A_blk the 2x2 diagonal blocks.
    """
    M = A.shape[0]
    if M % 2:
        raise ValueError("projection needs even dimension")
    exact = A.dtype == object
    J = _block_j(M, object if exact else float)
    half = Fraction(1, 2) if exact else 0.5
    blk = _block_mask(M)
    A_blk = np.where(blk, A, 0 * A)
    A_up = np.triu(A, 1) * ~blk
    A_lo = np.tril(A, -1) * ~blk
    return A_lo - J @ A_up.T @ J + (A_blk - J @ A_blk.T @ J) * half


def project_n(A: np.ndarray) -> np.ndarray:
    """Complementary projection; the image satisfies J X^T J = X."""
    return A - project_t(A)


def _matrix_power(L: np.ndarray, k: int) -> np.ndarray:
    P = L
    for _ in range(k - 1):
        P = P @ L
    return P


def interior_mask(M: int, depth: int, flow_k: int) -> set[tuple[str, int, int]]:
    """Band slots whose commutator stencil avoids the truncated boundary.

    A slot at site n survives when its index margin from both lattice ends
    exceeds flow_k + depth + 1 (one extra site over the nominal stencil
    reach, paid to keep every projected path of L^k inside the window).
    """
    margin = flow_k + depth + 1
    n_sites = M // 2
    keep = set()
    for kind, k, n, _r, _c in placements(M, depth):
        if n - 1 > margin and n_sites - n > margin:
            keep.add((kind, k, n))
    return keep


def lax_rhs_commutator(b: LaxBands, k: int, M: int,
                       exact: bool = False) -> tuple[BandDerivs, set]:
    """Band derivatives of [-(L^k)_t, L] plus the interior mask.

    ``exact`` runs the dense algebra over Fractions, in which case interior
    agreement with the explicit flow tables is exact equality.
    """
    if M < 2 * (k + 2):
        raise ValueError(f"truncation too tight: need M >= {2 * (k + 2)}")
    dtype = object if exact else float
    L = assemble_lax(b, M, dtype=dtype)
    B = -project_t(_matrix_power(L, k))
    C = B @ L - L @ B
    return disassemble_derivs(C, b.depth), interior_mask(M, b.depth, k)


# ---------------------------------------------------------------------------
# explicit flow formulas as term tables
# ---------------------------------------------------------------------------

# A term is (coefficient, ((kind, band, site-offset), ...)); a flow table for
# band k is the list of terms for d/dt of that band at site n, offsets taken
# relative to n.

Half = Fraction(1, 2)


def _w(k: int, off: int) -> tuple[str, int, int]:
    return ("w", k, off)


def _v(k: int, off: int) -> tuple[str, int, int]:
    return ("v", k, off)


def t1_v_terms(k: int) -> list:
    if k < -1:
        return [
            (Half, (_v(0, -1), _v(k, 0))),
            (Half, (_v(0, 0), _v(k, 0))),
            (-Half, (_v(0, -k - 1), _v(k, 0))),
            (-Half, (_v(0, -k), _v(k, 0))),
            (1, (_w(k - 1, 0),)),
            (-1, (_w(0, 0), _w(-(k + 1), 1))),
            (-1, (_w(-1, 0), _w(-k, 0))),
            (-1, (_w(0, -1), _w(-(k - 1), -1))),
        ]
    if k == -1:
        return [
            (Half, (_v(0, -1), _v(-1, 0))),
            (-Half, (_v(0, 1), _v(-1, 0))),
            (1, (_w(-2, 0),)),
            (-1, (_w(0, 0),)),
            (-1, (_w(-1, 0), _w(1, 0))),
            (-1, (_w(0, -1), _w(2, -1))),
        ]
    if k == 0:
        return [(1, (_w(0, 0), _w(1, 0)))]
    if k == 1:
        return [
            (Half, (_v(0, 1), _v(1, 0))),
            (-Half, (_v(0, -1), _v(1, 0))),
            (-1, (_w(-2, 0),)),
            (1, (_w(0, 0),)),
            (1, (_w(-1, 1), _w(1, 0))),
            (1, (_w(0, 1), _w(2, 0))),
        ]
    return [
        (Half, (_v(0, k), _v(k, 0))),
        (Half, (_v(0, k - 1), _v(k, 0))),
        (-Half, (_v(0, 0), _v(k, 0))),
        (-Half, (_v(0, -1), _v(k, 0))),
        (1, (_w(0, k - 1), _w(k - 1, 0))),
        (1, (_w(-1, k), _w(k, 0))),
        (1, (_w(0, k), _w(k + 1, 0))),
        (-1, (_w(-(k + 1), 0),)),
    ]


def t1_w_terms(k: int) -> list:
    if k == -2:
        # collision case: v^{k+2} meets the signed v^0 diagonal, so the
        # generic k < -1 pattern's +w^0_n v^0_n - w^0_n v^0_{n+1} pair turns
        # into -w^0_n (v^0_{n+1} + v^0_{n-1}) (fixed against the commutator)
        return [
            (Half, (_v(0, 1), _w(-2, 0))),
            (1, (_v(0, 0), _w(-2, 0))),
            (Half, (_v(0, -1), _w(-2, 0))),
            (-1, (_w(0, 0), _v(0, 1))),
            (-1, (_w(0, 0), _v(0, -1))),
            (1, (_w(-1, 1), _v(-1, 0))),
            (-1, (_w(-1, 0), _v(1, 0))),
            (1, (_w(0, 1), _v(-2, 0))),
            (-1, (_w(0, -1), _v(2, -1))),
        ]
    if k < -1:
        return [
            (Half, (_v(0, -k - 1), _w(k, 0))),
            (Half, (_v(0, -k - 2), _w(k, 0))),
            (Half, (_v(0, 0), _w(k, 0))),
            (Half, (_v(0, -1), _w(k, 0))),
            (1, (_w(0, -k - 2), _v(k + 2, 0))),
            (-1, (_w(0, 0), _v(-(k + 2), 1))),
            (1, (_w(-1, -k - 1), _v(k + 1, 0))),
            (-1, (_w(-1, 0), _v(-(k + 1), 0))),
            (1, (_w(0, -k - 1), _v(k, 0))),
            (-1, (_w(0, -1), _v(-k, -1))),
        ]
    if k == -1:
        return [
            (1, (_w(0, 0), _v(-1, 0))),
            (-1, (_w(0, -1), _v(1, -1))),
        ]
    if k == 0:
        return [
            (Half, (_v(0, 1), _w(0, 0))),
            (-1, (_v(0, 0), _w(0, 0))),
            (Half, (_v(0, -1), _w(0, 0))),
        ]
    return [
        (-Half, (_v(0, k), _w(k, 0))),
        (-Half, (_v(0, k - 1), _w(k, 0))),
        (-Half, (_v(0, 0), _w(k, 0))),
        (-Half, (_v(0, -1), _w(k, 0))),
        (1, (_v(k, 0),)),
        (-1, (_v(-k, 0),)),
    ]


def t2_v_terms(k: int) -> list:
    # The printed second-flow v-equations mislabel several band superscripts
    # near the diagonal and flip the sign of the (v^0)^2 / w^0 w^1 groups at
    # offsets 0 and -1 for k > 0; these tables are the commutator-derived
    # corrected form (see the decisions ledger).
    if k == 0:
        return [(1, (_w(0, 0), _v(1, 0))), (1, (_w(0, 0), _v(-1, 0)))]
    if k == -1:
        return [
            (-1, (_v(-2, -1), _w(0, -1))),
            (1, (_v(-2, 0), _w(0, 1))),
            (-Half, (_v(-1, 0), _v(0, -1), _v(0, -1))),
            (1, (_v(-1, 0), _v(0, 0), _v(0, 0))),
            (-Half, (_v(-1, 0), _v(0, 1), _v(0, 1))),
            (-Half, (_v(-1, 0), _w(0, -1), _w(1, -1))),
            (-Half, (_v(-1, 0), _w(0, 1), _w(1, 1))),
            (1, (_v(0, -1), _w(-1, 0), _w(1, 0))),
            (1, (_v(0, -1), _w(0, 0))),
            (-1, (_v(0, 0), _w(-2, 0))),
            (-1, (_v(0, 0), _w(-1, 0), _w(1, 0))),
            (-1, (_v(0, 0), _w(0, 0))),
            (1, (_v(0, 1), _w(-2, 0))),
            (-1, (_v(1, -1), _w(0, -1), _w(1, 0))),
        ]
    if k == 1:
        return [
            (1, (_v(-1, 1), _w(0, 1), _w(1, 0))),
            (Half, (_v(0, -1), _v(0, -1), _v(1, 0))),
            (1, (_v(0, -1), _w(-2, 0))),
            (-1, (_v(0, 0), _v(0, 0), _v(1, 0))),
            (-1, (_v(0, 0), _w(-2, 0))),
            (-1, (_v(0, 0), _w(-1, 1), _w(1, 0))),
            (-1, (_v(0, 0), _w(0, 0))),
            (Half, (_v(0, 1), _v(0, 1), _v(1, 0))),
            (1, (_v(0, 1), _w(-1, 1), _w(1, 0))),
            (1, (_v(0, 1), _w(0, 0))),
            (Half, (_v(1, 0), _w(0, -1), _w(1, -1))),
            (Half, (_v(1, 0), _w(0, 1), _w(1, 1))),
            (-1, (_v(2, -1), _w(0, -1))),
            (1, (_v(2, 0), _w(0, 1))),
        ]
    if k < -1:
        return [
            (-1, (_v(k - 1, -1), _w(0, -1))),
            (1, (_v(k - 1, 0), _w(0, -k))),
            (-Half, (_v(k, 0), _v(0, -1), _v(0, -1))),
            (Half, (_v(k, 0), _v(0, 0), _v(0, 0))),
            (Half, (_v(k, 0), _v(0, -k - 1), _v(0, -k - 1))),
            (-Half, (_v(k, 0), _v(0, -k), _v(0, -k))),
            (-Half, (_v(k, 0), _w(0, -1), _w(1, -1))),
            (Half, (_v(k, 0), _w(0, 0), _w(1, 0))),
            (Half, (_v(k, 0), _w(0, -k - 1), _w(1, -k - 1))),
            (-Half, (_v(k, 0), _w(0, -k), _w(1, -k))),
            (-1, (_v(k + 1, 0), _w(0, -k - 1))),
            (1, (_v(k + 1, 1), _w(0, 0))),
            (-1, (_v(-1, 0), _w(0, 0), _w(-k, 0))),
            (1, (_v(0, -1), _w(-1, 0), _w(-k, 0))),
            (-1, (_v(0, 0), _w(-1, 0), _w(-k, 0))),
            (-1, (_v(0, -k - 1), _w(k - 1, 0))),
            (1, (_v(0, -k), _w(k - 1, 0))),
            (-1, (_v(1, -1), _w(0, -1), _w(-k, 0))),
        ]
    return [
        (1, (_v(-1, k), _w(0, k), _w(k, 0))),
        (Half, (_v(0, -1), _v(0, -1), _v(k, 0))),
        (-Half, (_v(0, 0), _v(0, 0), _v(k, 0))),
        (-Half, (_v(0, k - 1), _v(0, k - 1), _v(k, 0))),
        (Half, (_v(0, k), _v(0, k), _v(k, 0))),
        (1, (_v(0, -1), _w(-k - 1, 0))),
        (-1, (_v(0, 0), _w(-k - 1, 0))),
        (-1, (_v(0, k - 1), _w(-1, k), _w(k, 0))),
        (1, (_v(0, k), _w(-1, k), _w(k, 0))),
        (1, (_v(1, k - 1), _w(0, k - 1), _w(k, 0))),
        (-1, (_v(k - 1, 0), _w(0, k - 1))),
        (1, (_v(k - 1, 1), _w(0, 0))),
        (Half, (_v(k, 0), _w(0, -1), _w(1, -1))),
        (-Half, (_v(k, 0), _w(0, 0), _w(1, 0))),
        (-Half, (_v(k, 0), _w(0, k - 1), _w(1, k - 1))),
        (Half, (_v(k, 0), _w(0, k), _w(1, k))),
        (-1, (_v(k + 1, -1), _w(0, -1))),
        (1, (_v(k + 1, 0), _w(0, k))),
    ]


def t2_w_terms(k: int) -> list:
    # Commutator-derived corrected form; the printed w-equations carry the
    # same near-diagonal superscript mislabels as the v-equations, plus two
    # spurious (w^0)^2-type terms at k = 1 and a site typo at k = 0.
    if k == 0:
        return [
            (-Half, (_v(0, -1), _v(0, -1), _w(0, 0))),
            (Half, (_v(0, 1), _v(0, 1), _w(0, 0))),
            (-1, (_w(-1, 0), _w(0, 0))),
            (1, (_w(-1, 1), _w(0, 0))),
            (-Half, (_w(0, -1), _w(0, 0), _w(1, -1))),
            (Half, (_w(0, 0), _w(0, 1), _w(1, 1))),
        ]
    if k == -1:
        return [
            (-1, (_v(-1, 0), _v(0, -1), _w(0, 0))),
            (-1, (_v(-1, 0), _v(0, 0), _w(0, 0))),
            (-1, (_v(0, -1), _v(1, -1), _w(0, -1))),
            (-1, (_v(0, 0), _v(1, -1), _w(0, -1))),
            (-1, (_w(-2, -1), _w(0, -1))),
            (1, (_w(-2, 0), _w(0, 0))),
            (-1, (_w(-1, 0), _w(0, -1), _w(1, -1))),
            (1, (_w(-1, 0), _w(0, 0), _w(1, 0))),
            (-1, (_w(0, -1), _w(0, -1))),
            (1, (_w(0, 0), _w(0, 0))),
        ]
    if k == 1:
        return [
            (1, (_v(-1, 0), _v(0, -1))),
            (-1, (_v(-1, 0), _v(0, 0))),
            (Half, (_v(0, -1), _v(0, -1), _w(1, 0))),
            (-1, (_v(0, 0), _v(1, 0))),
            (-Half, (_v(0, 1), _v(0, 1), _w(1, 0))),
            (1, (_v(0, 1), _v(1, 0))),
            (Half, (_w(0, -1), _w(1, -1), _w(1, 0))),
            (-1, (_w(0, -1), _w(2, -1))),
            (-Half, (_w(0, 1), _w(1, 0), _w(1, 1))),
            (1, (_w(0, 1), _w(2, 0))),
        ]
    if k < -1:
        return [
            (1, (_v(k + 1, 0), _v(-1, -k - 1), _w(0, -k - 1))),
            (-1, (_v(k + 1, 0), _v(0, -k - 2), _w(-1, -k - 1))),
            (1, (_v(k + 1, 0), _v(0, -k - 1), _w(-1, -k - 1))),
            (1, (_v(k + 1, 0), _v(1, -k - 2), _w(0, -k - 2))),
            (-1, (_v(-1, 0), _v(-k - 1, 0), _w(0, 0))),
            (-Half, (_v(0, -1), _v(0, -1), _w(k, 0))),
            (Half, (_v(0, 0), _v(0, 0), _w(k, 0))),
            (-Half, (_v(0, -k - 2), _v(0, -k - 2), _w(k, 0))),
            (Half, (_v(0, -k - 1), _v(0, -k - 1), _w(k, 0))),
            (1, (_v(0, -1), _v(-k - 1, 0), _w(-1, 0))),
            (-1, (_v(0, 0), _v(-k - 1, 0), _w(-1, 0))),
            (-1, (_v(1, -1), _v(-k - 1, 0), _w(0, -1))),
            (-1, (_w(k - 1, -1), _w(0, -1))),
            (1, (_w(k - 1, 0), _w(0, -k - 1))),
            (-Half, (_w(k, 0), _w(0, -1), _w(1, -1))),
            (Half, (_w(k, 0), _w(0, 0), _w(1, 0))),
            (-Half, (_w(k, 0), _w(0, -k - 2), _w(1, -k - 2))),
            (Half, (_w(k, 0), _w(0, -k - 1), _w(1, -k - 1))),
            (-1, (_w(k + 1, 0), _w(0, -k - 2))),
            (1, (_w(k + 1, 1), _w(0, 0))),
        ]
    return [
        (1, (_v(-k, 0), _v(0, -1))),
        (-1, (_v(-k, 0), _v(0, 0))),
        (Half, (_v(0, -1), _v(0, -1), _w(k, 0))),
        (-Half, (_v(0, 0), _v(0, 0), _w(k, 0))),
        (Half, (_v(0, k - 1), _v(0, k - 1), _w(k, 0))),
        (-Half, (_v(0, k), _v(0, k), _w(k, 0))),
        (-1, (_v(0, k - 1), _v(k, 0))),
        (1, (_v(0, k), _v(k, 0))),
        (Half, (_w(0, -1), _w(1, -1), _w(k, 0))),
        (-Half, (_w(0, 0), _w(1, 0), _w(k, 0))),
        (Half, (_w(0, k - 1), _w(1, k - 1), _w(k, 0))),
        (-Half, (_w(0, k), _w(1, k), _w(k, 0))),
        (-1, (_w(0, -1), _w(k + 1, -1))),
        (1, (_w(0, 0), _w(k - 1, 1))),
        (-1, (_w(0, k - 1), _w(k - 1, 0))),
        (1, (_w(0, k), _w(k + 1, 0))),
    ]


@lru_cache(maxsize=None)
def t2_even_w_terms(k: int) -> tuple:
    """Second flow of the even reduction: the terms of ``t2_w_terms(k)``
    without a v factor, i.e. its v = 0 part (built once per k)."""
    return tuple(term for term in t2_w_terms(k)
                 if all(kind == "w" for kind, _band, _off in term[1]))


# ---------------------------------------------------------------------------
# evaluating term tables: site shifts on the lattice, x-derivatives in the
# continuum, over float64 or exact object arrays
# ---------------------------------------------------------------------------


class _Fields(dict):
    """(kind, band, m) -> ``op(row, m)`` for the row of that band (the row
    itself at m = 0), computed on first reference; ``rows`` maps "w"/"v" to
    {band: row} and absent bands read ``zero``.  The lattice passes a site
    shift as ``op``, the continuum an x-derivative stencil, so one evaluator
    serves both."""

    def __init__(self, rows: Mapping[str, Mapping[int, np.ndarray]],
                 op: Callable[[np.ndarray, int], np.ndarray], zero: np.ndarray):
        super().__init__()
        self.rows, self.op, self.zero = rows, op, zero

    def __missing__(self, factor: tuple) -> np.ndarray:
        kind, band, m = factor
        row = self.rows[kind].get(band)
        arr = self.zero if row is None else self.op(row, m) if m else row
        self[factor] = arr
        return arr


def _sum_terms(terms: Iterable, fields: _Fields) -> np.ndarray:
    """sum of coeff * prod(factors), into a new array."""
    acc = fields.zero.copy()
    for coeff, (first, *rest) in terms:
        prod = fields[first]
        for f in rest:
            prod = prod * fields[f]
        if coeff == 1.0:
            acc += prod
        elif coeff == -1.0:
            acc -= prod
        else:
            acc += coeff * prod
    return acc


def _site_shift(row: np.ndarray, m: int) -> np.ndarray:
    """The value at site n + m (m != 0) for every site n; sites off the
    lattice read zero."""
    out = np.zeros_like(row)
    if m > 0:
        out[:-m] = row[m:]
    else:
        out[-m:] = row[:m]
    return out


def _band_rows(slots: Mapping, depth: int, sites: int, dtype) -> dict[int, np.ndarray]:
    """Band k -> its values at sites 1..sites; slots not stored, or outside
    the window, read zero."""
    rows = {k: np.zeros(sites, dtype) for k in range(-depth, depth + 1)}
    for (k, n), val in slots.items():
        if k in rows and 1 <= n <= sites:
            rows[k][n - 1] = val
    return rows


def _flow_from_tables(b: LaxBands, w_table: Callable[[int], list],
                      v_table: Callable[[int], list] | None) -> BandDerivs:
    """Every slot of every band |k| <= depth, read off the tables over
    float64 rows, or over object rows (exact Fractions) when any band value
    is not a float."""
    slots = {"w": b.w, "v": {} if b.even_reduced else b.v}
    exact = not all(isinstance(x, float)
                    for x in itertools.chain(b.w.values(), slots["v"].values()))
    dtype = object if exact else float
    fields = _Fields({kind: _band_rows(s, b.depth, b.sites, dtype)
                      for kind, s in slots.items()},
                     _site_shift, np.zeros(b.sites, dtype))
    bands = range(-b.depth, b.depth + 1)

    def derivs(table):
        values = []
        for k in bands:
            terms = table(k) if exact else [(float(c), f) for c, f in table(k)]
            values += _sum_terms(terms, fields).tolist()
        return dict(zip(itertools.product(bands, range(1, b.sites + 1)), values))

    return BandDerivs(derivs(w_table),
                      {} if v_table is None or b.even_reduced else derivs(v_table))


def flow_t1_explicit(b: LaxBands) -> BandDerivs:
    """First-flow band derivatives from the explicit formulas."""
    return _flow_from_tables(b, t1_w_terms, t1_v_terms)


def flow_t2_explicit(b: LaxBands) -> BandDerivs:
    """Second-flow band derivatives from the explicit formulas."""
    return _flow_from_tables(b, t2_w_terms, t2_v_terms)


def flow_t2_even_explicit(b: LaxBands) -> BandDerivs:
    """Second flow of the even reduction (v identically zero)."""
    if not b.even_reduced:
        raise ValueError("flow_t2_even_explicit needs an even-reduced state")
    return _flow_from_tables(b, t2_even_w_terms, None)


# flow name -> (power k of L in the commutator, explicit flow, even reduction)
FLOWS = {"t1": (1, flow_t1_explicit, False),
         "t2": (2, flow_t2_explicit, False),
         "t2_even": (2, flow_t2_even_explicit, True)}


# ---------------------------------------------------------------------------
# Taylor expansion of the term tables (the continuum limit)
# ---------------------------------------------------------------------------


def _multi_indices(n_factors: int, total: int):
    if n_factors == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _multi_indices(n_factors - 1, total - first):
            yield (first,) + rest


def expand_lattice_terms(terms: Iterable, max_order: int,
                         rescale: bool = False) -> dict[int, dict]:
    """Taylor-expand a lattice term table into continuum term lists.

    Each lattice factor (kind, band, shift m) contributes derivatives with
    weight m^a / a!.  Returns {order r: {factors: coeff}} where a factor is
    (kind, band, derivative order).  With ``rescale`` the whole table is
    divided by eps (the t = eps * t2 time identification), so order r reads
    the lattice's eps^(r+1) coefficient and the eps^0 sum must cancel, which
    is asserted.
    """
    orders: dict[int, dict] = {r: {} for r in range(max_order + 1)}
    top = max_order + (1 if rescale else 0)
    zero_order: dict = {}
    for coeff, factors in terms:
        coeff = Fraction(coeff)
        for total in range(top + 1):
            for alpha in _multi_indices(len(factors), total):
                c = coeff
                key = []
                for (kind, band, shift), a in zip(factors, alpha):
                    c *= Fraction(shift) ** a / math.factorial(a)
                    key.append((kind, band, a))
                if c == 0:
                    continue
                key = tuple(sorted(key))
                r = total - 1 if rescale else total
                bucket = zero_order if r < 0 else orders[r]
                bucket[key] = bucket.get(key, Fraction(0)) + c
    if rescale:
        bad = {k: v for k, v in zero_order.items() if v}
        if bad:
            raise AssertionError(f"lattice table has a non-vanishing O(1) part: {bad}")
    return {r: {k: v for k, v in terms_r.items() if v} for r, terms_r in orders.items()}


@lru_cache(maxsize=None)
def continuum_terms(table: Callable[[int], list], k: int, order: int,
                    rescale: bool = False) -> tuple:
    """Float form of ``expand_lattice_terms(table(k), order, rescale)``,
    built on first use and cached: entry r holds the eps^r part as
    (coefficient, ((kind, band, x-derivative order), ...)) pairs."""
    expanded = expand_lattice_terms(table(k), order, rescale)
    return tuple(tuple((float(c), factors) for factors, c in expanded[r].items())
                 for r in range(order + 1))


# ---------------------------------------------------------------------------
# skew factorisation and the Gaussian initial state
# ---------------------------------------------------------------------------


def skew_factorize(m) -> np.ndarray:
    """Lower-triangular Q with scalar 2x2 diagonal blocks and Q m Q^T = J.

    The factorisation m = L J L^T is built by 2x2 block forward elimination
    (L = Q^{-1} has the same shape); existence over the reals needs every
    leading 2r x 2r Pfaffian minor positive, and the positive-diagonal
    choice makes Q unique.  Each pivot is judged against the largest entry
    of its own leading minor, so blocks of very different magnitude factorise.
    """
    a = np.asarray(m, dtype=float)
    M = a.shape[0]
    if M % 2:
        raise FactorizationError("even dimension required")
    S = a.copy()
    L = np.zeros_like(a)
    for r in range(M // 2):
        base = 2 * r
        mu = S[base, base + 1]
        if not np.isfinite(mu) or mu <= 1e-14 * np.abs(a[:base + 2, :base + 2]).max():
            raise FactorizationError(
                f"singular or nonpositive leading minor: pivot of the "
                f"{base + 2}x{base + 2} block is {mu!r}")
        c = math.sqrt(mu)
        L[base, base] = c
        L[base + 1, base + 1] = c
        if base + 2 < M:
            b1 = S[base + 2:, base]
            b2 = S[base + 2:, base + 1]
            # rows of L below the block: L_i = S_i,(pair) * (-J2) / c
            L[base + 2:, base] = b2 / c
            L[base + 2:, base + 1] = -b1 / c
            # Schur update S' = S - L J2 L^T on the trailing block
            lower = np.outer(L[base + 2:, base], L[base + 2:, base + 1])
            S[base + 2:, base + 2:] -= lower - lower.T
    q = np.tril(np.linalg.inv(L))
    # enforce the block shape structurally: scalar 2x2 diagonal blocks
    for r in range(0, M, 2):
        q[r + 1, r + 1] = q[r, r]
        q[r + 1, r] = 0.0
    return q


def initial_bands_gaussian(sites: int, depth: int, q: QuadratureConfig) -> LaxBands:
    """Even-reduced band state of the zero-coupling Lax matrix.

    Builds the 2*sites moment matrix at t = 0, factorises, forms
    Q Lambda Q^{-1} and harvests the bands; all v bands must vanish to
    ``_V_TOL`` (they are integrals of odd functions) and are then zeroed.
    The final matrix row is truncation-polluted, so only slots with row
    index < 2*sites are read, i.e. w^0_n comes out for n < sites.
    """
    m = moment_matrix(sites, CouplingVector.zero(), q)
    Q = skew_factorize(m)
    M = len(m)
    shift = np.zeros((M, M))
    for i in range(M - 1):
        shift[i, i + 1] = 1.0
    L = Q @ shift @ np.linalg.inv(Q)
    bands = LaxBands(sites=sites, depth=depth)
    for kind, k, n, r, c in placements(M, depth):
        if r >= M - 1:  # last row is polluted by truncation
            continue
        val = float(L[r, c])
        if kind == "w":
            bands.w[(k, n)] = val
        else:
            if abs(val) > _V_TOL:
                raise ValueError(
                    f"v^{k}_{n} = {val:.3e} exceeds the zero tolerance {_V_TOL}")
    bands.even_reduced = True
    return bands


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


def _rhs_for(flow: str, commutator_k: int | None):
    if flow in FLOWS:
        return FLOWS[flow][1]
    if flow == "commutator":
        if commutator_k is None:
            raise ValueError("commutator flow needs commutator_k")
        if commutator_k > 6:
            raise ValueError("commutator flows supported for k <= 6")

        def rhs(b: LaxBands) -> BandDerivs:
            derivs, _ = lax_rhs_commutator(b, commutator_k, 2 * b.sites)
            return derivs

        return rhs
    raise ValueError(f"unknown flow {flow!r}")


def _rk4_step(rhs: Callable[[np.ndarray], np.ndarray], dt: float,
              y: np.ndarray) -> np.ndarray:
    """One classical RK4 step of y' = rhs(y)."""
    k1 = rhs(y)
    k2 = rhs(y + dt / 2 * k1)
    k3 = rhs(y + dt / 2 * k2)
    k4 = rhs(y + dt * k3)
    return y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _march(y: np.ndarray, step: Callable[[np.ndarray], np.ndarray], steps: int,
           blowup: Callable[[int, int], Exception]) -> list[np.ndarray]:
    """[y, step(y), step(step(y)), ...] through ``steps`` steps; the first
    state with a non-finite entry raises ``blowup(step index, flat index)``."""
    if steps < 0:
        raise ValueError(f"steps {steps} must be non-negative")
    states = [y]
    # overflow on the way to the blow-up check is expected, not a bug
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            y = step(y)
            bad = ~np.isfinite(y)
            if bad.any():
                raise blowup(i, int(np.argmax(bad)))
            states.append(y)
    return states


def integrate_flow(b: LaxBands, flow: str, dt: float, steps: int,
                   commutator_k: int | None = None) -> list[LaxBands]:
    """Classical fixed-step RK4 trajectory of the selected band flow over the
    slots stored in ``b`` (slots it omits stay absent); the commutator flow
    uses the full 2 * sites window."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    rhs = _rhs_for(flow, commutator_k)
    start = b.as_float()
    w_keys = list(start.w)
    v_keys = [] if start.even_reduced else list(start.v)
    slots = [("w", key) for key in w_keys] + [("v", key) for key in v_keys]

    def bands(y: np.ndarray) -> LaxBands:
        vals = y.tolist()
        v = dict(zip(v_keys, vals[len(w_keys):])) if v_keys else dict(start.v)
        return LaxBands(b.sites, b.depth, dict(zip(w_keys, vals)), v, b.even_reduced)

    def derivs(y: np.ndarray) -> np.ndarray:
        d = rhs(bands(y))
        return np.array([d.dw.get(key, 0.0) for key in w_keys]
                        + [d.dv.get(key, 0.0) for key in v_keys])

    def blowup(step: int, i: int) -> FlowBlowupError:
        kind, (k, n) = slots[i]
        return FlowBlowupError(step, f"{kind}^{k}_{n}")

    y0 = np.array([start.w[key] for key in w_keys] + [start.v[key] for key in v_keys])
    traj = _march(y0, lambda y: _rk4_step(derivs, dt, y), steps, blowup)
    return [start] + [bands(y) for y in traj[1:]]


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def bands_to_json(b: LaxBands) -> dict:
    return {
        "N": b.sites,
        "K": b.depth,
        "even": b.even_reduced,
        "w": sorted([k, n, float(val)] for (k, n), val in b.w.items()),
        "v": sorted([k, n, float(val)] for (k, n), val in b.v.items()),
    }


def bands_from_json(obj: Mapping) -> LaxBands:
    return LaxBands(
        sites=int(obj["N"]),
        depth=int(obj["K"]),
        w={(int(k), int(n)): float(val) for k, n, val in obj.get("w", [])},
        v={(int(k), int(n)): float(val) for k, n, val in obj.get("v", [])},
        even_reduced=bool(obj.get("even", False)),
    )


def trajectory_to_csv(traj: Iterable[LaxBands], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "band", "k", "n", "value"])
        for step, b in enumerate(traj):
            for (k, n), val in sorted(b.w.items()):
                writer.writerow([step, "w", k, n, repr(float(val))])
            for (k, n), val in sorted(b.v.items()):
                writer.writerow([step, "v", k, n, repr(float(val))])
