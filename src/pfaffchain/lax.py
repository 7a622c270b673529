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

A band state (``LaxBands``, and ``BandDerivs`` for its derivatives) is one
array ``rows`` of shape (kinds, 2 depth + 1, sites): kind 0 is w and kind 1
is v (even-reduced states have the w kind only), row k + depth is band k and
column n - 1 is site n.  A boolean ``stored`` mask of the same shape marks
the stored slots; the others hold zero.  The rows are float64, or
``dtype=object`` for exact Fraction states.  The mappings ``.w``/``.v`` and
``.dw``/``.dv`` are writable views {(k, n): value} over the stored slots.

Out-of-window band references read zero; the left lattice boundary (site 0)
reads zero as well, which matches the semi-infinite matrix, while
right-boundary truncation is quarantined by the interior mask.

``integrate_flow`` and ``chain.evolve_chain`` share one stepping loop
(``_march``) and one RK4 step (``_rk4_step``) over the state rows.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Mapping, MutableMapping
from fractions import Fraction
from functools import lru_cache

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


class _SlotView(MutableMapping):
    """(k, n) -> value over the stored slots of one kind's (2 depth + 1,
    sites) rows.  A write inside the window stores the value (cast to the
    rows' dtype) and marks the slot; a write outside it raises KeyError;
    ``del`` unmarks the slot, which reads zero again."""

    def __init__(self, rows: np.ndarray, stored: np.ndarray):
        self._rows, self._stored = rows, stored

    def _at(self, key) -> tuple[int, int]:
        k, n = key
        i, j = k + self._rows.shape[0] // 2, n - 1
        if not (0 <= i < self._rows.shape[0] and 0 <= j < self._rows.shape[1]):
            raise KeyError(key)
        return i, j

    def __getitem__(self, key):
        at = self._at(key)
        if not self._stored[at]:
            raise KeyError(key)
        return self._rows.item(at)

    def __setitem__(self, key, value):
        at = self._at(key)
        self._rows[at], self._stored[at] = value, True

    def __delitem__(self, key):
        at = self._at(key)
        if not self._stored[at]:
            raise KeyError(key)
        self._rows[at], self._stored[at] = 0, False

    def __iter__(self) -> Iterator[tuple[int, int]]:
        ks, ns = np.nonzero(self._stored)
        return zip((ks - self._rows.shape[0] // 2).tolist(), (ns + 1).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._stored))

    def values(self) -> list:
        return self._rows[self._stored].tolist()


_NO_SLOTS = _SlotView(np.zeros((0, 0)), np.zeros((0, 0), bool))  # a kind a state lacks


class _BandSlots:
    """The ``rows``/``stored`` pair shared by ``LaxBands`` and ``BandDerivs``,
    with one view per kind; a kind beyond ``len(rows)`` has no slots."""

    def __init__(self, rows: np.ndarray, stored: np.ndarray):
        self.rows, self.stored = rows, stored
        self._views = tuple(map(_SlotView, rows, stored)) + (_NO_SLOTS,) * (2 - len(rows))

    def value(self, kind: str, k: int, n: int):
        """The stored value of slot (k, n) of kind "w" or "v", else 0."""
        return self._views[kind != "w"].get((k, n), 0)

    def __eq__(self, other):
        return (isinstance(other, type(self)) and self.rows.shape == other.rows.shape
                and self._views == other._views)


class LaxBands(_BandSlots):
    """Band variables w^k_n, v^k_n for |k| <= depth, 1 <= n <= sites.

    ``rows[kind, k + depth, n - 1]`` holds w^k_n (kind 0) or v^k_n (kind 1),
    so ``rows`` has shape (kinds, 2 depth + 1, sites); ``even_reduced``
    states carry the w kind only.  The boolean ``stored`` mask of the same
    shape marks the stored slots, and a slot that is not stored holds zero.
    The rows are float64 when every value given is a float and
    ``dtype=object`` otherwise (exact Fractions), one dtype for w and v.
    ``w`` and ``v`` are writable views {(k, n): value} of the stored slots.
    References outside the window (site 0, sites beyond ``sites``, bands
    |k| > depth) read zero, and such slots given to the constructor are
    dropped.
    """

    def __init__(self, sites: int, depth: int, w: Mapping | None = None,
                 v: Mapping | None = None, even_reduced: bool = False):
        if depth < 0:
            raise ValueError(f"depth {depth} must be non-negative")
        w, v = w or {}, v or {}
        if even_reduced and any(v.values()):
            raise ValueError("even-reduced states must have vanishing v bands")
        super().__init__(*_slot_rows([w] if even_reduced else [w, v], depth, sites))

    @classmethod
    def _of(cls, rows: np.ndarray, stored: np.ndarray) -> "LaxBands":
        b = cls.__new__(cls)
        _BandSlots.__init__(b, rows, stored)
        return b

    sites = property(lambda self: self.rows.shape[2])
    depth = property(lambda self: (self.rows.shape[1] - 1) // 2)
    even_reduced = property(lambda self: len(self.rows) == 1)
    w = property(lambda self: self._views[0])
    v = property(lambda self: self._views[1])

    def as_float(self) -> "LaxBands":
        return LaxBands._of(self.rows.astype(float), self.stored.copy())


class BandDerivs(_BandSlots):
    """Derivatives of band slots in the ``LaxBands`` layout; ``dw``/``dv`` are
    writable views of the computed slots, and ``get`` reads others as 0."""

    dw = property(lambda self: self._views[0])
    dv = property(lambda self: self._views[1])
    get = _BandSlots.value


def _placed(kinds: int, depth: int, sites: int, at: tuple, values,
            dtype) -> tuple[np.ndarray, np.ndarray]:
    """Rows and stored mask holding ``values`` at the (kind, band row, site
    column) index arrays ``at``; every other slot is unstored and zero."""
    shape = (kinds, 2 * depth + 1, sites)
    rows, stored = np.zeros(shape, dtype), np.zeros(shape, bool)
    rows[at] = values
    stored[at] = True
    return rows, stored


def _slot_rows(slots: list[Mapping], depth: int, sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and stored mask of {(k, n): value} mappings, one per kind; slots
    outside the window are dropped.  The rows are float64 when every value
    is a float and object rows otherwise."""
    kind = np.repeat(np.arange(len(slots)), [len(s) for s in slots])
    keys = itertools.chain.from_iterable(itertools.chain.from_iterable(slots))
    k, n = (np.fromiter(keys, int, 2 * len(kind)).reshape(-1, 2) + (depth, -1)).T
    vals = np.array(list(itertools.chain.from_iterable(s.values() for s in slots)))
    inside = (0 <= k) & (k <= 2 * depth) & (0 <= n) & (n < sites)
    return _placed(len(slots), depth, sites, (kind[inside], k[inside], n[inside]),
                   vals[inside], float if vals.dtype.kind == "f" else object)


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


@lru_cache(maxsize=64)
def _slot_index(M: int, depth: int, kinds: int) -> tuple[np.ndarray, ...]:
    """``placements(M, depth)`` of the first ``kinds`` kinds (0 = w, 1 = v) as
    index arrays (kind, band row k + depth, site column n - 1, row, col)."""
    idx = np.array([("wv".index(kind), k + depth, n - 1, r, c)
                    for kind, k, n, r, c in placements(M, depth)], dtype=int).reshape(-1, 5)
    return tuple(idx[idx[:, 0] < kinds].T)


def assemble_lax(b: LaxBands, M: int, dtype=float) -> np.ndarray:
    """Dense M x M Lax matrix; use ``dtype=object`` for exact band values."""
    if M % 2:
        raise ValueError("Lax matrix dimension must be even")
    if M > 2 * b.sites:
        raise ValueError(f"M={M} exceeds 2*sites={2 * b.sites}")
    one = Fraction(1) if dtype is object else 1.0
    L = np.zeros((M, M), dtype=dtype)
    L[np.arange(0, M, 2), np.arange(1, M, 2)] = one  # structural superdiagonal ones
    kind, band, site, r, c = _slot_index(M, b.depth, len(b.rows))
    vals = b.rows[kind, band, site]
    L[r, c] = vals
    pair = (kind == 1) & (band == b.depth) & (r + 1 < M)  # -v^0_n at (2n, 2n)
    L[r[pair] + 1, c[pair] + 1] = -vals[pair]
    return L


def disassemble_lax(A: np.ndarray, depth: int) -> LaxBands:
    """Read band variables back from a dense matrix on the stored window;
    each v^0_n must come with its -v^0_n partner on the diagonal."""
    M = A.shape[0]
    d = disassemble_derivs(A, depth)
    n = np.arange(1, (M + 1) // 2)  # v^0_n at (2n - 1, 2n - 1), -v^0_n at (2n, 2n)
    bad = A[2 * n, 2 * n] != -A[2 * n - 1, 2 * n - 1]
    if bad.any():
        raise ValueError(f"diagonal pair mismatch for v^0_{n[np.argmax(bad)]}")
    return LaxBands._of(d.rows, d.stored)


def disassemble_derivs(C: np.ndarray, depth: int) -> BandDerivs:
    """Read band-slot entries of a derivative matrix (no pair validation)."""
    M = C.shape[0]
    kind, band, site, r, c = _slot_index(M, depth, 2)
    return BandDerivs(*_placed(2, depth, M // 2, (kind, band, site), C[r, c], C.dtype))


# ---------------------------------------------------------------------------
# projection and commutator flows
# ---------------------------------------------------------------------------


def _block_j(M: int, dtype) -> np.ndarray:
    one = Fraction(1) if dtype is object else 1.0
    J = np.zeros((M, M), dtype=dtype)
    J[np.arange(0, M - 1, 2), np.arange(1, M, 2)] = one
    return J - J.T


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
    return {(kind, k, n) for kind, k, n, _r, _c in placements(M, depth)
            if n - 1 > margin and M // 2 - n > margin}


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
    {band: row} and absent kinds and bands read ``zero``.  The lattice
    passes a site shift as ``op``, the continuum an x-derivative stencil, so
    one evaluator serves both."""

    def __init__(self, rows: Mapping[str, Mapping[int, np.ndarray]],
                 op: Callable[[np.ndarray, int], np.ndarray], zero: np.ndarray):
        super().__init__()
        self.rows, self.op, self.zero = rows, op, zero

    def __missing__(self, factor: tuple) -> np.ndarray:
        kind, band, m = factor
        row = self.rows.get(kind, {}).get(band)
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


def _flow_from_tables(b: LaxBands, w_table: Callable[[int], list],
                      v_table: Callable[[int], list] | None) -> BandDerivs:
    """Every slot of every band |k| <= depth, read off the tables over the
    state's rows: float64 rows with float coefficients, or object rows
    (exact Fractions) with the tables' own coefficients."""
    exact = b.rows.dtype == object
    bands = range(-b.depth, b.depth + 1)
    rows = {kind: dict(zip(bands, stack)) for kind, stack in zip("wv", b.rows)}
    fields = _Fields(rows, _site_shift, np.zeros(b.sites, b.rows.dtype))
    tables = [w_table] if v_table is None or b.even_reduced else [w_table, v_table]
    d = np.array([[_sum_terms(table(k) if exact else [(float(c), f) for c, f in table(k)],
                              fields) for k in bands] for table in tables], b.rows.dtype)
    return BandDerivs(d, np.ones(d.shape, bool))


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
    L = Q @ np.eye(M, k=1) @ np.linalg.inv(Q)
    kind, band, site, r, c = _slot_index(M, depth, 2)
    vals = L[r, c]
    live = r < M - 1  # the last row is polluted by truncation
    bad = live & (kind == 1) & (np.abs(vals) > _V_TOL)
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(f"v^{band[i] - depth}_{site[i] + 1} = {vals[i]:.3e} "
                         f"exceeds the zero tolerance {_V_TOL}")
    w = live & (kind == 0)
    return LaxBands._of(*_placed(1, depth, sites, (kind[w], band[w], site[w]),
                                 vals[w], float))


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
    uses the full 2 * sites window.

    The (kinds, 2 depth + 1, sites) rows are stepped as one stack.  Under
    every table flow band +-depth is polluted by truncation: its equations
    read w^{+-(depth+1)} (under t1 in the v equation only; under t2 also
    v^{+-(depth+1)}), which lie outside the window and read zero, so the
    band moves as if the state had no bands beyond depth.  ``lax-verify``
    does not see this: its dense commutator is truncated at the same depth,
    and ``interior_mask`` trims sites, not bands.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    rhs = _rhs_for(flow, commutator_k)
    start = b.as_float()
    stored = start.stored

    def derivs(y: np.ndarray) -> np.ndarray:
        return np.where(stored, rhs(LaxBands._of(y, stored)).rows[:len(y)], 0.0)

    def blowup(step: int, i: int) -> FlowBlowupError:
        kind, row, col = np.unravel_index(i, stored.shape)
        return FlowBlowupError(step, f"{'wv'[kind]}^{row - b.depth}_{col + 1}")

    traj = _march(start.rows, lambda y: _rk4_step(derivs, dt, y), steps, blowup)
    return [start] + [LaxBands._of(y, stored.copy()) for y in traj[1:]]


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
