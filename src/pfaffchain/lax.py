"""Band representation of the lattice Lax matrix, its projection-commutator
flows and their term tables, skew factorisation and time stepping.

Layout of the semi-infinite Lax matrix in band coordinates (1-based):

    (2n-1, 2n) = 1            (2n, 2n+1) = w^0_n
    (2n, 2n)   = +v^0_n       (2n+1, 2n+1) = -v^0_n
    lower diagonal 2k-1:  odd columns j=2n-1 -> w^-k_n, even j=2n -> w^k_n
    lower diagonal 2k:    odd columns j=2n-1 -> v^-k_n, even j=2n -> v^k_n

The flows are dL/dt_k = [-(L^k)_t, L] where X_t is the projection onto
block-lower-triangular matrices with scalar 2x2 diagonal blocks:

    X_t = X_lo - J X_up^T J + (X_blk - J X_blk^T J) / 2,   J^2 = -I

with X_up/X_lo the strict upper/lower parts excluding the 2x2 diagonal
blocks and X_blk those blocks.  With Y = X - J X^T J (``_minus_reflected``)
that is Y/2 on the diagonal blocks, Y below them and zero above, which
``lax_rhs_commutator`` builds for X = L^k; the tests keep the projection
itself as an oracle.  Each flow is also written out as *term tables*, one
per flow, kind and band: ``poly.Poly``s over the shifted band factors
(kind, band, site offset), the one exact form of a table.
``flow_terms`` derives them from that definition alone: it takes the
commutator over the symbolic Lax matrix, whose entries are those factors,
and caches each table on first use; no table is written by hand.  The
even reduction (v = 0, invariant under the even flows) keeps the terms
without a v factor: ``flow_terms(..., even=True)``.

One evaluator, ``_Plan``, sums a set of tables over a state's whole (kinds,
2 depth + 1, n) band stack, the layout that ``LaxBands.rows`` (n sites) and
``chain.ChainState.rows`` (n grid points) share.  Each set is compiled once,
on first use, into index arrays for its one stack shape, dropping the
terms with a factor the shape lacks (v on a one-kind stack, so that is the
even reduction, or a band beyond depth): the lattice flow of every band of
every kind is one plan per (flow_k, kinds, depth) (``_lattice_plan``), and
``chain`` compiles its Taylor-expanded tables the same way.  A float
result is bit-identical to summing each table term by term; exact (object)
rows make the same calls on unreduced ``lazyfraction.LazyFraction``s over
one common denominator, and each slot is reduced to a Fraction once.

The Taylor expansion of these tables (``expand_lattice_terms``, one Poly per
eps order) is the continuum limit: the chain right-hand sides in ``chain``
are read off the even second-flow table that way, and the chain matrix of
u_t = A(u) u_x is its order-0 part's derivative by u^j_x
(``chain_matrix_terms``, read by ``chain`` and ``integrability``).

A band state (``LaxBands``, and ``BandDerivs`` for its derivatives) is one
array ``rows`` of shape (kinds, 2 depth + 1, sites): kind 0 is w and kind 1
is v (even-reduced states have the w kind only), row k + depth is band k and
column n - 1 is site n.  A boolean ``stored`` mask of the same shape marks
the stored slots; the others hold zero.  The rows are float64, or
``dtype=object`` for exact Fraction states.  Code here reads and writes
``rows``/``stored`` directly.  The mappings ``.w``/``.v`` and ``.dw``/``.dv``
{(k, n): value} read the stored slots live; their one write is item
assignment to a slot in the window, kept for callers that still set a slot
by key.

Out-of-window band references read zero; the left lattice boundary (site 0)
reads zero as well, which matches the semi-infinite matrix, while
right-boundary truncation is quarantined by the interior mask.

``integrate_flow`` and ``chain.evolve_chain`` share one stepping loop
(``_march``) and one RK4 step (``_rk4_step``) over the state rows.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Mapping
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .ensemble import QuadratureConfig, CouplingVector, moment_matrix
from .lazyfraction import LazyFraction, lazy, over_lcm
from .poly import Poly

__all__ = [
    "LaxBands",
    "BandDerivs",
    "assemble_lax",
    "disassemble_derivs",
    "lax_rhs_commutator",
    "interior_mask",
    "flow_t1_explicit",
    "flow_t2_explicit",
    "flow_t2_even_explicit",
    "flow_terms",
    "FLOWS",
    "expand_lattice_terms",
    "chain_matrix_terms",
    "skew_factorize",
    "FactorizationError",
    "FlowBlowupError",
    "initial_bands_gaussian",
    "integrate_flow",
    "random_bands",
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


class _SlotView(Mapping):
    """{(k, n): value} over the stored slots of kind ``kind`` (0 = w, 1 = v)
    of a state, read live from its rows.  Assigning to a slot inside the
    window stores the value and marks the slot, and a slot outside it (or
    of a kind the state lacks) raises KeyError; there is no other write."""

    def __init__(self, state: "_BandSlots", kind: int):
        self._state, self._kind = state, kind
        self._sel = np.s_[kind:kind + 1]  # no rows for a kind the state lacks

    def __getitem__(self, key):
        at = self._state._at(self._kind, *key)
        if at is None or not self._state.stored[at]:
            raise KeyError(key)
        return self._state.rows.item(at)

    def __setitem__(self, key, value):
        at = self._state._at(self._kind, *key)
        if at is None:
            raise KeyError(key)
        self._state.rows[at], self._state.stored[at] = value, True

    def __iter__(self) -> Iterator[tuple[int, int]]:
        _, ks, ns = np.nonzero(self._state.stored[self._sel])
        return zip((ks - self._state.rows.shape[1] // 2).tolist(), (ns + 1).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._state.stored[self._sel]))

    def values(self) -> list:
        return self._state.rows[self._sel][self._state.stored[self._sel]].tolist()


class _BandSlots:
    """The ``rows``/``stored`` pair shared by ``LaxBands`` and ``BandDerivs``;
    a kind beyond ``len(rows)`` has no slots."""

    def __init__(self, rows: np.ndarray, stored: np.ndarray):
        self.rows, self.stored = rows, stored

    def _at(self, kind: int, k: int, n: int) -> tuple[int, int, int] | None:
        """Index of slot (k, n) of kind 0 (w) or 1 (v) in ``rows``, or None
        outside the window."""
        at = (kind, k + self.rows.shape[1] // 2, n - 1)
        return at if all(0 <= i < size for i, size in zip(at, self.rows.shape)) else None

    def value(self, kind: str, k: int, n: int):
        """The stored value of slot (k, n) of kind "w" or "v", else 0."""
        at = self._at(int(kind != "w"), k, n)
        return self.rows.item(at) if at is not None and self.stored[at] else 0

    def __eq__(self, other):
        return (isinstance(other, type(self)) and self.rows.shape == other.rows.shape
                and np.array_equal(self.stored, other.stored)
                and np.array_equal(self.rows[self.stored], other.rows[other.stored]))


class LaxBands(_BandSlots):
    """Band variables w^k_n, v^k_n for |k| <= depth, 1 <= n <= sites.

    ``rows[kind, k + depth, n - 1]`` holds w^k_n (kind 0) or v^k_n (kind 1),
    so ``rows`` has shape (kinds, 2 depth + 1, sites); ``even_reduced``
    states carry the w kind only.  The boolean ``stored`` mask of the same
    shape marks the stored slots, and a slot that is not stored holds zero.
    The rows are float64 when every value given is a float and
    ``dtype=object`` otherwise (exact Fractions), one dtype for w and v.
    ``w`` and ``v`` are live mappings {(k, n): value} of the stored slots
    whose only write is item assignment.  References outside the
    window (site 0, sites beyond ``sites``, bands |k| > depth) read zero,
    and such slots given to the constructor are dropped.
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
    w = property(lambda self: _SlotView(self, 0))
    v = property(lambda self: _SlotView(self, 1))

    def as_float(self) -> "LaxBands":
        return LaxBands._of(self.rows.astype(float), self.stored.copy())


class BandDerivs(_BandSlots):
    """Derivatives of band slots in the ``LaxBands`` layout; ``dw``/``dv`` are
    live mappings of the computed slots, and ``get`` reads others as 0."""

    dw = property(lambda self: _SlotView(self, 0))
    dv = property(lambda self: _SlotView(self, 1))
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
    """Random band state with every slot stored, drawn w then v, band by
    band, site by site; ``exact`` draws small Fractions instead of floats."""
    stored = np.ones(LaxBands(sites, depth, even_reduced=even).rows.shape, bool)  # checks depth
    if exact:
        vals = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(stored.size)]
    else:
        vals = [rng.uniform(-2.0, 2.0) for _ in range(stored.size)]
    return LaxBands._of(np.array(vals, object if exact else float).reshape(stored.shape), stored)


# ---------------------------------------------------------------------------
# dense assembly
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _slot_index(M: int, depth: int, kinds: int) -> tuple[np.ndarray, ...]:
    """Index arrays (kind, band row k + depth, site column n - 1, row, col),
    0-based, of the slots of the first ``kinds`` kinds (0 = w, 1 = v) that
    lie inside an M x M matrix, site by site: w^0_n, v^0_n, then w^-k_n,
    w^k_n, v^-k_n, v^k_n for k = 1 .. depth.  Slot k != 0 of kind i sits in
    col 2n - 2 + [k > 0], row col + 2|k| - 1 + i; v^0_n sits at
    (2n - 1, 2n - 1) and w^0_n at (2n - 1, 2n)."""
    kind = np.array([0, 1] + [0, 0, 1, 1] * depth)
    k = np.array([0, 0] + [s * j for j in range(1, depth + 1) for s in (-1, 1, -1, 1)])
    dcol = np.where(k == 0, 2 - kind, k > 0)
    drow = np.where(k == 0, 1, dcol + 2 * abs(k) - 1 + kind)
    site = np.arange(M // 2)[:, None]
    idx = np.broadcast_arrays(kind, k + depth, site, 2 * site + drow, 2 * site + dcol)
    keep = (idx[3] < M) & (idx[4] < M) & (idx[0] < kinds)
    return tuple(a[keep] for a in idx)


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


def disassemble_derivs(C: np.ndarray, depth: int) -> BandDerivs:
    """Read band-slot entries of a derivative matrix (no pair validation)."""
    M = C.shape[0]
    kind, band, site, r, c = _slot_index(M, depth, 2)
    return BandDerivs(*_placed(2, depth, M // 2, (kind, band, site), C[r, c], C.dtype))


# ---------------------------------------------------------------------------
# projection and commutator flows
# ---------------------------------------------------------------------------


def _block_mask(M: int) -> np.ndarray:
    i = np.arange(M)
    return (i[:, None] // 2) == (i[None, :] // 2)


def _minus_reflected(A: np.ndarray) -> np.ndarray:
    """X = A - J A^T J.  J A^T J is a signed index permutation: its (a, b)
    entry is -s_a s_b A[b ^ 1, a ^ 1], s = +1 on even indices, so X costs no
    matrix product and is exact on any dtype."""
    M = A.shape[0]
    if M % 2:
        raise ValueError("projection needs even dimension")
    i = np.arange(M)
    flip = A.T[np.ix_(i ^ 1, i ^ 1)]
    same_parity = (i[:, None] % 2) == (i[None, :] % 2)
    return np.where(same_parity, A + flip, A - flip)


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
    if M // 2 < 2 * margin + 3:  # no site clears the margin at both ends
        return set()
    kind, band, site, _r, _c = _slot_index(M, depth, 2)
    keep = (site > margin) & (M // 2 - 1 - site > margin)
    return set(zip(np.array(["w", "v"])[kind[keep]].tolist(),
                   (band[keep] - depth).tolist(), (site[keep] + 1).tolist()))


def lax_rhs_commutator(b: LaxBands, k: int, M: int,
                       exact: bool = False) -> tuple[BandDerivs, set]:
    """Band derivatives of [-(L^k)_t, L] plus the interior mask.

    One dense algebra serves both paths: the projection's 1/2 is carried by
    working with 2 B, so the matrix products give 2 [B, L].  ``exact``
    runs it over Python integers, with L scaled by D, the lcm of its
    entries' denominators (``lazyfraction.over_lcm``); the products give
    2 D^(k+1) [B, L], and the one exact division by 2 D^(k+1) happens only
    at the band slots read back, which come out as Fractions.  No Fraction
    enters a matrix product, and interior agreement with the explicit flow
    tables is exact equality.  In floats the division by 2 is exact too.
    """
    if k < 1:
        raise ValueError(f"commutator flow needs a power k >= 1, got k={k}")
    if M < 2 * (k + 2):
        raise ValueError(f"truncation too tight: need M >= {2 * (k + 2)}")
    L = assemble_lax(b, M, dtype=object if exact else float)
    D = 1
    if exact:
        D, numerators = over_lcm(L.flat)
        L = np.array(numerators, object).reshape(L.shape)
    X = _minus_reflected(_matrix_power(L, k))
    B2 = -np.where(_block_mask(M), X, 2 * np.tril(X, -1))  # 2 D^k B
    d = disassemble_derivs(B2 @ L - L @ B2, b.depth)  # 2 D^(k+1) [B, L]
    scale = 2 * D ** (k + 1)
    d.rows[d.stored] = ([Fraction(x, scale) for x in d.rows[d.stored]] if exact
                        else d.rows[d.stored] / scale)
    return d, interior_mask(M, b.depth, k)


# ---------------------------------------------------------------------------
# flow term tables, read off the symbolic Lax matrix
# ---------------------------------------------------------------------------

# A flow table for band k is the Poly whose variables are the factors
# (kind, band, site offset) of d/dt of that band at site n, offsets taken
# relative to n.  The tables are derived from the bi-infinite Lax matrix whose
# entries are those factors, with the slot's own site at offset 0: since
# [L^k, L] = 0, the flow [-(L^k)_t, L] equals [(L^k)_n, L] with
# (L^k)_n = L^k - (L^k)_t, and (L^k)_n is banded (it reads L^k at most k + 2
# off the diagonal), so one slot sums O(k) products of entries of L and L^k.


def _factor(kind: str, band: int, site: int) -> Poly:
    return Poly({((kind, band, site),): 1})


def _shifted(p: Poly, sites: int) -> Poly:
    """p with every factor moved by ``sites`` sites."""
    return Poly({tuple((kind, band, n + sites) for kind, band, n in mono): c
                 for mono, c in p.terms.items()}) if sites else p


@lru_cache(maxsize=None)
def _lax_entry(a: int, b: int) -> Poly:
    """Entry (a, b) of the symbolic Lax matrix in the 0-based layout of
    ``_slot_index`` (site s owns rows and columns 2s, 2s + 1)."""
    d = a - b
    if d < -1:
        return Poly()
    if d == -1:
        return Poly.const(1) if a % 2 == 0 else _factor("w", 0, a // 2)
    if d == 0:  # v^0_s at (2s + 1, 2s + 1), -v^0_s at (2s + 2, 2s + 2)
        return _factor("v", 0, a // 2) if a % 2 else -_factor("v", 0, a // 2 - 1)
    band = (d + 1) // 2
    return _factor("wv"[d % 2 == 0], band if b % 2 else -band, b // 2)


@lru_cache(maxsize=None)
def _power_entry(k: int, a: int, d: int) -> Poly:
    """Entry (a, a + d) of L^k for a row a of site 0, as the sum over j of
    (L^(k-1))_aj L_j(a+d); the first factor vanishes for j > a + k - 1 and
    the second for j < a + d - 1, which bounds the sum."""
    if k == 1:
        return _lax_entry(a, a + d)
    total = Poly()
    for j in range(a + d - 1, a + k):
        left = _power_entry(k - 1, a, j - a)
        if left:
            total = total + left * _lax_entry(j, a + d)
    return total


def _power(k: int, a: int, b: int) -> Poly:
    """Entry (a, b) of L^k, moved from site 0 by translation invariance."""
    return _shifted(_power_entry(k, a % 2, b - a), a // 2)


@lru_cache(maxsize=None)
def _n_entry(k: int, a: int, b: int) -> Poly:
    """Entry (a, b) of (L^k)_n = L^k - (L^k)_t for a row a of site 0: L^k
    above the diagonal blocks, (L^k - X/2) on them and L^k - X below, with
    X = L^k - J (L^k)^T J as in ``_minus_reflected``."""
    if b > 1:
        return _power(k, a, b)
    flip = _power(k, b ^ 1, a ^ 1) * (1 if a % 2 != b % 2 else -1)
    if b < 0:
        return flip
    return (_power(k, a, b) + flip) * Fraction(1, 2)


def _n(k: int, a: int, b: int) -> Poly:
    """Entry (a, b) of (L^k)_n, moved from site 0 by translation invariance."""
    m = a // 2
    return _shifted(_n_entry(k, a - 2 * m, b - 2 * m), m)


@lru_cache(maxsize=None)
def flow_terms(flow_k: int, kind: str, band: int, even: bool = False) -> Poly:
    """Term table of d/dt_k of band slot (``kind`` "w" or "v", ``band``) at
    site n under dL/dt_k = [-(L^k)_t, L], read off the symbolic Lax matrix
    and cached per key: a Poly over the factors (kind, band, site offset).
    ``even`` gives the even reduction's table (v = 0): the terms of the full
    table that have no v factor."""
    if even:
        return Poly._of({mono: c for mono, c in flow_terms(flow_k, kind, band).terms.items()
                         if all(f[0] == "w" for f in mono)})
    if flow_k < 1 or kind not in ("w", "v"):
        raise ValueError(f"no flow table for flow_k={flow_k}, kind={kind!r}")
    if band == 0:
        r, c = (1, 1 + (kind == "w"))
    else:
        c = int(band > 0)
        r = c + 2 * abs(band) - 1 + (kind == "v")
    k, total = flow_k, Poly()
    for j in range(r - k - 2, r + k + 1):  # (L^k)_n L
        if e := _lax_entry(j, c):
            total = total + _n(k, r, j) * e
    for j in range(c - k, c + k + 3):  # - L (L^k)_n
        if e := _lax_entry(r, j):
            total = total - e * _n(k, j, c)
    return total


# ---------------------------------------------------------------------------
# evaluating term tables: each table set compiled once to index arrays, read
# over site shifts on the lattice and x-derivatives in the continuum, on
# float64 or exact object rows
# ---------------------------------------------------------------------------


class _Plan:
    """A set of term tables compiled once to index arrays for stacks of one
    (kinds, 2 depth + 1) ``shape`` and any n; a call sums them over a
    (kinds, 2 depth + 1, n) band stack, one output row per table.

    Each table is a sequence of (factors, coefficient) pairs in the order
    they are summed.  A factor (kind, band, x) is a row that ``fill(rows,
    stack, copies, *args)`` writes into the source rows: one copy of the
    stack per entry x of ``copies`` (a site shift, ``_site_shifts``, or an
    x-derivative order, ``chain._stencils``).  A term with a factor of a
    kind or band the shape lacks is zero and is dropped: +-0 added to a sum
    that starts at +0 changes no bit (only an inf beside it, inf * 0 = NaN,
    would).  The kept terms are laid out position by position: with the rows
    sorted by decreasing term count, the p-th terms of the rows that have
    one form one block, in the order of those rows.

    A call fills the source, gathers the factor rows of each arity group
    and multiplies them left to right, scales each product by its
    coefficient, scatters the products into the block layout and adds the
    blocks in order into zeroed rows.  Those are the float operations of
    summing each table term by term, in the same order, so the results are
    bit-identical to that sum (x * -1 is -x, and a - b is a + (-b),
    exactly).  Float rows take each coefficient as ``float(c)``; object
    rows take the tables' own values and make the same calls on unreduced
    ``LazyFraction``s, where a multiply by +-1 costs no gcd.
    """

    def __init__(self, tables: Iterable[Iterable[tuple]], fill: Callable, shape: tuple):
        kinds, bands = shape
        tables = [[(mono, c) for mono, c in t  # the terms on the stack
                   if all("wv".index(f[0]) < kinds and 2 * abs(f[1]) < bands for f in mono)]
                  for t in tables]
        self.fill, self.shape, self.tables = fill, shape, len(tables)
        order = sorted(range(len(tables)), key=lambda i: -len(tables[i]))
        self.unsort = np.argsort(order)
        terms, self.blocks = [], []
        for p in range(len(tables[order[0]]) if tables else 0):
            live = [i for i in order if len(tables[i]) > p]  # a prefix of order
            self.blocks.append((len(terms), len(live)))
            terms += [tables[i][p] for i in live]
        self.terms = len(terms)
        fields = sorted({f for mono, _c in terms for f in mono})
        self.copies = sorted({x for _kind, _band, x in fields})
        at = {(kind, band, x): (self.copies.index(x) * kinds + "wv".index(kind)) * bands
              + band + bands // 2 for kind, band, x in fields}  # its row in the source
        coeffs = (np.array([float(c) for _mono, c in terms]),
                  np.array([c for _mono, c in terms], object))
        # per arity: term indices, the rows of each factor, coefficients (float, object)
        self.groups = []
        for arity in sorted({len(mono) for mono, _c in terms}):
            dest = np.array([t for t, (mono, _c) in enumerate(terms) if len(mono) == arity])
            rows = np.array([[at[f] for f in terms[t][0]] for t in dest]).reshape(len(dest), arity)
            self.groups.append((dest, [np.ascontiguousarray(col) for col in rows.T],
                                [c[dest, None] for c in coeffs]))

    def __call__(self, stack: np.ndarray, *args) -> np.ndarray:
        """The (tables, n) sums over ``stack``, a fresh array of its dtype;
        ``args`` go on to ``fill`` (the chain's grid spacing)."""
        shape, dtype = stack.shape, stack.dtype
        if shape[:2] != self.shape:
            raise ValueError(f"a stack of shape {shape} for a plan compiled for {self.shape}")
        ws = _spare_for(self, shape, dtype) or _Buffers(self, shape[2], dtype)
        self.fill(ws.rows, stack, self.copies, *args)
        for dest, cols, coeffs in self.groups:
            prod, tmp = ws.prod[:len(dest)], ws.tmp[:len(dest)]
            np.take(ws.rows, cols[0], axis=0, out=prod)
            for col in cols[1:]:
                np.multiply(prod, np.take(ws.rows, col, axis=0, out=tmp), out=prod)
            np.multiply(prod, coeffs[dtype == object], out=prod)
            ws.terms[dest] = prod
        ws.acc.fill(0)
        for start, live in self.blocks:
            np.add(ws.acc[:live], ws.terms[start:start + live], out=ws.acc[:live])
        _SPARE[:] = [(self, shape, dtype, ws)]
        return ws.acc.take(self.unsort, axis=0)


# The buffers of the last ``_Plan`` call, kept for a next call of the same
# plan on the same stack shape and dtype (a stepping loop), so that such
# calls allocate nothing but their results.  At most one set is held, and a
# call takes it out while it runs, so calls that overlap never share one.
# ``_spare_for`` drops a set that does not match before the call allocates
# its own: variants that kept it referenced through that allocation ran
# ``continuum-check`` 16-24 % slower in in-process A/B runs, so it is not
# to be inlined into a lookup that holds the set until the call returns.
_SPARE: list[tuple] = []


def _spare_for(plan: _Plan, shape: tuple, dtype) -> "_Buffers | None":
    """Take the kept buffers out of ``_SPARE``: returned when they belong to
    ``plan`` on this shape and dtype, otherwise dropped."""
    try:
        owner, *key, ws = _SPARE.pop()
    except IndexError:
        return None
    return ws if owner is plan and key == [shape, dtype] else None


class _Buffers:
    """The (rows, n) arrays one ``_Plan`` call works in: the source rows
    (zeroed once: a fill writes only the entries it reads the stack into),
    an arity group's products and the rows of its next factor, the terms in
    block layout and the sums."""

    def __init__(self, plan: _Plan, n: int, dtype):
        width = max((len(dest) for dest, _cols, _coeffs in plan.groups), default=0)
        self.rows = np.zeros((len(plan.copies) * math.prod(plan.shape), n), dtype)
        self.prod, self.tmp = np.empty((2, width, n), dtype)
        self.terms = np.empty((plan.terms, n), dtype)
        self.acc = np.empty((plan.tables, n), dtype)


def _site_shift(rows: np.ndarray, m: int, out: np.ndarray) -> None:
    """Write the value at site n + m of every site n, along the last axis,
    into ``out``; its sites that fall off the lattice are left as they are."""
    if m > 0:
        out[..., :-m] = rows[..., m:]
    elif m < 0:
        out[..., -m:] = rows[..., :m]
    else:
        out[...] = rows


def _site_shifts(rows: np.ndarray, stack: np.ndarray, copies: list) -> None:
    """Lattice factor rows for a ``_Plan``: copy i of the stack read at site
    n + copies[i] for every site n; its sites off the lattice keep the zeros
    the rows were made with."""
    size = stack.shape[0] * stack.shape[1]
    for i, m in enumerate(copies):
        _site_shift(stack, m, rows[i * size:(i + 1) * size].reshape(stack.shape))


@lru_cache(maxsize=None)
def _lattice_plan(flow_k: int, kinds: int, depth: int) -> _Plan:
    """The ``flow_terms`` tables of every band |k| <= depth of the first
    ``kinds`` kinds, compiled over site shifts on first use; the terms are
    summed in sorted order.  One kind is the even reduction (no v terms)."""
    return _Plan([sorted(flow_terms(flow_k, kind, k).terms.items())
                  for kind in "wv"[:kinds] for k in range(-depth, depth + 1)],
                 _site_shifts, (kinds, 2 * depth + 1))


def _flow_from_tables(b: LaxBands, flow_k: int) -> BandDerivs:
    """Every slot of every band |k| <= depth, read off the ``flow_terms``
    tables: float64 rows with float coefficients, or object rows (each value
    taken exactly, as LazyFractions over one denominator) with the tables'
    own, whose slots come out as reduced Fractions.  A state without v rows
    gets the w tables of the even reduction."""
    rows = b.rows
    if rows.dtype == object:
        common, numerators = over_lcm(rows.flat)
        rows = np.array([LazyFraction(n, common) for n in numerators], object).reshape(rows.shape)
    d = _lattice_plan(flow_k, len(rows), b.depth)(rows).reshape(rows.shape)
    if d.dtype == object:
        d = np.frompyfunc(lambda x: lazy(x).fraction(), 1, 1)(d)
    return BandDerivs(d, np.ones(d.shape, bool))


def flow_t1_explicit(b: LaxBands) -> BandDerivs:
    """First-flow band derivatives from the term tables."""
    return _flow_from_tables(b, 1)


def flow_t2_explicit(b: LaxBands) -> BandDerivs:
    """Second-flow band derivatives from the term tables."""
    return _flow_from_tables(b, 2)


def flow_t2_even_explicit(b: LaxBands) -> BandDerivs:
    """Second flow of the even reduction (v identically zero)."""
    if not b.even_reduced:
        raise ValueError("flow_t2_even_explicit needs an even-reduced state")
    return _flow_from_tables(b, 2)


# flow name -> (power k of L in the commutator, explicit flow, even reduction)
FLOWS = {"t1": (1, flow_t1_explicit, False),
         "t2": (2, flow_t2_explicit, False),
         "t2_even": (2, flow_t2_even_explicit, True)}


# ---------------------------------------------------------------------------
# Taylor expansion of the term tables (the continuum limit)
# ---------------------------------------------------------------------------


def expand_lattice_terms(table: Poly, max_order: int,
                         rescale: bool = False) -> tuple[Poly, ...]:
    """Taylor-expand a lattice term table into continuum term tables.

    Each lattice factor (kind, band, shift m) becomes its truncated Taylor
    series sum_a m^a / a! eps^a (kind, band, a), with (kind, band, a) the
    a-th x-derivative, so a continuum monomial's eps power is the sum of its
    derivative orders.  Returns one Poly per order r = 0 .. max_order.  With
    ``rescale`` the whole table is divided by eps (the t = eps * t2 time
    identification), so order r reads the lattice's eps^(r+1) coefficient
    and the eps^0 part must cancel, which is asserted.
    """
    top = max_order + rescale

    def order(mono) -> int:
        return sum(a for _kind, _band, a in mono)

    def truncated(p: Poly) -> Poly:
        return Poly({mono: c for mono, c in p.terms.items() if order(mono) <= top})

    full = Poly()
    for mono, coeff in table.terms.items():
        term = Poly.const(coeff)
        for kind, band, m in mono:
            taylor = Poly({((kind, band, a),): Fraction(m) ** a / math.factorial(a)
                           for a in range(top + 1)})
            term = truncated(term * taylor)
        full = full + term
    parts = [Poly({mono: c for mono, c in full.terms.items() if order(mono) == r})
             for r in range(top + 1)]
    if rescale and parts[0]:
        raise AssertionError(f"lattice table has a non-vanishing O(1) part: {parts[0]}")
    return tuple(parts[rescale:])


@lru_cache(maxsize=None)
def chain_matrix_terms(k: int) -> dict[int, Poly]:
    """Row k of the chain matrix, {j: a^k_j}, built on first use and cached
    (the Polys are shared; do not mutate them).  a^k_j is the derivative of
    the order-0 expansion of the even second-flow table
    ``flow_terms(2, "w", k, even=True)`` by u^j_x, the factor ("w", j, 1);
    its factors are ("w", p, 0), the values u^p.  Raises unless that
    expansion is exactly sum_j a^k_j u^j_x."""
    order0 = expand_lattice_terms(flow_terms(2, "w", k, even=True), 0, rescale=True)[0]
    cols = sorted({band for _kind, band, d in order0.variables() if d == 1})
    row = {j: order0.diff(("w", j, 1)) for j in cols}
    if sum((a * _factor("w", j, 1) for j, a in row.items()), Poly()) != order0:
        raise AssertionError(f"order-0 chain row {k} is not linear in the u^j_x: {order0}")
    return row


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


def _rhs_for(flow: str, commutator_k: int | None) -> tuple[int, Callable]:
    """The power k of L in the flow and its band right-hand side."""
    if flow in FLOWS:
        return FLOWS[flow][:2]
    if flow == "commutator":
        if commutator_k is None:
            raise ValueError("commutator flow needs commutator_k")
        if not 1 <= commutator_k <= 6:
            raise ValueError(f"commutator flows supported for 1 <= k <= 6, "
                             f"got k={commutator_k}")

        def rhs(b: LaxBands) -> BandDerivs:
            derivs, _ = lax_rhs_commutator(b, commutator_k, 2 * b.sites)
            return derivs

        return commutator_k, rhs
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
    v^{+-(depth+1)}), which lie outside the window; the plan drops the
    terms that read them, so the band moves as if the state had no bands
    beyond depth.  ``lax-verify`` does not see this: its dense commutator is
    truncated at the same depth, and ``interior_mask`` trims sites, not
    bands.  An odd power of L (t1, or an odd ``commutator_k``) moves v off
    0, so it is refused on a state without v rows.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    power, rhs = _rhs_for(flow, commutator_k)
    if b.even_reduced and power % 2:
        name = flow if flow in FLOWS else f"commutator k={commutator_k}"
        raise ValueError(f"flow {name} is an odd power of L: it moves the v bands this state lacks")
    start = b.as_float()
    stored = start.stored

    def derivs(y: np.ndarray) -> np.ndarray:
        return np.where(stored, rhs(LaxBands._of(y, stored)).rows[:len(y)], 0.0)

    def blowup(step: int, i: int) -> FlowBlowupError:
        kind, row, col = np.unravel_index(i, stored.shape)
        return FlowBlowupError(step, f"{'wv'[kind]}^{row - b.depth}_{col + 1}")

    traj = _march(start.rows, lambda y: _rk4_step(derivs, dt, y), steps, blowup)
    return [start] + [LaxBands._of(y, stored.copy()) for y in traj[1:]]
