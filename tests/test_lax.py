import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import block_diag

from pfaffchain import lax
from pfaffchain.ensemble import QuadratureConfig
from pfaffchain.lax import (
    FLOWS,
    FactorizationError,
    FlowBlowupError,
    LaxBands,
    assemble_lax,
    disassemble_derivs,
    flow_t1_explicit,
    flow_t2_even_explicit,
    flow_t2_explicit,
    flow_terms,
    initial_bands_gaussian,
    integrate_flow,
    interior_mask,
    lax_rhs_commutator,
    random_bands,
    skew_factorize,
)
from pfaffchain.poly import Poly

from oracles import (bands_from_json, bands_to_json, flow_band_by_band, project_t,
                     random_bands_from_slots)

Q = QuadratureConfig()


def _numbered_bands(sites=4, depth=3):
    b = LaxBands(sites=sites, depth=depth)
    val = 100
    for k in range(-depth, depth + 1):
        for n in range(1, sites + 1):
            b.w[(k, n)] = float(val); val += 1
            b.v[(k, n)] = float(val); val += 1
    return b


# ---------------------------------------------------------------------------
# assembly and layout
# ---------------------------------------------------------------------------

def test_assemble_matches_band_display():
    b = _numbered_bands()
    L = assemble_lax(b, 8)
    # structural superdiagonal: ones on odd rows, w^0_n on even rows
    assert L[0, 1] == 1.0 and L[2, 3] == 1.0 and L[4, 5] == 1.0
    assert L[1, 2] == b.value("w", 0, 1) and L[3, 4] == b.value("w", 0, 2)
    # signed diagonal pairs
    assert L[0, 0] == 0.0
    assert L[1, 1] == b.value("v", 0, 1) and L[2, 2] == -b.value("v", 0, 1)
    assert L[3, 3] == b.value("v", 0, 2) and L[4, 4] == -b.value("v", 0, 2)
    # lower diagonals: odd/even column positions
    assert L[1, 0] == b.value("w", -1, 1) and L[2, 1] == b.value("w", 1, 1)
    assert L[2, 0] == b.value("v", -1, 1) and L[3, 1] == b.value("v", 1, 1)
    assert L[3, 0] == b.value("w", -2, 1) and L[4, 1] == b.value("w", 2, 1)
    assert L[5, 0] == b.value("w", -3, 1) and L[6, 1] == b.value("w", 3, 1)
    # strict upper zero beyond the first superdiagonal
    assert np.all(np.triu(L, 2) == 0.0)


def test_zero_bands_give_structural_matrix():
    b = LaxBands(sites=4, depth=2)
    L = assemble_lax(b, 8)
    expected = np.zeros((8, 8))
    for r in range(0, 8, 2):
        expected[r, r + 1] = 1.0
    assert np.array_equal(L, expected)


def test_even_reduced_display_pattern():
    rng = random.Random(0)
    b = random_bands(rng, 5, 2, even=True)
    L = assemble_lax(b, 10)
    assert np.all(np.diag(L) == 0.0)
    # even lower diagonals (v slots) vanish
    for d in (2, 4):
        assert np.all(np.diag(L, -d) == 0.0)
    # odd lower diagonals carry the w bands
    assert L[2, 1] == b.value("w", 1, 1)


def disassemble_lax(A: np.ndarray, depth: int) -> LaxBands:
    """Inverse of ``assemble_lax`` on the stored window: band variables read
    back from a dense matrix, each v^0_n with its -v^0_n partner checked."""
    M = A.shape[0]
    d = disassemble_derivs(A, depth)
    n = np.arange(1, (M + 1) // 2)  # v^0_n at (2n - 1, 2n - 1), -v^0_n at (2n, 2n)
    bad = A[2 * n, 2 * n] != -A[2 * n - 1, 2 * n - 1]
    if bad.any():
        raise ValueError(f"diagonal pair mismatch for v^0_{n[np.argmax(bad)]}")
    return LaxBands._of(d.rows, d.stored)


def test_roundtrip_on_window():
    b = _numbered_bands()
    back = disassemble_lax(assemble_lax(b, 8), 3)
    for key, val in back.w.items():
        assert val == b.w[key]
    for key, val in back.v.items():
        assert val == b.v[key]


def test_disassemble_checks_each_diagonal_pair():
    L = assemble_lax(_numbered_bands(), 8)
    L[7, 7] = 99.0  # v^0_4 has no partner inside M = 8
    assert disassemble_lax(L, 3).v[(0, 4)] == 99.0
    L[4, 4] += 1.0
    with pytest.raises(ValueError, match=r"diagonal pair mismatch for v\^0_2"):
        disassemble_lax(L, 3)


def test_assemble_rejects_bad_dimensions():
    b = _numbered_bands()
    with pytest.raises(ValueError, match="even"):
        assemble_lax(b, 7)
    with pytest.raises(ValueError, match="exceeds"):
        assemble_lax(b, 12)


# ---------------------------------------------------------------------------
# the splitting projection
# ---------------------------------------------------------------------------

def _J(m):
    j = np.zeros((m, m))
    for r in range(0, m, 2):
        j[r, r + 1], j[r + 1, r] = 1.0, -1.0
    return j


def project_n(A: np.ndarray) -> np.ndarray:
    """Complement of ``project_t``; the image satisfies J X^T J = X."""
    return A - project_t(A)


def test_projection_identity_on_identity():
    assert np.array_equal(project_t(np.eye(8)), np.eye(8))


def test_projection_idempotent_and_complement():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((10, 10))
    p = project_t(a)
    assert np.abs(project_t(p) - p).max() < 1e-13
    n_part = project_n(a)
    assert np.abs(p + n_part - a).max() < 1e-14
    j = _J(10)
    assert np.abs(j @ n_part.T @ j - n_part).max() < 1e-13


def test_projection_fixes_t_shape():
    rng = np.random.default_rng(2)
    a = np.tril(rng.standard_normal((8, 8)), -1)
    for r in range(0, 8, 2):
        c = rng.standard_normal()
        a[r, r] = a[r + 1, r + 1] = c
        a[r + 1, r] = 0.0
    assert np.abs(project_t(a) - a).max() < 1e-14


def test_projection_kills_symplectic_part():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 8))
    j = _J(8)
    sym = x + j @ x.T @ j  # J (sym)^T J == sym
    assert np.abs(project_t(sym)).max() < 1e-13


def test_projection_rejects_odd_dimension():
    with pytest.raises(ValueError):
        project_t(np.zeros((5, 5)))


# the dense route: J as a matrix, the projection by four J-products and the
# commutator by two products, over Fractions when exact


def _block_j(m, dtype):
    one = Fraction(1) if dtype is object else 1.0
    j = np.zeros((m, m), dtype=dtype)
    j[np.arange(0, m - 1, 2), np.arange(1, m, 2)] = one
    return j - j.T


def _project_t_by_matmul(a):
    m = a.shape[0]
    exact = a.dtype == object
    j = _block_j(m, object if exact else float)
    half = Fraction(1, 2) if exact else 0.5
    i = np.arange(m)
    blk = (i[:, None] // 2) == (i[None, :] // 2)
    a_blk = np.where(blk, a, 0 * a)
    a_up = np.triu(a, 1) * ~blk
    a_lo = np.tril(a, -1) * ~blk
    return a_lo - j @ a_up.T @ j + (a_blk - j @ a_blk.T @ j) * half


def _commutator_by_matmul(b, k, m):
    lmat = assemble_lax(b, m, dtype=object)
    power = lmat
    for _ in range(k - 1):
        power = power @ lmat
    bmat = -_project_t_by_matmul(power)
    return disassemble_derivs(bmat @ lmat - lmat @ bmat, b.depth)


@pytest.mark.parametrize("m", [2, 36, 128])
def test_projection_is_bitwise_the_j_product_formula(m):
    rng = np.random.default_rng(m)
    for a in (rng.standard_normal((m, m)), rng.uniform(-1e3, 1e3, (m, m)),
              rng.integers(-3, 4, (m, m)).astype(float)):
        assert np.array_equal(project_t(a), _project_t_by_matmul(a))


def _coprime_bands(sites, depth, even):
    # denominators 3, 7 and 11 in turn, so the common denominator is 231
    dens = itertools.cycle((3, 7, 11))
    num = itertools.cycle((1, -2, 5, -4, 3))
    slots = [(k, n) for k in range(-depth, depth + 1) for n in range(1, sites + 1)]
    w = {s: Fraction(next(num), next(dens)) for s in slots}
    v = {} if even else {s: Fraction(next(num), next(dens)) for s in slots}
    return LaxBands(sites, depth, w, v, even_reduced=even)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("even", [False, True], ids=["full", "even"])
def test_exact_commutator_equals_the_dense_fraction_route(k, even):
    rng = random.Random(f"{k}/{even}")
    states = [random_bands(rng, sites, 3, even=even, exact=True) for sites in (8, 10, 12)]
    states.append(_coprime_bands(9, 2, even))
    for b in states:
        m = 2 * b.sites
        comm, _ = lax_rhs_commutator(b, k, m, exact=True)
        oracle = _commutator_by_matmul(b, k, m)
        assert np.array_equal(comm.stored, oracle.stored)
        assert comm.rows.dtype == object
        assert np.array_equal(comm.rows, oracle.rows)
        assert all(type(x) in (Fraction, int) for x in comm.rows.flat)
        assert any(x.denominator > 1 for x in comm.rows[comm.stored])


def test_exact_commutator_reads_a_float_state_exactly():
    # float rows enter as the Fractions they equal; an empty state has float rows
    b = random_bands(random.Random(3), 10, 2)
    as_fractions = LaxBands(b.sites, b.depth, {s: Fraction(x) for s, x in b.w.items()},
                            {s: Fraction(x) for s, x in b.v.items()})
    comm, _ = lax_rhs_commutator(b, 2, 20, exact=True)
    assert all(type(x) in (Fraction, int) for x in comm.rows.flat)
    assert np.array_equal(comm.rows, _commutator_by_matmul(as_fractions, 2, 20).rows)
    zero, _ = lax_rhs_commutator(LaxBands(sites=8, depth=2), 2, 16, exact=True)
    assert all(type(x) in (Fraction, int) and x == 0 for x in zero.rows.flat)


# ---------------------------------------------------------------------------
# commutator vs explicit flow tables, in exact arithmetic
# ---------------------------------------------------------------------------

def _assert_exact_match(k_flow, table_flow, even, sites, depth, trials, seed):
    rng = random.Random(seed)
    m_dim = 2 * sites
    checked = 0
    for _ in range(trials):
        b = random_bands(rng, sites, depth, even=even, exact=True)
        comm, mask = lax_rhs_commutator(b, k_flow, m_dim, exact=True)
        expl = table_flow(b)
        assert mask
        for kind, bk, n in mask:
            assert comm.get(kind, bk, n) == expl.get(kind, bk, n), \
                f"{kind}^{bk}_{n} differs"
            checked += 1
    assert checked > 100


def test_commutator_matches_t1_exactly():
    _assert_exact_match(1, flow_t1_explicit, False, 16, 3, 2, seed=5)


def test_commutator_matches_t2_exactly():
    _assert_exact_match(2, flow_t2_explicit, False, 18, 3, 2, seed=6)


def test_commutator_matches_t2_even_exactly():
    _assert_exact_match(2, flow_t2_even_explicit, True, 18, 3, 2, seed=7)


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_commutator_matches_the_tables_exactly_at_depth_6(name):
    # the hand-written tables were only ever checked here up to depth 3; at
    # 28 sites the interior mask keeps sites 10 .. 19 for t1, 11 .. 18 for t2
    k_flow, flow, even = FLOWS[name]
    _assert_exact_match(k_flow, flow, even, 28, 6, 1, seed=f"depth6/{name}")


def test_even_reduction_closure():
    # v == 0 stays v == 0 under the even commutator flow, and the w
    # derivatives agree with the full-flow tables evaluated at v = 0
    rng = random.Random(8)
    be = random_bands(rng, 14, 3, even=True, exact=True)
    bfull = LaxBands(be.sites, be.depth, dict(be.w), {}, even_reduced=False)
    comm, mask = lax_rhs_commutator(bfull, 2, 28, exact=True)
    for kind, bk, n in mask:
        if kind == "v":
            assert comm.get(kind, bk, n) == 0
    d_even = flow_t2_even_explicit(be)
    d_full = flow_t2_explicit(bfull)
    for key, val in d_even.dw.items():
        assert d_full.dw[key] == val


def test_t1_flow_anchors():
    rng = random.Random(9)
    b = random_bands(rng, 10, 3)
    d = flow_t1_explicit(b)
    for n in range(2, 9):
        assert d.dv[(0, n)] == pytest.approx(b.value("w", 0, n) * b.value("w", 1, n), rel=1e-14)
    # zero state has zero derivative
    z = LaxBands(sites=6, depth=2)
    dz = flow_t1_explicit(z)
    assert all(val == 0 for val in dz.dw.values())
    assert all(val == 0 for val in dz.dv.values())
    # v = 0 makes the w^0 equation vanish
    be = random_bands(rng, 10, 3, even=True)
    bfull = LaxBands(be.sites, be.depth, dict(be.w), {}, even_reduced=False)
    d0 = flow_t1_explicit(bfull)
    assert all(d0.dw[(0, n)] == 0 for n in range(1, 11))


def test_t2_flow_anchor_v0():
    rng = random.Random(10)
    b = random_bands(rng, 10, 3)
    d = flow_t2_explicit(b)
    for n in range(2, 9):
        expected = b.value("w", 0, n) * (b.value("v", 1, n) + b.value("v", -1, n))
        assert d.dv[(0, n)] == pytest.approx(expected, rel=1e-14)


def test_even_flow_homogeneous_interior_fixed_point():
    rng = random.Random(11)
    values = {k: rng.uniform(-1, 1) for k in range(-3, 4)}
    sites = 16
    b = LaxBands(sites=sites, depth=3,
                 w={(k, n): values[k] for k in values for n in range(1, sites + 1)},
                 even_reduced=True)
    d = flow_t2_even_explicit(b)
    for k in range(-3, 4):
        for n in range(6, sites - 5):
            assert abs(d.dw[(k, n)]) < 1e-14


def test_commutator_truncation_error():
    b = LaxBands(sites=3, depth=1)
    with pytest.raises(ValueError, match="truncation too tight"):
        lax_rhs_commutator(b, 2, 6)


def test_interior_mask_margins():
    mask = interior_mask(36, 3, 2)
    sites = {n for (_, _, n) in mask}
    assert sites and min(sites) > 6 and max(sites) < 13


# ---------------------------------------------------------------------------
# the derived tables against the hand-written ones
# ---------------------------------------------------------------------------

# The t1 and t2 tables as they were written out by hand (and fixed against
# the commutator) before ``flow_terms`` read them off the Lax matrix.

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


_HAND = {(1, "w"): t1_w_terms, (1, "v"): t1_v_terms, (2, "w"): t2_w_terms,
         (2, "v"): t2_v_terms}
_HAND_BANDS = [*range(-10, 11), -40, 40]


def _as_dict(terms) -> dict:
    """{sorted factors: Fraction}, with repeated monomials summed."""
    out = {}
    for coeff, factors in terms:
        key = tuple(sorted(factors))
        out[key] = out.get(key, Fraction(0)) + Fraction(coeff)
    return {key: c for key, c in out.items() if c}


@pytest.mark.parametrize("flow_k, kind", sorted(_HAND))
def test_derived_tables_equal_the_hand_tables(flow_k, kind):
    for k in _HAND_BANDS:
        derived = flow_terms(flow_k, kind, k)
        assert derived.terms == _as_dict(_HAND[flow_k, kind](k)), k
        assert all(list(factors) == sorted(factors) for factors in derived.terms)
        assert all(type(c) is Fraction for c in derived.terms.values())


def test_even_table_is_the_v_free_part_of_the_hand_t2_table():
    for k in _HAND_BANDS:
        v_free = [t for t in t2_w_terms(k) if all(kind == "w" for kind, _b, _o in t[1])]
        assert flow_terms(2, "w", k, even=True).terms == _as_dict(v_free), k


def test_flow_terms_rejects_what_has_no_table():
    for args in ((0, "w", 1), (1, "u", 1)):
        with pytest.raises(ValueError, match="no flow table"):
            flow_terms(*args)


# ---------------------------------------------------------------------------
# the array evaluator against a slot-by-slot oracle
# ---------------------------------------------------------------------------

def _eval_terms(b: LaxBands, table: Poly, n: int):
    total = 0
    for factors, coeff in sorted(table.terms.items()):  # the float compile's order
        prod = coeff
        for kind, band, off in factors:
            val = b.value(kind, band, n + off)
            if val == 0:
                prod = 0
                break
            prod = prod * val
        total = total + prod
    return total


def _oracle_flow(b: LaxBands, name: str) -> tuple[dict, dict]:
    flow_k, _flow, even = FLOWS[name]
    slots = [(k, n) for k in range(-b.depth, b.depth + 1) for n in range(1, b.sites + 1)]
    dw = {(k, n): _eval_terms(b, flow_terms(flow_k, "w", k, even), n) for k, n in slots}
    if b.even_reduced:
        return dw, {}
    return dw, {(k, n): _eval_terms(b, flow_terms(flow_k, "v", k, even), n)
                for k, n in slots}


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("name", sorted(FLOWS))
def test_table_flows_equal_the_slot_by_slot_oracle(name, exact):
    # sites 1-3 sit below the largest stencil offset, so terms read off the
    # lattice; bitwise for floats (the coefficients are +-1 and +-1/2, so
    # applying them last is exact), exact equality over Fractions
    _k, flow, needs_even = FLOWS[name]
    rng = random.Random(f"{name}/{exact}")
    for sites in (1, 2, 3, 18):
        for depth in range(4):
            for even in {needs_even, True}:
                b = random_bands(rng, sites, depth, even=even, exact=exact)
                got = flow(b)
                for have, want in zip((got.dw, got.dv), _oracle_flow(b, name)):
                    assert have.keys() == want.keys()
                    for key, e in want.items():
                        if exact:
                            assert isinstance(have[key], (Fraction, int))
                            assert have[key] == e, (sites, depth, even, key)
                        else:
                            assert float(have[key]).hex() == float(e).hex(), \
                                (sites, depth, even, key)


def _with_zeros(rows: np.ndarray, rng) -> np.ndarray:
    """``rows`` with exact zeros at random slots and one whole zero band, so
    that products of either sign vanish."""
    rows[rng.random(rows.shape) < 0.2] = 0
    rows[:, 0] = 0
    return rows


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_table_flows_are_bitwise_the_band_by_band_sum(name):
    # values and sign bits equal, so a -0.0 where the sum has 0.0 fails
    flow_k, flow, needs_even = FLOWS[name]
    rng = np.random.default_rng(sorted(FLOWS).index(name))
    for sites in (5, 6, 17, 64, 2048):
        for depth in range(7):
            for even in {needs_even, True}:
                shape = (1 if even else 2, 2 * depth + 1, sites)
                rows = _with_zeros(rng.uniform(-2.0, 2.0, shape), rng)
                b = LaxBands._of(rows, np.ones(shape, bool))
                got, want = flow(b).rows, flow_band_by_band(b, flow_k, needs_even)
                assert np.array_equal(got, want), (sites, depth, even)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (sites, depth, even)


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_exact_table_flows_equal_the_band_by_band_sum(name):
    # every slot comes out a reduced, hashable Fraction, also from object
    # rows that mix ints and floats (each taken exactly) with Fractions, and
    # equals the exact commutator on the interior mask
    flow_k, flow, needs_even = FLOWS[name]
    rng = random.Random(name)
    for sites in (5, 18):
        for depth in range(4):
            b = random_bands(rng, sites, depth, even=needs_even, exact=True)
            b.rows[0, 0] = 0
            mixed = LaxBands._of(b.rows.copy(), b.stored)
            flat = mixed.rows.reshape(-1)
            flat[1::3] = [rng.randint(-3, 3) for _ in flat[1::3]]
            flat[2::3] = [rng.uniform(-2.0, 2.0) for _ in flat[2::3]]
            for state in (b, mixed):
                got = flow(state)
                assert got.rows.dtype == object
                assert all(type(x) is Fraction for x in got.rows.flat)
                assert {hash(x) for x in got.rows.flat}
                exact = LaxBands._of(np.frompyfunc(Fraction, 1, 1)(state.rows), state.stored)
                assert np.array_equal(got.rows, flow_band_by_band(exact, flow_k, needs_even))
                comm, mask = lax_rhs_commutator(state, flow_k, 2 * sites, exact=True)
                assert mask or sites == 5
                assert all(got.get(*slot) == comm.get(*slot) for slot in mask)


@pytest.mark.parametrize("k, slots", [(1, 70), (2, 60), (3, 50), (4, 40)])
def test_even_state_tables_equal_the_commutator_at_v_zero(k, slots):
    # one symbolic Lax matrix serves both: on a state without v rows the
    # compiled plan keeps the v-free terms, which are the commutator's w
    # derivatives at v = 0, at odd powers as well as even ones
    for seed in range(3):
        b = random_bands(random.Random(f"even/{k}/{seed}"), 24, 2, even=True, exact=True)
        got = lax._flow_from_tables(b, k)
        comm, mask = lax_rhs_commutator(b, k, 48, exact=True)
        w_slots = [(bk, n) for kind, bk, n in mask if kind == "w"]
        assert len(w_slots) == slots
        assert all(got.get("w", *slot) == comm.get("w", *slot) for slot in w_slots)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_commutator_keeps_v_zero_at_even_powers_only(k):
    # v = 0 is invariant under even powers of L (the even reduction); odd
    # powers move v off it, the negative control
    b = random_bands(random.Random(f"v0/{k}"), 24, 2, even=True, exact=True)
    comm, mask = lax_rhs_commutator(b, k, 48, exact=True)
    v = [comm.get("v", bk, n) for kind, bk, n in mask if kind == "v"]
    assert v and all(type(x) is Fraction for x in v)
    assert any(v) == bool(k % 2)


def _compiled_tables(plan: lax._Plan) -> list[list[tuple]]:
    """The (factors, coefficient) pairs of each table of a site-shift plan,
    in summation order, decoded from its index arrays; a factor row outside
    the plan's source stack fails."""
    kinds, bands = plan.shape
    size = len(plan.copies) * kinds * bands
    terms = [None] * plan.terms
    for dest, cols, coeffs in plan.groups:
        for i, t in enumerate(dest):
            rows = [int(col[i]) for col in cols]
            assert all(0 <= r < size for r in rows)
            terms[t] = (tuple((("wv"[r % (kinds * bands) // bands],
                                r % bands - bands // 2, plan.copies[r // (kinds * bands)])
                               for r in rows)), coeffs[1][i, 0])
    order = np.argsort(plan.unsort)
    tables = [[] for _ in range(plan.tables)]
    for start, live in plan.blocks:
        for i in range(live):
            tables[order[i]].append(terms[start + i])
    return tables


@pytest.mark.parametrize("flow_k", [1, 2, 3])
@pytest.mark.parametrize("kinds", [1, 2])
def test_a_plan_compiles_the_tables_on_its_stack(flow_k, kinds):
    # a one-kind plan holds the even tables, and every plan the terms whose
    # bands lie within its depth, each table in sorted order
    for depth in range(4):
        tables = [flow_terms(flow_k, kind, k, kinds == 1)
                  for kind in "wv"[:kinds] for k in range(-depth, depth + 1)]
        want = [[(mono, c) for mono, c in sorted(t.terms.items())
                 if all(abs(band) <= depth for _kind, band, _x in mono)] for t in tables]
        assert _compiled_tables(lax._lattice_plan(flow_k, kinds, depth)) == want


def test_each_site_shift_runs_once_on_the_whole_stack(monkeypatch):
    shift, calls = lax._site_shift, []
    monkeypatch.setattr(lax, "_site_shift",
                        lambda rows, m, out: calls.append((rows.shape, m)) or shift(rows, m, out))
    for b in (random_bands(random.Random(5), 12, 3),
              random_bands(random.Random(5), 12, 3, even=True)):
        calls.clear()
        flow_t2_explicit(b)
        assert calls and all(shape == b.rows.shape for shape, _m in calls)
        assert len({m for _shape, m in calls}) == len(calls)


def test_band_views_write_through_to_the_rows():
    b = random_bands(random.Random(4), 6, 2)
    before = flow_t2_explicit(b)
    b.w[(1, 3)] = 7.5  # inside the window: stored, and the flow reads it
    assert b.w[(1, 3)] == 7.5 and b.value("w", 1, 3) == 7.5
    assert flow_t2_explicit(b) != before
    assert flow_t2_explicit(b) == flow_t2_explicit(LaxBands(6, 2, dict(b.w), dict(b.v)))
    for key in ((3, 1), (0, 0), (0, 7)):
        with pytest.raises(KeyError):
            b.w[key] = 1.0
    b.rows[1, 2, 1], b.stored[1, 2, 1] = 0.0, False  # v^0_2 unmarked: absent, reads zero
    assert (0, 2) not in b.v and b.value("v", 0, 2) == 0 and len(b.v) == 29
    assert b != random_bands(random.Random(4), 6, 2)
    b.v[(0, 2)] = 0.25
    assert LaxBands(b.sites, b.depth, dict(b.w), dict(b.v)) == b
    even = random_bands(random.Random(4), 6, 2, even=True)
    with pytest.raises(KeyError):
        even.v[(0, 1)] = 1.0  # even-reduced states have no v slots
    d = flow_t2_explicit(b)
    d.dw[(0, 1)] += 1.0
    assert d != flow_t2_explicit(b) and d.get("w", 0, 1) == d.dw[(0, 1)]


def test_band_views_read_the_rows_live_and_delete_nothing():
    b = random_bands(random.Random(4), 6, 2)
    view = b.w
    b.rows[0, 1 + 2, 3 - 1] = 7.5  # w^1_3, written in the rows
    assert view[(1, 3)] == 7.5 and b.value("w", 1, 3) == 7.5 and b.w.values()[list(b.w).index((1, 3))] == 7.5
    for mapping in (b.w, b.v, flow_t2_explicit(b).dv):
        with pytest.raises(AttributeError):  # no __delitem__: unmark in ``stored``
            del mapping[(0, 1)]
    even = random_bands(random.Random(4), 6, 2, even=True)
    assert even.v == {} and len(even.v) == 0 and even.v.values() == []


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_random_bands_draw_in_the_order_of_the_slot_dicts(seed):
    for even, exact in itertools.product((False, True), repeat=2):
        got = random_bands(random.Random(seed), 5, 2, even=even, exact=exact)
        want = random_bands_from_slots(random.Random(seed), 5, 2, even=even, exact=exact)
        assert got.rows.dtype == want.rows.dtype and np.array_equal(got.stored, want.stored)
        assert np.array_equal(got.rows, want.rows) and got == want


def test_slots_stored_outside_the_window_read_zero():
    b = random_bands(random.Random(3), 6, 2)
    stray = dict(b.w)
    stray.update({(0, 0): 5.0, (0, 7): 5.0, (3, 2): 5.0, (-3, 2): 5.0})
    padded = LaxBands(b.sites, b.depth, stray, b.v)
    assert flow_t2_explicit(padded) == flow_t2_explicit(b)


# ---------------------------------------------------------------------------
# skew factorisation and the zero-coupling initial state
# ---------------------------------------------------------------------------

def test_factorize_j_gives_identity():
    assert np.abs(skew_factorize(_J(6)) - np.eye(6)).max() < 1e-14


def test_factorize_scaled_j():
    c = 2.5
    q = skew_factorize(c * _J(4))
    assert np.abs(q - np.eye(4) / math.sqrt(c)).max() < 1e-14


def test_factorize_moment_matrix_residual():
    from pfaffchain.ensemble import CouplingVector, moment_matrix

    m = moment_matrix(2, CouplingVector.zero(), Q)
    q = skew_factorize(m)
    assert np.abs(q @ m @ q.T - _J(4)).max() < 1e-9


def _skew_factorize_gram_schmidt(a: np.ndarray) -> np.ndarray:
    """Independent route: symplectic Gram-Schmidt on the monomial basis.

    Rows of Q are coefficient vectors of polynomials q_i with pairings
    <q_2r-1, q_2r> = 1 and zero against all earlier rows, normalised with a
    common positive scale per pair; agrees with ``skew_factorize`` up to
    roundoff because the factorisation is unique.
    """
    M = a.shape[0]
    Q = np.eye(M)

    def pair(x, y):
        return float(x @ a @ y)

    for r in range(M // 2):
        i, ii = 2 * r, 2 * r + 1
        for s in range(r):
            j, jj = 2 * s, 2 * s + 1
            # subtract projection onto the (j, jj) symplectic pair
            for row in (i, ii):
                cj = pair(Q[row], Q[jj])
                cjj = pair(Q[row], Q[j])
                Q[row] = Q[row] - cj * Q[j] + cjj * Q[jj]
        # within the pair: remove the <q_i, q_i>=0 component automatically
        # (skew pairing), then normalise both rows by the same scale
        mu = pair(Q[i], Q[ii])
        if mu <= 0:
            raise FactorizationError(f"nonpositive pair pivot at block {r}")
        scale = 1.0 / math.sqrt(mu)
        Q[i] *= scale
        Q[ii] *= scale
    return Q


def test_factorize_uniqueness_two_routes():
    from pfaffchain.ensemble import CouplingVector, moment_matrix

    m = moment_matrix(4, CouplingVector.zero(), Q)
    q1 = skew_factorize(m)
    q2 = _skew_factorize_gram_schmidt(m)
    assert np.abs(q1 - q2).max() < 1e-10


def test_factorize_block_shape():
    from pfaffchain.ensemble import CouplingVector, moment_matrix

    q = skew_factorize(moment_matrix(3, CouplingVector.zero(), Q))
    for r in range(0, 6, 2):
        assert q[r, r] == q[r + 1, r + 1] > 0
        assert q[r, r + 1] == 0.0 and q[r + 1, r] == 0.0
    assert np.abs(np.triu(q, 1)).max() == 0.0


def test_factorize_pivot_threshold_scales_with_its_own_minor():
    # a unit pivot next to a 1e20 block is healthy; only a pivot small
    # against its own leading minor is singular
    q = skew_factorize(block_diag(_J(2), 1e20 * _J(2)))
    assert np.allclose(np.diag(q), [1.0, 1.0, 1e-10, 1e-10], rtol=1e-14, atol=0)


def test_factorize_nonpositive_minor_error():
    with pytest.raises(FactorizationError, match="minor"):
        skew_factorize(-_J(4))


def test_initial_bands_gaussian_values():
    b = initial_bands_gaussian(5, 3, Q)
    assert b.even_reduced
    for n in range(1, 5):
        expected = math.sqrt(2 * n * (2 * n - 1)) / 2
        assert b.value("w", 0, n) == pytest.approx(expected, rel=1e-9)
        assert b.value("w", 0, n) ** 2 == pytest.approx(2 * n * (2 * n - 1) / 4, rel=1e-9)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def test_integrate_homogeneous_even_state_is_fixed_point():
    rng = random.Random(12)
    values = {k: rng.uniform(-0.5, 0.5) for k in range(-2, 3)}
    sites = 18
    b = LaxBands(sites=sites, depth=2,
                 w={(k, n): values[k] for k in values for n in range(1, sites + 1)},
                 even_reduced=True)
    traj = integrate_flow(b, "t2_even", dt=0.01, steps=5)
    last = traj[-1]
    for k in range(-2, 3):
        for n in range(8, 12):
            assert last.value("w", k, n) == pytest.approx(values[k], abs=1e-12)


def test_integrator_first_order_consistency():
    rng = random.Random(13)
    b = random_bands(rng, 12, 2)
    d = flow_t1_explicit(b)
    dt = 1e-6
    traj = integrate_flow(b, "t1", dt=dt, steps=1)
    for key in b.w:
        rate = (traj[1].w[key] - traj[0].w[key]) / dt
        # one RK4 step read as a difference quotient: rate = f + O(dt)
        assert rate == pytest.approx(d.dw[key], rel=1e-4, abs=1e-5)


def test_two_flow_commutativity_on_even_state():
    rng = random.Random(14)
    b = random_bands(rng, 20, 2, even=True)
    b = LaxBands(b.sites, b.depth,
                 {k: 0.3 * v for k, v in b.w.items()}, {}, even_reduced=True)

    def both_orders(dt):
        a = integrate_flow(b, "t2_even", dt, 1)[-1]
        a = integrate_flow(a, "commutator", dt, 1, commutator_k=4)[-1]
        c = integrate_flow(b, "commutator", dt, 1, commutator_k=4)[-1]
        c = integrate_flow(c, "t2_even", dt, 1)[-1]
        return max(abs(a.value("w", k, n) - c.value("w", k, n))
                   for k in range(-2, 3) for n in range(9, 13))

    d1 = both_orders(0.02)
    d2 = both_orders(0.01)
    assert d1 < 1e-4
    assert d2 < d1 / 3  # at least O(dt^2)


def test_integrate_flow_keeps_the_stored_slots():
    b = initial_bands_gaussian(6, 2, Q)
    assert (0, 6) not in b.w  # the truncation-polluted last row is not stored
    traj = integrate_flow(b, "t2_even", dt=1e-3, steps=3)
    assert len(traj) == 4
    for state in traj:
        assert state.w.keys() == b.w.keys() and state.v.keys() == b.v.keys()


def test_negative_sizes_are_rejected():
    with pytest.raises(ValueError, match="depth -1"):
        LaxBands(sites=4, depth=-1)
    with pytest.raises(ValueError, match="steps -1"):
        integrate_flow(LaxBands(sites=4, depth=1), "t1", dt=0.1, steps=-1)


def test_integrator_rejects_bad_dt():
    for dt in (-0.1, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            integrate_flow(LaxBands(sites=4, depth=1), "t1", dt=dt, steps=1)


def test_integrator_blowup_names_the_step():
    b = LaxBands(sites=12, depth=1,
                 w={(k, n): 1 + 0.1 * n for k in (-1, 0, 1) for n in range(1, 13)},
                 even_reduced=True)
    traj = integrate_flow(b, "t2_even", dt=0.5, steps=2)
    assert all(math.isfinite(x) for x in traj[-1].w.values())
    with pytest.raises(FlowBlowupError, match=r"step 2 \(w\^-1_8\)") as err:
        integrate_flow(b, "t2_even", dt=0.5, steps=10)
    assert err.value.step == 2
    # a full state: the flat index of the first non-finite slot maps back
    # to kind w, band -2, site 1
    full = random_bands(random.Random(1), 10, 2)
    with pytest.raises(FlowBlowupError, match=r"step 1 \(w\^-2_1\)"):
        integrate_flow(full, "t2", dt=3, steps=5)


@pytest.mark.parametrize("flow, k", [("t1", None), ("commutator", 3), ("t2", None),
                                     ("t2_even", None), ("commutator", 4)])
def test_only_even_flows_step_a_state_without_v_rows(flow, k):
    # an odd one would step w with v frozen at 0, which is not that flow
    b = random_bands(random.Random(5), 24, 2, even=True)
    if flow == "t1" or k == 3:
        name = flow if k is None else f"commutator k={k}"
        with pytest.raises(ValueError, match=f"flow {name} is an odd power"):
            integrate_flow(b, flow, dt=0.01, steps=1, commutator_k=k)
    else:
        traj = integrate_flow(b, flow, dt=0.01, steps=2, commutator_k=k)
        assert len(traj) == 3 and traj[-1].even_reduced and traj[-1] != b


def test_commutator_flow_k_limit():
    with pytest.raises(ValueError, match="k <= 6"):
        integrate_flow(LaxBands(sites=8, depth=1), "commutator", dt=0.1,
                       steps=1, commutator_k=7)


@pytest.mark.parametrize("k", [0, -3])
def test_commutator_flow_rejects_powers_below_one(k):
    # L^0 is not L: without the check both read back the t1 flow
    b = random_bands(random.Random(3), 8, 1)
    with pytest.raises(ValueError, match=f"k={k}"):
        lax_rhs_commutator(b, k, 16)
    with pytest.raises(ValueError, match=f"k={k}"):
        integrate_flow(b, "commutator", dt=0.1, steps=1, commutator_k=k)


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def test_band_json_roundtrip():
    rng = random.Random(15)
    b = random_bands(rng, 5, 2)
    obj = bands_to_json(b)
    assert set(obj) == {"N", "K", "even", "w", "v"}
    back = bands_from_json(json.loads(json.dumps(obj)))
    assert back.sites == b.sites and back.depth == b.depth
    assert back.w == b.w and back.v == b.v
