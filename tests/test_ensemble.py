import collections
import itertools
import math
import operator
import re

import numpy as np
import pytest

from pfaffchain.ensemble import (
    CouplingVector,
    QuadratureConfig,
    QuadratureError,
    moment_flow_residual,
    moment_matrix,
    moment_mu,
    selberg_ratio,
    skew_factor,
    tau_from_moments,
    tau_report,
    tau_table,
    write_moment_csv,
)
from pfaffchain.ensemble import (
    _PANEL_NODES,
    _MomentQuadrature,
    _inner_integrals,
    _quadrature_for,
    _skew_elimination,
    _stencil_for,
    _TriangleTable,
    _triangle_rule,
    _weight_array,
)

from oracles import pfaffian

ZERO = CouplingVector.zero()
Q = QuadratureConfig()


# ---------------------------------------------------------------------------
# weights and the integrability guard
# ---------------------------------------------------------------------------

def weight_eval(x, t):
    """Oracle for the adaptive rule: exp(-x^2/2 + sum_k t_k x^k) at one point."""
    return math.exp(-0.5 * x * x + sum(tk * x ** k for k, tk in t.entries.items()))


def test_weight_at_origin():
    assert _weight_array(np.array([0.0]), ZERO)[0] == 1.0


def test_weight_even_in_gaussian_case():
    x = np.array([0.3, 1.7, 4.2])
    assert np.array_equal(_weight_array(x, ZERO), _weight_array(-x, ZERO))


def test_weight_with_quadratic_coupling():
    w = _weight_array(np.array([1.0]), CouplingVector({2: -0.1}))
    assert w[0] == pytest.approx(math.exp(-0.6))


def test_weight_overflow_names_the_point():
    t = CouplingVector({1: 800.0})  # guard fine (k_max <= 2, quadratic decay)
    with pytest.raises(OverflowError, match="weight overflow at x=2.0"):
        _weight_array(np.array([-1.0, 2.0]), t)


def test_a_weight_exponent_past_float64_is_a_zero_weight_or_refused():
    # -x^2/2 overflows to -inf past |x| = 1.9e154, and a quartic coupling
    # past 1e77: weight 0, with no numpy warning
    x = np.array([0.0, 1e80, 1e160])
    assert _weight_array(x, ZERO).tolist() == [1.0, 0.0, 0.0]
    assert _weight_array(x[:2], CouplingVector({4: -0.01})).tolist() == [1.0, 0.0]
    # +inf - inf is no exponent at all
    with pytest.raises(OverflowError, match=r"^the weight exponent at x=1e\+160 is nan"):
        _weight_array(x, CouplingVector({2: 0.1, 4: -0.01}))


def test_guard_rejects_odd_leading_coupling():
    with pytest.raises(ValueError, match="integrable"):
        CouplingVector({3: 0.1})


def test_guard_rejects_overcritical_t2():
    with pytest.raises(ValueError, match="integrable"):
        CouplingVector({2: 0.5})
    CouplingVector({2: 0.49})  # fine


def test_guard_allows_t1_with_gaussian_decay():
    CouplingVector({1: 5.0})


def test_even_only_is_read_off_the_coupled_powers():
    even = CouplingVector({2: -0.1, 4: -0.02})
    assert ZERO.even_only and even.even_only and even.shifted(2, 0.01).even_only
    assert not CouplingVector({1: 0.1}).even_only and not even.shifted(3, 0.01).even_only
    with pytest.raises(TypeError):
        CouplingVector({2: -0.1}, even_only=True)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(nodes_per_axis=4)
    with pytest.raises(ValueError):
        QuadratureConfig(domain_radius=-1.0)
    # the rule's panel midpoints sum two nodes, so 2R must be finite
    with pytest.raises(ValueError, match=r"^domain_radius 1e\+308 is past float64"):
        QuadratureConfig(domain_radius=1e308)
    QuadratureConfig(domain_radius=8e307)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moment_diagonal_is_exactly_zero():
    for i in range(4):
        assert moment_mu(i, i, ZERO, Q) == 0.0


def test_moment_antisymmetry_exact():
    for (i, j) in [(0, 1), (1, 2), (0, 3), (2, 5)]:
        assert moment_mu(i, j, ZERO, Q) == -moment_mu(j, i, ZERO, Q)


def test_moment_parity_zero():
    # integrand odd under (x, y) -> (-x, -y) when i + j is even at zero coupling
    assert abs(moment_mu(0, 2, ZERO, Q)) < 1e-10
    assert abs(moment_mu(1, 3, ZERO, Q)) < 1e-10


def test_moment_01_closed_form_and_sign():
    # orientation sigma(y - x) makes mu_01 positive, so tau_2 = pf(m_2) > 0
    mu = moment_mu(0, 1, ZERO, Q)
    assert mu == pytest.approx(2 * math.sqrt(math.pi), rel=1e-10)


def test_moment_01_monte_carlo_oracle():
    # mu_01 = 2*pi * E[y * sign(y - x)] for iid standard normal (x, y)
    rng = np.random.default_rng(12345)
    n = 400_000
    x, y = rng.standard_normal((2, n))
    est = 2 * math.pi * float(np.mean(y * np.sign(y - x)))
    sem = 2 * math.pi * float(np.std(y * np.sign(y - x))) / math.sqrt(n)
    assert abs(est - moment_mu(0, 1, ZERO, Q)) < 5 * sem


def _mu_adaptive(i, j, t, radius):
    """Oracle: scipy's adaptive dblquad over the triangle y > x."""
    from scipy import integrate

    def f(y, x):
        return (x ** i * y ** j - x ** j * y ** i) * \
            weight_eval(x, t) * weight_eval(y, t)

    val, _ = integrate.dblquad(f, -radius, radius, lambda x: x, lambda x: radius,
                               epsabs=1e-10, epsrel=1e-10)
    return val


def test_adaptive_scheme_matches_tensor_rule():
    # dblquad is asked for 1e-10; the panel rule is within 1e-13 relative here
    for t in (ZERO, CouplingVector({1: 0.1, 2: -0.05, 4: -0.01})):
        for (i, j) in [(0, 1), (1, 2), (3, 8)]:
            assert _mu_adaptive(i, j, t, Q.domain_radius) == pytest.approx(
                moment_mu(i, j, t, Q), rel=1e-10, abs=1e-10)


def test_moment_matrix_structure():
    dense = moment_matrix(1, ZERO, Q)
    assert dense.shape == (2, 2)
    assert dense[0, 0] == 0.0 and dense[1, 1] == 0.0
    assert dense[0, 1] == pytest.approx(2 * math.sqrt(math.pi), rel=1e-10)
    assert dense[1, 0] == -dense[0, 1]


def test_moment_matrix_exact_antisymmetry():
    m = moment_matrix(3, CouplingVector({2: -0.05}), Q)
    assert np.all(m + m.T == 0.0)


def test_even_only_couplings_keep_parity_zeros():
    t = CouplingVector({2: -0.1, 4: -0.02})
    dense = moment_matrix(2, t, Q)
    for i in range(4):
        for j in range(4):
            if (i + j) % 2 == 0:
                assert abs(dense[i, j]) < 1e-9


def _inline_rule_levels(degree, t, q):
    """Oracle: both refinement levels of (mu_ij), 0 <= i, j <= degree, with
    the panel rule built inline for the one table."""
    levels = []
    radius = q.domain_radius
    panel_x, panel_w = np.polynomial.legendre.leggauss(_PANEL_NODES)
    for nodes in (q.nodes_per_axis, 2 * q.nodes_per_axis):
        nodes_x, wts = np.polynomial.legendre.leggauss(nodes)
        x = radius * nodes_x
        wx = radius * wts
        edges = np.append(x, radius)  # panel b is [x_b, x_{b+1}]
        half = 0.5 * np.diff(edges)
        center = 0.5 * (edges[:-1] + edges[1:])
        y = center[:, None] + half[:, None] * panel_x[None, :]
        wy = half[:, None] * panel_w[None, :]
        ux = wx * _weight_array(x, t)
        uy = wy * _weight_array(y, t)
        xp, ycur = [np.ones_like(x)], np.array(uy)
        ty = [np.cumsum(uy.sum(axis=1)[::-1])[::-1]]
        for _ in range(degree):
            xp.append(xp[-1] * x)
            ycur = ycur * y
            ty.append(np.cumsum(ycur.sum(axis=1)[::-1])[::-1])
        g = np.einsum("ia,ja->ij", np.array([p * ux for p in xp]), np.array(ty))
        levels.append(g - g.T)
    return levels


@pytest.mark.parametrize("nodes", [8, 40, 160, 200])
def test_shared_rule_gives_the_inline_rule_bit_for_bit(nodes):
    q = QuadratureConfig(nodes_per_axis=nodes)
    for t in (ZERO, CouplingVector({2: -0.05}),
              CouplingVector({1: 0.1, 2: -0.05, 4: -0.01})):
        coarse, fine = _inline_rule_levels(5, t, q)
        try:
            assert np.array_equal(moment_matrix(3, t, q), fine)
        except QuadratureError as exc:  # unconverged: both levels are carried
            assert np.array_equal(exc.coarse, coarse) and np.array_equal(exc.fine, fine)


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
@pytest.mark.parametrize("nodes", [160, 200])
def test_a_memoized_table_has_the_bits_of_a_fresh_one(nodes, order):
    # forming one big table and slicing it for smaller degrees changes bits
    # here: a BLAS product of another shape need not round the same way
    degrees = {"ascending": range(8), "descending": range(7, -1, -1),
               "shuffled": [3, 7, 0, 5, 1, 6, 2, 4]}[order]
    q = QuadratureConfig(nodes_per_axis=nodes)
    for t in (ZERO, CouplingVector({1: 0.1, 2: -0.05, 4: -0.01})):
        _quadrature_for.cache_clear()
        memo = _quadrature_for(t.key(), q.key())
        for d in degrees:
            table = memo.mu_table(d)
            assert table.shape == (d + 1, d + 1)
            assert np.array_equal(table, _MomentQuadrature(t, q).mu_table(d))
            assert np.array_equal(table, _inline_rule_levels(d, t, q)[1])
        for d in degrees:
            assert memo.mu_table(d) is memo.mu_table(d)


@pytest.mark.parametrize("t", [ZERO, CouplingVector({1: 0.1, 2: -0.05, 4: -0.01})],
                         ids=["zero", "t1_t2_t4"])
def test_every_table_is_the_leading_block_of_a_bigger_one(t):
    # each entry is summed in one order whatever the table's degree
    memo = _MomentQuadrature(t, Q)
    big = memo.mu_table(27)
    for d in range(28):
        assert np.array_equal(memo.mu_table(d), big[: d + 1, : d + 1])
        assert moment_mu(0, d, t, Q) == big[0, d]


def test_a_flow_law_sweep_forms_each_table_once(monkeypatch):
    formed = collections.Counter()  # (level table, degree) -> g_table calls
    g_table = _TriangleTable.g_table
    monkeypatch.setattr(_TriangleTable, "g_table",
                        lambda self, degree: formed.update([(self, degree)])
                        or g_table(self, degree))
    _quadrature_for.cache_clear()
    t = CouplingVector({2: -0.05})

    def sweep():
        for i in range(4):
            for j in range(4):
                for k in (1, 2):
                    moment_flow_residual(i, j, k, t, 1e-3, Q)

    sweep()
    # 9 vectors (t and its four shifts per k), two levels each
    assert len({table for table, _ in formed}) == 18
    assert set(formed.values()) == {1}
    before = formed.copy()
    sweep()
    assert formed == before


def test_a_cold_table_weighs_once_per_level_and_a_sweep_shifts_once_per_stencil(monkeypatch):
    weighed = []
    weight_array = _weight_array
    monkeypatch.setattr("pfaffchain.ensemble._weight_array",
                        lambda x, t: weighed.append(x.shape) or weight_array(x, t))
    # one pass per level over its outer nodes (row 0) and panel points together
    _MomentQuadrature(CouplingVector({2: -0.037}), Q)
    assert weighed == [(1 + _PANEL_NODES, 200), (1 + _PANEL_NODES, 400)]

    shifted = collections.Counter()  # (t, k, dt) -> shifted vectors built
    shift = CouplingVector.shifted
    monkeypatch.setattr(CouplingVector, "shifted",
                        lambda self, k, dt: shifted.update([(self.key(), k, dt)])
                        or shift(self, k, dt))
    _stencil_for.cache_clear()
    t = CouplingVector({2: -0.05})

    def sweep(h):
        for i in range(4):
            for j in range(4):
                for k in (1, 2):
                    moment_flow_residual(i, j, k, t, h, Q)

    sweep(1e-3)
    sweep(1e-3)
    assert sorted(shifted) == sorted((t.key(), k, dt) for k in (1, 2)
                                     for dt in (2e-3, 1e-3, -1e-3, -2e-3))
    assert set(shifted.values()) == {1}
    sweep(2e-3)  # a new step is a new stencil, built once
    sweep(2e-3)
    assert sum(shifted.values()) == 16


def test_a_bad_weight_is_named_at_an_outer_node_before_any_panel_point():
    t = CouplingVector({1: 800.0})  # exponent 800 x - x^2/2 grows up to x = 800
    with pytest.raises(OverflowError, match="^weight overflow at x=2.0$"):
        _weight_array(np.array([[-1.0, 2.0], [3.0, 0.5]]), t)
    with pytest.raises(OverflowError, match="^weight overflow at x=3.0$"):
        _weight_array(np.array([[-1.0, -2.0], [3.0, 0.5]]), t)
    # the panel points near R outgrow the last outer node, which is still named
    x = _triangle_rule(Q.nodes_per_axis, Q.domain_radius)[0]
    with pytest.raises(OverflowError, match=f"^moment matrix n=1: weight overflow at "
                                            f"x={re.escape(str(x[-1]))}$"):
        moment_matrix(1, t, Q)


def test_the_panel_sums_keep_the_bits_of_numpys_sum():
    rng = np.random.default_rng(7)
    for nodes in (1, 7, 8, 9, 200, 400, 3001):
        f = rng.standard_normal((nodes, _PANEL_NODES)) * 10.0 ** rng.integers(
            -30, 30, (nodes, _PANEL_NODES))
        f.flat[rng.integers(0, f.size, 3)] = [-0.0, np.inf, -np.inf]
        out = np.empty(nodes)
        with np.errstate(invalid="ignore"):
            _inner_integrals(f, out)
            expected = np.cumsum(f.sum(axis=1)[::-1])[::-1]
        assert np.array_equal(out, expected, equal_nan=True)
        assert np.array_equal(np.signbit(out), np.signbit(expected))


def test_a_memoized_table_cannot_be_written():
    t = CouplingVector({2: -0.043})
    m = moment_matrix(2, t, Q)
    assert not m.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        m[0, 1] = 0.0
    assert moment_matrix(2, t, Q)[0, 1] != 0.0
    assert moment_mu(0, 1, t, Q) == m[0, 1]


def test_a_cold_table_reuses_the_rule_of_its_nodes_and_radius(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda deg: calls.append(deg) or leggauss(deg))
    _quadrature_for.cache_clear()
    _triangle_rule.cache_clear()
    q = QuadratureConfig(nodes_per_axis=180)
    moment_matrix(2, CouplingVector({2: -0.031}), q)
    assert calls == [180, 360]
    misses = _quadrature_for.cache_info().misses
    moment_matrix(2, CouplingVector({1: 0.017, 2: -0.031}), q)
    assert _quadrature_for.cache_info().misses == misses + 1  # a cold table
    assert calls == [180, 360]


def test_the_inner_rule_is_one_panel_per_outer_node():
    x, wx, y, wy = _triangle_rule(40, 10.0)
    assert x.shape == wx.shape == (40,)
    assert y.shape == wy.shape == (40, _PANEL_NODES)
    edges = np.append(x, 10.0)  # panel b lies in [x_b, x_{b+1}]
    assert np.all((edges[:-1, None] < y) & (y < edges[1:, None]))
    assert wy.sum() == pytest.approx(10.0 - x[0], rel=1e-14)


def test_the_shared_rule_is_read_only():
    rule = _triangle_rule(40, 10.0)
    assert not any(a.flags.writeable for a in rule)
    with pytest.raises(ValueError, match="read-only"):
        rule[2][0, 0] = 0.0


def test_even_only_and_general_twins_share_one_table():
    entries = {2: -0.07, 4: -0.015}
    general = moment_matrix(2, CouplingVector(entries), Q)
    before = _quadrature_for.cache_info()
    even = moment_matrix(2, CouplingVector(entries), Q)
    after = _quadrature_for.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert np.array_equal(even, general)


def test_a_table_that_is_not_finite_is_refused():
    # at 200 nodes on [-10, 10] the zero-coupling tables are finite up to
    # n = 88; from n = 92 products x^i y^j overflow, and NaN compares False
    # with any tolerance, so finiteness is checked on its own
    for _ in range(2):  # a failure is not kept
        with pytest.raises(QuadratureError,
                           match="^moment matrix n=100: the degree-199 moment table "
                                 "is not finite") as err:
            moment_matrix(100, ZERO, Q)
    assert not np.isfinite(err.value.fine).all()
    assert np.isfinite(moment_matrix(88, ZERO, Q)).all()


def test_a_table_that_resolves_no_weight_is_refused():
    # on [-1e6, 1e6] no node of either level lands where the Gaussian lives,
    # so both tables are all zero and agree; mu_01 > 0 for every weight
    q = QuadratureConfig(domain_radius=1e6)
    for _ in range(2):  # a failure is not kept
        with pytest.raises(QuadratureError, match=r"^moment matrix n=2: the rule at 200 "
                           r"nodes on radius 1e\+06 resolves no weight: mu_01 = 0 is "
                           r"not positive$") as err:
            moment_matrix(2, ZERO, q)
    assert not err.value.fine.any()
    assert moment_matrix(1, ZERO, Q)[0, 1] == pytest.approx(2 * math.sqrt(math.pi), rel=1e-12)


def test_a_degree_whose_node_powers_overflow_is_refused_before_any_power():
    quad = _quadrature_for(ZERO.key(), Q.key())

    def formed():  # the power rows of each level, and the buffers that hold them
        return [(level.rows, level._u.shape, level._ty.shape)
                for level in (quad.coarse, quad.fine)]

    before = formed()
    # 10^d overflows float64 for d > 700 / ln 10 = 304
    with pytest.raises(OverflowError, match="^moment matrix n=153: degree 305: node powers "
                                            "up to 10"):
        moment_matrix(153, ZERO, Q)
    with pytest.raises(OverflowError, match=r"^moment \(i, j\) = \(0, 305\): degree 305: "):
        moment_mu(0, 305, ZERO, Q)
    assert formed() == before
    assert np.isfinite(moment_matrix(2, ZERO, QuadratureConfig(domain_radius=0.5))).all()


def test_quadrature_nonconvergence_error_carries_estimates():
    # 8 nodes on [-10, 10] cannot resolve the Gaussian: refinement must move
    bad = QuadratureConfig(nodes_per_axis=8)
    coarse, fine = _inline_rule_levels(3, ZERO, bad)
    for _ in range(2):  # a failure is not kept: each request raises again
        with pytest.raises(QuadratureError, match="^moment matrix n=2: ") as err:
            moment_matrix(2, ZERO, bad)
        assert np.array_equal(err.value.coarse, coarse)
        assert np.array_equal(err.value.fine, fine)


@pytest.mark.parametrize("i, j", [(1, 3), (3, 1)])
def test_a_moment_that_does_not_converge_names_its_indices(i, j):
    bad = QuadratureConfig(nodes_per_axis=8)
    coarse, fine = _inline_rule_levels(3, ZERO, bad)
    for _ in range(2):
        with pytest.raises(QuadratureError,
                           match=rf"^moment \(i, j\) = \({i}, {j}\): quadrature not converged"
                           ) as err:
            moment_mu(i, j, ZERO, bad)
        assert np.array_equal(err.value.coarse, coarse)
        assert np.array_equal(err.value.fine, fine)


def test_moment_csv_roundtrip(tmp_path):
    m = moment_matrix(2, ZERO, Q)
    path = tmp_path / "m.csv"
    write_moment_csv(m, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "i,j,mu"
    assert len(rows) == 1 + 4 * 3 // 2
    i, j, mu = rows[1].split(",")
    assert (int(i), int(j)) == (0, 1)
    assert float(mu) == m[0, 1]


# ---------------------------------------------------------------------------
# the pivoted pfaffian oracle
# ---------------------------------------------------------------------------

def test_pfaffian_2x2_definition():
    assert pfaffian(np.array([[0.0, 3.0], [-3.0, 0.0]])) == 3.0


def test_pfaffian_4x4_closed_form():
    a = np.zeros((4, 4))
    a[0, 1], a[0, 2], a[0, 3], a[1, 2], a[1, 3], a[2, 3] = 1, 2, 3, 4, 5, 6
    a -= a.T
    assert pfaffian(a) == pytest.approx(1 * 6 - 2 * 5 + 3 * 4)


def test_pfaffian_empty_matrix_is_one():
    assert pfaffian(np.zeros((0, 0))) == 1.0


def test_pfaffian_rejects_odd_dimension():
    with pytest.raises(ValueError, match="even"):
        pfaffian(np.zeros((3, 3)))


def test_pfaffian_rejects_non_antisymmetric():
    with pytest.raises(ValueError, match="antisymmetric"):
        pfaffian(np.eye(4))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_pfaffian_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        pfaffian([[0.0, bad], [-bad, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        pfaffian([[0.0, bad], [bad, 0.0]])


def test_a_pfaffian_that_leaves_float64_is_refused():
    big = np.array([[0.0, 1e200], [-1e200, 0.0]])
    with pytest.raises(OverflowError, match="^the Pfaffian of the 4x4 matrix overflows float64$"):
        pfaffian(np.kron(np.eye(2), big))
    assert pfaffian(np.kron(np.diag([1.0, 1e-100]), big)) == 1e300


def test_pfaffian_squared_is_determinant():
    rng = np.random.default_rng(7)
    for dim in (2, 4, 6, 8, 10, 12):
        for _ in range(10):
            a = rng.standard_normal((dim, dim))
            a -= a.T
            pf = pfaffian(a)
            det = np.linalg.det(a)
            assert pf * pf == pytest.approx(det, rel=1e-10, abs=1e-10)


def _pfaffian_cofactor(a):
    """Oracle: recursive expansion along the first row."""
    n = a.shape[0]
    if n == 0:
        return 1.0
    total = 0.0
    for j in range(1, n):
        keep = [r for r in range(1, n) if r != j]
        sign = 1.0 if j % 2 else -1.0
        total += sign * float(a[0, j]) * _pfaffian_cofactor(a[np.ix_(keep, keep)])
    return total


def test_pfaffian_routes_agree():
    rng = np.random.default_rng(8)
    for dim in (2, 4, 6, 8):
        a = rng.standard_normal((dim, dim))
        a -= a.T
        assert pfaffian(a) == pytest.approx(_pfaffian_cofactor(a), rel=1e-12)


def test_pfaffian_schur_oracle():
    from scipy.linalg import schur

    rng = np.random.default_rng(9)
    for dim in (6, 10):
        a = rng.standard_normal((dim, dim))
        a -= a.T
        blocks, orth = schur(a)
        reference = float(np.prod(np.diag(blocks, 1)[::2]) * np.linalg.det(orth))
        assert pfaffian(a) == pytest.approx(reference, rel=1e-9)


def test_pfaffian_row_scaling():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((6, 6))
    a -= a.T
    c, r = 1.7, 2
    b = a.copy()
    b[r, :] *= c
    b[:, r] *= c
    assert pfaffian(b) == pytest.approx(c * pfaffian(a), rel=1e-12)


def test_pfaffian_zero_column():
    a = np.zeros((4, 4))
    a[2, 3] = 1.0
    a -= a.T
    assert pfaffian(a) == 0.0


# ---------------------------------------------------------------------------
# every tau off one elimination without pivoting
# ---------------------------------------------------------------------------

def _running_product(pivots):
    """[1, p_1, p_1 p_2, ...], multiplied in the order the tau reader does."""
    return list(itertools.accumulate(pivots, operator.mul, initial=1.0))


def test_leading_pfaffians_of_a_block_triangular_congruence_are_exact(monkeypatch):
    # m = L J L^T with L lower block-triangular, diagonal blocks c_r I_2 and
    # J = diag([[0, 1], [-1, 0]], ...): pf(m_2r) = det(L_2r) = (c_1 ... c_r)^2.
    # Powers of two on the diagonal and quarters below it keep every step of
    # the elimination exact in float64
    rng = np.random.default_rng(11)
    for blocks in (1, 2, 5, 8):
        c = 2.0 ** rng.integers(-2, 3, blocks)
        below = np.kron(np.tri(blocks, k=-1), np.ones((2, 2)))
        lower = np.kron(np.diag(c), np.eye(2)) + below * rng.integers(-4, 5, below.shape) / 4
        j = np.kron(np.eye(blocks), [[0.0, 1.0], [-1.0, 0.0]])
        m = lower @ j @ lower.T
        assert _skew_elimination(m)[0] == list(c * c)
        assert np.array_equal(skew_factor(m), lower)  # the factor is read off the same array
        monkeypatch.setattr("pfaffchain.ensemble.moment_matrix",
                            lambda n, t, q: m[:2 * n, :2 * n])
        assert [tau_from_moments(n, ZERO, Q) for n in range(blocks + 1)] == \
            [1.0] + list(np.cumprod(c * c))


_TAU_COUPLINGS = [{}, {2: -0.3}, {1: 0.1, 3: 0.05, 4: -0.02}, {2: 0.1, 4: -0.01}]


@pytest.mark.parametrize("nodes", [160, 200])
@pytest.mark.parametrize("t", _TAU_COUPLINGS, ids=["zero", "t2", "odd", "t4_negative"])
def test_every_tau_reads_the_same_bits_off_any_larger_table(t, nodes):
    # the first r steps touch only the leading 2r x 2r block, and a table's
    # entries do not depend on its degree, so tau_2n from m_2N is tau_2n from m_2n
    t, q = CouplingVector(t), QuadratureConfig(nodes_per_axis=nodes)
    table = tau_table(10, t, q)
    pivots = _skew_elimination(moment_matrix(11, t, q))[0]
    largest = _running_product(pivots)
    for n in range(1, 12):
        assert _skew_elimination(moment_matrix(n, t, q))[0] == pivots[:n]
        assert tau_from_moments(n, t, q) == largest[n]
    for row in table:
        assert row["tau"] == largest[row["n"]]
        assert tau_report(row["n"], t, q) == row


@pytest.mark.parametrize("nodes", [160, 200])
@pytest.mark.parametrize("t", _TAU_COUPLINGS, ids=["zero", "t2", "odd", "t4_negative"])
def test_the_elimination_agrees_with_the_pivoted_pfaffian(t, nodes):
    # the two eliminations round differently on tables whose conditioning
    # grows about tenfold per n: budget 10^(n - 16) relative for n <= 10,
    # measured at most 0.41 of it on these vectors
    t, q = CouplingVector(t), QuadratureConfig(nodes_per_axis=nodes)
    taus = _running_product(_skew_elimination(moment_matrix(10, t, q))[0])
    for n in range(1, 11):
        pivoted = pfaffian(moment_matrix(n, t, q))
        assert abs(taus[n] - pivoted) <= 10.0 ** (n - 16) * pivoted


@pytest.mark.parametrize("pivot, error, message", [
    (-2.0, ValueError, r"^tau_4 cannot be formed: pivot 2 of the elimination is -2, "),
    (0.0, ValueError, r"^tau_4 cannot be formed: pivot 2 of the elimination is 0, "),
    (math.nan, ValueError, r"^tau_4 cannot be formed: pivot 2 of the elimination is nan, "),
    (1e300, OverflowError, r"^tau_4 overflows float64: tau_4 = 1e\+10 \* 1e\+300$"),
], ids=["negative", "zero", "nan", "overflow"])
def test_a_pivot_that_is_not_positive_is_refused(monkeypatch, pivot, error, message):
    # every tau of a positive weight is positive: a pivot that is not means
    # the table lost its precision, and the tau is refused, not reported
    m = np.zeros((4, 4))
    m[0, 1], m[2, 3] = 1e10, pivot
    m -= m.T
    (first, stop), _ = _skew_elimination(m)
    assert first == 1e10
    assert stop == pivot or math.isnan(pivot) and math.isnan(stop)
    monkeypatch.setattr("pfaffchain.ensemble.moment_matrix", lambda n, t, q: m[:2 * n, :2 * n])
    assert tau_from_moments(1, ZERO, Q) == 1e10
    with pytest.raises(error, match=message):
        tau_from_moments(2, ZERO, Q)
    if error is OverflowError:  # the ratio check reads p_2 / p_1 and forms no tau_4
        assert tau_report(1, ZERO, Q)["selberg_ratio_check"] == pivot / 1e10 / selberg_ratio(1)
    else:
        with pytest.raises(error, match="^n=1: " + message[1:]):
            tau_report(1, ZERO, Q)


@pytest.mark.parametrize("nodes, stop, pivot", [(200, 21, "-3.01e+39"), (160, 19, "-1.74e+32")],
                         ids=["200_nodes", "160_nodes"])
def test_the_zero_coupling_reports_end_at_the_first_pivot_that_is_not_positive(nodes, stop,
                                                                                 pivot):
    # no tau is squared, so the reports run past tau_34 = 1.15e179, whose
    # square leaves float64, up to n = stop - 2, whose ratio check reads
    # pivot stop - 1; pivot stop is where the table has lost its precision
    q = QuadratureConfig(nodes_per_axis=nodes)
    rows = tau_table(stop - 2, ZERO, q)
    assert [row["n"] for row in rows] == list(range(1, stop - 1))
    assert rows[16]["tau"] > 2.0 ** 512  # tau_34^2 > 2^1024
    refusal = f"n={stop - 1}: tau_{2 * stop} cannot be formed: pivot {stop} of the elimination " \
              f"is {pivot}, "
    with pytest.raises(ValueError, match="^" + re.escape(refusal)):
        tau_report(stop - 1, ZERO, q)


# ---------------------------------------------------------------------------
# closed forms at zero coupling and tau ratios
# ---------------------------------------------------------------------------

def selberg_tau_zero(n: int) -> float:
    """Closed form at vanishing couplings: pi^(n/2) * prod 2^(-2k) (2k)!.

    Selberg normalisation: the quadrature ``tau_from_moments(n, 0)`` is
    2^n times this value; their ratios around 2n agree.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    value = math.pi ** (n / 2.0)
    for k in range(n):
        value *= 0.25 ** k * math.factorial(2 * k)
        if math.isinf(value):
            raise OverflowError(f"selberg product overflows float64 at n={n}")
    return value


def test_selberg_values():
    assert selberg_tau_zero(0) == 1.0
    assert selberg_tau_zero(1) == pytest.approx(math.sqrt(math.pi))
    assert selberg_tau_zero(2) == pytest.approx(math.pi / 2)
    assert selberg_tau_zero(3) == pytest.approx(0.75 * math.pi ** 1.5)


def test_selberg_ratio_law():
    for n in range(1, 11):
        lhs = selberg_tau_zero(n + 1) * selberg_tau_zero(n - 1) / selberg_tau_zero(n) ** 2
        assert lhs == pytest.approx(selberg_ratio(n), rel=1e-12)


@pytest.mark.parametrize("t2", [-0.3, -0.05])
def test_tau_along_t2_is_a_rescaled_gaussian(t2):
    # t2 only narrows the Gaussian: x -> x / sqrt(1 - 2 t2) takes the weight
    # to the t = 0 one and scales mu_ij by (1 - 2 t2)^-(i + j + 2)/2, so
    # tau_2n(t2) = (1 - 2 t2)^(-n(2n + 1)/2) tau_2n(0); measured <= 1.2e-11
    for n in range(1, 7):
        want = (1 - 2 * t2) ** (-n * (2 * n + 1) / 2) * tau_from_moments(n, ZERO, Q)
        assert tau_from_moments(n, CouplingVector({2: t2}), Q) == pytest.approx(want, rel=1e-9)


def test_quadrature_tau_is_2n_times_selberg():
    for n in range(1, 6):
        ratio = tau_from_moments(n, ZERO, Q) / selberg_tau_zero(n)
        assert ratio == pytest.approx(2.0 ** n, rel=1e-10)


def test_selberg_overflow():
    with pytest.raises(OverflowError):
        selberg_tau_zero(200)


def _three_tau_ratio(n, t, q):
    """The oracle: tau_{2n+2} tau_{2n-2} / tau_{2n}^2 over the closed form,
    which the reports read as the pivot ratio p_{n+1} / p_n instead."""
    taus = [tau_from_moments(m, t, q) for m in (n - 1, n, n + 1)]
    return taus[2] * taus[0] / taus[1] ** 2 / selberg_ratio(n)


@pytest.mark.parametrize("nodes", [160, 200])
@pytest.mark.parametrize("t", _TAU_COUPLINGS, ids=["zero", "t2", "odd", "t4_negative"])
def test_the_ratio_check_is_the_three_tau_ratio(t, nodes):
    # the two forms round differently: measured at most 3.3e-16 relative
    t, q = CouplingVector(t), QuadratureConfig(nodes_per_axis=nodes)
    for row in tau_table(12, t, q):
        want = _three_tau_ratio(row["n"], t, q)
        assert abs(row["selberg_ratio_check"] - want) <= 1e-15 * want, row["n"]


def test_tau_zero_has_no_ratio_check():
    assert tau_report(0, ZERO, Q) == {"n": 0, "t": {}, "tau": 1.0, "selberg_ratio_check": None}


@pytest.mark.parametrize("pivots, message", [
    ((1e-300, 1e300), r"^n=1: the pivot ratio p_2 / p_1 = 1e\+300 / 1e-300 is not finite "),
    ((1.0, math.inf), r"^n=1: the pivot ratio p_2 / p_1 = inf / 1 is not finite "),
], ids=["ratio_overflows", "pivot_is_inf"])
def test_a_ratio_check_that_is_not_finite_is_refused(monkeypatch, pivots, message):
    # tau_2 = p_1 and tau_4 = p_1 p_2 may be finite while p_2 / p_1 is not;
    # an infinite pivot ends the elimination, and tau_4 overflows
    m = np.zeros((6, 6))
    m[0, 1], m[2, 3], m[4, 5] = *pivots, 1.0
    m -= m.T
    monkeypatch.setattr("pfaffchain.ensemble.moment_matrix", lambda n, t, q: m[:2 * n, :2 * n])
    assert tau_from_moments(1, ZERO, Q) == pivots[0]
    with pytest.raises(ValueError, match=message + "in float64, so there is no ratio check$"):
        tau_report(1, ZERO, Q)
    if math.isinf(pivots[1]):  # the elimination stops at p_2, and tau_6 needs it
        with pytest.raises(OverflowError, match=r"^tau_6 overflows float64: tau_4 = 1 \* inf$"):
            tau_from_moments(3, ZERO, Q)


def test_tau_zero_convention():
    assert tau_from_moments(0, ZERO, Q) == 1.0


def test_tau_two_is_mu01():
    assert tau_from_moments(1, ZERO, Q) == pytest.approx(
        moment_mu(0, 1, ZERO, Q), rel=1e-14)


def test_tau_ratio_n1():
    ratio = tau_from_moments(2, ZERO, Q) * tau_from_moments(0, ZERO, Q) \
        / tau_from_moments(1, ZERO, Q) ** 2
    assert ratio == pytest.approx(0.5, rel=1e-8)


def test_tau_report_fields():
    rep = tau_report(1, CouplingVector({2: -0.05}), Q)
    assert set(rep) == {"n", "t", "tau", "selberg_ratio_check"}
    assert rep["t"] == {"t2": -0.05}
    assert math.isfinite(rep["tau"])


# ---------------------------------------------------------------------------
# moment-flow law
# ---------------------------------------------------------------------------

def test_moment_flow_example():
    t = CouplingVector({2: -0.05})
    assert moment_flow_residual(0, 1, 2, t, 1e-3, Q) <= 1e-5


def test_moment_flow_diagonal_trivial():
    t = CouplingVector({2: -0.05})
    assert moment_flow_residual(2, 2, 2, t, 1e-3, Q) < 1e-10


def test_moment_flow_even_parity_trivial():
    t = CouplingVector({2: -0.05})
    # k even and i + j even: both sides vanish by parity
    assert moment_flow_residual(0, 2, 2, t, 1e-3, Q) < 1e-7

