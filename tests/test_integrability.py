import collections
import functools
import gc
import itertools
import json
import math
import random
import weakref
from fractions import Fraction

import pytest

from pfaffchain import integrability, lax
from pfaffchain.integrability import (
    ChainMatrixSpec,
    Poly,
    RationalPoint,
    TensorPoint,
    WindowError,
    _expected_nijenhuis,
    _scan_points,
    appendix_nijenhuis_table,
    haantjes_scan,
    load_spec_json,
    nijenhuis_oracle_check,
    paper_chain_spec,
    random_rational_point,
    spec_with_overrides,
)

from oracles import chain_density

F = Fraction
SPEC = paper_chain_spec()


def _point(seed=0, window=10):
    return random_rational_point(random.Random(seed), window)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_poly_algebra():
    u = Poly.u
    p = (u(0) + 2 * u(1)) * u(0)  # u0^2 + 2 u0 u1
    assert p.eval(lambda k: F(k + 2)) == F(4 + 2 * 2 * 3)
    assert p.diff(0) == 2 * u(0) + 2 * u(1)
    assert p.diff(1) == 2 * u(0)
    assert p.diff(5) == Poly()
    assert p.variables() == {0, 1}
    # scalars coerce to constant polynomials on either side of + and -
    assert u(0) + 1 == 1 + u(0) == Poly({(0,): 1, (): 1})
    assert 1 - u(0) == -(u(0) - 1) == Poly({(0,): -1, (): 1})
    assert F(1, 2) - Poly.const(F(1, 2)) == Poly() == u(0) + 0 - u(0)
    assert sum([u(0), u(1)]) == u(0) + u(1)
    # any comparable values are variables: the lattice and continuum factors
    q = Poly({(("w", 0, 1), ("w", 1, 0)): 3})
    assert q.diff(("w", 0, 1)) == 3 * Poly({(("w", 1, 0),): 1})
    assert q.variables() == {("w", 0, 1), ("w", 1, 0)}


def test_poly_table_roundtrip():
    p = 3 * Poly.u(-2) * Poly.u(1) - Poly.const(F(1, 2))
    assert Poly.from_table(p.to_table()) == p


# ---------------------------------------------------------------------------
# the flagship rows and their exact partials
# ---------------------------------------------------------------------------

def test_row_zero_partials():
    ev = TensorPoint(SPEC, _point())
    assert ev._jacobian(0).get((0, 0), 0) == ev.point.at(1)   # d(u0 u1)/du0 = u1
    assert ev._jacobian(0).get((0, 1), 0) == ev.point.at(0)   # d(u0 u1)/du1 = u0


def _row_add(row, j, poly):
    row[j] = row.get(j, Poly()) + poly


def _printed_row(k):
    """The printed chain-matrix rows, written out by hand."""
    u = Poly.u
    if k == 0:
        return {-1: u(0), 0: u(0) * u(1), 1: u(0) * u(0)}
    if k == 1:
        return {0: 2 * u(2) - u(1) * u(1), 1: -(u(0) * u(1)), 2: u(0)}
    row = {}
    if k < 0:
        _row_add(row, 0, (k + 2) * u(k + 1) - k * u(k - 1) + u(1) * u(k))
        _row_add(row, 1, u(0) * u(k))
    else:
        _row_add(row, 0, (k + 1) * u(k + 1) - (k - 1) * u(k - 1) - u(1) * u(k))
        _row_add(row, 1, -(u(0) * u(k)))
    _row_add(row, k - 1, u(0))
    _row_add(row, k + 1, u(0))
    return {j: p for j, p in row.items() if p}


def test_derived_rows_equal_printed_rows():
    for k in range(-30, 31):
        assert SPEC.rows(k) == _printed_row(k), k


def test_rows_are_fresh_dicts():
    row = SPEC.rows(3)
    row.clear()
    assert SPEC.rows(3) == _printed_row(3)


def test_structural_column_partial_is_one():
    ev = TensorPoint(SPEC, _point())
    for k in (-4, -3, 3, 5):
        assert ev._jacobian(k).get((k + 1, 0), 0) == 1
        assert all(ev._jacobian(k).get((k + 1, p), 0) == 0 for p in range(-6, 7) if p != 0)


def test_partials_match_central_differences_under_float_demotion():
    rng = random.Random(3)
    point = random_rational_point(rng, 8)
    ev = TensorPoint(SPEC, point)
    h = 1e-6
    for k in (-2, -1, 0, 1, 2, 3):
        for j in ev.row_polys(k):
            for p in range(-4, 5):
                vals = {q: float(point.at(q)) for q in range(-8, 9)}
                up = dict(vals); up[p] = vals[p] + h
                dn = dict(vals); dn[p] = vals[p] - h
                poly = ev.row_polys(k).get(j)
                fd = (poly.eval(lambda q: up[q]) - poly.eval(lambda q: dn[q])) / (2 * h)
                assert abs(fd - float(ev._jacobian(k).get((j, p), 0))) < 1e-9


# ---------------------------------------------------------------------------
# Nijenhuis tensor
# ---------------------------------------------------------------------------

def test_nijenhuis_antisymmetry():
    rng = random.Random(4)
    point = random_rational_point(rng, 10)
    ev = TensorPoint(SPEC, point)
    for _ in range(30):
        i, j, k = (rng.randint(-5, 5) for _ in range(3))
        assert ev.nijenhuis_row(i).get((j, k), 0) + ev.nijenhuis_row(i).get((k, j), 0) == 0


def test_nijenhuis_row_zero_vanishes():
    ev = TensorPoint(SPEC, _point(5))
    for j in range(-7, 8):
        for k in range(-7, 8):
            assert ev.nijenhuis_row(0).get((j, k), 0) == 0


def test_nijenhuis_example_value():
    # N^1_{0,1} = -2 u^0 (2 + u^2): at u^0 = 1, u^2 = 0 this is -4
    values = {p: F(0) for p in range(-10, 11)}
    values[0] = F(1)
    point = RationalPoint(values=values, window=10)
    assert TensorPoint(SPEC, point).nijenhuis_row(1).get((0, 1), 0) == -4


def test_nijenhuis_flagged_entry_matches_print():
    # the one entry the printed table could not be cross-checked against:
    # N^-1_{0,-1} = -u^-2 - 6 u^0 - u^-1 u^1; the engine confirms it
    point = _point(6)
    u = point.at
    n = TensorPoint(SPEC, point).nijenhuis_row(-1).get((0, -1), 0)
    assert n == -u(-2) - 6 * u(0) - u(-1) * u(1)


def test_nijenhuis_generic_family_entries():
    point = _point(7, window=12)
    u = point.at
    ev = TensorPoint(SPEC, point)
    for i in (3, -5, 6):
        assert ev.nijenhuis_row(i).get((0, i), 0) == -4 * u(0)
        assert ev.nijenhuis_row(i).get((0, i + 1), 0) == u(0) * u(1)
        assert ev.nijenhuis_row(i).get((1, i - 1), 0) == u(0) * u(0)
        assert ev.nijenhuis_row(i).get((-1, i + 1), 0) == u(0)
        sgn = 1 if i > 0 else -1
        assert ev.nijenhuis_row(i).get((-1, 1), 0) == -sgn * u(0) * u(i)


def test_nijenhuis_absent_entry_is_zero():
    ev = TensorPoint(SPEC, _point(8))
    assert ev.nijenhuis_row(2).get((2, 3), 0) == 0


def test_oracle_check_full_window():
    report = nijenhuis_oracle_check(1, seed=9)
    assert report["nijenhuis_mismatches"] == []
    assert report["entries_checked"] > 1500
    assert (report["points"], report["seed"]) == (1, 9)


@pytest.mark.parametrize("points", [0, -2])
def test_oracle_check_refuses_a_scan_of_no_points(points):
    # a report with entries_checked 0 and no mismatches would read as a pass
    with pytest.raises(ValueError, match=f"points={points} checks nothing"):
        nijenhuis_oracle_check(points)


def test_window_error_names_the_component():
    small = RationalPoint(values={k: F(1) for k in range(-3, 4)}, window=3)
    with pytest.raises(WindowError, match="u\\^5 outside the supplied window"):
        TensorPoint(SPEC, small).nijenhuis_row(5).get((0, 1), 0)
    with pytest.raises(WindowError):
        TensorPoint(SPEC, small).haantjes_row(3).get((0, 1), 0)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("reach", [0, 3, 6])
def test_scan_points_have_the_least_window_that_evaluates_every_entry(order, reach):
    # the paper rows reach one column and one component further per order,
    # so the window rule is tight: one component less fails at row +-reach
    rows = {1: "nijenhuis_row", 2: "haantjes_row"}[order]
    scan, = _scan_points(SPEC, 1, 14, reach, order)
    ev = scan.tensors
    assert ev.point.window == reach + 2 * order
    smaller = TensorPoint(SPEC, _point(14, ev.point.window - 1))
    for i in range(-reach, reach + 1):
        getattr(ev, rows)(i)
    with pytest.raises(WindowError):
        for i in range(-reach, reach + 1):
            getattr(smaller, rows)(i)


# ---------------------------------------------------------------------------
# Haantjes tensor
# ---------------------------------------------------------------------------

def test_haantjes_vanishes_on_small_window():
    report = haantjes_scan(window=3, points=3, seed=1)
    assert report["haantjes_nonzero"] == []


def test_haantjes_inherited_antisymmetry():
    # generic sanity on a spec whose H does not vanish
    mutated = spec_with_overrides(SPEC, {"0,0": [["1", [0, 0]]]})
    point = _point(10)
    ev = TensorPoint(mutated, point)
    for (i, j, k) in [(1, 0, 2), (-1, 1, 2), (2, -1, 0)]:
        assert ev.haantjes_row(i).get((j, k), 0) + ev.haantjes_row(i).get((k, j), 0) == 0


def _control_spec(name, stencil, row):
    """A control chain registered as a finite JSON table, rows |k| <= 9; ``row(k)``
    gives {column j: (coefficient, monomial)}."""
    return load_spec_json({"name": name, "stencil": stencil, "rows": {
        str(k): {str(j): [[str(c), mono]] for j, (c, mono) in row(k).items()}
        for k in range(-9, 10)}})


def _constant_spec():
    return _control_spec("constant-control", 1,
                         lambda k: {k - 1: (2, []), k: (k, []), k + 1: (3, [])})


def test_diagonal_control_spec_vanishes():
    # diagonal rows a^k_k = (k+2) u^k: trivially diagonalisable
    spec = _control_spec("diagonal-control", 0, lambda k: {k: (k + 2, [k])})
    report = haantjes_scan(window=3, points=2, seed=2, spec=spec)
    assert report["haantjes_nonzero"] == []


def test_constant_control_spec_tensors_vanish():
    # constant coefficients: both tensors vanish identically
    spec = _constant_spec()
    point = _point(11)
    ev = TensorPoint(spec, point)
    for i in range(-3, 4):
        for j in range(-3, 4):
            for k in range(-3, 4):
                assert ev.nijenhuis_row(i).get((j, k), 0) == 0
    report = haantjes_scan(window=3, points=1, seed=3, spec=spec)
    assert report["haantjes_nonzero"] == []


def _asymmetric_pairs(spec: ChainMatrixSpec, h: Poly, reach: int = 5) -> int:
    """Ordered pairs (i, j), |i|, |j| <= reach, with dF_j/du^i != dF_i/du^j,
    where F_j = sum_k dh/du^k a^k_j."""
    grads = {k: h.diff(k) for k in h.variables()}
    rows = {k: spec.rows(k) for k in grads}
    F = {j: sum((g * rows[k][j] for k, g in grads.items() if j in rows[k]), Poly())
         for j in range(-reach, reach + 1)}
    return sum(F[j].diff(i) != F[i].diff(j)
               for i in range(-reach, reach + 1) for j in range(-reach, reach + 1))


@pytest.mark.parametrize("j", [1, 2, 3, 4, 6])
def test_the_densities_are_read_off_the_lax_matrix(j):
    # rho_j(n) = (L^j)_{2n-1,2n-1} + (L^j)_{2n,2n} with every site offset set
    # to 0 and the v terms dropped, its factors w^p read as u^p, is h_j; the
    # odd powers leave nothing
    rho = Poly()
    for mono, c in (lax._power(j, 0, 0) + lax._power(j, 1, 1)).terms.items():
        if all(kind == "w" for kind, _band, _site in mono):
            rho = rho + Poly({tuple(band for _kind, band, _site in mono): c})
    assert rho == (Poly() if j % 2 else chain_density(j))


@pytest.mark.parametrize("j, mutated_pairs", [(2, 2), (4, 8), (6, 12)])
def test_the_chain_conserves_its_densities(j, mutated_pairs):
    # along u_t = A(u) u_x, h_t = F_j u^j_x with F_j = sum_k dh/du^k a^k_j, a
    # total x-derivative iff F is a gradient: dF_j/du^i = dF_i/du^j, exactly,
    # as polynomials.  Corrupting a^0_1 from (u^0)^2 to u^0 breaks it
    h = chain_density(j)
    assert _asymmetric_pairs(SPEC, h) == 0
    mutated = spec_with_overrides(SPEC, {"0,1": [["1", [0]]]})
    assert _asymmetric_pairs(mutated, h) == mutated_pairs


def test_mutated_spec_fails_the_scan():
    # corrupting a^0_1 from (u^0)^2 to u^0 breaks diagonalisability
    mutated = spec_with_overrides(SPEC, {"0,1": [["1", [0]]]}, name="mutated")
    report = haantjes_scan(window=2, points=1, seed=4, spec=mutated)
    assert report["haantjes_nonzero"]


def test_spec_json_forms(tmp_path):
    override = {"base": "paper", "overrides": {"0,1": [["1", [0]]]}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(override))
    spec = load_spec_json(str(path))
    point = _point(12)
    assert TensorPoint(spec, point).row(0).get(1, 0) == point.at(0)

    table = {"name": "tiny", "stencil": 1,
             "rows": {"0": {"1": [["2", [0]]]}, "1": {"0": [["1", [1, 1]]]}}}
    spec2 = load_spec_json(table)
    ev = TensorPoint(spec2, point)
    assert ev.row(0).get(1, 0) == 2 * point.at(0)
    assert ev.row(1).get(0, 0) == point.at(1) ** 2
    assert ev.row(5).get(0, 0) == 0

    with pytest.raises(ValueError):
        load_spec_json({"nonsense": True})


def test_a_spec_file_reads_a_tiny_coefficient_exactly(tmp_path):
    # json.load took 1e-400 as the float 0.0, and the override deleted a^0_1
    path = tmp_path / "tiny.json"
    path.write_text('{"base": "paper", "overrides": {"0,1": [[1e-400, [0]]]}}')
    assert load_spec_json(str(path)).rows(0)[1] == Poly({(0,): F(1, 10 ** 400)})


# the spec files the CLI is run on, and JSON numbers in every written form
SPEC_FILES = [
    '{"base": "paper", "overrides": {"0,1": [["1", [0]]]}}',
    '{"base": "paper", "overrides": {"0,1": [["1/11", [0, 0]]]}}',
    '{"name": "diagonal", "stencil": 0, "rows": {"-1": {"-1": [["1", [-1]]]}, '
    '"2": {"2": [["4", [2]]]}, "3": {"3": [["5", [3]]]}}}',
    '{"base": "paper", "overrides": {"0,1": [["1/3", [0, 0, 1]]], "5,4": [["2/7", [5, 5, 5]]]}}',
    '{"name": "constant", "stencil": 1, "rows": {"-1": {"-2": [["2", []]], "-1": [["-1", []]], '
    '"0": [["3", []]]}, "0": {"-1": [["2", []]], "1": [["3/5", []]]}, "1": {"0": [["2", []]], '
    '"1": [["1", []]], "2": [["3", []]]}}}',
    '{"base": "paper", "overrides": {"0,1": [[0.5, [0]], [-2.5e-3, [1]], [1E22, [0, 1]]], '
    '"1,2": [[-1.25E+2, []], [3, [2]], [0.1, [0, 0]]]}}',
]


@pytest.mark.parametrize("text", SPEC_FILES)
def test_a_spec_file_loads_as_its_parsed_object(tmp_path, text):
    # reading JSON numbers from their decimal text changes no spec that a
    # float reads exactly as written
    path = tmp_path / "spec.json"
    path.write_text(text)
    got, want = load_spec_json(str(path)), load_spec_json(json.loads(text))
    assert (got.name, got.stencil) == (want.name, want.stencil)
    assert all(got.rows(k) == want.rows(k) for k in range(-8, 9))


def test_a_stencil_past_the_table_band_is_refused():
    # the band is the largest |j - k| over entries with j not in {0, 1}, and
    # at least 1: the structural columns 0 and 1 do not count
    def spec(stencil, rows):
        return load_spec_json({"stencil": stencil, "rows": rows})

    far = {"0": {"1": [["1", [0]]]}, "5": {"8": [["1", [5]]], "0": [["1", [1]]]}}
    assert spec(3, far).stencil == 3
    assert spec(0, {"2": {"2": [["1", [2]]]}}).stencil == 0
    assert spec(1, {"0": {"1": [["1", [0]]]}}).stencil == 1
    with pytest.raises(ValueError, match="stencil' 4 is past the table's band.*<= 3"):
        spec(4, far)
    with pytest.raises(ValueError, match="<= 1"):
        spec(2, {"7": {"0": [["1", [7]]], "1": [["1", [0]]]}})


def test_scan_report_shape():
    report = haantjes_scan(window=2, points=1, seed=5)
    assert {"window", "points", "haantjes_nonzero",
            "nijenhuis_mismatches"} <= set(report)


# ---------------------------------------------------------------------------
# the engine against the definitions, summed densely
# ---------------------------------------------------------------------------

def _dense_tensors(spec, point, reach):
    """N^i_jk and H^i_jk by the module docstring's formulas, each repeated
    index summed over every |p| <= reach: no sparsity of the rows is used
    (the ifs skip zero factors, never an index)."""
    idx = range(-reach, reach + 1)

    @functools.cache
    def a(k, j):
        poly = spec.rows(k).get(j)
        return poly.eval(point.at) if poly else F(0)

    @functools.cache
    def d(k, j, p):  # d_p a^k_j
        poly = spec.rows(k).get(j)
        return poly.diff(p).eval(point.at) if poly else F(0)

    @functools.cache
    def n(i, j, k):
        return sum(a(p, j) * d(i, k, p) for p in idx if d(i, k, p)) \
            - sum(a(p, k) * d(i, j, p) for p in idx if d(i, j, p)) \
            - sum(a(i, p) * (d(p, k, j) - d(p, j, k)) for p in idx if a(i, p))

    def h(i, j, k):
        return sum(n(i, p, r) * a(p, j) * a(r, k)
                   for p in idx if a(p, j) for r in idx if a(r, k)) \
            - sum(a(i, p) * (n(p, j, r) * a(r, k) + n(p, r, k) * a(r, j))
                  for p in idx if a(i, p) for r in idx) \
            + sum(a(i, r) * a(r, p) * n(p, j, k)
                  for r in idx if a(i, r) for p in idx)

    return n, h


@pytest.mark.parametrize("overrides", [{}, {"0,1": [["1", [0]]]},
                                       {"0,0": [["1", [0, 0]]]}],
                         ids=["paper", "a01=u0", "a00=u0^2"])
def test_tensors_equal_their_dense_definitions(overrides):
    spec = spec_with_overrides(SPEC, overrides)
    point = _point(13)
    n, h = _dense_tensors(spec, point, reach=7)  # reach 5 misses terms, 6 is exact
    ev = TensorPoint(spec, point)
    nonzero_h = 0
    for i, j, k in itertools.product(range(-3, 4), repeat=3):
        assert ev.nijenhuis_row(i).get((j, k), 0) == n(i, j, k), (i, j, k)
        if j <= k:  # both tensors are antisymmetric in (j, k)
            hijk = h(i, j, k)
            row = ev.haantjes_row(i)
            assert row.get((j, k), 0) == hijk == -row.get((k, j), 0), (i, j, k)
            nonzero_h += hijk != 0
    assert (nonzero_h > 0) == bool(overrides)


# ---------------------------------------------------------------------------
# the scans' point over one common denominator, and a symbolic point
# ---------------------------------------------------------------------------

def _eleventh_spec():
    """The paper rows |k| <= 16 as a JSON ``rows`` table, a^0_1 = (u^0)^2 / 11."""
    rows = {str(k): {str(j): poly.to_table() for j, poly in SPEC.rows(k).items()}
            for k in range(-16, 17)}
    rows["0"]["1"] = [["1/11", [0, 0]]]
    return load_spec_json({"name": "eleventh", "stencil": 1, "rows": rows})


def _degree3_spec():
    """A degree-3 override whose coefficients 1/3 and 2/7 set C = 21."""
    return spec_with_overrides(SPEC, {"0,1": [["1/3", [0, 0, 1]]], "5,4": [["2/7", [5, 5, 5]]]})


# A scan point evaluates the spec in ints: with L the lcm of the point's
# denominators, D the largest monomial degree (at least 1) and C the lcm of
# the coefficient denominators over the rows the scan reads, row entries
# carry S = C L^D, N entries S^2 / L and H entries S^4 / L.  Divided by their
# scale they are the Fraction engine's values at the same point.
@pytest.mark.parametrize("spec, denominator, degree", [
    (SPEC, 1, 2),
    (spec_with_overrides(SPEC, {"0,1": [["1", [0]]]}), 1, 2),
    (_eleventh_spec(), 11, 2),
    (_degree3_spec(), 21, 3),
    (_constant_spec(), 1, 1),  # degree 0, and D is at least 1
], ids=["paper", "a01=u0", "a01=u0^2/11", "degree3", "constant"])
def test_integer_scan_rows_equal_the_fraction_rows(spec, denominator, degree):
    window = 10
    scan, = _scan_points(spec, 1, 0, window, 2)  # haantjes_scan's first point at seed 0
    point, ints, scale, common = scan
    assert point == _point(0, window + 4)
    assert common == math.lcm(*(v.denominator for v in point.values.values()))
    assert scale == denominator * common ** degree
    assert all(ints.point.at(p) == v * common for p, v in point.values.items())
    exact_ev = TensorPoint(spec, point)
    scales = {"row": scale, "nijenhuis_row": scale ** 2 // common,
              "haantjes_row": scale ** 4 // common}
    for i in range(-window, window + 1):
        for name, s in scales.items():
            got = getattr(ints, name)(i)
            assert all(type(v) is int for v in got.values())
            want = {key: v for key, v in getattr(exact_ev, name)(i).items() if v}
            assert {key: F(v, s) for key, v in got.items() if v} == want
        assert {jp: F(v, scale // common) for jp, v in ints._jacobian(i).items()} == \
            exact_ev._jacobian(i)
    # the paper and constant rows have no nonzero H; the others have some
    nonzero = sum(len(ints.haantjes_row(i)) for i in range(-window, window + 1))
    assert (nonzero > 0) == (spec.name not in ("even-chain", "constant-control"))


@pytest.mark.parametrize("far_entry", [Poly.u(0) * Poly.u(0) * Poly.u(0), F(1, 13) * Poly.u(0)],
                         ids=["degree", "denominator"])
def test_a_far_row_with_no_integer_value_at_the_scale_raises(far_entry):
    # a window-0 scan draws points of window 4; rows |k| <= 4 set D = 2 and
    # C = 1.  Row 0 reaches row 5 through a column 5, and row 5 has a higher
    # degree or a new denominator: the scan must refuse, not round
    def rows(k):
        if k == 5:
            return {0: far_entry}
        row = SPEC.rows(k)
        if k == 0:
            row[5] = Poly.u(0)
        return row

    spec = ChainMatrixSpec(name="far-row", rows=rows)
    assert TensorPoint(spec, _point(0, 4)).haantjes_row(0)  # the Fraction engine reads it
    with pytest.raises(ValueError, match="spec row 5, column 0: .* no integer value"):
        haantjes_scan(window=0, points=1, spec=spec)


def test_a_row_holds_no_zero_entry():
    # u^{-10} is 0 at this point, so a^{-10}_1 = u^0 u^{-10} evaluates to 0:
    # the row drops it, and N and H come out as from rows that keep zeros
    point = _point(0, 14)
    ev = TensorPoint(SPEC, point)
    assert all(v for k in range(-13, 14) for v in ev.row(k).values())
    kept = integrability._Memo(lambda k: {j: poly.eval(point.at)
                                          for j, poly in SPEC.rows(k).items()})
    assert kept(-10)[1] == 0 and 1 not in ev.row(-10)
    n_kept = integrability._Memo(functools.partial(integrability._nijenhuis_row, kept,
                                                   ev._jacobian))
    h_kept = integrability._Memo(functools.partial(integrability._haantjes_row, kept, n_kept))
    for i in range(-10, 11):
        assert ev.nijenhuis_row(i) == n_kept(i) and ev.haantjes_row(i) == h_kept(i)
    assert any(ev.nijenhuis_row(i) for i in range(-10, 11))


# u^p itself for every |p| <= 14: a tensor entry evaluated there is a
# polynomial, so a zero entry is a proof for every point, not a sample
SYMBOLIC = RationalPoint(values={p: Poly.u(p) for p in range(-14, 15)}, window=14)


def test_tensor_point_evaluates_over_a_poly_point():
    # the symbolic route: rows, N and H come out as polynomials in the u^p;
    # every H^i_jk of the paper spec with |i| <= 10 is the zero polynomial
    assert all(TensorPoint(SPEC, SYMBOLIC).haantjes_row(i) == {} for i in range(-10, 11))
    mutated = spec_with_overrides(SPEC, {"0,1": [["1", [0]]]})
    ev, sym = TensorPoint(mutated, _point(2, 8)), TensorPoint(mutated, SYMBOLIC)
    for i in range(-4, 5):
        for got, want in ((sym.nijenhuis_row(i), ev.nijenhuis_row(i)),
                          (sym.haantjes_row(i), ev.haantjes_row(i))):
            assert all(isinstance(v, Poly) for v in got.values())
            values = {jk: v.eval(ev.point.at) for jk, v in got.items()}
            assert {jk: v for jk, v in values.items() if v} == want
    assert any(sym.haantjes_row(i) for i in range(-4, 5))
    # the negative control: the mutated spec has 107 nonzero H polynomials
    # with |i|, |j|, |k| <= 6 and j <= k
    assert sum(-6 <= j <= k <= 6 for i in range(-6, 7) for j, k in sym.haantjes_row(i)) == 107


def test_printed_nijenhuis_table_holds_as_polynomials():
    # 21 rows i times 300 pairs j < k: 6300 entries, each a zero difference
    sym = TensorPoint(SPEC, SYMBOLIC)
    for i in range(-10, 11):
        table = appendix_nijenhuis_table(i, SYMBOLIC)
        for j, k in itertools.combinations(range(-12, 13), 2):
            n = sym.nijenhuis_row(i).get((j, k), 0)
            assert not n - _expected_nijenhuis(table, j, k), (i, j, k)


# ---------------------------------------------------------------------------
# the per-point memo: every row is built once, and no cycle keeps a point
# ---------------------------------------------------------------------------

def _counted_spec() -> tuple[ChainMatrixSpec, collections.Counter]:
    reads = collections.Counter()

    def rows(k):
        reads[k] += 1
        return SPEC.rows(k)

    return ChainMatrixSpec(name="counted", rows=rows), reads


def _sweep(ev: TensorPoint) -> None:
    for _ in range(2):
        for i in range(-4, 5):
            ev.haantjes_row(i)


def test_each_spec_row_is_read_once_per_point():
    spec, reads = _counted_spec()
    _sweep(TensorPoint(spec, _point()))
    assert set(range(-6, 7)) <= reads.keys() and set(reads.values()) == {1}


def test_a_tensor_point_is_freed_with_its_last_reference():
    ev = TensorPoint(SPEC, _point())
    gc.disable()
    try:
        _sweep(ev)
        ref = weakref.ref(ev)
        del ev
        assert ref() is None  # freed by reference counting, not by the GC
    finally:
        gc.enable()
