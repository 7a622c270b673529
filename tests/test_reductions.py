import dataclasses
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from pfaffchain.integrability import (TensorPoint, _IntegerRows, _ScanPoint, paper_chain_spec,
                                     spec_with_overrides)
from pfaffchain import reductions
from pfaffchain.poly import over_lcm
from pfaffchain.reductions import (
    DegenerateSpeedsError,
    ReductionJet,
    _closure,
    _duals,
    eigen_residual,
    gt_involutivity,
    involutivity_report,
    random_jet,
    tangent_recursion,
)

from oracles import JetNum, fraction_tangent, gibbons_tsarev, oracle_involutivity

F = Fraction


# ---------------------------------------------------------------------------
# oracle: the closure values of the printed system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GTDerivatives:
    dlam_ij: Fraction  # d_j lambda^i
    dlam_ji: Fraction  # d_i lambda^j
    d2u0_ij: Fraction  # d_i d_j u^0
    d2u1_ij: Fraction  # d_i d_j u^1


def gt_rhs(jet: ReductionJet, i: int, j: int) -> GTDerivatives:
    """The four closure values for a distinct pair (i, j), exact."""
    if i == j:
        raise ValueError("indices must be distinct")
    li, lj = jet.lam[i], jet.lam[j]
    if li == lj:
        raise DegenerateSpeedsError(f"lambda^{i} == lambda^{j}")
    dlam_ij, d2u0_ij, d2u1_ij = gibbons_tsarev(li, lj, jet.u0, jet.du0[i], jet.du0[j],
                                               jet.du1[i], jet.du1[j])
    dlam_ji = gibbons_tsarev(lj, li, jet.u0, jet.du0[j], jet.du0[i], jet.du1[j], jet.du1[i])[0]
    return GTDerivatives(dlam_ij=dlam_ij, dlam_ji=dlam_ji, d2u0_ij=d2u0_ij, d2u1_ij=d2u1_ij)


# ---------------------------------------------------------------------------
# tangent recursion against the four printed closed forms
# ---------------------------------------------------------------------------

def test_recursion_reproduces_printed_equations():
    rng = random.Random(1)
    for _ in range(100):
        jet = random_jet(rng, 3)
        u = jet.u_window.at
        u0, u1 = jet.u0, jet.u1
        for i in (1, 2, 3):
            lam = jet.lam[i]
            d0, d1 = jet.du0[i], jet.du1[i]
            du = tangent_recursion(jet, i, 3)
            assert du[-1] == (lam / u0 - u1) * d0 - u0 * d1
            assert du[-2] == (lam ** 2 - u0 * u1 * lam
                              - u0 * (2 * u0 + u(-2) + u(-1) * u(1))) \
                / u0 ** 2 * d0 - (lam + u(-1)) * d1
            assert du[2] == (u1 * u1 - 2 * u(2)) / u0 * d0 \
                + (lam + u0 * u1) / u0 * d1
            assert du[3] == ((u1 * u1 - 2 * u(2)) * lam
                             + u0 * (u1 * (1 + u(2)) - 3 * u(3))) / u0 ** 2 * d0 \
                + (lam ** 2 + u0 * u1 * lam + u0 ** 2 * (u(2) - 1)) / u0 ** 2 * d1


def test_zero_seeds_give_zero_tangent():
    rng = random.Random(2)
    jet = random_jet(rng, 3)
    jet = ReductionJet(lam=jet.lam, du0={i: F(0) for i in (1, 2, 3)},
                       du1={i: F(0) for i in (1, 2, 3)}, u_window=jet.u_window)
    du = tangent_recursion(jet, 1, 5)
    assert all(v == 0 for v in du.values())


def test_eigen_residual_is_exactly_zero():
    rng = random.Random(3)
    for _ in range(100):
        jet = random_jet(rng, 3)
        for i in (1, 2, 3):
            assert eigen_residual(jet, i, 8) == 0


def test_minimal_depth_residual():
    rng = random.Random(4)
    jet = random_jet(rng, 3)
    assert eigen_residual(jet, 1, 2) == 0


def test_perturbed_tangent_leaves_residual():
    rng = random.Random(5)
    jet = random_jet(rng, 3)
    du = tangent_recursion(jet, 1, 4)
    du[2] += 1  # corrupt one component
    lam = jet.lam[1]
    rows = TensorPoint(paper_chain_spec(), jet.u_window)
    residuals = {}
    for k in range(-3, 4):
        acc = F(0)
        for j, coeff in rows.row(k).items():
            acc += coeff * du.get(j, F(0))
        residuals[k] = abs(lam * du[k] - acc)
    # the corrupted component feeds neighbouring rows through a^k_{k+-1}=u^0
    assert max(residuals[1], residuals[3]) >= abs(jet.u0)


def test_recursion_window_requirement():
    rng = random.Random(6)
    jet = random_jet(rng, 3, window=4)
    with pytest.raises(ValueError, match="u_window"):
        tangent_recursion(jet, 1, 6)


@pytest.mark.parametrize("window", [6, 10])
def test_integer_rows_solve_as_the_fraction_rows(window):
    # the jet reads its rows in ints at the scale S and multiplies lambda by
    # S; every d_i u^k and the residual are the Fraction rows' values
    rng = random.Random(f"integer rows/{window}")
    for _ in range(20):
        jet = random_jet(rng, 3, window)
        for i in (1, 2, 3):
            du, worst = fraction_tangent(jet, i, window - 1)
            assert tangent_recursion(jet, i, window - 1) == du
            assert eigen_residual(jet, i, window - 1) == worst == 0


def test_a_corrupted_tangent_leaves_the_fraction_rows_residual(monkeypatch):
    # eigen_residual reads its defects in the tangent's numerators over its
    # scale sigma, at the rows' scale S, and divides the maximum by
    # sigma q S once: with d_i u^2 corrupted it is the largest Fraction row
    # defect
    jet = random_jet(random.Random(5), 3)
    du, sigma = reductions._tangent(jet, 1, 4)
    du[2] += sigma  # d_i u^2 + 1
    monkeypatch.setattr(reductions, "_tangent", lambda *_args: (du, sigma))
    rows, lam = TensorPoint(paper_chain_spec(), jet.u_window), jet.lam[1]
    exact = {k: F(n, sigma) for k, n in du.items()}
    want = max(abs(lam * exact[k] - sum(a * exact[j] for j, a in rows.row(k).items()))
               for k in range(-3, 4))
    assert want and eigen_residual(jet, 1, 4) == want


def test_a_jet_reads_the_integer_rows_at_one_scale():
    # the jet's rows are the scans' integer reader over its u-window: with L
    # the lcm of the window's denominators, a^k_j reads as the int a^k_j S,
    # S = C L^D = L^2 on the paper rows (C = 1, D = 2), built once per jet
    jet = random_jet(random.Random(8), 3)
    rows = jet._rows
    common = math.lcm(*(v.denominator for v in jet.u_window.values.values()))
    assert type(rows) is _ScanPoint
    assert (rows.point, rows.common, rows.scale) == (jet.u_window, common, common ** 2)
    exact = TensorPoint(paper_chain_spec(), jet.u_window)
    for k in range(-9, 10):
        assert all(type(a) is int for a in rows.tensors.row(k).values())
        assert {j: F(a, rows.scale) for j, a in rows.tensors.row(k).items()} == exact.row(k)
    assert jet._rows is rows


def test_a_vanished_pivot_is_named():
    # rows with a^2_3 dropped have no pivot in row 2: the solve names it
    jet = random_jet(random.Random(9), 3)
    spec = spec_with_overrides(paper_chain_spec(), {"2,3": []})
    jet.__dict__["_rows"] = _IntegerRows(spec, jet.u_window.window).point(jet.u_window)
    with pytest.raises(ZeroDivisionError, match=r"row 2 pivot a\^2_3 vanished"):
        tangent_recursion(jet, 1, 4)


@pytest.mark.parametrize("call, value", [
    (lambda jet: eigen_residual(jet, 1, 0), "depth=0"),
    (lambda jet: eigen_residual(jet, 1, -3), "depth=-3"),
    (lambda jet: tangent_recursion(jet, 1, -2), "depth=-2"),
    (lambda jet: eigen_residual(jet, 4, 3), "direction 4 "),
    (lambda jet: tangent_recursion(jet, 0, 3), "direction 0 "),
], ids=["eigen depth 0", "eigen depth -3", "tangent depth -2", "direction 4", "direction 0"])
def test_a_depth_below_1_or_a_direction_outside_1_to_n_is_refused(call, value):
    # a depth below 1 solves no row, so its residual 0 would read as a pass
    with pytest.raises(ValueError, match=value):
        call(random_jet(random.Random(6), 3))


def test_degenerate_speeds_rejected():
    rng = random.Random(7)
    jet = random_jet(rng, 3)
    with pytest.raises(DegenerateSpeedsError):
        ReductionJet(lam={1: F(1), 2: F(1), 3: F(2)}, du0=jet.du0, du1=jet.du1,
                     u_window=jet.u_window)


def test_a_jet_refuses_directions_other_than_1_to_n():
    jet = random_jet(random.Random(7), 3)
    directions = r"must name the directions 1\.\.3, not "
    with pytest.raises(ValueError, match=directions + r"\[1, 2, 3\], \[1, 2\], \[1, 2, 3\]"):
        ReductionJet(lam=jet.lam, du0={1: jet.du0[1], 2: jet.du0[2]}, du1=jet.du1,
                     u_window=jet.u_window)
    lam = {1: jet.lam[1], 2: jet.lam[2], 4: jet.lam[3]}
    with pytest.raises(ValueError, match=directions + r"\[1, 2, 4\], \[1, 2, 3\]"):
        ReductionJet(lam=lam, du0=jet.du0, du1=jet.du1, u_window=jet.u_window)


def test_a_float_in_the_jet_or_the_mutation_is_refused():
    # every value is read as an exact int numerator; a float would be taken
    # as its binary value, so it is refused as the unreduced rationals did
    jet = random_jet(random.Random(7), 3)
    with pytest.raises(TypeError, match="exact rationals"):
        ReductionJet(lam={**jet.lam, 1: 0.5}, du0=jet.du0, du1=jet.du1, u_window=jet.u_window)
    point = dataclasses.replace(jet.u_window, values={**jet.u_window.values, 0: 1.5})
    with pytest.raises(TypeError, match="exact rationals"):
        ReductionJet(lam=jet.lam, du0=jet.du0, du1=jet.du1, u_window=point)
    with pytest.raises(TypeError, match="mutate_dlam must be an exact rational, not 0.5"):
        gt_involutivity(jet, mutate_dlam=0.5)


def test_n_u0_and_u1_are_read_off_the_jet_data():
    jet = random_jet(random.Random(7), 4)
    assert [f.name for f in dataclasses.fields(jet)] == ["lam", "du0", "du1", "u_window"]
    assert (jet.n_components, jet.u0, jet.u1) == (4, jet.u_window.at(0), jet.u_window.at(1))
    assert all(getattr(ReductionJet, name).fset is None for name in ("n_components", "u0", "u1"))


# ---------------------------------------------------------------------------
# the closure formulas
# ---------------------------------------------------------------------------

def test_gt_rhs_proportional_to_du0():
    rng = random.Random(8)
    jet = random_jet(rng, 3)
    jet = ReductionJet(lam=jet.lam, du0={1: jet.du0[1], 2: F(0), 3: jet.du0[3]},
                       du1=jet.du1, u_window=jet.u_window)
    gt = gt_rhs(jet, 1, 2)
    assert gt.dlam_ij == 0  # d_2 u^0 = 0 forces d_2 lambda^1 = 0


def test_gt_second_derivative_symmetric():
    rng = random.Random(9)
    for _ in range(20):
        jet = random_jet(rng, 3)
        a = gt_rhs(jet, 1, 3)
        b = gt_rhs(jet, 3, 1)
        assert a.d2u0_ij == b.d2u0_ij
        assert a.d2u1_ij == b.d2u1_ij


def test_gt_speed_2u0_simplification():
    # lambda^i = 2u^0 gives d_j lambda^i = 2 d_j u^0 identically
    rng = random.Random(10)
    for _ in range(10):
        jet = random_jet(rng, 3)
        lam = dict(jet.lam)
        lam[1] = 2 * jet.u0
        if lam[1] in (lam[2], lam[3]):
            continue
        jet2 = ReductionJet(lam=lam, du0=jet.du0, du1=jet.du1, u_window=jet.u_window)
        gt = gt_rhs(jet2, 1, 2)
        assert gt.dlam_ij == 2 * jet.du0[2]


def test_gt_rejects_equal_indices():
    rng = random.Random(11)
    jet = random_jet(rng, 3)
    with pytest.raises(ValueError):
        gt_rhs(jet, 2, 2)


@pytest.mark.parametrize("c_lam", [4, 3, 5, F(7, 3), F(-5, 2)], ids=str)
def test_the_closure_is_the_printed_system(c_lam):
    # _closure adds and multiplies only: over the pair's coordinates put
    # over one L it gives numerators and denominators in ints, and each
    # value, homogeneous of degree 1, is L times the printed one
    rng = random.Random(19)
    for _ in range(100):
        jet = random_jet(rng, 3)
        for i, j in itertools.permutations((1, 2, 3), 2):
            args = (jet.lam[i], jet.lam[j], jet.u0, jet.du0[i], jet.du0[j], jet.du1[i], jet.du1[j])
            common, ints = over_lcm(args)
            got = _closure(*ints, F(c_lam))
            assert all(type(x) is int for pair in got for x in pair)
            assert [F(n, d * common) for n, d in got] == list(gibbons_tsarev(*args, c_lam)), (i, j)


# ---------------------------------------------------------------------------
# involutivity
# ---------------------------------------------------------------------------

def test_involutivity_exact_zero_on_random_jets():
    rng = random.Random(12)
    for _ in range(100):
        jet = random_jet(rng, 3)
        residuals = gt_involutivity(jet)
        assert all(v == 0 for v in residuals.values()), residuals


def test_involutivity_trivial_for_flat_jets():
    rng = random.Random(13)
    jet = random_jet(rng, 3)
    jet = ReductionJet(lam=jet.lam, du0={i: F(0) for i in (1, 2, 3)}, du1=jet.du1,
                       u_window=jet.u_window)
    assert all(v == 0 for v in gt_involutivity(jet).values())


def test_mutated_coefficient_breaks_involutivity():
    rng = random.Random(14)
    hits = 0
    for _ in range(10):
        jet = random_jet(rng, 3)
        residuals = gt_involutivity(jet, mutate_dlam=F(3))
        hits += any(v != 0 for v in residuals.values())
    assert hits == 10


@pytest.mark.parametrize("coupling", [None, F(3)], ids=["paper", "mutated"])
def test_dual_residuals_equal_the_jetnum_oracle(coupling):
    rng = random.Random(17)
    nonzero = 0
    for _ in range(200):
        jet = random_jet(rng, 3)
        got = gt_involutivity(jet, mutate_dlam=coupling)
        assert got == oracle_involutivity(jet, coupling or F(4))
        assert all(type(v) is Fraction for v in got.values())
        nonzero += any(got.values())
    # a jet with d_j u^0 = 0 in some direction can leave the mutation silent
    assert nonzero == 0 if coupling is None else nonzero >= 190


@pytest.mark.parametrize("seed, residual", [(0, "1858347279/134560"),
                                            (1, "1240191071/332928")])
def test_mutated_report_keeps_its_exact_residual(seed, residual):
    # the strings `gt --jets 20 --mutate` reported before the duals
    assert involutivity_report(jets=20, seed=seed, mutate_dlam=F(3)) == {
        "jets": 20, "seed": seed, "max_involutivity_residual": residual,
        "eigen_residual": "0"}


def _semi_hamiltonian_residuals(jet: ReductionJet, coupling: Fraction) -> list[Fraction]:
    """d_k(d_j lambda^i / (lambda^j - lambda^i)) - d_j(d_k lambda^i / (lambda^k
    - lambda^i)) for the six ordered triples (i, j, k), each d_k taken over
    the closure's int duals along R^k with ``coupling`` in d_j lambda^i.  The
    quotient is homogeneous of degree 0, so its derivatives need no L."""
    c = F(coupling)
    _common, along = _duals(jet, c)

    def d(k, i, j):  # d_k (d_j lambda^i / (lambda^j - lambda^i)) as (n, d)
        u0, duals, q_k = along[k]
        (lam_i, du0_i, du1_i), (lam_j, du0_j, du1_j) = duals[i], duals[j]
        num, den = _closure(lam_i, lam_j, u0, du0_i, du0_j, du1_i, du1_j, c)[0]
        den = den * (lam_j - lam_i)
        return num.d * den.v - num.v * den.d, q_k * den.v * den.v

    return [F(a_n * b_d - b_n * a_d, a_d * b_d)
            for (a_n, a_d), (b_n, b_d) in (
                (d(k, i, j), d(j, i, k)) for i, j, k in itertools.permutations((1, 2, 3)))]


def test_the_closure_is_semi_hamiltonian():
    # Tsarev's condition for a diagonal system to be integrable by the
    # generalised hodograph method holds as the exact integer 0 ...
    rng = random.Random(0)
    for _ in range(100):
        assert _semi_hamiltonian_residuals(random_jet(rng, 3), F(4)) == [0] * 6
    # ... and fails on every jet once d_j lambda^i carries another constant
    rng = random.Random(0)
    assert all(any(_semi_hamiltonian_residuals(random_jet(rng, 3), F(5))) for _ in range(20))


@pytest.mark.parametrize("constant", [4, 5, 3])
def test_the_closure_is_involutive_and_semi_hamiltonian_for_every_n(constant):
    # every compatibility condition involves at most three directions, so
    # identities in the 10 generators of a generic triple (lambda^i, u^0,
    # d_i u^0, d_i u^1) hold for reductions in any number of components.
    # The runtime _closure runs over sympy's rational-function field, and d_k
    # of a generator is its closure value along R^k; d_k of k's own
    # coordinates is not closed, and no residual reads them.  5 and 3 (the
    # constant of gt --mutate) in d_j lambda^i are the negative control
    sympy = pytest.importorskip("sympy")
    field, *gens = sympy.field("l1,l2,l3,u0,a1,a2,a3,b1,b2,b3", sympy.QQ)
    u0 = gens[3]
    lam, du0, du1 = (dict(enumerate(gens[s:s + 3], 1)) for s in (0, 4, 7))
    c_lam = F(constant)

    def closure(i, j):  # d_j lambda^i, d_i d_j u^0 and d_i d_j u^1 as field elements
        return [n / d for n, d in _closure(lam[i], lam[j], u0, du0[i], du0[j], du1[i], du1[j],
                                           c_lam)]

    along = {k: {u0: du0[k], **{g: v for i in (1, 2, 3) if i != k
                                for g, v in zip((lam[i], du0[i], du1[i]), closure(i, k))}}
             for k in (1, 2, 3)}

    def d(k, f):
        for g in (lam[k], du0[k], du1[k]):
            assert f.numer.degree(gens.index(g)) < 1 and f.denom.degree(gens.index(g)) < 1
        return sum((f.diff(g) * v for g, v in along[k].items()), field.zero)

    triples = ((1, 2, 3), (2, 3, 1), (3, 1, 2))
    involutivity = [d(k, a) - d(j, b) for i, j, k in triples
                    for a, b in zip(closure(i, j), closure(i, k))]
    semi_hamiltonian = [d(k, closure(i, j)[0] / (lam[j] - lam[i]))
                        - d(j, closure(i, k)[0] / (lam[k] - lam[i])) for i, j, k in triples]
    assert len(involutivity) == 9 and len(semi_hamiltonian) == 3
    vanish = [r == 0 for r in involutivity + semi_hamiltonian]
    assert vanish == [constant == 4] * 12


def test_public_values_are_reduced_fractions():
    jet = random_jet(random.Random(18), 3)
    values = list(tangent_recursion(jet, 2, 6).values())
    values += [eigen_residual(jet, 2, 6)] + list(gt_involutivity(jet).values())
    assert all(type(v) is Fraction for v in values)


def test_involutivity_needs_three_components():
    rng = random.Random(15)
    jet = random_jet(rng, 4)
    with pytest.raises(ValueError, match="three"):
        gt_involutivity(jet)


def test_involutivity_report_serialises_rationals_as_strings():
    report = involutivity_report(jets=5, seed=16)
    assert report["max_involutivity_residual"] == "0"
    assert report["eigen_residual"] == "0"
    assert isinstance(report["max_involutivity_residual"], str)


# ---------------------------------------------------------------------------
# the forward-mode jet numbers
# ---------------------------------------------------------------------------

def test_jetnum_arithmetic():
    a = JetNum(F(2), (F(1), F(0), None))
    b = JetNum(F(3), (F(0), F(2), F(5)))
    s = a + b
    assert s.val == 5 and s.d[0] == 1 and s.d[1] == 2 and s.d[2] is None
    p = a * b
    assert p.val == 6 and p.d[0] == 3 and p.d[1] == 4 and p.d[2] is None
    q = a / b
    assert q.val == F(2, 3) and q.d[0] == F(1, 3)
    assert (a ** 2).val == 4 and (a ** 2).d[0] == 4
    with pytest.raises(ValueError):
        s.slot(3)
