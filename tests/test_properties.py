"""Property tests: Pfaffian identities of the pivoted oracle, the
projection, band JSON, and the int kernels of ``reductions`` against their
reduced-Fraction oracles."""

import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pfaffchain import reductions
from pfaffchain.integrability import RationalPoint, TensorPoint, paper_chain_spec
from pfaffchain.lax import LaxBands
from pfaffchain.poly import over_lcm
from pfaffchain.reductions import (ReductionJet, _closure, _duals, eigen_residual,
                                   gt_involutivity, tangent_recursion)

from oracles import (bands_from_json, bands_to_json, fraction_tangent, gibbons_tsarev,
                     oracle_involutivity, pfaffian, project_t)

FEW = settings(max_examples=40, deadline=None)
ENTRIES = st.floats(-2.0, 2.0, allow_subnormal=False)


def _hadamard(a: np.ndarray) -> float:
    """Product of the row norms, an upper bound on |det a|."""
    return float(np.prod(np.linalg.norm(a, axis=1))) if a.size else 1.0


@st.composite
def skew(draw, max_dim=16):
    dim = 2 * draw(st.integers(0, max_dim // 2))
    a = np.triu(draw(arrays(np.float64, (dim, dim), elements=ENTRIES)), 1)
    return a - a.T


@FEW
@given(skew())
def test_pfaffian_squared_is_determinant(a):
    pf = pfaffian(a)
    assert abs(pf * pf - np.linalg.det(a)) <= 1e-10 * max(1.0, _hadamard(a))


@FEW
@given(skew(), st.data())
def test_pfaffian_of_congruence(a, data):
    dim = a.shape[0]
    b = data.draw(arrays(np.float64, (dim, dim), elements=ENTRIES))
    m = b @ a @ b.T
    m = (m - m.T) / 2
    scale = max(1.0, math.sqrt(_hadamard(m)), _hadamard(b) * math.sqrt(_hadamard(a)))
    assert abs(pfaffian(m) - np.linalg.det(b) * pfaffian(a)) <= 1e-10 * scale


@FEW
@given(st.integers(1, 6).flatmap(
    lambda n: arrays(np.float64, (2 * n, 2 * n), elements=ENTRIES)))
def test_project_t_is_idempotent(a):
    p = project_t(a)
    assert np.array_equal(project_t(p), p)


@st.composite
def band_states(draw):
    sites = draw(st.integers(1, 6))
    depth = draw(st.integers(0, 3))
    even = draw(st.booleans())
    keys = st.tuples(st.integers(-depth, depth), st.integers(1, sites))
    values = st.floats(allow_nan=False, allow_infinity=False)
    w = draw(st.dictionaries(keys, values))
    v = {} if even else draw(st.dictionaries(keys, values))
    return LaxBands(sites=sites, depth=depth, w=w, v=v, even_reduced=even)


@FEW
@given(band_states())
def test_bands_json_round_trip(b):
    assert bands_from_json(json.loads(json.dumps(bands_to_json(b)))) == b


# exact values of either sign with denominators up to 7; the int forms of
# the closure carry the denominator q of its constant and the sign of
# Q_k = q u^0 prod (lambda^i - lambda^k)^2, and the tangent solve the sign of
# its pivots a^k_{k+-1} = u^0
RATIONALS = st.fractions(-9, 9, max_denominator=7)
NONZERO = RATIONALS.filter(bool)
COUPLINGS = st.one_of(st.sampled_from([Fraction(4), Fraction(7, 3), Fraction(-5, 2)]),
                      st.fractions(-12, 12, max_denominator=5))
PROPERTY = settings(max_examples=60, deadline=None)


def _jet(lam, du0, du1, point: RationalPoint) -> ReductionJet:
    """A jet over the directions 1..len(lam) at the u-window ``point``."""
    return ReductionJet(lam=dict(enumerate(lam, 1)), du0=dict(enumerate(du0, 1)),
                        du1=dict(enumerate(du1, 1)), u_window=point)


@st.composite
def closure_jets(draw):
    """A three-direction jet with distinct speeds and u^0 != 0; its u-window
    carries u^0 and u^1 only, all that the closure reads."""
    lam = draw(st.lists(RATIONALS, min_size=3, max_size=3, unique=True))
    du0, du1 = (draw(st.lists(RATIONALS, min_size=3, max_size=3)) for _ in range(2))
    return _jet(lam, du0, du1, RationalPoint(values={0: draw(NONZERO), 1: draw(RATIONALS)},
                                             window=1))


# negative u^0 and speeds in descending order; the examples below pair it
# with the couplings 7/3 and -5/2
DESCENDING = _jet([Fraction(5), Fraction(1, 2), Fraction(-3)],
                  [Fraction(2, 3), Fraction(-1), Fraction(5, 7)],
                  [Fraction(1), Fraction(-4, 5), Fraction(3)],
                  RationalPoint(values={0: Fraction(-3, 2), 1: Fraction(1, 3)}, window=1))


@PROPERTY
@given(closure_jets(), COUPLINGS)
@example(DESCENDING, Fraction(7, 3))
@example(DESCENDING, Fraction(-5, 2))
def test_the_int_closure_and_its_duals_are_the_printed_system(jet, c_lam):
    # over the jet's coordinates put over one L, each closure value of a pair
    # is an int numerator over an int denominator, L times the printed value
    # (homogeneous of degree 1); along R^k the duals of i's coordinates carry
    # the printed closure of the pair (i, k) as an int over Q_k, also times L
    common, along = _duals(jet, c_lam)
    for k in (1, 2, 3):
        u0, duals, q_k = along[k]
        assert (u0.v, Fraction(u0.d, q_k * common)) == (jet.u0 * common, jet.du0[k])
        for i, coords in duals.items():
            args = (jet.lam[i], jet.lam[k], jet.u0, jet.du0[i], jet.du0[k], jet.du1[i],
                    jet.du1[k])
            printed = gibbons_tsarev(*args, c_lam)
            pair_common, ints = over_lcm(args)
            assert [Fraction(n, d * pair_common) for n, d in _closure(*ints, c_lam)] == \
                list(printed)
            assert [type(x.d) for x in coords] == [int] * 3
            assert [Fraction(x.d, q_k * common) for x in coords] == list(printed)


@PROPERTY
@given(closure_jets(), COUPLINGS)
@example(DESCENDING, Fraction(4))
@example(DESCENDING, Fraction(7, 3))
def test_the_int_involutivity_residuals_equal_the_fraction_oracle(jet, c_lam):
    assert gt_involutivity(jet, mutate_dlam=c_lam) == oracle_involutivity(jet, c_lam)


@st.composite
def negative_pivot_jets(draw):
    """A jet on a random u-window of 3..6 with u^0 < 0, so that every pivot
    a^k_{k+-1} = u^0 of the tangent solve is negative."""
    window = draw(st.integers(3, 6))
    values = {p: draw(RATIONALS) for p in range(-window, window + 1)}
    values[0] = -draw(st.fractions(Fraction(1, 7), 9, max_denominator=7))
    lam, du0, du1 = (draw(st.lists(RATIONALS, min_size=2, max_size=2, unique=unique))
                     for unique in (True, False, False))
    return _jet(lam, du0, du1, RationalPoint(values=values, window=window))


@PROPERTY
@given(negative_pivot_jets(), st.integers(1, 2), st.integers(-3, 3).filter(bool))
def test_the_int_tangent_is_the_fraction_tangent_under_negative_pivots(jet, i, error):
    depth = jet.u_window.window - 1
    du, worst = fraction_tangent(jet, i, depth)
    assert tangent_recursion(jet, i, depth) == du
    assert eigen_residual(jet, i, depth) == worst == 0
    # with d_i u^2 off by ``error``, eigen_residual is the largest Fraction
    # row defect, whatever the sign of the tangent's scale
    numerators, sigma = reductions._tangent(jet, i, depth)
    numerators[2] += error * sigma
    du[2] += error
    rows = TensorPoint(paper_chain_spec(), jet.u_window)
    want = max(abs(jet.lam[i] * du[k] - sum(a * du[j] for j, a in rows.row(k).items()))
               for k in range(1 - depth, depth))
    with mock.patch.object(reductions, "_tangent", lambda *_args: (numerators, sigma)):
        assert eigen_residual(jet, i, depth) == want
