"""Property tests: Pfaffian identities, the projection, band JSON and the
unreduced exact rationals against Fraction."""

import json
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pfaffchain.ensemble import pfaffian
from pfaffchain.lax import LaxBands
from pfaffchain.lazyfraction import LazyFraction, lazy

from oracles import bands_from_json, bands_to_json, project_t

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


# a value with the kind of operand that carries it: an int, a reduced
# Fraction, or a LazyFraction with its numerator and denominator scaled by a
# common factor (an unreduced representation)
@st.composite
def exact_operands(draw):
    kind = draw(st.sampled_from(["int", "fraction", "lazy"]))
    if kind == "int":
        value = draw(st.integers(-12, 12))
        return Fraction(value), value
    value = draw(st.fractions(-12, 12, max_denominator=30))
    if kind == "fraction":
        return value, value
    scale = draw(st.integers(1, 6))
    return value, LazyFraction(value.numerator * scale, value.denominator * scale)


OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


@settings(max_examples=200, deadline=None)
@given(exact_operands(), st.lists(st.tuples(st.sampled_from(OPS), exact_operands(),
                                            st.booleans()), max_size=8))
def test_lazy_fraction_chains_equal_fraction_chains(start, steps):
    want, got = start[0], lazy(start[1])
    for op, (value, operand), operand_first in steps:
        # (exact value, operand) on each side of the operator
        left, right = ((value, operand), (want, got)) if operand_first \
            else ((want, got), (value, operand))
        if op is operator.truediv and right[0] == 0:
            with pytest.raises(ZeroDivisionError):
                op(left[1], right[1])
            continue
        want, got = op(left[0], right[0]), op(left[1], right[1])
        assert type(got) is LazyFraction and got.d > 0
        assert got.fraction() == want and got == want and want == got
        assert bool(got) == bool(want) and str(got) == str(want)
        assert (-got).fraction() == -want
    if want:
        assert (got ** -2).fraction() == want ** -2
    assert (got ** 3).fraction() == want ** 3


def test_lazy_fraction_refuses_inexact_operands_and_ordering():
    with pytest.raises(TypeError):
        lazy(0.5)
    with pytest.raises(TypeError):
        LazyFraction(1, 2) + 0.5
    with pytest.raises(TypeError):
        LazyFraction(1, 2) < 1
    with pytest.raises(TypeError):
        hash(LazyFraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        LazyFraction(1, 2) / LazyFraction(0, 7)
    with pytest.raises(ZeroDivisionError):
        3 / LazyFraction(0, 5)
