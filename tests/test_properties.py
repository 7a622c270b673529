"""Property tests: Pfaffian identities, the projection and band JSON."""

import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pfaffchain.ensemble import pfaffian
from pfaffchain.lax import LaxBands, bands_from_json, bands_to_json, project_t

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
