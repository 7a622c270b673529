import math
import os
from collections import Counter
from functools import lru_cache
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from pfaffchain import chain, lax
from pfaffchain.chain import (
    ChainState,
    chain_rhs_t2,
    chain_rhs_t2_corrected,
    continuum_residual,
    default_profile,
    evolve_chain,
    GradientCatastropheError,
    max_row_sum,
)
from pfaffchain.integrability import Poly, paper_chain_spec
from pfaffchain.lax import expand_lattice_terms, flow_terms

F = Fraction


# The periodic stencils as sums of np.roll copies: the oracle for the
# package's stencils, which read one wrap-pad of the stack through slices.

def dx1(f, h):
    return (-np.roll(f, -2, -1) + 8 * np.roll(f, -1, -1)
            - 8 * np.roll(f, 1, -1) + np.roll(f, 2, -1)) / (12 * h)


def dx2(f, h):
    return (-np.roll(f, -2, -1) + 16 * np.roll(f, -1, -1) - 30 * f
            + 16 * np.roll(f, 1, -1) - np.roll(f, 2, -1)) / (12 * h * h)


def dx3(f, h):
    return (-np.roll(f, -3, -1) + 8 * np.roll(f, -2, -1) - 13 * np.roll(f, -1, -1)
            + 13 * np.roll(f, 1, -1) - 8 * np.roll(f, 2, -1)
            + np.roll(f, 3, -1)) / (8 * h ** 3)


ROLL_STENCILS = (None, dx1, dx2, dx3)


def _same_bits(a, b):
    """Equal values with equal sign bits, so that -0.0 differs from 0.0."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _random_state(rng, depth=3, grid=64, with_z=False, epsilon=0.0):
    h = 1.0 / grid
    x = h * np.arange(1, grid + 1)

    def trig():
        a, b, p = rng.uniform(-0.5, 0.5, 3)
        return a + b * np.sin(2 * math.pi * x + p)

    u = {k: trig() for k in range(-depth - 1, depth + 2)}
    if not with_z:
        return ChainState(h=h, depth=depth, u=u, epsilon=epsilon)
    z = {k: trig() for k in range(-depth - 1, depth + 2)}
    kinds = [ChainState(h=h, depth=depth, u=bands).rows[0] for bands in (u, z)]
    return ChainState._of(h, np.stack(kinds), epsilon)


def _z(s):
    """{k: row} views of a two-kind state's z bands (kind 1); empty without."""
    return chain._by_band(s.rows[1]) if len(s.rows) > 1 else {}


def _u_kind(s):
    """The u kind of a two-kind state, the stack the t2 chain reads (it
    reads no z)."""
    return ChainState._of(s.h, s.rows[:1], s.epsilon)


# ---------------------------------------------------------------------------
# the sparse coefficient rows
# ---------------------------------------------------------------------------

ROWS = paper_chain_spec().rows


def test_row_zero_matches_printed_component_equation():
    # u^0_t = u^0 u^1 u^0_x + (u^0)^2 u^1_x + u^0 u^-1_x
    assert ROWS(0) == {0: Poly({(0, 1): 1}), 1: Poly({(0, 0): 1}), -1: Poly({(0,): 1})}


def test_row_one_matches_printed_component_equation():
    # u^1_t = (2u^2 - (u^1)^2) u^0_x - u^0 u^1 u^1_x + u^0 u^2_x
    assert ROWS(1) == {0: Poly({(2,): 2, (1, 1): -1}), 1: Poly({(0, 1): -1}),
                       2: Poly({(0,): 1})}


def test_colliding_columns_merge_by_summation():
    # row -1: column 0 absorbs the structural a^k_{k+1} = u^0 entry
    assert ROWS(-1)[0] == Poly({(0,): 2, (-2,): 1, (-1, 1): 1})
    # row 2: column 1 absorbs the structural a^k_{k-1} = u^0 entry
    assert ROWS(2)[1] == Poly({(0,): 1, (0, 2): -1})


def test_rows_have_at_most_four_columns():
    for k in range(-8, 9):
        assert len(ROWS(k)) <= 4


def test_rhs_equals_row_assembly():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(500):
        s = _random_state(rng, depth=3, grid=8)
        rhs = chain_rhs_t2(s)
        ux = {k: dx1(row, s.h) for k, row in s.u.items()}
        m = rng.integers(0, 8)
        for k in range(-2, 3):
            window = {p: float(row[m]) for p, row in s.u.items()}
            assembled = sum(poly.eval(lambda p: window.get(p, 0.0)) * ux[j][m]
                            for j, poly in ROWS(k).items())
            worst = max(worst, abs(assembled - rhs[k + s.depth][m])
                        / max(1.0, abs(assembled)))
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# corrected right-hand sides vs the mechanical lattice expansion
# ---------------------------------------------------------------------------

# The printed chain and its O(eps), O(eps^2) corrections, re-derived by hand
# from the lattice: oracles for the mechanical expansion.  A term is
# (rational coefficient, ((band, derivative order), ...)).

def chain_t2_order0_terms(k: int) -> list:
    """The printed leading-order chain for band k."""
    if k == 0:
        return [(F(1), ((0, 0), (0, 1), (1, 0))), (F(1), ((0, 0), (0, 0), (1, 1))),
                (F(1), ((-1, 1), (0, 0)))]
    if k == 1:
        return [(F(2), ((0, 1), (2, 0))), (F(-1), ((0, 1), (1, 0), (1, 0))),
                (F(-1), ((0, 0), (1, 0), (1, 1))), (F(1), ((0, 0), (2, 1)))]
    if k < 0:
        return [(F(k + 2), ((0, 1), (k + 1, 0))), (F(-k), ((0, 1), (k - 1, 0))),
                (F(1), ((0, 1), (1, 0), (k, 0))), (F(1), ((0, 0), (1, 1), (k, 0))),
                (F(1), ((0, 0), (k - 1, 1))), (F(1), ((0, 0), (k + 1, 1)))]
    return [(F(k + 1), ((0, 1), (k + 1, 0))), (F(-(k - 1)), ((0, 1), (k - 1, 0))),
            (F(-1), ((0, 1), (1, 0), (k, 0))), (F(-1), ((0, 0), (1, 1), (k, 0))),
            (F(1), ((0, 0), (k - 1, 1))), (F(1), ((0, 0), (k + 1, 1)))]


def chain_t2_correction_terms(k: int, order: int) -> list:
    """The O(eps^order) correction to the chain for band k, order in {1, 2}."""
    if order == 1:
        if k == 0:
            return [(F(1, 2), ((-1, 2), (0, 0)))]
        if k == 1:
            return [(F(-1), ((0, 1), (2, 1))), (F(-1, 2), ((0, 0), (2, 2)))]
        if k == -1:
            return [
                # -(u^-1 (u^0 u^1)_xx)/2
                (F(-1, 2), ((-1, 0), (0, 2), (1, 0))),
                (F(-1), ((-1, 0), (0, 1), (1, 1))),
                (F(-1, 2), ((-1, 0), (0, 0), (1, 2))),
                # -((u^0)^2)_xx / 2
                (F(-1), ((0, 0), (0, 2))), (F(-1), ((0, 1), (0, 1))),
                # -(u^0 u^-2)_xx / 2
                (F(-1, 2), ((-2, 0), (0, 2))), (F(-1), ((-2, 1), (0, 1))),
                (F(-1, 2), ((-2, 2), (0, 0))),
            ]
        if k < -1:
            c = F(-(k + 2), 2)
            return [
                (c, ((k, 0), (0, 2), (1, 0))), (2 * c, ((k, 0), (0, 1), (1, 1))),
                (c, ((k, 0), (0, 0), (1, 2))),
                (F(k * k + 2 * k, 2), ((0, 2), (k - 1, 0))),
                (F(-(k + 2) ** 2, 2), ((0, 2), (k + 1, 0))),
                (F(-1), ((0, 1), (k - 1, 1))),
                (F(1, 2), ((0, 0), (k + 1, 2))),
                (F(-1, 2), ((0, 0), (k - 1, 2))),
            ]
        c = F(-(k - 1), 2)
        return [
            (c, ((k, 0), (0, 2), (1, 0))), (2 * c, ((k, 0), (0, 1), (1, 1))),
            (c, ((k, 0), (0, 0), (1, 2))),
            (F(k * k - 1, 2), ((0, 2), (k + 1, 0))),
            (F(-(k - 1) ** 2, 2), ((0, 2), (k - 1, 0))),
            (F(-1), ((0, 1), (k + 1, 1))),
            (F(1, 2), ((0, 0), (k - 1, 2))),
            (F(-1, 2), ((0, 0), (k + 1, 2))),
        ]
    if order == 2:
        if k == 0:
            return [(F(1, 6), ((0, 0), (0, 3), (1, 0))), (F(1, 2), ((0, 0), (0, 2), (1, 1))),
                    (F(1, 2), ((0, 0), (0, 1), (1, 2))), (F(1, 6), ((0, 0), (0, 0), (1, 3))),
                    (F(1, 6), ((-1, 3), (0, 0)))]
        if k == 1:
            return [
                (F(-1, 6), ((1, 0), (0, 3), (1, 0))), (F(-1, 2), ((1, 0), (0, 2), (1, 1))),
                (F(-1, 2), ((1, 0), (0, 1), (1, 2))), (F(-1, 6), ((1, 0), (0, 0), (1, 3))),
                (F(1, 3), ((0, 3), (2, 0))), (F(1, 2), ((0, 2), (2, 1))),
                (F(1, 2), ((0, 1), (2, 2))), (F(1, 6), ((0, 0), (2, 3))),
            ]
        if k == -1:
            return [
                (F(1, 6), ((-1, 0), (0, 3), (1, 0))), (F(1, 2), ((-1, 0), (0, 2), (1, 1))),
                (F(1, 2), ((-1, 0), (0, 1), (1, 2))), (F(1, 6), ((-1, 0), (0, 0), (1, 3))),
                (F(1, 3), ((0, 0), (0, 3))), (F(1), ((0, 1), (0, 2))),
                (F(1, 6), ((-2, 0), (0, 3))), (F(1, 2), ((-2, 1), (0, 2))),
                (F(1, 2), ((-2, 2), (0, 1))), (F(1, 6), ((-2, 3), (0, 0))),
            ]
        if k < -1:
            c = F(3 * k * k + 9 * k + 8, 12)
            return [
                (c, ((k, 0), (0, 3), (1, 0))), (3 * c, ((k, 0), (0, 2), (1, 1))),
                (3 * c, ((k, 0), (0, 1), (1, 2))), (c, ((k, 0), (0, 0), (1, 3))),
                (F(1, 6), ((0, 0), (k - 1, 3))), (F(1, 6), ((0, 0), (k + 1, 3))),
                (F(1 - (k + 1) ** 3, 6), ((0, 3), (k - 1, 0))),
                (F((k + 2) ** 3, 6), ((0, 3), (k + 1, 0))),
                (F(1, 2), ((0, 2), (k - 1, 1))),
                (F(1, 2), ((0, 1), (k - 1, 2))),
            ]
        c = F(-(3 * k * k - 3 * k + 2), 12)
        return [
            (c, ((k, 0), (0, 3), (1, 0))), (3 * c, ((k, 0), (0, 2), (1, 1))),
            (3 * c, ((k, 0), (0, 1), (1, 2))), (c, ((k, 0), (0, 0), (1, 3))),
            (F(1, 6), ((0, 0), (k - 1, 3))), (F(1, 6), ((0, 0), (k + 1, 3))),
            (F(k ** 3 + 1, 6), ((0, 3), (k + 1, 0))),
            (F(-(k - 1) ** 3, 6), ((0, 3), (k - 1, 0))),
            (F(1, 2), ((0, 2), (k + 1, 1))),
            (F(1, 2), ((0, 1), (k + 1, 2))),
        ]
    raise ValueError("order must be 1 or 2")



def _canon(terms):
    out = {}
    for c, factors in terms:
        key = tuple(sorted(("w", band, d) for band, d in factors))
        out[key] = out.get(key, Fraction(0)) + Fraction(c)
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("k", range(-7, 8))
def test_correction_tables_match_lattice_expansion_exactly(k):
    mech = expand_lattice_terms(flow_terms(2, "w", k, even=True), 2, rescale=True)
    assert _canon(chain_t2_order0_terms(k)) == mech[0].terms
    assert _canon(chain_t2_correction_terms(k, 1)) == mech[1].terms
    assert _canon(chain_t2_correction_terms(k, 2)) == mech[2].terms


def test_no_expansion_runs_at_import():
    # neither a table nor its compiled evaluator plan is built at import
    code = ("import pfaffchain.cli; from pfaffchain import chain, integrability, lax; "
            "print(lax.flow_terms.cache_info().currsize, "
            "lax.chain_matrix_terms.cache_info().currsize, "
            "integrability._even_chain_row.cache_info().currsize, "
            "lax._lattice_plan.cache_info().currsize, "
            "chain._continuum_plan.cache_info().currsize, "
            "chain._matrix_plan.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.split() == ["0"] * 6


@lru_cache(maxsize=None)
def _float_tables(flow_k, kind, k, order, rescale=False, even=False):
    """The expansion of ``flow_terms(flow_k, kind, k, even)`` with float
    coefficients, as a float plan of the chain takes them, for any kind and
    time scaling: entry r is the eps^r part as sorted (factors, float
    coefficient) pairs."""
    expanded = expand_lattice_terms(flow_terms(flow_k, kind, k, even), order, rescale)
    return tuple(tuple(sorted((mono, float(c)) for mono, c in part.terms.items()))
                 for part in expanded)


def _rhs_band_by_band(s, order, flow_k, kind, rescale=False, even=False):
    """A continuum right-hand side summed one band at a time, each factor
    differentiated on its own row by the np.roll stencils: the reference for
    the compiled evaluator, which applies each stencil once to the whole
    band stack."""
    kinds = {"w": s.u, "v": _z(s)}

    def field(kind, band, d):
        row = kinds[kind].get(band, np.zeros(s.grid_size))
        return ROLL_STENCILS[d](row, s.h) if d else row

    out = []
    for k in range(-s.depth, s.depth + 1):
        total = 0.0
        for r, terms in enumerate(_float_tables(flow_k, kind, k, order, rescale, even)):
            part = np.zeros(s.grid_size)
            for factors, coeff in terms:
                part += coeff * math.prod((field(*f) for f in factors[1:]),
                                          start=field(*factors[0]))
            total = total + s.epsilon ** r * part
        out.append(total)
    return np.array(out)


@pytest.mark.parametrize("seed", range(4))
def test_stack_evaluator_equals_the_band_by_band_sum(seed):
    rng = np.random.default_rng(seed)
    s = _random_state(rng, depth=seed, grid=16 + seed, with_z=True, epsilon=1 / 64)
    s.rows[:, 0, ::2] = 0.0  # exact zeros: products of either sign vanish
    s.rows[0, -1] = 0.0
    even_t2 = dict(flow_k=2, kind="w", rescale=True, even=True)
    assert _same_bits(chain_rhs_t2(_u_kind(s)), _rhs_band_by_band(s, 0, **even_t2))
    for order in (1, 2):
        assert _same_bits(chain_rhs_t2_corrected(_u_kind(s), order),
                          _rhs_band_by_band(s, order, **even_t2))
        du, dz = continuum_t1_rhs(s, order)
        assert _same_bits(du, _rhs_band_by_band(s, order, 1, "w"))
        assert _same_bits(dz, _rhs_band_by_band(s, order, 1, "v"))


@pytest.mark.parametrize("grid", [5, 7, 257])
def test_wrap_padded_stencils_equal_the_roll_sums(grid):
    rng = np.random.default_rng(grid)
    f = rng.uniform(-1.0, 1.0, (2, 3, grid))
    f[0, 1, :3] = 0.0
    h = 1 / grid
    for padded, rolled in zip(chain._STENCILS[1:], ROLL_STENCILS[1:]):
        assert _same_bits(padded(chain._wrap_pad(f), h), rolled(f, h))


def _counted_stencils(monkeypatch) -> list:
    """Record (input shape, stencil) of every stencil call from chain."""
    calls = []
    monkeypatch.setattr(chain, "_STENCILS", [None] + [
        lambda rows, h, dx=dx: calls.append((rows.shape, dx)) or dx(rows, h)
        for dx in chain._STENCILS[1:]])
    return calls


def test_each_stencil_runs_once_on_the_whole_stack(monkeypatch):
    calls = _counted_stencils(monkeypatch)
    s = _random_state(np.random.default_rng(10), with_z=True, epsilon=1 / 64)
    for rhs, state in ((chain_rhs_t2_corrected, _u_kind(s)), (continuum_t1_rhs, s)):
        padded = (len(state.rows) * (2 * s.depth + 1), s.grid_size + 2 * chain._PAD)
        calls.clear()
        rhs(state, 2)
        assert calls and all(shape == padded for shape, _dx in calls)
        assert len({dx for _shape, dx in calls}) == len(calls)


def test_continuum_residual_applies_each_stencil_once_per_eps(monkeypatch):
    calls = _counted_stencils(monkeypatch)
    eps = [1 / 32, 1 / 48, 1 / 64]
    continuum_residual(default_profile(2), eps, orders=(2, 0, 1), depth=3)
    assert sorted(Counter(dx for _shape, dx in calls).values()) == [len(eps)] * 3


def test_order0_correction_equals_plain_rhs():
    rng = np.random.default_rng(2)
    s = _random_state(rng, epsilon=1 / 64)
    plain = chain_rhs_t2(s)
    corr = chain_rhs_t2_corrected(s, 0)
    assert np.abs(plain - corr).max() < 1e-12


def test_zero_epsilon_reduces_corrections():
    rng = np.random.default_rng(3)
    s = _random_state(rng, epsilon=0.0)
    base = chain_rhs_t2_corrected(s, 0)
    for order in (1, 2):
        full = chain_rhs_t2_corrected(s, order)
        assert np.abs(full - base).max() == 0.0


def test_constant_state_has_zero_rhs_at_every_order():
    grid = 32
    u = {k: np.full(grid, 0.2 * k + 1.0) for k in range(-3, 4)}
    s = ChainState(h=1 / grid, depth=3, u=u, epsilon=1 / 64)
    for order in (0, 1, 2):
        rhs = chain_rhs_t2_corrected(s, order)
        assert np.abs(rhs).max() < 1e-13


def test_first_correction_of_u0_branch():
    # the O(eps) term of the u^0 equation is u^0 u^-1_xx / 2
    mech = expand_lattice_terms(flow_terms(2, "w", 0, even=True), 1, rescale=True)
    assert mech[1] == Poly({(("w", -1, 2), ("w", 0, 0)): Fraction(1, 2)})


def test_grid_too_coarse_for_third_derivative():
    u = {0: np.ones(5)}
    s = ChainState(h=0.2, depth=1, u=u, epsilon=0.1)
    with pytest.raises(ValueError, match="coarse"):
        chain_rhs_t2_corrected(s, 2)


@pytest.mark.parametrize("grid", [1, 2, 4])
def test_grid_too_coarse_for_the_five_point_stencils(grid):
    # the 5-point stencils would wrap onto themselves; a state that is not
    # stepped stays valid
    s = ChainState(h=1 / grid, depth=1, u={0: np.ones(grid)}, epsilon=0.1)
    for rhs in (chain_rhs_t2, max_row_sum, lambda s: evolve_chain(s, 1e-3, 1)):
        with pytest.raises(ValueError, match="5-point stencils"):
            rhs(s)
    assert evolve_chain(s, 1e-3, 0) == [s]


# ---------------------------------------------------------------------------
# first-flow continuum limit
# ---------------------------------------------------------------------------

def continuum_t1_rhs(s, order):
    """Continuum limit of the first flow through the requested order.

    Returns (du, dz), each as (2 depth + 1, grid) rows; needs a two-kind
    state, kind 1 the z fields.  The first flow is not rescaled in time, so
    order r terms carry eps^r directly.  The tables are the mechanical
    expansion of the lattice first-flow tables ``lax.flow_terms(1, kind, k)``
    (the printed continuum equations contain one stray x-derivative in the
    z^{k+1} u^{-1}_xx correction of the k < -1 branch), summed by the chain's
    own evaluator.
    """
    if len(s.rows) < 2:
        raise ValueError("first-flow continuum limit needs the z fields")
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    total, *parts = _t1_plan(order, s.depth)(s.rows, s.h).reshape(order + 1, *s.rows.shape)
    for r, part in enumerate(parts, 1):
        total += s.epsilon ** r * part
    du, dz = total
    return du, dz


@lru_cache(maxsize=None)
def _t1_plan(order, depth):
    """Row (r, kind, k) is the eps^r part of the expanded first-flow table
    of band k of the kind, compiled over the chain's stencils."""
    return lax._Plan([_float_tables(1, kind, k, order)[r] for r in range(order + 1)
                      for kind in "wv" for k in range(-depth, depth + 1)],
                     chain._stencils, (2, 2 * depth + 1))


def test_t1_z0_is_exact_at_every_order():
    rng = np.random.default_rng(4)
    s = _random_state(rng, with_z=True, epsilon=1 / 64)
    for order in (0, 1, 2):
        _du, dz = continuum_t1_rhs(s, order)
        assert np.abs(dz[s.depth] - s.u[0] * s.u[1]).max() == 0.0


def test_t1_leading_order_z_antisymmetry():
    rng = np.random.default_rng(5)
    s = _random_state(rng, with_z=True, epsilon=0.0)
    _du, dz = continuum_t1_rhs(s, 0)
    for k in range(1, s.depth + 1):
        assert np.abs(dz[k + s.depth] + dz[-k + s.depth]).max() < 1e-13


def test_t1_u0_corrections_start_at_second_order():
    rng = np.random.default_rng(6)
    s = _random_state(rng, with_z=True, epsilon=1 / 32)
    du0, _ = continuum_t1_rhs(s, 0)
    du1, _ = continuum_t1_rhs(s, 1)
    du2, _ = continuum_t1_rhs(s, 2)
    assert np.abs(du0[s.depth]).max() == 0.0
    assert np.abs(du1[s.depth]).max() == 0.0
    expected = 0.5 * s.epsilon ** 2 * dx2(_z(s)[0], s.h) * s.u[0]
    assert np.abs(du2[s.depth] - expected).max() < 1e-14


def test_t1_u_minus1_leading_order():
    rng = np.random.default_rng(7)
    s = _random_state(rng, with_z=True, epsilon=0.0)
    du, _ = continuum_t1_rhs(s, 0)
    expected = s.u[0] * (_z(s)[-1] - _z(s)[1])
    assert np.abs(du[-1 + s.depth] - expected).max() < 1e-14


def test_chain_state_has_the_lattice_band_layout():
    grid, d = 32, 3
    rng = np.random.default_rng(9)
    s = _random_state(rng, depth=d, grid=grid, with_z=True, epsilon=1 / 32)
    assert s.rows.shape == (2, 2 * d + 1, grid) and s.rows.dtype == np.float64
    assert (s.depth, s.grid_size, len(s.u), len(_z(s))) == (d, grid, 2 * d + 1, 2 * d + 1)
    # row k + depth of every right-hand side is band k: the printed u^0, u^1
    # equations, z^0_t1 = u^0 u^1 and u^-1_t1 = u^0 (z^-1 - z^1)
    u, z = s.u, _z(s)
    ux = {k: dx1(u[k], s.h) for k in (-1, 0, 1, 2)}
    u0_t = u[0] * u[1] * ux[0] + u[0] ** 2 * ux[1] + u[0] * ux[-1]
    u1_t = (2 * u[2] - u[1] ** 2) * ux[0] - u[0] * u[1] * ux[1] + u[0] * ux[2]
    rhs = chain_rhs_t2(_u_kind(s))
    assert rhs.shape == chain_rhs_t2_corrected(_u_kind(s), 2).shape == (2 * d + 1, grid)
    assert np.abs(rhs[d] - u0_t).max() < 1e-12
    assert np.abs(rhs[d + 1] - u1_t).max() < 1e-12
    du, dz = continuum_t1_rhs(s, 0)
    assert du.shape == dz.shape == (2 * d + 1, grid)
    assert np.abs(dz[d] - u[0] * u[1]).max() == 0.0
    assert np.abs(du[d - 1] - u[0] * (z[-1] - z[1])).max() < 1e-14

    # a band beyond depth is dropped, an omitted band reads zero
    x = np.arange(1, grid + 1) / grid
    bands = {0: 1.0 + 0.1 * np.sin(2 * math.pi * x), 1: 0.2 * np.cos(2 * math.pi * x)}
    plain = ChainState(h=1 / grid, depth=1, u=bands)
    wide = ChainState(h=1 / grid, depth=1, u={**bands, 2: np.full(grid, 5.0)})
    assert not hasattr(plain, "z") and plain.rows.shape == (1, 3, grid)
    assert not plain.rows[0, 0].any() and sorted(wide.u) == [-1, 0, 1]
    assert np.array_equal(chain_rhs_t2(wide), chain_rhs_t2(plain))

    traj = evolve_chain(ChainState(h=1 / grid, depth=1, u=bands, epsilon=0.01), 1e-3, 2)
    assert [(t.h, t.epsilon, t.rows.shape) for t in traj] == [(1 / grid, 0.01, (1, 3, grid))] * 3


def test_t1_requires_z_fields():
    rng = np.random.default_rng(8)
    s = _random_state(rng, with_z=False)
    with pytest.raises(ValueError, match="z fields"):
        continuum_t1_rhs(s, 0)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def test_constant_state_stays_constant():
    grid = 64
    u = {k: np.full(grid, 0.1 * k + 1.0) for k in range(-2, 3)}
    s = ChainState(h=1 / grid, depth=2, u=u)
    traj = evolve_chain(s, dt=1e-3, steps=20)
    for k in u:
        assert np.abs(traj[-1].u[k] - u[k]).max() < 1e-12


def test_smooth_small_amplitude_run_is_stable():
    grid = 256
    x = np.arange(1, grid + 1) / grid
    profile = default_profile(2)
    u = {k: 0.3 * profile[k](x) if k in profile else np.zeros(grid)
         for k in range(-3, 4)}
    u[0] = 1.0 + 0.1 * np.sin(2 * math.pi * x)
    s = ChainState(h=1 / grid, depth=3, u=u)
    traj = evolve_chain(s, dt=1e-3, steps=1000)  # T = 1
    assert all(np.all(np.isfinite(state.u[0])) for state in traj[-2:])


def test_self_convergence_under_refinement():
    def run(grid, steps, dt):
        x = np.arange(1, grid + 1) / grid
        u = {0: 1.0 + 0.1 * np.sin(2 * math.pi * x),
             1: 0.1 * np.cos(2 * math.pi * x),
             -1: 0.05 * np.sin(2 * math.pi * x)}
        u.update({k: np.zeros(grid) for k in (-3, -2, 2, 3)})
        s = ChainState(h=1 / grid, depth=3, u=u)
        return evolve_chain(s, dt=dt, steps=steps)[-1]

    t_final, dt = 0.1, 1e-3
    coarse = run(64, int(t_final / dt), dt)
    mid = run(128, int(t_final / dt), dt)
    fine = run(256, int(t_final / dt), dt)
    err_coarse = np.abs(coarse.u[0] - mid.u[0][1::2]).max()
    err_mid = np.abs(mid.u[0] - fine.u[0][1::2]).max()
    assert err_coarse / err_mid >= 3.0


def test_lax_friedrichs_cfl_guard():
    grid = 64
    u = {k: np.full(grid, 1.0) for k in range(-1, 2)}
    s = ChainState(h=1 / grid, depth=1, u=u)
    bound = s.h / (4 * max_row_sum(s))
    with pytest.raises(ValueError, match="CFL"):
        evolve_chain(s, dt=2 * bound, steps=1, scheme="lax-friedrichs")
    evolve_chain(s, dt=0.5 * bound, steps=2, scheme="lax-friedrichs")


def _max_row_sum_band_by_band(s):
    """max_row_sum as each row k's entries filtered out of all of them by
    band and summed in order: the reference for the row slices."""
    entries = np.abs(chain._matrix_plan(s.depth)[1](s.rows, s.h))
    bands = [k for k in range(-s.depth, s.depth + 1) for _a in lax.chain_matrix_terms(k)]
    worst = 0.0
    for k in range(-s.depth, s.depth + 1):
        total = sum(row for row, band in zip(entries, bands) if band == k)
        worst = max(worst, float(np.max(total)))
    return worst


@pytest.mark.parametrize("depth", [0, 3, 6])
def test_max_row_sum_equals_the_band_by_band_filter_sum(depth):
    s = _random_state(np.random.default_rng(depth), depth=depth, grid=256)
    got = max_row_sum(s)
    assert got > 0
    assert got.hex() == _max_row_sum_band_by_band(s).hex()


def test_a_plan_refuses_a_stack_of_another_shape():
    s = _random_state(np.random.default_rng(11), with_z=True, epsilon=1 / 64)
    t2 = chain._continuum_plan(0, s.depth)
    assert t2.shape == (1, 2 * s.depth + 1)
    for stack in (s.rows, s.rows[:1, 1:-1], s.rows[0]):
        with pytest.raises(ValueError, match="compiled for"):
            t2(stack, s.h)
    b = lax.random_bands(random.Random(3), 12, 3, even=True)
    with pytest.raises(ValueError, match="compiled for"):
        lax._lattice_plan(2, 1, 2)(b.rows)
    assert lax._lattice_plan(2, 1, 3)(b.rows).shape == (7, 12)


def test_unknown_scheme_rejected():
    s = ChainState(h=0.1, depth=1, u={0: np.ones(8)})
    with pytest.raises(ValueError, match="scheme"):
        evolve_chain(s, dt=1e-3, steps=1, scheme="upwind")


def test_blowup_detector_reports_location():
    grid = 32
    x = np.arange(1, grid + 1) / grid
    u = {k: 40.0 * np.sin(2 * math.pi * x) for k in range(-1, 2)}
    s = ChainState(h=1 / grid, depth=1, u=u)
    with pytest.raises((GradientCatastropheError, OverflowError)):
        for _ in range(10):
            s = evolve_chain(s, dt=0.05, steps=20)[-1]


# ---------------------------------------------------------------------------
# lattice vs continuum order measurement
# ---------------------------------------------------------------------------

def test_continuum_residual_orders():
    eps = [2 ** -6, 2 ** -7, 2 ** -8]
    reports = continuum_residual(default_profile(2), eps, orders=(0, 1, 2), depth=4)
    slopes = {rep["order"]: rep["slope"] for rep in reports}
    assert slopes[0] == pytest.approx(1.0, abs=0.1)
    assert slopes[1] == pytest.approx(2.0, abs=0.2)
    assert slopes[2] == pytest.approx(3.0, abs=0.3)


def test_continuum_residual_constant_profile_exact():
    const = {k: (lambda x, c=c: np.full_like(x, c))
             for k, c in [(0, 1.2), (1, 0.3), (-1, 0.2)]}
    reports = continuum_residual(const, [2 ** -6, 2 ** -7, 2 ** -8], depth=3)
    assert all(rep["slope"] == "exact" for rep in reports)


def test_evolve_chain_rejects_nonpositive_dt():
    s = ChainState(h=1 / 16, depth=1, u={0: np.ones(16)})
    for dt in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be positive"):
            evolve_chain(s, dt, 1)


def test_continuum_residual_needs_three_epsilons():
    with pytest.raises(ValueError, match="3 epsilon"):
        continuum_residual(default_profile(1), [1 / 64], depth=3)


def test_continuum_residual_names_a_repeated_order():
    with pytest.raises(ValueError, match="order 1 is listed twice"):
        continuum_residual(default_profile(1), [1 / 64, 1 / 128, 1 / 256], (0, 1, 1), depth=3)


def test_continuum_residual_names_a_repeated_epsilon():
    # three values but two spacings: the slopes would be fits through two points
    with pytest.raises(ValueError, match="eps 0.015625 is listed twice"):
        continuum_residual(default_profile(1), [1 / 64, 1 / 64, 1 / 128], depth=3)


@pytest.mark.parametrize("flow_k, kind, even", [
    (1, "w", False), (1, "v", False), (2, "w", False), (2, "v", False), (2, "w", True),
], ids=["t1_w", "t1_v", "t2_w", "t2_v", "t2_even"])
def test_full_expansion_equals_the_lattice_table_on_quadratic_profiles(flow_k, kind, even):
    # every band is a quadratic in x, so each factor's Taylor series stops at
    # eps^2 and the expansion through twice the largest factor count is exact
    rng = random.Random(f"{flow_k}{kind}{even}")
    eps, x, profile = F(1, 7), F(3, 5), {}

    def coeffs(kd, band):
        return profile.setdefault((kd, band), [F(rng.randint(-5, 5), rng.randint(1, 4))
                                               for _ in range(3)])

    def lattice_value(factor):  # (kind, band, site offset m) at x + eps m
        a, b, c = coeffs(*factor[:2])
        y = x + eps * factor[2]
        return a + b * y + c * y * y

    def continuum_value(factor):  # (kind, band, d): the d-th x-derivative at x
        a, b, c = coeffs(*factor[:2])
        d = factor[2]
        return (a + b * x + c * x * x, b + 2 * c * x, 2 * c)[d] if d < 3 else 0

    for k in range(-10, 11):
        table = flow_terms(flow_k, kind, k, even)
        top = 2 * max(map(len, table.terms))
        parts = expand_lattice_terms(table, top)
        assert len(parts) == top + 1
        assert sum(eps ** r * part.eval(continuum_value)
                   for r, part in enumerate(parts)) == table.eval(lattice_value), k
