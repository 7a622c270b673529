"""Continuum limit of the even lattice flow: the hydrodynamic chain, its
lattice-size corrections, the non-quasilinear first-flow limit, grid
evolution and the lattice-vs-continuum order measurement.

With the interpolation u^k(x) = w^k(x / eps), x = eps * n and the rescaled
time t = eps * t_2, the leading order of the even second flow is the
quasilinear chain

    u^k_t = a^k_0 u^0_x + a^k_1 u^1_x + a^k_{k-1} u^{k-1}_x + a^k_{k+1} u^{k+1}_x

The lattice table ``lax.t2_even_w_terms``, the v = 0 part of the second
flow's table ``lax.t2_w_terms``, is the only definition of that chain: every
right-hand side here (order 0, and the O(eps) and O(eps^2) corrections) is
its Taylor expansion ``lax.continuum_terms``, compiled once per band and
order, and the sparse coefficient rows a^k_j shared with the tensor engine
(integrability.paper_chain_spec) are read off the same order-0 expansion.
The expanded tables are summed by the lattice's own evaluator
(``lax._Fields``/``lax._sum_terms``), with 4th-order x-derivative stencils
in place of its site shifts, and ``evolve_chain`` steps the bands as one
(2 depth + 1, grid) array through the lattice's stepping loop.
The printed correction formulas carry sign typos in the u^0 u^1 coupling
group of the k < 0 and k > 1 branches; the tests keep the printed forms as
oracles against the expansion.

The first flow has no quasilinear limit: its continuum equations for
(u^k, z^k) = (w^k, v^k) interpolants mix orders, with z^0_t1 = u^0 u^1
exact and u^0_t1 starting only at eps^2.  Those right-hand sides are
evaluated through the same expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .integrability import paper_chain_spec
from .lax import (LaxBands, _Fields, _march, _rk4_step, _sum_terms, continuum_terms,
                  flow_t2_even_explicit, t1_v_terms, t1_w_terms, t2_even_w_terms)

__all__ = [
    "ChainState",
    "GradientCatastropheError",
    "chain_matrix_row",
    "chain_rhs_t2",
    "chain_rhs_t2_corrected",
    "continuum_t1_rhs",
    "max_row_sum",
    "evolve_chain",
    "continuum_residual",
    "default_profile",
    "trajectory_to_csv",
]


@dataclass
class ChainState:
    """Grid samples of the chain fields u^k (and optionally z^k).

    ``u`` maps the band index k (|k| <= depth) to samples on a uniform
    periodic grid of spacing h; missing bands read as zero.  ``epsilon``
    records the lattice spacing of the underlying lattice when the state
    was sampled from one (it scales the corrected right-hand sides).
    """

    h: float
    depth: int
    u: dict[int, np.ndarray]
    z: dict[int, np.ndarray] | None = None
    epsilon: float = 0.0

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError(f"depth {self.depth} must be non-negative")
        sizes = {arr.shape[0] for arr in self.u.values()}
        if self.z:
            sizes |= {arr.shape[0] for arr in self.z.values()}
        if len(sizes) > 1:
            raise ValueError("all band arrays must share one grid")
        self.grid_size = sizes.pop() if sizes else 0

    def uband(self, k: int) -> np.ndarray:
        arr = self.u.get(k)
        return arr if arr is not None else np.zeros(self.grid_size)

    def zband(self, k: int) -> np.ndarray:
        arr = (self.z or {}).get(k)
        return arr if arr is not None else np.zeros(self.grid_size)


# ---------------------------------------------------------------------------
# periodic derivative stencils (4th order, so the FD error sits below the
# eps^3 residual floor measured by the order test)
# ---------------------------------------------------------------------------


def _dx1(f: np.ndarray, h: float) -> np.ndarray:
    return (-np.roll(f, -2) + 8 * np.roll(f, -1)
            - 8 * np.roll(f, 1) + np.roll(f, 2)) / (12 * h)


def _dx2(f: np.ndarray, h: float) -> np.ndarray:
    return (-np.roll(f, -2) + 16 * np.roll(f, -1) - 30 * f
            + 16 * np.roll(f, 1) - np.roll(f, 2)) / (12 * h * h)


def _dx3(f: np.ndarray, h: float) -> np.ndarray:
    return (-np.roll(f, -3) + 8 * np.roll(f, -2) - 13 * np.roll(f, -1)
            + 13 * np.roll(f, 1) - 8 * np.roll(f, 2) + np.roll(f, 3)) / (8 * h ** 3)


_STENCILS = (None, _dx1, _dx2, _dx3)


# ---------------------------------------------------------------------------
# continuum right-hand sides: cached Taylor expansions of the lattice tables
# ---------------------------------------------------------------------------


def _fields(s: ChainState) -> _Fields:
    """(kind, band, x-derivative order) -> array of a state ("w" -> u,
    "v" -> z); absent bands read zero."""

    def derivative(row: np.ndarray, r: int) -> np.ndarray:
        if r == 3 and s.grid_size < 7:
            raise ValueError("grid too coarse for the third-derivative stencil")
        return _STENCILS[r](row, s.h)

    return _Fields({"w": s.u, "v": s.z or {}}, derivative, np.zeros(s.grid_size))


def _continuum_rhs(s: ChainState, table: Callable[[int], list], order: int,
                   rescale: bool, fields: _Fields) -> dict[int, np.ndarray]:
    """sum_r eps^r (eps^r part of the expanded table) for every |k| <= depth."""
    out = {}
    for k in range(-s.depth, s.depth + 1):
        parts = [_sum_terms(terms, fields)
                 for terms in continuum_terms(table, k, order, rescale)]
        total = parts[0]
        for r, part in enumerate(parts[1:], 1):
            total += s.epsilon ** r * part
        out[k] = total
    return out


def chain_rhs_t2(s: ChainState) -> dict[int, np.ndarray]:
    """Leading-order chain right-hand side (the O(eps) part of the even
    lattice flow over eps); central 4th-order x-derivatives."""
    return _continuum_rhs(s, t2_even_w_terms, 0, True, _fields(s))


def chain_rhs_t2_corrected(s: ChainState, order: int) -> dict[int, np.ndarray]:
    """Chain right-hand side including lattice-size corrections.

    order 0 is chain_rhs_t2; order 1 adds the O(eps) terms and order 2 the
    O(eps^2) terms, with eps read from the state.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    return _continuum_rhs(s, t2_even_w_terms, order, True, _fields(s))


def continuum_t1_rhs(s: ChainState, order: int) -> tuple[dict, dict]:
    """Continuum limit of the first flow through the requested order.

    Returns (du, dz); needs the z fields.  The first flow is not rescaled
    in time, so order r terms carry eps^r directly.  The tables are the
    mechanical expansion of the verified lattice first-flow formulas (the
    printed continuum equations contain one stray x-derivative in the
    z^{k+1} u^{-1}_xx correction of the k < -1 branch).
    """
    if s.z is None:
        raise ValueError("first-flow continuum limit needs the z fields")
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    fields = _fields(s)
    return (_continuum_rhs(s, t1_w_terms, order, False, fields),
            _continuum_rhs(s, t1_v_terms, order, False, fields))


# ---------------------------------------------------------------------------
# the chain matrix rows
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _float_row(k: int) -> tuple:
    """Row k of paper_chain_spec with float coefficients: (j, ((c, mono), ...))."""
    return tuple((j, tuple((float(c), mono) for mono, c in poly.terms.items()))
                 for j, poly in paper_chain_spec().rows(k).items())


def _row_values(k: int, value_of: Callable[[int], object]) -> dict:
    return {j: sum(c * math.prod(value_of(p) for p in mono) for c, mono in terms)
            for j, terms in _float_row(k)}


def chain_matrix_row(u_window: Mapping[int, float], k: int) -> dict[int, float]:
    """Nonzero coefficients of row k of the chain matrix at a point.

    Colliding structural columns (k = -1 hits column 0, k = 2 hits column 1)
    come out merged by summation, which is what the printed component
    equations for u^0_t and u^1_t pin down.
    """
    return _row_values(k, lambda p: u_window.get(p, 0.0))


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


class GradientCatastropheError(RuntimeError):
    def __init__(self, step: int, band: int, index: int):
        super().__init__(f"non-finite value at step {step}, band {band}, cell {index}")
        self.step = step


def max_row_sum(s: ChainState) -> float:
    """max_k sum_j |a^k_j| over the grid; the CFL scale of the chain."""
    worst = 0.0
    for k in range(-s.depth, s.depth + 1):
        total = sum(np.abs(v) for v in _row_values(k, s.uband).values())
        worst = max(worst, float(np.max(total)))
    return worst


def evolve_chain(s: ChainState, dt: float, steps: int,
                 scheme: str = "rk4-central") -> list[ChainState]:
    """Time-step the leading-order chain with periodic boundaries; the bands
    |k| <= depth are stepped as one (2 depth + 1, grid) stack and any other
    band of ``s`` reads zero."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if scheme not in ("rk4-central", "lax-friedrichs"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "lax-friedrichs":
        bound = s.h / (4 * max(max_row_sum(s), 1e-12))
        if dt > bound:
            raise ValueError(f"CFL violation: dt={dt} exceeds {bound:.3e}")
    bands = range(-s.depth, s.depth + 1)

    def state(y: np.ndarray) -> ChainState:
        return ChainState(h=s.h, depth=s.depth, u=dict(zip(bands, y)),
                          epsilon=s.epsilon)

    def rhs(y: np.ndarray) -> np.ndarray:
        d = chain_rhs_t2(state(y))
        return np.array([d[k] for k in bands])

    def step(y: np.ndarray) -> np.ndarray:
        if scheme == "rk4-central":
            return _rk4_step(rhs, dt, y)
        return 0.5 * (np.roll(y, 1, axis=1) + np.roll(y, -1, axis=1)) + dt * rhs(y)

    def blowup(i: int, j: int) -> GradientCatastropheError:
        return GradientCatastropheError(i, j // s.grid_size - s.depth, j % s.grid_size)

    y0 = np.array([s.uband(k) for k in bands])
    return [s] + [state(y) for y in _march(y0, step, steps, blowup)[1:]]


# ---------------------------------------------------------------------------
# lattice-vs-continuum order measurement
# ---------------------------------------------------------------------------


def default_profile(band_support: int = 2) -> dict[int, Callable[[np.ndarray], np.ndarray]]:
    """Smooth 1-periodic band profiles with compact band support.

    u^0 stays positive; amplitudes decay with |k| to keep the dynamics tame.
    """
    two_pi = 2 * math.pi

    def mk(a, b, phase):
        return lambda x: a + b * np.sin(two_pi * x + phase)

    profile = {0: mk(1.1, 0.25, 0.0)}
    for k in range(1, band_support + 1):
        amp = 0.4 / k
        profile[k] = mk(0.1 * k, amp, 0.7 * k)
        profile[-k] = mk(-0.05 * k, 0.8 * amp, -0.4 * k)
    return profile


def continuum_residual(profile: Mapping[int, Callable], eps_list: Sequence[float],
                       orders: Sequence[int] = (0, 1, 2), depth: int = 4) -> list[dict]:
    """Sample the 1-periodic profile on lattices of spacing eps, evaluate the
    even lattice flow, and measure how fast the corrected chain right-hand
    side converges to it: sup-norm residual slopes ~ order + 1.  Bands
    |k| <= depth - 2 are compared at sites more than depth + 3 from either
    end of the lattice.
    """
    if len(eps_list) < 3:
        raise ValueError("need at least 3 epsilon values to fit a slope")
    if not orders:
        raise ValueError("need at least one correction order")
    if depth < 2:
        raise ValueError(f"depth {depth} leaves no band to compare; need depth >= 2")
    reports = []
    residuals = {r: [] for r in orders}
    for eps in eps_list:
        if not eps > 0:
            raise ValueError(f"eps={eps} must be positive")
        n_sites = int(round(1 / eps))
        if abs(n_sites * eps - 1) > 1e-12:
            raise ValueError(f"eps={eps} does not divide the period 1")
        margin = depth + 3
        if n_sites <= 2 * margin:
            raise ValueError(f"eps={eps} leaves no site more than {margin} "
                             f"from the lattice ends")
        interior = slice(margin, n_sites - margin)
        x = eps * np.arange(1, n_sites + 1)
        u = {k: fn(x) for k, fn in profile.items()}
        bands = range(-depth, depth + 1)
        rows = np.array([u.get(k, np.zeros(n_sites)) for k in bands], dtype=float)
        lattice = flow_t2_even_explicit(LaxBands._of(rows[None], np.ones((1,) + rows.shape, bool)))
        lat = lattice.rows[0, 2:-2, interior] / eps  # bands |k| <= depth - 2
        state = ChainState(h=eps, depth=depth, u=dict(zip(bands, rows)), epsilon=eps)
        for r in orders:
            cont = chain_rhs_t2_corrected(state, r)
            cont_rows = np.array([cont[k][interior] for k in bands[2:-2]])
            residuals[r].append(float(np.max(np.abs(lat - cont_rows))))
    for r in orders:
        res = residuals[r]
        # roundoff from the 1/eps rescaling sits at ~1e-13; genuine residuals
        # at these eps are >= 1e-7
        if max(res) < 1e-12:
            slope = "exact"
        else:
            logs = np.log(np.array(res))
            le = np.log(np.array(list(eps_list), dtype=float))
            slope = float(np.polyfit(le, logs, 1)[0])
        reports.append({"order": r, "eps": [float(e) for e in eps_list],
                        "residual": [float(v) for v in res], "slope": slope})
    return reports


def trajectory_to_csv(traj: Sequence[ChainState], path) -> None:
    """Rows step,k,m,x,u with floats as ``repr`` and csv's \\r\\n line ends;
    each band is written as one string."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("step,k,m,x,u\r\n")
        for step, state in enumerate(traj):
            cells = [f"{m},{m * state.h!r}," for m in range(state.grid_size)]
            for k in sorted(state.u):
                head = f"{step},{k},"
                vals = np.asarray(state.u[k], dtype=float).tolist()
                fh.write("".join(f"{head}{cell}{val!r}\r\n"
                                 for cell, val in zip(cells, vals)))
