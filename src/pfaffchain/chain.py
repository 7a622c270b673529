"""Continuum limit of the even lattice flow: the hydrodynamic chain, its
lattice-size corrections, grid evolution and the lattice-vs-continuum
order measurement.

With the interpolation u^k(x) = w^k(x / eps), x = eps * n and the rescaled
time t = eps * t_2, the leading order of the even second flow is the
quasilinear chain

    u^k_t = a^k_0 u^0_x + a^k_1 u^1_x + a^k_{k-1} u^{k-1}_x + a^k_{k+1} u^{k+1}_x

The chain has no definition of its own.  Its source is the Lax matrix: the
even second-flow table ``lax.flow_terms(2, "w", k, even=True)`` is read off
the commutator on L with v = 0, and every right-hand side here (order 0,
and the O(eps) and O(eps^2) corrections) is that table's Taylor expansion
``lax.expand_lattice_terms``.  The coefficients a^k_j have one reader,
``lax.chain_matrix_terms`` (Polys, the order-0 expansion's derivatives by
u^j_x), which ``max_row_sum`` sums here and the tensor engine
(``integrability.paper_chain_spec``) reads exactly.  The expanded tables
of every band, and of every eps order a right-hand side reads, are
compiled once per (order, depth) into one plan of the lattice's own
evaluator (``lax._Plan``), which reads each 4th-order x-derivative where
the lattice reads a site shift: each stencil runs once per call on the
whole band stack, through slices of one periodic wrap-pad (``_stencils``).
A state (``ChainState``) has the even lattice's band layout: one (1,
2 depth + 1, grid) array ``rows`` of the u bands, row k + depth band k, so
u^k(x) = w^k(x / eps) is the same array read on a grid.  The right-hand
sides return (2 depth + 1, grid) arrays in that row order, and
``evolve_chain`` steps the rows through the lattice's stepping loop.  The
printed correction formulas carry sign typos in the u^0 u^1 coupling group
of the k < 0 and k > 1 branches; the tests keep the printed forms as
oracles against the expansion.

The first flow has no quasilinear limit: its continuum equations for
(u^k, z^k) = (w^k, v^k) interpolants mix orders, with z^0_t1 = u^0 u^1
exact and u^0_t1 starting only at eps^2.  The tests evaluate them as an
oracle (``continuum_t1_rhs`` in ``tests/test_chain.py``) through their own
``lax._Plan`` over ``_stencils``, on a two-kind (u, z) stack.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .lax import (LaxBands, _Plan, _march, _rk4_step, chain_matrix_terms,
                  expand_lattice_terms, flow_t2_even_explicit, flow_terms)

__all__ = [
    "ChainState",
    "GradientCatastropheError",
    "chain_rhs_t2",
    "chain_rhs_t2_corrected",
    "max_row_sum",
    "evolve_chain",
    "continuum_residual",
    "default_profile",
    "trajectory_to_csv",
]


class ChainState:
    """Grid samples of the chain fields u^k, |k| <= depth, on a uniform
    periodic grid of spacing h.

    ``rows[0, k + depth]`` holds the samples of u^k, so ``rows`` is one
    float64 array of shape (1, 2 depth + 1, grid), the ``lax.LaxBands``
    layout of an even-reduced state.  The constructor takes a {k: samples}
    mapping: omitted bands read zero and bands |k| > depth are dropped.
    ``u`` is a {k: row} view of ``rows``.  ``epsilon`` records the lattice
    spacing of the underlying lattice when the state was sampled from one
    (it scales the corrected right-hand sides).
    """

    def __init__(self, h: float, depth: int, u: Mapping[int, np.ndarray],
                 epsilon: float = 0.0):
        if depth < 0:
            raise ValueError(f"depth {depth} must be non-negative")
        sizes = {len(arr) for arr in u.values()}
        if len(sizes) > 1:
            raise ValueError("all band arrays must share one grid")
        rows = np.zeros((1, 2 * depth + 1, sizes.pop() if sizes else 0))
        for k, arr in u.items():
            if abs(k) <= depth:
                rows[0, k + depth] = arr
        self.h, self.rows, self.epsilon = h, rows, epsilon

    @classmethod
    def _of(cls, h: float, rows: np.ndarray, epsilon: float) -> "ChainState":
        s = cls.__new__(cls)
        s.h, s.rows, s.epsilon = h, rows, epsilon
        return s

    depth = property(lambda self: (self.rows.shape[1] - 1) // 2)
    grid_size = property(lambda self: self.rows.shape[2])
    u = property(lambda self: _by_band(self.rows[0]))


def _by_band(rows: np.ndarray) -> dict[int, np.ndarray]:
    """{k: row k + depth} over a (2 depth + 1, grid) stack; the rows are views."""
    depth = len(rows) // 2
    return dict(zip(range(-depth, depth + 1), rows))


# ---------------------------------------------------------------------------
# periodic derivative stencils along the last axis (4th order, so the FD
# error sits below the eps^3 residual floor measured by the order test),
# read through slices of one periodic wrap-pad of the stack
# ---------------------------------------------------------------------------

_PAD = 3  # the reach of the widest stencil, the third derivative's


def _wrap_pad(f: np.ndarray) -> np.ndarray:
    """``f`` extended periodically by ``_PAD`` points at both ends of its
    last axis."""
    return np.concatenate([f[..., -_PAD:], f, f[..., :_PAD]], axis=-1)


def _at(fp: np.ndarray, s: int) -> np.ndarray:
    """The value at point i + s of every point i, read off a wrap-padded
    array (``np.roll(f, -s, -1)``)."""
    return fp[..., _PAD + s:fp.shape[-1] - _PAD + s]


def _dx1(fp: np.ndarray, h: float) -> np.ndarray:
    return (-_at(fp, 2) + 8 * _at(fp, 1) - 8 * _at(fp, -1) + _at(fp, -2)) / (12 * h)


def _dx2(fp: np.ndarray, h: float) -> np.ndarray:
    return (-_at(fp, 2) + 16 * _at(fp, 1) - 30 * _at(fp, 0)
            + 16 * _at(fp, -1) - _at(fp, -2)) / (12 * h * h)


def _dx3(fp: np.ndarray, h: float) -> np.ndarray:
    return (-_at(fp, 3) + 8 * _at(fp, 2) - 13 * _at(fp, 1)
            + 13 * _at(fp, -1) - 8 * _at(fp, -2) + _at(fp, -3)) / (8 * h ** 3)


_STENCILS = (None, _dx1, _dx2, _dx3)


def _stencils(rows: np.ndarray, stack: np.ndarray, copies: list, h: float) -> None:
    """Continuum factor rows for a ``lax._Plan``: copy i is the copies[i]-th
    x-derivative of the stack (copy 0 the stack itself), each stencil
    applied once to the whole wrap-padded stack.  A periodic stencil must
    not wrap onto itself: the 5-point first and second derivatives need 5
    grid points, the third derivative 7."""
    grid = stack.shape[2]
    if grid < 5:
        raise ValueError(f"grid of {grid} points too coarse for the 5-point stencils")
    if 3 in copies and grid < 7:
        raise ValueError("grid too coarse for the third-derivative stencil")
    flat = stack.reshape(-1, grid)
    padded = _wrap_pad(flat) if max(copies, default=0) else None
    for i, d in enumerate(copies):
        rows[i * len(flat):(i + 1) * len(flat)] = _STENCILS[d](padded, h) if d else flat


# ---------------------------------------------------------------------------
# continuum right-hand sides: compiled Taylor expansions of the lattice tables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _continuum_plan(order: int, depth: int) -> _Plan:
    """Row (r, k) is the eps^r part, r <= order, of the expanded even
    ``lax.flow_terms(2, "w", k, even=True)`` table over eps, for every
    |k| <= depth; compiled on first use for the u stack."""
    parts = [expand_lattice_terms(flow_terms(2, "w", k, True), order, True)
             for k in range(-depth, depth + 1)]
    return _Plan([sorted(part[r].terms.items()) for r in range(order + 1) for part in parts],
                 _stencils, (1, 2 * depth + 1))


def _continuum_parts(s: ChainState, order: int) -> np.ndarray:
    """(order + 1, 2 depth + 1, grid): part r is the eps^r part of the
    expanded tables over the state, before the factor eps^r."""
    return _continuum_plan(order, s.depth)(s.rows, s.h).reshape(order + 1, *s.rows.shape[1:])


def chain_rhs_t2(s: ChainState) -> np.ndarray:
    """Leading-order chain right-hand side (the O(eps) part of the even
    lattice flow over eps); central 4th-order x-derivatives.  It is the
    order-0 case of ``chain_rhs_t2_corrected``."""
    return chain_rhs_t2_corrected(s, 0)


def chain_rhs_t2_corrected(s: ChainState, order: int) -> np.ndarray:
    """Chain right-hand side including lattice-size corrections.

    order 0 is chain_rhs_t2; order 1 adds the O(eps) terms and order 2 the
    O(eps^2) terms, with eps read from the state.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    total, *parts = _continuum_parts(s, order)
    for r, part in enumerate(parts, 1):
        total += s.epsilon ** r * part
    return total


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


class GradientCatastropheError(RuntimeError):
    def __init__(self, step: int, band: int, index: int):
        super().__init__(f"non-finite value at step {step}, band {band}, cell {index}")
        self.step = step


@lru_cache(maxsize=None)
def _matrix_plan(depth: int) -> tuple[list[slice], _Plan]:
    """The slice of each chain-matrix row |k| <= depth in its entries a^k_j,
    and the entries, compiled on first use for the u stack."""
    slices, tables = [], []
    for k in range(-depth, depth + 1):
        row = chain_matrix_terms(k).values()
        slices.append(slice(len(tables), len(tables) + len(row)))
        tables += [sorted(a.terms.items()) for a in row]
    return slices, _Plan(tables, _stencils, (1, 2 * depth + 1))


def max_row_sum(s: ChainState) -> float:
    """max_k sum_j |a^k_j| over the grid; the CFL scale of the chain."""
    slices, plan = _matrix_plan(s.depth)
    entries = np.abs(plan(s.rows, s.h))
    return max([0.0] + [float(np.max(sum(entries[at]))) for at in slices])


# RK4 is stable on the imaginary axis up to |dt lambda| = 2 sqrt(2).  The
# symbol of the 4th-order central first-derivative stencil, (8 sin t - sin 2t)
# / 6, peaks at 1.3722 (at cos t = 1 - sqrt(3/2)), and every eigenvalue of the
# chain matrix is bounded by its largest row sum, so a CFL number
# dt * max_row_sum / h up to this bound keeps the linearised scheme stable.
_RK4_CENTRAL_CFL = 2 * math.sqrt(2) / 1.3722


def evolve_chain(s: ChainState, dt: float, steps: int,
                 scheme: str = "rk4-central") -> list[ChainState]:
    """Time-step the leading-order chain with periodic boundaries: the u rows
    ``s.rows[0]``, one (2 depth + 1, grid) stack, go through the lattice's
    stepping loop.  Every state keeps ``h`` and ``epsilon``; the first is
    ``s`` itself."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if scheme not in ("rk4-central", "lax-friedrichs"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "lax-friedrichs":
        bound = s.h / (4 * max(max_row_sum(s), 1e-12))
        if dt > bound:
            raise ValueError(f"CFL violation: dt={dt} exceeds {bound:.3e}")

    def rhs(y: np.ndarray) -> np.ndarray:
        return chain_rhs_t2(ChainState._of(s.h, y[None], s.epsilon))

    def step(y: np.ndarray) -> np.ndarray:
        if scheme == "rk4-central":
            return _rk4_step(rhs, dt, y)
        return 0.5 * (np.roll(y, 1, axis=1) + np.roll(y, -1, axis=1)) + dt * rhs(y)

    def blowup(i: int, j: int) -> GradientCatastropheError:
        return GradientCatastropheError(i, j // s.grid_size - s.depth, j % s.grid_size)

    return [s] + [ChainState._of(s.h, y[None], s.epsilon)
                  for y in _march(s.rows[0], step, steps, blowup)[1:]]


# ---------------------------------------------------------------------------
# lattice-vs-continuum order measurement
# ---------------------------------------------------------------------------


def default_profile(band_support: int = 2) -> dict[int, Callable[[np.ndarray], np.ndarray]]:
    """Smooth 1-periodic band profiles with compact band support.

    u^0 stays positive; amplitudes decay with |k| to keep the dynamics tame.
    """
    if band_support < 0:
        raise ValueError(f"band_support {band_support} must be non-negative")
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
    for what, values in (("eps", eps_list), ("correction order", orders)):
        for i, v in enumerate(values):
            if v in values[:i]:
                raise ValueError(f"{what} {v} is listed twice")
    if depth < 2:
        raise ValueError(f"depth {depth} leaves no band to compare; need depth >= 2")
    if any(r not in (0, 1, 2) for r in orders):
        raise ValueError("order must be 0, 1 or 2")
    top = max(orders)
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
        state = ChainState(h=eps, depth=depth, u={k: fn(x) for k, fn in profile.items()},
                           epsilon=eps)
        lattice = flow_t2_even_explicit(LaxBands._of(state.rows,
                                                     np.ones(state.rows.shape, bool)))
        lat = lattice.rows[0, 2:-2, interior] / eps  # bands |k| <= depth - 2
        # the order-r right-hand side is the order-(r - 1) one plus its
        # eps^r part, so every order is read off one evaluation of the parts
        total, *parts = _continuum_parts(state, top)
        for r in range(top + 1):
            if r:
                total += state.epsilon ** r * parts[r - 1]
            if r in residuals:
                residuals[r].append(float(np.max(np.abs(lat - total[2:-2, interior]))))
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
    """Rows step,k,m,x,u for every band |k| <= depth of every state, with
    floats as ``repr`` and csv's \\r\\n line ends.  The states share one
    grid and spacing h (those of an ``evolve_chain`` trajectory), so the m,x
    cells are built once; each band is written as one string."""
    if any(s.h != traj[0].h or s.grid_size != traj[0].grid_size for s in traj):
        raise ValueError("the states of a trajectory must share one grid and spacing")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("step,k,m,x,u\r\n")
        if not traj or not traj[0].grid_size:
            return
        cells = [f"{m},{m * traj[0].h!r}," for m in range(traj[0].grid_size)]
        for step, state in enumerate(traj):
            for k, row in zip(range(-state.depth, state.depth + 1), state.rows[0]):
                head = f"{step},{k},"
                fh.write("".join(f"{head}{cell}{val!r}\r\n"
                                 for cell, val in zip(cells, row.tolist())))
