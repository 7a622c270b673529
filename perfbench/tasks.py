"""Seeded workloads and the check of every task's output.

A task is one user-level operation: an in-process ``pfaffchain.cli.main``
call where a subcommand exists, otherwise one call into a library entry
point.  Each workload repeats a fixed round of tasks in a fixed order, so
the mix, the moment-table cache pattern and with them the cost are the same
from seed to seed.  The seed picks every task's input variant (CLI seed,
sampling offset, random band state, quadrature nodes) from a pool of
``VARIANTS``, so that each input with a float trajectory or a negative
control has a reference value recorded in ``reference.json``, and draws the
couplings of the ensemble workload.

Tolerances are the ones pinned in ``tests/test_acceptance.py``; float
trajectories are compared with the recorded references to ``REL_TOL``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from pfaffchain import chain, ensemble, lax

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

VARIANTS = 8
REL_TOL = 1e-9           # float trajectories vs recorded references
COMMUTATOR_TOL = 1e-12   # lax-verify: commutator vs flow tables, relative
SELBERG_TOL = 1e-6       # t = 0 tau ratio vs closed form, relative
FLOW_LAW_TOL = 1e-5      # moment-flow law residual
SLOPE_BANDS = {0: 0.15, 1: 0.2, 2: 0.3}   # continuum residual slope - (order + 1)
INITIAL_BANDS_TOL = 1e-8  # w^0_n vs sqrt(n (2n - 1) / 2) at t = 0

RK4_DT = 1e-3
RK4_DEPTH = 4
ENSEMBLE_NODES = (160, 200)
MUTATED_SPEC = {"base": "paper", "overrides": {"0,1": [["1", [0]]]}}

# Tasks that fail at the growth seed because of known program defects.  They
# stay in the rounds and count as failed; a failure of any other task makes
# the run incorrect.  A fix shows as a drop in failed tasks.
KNOWN_DEFECTS = {
    "skew_factorize compares the pivot with 1e-14 * max|a| (lax.py:710), "
    "so every N >= 10 raises FactorizationError":
        ["initial-bands sites=12", "initial-bands sites=16"],
    "the t = 0 tau ratio of the monomial moment basis drifts past 1e-6 at "
    "n = 12 (1e-5 at 200 nodes, 5e-6 at 160)":
        ["tau n_max=12", "moments n=12"],
}


class CheckError(Exception):
    """A task's output is wrong; ``health`` keeps values measured before."""

    def __init__(self, msg: str, health: dict | None = None):
        super().__init__(msg)
        self.health = health or {}


@dataclass
class Task:
    """One operation with its check.

    ``label`` names the kind and size and is unique within a workload's
    round; known defects are listed by label.  A CLI task has ``argv``
    (without ``--out``) and returns its exit code; a library task has
    ``call``.  ``check(task, value, out_dir)`` raises CheckError on a wrong
    output and returns health values; ``digest(task, value, out_dir)``,
    when present, must match the reference recorded for ``ref_key``.
    """

    label: str
    variant: int
    check: Callable
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    expect_exit: int = 0
    digest: Callable | None = None
    params: dict = field(default_factory=dict)

    @property
    def ref_key(self) -> str:
        return f"{self.label}#{self.variant}"


class Inputs:
    """Seeded inputs shared by the tasks of one run."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.workload = workload
        self.rng = random.Random(f"{workload}/{seed}")
        self.work_dir = work_dir
        self.spec_path = work_dir / "mutated_spec.json"
        self.rk4_bands: dict[tuple[int, int], lax.LaxBands] = {}
        self.exact_bands: dict[int, lax.LaxBands] = {}
        if workload == "lattice":
            for n_sites in (64, 512, 2048):
                for v in range(VARIANTS):
                    self.rk4_bands[(n_sites, v)] = profile_bands(n_sites, v)
        elif workload == "exact":
            self.spec_path.write_text(json.dumps(MUTATED_SPEC), encoding="utf-8")
            for v in range(VARIANTS):
                self.exact_bands[v] = lax.random_bands(random.Random(v), 18, 3,
                                                       exact=True)
        elif workload == "ensemble":
            self.warm_couplings = self.draw_couplings()

    def draw_couplings(self) -> ensemble.CouplingVector:
        return ensemble.CouplingVector({1: self.rng.uniform(-0.15, 0.15),
                                        2: self.rng.uniform(-0.1, 0.1)})


def profile_bands(n_sites: int, variant: int) -> lax.LaxBands:
    """chain.default_profile sampled at spacing 1/N, shifted by variant/VARIANTS
    of a spacing; all 2K+1 bands are stored so RK4 updates every one."""
    x = (np.arange(1, n_sites + 1) + variant / VARIANTS) / n_sites
    profile = chain.default_profile(2)
    w = {}
    for k in range(-RK4_DEPTH, RK4_DEPTH + 1):
        vals = profile[k](x) if k in profile else np.zeros(n_sites)
        for n in range(1, n_sites + 1):
            w[(k, n)] = float(vals[n - 1])
    return lax.LaxBands(sites=n_sites, depth=RK4_DEPTH, w=w, even_reduced=True)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _load(out_dir: Path, name: str) -> dict:
    path = out_dir / name
    if not path.is_file():
        raise CheckError(f"missing report {name}")
    return json.loads(path.read_text(encoding="utf-8"))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def check_rk4(task, traj, out_dir):
    _require(len(traj) == task.params["steps"] + 1, "wrong trajectory length")
    for state in traj:
        _require(all(math.isfinite(x) for x in state.w.values()), "non-finite band")
    return {}


def digest_rk4(task, traj, out_dir):
    vals = list(traj[-1].w.values())
    return [len(vals), math.fsum(vals), math.fsum(x * x for x in vals),
            max(abs(x) for x in vals)]


def check_lax_verify(task, code, out_dir):
    rep = _load(out_dir, "lax_verify.json")
    _require(rep["flows"] == ["t1", "t2", "t2_even"], f"flows {rep['flows']}")
    _require(rep["pass"] is True, "report says fail")
    _require(0 <= rep["max_mismatch"] <= COMMUTATOR_TOL,
             f"max_mismatch {rep['max_mismatch']}")
    return {"lax.max_mismatch": rep["max_mismatch"]}


def digest_lax_verify(task, code, out_dir):
    return [_load(out_dir, "lax_verify.json")["slots_checked"]]


def _chain_csv_columns(out_dir: Path) -> list[float]:
    path = out_dir / "chain_trajectory.csv"
    if not path.is_file():
        raise CheckError("missing chain_trajectory.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    _require(lines and lines[0] == "step,k,m,x,u", "bad CSV header")
    return [float(line.rsplit(",", 1)[1]) for line in lines[1:]]


def check_chain_evolve(task, code, out_dir):
    """Row count and finiteness are covered by the digest's exact row count
    and its finite sums."""
    p = task.params
    return {"chain.cfl_number": cfl_number(p["grid"], p["depth"], p["dt"])}


def digest_chain_evolve(task, code, out_dir):
    u = _chain_csv_columns(out_dir)
    return [len(u), math.fsum(u), math.fsum(x * x for x in u)]


@lru_cache(maxsize=None)
def cfl_number(grid: int, depth: int, dt: float) -> float:
    """dt * max_row_sum / h of the CLI's initial chain state."""
    x = (1.0 / grid) * np.arange(1, grid + 1)
    u = {k: fn(x) for k, fn in chain.default_profile(2).items()}
    state = chain.ChainState(h=1.0 / grid, depth=depth,
                             u={k: u.get(k, np.zeros(grid))
                                for k in range(-depth, depth + 1)})
    return dt * chain.max_row_sum(state) * grid


def check_continuum(task, code, out_dir):
    reports = _load(out_dir, "continuum_check.json")["reports"]
    _require([r["order"] for r in reports] == [0, 1, 2], "wrong orders")
    for rep in reports:
        slope = rep["slope"]
        _require(slope != "exact" and abs(slope - (rep["order"] + 1))
                 <= SLOPE_BANDS[rep["order"]],
                 f"order {rep['order']}: slope {slope}")
    return {}


def check_haantjes(task, code, out_dir):
    rep = _load(out_dir, "haantjes_scan.json")
    _require(rep["window"] == 6 and rep["points"] == 1, "wrong scan size")
    _require(rep["haantjes_nonzero"] == [], "nonzero Haantjes entries")
    return {}


def check_haantjes_mutated(task, code, out_dir):
    rep = _load(out_dir, "haantjes_scan.json")
    _require(all(item["value"] not in ("0", "") for item in rep["haantjes_nonzero"]),
             "zero value listed as nonzero")
    return {}


def digest_haantjes_mutated(task, code, out_dir):
    return [len(_load(out_dir, "haantjes_scan.json")["haantjes_nonzero"])]


def check_nijenhuis(task, code, out_dir):
    rep = _load(out_dir, "nijenhuis_oracle.json")
    _require(rep["nijenhuis_mismatches"] == [], "Nijenhuis table mismatches")
    return {}


def digest_nijenhuis(task, code, out_dir):
    return [_load(out_dir, "nijenhuis_oracle.json")["entries_checked"]]


def check_gt(task, code, out_dir):
    rep = _load(out_dir, "gt_involutivity.json")
    _require(rep["jets"] == task.params["jets"], "wrong jet count")
    _require(rep["eigen_residual"] == "0", f"eigen residual {rep['eigen_residual']}")
    if not task.params["mutate"]:
        _require(rep["max_involutivity_residual"] == "0",
                 f"involutivity residual {rep['max_involutivity_residual']}")
    else:
        _require(Fraction(rep["max_involutivity_residual"]) > 0,
                 "mutated control left the residual zero")
    return {}


def digest_gt_mutated(task, code, out_dir):
    return [_load(out_dir, "gt_involutivity.json")["max_involutivity_residual"]]


def check_commutator_exact(task, value, out_dir):
    comm, mask, expl = value
    _require(len(mask) > 0, "empty interior mask")
    nonzero = 0
    for kind, k, n in mask:
        c, e = comm.get(kind, k, n), expl.get(kind, k, n)
        _require(isinstance(c, (Fraction, int)) and isinstance(e, (Fraction, int)),
                 f"non-exact value at {kind}^{k}_{n}")
        _require(c == e, f"{kind}^{k}_{n}: commutator {c} != table {e}")
        nonzero += c != 0
    _require(nonzero > 0, "all interior derivatives are zero")
    return {}


def digest_commutator_exact(task, value, out_dir):
    comm, mask, _ = value
    return [len(mask), sum(comm.get(*slot) != 0 for slot in mask)]


def _selberg_health(rows) -> dict:
    """Largest |tau ratio / closed form - 1| over the report rows."""
    dev = max(abs(row["selberg_ratio_check"] - 1.0) for row in rows)
    health = {"ensemble.selberg_dev_max": dev}
    if dev > SELBERG_TOL:
        raise CheckError(f"Selberg ratio off by {dev:.2e}", health)
    return health


def check_tau(task, code, out_dir):
    rows = _load(out_dir, "tau_table.json")["table"]
    _require([r["n"] for r in rows] == list(range(1, task.params["n"] + 1)),
             "wrong table rows")
    _require(all(r["tau"] > 0 and math.isfinite(r["tau"]) for r in rows),
             "nonpositive tau")
    return _selberg_health(rows)


def check_moments(task, code, out_dir):
    n = task.params["n"]
    rep = _load(out_dir, f"tau_n{n}.json")
    csv_path = out_dir / f"moments_n{n}.csv"
    _require(csv_path.is_file(), "missing moment CSV")
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    dim = 2 * n
    _require(len(lines) == 1 + dim * (dim - 1) // 2, "wrong moment CSV size")
    _require(all(math.isfinite(float(line.rsplit(",", 1)[1])) for line in lines[1:]),
             "non-finite moment")
    _require(rep["tau"] > 0, "nonpositive tau")
    return _selberg_health([rep])


def check_flow_sweep(task, residuals, out_dir):
    _require(len(residuals) == task.params["size"], "wrong sweep size")
    worst = max(residuals)
    _require(all(math.isfinite(r) for r in residuals) and worst <= FLOW_LAW_TOL,
             f"flow-law residual {worst:.2e}")
    return {}


def check_initial_bands(task, bands, out_dir):
    sites = task.params["sites"]
    _require(bands.even_reduced and bands.sites == sites, "wrong band state")
    _require(all(math.isfinite(x) for x in bands.w.values()), "non-finite band")
    for n in range(1, sites):
        want = math.sqrt(n * (2 * n - 1) / 2)
        _require(abs(bands.w[(0, n)] / want - 1) <= INITIAL_BANDS_TOL,
                 f"w^0_{n} = {bands.w[(0, n)]} vs closed form {want}")
    return {}


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def _cli(label, argv, check, **kw):
    return lambda inputs, v: Task(label, v, check, argv=[a.replace("{v}", str(v))
                                                           for a in argv], **kw)


def _rk4(n_sites: int, steps: int):
    def make(inputs, v):
        b = inputs.rk4_bands[(n_sites, v)]
        return Task(f"rk4 N={n_sites}", v, check_rk4, digest=digest_rk4,
                    call=lambda: lax.integrate_flow(b, "t2_even", RK4_DT, steps),
                    params={"steps": steps})
    return make


def _lax_verify(sites: int, trials: int):
    return _cli(f"lax-verify sites={sites}",
                ["--seed", "{v}", "lax-verify", "--flows", "t1,t2", "--even",
                 "--sites", str(sites), "--trials", str(trials)],
                check_lax_verify, digest=digest_lax_verify)


def _chain_evolve(label: str, extra: list[str], grid=256, depth=3, steps=100):
    return _cli(label, ["chain-evolve"] + extra, check_chain_evolve,
                digest=digest_chain_evolve,
                params={"grid": grid, "depth": depth, "steps": steps, "dt": 1e-3})


def _haantjes_mutated(inputs, v):
    return Task("haantjes-mutated", v, check_haantjes_mutated,
                argv=["--seed", str(v), "haantjes", "--window", "6", "--points", "1",
                      "--spec", str(inputs.spec_path)],
                expect_exit=1, digest=digest_haantjes_mutated)


def _gt(mutate: bool):
    argv = ["--seed", "{v}", "gt", "--jets", "20"] + (["--mutate"] if mutate else [])
    return _cli("gt-mutated" if mutate else "gt", argv, check_gt,
                expect_exit=1 if mutate else 0,
                digest=digest_gt_mutated if mutate else None,
                params={"jets": 20, "mutate": mutate})


def _commutator_exact(inputs, v):
    b = inputs.exact_bands[v]
    k = 1 + v % 2

    def call():
        comm, mask = lax.lax_rhs_commutator(b, k, 36, exact=True)
        table = lax.flow_t1_explicit if k == 1 else lax.flow_t2_explicit
        return comm, mask, table(b)

    return Task(f"commutator-exact k={k}", v, check_commutator_exact, call=call,
                digest=digest_commutator_exact)


def _tau(n_max: int):
    def make(inputs, v):
        nodes = ENSEMBLE_NODES[v % 2]
        return Task(f"tau n_max={n_max}", v, check_tau,
                    argv=["tau", "--n-max", str(n_max), "--nodes", str(nodes)],
                    params={"n": n_max})
    return make


def _moments(n: int):
    def make(inputs, v):
        nodes = ENSEMBLE_NODES[v % 2]
        return Task(f"moments n={n}", v, check_moments,
                    argv=["moments", "--n", str(n), "--nodes", str(nodes)],
                    params={"n": n})
    return make


def _initial_bands(sites: int):
    def make(inputs, v):
        q = ensemble.QuadratureConfig(nodes_per_axis=ENSEMBLE_NODES[v % 2])
        return Task(f"initial-bands sites={sites}", v, check_initial_bands,
                    call=lambda: lax.initial_bands_gaussian(sites, 3, q),
                    params={"sites": sites})
    return make


def _flow_sweep(ks: tuple[int, ...], warm: bool):
    """Flow-law residuals for (i, j) in {0..3}^2 and each k in ks.  Warm
    sweeps reuse one seeded coupling vector; cold ones draw a new vector, so
    their five moment tables (t and t +- h, 2h along k) are built anew."""
    def make(inputs, v):
        t = inputs.warm_couplings if warm else inputs.draw_couplings()
        q = ensemble.QuadratureConfig()

        def call():
            return [ensemble.moment_flow_residual(i, j, k, t, 1e-3, q)
                    for k in ks for i in range(4) for j in range(4)]

        return Task("flow-sweep " + ("warm" if warm else "cold"), v,
                    check_flow_sweep, call=call, params={"size": 16 * len(ks)})
    return make


_continuum = _cli("continuum-check", ["continuum-check"], check_continuum)
_haantjes = _cli("haantjes", ["--seed", "{v}", "haantjes", "--window", "6", "--points", "1"],
                 check_haantjes)
_warm_sweep = _flow_sweep((1, 2), True)
_nijenhuis = _cli("nijenhuis-oracle", ["--seed", "{v}", "nijenhuis-oracle", "--points", "1"],
                  check_nijenhuis, digest=digest_nijenhuis)

# Fixed order within a round.  Weights keep every task under about 1 s and
# place the median and the 90th percentile inside a cluster of like tasks
# rather than on the edge between two, so they do not flip between seeds.
ROUNDS = {
    "lattice": [
        _rk4(64, 8), _lax_verify(18, 8), _continuum,
        _rk4(512, 1), _lax_verify(64, 4), _rk4(2048, 1),
        _rk4(64, 8), _lax_verify(18, 8), _continuum,
        _chain_evolve("chain-evolve default", []),
        _rk4(512, 1), _lax_verify(64, 4),
        _rk4(64, 8), _lax_verify(18, 8), _continuum,
        _chain_evolve("chain-evolve grid=1024",
                      ["--grid", "1024", "--depth", "4", "--steps", "20"],
                      grid=1024, depth=4, steps=20),
    ],
    "exact": [
        _nijenhuis, _haantjes, _gt(False), _nijenhuis, _haantjes, _gt(False),
        _haantjes_mutated, _gt(True), _nijenhuis, _haantjes, _gt(False),
        _commutator_exact, _nijenhuis, _haantjes, _gt(False), _nijenhuis,
        _haantjes, _gt(False), _nijenhuis, _gt(False),
    ],
    "ensemble": [
        _tau(4), _initial_bands(4), _moments(3), _warm_sweep, _flow_sweep((1,), False),
        _tau(8), _initial_bands(8), _moments(6), _warm_sweep, _flow_sweep((2,), False),
        _tau(10), _initial_bands(12), _moments(9), _warm_sweep, _flow_sweep((1,), False),
        _tau(12), _initial_bands(16), _moments(12), _warm_sweep, _flow_sweep((2,), False),
    ],
}
WORKLOADS = tuple(ROUNDS)


def build_round(inputs: Inputs) -> list[Task]:
    """The next round of tasks; each task draws its variant from the seed."""
    return [make(inputs, inputs.rng.randrange(VARIANTS))
            for make in ROUNDS[inputs.workload]]


def load_digests() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["digests"]


def compare_digest(got: list, want: list) -> None:
    """Ints and strings compare exactly, floats to REL_TOL."""
    _require(len(got) == len(want), f"digest {got} vs reference {want}")
    for g, w in zip(got, want):
        if isinstance(w, float):
            ok = math.isfinite(g) and abs(g - w) <= REL_TOL * max(1.0, abs(w))
        else:
            ok = g == w
        _require(ok, f"digest {got} vs reference {want}")
