"""Command-line entry point: runs the verification experiments and emits
machine-readable reports.

Exit codes: 0 pass, 1 verification failure, 2 input/precondition error.
``main`` owns that contract: a ValueError, ZeroDivisionError, OverflowError,
MemoryError (an input too large to allocate) or ``ensemble.QuadratureError``
from the config, the ``--out`` directory (made in ``main``, before the
command runs) or a command (whose own argument checks raise ValueError)
prints one ``error: <message or exception name>`` line and exits 2.
Reports are JSON with sorted keys, so identical seeds and flags reproduce
byte-identical files; bulk data (matrices, trajectories) goes to CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np

from . import chain, ensemble, integrability, lax, reductions

PASS, FAIL, USAGE = 0, 1, 2

# argparse reads a token that starts with "-" as an option name unless it
# matches its negative-number pattern, which has no exponent, so "--t4
# -1e-3" failed with "expected one argument".  Every parser of the tree
# takes this pattern, which adds exponents, p/q and comma lists (--eps
# -1/64,1/128 reaches the eps check).
_NUMBER = r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?(/\d+)?"
_NEGATIVE_NUMBER = re.compile(rf"^-{_NUMBER}(,\s*-?{_NUMBER})*$")


def _write_report(out_dir: Path, name: str, report: dict) -> Path:
    path = out_dir / name
    path.write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n",
                    encoding="utf-8")
    return path


def _quadrature_options() -> argparse.ArgumentParser:
    """Couplings --t1..--t8 and quadrature --nodes/--radius, a fresh parent per
    subcommand: a shared one would share its Actions and so config defaults."""
    p = argparse.ArgumentParser(add_help=False)
    for k in range(1, 9):
        p.add_argument(f"--t{k}", type=float, default=0.0)
    p.add_argument("--nodes", type=int, default=200)
    p.add_argument("--radius", type=float, default=10.0)
    return p


def _quadrature(args) -> tuple[ensemble.CouplingVector, ensemble.QuadratureConfig]:
    t = ensemble.CouplingVector({k: getattr(args, f"t{k}") for k in range(1, 9)})
    return t, ensemble.QuadratureConfig(nodes_per_axis=args.nodes,
                                        domain_radius=args.radius)


_SELBERG_BUDGET = 1e-6  # the relative tolerance of the tau ratios at zero couplings


def _warn_selberg_drift(t: ensemble.CouplingVector, row: dict) -> None:
    """At zero couplings ``selberg_ratio_check`` should read 1; a deviation
    past the budget is quadrature precision loss, reported on stderr."""
    dev = abs(row["selberg_ratio_check"] - 1)
    if not t.entries and dev > _SELBERG_BUDGET:
        print(f"warning: n={row['n']}: selberg_ratio_check is off by {dev:.2g}, "
              f"past the {_SELBERG_BUDGET:g} budget at zero couplings", file=sys.stderr)


def cmd_moments(args, out: Path) -> int:
    t, q = _quadrature(args)
    m = ensemble.moment_matrix(args.n, t, q)
    report = ensemble.tau_report(args.n, t, q)
    ensemble.write_moment_csv(m, out / f"moments_n{args.n}.csv")
    path = _write_report(out, f"tau_n{args.n}.json", report)
    print(f"tau_{2 * args.n} = {report['tau']:.12g}  "
          f"ratio_check = {report['selberg_ratio_check']:.12g}  -> {path}")
    _warn_selberg_drift(t, report)
    return PASS


def cmd_tau(args, out: Path) -> int:
    if args.n_max < 1:
        raise ValueError(f"--n-max {args.n_max} gives an empty table; need >= 1")
    t, q = _quadrature(args)
    rows = ensemble.tau_table(args.n_max, t, q)
    path = _write_report(out, "tau_table.json", {"table": rows})
    for row in rows:
        print(f"n={row['n']}: tau={row['tau']:.12g} "
              f"ratio_check={row['selberg_ratio_check']:.12g}")
        _warn_selberg_drift(t, row)
    print(f"-> {path}")
    return PASS


_FLOWS = lax.FLOWS


def cmd_lax_verify(args, out: Path) -> int:
    flows = [f.strip() for f in args.flows.split(",") if f.strip()]
    for i, name in enumerate(flows):
        if name not in _FLOWS:
            raise ValueError(f"unknown flow {name!r}")
        if name in flows[:i]:
            raise ValueError(f"--flows {args.flows}: flow {name!r} is listed twice")
    if args.even and "t2_even" not in flows:
        flows.append("t2_even")
    if args.sites < 1:
        raise ValueError(f"--sites {args.sites} must be at least 1")
    rng = random.Random(args.seed)
    worst = 0.0
    checked = 0
    m_dim = 2 * args.sites
    np.empty((m_dim, m_dim))  # fails here, before any band state is drawn
    masks = {name: lax.interior_mask(m_dim, args.depth, _FLOWS[name][0]) for name in flows}
    if not all(masks.values()):
        raise ValueError("truncation too tight: empty interior mask")
    for name in flows:
        k_flow, table_flow, even = _FLOWS[name]
        at = lax.LaxBands(args.sites, args.depth, *(  # the interior slots, stored
            {(bk, n): 0.0 for kind, bk, n in masks[name] if kind == want} for want in "wv")).stored
        for _ in range(args.trials):
            b = lax.random_bands(rng, args.sites, args.depth, even=even)
            comm, _ = lax.lax_rhs_commutator(b, k_flow, m_dim)
            expl = table_flow(b).rows
            # a state without v rows has none in its table flow: they read 0
            expl = np.concatenate([expl, np.zeros_like(comm.rows[len(expl):])])
            c, e = comm.rows[at], expl[at]
            worst = max(worst, float(np.max(np.abs(c - e) / np.maximum(
                1.0, np.maximum(np.abs(c), np.abs(e))))))
            checked += len(c)
    if not checked:
        raise ValueError("no slot was checked: need a flow and --trials >= 1")
    report = {"flows": flows, "trials": args.trials, "seed": args.seed,
              "sites": args.sites, "depth": args.depth,
              "slots_checked": checked, "max_mismatch": worst,
              "tolerance": 1e-12, "pass": worst <= 1e-12}
    path = _write_report(out, "lax_verify.json", report)
    print(f"max_mismatch = {worst:.3e} over {checked} slots -> {path}")
    return PASS if report["pass"] else FAIL


def _warn_dropped_bands(args) -> None:
    """Name the profile's bands that a state of --depth drops."""
    if args.band_support > args.depth:
        print(f"warning: --band-support {args.band_support} exceeds --depth {args.depth}: "
              f"the profile's bands {args.depth + 1} <= |k| <= {args.band_support} "
              f"are dropped", file=sys.stderr)


def cmd_chain_evolve(args, out: Path) -> int:
    if args.grid < 1:
        raise ValueError(f"--grid {args.grid} must be at least 1")
    profile = chain.default_profile(args.band_support)
    x = (1.0 / args.grid) * np.arange(1, args.grid + 1)
    state = chain.ChainState(h=1.0 / args.grid, depth=args.depth,
                             u={k: fn(x) for k, fn in profile.items()})
    _warn_dropped_bands(args)
    if 0 < args.dt < math.inf and args.steps > 0:  # the CFL margin of a run that steps
        cfl = args.dt * chain.max_row_sum(state) / state.h
        print(f"CFL number dt*max_row_sum/h = {cfl:.3g}", file=sys.stderr)
        if args.scheme == "rk4-central" and cfl > chain._RK4_CENTRAL_CFL:
            print(f"warning: CFL number {cfl:.3g} exceeds the rk4-central stability "
                  f"bound {chain._RK4_CENTRAL_CFL:.3g}; roundoff can grow at every step",
                  file=sys.stderr)
    try:
        traj = chain.evolve_chain(state, args.dt, args.steps, scheme=args.scheme)
    except chain.GradientCatastropheError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return FAIL
    path = out / "chain_trajectory.csv"
    chain.trajectory_to_csv(traj, path)
    print(f"{args.steps} steps -> {path}")
    return PASS


def _listed(option: str, text: str, convert, what: str) -> list:
    """The comma-separated values ``text`` of ``option``, each token
    converted; a token that does not convert is named with its option."""
    values = []
    for tok in filter(None, map(str.strip, text.split(","))):
        try:
            values.append(convert(tok))
        except ZeroDivisionError:
            raise ValueError(f"{option} {text} has a zero denominator") from None
        except (ValueError, OverflowError):
            raise ValueError(f"{option} {text}: {tok!r} is not {what}") from None
    return values


def cmd_continuum_check(args, out: Path) -> int:
    eps = _listed("--eps", args.eps, lambda tok: float(Fraction(tok)), "a finite float or p/q")
    orders = _listed("--orders", args.orders, int, "an integer")
    reports = chain.continuum_residual(chain.default_profile(args.band_support), eps,
                                       orders=orders, depth=args.depth)
    _warn_dropped_bands(args)
    ok = True
    for rep in reports:
        if rep["slope"] == "exact":
            print(f"order {rep['order']}: residuals all zero (exact)")
            continue
        expected = rep["order"] + 1
        good = abs(rep["slope"] - expected) <= 0.3
        ok = ok and good
        print(f"order {rep['order']}: slope {rep['slope']:.3f} "
              f"(expected ~{expected}) {'ok' if good else 'FAIL'}")
    path = _write_report(out, "continuum_check.json", {"reports": reports})
    print(f"-> {path}")
    return PASS if ok else FAIL


def cmd_haantjes(args, out: Path) -> int:
    spec = None
    if args.spec:
        try:
            spec = integrability.load_spec_json(args.spec)
        except (OSError, KeyError, json.JSONDecodeError) as exc:
            raise ValueError(f"bad spec file: {exc}") from exc
    report = integrability.haantjes_scan(window=args.window, points=args.points,
                                         seed=args.seed, spec=spec)
    path = _write_report(out, "haantjes_scan.json", report)
    n_bad = len(report["haantjes_nonzero"])
    print(f"window {args.window}, {args.points} points: "
          f"{n_bad} nonzero Haantjes entries -> {path}")
    if n_bad:
        for item in report["haantjes_nonzero"][:10]:
            print(f"  H^{item['entry'][0]}_({item['entry'][1]},{item['entry'][2]})"
                  f" = {item['value']} at point {item['point_index']}")
    return PASS if n_bad == 0 else FAIL


def cmd_nijenhuis_oracle(args, out: Path) -> int:
    if args.points < 1:
        raise ValueError(f"--points {args.points} checks nothing; need >= 1")
    rng = random.Random(args.seed)
    mismatches = []
    checked = 0
    for _ in range(args.points):
        point = integrability.random_rational_point(rng, 10)
        rep = integrability.nijenhuis_oracle_check(point)
        mismatches.extend(rep["nijenhuis_mismatches"])
        checked += rep["entries_checked"]
    report = {"points": args.points, "seed": args.seed,
              "entries_checked": checked, "nijenhuis_mismatches": mismatches}
    path = _write_report(out, "nijenhuis_oracle.json", report)
    print(f"{checked} table entries checked, {len(mismatches)} mismatches -> {path}")
    return PASS if not mismatches else FAIL


def cmd_gt(args, out: Path) -> int:
    mutate = Fraction(3) if args.mutate else None
    report = reductions.involutivity_report(jets=args.jets, seed=args.seed,
                                            mutate_dlam=mutate)
    path = _write_report(out, "gt_involutivity.json", report)
    clean = report["max_involutivity_residual"] == "0" \
        and report["eigen_residual"] == "0"
    print(f"{args.jets} jets: max involutivity residual "
          f"{report['max_involutivity_residual']}, eigen residual "
          f"{report['eigen_residual']} -> {path}")
    return PASS if clean else FAIL


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The ``pfaffchain`` parser; ``config`` maps a subcommand name to
    defaults for its own options (dashes or underscores in the keys).  A
    section that names no subcommand, a key that names no option of its
    section and a flag given anything but true or false raise ValueError."""
    parser = argparse.ArgumentParser(
        prog="pfaffchain",
        description="verification experiments for the skew-ensemble tau "
                    "function, its lattice flows and the hydrodynamic chain")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=Path("reports"))
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file with per-command parameter defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", parents=[_quadrature_options()],
                       help="moment matrix CSV and tau report")
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("tau", parents=[_quadrature_options()],
                       help="tau table with Selberg ratio checks")
    p.add_argument("--n-max", type=int, default=3)
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("lax-verify", help="commutator vs explicit flow check")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--sites", type=int, default=18)
    p.add_argument("--flows", type=str, default="t1,t2")
    p.add_argument("--even", action="store_true")
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=cmd_lax_verify)

    p = sub.add_parser("chain-evolve", help="time-step the hydrodynamic chain")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--scheme", type=str, default="rk4-central",
                   choices=["rk4-central", "lax-friedrichs"])
    p.add_argument("--band-support", type=int, default=2)
    p.set_defaults(func=cmd_chain_evolve)

    p = sub.add_parser("continuum-check", help="lattice vs continuum slopes")
    p.add_argument("--eps", type=str, default="1/64,1/128,1/256,1/512")
    p.add_argument("--orders", type=str, default="0,1,2")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--band-support", type=int, default=2)
    p.set_defaults(func=cmd_continuum_check)

    p = sub.add_parser("haantjes", help="exact Haantjes vanishing scan")
    p.add_argument("--window", type=int, default=6)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--spec", type=Path, default=None,
                   help="JSON chain-matrix spec (default: the flagship chain)")
    p.set_defaults(func=cmd_haantjes)

    p = sub.add_parser("nijenhuis-oracle", help="printed Nijenhuis table check")
    p.add_argument("--points", type=int, default=5)
    p.set_defaults(func=cmd_nijenhuis_oracle)

    p = sub.add_parser("gt", help="Gibbons-Tsarev involutivity check")
    p.add_argument("--jets", type=int, default=100)
    p.add_argument("--mutate", action="store_true",
                   help="corrupt the speed-equation coefficient (expect exit 1)")
    p.set_defaults(func=cmd_gt)

    parser._negative_number_matcher = _NEGATIVE_NUMBER
    config = config or {}
    if unknown := sorted(config.keys() - sub.choices.keys()):
        raise ValueError(f"bad config: {unknown[0]!r} names no subcommand")
    for name, sp in sub.choices.items():
        sp._negative_number_matcher = _NEGATIVE_NUMBER
        options = {a.dest: a for a in sp._actions if a.option_strings and a.dest != "help"}
        given = {k.replace("-", "_"): v for k, v in config.get(name, {}).items()}
        for key, value in given.items():
            flag = f"--{key.replace('_', '-')}"
            if key not in options:
                raise ValueError(f"bad config: {name}: {flag} is no option of {name}")
            if options[key].type is None and not isinstance(value, bool):
                raise ValueError(f"bad config: {name}: {flag} is a flag, "
                                 f"so true or false, not {value!r}")
        try:  # each value as if typed on the command line; flags have no type
            sp.set_defaults(**{k: options[k].type(str(v)) if options[k].type else v
                               for k, v in given.items()})
        except ValueError as exc:
            raise ValueError(f"bad config: {name}: {exc}") from exc
    return parser


def _read_config(argv: list[str]) -> dict | None:
    """The --config file, read before the full parse: its sections become the
    subcommands' defaults."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config", type=Path, default=None)
    try:
        path = pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError as exc:
        raise ValueError(exc) from exc
    if path is None:
        return None
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"bad config: {exc}") from exc
    if not (isinstance(config, dict)
            and all(isinstance(v, dict) for v in config.values())):
        raise ValueError("bad config: expected an object of per-command objects")
    return config


@cache
def _plain_parser() -> argparse.ArgumentParser:
    """The parser of a run without --config, built once: parsing does not
    change it.  A config sets subcommand defaults, so it gets a fresh tree."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = _read_config(argv)
        parser = _plain_parser() if config is None else build_parser(config)
        args = parser.parse_args(argv)
        try:  # the one place the report directory is made
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"--out {args.out}: cannot make the directory: "
                             f"{exc.strerror or exc}") from None
        return args.func(args, args.out)
    except (ValueError, ZeroDivisionError, OverflowError, MemoryError,
            ensemble.QuadratureError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
