"""Closed-loop runner: one caller runs a workload's rounds of tasks, each
task starting after the previous one finished, checks every output and
prints the metrics.

The run measures whole rounds until ``--seconds`` of wall time have passed
and at least ``MIN_TASKS`` tasks were attempted, so every run has the same
task mix and ``task_p90_s`` has at least ten samples beyond it.  With
``--trace 1`` the same loop runs with spans recorded and prints the
per-layer metrics instead; end-to-end numbers always come from untraced runs.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import pfaffchain
from pfaffchain import cli

from . import THREAD_VARS, tasks, tracing

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"
MIN_TASKS = 100
MAX_WALL_S = 120.0     # stop early on a much slower program, to exit within 180 s
SETUP_PROBES = 5

END_TO_END = [
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_p50_s", "s"),
    ("task_p90_s", "s"),
    ("passed_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]


def setup(workload: str, seed: int, work_dir: Path) -> tasks.Inputs:
    """Everything before the first task: the output directory and the
    seeded inputs.  probe.py times it together with the imports."""
    work_dir.mkdir(parents=True)
    return tasks.Inputs(workload, seed, work_dir)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes: import pfaffchain, numpy and scipy,
    generate the seeded inputs and create the output directory."""
    probe = Path(__file__).with_name("probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(probe), workload, str(seed)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def run_task(task: tasks.Task, out_dir: Path):
    if task.argv is None:
        return task.call()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["--out", str(out_dir)] + task.argv)


def check_task(task: tasks.Task, value, out_dir: Path, digests: dict | None) -> dict:
    """Raise CheckError unless the output is right; return health values.
    With ``digests`` None the reference comparison is skipped (recording)."""
    if task.argv is not None and value != task.expect_exit:
        raise tasks.CheckError(f"exit code {value}, expected {task.expect_exit}")
    health = task.check(task, value, out_dir)
    if task.digest is not None and digests is not None:
        want = digests.get(task.ref_key)
        if want is None:
            raise tasks.CheckError(f"no reference recorded for {task.ref_key}")
        tasks.compare_digest(task.digest(task, value, out_dir), want)
    return health


def blas_threads() -> int | None:
    """OpenBLAS pool size as the loaded library reports it, if it can."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


class Run:
    """Results of one workload run."""

    def __init__(self, trace: bool):
        self.tracer = tracing.Tracer() if trace else None
        self.durations: list[float] = []
        self.failures: list[dict] = []
        self.health: dict[str, list[float]] = {}
        self.report_bytes: list[int] = []
        self.label_durations: dict[str, list[float]] = {}
        self.round_s: list[float] = []
        self.wall_s = 0.0

    def execute(self, inputs: tasks.Inputs, seconds: float, digests: dict) -> None:
        start = time.perf_counter()
        while True:
            first = len(self.durations)
            for task in tasks.build_round(inputs):
                self._one(task, inputs.work_dir / f"t{len(self.durations)}", digests)
            self.round_s.append(sum(self.durations[first:]))
            self.wall_s = time.perf_counter() - start
            if (self.wall_s >= seconds and len(self.durations) >= MIN_TASKS) \
                    or self.wall_s >= max(MAX_WALL_S, seconds):
                return

    def _one(self, task: tasks.Task, out_dir: Path, digests: dict) -> None:
        span = self.tracer.task_span(task.label) if self.tracer else contextlib.nullcontext()
        error = None
        started = time.perf_counter()
        try:
            with span:
                value = run_task(task, out_dir)
        except Exception as exc:  # a raising task is a failed task; keep going
            error = f"{type(exc).__name__}: {exc}"
        self.durations.append(time.perf_counter() - started)
        self.label_durations.setdefault(task.label, []).append(self.durations[-1])
        if error is None:
            try:
                health = check_task(task, value, out_dir, digests)
            except tasks.CheckError as exc:
                health, error = exc.health, f"check: {exc}"
            except Exception as exc:  # malformed output is a failed check too
                health, error = {}, f"check: {type(exc).__name__}: {exc}"
            for name, val in health.items():
                self.health.setdefault(name, []).append(val)
        if task.argv is not None and out_dir.is_dir():
            self.report_bytes.append(sum(p.stat().st_size for p in out_dir.iterdir()))
        shutil.rmtree(out_dir, ignore_errors=True)
        if error is not None:
            self.failures.append({"label": task.label, "variant": task.variant,
                                  "error": error[:300]})

    def end_to_end(self, setup_times: list[float]) -> dict[str, float]:
        attempted = len(self.durations)
        passed = attempted - len(self.failures)
        return {
            "setup_s": statistics.median(setup_times),
            "tasks_per_s": passed / sum(self.durations),
            "task_p50_s": statistics.median(self.durations),
            "task_p90_s": statistics.quantiles(self.durations, n=10)[8],
            "passed_ratio": passed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def unexpected_failures(run: Run) -> list[dict]:
    known = {label for labels in tasks.KNOWN_DEFECTS.values() for label in labels}
    return [f for f in run.failures if f["label"] not in known]


def failures_by_label(failures: list[dict]) -> dict[str, dict]:
    """{label: {count, variants, first error}} in order of first failure."""
    out: dict[str, dict] = {}
    for f in failures:
        group = out.setdefault(f["label"], {"count": 0, "variants": [],
                                            "error": f["error"]})
        group["count"] += 1
        group["variants"].append(f["variant"])
    return out


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=tasks.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(pfaffchain.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: pfaffchain imported from {pfaffchain.__file__}, "
              f"not from this checkout's src/", file=sys.stderr)
        return 2
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work_dir = STATE_DIR / "work" / f"{tag}-{os.getpid()}"
    digests = tasks.load_digests()
    run = Run(trace=bool(args.trace))
    try:
        inputs = setup(args.workload, args.seed, work_dir)
        setup_times = [] if args.trace else setup_seconds(args.workload, args.seed)
        if run.tracer:
            run.tracer.install(pfaffchain)
        try:
            run.execute(inputs, args.seconds, digests)
        finally:
            if run.tracer:
                run.tracer.uninstall()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    unexpected = unexpected_failures(run)
    if run.tracer:
        layer = tracing.per_layer_metrics(run.tracer, run.health, run.report_bytes)
        self_sum = sum(layer[f"{name}.self_ms"][0] for name in tracing.LAYERS + ("cli",))
        consistent = abs(self_sum - layer["trace.task_ms"][0]) \
            <= 1e-9 * max(1.0, layer["trace.task_ms"][0])
        metrics = {name: {"value": layer[name][0], "unit": unit}
                   for name, unit, *_ in tracing.PER_LAYER}
        calls = {name: layer[name][1] for name, *_ in tracing.PER_LAYER}
        run.tracer.write(STATE_DIR / f"trace-{tag}.jsonl")
    else:
        consistent = True
        values = run.end_to_end(setup_times)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        calls = {}
    attempted, failed = len(run.durations), len(run.failures)

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "wall_s": run.wall_s, "round_s": run.round_s,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": blas_threads(), "git_commit": git_commit(),
        "tasks_per_label": {label: {"count": len(d), "median_s": statistics.median(d)}
                            for label, d in run.label_durations.items()},
        "attempted": attempted,
        "failed": failed, "failures": failures_by_label(run.failures),
        "unexpected_failures": len(unexpected), "setup_times_s": setup_times,
        "metrics": metrics, "calls": calls,
    }
    (STATE_DIR / f"run-{tag}.json").write_text(json.dumps(meta, indent=2) + "\n",
                                               encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} tasks in {len(run.round_s)} rounds, {run.wall_s:.1f} s wall, "
          f"blas threads {meta['blas_threads']}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':42s} {failed / attempted:.6g} ratio")
    unexpected_labels = {f["label"] for f in unexpected}
    for label, group in failures_by_label(run.failures).items():
        kind = "UNEXPECTED" if label in unexpected_labels else "known defect"
        print(f"  failed x{group['count']} ({kind}): {label}: {group['error']}")
    print(json.dumps({"correct": not unexpected and consistent,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0
