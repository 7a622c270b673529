"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import perfbench  # noqa: E402

perfbench.pin_thread_pools()

import pfaffchain  # noqa: E402
from perfbench import harness, tasks, tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DIGESTS = tasks.load_digests()


def _signature(round_):
    return [(t.label, t.variant, t.argv and [a for a in t.argv if "spec" not in a])
            for t in round_]


def _run_one(task, out_dir, digests=DIGESTS):
    value = harness.run_task(task, out_dir)
    return value, harness.check_task(task, value, out_dir, digests)


def _task(workload, label, tmp_path, variant=0):
    inputs = tasks.Inputs(workload, 0, tmp_path)
    for make in tasks.ROUNDS[workload]:
        task = make(inputs, variant)
        if task.label == label:
            return task
    raise LookupError(label)


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_same_seed_gives_same_task_list(workload, tmp_path):
    def rounds(seed, sub):
        (tmp_path / sub).mkdir()
        inputs = tasks.Inputs(workload, seed, tmp_path / sub)
        return [_signature(tasks.build_round(inputs)) for _ in range(3)]

    assert rounds(7, "a") == rounds(7, "b")
    assert rounds(7, "a2") != rounds(8, "c")


def test_same_seed_gives_same_exact_outputs(tmp_path):
    outputs = []
    for attempt in range(2):
        work = tmp_path / f"w{attempt}"
        work.mkdir()
        inputs = tasks.Inputs("exact", 3, work)
        round_ = tasks.build_round(inputs)
        picked = [t for t in round_ if t.label in ("gt-mutated", "nijenhuis-oracle")][:2]
        reports = []
        for i, task in enumerate(picked):
            out = work / f"t{i}"
            _run_one(task, out)
            reports += [p.read_bytes() for p in sorted(out.iterdir())]
        outputs.append(reports)
    assert outputs[0] == outputs[1] and outputs[0]


def test_checker_rejects_corrupted_report(tmp_path):
    task = _task("lattice", "lax-verify sites=18", tmp_path)
    out = tmp_path / "out"
    _run_one(task, out)
    report_path = out / "lax_verify.json"
    good = json.loads(report_path.read_text())
    for field, bad in (("max_mismatch", 1e-3), ("pass", False), ("slots_checked", 1)):
        report_path.write_text(json.dumps(dict(good, **{field: bad})))
        with pytest.raises(tasks.CheckError):
            harness.check_task(task, 0, out, DIGESTS)
    with pytest.raises(tasks.CheckError):
        harness.check_task(task, 1, out, DIGESTS)  # unexpected exit code


def test_checker_rejects_wrong_fraction(tmp_path):
    task = _task("exact", "commutator-exact k=1", tmp_path)
    comm, mask, expl = value = task.call()
    harness.check_task(task, value, tmp_path, DIGESTS)
    kind, k, n = sorted(mask)[0]
    store = comm.dw if kind == "w" else comm.dv
    store[(k, n)] = comm.get(kind, k, n) + Fraction(1, 10**9)
    with pytest.raises(tasks.CheckError):
        harness.check_task(task, value, tmp_path, DIGESTS)


def test_checker_rejects_all_zero_controls(tmp_path):
    gt = _task("exact", "gt-mutated", tmp_path)
    out = tmp_path / "gt"
    out.mkdir()
    (out / "gt_involutivity.json").write_text(json.dumps(
        {"jets": 20, "seed": 0, "eigen_residual": "0",
         "max_involutivity_residual": "0"}))
    with pytest.raises(tasks.CheckError):
        harness.check_task(gt, 1, out, DIGESTS)
    scan = _task("exact", "haantjes-mutated", tmp_path)
    out = tmp_path / "scan"
    out.mkdir()
    (out / "haantjes_scan.json").write_text(json.dumps(
        {"spec": "x", "window": 6, "points": 1, "seed": 0,
         "haantjes_nonzero": [], "nijenhuis_mismatches": []}))
    with pytest.raises(tasks.CheckError):
        harness.check_task(scan, 1, out, DIGESTS)


def test_float_trajectory_must_match_reference(tmp_path):
    task = _task("lattice", "rk4 N=64", tmp_path, variant=2)
    traj = task.call()
    harness.check_task(task, traj, tmp_path, DIGESTS)
    traj[-1].w[(0, 5)] *= 1 + 1e-6
    with pytest.raises(tasks.CheckError):
        harness.check_task(task, traj, tmp_path, DIGESTS)


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_traced_round_counts_every_mapped_metric(workload, tmp_path):
    """A wrapper that misses an import-time binding leaves a metric of its
    workload without calls, and the layer self times must add up to the
    task time."""
    run = harness.Run(trace=True)
    inputs = tasks.Inputs(workload, 0, tmp_path)
    run.tracer.install(pfaffchain)
    try:
        for i, task in enumerate(tasks.build_round(inputs)):
            run._one(task, tmp_path / f"t{i}", DIGESTS)
    finally:
        run.tracer.uninstall()
    assert not harness.unexpected_failures(run)
    known = {label for labels in tasks.KNOWN_DEFECTS.values() for label in labels}
    failed = {f["label"] for f in run.failures}
    assert failed == (known if workload == "ensemble" else set())

    layer = tracing.per_layer_metrics(run.tracer, run.health, run.report_bytes)
    for name, _unit, _better, mapped, _moves in tracing.PER_LAYER:
        if mapped in (workload, "all"):
            assert layer[name][1] > 0, f"{name} has no calls on {workload}"
    self_sum = sum(layer[f"{name}.self_ms"][0] for name in tracing.LAYERS + ("cli",))
    assert self_sum == pytest.approx(layer["trace.task_ms"][0], rel=1e-9)
    assert 0 < layer["trace.overhead_share"][0] < 0.2


def test_wrappers_are_removed_after_the_run():
    before = (pfaffchain.chain.flow_t2_even_explicit, pfaffchain.cli._FLOWS["t1"],
              pfaffchain.lax.moment_matrix)
    tracer = tracing.Tracer()
    tracer.install(pfaffchain)
    assert pfaffchain.chain.flow_t2_even_explicit is not before[0]
    assert pfaffchain.cli._FLOWS["t1"] is not before[1]
    assert pfaffchain.lax.moment_matrix is not before[2]
    tracer.uninstall()
    assert (pfaffchain.chain.flow_t2_even_explicit, pfaffchain.cli._FLOWS["t1"],
            pfaffchain.lax.moment_matrix) == before


def test_metric_and_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(tasks.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        [row[:3] for row in tracing.PER_LAYER]
    assert BENCHMARK["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ensemble", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= harness.MIN_TASKS
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in BENCHMARK[section]]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_unexpected_failure_makes_the_run_incorrect():
    run = harness.Run(trace=False)
    run.failures = [{"label": "tau n_max=12", "variant": 0, "error": "x"}]
    assert harness.unexpected_failures(run) == []
    run.failures.append({"label": "tau n_max=4", "variant": 3, "error": "x"})
    assert [f["label"] for f in harness.unexpected_failures(run)] == ["tau n_max=4"]
