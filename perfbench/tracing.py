"""Spans around calls into pfaffchain's public functions, and the per-layer
metrics computed from them.

Wrappers are installed from the benchmark, wherever a caller looks a name
up: module attributes (``cli``'s ``lax.x(...)`` calls and module-global
calls such as ``evolve_chain -> chain_rhs_t2``), names bound at import time
(chain's ``from .lax import ...``, lax's ``from .ensemble import
moment_matrix``) and functions held in module-level dicts (``cli._FLOWS``).

A span is ``[trace id, parent index, name, start ns, end ns, attrs]``; the
trace id is the task's index and each task has one root span, ``cli.task``.
Spans are kept in memory and written out when the run ends.  A span's self
time is its duration minus the time its child spans cover, so the layers'
self times and the root's (``cli.self_ms``) add up to the task time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

LAYERS = ("lax", "chain", "ensemble", "integrability", "reductions")
ROOT_SPAN = "cli.task"
_TABLE_SPANS = ("ensemble.moment_matrix", "ensemble.moment_mu")

# (name, unit, better, workload it should move on, end-to-end metric it
# should move).  Where a metric's layer is idle on a workload it reads 0 and
# the prediction there is no change.
PER_LAYER = [
    ("lax.flow_t2_even_us_per_slot", "us", "lower", "lattice", "tasks_per_s, task_p90_s"),
    ("lax.rk4_us_per_slot_step", "us", "lower", "lattice", "tasks_per_s, task_p90_s"),
    ("lax.rk4_overhead_share", "ratio", "lower", "lattice", "tasks_per_s, task_p90_s"),
    ("lax.flow_t1_us_per_slot", "us", "lower", "lattice", "task_p50_s"),
    ("lax.flow_t2_us_per_slot", "us", "lower", "lattice", "task_p50_s"),
    ("lax.commutator_m36_ms", "ms", "lower", "lattice", "task_p50_s"),
    ("lax.commutator_m128_ms", "ms", "lower", "lattice", "task_p50_s"),
    ("lax.interior_share", "ratio", "higher", "lattice", "task_p50_s"),
    ("lax.max_mismatch", "rel", "lower", "lattice", "none (health)"),
    ("lax.commutator_exact_ms", "ms", "lower", "exact", "task_p90_s"),
    ("lax.flow_exact_us_per_slot", "us", "lower", "exact", "task_p90_s"),
    ("lax.initial_bands_ms", "ms", "lower", "ensemble", "task_p50_s"),
    ("chain.rhs_t2_ns_per_point_band", "ns", "lower", "lattice", "task_p50_s"),
    ("chain.evolve_step_ms", "ms", "lower", "lattice", "task_p50_s"),
    ("chain.rhs_corrected_ns_per_point_band", "ns", "lower", "lattice", "task_p50_s"),
    ("chain.continuum_residual_ms", "ms", "lower", "lattice", "task_p50_s"),
    ("chain.csv_rows_per_s", "1/s", "higher", "lattice", "task_p50_s"),
    ("chain.csv_share", "ratio", "lower", "lattice", "task_p50_s"),
    ("chain.cfl_number", "ratio", "lower", "none", "none (health)"),
    ("ensemble.moment_table_cold_ms", "ms", "lower", "ensemble", "tasks_per_s"),
    ("ensemble.moment_table_warm_ms", "ms", "lower", "ensemble", "task_p50_s"),
    ("ensemble.moment_table_warm_share", "ratio", "higher", "ensemble", "task_p50_s"),
    ("ensemble.pfaffian_d8_us", "us", "lower", "ensemble", "task_p50_s"),
    ("ensemble.pfaffian_d24_us", "us", "lower", "ensemble", "task_p50_s"),
    ("ensemble.tau_report_ms", "ms", "lower", "ensemble", "task_p50_s"),
    ("ensemble.flow_residual_ms", "ms", "lower", "ensemble", "task_p50_s"),
    ("ensemble.selberg_dev_max", "rel", "lower", "ensemble", "failed tasks (health)"),
    ("ensemble.quadrature_errors", "count", "lower", "ensemble", "failed tasks"),
    ("integrability.haantjes_entries_per_s", "1/s", "higher", "exact",
     "task_p90_s, tasks_per_s"),
    ("integrability.nijenhuis_entries_per_s", "1/s", "higher", "exact", "task_p50_s"),
    ("integrability.haantjes_nonzero", "count", "higher", "exact", "failed tasks"),
    ("reductions.gt_jets_per_s", "1/s", "higher", "exact", "task_p50_s"),
    ("reductions.eigen_residual_share", "ratio", "lower", "exact", "task_p50_s"),
    ("cli.self_ms", "ms", "lower", "all", "task_p50_s"),
    ("cli.report_bytes", "B", "lower", "all", "task_p50_s"),
    ("lax.self_ms", "ms", "lower", "lattice", "task_p50_s"),
    ("chain.self_ms", "ms", "lower", "lattice", "task_p50_s"),
    ("ensemble.self_ms", "ms", "lower", "ensemble", "task_p50_s"),
    ("integrability.self_ms", "ms", "lower", "exact", "task_p50_s"),
    ("reductions.self_ms", "ms", "lower", "exact", "task_p50_s"),
    ("trace.task_ms", "ms", "lower", "all", "none (sum of the self_ms rows)"),
    ("trace.overhead_share", "ratio", "lower", "all", "none (traced tasks_per_s loss)"),
]


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _is_exact(bands) -> bool:
    return isinstance(next(iter(bands.w.values()), 0.0), Fraction)


def _flow_attrs(tracer, span, args, kwargs, result):
    return {"slots": len(result.dw) + len(result.dv), "exact": _is_exact(args[0])}


def _commutator_attrs(tracer, span, args, kwargs, result):
    derivs, mask = result
    return {"M": _arg(args, kwargs, 2, "M"),
            "exact": bool(_arg(args, kwargs, 3, "exact", False)),
            "computed": len(derivs.dw) + len(derivs.dv), "interior": len(mask)}


def _integrate_attrs(tracer, span, args, kwargs, result):
    first = result[0]
    slots = len(first.w) + (0 if first.even_reduced else len(first.v))
    return {"slot_steps": slots * (len(result) - 1)}


def _chain_rhs_attrs(tracer, span, args, kwargs, result):
    return {"point_bands": args[0].grid_size * len(result)}


def _csv_attrs(tracer, span, args, kwargs, result):
    return {"rows": sum(len(s.u) * s.grid_size for s in args[0])}


def _table_attrs(tracer, span, args, kwargs, result):
    """Moment-table request: a key seen before in this run is warm."""
    if span[1] >= 0 and tracer.spans[span[1]][2] in _TABLE_SPANS:
        return None  # nested request (moment_mu recursion), counted by its parent
    if span[2] == "ensemble.moment_mu":
        if _arg(args, kwargs, 0, "i") == _arg(args, kwargs, 1, "j"):
            return None  # diagonal: answered without a table
        t, q = _arg(args, kwargs, 2, "t"), _arg(args, kwargs, 3, "q")
    else:
        t, q = _arg(args, kwargs, 1, "t"), _arg(args, kwargs, 2, "q")
    key = (t.key(), t.even_only, q.key())
    new = key not in tracer.seen_tables
    tracer.seen_tables.add(key)
    return {"table": "new" if new else "repeated"}


def _pfaffian_attrs(tracer, span, args, kwargs, result):
    m = args[0]
    return {"dim": m.dim if hasattr(m, "dim") else len(m)}


def _haantjes_attrs(tracer, span, args, kwargs, result):
    w = result["window"]
    return {"entries": result["points"] * (2 * w + 1) ** 2 * (2 * w + 2) // 2,
            "nonzero": len(result["haantjes_nonzero"])}


ANNOTATE = {
    "lax.flow_t1_explicit": _flow_attrs,
    "lax.flow_t2_explicit": _flow_attrs,
    "lax.flow_t2_even_explicit": _flow_attrs,
    "lax.lax_rhs_commutator": _commutator_attrs,
    "lax.integrate_flow": _integrate_attrs,
    "chain.chain_rhs_t2": _chain_rhs_attrs,
    "chain.chain_rhs_t2_corrected": _chain_rhs_attrs,
    "chain.evolve_chain": lambda tr, sp, a, kw, r: {"steps": len(r) - 1},
    "chain.trajectory_to_csv": _csv_attrs,
    "ensemble.moment_matrix": _table_attrs,
    "ensemble.moment_mu": _table_attrs,
    "ensemble.pfaffian": _pfaffian_attrs,
    "integrability.haantjes_scan": _haantjes_attrs,
    "integrability.nijenhuis_oracle_check":
        lambda tr, sp, a, kw, r: {"entries": r["entries_checked"]},
    "reductions.involutivity_report": lambda tr, sp, a, kw, r: {"jets": r["jets"]},
}


class Tracer:
    """In-memory span recorder for one benchmark process (single thread)."""

    def __init__(self):
        self.spans: list[list] = []
        self.task_labels: list[str] = []
        self.seen_tables: set = set()
        self.overhead_ns = 0
        self._stack: list[int] = []
        self._task: int | None = None  # spans outside a task are not recorded
        self._undo: list[tuple] = []

    @contextmanager
    def task_span(self, label: str):
        self.task_labels.append(label)
        self._task = len(self.task_labels) - 1
        span = [self._task, -1, ROOT_SPAN, 0, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[3] = time.perf_counter_ns()
        try:
            yield
        finally:
            span[4] = time.perf_counter_ns()
            self._stack.pop()
            self._task = None

    def _wrap(self, name: str, fn, annotate):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if self._task is None:
                return fn(*args, **kwargs)
            enter = clock()
            span = [self._task, stack[-1], name, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = end = clock()
                stack.pop()
                span[5] = {"error": type(exc).__name__}
                self.overhead_ns += span[3] - enter + clock() - end
                raise
            span[4] = end = clock()
            stack.pop()
            if annotate is not None:
                span[5] = annotate(self, span, args, kwargs, result)
            self.overhead_ns += span[3] - enter + clock() - end
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self, package) -> None:
        """Wrap every public function of the layer modules and rebind each
        reference to one, in module namespaces and module-level dicts."""
        wrapped: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                    name = f"{layer}.{attr}"
                    wrapped[id(fn)] = (fn, self._wrap(name, fn, ANNOTATE.get(name)))

        def swap(val):
            hit = wrapped.get(id(val))
            if hit is not None and hit[0] is val:
                return hit[1]
            if isinstance(val, tuple) and any(swap(x) is not x for x in val):
                return tuple(swap(x) for x in val)
            return val

        for mod in [getattr(package, layer) for layer in LAYERS] + [package.cli]:
            for attr, val in list(vars(mod).items()):
                new = swap(val)
                if new is not val:
                    self._undo.append((vars(mod), attr, val))
                    setattr(mod, attr, new)
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        new = swap(item)
                        if new is not item:
                            self._undo.append((val, key, item))
                            val[key] = new

    def uninstall(self) -> None:
        while self._undo:
            container, key, old = self._undo.pop()
            container[key] = old

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (task, parent, name, start, end, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"trace": task, "task": self.task_labels[task],
                                     "span": i, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "attrs": attrs}) + "\n")


def per_layer_metrics(tracer: Tracer, health: dict, report_bytes: list[int]) -> dict:
    """{name: (value, calls)} for every PER_LAYER metric; calls counts the
    spans (or checked reports) the value rests on, and a metric with none
    reads 0."""
    spans = tracer.spans
    dur = [s[4] - s[3] for s in spans]
    self_ns = list(dur)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[2]].append(i)
        if s[1] >= 0:
            self_ns[s[1]] -= dur[i]

    def pick(name, **match):
        return [i for i in by_name.get(name, ())
                if all((spans[i][5] or {}).get(k) == v for k, v in match.items())]

    def attr(idx, key):
        return sum(spans[i][5][key] for i in idx)

    def per_unit(idx, key, scale):
        """Total span time (ns) per unit of work, times scale."""
        den = attr(idx, key) if idx else 0
        return (sum(dur[i] for i in idx) * scale / den if den else 0.0, len(idx))

    def mean(idx, scale):
        return (sum(dur[i] for i in idx) * scale / len(idx) if idx else 0.0, len(idx))

    def share(num, den, calls):
        return (num / den if den else 0.0, calls)

    def rate(idx, key):
        total = sum(dur[i] for i in idx)
        return (attr(idx, key) * 1e9 / total if total else 0.0, len(idx))

    roots = by_name.get(ROOT_SPAN, [])
    n_tasks = len(roots)
    task_ns = sum(dur[i] for i in roots)
    out = {}

    flows_exact = [i for name in ("lax.flow_t1_explicit", "lax.flow_t2_explicit",
                                  "lax.flow_t2_even_explicit")
                   for i in pick(name, exact=True)]
    rk4 = pick("lax.integrate_flow")
    comm = pick("lax.lax_rhs_commutator", exact=False)
    out["lax.flow_t2_even_us_per_slot"] = per_unit(
        pick("lax.flow_t2_even_explicit", exact=False), "slots", 1e-3)
    out["lax.rk4_us_per_slot_step"] = per_unit(rk4, "slot_steps", 1e-3)
    out["lax.rk4_overhead_share"] = share(sum(self_ns[i] for i in rk4),
                                          sum(dur[i] for i in rk4), len(rk4))
    out["lax.flow_t1_us_per_slot"] = per_unit(
        pick("lax.flow_t1_explicit", exact=False), "slots", 1e-3)
    out["lax.flow_t2_us_per_slot"] = per_unit(
        pick("lax.flow_t2_explicit", exact=False), "slots", 1e-3)
    out["lax.commutator_m36_ms"] = mean(pick("lax.lax_rhs_commutator", exact=False,
                                             M=36), 1e-6)
    out["lax.commutator_m128_ms"] = mean(pick("lax.lax_rhs_commutator", exact=False,
                                              M=128), 1e-6)
    out["lax.interior_share"] = share(attr(comm, "interior"), attr(comm, "computed"),
                                      len(comm))
    out["lax.commutator_exact_ms"] = mean(pick("lax.lax_rhs_commutator", exact=True),
                                          1e-6)
    out["lax.flow_exact_us_per_slot"] = per_unit(flows_exact, "slots", 1e-3)
    out["lax.initial_bands_ms"] = mean(pick("lax.initial_bands_gaussian"), 1e-6)

    evolve_tasks = {spans[i][0] for i in roots
                    if tracer.task_labels[spans[i][0]].startswith("chain-evolve")}
    csv = pick("chain.trajectory_to_csv")
    out["chain.rhs_t2_ns_per_point_band"] = per_unit(pick("chain.chain_rhs_t2"),
                                                     "point_bands", 1.0)
    out["chain.evolve_step_ms"] = per_unit(pick("chain.evolve_chain"), "steps", 1e-6)
    out["chain.rhs_corrected_ns_per_point_band"] = per_unit(
        pick("chain.chain_rhs_t2_corrected"), "point_bands", 1.0)
    out["chain.continuum_residual_ms"] = mean(pick("chain.continuum_residual"), 1e-6)
    out["chain.csv_rows_per_s"] = rate(csv, "rows")
    out["chain.csv_share"] = share(
        sum(dur[i] for i in csv if spans[i][0] in evolve_tasks),
        sum(dur[i] for i in roots if spans[i][0] in evolve_tasks), len(csv))

    tables = pick("ensemble.moment_matrix") + pick("ensemble.moment_mu")
    cold = [i for i in tables if (spans[i][5] or {}).get("table") == "new"]
    warm = [i for i in tables if (spans[i][5] or {}).get("table") == "repeated"]
    top_ensemble = [i for name, idx in by_name.items() if name.startswith("ensemble.")
                    for i in idx if not spans[spans[i][1]][2].startswith("ensemble.")]
    out["ensemble.moment_table_cold_ms"] = mean(cold, 1e-6)
    out["ensemble.moment_table_warm_ms"] = mean(warm, 1e-6)
    out["ensemble.moment_table_warm_share"] = share(len(warm), len(warm) + len(cold),
                                                    len(warm) + len(cold))
    out["ensemble.pfaffian_d8_us"] = mean(pick("ensemble.pfaffian", dim=8), 1e-3)
    out["ensemble.pfaffian_d24_us"] = mean(pick("ensemble.pfaffian", dim=24), 1e-3)
    out["ensemble.tau_report_ms"] = mean(pick("ensemble.tau_report"), 1e-6)
    out["ensemble.flow_residual_ms"] = mean(pick("ensemble.moment_flow_residual"), 1e-6)
    out["ensemble.quadrature_errors"] = (
        float(sum((spans[i][5] or {}).get("error") == "QuadratureError"
                  for i in top_ensemble)), len(top_ensemble))

    scans = pick("integrability.haantjes_scan")
    mutated = [i for i in scans if tracer.task_labels[spans[i][0]] == "haantjes-mutated"]
    report = pick("reductions.involutivity_report")
    out["integrability.haantjes_entries_per_s"] = rate(scans, "entries")
    out["integrability.nijenhuis_entries_per_s"] = rate(
        pick("integrability.nijenhuis_oracle_check"), "entries")
    out["integrability.haantjes_nonzero"] = (
        attr(mutated, "nonzero") / len(mutated) if mutated else 0.0, len(mutated))
    out["reductions.gt_jets_per_s"] = rate(report, "jets")
    out["reductions.eigen_residual_share"] = share(
        sum(dur[i] for i in pick("reductions.eigen_residual")),
        sum(dur[i] for i in report), len(report))

    for name, values in health.items():
        out[name] = (max(values), len(values))
    for name in ("lax.max_mismatch", "chain.cfl_number", "ensemble.selberg_dev_max"):
        out.setdefault(name, (0.0, 0))
    out["cli.self_ms"] = (sum(self_ns[i] for i in roots) * 1e-6 / n_tasks
                          if n_tasks else 0.0, n_tasks)
    out["cli.report_bytes"] = (sum(report_bytes) / len(report_bytes)
                               if report_bytes else 0.0, len(report_bytes))
    for layer in LAYERS:
        idx = [i for name, ids in by_name.items() if name.startswith(layer + ".")
               for i in ids]
        out[f"{layer}.self_ms"] = (sum(self_ns[i] for i in idx) * 1e-6 / n_tasks
                                   if n_tasks else 0.0, len(idx))
    out["trace.task_ms"] = (task_ns * 1e-6 / n_tasks if n_tasks else 0.0, n_tasks)
    out["trace.overhead_share"] = (tracer.overhead_ns / task_ns if task_ns else 0.0,
                                   n_tasks)
    return out
