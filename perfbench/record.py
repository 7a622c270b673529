"""Record the reference digests in reference.json.

Runs every task that has a digest (float trajectories, negative controls,
slot and entry counts) once for each input variant and writes what it
produced.  Only rerun this after a change that is meant to alter those
outputs, and say so in the change: the benchmark's checks compare against
these values.  Usage: ``python3 perfbench/record.py``.
"""

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import perfbench  # noqa: E402

perfbench.pin_thread_pools()

from perfbench import harness, tasks  # noqa: E402


def record() -> dict:
    digests = {}
    work_dir = ROOT / ".perfbench" / "work" / f"record-{os.getpid()}"
    try:
        for workload in tasks.WORKLOADS:
            inputs = harness.setup(workload, 0, work_dir / workload)
            for make in tasks.ROUNDS[workload]:
                for v in range(tasks.VARIANTS):
                    task = make(inputs, v)
                    if task.digest is None or task.ref_key in digests:
                        continue
                    out_dir = inputs.work_dir / f"r{len(digests)}"
                    value = harness.run_task(task, out_dir)
                    harness.check_task(task, value, out_dir, None)
                    digests[task.ref_key] = task.digest(task, value, out_dir)
                    print(task.ref_key, digests[task.ref_key], flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return dict(sorted(digests.items()))


if __name__ == "__main__":
    tasks.REFERENCE_PATH.write_text(
        json.dumps({"digests": record()}, indent=1) + "\n", encoding="utf-8")
