"""Time the benchmark's set-up in a fresh process and print it in seconds:
import pfaffchain, numpy and scipy, generate the seeded inputs and create
the output directory.  Interpreter start-up before the first line is not
counted.  Usage: ``python3 perfbench/probe.py <workload> <seed>``.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import perfbench  # noqa: E402

perfbench.pin_thread_pools()

from perfbench import harness  # noqa: E402  (imports pfaffchain, numpy, scipy)

if __name__ == "__main__":
    work_dir = ROOT / ".perfbench" / "work" / f"probe-{os.getpid()}"
    try:
        harness.setup(sys.argv[1], int(sys.argv[2]), work_dir)
        elapsed = time.perf_counter() - START
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(repr(elapsed))
