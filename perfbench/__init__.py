"""Benchmark of the pfaffchain package: seeded workloads driven in-process,
a check of every task's output, and an optional traced run for per-layer
numbers.  Entry point: ``python3 perfbench/run.py --help``.
"""

import os

# BLAS/OpenMP pools are pinned to one thread: unpinned, the same 128x128
# float commutator swings between 2.5 ms and 115 ms per call from one
# process to the next, which swamps every comparison between commits.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_thread_pools() -> None:
    """Pin the thread pools; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
