"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; run metadata and,
with ``--trace 1``, the spans go to ``.perfbench/`` in the checkout.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import perfbench  # noqa: E402

perfbench.pin_thread_pools()

try:
    from perfbench import harness  # noqa: E402  (imports numpy after the pin)
except ImportError as exc:
    print(f"error: cannot import the program or its dependencies: {exc}",
          file=sys.stderr)
    sys.exit(2)

if __name__ == "__main__":
    sys.exit(harness.main())
