"""The rows of the chain trajectory CSV, formatted with the standard library
only, so that this file also runs as the worker script of
``chain.trajectory_to_csv``: ``python -I -S _csvrows.py`` reads one line
``depth grid h`` (h as its ``repr``) and then the raw float64 rows of a
trajectory's first bands from stdin, and writes their CSV rows to stdout.
"""

import sys
from array import array


def format_bands(first_row: int, depth: int, h: float, grid: int, values) -> bytes:
    """Rows step,k,m,x,u of the bands held flat in ``values``, ``grid``
    samples each, band ``first_row + b`` being u^k of step s where
    ``divmod(first_row + b, 2 depth + 1) == (s, k + depth)``.  Floats are
    written as ``repr``, lines end in \\r\\n; the m,x cells are built once
    and each band is one join."""
    width = 2 * depth + 1
    cells = [f"{m},{m * h!r}," for m in range(grid)]
    bands = []
    for start in range(0, len(values), grid):
        step, k = divmod(first_row + start // grid, width)
        head = f"{step},{k - depth},"
        bands.append("".join(f"{head}{cell}{val!r}\r\n"
                             for cell, val in zip(cells, values[start:start + grid])))
    return "".join(bands).encode("ascii")


if __name__ == "__main__":
    depth, grid, h = sys.stdin.buffer.readline().split()
    values = array("d")
    values.frombytes(sys.stdin.buffer.read())
    sys.stdout.buffer.write(format_bands(0, int(depth), float(h), int(grid), values))
