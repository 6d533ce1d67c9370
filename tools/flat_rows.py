"""Time the library's `flat_norm_lp` on the codimension-1 rows of the
ROADMAP's "Codimension-1 flat norms" table:

    PYTHONPATH=src python3 tools/flat_rows.py --rows large

`--rows large` gives the four rows of the large set (2-D res 32 and 3-D
res 8, each with `cell_union_boundary` and `random_faces`); `--rows
xlarge` the `random_faces` rows at twice the resolution (2-D res 64,
3-D res 12).  Each chain comes from `perfbench.workloads` with a new
`np.random.default_rng([42, 1])`, on the unit-box Freudenthal complex of
its resolution.  Each row is solved three times; it prints, as a
Markdown table, the solver's pivots, the flat norm F, the median CPU
seconds of the three `flat_norm_lp` calls and those seconds per pivot,
in µs; building the complex and the chain is not timed.
The library is the `currentkit` on PYTHONPATH (this checkout's `src/`
when there is none).
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.append(os.path.join(ROOT, "src"))

from currentkit.complexes import freudenthal_complex  # noqa: E402
from currentkit.flatnorm import flat_norm_lp  # noqa: E402
from perfbench import workloads  # noqa: E402

ROWS = {
    "large": [(2, 32, "cell_union_boundary"), (2, 32, "random_faces"),
              (3, 8, "cell_union_boundary"), (3, 8, "random_faces")],
    "xlarge": [(2, 64, "random_faces"), (3, 12, "random_faces")],
}


def row(dim: int, res: int, kind: str) -> tuple:
    """(pivots, F, CPU seconds) of `flat_norm_lp` on one row."""
    comp = freudenthal_complex([0.0] * dim, [1.0] * dim, res)
    T = getattr(workloads, kind)(dim, res, np.random.default_rng([42, 1]))
    start = time.process_time()
    value, _, _, info = flat_norm_lp(T, comp)
    return info["iterations"], value, time.process_time() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", choices=sorted(ROWS), default="large")
    args = parser.parse_args(argv)
    print("| input | pivots | F | seconds | µs/pivot |")
    print("|---|---|---|---|---|")
    for dim, res, kind in ROWS[args.rows]:
        runs = [row(dim, res, kind) for _ in range(3)]
        pivots, value, _ = runs[0]
        seconds = statistics.median(run[2] for run in runs)
        print(f"| {dim}-D res {res}, `{kind}` | {pivots} | {value!r} | "
              f"{seconds:.2f} | {1e6 * seconds / pivots:.1f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
