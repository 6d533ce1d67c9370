"""End-to-end benchmark of the currentkit command line.

    python3 perfbench/run.py --workload {bundled,refined,flatgrid,all}
                             --seed N --seconds S --trace {0,1}

It finds the library in `src/` next to this directory and drives the
public entry point `currentkit.cli.main` in-process, one client in a
closed loop with --workers 1.  One run of one workload:

1. set-up: SETUP_REPEATS fresh processes each import currentkit and write
   the workload's inputs from the seed;
2. one measuring process (`worker.py`) with its own set-up, a warm-up pass
   over input set 0 and one timed pass over each input set; the number of
   sets is what fills S seconds at the pass times of `workloads.PASS_S`,
   so runs with the same seed attempt the same operations.  With
   --trace 1 it then runs the same passes again under the outside-in
   tracer of `tracing.py`;
3. the oracles of `checks.py` on every output, outside the timed region.

The host's speed is gauged with the fixed kernel of `refspeed.py` before
and after every operation and set-up, and times are reported at the
reference speed (raw seconds are printed in brackets).  `setup_s` is the
median set-up over all those processes; `wall_s` one pass: per
subcommand the median over its operations that did not fail, summed;
`peak_rss_mb` the peak resident memory of the measuring process.  Printed
as well, but not metrics of BENCHMARK.json: `first_pass_s`, the warm-up
pass (what a one-shot CLI user pays), a single pass over a single input
that is cut short when the program fails on that input (see
baseline.json); and `fail_frac`, which `failed` and `attempted` carry.
With --trace 1 step 1 is skipped and the metrics are the per-layer ones.

Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  An
operation (one subcommand invocation) fails when it raises, exits non-zero
or fails a check; `correct` is false when an output the program produced
fails a check or repeated passes over one input disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

from refspeed import REF_S, at_reference
from worker import DEFAULT_SEED, HERE, SRC, WORK

WORKLOADS = ("bundled", "refined", "flatgrid")

SETUP_REPEATS = 4
RUN_DEADLINE_S = 170   # a run ends within 180 s, or fails without result

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import currentkit.cli
import workloads
w, seed, seconds = sys.argv[3], int(sys.argv[4]), float(sys.argv[5])
workloads.prepare(w, seed, workloads.n_passes(w, seconds), sys.argv[6])
setup_s = time.perf_counter() - t0
import refspeed
print(setup_s, refspeed.gauge())
"""


def _child(argv, deadline, stderr_lines=None) -> str:
    """Last line of a Python child's output, killing it at the monotonic
    time `deadline`; its standard error lines go to `stderr_lines`."""
    proc = subprocess.run([sys.executable] + argv, capture_output=True,
                          text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark process failed:\n{proc.stderr}")
    if stderr_lines is not None:
        stderr_lines += proc.stderr.splitlines()
    return proc.stdout.strip().splitlines()[-1]


def measure_setup(workload, seed, seconds, workdir, deadline) -> list:
    """(seconds, gauge) of importing currentkit and writing the inputs,
    each in a fresh process."""
    out = []
    for k in range(SETUP_REPEATS):
        d = os.path.join(workdir, f"setup{k}")
        os.makedirs(d)
        raw, gauged = _child(
            ["-c", SETUP_CODE, SRC, HERE, workload, str(seed), str(seconds),
             d], deadline).split()
        out.append((float(raw), float(gauged)))
        shutil.rmtree(d)
    return out


def describe(name, value, unit, what):
    return f"  {name:<14} {value:12.6g} {unit:<5} ({what})"


def pass_seconds(ops, raw=False) -> float:
    """Seconds of one pass at the reference speed (raw seconds with
    `raw`): for each operation of a pass, the median over the passes
    where it did not fail (over all of them when it failed in each),
    summed over the operations of a pass."""
    times = {}
    for op in ops:
        t = op["seconds"] if raw else at_reference(op["seconds"],
                                                    op["gauged"])
        times.setdefault(op["slot"], ([], []))[op["failed"]].append(t)
    return sum(statistics.median(ok or bad) for ok, bad in times.values())


def layer_unit(name: str) -> str:
    if name == "trace.overhead_frac":
        return "ratio"
    if ".us_per_" in name:
        return "us"
    return "s" if name.endswith("_s") else "count"


def run_workload(workload, seed, seconds, trace):
    for var in ("CURRENTKIT_TIMINGS", "CURRENTKIT_LOG"):
        os.environ.pop(var, None)
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        deadline = time.monotonic() + RUN_DEADLINE_S
        setup = [] if trace else measure_setup(workload, seed, seconds,
                                               workdir, deadline)

        stderr = []
        report = json.loads(_child(
            [os.path.join(HERE, "worker.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--dir", os.path.join(workdir, "worker")],
            deadline, stderr))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup.append((report["setup_s"], report["setup_gauged"]))
    ops = report["ops"]
    notes = [f"{op['command']} output in {op['pass']} differs from the "
             f"first run of its input set" for op in ops
             if op["digest"] not in (op["expected"], None)]
    failed = sum(op["failed"] for op in ops)
    correct = not notes and not any(op["problems"] for op in ops)

    timed = [op for op in ops if op["pass"].startswith("pass")]
    n_passes = len({op["pass"] for op in timed})
    print(f"workload {workload}, seed {seed}: {len(ops)} operations, "
          f"closed loop, one client, --workers 1")
    if trace:
        traced = [op for op in ops if op["pass"].startswith("traced")]
        layers = dict(report["layers"])
        layers["trace.overhead_frac"] = (pass_seconds(traced)
                                         / pass_seconds(timed) - 1.0)
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in layers.items()}
        print(f"  per-layer medians of {n_passes} traced passes; "
              f"{n_passes} untraced passes")
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    else:
        warm = [op for op in ops if op["pass"] == "warmup"]
        gauges = [g for _, g in setup] + [op["gauged"] for op in ops]
        setup_s = statistics.median(at_reference(*x) for x in setup)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": pass_seconds(timed), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
        print("  times at the reference speed (perfbench/refspeed.py); "
              "raw seconds in brackets")
        print(describe("setup_s", setup_s, "s",
                       f"median of {len(setup)} fresh processes "
                       f"[{statistics.median(x for x, _ in setup):.4g}]"))
        print(describe("wall_s", metrics["wall_s"]["value"], "s",
                       f"{n_passes} warm passes, one per input set "
                       f"[{pass_seconds(timed, raw=True):.4g}]"))
        print(describe("first_pass_s", pass_seconds(warm), "s",
                       f"the warm-up pass, printed only "
                       f"[{pass_seconds(warm, raw=True):.4g}]"))
        print(describe("peak_rss_mb", report["peak_rss_mb"], "MB",
                       "the measuring process"))
        print(describe("kernel_ms", 1e3 * statistics.median(gauges), "ms",
                       f"median of {len(gauges)} gauges; "
                       f"{1e3 * REF_S:g} ms at the reference speed"))

    print(f"  {'fail_frac':<14} {failed / len(ops):12.6g}       "
          f"({failed} of {len(ops)} operations failed)")
    for lp in report["lps"]:
        print(f"  LP {lp['rows']}x{lp['cols']}: {lp['pivots']} pivots, "
              f"value {lp['value']:.12g}; HiGHS {lp['highs']:.12g} in "
              f"{lp['highs_s']:.3f} s")
    failures = Counter((op["command"], op["reason"])
                       for op in ops if op["failed"])
    for (command, why), count in failures.items():
        print(f"  FAILED {count} x {command}: {why}")
    for line in dict.fromkeys(stderr):
        print(f"  stderr: {line}")
    for note in notes:
        print(f"  NOT DETERMINISTIC: {note}")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "currentkit", "__init__.py")):
        print(f"error: no currentkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for w in WORKLOADS:
            status |= subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", w,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]).returncode
        return status
    run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
