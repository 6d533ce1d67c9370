"""Compare two checkouts on the benchmark in alternating pairs of runs:

    python3 tools/ab_pairs.py BASE CHANGE --workload bundled --seed 42 \
        --seconds 20 --pairs 10

Each pair runs `perfbench/run.py` of BASE and of CHANGE, each in its own
checkout, on every --workload; even pairs run BASE first, odd pairs
CHANGE first, so that a drift of the host's speed falls on both sides.
It prints each pair's end-to-end metrics (those of BENCHMARK.json) per
workload, then per workload and metric the median and quartiles of each
side, the gap between the medians against BASE's interquartile range,
and the number of pairs CHANGE won.  A run that is not correct or that
failed operations is printed as such and counted as a loss.

The runs get PYTHONDONTWRITEBYTECODE=1, and a checkout that has a
src/currentkit/__pycache__ is refused: without written bytecode each
set-up compiles the sources, so a stale cache in one checkout alone
would lower that side's `setup_s`.  Compiling also makes `peak_rss_mb`
grow with the length of the sources, comments included, so the summary
gives each side's src/currentkit size in bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end() -> dict:
    """The end-to-end metrics of this checkout's BENCHMARK.json, each
    name with True when lower is better."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}


def check_checkout(path: str) -> str:
    """The error that refuses `path` as a checkout, or ''."""
    if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
        return f"{path}: no perfbench/run.py"
    if os.path.isdir(os.path.join(path, "src", "currentkit", "__pycache__")):
        return (f"{path}: has src/currentkit/__pycache__, which would skew "
                f"its setup_s; remove it first")
    return ""


def source_bytes(checkout: str) -> int:
    """The size in bytes of the .py files in `checkout`'s
    src/currentkit."""
    root = os.path.join(checkout, "src", "currentkit")
    return sum(os.path.getsize(os.path.join(root, name))
               for name in os.listdir(root) if name.endswith(".py"))


def run_once(checkout: str, workload: str, seed: int,
             seconds: float) -> dict:
    """The JSON report of one `perfbench/run.py` run in `checkout`."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench/run.py in {checkout} exited "
                           f"{done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def ok(report: dict) -> bool:
    return report["correct"] and report["failed"] == 0


def spread(values: list):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(runs: list, metrics: dict) -> list:
    """The summary lines of one workload's pairs, `runs` a list of
    (base report, change report)."""
    lines = []
    for name, lower in metrics.items():
        base = [b["metrics"][name]["value"] for b, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        wins = sum(ok(c) and (cv < bv if lower else cv > bv)
                   for (_, c), bv, cv in zip(runs, base, change))
        b1, bm, b3 = spread(base)
        c1, cm, c3 = spread(change)
        lines.append(
            f"  {name:<12} base {bm:.6g} [{b1:.6g}, {b3:.6g}]  change "
            f"{cm:.6g} [{c1:.6g}, {c3:.6g}]  {100 * (cm / bm - 1):+.1f}%  "
            f"gap {abs(cm - bm):.3g} vs base IQR {b3 - b1:.3g}  "
            f"wins {wins}/{len(runs)}")
    return lines


def parse_args(argv=None) -> argparse.Namespace:
    """The command line; --workload collects every occurrence, each
    workload once in the order first given, and is bundled when none is
    given."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", nargs="+", action="extend",
                        choices=["bundled", "refined", "flatgrid"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    args.workload = list(dict.fromkeys(args.workload or ["bundled"]))
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = [os.path.abspath(args.base), os.path.abspath(args.change)]
    for path in checkouts:
        error = check_checkout(path)
        if error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    metrics = end_to_end()
    runs = {w: [] for w in args.workload}
    for k in range(args.pairs):
        for workload in args.workload:
            order = (0, 1) if k % 2 == 0 else (1, 0)
            reports = [None, None]
            for side in order:
                reports[side] = run_once(checkouts[side], workload,
                                         args.seed, args.seconds)
            runs[workload].append(tuple(reports))
            cells = "  ".join(
                f"{name} {reports[0]['metrics'][name]['value']:.6g} -> "
                f"{reports[1]['metrics'][name]['value']:.6g}"
                for name in metrics)
            flags = "".join(f"  [{label} NOT OK: correct "
                            f"{r['correct']}, failed {r['failed']}]"
                            for label, r in zip(("base", "change"), reports)
                            if not ok(r))
            first = "base" if order[0] == 0 else "change"
            print(f"pair {k + 1} {workload} ({first} first): {cells}{flags}",
                  flush=True)
    base_size, change_size = (source_bytes(path) for path in checkouts)
    print(f"src/currentkit bytes: base {base_size}, change {change_size} "
          f"({change_size - base_size:+d})")
    for workload, pairs in runs.items():
        print(f"{workload}, seed {args.seed}, {len(pairs)} pairs:")
        print("\n".join(summary(pairs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
