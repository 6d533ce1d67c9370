"""One measuring process of the benchmark: it imports currentkit, writes
the workload's input sets, runs a warm-up pass over set 0 and one timed
pass over each set through `currentkit.cli.main` in this process,
optionally the traced passes, and then checks every output.  `run.py` starts it; the last line of its standard
output is a JSON report.

    python3 perfbench/worker.py --workload W --seed N --seconds S
                                --trace {0,1} --dir WORKDIR
"""

import argparse
import sys
import time

T_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from collections import namedtuple  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE = os.path.join(HERE, "reference")
WORK = os.path.join(HERE, "_work")
DEFAULT_SEED = 42     # the CLI's default seed; reference CSVs are for it


@dataclass
class Op:
    """One subcommand invocation and what became of it.  `slot` is its
    place in the pass; `lps` the LPRecords of the flat-norm LPs it solved,
    when they were recorded."""

    command: str
    argv: list
    out_dir: str
    input_set: int = 0
    slot: int = 0
    rc: int = None
    error: str = None
    seconds: float = None
    gauged: float = None
    lps: list = None
    problems: list = field(default_factory=list)

    @property
    def csv_path(self) -> str:
        return os.path.join(self.out_dir, f"{self.command}.csv")

    @property
    def wrote(self) -> bool:
        """Whether the CLI got as far as writing its CSV (exit 0 or 1)."""
        return self.rc in (0, 1) and self.error is None

    @property
    def failed(self) -> bool:
        return self.rc != 0 or self.error is not None or bool(self.problems)

    def reason(self) -> str:
        first = self.error or (f"exit {self.rc}" if self.rc else None)
        return "; ".join(([first] if first else []) + self.problems)

    def text(self) -> str:
        with open(self.csv_path) as fh:
            return fh.read()

    def digest(self):
        if not self.wrote:
            return None
        with open(self.csv_path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def run_pass(cli, commands, input_set, out_dir, tracer=None, captured=None):
    """One pass over the subcommands of one input set; returns its ops,
    each timed and gauged: its `gauged` is the mean of the reference
    kernel gauges (`refspeed.gauge`) taken just before and just after it.
    With `captured` (an LPRecords), each op keeps the LPs it solved, and
    the time spent recording them is not counted."""
    import refspeed

    ops = []
    before = refspeed.gauge()
    for slot, argv in enumerate(commands):
        op = Op(argv[0], argv, os.path.join(out_dir, f"op{slot}"),
                input_set, slot)
        os.makedirs(op.out_dir)
        recorded = captured.seconds if captured is not None else 0.0
        first_lp = len(captured) if captured is not None else 0
        t0 = time.perf_counter()
        try:
            if tracer is None:
                op.rc = cli.main(argv + ["--out", op.out_dir])
            else:
                with tracer.span(f"cli.{op.command}", as_root=True):
                    op.rc = cli.main(argv + ["--out", op.out_dir])
        except Exception as exc:  # a raising operation is a failed one
            op.error = f"{type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - t0
        if captured is not None:
            op.seconds -= captured.seconds - recorded
            op.lps = captured[first_lp:]
        after = refspeed.gauge()
        op.gauged, before = (before + after) / 2, after
        ops.append(op)
    return ops


def timed_passes(cli, sets, workdir, tag, recorded, tracer=None):
    """Timed pass k over input set k, for every set.  The LPs of a set not
    in `recorded` are recorded (and the set added).  Returns the ops and,
    when traced, the per-pass layer metrics and the spans of the last
    pass."""
    import tracing

    ops, layers, spans = [], [], None
    for k, commands in enumerate(sets):
        out_dir = os.path.join(workdir, f"{tag}{k}")
        if k in recorded:
            ops += run_pass(cli, commands, k, out_dir, tracer)
        else:
            with capture_lps() as captured:
                ops += run_pass(cli, commands, k, out_dir, tracer, captured)
            recorded.add(k)
        if tracer is not None:
            spans = tracer.take()
            layers.append(tracing.layer_metrics(spans))
    return ops, layers, spans


# what the flat-norm checks need of one LP: the optimum and pivots the
# program reported, the LP data (`checks.flat_norm_lp_data`) and the
# optimal R and S as coefficient vectors on the hosting complex
LPRecord = namedtuple("LPRecord", "value pivots c bmat t r s")


class LPRecords(list):
    """LPRecords in call order; `seconds` is the time spent recording."""

    seconds = 0.0


@contextmanager
def capture_lps():
    """Record an LPRecord of every `flat_norm_lp` call made in the block."""
    import checks
    import tracing
    from currentkit import flatnorm

    captured = LPRecords()
    original = flatnorm.flat_norm_lp

    def capture(T, comp, *args, **kwargs):
        result = original(T, comp, *args, **kwargs)
        t0 = time.perf_counter()
        value, S, R, info = result
        c, bmat, t = checks.flat_norm_lp_data(T, comp)
        captured.append(LPRecord(value, info["iterations"], c, bmat, t,
                                 comp.chain_vector(R), comp.chain_vector(S)))
        captured.seconds += time.perf_counter() - t0
        return result

    undo = tracing.rebind(original, capture)
    try:
        yield captured
    finally:
        tracing.restore(undo)


def _configs(argv):
    """Scenario configs an argument list runs."""
    from currentkit.scenarios import builtin_scenarios, load_config

    if "--config" in argv:
        return load_config(argv[argv.index("--config") + 1])
    return builtin_scenarios()


def scenario_context(commands):
    """Smallest eps and one-sided (tent) scenarios, from the scenario
    configs the commands use."""
    configs = [c for argv in commands for c in _configs(argv)]
    eps = {c.name: min(c.eps_ladder) for c in configs if c.cochain}
    tents = {c.name for c in configs if c.motion.get("family") == "tent"}
    return eps, tents


def reference_path(workload, command) -> str:
    return os.path.join(REFERENCE, workload, command + ".csv")


def reference_rows(workload, argv):
    """The reference CSV of an operation, cut to the scenarios of its
    scenario file; None without a reference."""
    path = reference_path(workload, argv[0])
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        text = fh.read()
    if "--config" not in argv:
        return text
    header, *rows = text.splitlines(keepends=True)
    names = {c.name for c in _configs(argv)}
    return header + "".join(r for r in rows if r.split(",", 1)[0] in names)


def check_lps(records, highs):
    """HiGHS on each recorded LP (`highs` caches the optimum and time by
    LP), and T = R + bnd S.  Returns the LP summaries and the
    decomposition problems."""
    import checks

    lps, problems = [], []
    for lp in records:
        key = (lp.c.tobytes(), lp.bmat.tobytes(), lp.t.tobytes())
        if key not in highs:
            highs[key] = checks.highs_flat_norm(lp.c, lp.bmat, lp.t)
        value, seconds = highs[key]
        lps.append({"rows": lp.t.size, "cols": lp.c.size,
                    "pivots": lp.pivots, "value": lp.value,
                    "highs": value, "highs_s": seconds})
        problems += checks.check_decomposition(lp.t, lp.r, lp.s, lp.bmat)
    return lps, problems


def check_ops(ops, workload, seed):
    """Run the oracles on every distinct output; fills `op.problems`.  A
    flatnorm output is checked against the LPs its op recorded; the same
    output of the same input later reuses that verdict.  Returns the LP
    summaries of the ops of input set 0 that recorded LPs."""
    import checks

    highs, summaries, verdicts = {}, [], {}
    for op in ops:
        if op.lps is not None:
            lps, op.problems = check_lps(op.lps, highs)
            if op.input_set == 0:
                summaries += lps
        if not op.wrote:
            continue  # the exit code or exception already fails it
        text = op.text()
        key = (op.slot, op.input_set, text)
        if key not in verdicts:
            problems = []
            if op.command == "verify":
                problems += checks.check_verify(text)
            elif op.command == "transport":
                problems += checks.check_transport(
                    text, *scenario_context([op.argv]))
            elif op.command == "flatnorm":
                problems += checks.check_flatnorm(
                    text, [lp["highs"] for lp in lps] if op.lps is not None
                    else [])
            if seed == DEFAULT_SEED and op.input_set == 0:
                ref = reference_rows(workload, op.argv)
                if ref is not None:
                    problems += checks.compare_reference(text, ref)
            verdicts[key] = problems
        op.problems = op.problems + verdicts[key]
    return summaries


def csv_identical(warm_ops, workload, seed) -> int:
    """Subcommands whose warm-up CSVs, joined in pass order under one
    header, are byte-identical to the reference (0 without one)."""
    joined = {}
    for op in warm_ops:
        if not op.wrote:
            return 0
        header, _, body = op.text().partition("\n")
        previous = joined.setdefault(op.command, header + "\n")
        joined[op.command] = previous + body
    count = 0
    for command, text in joined.items():
        ref = reference_path(workload, command)
        if seed == DEFAULT_SEED and os.path.exists(ref):
            with open(ref) as fh:
                count += fh.read() == text
    return count


def measure(workload, seed, seconds, trace, workdir):
    """The whole in-process measurement; returns the JSON report."""
    sys.path.insert(0, SRC)
    import currentkit.cli as cli
    import workloads

    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs)
    sets = workloads.prepare(workload, seed,
                             workloads.n_passes(workload, seconds), inputs)
    setup_s = time.perf_counter() - T_START
    import refspeed
    setup_gauged = refspeed.gauge()

    # the warm-up runs input set 0 and records each flat-norm LP for the
    # checks; the timed passes record those of the other sets
    with capture_lps() as captured:
        warm_ops = run_pass(cli, sets[0], 0, os.path.join(workdir, "warmup"),
                            captured=captured)
    recorded = {0}
    ops, _, _ = timed_passes(cli, sets, workdir, "pass", recorded)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = {"setup_s": setup_s, "setup_gauged": setup_gauged,
              "peak_rss_mb": peak_rss_mb, "layers": None}
    if trace:
        import tracing
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            traced_ops, layers, spans = timed_passes(
                cli, sets, workdir, "traced", recorded, tracer)
        finally:
            tracing.restore(undo)
        os.makedirs(WORK, exist_ok=True)
        spans.save(os.path.join(WORK, f"spans-{workload}-{seed}.npz"))
        report["layers"] = {name: statistics.median(p[name] for p in layers)
                            for name in layers[0]}
        report["layers"]["cli.csv_identical"] = csv_identical(
            warm_ops, workload, seed)
        ops += traced_ops

    ops = warm_ops + ops
    report["lps"] = check_ops(ops, workload, seed)
    first = {}
    for op in ops:
        first.setdefault(tuple(op.argv), op.digest())
    report["ops"] = [
        {"command": op.command, "pass": os.path.basename(
            os.path.dirname(op.out_dir)),
         "input_set": op.input_set, "slot": op.slot,
         "seconds": op.seconds, "gauged": op.gauged,
         "failed": op.failed, "reason": op.reason(),
         "problems": op.problems, "digest": op.digest(),
         "expected": first[tuple(op.argv)]} for op in ops]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one measuring process")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    report = measure(args.workload, args.seed, args.seconds, args.trace,
                     args.dir)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
