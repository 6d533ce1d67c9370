"""Write the command line's CSV outputs for a list of seeds, so that two
commits can be compared with `diff -r`:

    PYTHONPATH=src python3 tools/cli_csvs.py OUT

The seeds default to 42, 7 and 977, those of the determinism contract,
so this one command writes the whole contract set (54 CSVs); `--seeds`
picks others.  For each seed, under OUT/seed<seed>/:

- bundled/<command>/: the four subcommands on the bundled scenario
  library, run with that --seed;
- refined/<scenario>/<command>/: verify and transport on each scenario
  file of `perfbench.workloads.write_refined`;
- flatgrid/<scenario>/flatnorm/: flatnorm on each scenario file of
  `perfbench.workloads.write_flatgrid`.

The generated inputs go to a temporary directory, so OUT holds the CSVs
alone.  The library is the `currentkit` on PYTHONPATH (this checkout's
`src/` when there is none), so the same script writes the outputs of
another checkout with PYTHONPATH=<checkout>/src.  `--against DIR`
compares the CSVs of the seeds written with those under DIR, the OUT of
an earlier run, byte for byte, prints the paths that differ or that
only one of the two has, and then how many files it compared and how
many differ:

    PYTHONPATH=src python3 tools/cli_csvs.py OUT --against PARENT_OUT

Exits 1 when a subcommand exits non-zero or a CSV differs.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.append(os.path.join(ROOT, "src"))

from currentkit import cli  # noqa: E402
from perfbench import workloads  # noqa: E402

BUNDLED = ("verify", "transport", "flatnorm", "converge")
GENERATED = (("refined", workloads.write_refined, ("verify", "transport")),
             ("flatgrid", workloads.write_flatgrid, ("flatnorm",)))


def _run(argv, out: str) -> int:
    os.makedirs(out)
    return cli.main(argv + ["--out", out])


def write_csvs(out: str, seed: int) -> list:
    """The outputs of one seed under `out`; returns the argument lists of
    the subcommands that exited non-zero."""
    failed = []
    for command in BUNDLED:
        argv = [command, "--seed", str(seed)]
        if _run(argv, os.path.join(out, "bundled", command)):
            failed.append(argv)
    for workload, write, commands in GENERATED:
        with tempfile.TemporaryDirectory() as inputs:
            for config in write(seed, inputs):
                name = os.path.splitext(os.path.basename(config))[0]
                for command in commands:
                    argv = [command, "--config", config]
                    if _run(argv, os.path.join(out, workload, name,
                                               command)):
                        failed.append(argv)
    return failed


def _files(root: str, seeds) -> set:
    """The paths of the files under root/seed<seed>/ for each seed,
    relative to `root`."""
    return {os.path.relpath(os.path.join(folder, name), root)
            for seed in seeds
            for folder, _, names in os.walk(os.path.join(root, f"seed{seed}"))
            for name in names}


def differing(out: str, against: str, seeds) -> tuple:
    """(the number of files of `seeds` under either of `out` and
    `against`, the sorted paths, relative to both, of those whose bytes
    differ between the two or that only one has)."""
    paths = _files(out, seeds) | _files(against, seeds)
    return len(paths), sorted(
        path for path in paths
        if not all(os.path.isfile(os.path.join(root, path))
                   for root in (out, against))
        or not filecmp.cmp(os.path.join(out, path),
                           os.path.join(against, path), shallow=False))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="output directory (must not exist)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[42, 7, 977])
    parser.add_argument("--against", metavar="DIR",
                        help="compare the written seeds' CSVs byte for "
                        "byte with those under DIR")
    args = parser.parse_args(argv)
    failed = []
    for seed in args.seeds:
        failed += write_csvs(os.path.join(args.out, f"seed{seed}"), seed)
    for argv in failed:
        print("exited non-zero:", " ".join(argv), file=sys.stderr)
    differ = []
    if args.against:
        compared, differ = differing(args.out, args.against, args.seeds)
        for path in differ:
            print("differs:", path)
        print(f"compared {compared} files: {len(differ)} differ")
    return 1 if failed or differ else 0


if __name__ == "__main__":
    sys.exit(main())
