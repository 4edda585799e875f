"""Timing of the closed-form share layer, per grid point and per call.

    python tests/share_layer_timing.py [--quick] [--src DIR ...]

Times `experiments.curve_samples` per grid point on the `bounds` benchmark
workload's seed-1 grid (400 points j/10007, drawn by
`random.Random("bounds:1")`, for n = 2..60), and the per-call cost of
`hill_share`, `mms_lower_bound`, `guarantee` and `shares._guarantee_piece`
on the same (n, alpha) points; `_guarantee_piece`, which the moving knife
calls once per agent per level, is given alpha's numerator and denominator.

The certification half of `bounds` is timed per call on that workload's
share queries (`perfbench.workloads.share_queries`, n = 2..10): both
witness builders, `exact_mms` on the rows they build (both rows of every
query), and the two piece functions `shares._upper_piece` and
`_lower_piece`, given alpha's numerator and denominator.

The instance reader is timed per call on the `cli` workload's three seed-1
files (`perfbench.workloads.Cli(workdir=...).items(1, 9)`: 3x18 small
integers, 3x30 power-law fractions, 8x60 mostly zeros), written to a
temporary directory that is removed afterwards: `read_instance_csv`, file
read included, as `read_instance_csv_3x18` and so on.

Each figure comes from fresh processes, one per tree and round: a process
imports the package from its tree, times every layer 15 times and keeps the
best.  With several `--src` trees the six rounds alternate which tree runs
first, and a tree's figure is the best over its six processes, so a slow
moment of the host reaches every tree alike.  The default tree is the one
this file sits in.  The result is one JSON object on stdout, times in
microseconds.  `--quick` runs one process, one pass and n = 2..4, to show
that the script runs.

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GRID_POINTS = 400
LATTICE = 10007
PROCESSES, REPEATS, MAX_N = 6, 15, 60
READS = 20  # file reads per timed pass
QUICK = 1, 1, 4  # processes, repeats and largest n of a --quick run


def grid() -> list[Fraction]:
    """The `bounds` workload's seed-1 grid."""
    rng = random.Random("bounds:1")
    return [Fraction(j, LATTICE) for j in sorted(rng.sample(range(1, LATTICE), GRID_POINTS))]


def best_seconds(run, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(ns: range, repeats: int) -> dict[str, float]:
    """Best-of-repeats microseconds per point (curve) and per call (the rest)."""
    with tempfile.TemporaryDirectory() as tmp:
        return _measure(ns, repeats, Path(tmp))


def _measure(ns: range, repeats: int, tmp: Path) -> dict[str, float]:
    from fairchores.core import read_instance_csv
    from fairchores.experiments import curve_samples
    from fairchores.mms import exact_mms
    from fairchores.shares import (
        _guarantee_piece,
        _lower_piece,
        _upper_piece,
        guarantee,
        hill_share,
        mms_lower_bound,
        witness_lower,
        witness_upper,
    )
    from perfbench.workloads import MMS_MAX_AGENTS, Cli, share_queries

    points = grid()
    pairs = [(a.numerator, a.denominator) for a in points]
    count = len(ns) * len(points)
    queries = [(n, a, m) for n in ns if n <= MMS_MAX_AGENTS for a, m in share_queries(n)]
    rows = [(build(n, a, m).vector, n) for n, a, m in queries
            for build in (witness_upper, witness_lower)]

    def curve():
        for n in ns:
            curve_samples(n, points)

    def calls(share):
        def run():
            for n in ns:
                for a in points:
                    share(n, a)
        return run

    def piece():
        for n in ns:
            for p, q in pairs:
                _guarantee_piece(n, p, q)

    def witnesses(build):
        def run():
            for n, a, m in queries:
                build(n, a, m)
        return run

    def certify():
        for v, n in rows:
            exact_mms(v, n)

    def pieces(share_piece):
        args = [(n, a.numerator, a.denominator, m) for n, a, m in queries]

        def run():
            for n, p, q, m in args:
                share_piece(n, p, q, m)
        return run

    def reads(path):
        def run():
            for _ in range(READS):
                read_instance_csv(path)
        return run

    cli = Cli(workdir=tmp)
    cli.items(1, 9)
    files = {f"read_instance_csv_{n}x{m}": tmp / f"inst_{n}x{m}.csv" for n, m in cli.shapes}

    layers = {"curve_samples_per_point": (curve, count),
              "hill_share": (calls(hill_share), count),
              "mms_lower_bound": (calls(mms_lower_bound), count),
              "guarantee": (calls(guarantee), count),
              "_guarantee_piece": (piece, count),
              "witness_upper": (witnesses(witness_upper), len(queries)),
              "witness_lower": (witnesses(witness_lower), len(queries)),
              "exact_mms_on_witness_rows": (certify, len(rows)),
              "_upper_piece": (pieces(_upper_piece), len(queries)),
              "_lower_piece": (pieces(_lower_piece), len(queries)),
              **{name: (reads(path), READS) for name, path in files.items()}}
    return {name: round(best_seconds(run, repeats) / per * 1e6, 4)
            for name, (run, per) in layers.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", type=Path,
                    help="a tree's src directory (repeatable; default: this checkout's)")
    ap.add_argument("--quick", action="store_true",
                    help="one process, one pass, n = 2..4: a check that the script runs")
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    processes, repeats, max_n = QUICK if args.quick else (PROCESSES, REPEATS, MAX_N)

    if args.child:  # one process: time the tree on sys.path and print one line
        sys.path[:0] = [str(args.child), str(ROOT)]  # the tree's package, then perfbench
        print(json.dumps(measure(range(2, max_n + 1), repeats)))
        return 0

    trees = args.src or [SRC]
    best: dict[str, dict[str, float]] = {str(t): {} for t in trees}
    for round_ in range(processes):
        for tree in trees if round_ % 2 == 0 else trees[::-1]:
            out = subprocess.run(
                [sys.executable, __file__, "--child", str(tree)] + ["--quick"] * args.quick,
                check=True, capture_output=True, text=True).stdout
            for name, us in json.loads(out.splitlines()[-1]).items():
                seen = best[str(tree)].get(name)
                best[str(tree)][name] = us if seen is None else min(seen, us)
    print(json.dumps({
        "unit": "microseconds; curve_samples per grid point, the rest per call",
        "grid": f"{GRID_POINTS} points j/{LATTICE} from random.Random('bounds:1'), n = 2..{max_n}",
        "witnesses": "perfbench.workloads.share_queries(n) for the n above that the bounds "
                     "workload certifies (n <= MMS_MAX_AGENTS); exact_mms per row, both "
                     "rows of every query",
        "files": "read_instance_csv on perfbench.workloads.Cli(...).items(1, 9)'s three "
                 "instance files, file read included",
        "method": f"best of {repeats} passes per process and of {processes} "
                  "processes per tree, trees alternating",
        "python": platform.python_version(),
        "trees": best,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
