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

`curve_csv` is timed per row on the rows that the tree's `curve_samples`
gives for that grid, as `curve_csv_per_row`.

`allocate` is timed per instance on the `allocate` workload's seed-1 pool
(`perfbench.workloads.Allocate().items(1, 48)`: 4x175 and 12x90
instances, alternating), each tree normalising the pool's rows itself, as
`allocate_per_instance`.

Every tree runs in one process: each tree's package is imported under a
name of its own (`fairchores_tree0`, `fairchores_tree1`, ...), so several
versions sit side by side.  A pass times each layer on every tree back to
back, the first tree first and last in turn, and the order flips from one
pass to the next.  A tree's figure for a layer is its best over 60 passes,
so a slow moment of the host reaches every tree alike.  The default tree
is the one this file sits in.  The result is one JSON object on stdout,
times in microseconds.  `--quick` runs one pass and n = 2..4, to show that
the script runs.

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import random
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GRID_POINTS = 400
LATTICE = 10007
PASSES, MAX_N = 60, 60
READS = 20  # file reads per timed pass
QUICK = 1, 4  # passes and largest n of a --quick run


def grid() -> list[Fraction]:
    """The `bounds` workload's seed-1 grid."""
    rng = random.Random("bounds:1")
    return [Fraction(j, LATTICE) for j in sorted(rng.sample(range(1, LATTICE), GRID_POINTS))]


def load(tree: Path, name: str):
    """The package in the src directory `tree`, imported as module `name`."""
    package = tree / "fairchores"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def layers(package, ns: range, tmp: Path) -> dict[str, tuple]:
    """(run, count) per timed layer of an imported package: one call of run
    is one pass, and count is how many points, rows or calls it makes."""
    allocator, core, experiments, mms, shares = (
        package.allocator, package.core, package.experiments, package.mms, package.shares)
    from perfbench.workloads import MMS_MAX_AGENTS, Allocate, Cli, share_queries

    points = grid()
    pairs = [(a.numerator, a.denominator) for a in points]
    count = len(ns) * len(points)
    queries = [(n, a, m) for n in ns if n <= MMS_MAX_AGENTS for a, m in share_queries(n)]
    rows = [(build(n, a, m).vector, n) for n, a, m in queries
            for build in (shares.witness_upper, shares.witness_lower)]
    curves = [(experiments.curve_samples(n, points), n) for n in ns]
    workload = Allocate()
    pool = [core.normalize(raw) for raw, _ in workload.items(1, workload.pool_size)]

    def curve():
        for n in ns:
            experiments.curve_samples(n, points)

    def csv():
        for curve_rows, n in curves:
            experiments.curve_csv(curve_rows, n)

    def calls(share):
        def run():
            for n in ns:
                for a in points:
                    share(n, a)
        return run

    def piece():
        for n in ns:
            for p, q in pairs:
                shares._guarantee_piece(n, p, q)

    def witnesses(build):
        def run():
            for n, a, m in queries:
                build(n, a, m)
        return run

    def certify():
        for v, n in rows:
            mms.exact_mms(v, n)

    def pieces(share_piece):
        args = [(n, a.numerator, a.denominator, m) for n, a, m in queries]

        def run():
            for n, p, q, m in args:
                share_piece(n, p, q, m)
        return run

    def allocate():
        for inst in pool:
            allocator.allocate(inst)

    def reads(path):
        def run():
            for _ in range(READS):
                core.read_instance_csv(path)
        return run

    cli = Cli(workdir=tmp)
    cli.items(1, 9)
    files = {f"read_instance_csv_{n}x{m}": tmp / f"inst_{n}x{m}.csv" for n, m in cli.shapes}

    return {"curve_samples_per_point": (curve, count),
            "curve_csv_per_row": (csv, count),
            "hill_share": (calls(shares.hill_share), count),
            "mms_lower_bound": (calls(shares.mms_lower_bound), count),
            "guarantee": (calls(shares.guarantee), count),
            "_guarantee_piece": (piece, count),
            "witness_upper": (witnesses(shares.witness_upper), len(queries)),
            "witness_lower": (witnesses(shares.witness_lower), len(queries)),
            "exact_mms_on_witness_rows": (certify, len(rows)),
            "_upper_piece": (pieces(shares._upper_piece), len(queries)),
            "_lower_piece": (pieces(shares._lower_piece), len(queries)),
            "allocate_per_instance": (allocate, len(pool)),
            **{name: (reads(path), READS) for name, path in files.items()}}


def measure(trees: list[Path], ns: range, passes: int) -> dict[str, dict[str, float]]:
    """Best-of-passes microseconds per point, row or call, per tree, the
    trees imported side by side and each layer timed on them in turn.  A
    tree named twice is imported twice; its second entry is keyed
    "<tree> #<i>", i its place among the trees."""
    # perfbench makes the inputs with the first tree's package
    sys.path[:0] = [str(trees[0].resolve()), str(ROOT)]
    keys = [f"{tree} #{i}" if tree in trees[:i] else str(tree) for i, tree in enumerate(trees)]
    with tempfile.TemporaryDirectory() as tmp:
        timed = {key: layers(load(tree.resolve(), f"fairchores_tree{i}"), ns, Path(tmp))
                 for i, (key, tree) in enumerate(zip(keys, trees))}
        best = {tree: dict.fromkeys(layer, float("inf")) for tree, layer in timed.items()}
        order = list(timed)
        for pass_ in range(passes):
            for j, name in enumerate(timed[order[0]]):
                for tree in order if (pass_ + j) % 2 == 0 else order[::-1]:
                    t0 = time.perf_counter()
                    timed[tree][name][0]()
                    best[tree][name] = min(best[tree][name], time.perf_counter() - t0)
    return {tree: {name: round(best[tree][name] / per * 1e6, 4)
                   for name, (_, per) in layer.items()} for tree, layer in timed.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", type=Path,
                    help="a tree's src directory (repeatable; default: this checkout's)")
    ap.add_argument("--quick", action="store_true",
                    help="one pass, n = 2..4: a check that the script runs")
    args = ap.parse_args(argv)
    passes, max_n = QUICK if args.quick else (PASSES, MAX_N)
    trees = args.src or [SRC]
    print(json.dumps({
        "unit": "microseconds; curve_samples per grid point, curve_csv per row, allocate "
                "per instance, the rest per call",
        "grid": f"{GRID_POINTS} points j/{LATTICE} from random.Random('bounds:1'), n = 2..{max_n}",
        "witnesses": "perfbench.workloads.share_queries(n) for the n above that the bounds "
                     "workload certifies (n <= MMS_MAX_AGENTS); exact_mms per row, both "
                     "rows of every query",
        "files": "read_instance_csv on perfbench.workloads.Cli(...).items(1, 9)'s three "
                 "instance files, file read included",
        "allocate": "allocate per instance on perfbench.workloads.Allocate().items(1, 48), "
                    "normalised by each tree",
        "method": f"best of {passes} passes per tree, every tree imported side by side "
                  "in one process, each layer timed on the trees back to back in "
                  "alternating order",
        "python": platform.python_version(),
        "trees": measure(trees, range(2, max_n + 1), passes),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
