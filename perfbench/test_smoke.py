"""Smoke test of the benchmark at tiny sizes, so the script cannot rot.

    python -m pytest perfbench/test_smoke.py

It checks that every workload runs, reports exactly the metrics that
BENCHMARK.json names and rejects wrong outputs.  No assertion depends on a
timing.
"""

import contextlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_its_metrics(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}


def test_same_seed_same_digest():
    digests = []
    for trace in ("0", "1"):
        proc = run_bench("--workload", "histogram", "--seed", "5", "--seconds", "0.2",
                         "--trace", trace, "--tiny")
        assert proc.returncode == 0, proc.stderr
        digests += [ln for ln in proc.stdout.splitlines() if ln.startswith("digest ")]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_fails_without_the_source_tree():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench("--workload", "allocate", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare, script=bare / HERE.name / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_checks_reject_wrong_outputs():
    alloc = workloads.Allocate(tiny=True)
    item = alloc.items(1, 1)[0]
    a, report = alloc.run(item)
    alloc.check(item, (a, report))
    swapped = type(a)(a.bundles[1:] + a.bundles[:1])
    with pytest.raises(workloads.WrongOutput):
        alloc.check(item, (swapped, report))

    hist = workloads.Histogram(tiny=True)
    item = hist.items(1, 1)[0]
    rec = hist.run(item)
    hist.check(item, rec)
    too_big = type(rec)(rec.n, rec.m, rec.alpha, rec.hill, rec.hill + 1, rec.ratio)
    with pytest.raises(workloads.WrongOutput):
        hist.check(item, too_big)

    bounds = workloads.Bounds(tiny=True)
    item = bounds.items(1, 1)[0]
    rows, certs = bounds.run(item)
    bounds.check(item, (rows, certs))
    alpha, up, lo, g, _ = rows[0]
    bad_row = (alpha, up, lo, g, Fraction(2))  # above the ceiling 2n/(n+1)
    with pytest.raises(workloads.WrongOutput):
        bounds.check(item, ([bad_row] + rows[1:], certs))
