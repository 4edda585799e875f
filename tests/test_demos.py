"""Every demo script runs to completion against the package in src/, and
demos/03_allocation.py prints what tests/golden/demos/ records.

To re-capture that record after a deliberate output change, run

    PYTHONPATH=src python demos/03_allocation.py > tests/golden/demos/03_allocation.txt

and review its diff.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_allocation_demo_output_is_recorded(tmp_path):
    # the demo prints every knife level's served_value and bundle_costs,
    # which a knife-built level computes on first read
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "03_allocation.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    record = ROOT / "tests" / "golden" / "demos" / "03_allocation.txt"
    assert (proc.returncode, proc.stdout) == (0, record.read_text(encoding="utf-8")), proc.stderr
