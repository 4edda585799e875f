"""Golden CLI corpus: every command's exit code, stdout, stderr, warnings and
written files, compared byte for byte with the records in tests/golden/.

A case is one command, or a tuple of commands run in turn in one temp dir,
so that a later command can read what an earlier one wrote.  Its record
holds each command's exit code, stdout, stderr and warnings in order, then
the files in the temp dir once.

The records pin the CLI's output: a refactor must leave them unchanged.
To re-capture them after a deliberate output change, run

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of tests/golden/.
"""

import io
import os
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from fairchores.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _share(n, alpha, kind, m=None):
    return ["share", "--n", n, "--alpha", alpha, "--kind", kind] + (
        ["--m", m] if m is not None else [])


def _witness(n, alpha, kind, m=None):
    return ["witness", "--n", n, "--alpha", alpha, "--kind", kind] + (
        ["--m", m] if m is not None else [])


# case name -> argv, or a tuple of argvs; "{tmp}/<file>" arguments are files
# in the temp dir, whose contents are part of the record.  Other input paths
# are relative to GOLDEN.
CASES = {
    # witness_upper: every construction tag, the n=2 ones on both sides of
    # 7/27, 2/7 and 3/11
    "witness_upper_two_agent_m3": _witness(2, "1/3", "upper", 3),
    "witness_upper_two_agent_m4": _witness(2, "3/10", "upper", 4),
    "witness_upper_two_agent_low": _witness(2, "1/4", "upper"),
    "witness_upper_two_agent_low_at_7_27": _witness(2, "7/27", "upper", 9),
    "witness_upper_two_agent_low_m5": _witness(2, "3/11", "upper", 5),
    "witness_upper_two_agent_mid": _witness(2, "27/100", "upper"),
    "witness_upper_two_agent_mid_at_2_7": _witness(2, "2/7", "upper", 6),
    "witness_upper_two_agent_high": _witness(2, "3/10", "upper"),
    "witness_upper_two_agent_high_at_1_3": _witness(2, "1/3", "upper"),
    "witness_upper_two_agent_high_m5": _witness(2, "7/25", "upper", 5),
    "witness_upper_one_heavy_balanced": _witness(3, "3/10", "upper", 7),
    "witness_upper_one_heavy_balanced_k2": _witness(2, "1/6", "upper"),
    "witness_upper_alpha_heavy": _witness(2, "1/5", "upper"),
    "witness_upper_alpha_heavy_n3": _witness(3, "1/2", "upper"),
    "witness_upper_alpha_block_d": _witness(2, "1/6", "upper", 6),
    "witness_upper_alpha_block_i": _witness(3, "1/2", "upper", 3),
    "witness_upper_out_file": _witness(4, "0.15", "upper", 12) + ["--out", "{tmp}/w.csv"],
    # witness_lower: every construction tag
    "witness_lower_singleton_cover": _witness(2, "3/5", "lower"),
    "witness_lower_singleton_cover_exact": _witness(3, "1/2", "lower", 4),
    "witness_lower_even_split": _witness(2, "1/4", "lower"),
    "witness_lower_even_split_remainders": _witness(2, "3/10", "lower"),
    "witness_lower_even_split_remainders_m": _witness(3, "1/4", "lower", 9),
    "witness_lower_tight_remainders": _witness(2, "7/20", "lower", 3),
    "witness_lower_tight_remainders_k2": _witness(3, "3/20", "lower", 8),
    # share upper: the n=2, k=1 three-step piece and its finite-m cut-offs
    "share_upper_n2_m3": _share(2, "1/3", "upper", 3),
    "share_upper_n2_m4": _share(2, "3/10", "upper", 4),
    "share_upper_n2_m5_low": _share(2, "3/11", "upper", 5),
    "share_upper_n2_m5_high": _share(2, "7/25", "upper", 5),
    "share_upper_n2_7_27": _share(2, "7/27", "upper"),
    "share_upper_n2_mid": _share(2, "0.27", "upper", 6),
    "share_upper_n2_2_7": _share(2, "2/7", "upper"),
    "share_upper_n2_high": _share(2, "3/10", "upper", 20),
    "share_upper_n2_low": _share(2, "1/4", "upper"),
    "share_upper_d": _share(3, "3/10", "upper"),
    "share_upper_d_short_m": _share(2, "1/6", "upper", 6),
    "share_upper_i": _share(5, "1/10", "upper"),
    "share_upper_unrestricted_flag": ["share", "--n", "4", "--alpha", "1/9",
                                      "--unrestricted", "--kind", "upper"],
    "share_upper_out_file": _share(2, "1/3", "upper") + ["--out", "{tmp}/s.txt"],
    # share lower: all four pieces
    "share_lower_singleton": _share(2, "3/5", "lower"),
    "share_lower_even_split": _share(3, "1/6", "lower", 6),
    "share_lower_remainders": _share(2, "3/10", "lower", 8),
    "share_lower_tight": _share(2, "7/20", "lower", 3),
    "share_lower_tight_k2": _share(3, "3/20", "lower", 7),
    # share guarantee: NI, IV, both closed ends
    "share_guarantee_ni": _share(2, "7/25", "guarantee"),
    "share_guarantee_iv_boundary": _share(2, "3/10", "guarantee"),
    "share_guarantee_iv": _share(2, "2/3", "guarantee"),
    "share_guarantee_one": _share(5, "1", "guarantee"),
    "share_guarantee_small": _share(7, "0.01", "guarantee"),
    # domain and usage errors
    "share_infeasible_m": _share(2, "1/3", "upper", 2),
    "share_alpha_out_of_range": _share(2, "3/2", "lower"),
    "share_bad_alpha": _share(2, "abc", "upper"),
    # mms
    "mms_witness": ["mms", "--instance", "inputs/witness.csv", "--n", "3"],
    "mms_agent2": ["mms", "--instance", "inputs/small.csv", "--n", "3", "--agent", "2"],
    "mms_agent_out_of_range": ["mms", "--instance", "inputs/small.csv", "--n", "3",
                               "--agent", "4"],
    "mms_24": ["mms", "--instance", "inputs/mixed24.csv", "--n", "2", "--agent", "3"],
    # the two-agent-mid witness at 3/11: its greedy seed reads 31 against a
    # root bound of 28 (in 55ths), so the value 31/55 comes from the search
    "mms_two_bundle_search": (
        ["witness", "--n", "2", "--alpha", "3/11", "--out", "{tmp}/w.csv"],
        ["mms", "--instance", "{tmp}/w.csv", "--n", "2"]),
    # allocate and verify
    "allocate_small": ["allocate", "--instance", "inputs/small.csv",
                       "--allocation-out", "{tmp}/a.txt"],
    "allocate_zero_row": ["allocate", "--instance", "inputs/zero_row.csv",
                          "--allocation-out", "{tmp}/a.txt"],
    "allocate_one_agent": ["allocate", "--instance", "inputs/one_agent.csv",
                           "--allocation-out", "{tmp}/a.txt"],
    "allocate_one_agent_zero_row": ["allocate", "--instance", "inputs/one_agent_zero.csv",
                                    "--allocation-out", "{tmp}/a.txt"],
    "allocate_24": ["allocate", "--instance", "inputs/mixed24.csv",
                    "--out", "{tmp}/report.txt", "--allocation-out", "{tmp}/a.txt"],
    "verify_small_good": ["verify", "--instance", "inputs/small.csv",
                          "--allocation", "inputs/alloc_small.txt"],
    "verify_small_bad": ["verify", "--instance", "inputs/small.csv",
                         "--allocation", "inputs/alloc_bad.txt"],
    "verify_zero_row": ["verify", "--instance", "inputs/zero_row.csv",
                        "--allocation", "inputs/alloc_zero_row.txt"],
    "verify_24": ["verify", "--instance", "inputs/mixed24.csv",
                  "--allocation", "inputs/alloc_24.txt"],
    "verify_wrong_shape": ["verify", "--instance", "inputs/mixed24.csv",
                           "--allocation", "inputs/alloc_small.txt"],
    # a 12x90 instance of the benchmark's size, drawn with random.Random(23):
    # power-law rows (entries 1/r) and rows 60 % zeros (entries 1..9) in turn
    "allocate_verify_12x90": (
        ["allocate", "--instance", "inputs/alloc_12x90.csv",
         "--allocation-out", "{tmp}/alloc.txt"],
        ["verify", "--instance", "inputs/alloc_12x90.csv", "--allocation", "{tmp}/alloc.txt"]),
    # experiments
    "synthetic": ["experiment", "synthetic", "--n", "2", "--m", "6,7,9",
                  "--count", "12", "--seed", "42", "--records-out", "{tmp}/r.csv"],
    "synthetic_n3": ["experiment", "synthetic", "--n", "3", "--m", "8",
                     "--count", "10", "--seed", "7"],
    "synthetic_zero_count": ["experiment", "synthetic", "--n", "2", "--m", "5",
                             "--count", "0", "--seed", "1"],
    "curve_n2": ["experiment", "curve", "--n", "2", "--points", "30"],
    "curve_n3_m": ["experiment", "curve", "--n", "3", "--m", "5", "--points", "12"],
    "curve_n5_out": ["experiment", "curve", "--n", "5", "--points", "9",
                     "--out", "{tmp}/c.csv"],
    "ratios": ["experiment", "ratios", "--instance", "inputs/ratios.csv", "--n", "2"],
    "ratios_n3": ["experiment", "ratios", "--instance", "inputs/ratios.csv", "--n", "3"],
}


def run_case(case, tmp: Path) -> str:
    """Run a case's commands in-process and render everything they produced."""
    parts = []
    for argv in case if isinstance(case, tuple) else (case,):
        argv = [str(a).replace("{tmp}", str(tmp)) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        parts += [f"exit {code}\n", "--- stdout\n", out.getvalue(), "--- stderr\n", err.getvalue()]
        if caught:
            parts += ["--- warnings\n"] + [f"{w.message}\n" for w in caught]
    for path in sorted(tmp.iterdir()):
        parts += [f"--- file {path.name}\n", path.read_text(encoding="utf-8")]
    return "".join(parts)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert run_case(CASES[name], tmp_path) == expected


def test_no_stale_records():
    assert {p.stem for p in GOLDEN.glob("*.txt")} == set(CASES)


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for old in GOLDEN.glob("*.txt"):
        old.unlink()
    for name, case in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            record = run_case(case, Path(tmp))
        (GOLDEN / f"{name}.txt").write_text(record, encoding="utf-8")
        print(f"{name}: {record.splitlines()[0]}", file=sys.stderr)
