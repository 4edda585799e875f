import io
import math
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr
from fractions import Fraction
from pathlib import Path

import pytest

from fairchores.cli import build_parser, main
from fairchores.experiments import gen_synthetic
from fairchores.mms import exact_mms
from test_cli_golden import CASES, run_case

F = Fraction
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestShare:
    def test_upper(self, capsys):
        code, out, _ = run(capsys, "share", "--n", "2", "--m", "3",
                           "--alpha", "1/3", "--kind", "upper")
        assert code == 0 and out.startswith("2/3 (0.666666666667)")

    def test_lower_unrestricted(self, capsys):
        code, out, _ = run(capsys, "share", "--n", "2", "--unrestricted",
                           "--alpha", "3/5", "--kind", "lower")
        assert code == 0 and out.startswith("3/5")

    def test_guarantee(self, capsys):
        code, out, _ = run(capsys, "share", "--n", "2",
                           "--alpha", "7/25", "--kind", "guarantee")
        assert code == 0 and out.startswith("3/5")

    def test_decimal_alpha(self, capsys):
        code, out, _ = run(capsys, "share", "--n", "2", "--m", "4",
                           "--alpha", "0.3", "--kind", "upper")
        assert code == 0 and out.startswith("3/5")

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run(capsys, "share", "--n", "2", "--m", "2",
                           "--alpha", "1/3", "--kind", "upper")
        assert code == 2 and "ceil(1/alpha)" in err

    def test_usage_error_exit_2(self, capsys):
        assert main(["share", "--n", "2"]) == 2


class TestWitnessRoundTrip:
    def test_witness_mms_allocate_verify(self, capsys, tmp_path):
        w = tmp_path / "w.csv"
        code, *_ = run(capsys, "witness", "--n", "3", "--m", "7",
                       "--alpha", "3/10", "--out", str(w))
        assert code == 0
        text = w.read_text()
        assert "# claimed_mms = 7/15" in text

        code, out, _ = run(capsys, "mms", "--instance", str(w), "--n", "3")
        assert code == 0 and out.startswith("7/15")

        a = tmp_path / "a.txt"
        code, out, _ = run(capsys, "allocate", "--instance", str(w),
                           "--allocation-out", str(a))
        assert code == 0 and "satisfied yes" in out

        code, out, _ = run(capsys, "verify", "--instance", str(w),
                           "--allocation", str(a))
        assert code == 0 and "all guarantees satisfied" in out

    def test_lower_witness(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "2", "--m", "3",
                           "--alpha", "7/20", "--kind", "lower")
        assert code == 0 and "# claimed_mms = 13/20" in out


class TestVerify:
    def test_violation_exits_1(self, capsys, tmp_path):
        inst = tmp_path / "i.csv"
        inst.write_text("object_1,object_2,object_3,object_4\n"
                        "3/10,1/4,1/4,1/5\n3/10,1/4,1/4,1/5\n")
        bad = tmp_path / "bad.txt"
        bad.write_text("1,2,3,4\n-\n")  # everything to agent 1: 1 > 3/5
        code, out, _ = run(capsys, "verify", "--instance", str(inst),
                           "--allocation", str(bad))
        assert code == 1 and "VIOLATED" in out

    def test_good_allocation(self, capsys, tmp_path):
        inst = tmp_path / "i.csv"
        inst.write_text("object_1,object_2,object_3,object_4\n"
                        "3/10,1/4,1/4,1/5\n3/10,1/4,1/4,1/5\n")
        good = tmp_path / "good.txt"
        good.write_text("# comment line\n1,2\n3,4\n")
        code, out, _ = run(capsys, "verify", "--instance", str(inst),
                           "--allocation", str(good))
        assert code == 0

    def test_malformed_allocation_exit_2(self, capsys, tmp_path):
        inst = tmp_path / "i.csv"
        inst.write_text("object_1,object_2\n1/2,1/2\n")
        bad = tmp_path / "bad.txt"
        bad.write_text("1\n")  # object 2 missing
        code, *_ = run(capsys, "verify", "--instance", str(inst),
                       "--allocation", str(bad))
        assert code == 2


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports
    write it, is ignored in instance and allocation files: each command's
    output equals the one on the same file without the mark."""

    BOM = b"\xef\xbb\xbf"
    INSTANCE = ("object_1,object_2,object_3,object_4,object_5\n"
                "3/10,1/4,1/4,1/10,1/10\n1/5,1/5,1/5,1/5,1/5\n").encode()

    def commands(self, capsys, tmp_path, mark):
        inst, alloc = tmp_path / "i.csv", tmp_path / "a.txt"
        inst.write_bytes(mark + self.INSTANCE)
        results = [run(capsys, "allocate", "--instance", str(inst),
                       "--allocation-out", str(alloc)),
                   run(capsys, "mms", "--instance", str(inst), "--n", "2"),
                   run(capsys, "verify", "--instance", str(inst),
                       "--allocation", str(alloc)),
                   run(capsys, "experiment", "ratios", "--instance", str(inst),
                       "--n", "3")]
        return results, alloc.read_bytes()

    def test_instance_file(self, capsys, tmp_path):
        plain = self.commands(capsys, tmp_path, b"")
        assert [code for code, *_ in plain[0]] == [0, 0, 0, 0]
        assert self.commands(capsys, tmp_path, self.BOM) == plain

    def test_allocation_file(self, capsys, tmp_path):
        inst, alloc = tmp_path / "i.csv", tmp_path / "a.txt"
        inst.write_bytes(self.INSTANCE)
        argv = ("verify", "--instance", str(inst), "--allocation", str(alloc))
        alloc.write_bytes(b"1,4,5\n2,3\n")
        plain = run(capsys, *argv)
        assert plain[0] == 0 and "all guarantees satisfied" in plain[1]
        alloc.write_bytes(self.BOM + b"1,4,5\n2,3\n")
        assert run(capsys, *argv) == plain


class TestExperimentCommands:
    def test_synthetic(self, capsys):
        code, out, _ = run(capsys, "experiment", "synthetic", "--n", "2",
                           "--m", "6,7", "--count", "5", "--seed", "42")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# config:") and "seed=42" in lines[0]
        assert lines[1] == "n,m,bucket_lo,bucket_hi,count"

    def test_seed_required(self, capsys):
        assert main(["experiment", "synthetic", "--n", "2",
                     "--m", "6", "--count", "5"]) == 2

    def test_curve(self, capsys):
        code, out, _ = run(capsys, "experiment", "curve", "--n", "2",
                           "--points", "5")
        assert code == 0
        assert out.splitlines()[1].startswith("alpha_fraction")

    def test_ratios(self, capsys, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("object_1,object_2,object_3,object_4\n3/10,1/4,1/4,1/5\n")
        code, out, _ = run(capsys, "experiment", "ratios",
                           "--instance", str(p), "--n", "2")
        assert code == 0
        assert out.splitlines()[2] == "2,4,3/10,3/5,1/2,6/5"

    def test_missing_file_exit_2(self, capsys):
        assert main(["mms", "--instance", "/nonexistent.csv", "--n", "2"]) == 2


class TestInputChecks:
    def test_verify_checks_cost_not_mms(self, capsys, tmp_path):
        # 30 objects is past the exact MMS oracle's default guard; verify
        # must not need the oracle to check an allocation
        rng = random.Random(30)
        inst = tmp_path / "i.csv"
        inst.write_text(",".join(f"object_{j}" for j in range(1, 31)) + "\n" + "".join(
            ",".join(f"{rng.randrange(1, 50)}/{rng.randrange(1, 9)}" for _ in range(30)) + "\n"
            for _ in range(3)))
        a = tmp_path / "a.txt"
        code, out, _ = run(capsys, "allocate", "--instance", str(inst),
                           "--allocation-out", str(a))
        assert code == 0 and out.count("satisfied yes") == 3
        code, out, err = run(capsys, "verify", "--instance", str(inst),
                             "--allocation", str(a))
        assert code == 0 and out.endswith("all guarantees satisfied\n"), err

    def test_guarantee_rejects_m(self, capsys):
        code, out, err = run(capsys, "share", "--n", "2", "--alpha", "1/3",
                             "--m", "2", "--kind", "guarantee")
        assert code == 2 and out == "" and "--m" in err

    def test_guarantee_domain_is_a_usage_error(self, capsys):
        for n, alpha in (("-2", "0"), ("0", "0"), ("1", "3/2"), ("1", "-1/2")):
            code, out, err = run(capsys, "share", "--n", n, f"--alpha={alpha}",
                                 "--kind", "guarantee")
            assert code == 2 and out == "" and err.startswith("error:"), (n, alpha)

    @pytest.mark.parametrize("argv, message", [
        (("verify", "--instance", "{inst}", "--allocation", "{overlap}"),
         "bundles are not disjoint"),
        (("verify", "--instance", "{inst}", "--allocation", "{short}"),
         "allocation file has 1 bundle lines, expected 2"),
        (("experiment", "curve", "--n", "2", "--points", "0"), "need at least one grid point"),
        (("experiment", "synthetic", "--n", "1", "--m", "4", "--seed", "0"),
         "need at least 2 agents"),
        (("experiment", "synthetic", "--n", "3", "--m", "2", "--seed", "0"),
         "m must be at least n for ratio experiments"),
        (("mms", "--instance", "{inst}", "--n", "0"), "need n >= 1"),
        (("experiment", "synthetic", "--n", "2", "--m", "6,x", "--seed", "0"),
         "--m '6,x' is not a comma-separated list of integers"),
        (("experiment", "synthetic", "--n", "2", "--m", "", "--seed", "0"),
         "--m '' is not a comma-separated list of integers"),
    ], ids=["overlap", "short", "points", "agents", "objects", "mms-n", "m-token", "m-empty"])
    def test_rejected_input_is_a_usage_error(self, capsys, tmp_path, argv, message):
        files = {"inst": "object_1,object_2,object_3\n1,1,1\n2,1,1\n",
                 "overlap": "1,2\n2,3\n", "short": "1,2,3\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        paths = {name: str(tmp_path / name) for name in files}
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_few_objects_need_no_search_past_the_agent_guard(self, capsys, tmp_path):
        # 3 nonzero objects and 11 > 10 agents: one object per bundle, no search
        inst = tmp_path / "i.csv"
        inst.write_text("object_1,object_2,object_3,object_4\n1/2,3/10,1/5,0\n")
        code, out, err = run(capsys, "mms", "--instance", str(inst), "--n", "11")
        assert code == 0 and out.startswith("1/2 (0.5)"), err
        code, out, err = run(capsys, "experiment", "ratios", "--instance", str(inst),
                             "--n", "11")
        assert code == 0 and out.splitlines()[2] == "11,4,1/2,1/2,1/2,1", err

    def test_large_witness_round_trip(self, capsys, tmp_path):
        # a 31-object witness: the greedy seed meets the root bound, so mms
        # answers it without a search
        w = tmp_path / "w.csv"
        assert run(capsys, "witness", "--n", "2", "--alpha", "1/30", "--out", str(w))[0] == 0
        code, out, err = run(capsys, "mms", "--instance", str(w), "--n", "2")
        assert (code, out, err) == (0, "116/225 (0.515555555556)\n", "")

    @staticmethod
    def _two_agent_low_row(path, digits):
        # 5 integers with sum s: alpha = a/s is just above 24/100, so with
        # n = 2 the hill share is 3(s - a)/(4s), whose denominator 4s has
        # one digit more than s
        s = 3 * 10 ** (digits - 1) + 5
        a = s * 24 // 100 + 1
        assert s % 2 and (s - a) % 2 and s % 3 and math.gcd(a, s) == 1
        rest = (s - a) // 4
        row = [a, rest, rest, rest, s - a - 3 * rest]
        path.write_text("object_1,object_2,object_3,object_4,object_5\n"
                        + ",".join(map(str, row)) + "\n")
        return path

    def test_ratios_rejects_a_hill_share_too_long_to_print(self, capsys, tmp_path):
        inst = self._two_agent_low_row(tmp_path / "i.csv", sys.get_int_max_str_digits())
        code, out, err = run(capsys, "experiment", "ratios", "--instance", str(inst),
                             "--n", "2")
        assert code == 2 and out == "" and err.startswith("error: row 1:"), err

    def test_ratios_prints_a_row_one_digit_shorter(self, capsys, tmp_path):
        inst = self._two_agent_low_row(tmp_path / "i.csv", sys.get_int_max_str_digits() - 1)
        code, out, err = run(capsys, "experiment", "ratios", "--instance", str(inst),
                             "--n", "2")
        assert code == 0 and len(out.splitlines()) == 3, err

    def test_huge_cell_rejected_before_allocating(self, capsys, tmp_path):
        inst = tmp_path / "i.csv"
        inst.write_text("object_1,object_2\n1,1\n1e200000,1\n")
        code, out, err = run(capsys, "allocate", "--instance", str(inst))
        assert code == 2 and out == "" and "line 3" in err

    def test_row_too_long_to_print_rejected(self, capsys, tmp_path):
        # each token passes the cell check, but the normalised row does not
        inst = tmp_path / "i.csv"
        inst.write_text("object_1,object_2\n1e4299,1e-4299\n1,1\n")
        code, out, err = run(capsys, "allocate", "--instance", str(inst))
        assert code == 2 and out == "" and "line 2" in err

    def test_curve_rejects_fewer_than_two_agents(self, capsys):
        for n in ("1", "0", "-3"):
            code, out, err = run(capsys, "experiment", "curve", "--n", n, "--points", "3")
            assert code == 2 and out == "" and "n >= 2" in err, n

    def test_curve_rejects_fewer_than_two_objects(self, capsys):
        for m in ("1", "0", "-3"):
            code, out, err = run(capsys, "experiment", "curve", "--n", "2", "--points", "2",
                                 "--m", m)
            assert code == 2 and out == "" and "m >= 2" in err, m

    def test_zero_denominator_alpha_is_a_usage_error(self, capsys):
        for argv in (("share", "--n", "2", "--alpha", "1/0", "--kind", "upper"),
                     ("witness", "--n", "2", "--alpha", "1/0")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "" and err.startswith("error:"), argv

    def test_verify_names_the_bad_allocation_line(self, capsys, tmp_path):
        inst = tmp_path / "i.csv"
        inst.write_text("object_1,object_2,object_3\n1,1,1\n1,2,3\n")
        a = tmp_path / "a.txt"
        for bundle, why in (("1,1,2", "repeated"), ("1,4", "out of range"),
                            ("1,x", "non-integer")):
            a.write_text(f"# bundles\n{bundle}\n3\n")
            code, out, err = run(capsys, "verify", "--instance", str(inst),
                                 "--allocation", str(a))
            assert code == 2 and out == "" and "line 2" in err and why in err, bundle

    def test_ratios_skips_rows_outside_the_share_domain(self, capsys, tmp_path):
        inst = tmp_path / "i.csv"
        inst.write_text("object_1,object_2,object_3\n1,0,0\n0,0,0\n3,2,1\n")
        with pytest.warns(UserWarning) as caught:
            code, out, err = run(capsys, "experiment", "ratios", "--instance", str(inst),
                                 "--n", "2")
        assert code == 0, err
        assert out.splitlines()[1:] == ["n,m,alpha,hill_share,mms,ratio", "2,3,1/2,1/2,1/2,1"]
        assert [str(w.message) for w in caught] == [
            "skipping row 1: alpha=1 outside (0, 1)", "skipping row 2: alpha=0 outside (0, 1)"]
        # --n is checked before any row is skipped, so a file of skipped rows exits 2
        inst.write_text("object_1,object_2,object_3\n1,0,0\n")
        code, out, err = run(capsys, "experiment", "ratios", "--instance", str(inst),
                             "--n", "1")
        assert (code, out, err) == (2, "", "error: need an integer agent count n >= 2\n")

    def test_ratios_empty_file_exit_2(self, capsys, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("# nothing here\n")
        code, out, err = run(capsys, "experiment", "ratios", "--instance", str(p), "--n", "2")
        assert code == 2 and out == "" and "empty" in err

    @pytest.mark.parametrize("argv", [
        ("witness", "--n", "2", "--alpha", "1/1" + "0" * 30),
        ("witness", "--n", "2", "--alpha", "1/2", "--m", "1" + "0" * 30),
    ], ids=["tiny-alpha", "huge-m"])
    def test_witness_too_long_to_build_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "more than 1000000" in err

    @pytest.mark.parametrize("argv", [
        # a 2,203-character token whose share has a denominator near 10**4400
        ("share", "--n", "2", "--kind", "upper", "--alpha", f"1/{3 * 10 ** 2200}"),
        ("witness", "--n", "2", "--alpha",
         f"{(9 * 10 ** 4299 + 7) // 4 + 1}/{9 * 10 ** 4299 + 7}"),
        ("share", "--n", "2", "--kind", "upper", "--alpha", "1/" + "9" * 4301),
        # a 4,300-character token whose witness remainder has 4,301 digits
        ("witness", "--n", "1000", "--alpha", "0.2" + "4" * 4296 + "9"),
    ], ids=["share-value", "witness-token", "share-token", "witness-row"])
    def test_alpha_too_long_to_print_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "--alpha" in err, err

    def test_alpha_length_ignores_surrounding_whitespace(self, capsys):
        code, out, err = run(capsys, "share", "--n", "2", "--alpha", "1e-5000 ",
                             "--kind", "upper")
        assert code == 2 and out == "" and "--alpha: entry has more than" in err, err

    def test_curve_points_capped(self, capsys, monkeypatch):
        def no_grid(*_):
            raise AssertionError("grid built before --points was checked")
        monkeypatch.setattr("fairchores.cli.F", no_grid)
        for points in ("1000001", "100001"):
            code, out, err = run(capsys, "experiment", "curve", "--n", "2",
                                 "--points", points)
            assert code == 2 and out == "" and "--points" in err, err

    def test_synthetic_objects_capped(self, capsys, monkeypatch):
        def no_draw(*_):
            raise AssertionError("row drawn before --m was checked")
        monkeypatch.setattr("fairchores.experiments.gen_synthetic", no_draw)
        for tokens, m in (("3000000", 3000000), ("10001", 10001), ("5,10001", 10001)):
            code, out, err = run(capsys, "experiment", "synthetic", "--n", "3",
                                 "--m", tokens, "--count", "1", "--seed", "1")
            assert (code, out, err) == (2, "", f"error: --m {m} is more than 10000\n")
        # the cap itself is accepted; no row is drawn at --count 0
        code, _, err = run(capsys, "experiment", "synthetic", "--n", "3",
                           "--m", "10000", "--count", "0", "--seed", "1")
        assert code == 0, err

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        # not exit 1, which says that `verify` found a guarantee violation
        def no_memory(*_):
            raise MemoryError
        monkeypatch.setattr("fairchores.cli.run_histogram", no_memory)
        code, out, err = run(capsys, "experiment", "synthetic", "--n", "2",
                             "--m", "10", "--count", "1", "--seed", "1")
        assert (code, out, err) == (2, "", "error: out of memory\n")


class TestAtScale:
    def test_curve_at_points_cap(self, capsys, tmp_path):
        curve = tmp_path / "curve.csv"
        code, out, err = run(capsys, "experiment", "curve", "--n", "60", "--points", "100000",
                             "--out", str(curve))
        assert (code, out, err) == (0, "", "")
        assert curve.read_bytes().count(b"\n") == 100002

    def test_five_bundle_search(self, capsys):
        # twenty seeded (5, 24) rows, nineteen of them searched; the buckets
        # are those of the depth-first search that n >= 5 ran before, which
        # took minutes on them
        start = time.perf_counter()
        code, out, err = run(capsys, "experiment", "synthetic", "--n", "5", "--m", "24",
                             "--count", "20", "--seed", "1")
        assert time.perf_counter() - start < 60
        assert (code, out, err) == (0, (
            "# config: n=5 m=24 count=20 seed=1 arithmetic=exact\n"
            "n,m,bucket_lo,bucket_hi,count\n"
            "5,24,1.3,1.4,4\n"
            "5,24,1.4,1.5,6\n"
            "5,24,1.5,1.6,1\n"
            "5,24,1.6,1.7,9\n"), "")

    def test_thirty_object_rows_are_searched(self, capsys, tmp_path):
        # each 30-object row is searched within the oracle's table budget,
        # and each record's MMS is exact_mms's on the same seeded row
        records = tmp_path / "records.csv"
        code, _, err = run(capsys, "experiment", "synthetic", "--n", "2", "--m", "30",
                           "--count", "3", "--seed", "1", "--records-out", str(records))
        assert (code, err) == (0, "")
        rng = random.Random("1:2:30")
        want = [exact_mms(gen_synthetic(30, rng), 2) for _ in range(3)]
        lines = records.read_text().splitlines()[2:]
        assert [F(line.split(",")[4]) for line in lines] == want

    def test_search_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        # four 3s and 2,994 2s at n = 1,000: greedy gives 7 and the bound is
        # 6; the search fixes one bundle per sub-call, so it nests about 1,000
        # sub-calls deep, past the interpreter's default recursion limit, and
        # finds the optimum 6 (two 3s share a bundle, the other bundles hold
        # three 2s) within the table budget
        inst = tmp_path / "i.csv"
        m = 2998
        inst.write_text(",".join(f"object_{j}" for j in range(1, m + 1)) + "\n"
                        + ",".join(["3"] * 4 + ["2"] * (m - 4)) + "\n")
        code, out, err = run(capsys, "mms", "--instance", str(inst), "--n", "1000")
        assert (code, out, err) == (0, "1/1000 (0.001)\n", "")

    def test_agents_past_the_object_count(self, capsys, tmp_path):
        # at n at or above the object count the MMS is the largest object,
        # answered at the root whatever n is: no bundle per agent is built
        inst = tmp_path / "i.csv"
        inst.write_text("object_1,object_2,object_3\n1/2,3/10,1/5\n")
        code, out, err = run(capsys, "mms", "--instance", str(inst), "--n", "10000000")
        assert (code, out, err) == (0, "1/2 (0.5)\n", "")
        code, out, err = run(capsys, "experiment", "ratios", "--instance", str(inst),
                             "--n", "10000000")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["n,m,alpha,hill_share,mms,ratio",
                                        "10000000,3,1/2,1/2,1/2,1"]


@pytest.mark.parametrize("argv, flag", [
    (("share", "--n", "2", "--alpha", "1/3", "--kind", "upper"), "--out"),
    (("witness", "--n", "2", "--alpha", "1/3"), "--out"),
    (("mms", "--instance", "{inst}", "--n", "2"), "--out"),
    (("allocate", "--instance", "{inst}"), "--out"),
    (("allocate", "--instance", "{inst}"), "--allocation-out"),
    (("verify", "--instance", "{inst}", "--allocation", "{alloc}"), "--out"),
    (("experiment", "synthetic", "--n", "2", "--m", "4", "--count", "2", "--seed", "1"),
     "--out"),
    (("experiment", "synthetic", "--n", "2", "--m", "4", "--count", "2", "--seed", "1"),
     "--records-out"),
    (("experiment", "curve", "--n", "2", "--points", "3"), "--out"),
    (("experiment", "ratios", "--instance", "{inst}", "--n", "2"), "--out"),
])
def test_write_error_exits_2(capsys, tmp_path, argv, flag):
    inst = tmp_path / "i.csv"
    inst.write_text("object_1,object_2,object_3\n1/2,1/4,1/4\n1/3,1/3,1/3\n")
    alloc = tmp_path / "a.txt"
    alloc.write_text("1\n2,3\n")
    argv = [a.format(inst=inst, alloc=alloc) for a in argv]
    code, _, err = run(capsys, *argv, flag, str(tmp_path / "missing" / "out.txt"))
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("argv, code, shown", [
    (("share", "--n", "2", "--m", "3", "--alpha", "1/3", "--kind", "upper"), 0,
     "2/3 (0.666666666667)"),
    (("verify", "--instance", "inputs/small.csv", "--allocation", "inputs/alloc_bad.txt"), 1,
     "guarantee violation found"),
    (("share", "--n", "2", "--alpha", "2", "--kind", "upper"), 2,
     "error: alpha=2 outside (0, 1)"),
], ids=["exit-0", "exit-1", "exit-2"])
def test_module_entry_point_matches_main(capsys, monkeypatch, argv, code, shown):
    """`python -m fairchores.cli` exits and prints exactly as `main` in-process."""
    monkeypatch.chdir(GOLDEN)
    env = dict(os.environ, PYTHONPATH=str(GOLDEN.parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "fairchores.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
    assert proc.returncode == code and shown in proc.stdout + proc.stderr


def test_one_parser_serves_every_call(monkeypatch, tmp_path):
    """In one process, a usage error, `share` and `witness` print what each
    prints on a parser of its own."""
    monkeypatch.chdir(GOLDEN)
    usage = ["share", "--n", "2"]
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit):
        build_parser.__wrapped__().parse_args(usage)
    assert "required" in err.getvalue()
    assert run_case(usage, tmp_path) == f"exit 2\n--- stdout\n--- stderr\n{err.getvalue()}"
    for name in ("share_upper_n2_m3", "witness_upper_two_agent_m3"):
        golden = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
        assert run_case(CASES[name], tmp_path) == golden, name
    assert build_parser() is build_parser()


def run_module(*argv, cwd=None, flags=()):
    """`python *flags -m fairchores.cli *argv` in a process of its own, importing ./src."""
    env = dict(os.environ, PYTHONPATH=str(GOLDEN.parent.parent / "src"))
    return subprocess.run([sys.executable, *flags, "-m", "fairchores.cli", *argv], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=120)


class TestProcessEntry:
    def test_warnings_print_one_line_each(self, tmp_path):
        inst = tmp_path / "i.csv"
        inst.write_text("object_1,object_2,object_3\n1,0,0\n0,0,0\n3,2,1\n")
        proc = run_module("experiment", "ratios", "--n", "2", "--instance", str(inst))
        assert (proc.returncode, proc.stderr) == (
            0, "warning: skipping row 1: alpha=1 outside (0, 1)\n"
               "warning: skipping row 2: alpha=0 outside (0, 1)\n")
        proc = run_module("experiment", "curve", "--n", "3", "--m", "5", "--points", "12")
        assert (proc.returncode, proc.stderr) == (0, "".join(
            f"warning: skipping alpha={a}/13: m=5 < ceil(1/alpha)={c}: no normalised "
            f"vector with max entry {a}/13 exists on 5 objects\n" for a, c in ((1, 13), (2, 7))))

    def test_warning_raised_as_error_exits_2(self, tmp_path):
        # exit 1 is kept for a guarantee violation found by verify
        inst = tmp_path / "r.csv"
        inst.write_text("object_1,object_2,object_3\n1,0,0\n3,2,1\n")
        proc = run_module("experiment", "ratios", "--n", "2", "--instance", str(inst),
                          flags=("-W", "error"))
        assert (proc.returncode, proc.stderr) == (
            2, "error: skipping row 1: alpha=1 outside (0, 1)\n")
        proc = run_module("experiment", "curve", "--n", "3", "--m", "5", "--points", "12",
                          flags=("-W", "error"))
        assert (proc.returncode, proc.stderr) == (
            2, "error: skipping alpha=1/13: m=5 < ceil(1/alpha)=13: no normalised vector "
               "with max entry 1/13 exists on 5 objects\n")

    @pytest.mark.parametrize("argv, code", [
        (("share", "--n", "2", "--alpha", "1/3", "--kind", "upper"), 0),
        (("verify", "--instance", "small.csv", "--allocation", "alloc_bad.txt"), 1),
        (("share", "--n", "2", "--alpha", "abc", "--kind", "upper"), 2),
    ], ids=["exit-0", "exit-1", "exit-2"])
    def test_exit_code(self, argv, code):
        proc = run_module(*argv, cwd=GOLDEN / "inputs")
        assert proc.returncode == code, proc.stderr
