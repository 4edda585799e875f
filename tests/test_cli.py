import random
from fractions import Fraction

import pytest

from fairchores.cli import main

F = Fraction


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

    def test_few_objects_need_no_search_past_the_agent_guard(self, capsys, tmp_path):
        # 3 nonzero objects and 11 > 10 agents: one object per bundle, no search
        inst = tmp_path / "i.csv"
        inst.write_text("object_1,object_2,object_3,object_4\n1/2,3/10,1/5,0\n")
        code, out, err = run(capsys, "mms", "--instance", str(inst), "--n", "11")
        assert code == 0 and out.startswith("1/2 (0.5)"), err
        code, out, err = run(capsys, "experiment", "ratios", "--instance", str(inst),
                             "--n", "11")
        assert code == 0 and out.splitlines()[2] == "11,4,1/2,1/2,1/2,1", err

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

    def test_ratios_empty_file_exit_2(self, capsys, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("# nothing here\n")
        code, out, err = run(capsys, "experiment", "ratios", "--instance", str(p), "--n", "2")
        assert code == 2 and out == "" and "empty" in err
