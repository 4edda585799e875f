import random
from fractions import Fraction

import pytest

from fairchores.core import DisutilityVector, ValidationError, format_decimal
from fairchores.experiments import (
    ExperimentConfig,
    RatioHistogram,
    curve_csv,
    curve_samples,
    gen_synthetic,
    histogram_csv,
    instance_ratio,
    run_histogram,
)
from fairchores.shares import ratio_ceiling

F = Fraction


class TestGenSynthetic:
    def test_m1(self):
        v = gen_synthetic(1, random.Random(0))
        assert v.values == (F(1),)

    def test_sum_exact(self):
        rng = random.Random(3)
        for m in (2, 5, 9):
            v = gen_synthetic(m, rng)
            assert v.total() == 1 and v.m == m
            assert all(x >= 0 for x in v.values)

    def test_one_cut(self):
        class Fixed:
            def randrange(self, hi):
                return 3 * 10 ** 8
        v = gen_synthetic(2, Fixed())
        assert v.values == (F(3, 10), F(7, 10))

    def test_deterministic(self):
        a = gen_synthetic(6, random.Random(42))
        b = gen_synthetic(6, random.Random(42))
        assert a == b


class TestInstanceRatio:
    def test_witness_has_ratio_one(self):
        from fairchores.shares import witness_upper
        w = witness_upper(2, F(3, 10), 4)
        rec = instance_ratio(w.vector, 2)
        assert rec.ratio == 1

    def test_frozen_example(self):
        v = DisutilityVector((F(3, 10), F(1, 4), F(1, 4), F(1, 5)), True)
        rec = instance_ratio(v, 2)
        assert rec.hill == F(3, 5) and rec.mms == F(1, 2) and rec.ratio == F(6, 5)

    def test_ratio_at_least_one(self):
        rng = random.Random(8)
        for _ in range(50):
            v = gen_synthetic(rng.randint(2, 9), rng)
            n = rng.randint(2, 3)
            rec = instance_ratio(v, n)
            assert 1 <= rec.ratio <= ratio_ceiling(n)


class TestRunHistogram:
    def test_deterministic(self):
        cfg = ExperimentConfig(2, (6, 7), 20, 123)
        assert run_histogram(cfg) == run_histogram(cfg)

    def test_counts_sum(self):
        cfg = ExperimentConfig(3, (6,), 25, 99)
        hist = run_histogram(cfg)
        assert sum(hist.counts[(3, 6)].values()) == 25
        assert len(hist.records) == 25

    def test_zero_instances(self):
        cfg = ExperimentConfig(2, (6,), 0, 1)
        hist = run_histogram(cfg)
        assert hist.counts == {} and hist.records == ()

    def test_bucketing(self):
        assert RatioHistogram.bucket_of(F(1)) == 0
        assert RatioHistogram.bucket_of(F(11, 10)) == 1  # half-open [lo, hi)
        assert RatioHistogram.bucket_of(F(149, 100)) == 4
        assert RatioHistogram.bucket_bounds(0) == (F(1), F(11, 10))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(2, (6,), -1, 0)


class TestCurves:
    def test_anchor_rows(self):
        rows = curve_samples(2, [F(1, 3), F(3, 5)])
        assert rows[0] == (F(1, 3), F(2, 3), F(1, 2), F(2, 3), F(4, 3))
        alpha, up, lo, g, r = rows[1]
        assert up == lo == F(3, 5) and r == 1
        assert g == F(2, 3)  # monotone hull still carries the peak at 1/3

    def test_invalid_point_skipped_with_warning(self):
        with pytest.warns(UserWarning):
            rows = curve_samples(2, [F(1, 3), F(1, 5)], m=3)
        assert len(rows) == 1

    def test_ceiling_on_table(self):
        grid = [F(j, 97) for j in range(1, 97)]
        for n in (2, 3, 7):
            for _, up, lo, _, r in curve_samples(n, grid):
                assert r <= ratio_ceiling(n)

    def test_csv_shape(self):
        text = curve_csv(curve_samples(2, [F(1, 3)]), 2)
        lines = text.splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "alpha_fraction,alpha_decimal,delta_upper,delta_lower,guarantee,ratio"
        assert lines[2].startswith("1/3,0.333333333333,2/3,1/2,2/3,4/3")


class TestDecimalRendering:
    def test_dec(self):
        assert format_decimal(F(1, 3)) == "0.333333333333"
        assert format_decimal(F(2, 3)) == "0.666666666667"
        assert format_decimal(F(1, 2)) == "0.5"
        assert format_decimal(F(0)) == "0"
        assert format_decimal(F(4, 3)) == "1.333333333333"


def test_histogram_csv_header():
    cfg = ExperimentConfig(2, (6,), 5, 7)
    text = histogram_csv(run_histogram(cfg), cfg)
    lines = text.splitlines()
    assert lines[0] == "# config: n=2 m=6 count=5 seed=7 arithmetic=exact"
    assert lines[1] == "n,m,bucket_lo,bucket_hi,count"
    assert sum(int(ln.rsplit(",", 1)[1]) for ln in lines[2:]) == 5
