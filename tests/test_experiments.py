import math
import random
import warnings
from fractions import Fraction

import pytest

from fairchores import experiments
from fairchores.core import (
    DisutilityVector,
    ValidationError,
    classify_guarantee,
    format_decimal,
)
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
from fairchores.shares import guarantee, hill_share, mms_lower_bound, ratio_ceiling

F = Fraction


class TestGenSynthetic:
    def test_m1(self):
        v = gen_synthetic(1, random.Random(0))
        assert v.values == (F(1),)
        with pytest.raises(ValidationError):
            gen_synthetic(0, random.Random(0))

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
        with pytest.raises(ValidationError):
            ExperimentConfig(1, (6,), 5, 0)
        with pytest.raises(ValidationError):
            ExperimentConfig(3, (2,), 5, 0)

    def test_repeated_object_count_rejected(self):
        # a repeated m would draw that setting's seeded instances twice and
        # duplicate its records
        with pytest.raises(ValidationError, match="only once"):
            ExperimentConfig(2, (6, 6), 5, 1)


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


class TestCurveRowsFromPieces:
    """curve_samples reads the integer pieces; its rows must be what the
    public share functions give, point by point, skips included."""

    @staticmethod
    def grid(n, m):
        rng = random.Random(f"curve-grid:{n}:{m}")
        points = [F(j, 10007) for j in sorted(rng.sample(range(1, 10007), 40))]
        for k in range(7):  # every piece end for k <= 6
            points += [F(1, k * n + 1), F(1, k * n + n + 1),
                       F(k + 2, n * (k + 1) ** 2 + k + 2),
                       F(k + 2, (k + 1) * ((k + 1) * n + 1))]
        if n == 2:
            points += [F(3, 11), F(7, 27), F(2, 7), F(1, 5), F(1, 3)]
        points += [F(1), F(3, 2)]
        if m is not None:
            points.append(F(1, 2 * m + 1))  # m < ceil(1/alpha)
        return points

    @pytest.mark.parametrize("m", [None, 2, 3, 5, 7, 30])
    @pytest.mark.parametrize("n", [2, 3, 5, 10, 60])
    def test_rows_equal_public_functions(self, n, m):
        expected_rows, expected_warnings = [], []
        for alpha in self.grid(n, m):
            try:
                up = hill_share(n, alpha, m)
            except ValueError as exc:
                with pytest.raises(ValueError) as lower_exc:
                    mms_lower_bound(n, alpha, m)
                assert str(lower_exc.value) == str(exc)
                expected_warnings.append(f"skipping alpha={alpha}: {exc}")
                continue
            lo = mms_lower_bound(n, alpha, m)
            expected_rows.append((alpha, up, lo, guarantee(n, alpha), up / lo))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = curve_samples(n, self.grid(n, m), m)
        assert [str(w.message) for w in caught] == expected_warnings
        assert rows == expected_rows
        assert all(type(x) is Fraction for row in rows for x in row)
        assert expected_warnings  # the grid's invalid points were skipped

    def test_points_that_are_not_fractions(self):
        """Text, float and int points are read by as_fraction: the rows are
        the Fraction grid's, and a field that reuses the point holds the
        Fraction read, never the caller's text or float."""
        def run(grid):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rows = curve_samples(2, grid)
            return rows, [str(w.message) for w in caught]

        rows, skipped = run(["1/3", 0.35, "0.6", F(7, 20), 1, 2])
        assert (rows, skipped) == run([F(1, 3), F(7, 20), F(3, 5), F(7, 20), F(1), F(2)])
        assert [row[0] for row in rows] == [F(1, 3), F(7, 20), F(3, 5), F(7, 20)]
        assert all(type(x) is Fraction for row in rows for x in row)
        assert skipped == ["skipping alpha=1: alpha=1 outside (0, 1)",
                           "skipping alpha=2: alpha=2 outside (0, 1)"]

    @pytest.mark.parametrize("n", [2.5, 3.0, F(3)])
    def test_non_integer_n_skips_every_point(self, n):
        with pytest.raises(ValueError) as exc:
            hill_share(n, F(1, 3))
        with pytest.warns(UserWarning) as caught:
            assert curve_samples(n, [F(1, 3), F(1, 4)]) == []
        assert [str(w.message) for w in caught] == [
            f"skipping alpha=1/3: {exc.value}", f"skipping alpha=1/4: {exc.value}"]


class TestTopRange:
    """curve_samples answers a point from 2/(n+1) on (and from 1/m, where
    that is higher) before its bracket: the row reuses the point and one
    shared 1, and builds no bracket record."""

    @staticmethod
    def neighbours(x, lattice):
        """x and the nearest points j/lattice below and above it."""
        j = math.ceil(x * lattice)
        return [x, F(j - 1, lattice), F(j + 1 if x == F(j, lattice) else j, lattice)]

    @classmethod
    def points(cls, n, m):
        starts = [F(2, n + 1)] + ([F(1, m)] if m is not None else [])
        return sorted({x for s in starts for lattice in (10007, 7919 * (n + 1))
                       for x in cls.neighbours(s, lattice) if 0 < x < 1})

    @staticmethod
    def run(n, grid, m):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = curve_samples(n, grid, m)
        return rows, [str(w.message) for w in caught]

    @pytest.mark.parametrize("m", [None, 2, 3, "n+1", 30])
    @pytest.mark.parametrize("n", [2, 3, 5, 12, 60])
    def test_boundary(self, n, m, monkeypatch):
        m = n + 1 if m == "n+1" else m
        points = self.points(n, m)
        expected_rows, expected_warnings = [], []
        for alpha in points:
            try:
                up, lo = hill_share(n, alpha, m), mms_lower_bound(n, alpha, m)
            except ValueError as exc:
                expected_warnings.append(f"skipping alpha={alpha}: {exc}")
                continue
            expected_rows.append((alpha, up, lo, guarantee(n, alpha), up / lo))
        rows, skipped = self.run(n, points, m)
        assert (rows, skipped) == (expected_rows, expected_warnings)

        top = [row for row in rows if row[0] >= F(2, n + 1)]
        assert top and len(top) < len(points)  # points on both sides of the start
        by_value = {x: x for x in points}
        for alpha, up, lo, g, r in top:
            assert alpha is by_value[alpha] and up is alpha and lo is alpha and g is alpha
        assert len({id(row[4]) for row in top}) == 1 and top[0][4] == 1

        # every top-range point is answered without a bracket record
        built = []
        pieces = experiments._upper_pieces
        monkeypatch.setattr(experiments, "_upper_pieces",
                            lambda n, k, m: built.append(k) or pieces(n, k, m))
        assert self.run(n, [row[0] for row in top], m) == (top, [])
        assert built == []
        below = [row[0] for row in rows if row[0] < F(2, n + 1)]
        assert self.run(n, below, m)[0] == rows[:len(below)]
        assert len(built) == len(set(built)) and bool(built) == bool(below)


class TestSharedConstants:
    """A constant value is one Fraction per curve_samples call: the lower
    bound's 1/n in every bracket, and each bracket's NI constant."""

    @pytest.mark.parametrize("n", [2, 5, 60])
    def test_one_object_per_constant(self, n):
        rng = random.Random("bounds:1")  # the bounds benchmark workload's seed-1 grid
        grid = [F(j, 10007) for j in sorted(rng.sample(range(1, 10007), 400))]
        rows = curve_samples(n, grid)
        lows = [lo for alpha, _, lo, _, _ in rows if alpha <= F(1, n)]
        assert lows and all(lo == F(1, n) for lo in lows)
        assert len({id(lo) for lo in lows}) == 1

        ni = {}
        for alpha, _, _, g, _ in rows:
            region = classify_guarantee(n, alpha)
            if region.tag == "NI":
                ni.setdefault(region.k, []).append(g)
        assert sum(len(gs) > 1 for gs in ni.values()) >= 2
        for gs in ni.values():
            assert len({id(g) for g in gs}) == 1


class TestCurveCsvText:
    def test_fields_equal_to_alpha_print_alike(self):
        """A field that equals alpha prints alpha's text whether or not it
        is alpha itself."""
        points = [F(1, 3), F(7, 20), F(2, 3), F(9999, 10007)]
        one = F(1)
        shared = [(a, a, a, a, one) for a in points]
        distinct = [(a, F(a.numerator, a.denominator), F(str(a)), a + 0, F(1)) for a in points]
        mixed = [(a, a, F(1, 2), F(a.numerator, a.denominator), F(4, 3)) for a in points]
        assert all(x is not a for a, *fields in distinct for x in fields[:3])
        assert curve_csv(shared, 2) == curve_csv(distinct, 2)
        lines = curve_csv(mixed, 2, 5).splitlines()
        assert lines[0] == "# config: n=2 m=5"
        assert lines[2:] == [f"{a},{format_decimal(a)},{a},1/2,{a},4/3" for a in points]

    def test_equals_per_field_text_on_digest_grid(self):
        grid = [F(j, 10007)
                for j in sorted(random.Random("curve-digest").sample(range(1, 10007), 400))]
        for n in range(2, 61):
            for m in (None, 2, 5, 30):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    rows = curve_samples(n, grid, m)
                lines = curve_csv(rows, n, m).splitlines()
                assert lines[2:] == [
                    ",".join([str(alpha), format_decimal(alpha)] + [str(x) for x in rest])
                    for alpha, *rest in rows]


class TestDecimalIntegerRounding:
    @staticmethod
    def reference(x, places):
        # round half away from zero on Fractions, as the renderer is specified;
        # the sign only on digits that did not round to zero
        digits = math.floor(abs(x) * 10 ** places + F(1, 2))
        s = f"{digits:0{places + 1}d}"
        body = f"{s[:-places]}.{s[-places:]}".rstrip("0").rstrip(".") if places else s
        return ("-" if x < 0 and digits else "") + body

    def test_matches_fraction_formula(self):
        rng = random.Random("format-decimal")
        values = [F(0), F(1, 2), F(-1, 2), F(5, 10 ** 13), F(-5, 10 ** 13)]
        values += [F(rng.randrange(-10 ** 9, 10 ** 9), rng.randrange(1, 10 ** 7))
                   for _ in range(400)]
        for x in values:
            assert format_decimal(x) == self.reference(x, 12)
            for places in (0, 1, 3, 20):
                assert format_decimal(x, places) == self.reference(x, places)


class TestDecimalRendering:
    def test_dec(self):
        assert format_decimal(F(1, 3)) == "0.333333333333"
        assert format_decimal(F(2, 3)) == "0.666666666667"
        assert format_decimal(F(1, 2)) == "0.5"
        assert format_decimal(F(0)) == "0"
        assert format_decimal(F(4, 3)) == "1.333333333333"

    def test_negative_value_rounding_to_zero_is_unsigned(self):
        assert format_decimal(F(-1, 4), 0) == "0"
        assert format_decimal(F(-1, 10 ** 13)) == "0"
        assert format_decimal(-0.0001, 2) == "0"
        # half away from zero still keeps the sign
        assert format_decimal(F(-1, 2), 0) == "-1"
        assert format_decimal(F(-5, 10 ** 13)) == "-0.000000000001"

    def test_float_read_as_its_decimal(self):
        # 0.35 is 7/20 and rounds half up, like the Fraction
        assert format_decimal(0.35, 1) == format_decimal(F(7, 20), 1) == "0.4"

    def test_no_places_keeps_the_integer_part(self):
        assert format_decimal(F(3), 0) == "3"
        assert format_decimal(F(1, 2), 0) == "1"
        assert format_decimal(F(123, 7), 0) == "18"
        assert format_decimal(F(0), 0) == "0"
        assert format_decimal(F(-5, 2), 0) == "-3"

    def test_negative_places_rejected(self):
        with pytest.raises(ValueError, match="places"):
            format_decimal(F(123), -1)


def test_histogram_csv_header():
    cfg = ExperimentConfig(2, (6,), 5, 7)
    text = histogram_csv(run_histogram(cfg), cfg)
    lines = text.splitlines()
    assert lines[0] == "# config: n=2 m=6 count=5 seed=7 arithmetic=exact"
    assert lines[1] == "n,m,bucket_lo,bucket_hi,count"
    assert sum(int(ln.rsplit(",", 1)[1]) for ln in lines[2:]) == 5
