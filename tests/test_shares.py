from fractions import Fraction

import pytest

from fairchores.core import DomainError, ceil_inv
from fairchores.mms import exact_mms
from fairchores.shares import (
    guarantee,
    high_ratio_ranges,
    hill_share,
    mms_lower_bound,
    natural_object_count,
    ratio_ceiling,
    theoretical_ratio,
    witness_lower,
    witness_upper,
)

F = Fraction


class TestHillShare:
    def test_two_agents_three_objects(self):
        assert hill_share(2, F(1, 3), 3) == F(2, 3)

    def test_two_agents_middle_branch(self):
        assert hill_share(2, F(27, 100)) == F(27, 100) + (2 - F(54, 100)) / 5
        assert hill_share(2, F(27, 100)) == F(281, 500)

    def test_three_agents_d_branch(self):
        assert hill_share(3, F(3, 10), 10) == F(7, 15)

    def test_three_agents_restricted_m(self):
        assert hill_share(3, F(7, 20), 3) == F(7, 20)

    def test_two_agents_m4(self):
        assert hill_share(2, F(3, 10), 4) == F(3, 5)

    def test_two_agents_m5_split(self):
        assert hill_share(2, F(1, 4), 5) == F(9, 16)
        assert hill_share(2, F(3, 11), 5) == F(3, 4) * F(8, 11)
        assert hill_share(2, F(7, 25), 5) == F(14, 25)

    def test_two_agents_unrestricted_pieces(self):
        assert hill_share(2, F(1, 4)) == F(9, 16)
        assert hill_share(2, F(7, 27)) == F(5, 9)
        assert hill_share(2, F(2, 7)) == F(4, 7)
        assert hill_share(2, F(1, 3)) == F(2, 3)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hill_share(2, F(1, 3), 2)
        with pytest.raises(DomainError):
            hill_share(1, F(1, 2))
        with pytest.raises(DomainError):
            hill_share(2, F(3, 2))


class TestLowerBound:
    def test_large_alpha(self):
        assert mms_lower_bound(2, F(3, 5)) == F(3, 5)
        assert mms_lower_bound(2, F(3, 5), 2) == F(3, 5)

    def test_restricted_m(self):
        assert mms_lower_bound(2, F(7, 20), 3) == F(13, 20)

    def test_exact_multiple(self):
        assert mms_lower_bound(4, F(1, 8)) == F(1, 4)

    def test_unrestricted_interior(self):
        assert mms_lower_bound(2, F(3, 10)) == F(1, 2)


class TestGuarantee:
    def test_examples(self):
        assert guarantee(2, F(7, 25)) == F(3, 5)
        assert guarantee(2, F(3, 10)) == F(3, 5)
        assert guarantee(3, F(1, 2)) == F(1, 2)

    def test_zero_and_edges(self):
        assert guarantee(3, 0) == F(1, 3)
        assert guarantee(2, 1) == 1
        assert guarantee(1, F(1, 2)) == 1

    def test_domain_errors(self):
        # alpha is checked for every n, n == 1 included; n must be an integer >= 1
        for n, a in [(1, F(3, 2)), (1, F(-1, 2)), (2, F(3, 2)), (-2, 0), (0, 0),
                     (0, F(1, 2)), (F(5, 2), F(1, 3)), (2.0, F(1, 3))]:
            with pytest.raises(DomainError):
                guarantee(n, a)

    def test_monotone_hull_on_grid(self):
        # V_n(alpha) = max over beta <= alpha of the unrestricted share.
        # Each bracket's supremum is attained at a point 1/(jn+1), so adding
        # those to a uniform grid makes the discrete hull exact.
        for n in (2, 3, 4):
            grid = sorted(set(F(j, 400) for j in range(1, 400))
                          | set(F(1, j * n + 1) for j in range(1, 202)))
            best = F(0)
            for b in grid:
                best = max(best, hill_share(n, b))
                assert guarantee(n, b) == best
            prev = F(0)
            for b in grid:
                assert guarantee(n, b) >= prev
                prev = guarantee(n, b)

    def test_dominates_bracket_line(self):
        from fairchores.core import classify_guarantee
        for n in (2, 3, 5):
            for j in range(1, 300):
                a = F(j, 300)
                k = classify_guarantee(n, a).k
                assert guarantee(n, a) >= (k + 1) * a


class TestWitnesses:
    def test_upper_examples(self):
        w = witness_upper(3, F(3, 10), 7)
        assert w.claimed_mms == F(7, 15)
        assert sorted(w.vector.values, reverse=True)[:4] == [F(3, 10)] + [F(7, 30)] * 3
        assert w.vector.m == 7

        w = witness_upper(2, F(3, 10), 4)
        assert sorted(w.vector.values, reverse=True) == [F(3, 10)] * 3 + [F(1, 10)]
        assert w.claimed_mms == F(3, 5)

        w = witness_upper(2, F(1, 4), 5)
        assert sorted(w.vector.values, reverse=True) == [F(1, 4)] + [F(3, 16)] * 4
        assert w.claimed_mms == F(9, 16)

    def test_upper_tightness_spot(self):
        for n, a, m in [(2, F(1, 4), 5), (2, F(3, 10), 4), (3, F(3, 10), 7),
                        (2, F(27, 100), None), (3, F(7, 20), 3), (4, F(1, 5), None)]:
            w = witness_upper(n, a, m)
            assert exact_mms(w.vector, n) == hill_share(n, a, m)

    def test_lower_examples(self):
        w = witness_lower(2, F(3, 5))
        assert sorted(w.vector.values, reverse=True) == [F(3, 5), F(2, 5)]
        assert w.claimed_mms == F(3, 5)

        w = witness_lower(2, F(1, 4), 4)
        assert w.vector.values == (F(1, 4),) * 4
        assert w.claimed_mms == F(1, 2)

        w = witness_lower(2, F(7, 20), 3)
        assert sorted(w.vector.values, reverse=True) == [F(7, 20), F(7, 20), F(3, 10)]
        assert w.claimed_mms == F(13, 20)

    def test_lower_tightness_spot(self):
        for n, a, m in [(2, F(3, 5), None), (2, F(7, 20), 3), (4, F(1, 8), None),
                        (3, F(1, 7), None), (2, F(3, 10), None)]:
            w = witness_lower(n, a, m)
            assert exact_mms(w.vector, n) == mms_lower_bound(n, a, m)

    def test_witness_alpha_and_size(self):
        w = witness_upper(3, F(3, 10), 9)
        assert w.vector.alpha() == F(3, 10) and w.vector.m == 9
        assert w.vector.total() == 1


class TestRatios:
    def test_examples(self):
        assert theoretical_ratio(2, F(1, 3)) == F(4, 3)
        assert theoretical_ratio(2, F(3, 5)) == 1
        assert theoretical_ratio(10, F(1, 10)) == hill_share(10, F(1, 10)) * 10

    def test_ceiling(self):
        assert ratio_ceiling(2) == F(4, 3)
        assert ratio_ceiling(5) == F(10, 6)

    def test_ceiling_at_exact_breakpoints(self):
        """Every closed-form breakpoint for n <= 12, k <= 7, and its 1e-12
        neighbours, with m unrestricted and from ceil(1/alpha) to 3n+3 past
        it: the ratio stays at or below 2n/(n+1) and reaches it for each n.
        This is in addition to the 10,000-point grid of criterion 5."""
        eps = F(1, 10 ** 12)
        for n in range(2, 13):
            points = {F(7, 27), F(2, 7), F(3, 11)}  # n=2, k=1 special pieces
            for k in range(8):
                points |= {
                    F(1, (k + 1) * n + 1), F(1, k * n + 1),  # bracket ends
                    F(k + 2, n * (k + 1) ** 2 + k + 2),       # D/I split
                    F(k + 2, (k + 1) * ((k + 1) * n + 1)),    # NI/IV split
                }
                if k:
                    points.add(F(1, k * n))  # best-case even split
            cap, best = ratio_ceiling(n), F(0)
            for p in points:
                for a in (p - eps, p, p + eps):
                    if not 0 < a < 1:
                        continue
                    c = ceil_inv(a)
                    for m in (None, *range(c, c + 3 * n + 4)):
                        r = theoretical_ratio(n, a, m)
                        assert r <= cap, (n, a, m, r)
                        best = max(best, r)
            assert best == cap, (n, best)

    def test_high_ratio_ranges_shape(self):
        assert high_ratio_ranges(3) == ((F(2, 9), F(1, 3)),)
        assert high_ratio_ranges(2) == ()
        lo, hi = high_ratio_ranges(12)[0]
        assert hi - lo < F(7, 6 * 12)


class TestShareMonotonicity:
    def test_decreasing_in_n(self):
        for j in range(1, 60):
            a = F(j, 61)
            prev = None
            for n in range(2, 9):
                h = hill_share(n, a)
                if prev is not None:
                    assert h <= prev
                prev = h

    def test_increasing_then_constant_in_m(self):
        for n in (2, 3, 4):
            for a in (F(1, 4), F(3, 10), F(2, 7), F(1, 5), F(7, 20)):
                from fairchores.core import ceil_inv
                m0, m1 = ceil_inv(a), natural_object_count(a)
                prev = None
                for m in range(m0, m1 + 4):
                    h = hill_share(n, a, m)
                    if prev is not None:
                        if m <= m1:
                            assert h >= prev
                        else:
                            assert h == prev
                    prev = h
                assert hill_share(n, a, m1) == hill_share(n, a)
