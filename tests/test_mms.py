import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from fairchores.core import DisutilityVector
from fairchores.mms import (
    SearchLimitError,
    exact_mms,
    fits_under,
    lex_minmax,
    minmax_partition,
)

from oracles import naive_lex_key, naive_mms

F = Fraction


def vec(*xs):
    return DisutilityVector(tuple(F(x) for x in xs))


def random_normalized(rng, m):
    cuts = sorted(rng.randrange(1, 1000) for _ in range(m - 1))
    pts = [0] + cuts + [1000]
    return DisutilityVector(tuple(F(pts[i + 1] - pts[i], 1000) for i in range(m)))


class TestExactMMS:
    def test_examples(self):
        assert exact_mms(vec("3/10", "1/4", "1/4", "1/5"), 2) == F(1, 2)
        assert exact_mms(vec("3/10", "1/4", "1/4", "1/5"), 1) == 1
        assert exact_mms(vec("1/2", "3/10", "1/5"), 3) == F(1, 2)

    def test_quarters_with_zero_objects(self):
        v = vec("1/4", "1/4", "1/4", "1/4", 0, 0)
        assert exact_mms(v, 3) == F(1, 2)

    def test_zero_objects_returned_in_allocation(self):
        v = vec("1/2", "1/2", 0, 0)
        val, alloc = minmax_partition(v, 2)
        assert val == F(1, 2)
        alloc.validate(4)

    def test_scale_guard(self):
        big = DisutilityVector((F(1, 30),) * 30)
        with pytest.raises(SearchLimitError):
            exact_mms(big, 2)
        # explicit limit raise is honored
        assert exact_mms(big, 2, max_objects=30) == F(1, 2)

    def test_no_search_case_answered_before_scale_guard(self):
        # at most n nonzero objects: one object per bundle, whatever the guard
        val, alloc = minmax_partition(vec("1/2", "3/10", "1/5", 0), 11)
        assert val == F(1, 2) and alloc.n == 11
        alloc.validate(4)
        assert exact_mms(DisutilityVector((F(1, 30),) * 30), 30) == F(1, 30)

    def test_matches_naive_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 3)
            m = rng.randint(1, 8)
            v = random_normalized(rng, m)
            assert exact_mms(v, n) == naive_mms(v.values, n)

    def test_monotone_in_n_and_pigeonhole(self):
        rng = random.Random(11)
        for _ in range(30):
            v = random_normalized(rng, 6)
            prev = None
            for n in range(1, 8):
                x = exact_mms(v, n)
                assert x >= max(v.alpha(), v.total() / n)
                if prev is not None:
                    assert x <= prev
                prev = x
            assert exact_mms(v, 6) == v.alpha()
            assert exact_mms(v, 9) == v.alpha()


class TestFitsUnder:
    def test_examples(self):
        v = vec("3/10", "1/4", "1/4", "1/5")
        assert fits_under(v, 2, F(1, 2))
        assert not fits_under(v, 2, F(49, 100))
        assert fits_under(v, 2, 1)


class TestLexMinMax:
    def test_examples(self):
        a = lex_minmax(vec("1/2", "1/4", "1/4"), 2)
        assert set(a.bundles) == {frozenset({0}), frozenset({1, 2})}
        a = lex_minmax(vec("1/3", "1/3", "1/3"), 3)
        assert set(a.bundles) == {frozenset({0}), frozenset({1}), frozenset({2})}

    def test_canonical_tie_break(self):
        # loads (3/5, 2/5) achieved two ways; smallest growth string wins
        a = lex_minmax(vec("2/5", "1/5", "1/5", "1/5"), 2)
        assert a.bundles == (frozenset({0, 1}), frozenset({2, 3}))

    def test_guard(self):
        with pytest.raises(SearchLimitError):
            lex_minmax(DisutilityVector((F(1, 13),) * 13), 2)

    def test_max_load_equals_mms(self):
        rng = random.Random(3)
        for _ in range(40):
            m = rng.randint(1, 8)
            n = rng.randint(1, 3)
            v = random_normalized(rng, m)
            a = lex_minmax(v, n)
            assert max(v.value_of(b) for b in a.bundles) == exact_mms(v, n)

    def test_lex_key_matches_naive(self):
        rng = random.Random(5)
        for _ in range(40):
            m = rng.randint(1, 7)
            n = rng.randint(1, 3)
            v = random_normalized(rng, m)
            a = lex_minmax(v, n)
            loads = tuple(sorted((v.value_of(b) for b in a.bundles), reverse=True))
            assert loads == naive_lex_key(v.values, n)


def sorted_bundles_by_load(v, alloc):
    return sorted(alloc.bundles, key=lambda b: (-v.value_of(b), sorted(b)))


class TestExchangeProperties:
    """Exchange properties of lexicographic min-max allocations.

    With bundles sorted by load (A1 heaviest): for subsets S1 of A1 and Sj of
    Aj with v(S1) > v(Sj), swapping them cannot help, which forces
    v(S1) - v(Sj) >= v(A1) - v(Aj); contrapositively, if moving S1 into Aj
    (minus Sj) keeps Aj below A1, then v(Sj) >= v(S1).
    """

    def test_exchange_properties_exhaustively(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(100):
            m = rng.randint(2, 10)
            n = rng.randint(2, 3)
            v = random_normalized(rng, m)
            alloc = lex_minmax(v, n)
            bs = sorted_bundles_by_load(v, alloc)
            a1 = bs[0]
            va1 = v.value_of(a1)
            for j in range(1, len(bs)):
                aj = bs[j]
                vaj = v.value_of(aj)
                for r1 in range(len(a1) + 1):
                    for s1 in combinations(sorted(a1), r1):
                        vs1 = v.value_of(s1)
                        for rj in range(len(aj) + 1):
                            for sj in combinations(sorted(aj), rj):
                                vsj = v.value_of(sj)
                                if vs1 > vsj:
                                    assert vs1 - vsj >= va1 - vaj
                                if vaj - vsj + vs1 < va1:
                                    assert vsj >= vs1
                                checked += 1
        assert checked > 0
