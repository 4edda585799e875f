import copy
import dataclasses
import pickle
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from fairchores import mms
from fairchores.cli import main
from fairchores.core import Allocation, DisutilityVector, ValidationError
from fairchores.experiments import gen_synthetic, instance_ratio
from fairchores.mms import (
    SearchLimitError,
    _greedy_makespan,
    _lower_bound,
    _sequential,
    _subsets,
    exact_mms,
    fits_under,
    lex_minmax,
    minmax_partition,
)
from fairchores.shares import witness_lower, witness_upper

from oracles import bnb_mms, dfs_partition, lpt_seed, naive_lex_key, naive_mms
from test_acceptance import share_grid

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

    def test_table_budget(self, monkeypatch):
        # a seeded 30-object row is searched within the table budget
        assert exact_mms(gen_synthetic(30, random.Random(2)), 2) == F(1, 2)
        # at 48 objects the first half table alone would pass the budget: it
        # is stopped while it is built, never holding more keys than what is
        # left of the budget, and the error states the root bracket
        built, refused = [], []

        def recording(items, lo, hi, cap=None, room=None):
            peak, table = traced(tables, items, lo, hi, cap, room)
            assert peak <= mms.MAX_SEARCH_ENTRIES - sum(built)
            if isinstance(table, SearchLimitError):
                refused.append(sum(built))
                raise table
            built.append(len(table))
            return table

        tables = mms._subsets
        monkeypatch.setattr(mms, "_subsets", recording)
        big = gen_synthetic(48, random.Random(2))
        with pytest.raises(SearchLimitError,
                           match=r"more than 2097152 subset-table entries; "
                                 r"root bracket \[1/2, 12504859/25000000\]$") as refusal:
            exact_mms(big, 2)
        assert (built, refused) == ([], [0])
        # the refusal keeps no context, whose traceback would hold the tables
        assert refusal.value.__context__ is None
        # a bracket too long to print does not hide the budget's error
        huge = DisutilityVector._of_view(big.ints, big.denom * 10 ** sys.get_int_max_str_digits(),
                                         normalized=False)
        with pytest.raises(SearchLimitError, match="root bracket too long to print$"):
            exact_mms(huge, 2)

    def test_budget_counts_sub_call_tables(self):
        # a tie-heavy row whose top-level half tables are small: the search's
        # sub-calls build the tables that pass the budget, and it stops there
        rng = random.Random("ties:60:8:5:1")
        v = DisutilityVector(tuple(F(7 * rng.randint(1, 8)) for _ in range(60)))
        items = sorted(v.ints, reverse=True)
        assert len(_subsets(items, 1, 30)) + len(_subsets(items, 30, 60)) < 20_000
        start = time.perf_counter()
        with pytest.raises(SearchLimitError, match="root bracket"):
            exact_mms(v, 5)
        assert time.perf_counter() - start < 30

    def test_no_search_case_answered_before_table_budget(self):
        # at most n nonzero objects: one object per bundle, whatever the guard
        val, alloc = minmax_partition(vec("1/2", "3/10", "1/5", 0), 11)
        assert val == F(1, 2) and alloc.n == 11
        alloc.validate(4)
        assert exact_mms(DisutilityVector((F(1, 30),) * 30), 30) == F(1, 30)
        for v in (DisutilityVector(()), vec(0, 0, 0)):
            val, alloc = minmax_partition(v, 11)
            assert val == 0 and alloc.n == 11
            alloc.validate(v.m)
            assert alloc.bundles[0] == frozenset(range(v.m))

    def test_root_settled_rows_never_hit_the_table_budget(self):
        # 30 or more objects, but the greedy seed meets the root bound, so
        # no search is needed
        assert exact_mms(DisutilityVector((F(1, 30),) * 30), 2) == F(1, 2)
        assert exact_mms(DisutilityVector((F(1, 40),) * 40), 2) == F(1, 2)
        assert exact_mms(DisutilityVector((F(1, 40),) * 40), 20) == F(1, 20)
        for n, alpha, value in ((2, F(1, 30), F(116, 225)), (3, F(1, 40), F(7, 20)),
                                (4, F(1, 50), F(343, 1300))):
            w = witness_upper(n, alpha)
            assert w.vector.m > 24 and w.claimed_mms == value
            val, alloc = minmax_partition(w.vector, n)
            assert val == value
            alloc.validate(w.vector.m)
            assert max(w.vector.value_of(b) for b in alloc.bundles) == value

    def test_root_settled_row_over_budget_builds_no_table(self, monkeypatch):
        # objects 1..48: the first table pair alone is over budget, but the
        # greedy seed meets the average load at n = 2 and 3, so the row is
        # answered before any table is built
        def no_table(*_):
            raise AssertionError("a table was built")

        monkeypatch.setattr(mms, "_subsets", no_table)
        # the halves hold 23 and 24 distinct objects
        assert 2 ** 23 + 2 ** 24 > mms.MAX_SEARCH_ENTRIES
        v = DisutilityVector(tuple(F(k) for k in range(1, 49)))
        for n in (2, 3):
            val, alloc = minmax_partition(v, n)
            assert val == F(1176, n)
            assert max(v.value_of(b) for b in alloc.bundles) == val

    def test_row_settled_by_the_pigeonhole_term_builds_no_table(self, monkeypatch):
        # five 5s at n = 2: the average load is 13, but some bundle holds
        # three of the objects, so the bound is 15, the greedy seed's value;
        # only the root's floor carries that term into the search
        def no_table(*_):
            raise AssertionError("a table was built")

        monkeypatch.setattr(mms, "_subsets", no_table)
        items = [5] * 5
        assert (_lower_bound(items, 2), -(-sum(items) // 2)) == (15, 13)
        assert _greedy_makespan(items, 2)[0] == 15
        val, alloc = minmax_partition(vec(*items), 2)
        assert val == 15
        assert max(len(b) for b in alloc.bundles) == 3

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


def searched(v, n):
    """True iff the greedy seed misses the root bound, so the oracle searches."""
    items = sorted((x for x in v.ints if x > 0), reverse=True)
    return _greedy_makespan(items, n)[0] != _lower_bound(items, n)


def checked_value(v, n):
    """minmax_partition's value, once its allocation is checked: a partition
    of v's objects into n bundles whose largest bundle carries that value."""
    val, alloc = minmax_partition(v, n)
    alloc.validate(v.m)
    assert alloc.n == n
    assert max(v.value_of(b) for b in alloc.bundles) == val
    return val


class TestTwoAndThreeBundles:
    """n = 2 and n = 3 run sequential partitioning on subset-sum tables.
    Rows that the greedy seed answers never reach it, so every test counts
    the rows that do."""

    def test_matches_naive_oracle(self):
        rng = random.Random(29)
        makers = (
            lambda m: random_normalized(rng, m),
            lambda m: vec(*(rng.choice((2, 2, 3, 3, 5)) for _ in range(m))),
            lambda m: vec(*(rng.choice((0, 0, 3, 4, 5, 6, 8)) for _ in range(m))),
        )
        for n in (2, 3):
            for make in makers:
                reached = 0
                for _ in range(1000):
                    # n**m assignments: up to 512 at n = 2, 6,561 at n = 3
                    v = make(rng.randint(2, 9 if n == 2 else 8))
                    if searched(v, n):
                        assert checked_value(v, n) == naive_mms(v.values, n), (v.values, n)
                        reached += 1
                        if reached == 12:
                            break
                assert reached == 12

    @pytest.mark.parametrize("n, m", [(2, 18), (3, 16)])
    def test_matches_branch_and_bound(self, n, m):
        rng = random.Random(f"mitm:{n}:{m}")
        reached = 0
        for _ in range(40):
            v = gen_synthetic(m, rng)
            assert checked_value(v, n) == F(bnb_mms(v.ints, n), v.denom)
            reached += searched(v, n)
        assert reached >= 20

    # Values of the former depth-first search on the seeded grid vectors:
    # three per n from random.Random(f"grid:{n}:24").  It took 0.2-0.4 s per
    # vector at n = 2 and 5-16 s at n = 3 (Python 3.11.7), too long to rerun
    # here.
    GRID_24 = {
        2: ("500000003/1000000000", "500000057/1000000000", "500000039/1000000000"),
        3: ("333333967/1000000000", "10416693/31250000", "333333713/1000000000"),
    }

    @pytest.mark.parametrize("n", [2, 3])
    def test_seeded_grid_values(self, n):
        rng = random.Random(f"grid:{n}:24")
        for want in self.GRID_24[n]:
            v = gen_synthetic(24, rng)
            assert searched(v, n)
            start = time.perf_counter()
            assert checked_value(v, n) == F(want)
            # about 5-10 ms each; the depth-first search needed 0.2 s and more
            assert time.perf_counter() - start < 0.5

    def test_tie_heavy_rows(self):
        # few distinct values: many subsets share a sum; bounded so that ties
        # do not bring back the search time of a depth-first search
        rng = random.Random(31)
        reached = 0
        slowest = 0.0
        for k in (2, 3, 5, 10, 30, 100):
            for n in (2, 3):
                for _ in range(80):
                    v = vec(*(rng.randint(1, k) for _ in range(rng.randint(18, 24))))
                    if not searched(v, n):
                        continue
                    reached += 1
                    start = time.perf_counter()
                    val = checked_value(v, n)
                    slowest = max(slowest, time.perf_counter() - start)
                    assert val == F(bnb_mms(v.ints, n), v.denom), (v.ints, n)
        assert reached >= 200
        assert slowest < 0.25


class TestFourBundles:
    """n = 4 runs sequential partitioning: the bundle of the largest object
    from subset-sum tables, the rest split into three the same way; the
    failed-rest table first acts here.  As for n <= 3, every test counts the
    rows that the greedy seed leaves open."""

    def test_matches_naive_oracle(self):
        rng = random.Random(41)
        makers = (
            lambda m: random_normalized(rng, m),
            lambda m: vec(*(rng.choice((2, 2, 3, 3, 5)) for _ in range(m))),
            lambda m: vec(*(rng.choice((0, 0, 3, 4, 5, 6, 8)) for _ in range(m))),
        )
        for make in makers:
            reached = 0
            for _ in range(1000):
                # up to 4**7 = 16,384 assignments, summed as integers
                v = make(rng.randint(5, 7))
                if searched(v, 4):
                    want = F(naive_mms(v.ints, 4), v.denom)
                    assert checked_value(v, 4) == want, v.values
                    reached += 1
                    if reached == 12:
                        break
            assert reached == 12

    def test_matches_branch_and_bound(self):
        rng = random.Random("mitm:4:16")
        reached = 0
        for _ in range(40):
            v = gen_synthetic(16, rng)
            assert checked_value(v, 4) == F(bnb_mms(v.ints, 4), v.denom)
            reached += searched(v, 4)
        assert reached >= 20

    def test_seeded_grid_values(self):
        # the former depth-first search's values on random.Random("grid:4:24");
        # it took 98.4, 12.6 and 6.5 s on them (Python 3.11.7), too long to
        # rerun here
        rng = random.Random("grid:4:24")
        for want in ("250011888/1000000000", "250007512/1000000000",
                     "250024564/1000000000"):
            v = gen_synthetic(24, rng)
            assert searched(v, 4)
            start = time.perf_counter()
            assert checked_value(v, 4) == F(want)
            assert time.perf_counter() - start < 0.5

    def test_tie_heavy_rows(self):
        rng = random.Random(43)
        reached = 0
        slowest = 0.0
        for k in (2, 3, 5, 10, 30, 100):
            for _ in range(40):
                v = vec(*(rng.randint(1, k) for _ in range(rng.randint(18, 22))))
                if not searched(v, 4):
                    continue
                reached += 1
                start = time.perf_counter()
                val = checked_value(v, 4)
                slowest = max(slowest, time.perf_counter() - start)
                assert val == F(bnb_mms(v.ints, 4), v.denom), v.ints
        assert reached >= 60
        assert slowest < 0.25


class TestSequentialCutoff:
    """`_sequential(items, n, c, None, 0)`, the form of its own sub-calls: c
    is a cutoff with no incumbent.  A value of at least c says that no
    partition below c exists; a value below c is the optimum, and its
    assignment's largest bundle carries it.  Rows are those the oracle
    searches, zero entries kept; zeros are the smallest objects outside a
    bundle, which the dominance rule reads."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cutoff_on_each_side_of_the_optimum(self, n):
        rng = random.Random(f"cutoff:{n}")
        makers = (
            lambda m: [rng.randrange(1, 1000) for _ in range(m)],
            lambda m: [rng.choice((2, 2, 3, 3, 5)) for _ in range(m)],
            lambda m: [rng.choice((0, 0, 3, 4, 5, 6, 8)) for _ in range(m)],
        )
        above_bound = 0
        for make in makers:
            reached = 0
            for _ in range(1000):
                # n**m assignments: up to 6,561 at n = 3, 16,384 at n = 4; the
                # greedy seed settles every row with m <= n + 1, so n = 5 draws
                # m from 7 to 9 and is checked against `oracles.bnb_mms`
                lo, hi = (7, 9) if n == 5 else (1, 8 if n < 4 else 7)
                items = sorted(make(rng.randint(lo, hi)), reverse=True)
                lower = _lower_bound(items, n)
                if _greedy_makespan(items, n)[0] == lower:
                    continue
                opt = naive_mms(items, n) if n < 5 else bnb_mms(items, n)
                # a cutoff above the total leaves some candidate no rest
                for c in (opt - 1, opt, opt + 1, opt + rng.randint(2, sum(items) + 2)):
                    value, assign = _sequential(items, n, c, None, 0)
                    if opt >= c:
                        assert value >= c, (items, n, c)
                        continue
                    loads = [0] * n
                    for w, b in zip(items, assign, strict=True):
                        loads[b] += w
                    assert value == max(loads) == opt, (items, n, c)
                # a cutoff at such an optimum is proved by the search alone
                above_bound += opt > lower
                reached += 1
                if reached == 20:
                    break
            assert reached == 20
        assert above_bound >= 30


class TestSequentialFloor:
    """`_sequential(items, n, c, None, f)` with a floor f, the form of its
    own sub-calls, whose floor is the load of a bundle already placed.  The
    search may stop at the first partition at or below max(ceil(total/n),
    f).  A value of at least c says that max(optimum, f) is at least c: no
    partition has every bundle below c, or the floor is already there.  A
    value below c is its assignment's largest bundle, and it is either the
    optimum or at most max(ceil(total/n), f)."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_floor_on_each_side_of_the_optimum(self, n):
        rng = random.Random(f"floor:{n}")
        makers = (
            lambda m: [rng.randrange(1, 1000) for _ in range(m)],
            lambda m: [rng.choice((2, 2, 3, 3, 5)) for _ in range(m)],
            lambda m: [rng.choice((0, 0, 3, 4, 5, 6, 8)) for _ in range(m)],
        )
        early = 0
        for make in makers:
            for _ in range(60):
                # sizes as in TestSequentialCutoff: naive_mms up to n = 4
                lo, hi = (7, 9) if n == 5 else (1, 8 if n < 4 else 7)
                items = sorted(make(rng.randint(lo, hi)), reverse=True)
                opt = naive_mms(items, n) if n < 5 else bnb_mms(items, n)
                average = -(-sum(items) // n)
                for f in (0, opt - 1, opt, opt + 1):
                    for c in (opt - 1, opt, opt + 1, opt + rng.randint(2, sum(items) + 2)):
                        value, assign = _sequential(items, n, c, None, f)
                        if value >= c:
                            assert max(opt, f) >= c, (items, n, c, f)
                            continue
                        loads = [0] * n
                        for w, b in zip(items, assign, strict=True):
                            loads[b] += w
                        assert value == max(loads), (items, n, c, f)
                        assert value == opt or opt < value <= max(average, f), (items, n, c, f)
                        early += value > opt
        # the floor ends some searches above the optimum
        assert early >= 10


class TestSettledReturn:
    """A call whose incumbent is already at or below its floor returns it
    before any frame: the very assignment it was given, with a `failed`
    table and a `spent` counter passed in left as they were."""

    @pytest.mark.parametrize("n, items", [(1, [5, 3]), (2, [3, 3, 2, 2, 2]),
                                          (3, [7, 4, 4, 3, 2, 1])])
    def test_settled_seed_is_returned_untouched(self, n, items):
        best, assign = _greedy_makespan(items, n)
        for floor in (best, best + 1):
            failed, spent = {(2, 1, 1): 9}, [5]
            value, got = _sequential(items, n, best, assign, floor, failed, spent)
            assert value == best and got is assign
            assert failed == {(2, 1, 1): 9} and spent == [5]

    def test_seed_one_above_the_floor_is_searched(self):
        # the optimum 6 (3+3 | 2+2+2) is the root bound; the greedy seed is 7
        items, n = [3, 3, 2, 2, 2], 2
        best, assign = _greedy_makespan(items, n)
        floor = _lower_bound(items, n)
        assert (best, floor, naive_mms(items, n)) == (7, 6, 6)
        value, got = _sequential(items, n, best, assign, floor)
        loads = [0] * n
        for w, b in zip(items, got, strict=True):
            loads[b] += w
        assert value == max(loads) == 6 and got is not assign


class TestCutTables:
    """`_sequential` builds each half table cut below `best - items[0]`, the
    first bundle's room at the call's start.  A cut table is the full table
    filtered, and the budget counts the entries of the tables built."""

    def test_cut_table_is_the_full_table_below_the_cap(self):
        rng = random.Random("cut-tables")
        straddled = 0
        for _ in range(1500):
            m = rng.randint(1, 14)
            items = sorted((rng.choice((1, 2, 2, 3, 5, 5, 5, 8)) for _ in range(m)),
                           reverse=True)
            # the halves `_sequential` builds, and any slice
            h = (m + 1) // 2
            lo, hi = rng.choice(((1, h), (h, m), (rng.randint(0, m), None)))
            hi = rng.randint(lo, m) if hi is None else hi
            straddled += 0 < lo < m and items[lo] == items[lo - 1]
            full = _subsets(items, lo, hi)
            caps = {0, -1, 1, rng.choice(full), rng.choice(full) + 1, full[-1], full[-1] + 1,
                    rng.randint(1, sum(items) + 1) << m}
            if len(full) > 1:
                caps |= {full[1], full[1] - 1}  # at and below the first key past 0
            for cap in caps:
                assert _subsets(items, lo, hi, cap) == [k for k in full if k < cap], \
                    (items, lo, hi, cap)
        # ties cut by the slice's start: the first copy in the slice is taken
        # as a first copy
        assert straddled >= 100
        items = [5, 5, 5, 5, 3, 3]
        assert _subsets(items, 2, 6, 0) == []
        assert _subsets(items, 2, 6, 7 << 6) == [0, 3 << 6 | 16, 5 << 6 | 4, 6 << 6 | 48]
        assert _subsets(items, 2, 6, 1) == [0]

    def test_budget_counts_the_built_tables(self, monkeypatch):
        # `spent` adds up the tables built; and a search that starts with
        # less budget left than its first pair needs builds the left table,
        # and then the right one only within what the left leaves
        built = []

        def recording(items, lo, hi, cap, room=None):
            whole = cut(items, lo, hi)
            table = cut(items, lo, hi, cap, room)
            assert table == [k for k in whole if k < cap]
            assert len(table) <= mms.MAX_SEARCH_ENTRIES - start - sum(built)
            built.append(len(table))
            return table

        cut = mms._subsets
        monkeypatch.setattr(mms, "_subsets", recording)
        rng = random.Random("uncut-budget")
        reached = right_refused = 0
        for _ in range(300):
            n, k = rng.randint(2, 5), rng.choice((5, 30, 1000))
            items = sorted((rng.randint(1, k) for _ in range(rng.randint(9, 14))), reverse=True)
            best, assign = _greedy_makespan(items, n)
            if best == _lower_bound(items, n):
                continue
            spent, start = [0], 0
            built.clear()
            value = _sequential(items, n, best, assign, 0, None, spent)[0]
            assert spent[0] == sum(built)
            assert value == bnb_mms(items, n)
            left, start = built[0], mms.MAX_SEARCH_ENTRIES - (built[0] + built[1] - 1)
            built.clear()
            with pytest.raises(SearchLimitError):
                _sequential(items, n, best, assign, 0, None, [start])
            assert built in ([], [left])
            right_refused += built == [left]
            reached += 1
        assert reached >= 50 and right_refused >= 100

    def test_room_bounds_the_table(self):
        # given the search's remaining budget as `room`, `_subsets` returns
        # the cut table within it or raises, and raises only when the uncut
        # table is longer than the room; while it builds, the table never
        # holds more keys than the room
        rng = random.Random("table-room")
        raised = returned = 0
        for _ in range(1500):
            m = rng.randint(1, 14)
            items = sorted((rng.choice((1, 2, 3, 5, 8, 8)) for _ in range(m)), reverse=True)
            lo = rng.randint(0, m)
            hi = rng.randint(lo, m)
            full = _subsets(items, lo, hi)
            cap = rng.choice((None, 0, rng.choice(full), rng.randint(1, sum(items) + 1) << m))
            table = [k for k in full if cap is None or k < cap]
            for room in {0, 1, len(table) - 1, len(table), len(full) - 1, len(full),
                         rng.randint(0, len(full))} - {-1}:
                peak, got = traced(_subsets, items, lo, hi, cap, room)
                assert peak <= room, (items, lo, hi, cap, room)
                if isinstance(got, SearchLimitError):
                    assert len(full) > room, (items, lo, hi, cap, room)
                    raised += 1
                else:
                    assert got == table and len(got) <= room
                    returned += 1
        assert raised >= 1000 and returned >= 1000
        # a table past the room stops there, however long the row
        row = list(range(10 ** 4, 0, -1))
        peak, got = traced(_subsets, row, 0, len(row), None, 2 ** 12)
        assert isinstance(got, SearchLimitError) and peak == 2 ** 12


def traced(build, *args):
    """`build(*args)`, or the `SearchLimitError` it raises, with the most
    keys its local table `keys` held while it ran, read at every line it
    executed."""
    peak = 0

    def trace(frame, event, _):
        nonlocal peak
        if frame.f_code is not build.__code__:
            return None
        peak = max(peak, len(frame.f_locals.get("keys", ())))
        return trace

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        result = build(*args)
    except SearchLimitError as exc:
        # its traceback would keep the table alive
        result = exc.with_traceback(None)
    finally:
        sys.settrace(outer)
    return peak, result


class TestGreedySeed:
    def test_matches_tuple_heap_reference(self):
        # bundle b of load x is the heap entry x*n + b: the same least-loaded,
        # lowest-index choice as a heap of (load, bundle) tuples
        rng = random.Random("lpt")
        for n in range(1, 13):
            for _ in range(100):
                k = rng.choice((2, 5, 1000, 10 ** 30))
                items = sorted((rng.randint(1, k) for _ in range(rng.randint(0, 30))),
                               reverse=True)
                value, assign = _greedy_makespan(items, n)
                assert (value, assign) == lpt_seed(items, n), (items, n)


class TestManyAgents:
    """At n at or above the nonzero object count the greedy puts each object
    alone in a bundle, so `_root` seeds over at most one bundle per object
    and the search answers the largest object at once, however large n is."""

    def test_seed_over_one_bundle_per_object(self):
        rng = random.Random("many agents")
        for _ in range(200):
            items = sorted((rng.randint(1, 9) for _ in range(rng.randint(1, 12))), reverse=True)
            for n in range(len(items), len(items) + 3):
                assert _greedy_makespan(items, n) == (items[0], list(range(len(items))))

    def test_huge_n_answers_the_largest_object(self):
        v, n = vec("1/2", "3/10", 0, "1/5"), 10 ** 12
        assert exact_mms(v, n) == F(1, 2)
        assert fits_under(v, n, F(1, 2)) and not fits_under(v, n, F(49, 100))
        assert exact_mms(vec(0, 0), n) == 0 and fits_under(vec(0, 0), n, 0)
        assert minmax_partition(v, 6)[1].bundles == (
            frozenset({0, 2}), frozenset({1}), frozenset({3}), frozenset(), frozenset(),
            frozenset())


class TestFailedRests:
    """The table that the sub-calls of one search share: an entry
    `(bundles, *rest) -> c` says that rest has no partition into that many
    bundles below c.  A caller that passes a table makes `_sequential` fill
    it as a sub-call would; every entry is checked against
    `oracles.bnb_mms`."""

    def test_every_entry_is_a_failure(self):
        rng = random.Random("failed-rests")
        entries = Counter()
        for _ in range(300):
            n = rng.randint(4, 6)
            k = rng.choice((3, 5, 10, 1000))
            items = sorted((rng.randint(1, k) for _ in range(rng.randint(10, 14))),
                           reverse=True)
            best = _greedy_makespan(items, n)[0]
            if best == _lower_bound(items, n):
                continue
            failed = {}
            value, _ = _sequential(items, n, best, None, 0, failed)
            assert min(value, best) == min(bnb_mms(items, n), best), (items, n)
            for (bundles, *rest), c in failed.items():
                assert bnb_mms(rest, bundles) >= c, (bundles, rest, c)
                entries[bundles] += 1
        # rests of two, three and four bundles, so the count in the key matters
        assert min(entries[b] for b in (2, 3, 4)) >= 20


class TestFailedRestsAfterAFall:
    """Once the incumbent falls to the load of the first bundle that set it,
    the next keys of that load lie at or above the new cut, and the inner
    `key >= high` guard skips them.  Without it, each such bundle's sub-call
    would get a floor of at least `best`, return at once, and have its rest
    recorded as failed under `best`, though the rest may split below it.
    The rows are ones on which a random search found that to happen."""

    @pytest.mark.parametrize("items, n", [
        ([9, 9, 9, 8, 8, 8, 7, 7, 7, 3, 2, 2, 1], 4),
        ([9, 9, 8, 7, 6, 6, 5, 4, 3, 3, 3, 2], 5),
        ([8, 8, 7, 7, 6, 6, 5, 2, 1, 1], 3),
        ([8, 8, 8, 8, 7, 7, 6, 6, 6, 3, 2, 2, 1], 4),
        ([8, 8, 8, 8, 7, 7, 6, 6, 4, 4, 3, 3, 3, 1], 4),
    ])
    def test_every_entry_is_a_failure(self, items, n):
        best, assign = _greedy_makespan(items, n)
        failed = {}
        value, _ = _sequential(items, n, best, assign, 0, failed)
        assert value == bnb_mms(items, n)
        for (bundles, *rest), c in failed.items():
            assert bnb_mms(rest, bundles) >= c, (bundles, rest, c)


class TestFiveOrMoreBundles:
    """n >= 5 runs the same sequential partitioning as n <= 4, with the
    dominance rule and the failed-rest table doing the work there.  Values
    equal `oracles.dfs_partition`, the depth-first search that it replaced;
    an allocation may be a different optimal one, so it is checked, not
    pinned."""

    @pytest.mark.parametrize("n", [5, 6])
    def test_same_value_valid_allocation(self, n):
        rng = random.Random(f"dfs:{n}:16")
        reached = 0
        for _ in range(200):
            v = gen_synthetic(16, rng)
            items = sorted((x for x in v.ints if x), reverse=True)
            assert checked_value(v, n) == F(dfs_partition(items, n)[0], v.denom)
            reached += searched(v, n)
            if reached == 20:
                break
        assert reached == 20

    # Values of the depth-first search that n >= 5 ran before, on
    # random.Random(f"grid:{n}:24"); it took 39.1, 0.0 and 4.8 s at n = 5 and
    # 0.12, 4.5 and 0.12 s at n = 6 (Python 3.11.7).  The greedy seed settles
    # (5, 24) #1 without a search.
    GRID_24 = {
        5: ("40012267/200000000", "285250763/1000000000", "200069679/1000000000"),
        6: ("166893691/1000000000", "41697123/250000000", "83429203/500000000"),
    }

    @pytest.mark.parametrize("n", [5, 6])
    def test_seeded_grid_values(self, n):
        rng = random.Random(f"grid:{n}:24")
        for i, want in enumerate(self.GRID_24[n]):
            v = gen_synthetic(24, rng)
            assert searched(v, n) == ((n, i) != (5, 1))
            start = time.perf_counter()
            assert checked_value(v, n) == F(want)
            # at most about 0.06 s each
            assert time.perf_counter() - start < 0.5

    def test_tie_heavy_rows(self):
        # few distinct values: many bundles share a sum, and rests repeat
        rng = random.Random(53)
        reached = 0
        slowest = 0.0
        for k in (2, 3, 5, 10, 30, 100):
            for n in (5, 6, 7, 8):
                for _ in range(20):
                    v = vec(*(rng.randint(1, k) for _ in range(rng.randint(12, 18))))
                    if not searched(v, n):
                        continue
                    reached += 1
                    start = time.perf_counter()
                    val = checked_value(v, n)
                    slowest = max(slowest, time.perf_counter() - start)
                    assert val == F(bnb_mms(v.ints, n), v.denom), (v.ints, n)
        assert reached >= 120
        assert slowest < 0.25

    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_deeper_stacks_match_branch_and_bound(self, n):
        # rows of n+1 to 18 objects: a search here stacks up to n - 1 frames
        rng = random.Random(f"deeper:{n}")
        reached = 0
        for _ in range(150):
            k = rng.choice((3, 5, 10, 1000))
            v = vec(*(rng.randint(1, k) for _ in range(rng.randint(n + 1, 18))))
            assert checked_value(v, n) == F(bnb_mms(v.ints, n), v.denom), (v.ints, n)
            reached += searched(v, n)
        # 32, 22, 17 and 10 rows search at n = 7..10
        assert reached >= 10


class TestLowerBound:
    """`_lower_bound` is a search-effort guard: it may end the search early,
    so it must never exceed the optimum."""

    def test_examples(self):
        assert _lower_bound([], 3) == 0
        assert _lower_bound([5, 1], 1) == 6
        # pigeonhole, k=1: two of the three largest share a bundle
        assert _lower_bound([10, 10, 10], 2) == 20
        # k=2: three of the five largest share a bundle, 15 > ceil(25/2)
        assert _lower_bound([5, 5, 5, 5, 5], 2) == 15

    def test_never_above_naive_oracle(self):
        rng = random.Random(17)
        for n in range(1, 5):
            for m in range(1, 9):
                for _ in range(3 if n ** m <= 4 ** 6 else 1):
                    # few distinct values, so rows carry ties
                    items = sorted((rng.choice((1, 2, 3, 5, 8)) for _ in range(m)),
                                   reverse=True)
                    assert _lower_bound(items, n) <= naive_mms(items, n), (items, n)

    def test_witnesses_need_no_search(self):
        # the greedy seed meets the bound on every widened-grid witness but
        # the two-agent-mid upper witnesses at 3/11: seed 31, bound 28
        searched = {(2, F(3, 11), 7, "upper"), (2, F(3, 11), None, "upper")}
        seen = set()
        for n, a, m in share_grid():
            for kind, make in (("upper", witness_upper), ("lower", witness_lower)):
                ints, _ = make(n, a, m).vector.scaled()
                items = sorted((x for x in ints if x > 0), reverse=True)
                seed, bound = _greedy_makespan(items, n)[0], _lower_bound(items, n)
                if (n, a, m, kind) in searched:
                    assert (seed, bound) == (31, 28)
                    seen.add((n, a, m, kind))
                else:
                    assert seed == bound, (n, a, m, kind)
        assert seen == searched


class TestFitsUnder:
    def test_examples(self):
        v = vec("3/10", "1/4", "1/4", "1/5")
        assert fits_under(v, 2, F(1, 2))
        assert not fits_under(v, 2, F(49, 100))
        assert fits_under(v, 2, 1)

    def test_float_threshold_read_as_its_decimal(self):
        # 0.35 is 7/20, the exact MMS, not the binary value just below it
        v = vec("7/20", "7/20", "3/10")
        assert exact_mms(v, 3) == F(7, 20)
        assert fits_under(v, 3, 0.35)


    def test_matches_exact_mms_around_the_optimum(self):
        # the decision search against the value, at the optimum, one step
        # below it and halfway between the root bound and the greedy seed
        for n, v in lazy_rows():
            opt = exact_mms(v, n)
            items = sorted((x for x in v.ints if x > 0), reverse=True)
            seed, lower = _greedy_makespan(items, n)[0], _lower_bound(items, n)
            step = F(1, v.denom)
            for t in (opt, opt - step, F(seed + lower, 2 * v.denom), F(lower, v.denom) - step):
                assert fits_under(v, n, t) == (opt <= t), (n, v.ints, t)

    def test_stops_at_the_first_partition_under_the_threshold(self, monkeypatch):
        # within a budget that the exact search passes on its way down, the
        # decision search stops at the first partition below the greedy seed
        monkeypatch.setattr(mms, "MAX_SEARCH_ENTRIES", 800)
        v = gen_synthetic(16, random.Random("histogram:1:1"))
        with pytest.raises(SearchLimitError):
            minmax_partition(v, 3)
        items = sorted((x for x in v.ints if x > 0), reverse=True)
        assert fits_under(v, 3, F(_greedy_makespan(items, 3)[0] - 1, v.denom))

    def test_refuses_with_the_text_of_minmax_partition(self, monkeypatch):
        monkeypatch.setattr(mms, "MAX_SEARCH_ENTRIES", 10)
        v = gen_synthetic(16, random.Random("histogram:1:1"))
        assert searched(v, 3)
        with pytest.raises(SearchLimitError) as exact:
            minmax_partition(v, 3)
        items = sorted(v.ints, reverse=True)
        cap = F(_lower_bound(items, 3), v.denom)
        with pytest.raises(SearchLimitError) as decision:
            fits_under(v, 3, cap)
        assert str(decision.value) == str(exact.value)


def lazy_rows():
    """(n, row) pairs: seeded `histogram` rows, witness rows, an all-zero
    row, an empty row, n = 1, n > m and tie-heavy rows."""
    shapes = ((2, 18), (3, 16), (4, 16), (6, 16))
    for i in range(12):
        n, m = shapes[i % len(shapes)]
        yield n, gen_synthetic(m, random.Random(f"histogram:1:{i}"))
    for n, a, m in ((2, F(3, 11), 7), (3, F(3, 10), 7), (4, F(1, 9), None), (5, F(2, 13), 12)):
        yield n, witness_upper(n, a, m).vector
        yield n, witness_lower(n, a, m).vector
    yield 3, vec(0, 0, 0)
    yield 2, DisutilityVector(())
    yield 1, vec("1/2", "1/4", 0, "1/4")
    yield 7, vec("1/2", 0, "1/3", "1/6")
    rng = random.Random("ties")
    for n in (2, 3, 5):
        yield n, vec(*(7 * rng.randint(1, 3) for _ in range(12)))
    yield 4, vec(*([1] * 10 + [2] * 5))


class TestLazyAllocation:
    """`minmax_partition`'s allocation is decoded on the first read of its
    bundles, and is then, and before, one built with its bundles given."""

    @pytest.mark.parametrize("n, v", list(lazy_rows()))
    def test_unread_allocation_is_the_eager_one(self, n, v):
        def fresh():
            alloc = minmax_partition(v, n)[1]
            assert "bundles" not in vars(alloc)
            return alloc

        eager = Allocation(fresh().bundles)
        assert fresh() == eager and eager == fresh()
        assert hash(fresh()) == hash(eager)
        assert repr(fresh()) == repr(eager)
        assert fresh().n == eager.n == n
        assert fresh().validate(v.m) is None
        with pytest.raises(ValidationError, match="cover"):
            fresh().validate(v.m + 1)
        assert dataclasses.asdict(fresh()) == dataclasses.asdict(eager)
        assert dataclasses.replace(fresh()) == eager
        assert dataclasses.replace(fresh(), bundles=()) == Allocation(())
        for made in (copy.copy(fresh()), copy.deepcopy(fresh()),
                     pickle.loads(pickle.dumps(fresh()))):
            assert made == eager and repr(made) == repr(eager)
            assert vars(made) == vars(eager)
        read = fresh()
        assert read.bundles == eager.bundles
        assert vars(read) == vars(eager)

    def test_unknown_attribute_raises_the_standard_error(self):
        v = vec("3/10", "1/4", "1/4", "1/5")
        text = "'Allocation' object has no attribute 'load'"
        for alloc in (minmax_partition(v, 2)[1], Allocation((frozenset(range(4)),))):
            with pytest.raises(AttributeError) as exc:
                alloc.load
            assert str(exc.value) == text
        alloc = minmax_partition(v, 2)[1]
        with pytest.raises(AttributeError):
            alloc.load
        assert alloc.n == 2 and "_build" not in vars(alloc)


class TestOnlyTheValueIsBuilt:
    """Callers that read only the value never decode an allocation."""

    @pytest.fixture
    def no_decode(self, monkeypatch):
        def decode(*_):
            raise AssertionError("an allocation was decoded")

        monkeypatch.setattr(mms, "_bundles", decode)

    def test_value_readers_build_no_bundles(self, no_decode):
        for n, v in lazy_rows():
            opt = exact_mms(v, n)
            assert fits_under(v, n, opt)
            if v.normalized and v.m:
                assert instance_ratio(v, n).mms == opt
            with pytest.raises(AssertionError, match="decoded"):
                minmax_partition(v, n)[1].bundles

    def test_cli_mms_builds_no_bundles(self, no_decode, tmp_path, capsys):
        v = gen_synthetic(16, random.Random("histogram:1:1"))
        assert searched(v, 3)
        row = tmp_path / "row.csv"
        header = ",".join(f"object_{j + 1}" for j in range(v.m))
        row.write_text(header + "\n" + ",".join(str(x) for x in v.values) + "\n")
        assert main(["mms", "--instance", str(row), "--n", "3"]) == 0
        assert capsys.readouterr().out.startswith(f"{exact_mms(v, 3)} (")


class TestLexMinMax:
    def test_examples(self):
        a = lex_minmax(vec("1/2", "1/4", "1/4"), 2)
        assert set(a.bundles) == {frozenset({0}), frozenset({1, 2})}
        a = lex_minmax(vec("1/3", "1/3", "1/3"), 3)
        assert set(a.bundles) == {frozenset({0}), frozenset({1}), frozenset({2})}
        assert lex_minmax(DisutilityVector(()), 2) == Allocation((frozenset(), frozenset()))

    def test_canonical_tie_break(self):
        # loads (3/5, 2/5) achieved two ways; smallest growth string wins
        a = lex_minmax(vec("2/5", "1/5", "1/5", "1/5"), 2)
        assert a.bundles == (frozenset({0, 1}), frozenset({2, 3}))

    def test_guard(self):
        with pytest.raises(SearchLimitError):
            lex_minmax(DisutilityVector((F(1, 13),) * 13), 2)
        with pytest.raises(ValidationError):
            lex_minmax(vec("1/2", "1/2"), 0)

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
