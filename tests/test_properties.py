"""Property-based differential tests, drawn from a fixed seed.

Each property runs on examples that Hypothesis derives from the test's
source (`derandomize=True`, no example database), so two runs of the same
command check the same rows.  Hypothesis also mixes in constants from the
modules a run has loaded, so running one file alone may draw other rows
than the whole suite does.
"""

import dataclasses
from collections import Counter
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from fairchores.allocator import (
    agent_reports,
    allocate,
    lift_allocation,
    moving_knife,
    reduce_to_ordered,
)
from fairchores.core import Allocation, DisutilityVector, normalize
from fairchores.experiments import curve_samples, instance_ratio
from fairchores.mms import _greedy_makespan, _lower_bound, minmax_partition
from fairchores.shares import _upper_piece

from oracles import (
    bnb_mms,
    naive_knife,
    naive_lift,
    reference_guarantee,
    reference_lower,
    reference_upper,
)

F = Fraction
FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=600)


@st.composite
def integer_rows(draw):
    """(row, n): 1-14 integers up to a drawn top, so small tops give many
    ties and zeros, for n = 2..6."""
    top = draw(st.sampled_from((2, 3, 5, 10, 1000)))
    m = 14 - draw(st.integers(0, 13))  # shrinks toward the longest row
    row = draw(st.lists(st.integers(0, top), min_size=m, max_size=m))
    return row, draw(st.sampled_from((2, 3, 4, 5, 6)))


def test_minmax_partition_matches_branch_and_bound():
    """The value equals `oracles.bnb_mms`, and the allocation partitions the
    objects into n bundles whose largest carries it.  Rows the greedy seed
    settles and rows the search must open are both reached, the latter at
    n >= 4 too, where the search keeps its failed-rest table."""
    reached = Counter()

    @FIXED
    @given(integer_rows())
    def check(case):
        row, n = case
        v = DisutilityVector(tuple(F(x) for x in row))
        value, alloc = minmax_partition(v, n)
        nonzero = [x for x in row if x]
        assert value == bnb_mms(nonzero, n), (row, n)
        alloc.validate(len(row))
        assert alloc.n == n
        assert max(v.value_of(b) for b in alloc.bundles) == value, (row, n)
        items = sorted(nonzero, reverse=True)
        searched = _greedy_makespan(items, n)[0] > _lower_bound(items, n)
        reached["searched" if searched else "settled"] += 1
        reached["searched at n >= 4"] += searched and n >= 4

    check()
    assert min(reached.values()) >= 20, reached


@st.composite
def curve_points(draw):
    """(n, alpha, m) for n = 2..60: alpha = p/q with q up to 10**12, or a
    point at or one lattice step from 2/(n+2), 1/n or 1/(n+1); m is
    unrestricted or between c = ceil(1/alpha) and c + 3n + 3."""
    n = draw(st.integers(2, 60))
    if draw(st.booleans()):
        q = draw(st.integers(2, 10 ** 12))
        alpha = F(draw(st.integers(1, q - 1)), q)
    else:
        end = draw(st.sampled_from((F(2, n + 2), F(1, n), F(1, n + 1))))
        step = F(1, end.denominator * draw(st.integers(2, 10 ** 6)))
        alpha = end + draw(st.sampled_from((-1, 0, 1))) * step
    c = -(-alpha.denominator // alpha.numerator)
    m = draw(st.one_of(st.none(), st.integers(c, c + 3 * n + 3)))
    return n, alpha, m


def test_curve_rows_match_fraction_references():
    """A one-point curve is (alpha, upper, lower, guarantee, upper/lower) as
    the Fraction references in `oracles` compute them, every field a plain
    Fraction.  Rows whose upper value is alpha itself (the top interval,
    where the row reuses alpha and a shared 1) and rows whose upper value is
    not are both reached."""
    reached = Counter()

    @FIXED
    @given(curve_points())
    def check(case):
        n, alpha, m = case
        up, lo = reference_upper(n, alpha, m), reference_lower(n, alpha, m)
        rows = curve_samples(n, [alpha], m)
        assert rows == [(alpha, up, lo, reference_guarantee(n, alpha), up / lo)], case
        assert all(type(x) is Fraction for x in rows[0]), case
        reached["upper is alpha" if up == alpha else "upper is not alpha"] += 1

    check()
    assert len(reached) == 2 and min(reached.values()) >= 50, reached


def test_hill_shares_fit_the_ratio_print_bound():
    """`experiment ratios` prints a row only if max(5, m) times its
    denominator is printable.  That rests on every hill_share(n, p/q, m)
    being u/(c*q) with u <= c*q and an integer c <= max(5, m): checked for
    every reduced p/q with q < 60, n = 2..12 and m from ceil(q/p) to
    ceil(q/p) + 3n + 3, on the piece hill_share reads its value from."""
    for q in range(2, 60):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            c = -(-q // p)
            bad = []
            for n in range(2, 13):
                for m in range(c, c + 3 * n + 4):
                    _, num, den, _, _ = _upper_piece(n, p, q, m)
                    g = gcd(num, den)
                    u, d = num // g, den // g
                    # the least c with d | c*q is d / gcd(d, q)
                    if u > d or d // gcd(d, q) > max(5, m):
                        bad.append((n, m, F(u, d)))
            assert not bad, (F(p, q), bad)  # one assert per alpha: pytest's are slow


@settings(FIXED, max_examples=200)
@given(integer_rows())
def test_ratio_records_fit_the_print_bound(case):
    """On a normalised row with alpha in (0, 1), `instance_ratio`'s hill
    share and ratio have numerator and denominator at most max(5, m) times
    the row's denominator, the bound `experiment ratios` checks."""
    row, n = case
    if not 0 < max(row) < sum(row):
        return  # alpha outside (0, 1): the share layer refuses the row
    v = normalize([row]).profile[0]
    rec = instance_ratio(v, n)
    bound = max(5, v.m) * v.denom
    for x in (rec.hill, rec.ratio):
        assert x.numerator <= bound and x.denominator <= bound, (row, n, x)


@st.composite
def knife_instances(draw):
    """(instance, deal): n = 2..6 normalised rows of m = 1..12 integers up
    to a small top, so ties and zeros are common, one row sometimes all
    zero, and a deal of the m ordered positions among the n agents."""
    n = draw(st.integers(2, 6))
    m = 12 - draw(st.integers(0, 11))
    top = draw(st.sampled_from((1, 2, 3, 5, 9)))
    rows = [draw(st.lists(st.integers(0, top), min_size=m, max_size=m)) for _ in range(n)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [0] * m
    deal = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return normalize(rows), deal


def test_knife_lift_and_reports_match_the_oracles():
    """The knife equals `oracles.naive_knife` on the bundles and on every
    level; the lift equals `oracles.naive_lift` on the knife's allocation
    and on a drawn deal of positions; every report of `allocate` is
    satisfied and equals `agent_reports` on its allocation.  Levels where
    the knife runs out within a cap, and agents whose alpha is 0 (an
    all-zero row or a zero rest), are both reached."""
    reached = Counter()

    @settings(FIXED, max_examples=400)
    @given(knife_instances())
    def check(case):
        inst, deal = case
        red = reduce_to_ordered(inst)
        ordered_alloc, trace = moving_knife(red.ordered)
        ref_bundles, ref_levels = naive_knife([r.values for r in red.ordered.profile])
        assert list(ordered_alloc.bundles) == ref_bundles
        assert [{**dataclasses.asdict(lvl),
                 "renorm_factors": {i: 1 - c for i, c in lvl.bundle_costs.items()}}
                for lvl in trace.levels] == ref_levels
        rows = [r.values for r in inst.profile]
        assert list(lift_allocation(red, ordered_alloc).bundles) == naive_lift(
            rows, ordered_alloc.bundles)
        dealt = tuple([frozenset(p for p, i in enumerate(deal) if i == a)
                       for a in range(inst.n)])
        assert list(lift_allocation(red, Allocation(dealt)).bundles) == naive_lift(rows, dealt)
        alloc, report = allocate(inst)
        assert all(rep.satisfied for rep in report.agents)
        assert report.agents == agent_reports(inst, alloc)
        reached["early exhaustion"] += any(lvl.early_exhaustion for lvl in trace.levels)
        reached["zero alpha"] += any(0 in lvl.alphas.values() for lvl in trace.levels)

    check()
    assert len(reached) == 2 and min(reached.values()) >= 150, reached
