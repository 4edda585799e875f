"""Property-based differential tests, drawn from a fixed seed.

Each property runs on examples that Hypothesis derives from the test's
source (`derandomize=True`, no example database), so two runs of the same
command check the same rows.  Hypothesis also mixes in constants from the
modules a run has loaded, so running one file alone may draw other rows
than the whole suite does.
"""

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fairchores.core import DisutilityVector
from fairchores.experiments import curve_samples
from fairchores.mms import _greedy_makespan, _lower_bound, minmax_partition

from oracles import bnb_mms, reference_guarantee, reference_lower, reference_upper

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
