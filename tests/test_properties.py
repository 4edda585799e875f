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
from fairchores.mms import _greedy_makespan, _lower_bound, minmax_partition

from oracles import bnb_mms

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
