"""Every normalised row on the lattice 1/D, D <= 26, against an independent
oracle and both share bounds: D <= 20 in one test, D = 21..26 in another.

MinMaxShare does not change when objects are permuted or zeros are added,
so the rows with entries in multiples of 1/D are the integer partitions of
D, padded with zeros.  Each row's value is read from `minmax_partition` and
checked against `oracles.lattice_mms`, a dynamic program that shares no
code with the package's search.  A cell (n, p, m), with ceil(D/p) <= m <= D,
holds every partition with largest part p and at most m parts: over it the
worst value must be at most `hill_share(n, p/D, m)` and the best at least
`mms_lower_bound(n, p/D, m)`.
"""

from fractions import Fraction

import pytest

from fairchores.core import DisutilityVector
from fairchores.mms import minmax_partition
from fairchores.shares import hill_share, mms_lower_bound

from oracles import lattice_mms

F = Fraction
MAX_DENOMINATOR = 20
WIDER_DENOMINATOR = 26


def partitions(total, largest):
    """The partitions of `total` with parts at most `largest`, each a
    descending tuple."""
    if total == 0:
        yield ()
        return
    for p in range(min(total, largest), 0, -1):
        for rest in partitions(total - p, p):
            yield (p, *rest)


def check_lattice(n, denominators):
    """Check every lattice row and cell for the given denominators at n
    agents; returns the numbers of rows and cells checked."""
    rows = cells = 0
    for d in denominators:
        values = {}  # largest part -> [(part count, value times d)]
        for parts in partitions(d, d - 1):
            v = DisutilityVector(tuple(F(x, d) for x in parts))
            value, alloc = minmax_partition(v, n)
            exact = lattice_mms(parts, n)
            assert value == F(exact, d), (parts, n)
            assert max(sum(parts[j] for j in b) for b in alloc.bundles) == exact, (parts, n)
            values.setdefault(parts[0], []).append((len(parts), exact))
            rows += 1
        for p, found in values.items():
            alpha = F(p, d)
            for m in range(-(-d // p), d + 1):
                cell = [exact for count, exact in found if count <= m]
                assert F(max(cell), d) <= hill_share(n, alpha, m), (n, d, p, m)
                assert F(min(cell), d) >= mms_lower_bound(n, alpha, m), (n, d, p, m)
                cells += 1
    return rows, cells


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_lattice_rows_meet_the_oracle_and_both_bounds(n):
    # the partitions of 2..20 with largest part below the whole, and their
    # cells
    assert check_lattice(n, range(2, MAX_DENOMINATOR + 1)) == (2693, 2126)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_wider_lattice_rows_meet_the_oracle_and_both_bounds(n):
    # the partitions of 21..26 with largest part below the whole, and their
    # cells; the DP's early exit keeps this range within about 2 s
    assert check_lattice(n, range(MAX_DENOMINATOR + 1, WIDER_DENOMINATOR + 1)) == (9012, 2733)
