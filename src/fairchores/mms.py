"""Exact MinMaxShare oracle.

The exact min-max n-partition value is computed on the row's stored integers
(`DisutilityVector.ints`, the entries over their least common denominator
`denom`), objects sorted descending, so no `Fraction` sum occurs in a search.

A greedy seed answers the row when it meets the root lower bound, the largest
of three (Dell'Amico & Martello, 1995): the largest object, the average load
`ceil(total/n)`, and the pigeonhole count, by which some bundle holds k+1 of
the kn+1 largest objects.  Otherwise the path depends on n:

- n = 2, 3 and 4: sequential partitioning (after Schreiber, Korf &
  Moffitt, 2018): the bundle of the largest object is enumerated from the
  subset sums of two halves of the other objects (Horowitz & Sahni, 1974),
  heaviest first and within the sums that could beat the incumbent, and the
  rest is split into n-1 bundles the same way, down to two bundles, where
  the rest is the second bundle; it stops once the incumbent meets the bound;
- n >= 5: a depth-first branch and bound, stopping at the same bound.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate

from .core import Allocation, DisutilityVector, ValidationError, as_fraction

F = Fraction


class SearchLimitError(RuntimeError):
    """Instance exceeds the oracle's scale guard; pass higher limits to override."""


def _greedy_makespan(items: list[int], n: int) -> tuple[int, list[int]]:
    # longest-processing-time seed: least-loaded bundle, lowest index on ties
    heap = [(0, b) for b in range(n)]
    assign = [0] * len(items)
    for i, w in enumerate(items):
        load, b = heap[0]
        heapq.heapreplace(heap, (load + w, b))
        assign[i] = b
    return max(heap)[0], assign


def _lower_bound(items: list[int], n: int) -> int:
    """Lower bound on the min-max n-partition value; items descending.

    The larger of ceil(total/n) and, for every k >= 0 with kn+1 <= m, the
    pigeonhole sum items[kn-k] + ... + items[kn]: some bundle holds k+1 of
    the kn+1 largest objects, so it carries at least the k+1 smallest of
    them.  At k = 0 that sum is the largest object, items[0].
    """
    prefix = list(accumulate(items, initial=0))
    pigeonhole = (prefix[k * n + 1] - prefix[k * n - k]
                  for k in range((len(items) - 1) // n + 1))
    return max(-(-prefix[-1] // n), max(pigeonhole, default=0))


def _subsets(items: list[int], lo: int, hi: int) -> list[int]:
    """Every subset of items[lo:hi] as one key `sum << m | mask`, ascending.

    Bit i of the mask marks items[i], m = len(items).  Equal neighbours are
    taken first copy first, so ties add no duplicate multisets.  Keys of
    disjoint subsets add up to the key of their union.
    """
    m = len(items)
    keys, added = [0], []
    for i in range(lo, hi):
        step = items[i] << m | 1 << i
        added = [k + step for k in (added if i > lo and items[i] == items[i - 1] else keys)]
        keys += added
    keys.sort()
    return keys


def _sequential(items: list[int], n: int, best: int, assign: list[int] | None,
                floor: int) -> tuple[int, list[int] | None]:
    """Min-max n-partition, n >= 2, from the incumbent (best, assign); items
    descending.

    Returns an optimum, or the first partition found at or below the larger
    of the lower bound and `floor`.  A caller may pass a `best` below the
    value of `assign` as a cutoff: a returned value of at least `best` then
    says that no partition below it exists, and its assignment is not used.
    Enumerates the bundle that holds items[0] from the half tables of
    items[1:], heaviest first, keeping its sum within
    [total - (n-1)(best-1), best-1].  At n = 2 the rest is the other bundle;
    above, the rest is split into n-1 bundles by calling itself with that
    sum as the floor, `best` as the cutoff and no incumbent.  The window
    narrows as `best` falls.
    """
    m = len(items)
    stop = max(_lower_bound(items, n), floor)
    if best <= stop:
        return best, assign
    total = sum(items)
    h = (m + 1) // 2
    left, right = _subsets(items, 1, h), _subsets(items, h, m)
    first = items[0] << m | 1
    for a in reversed(left):
        start = items[0] + (a >> m)
        if start >= best:
            continue
        lo = bisect_left(right, (total - (n - 1) * (best - 1) - start) << m)
        if lo == len(right):
            break
        for j in range(bisect_left(right, (best - start) << m) - 1, lo - 1, -1):
            key = a + right[j] + first
            load = key >> m
            # best may have fallen since the window was taken
            if load >= best:
                continue
            if total - load > (n - 1) * (best - 1):
                break
            others = [i for i in range(m) if not key >> i & 1]
            # the rest is empty only under a cutoff above the total
            if n == 2 or not others:
                value, split = total - load, [0] * len(others)
            else:
                value, split = _sequential([items[i] for i in others], n - 1,
                                           best, None, load)
            value = max(load, value)
            if value < best:
                best, assign = value, [0] * m
                for k, i in enumerate(others):
                    assign[i] = 1 + split[k]
                if best <= stop:
                    return best, assign
    return best, assign


def _bnb_min_makespan(items: list[int], n: int) -> tuple[int, list[int]]:
    """Exact min over n-partitions of the max bundle sum; items descending.

    The search returns once the incumbent meets `_lower_bound` (the largest
    object, the average load and the pigeonhole count).  Two to four
    bundles are solved by sequential partitioning on subset-sum tables
    (`_sequential`); more run a depth-first branch and bound, which replaces
    the incumbent only on a strict improvement, so a stronger bound ends the
    proof of optimality sooner without changing the value or allocation.
    """
    lower = _lower_bound(items, n)
    best, best_assign = _greedy_makespan(items, n)
    if best == lower:
        return best, best_assign
    if n <= 4:
        return _sequential(items, n, best, best_assign, lower)
    m = len(items)
    loads = [0] * n
    assign = [0] * m

    def recurse(i: int, cur_max: int, min_bundle: int) -> bool:
        nonlocal best, best_assign
        if cur_max >= best:
            return False
        if i == m:
            best, best_assign = cur_max, assign.copy()
            return best == lower
        w = items[i]
        tried: set[int] = set()
        # identical objects are forced into non-decreasing bundle order
        start = min_bundle if i > 0 and items[i - 1] == w else 0
        for b in range(start, n):
            if loads[b] in tried:
                continue
            tried.add(loads[b])
            loads[b] += w
            assign[i] = b
            done = recurse(i + 1, max(cur_max, loads[b]), b)
            loads[b] -= w
            if done:
                return True
        return False

    recurse(0, 0, 0)
    return best, best_assign


def minmax_partition(
    v: DisutilityVector,
    n: int,
    *,
    max_objects: int = 24,
    max_agents: int = 10,
) -> tuple[Fraction, Allocation]:
    """Exact MinMaxShare value of v for n agents, plus one optimal allocation.

    Zero-disutility objects never affect the optimum; they are stripped before
    the search and appended to the first bundle afterwards.
    """
    if n < 1:
        raise ValidationError("need n >= 1")
    ints, denom = v.ints, v.denom
    idx = [j for j, x in enumerate(ints) if x > 0]
    zeros = [j for j, x in enumerate(ints) if x == 0]
    idx.sort(key=ints.__getitem__, reverse=True)
    # at most n nonzero objects need no search: the greedy seed puts one per
    # bundle and meets the lower bound, so the guard applies only above n
    if len(idx) > n and (len(idx) > max_objects or n > max_agents):
        raise SearchLimitError(
            f"{len(idx)} nonzero objects / {n} agents exceeds the scale "
            f"guard ({max_objects} objects, {max_agents} agents); raise the "
            "limits explicitly to search anyway"
        )
    opt, assign = _bnb_min_makespan([ints[j] for j in idx], n)
    bundles = [set() for _ in range(n)]
    for pos, b in enumerate(assign):
        bundles[b].add(idx[pos])
    bundles[0].update(zeros)
    return F(opt, denom), Allocation(tuple([frozenset(b) for b in bundles]))


def exact_mms(v: DisutilityVector, n: int, **limits) -> Fraction:
    """min over n-partitions of the max bundle disutility, exactly."""
    return minmax_partition(v, n, **limits)[0]


def fits_under(v: DisutilityVector, n: int, threshold) -> bool:
    """True iff some n-partition keeps every bundle at or below threshold."""
    return exact_mms(v, n) <= as_fraction(threshold)


def _growth_strings(m: int, n: int):
    # canonical set-partition encodings into at most n blocks
    a = [0] * m

    def rec(i: int, blocks: int):
        if i == m:
            yield tuple(a)
            return
        limit = min(blocks + 1, n)
        for b in range(limit):
            a[i] = b
            yield from rec(i + 1, max(blocks, b + 1))

    yield from rec(0, 0)


def lex_minmax(v: DisutilityVector, n: int, *, max_objects: int = 12) -> Allocation:
    """Allocation whose non-increasing bundle-load vector is lexicographically
    minimal; ties among identical sorted vectors go to the smallest canonical
    partition encoding.
    """
    if n < 1:
        raise ValidationError("need n >= 1")
    m = v.m
    if m > max_objects:
        raise SearchLimitError(f"{m} objects exceeds the enumeration guard {max_objects}")
    ints = v.ints

    def sorted_loads(rgs: tuple[int, ...]) -> list[int]:
        loads = [0] * n
        for j, b in enumerate(rgs):
            loads[b] += ints[j]
        return sorted(loads, reverse=True)

    # encodings come in lexicographic order and min keeps the first minimum
    best_rgs = min(_growth_strings(m, n), key=sorted_loads)
    bundles = [set() for _ in range(n)]
    for j, b in enumerate(best_rgs):
        bundles[b].add(j)
    return Allocation(tuple([frozenset(b) for b in bundles]))
