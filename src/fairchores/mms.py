"""Exact MinMaxShare oracle.

The exact min-max n-partition value is computed on the row's stored integers
(`DisutilityVector.ints`, the entries over their least common denominator
`denom`), objects sorted descending, so no `Fraction` sum occurs in a search.

A greedy seed answers the row when it meets the root lower bound, the largest
of three (Dell'Amico & Martello, 1995): the largest object, the average load
`ceil(total/n)`, and the pigeonhole count, by which some bundle holds k+1 of
the kn+1 largest objects.  Otherwise, for every n >= 2, sequential
partitioning (after Schreiber, Korf & Moffitt, 2018) searches: the bundle of
the largest object is enumerated from the subset sums of two halves of the
other objects (Horowitz & Sahni, 1974), heaviest first and within the sums
that could beat the incumbent, and the rest is split into n-1 bundles the
same way, down to two bundles, where the rest is the second bundle.  Above
two bundles, only bundles that no remaining object fits into are split
further (bin completion, Korf 2003), and a rest already proved not to beat
a cutoff is not searched again.  The search stops once the incumbent meets
the bound.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate

from .core import Allocation, DisutilityVector, ValidationError, _printable, as_fraction

F = Fraction
MAX_LEX_OBJECTS = 12  # lex_minmax enumerates every set partition of its objects


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
                floor: int, failed: dict | None = None) -> tuple[int, list[int] | None]:
    """Min-max n-partition, n >= 2, from the incumbent (best, assign); items
    descending.

    Returns an optimum, or the first partition found at or below the larger
    of the lower bound and `floor`.  A caller may pass a `best` below the
    value of `assign` as a cutoff: a returned value of at least `best` then
    says that no partition below it exists, and its assignment is not used.
    Enumerates the bundle that holds items[0] from the half tables of
    items[1:], heaviest key first, keeping its sum within
    [total - (n-1)(best-1), best-1].  At n = 2 the rest is the other bundle;
    above, the rest is split into n-1 bundles by calling itself with that
    sum as the floor, `best` as the cutoff and no incumbent.  The window
    narrows as `best` falls.

    Dominance (bin completion, Korf 2003): at n >= 3 a bundle B of sum
    `load` is skipped when `load + x < best`, x the smallest object outside
    B.  In x's half, B holds the first copies of x's value (the tie rule of
    `_subsets`), so B plus the next copy there is a bundle B' whose key in
    that half table is larger than B's, with a sum below `best` and at least
    B's: both loops reach B' first, inside their windows.  Moving that copy
    into the first bundle turns a partition with first bundle B and every
    bundle below `best` into one with first bundle B'.  Once B' is settled,
    no partition with first bundle B' is below `best`, so none with B is.
    At n = 2 the rest is one bundle, and the check would only cost time.

    Failed rests: a rest can repeat only once two bundles are placed.  The
    sub-calls of one top-level call share `failed`, which maps
    `(bundles, *rest)` to the largest cutoff under which that rest had no
    partition into that many bundles, and skip a rest whose entry is at
    least `best`.  A call given no table starts one for its sub-calls and
    reads none itself, since its own rests are all distinct.
    """
    m = len(items)
    stop = max(_lower_bound(items, n), floor)
    if best <= stop:
        return best, assign
    total = sum(items)
    h = (m + 1) // 2
    left, right = _subsets(items, 1, h), _subsets(items, h, m)
    first = items[0] << m | 1
    table = {} if failed is None else failed
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
            elif load + items[others[-1]] < best:
                continue
            else:
                rest = [items[i] for i in others]
                memo = None if failed is None else (n - 1, *rest)
                if memo is not None and failed.get(memo, 0) >= best:
                    continue
                value, split = _sequential(rest, n - 1, best, None, load, table)
                if memo is not None and value >= best:
                    failed[memo] = best
            value = max(load, value)
            if value < best:
                best, assign = value, [0] * m
                for k, i in enumerate(others):
                    assign[i] = 1 + split[k]
                if best <= stop:
                    return best, assign
    return best, assign


def minmax_partition(
    v: DisutilityVector,
    n: int,
    *,
    max_objects: int = 24,
    max_agents: int = 10,
) -> tuple[Fraction, Allocation]:
    """Exact MinMaxShare value of v for n agents, plus one optimal allocation.

    Zero-disutility objects never affect the optimum; they are stripped before
    the search and appended to the first bundle afterwards.  The greedy seed
    answers when it meets `_lower_bound` (the largest object, the average
    load and the pigeonhole count), whatever the row's size; otherwise
    `_sequential` searches from it down to that bound, and a row over the
    scale guard raises `SearchLimitError` with that root bracket.
    """
    if n < 1:
        raise ValidationError("need n >= 1")
    ints, denom = v.ints, v.denom
    idx = [j for j, x in enumerate(ints) if x > 0]
    zeros = [j for j, x in enumerate(ints) if x == 0]
    idx.sort(key=ints.__getitem__, reverse=True)
    items = [ints[j] for j in idx]
    lower = _lower_bound(items, n)
    opt, assign = _greedy_makespan(items, n)
    if opt != lower:
        if len(idx) > max_objects or n > max_agents:
            # a row built in Python may hold integers too long to print
            bracket = (f"[{F(lower, denom)}, {F(opt, denom)}]"
                       if _printable(max(opt, denom)) else "too long to print")
            raise SearchLimitError(
                f"{len(idx)} nonzero objects / {n} agents exceeds the scale "
                f"guard ({max_objects} objects, {max_agents} agents); raise the "
                f"limits explicitly to search anyway; root bracket {bracket}"
            )
        opt, assign = _sequential(items, n, opt, assign, lower)
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


def lex_minmax(v: DisutilityVector, n: int) -> Allocation:
    """Allocation whose non-increasing bundle-load vector is lexicographically
    minimal; ties among identical sorted vectors go to the smallest canonical
    partition encoding.
    """
    if n < 1:
        raise ValidationError("need n >= 1")
    m = v.m
    if m > MAX_LEX_OBJECTS:
        raise SearchLimitError(f"{m} objects exceeds the enumeration guard {MAX_LEX_OBJECTS}")
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
