"""Exact MinMaxShare oracle.

A depth-first branch-and-bound over descending-sorted objects computes the
exact min-max n-partition value.  All pruning happens on integers: the search
runs on the row's integer view (`DisutilityVector.scaled`, the entries over
their least common denominator), so no `Fraction` sum occurs inside it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .core import Allocation, DisutilityVector, ValidationError

F = Fraction


class SearchLimitError(RuntimeError):
    """Instance exceeds the oracle's scale guard; pass higher limits to override."""


def _greedy_makespan(items: list[int], n: int) -> tuple[int, list[int]]:
    # longest-processing-time seed for the incumbent
    loads = [0] * n
    assign = [0] * len(items)
    for i, w in enumerate(items):
        b = min(range(n), key=loads.__getitem__)
        loads[b] += w
        assign[i] = b
    return max(loads), assign


def _bnb_min_makespan(items: list[int], n: int) -> tuple[int, list[int]]:
    """Exact min over n-partitions of the max bundle sum; items descending."""
    total = sum(items)
    lower = max(items[0] if items else 0, -(-total // n))
    best, best_assign = _greedy_makespan(items, n)
    if best == lower:
        return best, best_assign
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
    ints, denom = v.scaled()
    idx = [j for j, x in enumerate(ints) if x > 0]
    zeros = [j for j, x in enumerate(ints) if x == 0]
    idx.sort(key=ints.__getitem__, reverse=True)
    if len(idx) <= n:
        # one object per bundle; no search runs, so the guard does not apply
        assign = range(len(idx))
        value = v.values[idx[0]] if idx else F(0)
    elif len(idx) > max_objects or n > max_agents:
        raise SearchLimitError(
            f"{len(idx)} nonzero objects / {n} agents exceeds the scale "
            f"guard ({max_objects} objects, {max_agents} agents); raise the "
            "limits explicitly to search anyway"
        )
    else:
        opt, assign = _bnb_min_makespan([ints[j] for j in idx], n)
        value = F(opt, denom)
    bundles = [set() for _ in range(n)]
    for pos, b in enumerate(assign):
        bundles[b].add(idx[pos])
    bundles[0].update(zeros)
    return value, Allocation(tuple(frozenset(b) for b in bundles))


def exact_mms(v: DisutilityVector, n: int, **limits) -> Fraction:
    """min over n-partitions of the max bundle disutility, exactly."""
    return minmax_partition(v, n, **limits)[0]


def fits_under(v: DisutilityVector, n: int, threshold) -> bool:
    """True iff some n-partition keeps every bundle at or below threshold."""
    return exact_mms(v, n) <= Fraction(threshold)


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

    yield from rec(0, 0) if m else iter([()])


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
    ints, _ = v.scaled()
    best_key: Optional[tuple] = None
    best_rgs: Optional[tuple[int, ...]] = None
    for rgs in _growth_strings(m, n):
        loads = [0] * n
        for j, b in enumerate(rgs):
            loads[b] += ints[j]
        key = tuple(sorted(loads, reverse=True))
        if best_key is None or (key, rgs) < (best_key, best_rgs):
            best_key, best_rgs = key, rgs
    bundles = [set() for _ in range(n)]
    for j, b in enumerate(best_rgs or ()):
        bundles[b].add(j)
    return Allocation(tuple(frozenset(b) for b in bundles))
