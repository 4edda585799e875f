"""Exact MinMaxShare oracle.

The exact min-max n-partition value is computed on the row's stored integers
(`DisutilityVector.ints`, the entries over their least common denominator
`denom`), objects sorted descending, so no `Fraction` sum occurs in a search.

Every row goes to one search, sequential partitioning (after Schreiber, Korf
& Moffitt, 2018), seeded with a greedy partition.  The search stops once its
incumbent meets the root lower bound, the largest of three (Dell'Amico &
Martello, 1995): the largest object, the average load `ceil(total/n)`, and
the pigeonhole count, by which some bundle holds k+1 of the kn+1 largest
objects.  The bound is computed once per row and handed to the search as
its floor.  A seed that meets it, as for n = 1 or an empty row, is
returned at the search's first call, before any frame, table or counter is
made: most witness rows settle there.  Otherwise the bundle of the largest
object is enumerated from the subset sums of two halves of the other
objects (Horowitz & Sahni, 1974), heaviest first and within the sums that
could beat the incumbent, and the rest is split into n-1 bundles the same
way, down to two bundles, where the rest is the second bundle.  Each of
these sub-searches is a generator frame on one explicit stack, so a search
may nest n - 1 deep whatever the interpreter's recursion limit.  A
sub-search stops at the larger of its own average load and its floor, the
load of a bundle already placed.  Above two bundles, only bundles that no
remaining object fits into are split further (bin completion, Korf 2003),
and a rest already proved not to beat a cutoff is not searched again.  Each
half table keeps only the subsets that fit, with the largest object, under
the incumbent at the call's start: no bundle the search may try or skip is
above that line.  The effort budget counts the entries the tables hold.

Each caller gets only what it reads.  `minmax_partition`'s allocation is
lazy (`core._Lazy`): its bundles are decoded from the search's assignment
on their first read, so `exact_mms`, which reads only the value, builds no
bundles.
`fits_under` asks only whether a partition at or below its threshold
exists: the seed or the root bound may answer it, and otherwise the search
stops at the first such partition.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate

from .core import Allocation, DisutilityVector, ValidationError, _printable, as_fraction

F = Fraction
MAX_LEX_OBJECTS = 12  # lex_minmax enumerates every set partition of its objects
MAX_SEARCH_ENTRIES = 2 ** 21  # subset-table entries one minmax_partition search may build


class SearchLimitError(RuntimeError):
    """The exact search would exceed its effort limit: `MAX_SEARCH_ENTRIES`
    subset-table entries for `minmax_partition`, `MAX_LEX_OBJECTS` objects
    for `lex_minmax`."""


def _greedy_makespan(items: list[int], n: int) -> tuple[int, list[int]]:
    # longest-processing-time seed: least-loaded bundle, lowest index on ties;
    # bundle b of load x is the heap entry x*n + b
    heap = list(range(n))
    assign = [0] * len(items)
    for i, w in enumerate(items):
        top = heap[0]
        assign[i] = top % n
        heapq.heapreplace(heap, top + w * n)
    return max(heap) // n, assign


def _lower_bound(items: list[int], n: int) -> int:
    """Lower bound on the min-max n-partition value; items descending.

    The larger of ceil(total/n) and, for every k >= 0 with kn+1 <= m, the
    pigeonhole sum items[kn-k] + ... + items[kn]: some bundle holds k+1 of
    the kn+1 largest objects, so it carries at least the k+1 smallest of
    them.  At k = 0 that sum is the largest object, items[0].
    """
    prefix = list(accumulate(items, initial=0))
    bound = -(-prefix[-1] // n)
    for k in range((len(items) - 1) // n + 1):
        pigeonhole = prefix[k * n + 1] - prefix[k * n - k]
        if pigeonhole > bound:
            bound = pigeonhole
    return bound


def _subsets(items: list[int], lo: int, hi: int, cap: int | None = None,
             room: int | None = None) -> list[int]:
    """Every subset of items[lo:hi] as one key `sum << m | mask`, ascending,
    keeping only the keys below `cap` (all of them when `cap` is None).

    Bit i of the mask marks items[i], m = len(items).  Equal neighbours are
    taken first copy first, so ties add no duplicate multisets.  Keys of
    disjoint subsets add up to the key of their union, so a key at or above
    `cap` has no superset below it, and the table is cut as it is built.

    `room`, when given, is the search's remaining budget, and the table
    never holds more keys than it: `SearchLimitError` is raised before the
    empty subset's key is added if it does not fit, and before each step
    when the most keys the step can leave, the table's keys plus the keys it
    extends, pass it.
    """
    m = len(items)
    if cap is None:
        cap = (sum(items[lo:hi]) + 1) << m
    if room is None:
        room = 1 << (hi - lo)  # the uncut table's length bound: never passed
    if cap > 0 and room < 1:
        raise SearchLimitError
    keys, added = [0] if cap > 0 else [], []
    for i in range(lo, hi):
        source = added if i > lo and items[i] == items[i - 1] else keys
        if len(keys) + len(source) > room:
            raise SearchLimitError
        step = items[i] << m | 1 << i
        below = cap - step
        added = [k + step for k in source if k < below]
        keys += added
    keys.sort()
    return keys


def _sequential(items: list[int], n: int, best: int, assign: list[int] | None,
                floor: int, failed: dict | None = None,
                spent: list[int] | None = None) -> tuple[int, list[int] | None]:
    """Min-max n-partition, n >= 1, from the incumbent (best, assign); items
    descending.

    Returns an optimum, or the first partition found at or below the larger
    of the average load `ceil(total/n)` and `floor`; a call whose incumbent
    is already there returns it untouched.  One at or below `floor` returns
    before it makes a frame, a `failed` table or a `spent` counter, which
    settles every n = 1 or empty row and every seed that meets the root
    bound.  The root passes `_lower_bound` as its floor; a sub-call passes
    the load of the bundle it has placed, which holds a larger object than
    any in the rest, so the floor covers the largest-object term.  A caller
    may pass a `best` below the value of `assign` as a cutoff: a returned
    value of at least `best` then says that no partition below it
    exists, or that `floor` is already at `best`, and its assignment is not
    used.

    The search runs as a stack of `_frame` generators, one per call: a frame
    yields the arguments of a sub-call, the loop pushes a frame for it, and
    the sub-call's result is sent to the frame below once it returns.  So
    a search may nest as deep as it has bundles, whatever the interpreter's
    recursion limit, and its only limit is `MAX_SEARCH_ENTRIES`.  All frames
    of one search share `failed` and `spent`; a call given no table or no
    counter starts its own.
    """
    if best <= floor:
        return best, assign
    failed = {} if failed is None else failed
    spent = [0] if spent is None else spent
    stack, result = [_frame(items, n, best, assign, floor, failed, spent).send], None
    while stack:
        # the top frame either asks for a sub-call, which is pushed, or
        # returns, and its result goes to the frame below
        try:
            stack.append(_frame(*stack[-1](result), failed, spent).send)
            result = None
        except StopIteration as done:
            stack.pop()
            result = done.value
    return result


def _frame(items, n, best, assign, floor, failed, spent):
    """One call of `_sequential`, as a generator that yields each sub-call
    `(rest, n - 1, cutoff, None, floor)` and is sent its result.

    The frame stops at `max(ceil(total/n), floor)`, the contract of
    `_sequential`.  It keeps only the key of its best partition and, above
    two bundles, the sub-call's split, and builds the assignment once, when
    it returns (`_assignment`); a frame that finds nothing better returns
    the `assign` it was given.  No frame starts at or below its stop:
    `_sequential` makes none when `best` is at its floor, which `_root` and
    `fits_under` keep at or above the average, and a sub-call is made only
    for a first bundle in the window below, which keeps both its load and
    the rest's average below `best`.  (A `best` at or below the average
    would meet an empty window and return as given.)

    Enumerates the bundle that holds items[0] from the half tables of
    items[1:], heaviest key first, keeping its sum within
    [total - (n-1)(best-1), best-1].  At n = 2 the rest is the other bundle;
    above, the rest is split into n-1 bundles by a sub-call with that sum as
    the floor, `best` as the cutoff and no incumbent.  The window narrows as
    `best` falls.  Both half tables keep only the keys whose sum is below
    `best - items[0]` as `best` stands at the call's start (the cut): a
    first bundle holds items[0] and stays below `best`, and `best` only
    falls.

    Dominance (bin completion, Korf 2003): at n >= 3 a bundle B of sum
    `load` is skipped when `load + x < best`, x the smallest object outside
    B.  In x's half, B holds the first copies of x's value (the tie rule of
    `_subsets`), so B plus the next copy there is a bundle B' whose key in
    that half table is larger than B's, with a sum below `best` and at least
    B's: both loops reach B' first, inside their windows.  Moving that copy
    into the first bundle turns a partition with first bundle B and every
    bundle below `best` into one with first bundle B'.  Once B' is settled,
    no partition with first bundle B' is below `best`, so none with B is.
    The cut keeps B': its sum is below `best`, so its keys in both halves
    are below the cut.  At n = 2 the rest is one bundle, and the check would
    only cost time.

    Failed rests: `failed` maps `(bundles, *rest)` to the largest cutoff
    under which that rest had no partition into that many bundles; each
    frame skips a rest whose entry is at least `best` and records each rest
    it fails to split.  A rest can repeat only once two bundles are placed,
    so the root frame's own lookups all miss: its rests are distinct
    multisets (the tie rule of `_subsets`), and a sub-call's keys count
    fewer bundles.

    Effort: `spent[0]` counts the subset-table entries that the frames of
    one search have built.  A frame builds its left table within the
    budget's remaining room, `MAX_SEARCH_ENTRIES - spent[0]`, and its right
    table within what the left leaves of it, then adds both lengths; a table
    that would pass its room raises `SearchLimitError` (`_subsets`), so the
    tables of one search never hold more than `MAX_SEARCH_ENTRIES` entries.
    """
    m, total = len(items), sum(items)
    stop = max(-(-total // n), floor)
    h = (m + 1) // 2
    # the window on a + r, the keys of items[1:] in the first bundle:
    # low <= a + r < high compares sums, since disjoint masks add up to
    # less than 1 << m
    high = (best - items[0]) << m
    low = (total - items[0] - (n - 1) * (best - 1)) << m
    room = MAX_SEARCH_ENTRIES - spent[0]
    left = _subsets(items, 1, h, high, room)
    right = _subsets(items, h, m, high, room - len(left))
    spent[0] += len(left) + len(right)
    found = split = None
    for a in reversed(left):
        lo = bisect_left(right, low - a)
        if lo == len(right):
            break
        # most windows are empty: one comparison, not a second bisect
        if a + right[lo] >= high:
            continue
        for j in range(bisect_left(right, high - a) - 1, lo - 1, -1):
            key = a + right[j]
            # best may have fallen to this key's load since the window was
            # taken; a sub-call here would record a rest that may split below
            # best as failed under it
            if key >= high:
                continue
            if key < low:
                break
            load = items[0] + (key >> m)
            key |= 1
            if n == 2:
                value = max(load, total - load)
            else:
                others = [i for i in range(m) if not key >> i & 1]
                # the rest is empty only under a cutoff above the total
                if not others:
                    value, split = load, []
                elif load + items[others[-1]] < best:
                    continue
                else:
                    rest = [items[i] for i in others]
                    memo = (n - 1, *rest)
                    if failed.get(memo, 0) >= best:
                        continue
                    value, split = yield rest, n - 1, best, None, load
                    if value >= best:
                        failed[memo] = best
                    value = max(load, value)
            if value < best:
                best, found = value, (key, split)
                if best <= stop:
                    return best, _assignment(m, *found)
                high = (best - items[0]) << m
                low = (total - items[0] - (n - 1) * (best - 1)) << m
    return best, assign if found is None else _assignment(m, *found)


def _assignment(m: int, key: int, split: list[int] | None) -> list[int]:
    """The bundle of each of m objects in a frame's best partition: the
    objects in `key`'s mask go to bundle 0, the others to bundle 1 (`split`
    None, n = 2) or to 1 plus their bundle in the sub-call's `split`."""
    assign = [0] * m
    others = [i for i in range(m) if not key >> i & 1]
    for k, i in enumerate(others):
        assign[i] = 1 + split[k] if split else 1
    return assign


def _root(v: DisutilityVector, n: int, search):
    """`search(items, n, seed, assign, lower)` on v's nonzero integers,
    descending, with the greedy seed's value and assignment and the root
    bound `_lower_bound`; its result, or the one refusal text.

    Zero-disutility objects never affect the optimum, so they are cut before
    the search.  The seed runs over at most one bundle per nonzero object:
    at n at or above their count the greedy puts each object alone in a
    bundle either way, so the seed is the largest object, which the root
    bound meets, and the search returns at once however large n is.  A
    search that would build more than `MAX_SEARCH_ENTRIES` subset-table
    entries, its sub-calls included, raises `SearchLimitError` with the root
    bracket [lower, seed].
    """
    if n < 1:
        raise ValidationError("need n >= 1")
    ints = v.ints
    items = sorted(ints, reverse=True)
    del items[len(ints) - ints.count(0):]
    seed, assign = _greedy_makespan(items, n if n <= len(items) else len(items) or 1)
    lower = _lower_bound(items, n)
    try:
        return search(items, n, seed, assign, lower)
    except SearchLimitError:
        # raised below, outside this block, so that the refusal carries no
        # context whose traceback would keep the search's tables alive
        pass
    # a row built in Python may hold integers too long to print
    denom = v.denom
    bracket = (f"[{F(lower, denom)}, {F(seed, denom)}]"
               if _printable(max(seed, denom)) else "too long to print")
    raise SearchLimitError(
        f"{len(items)} nonzero objects / {n} agents: the search needs more than "
        f"{MAX_SEARCH_ENTRIES} subset-table entries; root bracket {bracket}")


def _bundles(ints: tuple[int, ...], n: int, assign: list[int]) -> dict:
    """The field ``bundles`` of the search's assignment: the objects in the
    search's order (descending, ties by index), the nonzero ones to their
    bundles in `assign` and the zeros to the first bundle."""
    order = sorted(range(len(ints)), key=ints.__getitem__, reverse=True)
    cut = len(ints) - ints.count(0)
    bundles = [set() for _ in range(n)]
    for pos, b in enumerate(assign):
        bundles[b].add(order[pos])
    bundles[0].update(order[cut:])
    return {"bundles": tuple([frozenset(b) for b in bundles])}


def minmax_partition(v: DisutilityVector, n: int) -> tuple[Fraction, Allocation]:
    """Exact MinMaxShare value of v for n agents, plus one optimal allocation.

    Zero-disutility objects go to the first bundle.  `_sequential` searches
    from the greedy seed down to `_lower_bound` (the largest object, the
    average load and the pigeonhole count), computed once and passed as the
    floor; a seed that meets the bound is returned at its first call,
    whatever the row's size.  A sub-call fixes one bundle, so a search may
    nest n - 1 calls deep; they run on an explicit stack, so that depth is
    no limit.  The refusal is `_root`'s.

    The allocation is lazy (`core._Lazy`): its bundles are decoded from the
    search's assignment by `_bundles` on their first read, so a caller that
    reads only the value, as `exact_mms` does, builds no bundles.
    """
    opt, assign = _root(v, n, _sequential)
    return F(opt, v.denom), Allocation._lazy({}, _bundles, v.ints, n, assign)


def exact_mms(v: DisutilityVector, n: int) -> Fraction:
    """min over n-partitions of the max bundle disutility, exactly.

    The value of `minmax_partition`; its allocation is never read, so never
    built."""
    return minmax_partition(v, n)[0]


def fits_under(v: DisutilityVector, n: int, threshold) -> bool:
    """True iff some n-partition keeps every bundle at or below threshold.

    A decision search on the row's integers, where the threshold is `cap`,
    the largest numerator over `denom` at or below it.  The answer is True
    when the greedy seed is at or below cap and False when the root bound is
    above it; otherwise `_sequential` searches with cap + 1 as its cutoff
    and cap as its floor (the root bound is at or below it), and stops at
    the first partition at or below cap.  It refuses as `minmax_partition`
    does.
    """
    def decide(items, n, seed, assign, lower):
        t = as_fraction(threshold)
        cap = t.numerator * v.denom // t.denominator
        if seed <= cap:
            return True
        if lower > cap:
            return False
        return _sequential(items, n, cap + 1, None, cap)[0] <= cap

    return _root(v, n, decide)


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
