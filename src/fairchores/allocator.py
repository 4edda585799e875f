"""Guarantee-satisfying allocation for heterogeneous agents.

Pipeline: reduce the instance to an ordered one (every row non-increasing),
run the recursive moving-knife procedure against the monotone guarantee, then
lift the ordered allocation back to the original objects with a picking
sequence.  Every agent ends with disutility at most guarantee(n, alpha_i).
Every row must be normalised or all zero, as `normalize` leaves it.
The knife never renormalises a row: an agent's remaining mass is a suffix sum
of her integer prefix sums, and her cap and stop at each level are read on
integers from the guarantee's piece (`shares._guarantee_piece`).  Every phase
reads a row's stored integers (`DisutilityVector.ints`), so no row is
rescaled; the lift reads only the reduction, each ordered row and the
permutation that sorted it, and walks the cheapest-first order of each agent
who holds a position once, with one cursor.  The reports read each agent's
alpha and cap from her row's largest integer and denominator, the cap from
the same piece, so `allocate` reads nothing of the knife's trace.  The
trace keeps integers: each level is lazy (`core._Lazy`), its alphas, caps
and values built as Fractions on the first read, so `allocate`, which reads
none of them, builds none.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .core import Allocation, Instance, ValidationError, _Lazy, order_vector
from .mms import minmax_partition
from .shares import _guarantee_piece, hill_share

F = Fraction


@dataclass(frozen=True)
class OrderedReduction:
    """Per-agent independently sorted instance plus the sorting permutations.

    ``permutations[i][p]`` is the original object index holding agent i's
    p-th largest disutility; tied values sit in adjacent positions, their
    original indices ascending.
    """

    ordered: Instance
    permutations: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class KnifeLevel(_Lazy):
    """One knife level; values are over each agent's remaining mass, her suffix [s, m).

    A level that `moving_knife` builds is lazy (`_Lazy`): it keeps only
    integers per active agent, and ``alphas``, ``caps``, ``prefix_values``,
    ``served_value`` and ``bundle_costs`` are built as Fractions on the
    first read of any of them (`_level_fields`).
    """

    agents: tuple[int, ...]             # active agents, original indices
    level_n: int
    alphas: dict[int, Fraction]         # value of the first unallocated position
    caps: dict[int, Fraction]           # guarantee(level_n, alpha_i)
    prefix_values: dict[int, Fraction]  # knife-set value at loop exit
    served_agent: int
    prefix_len: int                     # knife length t at loop exit
    removed_position: Optional[int]     # ordered position of the dropped object
    served_value: Fraction              # served agent's value of her bundle
    bundle_costs: dict[int, Fraction]   # unserved agents' C_i = v_i(served bundle)
    early_exhaustion: bool              # the knife reached the end within a cap


def _level_fields(agents: tuple[int, ...], served_agent: int, early_exhaustion: bool,
                  ints: list[tuple[int, int, int, int, int, int]]) -> dict:
    """A knife-built level's five Fraction fields, read from ``ints``: per
    agent of ``agents``, (x, r, cn, cd, knife-set numerator, bundle
    numerator), every value being a numerator over r."""
    alphas, caps, prefix_values, costs = {}, {}, {}, {}
    for i, (x, r, cn, cd, k, b) in zip(agents, ints):
        alphas[i], caps[i], prefix_values[i] = _over(x, r), F(cn, cd), _over(k, r)
        if i == served_agent:
            served_value = _over(b, r)
        elif not early_exhaustion:
            costs[i] = _over(b, r)
    return {"alphas": alphas, "caps": caps, "prefix_values": prefix_values,
            "served_value": served_value, "bundle_costs": costs}


def _over(a: int, r: int) -> Fraction:
    """a/r, an agent's value over her remaining mass r; 0 when r = 0."""
    return F(a, r) if r else F(0)


@dataclass(frozen=True)
class KnifeTrace:
    levels: tuple[KnifeLevel, ...]


@dataclass(frozen=True)
class AgentReport:
    agent: int
    alpha: Fraction
    cap: Fraction
    cost: Fraction
    satisfied: bool


@dataclass(frozen=True)
class AllocationReport:
    agents: tuple[AgentReport, ...]
    trace: KnifeTrace


def reduce_to_ordered(inst: Instance) -> OrderedReduction:
    # unpacked from a list, not an iterator: see core.DisutilityVector.__init__
    ordered_rows, perms = zip(*[order_vector(v) for v in inst.profile])
    return OrderedReduction(Instance(ordered_rows), perms)


def moving_knife(ordered: Instance) -> tuple[Allocation, KnifeTrace]:
    """Allocate ordered positions so each agent stays within her guarantee.

    Works level by level on the unallocated suffix [s, m): all agents advance
    a shared prefix knife while anyone is still within her cap; one agent who
    just crossed takes her prefix minus the last object; the rest recurse.
    Rather than renormalise the rest to total 1, each agent keeps her row's
    integer prefix sums; her remaining mass is the suffix sum
    r = prefix[m] - prefix[s], and every value is read over it.  Her alpha
    is x/r, x her first remaining position's value, and her cap
    guarantee(level_n, x/r) is read as (cn, cd) from the guarantee's piece
    on the unreduced pair (x, r), which it is homogeneous in; x = 0 (on an
    ordered row, a zero rest) gives alpha 0 and, from the piece, cap
    1/level_n.  She stops at the first knife length whose prefix sum passes
    prefix[s] + floor(r*cn/cd).  Each level of the trace keeps these
    integers, x, r, (cn, cd) and the numerators of the knife set and of the
    served bundle, per active agent; its alphas, caps and values become
    Fractions on the first read (`core._Lazy`, `_level_fields`).
    """
    n, m = ordered.n, ordered.m
    prefix = [list(accumulate(row.ints, initial=0)) for row in ordered.profile]
    bundles = [frozenset()] * n
    levels: list[KnifeLevel] = []
    active = list(range(n))
    s = 0
    early = False
    while len(active) > 1 and not early:
        n_ = len(active)
        first = min(s + 1, m)
        reads, stops = [], []
        for i in active:
            row = prefix[i]
            base = row[s]
            r = row[m] - base  # remaining mass: the row's sum over [s, m)
            x = row[first] - base  # the first position's value, over r
            # guarantee(n_, x/r), read on the unreduced pair: the piece is
            # homogeneous in it
            cn, cd = _guarantee_piece(n_, x, r)
            reads.append((x, r, cn, cd))
            # the first knife length at which agent i exceeds her cap
            stops.append(bisect_right(row, base + r * cn // cd, s) - s)
        t = max(stops)
        served = active[stops.index(t)]
        early = s + t > m  # someone stays within her cap on the whole suffix
        end = m if early else s + t - 1
        t = min(t, m - s)
        ints = [(*read, prefix[i][s + t] - prefix[i][s], prefix[i][end] - prefix[i][s])
                for i, read in zip(active, reads)]
        agents = tuple(active)
        levels.append(KnifeLevel._lazy(
            {"agents": agents, "level_n": n_, "served_agent": served, "prefix_len": t,
             "removed_position": None if early else end, "early_exhaustion": early},
            _level_fields, agents, served, early, ints))
        bundles[served] = frozenset(range(s, end))
        active.remove(served)
        s = end
    bundles[active[0]] = frozenset(range(s, m))

    alloc = Allocation(tuple(bundles))
    alloc.validate(m)
    return alloc, KnifeTrace(tuple(levels))


def lift_allocation(red: OrderedReduction, ordered_alloc: Allocation) -> Allocation:
    """Picking-sequence lift of an ordered-position allocation.

    Positions are processed from last (cheapest) to first; the holder of the
    position picks her cheapest not-yet-taken original object (tie: lowest
    object index).  Each agent's cheapest-first order is her ordered row's
    positions, stably sorted ascending and mapped through her permutation,
    which lists tied objects by index.  An agent who holds a position walks
    it once with one cursor, an iterator over it: the cursor only passes
    objects already taken, and those stay taken.  An agent who holds none
    never picks, and her order is never sorted.  When position t is
    processed only m - t objects are gone, so at least one object no
    costlier than her t-th largest remains; each agent's real bundle
    therefore costs no more than her ordered bundle.
    """
    _check_bundle_count(red.ordered, ordered_alloc)
    m = red.ordered.m
    ordered_alloc.validate(m)
    owner = [0] * m
    for i, b in enumerate(ordered_alloc.bundles):
        for pos in b:
            owner[pos] = i
    cursors = [map(perm.__getitem__, sorted(range(m), key=row.ints.__getitem__)) if b else None
               for row, perm, b in zip(red.ordered.profile, red.permutations,
                                       ordered_alloc.bundles)]
    taken = [False] * m
    real: list[list[int]] = [[] for _ in range(ordered_alloc.n)]
    for pos in range(m - 1, -1, -1):
        a = owner[pos]
        cursor = cursors[a]
        pick = next(cursor)
        while taken[pick]:
            pick = next(cursor)
        taken[pick] = True
        real[a].append(pick)
    return Allocation(tuple([frozenset(b) for b in real]))


def allocate(inst: Instance) -> tuple[Allocation, AllocationReport]:
    """Full pipeline; the report gives per-agent alpha, cap, cost and flag.

    Every row must be normalised or all zero (as `normalize` leaves it);
    any other row is a ValidationError naming its agent, raised before any
    phase runs.  Each agent's largest entry is her ordered row's first, so
    the reports read it there, as `agent_reports` does on her row.
    """
    _check_rows(inst)
    red = reduce_to_ordered(inst)
    ordered_alloc, trace = moving_knife(red.ordered)
    real = lift_allocation(red, ordered_alloc)
    largest = [row.ints[0] if row.ints else 0 for row in red.ordered.profile]
    return real, AllocationReport(_reports(inst, real, largest), trace)


def agent_reports(inst: Instance, alloc: Allocation) -> tuple[AgentReport, ...]:
    """Each agent's alpha, cap guarantee(n, alpha), bundle cost and cost <= cap.

    The rows must be normalised or all zero, as for `allocate`, and the
    allocation a partition of the objects into n bundles; on `allocate`'s
    allocation it gives `allocate`'s reports.
    """
    _check_rows(inst)
    _check_bundle_count(inst, alloc)
    alloc.validate(inst.m)
    return _reports(inst, alloc, [max(row.ints, default=0) for row in inst.profile])


def _reports(inst: Instance, alloc: Allocation, largest) -> tuple[AgentReport, ...]:
    """Agent i's report, ``largest[i]`` being her row's largest integer: her
    alpha is it over the row's denominator and her cap guarantee(n, alpha),
    both read on these integers."""
    reports = []
    for i, (row, x) in enumerate(zip(inst.profile, largest)):
        cost, cap = row.value_of(alloc.bundles[i]), F(*_guarantee_piece(inst.n, x, row.denom))
        reports.append(AgentReport(i, F(x, row.denom), cap, cost, cost <= cap))
    return tuple(reports)


def _check_rows(inst: Instance) -> None:
    for i, row in enumerate(inst.profile):
        if not row.normalized and any(row.ints):
            raise ValidationError(f"agent {i}: row is neither normalised nor all zero")


def _check_bundle_count(inst: Instance, alloc: Allocation) -> None:
    if alloc.n != inst.n:
        raise ValidationError(f"allocation has {alloc.n} bundles for {inst.n} agents")


def allocate_two_agents_tight(inst: Instance) -> Allocation:
    """Two-agent procedure meeting the tighter non-monotone share bound.

    The agent with the smaller worst-case share bound computes her exact
    min-max 2-partition; the other takes whichever bundle she likes better.
    Every row must be normalised or all zero, as for `allocate`.
    """
    if inst.n != 2:
        raise ValidationError("procedure is specific to n = 2")
    _check_rows(inst)
    alphas = [row.alpha() for row in inst.profile]

    def bound(i: int) -> Fraction:
        return alphas[i] if alphas[i] in (0, 1) else hill_share(2, alphas[i], inst.m)

    # a zero-row agent divides only when both rows are zero
    divider = min((0, 1), key=lambda i: (alphas[i] == 0, bound(i)))
    chooser = 1 - divider
    _, parts = minmax_partition(inst.profile[divider], 2)
    # a stable sort: on a tie the chooser keeps the first bundle
    chosen, other = sorted(parts.bundles, key=inst.profile[chooser].value_of)
    return Allocation((chosen, other) if chooser == 0 else (other, chosen))
