"""Guarantee-satisfying allocation for heterogeneous agents.

Pipeline: reduce the instance to an ordered one (every row non-increasing),
run the recursive moving-knife procedure against the monotone guarantee, then
lift the ordered allocation back to the original objects with a picking
sequence.  Every agent ends with disutility at most guarantee(n, alpha_i).
The knife never renormalises a row: an agent's remaining mass is a suffix sum
of her integer prefix sums.  Every phase reads a row's stored integers
(`DisutilityVector.ints`), so no row is rescaled; the lift reads only the
reduction, each ordered row and the permutation that sorted it, and walks
each agent's cheapest-first order once, with one cursor.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .core import Allocation, Instance, ValidationError, order_vector
from .mms import minmax_partition
from .shares import guarantee, hill_share

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
class KnifeLevel:
    """One knife level; values are over each agent's remaining mass, her suffix [s, m)."""

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
    prefix[m] - prefix[s], and every value is read over it.
    """
    n, m = ordered.n, ordered.m
    prefix = [list(accumulate(row.ints, initial=0)) for row in ordered.profile]

    def rest(i: int) -> int:
        """Agent i's remaining mass: her row's sum over [s, m)."""
        return prefix[i][m] - prefix[i][s]

    def reach(i: int, cap: Fraction) -> int:
        """floor(prefix[i][s] + rest(i) * cap); an integer prefix sum is at
        most a bound exactly when it is at most the bound's floor."""
        return prefix[i][s] + rest(i) * cap.numerator // cap.denominator

    def value(i: int, end: int) -> Fraction:
        """Agent i's renormalised value of positions [s, end)."""
        r = rest(i)
        return F(prefix[i][end] - prefix[i][s], r) if r else F(0)

    bundles = [frozenset()] * n
    levels: list[KnifeLevel] = []
    active = list(range(n))
    s = 0
    early = False
    while len(active) > 1 and not early:
        n_ = len(active)
        alphas = {i: value(i, min(s + 1, m)) for i in active}
        caps = {i: guarantee(n_, alphas[i]) for i in active}
        # the first knife length at which each agent exceeds her cap
        stops = {i: bisect_right(prefix[i], reach(i, caps[i]), s) - s for i in active}
        t = max(stops.values())
        served = next(i for i in active if stops[i] == t)
        early = s + t > m  # someone stays within her cap on the whole suffix
        end = m if early else s + t - 1
        t = min(t, m - s)
        costs = {} if early else {i: value(i, end) for i in active if i != served}
        levels.append(KnifeLevel(
            agents=tuple(active), level_n=n_, alphas=alphas, caps=caps,
            prefix_values={i: value(i, s + t) for i in active}, served_agent=served,
            prefix_len=t, removed_position=None if early else end,
            served_value=value(served, end), bundle_costs=costs, early_exhaustion=early,
        ))
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
    which lists tied objects by index.  She walks it once with one cursor,
    an iterator over it: the cursor only passes objects already taken, and
    those stay taken.  When position t is processed only m - t objects are
    gone, so at least one object no costlier than her t-th largest remains;
    each agent's real bundle therefore costs no more than her ordered bundle.
    """
    _check_bundle_count(red.ordered, ordered_alloc)
    m = red.ordered.m
    ordered_alloc.validate(m)
    owner = [0] * m
    for i, b in enumerate(ordered_alloc.bundles):
        for pos in b:
            owner[pos] = i
    cursors = [map(perm.__getitem__, sorted(range(m), key=row.ints.__getitem__))
               for row, perm in zip(red.ordered.profile, red.permutations)]
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
    """Full pipeline; the report gives per-agent alpha, cap, cost and flag."""
    red = reduce_to_ordered(inst)
    ordered_alloc, trace = moving_knife(red.ordered)
    real = lift_allocation(red, ordered_alloc)
    return real, AllocationReport(agent_reports(inst, real), trace)


def agent_reports(inst: Instance, alloc: Allocation) -> tuple[AgentReport, ...]:
    """Each agent's alpha, cap guarantee(n, alpha), bundle cost and cost <= cap."""
    _check_bundle_count(inst, alloc)
    reports = []
    for i, row in enumerate(inst.profile):
        alpha, cost = row.alpha(), row.value_of(alloc.bundles[i])
        cap = guarantee(inst.n, alpha)
        reports.append(AgentReport(i, alpha, cap, cost, cost <= cap))
    return tuple(reports)


def _check_bundle_count(inst: Instance, alloc: Allocation) -> None:
    if alloc.n != inst.n:
        raise ValidationError(f"allocation has {alloc.n} bundles for {inst.n} agents")


def allocate_two_agents_tight(inst: Instance) -> Allocation:
    """Two-agent procedure meeting the tighter non-monotone share bound.

    The agent with the smaller worst-case share bound computes her exact
    min-max 2-partition; the other takes whichever bundle she likes better.
    """
    if inst.n != 2:
        raise ValidationError("procedure is specific to n = 2")
    alphas = [row.alpha() for row in inst.profile]

    def bound(i: int) -> Fraction:
        return alphas[i] if alphas[i] in (0, 1) else hill_share(2, alphas[i], inst.m)

    # a zero-row agent divides only when both rows are zero
    divider = min((0, 1), key=lambda i: (alphas[i] == 0, bound(i)))
    chooser = 1 - divider
    _, parts = minmax_partition(inst.profile[divider], 2)
    b0, b1 = parts.bundles
    ch_row = inst.profile[chooser]
    if ch_row.value_of(b0) <= ch_row.value_of(b1):
        chosen, other = b0, b1
    else:
        chosen, other = b1, b0
    bundles = [frozenset(), frozenset()]
    bundles[chooser] = chosen
    bundles[divider] = other
    return Allocation(tuple(bundles))
