"""Guarantee-satisfying allocation for heterogeneous agents.

Pipeline: reduce the instance to an ordered one (every row non-increasing),
run the recursive moving-knife procedure against the monotone guarantee, then
lift the ordered allocation back to the original objects with a picking
sequence.  Every agent ends with disutility at most guarantee(n, alpha_i).
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
    p-th largest disutility.
    """

    ordered: Instance
    permutations: tuple[tuple[int, ...], ...]
    original: Instance


@dataclass(frozen=True)
class KnifeLevel:
    """One knife level; values are raw values over the agent's remaining mass."""

    agents: tuple[int, ...]             # active agents, original indices
    level_n: int
    alphas: dict[int, Fraction]         # value of the first unallocated position
    caps: dict[int, Fraction]           # guarantee(level_n, alpha_i)
    prefix_values: dict[int, Fraction]  # knife-set value at loop exit
    served_agent: int
    prefix_len: int                     # knife length t at loop exit
    removed_position: Optional[int]     # ordered position of the dropped object
    served_value: Fraction              # served agent's value of her bundle
    bundle_costs: dict[int, Fraction]   # unserved agents' C_i = v_i(served bundle);
                                        # each one's mass shrinks by 1 - C_i
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
    ordered_rows = []
    perms = []
    for row in inst.profile:
        o, p = order_vector(row)
        ordered_rows.append(o)
        perms.append(p)
    ordered = Instance(tuple(ordered_rows))
    return OrderedReduction(ordered, tuple(perms), inst)


def moving_knife(ordered: Instance) -> tuple[Allocation, KnifeTrace]:
    """Allocate ordered positions so each agent stays within her guarantee.

    Works level by level on the unallocated suffix [s, m): all agents advance
    a shared prefix knife while anyone is still within her cap; one agent who
    just crossed takes her prefix minus the last object; the rest recurse.
    Rather than renormalise the rest to total 1, each agent keeps her row's
    prefix sums and a remaining mass, shrunk by 1 - C_i per served bundle.
    """
    n, m = ordered.n, ordered.m
    prefix = [list(accumulate(row.values, initial=F(0))) for row in ordered.profile]
    mass = [F(1)] * n

    def value(i: int, a: int, b: int) -> Fraction:
        """Agent i's renormalised value of positions [a, b)."""
        return (prefix[i][b] - prefix[i][a]) / mass[i] if mass[i] else F(0)

    bundles = [frozenset()] * n
    levels: list[KnifeLevel] = []
    active = list(range(n))
    s = 0
    early = False
    while len(active) > 1 and not early:
        n_ = len(active)
        alphas = {i: value(i, s, min(s + 1, m)) for i in active}
        caps = {i: guarantee(n_, alphas[i]) for i in active}
        # the first knife length at which each agent exceeds her cap
        stops = {i: bisect_right(prefix[i], prefix[i][s] + mass[i] * caps[i], s) - s
                 for i in active}
        t = max(stops.values())
        served = next(i for i in active if stops[i] == t)
        early = s + t > m  # someone stays within her cap on the whole suffix
        end = m if early else s + t - 1
        t = min(t, m - s)
        costs = {} if early else {i: value(i, s, end) for i in active if i != served}
        levels.append(KnifeLevel(
            agents=tuple(active), level_n=n_, alphas=alphas, caps=caps,
            prefix_values={i: value(i, s, s + t) for i in active}, served_agent=served,
            prefix_len=t, removed_position=None if early else end,
            served_value=value(served, s, end), bundle_costs=costs, early_exhaustion=early,
        ))
        bundles[served] = frozenset(range(s, end))
        for i, c in costs.items():
            mass[i] *= 1 - c
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
    object index).  When position t is processed only m - t objects are gone,
    so at least one object no costlier than her t-th largest remains; each
    agent's real bundle therefore costs no more than her ordered bundle.
    """
    m = red.ordered.m
    ordered_alloc.validate(m)
    owner = {}
    for i, b in enumerate(ordered_alloc.bundles):
        for pos in b:
            owner[pos] = i
    taken: set[int] = set()
    real: list[set[int]] = [set() for _ in range(ordered_alloc.n)]
    for pos in range(m - 1, -1, -1):
        a = owner[pos]
        row = red.original.profile[a].values
        pick = min((j for j in range(m) if j not in taken), key=lambda j: (row[j], j))
        taken.add(pick)
        real[a].add(pick)
    return Allocation(tuple(frozenset(b) for b in real))


def allocate(inst: Instance) -> tuple[Allocation, AllocationReport]:
    """Full pipeline; the report gives per-agent alpha, cap, cost and flag."""
    red = reduce_to_ordered(inst)
    ordered_alloc, trace = moving_knife(red.ordered)
    real = lift_allocation(red, ordered_alloc)
    reports = []
    for i, row in enumerate(inst.profile):
        alpha, cost = row.alpha(), row.value_of(real.bundles[i])
        cap = guarantee(inst.n, alpha)
        reports.append(AgentReport(i, alpha, cap, cost, cost <= cap))
    return real, AllocationReport(tuple(reports), trace)


def allocate_two_agents_tight(inst: Instance, **limits) -> Allocation:
    """Two-agent procedure meeting the tighter non-monotone share bound.

    The agent with the smaller worst-case share bound computes her exact
    min-max 2-partition; the other takes whichever bundle she likes better.
    """
    if inst.n != 2:
        raise ValidationError("procedure is specific to n = 2")
    alphas = [row.alpha() for row in inst.profile]

    def bound(i: int) -> Fraction:
        if alphas[i] == 0:
            return F(0)
        if alphas[i] == 1:
            return F(1)
        return hill_share(2, alphas[i], inst.m)

    bounds = [bound(0), bound(1)]
    if alphas[0] == 0 and alphas[1] > 0:
        divider = 1
    elif alphas[1] == 0 and alphas[0] > 0:
        divider = 0
    else:
        divider = 0 if bounds[0] <= bounds[1] else 1
    chooser = 1 - divider
    _, parts = minmax_partition(inst.profile[divider], 2, **limits)
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
