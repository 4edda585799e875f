import dataclasses
import random
from fractions import Fraction

import pytest

from fairchores.allocator import (
    AgentReport,
    allocate,
    allocate_two_agents_tight,
    lift_allocation,
    moving_knife,
    reduce_to_ordered,
)
from fairchores.core import (
    Allocation,
    DisutilityVector,
    Instance,
    ValidationError,
    classify_guarantee,
    normalize,
)
from fairchores.mms import exact_mms
from fairchores.shares import guarantee, hill_share

from oracles import naive_knife
from test_acceptance import _many_zeros_rows, _powerlaw_rows, _uniform_rows

F = Fraction


def inst_from_rows(*rows):
    return normalize(list(rows))


class TestReduceToOrdered:
    def test_sorts_rows(self):
        inst = inst_from_rows(["1/10", "2/5", "1/2"])
        red = reduce_to_ordered(inst)
        assert red.ordered.profile[0].values == (F(1, 2), F(2, 5), F(1, 10))
        assert red.permutations[0] == (2, 1, 0)

    def test_identity_on_ordered(self):
        inst = inst_from_rows(["1/2", "3/10", "1/5"])
        red = reduce_to_ordered(inst)
        assert red.permutations[0] == (0, 1, 2)
        assert red.ordered.profile == inst.profile

    def test_rows_sorted_independently(self):
        inst = inst_from_rows(["1/10", "2/5", "1/2"], ["1/2", "3/10", "1/5"])
        red = reduce_to_ordered(inst)
        assert red.permutations[0] == (2, 1, 0)
        assert red.permutations[1] == (0, 1, 2)
        # applying the permutation reproduces the original row
        for i in range(2):
            rebuilt = [None] * 3
            for pos, j in enumerate(red.permutations[i]):
                rebuilt[j] = red.ordered.profile[i].values[pos]
            assert tuple(rebuilt) == inst.profile[i].values

    def test_alpha_unchanged(self):
        inst = inst_from_rows([1, 5, 2, 2])
        red = reduce_to_ordered(inst)
        assert red.ordered.profile[0].alpha() == inst.profile[0].alpha()


class TestMovingKnife:
    def test_hand_trace_two_identical_agents(self):
        row = ["3/10", "1/4", "1/4", "1/5"]
        inst = inst_from_rows(row, row)
        alloc, trace = moving_knife(inst)
        assert alloc.bundles[0] == frozenset({0, 1})
        assert alloc.bundles[1] == frozenset({2, 3})
        lvl = trace.levels[0]
        assert lvl.served_agent == 0
        assert lvl.prefix_len == 3
        assert lvl.served_value == F(11, 20)
        assert lvl.caps[0] == F(3, 5)
        assert lvl.bundle_costs[1] == F(11, 20)

    def test_single_agent(self):
        inst = inst_from_rows(["1/2", "1/2"])
        alloc, trace = moving_knife(inst)
        assert alloc.bundles == (frozenset({0, 1}),)
        assert trace.levels == ()

    def test_early_exhaustion(self):
        # agent 2's row is all zeros after normalization: her guarantee is
        # never exceeded, so once agent 1 is served the remainder goes to her
        inst = Instance(
            (DisutilityVector((F(1, 2), F(1, 4), F(1, 4)), True),
             DisutilityVector((F(0), F(0), F(0)), False)),
        )
        alloc, trace = moving_knife(inst)
        alloc.validate(3)
        for i in range(2):
            cost = inst.profile[i].value_of(alloc.bundles[i])
            assert cost <= guarantee(2, inst.profile[i].alpha())

    def test_whole_remainder_when_agent_satisfied_by_everything(self):
        # both agents value everything at <= V_2(alpha): knives hit the pool end
        inst = inst_from_rows([1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
                              [1, 1, 1, 1, 1, 1, 1, 1, 1, 1])
        alloc, trace = moving_knife(inst)
        alloc.validate(10)
        for i in range(2):
            assert inst.profile[i].value_of(alloc.bundles[i]) <= guarantee(2, F(1, 10))

    def test_guarantee_at_each_level_alpha(self):
        rng = random.Random(0)
        for _ in range(20):
            n = rng.randint(2, 4)
            m = rng.randint(n, 12)
            rows = [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
            for r in rows:
                if sum(r) == 0:
                    r[0] = 1
            inst = reduce_to_ordered(inst_from_rows(*rows)).ordered
            alloc, trace = moving_knife(inst)
            alloc.validate(m)
            for lvl in trace.levels:
                i = lvl.served_agent
                assert lvl.served_value <= lvl.caps[i]


class TestLift:
    def test_hand_trace(self):
        inst = inst_from_rows(["1/10", "2/5", "1/2"], ["1/2", "3/10", "1/5"])
        red = reduce_to_ordered(inst)
        ordered_alloc = Allocation((frozenset({0}), frozenset({1, 2})))
        real = lift_allocation(red, ordered_alloc)
        assert real.bundles[0] == frozenset({0})
        assert real.bundles[1] == frozenset({1, 2})
        assert inst.profile[0].value_of(real.bundles[0]) == F(1, 10)
        assert inst.profile[1].value_of(real.bundles[1]) == F(1, 2)

    def test_identical_agents_values_match(self):
        row = ["3/10", "1/4", "1/4", "1/5"]
        inst = inst_from_rows(row, row)
        red = reduce_to_ordered(inst)
        ordered_alloc, _ = moving_knife(red.ordered)
        real = lift_allocation(red, ordered_alloc)
        for i in range(2):
            assert (inst.profile[i].value_of(real.bundles[i])
                    == red.ordered.profile[i].value_of(ordered_alloc.bundles[i]))

    def test_lift_dominance_random(self):
        rng = random.Random(1)
        for _ in range(50):
            n = rng.randint(2, 4)
            m = rng.randint(n, 10)
            rows = [[rng.randint(0, 9) + (1 if j == 0 else 0) for j in range(m)]
                    for _ in range(n)]
            inst = inst_from_rows(*rows)
            red = reduce_to_ordered(inst)
            ordered_alloc, _ = moving_knife(red.ordered)
            real = lift_allocation(red, ordered_alloc)
            for i in range(n):
                assert (inst.profile[i].value_of(real.bundles[i])
                        <= red.ordered.profile[i].value_of(ordered_alloc.bundles[i]))

    def test_single_agent(self):
        inst = inst_from_rows([1, 2, 3])
        red = reduce_to_ordered(inst)
        real = lift_allocation(red, Allocation((frozenset({0, 1, 2}),)))
        assert inst.profile[0].value_of(real.bundles[0]) == 1

    def test_malformed_alloc_rejected(self):
        inst = inst_from_rows([1, 2, 3])
        red = reduce_to_ordered(inst)
        with pytest.raises(ValidationError):
            lift_allocation(red, Allocation((frozenset({0, 1}),)))


class TestAllocate:
    def test_identical_agents_within_guarantee(self):
        row = ["3/10", "1/4", "1/4", "1/5"]
        inst = inst_from_rows(row, row)
        alloc, report = allocate(inst)
        assert all(r.satisfied for r in report.agents)

    def test_zero_row_agent(self):
        inst = Instance(
            (DisutilityVector((F(1, 2), F(1, 2), F(0)), True),
             DisutilityVector((F(0), F(0), F(0)), False)),
        )
        alloc, report = allocate(inst)
        alloc.validate(3)
        assert all(r.satisfied for r in report.agents)

    def test_single_agent(self):
        inst = inst_from_rows([2, 1])
        alloc, report = allocate(inst)
        assert alloc.bundles == (frozenset({0, 1}),)
        assert report.agents[0].cost == 1

    def test_single_agent_empty_trace(self):
        for rows in ([[3, 1, 2, 2]], [[0, 0, 0]]):
            alloc, report = allocate(inst_from_rows(*rows))
            assert alloc.bundles == (frozenset(range(len(rows[0]))),)
            assert report.agents[0].cap == 1 and report.agents[0].satisfied
            assert report.trace.levels == ()

    def test_report_uses_original_alpha(self):
        inst = inst_from_rows([1, 1, 2], [4, 1, 1])
        _, report = allocate(inst)
        assert report.agents[0].alpha == F(1, 2)
        assert report.agents[1].alpha == F(2, 3)


class TestReferenceKnife:
    def test_matches_renormalising_knife_on_criterion_4_corpus(self):
        # the acceptance-4 corpus: seed 777, 1,000 instances, three row makers
        rng = random.Random(777)
        makers = (_uniform_rows, _powerlaw_rows, _many_zeros_rows)
        for trial in range(1000):
            n = rng.randint(2, 6)
            m = rng.randint(n, 40)
            inst = normalize(makers[trial % 3](rng, n, m))
            red = reduce_to_ordered(inst)
            ref_bundles, ref_levels = naive_knife([r.values for r in red.ordered.profile])
            ordered_alloc, trace = moving_knife(red.ordered)
            assert list(ordered_alloc.bundles) == ref_bundles, trial

            assert len(trace.levels) == len(ref_levels), trial
            for lvl, ref in zip(trace.levels, ref_levels):
                factors = ref.pop("renorm_factors")
                assert factors == {i: 1 - c for i, c in lvl.bundle_costs.items()}, trial
                assert dataclasses.asdict(lvl) == ref, trial

            alloc, report = allocate(inst)
            assert alloc == lift_allocation(red, Allocation(tuple(ref_bundles))), trial
            for i, row in enumerate(inst.profile):
                cost = row.value_of(alloc.bundles[i])
                cap = guarantee(n, row.alpha())
                assert report.agents[i] == AgentReport(i, row.alpha(), cap, cost, cost <= cap)


def region_image(n, alpha):
    return alpha / (1 - (1 - guarantee(n, alpha)) / (n - 1))


class TestRegionRecursion:
    def test_region_mapping_grid(self):
        for n in range(3, 21):
            for k in range(0, 6):
                lo = F(1, (k + 1) * n + 1)
                hi = F(1, k * n + 1)
                for t in range(1, 8):
                    alpha = lo + (hi - lo) * F(t, 8)
                    src = classify_guarantee(n, alpha)
                    img = region_image(n, alpha)
                    dst = classify_guarantee(n - 1, img)
                    assert (src.k, src.tag) == (dst.k, dst.tag)


class TestTwoAgentTight:
    def test_identical_agents(self):
        row = ["3/10", "1/4", "1/4", "1/5"]
        inst = inst_from_rows(row, row)
        alloc = allocate_two_agents_tight(inst)
        alloc.validate(4)
        for i in range(2):
            cost = inst.profile[i].value_of(alloc.bundles[i])
            assert cost <= hill_share(2, F(3, 10), 4)
        assert {inst.profile[0].value_of(b) for b in alloc.bundles} == {F(1, 2)}

    def test_zero_row_chooser(self):
        inst = Instance(
            (DisutilityVector((F(1, 2), F(1, 4), F(1, 4)), True),
             DisutilityVector((F(0), F(0), F(0)), False)),
        )
        alloc = allocate_two_agents_tight(inst)
        alloc.validate(3)
        assert inst.profile[1].value_of(alloc.bundles[1]) == 0

    def test_divider_has_smaller_bound(self):
        inst = inst_from_rows([F(3, 5), F(1, 5), F(1, 5)], [F(1, 2), F(1, 4), F(1, 4)])
        alloc = allocate_two_agents_tight(inst)
        alloc.validate(3)
        for i in range(2):
            a_i = inst.profile[i].alpha()
            assert (inst.profile[i].value_of(alloc.bundles[i])
                    <= hill_share(2, a_i, inst.m))

    def test_random_instances_meet_bound(self):
        rng = random.Random(9)
        for _ in range(40):
            m = rng.randint(2, 8)
            rows = [[rng.randint(0, 6) + (1 if j == 0 else 0) for j in range(m)]
                    for _ in range(2)]
            inst = inst_from_rows(*rows)
            alloc = allocate_two_agents_tight(inst)
            alloc.validate(m)
            for i in range(2):
                a_i = inst.profile[i].alpha()
                bound = F(1) if a_i in (0, 1) else hill_share(2, a_i, m)
                assert inst.profile[i].value_of(alloc.bundles[i]) <= bound

    def test_rejects_wrong_n(self):
        with pytest.raises(ValidationError):
            allocate_two_agents_tight(inst_from_rows([1, 1], [1, 1], [1, 1]))
