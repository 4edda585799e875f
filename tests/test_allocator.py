import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest

from fairchores.allocator import (
    AgentReport,
    AllocationReport,
    KnifeLevel,
    agent_reports,
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
from fairchores.experiments import gen_synthetic
from fairchores.mms import exact_mms, minmax_partition
from fairchores.shares import guarantee, hill_share, witness_upper

from oracles import naive_knife, naive_lift, reference_guarantee
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


class TestPhases:
    MAKERS = (_uniform_rows, _powerlaw_rows, _many_zeros_rows)

    def test_allocate_is_its_phases_in_turn(self):
        rng = random.Random(1313)
        for trial in range(90):
            n = rng.randint(1, 6)
            m = rng.randint(n, 30)
            rows = self.MAKERS[trial % 3](rng, n, m)
            if trial % 4 == 0:
                rows[rng.randrange(n)] = [0] * m
            if trial % 5 == 0:
                rows[-1] = list(rows[0])  # two agents with the same row
            inst = normalize(rows)
            red = reduce_to_ordered(inst)
            ordered_alloc, trace = moving_knife(red.ordered)
            real = lift_allocation(red, ordered_alloc)
            expected = (real, AllocationReport(agent_reports(inst, real), trace))
            assert allocate(inst) == expected, trial

    @pytest.mark.parametrize("n, m", [(4, 175), (12, 90)])
    def test_no_row_is_rescaled(self, monkeypatch, n, m):
        # every phase reads the rows' stored integers: no common
        # denominator is recomputed once the instance is built
        rng = random.Random(f"scaled:{n}:{m}")
        insts = [normalize([self.MAKERS[(i + a) % 3](rng, 1, m)[0] for a in range(n)])
                 for i in range(3)]
        calls = []
        lcm = math.lcm
        monkeypatch.setattr(math, "lcm", lambda *args: calls.append(args) or lcm(*args))
        for inst in insts:
            calls.clear()
            alloc, _ = allocate(inst)
            assert calls == []
            agent_reports(inst, alloc)
            assert calls == []


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

            assert list(lift_allocation(red, ordered_alloc).bundles) == naive_lift(
                [r.values for r in inst.profile], ref_bundles), trial

            alloc, report = allocate(inst)
            assert alloc == lift_allocation(red, Allocation(tuple(ref_bundles))), trial
            for i, row in enumerate(inst.profile):
                cost = row.value_of(alloc.bundles[i])
                cap = guarantee(n, row.alpha())
                assert report.agents[i] == AgentReport(i, row.alpha(), cap, cost, cost <= cap)


class TestLiftAtBenchmarkSize:
    SHAPES = [(4, 175), (12, 90)]

    @staticmethod
    def _instances(n, m):
        # rows mixed from the three makers, each maker alone (60 % zeros
        # gives long runs of ties), and all-equal rows
        rng = random.Random(f"lift:{n}:{m}")
        makers = TestPhases.MAKERS
        rows = [[makers[(i + a) % 3](rng, 1, m)[0] for a in range(n)] for i in range(3)]
        rows += [make(rng, n, m) for make in makers]
        rows.append([[1] * m for _ in range(n)])
        return rng, [normalize(r) for r in rows]

    @pytest.mark.parametrize("n, m", SHAPES)
    def test_matches_naive_lift_on_knife_allocations(self, n, m):
        _, insts = self._instances(n, m)
        for k, inst in enumerate(insts):
            red = reduce_to_ordered(inst)
            ordered_alloc, _ = moving_knife(red.ordered)
            assert list(lift_allocation(red, ordered_alloc).bundles) == naive_lift(
                [r.values for r in inst.profile], ordered_alloc.bundles), k

    @pytest.mark.parametrize("n, m", SHAPES)
    def test_matches_naive_lift_on_random_allocations(self, n, m):
        # positions dealt at random, so an agent's picks interleave with
        # everyone else's and her cursor skips many taken objects
        rng, insts = self._instances(n, m)
        for k, inst in enumerate(insts):
            owner = [rng.randrange(n) for _ in range(m)]
            bundles = tuple([frozenset(p for p in range(m) if owner[p] == i)
                             for i in range(n)])
            red = reduce_to_ordered(inst)
            assert list(lift_allocation(red, Allocation(bundles)).bundles) == naive_lift(
                [r.values for r in inst.profile], bundles), k


class TestKnifeAtBenchmarkSize:
    """The integer knife against the renormalising one at the benchmark's
    shapes, where power-law rows have denominators of 90 to 180 digits."""

    @staticmethod
    def _instances(n, m):
        # rows mixed from the three makers, each maker alone, power-law
        # rows twice more, and a mixed instance with one all-zero row
        rng = random.Random(f"knife:{n}:{m}")
        makers = TestPhases.MAKERS
        rows = [[makers[(i + a) % 3](rng, 1, m)[0] for a in range(n)] for i in range(6)]
        rows += [make(rng, n, m) for make in makers + (_powerlaw_rows, _powerlaw_rows)]
        rows[0][rng.randrange(n)] = [0] * m
        return [normalize(r) for r in rows]

    @pytest.mark.parametrize("n, m", TestLiftAtBenchmarkSize.SHAPES)
    def test_matches_renormalising_knife(self, n, m):
        insts = self._instances(n, m)
        assert max(len(str(row.denom)) for inst in insts[-3:] for row in inst.profile) >= 100
        for k, inst in enumerate(insts):
            ordered = reduce_to_ordered(inst).ordered
            ref_bundles, ref_levels = naive_knife([r.values for r in ordered.profile])
            ordered_alloc, trace = moving_knife(ordered)
            assert list(ordered_alloc.bundles) == ref_bundles, k
            assert [{**dataclasses.asdict(lvl),
                     "renorm_factors": {i: 1 - c for i, c in lvl.bundle_costs.items()}}
                    for lvl in trace.levels] == ref_levels, k


class TestReports:
    """`allocate` finds each agent's largest integer first in her ordered
    row; `agent_reports` scans her row for it."""

    @staticmethod
    def _same_reports(inst):
        alloc, report = allocate(inst)
        assert report.agents == agent_reports(inst, alloc)

    def test_criterion_4_corpus(self):
        rng = random.Random(777)
        for trial in range(1000):
            n = rng.randint(2, 6)
            m = rng.randint(n, 40)
            self._same_reports(normalize(TestPhases.MAKERS[trial % 3](rng, n, m)))

    @pytest.mark.parametrize("rows", [
        [[1, 2, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[], []],
        [[3, 1, 2, 2]],
        [[0, 0]],
        [[]],
    ], ids=["zero-row", "all-zero", "no-objects", "one-agent", "one-zero-agent",
            "one-agent-no-objects"])
    def test_edge_instances(self, rows):
        self._same_reports(normalize(rows))

    QUARTERS = DisutilityVector(["1/4", "1/4"])
    HALVES = DisutilityVector(["1/2", "1/2"], True)

    @pytest.mark.parametrize("rows, bad", [
        ((DisutilityVector([2, 1]), DisutilityVector([1, 1])), 0),
        ((QUARTERS, HALVES), 0),
        ((HALVES, QUARTERS), 1),
    ], ids=["raw-rows", "quarters-first", "quarters-second"])
    def test_rejects_a_row_neither_normalised_nor_zero(self, monkeypatch, rows, bad):
        # the knife reads a row over its own total and the reports read
        # alpha over the row's denominator, so such a row is refused before
        # any phase
        monkeypatch.setattr("fairchores.allocator.reduce_to_ordered", None)
        with pytest.raises(ValidationError,
                           match=f"^agent {bad}: row is neither normalised nor all zero$"):
            allocate(Instance(rows))


class TestReportValues:
    """Every field of `allocate`'s and `agent_reports`' reports against values
    computed from the row's Fractions and the reference guarantee."""

    @staticmethod
    def _check(inst):
        alloc, report = allocate(inst)
        n = inst.n
        for reports in (report.agents, agent_reports(inst, alloc)):
            assert len(reports) == n
            for i, (row, rep) in enumerate(zip(inst.profile, reports)):
                values = row.values
                alpha = max(values, default=F(0))
                cap = F(1) if n == 1 else F(1, n) if alpha == 0 else reference_guarantee(n, alpha)
                cost = sum((values[j] for j in alloc.bundles[i]), F(0))
                assert rep == AgentReport(i, alpha, cap, cost, cost <= cap), i
                assert rep.satisfied

    def test_criterion_4_corpus(self):
        rng = random.Random(777)
        for trial in range(1000):
            n = rng.randint(2, 6)
            m = rng.randint(n, 40)
            self._check(normalize(TestPhases.MAKERS[trial % 3](rng, n, m)))

    @pytest.mark.parametrize("rows", [
        [[1, 2, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[], []],
        [[3, 1, 2, 2]],
        [[0, 0]],
        [[]],
    ], ids=["zero-row", "all-zero", "no-objects", "one-agent", "one-zero-agent",
            "one-agent-no-objects"])
    def test_edge_instances(self, rows):
        self._check(normalize(rows))


LAZY = ("alphas", "caps", "prefix_values", "served_value", "bundle_costs")


class TestLazyTrace:
    """A knife-built level computes its five Fraction fields on first read;
    it must compare, print, copy and pickle as the level built eagerly."""

    EARLY = Instance((DisutilityVector((F(1, 2), F(1, 4), F(1, 4)), True),
                      DisutilityVector((F(0), F(0), F(0)), False)))

    @classmethod
    def _ordered(cls):
        # the benchmark's mixed instances (one with an all-zero row),
        # power-law rows, and an instance whose knife exhausts early
        insts = TestKnifeAtBenchmarkSize._instances(12, 90)
        insts = [insts[0], insts[1], insts[-1], cls.EARLY]
        return [reduce_to_ordered(inst).ordered for inst in insts]

    @staticmethod
    def _levels(ordered):
        return moving_knife(ordered)[1].levels

    def test_fields_unchanged(self):
        assert [(f.name, f.type) for f in dataclasses.fields(KnifeLevel)] == [
            ("agents", "tuple[int, ...]"), ("level_n", "int"),
            ("alphas", "dict[int, Fraction]"), ("caps", "dict[int, Fraction]"),
            ("prefix_values", "dict[int, Fraction]"), ("served_agent", "int"),
            ("prefix_len", "int"), ("removed_position", "Optional[int]"),
            ("served_value", "Fraction"), ("bundle_costs", "dict[int, Fraction]"),
            ("early_exhaustion", "bool"),
        ]

    def test_corpus_has_every_kind_of_level(self):
        levels = [lvl for ordered in self._ordered() for lvl in self._levels(ordered)]
        assert any(lvl.early_exhaustion for lvl in levels)
        assert any(not lvl.early_exhaustion for lvl in levels)
        assert any(a == 0 for lvl in levels for a in lvl.alphas.values())

    @pytest.mark.parametrize("order", [LAZY[k:] + LAZY[:k] for k in range(5)] + [LAZY[::-1]],
                             ids=[f + "-first" for f in LAZY] + ["reversed"])
    def test_any_read_order_gives_the_same_values(self, order):
        for k, ordered in enumerate(self._ordered()):
            ref = [tuple(getattr(lvl, f) for f in LAZY) for lvl in self._levels(ordered)]
            got = []
            for lvl in self._levels(ordered):
                read = {f: getattr(lvl, f) for f in order}
                got.append(tuple(read[f] for f in LAZY))
            assert got == ref, k

    def test_equals_the_eager_level(self):
        for k, ordered in enumerate(self._ordered()):
            eager = [KnifeLevel(**dataclasses.asdict(lvl)) for lvl in self._levels(ordered)]
            for lvl, ref in zip(self._levels(ordered), eager):
                assert repr(lvl) == repr(ref), k
                assert lvl == ref and ref == lvl, k
                assert dataclasses.asdict(lvl) == dataclasses.asdict(ref), k
                assert lvl == KnifeLevel(**dataclasses.asdict(lvl)), k

    @pytest.mark.parametrize("copier", [lambda lvl: pickle.loads(pickle.dumps(lvl)),
                                        copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_copies_before_and_after_first_read(self, copier):
        for k, ordered in enumerate(self._ordered()):
            eager = [KnifeLevel(**dataclasses.asdict(lvl)) for lvl in self._levels(ordered)]
            unread = [copier(lvl) for lvl in self._levels(ordered)]
            assert unread == eager, k
            assert [repr(lvl) for lvl in unread] == [repr(lvl) for lvl in eager], k
            levels = self._levels(ordered)
            for lvl in levels:
                lvl.caps
            assert [copier(lvl) for lvl in levels] == eager, k
            assert [copier(lvl) for lvl in eager] == eager, k

    def test_other_names_raise_attribute_error(self):
        lvl = self._levels(self._ordered()[0])[0]
        with pytest.raises(AttributeError, match="'KnifeLevel' object has no attribute 'cap'"):
            lvl.cap
        assert not hasattr(lvl, "__setstate__")
        lvl.alphas
        with pytest.raises(AttributeError):
            lvl.cap

    def test_frozen(self):
        lvl = self._levels(self._ordered()[0])[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            lvl.caps = {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            lvl.served_agent = 0

    def test_allocate_builds_no_trace_fraction(self, monkeypatch):
        # allocate reads no level: its reports build one alpha and one cap
        # per agent
        insts = self._ordered()
        calls, outs = [], []
        monkeypatch.setattr("fairchores.allocator.F",
                            lambda *args: calls.append(args) or Fraction(*args))
        for inst in insts:
            calls.clear()
            outs.append(allocate(inst))
            assert outs[-1][1].trace.levels and len(calls) == 2 * inst.n
        monkeypatch.undo()
        for inst, (alloc, report) in zip(insts, outs):
            assert report.agents == agent_reports(inst, alloc)


def lazy_makers():
    """Makers of fresh lazy instances: a minmax-built allocation and every
    knife-built level of `TestLazyTrace`'s corpus."""
    v = gen_synthetic(16, random.Random("histogram:1:1"))
    yield pytest.param(lambda: minmax_partition(v, 3)[1], id="allocation")
    for k, ordered in enumerate(TestLazyTrace._ordered()):
        for j in range(len(TestLazyTrace._levels(ordered))):
            yield pytest.param(lambda ordered=ordered, j=j: TestLazyTrace._levels(ordered)[j],
                               id=f"level-{k}-{j}")


@pytest.mark.parametrize("make", list(lazy_makers()))
def test_no_build_state_survives_the_first_read(make):
    # whichever lazy field is read first, the instance then holds exactly
    # what the instance built with every field given holds
    fresh = make()
    eager = type(fresh)(**{f.name: getattr(fresh, f.name) for f in dataclasses.fields(fresh)})
    lazy = [f.name for f in dataclasses.fields(eager) if f.name not in vars(make())]
    assert lazy
    for name in lazy:
        x = make()
        getattr(x, name)
        assert vars(x) == vars(eager), name


class TestRowCheck:
    """`agent_reports` and `allocate_two_agents_tight` refuse a row that is
    neither normalised nor all zero, as `allocate` does, naming its agent."""

    RAW, QUARTERS, HALVES = DisutilityVector([2, 1]), TestReports.QUARTERS, TestReports.HALVES
    ROWS = [
        ((RAW, DisutilityVector([1, 1])), 0),
        ((RAW, HALVES), 0),
        ((HALVES, RAW), 1),
        ((QUARTERS, HALVES), 0),
        ((HALVES, QUARTERS), 1),
    ]
    IDS = ["raw-rows", "raw-first", "raw-second", "quarters-first", "quarters-second"]

    @pytest.mark.parametrize("rows, bad", ROWS, ids=IDS)
    def test_agent_reports(self, rows, bad):
        alloc = Allocation((frozenset({0}), frozenset({1})))
        with pytest.raises(ValidationError,
                           match=f"^agent {bad}: row is neither normalised nor all zero$"):
            agent_reports(Instance(rows), alloc)

    @pytest.mark.parametrize("rows, bad", ROWS, ids=IDS)
    def test_two_agents_tight(self, monkeypatch, rows, bad):
        monkeypatch.setattr("fairchores.allocator.minmax_partition", None)
        with pytest.raises(ValidationError,
                           match=f"^agent {bad}: row is neither normalised nor all zero$"):
            allocate_two_agents_tight(Instance(rows))


class TestBundleCount:
    INST = normalize([[1, 2, 3], [3, 2, 1]])
    THREE = Allocation((frozenset({0}), frozenset({1}), frozenset({2})))
    ONE = Allocation((frozenset({0, 1, 2}),))

    @pytest.mark.parametrize("alloc", [THREE, ONE], ids=["three", "one"])
    def test_lift_rejects_a_bundle_count_other_than_n(self, alloc):
        with pytest.raises(ValidationError, match=f"^allocation has {alloc.n} bundles for 2 agents$"):
            lift_allocation(reduce_to_ordered(self.INST), alloc)

    @pytest.mark.parametrize("alloc", [THREE, ONE], ids=["three", "one"])
    def test_reports_reject_a_bundle_count_other_than_n(self, alloc):
        with pytest.raises(ValidationError, match=f"^allocation has {alloc.n} bundles for 2 agents$"):
            agent_reports(self.INST, alloc)

    @pytest.mark.parametrize("alloc, message", [
        (Allocation((frozenset({-1}), frozenset({0}))), "bundles do not cover all objects"),
        (Allocation((frozenset(), frozenset())), "bundles do not cover all objects"),
        (Allocation((frozenset({0}), frozenset({1, 2}))), "bundles do not cover all objects"),
        (Allocation((frozenset({0, 1}), frozenset({1}))), "bundles are not disjoint"),
    ], ids=["negative-id", "empty", "id-past-m", "overlap"])
    def test_reports_reject_an_allocation_that_is_no_partition(self, alloc, message):
        # id -1 would read the last object's value, an empty allocation
        # would report every agent satisfied, and id 2 would index past m
        with pytest.raises(ValidationError, match=f"^{message}"):
            agent_reports(normalize([[1, 3], [1, 1]]), alloc)


class TestGuaranteeIsTight:
    def test_identical_witness_rows_end_at_a_cap(self):
        """Where guarantee(n, alpha) equals hill_share(n, alpha), n identical
        witness_upper(n, alpha) rows have MinMaxShare equal to the cap, so
        every allocation gives some agent at least her cap: allocate leaves
        one exactly at it, and the guarantee cannot be lowered there."""
        points = 0
        for n in range(2, 5):
            for q in range(2, 30):
                for p in range(1, q):
                    alpha = F(p, q)
                    if math.gcd(p, q) > 1 or guarantee(n, alpha) != hill_share(n, alpha):
                        continue
                    _, report = allocate(Instance((witness_upper(n, alpha).vector,) * n))
                    assert any(a.cost == a.cap for a in report.agents), (n, alpha)
                    points += 1
        assert points == 454


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

    def test_lattice_profiles_meet_hill_share(self):
        # every ordered pair of rows with entries in multiples of 1/d summing
        # to 1, zeros included, over m objects: (d, m) = (6, 2..4) and
        # (12, 2..3).  Each agent gets at most hill_share(2, alpha_i), the
        # unrestricted-m share, and at alpha_i = 1 at most guarantee(2, 1)
        profiles = below = 0
        for d, m_max in ((6, 4), (12, 3)):
            for m in range(2, m_max + 1):
                rows = [DisutilityVector(tuple(F(x, d) for x in r), True)
                        for r in product(range(d + 1), repeat=m) if sum(r) == d]
                for pair in product(rows, repeat=2):
                    alloc = allocate_two_agents_tight(Instance(pair))
                    for row, bundle in zip(pair, alloc.bundles):
                        a = row.alpha()
                        cap = guarantee(2, a) if a == 1 else hill_share(2, a)
                        assert row.value_of(bundle) <= cap, (pair, a)
                        below += cap < guarantee(2, a)
                    profiles += 1
        # the profiles of each lattice, and the agent rows where Hill's
        # share is a strictly smaller cap than the monotone cover
        assert (profiles, below) == (7889 + 8450, 14498)

    def test_thirty_object_rows(self):
        # the divider's 30-object row needs a search, within the table budget
        rng = random.Random("two-agent-tight:30")
        inst = Instance((gen_synthetic(30, rng), gen_synthetic(30, rng)))
        alloc = allocate_two_agents_tight(inst)
        alloc.validate(30)
        for i, row in enumerate(inst.profile):
            assert row.value_of(alloc.bundles[i]) <= hill_share(2, row.alpha(), 30)
