import dataclasses
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from cyclectx.ncycle import (
    FlipMask,
    identity_mask,
    odd_ncycle_behavior,
    relabel,
    unified_ncycle_behavior,
)
from cyclectx.quantum import behavior_from_realization, find_quantum_realization
from cyclectx.scenario import (
    _PAIR_BITS,
    _PAIR_SUPPORTS,
    Behavior,
    ContextualityVerdict,
    EnumerationLimitError,
    PossibilisticBehavior,
    Scenario,
    ScenarioError,
    WitnessFates,
    check_no_disturbance,
    flip_outcomes,
    is_logically_contextual,
    make_cycle_scenario,
    possibilistic_collapse,
    propagate_chain,
    supports_within,
)

# supports of the pentagon realization's behavior, frozen from the trace
# oracle: every adjacent pair of measurement vectors is orthogonal, so each
# context loses (1,1) on top of the alternating zero
KCBS_SUPPORTS = {
    (1, 2): {(0, 0), (0, 1), (1, 0)},
    (2, 3): {(0, 1), (1, 0)},
    (3, 4): {(0, 0), (0, 1), (1, 0)},
    (4, 5): {(0, 1), (1, 0)},
    (1, 5): {(0, 0), (0, 1), (1, 0)},
}


def all_possible(n):
    s = make_cycle_scenario(n)
    tuples = frozenset(itertools.product((0, 1), repeat=2))
    return PossibilisticBehavior(s, {c: tuples for c in s.contexts})


class TestScenario:
    def test_cycle4_contexts(self):
        s = make_cycle_scenario(4)
        assert s.contexts == ((1, 2), (2, 3), (3, 4), (1, 4))

    def test_cycle5_contexts(self):
        s = make_cycle_scenario(5)
        assert s.contexts == ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))

    def test_cycle3(self):
        s = make_cycle_scenario(3)
        assert len(s.contexts) == 3
        assert all(len(c) == 2 for c in s.contexts)

    def test_too_small(self):
        with pytest.raises(ScenarioError):
            make_cycle_scenario(2)

    def test_cycle_scenario_is_shared(self):
        assert make_cycle_scenario(7) is make_cycle_scenario(7)
        # a failed call is not remembered: it raises every time
        for _ in range(2):
            with pytest.raises(ScenarioError):
                make_cycle_scenario(2)

    def test_maximality_enforced(self):
        with pytest.raises(ScenarioError):
            Scenario((1, 2, 3), ((1, 2), (1, 2, 3)))

    def test_maximality_enforced_after_superset(self):
        with pytest.raises(ScenarioError, match=r"context \(2, 3\) is contained in \(1, 2, 3\)"):
            Scenario((1, 2, 3, 4), ((1, 2, 3), (3, 4), (2, 3)))

    def test_maximality_reports_first_pair_in_scan_order(self):
        # the first (c1, c2) of the all-pairs scan, c1 outer and c2 inner
        rng = random.Random(5)
        labels = (1, 2, 3, 4, 5)
        for _ in range(300):
            contexts = tuple(tuple(sorted(rng.sample(labels, rng.randint(1, 4))))
                             for _ in range(rng.randint(1, 6)))
            first = next(((c1, c2) for c1 in contexts for c2 in contexts
                          if c1 != c2 and set(c1) <= set(c2)), None)
            if first is None:
                Scenario(labels, contexts)
                continue
            with pytest.raises(ScenarioError) as err:
                Scenario(labels, contexts)
            assert str(err.value) == (f"context {first[0]} is contained in {first[1]}; "
                                      "contexts must be maximal")

    def test_context_must_be_subset(self):
        with pytest.raises(ScenarioError):
            Scenario((1, 2), ((1, 3),))


class TestNoDisturbance:
    def test_product_behavior(self):
        s = make_cycle_scenario(4)
        q = {0: 0.3, 1: 0.7}
        tables = {
            c: {(a, b): q[a] * q[b] for a in (0, 1) for b in (0, 1)}
            for c in s.contexts
        }
        assert check_no_disturbance(Behavior(s, tables))

    def test_quantum_behavior(self, kcbs, cycle5):
        b = behavior_from_realization(kcbs, cycle5)
        assert check_no_disturbance(b)

    def test_constructed_violation(self):
        s = make_cycle_scenario(4)
        uniform = {(a, b): 0.25 for a in (0, 1) for b in (0, 1)}
        tables = {c: dict(uniform) for c in s.contexts}
        # context (1,2) says m1 = 0 surely; context (1,4) says m1 = 1 surely
        tables[(1, 2)] = {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.0, (1, 1): 0.0}
        tables[(1, 4)] = {(1, 0): 0.5, (1, 1): 0.5, (0, 0): 0.0, (0, 1): 0.0}
        assert not check_no_disturbance(Behavior(s, tables))

    def test_tolerance_is_fixed(self):
        s = make_cycle_scenario(4)
        uniform = {(a, b): 0.25 for a in (0, 1) for b in (0, 1)}

        def shifted(delta):
            # context (1, 2) moves delta of m1's weight from outcome 1 to 0
            tables = {c: dict(uniform) for c in s.contexts}
            tables[(1, 2)] = {(0, 0): 0.25 + delta, (0, 1): 0.25,
                              (1, 0): 0.25 - delta, (1, 1): 0.25}
            return Behavior(s, tables)

        assert check_no_disturbance(shifted(5e-13))
        assert not check_no_disturbance(shifted(1e-11))
        with pytest.raises(TypeError):
            check_no_disturbance(shifted(0.0), tol=1e-12)


class TestBehaviorValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_probability_rejected(self, bad):
        s = make_cycle_scenario(3)
        table = {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.0, (1, 1): bad}
        with pytest.raises(ScenarioError):
            Behavior(s, {c: dict(table) for c in s.contexts})


def three_outcome_cycle_behavior():
    s = Scenario((1, 2, 3, 4), make_cycle_scenario(4).contexts, outcomes=(0, 1, 2))
    return PossibilisticBehavior(s, {c: frozenset(s.tuples(c)) for c in s.contexts})


class TestTypedErrors:
    @pytest.mark.parametrize("call, phrase", [
        (lambda: Scenario((1, 1, 2), ((1, 2),)), "duplicate measurement labels"),
        (lambda: Scenario((1, 2), ((2, 1),)), "must be stored in ascending order"),
        (lambda: Behavior(make_cycle_scenario(4), {}), "exactly one table per context"),
        (lambda: Behavior(make_cycle_scenario(4),
                          {c: {(0,): 1.0} for c in make_cycle_scenario(4).contexts}),
         "wrong arity"),
        (lambda: supports_within(unified_ncycle_behavior(4), unified_ncycle_behavior(5)),
         "different scenarios"),
        (lambda: is_logically_contextual(three_outcome_cycle_behavior()),
         "binary n-cycle scenarios only"),
        (lambda: WitnessFates(make_cycle_scenario(5), tuple(all_possible(5).supports.values()),
                              (1, 2), (0, 0))[0],
         "survives every context: not a witness"),
    ], ids=["duplicate-labels", "descending-context", "missing-table", "wrong-arity",
            "two-scenarios", "three-outcomes", "not-a-witness"])
    def test_raises(self, call, phrase):
        with pytest.raises(ScenarioError, match=phrase):
            call()


class TestPossibilisticValidation:
    def test_value_outside_outcomes_rejected(self):
        pb = all_possible(5)
        supports = dict(pb.supports)
        supports[(3, 4)] = frozenset({(0, 0), (0, 2)})
        with pytest.raises(ScenarioError, match=r"\(0, 2\) of context \(3, 4\)"):
            PossibilisticBehavior(pb.scenario, supports)

    def test_supports_are_read_only_and_checked_at_construction(self):
        pb = all_possible(4)
        with pytest.raises(TypeError):
            pb.supports[(2, 3)] = frozenset({(0, 0), (0, 2)})
        assert pb == all_possible(4)
        # an outside value can only come in through the constructor, which names it
        supports = dict(pb.supports)
        supports[(2, 3)] = frozenset({(0, 0), (0, 2)})
        with pytest.raises(ScenarioError, match=r"\(0, 2\) of context \(2, 3\) has a value outside"):
            PossibilisticBehavior(pb.scenario, supports)

    def test_wrong_arity_still_rejected(self):
        s = make_cycle_scenario(3)
        with pytest.raises(ScenarioError, match="wrong arity for context"):
            PossibilisticBehavior(s, {c: frozenset({(0, 1, 1)}) for c in s.contexts})

    def test_non_binary_scenario_takes_its_outcomes(self):
        s = Scenario((1, 2, 3), ((1, 2), (2, 3)), outcomes=(0, 1, 2))
        pb = PossibilisticBehavior(s, {c: frozenset({(0, 2), (2, 1)}) for c in s.contexts})
        assert pb.possible((1, 2), (0, 2))

    @pytest.mark.parametrize("kind", [set, list])
    def test_support_that_is_not_a_frozenset_rejected(self, kind):
        s = make_cycle_scenario(5)
        supports = {c: frozenset({(0, 0), (1, 1)}) for c in s.contexts}
        supports[(2, 3)] = kind({(0, 0), (1, 1)})
        with pytest.raises(ScenarioError,
                           match=rf"support of context \(2, 3\) is a {kind.__name__}, not a frozenset"):
            PossibilisticBehavior(s, supports)

    def test_empty_support_on_a_binary_cycle(self):
        pb = all_possible(5)
        supports = dict(pb.supports)
        supports[(2, 3)] = frozenset()
        with pytest.raises(ScenarioError, match=r"context \(2, 3\) has empty support"):
            PossibilisticBehavior(pb.scenario, supports)

    @pytest.mark.parametrize("edit", ["missing", "extra"])
    def test_contexts_covered_exactly_on_a_binary_cycle(self, edit):
        pb = all_possible(5)
        supports = dict(pb.supports)
        if edit == "missing":
            del supports[(3, 4)]
        else:
            supports[(1, 3)] = frozenset({(0, 0)})
        with pytest.raises(ScenarioError, match="supports must cover exactly the contexts"):
            PossibilisticBehavior(pb.scenario, supports)

    def test_fresh_frozenset_equal_to_a_shared_support(self):
        s = make_cycle_scenario(5)
        fresh = PossibilisticBehavior(s, {c: frozenset([(1, 1), (0, 0)]) for c in s.contexts})
        shared = relabel(fresh, identity_mask(5))     # the table's own frozensets
        assert fresh == shared
        assert is_logically_contextual(fresh) == is_logically_contextual(shared)
        assert propagate_chain(fresh, 2, 1) == propagate_chain(shared, 2, 1)

    @pytest.mark.parametrize("flip", [{1: True}, {m: False for m in range(1, 7)}],
                             ids=["missing", "extra"])
    def test_flip_domain_checked(self, flip):
        with pytest.raises(ScenarioError, match="domain must equal the measurement set"):
            flip_outcomes(unified_ncycle_behavior(5), flip)

    def test_required_naming_a_measurement_outside_the_scenario_rejected(self):
        # unchecked, relabel stops on a bare KeyError: 9 while moving this tuple
        with pytest.raises(ScenarioError, match=r"required \(\(1, 9\), \(0, 1\)\)"):
            relabel(dataclasses.replace(odd_ncycle_behavior(5), required=((1, 9), (0, 1))),
                    identity_mask(5))

    def test_required_tuple_of_the_wrong_arity_rejected(self):
        # unchecked, relabel's zip cuts this tuple to two values without a word
        with pytest.raises(ScenarioError, match="not an outcome tuple"):
            relabel(dataclasses.replace(odd_ncycle_behavior(5), required=((1, 5), (0, 1, 1))),
                    identity_mask(5))

    def test_required_value_outside_the_outcomes_rejected(self):
        # unchecked, the realization search stops on a bare KeyError: (0, 7)
        with pytest.raises(ScenarioError, match="not an outcome tuple"):
            find_quantum_realization(
                make_cycle_scenario(5),
                dataclasses.replace(unified_ncycle_behavior(5), required=((1, 5), (0, 7))), 3)

    @pytest.mark.parametrize("required", [
        ((1, 5),), ((1, 5), (0, 1), 0), ([1, 5], (0, 1)), ((1, 5), [0, 1]),
        ((5, 1), (0, 1)), ((1, 3), (0, 1)), 0,
    ], ids=["short", "long", "list-context", "list-tuple", "unordered", "not-a-context", "int"])
    def test_required_that_is_not_a_context_and_outcome_rejected(self, required):
        s = make_cycle_scenario(5)
        with pytest.raises(ScenarioError, match="not an outcome tuple"):
            PossibilisticBehavior(s, dict(all_possible(5).supports), required=required)

    def test_required_outside_the_support_accepted(self):
        # a target whose required tuple clashes with its supports is still a
        # behavior: the search tests build such targets on purpose
        pb = unified_ncycle_behavior(5)
        supports = dict(pb.supports)
        supports[(1, 5)] = frozenset({(0, 0)})
        clash = PossibilisticBehavior(pb.scenario, supports, required=((1, 5), (0, 1)))
        assert not clash.possible(*clash.required)

    def test_relabel_and_chain_still_accepted(self):
        mask = FlipMask({m: m % 3 == 0 for m in range(1, 10)})
        pb = relabel(unified_ncycle_behavior(9), mask)
        assert relabel(pb, mask) == unified_ncycle_behavior(9)
        res = propagate_chain(pb, 1, 0)
        assert not res.conflicted
        assert res.forced == {m: int(mask.flipped(m)) for m in range(1, 10)}


class TestCollapse:
    def test_uniform_all_possible(self):
        s = make_cycle_scenario(4)
        uniform = {(a, b): 0.25 for a in (0, 1) for b in (0, 1)}
        pb = possibilistic_collapse(Behavior(s, {c: dict(uniform) for c in s.contexts}))
        assert all(len(pb.supports[c]) == 4 for c in s.contexts)

    def test_quantum_supports(self, kcbs, cycle5):
        pb = possibilistic_collapse(behavior_from_realization(kcbs, cycle5))
        assert {c: set(pb.supports[c]) for c in cycle5.contexts} == KCBS_SUPPORTS

    def test_idempotent(self, kcbs, cycle5):
        pb = possibilistic_collapse(behavior_from_realization(kcbs, cycle5))
        # uniform distribution over each context's support
        tables = {c: {t: 1.0 / len(pb.supports[c]) for t in pb.supports[c]}
                  for c in cycle5.contexts}
        again = possibilistic_collapse(Behavior(cycle5, tables))
        assert again.supports == pb.supports

    def test_collapsed_kcbs_stores_the_masks_of_its_supports(self, kcbs, cycle5):
        # the collapse builds fresh frozensets; the behavior finds each mask
        # by equality and stores them in context order
        pb = possibilistic_collapse(behavior_from_realization(kcbs, cycle5))
        assert pb._masks == tuple(sum(_PAIR_BITS[t] for t in pb.supports[c])
                                  for c in cycle5.contexts)
        assert all(pb.supports[c] == _PAIR_SUPPORTS[m]
                   for c, m in zip(cycle5.contexts, pb._masks))

    def test_three_outcome_scenario_collapses(self):
        s = Scenario((1, 2, 3), ((1, 2), (2, 3), (1, 3)), outcomes=(0, 1, 2))
        tables = {c: {t: (0.0 if t[0] == t[1] else 1 / 6) for t in s.tuples(c)}
                  for c in s.contexts}
        tables[(2, 3)][(2, 0)] = 0.5e-9
        tables[(2, 3)][(0, 2)] = 1 / 3 - 0.5e-9
        pb = possibilistic_collapse(Behavior(s, tables))
        off_diagonal = {t for t in s.tuples((1, 2)) if t[0] != t[1]}
        assert pb.supports == {(1, 2): off_diagonal, (1, 3): off_diagonal,
                               (2, 3): off_diagonal - {(2, 0)}}

    def test_binary_table_with_an_outside_value_is_named(self):
        s = make_cycle_scenario(3)
        tables = {c: {(0, 0): 0.5, (1, 1): 0.5} for c in s.contexts}
        tables[(2, 3)] = {(0, 0): 0.5, (0, 2): 0.5}
        with pytest.raises(ScenarioError, match=r"tuple \(0, 2\) of context \(2, 3\)"):
            possibilistic_collapse(Behavior(s, tables))


class TestLogicalContextuality:
    def test_quantum_supports_witness(self, cycle5):
        pb = PossibilisticBehavior(
            cycle5, {c: frozenset(v) for c, v in KCBS_SUPPORTS.items()})
        v = is_logically_contextual(pb)
        assert v.contextual
        # the closing-pair event the argument post-selects on
        assert v.witness.context == (1, 5)
        assert v.witness.outcome_tuple == (1, 0)

    def test_witness_fates_are_genuine(self, cycle5):
        pb = PossibilisticBehavior(
            cycle5, {c: frozenset(v) for c, v in KCBS_SUPPORTS.items()})
        w = is_logically_contextual(pb).witness
        labels = cycle5.measurements
        for fate in w.fates:
            values = dict(zip(labels, fate.assignment))
            restricted = tuple(values[m] for m in fate.killed_by)
            assert restricted not in pb.supports[fate.killed_by]
            # and the assignment really extends the witness tuple
            assert tuple(values[m] for m in w.context) == w.outcome_tuple

    def test_all_possible_not_contextual(self):
        v = is_logically_contextual(all_possible(5))
        assert not v.contextual and v.witness is None

    def test_unified7_contextual(self):
        assert is_logically_contextual(unified_ncycle_behavior(7)).contextual

    def test_non_cycle_rejected(self):
        s = Scenario((1, 2, 3), ((1, 2), (2, 3)))
        pb = PossibilisticBehavior(s, {c: frozenset({(0, 0)}) for c in s.contexts})
        with pytest.raises(ScenarioError, match="enumerate_contextuality"):
            is_logically_contextual(pb)

    def test_verdict_reads_contextual_from_its_witness(self):
        v = is_logically_contextual(unified_ncycle_behavior(5))
        assert v.contextual and ContextualityVerdict(v.witness).contextual
        assert not ContextualityVerdict(None).contextual
        with pytest.raises(TypeError):      # no stored flag to disagree with
            ContextualityVerdict(True, None)

    def test_cycle_contexts_with_three_outcomes_rejected(self):
        # the decision takes only the binary n-cycle, equal to make_cycle_scenario(n)
        cycle = make_cycle_scenario(5)
        s = Scenario(cycle.measurements, cycle.contexts, outcomes=(0, 1, 2))
        pb = PossibilisticBehavior(s, {c: frozenset({(0, 2)}) for c in s.contexts})
        with pytest.raises(ScenarioError, match="enumerate_contextuality"):
            is_logically_contextual(pb)
        rebuilt = Scenario(cycle.measurements, cycle.contexts)
        assert rebuilt is not cycle
        assert is_logically_contextual(PossibilisticBehavior(
            rebuilt, dict(unified_ncycle_behavior(5).supports))).contextual

    def test_non_binary_tuple_rejected(self):
        pb = all_possible(4)
        supports = dict(pb.supports)
        supports[(2, 3)] = frozenset({(0, 0), (0, 2)})
        with pytest.raises(ScenarioError, match="outside"):
            is_logically_contextual(PossibilisticBehavior(pb.scenario, supports))


def assert_genuine(pb, w, fate):
    values = dict(zip(pb.scenario.measurements, fate.assignment))
    restricted = tuple(values[m] for m in fate.killed_by)
    assert restricted not in pb.supports[fate.killed_by]
    assert tuple(values[m] for m in w.context) == w.outcome_tuple


class TestLazyFates:
    def test_len_without_materializing(self):
        w = is_logically_contextual(unified_ncycle_behavior(40)).witness
        assert len(w.fates) == 2**38

    def test_random_indices_are_genuine(self):
        pb = relabel(unified_ncycle_behavior(40),
                     FlipMask({m: m % 3 == 0 for m in range(1, 41)}))
        w = is_logically_contextual(pb).witness
        rng = random.Random(5)
        for _ in range(200):
            assert_genuine(pb, w, w.fates[rng.randrange(2**38)])

    def test_index_decodes_free_measurements_in_product_order(self):
        # free measurements are 2..5 on the closing-context witness; k = 0b0110
        fate = is_logically_contextual(unified_ncycle_behavior(6)).witness.fates[6]
        assert fate.assignment == (0, 0, 1, 1, 0, 1)

    def test_negative_indices_and_slices(self):
        fates = is_logically_contextual(unified_ncycle_behavior(8)).witness.fates
        every = tuple(fates)
        assert len(every) == 2**6
        assert fates[-1] == every[-1]
        assert fates[-64] == every[0]
        assert fates[3:20:4] == every[3:20:4]
        assert fates[::-1] == every[::-1]
        for k in (64, -65, 2**70):
            with pytest.raises(IndexError):
                fates[k]
        # witnesses stay values: the same behavior gives an equal witness
        assert is_logically_contextual(unified_ncycle_behavior(8)).witness.fates == fates

    def test_equal_behaviors_give_equal_fates(self):
        fates = is_logically_contextual(unified_ncycle_behavior(9)).witness.fates
        again = is_logically_contextual(unified_ncycle_behavior(9)).witness.fates
        assert fates is not again
        assert fates == again and hash(fates) == hash(again)
        pb = unified_ncycle_behavior(9)
        supports = dict(pb.supports)
        supports[(4, 5)] = frozenset({(0, 0), (1, 1)})
        other = is_logically_contextual(PossibilisticBehavior(pb.scenario, supports))
        assert other.witness.context == (1, 9)
        assert other.witness.fates != fates

    def test_edits_to_the_callers_dict_reach_neither_behavior_nor_fates(self):
        supports = dict(unified_ncycle_behavior(7).supports)
        pb = PossibilisticBehavior(make_cycle_scenario(7), supports)
        fates = is_logically_contextual(pb).witness.fates
        before = tuple(fates)
        for c in supports:
            supports[c] = frozenset(itertools.product((0, 1), repeat=2))
        assert pb == unified_ncycle_behavior(7)
        assert tuple(fates) == before
        assert all(f.killed_by for f in before)
        assert is_logically_contextual(pb).witness.fates == fates

    def test_len_beyond_maxsize(self):
        fates = is_logically_contextual(unified_ncycle_behavior(70)).witness.fates
        with pytest.raises(EnumerationLimitError):
            len(fates)
        # indexing still works past the count len() can return
        assert fates[-1].assignment[-1] == 1
        assert fates.size == 2**68


class TestPropagateChain:
    def test_five_cycle_alternating(self, cycle5):
        pb = PossibilisticBehavior(
            cycle5, {c: frozenset(v) for c, v in KCBS_SUPPORTS.items()})
        res = propagate_chain(pb, 1, 1)
        assert {m: res.forced[m] for m in range(1, 6)} == {1: 1, 2: 0, 3: 1, 4: 0, 5: 1}
        # the closing context forbids (1,1), so the loop closes on a conflict
        assert res.conflicted and res.conflict.context == (1, 5)

    def test_generated_supports_leave_closing_pair_open(self):
        from cyclectx.ncycle import odd_ncycle_behavior

        res = propagate_chain(odd_ncycle_behavior(5), 1, 1)
        assert {m: res.forced[m] for m in range(1, 6)} == {1: 1, 2: 0, 3: 1, 4: 0, 5: 1}
        assert not res.conflicted

    def test_unified_all_zero(self):
        pb = unified_ncycle_behavior(7)
        res = propagate_chain(pb, 1, 0)
        assert res.conflict is None
        assert res.forced == {i: 0 for i in range(1, 8)}

    def test_all_possible_forces_nothing(self):
        res = propagate_chain(all_possible(5), 3, 1)
        assert res.forced == {3: 1}
        assert not res.conflicted

    def test_unknown_measurement(self):
        with pytest.raises(ScenarioError):
            propagate_chain(all_possible(5), 9, 0)

    def test_refutes(self, cycle5):
        # a conflict refutes every value; a forced value refutes only the others
        conflict = propagate_chain(PossibilisticBehavior(
            cycle5, {c: frozenset(v) for c, v in KCBS_SUPPORTS.items()}), 1, 1)
        assert conflict.refutes(5, 0) and conflict.refutes(5, 1)
        forced = propagate_chain(unified_ncycle_behavior(7), 1, 0)
        assert forced.refutes(7, 1) and not forced.refutes(7, 0)
        free = propagate_chain(all_possible(5), 3, 1)
        assert not free.refutes(5, 0) and not free.refutes(5, 1)
        assert free.refutes(3, 0) and not free.refutes(3, 1)

    @pytest.mark.parametrize("seed, steps", [
        ((1, 1), ((1, 1), (2, 1), (3, 0), (4, 1))),
        ((2, 0), ((2, 0), (1, 0), (3, 1), (4, 0))),
        ((2, 1), ((2, 1),)),
        ((4, 0), ((4, 0), (3, 1), (1, 0))),
    ])
    def test_three_measurement_context(self, seed, steps):
        s = Scenario((1, 2, 3, 4), ((1, 2, 3), (3, 4)))
        pb = PossibilisticBehavior(s, {(1, 2, 3): frozenset({(0, 0, 1), (0, 1, 1), (1, 1, 0)}),
                                       (3, 4): frozenset({(1, 0), (0, 1)})})
        res = propagate_chain(pb, *seed)
        assert res.steps == steps and res.forced == dict(steps)
        assert not res.conflicted

    @pytest.mark.parametrize("seed, steps, context", [
        ((1, 0), ((1, 0), (2, 0)), (2, 3)),
        ((1, 1), ((1, 1),), (1, 2)),
        ((3, 1), ((3, 1), (1, 0), (2, 0)), (2, 3)),
    ])
    def test_path_conflicts(self, seed, steps, context):
        s = Scenario((1, 2, 3), ((1, 2), (2, 3)))
        pb = PossibilisticBehavior(s, {(1, 2): frozenset({(0, 0)}), (2, 3): frozenset({(1, 1)})})
        res = propagate_chain(pb, *seed)
        assert res.steps == steps and res.forced == dict(steps)
        assert res.conflict.context == context and res.conflict.fixed == dict(steps)


    def test_backward_chain_is_linear(self):
        # forced against the scan order: one context per pass, m_n down to m_1;
        # rescanning every context each pass takes about n^2/2 evaluations
        n = 2000
        pb = unified_ncycle_behavior(n)
        t0 = time.perf_counter()
        res = propagate_chain(pb, n, 1)
        elapsed = time.perf_counter() - t0
        assert res.steps == tuple((m, 1) for m in range(n, 0, -1))
        assert not res.conflicted
        assert elapsed < 1.0


class TestVerdictInvariance:
    @pytest.mark.parametrize("n", range(4, 9))
    def test_rotation_preserves_verdict(self, n):
        pb = unified_ncycle_behavior(n)
        base = is_logically_contextual(pb).contextual
        for shift in range(1, n):
            rot = {i: (i - 1 + shift) % n + 1 for i in range(1, n + 1)}
            s = pb.scenario
            supports = {}
            for c in s.contexts:
                imgs = sorted((rot[m] for m in c))
                newc = tuple(imgs)
                move = [rot[m] for m in c]
                order = sorted(range(len(c)), key=lambda k: move[k])
                supports[newc] = frozenset(
                    tuple(t[k] for k in order) for t in pb.supports[c])
            rotated = PossibilisticBehavior(s, supports)
            assert is_logically_contextual(rotated).contextual == base

    @settings(max_examples=20, deadline=None)
    @given(st.integers(4, 8), st.integers(0, 2**16))
    def test_flip_preserves_verdict(self, n, seed):
        import numpy as np

        pb = unified_ncycle_behavior(n)
        rng = np.random.default_rng(seed)
        mask = FlipMask({i: bool(rng.integers(0, 2)) for i in range(1, n + 1)})
        assert is_logically_contextual(relabel(pb, mask)).contextual \
            == is_logically_contextual(pb).contextual


class TestSerialization:
    def test_supports_within(self, kcbs, cycle5):
        pb = possibilistic_collapse(behavior_from_realization(kcbs, cycle5))
        from cyclectx.ncycle import odd_ncycle_behavior

        assert supports_within(pb, odd_ncycle_behavior(5))
        assert not supports_within(odd_ncycle_behavior(5), pb)
