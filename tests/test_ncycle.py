import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclectx.ncycle import (
    FlipMask,
    _behavior_from_constraints,
    even_ncycle_behavior,
    even_to_unified_mask,
    identity_mask,
    odd_ncycle_behavior,
    odd_to_unified_mask,
    relabel,
    unified_ncycle_behavior,
)
from cyclectx.scenario import (
    _PAIR_SUPPORTS,
    PossibilisticBehavior,
    Scenario,
    ScenarioError,
    is_logically_contextual,
    make_cycle_scenario,
)

ALL = set(itertools.product((0, 1), repeat=2))


class TestUnified:
    def test_n5_pattern(self):
        pb = unified_ncycle_behavior(5)
        for i in range(1, 5):
            assert (0, 1) not in pb.supports[(i, i + 1)]
            assert pb.supports[(i, i + 1)] == frozenset(ALL - {(0, 1)})
        assert (0, 1) in pb.supports[(1, 5)]
        assert pb.required == ((1, 5), (0, 1))

    def test_n4_counts(self):
        pb = unified_ncycle_behavior(4)
        missing = sum(4 - len(pb.supports[c]) for c in pb.scenario.contexts)
        assert missing == 3
        assert pb.supports[(1, 4)] == frozenset(ALL)

    def test_contextual_n6(self):
        assert is_logically_contextual(unified_ncycle_behavior(6)).contextual

    def test_guard(self):
        with pytest.raises(ScenarioError):
            unified_ncycle_behavior(3)

    def test_required_tuple_that_is_forbidden_clashes(self):
        s = make_cycle_scenario(5)
        with pytest.raises(ScenarioError, match=r"required tuple \(0, 1\) in \(1, 2\) clashes"):
            _behavior_from_constraints(s, {(1, 2): (0, 1)}, ((1, 2), (0, 1)), "unified")


@pytest.mark.parametrize("generate, sizes", [
    (unified_ncycle_behavior, range(4, 20)),
    (odd_ncycle_behavior, range(5, 20, 2)),
    (even_ncycle_behavior, range(4, 20, 2)),
])
def test_supports_are_the_shared_pair_supports(generate, sizes):
    for n in sizes:
        pb = generate(n)
        assert all(any(sup is shared for shared in _PAIR_SUPPORTS)
                   for sup in pb.supports.values())
        assert generate(n) is not pb


class TestOdd:
    def test_n5_is_the_alternating_pattern(self):
        pb = odd_ncycle_behavior(5)
        assert pb.supports[(1, 2)] == frozenset(ALL - {(1, 1)})
        assert pb.supports[(2, 3)] == frozenset(ALL - {(0, 0)})
        assert pb.supports[(3, 4)] == frozenset(ALL - {(1, 1)})
        assert pb.supports[(4, 5)] == frozenset(ALL - {(0, 0)})
        assert pb.supports[(1, 5)] == frozenset(ALL)
        # (m5=0, m1=1) possible, keyed (1, 5)
        assert pb.required == ((1, 5), (1, 0))

    def test_n7_pattern(self):
        pb = odd_ncycle_behavior(7)
        forb = [next(iter(ALL - set(pb.supports[(i, i + 1)]))) for i in range(1, 7)]
        assert forb == [(1, 1), (0, 0), (1, 1), (0, 0), (1, 1), (0, 0)]

    def test_contextual_n5(self):
        assert is_logically_contextual(odd_ncycle_behavior(5)).contextual

    def test_parity_guards(self):
        with pytest.raises(ScenarioError):
            odd_ncycle_behavior(6)
        with pytest.raises(ScenarioError):
            odd_ncycle_behavior(3)


class TestEven:
    def test_n4_pattern(self):
        pb = even_ncycle_behavior(4)
        assert (1, 0) not in pb.supports[(1, 2)]
        assert (1, 1) not in pb.supports[(2, 3)]
        assert (0, 1) not in pb.supports[(3, 4)]
        assert pb.required == ((1, 4), (1, 1))

    def test_n6_three_phase(self):
        pb = even_ncycle_behavior(6)
        forb = [next(iter(ALL - set(pb.supports[(i, i + 1)]))) for i in range(1, 6)]
        assert forb == [(1, 0), (1, 0), (1, 1), (0, 1), (0, 1)]

    def test_contextual_n4(self):
        assert is_logically_contextual(even_ncycle_behavior(4)).contextual

    def test_parity_guard(self):
        with pytest.raises(ScenarioError):
            even_ncycle_behavior(5)


class TestMasks:
    def test_odd_mask_n5(self):
        m = odd_to_unified_mask(5)
        assert {i for i, f in m.flips.items() if f} == {1, 3, 5}

    def test_even_mask_n4_n6(self):
        assert {i for i, f in even_to_unified_mask(4).flips.items() if f} == {1, 2}
        assert {i for i, f in even_to_unified_mask(6).flips.items() if f} == {1, 2, 3}

    def test_parity_mismatch(self):
        with pytest.raises(ScenarioError):
            odd_to_unified_mask(4)
        with pytest.raises(ScenarioError):
            even_to_unified_mask(5)


class TestRelabel:
    def test_identity(self):
        pb = odd_ncycle_behavior(5)
        assert relabel(pb, identity_mask(5)) == pb

    def test_domain_mismatch(self):
        pb = odd_ncycle_behavior(5)
        with pytest.raises(ScenarioError):
            relabel(pb, FlipMask({1: True}))

    @pytest.mark.parametrize("n", [5, 7, 9, 11])
    def test_odd_to_unified(self, n):
        assert relabel(odd_ncycle_behavior(n), odd_to_unified_mask(n)) \
            == unified_ncycle_behavior(n)

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_even_to_unified(self, n):
        assert relabel(even_ncycle_behavior(n), even_to_unified_mask(n)) \
            == unified_ncycle_behavior(n)

    def test_required_tuple_tracks_the_relabeling(self):
        pb = relabel(odd_ncycle_behavior(5), odd_to_unified_mask(5))
        assert pb.required == ((1, 5), (0, 1))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(4, 9), st.integers(0, 2**16))
    def test_involution(self, n, seed):
        rng = np.random.default_rng(seed)
        mask = FlipMask({i: bool(rng.integers(0, 2)) for i in range(1, n + 1)})
        pb = unified_ncycle_behavior(n)
        assert relabel(relabel(pb, mask), mask) == pb

    @pytest.mark.parametrize("flips", [
        {1: np.bool_(True), 2: np.bool_(False), 3: np.bool_(True), 4: np.bool_(True)},
        {1: 1, 2: 0, 3: 1, 4: 1},
    ], ids=["numpy-bool", "int"])
    def test_generic_contexts_and_mask_values(self, flips):
        s = Scenario((1, 2, 3, 4), ((1, 2, 3), (3, 4)))
        pb = PossibilisticBehavior(s, {(1, 2, 3): frozenset({(0, 0, 1), (0, 1, 1), (1, 1, 0)}),
                                       (3, 4): frozenset({(1, 0), (0, 1)})})
        out = relabel(pb, FlipMask(flips))
        assert out.supports == {(1, 2, 3): {(1, 0, 0), (1, 1, 0), (0, 1, 1)},
                                (3, 4): {(0, 1), (1, 0)}}
        assert all(type(v) is int for sup in out.supports.values() for t in sup for v in t)

    def test_support_cardinalities_preserved(self):
        pb = even_ncycle_behavior(8)
        out = relabel(pb, even_to_unified_mask(8))
        for c in pb.scenario.contexts:
            assert len(out.supports[c]) == len(pb.supports[c])


class TestPossibilisticMarginals:
    @pytest.mark.parametrize("gen,n", [
        (unified_ncycle_behavior, 6), (odd_ncycle_behavior, 7), (even_ncycle_behavior, 8),
    ])
    def test_overlap_supports_agree(self, gen, n):
        # single-measurement possible-value sets coincide across contexts
        pb = gen(n)
        by_measurement = {}
        for c in pb.scenario.contexts:
            for k, m in enumerate(c):
                vals = {t[k] for t in pb.supports[c]}
                by_measurement.setdefault(m, []).append(vals)
        for m, sets in by_measurement.items():
            assert all(s == sets[0] for s in sets)
