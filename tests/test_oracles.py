import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from cyclectx.ncycle import (
    FlipMask,
    even_ncycle_behavior,
    odd_ncycle_behavior,
    relabel,
    unified_ncycle_behavior,
)
from cyclectx.ewf import (
    ProtocolError,
    build_counterfactual_protocol,
    build_measure_undo_protocol,
    build_protocol,
    commutation_certificates,
    simulate,
)
from cyclectx import oracles
from cyclectx.oracles import (
    OracleResult,
    _pair_gates,
    dense_commutation_certificates,
    dense_simulate,
    enumerate_contextuality,
    exhaustive_support_check,
    fixpoint_propagate_chain,
    measurement_unitary,
    projection_sequential,
)
from cyclectx.quantum import (
    QuantumRealization,
    RealizationError,
    born_pair,
    find_quantum_realization,
    kcbs_realization,
    realization_from_doc,
)
from cyclectx.scenario import (
    EnumerationLimitError,
    PossibilisticBehavior,
    Scenario,
    ScenarioError,
    _packed_product,
    is_logically_contextual,
    make_cycle_scenario,
    propagate_chain,
)
from dense_reference import dense_stages


FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "realizations.json"


def first_four(r):
    """The realization restricted to labels 1..4."""
    return QuantumRealization(r.dim, r.state, {i: r.frames[i] for i in range(1, 5)})


def fixture_cases():
    """(n, realization): KCBS, then the frozen fixtures n = 5..25 in the
    seeded random bases 1 and 7."""
    doc = json.loads(FIXTURES.read_text(encoding="utf-8"))["realizations"]
    cases = [(5, kcbs_realization())]
    for seed in (1, 7):
        cases += [(int(n), rotated(realization_from_doc(d), seed)) for n, d in doc.items()]
    return cases


def bits(table):
    """Each value's exact bits, a zero's sign included."""
    return {k: float(v).hex() for k, v in table.items()}


def reference_sequential(r, sequence):
    """``projection_sequential`` with its weights taken from np.linalg.norm."""
    branches = [((), r.state, 1.0)]
    for i in sequence:
        new = []
        for outcomes, state, weight in branches:
            for a in (0, 1):
                v = r.outcome_projector(i, a) @ state
                p = float(np.linalg.norm(v) ** 2)
                if weight * p == 0.0:
                    new.append((outcomes + (a,), v, 0.0))
                else:
                    new.append((outcomes + (a,), v / np.sqrt(p), weight * p))
        branches = new
    return {outcomes: weight for outcomes, state, weight in branches}


def reference_trace_oracle(r, s):
    """The trace oracle key by key: Tr(1 Q_a Q_b rho), one product at a time."""
    rho = np.outer(r.state, r.state.conj())
    oracle = {}
    for c in s.contexts:
        for outcomes in itertools.product((0, 1), repeat=len(c)):
            op = np.eye(r.dim, dtype=complex)
            for m, a in zip(c, outcomes):
                op = op @ r.outcome_projector(m, a)
            oracle[(c, outcomes)] = float(np.real(np.trace(op @ rho)))
    return oracle


class TestProjectionSequential:
    def test_matches_update_free_pair(self, kcbs):
        seq = projection_sequential(kcbs, (1, 2))
        bp = born_pair(kcbs, 1, 2)
        for key, p in bp.probabilities.items():
            assert abs(seq[key] - p) < 1e-12

    def test_single_measurement(self, kcbs):
        d = projection_sequential(kcbs, (1,))
        assert abs(d[(1,)] - 1 / 9) < 1e-12
        assert abs(d[(0,)] - 8 / 9) < 1e-12

    def test_closing_pair(self, kcbs):
        d = projection_sequential(kcbs, (5, 1))
        assert abs(d[(0, 1)] - 1 / 9) < 1e-12

    def test_order_irrelevant_for_commuting_pairs(self, kcbs, cycle5):
        for i, j in cycle5.contexts:
            fwd = projection_sequential(kcbs, (i, j))
            rev = projection_sequential(kcbs, (j, i))
            for (a, b), p in fwd.items():
                assert abs(rev[(b, a)] - p) < 1e-12

    def test_empty_sequence_rejected(self, kcbs):
        with pytest.raises(ValueError):
            projection_sequential(kcbs, ())

    def test_missing_label_is_a_realization_error(self, kcbs):
        with pytest.raises(RealizationError,
                           match=r"realization has no measurement for labels \[5\]"):
            projection_sequential(first_four(kcbs), (1, 5))

    def test_weights_equal_np_linalg_norm_bit_for_bit(self):
        # every ordered pair, commuting or not, and longer sequences
        for n, r in fixture_cases():
            sequences = list(itertools.permutations(range(1, n + 1), 2))
            sequences += [(k,) for k in range(1, n + 1)] + [(1, 2, 3), (3, 1, 2), (1, n, 2, 3)]
            for seq in sequences:
                assert bits(projection_sequential(r, seq)) == \
                    bits(reference_sequential(r, seq)), (n, seq)


class TestExhaustiveSupportCheck:
    def test_kcbs_five_cycle(self, kcbs, cycle5):
        res = exhaustive_support_check(kcbs, cycle5)
        assert res.max_abs_diff <= 1e-12

    def test_identity_projectors(self):
        # outcome-1 projector is the whole space: all mass on (1,1)
        s = make_cycle_scenario(3)
        r = QuantumRealization(3, np.array([1, 0, 0], dtype=complex),
                               {i: np.eye(3, dtype=complex) for i in (1, 2, 3)})
        res = exhaustive_support_check(r, s)
        assert res.max_abs_diff <= 1e-12
        for c in s.contexts:
            assert abs(res.oracle_value[(c, (1, 1))] - 1.0) <= 1e-12

    def test_zero_overlap_state(self):
        # state orthogonal to every measurement vector: all mass on zeros
        s = make_cycle_scenario(3)
        e = np.eye(3, dtype=complex)
        r = QuantumRealization(
            3, e[:, 2],
            {1: e[:, :1], 2: e[:, :1], 3: e[:, 1:2]})
        res = exhaustive_support_check(r, s)
        assert res.max_abs_diff <= 1e-12
        for c in s.contexts:
            assert abs(res.oracle_value[(c, (0, 0))] - 1.0) <= 1e-12

    def test_large_context_rejected(self, kcbs):
        s = Scenario((1, 2, 3, 4), ((1, 2, 3, 4),))
        with pytest.raises(ValueError):
            exhaustive_support_check(kcbs, s)

    @pytest.mark.parametrize("s", [
        Scenario((1, 2), ((1,), (2,))),
        Scenario((1, 2, 3), ((1, 2, 3),)),
        Scenario((1, 2, 3, 4), ((1, 2, 3, 4),)),
        Scenario((1, 2, 3, 4), ((1, 2), (2, 3, 4))),
    ], ids=["size1", "size3", "size4", "pair-and-size3"])
    def test_non_pair_context_rejected_before_oracle_work(self, kcbs, s, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(QuantumRealization, "outcome_projector", unreachable)
        monkeypatch.setattr(oracles, "behavior_from_realization", unreachable)
        with pytest.raises(RealizationError, match="only two-measurement contexts"):
            exhaustive_support_check(kcbs, s)
        # also before the labels are checked: KCBS has no label 9
        s9 = Scenario(tuple(m + 8 for m in s.measurements),
                      tuple(tuple(m + 8 for m in c) for c in s.contexts))
        with pytest.raises(RealizationError, match="only two-measurement contexts"):
            exhaustive_support_check(kcbs, s9)

    def test_oracle_values_equal_per_key_products_bit_for_bit(self):
        for n, r in fixture_cases():
            s = make_cycle_scenario(n)
            res = exhaustive_support_check(r, s)
            assert list(res.oracle_value) == [(c, t) for c in s.contexts
                                              for t in itertools.product((0, 1), repeat=2)]
            assert bits(res.oracle_value) == bits(reference_trace_oracle(r, s)), n

    def test_missing_label_is_a_realization_error(self, kcbs, cycle5):
        with pytest.raises(RealizationError,
                           match=r"realization has no measurement for labels \[5\]"):
            exhaustive_support_check(first_four(kcbs), cycle5)


class TestOracleResult:
    def test_key_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OracleResult("q", {"a": 1.0}, {"b": 1.0})

    def test_max_abs_diff_is_read_from_the_values(self):
        res = OracleResult("q", {"a": 1.0, "b": 2.0}, {"b": 2.25, "a": 1.0})
        assert res.max_abs_diff == 0.25
        assert OracleResult("q", {}, {}).max_abs_diff == 0.0
        with pytest.raises(TypeError):      # no stored copy to disagree with
            OracleResult("q", {"a": 1.0}, {"a": 1.0}, 0.0)

    def test_disagreement_threshold(self, kcbs, cycle5):
        # the build-level contract: oracle and pipeline never drift past 1e-10
        res = exhaustive_support_check(kcbs, cycle5)
        assert res.max_abs_diff <= 1e-10


def assert_same_verdict(pb):
    fast, slow = is_logically_contextual(pb), enumerate_contextuality(pb)
    assert fast.contextual == slow.contextual
    if slow.witness is None:
        assert fast.witness is None
        return
    assert fast.witness.context == slow.witness.context
    assert fast.witness.outcome_tuple == slow.witness.outcome_tuple
    assert tuple(fast.witness.fates) == slow.witness.fates


class TestEnumerateContextuality:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_random_supports(self, n):
        s = make_cycle_scenario(n)
        tuples = list(itertools.product((0, 1), repeat=2))
        rng = np.random.default_rng([7, n])
        contextual = 0
        for _ in range(12):
            supports = {}
            for c in s.contexts:
                keep = rng.random(4) < 0.8
                keep[rng.integers(4)] = True
                supports[c] = frozenset(t for t, k in zip(tuples, keep) if k)
            pb = PossibilisticBehavior(s, supports)
            assert_same_verdict(pb)
            contextual += is_logically_contextual(pb).contextual
        # the draw must exercise both verdicts
        assert 0 < contextual < 12

    @pytest.mark.parametrize("generator, sizes", [
        (unified_ncycle_behavior, range(4, 13)),
        (odd_ncycle_behavior, range(5, 12, 2)),
        (even_ncycle_behavior, range(4, 13, 2)),
    ], ids=["unified", "odd", "even"])
    def test_generators_under_flip_masks(self, generator, sizes):
        for n in sizes:
            rng = np.random.default_rng([11, n])
            for _ in range(3):
                mask = FlipMask({m: bool(rng.integers(2)) for m in range(1, n + 1)})
                pb = relabel(generator(n), mask)
                assert is_logically_contextual(pb).contextual
                assert_same_verdict(pb)

    def test_every_three_cycle_support(self):
        s = make_cycle_scenario(3)
        subsets = [frozenset(t) for r in range(1, 5)
                   for t in itertools.combinations(itertools.product((0, 1), repeat=2), r)]
        verdicts = set()
        for combo in itertools.product(subsets, repeat=3):
            pb = PossibilisticBehavior(s, dict(zip(s.contexts, combo)))
            assert_same_verdict(pb)
            verdicts.add(is_logically_contextual(pb).contextual)
        assert len(subsets) == 15 and verdicts == {True, False}

    def test_packed_product_is_the_boolean_matrix_product(self):
        def unpack(x):
            return np.array([[x >> (2 * i + j) & 1 for j in (0, 1)] for i in (0, 1)])

        for x, y in itertools.product(range(16), repeat=2):
            want = (unpack(x) @ unpack(y)) > 0
            assert (unpack(_packed_product(x, y)) > 0).tolist() == want.tolist()

    def test_decides_non_cycles(self):
        # a path, not a cycle: m2 is 0 in one context and 1 in the other
        s = Scenario((1, 2, 3), ((1, 2), (2, 3)))
        supports = {(1, 2): frozenset({(0, 0)}), (2, 3): frozenset({(1, 1)})}
        v = enumerate_contextuality(PossibilisticBehavior(s, supports))
        assert v.contextual and v.witness.context == (1, 2)

    def test_guard(self):
        # 2^25 global assignments exceed the 2^24 enumeration guard
        s = make_cycle_scenario(25)
        pb = PossibilisticBehavior(s, {c: frozenset(s.tuples(c)) for c in s.contexts})
        with pytest.raises(EnumerationLimitError):
            enumerate_contextuality(pb)


PAIRS = list(itertools.product((0, 1), repeat=2))


def random_cycle_behavior(n, rng):
    s = make_cycle_scenario(n)
    supports = {}
    for c in s.contexts:
        keep = rng.random(4) < 0.6
        keep[rng.integers(4)] = True
        supports[c] = frozenset(t for t, k in zip(PAIRS, keep) if k)
    return PossibilisticBehavior(s, supports)


def random_flips(n, rng):
    return FlipMask({m: bool(rng.integers(2)) for m in range(1, n + 1)})


def reference_relabel(pb, mask):
    """Flip outcome labels one tuple at a time."""
    flip = {m: bool(f) for m, f in mask.flips.items()}
    return {c: frozenset(tuple(1 - v if flip[m] else v for m, v in zip(c, t))
                         for t in sup)
            for c, sup in pb.supports.items()}


def assert_same_chains(pb):
    """The worklist and the fixpoint scan agree from every seed."""
    for m in pb.scenario.measurements:
        for v in (0, 1):
            fast = propagate_chain(pb, m, v)
            slow = fixpoint_propagate_chain(pb, m, v)
            assert fast.steps == slow.steps
            assert fast == slow


THREE_MEASUREMENT_SUPPORTS = [
    (Scenario((1, 2, 3, 4), ((1, 2, 3), (3, 4))),
     {(1, 2, 3): frozenset({(0, 0, 1), (0, 1, 1), (1, 1, 0)}),
      (3, 4): frozenset({(1, 0), (0, 1)})}),
    (Scenario((1, 2, 3), ((1, 2), (2, 3))),
     {(1, 2): frozenset({(0, 0)}), (2, 3): frozenset({(1, 1)})}),
]


class TestFixpointPropagateChain:
    # the larger cycles run later passes behind a long first pass
    @pytest.mark.parametrize("n", [*range(3, 13), 16, 24, 40])
    def test_random_cycle_supports(self, n):
        rng = np.random.default_rng([13, n])
        conflicts = 0
        for _ in range(25):
            pb = random_cycle_behavior(n, rng)
            assert_same_chains(pb)
            conflicts += propagate_chain(pb, 1, 0).conflicted
        # the draw must reach both outcomes of a chain
        assert 0 < conflicts < 25

    @pytest.mark.parametrize("scenario, supports", THREE_MEASUREMENT_SUPPORTS,
                             ids=["triple-and-pair", "path"])
    def test_propagate_chain_scenarios(self, scenario, supports):
        assert_same_chains(PossibilisticBehavior(scenario, supports))

    def test_random_supports_with_a_triple_context(self):
        s = THREE_MEASUREMENT_SUPPORTS[0][0]
        rng = np.random.default_rng(17)
        for _ in range(200):
            supports = {}
            for c in s.contexts:
                tuples = list(itertools.product((0, 1), repeat=len(c)))
                keep = rng.random(len(tuples)) < 0.5
                keep[rng.integers(len(tuples))] = True
                supports[c] = frozenset(t for t, k in zip(tuples, keep) if k)
            assert_same_chains(PossibilisticBehavior(s, supports))

    @pytest.mark.parametrize("contexts", [((1, 1), (2, 3)), ((1, 1, 2), (2, 3)),
                                          ((1, 2), (3, 3))])
    def test_context_naming_a_measurement_twice(self, contexts):
        # the chains are compared on well-formed scenarios only: one whose
        # context names a measurement twice is rejected before any chain runs
        twice = next(c for c in contexts if len(set(c)) < len(c))
        with pytest.raises(ScenarioError, match=re.escape(f"context {twice} names")):
            Scenario((1, 2, 3), contexts)

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_seed_values_off_the_table(self, value):
        # equal to the outcome 1, so they are outcomes and seed a chain
        rng = np.random.default_rng(31)
        for n in range(3, 8):
            pb = random_cycle_behavior(n, rng)
            for m in pb.scenario.measurements:
                assert propagate_chain(pb, m, value) == fixpoint_propagate_chain(pb, m, value)

    @pytest.mark.parametrize("value", [None, 2, -1, 0.5])
    def test_seed_value_outside_the_outcomes(self, value):
        rng = np.random.default_rng(31)
        for n in range(3, 8):
            pb = random_cycle_behavior(n, rng)
            for m in pb.scenario.measurements:
                with pytest.raises(ScenarioError, match="not one of the outcomes"):
                    propagate_chain(pb, m, value)

    @pytest.mark.parametrize("generator, sizes", [
        (unified_ncycle_behavior, range(4, 17)),
        (odd_ncycle_behavior, range(5, 17, 2)),
        (even_ncycle_behavior, range(4, 17, 2)),
    ], ids=["unified", "odd", "even"])
    def test_generators_under_flip_masks(self, generator, sizes):
        for n in sizes:
            rng = np.random.default_rng([19, n])
            assert_same_chains(generator(n))
            for _ in range(3):
                assert_same_chains(relabel(generator(n), random_flips(n, rng)))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_relabel_and_decision_on_random_supports(self, n):
        rng = np.random.default_rng([23, n])
        for _ in range(12):
            pb = random_cycle_behavior(n, rng)
            mask = random_flips(n, rng)
            out = relabel(pb, mask)
            assert out.supports == reference_relabel(pb, mask)
            assert relabel(out, mask) == pb
            assert_same_verdict(out)

    def test_backward_chain_order_at_small_n(self):
        for n in range(4, 31):
            pb = unified_ncycle_behavior(n)
            res = fixpoint_propagate_chain(pb, n, 1)
            assert res.steps == tuple((m, 1) for m in range(n, 0, -1))
            assert propagate_chain(pb, n, 1) == res and not res.conflicted

    def test_unknown_measurement(self):
        with pytest.raises(ScenarioError):
            fixpoint_propagate_chain(unified_ncycle_behavior(5), 9, 0)


def moved(mask, c, t):
    return tuple(1 - v if mask.flipped(m) else v for m, v in zip(c, t))


class TestTrustedRelabel:
    """A relabel on binary pairs skips validation: it must build what validation would."""

    @pytest.mark.parametrize("n", [*range(3, 13), 17, 24, 40])
    def test_equals_a_validated_rebuild(self, n):
        rng = np.random.default_rng([29, n])
        s = make_cycle_scenario(n)
        for _ in range(8):
            c = s.contexts[rng.integers(n)]
            required = (c, tuple(int(v) for v in rng.integers(0, 2, 2)))
            pb = PossibilisticBehavior(s, random_cycle_behavior(n, rng).supports,
                                       required=required)
            mask = random_flips(n, rng)
            r = relabel(pb, mask)
            rebuilt = PossibilisticBehavior(s, dict(r.supports), required=r.required)
            assert r == rebuilt and r.supports == reference_relabel(pb, mask)
            assert r._masks == rebuilt._masks and len(r._masks) == n
            assert r.required == rebuilt.required == (c, moved(mask, c, required[1]))
            assert r.kind is None and relabel(r, mask) == pb
            with pytest.raises(TypeError):
                r.supports[c] = frozenset({(0, 0)})
            if n <= 10:
                assert_same_verdict(r)
            assert_same_chains(r)

    def test_three_outcome_cycle_takes_the_general_path(self):
        # measurement 1 is never flipped, so it alone may take the outcome 2,
        # first in both of its contexts
        n = 6
        s = Scenario(tuple(range(1, n + 1)), make_cycle_scenario(n).contexts, outcomes=(0, 1, 2))
        rng = np.random.default_rng(37)
        seen = set()
        for _ in range(30):
            supports = {}
            for c in s.contexts:
                tuples = PAIRS + [(2, 0), (2, 1)] if 1 in c else PAIRS
                keep = rng.random(len(tuples)) < 0.5
                keep[rng.integers(len(tuples))] = True
                supports[c] = frozenset(t for t, k in zip(tuples, keep) if k)
            pb = PossibilisticBehavior(s, supports, required=((1, n), (2, 0)))
            mask = FlipMask({1: False, **{m: bool(rng.integers(2)) for m in range(2, n + 1)}})
            r = relabel(pb, mask)
            assert pb._masks is None and r._masks is None
            assert r == PossibilisticBehavior(s, dict(r.supports))
            assert r.supports == reference_relabel(pb, mask)
            assert r.required == ((1, n), moved(mask, (1, n), (2, 0)))
            for m in s.measurements:
                for v in s.outcomes:
                    assert propagate_chain(r, m, v) == fixpoint_propagate_chain(r, m, v)
            with pytest.raises(ScenarioError, match="binary n-cycle scenarios only"):
                is_logically_contextual(r)
            seen.add(enumerate_contextuality(r).contextual)
        assert seen == {False, True}


def random_realization(n, dim, seed):
    rng = np.random.default_rng(seed)

    def unit(shape):
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return v / np.linalg.norm(v)

    return QuantumRealization(dim, unit(dim), {i: unit((dim, 1)) for i in range(1, n + 1)})


def kcbs_cycled(n):
    # friend i measures KCBS vector (i - 1) mod 5 + 1; for n = 6, 7 every
    # context, the closing one included, is still an orthogonal or equal pair
    k = kcbs_realization()
    return QuantumRealization(3, k.state, {i: k.frames[(i - 1) % 5 + 1] for i in range(1, n + 1)})


def searched_realization(n, dim):
    return find_quantum_realization(make_cycle_scenario(n), unified_ncycle_behavior(n),
                                    dim, seed=1)


def rotated(r, seed):
    """The realization in a seeded random basis."""
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.normal(size=(r.dim, r.dim)) + 1j * rng.normal(size=(r.dim, r.dim)))
    return QuantumRealization(r.dim, v @ r.state, {i: v @ f for i, f in r.frames.items()})


CERTIFICATE_CASES = [
    ("kcbs", 5, lambda: kcbs_cycled(5)),
    ("kcbs", 6, lambda: kcbs_cycled(6)),
    ("kcbs", 7, lambda: kcbs_cycled(7)),
    ("searched", 6, lambda: searched_realization(6, 4)),
    ("searched", 7, lambda: searched_realization(7, 3)),
    # rank-2 frames whose F F^dag is not bitwise Hermitian in this basis
    ("rotated", 5, lambda: rotated(searched_realization(5, 3), 1)),
    ("random", 5, lambda: random_realization(5, 3, 17)),
    ("random", 6, lambda: random_realization(6, 4, 17)),
    ("random", 7, lambda: random_realization(7, 3, 17)),
]


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def kron_unitary(p1, i, n):
    """U_i = P (x) X_i + (1 - P) (x) 1 on system (x) A_1 (x) ... (x) A_n."""
    flip = keep = np.eye(1, dtype=complex)
    for k in range(1, n + 1):
        flip = np.kron(flip, _X if k == i else _I2)
        keep = np.kron(keep, _I2)
    return np.kron(p1, flip) + np.kron(np.eye(p1.shape[0]) - p1, keep)


class TestDenseGates:
    @pytest.mark.parametrize("kind", ["kcbs", "random"])
    def test_measurement_unitary_is_the_kronecker_form(self, kind):
        r = kcbs_realization() if kind == "kcbs" else random_realization(5, 3, 41)
        assert np.iscomplexobj(r.projector(1))
        for i in range(1, 6):
            u = measurement_unitary(r, i, 5)
            assert u.dtype == complex
            assert np.array_equal(u, kron_unitary(r.projector(i), i, 5))

    def test_missing_friend_is_a_protocol_error(self, kcbs):
        with pytest.raises(ProtocolError,
                           match=r"realization has no measurement for friends \[5\]"):
            measurement_unitary(first_four(kcbs), 5, 5)

    @pytest.mark.parametrize("kind", ["kcbs", "random"])
    def test_pair_gates_are_the_kronecker_form(self, kind):
        r = kcbs_realization() if kind == "kcbs" else random_realization(5, 3, 41)
        for i, j in [(1, 2), (1, 3), (2, 5)]:
            ui, uj = _pair_gates(r, i, j)
            assert np.array_equal(ui, kron_unitary(r.projector(i), 1, 2))
            assert np.array_equal(uj, kron_unitary(r.projector(j), 2, 2))


class TestDenseCommutationCertificates:
    @pytest.mark.parametrize("kind, n, make", CERTIFICATE_CASES,
                             ids=[f"{k}-n{n}" for k, n, _ in CERTIFICATE_CASES])
    def test_system_space_matches_dense(self, kind, n, make):
        r = make()
        if kind == "rotated":
            # the oracle's undo gates use P.conj().T, the pipeline applies P
            raw = [f @ f.conj().T for f in r.frames.values()]
            assert not all(np.array_equal(p, p.conj().T) for p in raw)
        fast, dense = commutation_certificates(r, n), dense_commutation_certificates(r, n)
        assert [e.label for e in fast.entries] == [e.label for e in dense.entries]
        assert [e.must_commute for e in fast.entries] == \
            [e.must_commute for e in dense.entries]
        for f, d in zip(fast.entries, dense.entries):
            # the block entry is reported per X-string, sqrt(2^n) below the dense norm
            value = f.norm * np.sqrt(2.0 ** n) if f.label.startswith("block") else f.norm
            if d.norm <= 1e-12:
                assert value <= 1e-12 and abs(value - d.norm) <= 1e-12
            else:
                assert abs(value - d.norm) <= 1e-12 * d.norm
        block = dense.entry(f"block U vs M{n}").norm
        if kind == "random":
            assert not fast.passed and block > 0.1
        else:
            assert fast.passed and dense.passed

    @pytest.mark.parametrize("build", [build_protocol, build_counterfactual_protocol,
                                       build_measure_undo_protocol])
    def test_simulate_matches_dense_gate_product(self, kcbs, build):
        p = build(5)
        stages = dense_stages(simulate(p, kcbs))
        state = stages[0]
        for st in p.steps:
            g = measurement_unitary(kcbs, st.friend, 5)
            state = (g.conj().T if st.kind == "undo" else g) @ state
        np.testing.assert_allclose(stages[-1], state, rtol=0, atol=1e-12)


SCHEDULES = (build_protocol, build_counterfactual_protocol, build_measure_undo_protocol)
SIMULATION_CASES = (
    [("kcbs", 5, 3)]
    + [("searched", n, dim) for n in range(5, 13) for dim in (3, 4) if (n, dim) != (12, 3)]
    + [("random", n, 3) for n in range(5, 13)]
)


class TestDenseSimulate:
    # the d = 3 search fails at n = 12; every other searched case is a
    # commuting realization, and the random ones are not
    @pytest.mark.parametrize("kind, n, dim", SIMULATION_CASES,
                             ids=[f"{k}-n{n}-d{d}" for k, n, d in SIMULATION_CASES])
    def test_branches_match_dense_states(self, kind, n, dim):
        if kind == "kcbs":
            r = kcbs_realization()
        elif kind == "searched":
            r = searched_realization(n, dim)
            assert isinstance(r, QuantumRealization)
        else:
            r = random_realization(n, dim, 23)
        for build in SCHEDULES:
            p = build(n)
            fast, dense = simulate(p, r), dense_simulate(p, r)
            assert fast.protocol is dense.protocol is p
            got = dense_stages(fast)
            assert len(got) == len(dense.states) == len(p.steps) + 1
            for g, want in zip(got, dense.states):
                np.testing.assert_allclose(g, want, rtol=0, atol=1e-12)
            assert fast.truncation_at("final") <= 1e-12
        if kind == "random":
            # nothing cancels: the branches outgrow any commuting schedule's handful
            widest = max(len(b.keys) for b in simulate(build_protocol(n), r).stages)
            assert widest >= 2 ** (n - 2)

    def test_norm_drift_raises(self, kcbs, monkeypatch):
        # half a projector makes the first gate non-unitary
        real = QuantumRealization.projector
        monkeypatch.setattr(QuantumRealization, "projector",
                            lambda self, i: 0.5 * real(self, i))
        with pytest.raises(ProtocolError, match="norm drifted to .* at step M1"):
            dense_simulate(build_protocol(5), kcbs)
