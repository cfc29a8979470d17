import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from cyclectx.linalg import commutator_norm
from cyclectx.ncycle import odd_ncycle_behavior
from cyclectx.oracles import projection_sequential
from cyclectx.quantum import (
    NoncommutingError,
    PairDistribution,
    QuantumRealization,
    RealizationError,
    behavior_from_realization,
    born_pair,
    kcbs_realization,
    realization_from_doc,
    realization_to_doc,
)
from cyclectx.scenario import (
    check_no_disturbance,
    make_cycle_scenario,
    possibilistic_collapse,
    supports_within,
)


class TestKcbsRealization:
    def test_normalization(self, kcbs):
        assert abs(np.linalg.norm(kcbs.state) - 1) < 1e-12
        for i in range(1, 6):
            assert abs(np.linalg.norm(kcbs.vectors[i]) - 1) < 1e-12

    def test_adjacent_orthogonality(self, kcbs):
        v = kcbs.vectors
        for i in range(1, 6):
            j = i % 5 + 1
            assert abs(np.vdot(v[i], v[j])) < 1e-15

    def test_state_overlap_with_v1(self, kcbs):
        assert abs(np.vdot(kcbs.vectors[1], kcbs.state) - 1 / 3) < 1e-15

    def test_outcome_marginals(self, kcbs):
        expected = {1: 1 / 9, 2: 2 / 3, 3: 1 / 3, 4: 1 / 3, 5: 2 / 3}
        for i, want in expected.items():
            got = abs(np.vdot(kcbs.vectors[i], kcbs.state)) ** 2
            assert abs(got - want) < 1e-12


class TestBornPair:
    def test_forbidden_entries(self, kcbs):
        assert born_pair(kcbs, 1, 2)[(1, 1)] <= 1e-15
        assert born_pair(kcbs, 2, 3)[(0, 0)] <= 1e-15
        assert born_pair(kcbs, 3, 4)[(1, 1)] <= 1e-15
        assert born_pair(kcbs, 4, 5)[(0, 0)] <= 1e-15

    def test_closing_pair_in_argument_order(self, kcbs):
        # distribution keys follow (a_5, a_1) when called as (5, 1)
        assert abs(born_pair(kcbs, 5, 1)[(0, 1)] - 1 / 9) < 1e-12
        assert abs(born_pair(kcbs, 1, 5)[(1, 0)] - 1 / 9) < 1e-12

    def test_full_table_context_12(self, kcbs):
        # frozen from the independent trace computation
        table = born_pair(kcbs, 1, 2)
        assert abs(table[(0, 0)] - 2 / 9) < 1e-12
        assert abs(table[(0, 1)] - 2 / 3) < 1e-12
        assert abs(table[(1, 0)] - 1 / 9) < 1e-12
        assert table[(1, 1)] <= 1e-15

    def test_noncommuting_pair_rejected(self, kcbs):
        with pytest.raises(NoncommutingError):
            born_pair(kcbs, 1, 3)

    def test_marginals_independent_of_partner(self, kcbs):
        # sum_b p(a_i=1, b) equals |<v_i|state>|^2 for both neighbors
        for i in range(1, 6):
            want = abs(np.vdot(kcbs.vectors[i], kcbs.state)) ** 2
            left, right = (i - 2) % 5 + 1, i % 5 + 1
            for j in (left, right):
                t = born_pair(kcbs, i, j)
                got = t[(1, 0)] + t[(1, 1)]
                assert abs(got - want) < 1e-12


class TestBehaviorFromRealization:
    def test_collapse_consistent_with_alternating_pattern(self, kcbs, cycle5):
        b = behavior_from_realization(kcbs, cycle5)
        pb = possibilistic_collapse(b)
        target = odd_ncycle_behavior(5)
        assert supports_within(pb, target)
        assert pb.possible(*target.required)

    def test_no_disturbance(self, kcbs, cycle5):
        assert check_no_disturbance(behavior_from_realization(kcbs, cycle5), 1e-12)

    def test_tables_normalized(self, kcbs, cycle5):
        b = behavior_from_realization(kcbs, cycle5)
        for c in cycle5.contexts:
            assert abs(sum(b.tables[c].values()) - 1) < 1e-12


def _pair_norms(r, s):
    """Commutator norms of the projector pairs inside and outside contexts."""
    ctx_pairs = {tuple(sorted(c)) for c in s.contexts}
    norms = {p: commutator_norm(r.projector(p[0]), r.projector(p[1]))
             for p in itertools.combinations(sorted(s.measurements), 2)}
    return ({p: v for p, v in norms.items() if p in ctx_pairs},
            {p: v for p, v in norms.items() if p not in ctx_pairs})


class TestVerifyCompatibility:
    def test_kcbs_contexts_commute(self, kcbs, cycle5):
        context_norms, _ = _pair_norms(kcbs, cycle5)
        assert len(context_norms) == 5
        assert all(v <= 1e-12 for v in context_norms.values())

    def test_noncontext_pairs_reported(self, kcbs, cycle5):
        _, noncontext_norms = _pair_norms(kcbs, cycle5)
        assert noncontext_norms[(1, 3)] > 0.1
        assert set(noncontext_norms) == {(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)}


class TestPairDistribution:
    def test_tiny_negative_clamped(self):
        d = PairDistribution((1, 2), {(0, 0): 1.0, (0, 1): -1e-16, (1, 0): 0.0, (1, 1): 0.0})
        assert d[(0, 1)] == 0.0

    def test_large_negative_rejected(self):
        with pytest.raises(RealizationError):
            PairDistribution((1, 2), {(0, 0): 1.0, (0, 1): -1e-3})

    def test_bad_sum_rejected(self):
        with pytest.raises(RealizationError):
            PairDistribution((1, 2), {(0, 0): 0.5, (0, 1): 0.1})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(RealizationError, match="non-finite"):
            PairDistribution((1, 2), {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.0, (1, 1): bad})


class TestRealizationValidation:
    def test_unnormalized_state(self):
        with pytest.raises(RealizationError):
            QuantumRealization(3, np.array([1.0, 1.0, 0.0]),
                               {1: np.eye(3)[:, :1]})

    def test_non_orthonormal_frame(self):
        f = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(RealizationError):
            QuantumRealization(3, np.array([1.0, 0, 0]), {1: f})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_nonfinite_state_rejected(self, kcbs, bad):
        state = kcbs.state.copy()
        state[0] = bad
        with pytest.raises(RealizationError, match="non-finite"):
            QuantumRealization(3, state, dict(kcbs.frames))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0)])
    def test_nonfinite_frame_rejected(self, kcbs, bad):
        frames = dict(kcbs.frames)
        frames[2] = np.array(frames[2], dtype=complex)
        frames[2][1, 0] = bad
        with pytest.raises(RealizationError, match="frame 2 has non-finite"):
            QuantumRealization(3, kcbs.state, frames)

    @pytest.mark.parametrize("where", ["state", "vectors"])
    def test_nan_in_json_doc_rejected(self, kcbs, where):
        doc = realization_to_doc(kcbs)
        if where == "state":
            doc["state"][1][0] = float("nan")
        else:
            doc["vectors"]["3"][2][1] = float("nan")
        text = json.dumps(doc)
        assert "NaN" in text
        with pytest.raises(RealizationError, match="non-finite"):
            realization_from_doc(json.loads(text))

    def test_vectors_view_requires_rank_one(self, kcbs):
        frames = dict(kcbs.frames)
        frames[1] = np.eye(3, dtype=complex)[:, :2]
        r = QuantumRealization(3, kcbs.state, frames)
        with pytest.raises(RealizationError):
            _ = r.vectors


class TestProjectors:
    def test_built_once_and_read_only(self, kcbs):
        frames = dict(kcbs.frames)
        frames[1] = np.eye(3, dtype=complex)[:, :2]
        r = QuantumRealization(3, kcbs.state, frames)
        for i in sorted(r.frames):
            f = np.asarray(r.frames[i], dtype=complex)
            p = r.projector(i)
            assert np.array_equal(p, f @ f.conj().T)
            assert r.projector(i) is p and r.outcome_projector(i, 1) is p
            assert np.array_equal(r.outcome_projector(i, 0), np.eye(3) - p)
            for q in (p, r.outcome_projector(i, 0)):
                with pytest.raises(ValueError):
                    q[0, 0] = 0.5

    def test_frames_are_a_read_only_copy(self):
        f = np.eye(3, dtype=complex)[:, :1]
        r = QuantumRealization(3, np.array([0, 1.0, 0]), {1: f})
        f[:, 0] = [0, 1, 0]
        assert np.array_equal(r.frames[1], np.eye(3)[:, :1])
        with pytest.raises(ValueError):
            r.frames[1][0, 0] = 0.5
        with pytest.raises(TypeError):
            r.frames[1] = f
        assert np.array_equal(r.projector(1), r.frames[1] @ r.frames[1].conj().T)

    def test_missing_label_is_key_error(self, kcbs):
        with pytest.raises(KeyError):
            kcbs.projector(6)


class TestSerialization:
    def test_rank_one_uses_vectors_key(self, kcbs):
        doc = realization_to_doc(kcbs)
        assert "vectors" in doc and "frames" not in doc
        assert doc["dim"] == 3
        assert doc["state"][0] == [pytest.approx(1 / np.sqrt(3)), 0.0]
        back = realization_from_doc(doc)
        for i in range(1, 6):
            np.testing.assert_allclose(back.vectors[i], kcbs.vectors[i], atol=0)

    def test_multirank_round_trip(self, kcbs):
        frames = dict(kcbs.frames)
        frames[1] = np.eye(3, dtype=complex)[:, :2]
        r = QuantumRealization(3, kcbs.state, frames)
        doc = realization_to_doc(r)
        assert "frames" in doc and "vectors" not in doc
        back = realization_from_doc(doc)
        np.testing.assert_allclose(back.projector(1), r.projector(1), atol=1e-15)
        np.testing.assert_allclose(back.projector(2), r.projector(2), atol=1e-15)


FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "realizations.json"


def random_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def conjugated(r, seed, n):
    """The realization in a seeded random basis, as the benchmark builds it."""
    v = random_unitary(r.dim, np.random.default_rng([seed, n]))
    return QuantumRealization(r.dim, v @ r.state,
                              {i: v @ np.asarray(f) for i, f in r.frames.items()})


def mixed_rank_realization(dim=4, seed=5):
    """Ranks 1, 2, dim - 1 and dim on one eigenbasis, labels given out of order.

    Every pair of projectors commutes, so all pairs of the 4-cycle have
    statistics.
    """
    rng = np.random.default_rng(seed)
    u = random_unitary(dim, rng)
    state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    frames = {3: u[:, 1:2], 1: u[:, 2:4], 4: u[:, :dim - 1], 2: u}
    return QuantumRealization(dim, state / np.linalg.norm(state), frames)


def pair_cases():
    doc = json.loads(FIXTURES.read_text(encoding="utf-8"))["realizations"]
    cases = [kcbs_realization(), mixed_rank_realization()]
    for seed in (1, 7, 33):
        cases += [conjugated(realization_from_doc(doc[str(n)]), seed, n) for n in range(5, 16)]
    return cases


def per_pair_formula(r, i, j):
    """One context's table computed pair by pair, as before batching."""
    return {(a, b): float(np.linalg.norm(
                r.outcome_projector(j, b) @ (r.outcome_projector(i, a) @ r.state)) ** 2)
            for a, b in itertools.product((0, 1), repeat=2)}


class TestBatchedRealization:
    def test_mixed_rank_projectors(self):
        r = mixed_rank_realization()
        assert [r.rank(i) for i in r.frames] == [1, 2, 3, 4]
        for i in r.frames:
            f = r.frames[i]
            p = r.projector(i)
            assert np.array_equal(p, f @ f.conj().T)
            assert np.array_equal(r.outcome_projector(i, 0), np.eye(r.dim) - p)
            assert np.array_equal(r.adjoint_projector(i), p.conj().T)
            for get in (lambda: r.projector(i), lambda: r.outcome_projector(i, 0),
                        lambda: r.adjoint_projector(i), lambda: r.frames[i]):
                a = get()
                assert get() is a
                with pytest.raises(ValueError):
                    a[0, 0] = 0.5
            assert r.outcome_projector(i, 1) is p

    def test_tables_match_born_pair_formula_and_oracle(self):
        for r in pair_cases():
            s = make_cycle_scenario(len(r.frames))
            b = behavior_from_realization(r, s)
            for c in s.contexts:
                table = born_pair(r, *c).probabilities
                assert b.tables[c] == table
                formula = per_pair_formula(r, *c)
                oracle = projection_sequential(r, c)
                for t, p in table.items():
                    assert abs(p - formula[t]) <= 1e-15
                    assert abs(p - oracle[t]) <= 1e-12

    def test_first_noncommuting_context_is_named(self, kcbs):
        # a generic vector 3 breaks contexts (2, 3) and (3, 4)
        frames = dict(kcbs.frames)
        frames[3] = np.array([[0.6], [0.0], [0.8]], dtype=complex)
        r = QuantumRealization(3, kcbs.state, frames)
        with pytest.raises(NoncommutingError, match="measurements 2 and 3 do not commute"):
            behavior_from_realization(r, make_cycle_scenario(5))
        with pytest.raises(NoncommutingError, match="measurements 4 and 3 do not commute"):
            born_pair(r, 4, 3)

    @pytest.mark.parametrize("first, second, message", [
        ("nonfinite", "skew", "frame 4 has non-finite entries"),
        ("skew", "nonfinite", "frame 4 is not orthonormal"),
        ("skew", "shape", "frame 4 is not orthonormal"),
        ("shape", "nonfinite", r"frame 4 has invalid shape \(3, 4\)"),
        ("nonfinite", "nonfinite", "frame 4 has non-finite entries"),
    ])
    def test_first_bad_frame_in_caller_order(self, kcbs, first, second, message):
        bad = {"nonfinite": np.array([[np.inf], [0], [0]], dtype=complex),
               "skew": np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex),
               "shape": np.zeros((3, 4), dtype=complex)}
        # the first bad frame in the caller's order is not the lowest label
        frames = {1: kcbs.frames[1], 4: bad[first], 3: kcbs.frames[3], 2: bad[second],
                  5: kcbs.frames[5]}
        with pytest.raises(RealizationError, match=message):
            QuantumRealization(3, kcbs.state, frames)
