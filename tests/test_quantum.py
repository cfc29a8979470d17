import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from cyclectx import jsonio
from cyclectx.linalg import ALG_TOL
from cyclectx.ncycle import odd_ncycle_behavior, unified_ncycle_behavior
from cyclectx.oracles import exhaustive_support_check, projection_sequential
from cyclectx.quantum import (
    NoncommutingError,
    PairDistribution,
    QuantumRealization,
    RealizationError,
    behavior_from_realization,
    born_pair,
    find_quantum_realization,
    kcbs_realization,
    realization_from_doc,
    realization_to_doc,
    _accepted,
    _pair_tables,
)
from cyclectx.scenario import (
    Scenario,
    check_no_disturbance,
    make_cycle_scenario,
    possibilistic_collapse,
    supports_within,
)
from linalg_reference import commutator_norm


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

    def test_one_shared_read_only_instance(self):
        r = kcbs_realization()
        assert kcbs_realization() is r
        assert not r.state.flags.writeable
        assert all(not f.flags.writeable for f in r.frames.values())
        assert all(not v.flags.writeable for v in r.vectors.values())
        with pytest.raises(ValueError, match="read-only"):
            r.state[0] = 5
        with pytest.raises(TypeError):
            r.frames[1] = np.eye(3)[:, :1]


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
        assert check_no_disturbance(behavior_from_realization(kcbs, cycle5))

    def test_tables_normalized(self, kcbs, cycle5):
        b = behavior_from_realization(kcbs, cycle5)
        for c in cycle5.contexts:
            assert abs(sum(b.tables[c].values()) - 1) < 1e-12

    def test_tables_built_without_pair_distributions(self, kcbs, cycle5, monkeypatch):
        def unreachable(self):
            raise AssertionError("a PairDistribution was built")

        want = {c: born_pair(kcbs, *c).probabilities for c in cycle5.contexts}
        monkeypatch.setattr(PairDistribution, "__post_init__", unreachable)
        assert behavior_from_realization(kcbs, cycle5).tables == want

    @pytest.mark.parametrize("state", [np.full(3, np.nan), np.array([1.1, 0.0, 0.0])],
                             ids=["nan", "unnormalized"])
    def test_bad_table_is_a_realization_error(self, kcbs, cycle5, state):
        # bypass the constructor's state check to exercise the table check
        r = QuantumRealization(3, kcbs.state, kcbs.frames)
        object.__setattr__(r, "state", state.astype(complex))
        with pytest.raises(RealizationError):
            behavior_from_realization(r, cycle5)
        assert _accepted(cycle5, odd_ncycle_behavior(5), r) is False


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

    def test_state_is_a_read_only_complex_copy(self, kcbs):
        s = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        r = QuantumRealization(3, s, dict(kcbs.frames))
        s[0] = 5.0
        assert r.state is not s
        assert r.state.dtype == complex
        assert r.state.tolist() == [1 / np.sqrt(3.0)] * 3
        assert not r.state.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            r.state[0] = 5

    def test_vectors_view_requires_rank_one(self, kcbs):
        frames = dict(kcbs.frames)
        frames[1] = np.eye(3, dtype=complex)[:, :2]
        r = QuantumRealization(3, kcbs.state, frames)
        with pytest.raises(RealizationError):
            _ = r.vectors

    def test_numpy_integer_dim_is_kept_as_int(self, kcbs):
        r = QuantumRealization(np.int64(3), kcbs.state, dict(kcbs.frames))
        assert type(r.dim) is int and r.dim == 3
        doc = realization_to_doc(r)
        back = realization_from_doc(json.loads(jsonio.dumps(doc)))
        assert realization_to_doc(back) == doc == realization_to_doc(kcbs)

    @pytest.mark.parametrize("dim", [3.0, "3"])
    def test_non_integer_dim_rejected(self, kcbs, dim):
        with pytest.raises(RealizationError, match=f"dim must be an integer, got {dim!r}"):
            QuantumRealization(dim, kcbs.state, dict(kcbs.frames))

    @pytest.mark.parametrize("call, phrase", [
        (lambda k: QuantumRealization(1, np.ones(1), {1: np.eye(1)}), "dimension must be at least 2"),
        (lambda k: QuantumRealization(3, k.state[:2], dict(k.frames)), "state must have shape"),
        (lambda k: behavior_from_realization(k, Scenario((1, 2, 3), ((1, 2, 3),))),
         "only two-measurement contexts"),
        (lambda k: find_quantum_realization(make_cycle_scenario(5), odd_ncycle_behavior(5), 1),
         "dimension must be at least 2"),
    ], ids=["dim-1", "state-shape", "three-measurement-context", "search-dim-1"])
    def test_typed_errors(self, kcbs, call, phrase):
        with pytest.raises(RealizationError, match=phrase):
            call(kcbs)


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

    def test_short_vector_rejected(self, kcbs):
        doc = realization_to_doc(kcbs)
        doc["vectors"]["3"] = doc["vectors"]["3"][:2]
        with pytest.raises(RealizationError, match="measurement 3 .*length"):
            realization_from_doc(doc)

    def test_short_frame_column_rejected(self, kcbs):
        frames = dict(kcbs.frames)
        frames[1] = np.eye(3, dtype=complex)[:, :2]
        doc = realization_to_doc(QuantumRealization(3, kcbs.state, frames))
        doc["frames"]["1"][1] = doc["frames"]["1"][1][:2]
        with pytest.raises(RealizationError, match="measurement 1 .*length"):
            realization_from_doc(doc)

    @pytest.mark.parametrize("entry", [[0.5], [0.5, 0.0, 1.0], ["a", 0.0], None])
    def test_entry_not_a_complex_pair_rejected(self, kcbs, entry):
        doc = realization_to_doc(kcbs)
        doc["vectors"]["4"][1] = entry
        with pytest.raises(RealizationError, match="measurement 4: .*pair"):
            realization_from_doc(doc)

    @pytest.mark.parametrize("value", [5, None, 1.5])
    def test_frame_not_a_list_of_columns_rejected(self, kcbs, value):
        frames = dict(kcbs.frames)
        frames[1] = np.eye(3, dtype=complex)[:, :2]
        doc = realization_to_doc(QuantumRealization(3, kcbs.state, frames))
        doc["frames"]["2"] = value
        with pytest.raises(RealizationError, match="measurement 2: .*list of columns"):
            realization_from_doc(doc)

    @pytest.mark.parametrize("dim", ["x", 3.5, 3.0, "3", None])
    def test_non_integer_dim_rejected(self, kcbs, dim):
        doc = realization_to_doc(kcbs)
        doc["dim"] = dim
        with pytest.raises(RealizationError, match="dim must be an integer"):
            realization_from_doc(doc)

    @pytest.mark.parametrize("key", ["dim", "state"])
    def test_missing_key_rejected(self, kcbs, key):
        doc = realization_to_doc(kcbs)
        del doc[key]
        with pytest.raises(RealizationError, match=f"needs a '{key}' entry"):
            realization_from_doc(doc)

    def test_non_mapping_document_rejected(self, kcbs):
        with pytest.raises(RealizationError, match="must be a mapping, got list"):
            realization_from_doc([realization_to_doc(kcbs)])

    def test_numpy_integer_dim_accepted(self, kcbs):
        doc = realization_to_doc(kcbs)
        doc["dim"] = np.int64(3)
        assert realization_from_doc(doc).dim == 3

    @pytest.mark.parametrize("edit", ["drop", "list"])
    def test_missing_measurements_rejected(self, kcbs, edit):
        doc = realization_to_doc(kcbs)
        vectors = doc.pop("vectors")
        if edit == "list":
            doc["frames"] = [vectors["1"]]
        with pytest.raises(RealizationError, match="'vectors' or 'frames' mapping"):
            realization_from_doc(doc)

    def test_non_integer_label_rejected(self, kcbs):
        doc = realization_to_doc(kcbs)
        doc["vectors"]["x2"] = doc["vectors"].pop("2")
        with pytest.raises(RealizationError, match="label 'x2'"):
            realization_from_doc(doc)


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
            ff = f @ f.conj().T
            assert np.array_equal(p, (ff + ff.conj().T) / 2)
            assert np.array_equal(r.outcome_projector(i, 0), np.eye(r.dim) - p)
            for get in (lambda: r.projector(i), lambda: r.outcome_projector(i, 0),
                        lambda: r.frames[i]):
                a = get()
                assert get() is a
                with pytest.raises(ValueError):
                    a[0, 0] = 0.5
            assert r.outcome_projector(i, 1) is p

    @pytest.mark.parametrize("case", ["kcbs", "fixtures", "rotated"])
    def test_projectors_are_exactly_hermitian(self, case):
        # the n = 15 fixture and the rotated n = 5 fixture have an F F^dag
        # that is not bitwise Hermitian, so the symmetrization is exercised
        doc = json.loads(FIXTURES.read_text(encoding="utf-8"))["realizations"]
        realizations, skewed = {
            "kcbs": ({5: kcbs_realization()}, None),
            "fixtures": ({int(n): realization_from_doc(d) for n, d in doc.items()}, 15),
            "rotated": ({n: conjugated(realization_from_doc(doc[str(n)]), 1, n)
                         for n in (5, 6, 7)}, 5),
        }[case]
        for n, r in realizations.items():
            raw_hermitian = True
            for i, f in r.frames.items():
                p, q, ff = r.projector(i), r.outcome_projector(i, 0), f @ f.conj().T
                assert np.array_equal(p, p.conj().T) and np.array_equal(q, q.conj().T)
                assert np.abs(p - ff).max() <= 1e-15
                raw_hermitian &= np.array_equal(ff, ff.conj().T)
            if n == skewed:
                assert not raw_hermitian
            elif case == "kcbs":
                assert raw_hermitian

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

    @pytest.mark.parametrize("basis", ["given", "conjugated"])
    def test_born_pair_equals_behavior_and_trace_oracle_tables_bit_for_bit(self, basis):
        # verify-all's C8 reads the pair tables the trace oracle returns in
        # place of born_pair; on KCBS, Hardy's n = 4 start and the chain
        # starts the search accepts at n = 6, 7, 8 they are the same bits
        cases = [(5, kcbs_realization())]
        for n in (4, 6, 7, 8):
            found = find_quantum_realization(make_cycle_scenario(n), unified_ncycle_behavior(n),
                                             3 if n % 2 else 4, seed=1)
            assert isinstance(found, QuantumRealization), n
            cases.append((n, found))
        if basis == "conjugated":
            cases = [(n, conjugated(r, 13, n)) for n, r in cases]
        for n, r in cases:
            s = make_cycle_scenario(n)
            tables = behavior_from_realization(r, s).tables
            pipeline = exhaustive_support_check(r, s).pipeline_value
            for c in s.contexts:
                for t, p in born_pair(r, *c).probabilities.items():
                    assert p.hex() == tables[c][t].hex() == pipeline[(c, t)].hex(), (n, c, t)

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


def frame_zoo(d, rng):
    """Frames of every rank 1..d: real and complex random frames, and axis
    frames holding -0.0 and imaginary units. Labels run in shuffled order."""
    frames = []
    for k in range(1, d + 1):
        real = np.linalg.qr(rng.standard_normal((d, k)))[0]
        cplx = np.linalg.qr(rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k)))[0]
        frames += [real, cplx, -np.eye(d)[:, d - k:], 1j * np.eye(d)[:, :k]]
    labels = rng.permutation(len(frames)) + 1
    return {int(i): f for i, f in zip(labels, frames)}


class TestProjectorAlgebra:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_stacks_equal_per_frame_reference_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        frames = frame_zoo(d, rng)
        r = QuantumRealization(d, np.eye(d)[0], frames)
        assert sorted(r.rank(i) for i in r.frames) == sorted(list(range(1, d + 1)) * 4)
        for i, f in frames.items():
            f = np.array(f, dtype=complex)
            ff = f @ f.conj().T
            want = (ff + ff.conj().T) / 2
            # bytes, not values, so that a zero's sign is compared too
            assert r.projector(i).tobytes() == want.tobytes(), i
            assert r.outcome_projector(i, 0).tobytes() == (np.eye(d) - want).tobytes(), i

    def test_commutator_norms_in_the_given_order(self, kcbs):
        pairs = [(1, 3), (2, 3), (5, 2), (3, 1), (4, 2)]
        norms = kcbs.commutator_norms(pairs)
        assert norms.shape == (5,)
        for (a, b), norm in zip(pairs, norms):
            pa, pb = kcbs.projector(a), kcbs.projector(b)
            assert norm == np.linalg.norm(pa @ pb - pb @ pa, axis=(0, 1))
        assert norms[0] == norms[3] > 0.1 and norms[1] <= ALG_TOL
        assert kcbs.commutator_norms([]).shape == (0,)

    def test_commutator_norms_equal_np_linalg_norm_bit_for_bit(self):
        for r in pair_cases():
            pairs = list(itertools.permutations(sorted(r.frames), 2))
            pi = np.stack([r.projector(a) for a, _ in pairs])
            pj = np.stack([r.projector(b) for _, b in pairs])
            want = np.linalg.norm(pi @ pj - pj @ pi, axis=(1, 2))
            assert r.commutator_norms(pairs).tobytes() == want.tobytes()

    def test_noncommuting_error_names_the_first_bad_pair_given(self, kcbs):
        frames = dict(kcbs.frames)
        frames[3] = np.array([[0.6], [0.0], [0.8]], dtype=complex)
        r = QuantumRealization(3, kcbs.state, frames)
        with pytest.raises(NoncommutingError, match="measurements 4 and 3 do not commute"):
            _pair_tables(r, [(1, 2), (4, 3), (2, 3)])
        with pytest.raises(NoncommutingError, match="measurements 2 and 3 do not commute"):
            _pair_tables(r, [(1, 2), (2, 3), (4, 3)])
        assert _pair_tables(r, [(4, 5), (1, 2)]) == [born_pair(r, 4, 5).probabilities,
                                                     born_pair(r, 1, 2).probabilities]

    def test_missing_labels_are_realization_errors(self, kcbs):
        with pytest.raises(RealizationError, match=r"no measurement for labels \[9\]"):
            born_pair(kcbs, 1, 9)
        with pytest.raises(RealizationError, match=r"no measurement for labels \[6\]"):
            behavior_from_realization(kcbs, make_cycle_scenario(6))
        with pytest.raises(RealizationError, match=r"no measurement for labels \[0, 7\]"):
            kcbs.commutator_norms([(7, 1), (0, 2), (7, 0)])
