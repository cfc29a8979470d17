import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from cyclectx import quantum
from cyclectx.linalg import ALG_TOL, normalized
from cyclectx.ewf import paradox_report
from cyclectx.ncycle import (
    FlipMask,
    even_ncycle_behavior,
    even_to_unified_mask,
    odd_ncycle_behavior,
    odd_to_unified_mask,
    relabel,
    unified_ncycle_behavior,
)
from cyclectx.quantum import (
    _PenaltyProblem,
    _candidate_starts,
    _ladder_flips,
    _levenberg_marquardt,
    _odd_plane_vectors,
    SearchFailure,
    behavior_from_realization,
    find_quantum_realization,
    realization_to_doc,
)
from cyclectx.scenario import (
    PossibilisticBehavior,
    make_cycle_scenario,
    possibilistic_collapse,
    supports_within,
)


def unified_problem(n, dim, ranks, margin=0.5):
    # a wide margin keeps the required-tuple hinge active at random points
    forb = tuple(((i, i + 1), (0, 1)) for i in range(1, n))
    req = (((1, n), (0, 1)),)
    ctxs = tuple((i, i + 1) for i in range(1, n)) + ((1, n),)
    return _PenaltyProblem(n, dim, ranks, forb, req, ctxs, margin=margin)


def opened_four_cycle():
    """The unified 4-cycle with context (1, 2) opened to full support: no
    relabeling of the ladder, so it has no exact start and is descended to."""
    unified = unified_ncycle_behavior(4)
    supports = dict(unified.supports)
    supports[(1, 2)] = frozenset(unified.scenario.tuples((1, 2)))
    return PossibilisticBehavior(unified.scenario, supports, required=unified.required)


class CountingProblem:
    """Wraps a problem and counts the residual evaluations that build a Jacobian."""

    def __init__(self, prob):
        self.prob, self.dim, self.jacobians = prob, prob.dim, 0

    def residual(self, x, jacobian=True):
        self.jacobians += jacobian
        return self.prob.residual(x, jacobian)


@pytest.fixture
def lm_calls(monkeypatch):
    """Per ``_levenberg_marquardt`` call of a search: (Jacobians built, log, iterations)."""
    calls = []
    lm = quantum._levenberg_marquardt

    def counted(prob, x0, max_iters):
        wrapped = CountingProblem(prob)
        x, r, log, it = lm(wrapped, x0, max_iters)
        calls.append((wrapped.jacobians, log, it))
        return x, r, log, it

    monkeypatch.setattr(quantum, "_levenberg_marquardt", counted)
    return calls


class TestGradient:
    @pytest.mark.parametrize("dim,ranks", [(3, (1, 1, 1, 1, 1)), (4, (2, 1, 2, 1, 3))])
    def test_matches_finite_differences(self, dim, ranks):
        prob = unified_problem(5, dim, ranks)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(prob.num_params())
        r, jac = prob.residual(x)
        assert r[-1] > 0
        h = 1e-6
        num = np.zeros_like(jac)
        for k in range(len(x)):
            xp = x.copy(); xp[k] += h
            xm = x.copy(); xm[k] -= h
            num[:, k] = (prob.residual(xp)[0] - prob.residual(xm)[0]) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(num))))
        assert np.max(np.abs(jac - num)) / scale < 1e-6


class TestDescent:
    def test_log_is_monotone(self):
        prob = unified_problem(5, 3, (1, 1, 1, 1, 1))
        x0 = np.random.default_rng(3).standard_normal(prob.num_params())
        _, r, log, _ = _levenberg_marquardt(prob, x0, 300)
        assert len(log) > 1 and log[-1] == float(r @ r)
        assert all(log[k + 1] <= log[k] for k in range(len(log) - 1))

    @pytest.mark.parametrize("dim,ranks", [(3, (1, 1, 1, 1, 1)), (4, (2, 1, 2, 1, 3))])
    def test_residual_without_jacobian_is_bit_identical(self, dim, ranks):
        prob = unified_problem(5, dim, ranks)
        rng = np.random.default_rng(12)
        for _ in range(5):
            x = rng.standard_normal(prob.num_params())
            r, jac = prob.residual(x)
            r_only, none = prob.residual(x, jacobian=False)
            assert jac is not None and none is None
            assert np.array_equal(r, r_only)

    def test_exact_start_builds_no_jacobian(self, lm_calls):
        # the accepted chain start is never descended from
        r = find_quantum_realization(make_cycle_scenario(6), unified_ncycle_behavior(6), 4,
                                     seed=1)
        assert not isinstance(r, SearchFailure)
        assert lm_calls == []

    def test_jacobian_only_where_a_step_is_taken(self, lm_calls):
        r = find_quantum_realization(make_cycle_scenario(4), opened_four_cycle(), 4, seed=1)
        assert not isinstance(r, SearchFailure)
        assert sum(it for _, _, it in lm_calls) > 0
        for jacobians, log, it in lm_calls:
            assert jacobians <= min(len(log), it)

    def test_floor_scales_with_residual_length(self):
        # at n = 100 the exact chain start sits at rounding level, above
        # 1e-30 in total but far below 1e-30 per residual entry
        n, dim = 100, 3
        target = unified_ncycle_behavior(n)
        base = unified_problem(n, dim, (1,) * n, margin=quantum.REQUIRED_MARGIN)
        start = quantum._chain_start(n, dim, _ladder_flips(target))
        ranks = tuple(start.rank(i) for i in range(1, n + 1))
        x0 = _PenaltyProblem.pack(start.state, [start.frames[i] for i in range(1, n + 1)])
        prob = CountingProblem(replace(base, ranks=ranks))
        _, r, log, it = _levenberg_marquardt(prob, x0, 100)
        assert 1e-30 < log[0] <= 1e-30 * len(r)
        assert (it, prob.jacobians) == (0, 0)
        found = find_quantum_realization(make_cycle_scenario(n), target, dim, seed=1)
        assert not isinstance(found, SearchFailure)
        assert paradox_report(found, n, target=target).verdict

    def test_iteration_budget_respected(self):
        prob = unified_problem(5, 3, (1, 1, 1, 1, 1))
        x0 = np.random.default_rng(4).standard_normal(prob.num_params())
        _, _, _, used = _levenberg_marquardt(prob, x0, 25)
        assert used <= 25


class TestFind:
    def test_alternating_five_cycle_dim3(self):
        s = make_cycle_scenario(5)
        target = odd_ncycle_behavior(5)
        r = find_quantum_realization(s, target, 3, seed=1)
        assert not isinstance(r, SearchFailure)
        assert all(r.rank(i) == 1 for i in r.frames)
        pb = possibilistic_collapse(behavior_from_realization(r, s))
        assert supports_within(pb, target)
        assert pb.possible(*target.required)

    def test_unified_four_cycle_dim4(self):
        s = make_cycle_scenario(4)
        target = unified_ncycle_behavior(4)
        r = find_quantum_realization(s, target, 4, seed=1)
        assert not isinstance(r, SearchFailure)
        b = behavior_from_realization(r, s)
        pb = possibilistic_collapse(b)
        assert supports_within(pb, target)
        assert pb.possible(*target.required)
        from cyclectx.scenario import check_no_disturbance

        assert check_no_disturbance(b, 1e-12)

    def test_unified_odd_cycle_uses_complement_frames(self):
        s = make_cycle_scenario(5)
        r = find_quantum_realization(s, unified_ncycle_behavior(5), 3, seed=1)
        assert not isinstance(r, SearchFailure)
        assert sorted(r.rank(i) for i in r.frames) == [1, 1, 2, 2, 2]

    def test_even_form_target(self):
        s = make_cycle_scenario(6)
        target = even_ncycle_behavior(6)
        r = find_quantum_realization(s, target, 4, seed=1)
        assert not isinstance(r, SearchFailure)
        pb = possibilistic_collapse(behavior_from_realization(r, s))
        assert supports_within(pb, target)
        assert pb.possible(*target.required)

    def test_dim2_five_cycle_fails_with_budget_report(self):
        s = make_cycle_scenario(5)
        out = find_quantum_realization(s, odd_ncycle_behavior(5), 2, seed=1, budget=1500)
        assert isinstance(out, SearchFailure)
        assert np.isfinite(out.best_objective)
        assert out.iterations_used <= 1500
        assert out.attempts >= 1

    def test_budget_bounds_every_iteration(self):
        # a target with no exact start needs iterations to descend
        out = find_quantum_realization(make_cycle_scenario(4), opened_four_cycle(), 4,
                                       seed=1, budget=1)
        assert isinstance(out, SearchFailure)
        assert out.iterations_used <= 1 and out.attempts == 1

    def test_exact_start_needs_one_iteration(self):
        out = find_quantum_realization(make_cycle_scenario(6), unified_ncycle_behavior(6), 4,
                                       seed=1, budget=1)
        assert not isinstance(out, SearchFailure)

    def test_infeasible_target_rejected_in_preprocessing(self):
        s = make_cycle_scenario(4)
        target = unified_ncycle_behavior(4)
        broken = dict(target.supports)
        broken[(1, 2)] = frozenset()
        # bypass the constructor invariant to exercise the defensive check
        bad = object.__new__(PossibilisticBehavior)
        object.__setattr__(bad, "scenario", target.scenario)
        object.__setattr__(bad, "supports", broken)
        object.__setattr__(bad, "kind", None)
        object.__setattr__(bad, "required", None)
        out = find_quantum_realization(s, bad, 4, seed=1)
        assert isinstance(out, SearchFailure)
        assert "infeasible" in out.message

    def test_deterministic_given_seed(self):
        s = make_cycle_scenario(4)
        target = unified_ncycle_behavior(4)
        a = find_quantum_realization(s, target, 4, seed=7)
        b = find_quantum_realization(s, target, 4, seed=7)
        assert realization_to_doc(a) == realization_to_doc(b)

    def test_scenario_mismatch_rejected(self):
        from cyclectx.quantum import RealizationError

        with pytest.raises(RealizationError):
            find_quantum_realization(make_cycle_scenario(4),
                                     unified_ncycle_behavior(5), 3)


def ladder_targets(n):
    """Unified, the parity pattern and two seeded relabelings of unified."""
    parity = odd_ncycle_behavior(n) if n % 2 == 1 else even_ncycle_behavior(n)
    targets = [unified_ncycle_behavior(n), parity]
    for k in range(2):
        rng = np.random.default_rng([n, k])
        mask = FlipMask({i: bool(rng.integers(2)) for i in range(1, n + 1)})
        targets.append(relabel(unified_ncycle_behavior(n), mask))
    return targets


class TestChainStart:
    @pytest.mark.parametrize("n", range(5, 17))
    def test_every_relabeled_ladder_in_one_iteration(self, n):
        s = make_cycle_scenario(n)
        for target in ladder_targets(n):
            for dim in (3, 4):
                r = find_quantum_realization(s, target, dim, seed=1, budget=1)
                assert not isinstance(r, SearchFailure), (target.kind, dim)
                pb = possibilistic_collapse(behavior_from_realization(r, s))
                assert supports_within(pb, target)
                assert pb.possible(*target.required)
                assert paradox_report(r, n, target=target).verdict

    @pytest.mark.parametrize("n", range(5, 17))
    def test_accepted_without_descent_as_the_cached_candidate(self, n, lm_calls):
        s = make_cycle_scenario(n)
        for target in ladder_targets(n):
            for dim in (3, 4):
                r = find_quantum_realization(s, target, dim, seed=1)
                assert not isinstance(r, SearchFailure), (target.kind, dim)
                assert r is quantum._chain_start(n, dim, _ladder_flips(target))
        assert lm_calls == []

    def test_accepted_start_builds_no_problem(self, monkeypatch, lm_calls):
        n, dim = 8, 4
        s, target = make_cycle_scenario(n), unified_ncycle_behavior(n)
        first = find_quantum_realization(s, target, dim, seed=1)      # fills the caches
        built, post_init = [], _PenaltyProblem.__post_init__

        def counted(self):
            built.append(self.n)
            post_init(self)

        monkeypatch.setattr(_PenaltyProblem, "__post_init__", counted)
        again = find_quantum_realization(s, target, dim, seed=2)
        assert realization_to_doc(again) == realization_to_doc(first)
        assert built == [] and lm_calls == []

    @pytest.mark.parametrize("n, dim", [(4, 4), (5, 3), (6, 4)])
    def test_rejected_start_falls_through_to_the_restarts(self, n, dim, monkeypatch):
        monkeypatch.setattr(quantum, "REQUIRED_MARGIN", 0.6)    # above every start
        calls, lm = [], quantum._levenberg_marquardt

        def recorded(prob, x0, max_iters):
            calls.append((prob.ranks, x0))
            return lm(prob, x0, max_iters)

        monkeypatch.setattr(quantum, "_levenberg_marquardt", recorded)
        out = find_quantum_realization(make_cycle_scenario(n), unified_ncycle_behavior(n), dim,
                                       seed=1, budget=10)
        assert isinstance(out, SearchFailure)
        ranks, x0 = next(_candidate_starts(unified_problem(n, dim, (1,) * n), 1))
        assert calls[0][0] == ranks and np.array_equal(calls[0][1], x0)
        assert out.attempts == len(calls)

    def test_zero_budget_tests_no_candidate(self, lm_calls):
        out = find_quantum_realization(make_cycle_scenario(7), unified_ncycle_behavior(7), 3,
                                       seed=1, budget=0)
        assert isinstance(out, SearchFailure)
        assert (out.attempts, out.iterations_used) == (0, 0)
        assert lm_calls == []

    def test_acceptance_reads_the_realized_behavior(self):
        s, kcbs = make_cycle_scenario(5), quantum.kcbs_realization()
        # KCBS realizes the alternating pattern, whose forbidden tuples the
        # unified target allows and whose allowed ones it forbids
        assert quantum._accepted(s, odd_ncycle_behavior(5), kcbs) is True
        assert quantum._accepted(s, unified_ncycle_behavior(5), kcbs) is False
        swapped = dict(kcbs.frames)
        swapped[1], swapped[3] = kcbs.frames[3], kcbs.frames[1]     # (3, 4) no longer commutes
        noncommuting = quantum.QuantumRealization(kcbs.dim, kcbs.state, swapped)
        assert quantum._accepted(s, odd_ncycle_behavior(5), noncommuting) is False

    def test_canonical_point_is_a_realization_or_none(self):
        n, dim = 5, 3
        prob = unified_problem(n, dim, (1,) * n)
        ranks, x0 = next(_candidate_starts(prob, 1))
        assert ranks == prob.ranks
        cand = quantum._canonical_point(prob, x0)
        assert np.array_equal(cand.state, normalized(x0[:dim] + 1j * x0[dim:2 * dim]))
        for i, z in enumerate(old_frames(prob, x0), start=1):
            assert np.array_equal(cand.frames[i], old_canonical_frame(z))
        x = x0.copy()
        x[-1] = np.nan                  # a frame with a non-finite entry is no realization
        with np.errstate(invalid="ignore"):
            assert quantum._canonical_point(prob, x) is None

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_flips_read_from_the_target(self, n):
        assert _ladder_flips(unified_ncycle_behavior(n)) == (False,) * n
        if n % 2 == 1:
            parity, mask = odd_ncycle_behavior(n), odd_to_unified_mask(n)
        else:
            parity, mask = even_ncycle_behavior(n), even_to_unified_mask(n)
        assert _ladder_flips(parity) == tuple(mask.flipped(i) for i in range(1, n + 1))

    def test_non_relabeling_target_gets_no_structured_start(self, monkeypatch):
        n, dim = 7, 3
        unified = unified_ncycle_behavior(n)
        wrong_required = PossibilisticBehavior(unified.scenario, unified.supports,
                                               required=((1, n), (1, 0)))
        closed = dict(unified.supports)
        closed[(1, n)] = unified.supports[(1, n)] - {(1, 1)}
        closing_forbids = PossibilisticBehavior(unified.scenario, closed,
                                                required=unified.required)
        first_restart = next(_candidate_starts(unified_problem(n, dim, (1,) * n), 1))
        calls, lm = [], quantum._levenberg_marquardt

        def recorded(prob, x0, max_iters):
            calls.append((prob.ranks, x0))
            return lm(prob, x0, max_iters)

        monkeypatch.setattr(quantum, "_levenberg_marquardt", recorded)
        for target in (wrong_required, closing_forbids):
            assert _ladder_flips(target) is None
            calls.clear()
            find_quantum_realization(make_cycle_scenario(n), target, dim, seed=1, budget=1)
            assert calls[0][0] == first_restart[0]
            assert np.array_equal(calls[0][1], first_restart[1])

    # the best overlap over the (theta0, c) grid, from a scalar math-module
    # loop over the same grid and recursion
    @pytest.mark.parametrize("n, overlap", [(5, 0.11100260134852881),
                                            (7, 0.19944476046865092),
                                            (9, 0.2506195732017388),
                                            (11, 0.2896249975005594),
                                            (101, 0.4353672293913763)])
    def test_grid_overlap_matches_loop(self, n, overlap):
        psi, vs = _odd_plane_vectors(n)
        assert abs(abs(vs[1] @ psi) ** 2 - overlap) <= 1e-15


class TestLongChains:
    def test_margin_at_every_odd_n(self):
        for n in range(5, 402, 2):
            psi, vs = _odd_plane_vectors(n)
            assert abs(vs[1] @ psi) ** 2 >= 0.11, n

    @pytest.mark.parametrize("n", [101, 112, 113, 115, 151, 152, 401, 1001])
    def test_relabeled_ladders_accepted_without_descent(self, n, lm_calls):
        s = make_cycle_scenario(n)
        for target in ladder_targets(n):
            for dim in (3, 4):
                r = find_quantum_realization(s, target, dim, seed=1)
                assert r is quantum._chain_start(n, dim, _ladder_flips(target)), (n, dim)
        assert lm_calls == []

    @pytest.mark.parametrize("n", [113, 151])
    def test_paradox_on_long_chains(self, n):
        target = unified_ncycle_behavior(n)
        r = find_quantum_realization(make_cycle_scenario(n), target, 3, seed=1)
        rep = paradox_report(r, n, target=target)
        assert rep.verdict and rep.counterfactual.value > 0.4


def old_frames(prob, x):
    """The frames read from x one label at a time, as the unbatched residual did."""
    d, pos, zs = prob.dim, 2 * prob.dim, []
    for k in prob.ranks:
        m = d * k
        zs.append((x[pos:pos + m] + 1j * x[pos + m:pos + 2 * m]).reshape(d, k))
        pos += 2 * m
    return zs


def old_canonical_frame(z):
    """The per-frame phase fix that the batched one replaces."""
    q, _ = np.linalg.qr(z)
    q = q[:, : z.shape[1]].copy()
    for c in range(q.shape[1]):
        col = q[:, c]
        pivot = np.argmax(np.abs(col) > 1e-8)
        ph = col[pivot] / abs(col[pivot])
        q[:, c] = col * np.conj(ph)
    return q


def per_vector_chain_frames(n, dim):
    """The unified chain's frames built one vector at a time: v_i for even i,
    and for odd i the orthocomplement of v_i from that vector's own SVD."""
    _, vs = _odd_plane_vectors(n if n % 2 == 1 else n - 1)
    if n % 2 == 0:
        vs[n] = vs[1]
    frames = {}
    for i in range(1, n + 1):
        v = np.zeros(dim, dtype=complex)
        v[:3] = vs[i]
        if i % 2 == 1:
            u, _, _ = np.linalg.svd(np.eye(dim) - np.outer(v, v.conj()))
            frames[i] = u[:, :dim - 1]
        else:
            frames[i] = v[:, None]
    return frames


MIXED_RANKS = [(4, (2, 1, 3, 4, 1, 2, 3)), (3, (1, 2, 3, 2, 1)), (5, (4, 1, 2, 5, 4))]


class TestBatchedSearchAlgebra:
    @pytest.mark.parametrize("dim,ranks", MIXED_RANKS)
    def test_projectors_match_per_frame_formula(self, dim, ranks):
        prob = unified_problem(len(ranks), dim, ranks)
        x = np.random.default_rng(21).standard_normal(prob.num_params())
        zs = old_frames(prob, x)
        state, groups = prob.frame_stacks(x)
        assert np.array_equal(state, x[:dim] + 1j * x[dim:2 * dim])
        assert sorted(i for labels, _ in groups for i in labels) == list(range(len(ranks)))
        for labels, z in groups:
            p, _ = quantum._projectors(z)
            for label, z_k, p_k in zip(labels, z, p):
                assert np.array_equal(z_k, zs[label])
                w = np.linalg.solve(z_k.conj().T @ z_k, z_k.conj().T).conj().T
                assert np.array_equal(p_k, w @ z_k.conj().T)

    def test_degenerate_frame_in_a_stack(self):
        z = np.random.default_rng(2).standard_normal((3, 4, 2)).astype(complex)
        z[1, :, 1] = z[1, :, 0]
        with pytest.raises(FloatingPointError, match="degenerate frame"):
            quantum._projectors(z)

    @pytest.mark.parametrize("dim,ranks", MIXED_RANKS)
    def test_canonical_frames_match_per_frame_fix(self, dim, ranks):
        rng = np.random.default_rng([dim, len(ranks)])
        for k in sorted(set(ranks)):
            z = rng.standard_normal((4, dim, k)) + 1j * rng.standard_normal((4, dim, k))
            z[1, 0] = 0.0       # a zero leading row moves the phase pivot down
            got = quantum._canonical_frames(z)
            assert np.array_equal(got, np.array([old_canonical_frame(f) for f in z]))

    @pytest.mark.parametrize("n,dim", [(7, 3), (8, 4), (8, 3)])
    def test_chain_start_frames(self, n, dim):
        # the complement frames, from one stacked SVD, equal the per-vector SVD's
        start = quantum._chain_start(n, dim, (False,) * n)
        for i, z in per_vector_chain_frames(n, dim).items():
            assert np.array_equal(start.frames[i], old_canonical_frame(z))

    def test_found_frames_are_the_canonical_chain_frames(self):
        n, dim = 8, 4
        found = find_quantum_realization(make_cycle_scenario(n), unified_ncycle_behavior(n),
                                         dim, seed=1)
        assert found is quantum._chain_start(n, dim, (False,) * n)
        assert [found.rank(i) for i in range(1, n + 1)] == [dim - 1, 1] * (n // 2)
        for i, z in per_vector_chain_frames(n, dim).items():
            assert np.array_equal(found.frames[i], old_canonical_frame(z))


class TestChainStartCache:
    def test_built_once_and_read_only(self):
        start = quantum._chain_start(7, 3, (False,) * 7)
        assert quantum._chain_start(7, 3, (False,) * 7) is start
        assert not start.state.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            start.state[0] = 1.0
        flipped = quantum._chain_start(7, 3, (True,) + (False,) * 6)
        assert flipped is not start
        assert (start.rank(1), flipped.rank(1)) == (2, 1)

    def test_candidate_built_once_and_read_only(self):
        cand = quantum._chain_start(7, 3, (False,) * 7)
        assert isinstance(cand, quantum.QuantumRealization)
        assert not cand.state.flags.writeable
        assert not any(f.flags.writeable for f in cand.frames.values())
        with pytest.raises(TypeError):
            cand.frames[1] = cand.frames[2]

    def test_seeds_accept_the_same_chain_start(self):
        # the chain start precedes every seeded restart, and is accepted at once
        n, dim = 7, 3
        s, target = make_cycle_scenario(n), unified_ncycle_behavior(n)
        found = [find_quantum_realization(s, target, dim, seed=seed) for seed in (1, 2)]
        assert found[0] is found[1] is quantum._chain_start(n, dim, _ladder_flips(target))


def four_ladders():
    """All 16 outcome relabelings of the unified 4-ladder."""
    unified = unified_ncycle_behavior(4)
    return [relabel(unified, FlipMask(dict(enumerate(bits, start=1))))
            for bits in itertools.product((False, True), repeat=4)]


class TestHardyStart:
    @pytest.mark.parametrize("dim", [4, 5, 6])
    def test_every_relabeled_four_ladder_accepted_without_descent(self, dim, lm_calls):
        s = make_cycle_scenario(4)
        hardy = (5 * math.sqrt(5) - 11) / 2
        for target in four_ladders():
            r = find_quantum_realization(s, target, dim, seed=1, budget=1)
            assert not isinstance(r, SearchFailure)
            ctx, t = target.required
            assert abs(behavior_from_realization(r, s).tables[ctx][t] - hardy) <= 1e-12
            eye = np.eye(2)
            for i in range(1, 5):
                p = r.projector(i)
                assert np.linalg.norm(p[4:]) <= ALG_TOL and np.linalg.norm(p[:, 4:]) <= ALG_TOL
                q = p[:4, :4].reshape(2, 2, 2, 2)
                if i % 2 == 1:      # A (x) 1
                    a = np.einsum("abcb->ac", q) / 2
                    assert np.linalg.norm(p[:4, :4] - np.kron(a, eye)) <= ALG_TOL
                else:               # 1 (x) B
                    b = np.einsum("abad->bd", q) / 2
                    assert np.linalg.norm(p[:4, :4] - np.kron(eye, b)) <= ALG_TOL
        assert lm_calls == []

    @pytest.mark.parametrize("dim", [4, 5])
    def test_same_realization_for_every_seed(self, dim):
        s, target = make_cycle_scenario(4), unified_ncycle_behavior(4)
        docs = [realization_to_doc(find_quantum_realization(s, target, dim, seed=seed))
                for seed in (1, 2, 7)]
        assert docs[0] == docs[1] == docs[2]

    def test_ladder_flips_read_once_per_search(self, monkeypatch):
        calls, flips = [], quantum._ladder_flips

        def counted(target):
            calls.append(target.scenario.n)
            return flips(target)

        monkeypatch.setattr(quantum, "_ladder_flips", counted)
        searches = [(make_cycle_scenario(4), unified_ncycle_behavior(4), 4, 1),
                    (make_cycle_scenario(4), opened_four_cycle(), 4, 1),
                    (make_cycle_scenario(6), even_ncycle_behavior(6), 4, 100),
                    (make_cycle_scenario(7), unified_ncycle_behavior(7), 3, 0)]
        for s, target, dim, budget in searches:
            find_quantum_realization(s, target, dim, seed=1, budget=budget)
        assert calls == [4, 4, 6, 7]
        monkeypatch.setattr(quantum, "REQUIRED_MARGIN", 0.5)    # the start is rejected
        find_quantum_realization(make_cycle_scenario(5), unified_ncycle_behavior(5), 3,
                                 seed=1, budget=5)
        assert calls == [4, 4, 6, 7, 5]
