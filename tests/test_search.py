from dataclasses import replace

import numpy as np
import pytest

from cyclectx import quantum
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
        r = find_quantum_realization(make_cycle_scenario(6), unified_ncycle_behavior(6), 4,
                                     seed=1)
        assert not isinstance(r, SearchFailure)
        assert [(jacobians, it) for jacobians, _, it in lm_calls] == [(0, 0)]

    def test_jacobian_only_where_a_step_is_taken(self, lm_calls):
        r = find_quantum_realization(make_cycle_scenario(4), unified_ncycle_behavior(4), 4,
                                     seed=1)
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
        ranks, x0 = next(_candidate_starts(base, target, dim, 1))
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
        # the 4-cycle has no exact start, so its descent needs iterations
        out = find_quantum_realization(make_cycle_scenario(4), unified_ncycle_behavior(4), 4,
                                       seed=1, budget=1)
        assert isinstance(out, SearchFailure)
        assert out.iterations_used <= 1

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

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_flips_read_from_the_target(self, n):
        assert _ladder_flips(unified_ncycle_behavior(n)) == (False,) * n
        if n % 2 == 1:
            parity, mask = odd_ncycle_behavior(n), odd_to_unified_mask(n)
        else:
            parity, mask = even_ncycle_behavior(n), even_to_unified_mask(n)
        assert _ladder_flips(parity) == tuple(mask.flipped(i) for i in range(1, n + 1))

    def test_non_relabeling_target_gets_no_structured_start(self):
        n, dim = 7, 3
        unified = unified_ncycle_behavior(n)
        wrong_required = PossibilisticBehavior(unified.scenario, unified.supports,
                                               required=((1, n), (1, 0)))
        closed = dict(unified.supports)
        closed[(1, n)] = unified.supports[(1, n)] - {(1, 1)}
        closing_forbids = PossibilisticBehavior(unified.scenario, closed,
                                                required=unified.required)
        prob = unified_problem(n, dim, (1,) * n)
        starts = _candidate_starts(prob, unified, dim, 1)
        next(starts)
        first_restart = next(starts)
        for target in (wrong_required, closing_forbids):
            assert _ladder_flips(target) is None
            ranks, x0 = next(_candidate_starts(prob, target, dim, 1))
            assert ranks == first_restart[0]
            assert np.array_equal(x0, first_restart[1])

    @pytest.mark.parametrize("n, overlap", [(5, 0.10981425186881437),
                                            (7, 0.1971376680059133),
                                            (9, 0.2475840776323348),
                                            (11, 0.291486729217675)])
    def test_grid_overlap_matches_loop(self, n, overlap):
        psi, vs = _odd_plane_vectors(n)
        assert abs(abs(vs[1] @ psi) ** 2 - overlap) <= 1e-15


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
        base = unified_problem(n, dim, (1,) * n, margin=quantum.REQUIRED_MARGIN)
        ranks, x0 = quantum._chain_start(base, n, dim, (False,) * n)
        psi, vs = _odd_plane_vectors(n if n % 2 == 1 else n - 1)
        if n % 2 == 0:
            vs[n] = vs[1]
        for i, z in enumerate(old_frames(replace(base, ranks=ranks), x0), start=1):
            v = np.zeros(dim, dtype=complex)
            v[:3] = vs[i]
            if i % 2 == 1:
                u, _, _ = np.linalg.svd(np.eye(dim) - np.outer(v, v.conj()))
                assert np.array_equal(z, u[:, :dim - 1])
            else:
                assert np.array_equal(z, v[:, None])

    def test_found_frames_are_the_canonical_chain_frames(self):
        n, dim = 8, 4
        found = find_quantum_realization(make_cycle_scenario(n), unified_ncycle_behavior(n),
                                         dim, seed=1)
        base = unified_problem(n, dim, (1,) * n, margin=quantum.REQUIRED_MARGIN)
        ranks, x0 = quantum._chain_start(base, n, dim, (False,) * n)
        assert [found.rank(i) for i in range(1, n + 1)] == list(ranks)
        for i, z in enumerate(old_frames(replace(base, ranks=ranks), x0), start=1):
            assert np.array_equal(found.frames[i], old_canonical_frame(z))
