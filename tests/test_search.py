import itertools
import math

import numpy as np
import pytest

from cyclectx import quantum
from cyclectx.linalg import ALG_TOL, PROB_TOL
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
    _ladder_flips,
    _odd_plane_vectors,
    SearchFailure,
    behavior_from_realization,
    find_quantum_realization,
    realization_to_doc,
)
from cyclectx.scenario import (
    POSSIBILITY_EPS,
    PossibilisticBehavior,
    make_cycle_scenario,
    possibilistic_collapse,
    supports_within,
)


def opened(ladder, *contexts):
    """The ladder with the given contexts opened to full support: no longer a
    relabeled ladder, but it still contains this one."""
    supports = dict(ladder.supports)
    for c in contexts:
        supports[c] = frozenset(ladder.scenario.tuples(c))
    return PossibilisticBehavior(ladder.scenario, supports, required=ladder.required)


def opened_four_cycle():
    """The unified 4-cycle with context (1, 2) opened to full support."""
    return opened(unified_ncycle_behavior(4), (1, 2))


@pytest.fixture
def tested(monkeypatch):
    """The candidates a search passes to the acceptance test, in order."""
    cands, accepted = [], quantum._accepted

    def counted(s, target, cand):
        cands.append(cand)
        return accepted(s, target, cand)

    monkeypatch.setattr(quantum, "_accepted", counted)
    return cands


class TestFind:
    def test_acceptance_thresholds_imply_the_support_collapse(self):
        # a forbidden tuple at <= PROB_TOL drops out of the collapse and a
        # required one at >= REQUIRED_MARGIN stays, so the acceptance test
        # reads the probabilities alone
        assert PROB_TOL < POSSIBILITY_EPS < quantum.REQUIRED_MARGIN

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

        assert check_no_disturbance(b)

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
        out = find_quantum_realization(s, odd_ncycle_behavior(5), 2, seed=1)
        assert out == SearchFailure("no exact start for n = 5 in dimension 2: the qutrit chain "
                                    "needs n >= 5 and dim >= 3, Hardy's start n = 4 and dim >= 4")

    def test_budget_bounds_every_iteration(self, tested):
        # every search tests exactly one candidate, the cached chain start
        s, target = make_cycle_scenario(4), opened_four_cycle()
        start = quantum._chain_start(4, 4, (False,) * 4)
        for seed in (1, 2):
            assert find_quantum_realization(s, target, 4, seed=seed) is start
        assert len(tested) == 2 and all(cand is start for cand in tested)

    def test_exact_start_needs_one_iteration(self):
        out = find_quantum_realization(make_cycle_scenario(6), unified_ncycle_behavior(6), 4,
                                       seed=1)
        assert not isinstance(out, SearchFailure)

    def test_infeasible_target_rejected_in_preprocessing(self, tested):
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
        assert "no relabeled unified ladder" in out.message
        assert tested == []

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

    @pytest.mark.parametrize("dim", [3.0, "3"])
    def test_non_integer_dim_rejected_before_any_work(self, dim, monkeypatch, tested):
        from cyclectx.quantum import RealizationError

        def refused(*args):
            raise AssertionError("the search worked on a non-integer dim")

        monkeypatch.setattr(quantum, "_ladder_flips", refused)
        with pytest.raises(RealizationError, match=f"dim must be an integer, got {dim!r}"):
            find_quantum_realization(make_cycle_scenario(5), unified_ncycle_behavior(5), dim)
        assert tested == []


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
                r = find_quantum_realization(s, target, dim, seed=1)
                assert not isinstance(r, SearchFailure), (target.kind, dim)
                pb = possibilistic_collapse(behavior_from_realization(r, s))
                assert supports_within(pb, target)
                assert pb.possible(*target.required)
                assert paradox_report(r, n, target=target).verdict

    @pytest.mark.parametrize("n", range(5, 17))
    def test_accepted_without_descent_as_the_cached_candidate(self, n):
        s = make_cycle_scenario(n)
        for target in ladder_targets(n):
            for dim in (3, 4):
                r = find_quantum_realization(s, target, dim, seed=1)
                assert not isinstance(r, SearchFailure), (target.kind, dim)
                assert r is quantum._chain_start(n, dim, _ladder_flips(target))

    def test_accepted_start_builds_no_problem(self):
        n, dim = 8, 4
        s, target = make_cycle_scenario(n), unified_ncycle_behavior(n)
        first = find_quantum_realization(s, target, dim, seed=1)      # fills the caches
        again = find_quantum_realization(s, target, dim, seed=2)
        assert realization_to_doc(again) == realization_to_doc(first)

    @pytest.mark.parametrize("n, dim", [(4, 4), (5, 3), (6, 4)])
    def test_rejected_start_is_a_failure(self, n, dim, monkeypatch):
        monkeypatch.setattr(quantum, "REQUIRED_MARGIN", 0.6)    # above every start
        out = find_quantum_realization(make_cycle_scenario(n), unified_ncycle_behavior(n), dim,
                                       seed=1)
        assert isinstance(out, SearchFailure)
        assert "failed the acceptance test" in out.message

    def test_zero_budget_tests_no_candidate(self, tested):
        # the search takes no budget
        with pytest.raises(TypeError):
            find_quantum_realization(make_cycle_scenario(7), unified_ncycle_behavior(7), 3,
                                     seed=1, budget=0)
        assert tested == []

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
        narrowed = dict(unified.supports)
        narrowed[(3, 4)] = unified.supports[(3, 4)] - {(1, 0)}
        two_forbidden = PossibilisticBehavior(unified.scenario, narrowed,
                                              required=unified.required)
        no_required = PossibilisticBehavior(unified.scenario, unified.supports)

        def unreachable(*args):
            raise AssertionError("a start was built")

        monkeypatch.setattr(quantum, "_chain_start", unreachable)
        for target in (wrong_required, closing_forbids, two_forbidden, no_required):
            assert _ladder_flips(target) is None
            out = find_quantum_realization(make_cycle_scenario(n), target, dim, seed=1)
            assert isinstance(out, SearchFailure)
            assert out.message == ("no exact start: the target contains no relabeled "
                                   "unified ladder")

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
    def test_relabeled_ladders_accepted_without_descent(self, n):
        s = make_cycle_scenario(n)
        for target in ladder_targets(n):
            for dim in (3, 4):
                r = find_quantum_realization(s, target, dim, seed=1)
                assert r is quantum._chain_start(n, dim, _ladder_flips(target)), (n, dim)

    @pytest.mark.parametrize("n", [113, 151])
    def test_paradox_on_long_chains(self, n):
        target = unified_ncycle_behavior(n)
        r = find_quantum_realization(make_cycle_scenario(n), target, 3, seed=1)
        rep = paradox_report(r, n, target=target)
        assert rep.verdict and rep.counterfactual.value > 0.4


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
        # every seed tests the one cached chain start, and accepts it
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
    def test_every_relabeled_four_ladder_accepted_without_descent(self, dim):
        s = make_cycle_scenario(4)
        hardy = (5 * math.sqrt(5) - 11) / 2
        for target in four_ladders():
            r = find_quantum_realization(s, target, dim, seed=1)
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
        searches = [(make_cycle_scenario(4), unified_ncycle_behavior(4), 4),
                    (make_cycle_scenario(4), opened_four_cycle(), 4),
                    (make_cycle_scenario(6), even_ncycle_behavior(6), 4),
                    (make_cycle_scenario(7), unified_ncycle_behavior(7), 3)]
        for s, target, dim in searches:
            find_quantum_realization(s, target, dim, seed=1)
        assert calls == [4, 4, 6, 7]
        monkeypatch.setattr(quantum, "REQUIRED_MARGIN", 0.5)    # the start is rejected
        find_quantum_realization(make_cycle_scenario(5), unified_ncycle_behavior(5), 3,
                                 seed=1)
        assert calls == [4, 4, 6, 7, 5]


def scalar_flips(target):
    """Each label's flip read in a plain loop: label i < n from the first slot
    of the one tuple (i, i + 1) forbids, label n from the second slot of the
    one tuple (n - 1, n) forbids."""
    n = target.scenario.n
    flips = []
    for i in range(1, n):
        (forbidden,) = set(target.scenario.tuples((i, i + 1))) - target.supports[(i, i + 1)]
        flips.append(forbidden[0] == 1)
    return tuple(flips) + (forbidden[1] == 0,)


def masks(n):
    """Every flip mask for n <= 10, and 40 seeded ones above."""
    if n <= 10:
        return [FlipMask(dict(enumerate(bits, start=1)))
                for bits in itertools.product((False, True), repeat=n)]
    rng = np.random.default_rng([n, 7])
    return [FlipMask({i: bool(b) for i, b in enumerate(rng.integers(0, 2, n), start=1)})
            for _ in range(40)]


class TestContainedLadders:
    @pytest.mark.parametrize("n", range(4, 17))
    def test_flips_of_every_relabeled_ladder(self, n):
        unified = unified_ncycle_behavior(n)
        for mask in masks(n):
            target = relabel(unified, mask)
            flips = _ladder_flips(target)
            assert flips == scalar_flips(target)
            assert flips == tuple(mask.flipped(i) for i in range(1, n + 1))

    @pytest.mark.parametrize("dim", [4, 5])
    def test_every_opened_four_cycle_target_from_one_candidate(self, dim, tested):
        s, found = make_cycle_scenario(4), 0
        for ladder in four_ladders():
            for c in [(1, 2), (2, 3), (3, 4)]:
                target = opened(ladder, c)
                assert target != ladder
                flips = _ladder_flips(target)
                assert flips == _ladder_flips(ladder)
                tested.clear()
                r = find_quantum_realization(s, target, dim, seed=1)
                assert r is quantum._chain_start(4, dim, flips)
                assert len(tested) == 1
                pb = possibilistic_collapse(behavior_from_realization(r, s))
                assert supports_within(pb, target) and pb.possible(*target.required)
                found += 1
        assert found == 48

    @pytest.mark.parametrize("n", [5, 7, 8, 12, 101])
    def test_opened_targets_from_one_candidate(self, n, tested):
        s = make_cycle_scenario(n)
        openings = [((1, 2),), ((n // 2, n // 2 + 1),), ((n - 1, n),), ((2, 3), (3, 4))]
        for ladder in ladder_targets(n)[1:3]:
            for contexts in openings:
                target = opened(ladder, *contexts)
                flips = _ladder_flips(target)
                # label 3 sits between the two opened contexts, so nothing fixes it
                want = list(_ladder_flips(ladder))
                if len(contexts) == 2:
                    want[2] = False
                assert flips == tuple(want)
                for dim in (3, 4):
                    tested.clear()
                    r = find_quantum_realization(s, target, dim, seed=1)
                    assert r is quantum._chain_start(n, dim, flips), (contexts, dim)
                    assert len(tested) == 1

    @pytest.mark.parametrize("n, dim", [(4, 2), (4, 3), (6, 2), (101, 2)])
    def test_small_dimension_fails_at_once(self, n, dim, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a candidate was built")

        for name in ("_ladder_flips", "_chain_start", "_accepted"):
            monkeypatch.setattr(quantum, name, unreachable)
        out = find_quantum_realization(make_cycle_scenario(n), unified_ncycle_behavior(n), dim,
                                       seed=1)
        assert isinstance(out, SearchFailure)
        assert out.message.startswith(f"no exact start for n = {n} in dimension {dim}:")

    def test_clashing_constraints_leave_no_ladder(self):
        # (1, 2) forbids (0, 1), so label 2 is not flipped; (2, 3) forbids
        # (1, 1), so label 2 is flipped
        n = 6
        unified = unified_ncycle_behavior(n)
        supports = dict(unified.supports)
        full = frozenset(unified.scenario.tuples((2, 3)))
        supports[(2, 3)] = full - {(1, 1)}
        clash = PossibilisticBehavior(unified.scenario, supports, required=unified.required)
        assert _ladder_flips(clash) is None
        supports[(2, 3)] = full
        assert _ladder_flips(PossibilisticBehavior(unified.scenario, supports,
                                                   required=unified.required)) == (False,) * n
