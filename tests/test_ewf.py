import dataclasses
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cyclectx import ewf
from cyclectx.ewf import (
    BRANCH_CAP,
    BRANCH_FLOOR,
    BranchLimitError,
    Branches,
    CertificateError,
    GateStep,
    Protocol,
    ProtocolError,
    RecordNotReadableError,
    UnknownStageError,
    build_counterfactual_protocol,
    build_measure_undo_protocol,
    build_protocol,
    commutation_certificates,
    _record_gate,
    paradox_report,
    record_distribution,
    register_marginal,
    report_to_doc,
    simulate,
)
from cyclectx.linalg import ALG_TOL
from cyclectx.ncycle import FlipMask, odd_ncycle_behavior, relabel, unified_ncycle_behavior
from cyclectx.oracles import dense_commutation_certificates, measurement_unitary
from cyclectx.quantum import (
    QuantumRealization,
    born_pair,
    find_quantum_realization,
    kcbs_realization,
    realization_from_doc,
)
from cyclectx.scenario import (
    PossibilisticBehavior,
    is_logically_contextual,
    make_cycle_scenario,
)
from linalg_reference import commutator_norm


FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "realizations.json"


def fixture_cases():
    """(realization, n, target) for the frozen unified-ladder fixtures, n = 5..15, and KCBS."""
    doc = json.loads(FIXTURES.read_text(encoding="utf-8"))["realizations"]
    cases = [(realization_from_doc(doc[str(n)]), n, unified_ncycle_behavior(n))
             for n in range(5, 16)]
    return cases + [(kcbs_realization(), 5, None)]


def rotated_case(n, seed):
    """(realization, n, target) for fixture n in a seeded random basis."""
    r, _, target = fixture_cases()[n - 5]
    rng = np.random.default_rng([seed, n])
    v, _ = np.linalg.qr(rng.normal(size=(r.dim, r.dim)) + 1j * rng.normal(size=(r.dim, r.dim)))
    frames = {i: v @ np.asarray(f) for i, f in r.frames.items()}
    return QuantumRealization(r.dim, v @ r.state, frames), n, target


def steps_of(p):
    return [s.label for s in p.steps]


def random_rank1(n, dim, seed):
    """Seeded random state and rank-1 measurements: no two of them commute."""
    rng = np.random.default_rng(seed)

    def unit(shape):
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return v / np.linalg.norm(v)

    return QuantumRealization(dim, unit(dim), {i: unit((dim, 1)) for i in range(1, n + 1)})


def reference_record_gate(keys, values, op, bit):
    """The list-based record gate the branch kernel must reproduce bit for bit.

    Returns (keys, values, norm2, dropped norm, squared norm of each kept row).
    """
    d = op.shape[0]
    pairs = {}
    side, slot = [], []
    for k in keys:
        side.append(k & bit)
        slot.append(pairs.setdefault(k & ~bit, len(pairs)))
    npairs = len(pairs)
    u = np.zeros((2 * npairs, values.shape[1]), dtype=complex)
    u0, u1 = u[:npairs], u[npairs:]
    if any(side):
        u[[npairs + t if s else t for s, t in zip(side, slot)]] = values
        moved = ((u0 - u1).reshape(-1, d) @ op.T).reshape(npairs, -1)
        u0 -= moved
        u1 += moved
    else:
        u1[...] = (values.reshape(-1, d) @ op.T).reshape(npairs, -1)
        np.subtract(values, u1, out=u0)
    real = u.view(np.float64)
    floor2 = BRANCH_FLOOR ** 2
    bases = list(pairs)
    keep, out_keys, kept_w, norm2, dropped2 = [], [], [], 0.0, 0.0
    for j, w in enumerate(np.add.reduce(real * real, 1).tolist()):
        if w > floor2:
            keep.append(j)
            out_keys.append(bases[j] if j < npairs else bases[j - npairs] | bit)
            kept_w.append(w)
            norm2 += w
        else:
            dropped2 += w
    if len(keep) < len(u):
        u = u[keep]
    return tuple(out_keys), u, norm2, math.sqrt(dropped2), kept_w


def random_branch_case(rng, n, d, width):
    """A seeded branch set and gate mixing every case the kernel separates.

    Keys come in coincident pairs (f and f ^ bit both present), one-sided
    pairs and, with probability 1/3, no key holding the bit at all (a fresh
    record). Rows are random, in the kernel or the range of the projector,
    or scaled to BRANCH_FLOOR or below it.
    """
    bit = 1 << (n - int(rng.integers(1, n + 1)))
    rank = int(rng.integers(1, d))
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(z)
    p = q[:, :rank] @ q[:, :rank].conj().T
    if rng.integers(0, 2):      # an undo applies P^dag
        p = p.conj().T.copy()
    fresh = rng.integers(0, 3) == 0
    size = int(rng.integers(1, 10))
    keys = []
    while len(keys) < size:
        k = sum(int(v) << e for e, v in enumerate(rng.integers(0, 2, n))) & ~bit
        if k in keys or (k | bit) in keys:
            continue
        kind = int(rng.integers(0, 3)) if not fresh else 0
        if kind in (0, 2):
            keys.append(k)
        if kind in (1, 2):
            keys.append(k | bit)
    rows = []
    for _ in keys:
        cols = []
        for _ in range(width // d):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            kind = int(rng.integers(0, 5))
            if kind == 1:
                v = v - p @ v           # op v at rounding level
            elif kind == 2:
                v = p @ v               # (1 - op) v at rounding level
            elif kind == 3:
                v = BRANCH_FLOOR * v / np.linalg.norm(v) / math.sqrt(width // d)
            elif kind == 4:
                v = 0.3 * BRANCH_FLOOR * v / np.linalg.norm(v)
            cols.append(v)
        rows.append(np.concatenate(cols))
    values = np.array(rows, dtype=complex)
    real = values.view(np.float64)
    w = np.add.reduce(real * real, 1)
    return Branches(tuple(keys), values, float(w.sum()), tuple(w.tolist())), p, bit


class TestRecordGateKernel:
    @pytest.mark.parametrize("n", [7, 40, 200])
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("square", [False, True], ids=["state", "block"])
    def test_matches_list_reference_bit_for_bit(self, n, d, square):
        rng = np.random.default_rng([n, d, square])
        width = d * d if square else d
        kinds = set()
        for _ in range(60):
            b, op, bit = random_branch_case(rng, n, d, width)
            got, dropped = _record_gate(b, op, bit)
            keys, values, norm2, ref_dropped, ref_w = reference_record_gate(
                b.keys, b.values, op, bit)
            assert got.keys == keys
            assert np.array_equal(got.values, values)
            assert got.norm2 == norm2
            assert dropped == ref_dropped
            assert list(got.weights) == ref_w
            real = got.values.view(np.float64)
            for j, w in enumerate(got.weights):
                assert w == float(np.add.reduce(real[j] * real[j]))
            kinds.add(("fresh" if all(not k & bit for k in b.keys) else "paired",
                       dropped > 0, max(b.keys) >= 2 ** 63))
        assert {k[:2] for k in kinds} >= {("fresh", True), ("paired", True), ("paired", False)}
        if n == 200:
            assert any(big for _, _, big in kinds)

    def test_stage_weights_are_row_norms(self, kcbs):
        t = simulate(build_measure_undo_protocol(5), kcbs)
        for b in t.stages:
            real = b.values.view(np.float64)
            assert list(b.weights) == np.add.reduce(real * real, 1).tolist()

    def test_projector_is_read_only_and_hermitian(self):
        # the one operator that both a measurement and its undo apply
        r = random_rank1(6, 4, 5)
        for i in range(1, 7):
            p = r.projector(i)
            assert np.array_equal(p, p.conj().T)
            assert not p.flags.writeable
            assert r.projector(i) is p
            with pytest.raises(ValueError):
                p[0, 0] = 0


class TestMeasurementUnitary:
    def test_unitarity(self, kcbs):
        for i in range(1, 6):
            u = measurement_unitary(kcbs, i, 5)
            assert np.linalg.norm(u.conj().T @ u - np.eye(96)) <= 1e-12
        u = measurement_unitary(kcbs, 1, 5)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(96), atol=1e-12)

    def test_record_marginal_after_one_gate(self, kcbs):
        init = np.zeros(96, dtype=complex)
        init.reshape(3, 32)[:, 0] = kcbs.state
        out = measurement_unitary(kcbs, 1, 5) @ init
        w = (np.abs(out) ** 2).reshape((3, 2, 2, 2, 2, 2)).sum(axis=(0, 2, 3, 4, 5))
        assert abs(w[1] - 1 / 9) < 1e-12

    def test_context_pair_commutes_when_embedded(self, kcbs):
        u1 = measurement_unitary(kcbs, 1, 5)
        u2 = measurement_unitary(kcbs, 2, 5)
        assert commutator_norm(u1, u2) <= 1e-12

    def test_noncontext_pair_does_not(self, kcbs):
        u1 = measurement_unitary(kcbs, 1, 5)
        u3 = measurement_unitary(kcbs, 3, 5)
        assert commutator_norm(u1, u3) > 0.1

    def test_out_of_range(self, kcbs):
        with pytest.raises(ProtocolError):
            measurement_unitary(kcbs, 6, 5)


class TestProtocols:
    def test_standard_n5(self):
        assert steps_of(build_protocol(5)) == \
            ["M1", "M2", "U1", "M3", "U2", "M4", "U3", "M5"]

    def test_standard_n6(self):
        p = build_protocol(6)
        assert len(p.steps) == 10
        undone = [s.friend for s in p.steps if s.kind == "undo"]
        assert undone == [1, 2, 3, 4]

    def test_counterfactual_n5(self):
        assert steps_of(build_counterfactual_protocol(5)) == \
            ["M1", "M5", "M2", "U1", "M3", "U2", "M4", "U3"]

    def test_measure_undo_n5(self):
        assert steps_of(build_measure_undo_protocol(5)) == \
            ["M1", "U1", "M2", "U2", "M3", "U3", "M4", "U4", "M5", "U5"]

    def test_small_n_rejected(self):
        with pytest.raises(ProtocolError):
            build_protocol(3)
        with pytest.raises(ProtocolError):
            build_counterfactual_protocol(3)

    def test_four_friends(self):
        assert steps_of(build_protocol(4)) == ["M1", "M2", "U1", "M3", "U2", "M4"]
        assert steps_of(build_counterfactual_protocol(4)) == ["M1", "M4", "M2", "U1", "M3", "U2"]

    def test_schedules_built_once_per_n(self):
        for build in (build_protocol, build_counterfactual_protocol,
                      build_measure_undo_protocol):
            assert build(7) is build(7)
            assert build(7) is not build(8)

    def test_float_n_still_rejected(self):
        with pytest.raises(TypeError):
            build_protocol(5.0)
        with pytest.raises(TypeError):
            build_counterfactual_protocol(5.0)
        with pytest.raises(TypeError):
            build_measure_undo_protocol(5.0)

    def test_positions_are_read_only(self):
        p = build_protocol(5)
        assert p.measured[3] == 4 and p.undone[1] == 3 and 5 not in p.undone
        with pytest.raises(TypeError):
            p.measured[3] = 1
        with pytest.raises(TypeError):
            p.undone[5] = 9

    def test_wellformedness_guards(self):
        with pytest.raises(ProtocolError):
            Protocol(2, (GateStep("undo", 1), GateStep("measure", 1),
                         GateStep("measure", 2)))
        with pytest.raises(ProtocolError):
            Protocol(1, (GateStep("measure", 1), GateStep("measure", 1)))
        with pytest.raises(ProtocolError):
            Protocol(2, (GateStep("measure", 1),))  # friend 2 never measured
        with pytest.raises(ProtocolError):
            GateStep("swap", 1)


class TestSimulate:
    def test_norm_preserved_each_step(self, kcbs):
        t = simulate(build_protocol(5), kcbs)
        for st in t.states:
            assert abs(np.linalg.norm(st) - 1) < 1e-12

    def test_forbidden_entries_at_prescribed_stages(self, kcbs):
        t = simulate(build_protocol(5), kcbs)
        assert record_distribution(t, "after M2", [1, 2])[(1, 1)] <= 1e-12
        assert record_distribution(t, "after M3", [2, 3])[(0, 0)] <= 1e-12
        assert record_distribution(t, "after M4", [3, 4])[(1, 1)] <= 1e-12
        assert record_distribution(t, "after M5", [4, 5])[(0, 0)] <= 1e-12

    def test_undo_restores_ready_state(self, kcbs):
        t = simulate(build_protocol(5), kcbs)
        marg = register_marginal(t, "after U1", [1])
        assert abs(marg[(0,)] - 1.0) < 1e-12

    def test_record_reads_match_born_pairs(self, kcbs):
        # every read after M{i+1} of the standard schedule is the Born pair
        # (i, i + 1), and the counterfactual read before U the pair (1, n):
        # on KCBS, Hardy's n = 4 start and the chain starts at n = 7, 8, 101
        cases = [(kcbs, 5)] + [
            (find_quantum_realization(make_cycle_scenario(n), unified_ncycle_behavior(n), dim), n)
            for n, dim in ((4, 4), (7, 3), (8, 4), (101, 3))]
        for r, n in cases:
            t = simulate(build_protocol(n), r)
            reads = [(t, f"after M{i + 1}", i, i + 1) for i in range(1, n)]
            reads.append((simulate(build_counterfactual_protocol(n), r), "before U", 1, n))
            for trace, stage, i, j in reads:
                dist = record_distribution(trace, stage, [i, j])
                bp = born_pair(r, i, j)
                for key in bp.probabilities:
                    assert abs(dist[key] - bp[key]) <= ALG_TOL, (n, stage, key)

    def test_single_record_read(self, kcbs):
        t = simulate(build_protocol(5), kcbs)
        d = record_distribution(t, "after M1", [1])
        assert abs(d[(1,)] - 1 / 9) < 1e-12 and abs(d[(0,)] - 8 / 9) < 1e-12

    def test_branch_cap_reached_not_passed_at_16(self):
        # measuring 16 fresh records on a non-commuting realization doubles
        # the branches every step: 2^16 is the most any n <= 16 can have
        r = random_rank1(16, 3, 31)
        t = simulate(Protocol(16, tuple(GateStep("measure", i) for i in range(1, 17))), r)
        assert len(t.stages[-1].keys) == 2 ** 16 == BRANCH_CAP

    def test_noncommuting_growth_raises(self):
        r = random_rank1(20, 3, 31)
        t = simulate(build_protocol(20), r)
        with pytest.raises(BranchLimitError):
            t.stages
        with pytest.raises(BranchLimitError):
            commutation_certificates(r, 20)

    def test_nan_norm_rejected(self, kcbs, monkeypatch):
        # NaN fails every comparison, so the drift check must be written so
        # that a NaN norm does not pass it
        real = ewf._record_gate

        def poisoned(b, op, bit):
            out, dropped = real(b, op, bit)
            return out._replace(norm2=math.nan), dropped

        monkeypatch.setattr(ewf, "_record_gate", poisoned)
        t = simulate(build_protocol(5), kcbs)
        with pytest.raises(ProtocolError, match="nan"):
            t.stages

    def test_missing_frame_rejected(self, kcbs):
        frames = {i: kcbs.frames[i] for i in range(1, 5)}
        r4 = QuantumRealization(3, kcbs.state, frames)
        with pytest.raises(ProtocolError):
            simulate(build_protocol(5), r4)


def reference_stage_index(p):
    """The stage names of a schedule, built as the steps go by."""
    index = {"initial": 0}
    for pos, st in enumerate(p.steps, start=1):
        index[f"after {st.label}"] = pos
    if p.kind == "counterfactual":
        index["before U"] = p.measured[p.n]
    index["final"] = len(p.steps)
    return index


def reference_trace(p, r):
    """The stages and the delta through each stage of a step-by-step run.

    A plain runner: every gate in order, with the drift check after each.
    """
    state = np.array(r.state, dtype=complex).reshape(1, r.dim)
    real = state.view(np.float64)
    stages = [Branches((0,), state, float(np.vdot(state, state).real),
                       tuple(np.add.reduce(real * real, 1).tolist()))]
    deltas = [0.0]
    delta = 0.0
    for st in p.steps:
        b, dropped = _record_gate(stages[-1], r.projector(st.friend), 1 << (p.n - st.friend))
        delta += dropped
        assert abs(b.norm2 - 1.0) <= ALG_TOL
        stages.append(b)
        deltas.append(delta)
    return stages, deltas


def hardy_start():
    return find_quantum_realization(make_cycle_scenario(4), unified_ncycle_behavior(4), 4,
                                    seed=1)


def reference_cases():
    cases = [("kcbs", None, 5), ("hardy", None, 4)]
    return cases + [("fixture", seed, n) for seed in (1, 7) for n in range(5, 16)]


def reference_realization(kind, seed, n, kcbs):
    if kind == "kcbs":
        return kcbs
    if kind == "hardy":
        return hardy_start()
    return rotated_case(n, seed)[0]


class TestOnDemandTrace:
    @pytest.mark.parametrize("n", [4, 5, 13, 101])
    def test_counterfactual_read_runs_two_gates(self, n, kcbs, monkeypatch):
        if n == 4:
            r = hardy_start()
        elif n == 5:
            r = kcbs
        else:
            r = find_quantum_realization(make_cycle_scenario(n), unified_ncycle_behavior(n), 3,
                                         seed=1)
        p = build_counterfactual_protocol(n)
        calls = []
        real = ewf._record_gate

        def counted(b, op, bit):
            calls.append(bit)
            return real(b, op, bit)

        monkeypatch.setattr(ewf, "_record_gate", counted)
        t = simulate(p, r)
        assert calls == []
        first = record_distribution(t, "before U", [1, n])
        assert len(calls) == p.measured[n] == 2
        assert calls == [1 << (n - 1), 1]
        assert record_distribution(t, "before U", [1, n]) == first
        t.truncation_at("before U")
        register_marginal(t, "after M1", [1])
        with pytest.raises(UnknownStageError):
            t.truncation_at("before M1")
        assert len(calls) == 2

    def test_unread_gates_never_run(self):
        # no two of these measurements commute, so the whole counterfactual
        # schedule would exceed the branch cap; its "before U" read does not
        r = random_rank1(20, 3, 31)
        t = simulate(build_counterfactual_protocol(20), r)
        dist = record_distribution(t, "before U", [1, 20])
        assert abs(sum(dist.values()) - 1.0) <= 1e-12
        with pytest.raises(BranchLimitError):
            t.truncation
        # the failed read leaves the stages it reached readable
        assert record_distribution(t, "before U", [1, 20]) == dist

    @pytest.mark.parametrize("case", reference_cases(),
                             ids=lambda c: c[0] if c[1] is None else f"seed{c[1]}-n{c[2]}")
    @pytest.mark.parametrize("build", [build_protocol, build_counterfactual_protocol,
                                       build_measure_undo_protocol],
                             ids=["standard", "counterfactual", "measure-undo"])
    def test_matches_step_by_step_run(self, case, build, kcbs):
        r = reference_realization(*case, kcbs)
        p = build(case[2])
        stages, deltas = reference_trace(p, r)
        stage_index = reference_stage_index(p)
        t = simulate(p, r)
        assert t.stage_index == stage_index
        assert list(t.stage_index) == list(stage_index)
        for name, pos in sorted(stage_index.items(), key=lambda kv: kv[1]):
            assert t.truncation_at(name) == deltas[pos]
        # from the last stage back: the first read runs every gate at once
        t = simulate(p, r)
        for name, pos in sorted(stage_index.items(), key=lambda kv: -kv[1]):
            assert t.truncation_at(name) == deltas[pos]
        assert t.truncation == deltas[-1]
        got = t.stages
        assert len(got) == len(stages) == len(p.steps) + 1
        for b, ref in zip(got, stages):
            assert b.keys == ref.keys
            assert b.values.tobytes() == ref.values.tobytes()
            assert b.norm2 == ref.norm2
            assert b.weights == ref.weights

    @pytest.mark.parametrize("n", range(4, 41))
    def test_stage_index_of_every_builder(self, n):
        for build in (build_protocol, build_counterfactual_protocol,
                      build_measure_undo_protocol):
            p = build(n)
            assert dict(p._stage_index) == reference_stage_index(p)
            assert list(p._stage_index) == list(reference_stage_index(p))
            assert p._plan == tuple((st.friend, 1 << (n - st.friend)) for st in p.steps)

    def test_stage_index_of_a_custom_protocol(self):
        steps = (GateStep("measure", 2), GateStep("measure", 1), GateStep("undo", 2),
                 GateStep("measure", 3), GateStep("undo", 1))
        p = Protocol(3, steps)
        assert dict(p._stage_index) == reference_stage_index(p) == {
            "initial": 0, "after M2": 1, "after M1": 2, "after U2": 3, "after M3": 4,
            "after U1": 5, "final": 5}
        assert p._plan == ((2, 2), (1, 4), (2, 2), (3, 1), (1, 4))
        with pytest.raises(TypeError):
            p._stage_index["final"] = 0


class TestReadabilityGate:
    def test_erased_record_refused(self, kcbs):
        t = simulate(build_protocol(5), kcbs)
        with pytest.raises(RecordNotReadableError):
            record_distribution(t, "final", [1, 5])

    def test_not_yet_measured_refused(self, kcbs):
        t = simulate(build_protocol(5), kcbs)
        with pytest.raises(RecordNotReadableError):
            record_distribution(t, "after M2", [3])

    def test_unknown_stage(self, kcbs):
        t = simulate(build_protocol(5), kcbs)
        with pytest.raises(UnknownStageError):
            record_distribution(t, "after M9", [1])

    @pytest.mark.parametrize("records", [[4], [4, 5], [5, 4], [3, 5, 4]])
    def test_read_is_the_plain_register_marginal(self, records):
        # an allowed read is the register marginal itself, a plain dict in
        # the same key order
        r, n, _ = fixture_cases()[2]
        plain = Protocol(n, tuple(GateStep("measure", i) for i in range(1, n + 1)))
        t = simulate(plain, r)
        for stage in ("after M5", "after M6", "final"):
            dist = record_distribution(t, stage, records)
            assert type(dist) is dict
            assert dist == register_marginal(t, stage, records)
            assert list(dist) == list(register_marginal(t, stage, records))


READ_RECORDS = [[], [1], [5], [0], [6], [1, 2], [2, 1], [1, 5], [5, 1], [3, 99], [99, 3],
                [2, 2], ["a"]]


def expected_read(t, stage, records, outcomes_only):
    """The read contract: an exception type, or the marginal summed from the
    stage's branch keys and weights, keys over the records in ascending
    label order and reordered to argument order."""
    p = t.protocol
    pos = t.stage_index.get(stage)
    if pos is None:
        return UnknownStageError
    for rec in records:
        if not isinstance(rec, int):
            return TypeError
        if not 1 <= rec <= p.n:
            return ProtocolError
        if outcomes_only and (p.measured[rec] > pos or p.undone.get(rec, pos + 1) <= pos):
            return RecordNotReadableError
    ordered = sorted(records)
    dist = {}
    for idx in itertools.product((0, 1), repeat=len(records)):
        value = dict(zip(ordered, idx))
        dist.setdefault(tuple(value[rec] for rec in records), 0.0)
    b = t.stages[pos]
    for k, w in zip(b.keys, b.weights):
        dist[tuple((k >> (p.n - rec)) & 1 for rec in records)] += w
    return dist


class TestReadContract:
    @pytest.mark.parametrize("build", [build_protocol, build_counterfactual_protocol,
                                       build_measure_undo_protocol],
                             ids=["standard", "counterfactual", "measure-undo"])
    @pytest.mark.parametrize("read, outcomes_only", [(record_distribution, True),
                                                     (register_marginal, False)],
                             ids=["record_distribution", "register_marginal"])
    def test_every_stage_and_record_list(self, kcbs, build, read, outcomes_only):
        t = simulate(build(5), kcbs)
        for stage in [*t.stage_index, "after M9"]:
            for records in READ_RECORDS:
                expected = expected_read(t, stage, records, outcomes_only)
                if isinstance(expected, dict):
                    got = read(t, stage, records)
                    assert type(got) is dict
                    assert got == expected and list(got) == list(expected), (stage, records)
                else:
                    with pytest.raises(expected) as info:
                        read(t, stage, records)
                    assert type(info.value) is expected, (stage, records)

    @pytest.mark.parametrize("read", [record_distribution, register_marginal])
    @pytest.mark.parametrize("stage, records", [
        ("initial", [2.0]), ("after M2", [2.0]), ("after M2", [2.5]), ("initial", [None]),
        ("after M2", [1, 2.0]), ("after M2", [2.0, 99]), ("initial", [2.5, 0]),
    ])
    def test_record_that_is_not_an_int_is_a_type_error(self, kcbs, read, stage, records):
        # checked in argument order, before its range and its readability
        with pytest.raises(TypeError):
            read(simulate(build_protocol(5), kcbs), stage, records)


class TestTypedErrors:
    @pytest.mark.parametrize("call, error, phrase", [
        (lambda k: Protocol(2, (GateStep("measure", 3),)), ProtocolError, "friend 3 outside 1..2"),
        (lambda k: Protocol(1, (GateStep("measure", 1), GateStep("undo", 1), GateStep("undo", 1))),
         ProtocolError, "friend 1 undone twice"),
        (lambda k: build_measure_undo_protocol(0), ProtocolError, "need at least one friend"),
        (lambda k: register_marginal(simulate(build_protocol(5), k), "final", [6]),
         ProtocolError, "record 6 outside 1..5"),
        (lambda k: commutation_certificates(k, 5).entry("M1 vs M9"), KeyError, "M1 vs M9"),
        (lambda k: paradox_report(k, 5, dataclasses.replace(odd_ncycle_behavior(5), required=None)),
         ValueError, "must designate a required-possible tuple"),
    ], ids=["friend-range", "undone-twice", "no-friends", "record-range", "unknown-label",
            "no-required-tuple"])
    def test_raises(self, kcbs, call, error, phrase):
        with pytest.raises(error, match=phrase) as info:
            call(kcbs)
        assert type(info.value) is error


class TestRecordInvariance:
    def test_undo_commutes_past_its_context_partner(self, kcbs):
        # U1† and M2 share a context, so swapping them cannot move any
        # record statistics (the final states agree gate by gate)
        std = build_protocol(5)
        swapped_steps = list(std.steps)
        swapped_steps[1], swapped_steps[2] = swapped_steps[2], swapped_steps[1]
        swapped = Protocol(5, tuple(swapped_steps))
        t_std = simulate(std, kcbs)
        t_swapped = simulate(swapped, kcbs)
        np.testing.assert_allclose(t_std.states[-1], t_swapped.states[-1], atol=1e-12)
        a = record_distribution(t_std, "after M3", [2, 3])
        b = record_distribution(t_swapped, "after M3", [2, 3])
        for key in a:
            assert abs(a[key] - b[key]) < 1e-12

    def test_undo_blocks_are_what_restores_born_pairs(self, kcbs):
        # negative control: without the undo of friend 1, the leftover
        # entanglement of M1 disturbs the (2,3) statistics, because
        # measurements 1 and 3 do not commute
        plain = Protocol(5, tuple(GateStep("measure", i) for i in range(1, 6)))
        t_plain = simulate(plain, kcbs)
        dist = record_distribution(t_plain, "after M3", [2, 3])
        bp = born_pair(kcbs, 2, 3)
        deviation = max(abs(dist[k] - bp[k]) for k in bp.probabilities)
        assert deviation > 0.1

    def test_trailing_gates_leave_read_records_alone(self, kcbs):
        plain = Protocol(5, tuple(GateStep("measure", i) for i in range(1, 6)))
        t = simulate(plain, kcbs)
        early = record_distribution(t, "after M2", [1, 2])
        late = record_distribution(t, "final", [1, 2])
        for key in early:
            assert abs(early[key] - late[key]) < 1e-12


class TestCounterfactual:
    def test_closing_pair_value(self, kcbs):
        t = simulate(build_counterfactual_protocol(5), kcbs)
        dist = record_distribution(t, "before U", [1, 5])
        assert abs(dist[(1, 0)] - 1 / 9) < 1e-10

    def test_agrees_with_born_pair(self, kcbs):
        t = simulate(build_counterfactual_protocol(5), kcbs)
        dist = record_distribution(t, "before U", [1, 5])
        bp = born_pair(kcbs, 1, 5)
        for key in bp.probabilities:
            assert abs(dist[key] - bp[key]) < 1e-10

    def test_record_one_unreadable_after_block(self, kcbs):
        t = simulate(build_counterfactual_protocol(5), kcbs)
        with pytest.raises(RecordNotReadableError):
            record_distribution(t, "final", [1, 5])


class TestMeasureUndo:
    def test_round_trip_fidelity(self, kcbs):
        t = simulate(build_measure_undo_protocol(5), kcbs)
        fid = abs(np.vdot(t.states[0], t.states[-1])) ** 2
        assert abs(fid - 1.0) < 1e-10

    def test_each_marginal_is_single_measurement_born(self, kcbs):
        t = simulate(build_measure_undo_protocol(5), kcbs)
        expected = [1 / 9, 2 / 3, 1 / 3, 1 / 3, 2 / 3]
        for i, want in zip(range(1, 6), expected):
            d = record_distribution(t, f"after M{i}", [i])
            assert abs(d[(1,)] - want) < 1e-10


class TestCertificates:
    def test_kcbs_pass(self, kcbs):
        certs = commutation_certificates(kcbs, 5)
        assert certs.passed
        for i, j in [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]:
            assert certs.entry(f"M{i} vs M{j}").norm <= 1e-12

    def test_block_commutes_with_final_measurement(self, kcbs):
        certs = commutation_certificates(kcbs, 5)
        assert certs.entry("block U vs M5").norm <= 1e-12

    def test_undo_certificates(self, kcbs):
        certs = commutation_certificates(kcbs, 5)
        for k in (1, 2, 3):
            assert certs.entry(f"U{k}† vs M{k + 1}").norm <= 1e-12

    def test_noncontext_pair_reported_not_required(self, kcbs):
        certs = commutation_certificates(kcbs, 5)
        e = certs.entry("M1 vs M3 (non-context)")
        assert not e.must_commute
        assert e.norm > 0.1
        assert {e.label for e in certs.entries if not e.must_commute} == {
            f"M{a} vs M{b} (non-context)" for a, b in [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]}

    def test_batched_pair_norms_match_pair_formula(self):
        # n = 200 gives 19900 pairs, more than one batch
        r = random_rank1(200, 3, 8)
        pairs = list(itertools.combinations(range(1, 201), 2))
        batched = r.commutator_norms(pairs)
        for (a, b), norm in zip(pairs, batched):
            assert abs(4 * norm - 4 * commutator_norm(r.projector(a), r.projector(b))) <= 1e-15

    @pytest.mark.parametrize("case", fixture_cases(), ids=lambda c: f"n{c[1]}")
    def test_pair_entries_match_commutator_norm(self, case):
        # every pair entry is 4 ||[A, B]||_F of its two gates' operators,
        # P_k^dag for the undo U_k
        r, n, _ = case

        def operator(name):
            p = r.projector(int(name[1:].rstrip("†")))
            return p.conj().T if name.startswith("U") else p

        entries = [e for e in commutation_certificates(r, n).entries if e.pair[0] != "U"]
        assert len(entries) == n * (n - 1) // 2 + n - 2
        for e in entries:
            want = 4 * commutator_norm(operator(e.pair[0]), operator(e.pair[1]))
            assert abs(e.norm - want) <= 1e-15, e.label

    def test_noncontext_entries_built_on_first_access(self, monkeypatch):
        r, n, _ = fixture_cases()[4]
        batches = []
        real = QuantumRealization.commutator_norms

        def counted(self, pairs):
            batches.append(len(pairs))
            return real(self, pairs)

        monkeypatch.setattr(QuantumRealization, "commutator_norms", counted)
        rep = paradox_report(r, n)
        certs = rep.certificates
        assert certs.passed and rep.block_bound <= 1e-12
        for e in certs.required:
            assert certs.entry(e.label) is e
        assert batches == [n]
        entries = certs.entries
        assert batches == [n, n * (n - 1) // 2 - n]
        assert certs.entries is entries
        assert entries[:len(certs.required)] == certs.required
        assert certs.entry("M1 vs M3 (non-context)") is entries[2 * n - 1]

    def test_report_computes_certificates_once(self, kcbs, monkeypatch):
        calls = []
        real = ewf.commutation_certificates

        def counted(r, n):
            calls.append(n)
            return real(r, n)

        monkeypatch.setattr(ewf, "commutation_certificates", counted)
        paradox_report(kcbs, 5)
        assert calls == [5]
        r, n, target = fixture_cases()[3]
        paradox_report(r, n, target=target)
        assert calls == [5, n]

    def test_split_batches_match_one_batch(self):
        # the required and the non-context pair norms, formed in two batches,
        # equal the norms of all pairs formed in one; an undo U_k applies P_k
        r, n, _ = fixture_cases()[10]
        entries = commutation_certificates(r, n).entries

        def label(name):
            return int(name[1:].rstrip("†"))

        pairs = [(label(a), label(b)) for a, b in (e.pair for e in entries) if a != "U"]
        norms = (4.0 * r.commutator_norms(pairs)).tolist()
        assert [e.norm for e in entries if e.pair[0] != "U"] == norms

    @pytest.mark.parametrize("n", list(range(5, 26)) + [101])
    def test_pair_entries_are_four_times_the_realization_norms(self, n):
        # bit for bit; at n = 101 the 4949 non-context pairs exceed one chunk,
        # and the one call below splits its 5050 pairs at another boundary
        r = find_quantum_realization(make_cycle_scenario(n), unified_ncycle_behavior(n), 3,
                                     seed=1)
        entries = [e for e in commutation_certificates(r, n).entries if e.pair[0][0] == "M"]
        pairs = [(int(a[1:]), int(b[1:])) for a, b in (e.pair for e in entries)]
        assert len(pairs) == n * (n - 1) // 2
        assert [e.norm for e in entries] == (4.0 * r.commutator_norms(pairs)).tolist()

    @pytest.mark.parametrize("case", fixture_cases() + [rotated_case(5, 1)],
                             ids=[f"n{n}" for n in range(5, 16)] + ["kcbs", "rotated-n5"])
    def test_undo_entries_reuse_context_norms(self, case):
        # U_k is the gate M_k, so each undo entry is the context entry (k, k+1)
        r, n, _ = case
        certs = commutation_certificates(r, n)
        for k in range(1, n - 1):
            assert certs.entry(f"U{k}† vs M{k + 1}").norm == \
                certs.entry(f"M{k} vs M{k + 1}").norm

    def test_entries_after_report_match_dense_oracle(self, kcbs):
        certs = paradox_report(kcbs, 5).certificates
        dense = dense_commutation_certificates(kcbs, 5)
        assert [e.label for e in certs.entries] == [e.label for e in dense.entries]
        assert [e.must_commute for e in certs.entries] == \
            [e.must_commute for e in dense.entries]
        assert [e.label for e in certs.required] == [e.label for e in dense.required]

    def test_block_telescopes(self, kcbs):
        # the intervening block collapses to U_{n-1} U_1^dag
        gates = {i: measurement_unitary(kcbs, i, 5) for i in range(1, 6)}
        block = np.eye(96, dtype=complex)
        for st in build_protocol(5).steps[1:-1]:
            g = gates[st.friend]
            block = (g.conj().T if st.kind == "undo" else g) @ block
        np.testing.assert_allclose(block, gates[4] @ gates[1].conj().T, atol=1e-12)


class TestParadoxReport:
    def test_missing_friend_is_a_protocol_error(self, kcbs):
        r4 = QuantumRealization(3, kcbs.state, {i: kcbs.frames[i] for i in range(1, 5)})
        for check in (paradox_report, commutation_certificates, dense_commutation_certificates):
            with pytest.raises(ProtocolError,
                               match=r"realization has no measurement for friends \[5\]"):
                check(r4, 5)

    def test_repeated_reports_build_no_realization(self, monkeypatch):
        r, n, target = fixture_cases()[2]
        first = report_to_doc(paradox_report(r, n, target=target))
        built = []
        real = QuantumRealization.__post_init__

        def counted(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(QuantumRealization, "__post_init__", counted)
        for _ in range(3):
            assert report_to_doc(paradox_report(r, n, target=target)) == first
        assert built == []

    @pytest.mark.parametrize("bits", list(itertools.product((False, True), repeat=4)),
                             ids=lambda bits: "".join("1" if b else "0" for b in bits))
    @pytest.mark.parametrize("dim", [4, 5])
    def test_hardy_paradox_at_four_friends(self, dim, bits):
        target = relabel(unified_ncycle_behavior(4), FlipMask(dict(enumerate(bits, start=1))))
        r = find_quantum_realization(make_cycle_scenario(4), target, dim, seed=1)
        rep = paradox_report(r, 4, target=target)
        assert rep.verdict and rep.certificates.passed
        assert rep.counterfactual.outcome_tuple == target.required[1]
        assert abs(rep.counterfactual.value - (5 * math.sqrt(5) - 11) / 2) <= 1e-12

    def test_kcbs_verdict(self, kcbs):
        rep = paradox_report(kcbs, 5)
        assert rep.verdict
        assert abs(rep.counterfactual.value - 1 / 9) < 1e-10
        assert rep.counterfactual.outcome_tuple == (1, 0)
        assert all(c.passed for c in rep.pairwise)
        assert rep.convention == "flip-on-outcome-1"

    @pytest.mark.parametrize("kwarg", ["tol", "eps"])
    def test_thresholds_are_fixed(self, kcbs, kwarg):
        # the report compares with PROB_TOL and POSSIBILITY_EPS; no caller
        # can move them
        with pytest.raises(TypeError):
            paradox_report(kcbs, 5, **{kwarg: 1e-10})
        assert paradox_report(kcbs, 5).counterfactual.threshold == ewf.POSSIBILITY_EPS

    @pytest.mark.parametrize("case", fixture_cases(), ids=lambda c: f"n{c[1]}")
    def test_counterfactual_read_matches_full_run(self, case):
        r, n, target = case
        rep = paradox_report(r, n, target=target)
        assert rep.verdict
        full = simulate(build_counterfactual_protocol(n), r)
        read = record_distribution(full, "before U", [1, n])
        assert rep.counterfactual.value == read[rep.counterfactual.outcome_tuple]
        std = simulate(build_protocol(n), r)
        assert rep.truncation <= max(std.truncation, full.truncation)

    @pytest.mark.parametrize("target, cause", [
        (dataclasses.replace(odd_ncycle_behavior(5), required=((1, 2), (0, 0))), "context"),
        (dataclasses.replace(odd_ncycle_behavior(5), required=((2, 3), (0, 1))), "context"),
        (dataclasses.replace(odd_ncycle_behavior(5), required=((1, 5), (2, 0))), "outcome"),
        (unified_ncycle_behavior(6), "5-cycle"),
    ], ids=["context-1-2", "context-2-3", "tuple", "6-cycle"])
    def test_malformed_target_rejected(self, kcbs, target, cause):
        with pytest.raises(ValueError, match=cause):
            paradox_report(kcbs, 5, target=target)

    def test_chain(self, kcbs):
        rep = paradox_report(kcbs, 5)
        assert rep.chain.steps == ((1, 1), (2, 0), (3, 1), (4, 0), (5, 1))
        assert rep.chain.refutes(5, 0)

    def test_target_without_contradiction_is_no_paradox(self, kcbs):
        # full support on every context forbids nothing, so every read
        # passes, but the chain from a_1 = 1 forces nothing and the verdict
        # must not claim a contradiction
        s = make_cycle_scenario(5)
        target = PossibilisticBehavior(s, {c: frozenset(s.tuples(c)) for c in s.contexts},
                                       required=((1, 5), (1, 0)))
        assert not is_logically_contextual(target).contextual
        rep = paradox_report(kcbs, 5, target=target)
        assert rep.pairwise == ()
        assert rep.counterfactual.passed
        assert not rep.chain.conflicted and rep.chain.forced == {1: 1}
        assert not rep.verdict

    def test_wrong_state_fails_pairwise_check(self, kcbs):
        # preparing vector 4 itself keeps every certificate green but puts
        # weight 1/2 on the forbidden (0,0) of context (2,3)
        r = QuantumRealization(3, kcbs.vectors[4].copy(), dict(kcbs.frames))
        rep = paradox_report(r, 5)
        assert not rep.verdict
        failing = [c for c in rep.pairwise if not c.passed]
        assert [(c.context, c.forbidden) for c in failing] == [((2, 3), (0, 0))]
        assert abs(failing[0].value - 0.5) < 1e-12

    def test_fault_injection_is_caught(self, kcbs):
        # flipping the sign of one entry of vector 1 moves it off the ray
        # orthogonal to its neighbors; both of its contexts must light up.
        # (vector 3 has a single nonzero entry, so a sign flip there is a
        # pure phase and changes nothing; vector 1 is the honest fault.)
        bad = kcbs.vectors[1].copy()
        bad[1] = -bad[1]
        frames = dict(kcbs.frames)
        frames[1] = bad.reshape(3, 1)
        r = QuantumRealization(3, kcbs.state, frames)
        certs = commutation_certificates(r, 5)
        assert not certs.passed
        failing = {e.label for e in certs.entries
                   if e.must_commute and e.norm > ALG_TOL}
        assert {"M1 vs M2", "M1 vs M5"} <= failing
        with pytest.raises(CertificateError):
            paradox_report(r, 5)

    def test_certificate_failure_raises(self):
        # non-orthogonal adjacent vectors break the compatibility certificates
        v = {i: np.zeros(3, dtype=complex) for i in range(1, 6)}
        for i in range(1, 6):
            v[i][0] = 1.0
            v[i][1] = 0.1 * i
            v[i] /= np.linalg.norm(v[i])
        r = QuantumRealization(3, np.array([1, 0, 0], dtype=complex),
                               {i: v[i].reshape(3, 1) for i in v})
        with pytest.raises(CertificateError):
            paradox_report(r, 5)

    def test_searched_realization_n6(self):
        s = make_cycle_scenario(6)
        target = unified_ncycle_behavior(6)
        r = find_quantum_realization(s, target, 4, seed=1)
        rep = paradox_report(r, 6)
        assert rep.verdict
        assert max(c.value for c in rep.pairwise) <= 1e-10
        assert rep.counterfactual.value >= 1e-3
        assert rep.chain.forced == {i: 0 for i in range(1, 7)}

    def test_reach_beyond_dense_certificates(self):
        # a single dense gate at n = 13, d = 3 would take about 9.7 GB; the
        # system-space certificates must stay small and pass on a correct
        # realization
        n = 13
        r = find_quantum_realization(make_cycle_scenario(n), unified_ncycle_behavior(n),
                                     3, seed=1)
        tracemalloc.start()
        try:
            certs = commutation_certificates(r, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert certs.passed
        assert peak < 32 * 2**20
        rep = paradox_report(r, n)
        assert rep.verdict
        assert rep.certificates.passed

    def test_reach_with_branch_kernel(self):
        # a dense state at n = 41, d = 3 would hold 3 * 2^41 amplitudes; the
        # branch kernel keeps a handful and certifies its truncation
        n = 41
        r = find_quantum_realization(make_cycle_scenario(n), unified_ncycle_behavior(n),
                                     3, seed=1)
        tracemalloc.start()
        try:
            rep = paradox_report(r, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.verdict
        assert rep.certificates.passed
        assert peak < 16 * 2**20
        assert rep.probability_bound <= 1e-12
        assert rep.block_bound <= 1e-12
