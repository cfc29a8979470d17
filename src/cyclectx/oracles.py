"""Brute-force cross-checks, deliberately code-path-disjoint from the
main pipeline.

``projection_sequential`` applies the textbook sequential state-update rule
branch by branch. It exists only to validate the update-free pair statistics
numerically; nothing in the paradox logic may call it, since mixing a
unitary account of a measurement with a collapse account of the same
measurement would void the argument being verified.

``exhaustive_support_check`` recomputes every context table from the trace
formula on the density matrix, sharing no code with ``born_pair``. It
covers pair contexts only: all 4n (context, outcome) products Q_a Q_b take
one stacked product, and every Tr(Q_a Q_b rho) one batched trace.

``enumerate_contextuality`` decides logical contextuality by walking all
global assignments, sharing no code with the transfer-matrix decision in
``scenario.is_logically_contextual``. It returns the same verdict, witness
and fates (materialized as a tuple) on the binary cycle.

``fixpoint_propagate_chain`` runs unit propagation by rescanning every
context in order until a full pass changes nothing, restricting tuple sets
throughout. It shares no code with the worklist and mask tables of
``scenario.propagate_chain`` and returns the same ``ChainResult``, steps in
the same order, on the binary cycle; a chain forced against the scan order
costs it O(n^2).

Both take plain contexts, a support per context and the outcome alphabet
rather than a ``PossibilisticBehavior``, whose scenario is the binary
n-cycle only, so they also decide contexts of any size, outcomes beyond
{0, 1} and scenarios that are not cycles. The measurements are the labels
the contexts name, in ascending order; a context that names one twice
raises ``ScenarioError``.

``dense_simulate`` runs a schedule on the full d 2^n state tensor and keeps
every stage; its memory grows as d 2^n per stage. It, the dense gates of
``measurement_unitary`` and ``_pair_gates`` (the kernel applied to an
identity tensor) and the certificates below share one record-gate kernel,
``_apply_record_gate``, and no code with the branch kernel of ``ewf``. Its
stages are named by ``Protocol.stage_index``, the one stage map, as a
trace's are.

Every oracle that reads a realization checks its labels with its own
``_require`` first: a friend the realization lacks raises ``ProtocolError``
and a label of a statistic raises ``RealizationError``, as in the pipeline.

``dense_commutation_certificates`` recomputes the commutation certificates
of ``ewf.commutation_certificates`` from those dense gates on the full
register space, sharing no code with the system-space path; its undo
gates use ``P.conj().T``, so agreement also checks that an undo is the
measurement gate. Its block entry is the unnormalized
``||[block, M_n]||_F``, which is ``sqrt(2^n)`` times the pipeline's; the
(d 2^n)^2 matrices it multiplies keep it to small n.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .ewf import (
    CertificateEntry,
    CertificateReport,
    Protocol,
    ProtocolError,
    build_protocol,
)
from .linalg import ALG_TOL
from .quantum import QuantumRealization, RealizationError, behavior_from_realization
from .scenario import (
    AssignmentFate,
    ChainConflict,
    ChainResult,
    Context,
    ContextualityVerdict,
    EnumerationLimitError,
    OutcomeTuple,
    Scenario,
    ScenarioError,
    Witness,
)

ENUMERATION_GUARD = 2**24


@dataclass(frozen=True)
class OracleResult:
    quantity: str
    oracle_value: Mapping
    pipeline_value: Mapping

    def __post_init__(self):
        if set(self.oracle_value) != set(self.pipeline_value):
            raise ValueError("oracle and pipeline values have different key sets")

    @property
    def max_abs_diff(self) -> float:
        a, b = self.oracle_value, self.pipeline_value
        return max(abs(a[k] - b[k]) for k in a) if a else 0.0


def _require(r: QuantumRealization, labels, error: type[ValueError]) -> None:
    """Raise ``error`` naming the labels the realization has no measurement for."""
    missing = sorted(set(labels) - r.frames.keys())
    if missing:
        noun = "friends" if error is ProtocolError else "labels"
        raise error(f"realization has no measurement for {noun} {missing}")


def projection_sequential(r: QuantumRealization, sequence: Sequence[int]) -> dict:
    """Joint distribution from the projection postulate, outcome by outcome.

    Each measurement in the sequence splits every branch with the two
    outcome projectors and renormalizes; branch weights multiply. Keys are
    outcome tuples in sequence order. A label without a measurement raises
    ``RealizationError``.
    """
    if len(sequence) < 1:
        raise ValueError("sequence must contain at least one measurement")
    _require(r, sequence, RealizationError)
    branches = [((), r.state, 1.0)]
    for i in sequence:
        new = []
        for outcomes, state, weight in branches:
            for a in (0, 1):
                v = r.outcome_projector(i, a) @ state
                # the operations of np.linalg.norm(v), without its dispatch
                p = float(np.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag)) ** 2)
                if weight * p == 0.0:
                    new.append((outcomes + (a,), v, 0.0))
                else:
                    new.append((outcomes + (a,), v / np.sqrt(p), weight * p))
        branches = new
    return {outcomes: weight for outcomes, state, weight in branches}


def exhaustive_support_check(r: QuantumRealization, s: Scenario) -> OracleResult:
    """Recompute every pair context table via Tr(Q_a Q_b rho).

    The products Q_a Q_b of every (context, outcome) key take one stacked
    product, and their traces against rho one batched trace. A measurement
    of the scenario that the realization lacks raises ``RealizationError``
    before any of that work."""
    _require(r, s.measurements, RealizationError)
    rho = np.outer(r.state, r.state.conj())
    keys = [(c, t) for c in s.contexts for t in itertools.product((0, 1), repeat=2)]
    first = np.stack([r.outcome_projector(c[0], t[0]) for c, t in keys])
    second = np.stack([r.outcome_projector(c[1], t[1]) for c, t in keys])
    traces = np.trace(first @ second @ rho, axis1=1, axis2=2).real
    oracle = dict(zip(keys, traces.tolist()))
    b = behavior_from_realization(r, s)
    pipeline = {(c, t): b.tables[c][t] for c in s.contexts for t in b.tables[c]}
    return OracleResult("context tables", oracle, pipeline)


def _measurements(contexts: Sequence[Context]) -> list[int]:
    """The labels the contexts name, ascending; a context naming one twice
    raises ``ScenarioError``."""
    for c in contexts:
        if len(set(c)) != len(c):
            raise ScenarioError(f"context {c} names a measurement twice")
    return sorted({m for c in contexts for m in c})


def enumerate_contextuality(contexts: Sequence[Context],
                            supports: Mapping[Context, frozenset[OutcomeTuple]],
                            outcomes: Sequence[int]) -> ContextualityVerdict:
    """Decide logical contextuality by walking every global assignment.

    An assignment gives each measurement one of ``outcomes`` and survives
    when its restriction to every context is in that context's support.
    Contexts are scanned starting from the cycle-closing one, the pair of
    the first and last measurement when there is one and more than two
    measurements, so on the cycle behaviors the reported witness is the
    tuple the paradox post-selects on.
    """
    measurements = _measurements(contexts)
    n = len(measurements)
    size = len(outcomes) ** n
    if size > ENUMERATION_GUARD:
        raise EnumerationLimitError(f"{size} assignments exceed the enumeration guard")

    pos = {m: k for k, m in enumerate(measurements)}
    ctx_idx = {c: [pos[m] for m in c] for c in contexts}

    surviving_restrictions: dict[Context, set[OutcomeTuple]] = {c: set() for c in contexts}
    for values in itertools.product(outcomes, repeat=n):
        if all(tuple(values[i] for i in ctx_idx[c]) in supports[c] for c in contexts):
            for c in contexts:
                surviving_restrictions[c].add(tuple(values[i] for i in ctx_idx[c]))

    closing = (measurements[0], measurements[-1]) if n > 2 else None
    scan = [closing] if closing in contexts else []
    for c in scan + [c for c in contexts if c != closing]:
        for t in sorted(supports[c]):
            if t in surviving_restrictions[c]:
                continue
            # every extension of t dies somewhere; record where
            fates = []
            free = [m for m in measurements if m not in c]
            for rest in itertools.product(outcomes, repeat=len(free)):
                assignment = dict(zip(c, t))
                assignment.update(zip(free, rest))
                full = tuple(assignment[m] for m in measurements)
                killer = None
                for c2 in contexts:
                    if tuple(full[i] for i in ctx_idx[c2]) not in supports[c2]:
                        killer = c2
                        break
                assert killer is not None
                fates.append(AssignmentFate(full, killer))
            return ContextualityVerdict(Witness(c, t, tuple(fates)))
    return ContextualityVerdict(None)


def fixpoint_propagate_chain(contexts: Sequence[Context],
                             supports: Mapping[Context, frozenset[OutcomeTuple]],
                             outcomes: Sequence[int], seed_measurement: int,
                             seed_value: int) -> ChainResult:
    """Unit propagation by rescanning every context until a fixpoint.

    Starting from the seeded value, whenever the support of some context
    restricted to the currently fixed values leaves a single option for an
    unfixed measurement, that value is forced. Stops at a fixpoint, or at
    the first context whose restricted support becomes empty. An unknown
    seed measurement, or a seed value not in ``outcomes``, raises
    ``ScenarioError``.
    """
    if seed_measurement not in _measurements(contexts):
        raise ScenarioError(f"unknown measurement {seed_measurement}")
    if seed_value not in outcomes:
        raise ScenarioError(f"seed value {seed_value!r} is not one of the outcomes {outcomes}")
    fixed: dict[int, int] = {seed_measurement: seed_value}
    steps: list[tuple[int, int]] = [(seed_measurement, seed_value)]
    changed = True
    while changed:
        changed = False
        for c in contexts:
            pinned = [k for k, m in enumerate(c) if m in fixed]
            if pinned:
                get = operator.itemgetter(*pinned)
                want = get([fixed.get(m) for m in c])
                allowed = [t for t in supports[c] if get(t) == want]
            else:
                allowed = list(supports[c])
            if not allowed:
                return ChainResult(dict(fixed), tuple(steps), ChainConflict(c, dict(fixed)))
            for k, m in enumerate(c):
                if m in fixed:
                    continue
                vals = {t[k] for t in allowed}
                if len(vals) == 1:
                    v = vals.pop()
                    fixed[m] = v
                    steps.append((m, v))
                    changed = True
    return ChainResult(dict(fixed), tuple(steps), None)


@dataclass(frozen=True)
class DenseTrace:
    protocol: Protocol
    states: tuple[np.ndarray, ...]            # one per stage, index 0 = initial


def _apply_record_gate(tensor: np.ndarray, p1: np.ndarray, axis: int,
                       dagger: bool = False) -> np.ndarray:
    """Apply the record gate (or its inverse) on (system axis 0, record axis).

    The gate is ``1 + P (x) (X - 1)``: the outcome-1 branch of the system
    sees its record flipped. Trailing axes ride along, so the same kernel
    acts on state tensors and on operator coefficient tensors.
    """
    op1 = p1.conj().T if dagger else p1
    return tensor + np.tensordot(op1, np.flip(tensor, axis=axis) - tensor,
                                 axes=([1], [0]))


def dense_simulate(p: Protocol, r: QuantumRealization) -> DenseTrace:
    """Run the schedule from state (x) |0...0> and keep every stage;
    ``p.stage_index`` names them."""
    _require(r, range(1, p.n + 1), ProtocolError)
    tensor = np.zeros((r.dim,) + (2,) * p.n, dtype=complex)
    tensor[(slice(None),) + (0,) * p.n] = r.state
    states = [tensor.reshape(-1)]
    for st in p.steps:
        tensor = _apply_record_gate(tensor, r.projector(st.friend), st.friend,
                                    dagger=(st.kind == "undo"))
        flat = tensor.reshape(-1)
        norm2 = float(np.linalg.norm(flat) ** 2)
        if abs(norm2 - 1.0) > ALG_TOL:
            raise ProtocolError(f"norm drifted to {norm2} at step {st.label}")
        states.append(flat)
    return DenseTrace(p, tuple(states))


def _identity_tensor(d: int, records: int) -> np.ndarray:
    # rows split into the system axis and one axis per record; columns trail
    size = d * 2 ** records
    return np.eye(size, dtype=complex).reshape((d,) + (2,) * records + (size,))


def _gate_matrix(p1: np.ndarray, axis: int, records: int) -> np.ndarray:
    """The record gate on record ``axis`` of system (x) ``records`` qubits."""
    size = p1.shape[0] * 2 ** records
    return _apply_record_gate(_identity_tensor(p1.shape[0], records), p1, axis).reshape(size, size)


def measurement_unitary(r: QuantumRealization, i: int, n: int) -> np.ndarray:
    """Full-space record gate for friend i among n record qubits.

    A friend outside 1..n, or one without a measurement, raises
    ``ProtocolError``."""
    if not 1 <= i <= n:
        raise ProtocolError(f"friend index {i} outside 1..{n}")
    _require(r, [i], ProtocolError)
    return _gate_matrix(r.projector(i), i, n)


def _pair_gates(r: QuantumRealization, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Gates for measurements i and j embedded on system (x) A_i (x) A_j."""
    return _gate_matrix(r.projector(i), 1, 2), _gate_matrix(r.projector(j), 2, 2)


def _comm_norm(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a @ b - b @ a))


def dense_commutation_certificates(r: QuantumRealization, n: int) -> CertificateReport:
    """The certificates of ``ewf.commutation_certificates`` from dense gates.

    Same entries, labels and flags. Pair entries are commutator norms of
    dense gates on system (x) A_i (x) A_j; the block entry applies the
    gates of the intervening block to the full-space identity and reports
    ||[block, M_n]||_F unnormalized. Memory grows as (d 2^n)^2.
    """
    _require(r, range(1, n + 1), ProtocolError)
    required: list[CertificateEntry] = []
    contexts = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    for i, j in contexts:
        ui, uj = _pair_gates(r, i, j)
        required.append(CertificateEntry(f"M{i} vs M{j}", _comm_norm(ui, uj), True))
    for k in range(1, n - 1):
        uk, uk1 = _pair_gates(r, k, k + 1)
        required.append(CertificateEntry(
            f"U{k}† vs M{k + 1}", _comm_norm(uk.conj().T, uk1), True))
    size = r.dim * 2 ** n
    block = _identity_tensor(r.dim, n)
    for st in build_protocol(n).steps[1:-1]:
        block = _apply_record_gate(block, r.projector(st.friend), st.friend,
                                   dagger=(st.kind == "undo"))
    required.append(CertificateEntry(
        f"block U vs M{n}",
        _comm_norm(block.reshape(size, size), measurement_unitary(r, n, n)), True))
    ctx_set = {tuple(sorted(c)) for c in contexts}
    others: list[CertificateEntry] = []
    for a, b in itertools.combinations(range(1, n + 1), 2):
        if (a, b) in ctx_set:
            continue
        ua, ub = _pair_gates(r, a, b)
        others.append(CertificateEntry(
            f"M{a} vs M{b} (non-context)", _comm_norm(ua, ub), False))
    return CertificateReport(tuple(required), lambda: others)
