"""Sequential friend measurements with a superobserver undoing them.

The circuit acts on the system register tensored with one record qubit per
friend (system factor slowest-varying, records in ascending label order).
Friend i's measurement is a generalized CNOT

    U_i = P_i (x) X_{A_i}  +  (1 - P_i) (x) 1_{A_i}

where P_i is the outcome-1 projector, so the record qubit flips to |1> on
the outcome-1 branch and record bits equal outcome labels. The undo applies
the inverse gate to the same pair of registers. Since P_i is Hermitian, U_i
is Hermitian as well as unitary, hence an involution.

The standard schedule measures M1, M2 and then alternates undoing friend k
with measuring friend k+2, so the first n-2 records are erased. A record
can only be read while it actually holds an outcome: ``record_distribution``
refuses any stage at which the requested record was not yet generated or
was already undone. The joint (a_1, a_n) statistics of the standard
schedule are therefore unreachable by construction; the counterfactual
schedule, which postpones the whole intervening block until after M_n,
is the sanctioned route to that correlation, and
``commutation_certificates`` checks the commutation facts that make the
relocation statistically irrelevant.

Every gate is ``1 + P_i (x) (X_i - 1)``, and all X-strings on the records
commute with each other. A product of gates, the whole intervening block
included, is therefore ``sum_f B_f (x) X^f`` over record bit strings f,
with d x d system blocks B_f, and the X-strings are Frobenius-orthogonal
with ``||X^f||_F^2 = 2^n``. The certificates use this to stay in the
system space:

* a pair of gates commutes up to ``[P_i, P_j] (x) (X_i - 1)(X_j - 1)``, so
  its commutator norm on system (x) A_i (x) A_j is ``4 ||[P_i, P_j]||_F``;
* the block is held as its coefficient tensor ``T[a, f, b] = (B_f)_ab``,
  built with the same record-gate kernel that ``simulate`` applies to
  states. Its certificate is ``||[block, M_n]||_F / sqrt(2^n)``, which is
  ``sqrt(2 sum_f ||[B_f, P_n]||_F^2)`` because the block never touches
  record n. Dividing out ``sqrt(2^n)``, the norm of one X-string, keeps the
  value on the scale of the d x d blocks: the unnormalized norm grows with
  the register, and its rounding residue alone crosses ALG_TOL near n = 15
  on a correct realization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .linalg import ALG_TOL, PROB_TOL
from .ncycle import odd_ncycle_behavior, unified_ncycle_behavior
from .quantum import PairDistribution, QuantumRealization
from .scenario import (
    POSSIBILITY_EPS,
    ChainResult,
    PossibilisticBehavior,
    propagate_chain,
)

class ProtocolError(ValueError):
    """Ill-formed gate schedule."""


class UnknownStageError(KeyError):
    """The requested stage name is not part of the trace."""


class RecordNotReadableError(RuntimeError):
    """A record was read before its measurement or after its undo."""


class CertificateError(RuntimeError):
    """A commutation certificate required by the schedule failed."""


@dataclass(frozen=True)
class GateStep:
    kind: str        # "measure" or "undo"
    friend: int

    def __post_init__(self):
        if self.kind not in ("measure", "undo"):
            raise ProtocolError(f"unknown step kind {self.kind!r}")

    @property
    def label(self) -> str:
        return ("M" if self.kind == "measure" else "U") + str(self.friend)


@dataclass(frozen=True)
class Protocol:
    n: int
    steps: tuple[GateStep, ...]
    kind: str = field(default="custom", compare=False)
    # friend -> 1-based step position of its measurement / its undo
    measured: dict[int, int] = field(init=False, compare=False, repr=False)
    undone: dict[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        measured: dict[int, int] = {}
        undone: dict[int, int] = {}
        for pos, st in enumerate(self.steps, start=1):
            if not 1 <= st.friend <= self.n:
                raise ProtocolError(f"friend {st.friend} outside 1..{self.n}")
            if st.kind == "measure":
                if st.friend in measured:
                    raise ProtocolError(f"friend {st.friend} measured twice")
                measured[st.friend] = pos
            else:
                if st.friend not in measured:
                    raise ProtocolError(f"undo of friend {st.friend} before its measurement")
                if st.friend in undone:
                    raise ProtocolError(f"friend {st.friend} undone twice")
                undone[st.friend] = pos
        if set(measured) != set(range(1, self.n + 1)):
            raise ProtocolError("every friend must be measured exactly once")
        object.__setattr__(self, "measured", measured)
        object.__setattr__(self, "undone", undone)

    def measure_position(self, friend: int) -> int:
        return self.measured[friend]

    def undo_position(self, friend: int) -> int | None:
        return self.undone.get(friend)


def build_protocol(n: int) -> Protocol:
    """M1, M2, then alternately undo friend k and measure friend k+2."""
    if n < 5:
        raise ProtocolError(f"the schedule needs at least 5 friends, got {n}")
    steps = [GateStep("measure", 1), GateStep("measure", 2)]
    for k in range(1, n - 1):
        steps.append(GateStep("undo", k))
        if k + 2 <= n:
            steps.append(GateStep("measure", k + 2))
    return Protocol(n, tuple(steps), kind="standard")


def build_counterfactual_protocol(n: int) -> Protocol:
    """M1, Mn first; the whole intervening block is appended afterwards."""
    if n < 5:
        raise ProtocolError(f"the schedule needs at least 5 friends, got {n}")
    steps = [GateStep("measure", 1), GateStep("measure", n)]
    block = build_protocol(n).steps[1:-1]   # everything between M1 and Mn
    return Protocol(n, tuple(steps) + tuple(block), kind="counterfactual")


def build_measure_undo_protocol(n: int) -> Protocol:
    """Each measurement immediately reversed: M1, U1, M2, U2, ..., Mn, Un."""
    if n < 1:
        raise ProtocolError("need at least one friend")
    steps = []
    for i in range(1, n + 1):
        steps.append(GateStep("measure", i))
        steps.append(GateStep("undo", i))
    return Protocol(n, tuple(steps), kind="measure-undo")


@dataclass(frozen=True)
class SimulationTrace:
    protocol: Protocol
    dim: int
    states: tuple[np.ndarray, ...]            # one per stage, index 0 = initial
    stage_index: Mapping[str, int]

    def state_at(self, stage: str) -> np.ndarray:
        if stage not in self.stage_index:
            raise UnknownStageError(stage)
        return self.states[self.stage_index[stage]]


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


def simulate(p: Protocol, r: QuantumRealization) -> SimulationTrace:
    """Run the schedule from state (x) |0...0> and keep every stage."""
    missing = [i for i in range(1, p.n + 1) if i not in r.frames]
    if missing:
        raise ProtocolError(f"realization has no measurement for friends {missing}")
    d = r.dim
    shape = (d,) + (2,) * p.n
    tensor = np.zeros(shape, dtype=complex)
    tensor[(slice(None),) + (0,) * p.n] = r.state
    states = [tensor.reshape(-1)]
    stage_index = {"initial": 0}
    for pos, st in enumerate(p.steps, start=1):
        tensor = _apply_record_gate(tensor, r.projector(st.friend), st.friend,
                                    dagger=(st.kind == "undo"))
        flat = tensor.reshape(-1)
        norm2 = float(np.linalg.norm(flat) ** 2)
        if abs(norm2 - 1.0) > ALG_TOL:
            raise ProtocolError(f"norm drifted to {norm2} at step {st.label}")
        states.append(flat)
        stage_index[f"after {st.label}"] = pos
    if p.kind == "counterfactual":
        stage_index["before U"] = p.measure_position(p.n)
    stage_index["final"] = len(p.steps)
    return SimulationTrace(p, d, tuple(states), stage_index)


def register_marginal(t: SimulationTrace, stage: str,
                      records: Sequence[int]) -> dict:
    """Raw computational-basis marginal of record qubits at a stage.

    Diagnostic view of the register state with no outcome semantics
    attached; it is how one checks that an undo returned a record to the
    ready state. Keys follow the given record order.
    """
    if stage not in t.stage_index:
        raise UnknownStageError(stage)
    pos = t.stage_index[stage]
    p = t.protocol
    for rec in records:
        if not 1 <= rec <= p.n:
            raise ProtocolError(f"record {rec} outside 1..{p.n}")
    tensor = t.states[pos].reshape((t.dim,) + (2,) * p.n)
    weights = np.abs(tensor) ** 2
    drop = [0] + [ax for ax in range(1, p.n + 1) if ax not in records]
    marg = weights.sum(axis=tuple(drop))
    # marginal axes follow ascending record label; reorder to argument order
    sorted_recs = sorted(records)
    dist = {}
    for idx in np.ndindex(marg.shape):
        by_label = dict(zip(sorted_recs, idx))
        key = tuple(by_label[rec] for rec in records)
        dist[key] = float(marg[idx])
    return dist


def record_distribution(t: SimulationTrace, stage: str, records: Sequence[int]):
    """Computational-basis marginal of the listed record qubits at a stage.

    No collapse is applied; squared amplitudes are grouped by record bits.
    Each record must hold an outcome at the stage, i.e. its measurement has
    happened and its undo has not: reads outside that window are refused
    rather than silently returning register statistics that no observer
    could associate with outcomes.
    """
    if stage not in t.stage_index:
        raise UnknownStageError(stage)
    pos = t.stage_index[stage]
    p = t.protocol
    for rec in records:
        if not 1 <= rec <= p.n:
            raise ProtocolError(f"record {rec} outside 1..{p.n}")
        gen = p.measure_position(rec)
        undo = p.undo_position(rec)
        if gen > pos:
            raise RecordNotReadableError(
                f"record A{rec} holds no outcome yet at stage {stage!r}")
        if undo is not None and undo <= pos:
            raise RecordNotReadableError(
                f"record A{rec} was erased at step {undo}, before stage {stage!r}")
    dist = register_marginal(t, stage, records)
    if len(records) == 2:
        return PairDistribution((records[0], records[1]), dist)
    return dist


# --- commutation certificates ------------------------------------------------


@dataclass(frozen=True)
class CertificateEntry:
    label: str
    pair: tuple[str, str]
    norm: float
    must_commute: bool


@dataclass(frozen=True)
class CertificateReport:
    n: int
    tol: float
    entries: tuple[CertificateEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.norm <= self.tol for e in self.entries if e.must_commute)

    def entry(self, label: str) -> CertificateEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)


def _gate_pair_norm(pi: np.ndarray, pj: np.ndarray) -> float:
    """||[1 + P_i (x) (X_i - 1), 1 + P_j (x) (X_j - 1)]||_F on system (x) A_i (x) A_j.

    The commutator is [P_i, P_j] (x) (X_i - 1) (x) (X_j - 1), and each
    ||X - 1||_F is 2.
    """
    return 4.0 * float(np.linalg.norm(pi @ pj - pj @ pi))


def _block_coefficients(r: QuantumRealization, n: int) -> np.ndarray:
    """Coefficient tensor T[a, f_1, ..., f_n, b] = (B_f)_ab of the block.

    The intervening block of the standard schedule, M2 U1 M3 ... U_{n-2},
    equals sum_f B_f (x) X^f. Multiplying a gate on the left acts on the
    first system axis and the record axes exactly as it acts on a state, so
    ``_apply_record_gate`` builds T from the identity.
    """
    d = r.dim
    tensor = np.zeros((d,) + (2,) * n + (d,), dtype=complex)
    tensor[(slice(None),) + (0,) * n + (slice(None),)] = np.eye(d)
    for st in build_protocol(n).steps[1:-1]:
        tensor = _apply_record_gate(tensor, r.projector(st.friend), st.friend,
                                    dagger=(st.kind == "undo"))
    return tensor


def commutation_certificates(r: QuantumRealization, n: int,
                             tol: float = ALG_TOL) -> CertificateReport:
    """Commutator norms backing the schedule's observability claims.

    Checked at tolerance: every context pair of gates (adjacent pairs and
    the closing pair, on the minimal shared registers), each undo against
    the measurement performed just before it, and the full intervening
    block against the final measurement on the complete register space,
    reported per X-string as ||[block, M_n]||_F / sqrt(2^n). Non-context
    pairs are reported as expected-noncommuting information. Everything is
    computed from d x d system blocks; see the module docstring.
    """
    proj = {i: r.projector(i) for i in range(1, n + 1)}
    entries: list[CertificateEntry] = []
    contexts = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    for i, j in contexts:
        entries.append(CertificateEntry(
            f"M{i} vs M{j}", (f"M{i}", f"M{j}"), _gate_pair_norm(proj[i], proj[j]), True))
    for k in range(1, n - 1):
        entries.append(CertificateEntry(
            f"U{k}† vs M{k + 1}", (f"U{k}†", f"M{k + 1}"),
            _gate_pair_norm(proj[k].conj().T, proj[k + 1]), True))
    # [M_n, block] = sum_f [P_n, B_f] (x) (X^{f+e_n} - X^f). The block leaves
    # record n alone (f_n = 0), so no two of these X-strings coincide and
    # ||[M_n, block]||_F^2 = 2^n * 2 sum_f ||[P_n, B_f]||_F^2.
    coeffs = _block_coefficients(r, n)
    comm = np.tensordot(proj[n], coeffs, axes=([1], [0]))
    comm -= np.tensordot(coeffs, proj[n], axes=([n + 1], [0]))
    entries.append(CertificateEntry(
        f"block U vs M{n}", ("U", f"M{n}"),
        float(np.sqrt(2.0) * np.linalg.norm(comm)), True))
    ctx_set = {tuple(sorted(c)) for c in contexts}
    for a, b in itertools.combinations(range(1, n + 1), 2):
        if (a, b) in ctx_set:
            continue
        entries.append(CertificateEntry(
            f"M{a} vs M{b} (non-context)", (f"M{a}", f"M{b}"),
            _gate_pair_norm(proj[a], proj[b]), False))
    return CertificateReport(n, tol, tuple(entries))


# --- the paradox report -------------------------------------------------------


@dataclass(frozen=True)
class PairwiseCheck:
    context: tuple[int, int]
    stage: str
    forbidden: tuple[int, int]
    value: float
    distribution: Mapping[tuple[int, int], float]
    passed: bool


@dataclass(frozen=True)
class CounterfactualCheck:
    context: tuple[int, int]
    outcome_tuple: tuple[int, int]
    value: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class ParadoxReport:
    n: int
    convention: str
    pairwise: tuple[PairwiseCheck, ...]
    chain: ChainResult
    counterfactual: CounterfactualCheck
    certificates: CertificateReport
    verdict: bool


def default_paradox_target(n: int) -> PossibilisticBehavior:
    """The 5-friend argument uses the alternating-zero labels; larger
    cycles use the uniform (0,1)-forbidden form."""
    return odd_ncycle_behavior(5) if n == 5 else unified_ncycle_behavior(n)


def paradox_report(r: QuantumRealization, n: int, tol: float = PROB_TOL,
                   eps: float = POSSIBILITY_EPS,
                   target: PossibilisticBehavior | None = None) -> ParadoxReport:
    """Simulate both schedules and certify the contradiction.

    Adjacent joint outcomes are read from the records at the last stage
    where both are observable ("after M_{i+1}", before the undo of friend
    i); every tuple the target forbids there must come out below tol. The
    closing-pair correlation is read from the counterfactual schedule only,
    at the stage before the relocated block, and its required tuple must
    exceed eps. The implication chain seeded by the required tuple is
    attached for reference.
    """
    if target is None:
        target = default_paradox_target(n)
    if target.required is None:
        raise ValueError("paradox target must designate a required-possible tuple")
    certs = commutation_certificates(r, n)
    if not certs.passed:
        bad = [e.label for e in certs.entries if e.must_commute and e.norm > certs.tol]
        raise CertificateError(f"commutation certificates failed: {bad}")

    trace = simulate(build_protocol(n), r)
    pairwise = []
    for i in range(1, n):
        ctx = (i, i + 1)
        stage = f"after M{i + 1}"
        dist = record_distribution(trace, stage, [i, i + 1])
        for t in sorted(set(itertools.product((0, 1), repeat=2)) - set(target.supports[ctx])):
            val = dist[t]
            pairwise.append(PairwiseCheck(ctx, stage, t, val,
                                          dict(dist.probabilities), val <= tol))

    req_ctx, req_tuple = target.required
    seed_value = req_tuple[req_ctx.index(1)]
    chain = propagate_chain(target, 1, seed_value)

    cf_trace = simulate(build_counterfactual_protocol(n), r)
    cf_dist = record_distribution(cf_trace, "before U", [1, n])
    cf_val = cf_dist[req_tuple]
    counterfactual = CounterfactualCheck((1, n), req_tuple, cf_val, eps, cf_val >= eps)

    verdict = all(c.passed for c in pairwise) and counterfactual.passed
    return ParadoxReport(n, "flip-on-outcome-1", tuple(pairwise), chain,
                         counterfactual, certs, verdict)


def report_to_doc(rep: ParadoxReport) -> dict:
    return {
        "n": rep.n,
        "convention": rep.convention,
        "pairwise": [
            {
                "context": list(c.context),
                "stage": c.stage,
                "forbidden": list(c.forbidden),
                "value": c.value,
                "passed": c.passed,
            }
            for c in rep.pairwise
        ],
        "chain": [[m, v] for m, v in rep.chain.steps],
        "counterfactual": {
            "context": list(rep.counterfactual.context),
            "tuple": list(rep.counterfactual.outcome_tuple),
            "value": rep.counterfactual.value,
            "threshold": rep.counterfactual.threshold,
            "passed": rep.counterfactual.passed,
        },
        "certificates": [
            {"pair": e.label, "norm": e.norm, "must_commute": e.must_commute}
            for e in rep.certificates.entries
        ],
        "verdict": rep.verdict,
    }
