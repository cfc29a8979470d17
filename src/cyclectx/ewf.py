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

Branch form. Every state here is ``sum_f v_f (x) |f>`` over record strings
f, and every product of gates is ``sum_f B_f (x) X^f`` with d x d system
blocks B_f. Both are held as ``Branches``: a map from f to v_f (one column)
or to B_f (d columns), with f an arbitrary-precision int whose bit n - i is
record i, i.e. the record part of the dense index. ``_record_gate`` is the
one kernel. A gate on friend i sends v_f to ``(1 - P_i) v_f`` at f and
``P_i v_f`` at ``f ^ e_i``, sums coincident keys, and drops every branch of
norm <= ``BRANCH_FLOOR``. The squared norm it computes for that test is
kept as the branch's weight (``Branches.weights``), and record reads sum
those weights. When the context gates commute almost every term
cancels: the schedules keep a handful of branches at any n, where the dense
register holds d 2^n amplitudes. A non-commuting realization makes the
count grow instead, and more than ``BRANCH_CAP`` branches raise
``BranchLimitError``; the cap is 2^16, so no input with n <= 16 reaches it.

The truncation is certified. Gates are unitary, so if delta is the sum over
gates of the norm dropped at that gate, the kept state is within delta of
the exact one, and so is every projection of it. Every record probability p
read from the kept branches is therefore within ``2 delta + delta^2`` of the
exact value (``ParadoxReport.probability_bound``), and more sharply
``sqrt(p_exact) <= sqrt(p) + delta``. ``paradox_report`` uses the sharp
form: a forbidden read passes only if ``(sqrt(p) + delta)^2 <= tol``, the
counterfactual read only if ``max(sqrt(p) - delta, 0)^2 >= eps``. Both are
never looser than ``p + 2 delta + delta^2 <= tol`` and ``p - 2 delta -
delta^2 >= eps``, and a simulated zero still passes a 1e-20 threshold.
The report reads the counterfactual schedule only at "before U", so it runs
that schedule only up to there; its delta is the norm dropped up to the
stage read, which bounds that read and is never larger than the full run's.

The certificates stay in the system space, since the X-strings are
Frobenius-orthogonal with ``||X^f||_F^2 = 2^n``:

* a pair of gates commutes up to ``[P_i, P_j] (x) (X_i - 1)(X_j - 1)``, so
  its commutator norm on system (x) A_i (x) A_j is ``4 ||[P_i, P_j]||_F``
  (``P_k^dag`` in place of ``P_k`` for an undo). The n context pairs and
  the n - 2 undo pairs are computed in one batched call over the
  projectors and their conjugate transposes, taken from the realization's
  stored stacks with one fancy index. The O(n^2) non-context pairs
  only inform, so their norms and entries are built in a second batch on
  the first read of ``CertificateReport.entries``; ``passed``, the
  required entries and ``paradox_report`` never build them;
* the block's branches ``B_f`` are built from the identity with the same
  kernel that ``simulate`` applies to states. Its certificate is
  ``||[block, M_n]||_F / sqrt(2^n)``, which is
  ``sqrt(2 sum_f ||[B_f, P_n]||_F^2)`` because the block never touches
  record n. Dividing out ``sqrt(2^n)``, the norm of one X-string, keeps the
  value on the scale of the d x d blocks: the unnormalized norm grows with
  the register, and its rounding residue alone crosses ALG_TOL near n = 15
  on a correct realization. If Delta is the Frobenius norm dropped from the
  block (per X-string), the exact certificate is within ``2 sqrt(2) Delta``
  of the computed one, and that bound is added before the comparison with
  ALG_TOL.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .linalg import ALG_TOL, PROB_TOL
from .ncycle import odd_ncycle_behavior, unified_ncycle_behavior
from .quantum import PairDistribution, QuantumRealization
from .scenario import (
    POSSIBILITY_EPS,
    ChainResult,
    PossibilisticBehavior,
    make_cycle_scenario,
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
    return _counterfactual(build_protocol(n))


def _counterfactual(std: Protocol) -> Protocol:
    """The counterfactual schedule of a standard one."""
    n = std.n
    steps = (GateStep("measure", 1), GateStep("measure", n))
    block = std.steps[1:-1]   # everything between M1 and Mn
    return Protocol(n, steps + block, kind="counterfactual")


def build_measure_undo_protocol(n: int) -> Protocol:
    """Each measurement immediately reversed: M1, U1, M2, U2, ..., Mn, Un."""
    if n < 1:
        raise ProtocolError("need at least one friend")
    steps = []
    for i in range(1, n + 1):
        steps.append(GateStep("measure", i))
        steps.append(GateStep("undo", i))
    return Protocol(n, tuple(steps), kind="measure-undo")


BRANCH_FLOOR = 1e-15
BRANCH_CAP = 2 ** 16


class BranchLimitError(RuntimeError):
    """More record branches than ``BRANCH_CAP``: the gates do not cancel."""


class Branches(NamedTuple):
    """``sum_f v_f (x) |f>``, or a block's ``sum_f B_f (x) X^f``.

    ``keys[j]`` is the record string f, record i on bit n - i. Row j of
    ``values`` holds the columns of v_f (or B_f) one after another, each of
    length d. ``weights[j]`` is the squared norm of row j, and ``norm2``
    their sum.
    """
    keys: tuple[int, ...]
    values: np.ndarray
    norm2: float
    weights: tuple[float, ...]


def _row_weights(values: np.ndarray) -> list[float]:
    """Squared norm of each row of a complex array."""
    real = values.view(np.float64)
    return np.add.reduce(real * real, 1).tolist()


def _single_branch(values: np.ndarray, norm2: float) -> Branches:
    """The one branch at key 0, with empty records."""
    return Branches((0,), values, norm2, tuple(_row_weights(values)))


def _record_gate(b: Branches, op: np.ndarray, bit: int) -> tuple[Branches, float]:
    """Apply ``1 + op (x) (X - 1)`` on the record at ``bit``.

    Branches f and f ^ bit form a pair (u0, u1), u0 the one with the bit
    clear and a missing one zero. The gate sends the pair to (u0 - m, u1 + m)
    with m = op (u0 - u1), which is (1 - op) v_f at f plus op v_f at
    f ^ bit, coincident keys summed. Branches of norm <= BRANCH_FLOOR are
    dropped. Returns the new branches and the norm of the dropped part.
    """
    d = op.shape[0]
    width = b.values.shape[1]
    fresh = True
    for k in b.keys:
        if k & bit:
            fresh = False
            break
    if fresh:   # no branch holds the record yet: every u1 is zero, u1 = op v
        bases = b.keys
        npairs = len(bases)
        u = np.empty((2 * npairs, width), dtype=complex)
        u0, u1 = u[:npairs], u[npairs:]
        np.matmul(b.values.reshape(-1, d), op.T, out=u1.reshape(-1, d))
        np.subtract(b.values, u1, out=u0)
    else:
        pairs: dict[int, int] = {}
        slot = [pairs.setdefault(k & ~bit, len(pairs)) for k in b.keys]
        bases = tuple(pairs)
        npairs = len(bases)
        u = np.zeros((2 * npairs, width), dtype=complex)
        u0, u1 = u[:npairs], u[npairs:]
        u[np.array([npairs + t if k & bit else t for k, t in zip(b.keys, slot)],
                   dtype=np.intp)] = b.values
        moved = ((u0 - u1).reshape(-1, d) @ op.T).reshape(npairs, -1)
        u0 -= moved
        u1 += moved
    floor2 = BRANCH_FLOOR ** 2
    keep, keys, weights, norm2, dropped2 = [], [], [], 0.0, 0.0
    for j, w in enumerate(_row_weights(u)):
        if w > floor2:
            keep.append(j)
            keys.append(bases[j] if j < npairs else bases[j - npairs] | bit)
            weights.append(w)
            norm2 += w
        else:
            dropped2 += w
    if len(keep) > BRANCH_CAP:
        raise BranchLimitError(
            f"{len(keep)} record branches exceed the cap of {BRANCH_CAP}; "
            "the gates do not cancel")
    if len(keep) < len(u):
        u = u.take(keep, axis=0)
    return Branches(tuple(keys), u, norm2, tuple(weights)), math.sqrt(dropped2)


def _run_gates(b: Branches, r: QuantumRealization, n: int, steps: Sequence[GateStep]):
    """Yield (step, branches after it, norm dropped by it) for each step."""
    for st in steps:
        op = r.adjoint_projector(st.friend) if st.kind == "undo" else r.projector(st.friend)
        b, dropped = _record_gate(b, op, 1 << (n - st.friend))
        yield st, b, dropped


class _DenseStates(Sequence):
    """The flat d 2^n state of each stage, built when it is read."""

    def __init__(self, stages: tuple[Branches, ...], n: int, dim: int):
        self._stages, self._n, self._dim = stages, n, dim

    def __len__(self) -> int:
        return len(self._stages)

    def __getitem__(self, k: int) -> np.ndarray:
        b = self._stages[k]
        dense = np.zeros((self._dim, 2 ** self._n), dtype=complex)
        dense[:, list(b.keys)] = b.values.T
        return dense.reshape(-1)


@dataclass(frozen=True)
class SimulationTrace:
    protocol: Protocol
    dim: int
    stages: tuple[Branches, ...]              # one per stage, index 0 = initial
    stage_index: Mapping[str, int]
    truncation: float                         # delta: norm dropped over the run

    @property
    def states(self) -> Sequence[np.ndarray]:
        return _DenseStates(self.stages, self.protocol.n, self.dim)


def simulate(p: Protocol, r: QuantumRealization) -> SimulationTrace:
    """Run the schedule from state (x) |0...0> and keep every stage."""
    return _simulate_through(p, r, len(p.steps))


def _simulate_through(p: Protocol, r: QuantumRealization, last: int) -> SimulationTrace:
    """Run the first ``last`` steps of the schedule as ``simulate`` does.

    The trace holds the stages up to that step and its delta counts only
    those steps; "final" is a stage only when every step ran.
    """
    missing = [i for i in range(1, p.n + 1) if i not in r.frames]
    if missing:
        raise ProtocolError(f"realization has no measurement for friends {missing}")
    state = np.array(r.state, dtype=complex).reshape(1, r.dim)
    stages = [_single_branch(state, float(np.vdot(state, state).real))]
    stage_index = {"initial": 0}
    delta = 0.0
    for pos, (st, b, dropped) in enumerate(
            _run_gates(stages[0], r, p.n, p.steps[:last]), start=1):
        delta += dropped
        if abs(b.norm2 - 1.0) > ALG_TOL:
            raise ProtocolError(f"norm drifted to {b.norm2} at step {st.label}")
        stages.append(b)
        stage_index[f"after {st.label}"] = pos
    if p.kind == "counterfactual" and p.measure_position(p.n) <= last:
        stage_index["before U"] = p.measure_position(p.n)
    if last == len(p.steps):
        stage_index["final"] = last
    return SimulationTrace(p, r.dim, tuple(stages), stage_index, delta)


def register_marginal(t: SimulationTrace, stage: str,
                      records: Sequence[int]) -> dict:
    """Raw computational-basis marginal of record qubits at a stage.

    Diagnostic view of the register state with no outcome semantics
    attached; it is how one checks that an undo returned a record to the
    ready state. Keys follow the given record order.
    """
    if stage not in t.stage_index:
        raise UnknownStageError(stage)
    b = t.stages[t.stage_index[stage]]
    n = t.protocol.n
    for rec in records:
        if not 1 <= rec <= n:
            raise ProtocolError(f"record {rec} outside 1..{n}")
    # keys enumerate bits in ascending record label, reordered to argument order
    if len(records) == 2 and records[0] != records[1]:
        first, second = 1 << (n - records[0]), 1 << (n - records[1])
        w00 = w01 = w10 = w11 = 0.0
        for k, w in zip(b.keys, b.weights):
            if k & first:
                if k & second:
                    w11 += w
                else:
                    w10 += w
            elif k & second:
                w01 += w
            else:
                w00 += w
        if records[0] < records[1]:
            return {(0, 0): w00, (0, 1): w01, (1, 0): w10, (1, 1): w11}
        return {(0, 0): w00, (1, 0): w10, (0, 1): w01, (1, 1): w11}
    sorted_recs = sorted(records)
    dist = {}
    for idx in itertools.product((0, 1), repeat=len(sorted_recs)):
        by_label = dict(zip(sorted_recs, idx))
        dist[tuple(by_label[rec] for rec in records)] = 0.0
    bits = [1 << (n - rec) for rec in records]
    for k, w in zip(b.keys, b.weights):
        dist[tuple(1 if k & bit else 0 for bit in bits)] += w
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
    bound: float = 0.0          # added to norm before the comparison with tol


@dataclass(frozen=True)
class CertificateReport:
    """The commutation certificates of a realization's n friends.

    ``required`` holds the entries that must commute, in order: the context
    pairs, the undo pairs and the block. ``entries`` appends the
    informational non-context pairs, O(n^2) of them, which
    ``noncontext`` builds on first access; ``passed``, ``required`` and
    ``entry`` of a required label never build them.
    """
    n: int
    tol: float
    required: tuple[CertificateEntry, ...]
    noncontext: Callable[[], Sequence[CertificateEntry]] = field(repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return all(e.norm + e.bound <= self.tol for e in self.required)

    @cached_property
    def entries(self) -> tuple[CertificateEntry, ...]:
        return self.required + tuple(self.noncontext())

    def entry(self, label: str) -> CertificateEntry:
        for e in self.required:
            if e.label == label:
                return e
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)


PAIR_CHUNK = 4096


def _gate_pair_norms(ops: np.ndarray, a: Sequence[int], b: Sequence[int]) -> list[float]:
    """Gate commutator norms for each pair (a[k], b[k]) of the stacked operators.

    For gates ``1 + A (x) (X_i - 1)`` and ``1 + B (x) (X_j - 1)`` on
    system (x) A_i (x) A_j the commutator is [A, B] (x) (X_i - 1) (x)
    (X_j - 1), and each ||X - 1||_F is 2, so the norm is 4 ||[A, B]||_F.
    Commutators are formed PAIR_CHUNK pairs at a time.
    """
    out: list[float] = []
    for lo in range(0, len(a), PAIR_CHUNK):
        pa, pb = ops[a[lo:lo + PAIR_CHUNK]], ops[b[lo:lo + PAIR_CHUNK]]
        comm = pa @ pb - pb @ pa
        out.extend((4.0 * np.linalg.norm(comm, axis=(1, 2))).tolist())
    return out


def _block_coefficients(r: QuantumRealization, std: Protocol) -> tuple[Branches, float]:
    """The blocks B_f of the intervening block, and the norm dropped from them.

    The intervening block of the standard schedule, M2 U1 M3 ... U_{n-2},
    equals sum_f B_f (x) X^f. Multiplying a gate on the left acts on each
    column of every B_f exactly as it acts on a state, so ``_record_gate``
    builds the branches from the identity. The dropped norm is per X-string,
    sum over gates of sqrt(sum of the dropped ||B_f||_F^2).
    """
    d = r.dim
    b = _single_branch(np.eye(d, dtype=complex).reshape(1, d * d), float(d))
    dropped = 0.0
    for _, b, gate_dropped in _run_gates(b, r, std.n, std.steps[1:-1]):
        dropped += gate_dropped
    return b, dropped


def commutation_certificates(r: QuantumRealization, n: int) -> CertificateReport:
    """Commutator norms backing the schedule's observability claims.

    Checked at tolerance: every context pair of gates (adjacent pairs and
    the closing pair, on the minimal shared registers), each undo against
    the measurement performed just before it, and the full intervening
    block against the final measurement on the complete register space,
    reported per X-string as ||[block, M_n]||_F / sqrt(2^n) with the
    truncation bound 2 sqrt(2) Delta as the entry's ``bound``. Non-context
    pairs are reported as expected-noncommuting information, computed when
    ``entries`` is first read. Everything is computed from d x d system
    blocks, each group of gate pairs in one batch; see the module
    docstring. Certificates pass at ALG_TOL.
    """
    return _certificates(r, build_protocol(n))


def _certificates(r: QuantumRealization, std: Protocol) -> CertificateReport:
    """``commutation_certificates`` for the friends of a standard schedule."""
    n = std.n
    # rows 0..n-1 hold P_1..P_n, rows n..2n-1 their conjugate transposes
    labels = range(1, n + 1)
    rows = [r._rows[i] for i in labels]
    ops = r._stacks[[1] * n + [2] * n, rows + rows]
    contexts = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    # operator indices of each pair: contexts, then undos (P_k^dag vs P_{k+1})
    pairs = [(i - 1, j - 1) for i, j in contexts] + [(n + k - 1, k) for k in range(1, n - 1)]
    norms = _gate_pair_norms(ops, [a for a, _ in pairs], [b for _, b in pairs])
    entries = [CertificateEntry(f"M{i} vs M{j}", (f"M{i}", f"M{j}"), norm, True)
               for (i, j), norm in zip(contexts, norms)]
    entries += [CertificateEntry(f"U{k}† vs M{k + 1}", (f"U{k}†", f"M{k + 1}"), norm, True)
                for k, norm in zip(range(1, n - 1), norms[n:])]
    # [M_n, block] = sum_f [P_n, B_f] (x) (X^{f+e_n} - X^f). The block leaves
    # record n alone (f_n = 0), so no two of these X-strings coincide and
    # ||[M_n, block]||_F^2 = 2^n * 2 sum_f ||[P_n, B_f]||_F^2. Row j of the
    # branch values holds the columns of B_f, i.e. the rows of B_f^T.
    block, dropped = _block_coefficients(r, std)
    cols = block.values.reshape(-1, r.dim, r.dim)
    pt = ops[n - 1].T
    comm = cols @ pt - pt @ cols
    entries.append(CertificateEntry(
        f"block U vs M{n}", ("U", f"M{n}"),
        float(np.sqrt(2.0) * np.linalg.norm(comm)), True,
        2.0 * math.sqrt(2.0) * dropped))

    def noncontext() -> list[CertificateEntry]:
        ctx_set = {tuple(sorted(c)) for c in contexts}
        others = [(a, b) for a, b in itertools.combinations(labels, 2)
                  if (a, b) not in ctx_set]
        norms = _gate_pair_norms(ops, [a - 1 for a, _ in others], [b - 1 for _, b in others])
        return [CertificateEntry(f"M{a} vs M{b} (non-context)", (f"M{a}", f"M{b}"), norm, False)
                for (a, b), norm in zip(others, norms)]

    return CertificateReport(n, ALG_TOL, tuple(entries), noncontext)


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
    truncation: float          # delta, the larger of the two schedules' dropped norms

    @property
    def probability_bound(self) -> float:
        """Largest distance of any record read from its exact value."""
        return 2.0 * self.truncation + self.truncation ** 2

    @property
    def block_bound(self) -> float:
        """2 sqrt(2) Delta, added to the block certificate before it is compared."""
        return self.certificates.entry(f"block U vs M{self.n}").bound


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
    exceed eps. Both comparisons include the truncation bound (see the
    module docstring). The implication chain seeded by the required tuple
    is attached for reference. A target that does not live on the n-cycle,
    or whose required tuple is not an outcome of the closing context
    (1, n), raises ``ValueError``.
    """
    if target is None:
        target = default_paradox_target(n)
    if target.required is None:
        raise ValueError("paradox target must designate a required-possible tuple")
    if target.scenario != make_cycle_scenario(n):
        raise ValueError(f"paradox target must live on the {n}-cycle scenario")
    req_ctx, req_tuple = target.required
    if req_ctx != (1, n):
        raise ValueError(f"paradox target requires a tuple of context {req_ctx}, "
                         f"but the counterfactual read is of the closing context (1, {n})")
    if req_tuple not in target.scenario.tuples(req_ctx):
        raise ValueError(f"required tuple {req_tuple} is not an outcome of context (1, {n})")
    std = build_protocol(n)
    certs = _certificates(r, std)
    if not certs.passed:
        bad = [e.label for e in certs.required if e.norm + e.bound > certs.tol]
        raise CertificateError(f"commutation certificates failed: {bad}")

    trace = simulate(std, r)
    # only "before U" of the counterfactual schedule is read, so it runs that far
    cf = _counterfactual(std)
    cf_trace = _simulate_through(cf, r, cf.measure_position(n))
    # sqrt(p_exact) lies within delta of sqrt(p) read from the kept branches
    delta = max(trace.truncation, cf_trace.truncation)
    pairwise = []
    for i in range(1, n):
        ctx = (i, i + 1)
        stage = f"after M{i + 1}"
        probs = MappingProxyType(record_distribution(trace, stage, [i, i + 1]).probabilities)
        for t in sorted(set(itertools.product((0, 1), repeat=2)) - set(target.supports[ctx])):
            val = probs[t]
            pairwise.append(PairwiseCheck(ctx, stage, t, val, probs,
                                          (math.sqrt(val) + delta) ** 2 <= tol))

    chain = propagate_chain(target, 1, req_tuple[0])

    cf_dist = record_distribution(cf_trace, "before U", [1, n])
    cf_val = cf_dist[req_tuple]
    counterfactual = CounterfactualCheck(
        (1, n), req_tuple, cf_val, eps, max(math.sqrt(cf_val) - delta, 0.0) ** 2 >= eps)

    verdict = all(c.passed for c in pairwise) and counterfactual.passed
    return ParadoxReport(n, "flip-on-outcome-1", tuple(pairwise), chain,
                         counterfactual, certs, verdict, delta)


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
        "truncation": {
            "state_norm": rep.truncation,
            "probability_bound": rep.probability_bound,
            "block_bound": rep.block_bound,
        },
        "verdict": rep.verdict,
    }
