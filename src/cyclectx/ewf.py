"""Sequential friend measurements with a superobserver undoing them.

The circuit acts on the system register tensored with one record qubit per
friend (system factor slowest-varying, records in ascending label order).
Friend i's measurement is a generalized CNOT

    U_i = P_i (x) X_{A_i}  +  (1 - P_i) (x) 1_{A_i}

where P_i is the outcome-1 projector, so the record qubit flips to |1> on
the outcome-1 branch and record bits equal outcome labels. P_i is stored
exactly Hermitian, so U_i is its own inverse bit for bit: the undo is U_i.

The standard schedule (n >= 4) measures M1, M2 and then alternates undoing
friend k with measuring friend k+2, so the first n-2 records are erased;
at n = 4 it is M1 M2 U1 M3 U2 M4, Hardy's two-qubit case. A record
can only be read while it actually holds an outcome: ``record_distribution``
refuses any stage at which the requested record was not yet generated or
was already undone. The joint (a_1, a_n) statistics of the standard
schedule are therefore unreachable by construction; the counterfactual
schedule, which postpones the whole intervening block until after M_n,
is the sanctioned route to that correlation. The paper's Commutation
Irrelevance moves the block past M_n once the two commute, which the
block-vs-M_n entry of ``commutation_certificates`` checks; its context and
undo entries back the pairwise reads.

The block telescopes. Write G_i = 1 + P_i (x) (X_i - 1): it is both M_i
and U_i, and G_i^2 = 1. As an operator the block M2 U1 M3 U2 ...
M_{n-1} U_{n-2} is G_{n-2} G_{n-1} ... G_2 G_3 G_1 G_2. When every context
pair commutes, each G_k G_{k+1} may be swapped, G_k^2 then cancels, and the
block equals G_{n-1} G_1. G_n commutes with both factors through the
contexts (n - 1, n) and (1, n), so in exact arithmetic the block-vs-M_n
certificate follows from those two context certificates. The same steps
reduce the standard schedule up to U_{i-1} to G_i, so each read after
M_{i+1} is the Born pair (i, i + 1), and the counterfactual read before U
is the Born pair (1, n). Still, the float block certificate stays: a
rigorous bound on the float block through the identity,
sqrt(d) (8 sum_{k <= n-3} ||[P_k, P_{k+1}]||_2 + 4 ||[P_{n-1}, P_n]||_2
+ 4 ||[P_1, P_n]||_2), is looser than the computed certificate's
truncation slack 2 sqrt(2) Delta (below): 2.8e-13 against 2.4e-13 on the
qutrit chain at n = 101.

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
``BranchLimitError``; the cap is 2^16, so no input with n <= 16 exceeds it.

The truncation is certified. Gates are unitary, so if delta is the sum over
gates of the norm dropped at that gate, the kept state is within delta of
the exact one, and so is every projection of it. Every record probability p
read from the kept branches is therefore within ``2 delta + delta^2`` of the
exact value (``ParadoxReport.probability_bound``), and more sharply
``sqrt(p_exact) <= sqrt(p) + delta``. ``paradox_report`` uses the sharp
form: a forbidden read passes only if ``(sqrt(p) + delta)^2 <= PROB_TOL``,
the counterfactual read only if ``max(sqrt(p) - delta, 0)^2 >=
POSSIBILITY_EPS``. Both are never looser than ``p + 2 delta + delta^2 <=
PROB_TOL`` and ``p - 2 delta - delta^2 >= POSSIBILITY_EPS``, and a simulated
zero would still pass a 1e-20 threshold.

A trace computes each stage the first time it is read: the read runs only
the gates up to that stage that have not run yet, and ``truncation_at``
gives the delta through that stage, which bounds every read there and is
never larger than the full run's. ``stages``, ``states`` and
``truncation`` run the whole schedule. A norm drift or a
``BranchLimitError`` surfaces at the first read that needs the failing
gate. The report reads the counterfactual schedule only at "before U", so
of that schedule only M1 and Mn ever run, and its delta is the one through
"before U".

The certificates stay in the system space, since the X-strings are
Frobenius-orthogonal with ``||X^f||_F^2 = 2^n``:

* a pair of gates commutes up to ``[P_i, P_j] (x) (X_i - 1)(X_j - 1)``, and
  each ||X - 1||_F is 2, so its commutator norm on system (x) A_i (x) A_j
  is ``4 ||[P_i, P_j]||_F``: four times the realization's
  ``commutator_norms``, the routine its pair statistics use too. The n
  context pairs take one call; the undo U_k is the gate M_k, so its entry
  against M_{k+1} reuses the norm of the context (k, k+1). The O(n^2)
  non-context pairs only inform, so their norms and entries are built in a
  second call on the first read of ``CertificateReport.entries``;
  ``passed``, the required entries and ``paradox_report`` never build
  them;
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

import functools
import itertools
import math
import operator
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .linalg import ALG_TOL, PROB_TOL
from .ncycle import odd_ncycle_behavior, unified_ncycle_behavior
from .quantum import QuantumRealization
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
    # read-only maps friend -> 1-based step position of its measurement / its undo
    measured: Mapping[int, int] = field(init=False, compare=False, repr=False)
    undone: Mapping[int, int] = field(init=False, compare=False, repr=False)
    # the gate plan, (friend, record bit) per step, and stage name -> position
    _plan: tuple[tuple[int, int], ...] = field(init=False, compare=False, repr=False)
    _stage_index: Mapping[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        measured: dict[int, int] = {}
        undone: dict[int, int] = {}
        stage_index = {"initial": 0}
        for pos, st in enumerate(self.steps, start=1):
            stage_index[f"after {st.label}"] = pos
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
        if self.kind == "counterfactual":
            stage_index["before U"] = measured[self.n]
        stage_index["final"] = len(self.steps)
        object.__setattr__(self, "measured", MappingProxyType(measured))
        object.__setattr__(self, "undone", MappingProxyType(undone))
        # an undo applies its measurement's gate
        object.__setattr__(self, "_plan", tuple((st.friend, 1 << (self.n - st.friend))
                                                for st in self.steps))
        object.__setattr__(self, "_stage_index", MappingProxyType(stage_index))


@functools.lru_cache(typed=True)
def build_protocol(n: int) -> Protocol:
    """M1, M2, then alternately undo friend k and measure friend k+2; n >= 4."""
    if n < 4:
        raise ProtocolError(f"the schedule needs at least 4 friends, got {n}")
    steps = [GateStep("measure", 1), GateStep("measure", 2)]
    for k in range(1, n - 1):
        steps.append(GateStep("undo", k))
        if k + 2 <= n:
            steps.append(GateStep("measure", k + 2))
    return Protocol(n, tuple(steps), kind="standard")


@functools.lru_cache(typed=True)
def build_counterfactual_protocol(n: int) -> Protocol:
    """M1, Mn first; the whole intervening block is appended afterwards."""
    block = build_protocol(n).steps[1:-1]   # everything between M1 and Mn
    steps = (GateStep("measure", 1), GateStep("measure", n))
    return Protocol(n, steps + block, kind="counterfactual")


@functools.lru_cache(typed=True)
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


class SimulationTrace:
    """The stages of a schedule run from state (x) |0...0>, each computed on first read.

    Reading a stage runs the gates up to it that have not run yet, and keeps
    every stage it passes; ``stages``, ``states`` and ``truncation`` run the
    whole schedule. A norm drift (``ProtocolError``) or a ``BranchLimitError``
    is raised by the first read that needs the failing gate.
    """

    def __init__(self, protocol: Protocol, r: QuantumRealization):
        _require_friends(r, protocol.n)
        self.protocol = protocol
        self.dim = r.dim
        self._realization = r
        state = np.array(r.state, dtype=complex).reshape(1, r.dim)
        self._stages = [_single_branch(state, float(np.vdot(state, state).real))]
        self._deltas = [0.0]        # norm dropped through each stage

    @property
    def stage_index(self) -> Mapping[str, int]:
        return self.protocol._stage_index

    def _through(self, pos: int) -> Branches:
        """Stage ``pos`` (0 is the initial one), running the gates it still needs."""
        stages, deltas = self._stages, self._deltas
        plan, r = self.protocol._plan, self._realization
        while len(stages) <= pos:
            step = len(stages) - 1
            friend, bit = plan[step]
            b, dropped = _record_gate(stages[-1], r.projector(friend), bit)
            if not abs(b.norm2 - 1.0) <= ALG_TOL:   # a NaN norm fails too
                raise ProtocolError(
                    f"norm drifted to {b.norm2} at step {self.protocol.steps[step].label}")
            stages.append(b)
            deltas.append(deltas[-1] + dropped)
        return stages[pos]

    def _position(self, stage: str) -> int:
        pos = self.stage_index.get(stage)
        if pos is None:
            raise UnknownStageError(stage)
        return pos

    @property
    def stages(self) -> tuple[Branches, ...]:
        """Every stage, index 0 = initial."""
        self._through(len(self.protocol.steps))
        return tuple(self._stages)

    @property
    def states(self) -> Sequence[np.ndarray]:
        return _DenseStates(self.stages, self.protocol.n, self.dim)

    @property
    def truncation(self) -> float:
        """delta: the norm dropped over the whole run."""
        return self.truncation_at("final")

    def truncation_at(self, stage: str) -> float:
        """The norm dropped up to ``stage``, which bounds every read there."""
        pos = self._position(stage)
        self._through(pos)
        return self._deltas[pos]


def _require_friends(r: QuantumRealization, n: int) -> None:
    missing = [i for i in range(1, n + 1) if i not in r.frames]
    if missing:
        raise ProtocolError(f"realization has no measurement for friends {missing}")


def simulate(p: Protocol, r: QuantumRealization) -> SimulationTrace:
    """The trace of the schedule from state (x) |0...0>; its stages run on first read.

    A realization without a measurement for some friend 1..n raises
    ``ProtocolError`` here.
    """
    return SimulationTrace(p, r)


def register_marginal(t: SimulationTrace, stage: str,
                      records: Sequence[int]) -> dict:
    """Raw computational-basis marginal of record qubits at a stage.

    Diagnostic view of the register state with no outcome semantics
    attached; it is how one checks that an undo returned a record to the
    ready state. Keys follow the given record order.
    """
    return _marginal(t, stage, records, outcomes_only=False)


def record_distribution(t: SimulationTrace, stage: str, records: Sequence[int]) -> dict:
    """Computational-basis marginal of the listed record qubits at a stage.

    ``register_marginal`` restricted to records that hold an outcome at the
    stage, i.e. whose measurement has happened and whose undo has not:
    reads outside that window are refused rather than silently returning
    register statistics that no observer could associate with outcomes.
    """
    return _marginal(t, stage, records, outcomes_only=True)


def _marginal(t: SimulationTrace, stage: str, records: Sequence[int],
              outcomes_only: bool) -> dict:
    """Both reads: the stage, then each record in argument order, checked once."""
    pos = t._position(stage)
    p, n = t.protocol, t.protocol.n
    for rec in records:
        if not 1 <= operator.index(rec) <= n:     # a record that is not an int raises TypeError
            raise ProtocolError(f"record {rec} outside 1..{n}")
        if outcomes_only and p.measured[rec] > pos:
            raise RecordNotReadableError(f"record A{rec} holds no outcome yet at stage {stage!r}")
        if outcomes_only and p.undone.get(rec, pos + 1) <= pos:
            raise RecordNotReadableError(
                f"record A{rec} was erased at step {p.undone[rec]}, before stage {stage!r}")
    b = t._through(pos)
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
    ``entry`` of a required label never build them. ``passed`` tells
    whether every required entry, its bound added, is within ALG_TOL.
    """
    required: tuple[CertificateEntry, ...]
    noncontext: Callable[[], Sequence[CertificateEntry]] = field(repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return all(e.norm + e.bound <= ALG_TOL for e in self.required)

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
    for friend, bit in std._plan[1:-1]:
        b, gate_dropped = _record_gate(b, r.projector(friend), bit)
        dropped += gate_dropped
    return b, dropped


def commutation_certificates(r: QuantumRealization, n: int) -> CertificateReport:
    """Commutator norms backing the schedule's observability claims.

    Checked at tolerance: every context pair of gates (adjacent pairs and
    the closing pair, on the minimal shared registers), each undo against
    the measurement performed just before it (that context's norm), and
    the full intervening block against the final measurement on the
    complete register space,
    reported per X-string as ||[block, M_n]||_F / sqrt(2^n) with the
    truncation bound 2 sqrt(2) Delta as the entry's ``bound``. Non-context
    pairs are reported as expected-noncommuting information, computed when
    ``entries`` is first read. Everything is computed from d x d system
    blocks: each pair entry is 4 times the realization's
    ``commutator_norms`` of its projectors, one call per group of pairs;
    see the module docstring. Certificates pass at ALG_TOL. A realization
    without a measurement for some friend 1..n raises ``ProtocolError``, as
    ``simulate`` does.
    """
    std = build_protocol(n)
    _require_friends(r, n)
    contexts = make_cycle_scenario(n).contexts
    # each gate pair's norm is 4 ||[P_i, P_j]||_F (see the module docstring)
    norms = (4.0 * r.commutator_norms(contexts)).tolist()
    entries = [CertificateEntry(f"M{i} vs M{j}", (f"M{i}", f"M{j}"), norm, True)
               for (i, j), norm in zip(contexts, norms)]
    # U_k is the gate M_k, so U_k^dag vs M_{k+1} is the context pair (k, k+1)
    entries += [CertificateEntry(f"U{k}† vs M{k + 1}", (f"U{k}†", f"M{k + 1}"), norm, True)
                for k, norm in zip(range(1, n - 1), norms)]
    # [M_n, block] = sum_f [P_n, B_f] (x) (X^{f+e_n} - X^f). The block leaves
    # record n alone (f_n = 0), so no two of these X-strings coincide and
    # ||[M_n, block]||_F^2 = 2^n * 2 sum_f ||[P_n, B_f]||_F^2. Row j of the
    # branch values holds the columns of B_f, i.e. the rows of B_f^T.
    block, dropped = _block_coefficients(r, std)
    cols = block.values.reshape(-1, r.dim, r.dim)
    pt = r.projector(n).T
    comm = cols @ pt - pt @ cols
    entries.append(CertificateEntry(
        f"block U vs M{n}", ("U", f"M{n}"),
        float(np.sqrt(2.0) * np.linalg.norm(comm)), True,
        2.0 * math.sqrt(2.0) * dropped))

    def noncontext() -> list[CertificateEntry]:
        ctx_set = set(contexts)
        others = [(a, b) for a, b in itertools.combinations(range(1, n + 1), 2)
                  if (a, b) not in ctx_set]
        norms = (4.0 * r.commutator_norms(others)).tolist()
        return [CertificateEntry(f"M{a} vs M{b} (non-context)", (f"M{a}", f"M{b}"), norm, False)
                for (a, b), norm in zip(others, norms)]

    return CertificateReport(tuple(entries), noncontext)


# --- the paradox report -------------------------------------------------------


@dataclass(frozen=True)
class PairwiseCheck:
    context: tuple[int, int]
    stage: str
    forbidden: tuple[int, int]
    value: float
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


def paradox_report(r: QuantumRealization, n: int,
                   target: PossibilisticBehavior | None = None) -> ParadoxReport:
    """Simulate both schedules and certify the contradiction.

    Adjacent joint outcomes are read from the records at the last stage
    where both are observable ("after M_{i+1}", before the undo of friend
    i); every tuple the target forbids there must come out at or below
    ``PROB_TOL``. The closing-pair correlation is read from the
    counterfactual schedule only, at the stage before the relocated block,
    and its required tuple must reach ``POSSIBILITY_EPS``. Both comparisons
    include the truncation bound (see the module docstring). The
    certificates must pass: the context and undo entries back the pairwise
    reads, and the block-vs-M_n entry is what Commutation Irrelevance needs
    to move the block past M_n. The verdict also needs the contradiction:
    the chain seeded by the required tuple's first value must conflict or
    force M_n off its second value. A target without one (full support
    everywhere, say) is no paradox and gets a false verdict, not an error;
    one that does not live on the n-cycle, or whose required tuple is not
    an outcome of (1, n), raises ``ValueError``.
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
    certs = commutation_certificates(r, n)
    if not certs.passed:
        bad = [e.label for e in certs.required if e.norm + e.bound > ALG_TOL]
        raise CertificateError(f"commutation certificates failed: {bad}")

    trace = simulate(build_protocol(n), r)
    # only "before U" of the counterfactual schedule is read, so only M1 and Mn run
    cf_trace = simulate(build_counterfactual_protocol(n), r)
    # sqrt(p_exact) lies within delta of sqrt(p) read from the kept branches
    delta = max(trace.truncation, cf_trace.truncation_at("before U"))
    pairwise = []
    for i in range(1, n):
        ctx = (i, i + 1)
        stage = f"after M{i + 1}"
        probs = record_distribution(trace, stage, [i, i + 1])
        for t in [u for u in target.scenario.tuples(ctx) if u not in target.supports[ctx]]:
            val = probs[t]
            pairwise.append(PairwiseCheck(ctx, stage, t, val,
                                          (math.sqrt(val) + delta) ** 2 <= PROB_TOL))

    chain = propagate_chain(target, 1, req_tuple[0])

    cf_dist = record_distribution(cf_trace, "before U", [1, n])
    cf_val = cf_dist[req_tuple]
    counterfactual = CounterfactualCheck(
        (1, n), req_tuple, cf_val, POSSIBILITY_EPS,
        max(math.sqrt(cf_val) - delta, 0.0) ** 2 >= POSSIBILITY_EPS)

    verdict = (all(c.passed for c in pairwise) and counterfactual.passed
               and chain.refutes(n, req_tuple[1]))
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
