"""Brute-force cross-checks, deliberately code-path-disjoint from the
main pipeline.

``projection_sequential`` applies the textbook sequential state-update rule
branch by branch. It exists only to validate the update-free pair statistics
numerically; nothing in the paradox logic may call it, since mixing a
unitary account of a measurement with a collapse account of the same
measurement would void the argument being verified.

``exhaustive_support_check`` recomputes every context table from the trace
formula on the density matrix, sharing no code with ``born_pair``.

``enumerate_contextuality`` decides logical contextuality by walking all
global assignments, sharing no code with the transfer-matrix decision in
``scenario.is_logically_contextual``. It returns the same verdict, witness
and fates (materialized as a tuple) on cycle scenarios, and also decides
scenarios that are not cycles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .quantum import QuantumRealization, behavior_from_realization
from .scenario import (
    ENUMERATION_GUARD,
    AssignmentFate,
    Context,
    ContextualityVerdict,
    EnumerationLimitError,
    OutcomeTuple,
    PossibilisticBehavior,
    Scenario,
    Witness,
    closing_context,
)


@dataclass(frozen=True)
class OracleResult:
    quantity: str
    oracle_value: Mapping
    pipeline_value: Mapping
    max_abs_diff: float

    def __post_init__(self):
        if set(self.oracle_value) != set(self.pipeline_value):
            raise ValueError("oracle and pipeline values have different key sets")


def _diff(a: Mapping, b: Mapping) -> float:
    if set(a) != set(b):
        raise ValueError("oracle and pipeline values have different key sets")
    return max(abs(a[k] - b[k]) for k in a) if a else 0.0


def projection_sequential(r: QuantumRealization, sequence: Sequence[int]) -> dict:
    """Joint distribution from the projection postulate, outcome by outcome.

    Each measurement in the sequence splits every branch with the two
    outcome projectors and renormalizes; branch weights multiply. Keys are
    outcome tuples in sequence order.
    """
    if len(sequence) < 1:
        raise ValueError("sequence must contain at least one measurement")
    branches = [((), r.state, 1.0)]
    for i in sequence:
        new = []
        for outcomes, state, weight in branches:
            for a in (0, 1):
                v = r.outcome_projector(i, a) @ state
                p = float(np.linalg.norm(v) ** 2)
                if weight * p == 0.0:
                    new.append((outcomes + (a,), v, 0.0))
                else:
                    new.append((outcomes + (a,), v / np.sqrt(p), weight * p))
        branches = new
    return {outcomes: weight for outcomes, state, weight in branches}


def exhaustive_support_check(r: QuantumRealization, s: Scenario,
                             eps: float = 1e-9) -> OracleResult:
    """Recompute every context table via Tr(product of projectors rho)."""
    for c in s.contexts:
        if len(c) > 3:
            raise ValueError("trace oracle only covers contexts of size <= 3")
    rho = np.outer(r.state, r.state.conj())
    oracle: dict = {}
    for c in s.contexts:
        for outcomes in itertools.product((0, 1), repeat=len(c)):
            op = np.eye(r.dim, dtype=complex)
            for m, a in zip(c, outcomes):
                op = op @ r.outcome_projector(m, a)
            oracle[(c, outcomes)] = float(np.real(np.trace(op @ rho)))
    b = behavior_from_realization(r, s)
    pipeline = {(c, t): b.tables[c][t] for c in s.contexts for t in b.tables[c]}
    return OracleResult("context tables", oracle, pipeline, _diff(oracle, pipeline))


def _witness_scan_order(s: Scenario) -> list[Context]:
    closing = closing_context(s)
    if closing is None:
        return list(s.contexts)
    return [closing] + [c for c in s.contexts if c != closing]


def enumerate_contextuality(pb: PossibilisticBehavior) -> ContextualityVerdict:
    """Decide logical contextuality by walking every global assignment.

    Works on any finite scenario. An assignment survives when its
    restriction to every context is possible. Contexts are scanned starting
    from the cycle-closing one, so on the cycle behaviors the reported
    witness is the tuple the paradox post-selects on.
    """
    s = pb.scenario
    size = len(s.outcomes) ** s.n
    if size > ENUMERATION_GUARD:
        raise EnumerationLimitError(f"{size} assignments exceed the enumeration guard")

    pos = {m: k for k, m in enumerate(s.measurements)}
    ctx_idx = {c: [pos[m] for m in c] for c in s.contexts}

    surviving_restrictions: dict[Context, set[OutcomeTuple]] = {c: set() for c in s.contexts}
    for values in itertools.product(s.outcomes, repeat=s.n):
        if all(tuple(values[i] for i in ctx_idx[c]) in pb.supports[c] for c in s.contexts):
            for c in s.contexts:
                surviving_restrictions[c].add(tuple(values[i] for i in ctx_idx[c]))

    for c in _witness_scan_order(s):
        for t in sorted(pb.supports[c]):
            if t in surviving_restrictions[c]:
                continue
            # every extension of t dies somewhere; record where
            fates = []
            free = [m for m in s.measurements if m not in c]
            for rest in itertools.product(s.outcomes, repeat=len(free)):
                assignment = dict(zip(c, t))
                assignment.update(zip(free, rest))
                full = tuple(assignment[m] for m in s.measurements)
                killer = None
                for c2 in s.contexts:
                    if tuple(full[i] for i in ctx_idx[c2]) not in pb.supports[c2]:
                        killer = c2
                        break
                assert killer is not None
                fates.append(AssignmentFate(full, killer))
            return ContextualityVerdict(True, Witness(c, t, tuple(fates)))
    return ContextualityVerdict(False, None)
