"""Theory-independent contextuality framework.

A measurement scenario is a finite set of measurements, a family of maximal
contexts (sets of jointly measurable measurements), and an outcome label set.
A behavior attaches a probability distribution over joint outcomes to every
context; its possibilistic collapse keeps only the supports. A possibilistic
behavior is logically contextual when some possible joint outcome admits no
global outcome assignment that stays possible in every context.

The types admit arbitrary finite scenarios, but everything in this package
is exercised on n-cycle scenarios (contexts {i, i+1} plus the closing pair
{n, 1}) with binary outcomes. Outcome tuples are always keyed by the
context's measurements in ascending label order, so the closing context is
stored as the ordered pair (1, n).

``is_logically_contextual`` decides binary n-cycles in O(n) with products
of 2x2 boolean transfer matrices, one per context, each packed into the four
low bits of an int (bit 2a + b set when the walked tuple (a, b) is
possible), and reports the witness's 2^(n-2) dead extensions as a lazy
sequence. ``oracles.enumerate_contextuality`` keeps the exhaustive
enumeration of global assignments as its cross-check and decides any other
scenario.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Mapping

Context = tuple[int, ...]
OutcomeTuple = tuple[int, ...]

POSSIBILITY_EPS = 1e-9


class ScenarioError(ValueError):
    """Scenario or behavior structure violates an invariant."""


class EnumerationLimitError(RuntimeError):
    """The assignment space is too large to enumerate exhaustively."""


@dataclass(frozen=True)
class Scenario:
    measurements: tuple[int, ...]
    contexts: tuple[Context, ...]
    outcomes: tuple[int, ...] = (0, 1)

    def __post_init__(self):
        mset = set(self.measurements)
        if len(mset) != len(self.measurements):
            raise ScenarioError("duplicate measurement labels")
        for c in self.contexts:
            if tuple(sorted(c)) != c:
                raise ScenarioError(f"context {c} must be stored in ascending order")
            if not set(c) <= mset:
                raise ScenarioError(f"context {c} is not a subset of the measurement set")
        # a superset of c1 contains c1[0], so only those contexts are candidates
        sets = [set(c) for c in self.contexts]
        containing: dict[int, list[int]] = {}
        for k, c in enumerate(self.contexts):
            for m in c:
                containing.setdefault(m, []).append(k)
        everything = range(len(self.contexts))
        for c1, s1 in zip(self.contexts, sets):
            for k in (containing[c1[0]] if c1 else everything):
                c2 = self.contexts[k]
                if c1 != c2 and s1 <= sets[k]:
                    raise ScenarioError(f"context {c1} is contained in {c2}; contexts must be maximal")

    @property
    def n(self) -> int:
        return len(self.measurements)

    def tuples(self, context: Context) -> list[OutcomeTuple]:
        return list(itertools.product(self.outcomes, repeat=len(context)))

    @functools.cached_property
    def _tuple_sets(self) -> dict[int, frozenset[OutcomeTuple]]:
        """Every outcome tuple of each context arity, built on first use."""
        return {k: frozenset(itertools.product(self.outcomes, repeat=k))
                for k in {len(c) for c in self.contexts}}


@dataclass(frozen=True)
class Behavior:
    scenario: Scenario
    tables: Mapping[Context, Mapping[OutcomeTuple, float]]

    def __post_init__(self):
        s = self.scenario
        if set(self.tables) != set(s.contexts):
            raise ScenarioError("behavior must carry exactly one table per context")
        for c, table in self.tables.items():
            total = 0.0
            for t, p in table.items():
                if len(t) != len(c):
                    raise ScenarioError(f"tuple {t} has wrong arity for context {c}")
                if not -1e-15 <= p <= 1 + 1e-12:     # also false for NaN
                    raise ScenarioError(f"probability {p} outside [0,1] in context {c}")
                total += p
            if abs(total - 1.0) > 1e-12:
                raise ScenarioError(f"table for context {c} sums to {total}, not 1")


@dataclass(frozen=True)
class PossibilisticBehavior:
    scenario: Scenario
    supports: Mapping[Context, frozenset[OutcomeTuple]]
    # Annotations set by generators; not part of support equality.
    kind: str | None = field(default=None, compare=False)
    required: tuple[Context, OutcomeTuple] | None = field(default=None, compare=False)

    def __post_init__(self):
        s = self.scenario
        if set(self.supports) != set(s.contexts):
            raise ScenarioError("supports must cover exactly the contexts")
        valid = s._tuple_sets
        for c, sup in self.supports.items():
            if not sup:
                raise ScenarioError(f"context {c} has empty support")
            tuples = valid[len(c)]
            if tuples.issuperset(sup):
                continue
            for t in sup:
                if len(t) != len(c):
                    raise ScenarioError(f"tuple {t} has wrong arity for context {c}")
                if t not in tuples:
                    raise ScenarioError(f"tuple {t} of context {c} has a value outside "
                                        f"the outcomes {s.outcomes}")

    def possible(self, context: Context, t: OutcomeTuple) -> bool:
        return t in self.supports[context]


@dataclass(frozen=True)
class AssignmentFate:
    assignment: OutcomeTuple          # values in measurement-label order
    killed_by: Context


class WitnessFates(Sequence):
    """Where each global extension of a witness tuple dies, computed on demand.

    Item k gives the measurements outside the witness context the bits of k,
    most significant first (``itertools.product`` order), and names the first
    context, in scenario order, whose support rejects that assignment. There
    are 2^(n-2) items on a binary cycle, so none is stored; ``len`` raises
    ``EnumerationLimitError`` once the count exceeds ``sys.maxsize``.
    """

    __slots__ = ("_n", "_fixed", "_free", "_checks", "_size")

    def __init__(self, pb: PossibilisticBehavior, context: Context,
                 outcome_tuple: OutcomeTuple):
        s = pb.scenario
        pos = {m: k for k, m in enumerate(s.measurements)}
        self._n = s.n
        self._fixed = tuple((pos[m], v) for m, v in zip(context, outcome_tuple))
        self._free = tuple(pos[m] for m in s.measurements if m not in context)
        self._checks = tuple((tuple(pos[m] for m in c), c, pb.supports[c])
                             for c in s.contexts)
        self._size = 2 ** len(self._free)

    def __len__(self) -> int:
        if self._size > sys.maxsize:
            raise EnumerationLimitError(
                f"{self._size} witness extensions are more than len() can count")
        return self._size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(self._size)[k])
        k = operator.index(k)
        if k < 0:
            k += self._size
        if not 0 <= k < self._size:
            raise IndexError(f"fate index out of range for {self._size} fates")
        values = [0] * self._n
        for p, v in self._fixed:
            values[p] = v
        for shift, p in enumerate(reversed(self._free)):
            values[p] = (k >> shift) & 1
        full = tuple(values)
        for idx, c, support in self._checks:
            if tuple(full[i] for i in idx) not in support:
                return AssignmentFate(full, c)
        raise ScenarioError(f"assignment {full} survives every context: not a witness")

    def _key(self):
        return self._n, self._fixed, self._checks

    def __eq__(self, other):
        if not isinstance(other, WitnessFates):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class Witness:
    context: Context
    outcome_tuple: OutcomeTuple
    fates: Sequence[AssignmentFate]


@dataclass(frozen=True)
class ContextualityVerdict:
    contextual: bool
    witness: Witness | None


@dataclass(frozen=True)
class ChainConflict:
    context: Context
    fixed: Mapping[int, int]


@dataclass(frozen=True)
class ChainResult:
    forced: Mapping[int, int]                 # includes the seed
    steps: tuple[tuple[int, int], ...]        # (measurement, value) in forcing order
    conflict: ChainConflict | None

    @property
    def conflicted(self) -> bool:
        return self.conflict is not None


@functools.lru_cache(typed=True)
def make_cycle_scenario(n: int) -> Scenario:
    """n binary measurements with contexts {i, i+1} for i < n plus {n, 1}.

    The scenario is immutable, so a call with a recently used n returns the
    instance built and validated then.
    """
    if n < 3:
        raise ScenarioError(f"a cycle needs at least 3 measurements, got {n}")
    return Scenario(tuple(range(1, n + 1)), _cycle_contexts(n))


def _cycle_contexts(n: int) -> tuple[Context, ...]:
    return tuple((i, i + 1) for i in range(1, n)) + ((1, n),)


def closing_context(s: Scenario) -> Context | None:
    """The cycle-closing context (1, n), if the scenario has one."""
    c = (1, s.n)
    return c if c in s.contexts and s.n > 2 else None


def marginal(table: Mapping[OutcomeTuple, float], context: Context,
             sub: Context) -> dict[OutcomeTuple, float]:
    """Marginal of a context table onto a subset of its measurements."""
    idx = [context.index(m) for m in sub]
    out: dict[OutcomeTuple, float] = {}
    for t, p in table.items():
        key = tuple(t[i] for i in idx)
        out[key] = out.get(key, 0.0) + p
    return out


def check_no_disturbance(b: Behavior, tol: float = 1e-12) -> bool:
    """Marginals on every context overlap agree entrywise within tol."""
    s = b.scenario
    for c1, c2 in itertools.combinations(s.contexts, 2):
        shared = tuple(sorted(set(c1) & set(c2)))
        if not shared:
            continue
        m1 = marginal(b.tables[c1], c1, shared)
        m2 = marginal(b.tables[c2], c2, shared)
        for t in set(m1) | set(m2):
            if abs(m1.get(t, 0.0) - m2.get(t, 0.0)) > tol:
                return False
    return True


def possibilistic_collapse(b: Behavior) -> PossibilisticBehavior:
    """Keep the support: a tuple is possible iff its probability exceeds
    ``POSSIBILITY_EPS``.

    The threshold separates genuine support from floating-point dust;
    quantum-computed zeros land many orders below it, genuine supports well
    above.
    """
    supports = {
        c: frozenset(t for t, p in table.items() if p > POSSIBILITY_EPS)
        for c, table in b.tables.items()
    }
    return PossibilisticBehavior(b.scenario, supports)


_IDENTITY = 0b1001                       # packed 2x2 identity: bits [0][0] and [1][1]


def _packed_product(x: int, y: int) -> int:
    """Boolean product of two packed 2x2 matrices (bit 2i + j holds entry [i][j])."""
    lo, hi = y & 3, y >> 2
    r0 = (lo if x & 1 else 0) | (hi if x & 2 else 0)
    r1 = (lo if x & 4 else 0) | (hi if x & 8 else 0)
    return r0 | r1 << 2


def _is_binary_cycle(s: Scenario) -> bool:
    return (s.n >= 3 and s.outcomes == (0, 1)
            and s.measurements == tuple(range(1, s.n + 1))
            and s.contexts == _cycle_contexts(s.n))


def is_logically_contextual(pb: PossibilisticBehavior) -> ContextualityVerdict:
    """Search for a possible tuple none of whose global extensions survives.

    An assignment survives when its restriction to every context is possible.
    On the binary n-cycle, walking m_1 -> m_2 -> ... -> m_n -> m_1 turns each
    context into a 2x2 boolean support matrix M_k (the closing context (1, n)
    is walked from m_n to m_1, so its matrix is the transposed support),
    packed into a 4-bit int whose bit 2a + b holds entry [a][b]. A tuple
    (a, b) of context k, in walking order, extends to a surviving assignment
    exactly when the product of the other n-1 matrices, taken from the
    context's end around the cycle back to its start, is true at [b][a]
    (bit 2b + a); prefix and suffix products give every such product in
    O(n). A support tuple with a value outside {0, 1} raises
    ``ScenarioError``.

    Contexts are scanned starting from the cycle-closing one, then in
    scenario order, tuples in sorted order, so on the cycle behaviors the
    reported witness is the tuple the paradox post-selects on. Other
    scenarios raise ``ScenarioError``; ``oracles.enumerate_contextuality``
    decides them by enumeration.
    """
    s = pb.scenario
    if not _is_binary_cycle(s):
        raise ScenarioError("is_logically_contextual decides binary n-cycle scenarios "
                            "only; use oracles.enumerate_contextuality for others")
    n = s.n
    mats = []
    for k, c in enumerate(s.contexts):
        sup = pb.supports[c]
        # bit 2a + b is set when the walked tuple (a, b) is possible
        m = ((0, 0) in sup) | ((1, 1) in sup) << 3
        if k == n - 1:
            m |= ((1, 0) in sup) << 1 | ((0, 1) in sup) << 2
        else:
            m |= ((0, 1) in sup) << 1 | ((1, 0) in sup) << 2
        if m.bit_count() != len(sup):
            raise ScenarioError(f"support of context {c} holds a tuple outside {{0, 1}}^2")
        mats.append(m)
    prefix = [_IDENTITY]                 # prefix[k] = M_0 ... M_{k-1}
    for m in mats:
        prefix.append(_packed_product(prefix[-1], m))
    suffix = [_IDENTITY]                 # suffix[k] = M_k ... M_{n-1}, built from the end
    for m in reversed(mats):
        suffix.append(_packed_product(m, suffix[-1]))
    suffix.reverse()

    for k in [n - 1, *range(n - 1)]:
        c = s.contexts[k]
        back = _packed_product(suffix[k + 1], prefix[k])
        for t in sorted(pb.supports[c]):
            a, b = (t[1], t[0]) if k == n - 1 else t
            if not back >> (2 * b + a) & 1:
                return ContextualityVerdict(True, Witness(c, t, WitnessFates(pb, c, t)))
    return ContextualityVerdict(False, None)


def propagate_chain(pb: PossibilisticBehavior, seed_measurement: int,
                    seed_value: int) -> ChainResult:
    """Unit propagation of forced outcome values along the contexts.

    Starting from the seeded value, whenever the support of some context
    restricted to the currently fixed values leaves a single option for an
    unfixed measurement, that value is forced. Stops at a fixpoint, or at
    the first context whose restricted support becomes empty.
    """
    s = pb.scenario
    if seed_measurement not in s.measurements:
        raise ScenarioError(f"unknown measurement {seed_measurement}")
    fixed: dict[int, int] = {seed_measurement: seed_value}
    steps: list[tuple[int, int]] = [(seed_measurement, seed_value)]
    changed = True
    while changed:
        changed = False
        for c in s.contexts:
            pinned = [k for k, m in enumerate(c) if m in fixed]
            if pinned:
                get = operator.itemgetter(*pinned)
                want = get([fixed.get(m) for m in c])
                allowed = [t for t in pb.supports[c] if get(t) == want]
            else:
                allowed = list(pb.supports[c])
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


def supports_within(inner: PossibilisticBehavior, outer: PossibilisticBehavior) -> bool:
    """True iff every tuple possible in ``inner`` is possible in ``outer``."""
    if inner.scenario.contexts != outer.scenario.contexts:
        raise ScenarioError("behaviors live on different scenarios")
    return all(inner.supports[c] <= outer.supports[c] for c in inner.scenario.contexts)


# --- serialization ---------------------------------------------------------

def _ctx_key(c: Context) -> str:
    return ",".join(str(i) for i in c)


def _tuple_key(t: OutcomeTuple) -> str:
    return ",".join(str(v) for v in t)


def possibilistic_to_doc(pb: PossibilisticBehavior) -> dict:
    s = pb.scenario
    doc: dict = {
        "n": s.n,
        "contexts": [list(c) for c in s.contexts],
        "tables": {
            _ctx_key(c): {_tuple_key(t): int(t in pb.supports[c]) for t in s.tuples(c)}
            for c in s.contexts
        },
    }
    if pb.kind is not None:
        doc["kind"] = pb.kind
    return doc
