"""Theory-independent contextuality framework, on the binary n-cycle.

A measurement scenario is a finite set of measurements, a family of maximal
contexts (sets of jointly measurable measurements), and an outcome label set.
A behavior attaches a probability distribution over joint outcomes to every
context; its possibilistic collapse keeps only the supports. A possibilistic
behavior is logically contextual when some possible joint outcome admits no
global outcome assignment that stays possible in every context.

The one scenario here is the binary n-cycle: measurements 1..n, contexts
{i, i+1} plus the closing pair {n, 1}, outcomes (0, 1), built and shared by
``make_cycle_scenario``. ``oracles.enumerate_contextuality`` and
``oracles.fixpoint_propagate_chain`` take plain contexts and supports and
decide other scenarios too. Outcome tuples are always keyed by the
context's measurements in ascending label order, so the closing context is
stored as the ordered pair (1, n). Malformed input stops at the boundary
with ``ScenarioError``: a table or support tuple outside {0, 1}^2, a
support that is not a frozenset, a chain seed with a value outside the
outcomes, a required tuple that is not an outcome tuple of one of the
contexts, and a flip mask that does not name exactly the measurements. A
behavior is validated once, when it is built, and holds a read-only copy of
its supports, so no later edit can undo that check.

Every context support is one of the 15 non-empty subsets of {0, 1}^2. One
table maps each to a mask in the four low bits of an int (bit 2a + b set
when (a, b) is possible) and each mask back to one shared frozenset, and
every operation works on the masks:

- The ``ncycle`` generators take each support from the table, so every
  later lookup of it finds the shared frozenset by identity instead of
  comparing tuples. ``possibilistic_collapse`` builds fresh frozensets,
  whose masks the behavior finds by equality.
- ``PossibilisticBehavior`` looks up the mask of each support when it is
  built and stores them, in scenario context order, beside its read-only
  supports; a support without a mask is rejected, naming its context.
- ``is_logically_contextual`` reads the stored masks and decides the cycle
  in O(n) with products of the 2x2 boolean transfer matrices they pack (a
  16 x 16 product table). The witness's 2^(n-2) dead extensions are a
  frozen record that decodes each one on demand.
  ``oracles.enumerate_contextuality`` keeps the exhaustive enumeration of
  global assignments as its cross-check.
- ``flip_outcomes``, behind ``ncycle.relabel``, maps the stored masks
  through one 4 x 16 flip table and builds the result from the shared
  frozensets without validating it again.
- ``propagate_chain`` is a worklist in (pass, scenario index) order that
  re-evaluates a context only after another context fixed one of its
  measurements, and reads the forcing of a context from a table keyed by
  its stored mask and fixed values. The first pass, which takes every
  context, walks the scenario in order without a heap; later passes pop a
  heap. A chain costs O(n log n) from any seed, and its steps come out in
  the order of the fixpoint scan that ``oracles.fixpoint_propagate_chain``
  keeps as its cross-check.
"""

from __future__ import annotations

import functools
import heapq
import operator
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import ClassVar, Mapping

from .linalg import ALG_TOL

Context = tuple[int, ...]
OutcomeTuple = tuple[int, ...]

POSSIBILITY_EPS = 1e-9


class ScenarioError(ValueError):
    """Scenario or behavior structure violates an invariant."""


class EnumerationLimitError(RuntimeError):
    """The assignment space is too large to enumerate exhaustively."""


@dataclass(frozen=True)
class Scenario:
    """The binary n-cycle: measurements 1..n, the contexts (i, i+1) for i < n
    and the closing context (1, n), outcomes (0, 1).

    Built from n alone, so it is a valid scenario by construction;
    ``make_cycle_scenario`` shares one per n.
    """

    n: int
    measurements: tuple[int, ...] = field(init=False, repr=False, compare=False)
    contexts: tuple[Context, ...] = field(init=False, repr=False, compare=False)
    outcomes: ClassVar[tuple[int, ...]] = (0, 1)

    def __post_init__(self):
        n = operator.index(self.n)
        if n < 3:
            raise ScenarioError(f"a cycle needs at least 3 measurements, got {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "measurements", tuple(range(1, n + 1)))
        object.__setattr__(self, "contexts",
                           tuple((i, i + 1) for i in range(1, n)) + ((1, n),))

    def tuples(self, context: Context) -> list[OutcomeTuple]:
        return list(_PAIR_TUPLES)

    @functools.cached_property
    def _containing(self) -> dict[int, list[int]]:
        """Scenario indices of the contexts holding each measurement, ascending."""
        containing: dict[int, list[int]] = {m: [] for m in self.measurements}
        for k, c in enumerate(self.contexts):
            for m in c:
                containing[m].append(k)
        return containing

    @functools.cached_property
    def _measurement_set(self) -> frozenset[int]:
        return frozenset(self.measurements)

    @functools.cached_property
    def _context_set(self) -> frozenset[Context]:
        return frozenset(self.contexts)


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
                if t not in _PAIR_BITS:
                    raise _bad_tuple(c, t)
                if not -1e-15 <= p <= 1 + ALG_TOL:     # also false for NaN
                    raise ScenarioError(f"probability {p} outside [0,1] in context {c}")
                total += p
            if abs(total - 1.0) > ALG_TOL:
                raise ScenarioError(f"table for context {c} sums to {total}, not 1")


def _bad_tuple(c: Context, t) -> ScenarioError:
    """The error naming a tuple of context c that is not in {0, 1}^2."""
    if len(t) != len(c):
        return ScenarioError(f"tuple {t} has wrong arity for context {c}")
    return ScenarioError(f"tuple {t} of context {c} has a value outside the outcomes (0, 1)")


@dataclass(frozen=True)
class PossibilisticBehavior:
    scenario: Scenario
    supports: Mapping[Context, frozenset[OutcomeTuple]]     # read-only copy of the argument
    # Annotations set by generators; not part of support equality.
    kind: str | None = field(default=None, compare=False)
    required: tuple[Context, OutcomeTuple] | None = field(default=None, compare=False)
    # each support's mask, in scenario context order
    _masks: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        s = self.scenario
        supports = dict(self.supports)
        object.__setattr__(self, "supports", MappingProxyType(supports))
        if supports.keys() != s._context_set:
            raise ScenarioError("supports must cover exactly the contexts")
        if self.required is not None and not _is_outcome_of_context(s, self.required):
            raise ScenarioError(f"required {self.required!r} is not an outcome tuple "
                                "of a context of the scenario")
        # a set would fail the mask lookup's hash, a list every comparison
        for c, sup in supports.items():
            if not isinstance(sup, frozenset):
                raise ScenarioError(f"support of context {c} is a {type(sup).__name__}, "
                                    "not a frozenset")
        masks = tuple(_PAIR_MASKS.get(supports[c]) for c in s.contexts)
        if None in masks:
            c = s.contexts[masks.index(None)]
            if not supports[c]:
                raise ScenarioError(f"context {c} has empty support")
            raise _bad_tuple(c, next(t for t in supports[c] if t not in _PAIR_BITS))
        object.__setattr__(self, "_masks", masks)

    @classmethod
    def _trusted(cls, s: Scenario, masks: tuple[int, ...],
                 required: tuple[Context, OutcomeTuple] | None) -> PossibilisticBehavior:
        """The behavior of the shared pair supports of ``masks``, built without
        validation: each is one of the 15 valid supports."""
        pb = object.__new__(cls)
        pb.__dict__.update(scenario=s, kind=None, required=required, _masks=masks,
                           supports=MappingProxyType(dict(zip(s.contexts, map(
                               _PAIR_SUPPORTS.__getitem__, masks)))))
        return pb

    def possible(self, context: Context, t: OutcomeTuple) -> bool:
        return t in self.supports[context]


def _is_outcome_of_context(s: Scenario, required) -> bool:
    """``required`` is a pair (context of s, outcome tuple of that context)."""
    try:
        c, t = required
        return c in s._context_set and t in _PAIR_BITS
    except (TypeError, ValueError):     # not a pair, or an unhashable part
        return False


@dataclass(frozen=True)
class AssignmentFate:
    assignment: OutcomeTuple          # values in measurement-label order
    killed_by: Context


@dataclass(frozen=True)
class WitnessFates(Sequence):
    """Where each global extension of a witness tuple dies, decoded on demand.

    Item k gives the measurements outside the witness context the bits of k,
    most significant first (``itertools.product`` order), and names the first
    context, in scenario order, whose support rejects that assignment. There
    are ``size`` = 2^(n-2) items on a binary cycle, so none is stored; ``len``
    raises ``EnumerationLimitError`` once the count exceeds ``sys.maxsize``.
    """

    scenario: Scenario
    supports: tuple[frozenset[OutcomeTuple], ...]    # in scenario context order
    context: Context
    outcome_tuple: OutcomeTuple

    @property
    def size(self) -> int:
        """The number of fates, an exact int however large."""
        return 2 ** (self.scenario.n - len(self.context))

    def __len__(self) -> int:
        if self.size > sys.maxsize:
            raise EnumerationLimitError(
                f"{self.size} witness extensions are more than len() can count")
        return self.size

    def __getitem__(self, k):
        size = self.size
        if isinstance(k, slice):
            return tuple(self[i] for i in range(size)[k])
        k = operator.index(k)
        if k < 0:
            k += size
        if not 0 <= k < size:
            raise IndexError(f"fate index out of range for {size} fates")
        s = self.scenario
        values = dict(zip(self.context, self.outcome_tuple))
        free = [m for m in s.measurements if m not in values]
        for shift, m in enumerate(reversed(free)):
            values[m] = (k >> shift) & 1
        full = tuple(values[m] for m in s.measurements)
        for c, support in zip(s.contexts, self.supports):
            if tuple(values[m] for m in c) not in support:
                return AssignmentFate(full, c)
        raise ScenarioError(f"assignment {full} survives every context: not a witness")


@dataclass(frozen=True)
class Witness:
    context: Context
    outcome_tuple: OutcomeTuple
    fates: Sequence[AssignmentFate]


@dataclass(frozen=True)
class ContextualityVerdict:
    witness: Witness | None

    @property
    def contextual(self) -> bool:
        return self.witness is not None


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

    def refutes(self, measurement: int, value: int) -> bool:
        """The chain conflicted, or forced ``measurement`` off ``value``."""
        forced = self.forced.get(measurement)
        return self.conflicted or (forced is not None and forced != value)


@functools.lru_cache(typed=True)
def make_cycle_scenario(n: int) -> Scenario:
    """The binary n-cycle scenario, n >= 3.

    The scenario is immutable, so a call with a recently used n returns the
    instance built then.
    """
    return Scenario(n)


def marginal(table: Mapping[OutcomeTuple, float], context: Context,
             sub: Context) -> dict[OutcomeTuple, float]:
    """Marginal of a context table onto a subset of its measurements."""
    idx = [context.index(m) for m in sub]
    out: dict[OutcomeTuple, float] = {}
    for t, p in table.items():
        key = tuple(t[i] for i in idx)
        out[key] = out.get(key, 0.0) + p
    return out


def check_no_disturbance(b: Behavior) -> bool:
    """Marginals on every context overlap agree entrywise within ALG_TOL.

    On the cycle two contexts overlap only in a measurement they share, and
    each measurement lies in two contexts, so those two are compared on it.
    """
    s, tables = b.scenario, b.tables
    for m, (j, k) in s._containing.items():
        c1, c2 = s.contexts[j], s.contexts[k]
        m1 = marginal(tables[c1], c1, (m,))
        m2 = marginal(tables[c2], c2, (m,))
        for t in m1.keys() | m2.keys():
            if abs(m1.get(t, 0.0) - m2.get(t, 0.0)) > ALG_TOL:
                return False
    return True


def possibilistic_collapse(b: Behavior) -> PossibilisticBehavior:
    """Keep the support: a tuple is possible iff its probability exceeds
    ``POSSIBILITY_EPS``.

    The threshold separates genuine support from floating-point dust;
    quantum-computed zeros land many orders below it, genuine supports well
    above. A tuple outside {0, 1}^2 never gets here: ``Behavior`` rejects
    it.
    """
    supports = {
        c: frozenset(t for t, p in table.items() if p > POSSIBILITY_EPS)
        for c, table in b.tables.items()
    }
    return PossibilisticBehavior(b.scenario, supports)


# --- binary pair supports --------------------------------------------------

_PAIR_TUPLES = ((0, 0), (0, 1), (1, 0), (1, 1))    # the tuple (a, b) of bit 2a + b
_PAIR_BITS = {t: 1 << k for k, t in enumerate(_PAIR_TUPLES)}   # tuple -> its bit
_PAIR_SUPPORTS = tuple(frozenset(t for k, t in enumerate(_PAIR_TUPLES) if m >> k & 1)
                       for m in range(16))          # mask -> the shared frozenset
_PAIR_MASKS = {sup: m for m, sup in enumerate(_PAIR_SUPPORTS) if m}   # support -> mask
_FIRST_TUPLE = (None,) + tuple(_PAIR_TUPLES[(m & -m).bit_length() - 1] for m in range(1, 16))
_TRANSPOSED = tuple(m & 0b1001 | (m & 2) << 1 | (m & 4) >> 1 for m in range(16))


def _flipped_mask(m: int, flip_first: bool, flip_second: bool) -> int:
    if flip_first:
        m = (m & 0b0011) << 2 | m >> 2
    if flip_second:
        m = (m & 0b0101) << 1 | (m & 0b1010) >> 1
    return m


# 2 * (first flipped) + (second flipped) -> mask -> the mask with its tuples flipped
_FLIPPED = tuple(tuple(_flipped_mask(m, k >> 1, k & 1) for m in range(16)) for k in range(4))


def flip_outcomes(pb: PossibilisticBehavior,
                  flip: Mapping[int, bool]) -> PossibilisticBehavior:
    """Swap outcomes 0 <-> 1 of every measurement m with ``flip[m]`` true.

    ``flip`` must name exactly the measurements, or ``ScenarioError`` is
    raised. Each stored mask is flipped by a table lookup, and the result
    holds the shared frozenset of each flipped mask without being validated
    again. The required tuple moves with its context; the kind annotation
    is dropped.
    """
    s = pb.scenario
    if flip.keys() != s._measurement_set:
        raise ScenarioError("flip mask domain must equal the measurement set")
    required = None
    if pb.required is not None:
        rc, rt = pb.required
        required = (rc, tuple(1 - v if flip[m] else v for m, v in zip(rc, rt)))
    return PossibilisticBehavior._trusted(s, tuple(
        _FLIPPED[(2 if flip[a] else 0) | (1 if flip[b] else 0)][m]
        for (a, b), m in zip(s.contexts, pb._masks)), required)


_IDENTITY = 0b1001                       # packed 2x2 identity: bits [0][0] and [1][1]


def _packed_product(x: int, y: int) -> int:
    """Boolean product of two packed 2x2 matrices (bit 2i + j holds entry [i][j])."""
    lo, hi = y & 3, y >> 2
    r0 = (lo if x & 1 else 0) | (hi if x & 2 else 0)
    r1 = (lo if x & 4 else 0) | (hi if x & 8 else 0)
    return r0 | r1 << 2


_PRODUCT = tuple(tuple(_packed_product(x, y) for y in range(16)) for x in range(16))


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
    O(n). The masks are the ones the behavior stored when it was validated.

    Contexts are scanned starting from the cycle-closing one, then in
    scenario order, tuples in sorted order, so on the cycle behaviors the
    reported witness is the tuple the paradox post-selects on.
    ``oracles.enumerate_contextuality`` decides the same question by
    enumeration, on any scenario.
    """
    s = pb.scenario
    n = s.n
    masks = pb._masks                    # bit 2a + b: keyed tuple (a, b) possible
    mats = masks[:-1] + (_TRANSPOSED[masks[-1]],)
    prefix = [_IDENTITY]                 # prefix[k] = M_0 ... M_{k-1}
    for m in mats:
        prefix.append(_PRODUCT[prefix[-1]][m])
    suffix = [_IDENTITY]                 # suffix[k] = M_k ... M_{n-1}, built from the end
    for m in reversed(mats):
        suffix.append(_PRODUCT[m][suffix[-1]])
    suffix.reverse()

    for k in [n - 1, *range(n - 1)]:
        back = _PRODUCT[suffix[k + 1]][prefix[k]]
        # keyed tuple t is walked as (a, b) = t, or reversed on the closing
        # context; it dies when back lacks bit 2b + a
        dead = masks[k] & ~(back if k == n - 1 else _TRANSPOSED[back])
        if dead:
            c, t = s.contexts[k], _FIRST_TUPLE[dead]
            supports = tuple(map(pb.supports.__getitem__, s.contexts))
            return ContextualityVerdict(Witness(c, t, WitnessFates(s, supports, c, t)))
    return ContextualityVerdict(None)


def _pair_forced(mask: int, va: int | None, vb: int | None):
    """What a context of support ``mask`` forces given the fixed values of
    its first and second measurement (None if free).

    None when no tuple of the support agrees with the fixed values;
    otherwise the (position in the context, value) pairs of the free
    measurements on which every agreeing tuple takes the same value.
    """
    allowed = [t for t in _PAIR_SUPPORTS[mask]
               if va in (None, t[0]) and vb in (None, t[1])]
    if not allowed:
        return None
    forced = []
    for k, v in enumerate((va, vb)):
        vals = {t[k] for t in allowed}
        if v is None and len(vals) == 1:
            forced.append((k, vals.pop()))
    return tuple(forced)


# (mask, fixed value of the first measurement, of the second; None if free)
# -> what that context forces
_PAIR_FORCED = {(m, va, vb): _pair_forced(m, va, vb)
                for m in range(1, 16) for va in (None, 0, 1) for vb in (None, 0, 1)}


def propagate_chain(pb: PossibilisticBehavior, seed_measurement: int,
                    seed_value: int) -> ChainResult:
    """Unit propagation of forced outcome values along the contexts.

    Starting from the seeded value, whenever the support of some context
    restricted to the currently fixed values leaves a single option for an
    unfixed measurement, that value is forced. Stops at a fixpoint, or at
    the first context whose restricted support becomes empty.

    Contexts are evaluated in (pass, scenario index) order: the first pass
    takes every context, walking the scenario in order without a heap,
    since a context it would queue for later in the pass is already
    pending; after it a context is queued only when another context fixes
    one of its measurements, on the current pass's heap if it comes later
    in scenario order and for the next pass otherwise. Evaluating a
    context nothing has touched since would change nothing, so ``steps``,
    ``forced`` and the conflict are those of rescanning every context until
    nothing changes (``oracles.fixpoint_propagate_chain``), at O(n log n)
    instead of O(n^2) for a chain forced against the scan order. Each
    context reads its forcing from a table keyed by its stored mask and
    fixed values. An unknown seed measurement, or a seed value not in
    ``scenario.outcomes``, raises ``ScenarioError``.
    """
    s = pb.scenario
    if seed_measurement not in s.measurements:
        raise ScenarioError(f"unknown measurement {seed_measurement}")
    if seed_value not in s.outcomes:
        raise ScenarioError(f"seed value {seed_value!r} is not one of the outcomes {s.outcomes}")
    fixed: dict[int, int] = {seed_measurement: seed_value}
    steps: list[tuple[int, int]] = [(seed_measurement, seed_value)]
    contexts, masks, containing = s.contexts, pb._masks, s._containing
    heap: list[int] | None = None        # the first pass queues every context: no heap
    order: Iterable[int] = range(len(contexts))
    while True:
        later: set[int] = set()
        for i in order:
            c = contexts[i]
            forced = _PAIR_FORCED[masks[i], fixed.get(c[0]), fixed.get(c[1])]
            if forced is None:
                return ChainResult(dict(fixed), tuple(steps), ChainConflict(c, dict(fixed)))
            for k, v in forced:
                m = c[k]
                fixed[m] = v
                steps.append((m, v))
                for j in containing[m]:
                    if j > i:
                        if heap is not None:
                            heapq.heappush(heap, j)
                    elif j < i:
                        later.add(j)
        if not later:
            return ChainResult(dict(fixed), tuple(steps), None)
        heap = sorted(later)             # the next pass, as a heap of scenario indices
        order = _drained(heap)


def _drained(heap: list[int]) -> Iterator[int]:
    """Pop a heap that grows while it is read, yielding each index once in a row."""
    last = -1
    while heap:
        i = heapq.heappop(heap)
        if i != last:                    # queued twice in this pass: pops twice in a row
            last = i
            yield i


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
