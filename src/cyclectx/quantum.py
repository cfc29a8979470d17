"""Quantum realizations of cycle behaviors.

A realization is a prepared pure state together with one projective
binary measurement per label. The outcome-1 projector of measurement i is
stored as an orthonormal frame (dim x k matrix of column vectors), so rank-1
measurements are a single unit vector and relabeled or two-qubit
measurements carry higher-rank frames.

Pair statistics for compatible (commuting) measurements are computed from
products of the commuting projectors, i.e. from the joint coarse-graining of
the simultaneously diagonalizable measurement. No state-update rule enters
anywhere in this module; the textbook sequential-update computation lives in
``oracles`` purely as a cross-check. ``born_pair`` and
``behavior_from_realization`` share one pass over all requested pairs: the
realization's ``commutator_norms`` gives every ||[P_i, P_j]||_F (the first
pair above ALG_TOL raises), and two stacked products form every amplitude.
Each table is checked once: ``born_pair``'s by ``PairDistribution``, and
``behavior_from_realization``'s by ``Behavior``, where a bad table is a
``RealizationError``.

A ``QuantumRealization`` keeps its dimension as a Python int (else a
``RealizationError``), validates its state, then each frame in the
caller's order (shape, then finite, then orthonormal; the first failure
raises), and keeps read-only copies of both, the state as complex. Each
frame F writes its row of two read-only (n, dim, dim) stacks in sorted-label
order: 1 - P_i and P_i, with P_i = F F^dag made exactly Hermitian (no bit
changes where it already is), so a friend's record gate is its own inverse.
The accessors return fixed row views, and ``commutator_norms`` is the one
routine for ||[P_i, P_j]||_F, which the pair statistics and ``ewf``'s
certificates both read; the stack layout is private to this module.

``find_quantum_realization`` tests one candidate: the exact start of a
relabeled unified ladder whose supports lie inside the target's. The ladder
with flips f forbids only (f_i, 1 - f_{i+1}) on each context (i, i+1),
allows every tuple of the closing context (1, n) and requires (f_1,
1 - f_n) there, so a realization of it realizes every target that forbids a
subset of those tuples and requires the same one. For n >= 5 and dim >= 3
the start is a qutrit chain of adjacent-orthogonal real vectors (the planar
chain for odd n; for even n the chain for n - 1 with v_n = v_1), each frame
the vector or its orthocomplement according to the label's parity and flip;
its required probability is at least 0.111 at every odd n up to 2001. For
n = 4 and dim >= 4 it is Hardy's two-qubit product realization, each frame
a qubit vector or its orthogonal one, times the other qubit. The start's
cached realization passes one acceptance test or is rejected: its
``behavior_from_realization`` tables must hold every forbidden probability
<= ``PROB_TOL`` and the required one >= ``REQUIRED_MARGIN`` (a
non-commuting context rejects it). Since ``PROB_TOL`` < ``POSSIBILITY_EPS``
< ``REQUIRED_MARGIN``, its ``possibilistic_collapse`` then lies within the
target and contains the required tuple. Every other request
(a smaller n or dim, or a target that contains no relabeled ladder) is a
``SearchFailure`` at once, whose message says why; no numerical descent is
run.

Two fixed inputs are built once per process: ``kcbs_realization``
returns one shared realization, and per (n, dim, flips) the exact start's
realization (the normalized state and the canonical frames, validated
once) is cached.
Only such pure constructions of their arguments are cached; every search
still tests its candidate, and every statistic is computed on each call.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .linalg import ALG_TOL, PROB_TOL, normalized
from .scenario import (
    Behavior,
    PossibilisticBehavior,
    Scenario,
    ScenarioError,
    make_cycle_scenario,
)

# the required probability the realization search demands
REQUIRED_MARGIN = 1e-3

# label pairs per batched product of ``QuantumRealization.commutator_norms``
PAIR_CHUNK = 4096


class RealizationError(ValueError):
    """Realization data violates an invariant."""


class NoncommutingError(ValueError):
    """Joint statistics were requested for a non-commuting pair."""


@dataclass(frozen=True)
class QuantumRealization:
    dim: int
    state: np.ndarray                      # (dim,) unit vector; a read-only complex copy
    frames: Mapping[int, np.ndarray]       # label -> (dim, k) orthonormal columns
    # (2, n, dim, dim): 1 - P_i and P_i stacked in sorted-label order,
    # one row per frame as it is validated; frames are stored as a
    # read-only copy, so they cannot drift apart. ``_rows``
    # maps a label to its row; the pair statistics below read both, and
    # every other module goes through the accessors.
    _stacks: np.ndarray = field(init=False, repr=False, compare=False)
    _rows: Mapping[int, int] = field(init=False, repr=False, compare=False)
    # label -> read-only row views (1 - P_i, P_i) of the stacks
    _views: Mapping[int, tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            d = operator.index(self.dim)
        except TypeError:
            raise RealizationError(f"dim must be an integer, got {self.dim!r}") from None
        if d < 2:
            raise RealizationError("dimension must be at least 2")
        s = np.array(self.state, dtype=complex)         # a copy, read-only below
        if s.shape != (d,):
            raise RealizationError(f"state must have shape ({d},)")
        if not np.all(np.isfinite(s)):
            raise RealizationError("state has non-finite entries")
        if abs(np.linalg.norm(s) ** 2 - 1.0) > ALG_TOL:
            raise RealizationError("state is not normalized")
        # frame by frame in the caller's order: shape, then finiteness, then
        # orthonormality; the first failure raises
        rows = {i: k for k, i in enumerate(sorted(self.frames))}
        stacks = np.empty((2, len(rows), d, d), dtype=complex)
        frames = {}
        for i, f in self.frames.items():
            f = np.asarray(f)
            if f.ndim != 2 or f.shape[0] != d or not 1 <= f.shape[1] <= d:
                raise RealizationError(f"frame {i} has invalid shape {f.shape}")
            f = np.array(f, dtype=complex, order="C")
            if not np.all(np.isfinite(f)):
                raise RealizationError(f"frame {i} has non-finite entries")
            fh = f.conj().T
            if np.linalg.norm(fh @ f - np.eye(f.shape[1])) > ALG_TOL:
                raise RealizationError(f"frame {i} is not orthonormal")
            p = f @ fh
            stacks[1, rows[i]] = (p + p.conj().T) / 2
            f.setflags(write=False)
            frames[i] = f
        stacks[0] = np.eye(d) - stacks[1]
        stacks.setflags(write=False)
        s.setflags(write=False)
        q, p = stacks
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "state", s)
        object.__setattr__(self, "frames", MappingProxyType(frames))
        object.__setattr__(self, "_stacks", stacks)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_views", {i: (q[k], p[k]) for i, k in rows.items()})

    def rank(self, i: int) -> int:
        return int(np.asarray(self.frames[i]).shape[1])

    @property
    def vectors(self) -> dict[int, np.ndarray]:
        """Rank-1 view: one unit vector per measurement. Raises otherwise."""
        if any(self.rank(i) != 1 for i in self.frames):
            raise RealizationError("realization has measurements of rank above 1")
        return {i: np.asarray(self.frames[i], dtype=complex)[:, 0] for i in self.frames}

    def projector(self, i: int) -> np.ndarray:
        """P_i = F F^dag, exactly Hermitian; read-only."""
        return self._views[i][1]

    def outcome_projector(self, i: int, outcome: int) -> np.ndarray:
        """P_i for outcome 1, 1 - P_i otherwise; read-only."""
        return self._views[i][1 if outcome == 1 else 0]

    def commutator_norms(self, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
        """||[P_i, P_j]||_F of each label pair (i, j) in order, PAIR_CHUNK pairs
        per batched product. A label without a measurement raises
        ``RealizationError``."""
        missing = sorted({i for pair in pairs for i in pair} - self._rows.keys())
        if missing:
            raise RealizationError(f"realization has no measurement for labels {missing}")
        p = self._stacks[1]
        i = [self._rows[a] for a, _ in pairs]
        j = [self._rows[b] for _, b in pairs]
        out = np.empty(len(pairs))
        for lo in range(0, len(pairs), PAIR_CHUNK):
            pi, pj = p[i[lo:lo + PAIR_CHUNK]], p[j[lo:lo + PAIR_CHUNK]]
            c = pi @ pj - pj @ pi
            # the operations of np.linalg.norm(c, axis=(1, 2)), without its dispatch
            out[lo:lo + PAIR_CHUNK] = np.sqrt(np.add.reduce((c.conj() * c).real, axis=(1, 2)))
        return out


@dataclass(frozen=True)
class PairDistribution:
    context: tuple[int, int]
    probabilities: Mapping[tuple[int, int], float]

    def __post_init__(self):
        probs = {}
        total = 0.0
        for t, p in self.probabilities.items():
            if not math.isfinite(p):
                raise RealizationError(f"non-finite probability {p} at {t}")
            if p < -1e-15:
                raise RealizationError(f"negative probability {p} at {t}")
            p = max(p, 0.0)
            probs[t] = p
            total += p
        if abs(total - 1.0) > ALG_TOL:
            raise RealizationError(f"pair distribution sums to {total}")
        object.__setattr__(self, "probabilities", probs)

    def __getitem__(self, t: tuple[int, int]) -> float:
        return self.probabilities[t]


@functools.cache
def kcbs_realization() -> QuantumRealization:
    """The qutrit pentagon realization of the 5-cycle behavior.

    State (1,1,1)/sqrt(3) and five unit vectors with every cyclically
    adjacent pair orthogonal; outcome 1 of measurement i projects onto
    vector i. A realization is immutable, so every call returns the one
    instance built on the first.
    """
    r3, r2 = np.sqrt(3.0), np.sqrt(2.0)
    eta = np.array([1, 1, 1], dtype=complex) / r3
    vecs = {
        1: np.array([1, -1, 1], dtype=complex) / r3,
        2: np.array([1, 1, 0], dtype=complex) / r2,
        3: np.array([0, 0, 1], dtype=complex),
        4: np.array([1, 0, 0], dtype=complex),
        5: np.array([0, 1, 1], dtype=complex) / r2,
    }
    return QuantumRealization(3, eta, {i: v.reshape(3, 1) for i, v in vecs.items()})


def _pair_tables(r: QuantumRealization,
                 pairs: Sequence[tuple[int, int]]) -> list[dict[tuple[int, int], float]]:
    """Joint outcome tables of compatible pairs, all in one pass, unchecked.

    The norms of ``r.commutator_norms`` decide compatibility: the first pair
    in the given order above ALG_TOL raises ``NoncommutingError``. The
    amplitudes Q_b Q_a psi of all pairs then take two stacked products, and
    each probability is ||Q_b Q_a psi||^2, rounded as the square of the norm.
    """
    norms = r.commutator_norms(pairs)
    bad = np.flatnonzero(norms > ALG_TOL)
    if len(bad):
        (a, b), c = pairs[bad[0]], norms[bad[0]]
        raise NoncommutingError(
            f"measurements {a} and {b} do not commute (norm {c:.3e} > {ALG_TOL:.1e})")
    i = [r._rows[a] for a, _ in pairs]
    j = [r._rows[b] for _, b in pairs]
    u = r._stacks[:2, i] @ r.state                          # [a, pair]
    v = r._stacks[None, :2, j] @ u[:, None, :, :, None]     # [a, b, pair]
    norm2 = np.add.reduce(v.real * v.real, 3) + np.add.reduce(v.imag * v.imag, 3)
    probs = (np.sqrt(norm2[..., 0]) ** 2).transpose(2, 0, 1).tolist()
    return [{(0, 0): p0[0], (0, 1): p0[1], (1, 0): p1[0], (1, 1): p1[1]} for p0, p1 in probs]


def born_pair(r: QuantumRealization, i: int, j: int) -> PairDistribution:
    """Joint outcome distribution for the compatible pair (i, j).

    Probabilities come from products of the commuting outcome projectors
    applied to the prepared state, keyed (a_i, a_j) in argument order. A
    pair whose commutator norm exceeds ALG_TOL raises ``NoncommutingError``.
    """
    return PairDistribution((i, j), _pair_tables(r, [(i, j)])[0])


def behavior_from_realization(r: QuantumRealization, s: Scenario) -> Behavior:
    """Fill every context table of the scenario from the realization.

    ``Behavior`` checks each table once; a table it rejects raises
    ``RealizationError``.
    """
    if any(len(c) != 2 for c in s.contexts):
        raise RealizationError("only two-measurement contexts are supported here")
    try:
        return Behavior(s, dict(zip(s.contexts, _pair_tables(r, s.contexts))))
    except ScenarioError as exc:
        raise RealizationError(str(exc)) from None


# --- realization search -----------------------------------------------------


@dataclass(frozen=True)
class SearchFailure:
    """A search that returned no realization; ``message`` says why."""

    message: str


# --- exact starts -----------------------------------------------------------


def _odd_plane_vectors(n: int) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Adjacent-orthogonal unit vectors in R^3 for an odd cycle.

    Vectors 2k and 2k+1 form an orthonormal basis of a plane through the
    state, which pins the alternating joint zeros; vector 1 is normal to its
    two neighbors. Plane k turns by k delta, and the tilts follow
    tan theta_{k+1} = tan theta_k / cos delta. With delta = pi - c / h,
    h = (n - 1) / 2, |cos delta|^-h stays bounded as n grows, so the
    overlap does not fade: it is 0.111 at n = 5 and tends to 1/2, as in the
    Hardy-like n-cycle construction of Cabello et al. (PRL 111, 180404). A
    deterministic (theta_0, c) grid, evaluated as one array computation,
    picks the variant with the largest overlap between vector 1 and the
    state.
    """
    assert n % 2 == 1 and n >= 5
    half = (n - 1) // 2
    psi = np.array([0.0, 0.0, 1.0])
    # one row per grid point (theta0, c), theta0-major
    theta0, c = (g.ravel() for g in np.meshgrid(
        np.linspace(0.3, 1.2, 10), np.linspace(0.5, 6.0, 10), indexing="ij"))
    delta = np.pi - c / half
    ths = [theta0]
    for _ in range(half - 1):
        ths.append(np.arctan2(np.tan(ths[-1]), np.cos(delta)))
    th = np.stack(ths, axis=1)[..., None]
    phi = np.arange(half) * delta[:, None]
    w = np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=-1)
    even = np.cos(th) * psi + np.sin(th) * w        # vectors 2k + 2
    odd = -np.sin(th) * psi + np.cos(th) * w        # vectors 2k + 3
    v1 = np.cross(even[:, 0], odd[:, -1])
    norms = np.sqrt(np.sum(v1 * v1, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        margins = np.where(norms < 1e-9, -np.inf, (v1[:, 2] / norms) ** 2)
    best = int(np.argmax(margins))       # the first of equal maxima
    assert np.isfinite(margins[best])
    vs = {1: v1[best] / np.linalg.norm(v1[best])}
    for k in range(half):
        vs[2 * k + 2], vs[2 * k + 3] = even[best, k], odd[best, k]
    return psi, vs


def _embed(vec: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros(vec.shape[:-1] + (dim,), dtype=complex)
    out[..., : vec.shape[-1]] = vec
    return out


def _complement_frames(vecs: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the orthocomplements of stacked unit vectors."""
    proj = np.eye(vecs.shape[1]) - vecs[:, :, None] * vecs.conj()[:, None, :]
    u, _, _ = np.linalg.svd(proj)
    return u[:, :, :-1]


def _ladder_flips(target: PossibilisticBehavior) -> tuple[bool, ...] | None:
    """Per-label outcome flips of a relabeled unified ladder that lies inside
    the target, or None when the target contains none.

    The ladder with flips f forbids only (f_i, 1 - f_{i+1}) on each context
    (i, i+1), allows every tuple of the closing context (1, n) and requires
    (f_1, 1 - f_n) there. Its supports lie inside the target's exactly when
    each adjacent context of the target forbids nothing or only that tuple,
    the closing context has full support and the required tuple is that
    one. f is read from these constraints, and a label that none of them
    fixes takes False; two constraints that clash, or a context that forbids
    two tuples, leave no ladder.
    """
    s, req = target.scenario, target.required
    n = s.n
    closing = (1, n)
    if s != make_cycle_scenario(n) or req is None or req[0] != closing:
        return None
    if not target.supports[closing].issuperset(s.tuples(closing)):
        return None
    a, b = req[1]
    flips = {1: a == 1, n: b == 0}
    for i in range(1, n):
        missing = set(s.tuples((i, i + 1))) - target.supports[(i, i + 1)]
        if len(missing) > 1:
            return None
        for a, b in missing:
            for label, flip in ((i, a == 1), (i + 1, b == 0)):
                if flips.setdefault(label, flip) != flip:
                    return None
    return tuple(flips.get(i, False) for i in range(1, n + 1))


def _hardy_start(dim: int, flips: tuple[bool, ...]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Hardy's two-qubit realization of a relabeled unified 4-ladder.

    The state is proportional to (0, -tan t, -tan t, 1) on qubits A (x) B,
    with sin^2 t = (sqrt 5 - 1)/2, where p(0,1|1,4) = (5 sqrt 5 - 11)/2 is
    Hardy's maximum. Outcome 1 of labels 1, 2, 3, 4 projects onto
    (-sin t, cos t) on A, (0, 1) on B, (1, 0) on A and (cos t, sin t) on B,
    or onto the orthogonal vector when the label is flipped; frame i is that
    vector times the other qubit, rank 2, embedded in the first 4
    dimensions. Returns the state and the frames.
    """
    sin2 = (math.sqrt(5.0) - 1.0) / 2.0
    sin, cos = math.sqrt(sin2), math.sqrt(1.0 - sin2)
    psi = normalized([0.0, -sin / cos, -sin / cos, 1.0])
    e = np.eye(2)
    zs = []
    for i, (v, flip) in enumerate(zip([(-sin, cos), (0.0, 1.0), (1.0, 0.0), (cos, sin)],
                                      flips), start=1):
        v = np.array([-v[1], v[0]] if flip else v)
        cols = [np.kron(v, b) if i % 2 == 1 else np.kron(b, v) for b in e]
        zs.append(_embed(np.array(cols), dim).T)
    return psi, zs


@functools.lru_cache(typed=True)
def _chain_start(n: int, dim: int, flips: tuple[bool, ...]) -> QuantumRealization:
    """The exact start for a relabeled unified ladder, built once per
    (n, dim, flips).

    n = 4 uses Hardy's two-qubit realization (``_hardy_start``). Odd n >= 5
    uses the planar chain; even n uses the chain for n - 1 with v_n = v_1,
    since the closing pair needs v_n parallel or orthogonal to v_1 and
    orthogonality kills the required tuple. Frame i of a chain is the
    orthocomplement of v_i when (i odd) XOR flip_i, else v_i itself.
    Returns its realization: the normalized state and the canonical frames,
    validated once here.
    """
    if n == 4:
        psi, zs = _hardy_start(dim, flips)
    else:
        psi, vs = _odd_plane_vectors(n if n % 2 == 1 else n - 1)
        if n % 2 == 0:
            vs[n] = vs[1]
        vecs = _embed(np.array([vs[i] for i in range(1, n + 1)]), dim)
        complement = [(i % 2 == 1) != flips[i - 1] for i in range(1, n + 1)]
        comps = iter(_complement_frames(vecs[complement]))
        zs = [next(comps) if c else v[:, None] for c, v in zip(complement, vecs)]
    # + 0.0 turns each -0.0 entry (from a kron or a flip) into 0.0, since the
    # QR below carries a zero's sign into the serialized frames
    frames = {i: _canonical_frames(z[None] + 0.0)[0] for i, z in enumerate(zs, start=1)}
    return QuantumRealization(dim, normalized(_embed(psi, dim)), frames)


def _canonical_frames(z: np.ndarray) -> np.ndarray:
    """Orthonormalize a stack of frames and fix column phases so serialization
    is stable: each column's first entry above 1e-8 in modulus is made real
    and positive."""
    q, _ = np.linalg.qr(z)
    pivot = np.argmax(np.abs(q) > 1e-8, axis=1)
    top = np.take_along_axis(q, pivot[:, None, :], axis=1)
    # hypot, not np.abs: the vectorized complex abs rounds differently in
    # the last bit, which would change the serialized frames
    return q * np.conj(top / np.hypot(top.real, top.imag))


def _accepted(s: Scenario, target: PossibilisticBehavior, cand: QuantumRealization) -> bool:
    """Whether a candidate passes the search's one acceptance test.

    Its ``behavior_from_realization`` tables must hold every tuple the
    target forbids at <= ``PROB_TOL`` and the required tuple at
    >= ``REQUIRED_MARGIN`` (the target has one: ``_ladder_flips`` reads no
    ladder otherwise); a non-commuting context rejects it. As ``PROB_TOL``
    < ``POSSIBILITY_EPS`` < ``REQUIRED_MARGIN``, a passing candidate's
    support collapse lies within the target and holds the required tuple.
    """
    try:
        b = behavior_from_realization(cand, s)
    except (RealizationError, NoncommutingError):
        return False
    req = target.required
    for c in s.contexts:
        allowed = target.supports[c]
        if any(p > PROB_TOL for t, p in b.tables[c].items() if t not in allowed):
            return False
    return b.tables[req[0]][req[1]] >= REQUIRED_MARGIN


def find_quantum_realization(
    s: Scenario,
    target: PossibilisticBehavior,
    dim: int,
    seed: int = 0,
) -> QuantumRealization | SearchFailure:
    """A realization whose support collapse lies inside the target, or a
    ``SearchFailure`` whose message says why there is none.

    The one candidate is the cached exact start of a relabeled unified
    ladder whose supports lie inside the target's (``_ladder_flips``): the
    qutrit chain for n >= 5 and dim >= 3, Hardy's two-qubit realization for
    n = 4 and dim >= 4. It is returned when it passes the acceptance test on
    its realized behavior: forbidden probabilities <= 1e-10, the required
    probability >= 1e-3 and no non-commuting context, so that its support
    collapse stays inside the target supports and contains the required
    tuple. A commuting-pair realization always has extra zeros beyond the
    target's forbidden list (a commuting rank-1 pair is parallel or
    orthogonal, either of which kills one more tuple per context), so
    containment rather than support equality is the faithful acceptance
    test.

    ``seed`` does not change the result. A smaller n or dim, a target that
    contains no relabeled ladder (an emptied support among them) and a
    rejected start each return a ``SearchFailure`` at once; only the last
    tests a candidate. A ``dim`` that is not an integer raises
    ``RealizationError`` before any work.
    """
    try:
        dim = operator.index(dim)
    except TypeError:
        raise RealizationError(f"dim must be an integer, got {dim!r}") from None
    if target.scenario.contexts != s.contexts:
        raise RealizationError("target does not live on the given scenario")
    if dim < 2:
        raise RealizationError("dimension must be at least 2")
    n = s.n
    if n < 4 or dim < (4 if n == 4 else 3):
        return SearchFailure(f"no exact start for n = {n} in dimension {dim}: the qutrit "
                             "chain needs n >= 5 and dim >= 3, Hardy's start n = 4 and dim >= 4")
    flips = _ladder_flips(target)
    if flips is None:
        return SearchFailure("no exact start: the target contains no relabeled unified ladder")
    cand = _chain_start(n, dim, flips)
    if _accepted(s, target, cand):
        return cand
    return SearchFailure("the exact start of the contained ladder failed the acceptance test")


# --- serialization ----------------------------------------------------------


def _c2pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def realization_to_doc(r: QuantumRealization) -> dict:
    doc: dict = {"dim": r.dim, "state": [_c2pair(z) for z in r.state]}
    if all(r.rank(i) == 1 for i in r.frames):
        doc["vectors"] = {
            str(i): [_c2pair(z) for z in np.asarray(r.frames[i])[:, 0]]
            for i in sorted(r.frames)
        }
    else:
        doc["frames"] = {
            str(i): [[_c2pair(z) for z in np.asarray(r.frames[i])[:, c]]
                     for c in range(r.rank(i))]
            for i in sorted(r.frames)
        }
    return doc


def _complex_entries(where: str, pairs) -> np.ndarray:
    try:
        return np.array([complex(a, b) for a, b in pairs], dtype=complex)
    except (TypeError, ValueError):
        raise RealizationError(f"{where}: every entry must be a pair [re, im] of numbers") from None


def realization_from_doc(doc: Mapping) -> QuantumRealization:
    """Rebuild a realization from the form ``realization_to_doc`` writes.

    A document that is not a mapping or lacks ``dim`` or ``state``, a
    ``dim`` that is not an integer, a document with neither a ``vectors``
    nor a ``frames`` mapping, a label that is not an integer, a ``frames``
    entry that is not a list of columns, an entry that is not a pair of
    numbers or a vector or frame column whose length is not ``dim`` raises
    ``RealizationError``, naming the missing key or the label where there
    is one.
    """
    if not isinstance(doc, Mapping):
        raise RealizationError(f"a realization document must be a mapping, "
                               f"got {type(doc).__name__}")
    for key in ("dim", "state"):
        if key not in doc:
            raise RealizationError(f"a realization document needs a {key!r} entry")
    try:
        dim = operator.index(doc["dim"])
    except TypeError:
        raise RealizationError(f"dim must be an integer, got {doc['dim']!r}") from None
    state = _complex_entries("state", doc["state"])
    frames = {}
    rank_one = "vectors" in doc
    entries = doc.get("vectors" if rank_one else "frames")
    if not isinstance(entries, Mapping):
        raise RealizationError("a realization needs a 'vectors' or 'frames' mapping")
    for key, value in entries.items():
        try:
            label = int(key)
        except (TypeError, ValueError):
            raise RealizationError(f"measurement label {key!r} is not an integer") from None
        if not (rank_one or isinstance(value, list)):
            raise RealizationError(f"measurement {label}: a frame must be a list of columns")
        cols = [_complex_entries(f"measurement {label}", col)
                for col in ([value] if rank_one else value)]
        lengths = sorted({len(col) for col in cols})
        if lengths != [dim]:
            raise RealizationError(f"measurement {label} has columns of length {lengths}, "
                                   f"expected {dim}")
        frames[label] = np.column_stack(cols)
    return QuantumRealization(dim, state, frames)
