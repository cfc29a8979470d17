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
``behavior_from_realization`` share one pass over all requested pairs: one
batched product forms every commutator [P_i, P_j] (the first pair above
ALG_TOL raises), and two stacked products form every amplitude Q_b Q_a psi.

``find_quantum_realization`` searches for a realization of a possibilistic
cycle target by least squares over the state and the frames. One residual
vector r(x) holds every constraint:

    the amplitudes Q_b Q_a psi of each forbidden tuple (a, b) of a context,
    the entries of the commutator [P_i, P_j] of each context,
    the hinge max(0, margin - p(s|C)) of each required tuple,

and ``_PenaltyProblem.residual`` returns it with its analytic Jacobian,
or without it when asked. A Levenberg-Marquardt loop (Gauss-Newton steps
with adaptive damping) minimizes ||r||^2 from each start and renormalizes
the state after every accepted step; each of its iterations counts against
the search budget. Trial points cost r alone, and the Jacobian is built only
at an accepted point from which a step is taken. The loop stops once
||r||^2 <= 1e-30 len(r), every entry at rounding level on average.

A ``QuantumRealization`` validates its state and frames (shape, then
finite, then orthonormal, frame by frame in the caller's order) and keeps a
read-only copy of the frames. From them it builds, once and with one stacked
product per rank, three read-only (n, dim, dim) stacks in sorted-label
order: 1 - P_i, P_i, and the adjoint P_i^dag that the undo gates apply. The
accessors return fixed row views of these stacks, and the certificates take
their operators from them with one fancy index.

The search works on the same stacked form: the residual projects all frames
of one rank with one gram, condition and solve, forms the amplitudes and the
context commutators in stacked products, and an accepted point's frames are
orthonormalized with one QR per rank.

At most one kind of structured start precedes the seeded random restarts.
A target that is an outcome relabeling of the unified ladder, with n >= 5
and dim >= 3, gets one exact chain start: adjacent-orthogonal real vectors
in R^3 (the planar chain for odd n; for even n the chain for n - 1 with
v_n = v_1), each frame the vector or its orthocomplement according to the
label's parity and flip. Its ||r||^2 sits at rounding level, so descent
from it has little or nothing to do. The 4-cycle,
where dim 4 is the minimum and no chain exists, gets two-qubit product
starts ordered by their initial ||r||^2; any other target starts with the
restarts. The residual is never the acceptance signal: every candidate is
re-verified through ``behavior_from_realization`` and
``possibilistic_collapse`` against the target.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .linalg import ALG_TOL, normalized
from .ncycle import FlipMask, relabel, unified_ncycle_behavior
from .scenario import (
    Behavior,
    PossibilisticBehavior,
    Scenario,
    make_cycle_scenario,
    possibilistic_collapse,
    supports_within,
)

# Success thresholds for the realization search.
FORBIDDEN_TOL = 1e-10
COMM_TOL = 1e-8
REQUIRED_MARGIN = 1e-3

MAX_RESTARTS = 50
ITERS_PER_RESTART = 2000


class RealizationError(ValueError):
    """Realization data violates an invariant."""


class NoncommutingError(ValueError):
    """Joint statistics were requested for a non-commuting pair."""


@dataclass(frozen=True)
class QuantumRealization:
    dim: int
    state: np.ndarray                      # (dim,) unit vector
    frames: Mapping[int, np.ndarray]       # label -> (dim, k) orthonormal columns
    # (3, n, dim, dim): 1 - P_i, P_i and P_i^dag stacked in sorted-label
    # order, built once per rank group from the validated frames; frames are
    # stored as a read-only copy, so they cannot drift apart. ``_rows`` maps
    # a label to its row; ``ewf`` reads both for its certificate batch.
    _stacks: np.ndarray = field(init=False, repr=False, compare=False)
    _rows: Mapping[int, int] = field(init=False, repr=False, compare=False)
    # label -> read-only row views (1 - P_i, P_i, P_i^dag) of the stacks
    _views: Mapping[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.dim
        if d < 2:
            raise RealizationError("dimension must be at least 2")
        s = np.asarray(self.state, dtype=complex)
        if s.shape != (d,):
            raise RealizationError(f"state must have shape ({d},)")
        if not np.all(np.isfinite(s)):
            raise RealizationError("state has non-finite entries")
        if abs(np.linalg.norm(s) ** 2 - 1.0) > ALG_TOL:
            raise RealizationError("state is not normalized")
        # each frame's first failing check, in the order shape, finiteness,
        # orthonormality; the first failing frame in the caller's order raises
        failure: dict[int, str] = {}
        groups: dict[int, list[int]] = {}       # rank -> labels, caller order
        given = {}
        for i, f in self.frames.items():
            f = given[i] = np.asarray(f)
            if f.ndim != 2 or f.shape[0] != d or not 1 <= f.shape[1] <= d:
                failure[i] = f"frame {i} has invalid shape {f.shape}"
            else:
                groups.setdefault(f.shape[1], []).append(i)
        labels = sorted(given)
        rows = {i: k for k, i in enumerate(labels)}
        stacks = np.empty((3, len(labels), d, d), dtype=complex)
        frames = {}
        for k, group in groups.items():
            f = np.array([given[i] for i in group], dtype=complex)
            finite = np.isfinite(f).all(axis=(1, 2))
            if not finite.all():
                failure.update((i, f"frame {i} has non-finite entries")
                               for i, ok in zip(group, finite) if not ok)
                group, f = [i for i, ok in zip(group, finite) if ok], f[finite]
            gram = f.conj().transpose(0, 2, 1) @ f
            deviation = np.linalg.norm(gram - np.eye(k), axis=(1, 2))
            failure.update((i, f"frame {i} is not orthonormal")
                           for i, dev in zip(group, deviation) if dev > ALG_TOL)
            if failure:
                continue
            stacks[1, [rows[i] for i in group]] = f @ f.conj().transpose(0, 2, 1)
            f.setflags(write=False)
            frames.update(zip(group, f))
        for i in self.frames:
            if i in failure:
                raise RealizationError(failure[i])
        stacks[0] = np.eye(d) - stacks[1]
        stacks[2] = stacks[1].conj().transpose(0, 2, 1)
        stacks.setflags(write=False)
        q, p, pdag = stacks
        object.__setattr__(self, "frames", MappingProxyType({i: frames[i] for i in self.frames}))
        object.__setattr__(self, "_stacks", stacks)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_views", {i: (q[k], p[k], pdag[k]) for i, k in rows.items()})

    def rank(self, i: int) -> int:
        return int(np.asarray(self.frames[i]).shape[1])

    @property
    def vectors(self) -> dict[int, np.ndarray]:
        """Rank-1 view: one unit vector per measurement. Raises otherwise."""
        if any(self.rank(i) != 1 for i in self.frames):
            raise RealizationError("realization has measurements of rank above 1")
        return {i: np.asarray(self.frames[i], dtype=complex)[:, 0] for i in self.frames}

    def projector(self, i: int) -> np.ndarray:
        """P_i = F F^dag, read-only."""
        return self._views[i][1]

    def adjoint_projector(self, i: int) -> np.ndarray:
        """P_i^dag, exactly ``projector(i).conj().T``; read-only."""
        return self._views[i][2]

    def outcome_projector(self, i: int, outcome: int) -> np.ndarray:
        """P_i for outcome 1, 1 - P_i otherwise; read-only."""
        return self._views[i][1 if outcome == 1 else 0]


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
        if abs(total - 1.0) > 1e-12:
            raise RealizationError(f"pair distribution sums to {total}")
        object.__setattr__(self, "probabilities", probs)

    def __getitem__(self, t: tuple[int, int]) -> float:
        return self.probabilities[t]


def kcbs_realization() -> QuantumRealization:
    """The qutrit pentagon realization of the 5-cycle behavior.

    State (1,1,1)/sqrt(3) and five unit vectors with every cyclically
    adjacent pair orthogonal; outcome 1 of measurement i projects onto
    vector i.
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


def _pair_distributions(r: QuantumRealization,
                        pairs: Sequence[tuple[int, int]]) -> list[PairDistribution]:
    """Joint outcome distributions of compatible pairs, all in one pass.

    Every commutator [P_i, P_j] is formed in one batched product; the first
    pair in the given order whose norm exceeds ALG_TOL raises
    ``NoncommutingError``. The amplitudes Q_b Q_a psi of all pairs then take
    two stacked products, and each probability is ||Q_b Q_a psi||^2, rounded
    as the square of the norm.
    """
    i = [r._rows[a] for a, _ in pairs]
    j = [r._rows[b] for _, b in pairs]
    pi, pj = r._stacks[1, i], r._stacks[1, j]
    norms = np.linalg.norm(pi @ pj - pj @ pi, axis=(1, 2))
    bad = np.flatnonzero(norms > ALG_TOL)
    if len(bad):
        (a, b), c = pairs[bad[0]], norms[bad[0]]
        raise NoncommutingError(
            f"measurements {a} and {b} do not commute (norm {c:.3e} > {ALG_TOL:.1e})")
    u = r._stacks[:2, i] @ r.state                          # [a, pair]
    v = r._stacks[None, :2, j] @ u[:, None, :, :, None]     # [a, b, pair]
    norm2 = np.add.reduce(v.real * v.real, 3) + np.add.reduce(v.imag * v.imag, 3)
    probs = (np.sqrt(norm2[..., 0]) ** 2).transpose(2, 0, 1).tolist()
    return [PairDistribution(pair, {(0, 0): p0[0], (0, 1): p0[1], (1, 0): p1[0], (1, 1): p1[1]})
            for pair, (p0, p1) in zip(pairs, probs)]


def born_pair(r: QuantumRealization, i: int, j: int) -> PairDistribution:
    """Joint outcome distribution for the compatible pair (i, j).

    Probabilities come from products of the commuting outcome projectors
    applied to the prepared state, keyed (a_i, a_j) in argument order. A
    pair whose commutator norm exceeds ALG_TOL raises ``NoncommutingError``.
    """
    return _pair_distributions(r, [(i, j)])[0]


def behavior_from_realization(r: QuantumRealization, s: Scenario) -> Behavior:
    """Fill every context table of the scenario from the realization."""
    if any(len(c) != 2 for c in s.contexts):
        raise RealizationError("only two-measurement contexts are supported here")
    dists = _pair_distributions(r, s.contexts)
    return Behavior(s, {c: dict(d.probabilities) for c, d in zip(s.contexts, dists)})


# --- realization search -----------------------------------------------------


@dataclass(frozen=True)
class SearchFailure:
    """A search that ended without a verified realization.

    ``best_objective`` is ||r||^2 of the best start and the three measures
    are read from that start's residual (``required_min`` is capped at the
    margin). ``iterations_used`` counts Levenberg-Marquardt iterations.
    """

    best_objective: float
    forbidden_max: float
    commutator_max: float
    required_min: float
    iterations_used: int
    attempts: int
    message: str


def _projectors(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P = Z (Z^dag Z)^{-1} Z^dag of each frame in a stack of equal rank, and
    W = Z (Z^dag Z)^{-1}, from one stacked gram, condition and solve.

    Raises ``FloatingPointError`` when some gram matrix is near-singular.
    """
    zh = z.conj().transpose(0, 2, 1)
    gram = zh @ z
    if np.any(np.linalg.cond(gram) > 1e12):
        raise FloatingPointError("degenerate frame")
    w = np.linalg.solve(gram, zh).conj().transpose(0, 2, 1)
    return w @ zh, w


@dataclass
class _PenaltyProblem:
    """Residual vector r(x) over (state, frames), with its analytic Jacobian.

    Parameters are packed as a flat real vector: the unnormalized state
    followed by one unconstrained dim x k complex matrix per measurement,
    each split into real and imaginary parts. The frame's projector is
    computed exactly as Z (Z^dag Z)^{-1} Z^dag, which makes the probability
    formulas exact at every iterate without an orthonormality constraint.
    Frames of equal rank are read from x and projected as one stack.
    """

    n: int
    dim: int
    ranks: Sequence[int]
    forbidden: Sequence[tuple[tuple[int, int], tuple[int, int]]]
    required: Sequence[tuple[tuple[int, int], tuple[int, int]]]
    contexts: Sequence[tuple[int, int]]
    margin: float = REQUIRED_MARGIN
    # label - 1 -> the slice of x holding its frame
    _spans: list[slice] = field(init=False, repr=False, compare=False)
    # per rank: the labels - 1 and the positions in x of the real and
    # imaginary parts of their frames, shaped (labels, dim, rank)
    _groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        init=False, repr=False, compare=False)
    # (i, j, a, b) of the forbidden tuples and then the required ones, and
    # (i, j) of the contexts, as index arrays with labels - 1
    _tuples: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    _contexts: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d, pos, starts = self.dim, 2 * self.dim, []
        for k in self.ranks:
            starts.append(pos)
            pos += 2 * d * k
        self._spans = [slice(a, a + 2 * d * k) for a, k in zip(starts, self.ranks)]
        by_rank: dict[int, list[int]] = {}
        for label, k in enumerate(self.ranks):
            by_rank.setdefault(k, []).append(label)
        self._groups = []
        for k, labels in by_rank.items():
            re = (np.array([starts[i] for i in labels])[:, None] + np.arange(d * k)).reshape(-1, d, k)
            self._groups.append((np.array(labels), re, re + d * k))
        tuples = [(i - 1, j - 1, a, b) for (i, j), (a, b) in (*self.forbidden, *self.required)]
        self._tuples = tuple(np.array(tuples, dtype=np.intp).reshape(-1, 4).T)
        self._contexts = tuple(np.array(self.contexts, dtype=np.intp).reshape(-1, 2).T - 1)

    def num_params(self) -> int:
        return 2 * self.dim + sum(2 * self.dim * k for k in self.ranks)

    def pack(self, state: np.ndarray, zs: Sequence[np.ndarray]) -> np.ndarray:
        parts = [np.concatenate([state.real, state.imag])]
        for z in zs:
            f = np.asarray(z, dtype=complex).ravel()
            parts.append(np.concatenate([f.real, f.imag]))
        return np.concatenate(parts)

    def frame_stacks(self, x: np.ndarray) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """The raw state and, per rank, the labels - 1 with their stacked frames."""
        d = self.dim
        s = x[:d] + 1j * x[d:2 * d]
        return s, [(labels, x[re] + 1j * x[im]) for labels, re, im in self._groups]

    def residual(self, x: np.ndarray,
                 jacobian: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
        """r(x) and its Jacobian dr/dx (None when ``jacobian`` is false).

        With psi the normalized state, P_i the projector of frame i and Q
        its outcome projector (P for outcome 1, 1 - P for outcome 0), r
        stacks the real and imaginary parts of Q_b Q_a psi for every
        forbidden tuple (a, b) of context (i, j), then those of [P_i, P_j]
        for every context, then max(0, margin - ||Q_b Q_a psi||^2) for every
        required tuple. The projectors of each rank, the amplitudes and the
        commutators are each formed in stacked products, r from them either
        way, and the Jacobian rows read the same stacked values. Raises
        ``FloatingPointError`` at a degenerate state or frame.
        """
        d, size = self.dim, len(x)
        eye = np.eye(d)
        s, groups = self.frame_stacks(x)
        ns = np.linalg.norm(s)
        if ns < 1e-12:
            raise FloatingPointError("degenerate state")
        psi = s / ns
        projs = np.empty((self.n, d, d), dtype=complex)
        # per label, the derivative of P_i along each of its parameters
        # (dP = A + A^dag, A = (1 - P) dZ (Z^dag Z)^{-1} Z^dag)
        dprojs: list[np.ndarray] = [None] * self.n
        for labels, z in groups:
            p, w = _projectors(z)
            projs[labels] = p
            if jacobian:
                a = np.einsum("mxp,myq->mpqxy", eye - p, w.conj()).reshape(len(labels), -1, d, d)
                a = np.concatenate([a, 1j * a], axis=1)
                dprojs_k = a + a.conj().transpose(0, 1, 3, 2)
                for label, dp in zip(labels, dprojs_k):
                    dprojs[label] = dp

        ti, tj, ta, tb = self._tuples
        outcome = np.stack([eye - projs, projs])
        qa, qb = outcome[ta, ti], outcome[tb, tj]
        u = qa @ psi
        v = (qb @ u[..., None])[..., 0]
        ci, cj = self._contexts
        pi, pj = projs[ci], projs[cj]
        comm = pi @ pj - pj @ pi
        nf, nc = len(self.forbidden), len(ci)
        hinges = [self.margin - float(np.vdot(vt, vt).real) for vt in v[nf:]]
        r = np.concatenate([
            np.concatenate([v[:nf].real, v[:nf].imag], axis=1).ravel(),
            np.concatenate([comm.real.reshape(nc, d * d), comm.imag.reshape(nc, d * d)],
                           axis=1).ravel(),
            [max(0.0, h) for h in hinges]])
        if not jacobian:
            return r, None

        # one row per parameter: the derivative of psi, and of each amplitude
        dpsi = np.concatenate([eye - np.outer(psi.real, psi),
                               1j * eye - np.outer(psi.imag, psi)]) / ns
        dv_psi = dpsi @ (qb @ qa).transpose(0, 2, 1)
        forb, req = [], []
        for t, (i, j, a, b) in enumerate(zip(ti, tj, ta, tb)):
            dv = np.zeros((size, d), dtype=complex)
            dv[:2 * d] = dv_psi[t]
            dv[self._spans[i]] += (1 if a == 1 else -1) * (dprojs[i] @ psi) @ qb[t].T
            dv[self._spans[j]] += (1 if b == 1 else -1) * (dprojs[j] @ u[t])
            if t < nf:
                forb += [dv.real.T, dv.imag.T]
            else:
                hinge = hinges[t - nf]
                req.append((-2.0 * (dv @ v[t].conj()).real if hinge > 0 else np.zeros(size))[None])
        comms = []
        for i, j, p_i, p_j in zip(ci, cj, pi, pj):
            dk = np.zeros((size, d, d), dtype=complex)
            dk[self._spans[i]] += dprojs[i] @ p_j - p_j @ dprojs[i]
            dk[self._spans[j]] += p_i @ dprojs[j] - dprojs[j] @ p_i
            comms += [dk.real.reshape(size, -1).T, dk.imag.reshape(size, -1).T]
        return r, np.concatenate(forb + comms + req)

    def measures(self, r: np.ndarray) -> tuple[float, float, float]:
        """(fmax, cmax, rmin) read from a residual vector.

        fmax is the largest forbidden probability, cmax the largest context
        commutator norm and rmin the smallest required probability, capped
        at the margin (1.0 when nothing is required).
        """
        d, nf, nc = self.dim, len(self.forbidden), len(self.contexts)
        split = 2 * d * nf
        forb = r[:split].reshape(nf, 2 * d)
        comm = r[split:split + 2 * d * d * nc].reshape(nc, 2 * d * d)
        hinge = r[split + 2 * d * d * nc:]
        fmax = float(np.max(np.sum(forb * forb, axis=1), initial=0.0))
        cmax = float(np.sqrt(np.max(np.sum(comm * comm, axis=1), initial=0.0)))
        rmin = self.margin - float(np.max(hinge)) if len(hinge) else 1.0
        return fmax, cmax, rmin


def _levenberg_marquardt(prob: _PenaltyProblem, x0: np.ndarray, max_iters: int):
    """Minimize ||r||^2 by Gauss-Newton steps with adaptive damping.

    Every trial step, accepted or rejected, is one iteration. Each trial
    point's raw state is renormalized before it is evaluated, so every
    accepted point carries a unit state. Trial points cost r alone; the
    Jacobian is built only at an accepted point from which a step is taken,
    so a start that is already converged never builds one. The loop stops
    once ||r||^2 falls to 1e-30 len(r) (every entry at rounding level),
    after ``max_iters`` iterations, or after 30 iterations in a row that do
    not cut ||r||^2 by a tenth. Returns (point, residual, log of accepted
    ||r||^2 values, iterations); the log is non-increasing by construction
    and the residual is None when the start itself is degenerate.
    """
    d = prob.dim
    x = x0.copy()
    try:
        r, _ = prob.residual(x, jacobian=False)
    except FloatingPointError:
        return x, None, [np.inf], 0
    val = float(r @ r)
    log = [val]
    floor = 1e-30 * len(r)
    jac = None
    lam, ref, stale, it = 1e-3, val, 0, 0
    while it < max_iters and val > floor and stale < 30:
        if jac is None:
            _, jac = prob.residual(x)
        it += 1
        grad = jac.T @ r
        step = np.linalg.solve(jac.T @ jac + lam * np.eye(len(x)), -grad)
        xn = x + step
        xn[:2 * d] /= max(np.linalg.norm(xn[:2 * d]), 1e-300)
        try:
            rn, _ = prob.residual(xn, jacobian=False)
            vn = float(rn @ rn)
        except FloatingPointError:
            vn = np.inf
        if vn < val:
            x, r, jac, val = xn, rn, None, vn
            log.append(val)
            # the floor keeps the solve regular along the directions that
            # leave r unchanged (state scale, frame gauge Z -> Z M)
            lam = max(lam / 3.0, 1e-12)
        else:
            lam *= 4.0
        if val < 0.9 * ref:
            ref, stale = val, 0
        else:
            stale += 1
    return x, r, log, it


# --- structured starting points ---------------------------------------------


def _odd_plane_vectors(n: int) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Adjacent-orthogonal unit vectors in R^3 for an odd cycle.

    Vectors 2k and 2k+1 form an orthonormal basis of a plane through the
    state, which pins the alternating joint zeros; vector 1 is normal to its
    two neighbors. A small deterministic parameter grid, evaluated as one
    array computation, picks the variant with the largest overlap between
    vector 1 and the state.
    """
    assert n % 2 == 1 and n >= 5
    half = (n - 1) // 2
    psi = np.array([0.0, 0.0, 1.0])
    # one row per grid point (theta0, delta), theta0-major
    theta0, delta = (g.ravel() for g in np.meshgrid(
        np.linspace(0.3, 1.2, 10), np.linspace(1.0, 2.8, 10), indexing="ij"))
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
    """Per-label outcome flips that carry the unified ladder onto the target.

    The unified ladder forbids (0, 1) on every context (i, i+1), so a flip of
    label i shows in the first slot of that context's one forbidden tuple
    and a flip of i+1 in the second. Returns None unless the target equals
    ``relabel(unified_ncycle_behavior(n), mask)`` for the flips so read,
    required tuple included.
    """
    s = target.scenario
    n = s.n
    if s != make_cycle_scenario(n):
        return None
    forbidden = []
    for i in range(1, n):
        missing = set(s.tuples((i, i + 1))) - target.supports[(i, i + 1)]
        if len(missing) != 1:
            return None
        forbidden.append(missing.pop())
    flips = tuple(a == 1 for a, _ in forbidden) + (forbidden[-1][1] == 0,)
    ladder = relabel(unified_ncycle_behavior(n), FlipMask(dict(enumerate(flips, start=1))))
    if ladder != target or ladder.required != target.required:
        return None
    return flips


def _chain_start(prob: _PenaltyProblem, n: int, dim: int,
                 flips: Sequence[bool]) -> tuple[tuple[int, ...], np.ndarray]:
    """The exact adjacent-orthogonal chain start for a relabeled unified ladder.

    Odd n uses the planar chain; even n uses the chain for n - 1 with
    v_n = v_1, since the closing pair needs v_n parallel or orthogonal to
    v_1 and orthogonality kills the required tuple. Frame i is the
    orthocomplement of v_i when (i odd) XOR flip_i, else v_i itself.
    """
    psi, vs = _odd_plane_vectors(n if n % 2 == 1 else n - 1)
    if n % 2 == 0:
        vs[n] = vs[1]
    vecs = _embed(np.array([vs[i] for i in range(1, n + 1)]), dim)
    complement = [(i % 2 == 1) != flips[i - 1] for i in range(1, n + 1)]
    comps = iter(_complement_frames(vecs[complement]))
    zs = [next(comps) if c else v[:, None] for c, v in zip(complement, vecs)]
    return tuple(z.shape[1] for z in zs), prob.pack(_embed(psi, dim), zs)


def _two_qubit_starts(prob: _PenaltyProblem, dim: int, seed: int):
    """Random two-qubit product starts for the 4-cycle, best ||r||^2 first.

    Odd labels act on the first qubit and even labels on the second, all
    embedded in the first four dimensions.
    """
    rng = np.random.default_rng([abs(seed), 2])
    e = np.eye(2, dtype=complex)
    scored = []
    for _ in range(6):
        zs = []
        for i in range(1, prob.n + 1):
            q = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            q /= np.linalg.norm(q)
            cols = ([np.kron(q, e[:, 0]), np.kron(q, e[:, 1])] if i % 2 == 1
                    else [np.kron(e[:, 0], q), np.kron(e[:, 1], q)])
            zs.append(np.column_stack([_embed(c, dim) for c in cols]))
        sr = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        ranks = tuple([2] * prob.n)
        x0 = prob.pack(_embed(sr / np.linalg.norm(sr), dim), zs)
        try:
            r, _ = replace(prob, ranks=ranks).residual(x0, jacobian=False)
            val = float(r @ r)
        except FloatingPointError:
            val = np.inf
        scored.append((val, ranks, x0))
    scored.sort(key=lambda t: t[0])
    return [(ranks, x0) for _, ranks, x0 in scored]


def _candidate_starts(prob: _PenaltyProblem, target: PossibilisticBehavior,
                      dim: int, seed: int):
    """One structured start when there is one, then seeded random restarts.

    Yields (ranks, x0) pairs. A relabeled unified ladder with n >= 5 in
    dim >= 3 gets the exact chain start; the 4-cycle in dim >= 4 gets the
    two-qubit product starts; any other target starts with the restarts.
    """
    n = prob.n
    flips = _ladder_flips(target) if n >= 5 and dim >= 3 else None
    if flips is not None:
        yield _chain_start(prob, n, dim, flips)
    elif n == 4 and dim >= 4:
        yield from _two_qubit_starts(prob, dim, seed)

    # random restarts over a small set of rank patterns
    patterns: list[tuple[int, ...]] = [tuple([1] * n)]
    if dim >= 3:
        patterns.append(tuple(dim - 1 if i % 2 == 1 else 1 for i in range(1, n + 1)))
    if dim >= 4:
        patterns.append(tuple([dim // 2] * n))
    for k in itertools.count():
        ranks = patterns[k % len(patterns)]
        rng = np.random.default_rng([abs(seed), 3, k])
        state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        zs = [rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
              for r in ranks]
        yield ranks, prob.pack(state / np.linalg.norm(state), zs)


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


def find_quantum_realization(
    s: Scenario,
    target: PossibilisticBehavior,
    dim: int,
    seed: int = 0,
    budget: int = MAX_RESTARTS * ITERS_PER_RESTART,
) -> QuantumRealization | SearchFailure:
    """Search for a realization whose support collapse matches the target.

    The forbidden set is the complement of the target supports; the
    required-possible set is the target's annotated required tuple when
    present. Success demands forbidden probabilities <= 1e-10, context
    commutators <= 1e-8 and required probabilities >= 1e-3, and is then
    re-verified: the collapse of the realized behavior must stay inside the
    target supports and contain the required tuple. A commuting-pair
    realization always has extra zeros beyond the target's forbidden list
    (a commuting rank-1 pair is parallel or orthogonal, either of which
    kills one more tuple per context), so containment rather than support
    equality is the faithful acceptance test.

    Budget counts Levenberg-Marquardt iterations across restarts, at most
    ``ITERS_PER_RESTART`` per start; on exhaustion a ``SearchFailure`` is
    returned whose ``best_objective`` is ||r||^2 of the best start.
    """
    if target.scenario.contexts != s.contexts:
        raise RealizationError("target does not live on the given scenario")
    if dim < 2:
        raise RealizationError("dimension must be at least 2")
    n = s.n
    for c in s.contexts:
        if not target.supports[c]:
            return SearchFailure(np.inf, np.inf, np.inf, 0.0, 0, 0,
                                 f"infeasible target: context {c} forbids every outcome")

    forbidden = []
    for c in s.contexts:
        for t in s.tuples(c):
            if t not in target.supports[c]:
                forbidden.append((c, t))
    required = [target.required] if target.required is not None else []
    base = _PenaltyProblem(n, dim, tuple([1] * n), tuple(forbidden),
                           tuple(required), tuple(s.contexts))

    best = (np.inf, np.inf, np.inf, 0.0)
    used = 0
    attempts = 0
    for ranks, x0 in _candidate_starts(base, target, dim, seed):
        if used >= budget or attempts >= MAX_RESTARTS:
            break
        attempts += 1
        prob = replace(base, ranks=ranks)
        iters = min(ITERS_PER_RESTART, budget - used)
        x, r, _log, it = _levenberg_marquardt(prob, x0, iters)
        used += max(it, 1)
        if r is None:
            continue
        val = float(r @ r)
        fmax, cmax, rmin = prob.measures(r)
        if val < best[0]:
            best = (val, fmax, cmax, rmin)
        if fmax > FORBIDDEN_TOL or cmax > COMM_TOL or rmin < REQUIRED_MARGIN:
            continue
        state, groups = prob.frame_stacks(x)
        frames = {}
        for labels, z in groups:
            frames.update(zip(labels.tolist(), _canonical_frames(z)))
        try:
            cand = QuantumRealization(dim, normalized(state),
                                      {i + 1: frames[i] for i in range(n)})
            collapse = possibilistic_collapse(behavior_from_realization(cand, s))
        except (RealizationError, NoncommutingError):
            continue
        if not supports_within(collapse, target):
            continue
        if target.required is not None and not collapse.possible(*target.required):
            continue
        return cand
    return SearchFailure(best[0], best[1], best[2], best[3], used, attempts,
                         "budget exhausted without a verified realization")


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


def realization_from_doc(doc: Mapping) -> QuantumRealization:
    dim = int(doc["dim"])
    state = np.array([complex(a, b) for a, b in doc["state"]])
    frames = {}
    if "vectors" in doc:
        for k, vec in doc["vectors"].items():
            frames[int(k)] = np.array([complex(a, b) for a, b in vec]).reshape(dim, 1)
    else:
        for k, cols in doc["frames"].items():
            frames[int(k)] = np.column_stack(
                [np.array([complex(a, b) for a, b in col]) for col in cols])
    return QuantumRealization(dim, state, frames)
