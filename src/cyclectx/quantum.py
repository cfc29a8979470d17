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
``oracles`` purely as a cross-check.

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

A ``QuantumRealization`` validates its state and frames (finite,
normalized, orthonormal), keeps a read-only copy of the frames and builds
each outcome projector P_i and 1 - P_i, and the adjoint P_i^dag that the
undo gates apply, from it once, as read-only arrays, for every caller to
share.

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

from .linalg import ALG_TOL, commutator_norm, normalized
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
    # label -> (1 - P_i, P_i, P_i^dag), built once from the validated frames;
    # frames are stored as a read-only copy, so they cannot drift apart
    _outcomes: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 2:
            raise RealizationError("dimension must be at least 2")
        s = np.asarray(self.state, dtype=complex)
        if s.shape != (self.dim,):
            raise RealizationError(f"state must have shape ({self.dim},)")
        if not np.all(np.isfinite(s)):
            raise RealizationError("state has non-finite entries")
        if abs(np.linalg.norm(s) ** 2 - 1.0) > ALG_TOL:
            raise RealizationError("state is not normalized")
        frames, outcomes = {}, {}
        for i, f in self.frames.items():
            f = np.array(f, dtype=complex)
            if f.ndim != 2 or f.shape[0] != self.dim or not 1 <= f.shape[1] <= self.dim:
                raise RealizationError(f"frame {i} has invalid shape {f.shape}")
            if not np.all(np.isfinite(f)):
                raise RealizationError(f"frame {i} has non-finite entries")
            gram = f.conj().T @ f
            if np.linalg.norm(gram - np.eye(f.shape[1])) > ALG_TOL:
                raise RealizationError(f"frame {i} is not orthonormal")
            p = f @ f.conj().T
            q = np.eye(self.dim) - p
            pdag = p.conj().T
            for a in (f, p, q, pdag):
                a.setflags(write=False)
            frames[i], outcomes[i] = f, (q, p, pdag)
        object.__setattr__(self, "frames", MappingProxyType(frames))
        object.__setattr__(self, "_outcomes", outcomes)

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
        return self._outcomes[i][1]

    def adjoint_projector(self, i: int) -> np.ndarray:
        """P_i^dag, exactly ``projector(i).conj().T``; read-only."""
        return self._outcomes[i][2]

    def outcome_projector(self, i: int, outcome: int) -> np.ndarray:
        """P_i for outcome 1, 1 - P_i otherwise; read-only."""
        return self._outcomes[i][1 if outcome == 1 else 0]


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


def born_pair(r: QuantumRealization, i: int, j: int) -> PairDistribution:
    """Joint outcome distribution for the compatible pair (i, j).

    Probabilities come from products of the commuting outcome projectors
    applied to the prepared state, keyed (a_i, a_j) in argument order. A
    pair whose commutator norm exceeds ALG_TOL raises ``NoncommutingError``.
    """
    c = commutator_norm(r.projector(i), r.projector(j))
    if c > ALG_TOL:
        raise NoncommutingError(
            f"measurements {i} and {j} do not commute (norm {c:.3e} > {ALG_TOL:.1e})")
    probs = {}
    for a, b in itertools.product((0, 1), repeat=2):
        v = r.outcome_projector(j, b) @ (r.outcome_projector(i, a) @ r.state)
        probs[(a, b)] = float(np.linalg.norm(v) ** 2)
    return PairDistribution((i, j), probs)


def behavior_from_realization(r: QuantumRealization, s: Scenario) -> Behavior:
    """Fill every context table of the scenario from the realization."""
    tables = {}
    for c in s.contexts:
        if len(c) != 2:
            raise RealizationError("only two-measurement contexts are supported here")
        tables[c] = dict(born_pair(r, c[0], c[1]).probabilities)
    return Behavior(s, tables)


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


@dataclass
class _PenaltyProblem:
    """Residual vector r(x) over (state, frames), with its analytic Jacobian.

    Parameters are packed as a flat real vector: the unnormalized state
    followed by one unconstrained dim x k complex matrix per measurement,
    each split into real and imaginary parts. The frame's projector is
    computed exactly as Z (Z^dag Z)^{-1} Z^dag, which makes the probability
    formulas exact at every iterate without an orthonormality constraint.
    """

    n: int
    dim: int
    ranks: Sequence[int]
    forbidden: Sequence[tuple[tuple[int, int], tuple[int, int]]]
    required: Sequence[tuple[tuple[int, int], tuple[int, int]]]
    contexts: Sequence[tuple[int, int]]
    margin: float = REQUIRED_MARGIN

    def num_params(self) -> int:
        return 2 * self.dim + sum(2 * self.dim * k for k in self.ranks)

    def pack(self, state: np.ndarray, zs: Sequence[np.ndarray]) -> np.ndarray:
        parts = [np.concatenate([state.real, state.imag])]
        for z in zs:
            f = np.asarray(z, dtype=complex).ravel()
            parts.append(np.concatenate([f.real, f.imag]))
        return np.concatenate(parts)

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        d, pos = self.dim, 0

        def take(m):
            nonlocal pos
            v = x[pos:pos + m] + 1j * x[pos + m:pos + 2 * m]
            pos += 2 * m
            return v

        s = take(d)
        zs = [take(d * k).reshape(d, k) for k in self.ranks]
        return s, zs

    def residual(self, x: np.ndarray,
                 jacobian: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
        """r(x) and its Jacobian dr/dx (None when ``jacobian`` is false).

        With psi the normalized state, P_i the projector of frame i and Q
        its outcome projector (P for outcome 1, 1 - P for outcome 0), r
        stacks the real and imaginary parts of Q_b Q_a psi for every
        forbidden tuple (a, b) of context (i, j), then those of [P_i, P_j]
        for every context, then max(0, margin - ||Q_b Q_a psi||^2) for every
        required tuple. r is computed by the same operations either way.
        Raises ``FloatingPointError`` at a degenerate state or frame.
        """
        d, size = self.dim, len(x)
        eye = np.eye(d)
        s, zs = self.unpack(x)
        ns = np.linalg.norm(s)
        if ns < 1e-12:
            raise FloatingPointError("degenerate state")
        psi = s / ns
        # one row per parameter: the derivative of psi, and of each P_i,
        # along that parameter (dP = A + A^dag, A = (1 - P) dZ (Z^dag Z)^{-1} Z^dag)
        if jacobian:
            dpsi = np.concatenate([eye - np.outer(psi.real, psi),
                                   1j * eye - np.outer(psi.imag, psi)]) / ns
        projs, dprojs, spans = [], [], []
        pos = 2 * d
        for z in zs:
            gram = z.conj().T @ z
            if np.linalg.cond(gram) > 1e12:
                raise FloatingPointError("degenerate frame")
            w = np.linalg.solve(gram, z.conj().T).conj().T
            p = w @ z.conj().T
            projs.append(p)
            if jacobian:
                a = np.einsum("xp,yq->pqxy", eye - p, w.conj()).reshape(-1, d, d)
                a = np.concatenate([a, 1j * a])
                dprojs.append(a + a.conj().transpose(0, 2, 1))
                spans.append(slice(pos, pos + len(a)))
                pos += len(a)

        def pair(ctx, ab):
            (i, j), (a, b) = ctx, ab
            qa = projs[i - 1] if a == 1 else eye - projs[i - 1]
            qb = projs[j - 1] if b == 1 else eye - projs[j - 1]
            u = qa @ psi
            v = qb @ u
            if not jacobian:
                return v, None
            dv = np.zeros((size, d), dtype=complex)
            dv[:2 * d] = dpsi @ (qb @ qa).T
            dv[spans[i - 1]] += (1 if a == 1 else -1) * (dprojs[i - 1] @ psi) @ qb.T
            dv[spans[j - 1]] += (1 if b == 1 else -1) * (dprojs[j - 1] @ u)
            return v, dv

        rows, jac = [], []
        for ctx, ab in self.forbidden:
            v, dv = pair(ctx, ab)
            rows += [v.real, v.imag]
            if jacobian:
                jac += [dv.real.T, dv.imag.T]
        for i, j in self.contexts:
            pi, pj = projs[i - 1], projs[j - 1]
            k = pi @ pj - pj @ pi
            rows += [k.real.ravel(), k.imag.ravel()]
            if jacobian:
                dk = np.zeros((size, d, d), dtype=complex)
                dk[spans[i - 1]] += dprojs[i - 1] @ pj - pj @ dprojs[i - 1]
                dk[spans[j - 1]] += pi @ dprojs[j - 1] - dprojs[j - 1] @ pi
                jac += [dk.real.reshape(size, -1).T, dk.imag.reshape(size, -1).T]
        for ctx, ab in self.required:
            v, dv = pair(ctx, ab)
            hinge = self.margin - float(np.vdot(v, v).real)
            rows.append([max(0.0, hinge)])
            if jacobian:
                jac.append((-2.0 * (dv @ v.conj()).real if hinge > 0 else np.zeros(size))[None])
        return np.concatenate(rows), np.concatenate(jac) if jacobian else None

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
    out = np.zeros(dim, dtype=complex)
    out[: len(vec)] = vec
    return out


def _complement_frame(vec: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the orthocomplement of a unit vector."""
    v = _embed(vec, dim)
    proj = np.eye(dim) - np.outer(v, v.conj())
    u, sv, _ = np.linalg.svd(proj)
    return u[:, : dim - 1]


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
    zs = [_complement_frame(vs[i], dim) if (i % 2 == 1) != flips[i - 1]
          else _embed(vs[i], dim).reshape(dim, 1) for i in range(1, n + 1)]
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


def _canonical_frame(z: np.ndarray) -> np.ndarray:
    """Orthonormalize and fix column phases so serialization is stable."""
    q, _ = np.linalg.qr(z)
    q = q[:, : z.shape[1]].copy()
    for c in range(q.shape[1]):
        col = q[:, c]
        pivot = np.argmax(np.abs(col) > 1e-8)
        ph = col[pivot] / abs(col[pivot])
        q[:, c] = col * np.conj(ph)
    return q


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
        state, zs = prob.unpack(x)
        try:
            cand = QuantumRealization(
                dim, normalized(state),
                {i + 1: _canonical_frame(zs[i]) for i in range(n)})
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
