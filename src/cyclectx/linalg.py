"""Minimal dense complex linear algebra.

Everything downstream works with plain numpy ``complex128`` arrays in
row-major order: matrices of shape (rows, cols) and state vectors of shape
(dim,). Hilbert spaces stay small (at most a qudit times a dozen qubits), so
dense arithmetic is exact enough and trivially reproducible.

Two default tolerances are used throughout the package: ALG_TOL for
algebraic identities (unitarity, commutation, normalization) and PROB_TOL
for simulated probabilities.
"""

from __future__ import annotations

import numpy as np

ALG_TOL = 1e-12
PROB_TOL = 1e-10


class ShapeError(ValueError):
    """Operands have incompatible or invalid shapes."""


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix entries must be finite")
    return m


def as_state(v) -> np.ndarray:
    s = np.asarray(v, dtype=complex).ravel()
    if not np.all(np.isfinite(s.view(float))):
        raise ValueError("state amplitudes must be finite")
    return s


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(np.asarray(a, dtype=complex), -1, -2))


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def kron(a, b) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(as_matrix(a), as_matrix(b))


def is_unitary(u, tol: float = ALG_TOL) -> bool:
    """True iff ||u^dag u - 1||_F <= tol. Raises ShapeError off square input."""
    m = as_matrix(u)
    r, c = m.shape
    if r != c:
        raise ShapeError(f"unitarity is only defined for square matrices, got {r}x{c}")
    return frobenius(dagger(m) @ m - np.eye(r)) <= tol


def commutator_norm(a, b) -> float:
    """Frobenius norm of ab - ba for equal-dimension square matrices."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape[0] != ma.shape[1] or mb.shape[0] != mb.shape[1]:
        raise ShapeError("commutator requires square matrices")
    if ma.shape != mb.shape:
        raise ShapeError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return frobenius(ma @ mb - mb @ ma)


def normalized(v) -> np.ndarray:
    s = as_state(v)
    n = np.linalg.norm(s)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return s / n

