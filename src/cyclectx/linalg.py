"""Tolerances and the few dense complex helpers the package shares.

Everything downstream works with plain numpy ``complex128`` arrays in
row-major order: matrices of shape (rows, cols) and state vectors of shape
(dim,).

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
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def commutator_norm(a, b) -> float:
    """Frobenius norm of ab - ba for equal-dimension square matrices."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape[0] != ma.shape[1] or mb.shape[0] != mb.shape[1]:
        raise ShapeError("commutator requires square matrices")
    if ma.shape != mb.shape:
        raise ShapeError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return float(np.linalg.norm(ma @ mb - mb @ ma))


def normalized(v) -> np.ndarray:
    s = np.asarray(v, dtype=complex).ravel()
    if not np.all(np.isfinite(s.view(float))):
        raise ValueError("state amplitudes must be finite")
    n = np.linalg.norm(s)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return s / n
