"""A checked dense commutator norm, the tests' reference for the batched
``QuantumRealization.commutator_norms`` and the record-gate certificates."""

import numpy as np


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
