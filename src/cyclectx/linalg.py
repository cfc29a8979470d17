"""Tolerances and the dense complex helper the package shares.

Everything downstream works with plain numpy ``complex128`` arrays in
row-major order: matrices of shape (rows, cols) and state vectors of shape
(dim,).

Two default tolerances are used throughout the package: ALG_TOL for
algebraic identities (unitarity, commutation, normalization) and PROB_TOL
for simulated probabilities. Only ``normalized`` imports numpy, so
``scenario``, which has no numpy, reads its tolerance from here.
"""

from __future__ import annotations

ALG_TOL = 1e-12
PROB_TOL = 1e-10


def normalized(v):
    """``v`` as a flat complex numpy array of norm 1."""
    import numpy as np      # not at module load: scenario imports the tolerances
    s = np.asarray(v, dtype=complex).ravel()
    if not np.all(np.isfinite(s.view(float))):
        raise ValueError("state amplitudes must be finite")
    n = np.linalg.norm(s)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return s / n
