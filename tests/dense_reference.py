"""A branch stage scattered into the dense layout, for comparing a trace with
``oracles.dense_simulate`` and with dense gate products."""

import numpy as np


def dense_stage(b, n) -> np.ndarray:
    """``sum_f v_f (x) |f>`` as the flat d 2^n vector, system index slowest."""
    dense = np.zeros((b.values.shape[1], 2 ** n), dtype=complex)
    dense[:, list(b.keys)] = b.values.T
    return dense.reshape(-1)


def dense_stages(trace) -> list[np.ndarray]:
    """Every stage of a trace in the dense layout, index 0 = initial."""
    return [dense_stage(b, trace.protocol.n) for b in trace.stages]
