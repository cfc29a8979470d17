"""The all-pairs no-disturbance check, the tests' reference for
``scenario.check_no_disturbance``, which walks each measurement's contexts."""

import itertools

from cyclectx.linalg import ALG_TOL
from cyclectx.scenario import marginal


def all_pairs_no_disturbance(b) -> bool:
    """Marginals on every context overlap agree entrywise within ALG_TOL,
    checked over all C(n, 2) context pairs."""
    s = b.scenario
    for c1, c2 in itertools.combinations(s.contexts, 2):
        shared = tuple(sorted(set(c1) & set(c2)))
        if not shared:
            continue
        m1 = marginal(b.tables[c1], c1, shared)
        m2 = marginal(b.tables[c2], c2, shared)
        for t in set(m1) | set(m2):
            if abs(m1.get(t, 0.0) - m2.get(t, 0.0)) > ALG_TOL:
                return False
    return True
