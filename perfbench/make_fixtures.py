"""Generate the frozen realizations the protocol workload runs on.

Each realization of the unified n-cycle behavior comes from
``find_quantum_realization`` (dimension 3 for odd n, 4 for even n, search
seed 1) and is stored with ``realization_to_doc``. The benchmark loads them
with ``realization_from_doc``, so a later change to the search cannot change
the protocol workload's inputs. Regenerate only on purpose, because doing so
changes the benchmark:

    python3 perfbench/make_fixtures.py
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from cyclectx.ncycle import unified_ncycle_behavior  # noqa: E402
from cyclectx.quantum import (  # noqa: E402
    SearchFailure,
    find_quantum_realization,
    realization_to_doc,
)
from cyclectx.scenario import make_cycle_scenario  # noqa: E402

FIXTURE = os.path.join(HERE, "fixtures", "realizations.json")
SEARCH_SEED = 1
SIZES = list(range(5, 22)) + [23, 25]


def main() -> int:
    docs = {}
    for n in SIZES:
        dim = 3 if n % 2 else 4
        t0 = time.perf_counter()
        found = find_quantum_realization(make_cycle_scenario(n), unified_ncycle_behavior(n),
                                         dim, seed=SEARCH_SEED)
        if isinstance(found, SearchFailure):
            print(f"n={n}: search failed: {found.message}", file=sys.stderr)
            return 1
        docs[str(n)] = realization_to_doc(found)
        print(f"n={n} dim={dim}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    write(docs)
    return 0


def write(docs: dict) -> None:
    """One realization per line, so a regenerated fixture diffs by n."""
    rows = [f"{json.dumps(n)}: {json.dumps(d, separators=(',', ':'))}" for n, d in docs.items()]
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        fh.write(f'{{"search_seed": {SEARCH_SEED}, "target": "unified", "realizations": {{\n')
        fh.write(",\n".join(rows))
        fh.write("\n}}\n")


if __name__ == "__main__":
    raise SystemExit(main())
