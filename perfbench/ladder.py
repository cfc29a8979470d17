"""Reach ladders: the largest n an operation still finishes under fixed caps.

Each rung runs in its own child process (``run.py --rung KIND --n N``). The
child lowers its own address-space limit to ``MEMORY_CAP_BYTES`` before it
starts the rung; the parent kills it after ``RUNG_SECONDS[KIND]``. A rung that
raises ``MemoryError`` or ``EnumerationLimitError``, or runs out of time,
ends the ladder: that is the frontier, not a failed operation. A rung that
finishes with a wrong answer, or a child that dies without a result, is a
failed operation.

The rungs reach far beyond the frontier at the parent commit (n = 9 for
``paradox_report``, n = 19 for ``is_logically_contextual``), so that a
change that moves the frontier needs no change here.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from cyclectx import ewf, ncycle
from cyclectx.scenario import EnumerationLimitError

import workloads

MEMORY_CAP_BYTES = 2 << 30
PARADOX_RUNGS = tuple(range(9, 22)) + (23, 25)
CONTEXT_RUNGS = (12, 16, 19, 22, 26, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1000)
RUNGS = {"paradox": PARADOX_RUNGS, "contextuality": CONTEXT_RUNGS}
RUNG_SECONDS = {"paradox": 20.0, "contextuality": 8.0}
LADDER_SECONDS = 60.0
FRONTIER_ERRORS = ("MemoryError", "EnumerationLimitError")


def run_rung(kind: str, n: int, seed: int) -> dict:
    """Body of one rung, run inside the capped child process."""
    try:
        if kind == "paradox":
            rep = ewf.paradox_report(workloads.realization_for(n, seed), n,
                                     target=ncycle.unified_ncycle_behavior(n))
            ok = rep.verdict and rep.certificates.passed
            what = f"verdict {rep.verdict}, certificates {rep.certificates.passed}"
        else:
            pb = ncycle.relabel(ncycle.unified_ncycle_behavior(n),
                                workloads.random_mask(n, seed, 3))
            ok, what = workloads.check_contextual(pb, n)
    except (MemoryError, EnumerationLimitError) as exc:
        return {"stop": type(exc).__name__}
    return {"ok": bool(ok), "detail": what}


def climb(kind: str, seed: int, run_py: str, tally) -> dict:
    """Run the ladder in child processes; returns the frontier and each rung."""
    rungs = RUNGS[kind]
    frontier = rungs[0] - 1          # nothing on the ladder finished
    steps = []
    stop = "top of ladder"
    start = time.perf_counter()
    for n in rungs:
        if time.perf_counter() - start > LADDER_SECONDS:
            stop = "ladder time budget"
            break
        cmd = [sys.executable, run_py, "--rung", kind, "--n", str(n), "--seed", str(seed)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=RUNG_SECONDS[kind])
        except subprocess.TimeoutExpired:
            steps.append({"n": n, "result": "timeout"})
            stop = f"timeout at n={n}"
            break
        dt = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except ValueError:
            res = None
        if res is None:
            tally.check(False, f"{kind} rung n={n}: child exited {proc.returncode} "
                               f"without a result: {proc.stderr.strip()[-300:]}")
            steps.append({"n": n, "result": f"crash {proc.returncode}"})
            stop = f"crash at n={n}"
            break
        if res.get("stop") in FRONTIER_ERRORS:
            steps.append({"n": n, "result": res["stop"], "s": dt})
            stop = f"{res['stop']} at n={n}"
            break
        if not tally.check(res["ok"], f"{kind} rung n={n}: {res['detail']}"):
            steps.append({"n": n, "result": "wrong", "s": dt})
            stop = f"wrong answer at n={n}"
            break
        steps.append({"n": n, "result": "ok", "s": dt})
        frontier = n
    return {"frontier": frontier, "stop": stop, "rungs": steps}
