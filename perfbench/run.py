"""The cyclectx benchmark: three workloads, measured end to end or traced.

    python3 perfbench/run.py --workload verify|protocol|contextuality \\
        --seed N --seconds S --trace 0|1 [--budget B]

Run it from the root of a checkout; the library is imported from ``src/``.
One process runs one workload as a closed loop: the next sweep starts when
the previous one has finished, with BLAS pinned to one thread. Without
tracing it prints the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced sweeps and prints the per-layer metrics. The last line
of standard output is the result as JSON; the exit code is 1 when any gated
operation failed. ``--budget`` is passed to ``verify-all`` (``--budget 1``
makes its even-n searches fail, which the gates must report). A full run
record, and the spans of a traced run, go to ``.perfbench/``. See
``perfbench/README.md`` for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_PROBES = 5
MIN_SWEEPS = 2
LADDERS = {"verify": (), "protocol": ("paradox",), "contextuality": ("contextuality",)}
MAX_N_METRIC = {"paradox": "ewf.paradox_report.max_n",
                "contextuality": "scenario.is_logically_contextual.max_n"}


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "cyclectx", "__init__.py")):
        print(f"perfbench: no cyclectx sources under {SRC}; run from a checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import cyclectx
    if os.path.dirname(os.path.abspath(cyclectx.__file__)) != os.path.join(SRC, "cyclectx"):
        print(f"perfbench: imported cyclectx from {cyclectx.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def _parse(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", choices=tuple(LADDERS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget", type=int, default=None)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--rung", choices=("paradox", "contextuality"), help=argparse.SUPPRESS)
    ap.add_argument("--n", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.rung is None and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def _spread(xs):
    return f"n={len(xs)}, min {min(xs):.4g}, max {max(xs):.4g}"


def _probe_setup(args, tally) -> float:
    """Wall time of a fresh interpreter that imports and builds the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    dt = time.perf_counter() - t0
    tally.check(proc.returncode == 0,
                f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return dt


def _sweep_total(stage_times: dict) -> float:
    return sum(stage_times.values())


def main(argv=None) -> int:
    args = _parse(argv)
    _import_library()
    if args.rung is not None:
        from ladder import MEMORY_CAP_BYTES, run_rung
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
        print(json.dumps(run_rung(args.rung, args.n, args.seed)))
        return 0
    import numpy
    import ladder
    import tracing
    from workloads import WORKLOADS, Tally, Verify

    def build():
        if args.workload == "verify":
            return Verify(args.budget)
        return WORKLOADS[args.workload](args.seed)

    if args.setup_probe:
        build()
        return 0

    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "budget": args.budget, "nproc": os.cpu_count(),
              "blas_threads": BLAS_THREADS, "python": platform.python_version(),
              "numpy": numpy.__version__, "memory_cap_bytes": ladder.MEMORY_CAP_BYTES,
              "rung_seconds": ladder.RUNG_SECONDS}
    setup = [] if args.trace else [_probe_setup(args, tally) for _ in range(SETUP_PROBES)]
    wl = build()
    ladders = {kind: ladder.climb(kind, args.seed, os.path.abspath(__file__), tally)
               for kind in LADDERS[args.workload]}

    plain: list[dict] = []
    traced: list[dict] = []
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        plain.append(wl.sweep(tally))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(wl.sweep(tally))
            finally:
                tracer.uninstall()
        if len(plain) >= (1 if tracer else MIN_SWEEPS) and \
                time.perf_counter() - start >= args.seconds:
            break

    lines = [f"run record: {json.dumps(record)}"]
    for kind, lad in ladders.items():
        lines.append(f"{kind}_max_n: {lad['frontier']} count (stopped by {lad['stop']}; "
                     f"rungs {json.dumps(lad['rungs'])})")
    if tracer is None:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        totals = [_sweep_total(s) for s in plain]
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   "sweep_s": (statistics.median(totals), "s"),
                   "peak_rss_mb": (peak_mb, "MB")}
        lines.append(f"setup_s: {metrics['setup_s'][0]:.4f} s median ({_spread(setup)})")
        for stage in wl.stages:
            xs = [s[stage] for s in plain]
            lines.append(f"{stage}: {statistics.median(xs):.4f} s median ({_spread(xs)})")
        lines.append(f"sweep_s: {metrics['sweep_s'][0]:.4f} s median ({_spread(totals)})")
        lines.append(f"peak_rss_mb: {peak_mb:.1f} MB (max RSS of this process, n=1)")
    else:
        overhead = (statistics.median(_sweep_total(s) for s in traced)
                    / statistics.median(_sweep_total(s) for s in plain))
        metrics = tracing.layer_metrics(tracer, len(traced))
        metrics["trace_overhead"] = (overhead, "ratio")
        for kind, name in MAX_N_METRIC.items():
            metrics[name] = (ladders[kind]["frontier"] if kind in ladders else 0, "count")
        lines.append(f"traced sweeps: {len(traced)}, untraced sweeps: {len(plain)}")
        for name, (value, unit) in metrics.items():
            lines.append(f"{name}: {value:.6g} {unit}")
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    lines.append(f"error_rate: {rate:.4g} ({tally.failed} failed of {tally.attempted} attempted)")
    lines.extend(f"FAILED: {what}" for what in tally.failures)
    print("\n".join(lines))

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**record, "setup_samples": setup, "sweeps": plain, "traced_sweeps": traced,
                   "ladders": ladders, "failures": tally.failures}, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")

    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
