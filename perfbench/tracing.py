"""Runtime spans around the library's public functions, installed from outside.

``Tracer.install`` replaces every public function of the traced modules, in
every traced namespace that holds it (the defining module, the modules that
re-import it, and the package), with a wrapper. A span records its name,
start, end and parent span; spans stay in memory until ``write``. Leaf
helpers that run inside the search's inner loop (all of ``linalg``, and
generator functions, whose body runs after the call returns) are counted
but get no span, so they cost little and their time stays with the caller.

Two functions carry extra tags: ``quantum.find_quantum_realization`` records
the cycle length and whether it returned a realization, and
``ewf.commutation_certificates`` records its tracemalloc peak.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc
from collections import Counter

from cyclectx.quantum import QuantumRealization

PACKAGE = "cyclectx"
MODULES = ("cli", "quantum", "ewf", "scenario", "ncycle", "oracles", "linalg", "jsonio")
COUNT_ONLY_MODULES = ("linalg",)
SEARCH = "quantum.find_quantum_realization"
CERTIFICATES = "ewf.commutation_certificates"


class Span:
    __slots__ = ("name", "parent", "start", "end", "tags")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.tags = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------------

    def _namespaces(self):
        pkg = importlib.import_module(PACKAGE)
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        return pkg, mods

    def install(self) -> None:
        pkg, mods = self._namespaces()
        wrappers = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if short in COUNT_ONLY_MODULES or inspect.isgeneratorfunction(fn):
                    wrappers[id(fn)] = self._counter(name, fn)
                else:
                    wrappers[id(fn)] = self._spanner(name, fn)
        for ns in [pkg, *mods.values()]:
            for attr, obj in list(vars(ns).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, w)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # --- wrappers -----------------------------------------------------------

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanner(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        tagger = _TAGGERS.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(spans)
            span = Span(name, stack[-1] if stack else -1, clock())
            spans.append(span)
            stack.append(idx)
            ctx = tagger.enter(args, kwargs) if tagger else None
            try:
                result = fn(*args, **kwargs)
                if tagger:
                    span.tags = tagger.leave(ctx, result)
                return result
            finally:
                if tagger and span.tags is None:
                    span.tags = tagger.leave(ctx, None)
                span.end = clock()
                stack.pop()
        return spanned

    # --- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the part its children cover."""
        covered = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                covered[sp.parent] += sp.end - sp.start
        return [sp.end - sp.start - c for sp, c in zip(self.spans, covered)]

    def inside(self, idx: int, ancestor: str) -> bool:
        p = self.spans[idx].parent
        while p >= 0:
            if self.spans[p].name == ancestor:
                return True
            p = self.spans[p].parent
        return False

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for k, sp in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": sp.name, "parent": sp.parent,
                                     "start": sp.start, "end": sp.end,
                                     "tags": sp.tags}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


class _SearchTags:
    @staticmethod
    def enter(args, kwargs):
        s = args[0] if args else kwargs["s"]
        return s.n

    @staticmethod
    def leave(n, result):
        return {"n": n, "found": isinstance(result, QuantumRealization)}


class _PeakMemory:
    @staticmethod
    def enter(args, kwargs):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        return started

    @staticmethod
    def leave(started, result):
        peak = tracemalloc.get_traced_memory()[1]
        if started:
            tracemalloc.stop()
        return {"peak_bytes": peak}


_TAGGERS = {SEARCH: _SearchTags, CERTIFICATES: _PeakMemory}


def _aggregate(tracer: Tracer) -> dict[str, list[float]]:
    """name -> [calls, total seconds, self seconds]."""
    agg: dict[str, list[float]] = {}
    for sp, own in zip(tracer.spans, tracer.self_times()):
        a = agg.setdefault(sp.name, [0, 0.0, 0.0])
        a[0] += 1
        a[1] += sp.end - sp.start
        a[2] += own
    return agg


SPAN_METRICS = (
    "quantum.find_quantum_realization.calls",
    "quantum.find_quantum_realization.total_s",
    "quantum.find_quantum_realization.self_s",
    "ewf.commutation_certificates.total_s",
    "ewf.paradox_report.self_s",
    "ewf.simulate.total_s",
    "ewf.record_distribution.self_s",
    "scenario.is_logically_contextual.calls",
    "scenario.is_logically_contextual.total_s",
    "scenario.propagate_chain.total_s",
    "scenario.possibilistic_collapse.calls",
    "scenario.possibilistic_collapse.self_s",
    "ncycle.relabel.total_s",
    "oracles.projection_sequential.total_s",
    "oracles.exhaustive_support_check.total_s",
    "quantum.born_pair.calls",
    "quantum.born_pair.self_s",
    "cli.main.self_s",
    "jsonio.dumps.self_s",
)
SEARCH_SIZES = (6, 7, 8)
_STATS = {"calls": (0, "count"), "total_s": (1, "s"), "self_s": (2, "s")}


def layer_metrics(tracer: Tracer, sweeps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced sweep, as name -> (value, unit)."""
    agg = _aggregate(tracer)
    out: dict[str, tuple[float, str]] = {}
    for metric in SPAN_METRICS:
        fn, stat = metric.rsplit(".", 1)
        k, unit = _STATS[stat]
        out[metric] = (agg.get(fn, [0, 0.0, 0.0])[k] / sweeps, unit)
    searches = [sp for sp in tracer.spans if sp.name == SEARCH]
    for n in SEARCH_SIZES:
        total = sum(sp.end - sp.start for sp in searches if sp.tags and sp.tags["n"] == n)
        out[f"{SEARCH}.n{n}.total_s"] = (total / sweeps, "s")
    verified = sum(1 for k, sp in enumerate(tracer.spans)
                   if sp.name == "quantum.behavior_from_realization" and tracer.inside(k, SEARCH))
    found = sum(1 for sp in searches if sp.tags and sp.tags["found"])
    out["quantum.behavior_from_realization.calls_in_search"] = (verified / sweeps, "count")
    out["quantum.search.verified_ratio"] = (found / verified if verified else 0.0, "ratio")
    out["linalg.commutator_norm.calls"] = (tracer.counts["linalg.commutator_norm"] / sweeps,
                                           "count")
    peaks = [sp.tags["peak_bytes"] for sp in tracer.spans
             if sp.name == CERTIFICATES and sp.tags]
    out[f"{CERTIFICATES}.peak_mb"] = (max(peaks, default=0) / 2**20, "MB")
    return out
