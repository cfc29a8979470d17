"""The three workloads: inputs from the seed, one timed sweep, and the gates.

Each workload object builds its inputs in ``__init__`` (the set-up the
benchmark times separately) and runs one sample of its operations in
``sweep``, which returns the wall time of each stage and records every
gated operation in a ``Tally``. Library calls go through module attributes
(``ewf.simulate``, not a local alias), so the tracer's wrappers see them.
Reference values the gates compare against are computed during set-up,
which keeps the oracles out of the timed stages.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time

import numpy as np

from cyclectx import cli, ewf, ncycle, oracles, quantum, scenario

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "fixtures", "realizations.json")

VERIFY_SEARCH_SEED = 1
PARADOX_N = (5, 6, 7, 8, 9)
RECORDS_N = (11, 13, 15)
CONTEXTUAL_CASES = (("unified", 14), ("unified", 16), ("unified", 18),
                    ("odd", 15), ("odd", 17),
                    ("even", 14), ("even", 16), ("even", 18))
CONTROL_N = (14, 15, 16)
PROB_TOL = 1e-10


class Tally:
    """Gated operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# --- verify -------------------------------------------------------------------


class Verify:
    """``cyclectx verify-all --n-max 10 --seed 1 --format json``, in process.

    The search seed stays at 1, the documented headline configuration:
    verify-all's run time depends on the search seed by a factor of two, so
    a search seed drawn from the workload seed would make the run-to-run
    spread wider than any usable bound.
    """

    stages = ("verify_all_s",)

    def __init__(self, budget: int | None = None):
        self.argv = ["verify-all", "--n-max", "10", "--seed", str(VERIFY_SEARCH_SEED),
                     "--format", "json"]
        if budget is not None:
            self.argv += ["--budget", str(budget)]
        self.first_report: str | None = None

    def sweep(self, tally: Tally) -> dict[str, float]:
        t0 = time.perf_counter()
        rc, out = _run_cli(self.argv)
        dt = time.perf_counter() - t0
        try:
            doc = json.loads(out)
            c5 = next(c for c in doc["criteria"] if c["id"] == "C5")
            cases = c5["cases"]
            passed = doc["passed"] is True
        except (ValueError, KeyError, StopIteration):
            cases, passed = [], False
        same = self.first_report is None or out == self.first_report
        if self.first_report is None:
            self.first_report = out
        tally.check(rc == 0 and passed and same,
                    f"verify-all: exit {rc}, passed {passed}, byte-identical {same}")
        for case in cases:
            tally.check(case.get("status") == "pass",
                        f"verify-all C5 n={case.get('n')}: status {case.get('status')}")
        return {"verify_all_s": dt}


# --- protocol -----------------------------------------------------------------


def load_fixtures() -> dict[int, quantum.QuantumRealization]:
    with open(FIXTURE, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {int(n): quantum.realization_from_doc(d) for n, d in doc["realizations"].items()}


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def conjugated(r: quantum.QuantumRealization, seed: int, n: int) -> quantum.QuantumRealization:
    """The same realization in a seeded random basis: V state, V frames.

    Every probability and every commutator norm is invariant, so the
    verdicts the gates demand still hold.
    """
    v = random_unitary(r.dim, np.random.default_rng([seed, n]))
    return quantum.QuantumRealization(r.dim, v @ r.state,
                                      {i: v @ np.asarray(f) for i, f in r.frames.items()})


def realization_for(n: int, seed: int, fixtures=None) -> quantum.QuantumRealization:
    fixtures = fixtures if fixtures is not None else load_fixtures()
    return conjugated(fixtures[n], seed, n)


class Protocol:
    """demo5, paradox_report at n = 5..9, then the records phase at odd n."""

    stages = ("demo5_s", "paradox_s", "records_s")

    def __init__(self, seed: int):
        fixtures = load_fixtures()
        self.real = {n: realization_for(n, seed, fixtures) for n in PARADOX_N + RECORDS_N}
        self.targets = {n: ncycle.unified_ncycle_behavior(n) for n in PARADOX_N}
        # references for every record pair the records phase reads
        self.expected = {}
        for n in RECORDS_N:
            r = self.real[n]
            for pair in [(i, i + 1) for i in range(1, n)] + [(1, n)]:
                self.expected[(n, pair)] = (
                    dict(quantum.born_pair(r, *pair).probabilities),
                    oracles.projection_sequential(r, pair))

    def _records(self, n: int) -> dict:
        r = self.real[n]
        reads = {}
        trace = ewf.simulate(ewf.build_protocol(n), r)
        for i in range(1, n):
            reads[(i, i + 1)] = ewf.record_distribution(trace, f"after M{i + 1}", [i, i + 1])
        cf = ewf.simulate(ewf.build_counterfactual_protocol(n), r)
        reads[(1, n)] = ewf.record_distribution(cf, "before U", [1, n])
        return reads

    def sweep(self, tally: Tally) -> dict[str, float]:
        t0 = time.perf_counter()
        rc, out = _run_cli(["demo5", "--format", "json"])
        t1 = time.perf_counter()
        try:
            verdict = json.loads(out)["verdict"] is True
        except (ValueError, KeyError):
            verdict = False
        tally.check(rc == 0 and verdict, f"demo5: exit {rc}, verdict {verdict}")

        reports = {}
        t2 = time.perf_counter()
        for n in PARADOX_N:
            try:
                reports[n] = ewf.paradox_report(self.real[n], n, target=self.targets[n])
            except ewf.CertificateError as exc:
                reports[n] = exc
        t3 = time.perf_counter()
        for n, rep in reports.items():
            if isinstance(rep, ewf.CertificateError):
                tally.check(False, f"paradox_report n={n}: {rep}")
            else:
                tally.check(rep.verdict and rep.certificates.passed,
                            f"paradox_report n={n}: verdict {rep.verdict}")

        reads = {}
        t4 = time.perf_counter()
        for n in RECORDS_N:
            reads[n] = self._records(n)
        t5 = time.perf_counter()
        for n, by_pair in reads.items():
            for pair, dist in by_pair.items():
                born, seq = self.expected[(n, pair)]
                worst = max(max(abs(dist[t] - born[t]), abs(dist[t] - seq[t])) for t in born)
                tally.check(worst <= PROB_TOL,
                            f"records n={n} pair {pair}: off by {worst:.3e}")
        return {"demo5_s": t1 - t0, "paradox_s": t3 - t2, "records_s": t5 - t4}


# --- contextuality --------------------------------------------------------------


_GENERATORS = {"unified": ncycle.unified_ncycle_behavior,
               "odd": ncycle.odd_ncycle_behavior,
               "even": ncycle.even_ncycle_behavior}
_TO_UNIFIED = {"unified": ncycle.identity_mask,
               "odd": ncycle.odd_to_unified_mask,
               "even": ncycle.even_to_unified_mask}


def random_mask(n: int, seed: int, salt: int) -> ncycle.FlipMask:
    bits = np.random.default_rng([seed, salt, n]).integers(0, 2, n)
    return ncycle.FlipMask({m: bool(b) for m, b in zip(range(1, n + 1), bits)})


def full_support(n: int) -> scenario.PossibilisticBehavior:
    """Every joint outcome possible: the non-contextual control."""
    s = scenario.make_cycle_scenario(n)
    return scenario.PossibilisticBehavior(s, {c: frozenset(s.tuples(c)) for c in s.contexts})


def chain_confirms(pb, witness) -> bool:
    """Unit propagation from the witness's first value contradicts its second."""
    res = scenario.propagate_chain(pb, witness.context[0], witness.outcome_tuple[0])
    if res.conflicted:
        return True
    forced = res.forced.get(witness.context[-1])
    return forced is not None and forced != witness.outcome_tuple[-1]


def check_contextual(pb, n: int) -> tuple[bool, str]:
    """Decide pb and check the witness; returns (ok, description)."""
    v = scenario.is_logically_contextual(pb)
    if not v.contextual or v.witness is None:
        return False, "not contextual"
    fates = len(v.witness.fates)
    if fates != 2 ** (n - 2):
        return False, f"witness has {fates} fates, expected 2^{n - 2}"
    if not chain_confirms(pb, v.witness):
        return False, "chain does not confirm the witness"
    return True, "contextual"


def _combined(a: ncycle.FlipMask, b: ncycle.FlipMask) -> ncycle.FlipMask:
    """Relabeling by a and then by b."""
    return ncycle.FlipMask({m: a.flipped(m) != b.flipped(m) for m in a.flips})


class Contextuality:
    """Seeded relabelings of contextual cycle behaviors, plus full-support controls."""

    stages = ("contextuality_s",)

    def __init__(self, seed: int):
        self.cases = []
        for kind, n in CONTEXTUAL_CASES:
            mask = random_mask(n, seed, 1)
            self.cases.append((kind, n, _GENERATORS[kind](n), mask,
                               _combined(mask, _TO_UNIFIED[kind](n)),
                               ncycle.unified_ncycle_behavior(n)))
        self.controls = [(n, full_support(n), random_mask(n, seed, 2)) for n in CONTROL_N]

    def sweep(self, tally: Tally) -> dict[str, float]:
        results = []
        t0 = time.perf_counter()
        for kind, n, base, mask, back, unified in self.cases:
            pb = ncycle.relabel(base, mask)
            ok, what = check_contextual(pb, n)
            identity = ncycle.relabel(pb, back) == unified
            results.append((ok and identity, f"{kind} n={n}: {what}, relabel identity {identity}"))
        for n, base, mask in self.controls:
            pb = ncycle.relabel(base, mask)
            v = scenario.is_logically_contextual(pb)
            results.append((not v.contextual and pb == base,
                            f"control n={n}: contextual {v.contextual}"))
        dt = time.perf_counter() - t0
        for ok, what in results:
            tally.check(ok, what)
        return {"contextuality_s": dt}


WORKLOADS = {"verify": Verify, "protocol": Protocol, "contextuality": Contextuality}
