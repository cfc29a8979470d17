"""Batch verification entry point.

Exit codes follow a CI-friendly contract: 0 when every requested check
passes, 1 when some check fails, 2 on usage errors (an ``--out`` that
cannot be written among them) and on requests too large to report (a
record simulation past the branch cap, ``BranchLimitError``). Identical
configurations (including the seed) produce byte-identical reports; no
timestamps or timings enter any output document, and no environment
variable changes one.

The argument parser is built once per process, on the first call of
``main``; parsing leaves it unchanged, so repeated in-process calls print
the same bytes as fresh processes. The library caches only pure
constructions of their arguments (the KCBS realization, the search's exact
start of each relabeled ladder with its candidate realization, the record
schedules), and every check runs on every call. Within one call,
``verify-all`` forms each statistic once: it builds each (kind, n) cycle
behavior once and hands it to C2, C3 and C5 (C5 searches for it and passes
it to ``paradox_report`` as the target) and to the KCBS paradox report,
whose certificates C4 reads where C6 reads the report. It runs the KCBS
trace oracle once, whose pipeline tables C1 reads, and the sequential
oracle once for each order of each KCBS context; C6 reads the (1, 5) order
and C8 compares every order with the trace oracle's tables. Nothing built
for one call is kept for the next.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from collections.abc import Callable

import numpy as np

from . import jsonio
from .ewf import (
    BranchLimitError,
    CertificateError,
    ParadoxReport,
    build_measure_undo_protocol,
    paradox_report,
    record_distribution,
    report_to_doc,
    simulate,
)
from .linalg import ALG_TOL, PROB_TOL
from .ncycle import (
    even_ncycle_behavior,
    even_to_unified_mask,
    odd_ncycle_behavior,
    odd_to_unified_mask,
    relabel,
    unified_ncycle_behavior,
)
from .oracles import OracleResult, exhaustive_support_check, projection_sequential
from .quantum import (
    QuantumRealization,
    SearchFailure,
    born_pair,
    find_quantum_realization,
    kcbs_realization,
    realization_to_doc,
)
from .scenario import (
    PossibilisticBehavior,
    is_logically_contextual,
    make_cycle_scenario,
    possibilistic_to_doc,
    propagate_chain,
)

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


# --- rendering ---------------------------------------------------------------


def _flatten(doc, prefix=""):
    rows = []
    if isinstance(doc, dict):
        for k, v in doc.items():
            rows.extend(_flatten(v, f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(doc, (list, tuple)):
        for k, v in enumerate(doc):
            rows.extend(_flatten(v, f"{prefix}[{k}]"))
    else:
        rows.append((prefix, doc))
    return rows


def _to_csv(doc) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["key", "value"])
    for key, value in _flatten(doc):
        if isinstance(value, float):
            value = jsonio.render_float(value)
        w.writerow([key, value])
    return buf.getvalue()


def _emit(args: argparse.Namespace, doc: dict, text: Callable[[], str]) -> None:
    """Write the report in the requested format; ``text`` renders it only for text.

    An ``--out`` that cannot be opened or written is a ``UsageError``.
    """
    if args.format == "json":
        payload = jsonio.dumps(doc)
    elif args.format == "csv":
        payload = _to_csv(doc)
    else:
        payload = text()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(payload)


# --- commands ----------------------------------------------------------------


def cmd_demo5(args: argparse.Namespace) -> int:
    rep = paradox_report(kcbs_realization(), 5)

    def text() -> str:
        lines = [f"five-friend record protocol, convention {rep.convention}", ""]
        lines.append("pairwise forbidden entries (read before the undo):")
        for c in rep.pairwise:
            lines.append(f"  context {c.context} tuple {c.forbidden} at {c.stage!r}: "
                         f"{jsonio.as_fraction_text(c.value)}  [{'ok' if c.passed else 'FAIL'}]")
        chain = " => ".join(f"a{m}={v}" for m, v in rep.chain.steps)
        lines.append(f"implication chain: {chain}")
        cf = rep.counterfactual
        lines.append(f"counterfactual joint {cf.context} tuple {cf.outcome_tuple}: "
                     f"{jsonio.as_fraction_text(cf.value)} (threshold {cf.threshold:g}) "
                     f"[{'ok' if cf.passed else 'FAIL'}]")
        lines.append("commutation certificates:")
        for e in rep.certificates.required:
            lines.append(f"  {e.label}: {e.norm:.3e}")
        lines.append(f"truncation bounds: probability {rep.probability_bound:.3e}, "
                     f"block {rep.block_bound:.3e}")
        lines.append(f"verdict: {'contradiction certified' if rep.verdict else 'NOT certified'}")
        return "\n".join(lines) + "\n"

    _emit(args, report_to_doc(rep), text)
    return EXIT_PASS if rep.verdict else EXIT_CHECK_FAILURE


_GENERATORS = {
    "unified": unified_ncycle_behavior,
    "odd": odd_ncycle_behavior,
    "even": even_ncycle_behavior,
}
# verify-all's odd and even cases (C2 and C3), the odd ones first
_PARITY_CASES = tuple([("odd", n) for n in (5, 7, 9, 11)] + [("even", n) for n in (4, 6, 8, 10)])
_TO_UNIFIED = {"odd": odd_to_unified_mask, "even": even_to_unified_mask}


def _default_dim(n: int) -> int:
    """The dimension of a search without --dim: 3 for odd n, 4 for even n."""
    return 3 if n % 2 == 1 else 4


def cmd_contextuality(args: argparse.Namespace) -> int:
    n, kind = args.n, args.kind
    if n < 4:
        raise UsageError("behavior commands need n >= 4")
    if kind == "odd" and n % 2 == 0:
        raise UsageError(f"kind 'odd' needs odd n, got {n}")
    if kind == "even" and n % 2 == 1:
        raise UsageError(f"kind 'even' needs even n, got {n}")
    pb = _GENERATORS[kind](n)
    verdict = is_logically_contextual(pb)
    doc = {
        "command": "contextuality",
        "n": n,
        "kind": kind,
        "behavior": possibilistic_to_doc(pb),
        "contextual": verdict.contextual,
    }
    w = verdict.witness
    if w is not None:
        doc["witness"] = {
            "context": list(w.context),
            "tuple": list(w.outcome_tuple),
            "assignments_checked": w.fates.size,
        }

    def text() -> str:
        lines = [f"{kind} {n}-cycle behavior: "
                 f"{'logically contextual' if verdict.contextual else 'not contextual'}"]
        if w is not None:
            lines.append(f"witness: tuple {w.outcome_tuple} in context {w.context}; "
                         f"all {w.fates.size} extensions die")
        return "\n".join(lines) + "\n"

    _emit(args, doc, text)
    return EXIT_PASS if verdict.contextual else EXIT_CHECK_FAILURE


def cmd_search_realization(args: argparse.Namespace) -> int:
    n, dim, seed = args.n, args.dim, args.seed
    if n < 4:
        raise UsageError("behavior commands need n >= 4")
    if dim == 0:
        dim = _default_dim(n)
    elif dim < 2:
        raise UsageError(f"--dim must be 0 (parity default) or >= 2, got {dim}")
    s = make_cycle_scenario(n)
    target = unified_ncycle_behavior(n)
    result = find_quantum_realization(s, target, dim, seed=seed)
    if isinstance(result, SearchFailure):
        doc = {"command": "search", "n": n, "dim": dim, "seed": seed,
               "success": False, "message": result.message}
        _emit(args, doc, lambda: f"search failed: {result.message}\n")
        return EXIT_CHECK_FAILURE
    doc = {"command": "search", "n": n, "dim": dim, "seed": seed,
           "success": True, "realization": realization_to_doc(result)}

    def text() -> str:
        ranks = ",".join(str(result.rank(i)) for i in sorted(result.frames))
        return (f"found a dim-{dim} realization of the unified {n}-cycle "
                f"behavior (projector ranks {ranks})\n")

    _emit(args, doc, text)
    return EXIT_PASS


# --- verify-all --------------------------------------------------------------


def _crit_kcbs_behavior(traced: OracleResult) -> dict:
    tables = traced.pipeline_value
    forb = {
        "p(1,1|1,2)": tables[((1, 2), (1, 1))],
        "p(0,0|2,3)": tables[((2, 3), (0, 0))],
        "p(1,1|3,4)": tables[((3, 4), (1, 1))],
        "p(0,0|4,5)": tables[((4, 5), (0, 0))],
    }
    closing = tables[((1, 5), (1, 0))]
    ok = all(v <= ALG_TOL for v in forb.values()) and abs(closing - 1 / 9) <= PROB_TOL
    return {"status": "pass" if ok else "fail",
            "forbidden": {k: v for k, v in forb.items()},
            "closing_pair": closing}


def _contextuality_cases(n_max: int) -> list[tuple[str, int]]:
    """C2's cases: the parity cases up to n_max, then the unified 4..n_max."""
    return ([case for case in _PARITY_CASES if case[1] <= n_max]
            + [("unified", n) for n in range(4, n_max + 1)])


def _cycle_behaviors(n_max: int) -> dict[tuple[str, int], PossibilisticBehavior]:
    """Every (kind, n) cycle behavior one verify-all call reads, each built
    once: C2's cases (which hold C3's and C5's targets) and the odd 5-cycle
    target of the KCBS report."""
    cases = dict.fromkeys(_contextuality_cases(n_max) + [("odd", 5)])
    return {(kind, n): _GENERATORS[kind](n) for kind, n in cases}


def _crit_contextuality(n_max: int, behaviors: dict) -> dict:
    results = []
    ok = True
    for kind, n in _contextuality_cases(n_max):
        pb = behaviors[(kind, n)]
        v = is_logically_contextual(pb)
        w = v.witness
        confirmed = v.contextual and propagate_chain(
            pb, w.context[0], w.outcome_tuple[0]).refutes(w.context[-1], w.outcome_tuple[-1])
        ok = ok and confirmed
        results.append({"kind": kind, "n": n, "contextual": v.contextual,
                        "chain_confirms": confirmed})
    return {"status": "pass" if ok else "fail", "cases": results}


def _crit_relabel(n_max: int, behaviors: dict) -> dict:
    ok = True
    cases = []
    for kind, n in _PARITY_CASES:
        if n <= n_max:
            eq = relabel(behaviors[(kind, n)], _TO_UNIFIED[kind](n)) == behaviors[("unified", n)]
            cases.append({"kind": kind, "n": n, "matches_unified": eq})
            ok = ok and eq
    return {"status": "pass" if ok else "fail", "cases": cases}


def _crit_certificates(rep: ParadoxReport) -> dict:
    certs = rep.certificates
    noncontext13 = certs.entry("M1 vs M3 (non-context)").norm
    ok = certs.passed and noncontext13 > 0.1
    return {"status": "pass" if ok else "fail",
            "max_required_norm": max(e.norm for e in certs.required),
            "noncontext_pair_1_3": noncontext13}


def _crit_search_and_protocol(n_max: int, seed: int, behaviors: dict) -> dict:
    cases = []
    all_ok = True
    for n in (6, 7, 8):
        if n > n_max:
            continue
        dim = _default_dim(n)
        s = make_cycle_scenario(n)
        target = behaviors[("unified", n)]
        found = find_quantum_realization(s, target, dim, seed=seed)
        if isinstance(found, SearchFailure):
            all_ok = False
            cases.append({"n": n, "status": "skip",
                          "notice": f"search failed ({found.message}); protocol check skipped"})
            continue
        try:
            rep = paradox_report(found, n, target=target)
        except CertificateError as exc:
            # the search accepts context commutators up to ALG_TOL, the
            # certificates only up to ALG_TOL / 4
            all_ok = False
            cases.append({"n": n, "status": "fail", "notice": str(exc)})
            continue
        all_ok = all_ok and rep.verdict
        cases.append({"n": n, "status": "pass" if rep.verdict else "fail",
                      "max_forbidden": max(c.value for c in rep.pairwise),
                      "closing_value": rep.counterfactual.value})
    return {"status": "pass" if all_ok else "fail", "cases": cases}


def _crit_counterfactual(r: QuantumRealization, rep: ParadoxReport,
                         sequential: dict) -> dict:
    cf = rep.counterfactual.value
    bp = born_pair(r, 1, 5)[(1, 0)]
    seq = sequential[(1, 5)][(1, 0)]
    ok = abs(cf - 1 / 9) <= PROB_TOL and abs(cf - bp) <= PROB_TOL and abs(cf - seq) <= ALG_TOL
    return {"status": "pass" if ok else "fail",
            "counterfactual": cf, "born_pair": bp, "sequential_oracle": seq}


def _crit_measure_undo(r: QuantumRealization) -> dict:
    trace = simulate(build_measure_undo_protocol(5), r)
    final = trace.stages[-1]    # the initial state is r.state on the empty records, key 0
    v0 = final.values[final.keys.index(0)] if 0 in final.keys else np.zeros(r.dim)
    fidelity = float(abs(np.vdot(r.state, v0)) ** 2)
    marginals = {}
    ok = abs(fidelity - 1.0) <= PROB_TOL
    vectors = r.vectors
    for i in range(1, 6):
        d = record_distribution(trace, f"after M{i}", [i])
        expect = float(abs(np.vdot(vectors[i], r.state)) ** 2)
        marginals[f"a{i}"] = d[(1,)]
        ok = ok and abs(d[(1,)] - expect) <= PROB_TOL
    return {"status": "pass" if ok else "fail",
            "fidelity": fidelity, "outcome1_marginals": marginals}


def _crit_oracles(traced: OracleResult, sequential: dict) -> dict:
    worst = traced.max_abs_diff
    # the pipeline's pair tables, as the trace oracle read them; bit for bit
    # the tables ``born_pair`` returns
    for (c, (a, b)), p in traced.pipeline_value.items():
        worst = max(worst, abs(p - sequential[c][(a, b)]), abs(p - sequential[c[::-1]][(b, a)]))
    return {"status": "pass" if worst <= ALG_TOL else "fail", "max_abs_diff": worst}


def cmd_verify_all(args: argparse.Namespace) -> int:
    n_max = args.n_max
    if not 4 <= n_max <= 12:
        raise UsageError(f"n-max must lie in 4..12, got {n_max}")
    kcbs = kcbs_realization()
    behaviors = _cycle_behaviors(n_max)
    # C4 reads the certificates of the report that C6 checks
    kcbs_report = paradox_report(kcbs, 5, target=behaviors[("odd", 5)])
    # C1 reads the trace oracle's pipeline tables; C6 reads the (1, 5)
    # sequential read and C8 compares both orders of every context
    five = make_cycle_scenario(5)
    traced = exhaustive_support_check(kcbs, five)
    sequential = {order: projection_sequential(kcbs, order)
                  for c in five.contexts for order in (c, c[::-1])}
    criteria = [
        ("C1", "kcbs-behavior", _crit_kcbs_behavior, (traced,)),
        ("C2", "contextuality-verdicts", _crit_contextuality, (n_max, behaviors)),
        ("C3", "relabel-transforms", _crit_relabel, (n_max, behaviors)),
        ("C4", "commutation-certificates", _crit_certificates, (kcbs_report,)),
        ("C5", "search-and-protocol", _crit_search_and_protocol,
         (n_max, args.seed, behaviors)),
        ("C6", "counterfactual-closing-pair", _crit_counterfactual,
         (kcbs, kcbs_report, sequential)),
        ("C7", "measure-undo-roundtrip", _crit_measure_undo, (kcbs,)),
        ("C8", "oracle-equivalence", _crit_oracles, (traced, sequential)),
    ]
    results = [{"id": cid, "name": name, **fn(*params)} for cid, name, fn, params in criteria]
    failed = [out["id"] for out in results if out["status"] == "fail"]
    doc = {"command": "verify-all", "n_max": n_max, "seed": args.seed,
           "criteria": results, "passed": not failed}

    def text() -> str:
        lines = [f"{out['id']} {out['name']}: {out['status'].upper()}" for out in results]
        lines.append("all criteria passed" if not failed else
                     f"FAILED: {', '.join(failed)}")
        return "\n".join(lines) + "\n"

    _emit(args, doc, text)
    if failed:
        print(f"first failing criterion: {failed[0]}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    return EXIT_PASS


# --- argument parsing ---------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cyclectx",
        description="verification suite for cycle contextuality and the "
                    "friend/superobserver record protocol")
    sub = ap.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads
    def output_flags(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", default=None)

    p = sub.add_parser("demo5", help="run the five-friend protocol end to end")
    output_flags(p)
    p.set_defaults(run=cmd_demo5)
    p = sub.add_parser("contextuality", help="generate a cycle behavior and test it")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--kind", choices=tuple(_GENERATORS), default="unified")
    output_flags(p)
    p.set_defaults(run=cmd_contextuality)
    p = sub.add_parser("search", help="search for a quantum realization")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--dim", type=int, default=0)    # 0: 3 for odd n, 4 for even n
    p.add_argument("--seed", type=int, default=1)
    output_flags(p)
    p.set_defaults(run=cmd_search_realization)
    p = sub.add_parser("verify-all", help="run the whole verification suite")
    p.add_argument("--n-max", type=int, default=10, dest="n_max")
    p.add_argument("--seed", type=int, default=1)
    output_flags(p)
    p.set_defaults(run=cmd_verify_all)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise UsageError("seed must be nonnegative")
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BranchLimitError as exc:
        print(f"too large: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
