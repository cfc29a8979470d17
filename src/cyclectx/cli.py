"""Batch verification entry point.

Exit codes follow a CI-friendly contract: 0 when every requested check
passes, 1 when some check fails, 2 on usage errors and on requests too
large to report (``EnumerationLimitError``, ``BranchLimitError``). Identical
configurations (including the seed) produce byte-identical reports; no
timestamps or timings enter any output document. The ``CYCLECTX_SEED``
environment variable overrides ``--seed`` for the commands that take it
(``search`` and ``verify-all``).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
import numpy as np

from . import jsonio
from .ewf import (
    BranchLimitError,
    CertificateError,
    build_measure_undo_protocol,
    commutation_certificates,
    paradox_report,
    record_distribution,
    report_to_doc,
    simulate,
)
from .ncycle import (
    even_ncycle_behavior,
    even_to_unified_mask,
    odd_ncycle_behavior,
    odd_to_unified_mask,
    relabel,
    unified_ncycle_behavior,
)
from .oracles import exhaustive_support_check, projection_sequential
from .quantum import (
    QuantumRealization,
    SearchFailure,
    behavior_from_realization,
    born_pair,
    find_quantum_realization,
    kcbs_realization,
    realization_to_doc,
)
from .scenario import (
    EnumerationLimitError,
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


def _emit(args: argparse.Namespace, doc: dict, text: str) -> None:
    if args.format == "json":
        payload = jsonio.dumps(doc)
    elif args.format == "csv":
        payload = _to_csv(doc)
    else:
        payload = text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _frac(x: float) -> str:
    return jsonio.as_fraction_text(x)


# --- commands ----------------------------------------------------------------


def cmd_demo5(args: argparse.Namespace) -> int:
    for flag, value in (("--tol-prob", args.tol_prob), ("--eps", args.eps)):
        if not (math.isfinite(value) and value > 0):
            raise UsageError(f"{flag} must be finite and strictly positive, got {value}")
    rep = paradox_report(kcbs_realization(), 5, tol=args.tol_prob, eps=args.eps)
    doc = report_to_doc(rep)
    lines = [f"five-friend record protocol, convention {rep.convention}", ""]
    lines.append("pairwise forbidden entries (read before the undo):")
    for c in rep.pairwise:
        lines.append(f"  context {c.context} tuple {c.forbidden} at {c.stage!r}: "
                     f"{_frac(c.value)}  [{'ok' if c.passed else 'FAIL'}]")
    chain = " => ".join(f"a{m}={v}" for m, v in rep.chain.steps)
    lines.append(f"implication chain: {chain}")
    cf = rep.counterfactual
    lines.append(f"counterfactual joint {cf.context} tuple {cf.outcome_tuple}: "
                 f"{_frac(cf.value)} (threshold {cf.threshold:g}) "
                 f"[{'ok' if cf.passed else 'FAIL'}]")
    lines.append("commutation certificates:")
    for e in rep.certificates.required:
        lines.append(f"  {e.label}: {e.norm:.3e}")
    lines.append(f"truncation bounds: probability {rep.probability_bound:.3e}, "
                 f"block {rep.block_bound:.3e}")
    lines.append(f"verdict: {'contradiction certified' if rep.verdict else 'NOT certified'}")
    _emit(args, doc, "\n".join(lines) + "\n")
    return EXIT_PASS if rep.verdict else EXIT_CHECK_FAILURE


_GENERATORS = {
    "unified": unified_ncycle_behavior,
    "odd": odd_ncycle_behavior,
    "even": even_ncycle_behavior,
}


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
    text = [f"{kind} {n}-cycle behavior: "
            f"{'logically contextual' if verdict.contextual else 'not contextual'}"]
    if verdict.witness is not None:
        w = verdict.witness
        doc["witness"] = {
            "context": list(w.context),
            "tuple": list(w.outcome_tuple),
            "assignments_checked": len(w.fates),
        }
        text.append(f"witness: tuple {w.outcome_tuple} in context {w.context}; "
                    f"all {len(w.fates)} extensions die")
    _emit(args, doc, "\n".join(text) + "\n")
    return EXIT_PASS if verdict.contextual else EXIT_CHECK_FAILURE


def cmd_search_realization(args: argparse.Namespace) -> int:
    n, dim, seed = args.n, args.dim, args.seed
    if n < 4:
        raise UsageError("behavior commands need n >= 4")
    if dim == 0:
        dim = 3 if n % 2 == 1 else 4
    elif dim < 2:
        raise UsageError(f"--dim must be 0 (parity default) or >= 2, got {dim}")
    s = make_cycle_scenario(n)
    target = unified_ncycle_behavior(n)
    result = find_quantum_realization(s, target, dim, seed=seed, budget=args.budget)
    if isinstance(result, SearchFailure):
        doc = {
            "command": "search", "n": n, "dim": dim, "seed": seed,
            "success": False,
            "best_objective": result.best_objective,
            "forbidden_max": result.forbidden_max,
            "commutator_max": result.commutator_max,
            "required_min": result.required_min,
            "iterations_used": result.iterations_used,
            "attempts": result.attempts,
            "message": result.message,
        }
        _emit(args, doc, f"search failed: {result.message} "
                         f"(best objective {result.best_objective:.3e})\n")
        return EXIT_CHECK_FAILURE
    doc = {"command": "search", "n": n, "dim": dim, "seed": seed,
           "success": True, "realization": realization_to_doc(result)}
    ranks = ",".join(str(result.rank(i)) for i in sorted(result.frames))
    _emit(args, doc, f"found a dim-{dim} realization of the unified {n}-cycle "
                     f"behavior (projector ranks {ranks})\n")
    return EXIT_PASS


# --- verify-all --------------------------------------------------------------


def _crit_kcbs_behavior(r: QuantumRealization) -> dict:
    b = behavior_from_realization(r, make_cycle_scenario(5))
    forb = {
        "p(1,1|1,2)": b.tables[(1, 2)][(1, 1)],
        "p(0,0|2,3)": b.tables[(2, 3)][(0, 0)],
        "p(1,1|3,4)": b.tables[(3, 4)][(1, 1)],
        "p(0,0|4,5)": b.tables[(4, 5)][(0, 0)],
    }
    closing = b.tables[(1, 5)][(1, 0)]
    ok = all(v <= 1e-12 for v in forb.values()) and abs(closing - 1 / 9) <= 1e-10
    return {"status": "pass" if ok else "fail",
            "forbidden": {k: v for k, v in forb.items()},
            "closing_pair": closing}


def _chain_confirms(pb, witness) -> bool:
    seed_m = witness.context[0]
    seed_v = witness.outcome_tuple[0]
    res = propagate_chain(pb, seed_m, seed_v)
    if res.conflicted:
        return True
    partner = witness.context[-1]
    forced = res.forced.get(partner)
    return forced is not None and forced != witness.outcome_tuple[-1]


def _crit_contextuality(n_max: int) -> dict:
    cases = []
    for n in (5, 7, 9, 11):
        if n <= n_max:
            cases.append(("odd", n, odd_ncycle_behavior(n)))
    for n in (4, 6, 8, 10):
        if n <= n_max:
            cases.append(("even", n, even_ncycle_behavior(n)))
    for n in range(4, min(12, n_max) + 1):
        cases.append(("unified", n, unified_ncycle_behavior(n)))
    results = []
    ok = True
    for kind, n, pb in cases:
        v = is_logically_contextual(pb)
        confirmed = v.contextual and v.witness is not None and _chain_confirms(pb, v.witness)
        ok = ok and confirmed
        results.append({"kind": kind, "n": n, "contextual": v.contextual,
                        "chain_confirms": confirmed})
    return {"status": "pass" if ok else "fail", "cases": results}


def _crit_relabel(n_max: int) -> dict:
    ok = True
    cases = []
    for n in (5, 7, 9, 11):
        if n <= n_max:
            eq = relabel(odd_ncycle_behavior(n), odd_to_unified_mask(n)) == unified_ncycle_behavior(n)
            cases.append({"kind": "odd", "n": n, "matches_unified": eq})
            ok = ok and eq
    for n in (4, 6, 8, 10):
        if n <= n_max:
            eq = relabel(even_ncycle_behavior(n), even_to_unified_mask(n)) == unified_ncycle_behavior(n)
            cases.append({"kind": "even", "n": n, "matches_unified": eq})
            ok = ok and eq
    return {"status": "pass" if ok else "fail", "cases": cases}


def _crit_certificates(r: QuantumRealization) -> dict:
    certs = commutation_certificates(r, 5)
    noncontext13 = certs.entry("M1 vs M3 (non-context)").norm
    ok = certs.passed and noncontext13 > 0.1
    return {"status": "pass" if ok else "fail",
            "max_required_norm": max(e.norm for e in certs.required),
            "noncontext_pair_1_3": noncontext13}


def _crit_search_and_protocol(n_max: int, seed: int, budget: int) -> dict:
    cases = []
    all_ok = True
    for n in (6, 7, 8):
        if n > n_max:
            continue
        dim = 3 if n % 2 == 1 else 4
        s = make_cycle_scenario(n)
        target = unified_ncycle_behavior(n)
        found = find_quantum_realization(s, target, dim, seed=seed, budget=budget)
        if isinstance(found, SearchFailure):
            all_ok = False
            cases.append({"n": n, "status": "skip",
                          "notice": f"search failed ({found.message}); protocol check skipped"})
            continue
        try:
            rep = paradox_report(found, n)
        except CertificateError as exc:
            # the search accepts context commutators up to ALG_TOL, the
            # certificates only up to ALG_TOL / 4
            all_ok = False
            cases.append({"n": n, "status": "fail", "notice": str(exc)})
            continue
        ok = rep.verdict and all(c.passed for c in rep.pairwise)
        all_ok = all_ok and ok
        cases.append({"n": n, "status": "pass" if ok else "fail",
                      "max_forbidden": max(c.value for c in rep.pairwise),
                      "closing_value": rep.counterfactual.value})
    return {"status": "pass" if all_ok else "fail", "cases": cases}


def _crit_counterfactual(r: QuantumRealization) -> dict:
    rep = paradox_report(r, 5)
    cf = rep.counterfactual.value
    bp = born_pair(r, 1, 5)[(1, 0)]
    seq = projection_sequential(r, (1, 5))[(1, 0)]
    ok = abs(cf - 1 / 9) <= 1e-10 and abs(cf - bp) <= 1e-10 and abs(cf - seq) <= 1e-12
    return {"status": "pass" if ok else "fail",
            "counterfactual": cf, "born_pair": bp, "sequential_oracle": seq}


def _crit_measure_undo(r: QuantumRealization) -> dict:
    trace = simulate(build_measure_undo_protocol(5), r)
    init, final = trace.states[0], trace.states[-1]
    fidelity = float(abs(np.vdot(init, final)) ** 2)
    marginals = {}
    ok = abs(fidelity - 1.0) <= 1e-10
    for i in range(1, 6):
        d = record_distribution(trace, f"after M{i}", [i])
        expect = float(abs(np.vdot(r.vectors[i], r.state)) ** 2)
        marginals[f"a{i}"] = d[(1,)]
        ok = ok and abs(d[(1,)] - expect) <= 1e-10
    return {"status": "pass" if ok else "fail",
            "fidelity": fidelity, "outcome1_marginals": marginals}


def _crit_oracles(r: QuantumRealization) -> dict:
    s = make_cycle_scenario(5)
    res = exhaustive_support_check(r, s)
    worst = res.max_abs_diff
    for i, j in s.contexts:
        bp = born_pair(r, i, j)
        seq = projection_sequential(r, (i, j))
        rev = projection_sequential(r, (j, i))
        for a, b in bp.probabilities:
            worst = max(worst, abs(bp[(a, b)] - seq[(a, b)]))
            worst = max(worst, abs(bp[(a, b)] - rev[(b, a)]))
    return {"status": "pass" if worst <= 1e-12 else "fail", "max_abs_diff": worst}


def cmd_verify_all(args: argparse.Namespace) -> int:
    n_max = args.n_max
    if not 4 <= n_max <= 12:
        raise UsageError(f"n-max must lie in 4..12, got {n_max}")
    kcbs = kcbs_realization()
    criteria = [
        ("C1", "kcbs-behavior", _crit_kcbs_behavior, (kcbs,)),
        ("C2", "contextuality-verdicts", _crit_contextuality, (n_max,)),
        ("C3", "relabel-transforms", _crit_relabel, (n_max,)),
        ("C4", "commutation-certificates", _crit_certificates, (kcbs,)),
        ("C5", "search-and-protocol", _crit_search_and_protocol,
         (n_max, args.seed, args.budget)),
        ("C6", "counterfactual-closing-pair", _crit_counterfactual, (kcbs,)),
        ("C7", "measure-undo-roundtrip", _crit_measure_undo, (kcbs,)),
        ("C8", "oracle-equivalence", _crit_oracles, (kcbs,)),
    ]
    results = []
    lines = []
    failed = []
    for cid, name, fn, params in criteria:
        out = {"id": cid, "name": name, **fn(*params)}
        results.append(out)
        lines.append(f"{cid} {name}: {out['status'].upper()}")
        if out["status"] == "fail":
            failed.append(cid)
    doc = {"command": "verify-all", "n_max": n_max, "seed": args.seed,
           "criteria": results, "passed": not failed}
    lines.append("all criteria passed" if not failed else
                 f"FAILED: {', '.join(failed)}")
    _emit(args, doc, "\n".join(lines) + "\n")
    if failed:
        print(f"first failing criterion: {failed[0]}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    return EXIT_PASS


# --- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cyclectx",
        description="verification suite for cycle contextuality and the "
                    "friend/superobserver record protocol")
    sub = ap.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads
    def search_flags(p):
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--budget", type=int, default=100000)

    def output_flags(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", default=None)

    p = sub.add_parser("demo5", help="run the five-friend protocol end to end")
    p.add_argument("--tol-prob", type=float, default=1e-10)
    p.add_argument("--eps", type=float, default=1e-9)
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
    search_flags(p)
    output_flags(p)
    p.set_defaults(run=cmd_search_realization)
    p = sub.add_parser("verify-all", help="run the whole verification suite")
    p.add_argument("--n-max", type=int, default=10, dest="n_max")
    search_flags(p)
    output_flags(p)
    p.set_defaults(run=cmd_verify_all)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if hasattr(args, "seed"):       # --seed and --budget come together
            env_seed = os.environ.get("CYCLECTX_SEED")
            if env_seed is not None:
                try:
                    args.seed = int(env_seed)
                except ValueError:
                    raise UsageError(f"CYCLECTX_SEED must be an integer, got {env_seed!r}")
            if args.seed < 0:
                raise UsageError("seed must be nonnegative")
            if args.budget < 0:
                raise UsageError(f"--budget must be nonnegative, got {args.budget}")
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EnumerationLimitError, BranchLimitError) as exc:
        print(f"too large: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
