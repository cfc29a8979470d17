"""Acceptance suite. Each test prints one PASS/FAIL line for its criterion;
run with ``pytest -s tests/test_acceptance.py`` to see them."""

import time

import numpy as np
import pytest

from cyclectx.cli import main
from cyclectx.ewf import (
    build_counterfactual_protocol,
    build_measure_undo_protocol,
    commutation_certificates,
    paradox_report,
    record_distribution,
    simulate,
)
from cyclectx.ncycle import (
    even_ncycle_behavior,
    even_to_unified_mask,
    odd_ncycle_behavior,
    odd_to_unified_mask,
    relabel,
    unified_ncycle_behavior,
)
from cyclectx.oracles import exhaustive_support_check, projection_sequential
from cyclectx.quantum import (
    SearchFailure,
    behavior_from_realization,
    born_pair,
    find_quantum_realization,
    kcbs_realization,
)
from cyclectx.scenario import (
    is_logically_contextual,
    make_cycle_scenario,
    propagate_chain,
)
from dense_reference import dense_stages


def report(cid: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"{cid} failed: {detail}"


def test_c1_kcbs_behavior():
    r = kcbs_realization()
    s = make_cycle_scenario(5)
    behavior_from_realization(r, s)  # warm numpy before timing
    t0 = time.perf_counter()
    b = behavior_from_realization(r, s)
    elapsed = time.perf_counter() - t0
    forb = [b.tables[(1, 2)][(1, 1)], b.tables[(2, 3)][(0, 0)],
            b.tables[(3, 4)][(1, 1)], b.tables[(4, 5)][(0, 0)]]
    closing = b.tables[(1, 5)][(1, 0)]
    ok = (all(v <= 1e-12 for v in forb)
          and abs(closing - 1 / 9) <= 1e-10
          and elapsed < 0.010)
    report("C1", ok, f"closing={closing:.12f} runtime={elapsed * 1e3:.2f}ms")


def _chain_confirms(pb, witness) -> bool:
    res = propagate_chain(pb, witness.context[0], witness.outcome_tuple[0])
    if res.conflicted:
        return True
    partner = witness.context[-1]
    return res.forced.get(partner) not in (None, witness.outcome_tuple[-1])


def test_c2_contextuality_verdicts():
    cases = ([("odd", n, odd_ncycle_behavior(n)) for n in (5, 7, 9, 11)]
             + [("even", n, even_ncycle_behavior(n)) for n in (4, 6, 8, 10)]
             + [("unified", n, unified_ncycle_behavior(n)) for n in range(4, 13)])
    t0 = time.perf_counter()
    ok = True
    for kind, n, pb in cases:
        v = is_logically_contextual(pb)
        good = (v.contextual and v.witness is not None
                and all(f.assignment for f in v.witness.fates)
                and _chain_confirms(pb, v.witness))
        ok = ok and good
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report("C2", ok, f"{len(cases)} cases in {elapsed * 1e3:.0f}ms")


def test_c3_relabeling():
    ok = True
    for n in (5, 7, 9, 11):
        ok = ok and relabel(odd_ncycle_behavior(n), odd_to_unified_mask(n)) \
            == unified_ncycle_behavior(n)
    for n in (4, 6, 8, 10):
        ok = ok and relabel(even_ncycle_behavior(n), even_to_unified_mask(n)) \
            == unified_ncycle_behavior(n)
    report("C3", ok)


def test_c4_commutation_certificates():
    certs = commutation_certificates(kcbs_realization(), 5)
    required = [e for e in certs.entries if e.must_commute]
    noncontext = certs.entry("M1 vs M3 (non-context)")
    ok = (certs.passed
          and all(e.norm <= 1e-12 for e in required)
          and certs.entry("block U vs M5").norm <= 1e-12
          and noncontext.norm > 0.1)
    report("C4", ok, f"max required norm "
                     f"{max(e.norm for e in required):.2e}, "
                     f"pair(1,3)={noncontext.norm:.3f}")


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_c5_protocol_statistics(n):
    if n == 5:
        r = kcbs_realization()
        rep = paradox_report(r, 5)
    else:
        dim = 3 if n % 2 == 1 else 4
        s = make_cycle_scenario(n)
        target = unified_ncycle_behavior(n)
        found = find_quantum_realization(s, target, dim, seed=1)
        if isinstance(found, SearchFailure):
            print(f"ACCEPTANCE C5 n={n}: SKIP (search failed: {found.message})")
            pytest.skip(f"no realization found at n={n}; protocol check skipped")
        rep = paradox_report(found, n, target=target)
    worst = max(c.value for c in rep.pairwise)
    ok = all(c.passed for c in rep.pairwise) and worst <= 1e-10 and rep.verdict
    report(f"C5 n={n}", ok, f"max forbidden record entry {worst:.2e}")


def test_c6_counterfactual_closing_pair():
    r = kcbs_realization()
    trace = simulate(build_counterfactual_protocol(5), r)
    val = record_distribution(trace, "before U", [1, 5])[(1, 0)]
    bp = born_pair(r, 1, 5)[(1, 0)]
    seq = projection_sequential(r, (1, 5))[(1, 0)]
    ok = (abs(val - 1 / 9) <= 1e-10
          and abs(val - bp) <= 1e-10
          and abs(val - seq) <= 1e-12)
    report("C6", ok, f"value={val:.12f}")


def test_c7_measure_undo_protocol():
    r = kcbs_realization()
    trace = simulate(build_measure_undo_protocol(5), r)
    stages = dense_stages(trace)
    fid = abs(np.vdot(stages[0], stages[-1])) ** 2
    ok = abs(fid - 1.0) <= 1e-10
    expected = [1 / 9, 2 / 3, 1 / 3, 1 / 3, 2 / 3]
    for i, want in zip(range(1, 6), expected):
        got = record_distribution(trace, f"after M{i}", [i])[(1,)]
        ok = ok and abs(got - want) <= 1e-10
    report("C7", ok, f"fidelity={fid:.12f}")


def test_c8_oracle_equivalence():
    r = kcbs_realization()
    s = make_cycle_scenario(5)
    worst = exhaustive_support_check(r, s).max_abs_diff
    for i, j in s.contexts:
        bp = born_pair(r, i, j)
        seq = projection_sequential(r, (i, j))
        rev = projection_sequential(r, (j, i))
        for (a, b), p in bp.probabilities.items():
            worst = max(worst, abs(p - seq[(a, b)]), abs(p - rev[(b, a)]))
    ok = worst <= 1e-12
    report("C8", ok, f"max oracle disagreement {worst:.2e}")


def test_c9_determinism_and_performance(tmp_path):
    outs = []
    t0 = time.perf_counter()
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        code = main(["verify-all", "--n-max", "10", "--seed", "1",
                     "--format", "json", "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    elapsed = time.perf_counter() - t0
    ok = outs[0] == outs[1] and elapsed / 2 < 60.0
    report("C9", ok, f"two runs in {elapsed:.1f}s, byte-identical={outs[0] == outs[1]}")
