import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from cyclectx import cli, ewf, quantum
from cyclectx.cli import main
from cyclectx.ewf import BranchLimitError, CertificateError, commutation_certificates
from cyclectx.quantum import QuantumRealization
from cyclectx.scenario import make_cycle_scenario


def run(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


class TestDemo5:
    def test_json_verdict_and_value(self, tmp_path):
        code, payload = run(tmp_path, ["demo5", "--format", "json"])
        assert code == 0
        doc = json.loads(payload)
        assert doc["verdict"] is True
        assert abs(doc["counterfactual"]["value"] - 1 / 9) < 1e-10
        assert doc["convention"] == "flip-on-outcome-1"
        assert len(doc["pairwise"]) == 4

    def test_text_renders_fraction(self, tmp_path):
        code, payload = run(tmp_path, ["demo5", "--format", "text"], "out.txt")
        assert code == 0
        assert "1/9" in payload
        assert "contradiction certified" in payload

    def test_simulated_zeros_sit_below_even_harsh_tolerances(self, tmp_path):
        # the record-level forbidden entries are products of near-exact
        # zeros, so with the truncation bound added as the report adds it
        # they still pass a 1e-20 threshold
        code, payload = run(tmp_path, ["demo5", "--format", "json"])
        assert code == 0
        doc = json.loads(payload)
        delta = doc["truncation"]["state_norm"]
        assert len(doc["pairwise"]) == 4
        for c in doc["pairwise"]:
            assert (c["value"] ** 0.5 + delta) ** 2 <= 1e-20

    def test_impossible_possibility_threshold_fails(self, tmp_path, monkeypatch):
        # the report reads the threshold at call time; 1/9 does not reach 0.9
        monkeypatch.setattr(ewf, "POSSIBILITY_EPS", 0.9)
        code, payload = run(tmp_path, ["demo5", "--format", "json"])
        assert code == 1
        doc = json.loads(payload)
        assert doc["verdict"] is False
        assert doc["counterfactual"]["threshold"] == 0.9

    def test_byte_stable(self, tmp_path):
        _, a = run(tmp_path, ["demo5", "--format", "json"], "a.json")
        _, b = run(tmp_path, ["demo5", "--format", "json"], "b.json")
        assert a == b

    def test_csv_format(self, tmp_path):
        code, payload = run(tmp_path, ["demo5", "--format", "csv"], "out.csv")
        assert code == 0
        assert payload.splitlines()[0] == "key,value"


class TestRequestedFormatOnly:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", [
        ["demo5"],
        ["verify-all", "--n-max", "6"],
        ["contextuality", "--n", "7", "--kind", "odd"],
        ["search", "--n", "5"],
        ["search", "--n", "5", "--dim", "2"],
    ], ids=["demo5", "verify-all", "contextuality", "search", "search-failure"])
    def test_text_report_not_built(self, tmp_path, monkeypatch, argv, fmt):
        def refused(*args):
            raise AssertionError(f"text report built for --format {fmt}")

        real = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda args, doc, text: real(args, doc, refused))
        monkeypatch.setattr(cli.jsonio, "as_fraction_text", refused)
        code, payload = run(tmp_path, argv + ["--format", fmt])
        assert code in (0, 1) and payload

    def test_text_report_built_for_text(self, tmp_path, monkeypatch):
        rendered = []
        real = cli._emit

        def emit(args, doc, text):
            rendered.append(text())
            real(args, doc, text)

        monkeypatch.setattr(cli, "_emit", emit)
        code, payload = run(tmp_path, ["demo5"], "out.txt")
        assert code == 0 and rendered == [payload]


class TestContextuality:
    def test_odd_five(self, tmp_path):
        code, payload = run(tmp_path, ["contextuality", "--n", "5", "--kind", "odd",
                                       "--format", "json"])
        assert code == 0
        doc = json.loads(payload)
        assert doc["contextual"] is True
        assert doc["witness"]["context"] == [1, 5]

    def test_even_four(self, tmp_path):
        code, payload = run(tmp_path, ["contextuality", "--n", "4", "--kind", "even",
                                       "--format", "json"])
        assert code == 0
        assert json.loads(payload)["contextual"] is True

    def test_parity_usage_error(self, tmp_path):
        code = main(["contextuality", "--n", "4", "--kind", "odd"])
        assert code == 2

    def test_behavior_document_shape(self, tmp_path):
        _, payload = run(tmp_path, ["contextuality", "--n", "4", "--kind", "unified",
                                    "--format", "json"])
        doc = json.loads(payload)["behavior"]
        assert doc["n"] == 4
        assert doc["kind"] == "unified"
        assert doc["tables"]["1,2"]["0,1"] == 0

    def test_beyond_enumeration(self, tmp_path):
        # 2^25 assignments used to hit the enumeration guard
        code, payload = run(tmp_path, ["contextuality", "--n", "25", "--format", "json"])
        assert code == 0
        doc = json.loads(payload)
        assert doc["contextual"] is True
        assert doc["witness"]["assignments_checked"] == 2**23

    @pytest.mark.parametrize("n, kind", [(65, "unified"), (70, "unified"), (101, "odd")])
    def test_witness_count_past_maxsize(self, tmp_path, capsys, n, kind):
        # 2^(n-2) is more than len() can return; the report counts it exactly
        code, payload = run(tmp_path, ["contextuality", "--n", str(n), "--kind", kind,
                                       "--format", "json"])
        assert code == 0
        assert capsys.readouterr().err == ""
        doc = json.loads(payload)
        assert doc["contextual"] is True
        assert doc["witness"]["assignments_checked"] == 2 ** (n - 2)


class TestSearch:
    def test_five_cycle_dim3(self, tmp_path):
        code, payload = run(tmp_path, ["search", "--n", "5", "--dim", "3",
                                       "--seed", "1", "--format", "json"])
        assert code == 0
        doc = json.loads(payload)
        assert doc["success"] is True and doc["dim"] == 3

    def test_four_cycle_dim4(self, tmp_path):
        code, payload = run(tmp_path, ["search", "--n", "4", "--dim", "4",
                                       "--seed", "1", "--format", "json"])
        assert code == 0
        assert json.loads(payload)["success"] is True

    def test_even_cycle_dim3_from_chain_start(self, tmp_path):
        code, payload = run(tmp_path, ["search", "--n", "12", "--dim", "3",
                                       "--format", "json"])
        assert code == 0
        doc = json.loads(payload)
        assert doc["success"] is True and doc["dim"] == 3

    def test_dim2_failure(self, tmp_path):
        code, payload = run(tmp_path, ["search", "--n", "5", "--dim", "2",
                                       "--seed", "1", "--format", "json"])
        assert code == 1
        assert json.loads(payload) == {
            "command": "search", "n": 5, "dim": 2, "seed": 1, "success": False,
            "message": "no exact start for n = 5 in dimension 2: the qutrit chain needs "
                       "n >= 5 and dim >= 3, Hardy's start n = 4 and dim >= 4"}

    @pytest.mark.parametrize("n, dim", [(5, 3), (4, 4)])
    def test_parity_default_dim(self, tmp_path, n, dim):
        code, payload = run(tmp_path, ["search", "--n", str(n), "--format", "json"])
        assert code == 0
        assert json.loads(payload)["dim"] == dim

    def test_nonfinite_objective_is_null_in_json(self, tmp_path):
        # Hardy's start needs dim >= 4, so no candidate is tested; the
        # failure document carries the message and no measure of any start
        message = ("no exact start for n = 4 in dimension 3: the qutrit chain needs "
                   "n >= 5 and dim >= 3, Hardy's start n = 4 and dim >= 4")
        code, payload = run(tmp_path, ["search", "--n", "4", "--dim", "3",
                                       "--format", "json"])
        assert code == 1
        assert json.loads(payload) == {
            "command": "search", "n": 4, "dim": 3, "seed": 1, "success": False,
            "message": message}
        code, payload = run(tmp_path, ["search", "--n", "4", "--dim", "3"])
        assert (code, payload) == (1, f"search failed: {message}\n")


class TestVerifyAll:
    def test_nmax_guard(self):
        assert main(["verify-all", "--n-max", "13"]) == 2
        assert main(["verify-all", "--n-max", "3"]) == 2

    def test_small_run_passes(self, tmp_path):
        code, payload = run(tmp_path, ["verify-all", "--n-max", "5",
                                       "--format", "json"])
        assert code == 0
        doc = json.loads(payload)
        assert doc["passed"] is True
        assert [c["id"] for c in doc["criteria"]] == \
            ["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8"]

    def test_text_lines(self, tmp_path):
        code, payload = run(tmp_path, ["verify-all", "--n-max", "5",
                                       "--format", "text"], "out.txt")
        assert code == 0
        lines = payload.splitlines()
        assert lines[0].startswith("C1 ") and lines[0].endswith("PASS")
        assert lines[-1] == "all criteria passed"

    def test_skipped_search_fails_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(quantum, "REQUIRED_MARGIN", 0.6)    # every start is rejected
        code, payload = run(tmp_path, ["verify-all", "--n-max", "6", "--format", "json"])
        assert code == 1
        doc = json.loads(payload)
        assert doc["passed"] is False
        c5 = next(c for c in doc["criteria"] if c["id"] == "C5")
        assert c5["status"] == "fail"
        assert [c["status"] for c in c5["cases"]] == ["skip"]

    def test_certificate_failure_is_reported(self, tmp_path, monkeypatch):
        # a found realization whose certificates fail fails C5; the run
        # still reports every criterion
        real = cli.paradox_report

        def failing_at_6(r, n, *args, **kwargs):
            if n == 6:
                raise CertificateError("commutation certificates failed: ['M1 vs M2']")
            return real(r, n, *args, **kwargs)

        monkeypatch.setattr(cli, "paradox_report", failing_at_6)
        code, payload = run(tmp_path, ["verify-all", "--n-max", "7", "--format", "json"])
        assert code == 1
        doc = json.loads(payload)
        assert doc["passed"] is False
        assert [c["id"] for c in doc["criteria"]] == \
            ["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8"]
        assert [c["id"] for c in doc["criteria"] if c["status"] == "fail"] == ["C5"]
        c5 = next(c for c in doc["criteria"] if c["id"] == "C5")
        assert [(c["n"], c["status"]) for c in c5["cases"]] == [(6, "fail"), (7, "pass")]
        assert "M1 vs M2" in c5["cases"][0]["notice"]

    def test_kcbs_report_built_once_and_read_by_c4(self, tmp_path, monkeypatch):
        kcbs, real, on_kcbs = cli.kcbs_realization(), cli.paradox_report, []

        def counted(r, n, *args, **kwargs):
            on_kcbs.append(r is kcbs)
            return real(r, n, *args, **kwargs)

        monkeypatch.setattr(cli, "paradox_report", counted)
        code, payload = run(tmp_path, ["verify-all", "--n-max", "8", "--format", "json"])
        assert code == 0
        assert on_kcbs.count(True) == 1
        c4 = next(c for c in json.loads(payload)["criteria"] if c["id"] == "C4")
        certs = commutation_certificates(kcbs, 5)
        assert c4["max_required_norm"] == max(e.norm for e in certs.required)
        assert c4["noncontext_pair_1_3"] == certs.entry("M1 vs M3 (non-context)").norm

    def test_each_cycle_behavior_built_once_per_call(self, tmp_path, monkeypatch):
        built = []

        def counting(kind, make):
            def counted(n):
                built.append((kind, n))
                return make(n)
            return counted

        for kind, make in list(cli._GENERATORS.items()):
            monkeypatch.setitem(cli._GENERATORS, kind, counting(kind, make))
        # the paradox reports' default targets, and the search command's
        monkeypatch.setattr(ewf, "odd_ncycle_behavior", counting("odd", ewf.odd_ncycle_behavior))
        monkeypatch.setattr(ewf, "unified_ncycle_behavior",
                            counting("unified", ewf.unified_ncycle_behavior))
        monkeypatch.setattr(cli, "unified_ncycle_behavior",
                            counting("unified", cli.unified_ncycle_behavior))
        want = ([("odd", n) for n in (5, 7, 9)] + [("even", n) for n in (4, 6, 8, 10)]
                + [("unified", n) for n in range(4, 11)])
        code, first = run(tmp_path, ["verify-all", "--n-max", "10", "--format", "json"])
        assert code == 0
        assert sorted(built) == sorted(want)
        # nothing is kept for the next call: it builds its own
        code, second = run(tmp_path, ["verify-all", "--n-max", "10", "--format", "json"])
        assert code == 0 and second == first
        assert sorted(built) == sorted(want * 2)
        # at n-max 4 the KCBS report's odd 5-cycle is built for it alone
        built.clear()
        assert run(tmp_path, ["verify-all", "--n-max", "4", "--format", "json"])[0] == 0
        assert sorted(built) == [("even", 4), ("odd", 5), ("unified", 4)]

    def test_kcbs_statistics_formed_once_per_call(self, tmp_path, monkeypatch):
        # the trace oracle builds the KCBS behavior that C1 reads, and each
        # order of each context is read once for C6 and C8
        five, orders = [], []
        real_tables = quantum._pair_tables
        real_sequential = cli.projection_sequential

        def tables(r, pairs):
            # every behavior, whichever module calls it, fills its tables here
            if len(pairs) == 5:
                five.append(r)
            return real_tables(r, pairs)

        def sequential(r, order):
            orders.append(tuple(order))
            return real_sequential(r, order)

        monkeypatch.setattr(quantum, "_pair_tables", tables)
        monkeypatch.setattr(cli, "projection_sequential", sequential)
        code, _ = run(tmp_path, ["verify-all", "--n-max", "10", "--format", "json"])
        assert code == 0
        assert len(five) == 1
        contexts = make_cycle_scenario(5).contexts
        assert len(orders) == 10
        assert sorted(orders) == sorted(list(contexts) + [c[::-1] for c in contexts])

    def test_c8_reads_the_trace_oracle_tables_and_c6_calls_born_pair(self, tmp_path,
                                                                     monkeypatch):
        real, calls = cli.born_pair, []

        def counted(r, i, j):
            calls.append((i, j))
            return real(r, i, j)

        monkeypatch.setattr(cli, "born_pair", counted)
        code, payload = run(tmp_path, ["verify-all", "--n-max", "5", "--format", "json"])
        assert code == 0
        assert calls == [(1, 5)]
        c8 = next(c for c in json.loads(payload)["criteria"] if c["id"] == "C8")
        assert c8["status"] == "pass"


class TestUsage:
    def test_small_n_rejected(self):
        assert main(["contextuality", "--n", "3"]) == 2

    def test_negative_tolerance_rejected(self, capsys):
        # the tolerances are fixed, so demo5 takes no flag to set one
        with pytest.raises(SystemExit) as exc:
            main(["demo5", "--tol-prob", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["search", "--n", "3"],
        ["search", "--seed", "-1"],
        ["verify-all", "--seed", "-1"],
        ["search", "--n", "5", "--dim", "1"],
        ["search", "--n", "5", "--dim", "-3"],
    ])
    def test_command_checks_are_usage_errors(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--tol-prob", "--eps"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_tolerances_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo5", f"{flag}={value}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err and flag in captured.err

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, where, capsys):
        out = tmp_path if where == "directory" else tmp_path / "missing" / "out.json"
        assert main(["contextuality", "--n", "5", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: cannot write {out}: ")
        assert len(captured.err.splitlines()) == 1

    def test_branch_cap_is_too_large(self, monkeypatch, capsys):
        def outgrown(*args, **kwargs):
            raise BranchLimitError("131072 record branches exceed the cap of 65536")

        monkeypatch.setattr(cli, "paradox_report", outgrown)
        assert main(["demo5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("too large: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["demo5", "--tol-alg", "1e-3"],
        ["demo5", "--seed", "4"],
        ["contextuality", "--budget", "3"],
        ["search", "--eps", "1e-3"],
        ["verify-all", "--dim", "9"],
        ["demo5", "--eps", "0"],
        ["search", "--budget", "-1"],
        ["verify-all", "--budget", "-3"],
        ["search", "--n", "5", "--budget", "0"],
    ])
    def test_unread_flags_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestRarePaths:
    @pytest.mark.parametrize("argv, expected", [
        (["contextuality", "--kind", "even", "--n", "5"],
         ("", "usage error: kind 'even' needs even n, got 5\n", 2)),
        (["search", "--n", "8", "--format", "text"],
         ("found a dim-4 realization of the unified 8-cycle behavior "
          "(projector ranks 3,1,3,1,3,1,3,1)\n", "", 0)),
    ], ids=["even-kind-odd-n", "search-text"])
    def test_output_and_exit_code(self, argv, expected):
        assert call(argv) == expected


def call(argv):
    """stdout, stderr and exit code of one in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
    return out.getvalue(), err.getvalue(), code


def fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "cyclectx.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    return proc.stdout, proc.stderr, proc.returncode


class TestRepeatedCalls:
    """The parser and the fixed inputs are built once per process; repeated
    calls must print exactly what the first call and a fresh process print."""

    SEQUENCE = (
        ["demo5", "--format", "json"],
        ["verify-all", "--n-max", "8", "--seed", "1", "--format", "json"],
        ["search", "--n", "7", "--format", "json"],
        ["verify-all", "--n-max", "13"],            # a command's usage error
        ["search", "--n", "4", "--bogus"],          # a parser usage error
        ["demo5", "--format", "text"],
    )

    def test_sequence_is_byte_identical_when_repeated(self):
        first = [call(argv) for argv in self.SEQUENCE]
        assert [code for _, _, code in first] == [0, 0, 0, 2, ("exit", 2), 0]
        assert [call(argv) for argv in self.SEQUENCE] == first

    @pytest.mark.parametrize("argv", [SEQUENCE[0], SEQUENCE[1]])
    def test_in_process_matches_a_fresh_process(self, argv):
        call(argv)
        out, err, code = call(argv)
        assert fresh_process(argv) == (out, err, code)

    def test_parser_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_second_verify_all_builds_no_realization(self, monkeypatch):
        # a realization is validated once, when it is built; no per-call path builds one
        argv = ["verify-all", "--n-max", "10", "--seed", "1", "--format", "json"]
        first = call(argv)
        built = []
        real = QuantumRealization.__post_init__

        def counted(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(QuantumRealization, "__post_init__", counted)
        assert call(argv) == first
        assert first[2] == 0 and built == []

    def test_seed_variable_changes_no_byte(self, monkeypatch):
        # the search's one candidate is deterministic and only --seed is
        # echoed: an environment variable named for the seed is not read
        argvs = (["search", "--n", "5", "--seed", "1", "--format", "json"],
                 ["verify-all", "--n-max", "6", "--seed", "1", "--format", "json"])
        monkeypatch.delenv("CYCLECTX_SEED", raising=False)
        unset = [call(argv) for argv in argvs]
        assert [code for _, _, code in unset] == [0, 0]
        for value in ("9", "x"):
            monkeypatch.setenv("CYCLECTX_SEED", value)
            assert [call(argv) for argv in argvs] == unset
