import json

import pytest

from cyclectx import cli
from cyclectx.cli import main
from cyclectx.ewf import BranchLimitError, CertificateError


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
        # zeros, so they survive a 1e-20 threshold comfortably
        code, _ = run(tmp_path, ["demo5", "--format", "json", "--tol-prob", "1e-20"])
        assert code == 0

    def test_impossible_possibility_threshold_fails(self, tmp_path):
        code, payload = run(tmp_path, ["demo5", "--format", "json", "--eps", "0.9"])
        assert code == 1
        assert json.loads(payload)["verdict"] is False

    def test_byte_stable(self, tmp_path):
        _, a = run(tmp_path, ["demo5", "--format", "json"], "a.json")
        _, b = run(tmp_path, ["demo5", "--format", "json"], "b.json")
        assert a == b

    def test_csv_format(self, tmp_path):
        code, payload = run(tmp_path, ["demo5", "--format", "csv"], "out.csv")
        assert code == 0
        assert payload.splitlines()[0] == "key,value"


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

    def test_uncountable_witness_is_a_usage_error(self, tmp_path, capsys):
        code, payload = run(tmp_path, ["contextuality", "--n", "70", "--format", "json"])
        assert code == 2
        assert payload == ""
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


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
                                       "--budget", "1", "--format", "json"])
        assert code == 0
        doc = json.loads(payload)
        assert doc["success"] is True and doc["dim"] == 3

    def test_dim2_failure(self, tmp_path):
        code, payload = run(tmp_path, ["search", "--n", "5", "--dim", "2",
                                       "--seed", "1", "--budget", "1200",
                                       "--format", "json"])
        assert code == 1
        doc = json.loads(payload)
        assert doc["success"] is False
        assert doc["best_objective"] > 0

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CYCLECTX_SEED", "9")
        _, payload = run(tmp_path, ["search", "--n", "4", "--dim", "4",
                                    "--seed", "1", "--format", "json"])
        assert json.loads(payload)["seed"] == 9

    def test_bad_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CYCLECTX_SEED", "not-a-number")
        assert main(["search", "--n", "4"]) == 2

    @pytest.mark.parametrize("n, dim", [(5, 3), (4, 4)])
    def test_parity_default_dim(self, tmp_path, n, dim):
        code, payload = run(tmp_path, ["search", "--n", str(n), "--format", "json"])
        assert code == 0
        assert json.loads(payload)["dim"] == dim

    def test_nonfinite_objective_is_null_in_json(self, tmp_path):
        # with no iterations the search never evaluates a start
        code, payload = run(tmp_path, ["search", "--n", "5", "--budget", "0",
                                       "--format", "json"])
        assert code == 1
        doc = json.loads(payload)
        assert doc["success"] is False
        assert doc["best_objective"] is None


class TestVerifyAll:
    def test_nmax_guard(self):
        assert main(["verify-all", "--n-max", "13"]) == 2
        assert main(["verify-all", "--n-max", "3"]) == 2

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CYCLECTX_SEED", "3")
        code, payload = run(tmp_path, ["verify-all", "--n-max", "5", "--format", "json"])
        assert code == 0
        assert json.loads(payload)["seed"] == 3

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

    def test_skipped_search_fails_the_run(self, tmp_path):
        code, payload = run(tmp_path, ["verify-all", "--n-max", "6", "--budget", "0",
                                       "--format", "json"])
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


class TestUsage:
    def test_small_n_rejected(self):
        assert main(["contextuality", "--n", "3"]) == 2

    def test_negative_tolerance_rejected(self):
        assert main(["demo5", "--tol-prob", "-1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["search", "--n", "3"],
        ["search", "--seed", "-1"],
        ["verify-all", "--seed", "-1"],
        ["demo5", "--eps", "0"],
        ["search", "--n", "5", "--dim", "1"],
        ["search", "--n", "5", "--dim", "-3"],
        ["search", "--budget", "-1"],
        ["verify-all", "--budget", "-3"],
    ])
    def test_command_checks_are_usage_errors(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")
        assert len(captured.err.splitlines()) == 1

    def test_zero_budget_is_not_a_usage_error(self, capsys):
        # the search runs and finds nothing with no iterations to spend
        assert main(["search", "--n", "5", "--budget", "0"]) == 1
        assert "usage error" not in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tol-prob", "--eps"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_tolerances_rejected(self, flag, value, capsys):
        assert main(["demo5", f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")
        assert len(captured.err.splitlines()) == 1
        assert flag in captured.err and value in captured.err

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
    ])
    def test_unread_flags_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
