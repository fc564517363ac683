import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

from thetamod import ClosureReport, enclosed_poles, numeric_residue
from thetamod import cli
from thetamod.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScalarCommands:
    def test_dedekind_text(self, capsys):
        code, out, _ = run_cli(capsys, "dedekind", "--h", "1", "--k", "3")
        assert code == 0
        assert out.strip() == "1/18"

    def test_dedekind_rejects_non_coprime(self, capsys):
        code, _, err = run_cli(capsys, "dedekind", "--h", "2", "--k", "4")
        assert code == 3  # domain error: the sum is undefined off coprime pairs
        assert "coprime" in err

    def test_multiplier_inversion(self, capsys):
        code, out, _ = run_cli(capsys, "multiplier", "--matrix", "0,-1,1,0")
        assert code == 0
        assert "exp(i pi * 0) = (1+0j)" in out
        assert "exp(i pi * -1/2)" in out

    def test_multiplier_bad_determinant(self, capsys):
        code, _, err = run_cli(capsys, "multiplier", "--matrix", "1,0,0,-1")
        assert code == 2
        assert "determinant" in err

    def test_eval_zero(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--z", "0+0i", "--tau", "0+1i")
        assert code == 0
        assert "theta1" in out and "0j" in out

    def test_eval_json_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--z", "0.3+0i", "--tau", "0+1i", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        result = report["results"][0]
        for field in ("value_re", "value_im", "terms", "err_bound"):
            assert field in result
        assert report["command"] == "eval"
        assert report["version"]

    def test_eval_reduced_path(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--z", "0.2+0i", "--tau", "0.3+0.002i")
        assert code == 0
        assert "method: reduced" in out
        assert "reduction: matrix" in out

    def test_eval_domain_error_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--z", "0+0i", "--tau", "1-1i")
        assert code == 3
        assert "upper half plane" in err

    def test_eval_parse_error_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--z", "zebra", "--tau", "0+1i")
        assert code == 2

    def test_eta_value(self, capsys):
        code, out, _ = run_cli(capsys, "eta", "--tau", "0+2i", "--format", "json")
        assert code == 0
        value = json.loads(out)["results"][0]
        # eta(2i) = Gamma(1/4) / (2^{11/8} pi^{3/4})
        expected = math.gamma(0.25) / (2 ** (11 / 8) * math.pi ** 0.75)
        assert abs(value["value_re"] - expected) < 1e-12
        assert abs(value["value_im"]) < 1e-15

    def test_reduce_replay(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "--tau", "5.3+0.8i", "--format", "json")
        assert code == 0
        result = json.loads(out)["results"][0]
        assert abs(result["tau_re"]) <= 0.5 + 1e-9
        assert math.hypot(result["tau_re"], result["tau_im"]) >= 1 - 1e-9
        assert result["tau_im"] >= 0.8
        assert result["replay_residual"] < 1e-12


class TestVerifyTransform:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-transform", "--count", "20", "--tol", "1e-9", "--seed", "5"
        )
        assert code == 0
        assert "result: PASS" in out

    def test_single_case_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify-transform", "--count", "1", "--seed", "7")
        code2, out2, _ = run_cli(capsys, "verify-transform", "--count", "1", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_unreachable_tolerance_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-transform", "--count", "10", "--tol", "1e-16", "--seed", "3"
        )
        assert code == 1
        assert "result: FAIL" in out
        assert "exceeds tolerance" in out

    def test_csv_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify-transform",
            "--count",
            "3",
            "--seed",
            "11",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "a,b,c,d,z_re,z_im,tau_re,tau_im,residual"
        assert len(lines) == 4

    def test_json_schema_and_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify-transform",
            "--count",
            "3",
            "--seed",
            "11",
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        for key in ("command", "params", "results", "max_residual", "pass", "seed", "version"):
            assert key in report
        # shortest-round-trip float printing: re-serialization is byte-identical
        assert json.dumps(report, indent=2) + "\n" == out

    def test_byte_identical_output(self, capsys):
        args = ("verify-transform", "--count", "4", "--seed", "21", "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestVerifyResidues:
    def test_small_case_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify-residues",
            "--m", "3", "--k", "2", "--h", "1", "--v", "1.5", "--z", "0.2+0.1i",
        )
        assert code == 0
        assert "closure residual" in out
        assert "result: PASS" in out

    def test_gcd_violation_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys,
            "verify-residues",
            "--m", "3", "--k", "2", "--h", "2", "--v", "1.5", "--z", "0.2+0.1i",
        )
        assert code == 2
        assert "coprime" in err

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify-residues",
            "--m", "2", "--k", "3", "--h", "1", "--v", "1.3", "--z", "0.2+0.1i",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["closure_residual"] < 1e-6
        assert report["identity_residual"] < 1e-8
        assert report["params"]["H"] == 2
        families = {row["family"] for row in report["results"]}
        assert families == {"origin", "imag", "real"}

    LARGE_RESIDUES = ("verify-residues", "--m", "40", "--k", "1", "--h", "0", "--v", "1.5",
                      "--z", "0.2+0.1i")

    def test_closure_tolerance_is_relative(self, capsys):
        # residues of size ~3e8 leave a closure residual of ~7e-6 (5e-15 relative)
        code, out, _ = run_cli(capsys, *self.LARGE_RESIDUES)
        assert code == 0
        assert "result: PASS" in out

    def test_closure_off_by_1e_6_relative_fails(self, capsys, monkeypatch):
        closure_residual = cli.closure_residual

        def off(params):
            report = closure_residual(params)
            size = sum(abs(numeric_residue(params, pole)) for *_, pole in enclosed_poles(params))
            return ClosureReport(report.contour + 1e-6 * 2 * math.pi * size, report.residue_sum)

        monkeypatch.setattr(cli, "closure_residual", off)
        code, out, _ = run_cli(capsys, *self.LARGE_RESIDUES)
        assert code == 1
        assert "result: FAIL" in out


class TestSweep:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--count", "3", "--seed", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kind,a,b,c,d,z_re,z_im,tau_re,tau_im,residual"
        assert len(lines) == 7  # three theta rows plus three eta rows


class TestOutputFile:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "dedekind", "--h", "1", "--k", "3", "--format", "json", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        report = json.loads(target.read_text())
        assert report["results"][0]["value"] == "1/18"

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.txt"
        code, out, err = run_cli(capsys, "dedekind", "--h", "1", "--k", "3", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert not target.exists()


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_missing_required(self, capsys):
        assert run_cli(capsys, "eval", "--z", "0+0i")[0] == 2

    def test_out_of_range_tolerance(self, capsys):
        assert run_cli(capsys, "verify-transform", "--count", "1", "--tol", "0.5")[0] == 2


CSV_COMMANDS = [
    ("eval", "--z", "0.3+0i", "--tau", "0+1i"),
    ("eval", "--z", "0.2+0i", "--tau", "0.3+0.002i"),
    ("eta", "--tau", "0+2i"),
    ("reduce", "--tau", "5.3+0.8i"),
    ("multiplier", "--matrix", "0,-1,1,0"),
    ("dedekind", "--h", "1", "--k", "3"),
    ("verify-transform", "--count", "3", "--seed", "11"),
    ("sweep", "--count", "2", "--seed", "2"),
    ("verify-residues", "--m", "2", "--k", "3", "--h", "1", "--v", "1.3", "--z", "0.2+0.1i"),
]


@pytest.mark.parametrize("argv", CSV_COMMANDS, ids=lambda argv: " ".join(argv[:3]))
def test_csv_rows_equal_json_results(capsys, argv):
    code_csv, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    code_json, out_json, _ = run_cli(capsys, *argv, "--format", "json")
    assert code_csv == code_json == 0
    header, *rows = list(csv.reader(io.StringIO(out_csv)))
    results = json.loads(out_json)["results"]
    assert len(rows) == len(results)
    for row, result in zip(rows, results):
        # csv writes str() of each field, the shortest round-trip form for floats
        assert row == [str(result[name]) for name in header]


class TestExitCodes:
    def test_verify_residues_identity_holds_modulo_two_pi_i(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify-residues",
            "--m", "3", "--k", "7", "--h", "3", "--v", "0.8", "--z", "0.35-0.4i",
        )
        assert code == 0
        assert "result: PASS" in out

    def test_direct_series_overflow_exit_3(self, capsys):
        argv = ("eval", "--method", "direct", "--z", "0.3+0.1i", "--tau", "0.1+0.0001i")
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "theta1_fast" in err

    def test_raw_numeric_error_exits_3_without_traceback(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-m", "thetamod.cli", "eval", "--z", "0.2+0i", "--tau", "0.3+1e-6i"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.strip().splitlines()) == 1
