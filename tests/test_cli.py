import csv
import io
import json
import math
import random
import statistics
import warnings

import mpmath as mp
import numpy as np
import pytest

from thetamod import ClosureReport, VerifierParams, neg_mod_inverse, origin_report, simple_pole_report
from thetamod import TruncationError, cli, residues, theta1_series_info
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
        assert code == 2  # a broken input invariant: the sum is defined on coprime pairs only
        assert "coprime" in err

    def test_multiplier_inversion(self, capsys):
        code, out, _ = run_cli(capsys, "multiplier", "--matrix", "0,-1,1,0")
        assert code == 0
        assert "exp(i pi * 0) = (1+0j)" in out
        assert "exp(i pi * -1/2)" in out

    def test_multiplier_of_translation_and_negative_c(self, capsys):
        # eta's phase d (b + 3)/12 = 1/3 at (1, 1; 0, 1), theta's 3 * 1/3 - 1/2 = 1/2
        code, out, _ = run_cli(capsys, "multiplier", "--matrix", "1,1,0,1", "--format", "json")
        assert code == 0
        row = json.loads(out)["results"][0]
        assert (row["eta_phase"], row["theta_phase"]) == ("1/3", "1/2")
        # c < 0 is a usage error
        code, out, err = run_cli(capsys, "multiplier", "--matrix=0,1,-1,0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "c >= 0" in err

    def test_negative_leading_value_with_equals_sign(self, capsys):
        # "--tau -3.2+1.5i" reads the value as a flag; "--tau=-3.2+1.5i" parses
        assert run_cli(capsys, "eta", "--tau", "-3.2+1.5i")[0] == 2
        code, out, _ = run_cli(capsys, "eta", "--tau=-3.2+1.5i")
        assert code == 0
        assert out.startswith("eta((-3.2+1.5j)) = ")
        code, out, _ = run_cli(capsys, "multiplier", "--matrix=-1,5,0,-1")
        assert code == 0
        assert "exp(i pi * -2/3)" in out  # eta's phase d (b + 3)/12 = -(5 + 3)/12

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
        # the reduction trace is a report field, so every row stays flat
        assert report["reduction"]["matrix"] == [1, 0, 0, 1]
        assert "reduction" not in result

    def test_eval_and_eta_say_when_no_digit_is_certified(self, capsys):
        # the terms cancel by ~30 digits here: 9.29e103 with bound 1.25e125
        code, out, _ = run_cli(capsys, "eval", "--z", "0.3+0.1i", "--tau", "0.1+1e-4i")
        assert code == 0
        assert out.splitlines()[1].startswith("method: reduced")
        assert out.splitlines()[2] == "no digit of the value is certified"
        code, out, _ = run_cli(capsys, "eta", "--tau", "1e3i")  # bound 1.2e-11 on a value of 2e-114
        assert code == 0
        assert out.splitlines()[2:] == ["no digit of the value is certified"]
        # a value its bound resolves gets no such line, and the JSON row keeps its fields
        for argv in (("eval", "--z", "0.2+0i", "--tau", "0.3+0.002i"), ("eta", "--tau", "0+2i")):
            assert "no digit" not in run_cli(capsys, *argv)[1]
        out = run_cli(capsys, "eval", "--z", "0.3+0.1i", "--tau", "0.1+1e-4i", "--format", "json")[1]
        assert list(json.loads(out)["results"][0]) == ["value_re", "value_im", "terms", "err_bound"]

    def test_eval_reduced_path(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--z", "0.2+0i", "--tau", "0.3+0.002i")
        assert code == 0
        assert "method: reduced" in out
        assert "reduction: matrix" in out

    def test_eval_agrees_with_direct_series(self, capsys):
        # points where the direct series needs at most 64 terms, which eval once summed directly
        rng = random.Random(1429)
        checked = 0
        while checked < 200:
            tau = complex(rng.uniform(-1, 1), 10 ** rng.uniform(-2, math.log10(0.3)))
            z = complex(rng.uniform(-1, 1), rng.uniform(-30, 30) * tau.imag)
            try:
                direct = theta1_series_info(z, tau)
            except TruncationError:
                continue
            if direct.terms > 64:
                continue
            code, out, _ = run_cli(capsys, "eval", f"--z={z.real!r}{z.imag:+}i", f"--tau={tau.real!r}{tau.imag:+}i",
                                   "--format", "json")
            assert code == 0
            report = json.loads(out)
            (row,) = report["results"]
            value = complex(row["value_re"], row["value_im"])
            assert abs(value - direct.value) <= row["err_bound"] + direct.error_bound
            assert "method" not in row and "method" not in report["params"]
            checked += 1

    def test_eval_at_huge_even_integer_within_bound(self, capsys):
        # theta1 vanishes at z = 1e200, an even integer; the direct series gave 0.837 with bound 5.6e185
        code, out, _ = run_cli(capsys, "eval", "--z", "1e200+0i", "--tau", "0+1i", "--format", "json")
        assert code == 0
        (row,) = json.loads(out)["results"]
        assert abs(complex(row["value_re"], row["value_im"])) <= row["err_bound"] < 1e-12

    def test_method_option_is_gone(self, capsys):
        assert run_cli(capsys, "eval", "--method", "direct", "--z", "0.3", "--tau", "0+1i")[0] == 2

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

    def test_eta_near_axis_within_bound(self, capsys):
        code, out, _ = run_cli(capsys, "eta", "--tau", "0.3+1e-5i", "--format", "json")
        assert code == 0
        value = json.loads(out)["results"][0]
        with mp.workdps(30):
            oracle = complex(mp.eta(mp.mpc(0.3, 1e-5)))
        assert abs(complex(value["value_re"], value["value_im"]) - oracle) <= value["err_bound"]

    def test_eta_out_of_range_exit_3(self, capsys):
        # the reduced point is 1e300i and the law's factor 1e150: the bound leaves double range
        code, out, err = run_cli(capsys, "eta", "--tau", "0+1e-300i")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_reduce_replay_is_an_independent_check(self, capsys):
        # the inverse replay A^{-1} tau_reduced is not the expression that made tau_reduced
        tau = "1.7170549300777433+0.00014260379061306304i"
        code, out, _ = run_cli(capsys, "reduce", "--tau", tau, "--format", "json")
        assert code == 0
        assert 0.0 < json.loads(out)["results"][0]["replay_residual"] < 1e-12

    def test_reduce_replay_outside_double_range_exit_3(self, capsys):
        # the image 1e308i is right, but the replay's a tau + b with a ~ 1e308 overflows
        code, out, err = run_cli(capsys, "reduce", "--tau", "1e308+1e-308i")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "double range" in err

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
        assert lines[0] == "kind,a,b,c,d,z_re,z_im,tau_re,tau_im,residual"
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

    def test_v_with_an_infinite_reciprocal_exit_two(self, capsys):
        # the swap, the contour vertices +-1/v and the real poles all divide by v
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way to the error
            code, out, err = run_cli(
                capsys,
                "verify-residues",
                "--m", "3", "--k", "2", "--h", "1", "--v", "1e-320", "--z", "0.2+1e-321i",
            )
        assert (code, out) == (2, "")
        assert err.startswith("error: v must be a positive real") and len(err.strip().splitlines()) == 1

    def test_cap_option_is_gone(self, capsys):
        argv = ("verify-residues", "--m", "3", "--k", "2", "--h", "1", "--v", "1.5", "--z", "0.2+0.1i", "--cap", "400")
        assert run_cli(capsys, *argv)[0] == 2

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
        assert abs(report["compact_form_discrepancy"] - 0.5) < 1e-12

    LARGE_RESIDUES = ("verify-residues", "--m", "40", "--k", "1", "--h", "0", "--v", "1.5",
                      "--z", "0.2+0.1i")

    def test_closure_tolerance_is_relative(self, capsys):
        # residues of size ~3e8 leave a closure residual of ~7e-6 (5e-15 relative)
        code, out, _ = run_cli(capsys, *self.LARGE_RESIDUES)
        assert code == 0
        assert "result: PASS" in out

    def test_closure_off_by_1e_6_relative_fails(self, capsys, monkeypatch):
        closure_residual = residues.closure_residual

        def off(params):
            report = closure_residual(params)
            size = sum(abs(e.residue) for e in report.poles)
            return ClosureReport(report.contour + 1e-6 * 2 * math.pi * size, report.residue_sum, report.poles)

        monkeypatch.setattr(residues, "closure_residual", off)
        code, out, _ = run_cli(capsys, *self.LARGE_RESIDUES)
        assert code == 1
        assert "result: FAIL" in out

    @pytest.mark.parametrize("v, code", [("120", 0), ("500", 0)])
    def test_ratio_that_underflows_to_zero(self, capsys, v, code):
        # e^{-2 pi v} is 0 in double precision: the log sums take r = 0.  At v = 500 the swapped
        # ratio e^{-2 pi/500} needs 1513 terms, which each sum takes: the command sets no cap of its own
        argv = ("verify-residues", "--m", "3", "--k", "1", "--h", "0", "--v", v, "--z", "0.2-0.1i", "--format", "json")
        code_out, out, _ = run_cli(capsys, *argv)
        assert code_out == code
        report = json.loads(out)
        assert "cap" not in report["params"]
        assert report["closure_residual"] < 1e-10
        assert report["identity_residual"] < (1e-12 if v == "120" else 1e-11)  # 4.4e-13 at v = 120, 1.3e-12 at 500

    def test_kernel_out_of_range_exit_three(self, capsys):
        # the weighted blocks overflow at v = 0.01: one error line, no numpy warnings
        code, out, err = run_cli(capsys, "verify-residues", "--m", "40", "--k", "7", "--h", "3", "--v", "0.01",
                                 "--z", "0.2-0.001i")
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: eval_kernel at v=0.01, z=(0.2-0.001j)")

    K7_RESIDUES = ("verify-residues", "--m", "10", "--k", "7", "--h", "3", "--v", "1.5",
                   "--z", "0.2+0.1i", "--format", "json")

    def test_each_circle_integrated_once(self, capsys, monkeypatch):
        # 41 closure circles of 64 points plus 4608 contour points; the pole
        # rows reuse the closure's circles instead of integrating them again
        points = []
        kernel = residues.eval_kernel

        def counted(p, x):
            points.append(np.size(x))
            return kernel(p, x)

        monkeypatch.setattr(residues, "eval_kernel", counted)
        code, _, _ = run_cli(capsys, *self.K7_RESIDUES)
        assert code == 0
        assert sum(points) <= 41 * 64 + 4608

    def test_rows_carry_numeric_residues(self, capsys):
        code, out, _ = run_cli(capsys, *self.K7_RESIDUES)
        assert code == 0
        report = json.loads(out)
        params = VerifierParams(h=3, k=7, H=neg_mod_inverse(3, 7), v=1.5, z=0.2 + 0.1j, m=10)
        assert len(report["results"]) == 41
        for row in report["results"]:
            oracle = complex(row["oracle_re"], row["oracle_im"])
            family, n = row["family"], row["n"]
            expected = (origin_report(params) if family == "origin" else simple_pole_report(params, family, n)).oracle
            assert abs(oracle - expected) <= 1e-14 * abs(expected)


class TestSweep:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--count", "3", "--seed", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kind,a,b,c,d,z_re,z_im,tau_re,tau_im,residual"
        assert len(lines) == 7  # three theta rows plus three eta rows

    def test_unreachable_tolerance_lists_both_kinds(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--count", "3", "--tol", "1e-16")
        assert code == 1
        assert "result: FAIL" in out
        for kind in ("theta", "eta"):
            assert f"{kind} median residual:" in out
            assert f"  exceeds tolerance: {kind} A=(" in out

    def test_one_builder_for_both_laws(self, capsys):
        assert cli.COMMANDS["sweep"][0] is cli.COMMANDS["verify-transform"][0]
        reports = {}
        for command in ("verify-transform", "sweep"):
            code, out, _ = run_cli(capsys, command, "--count", "3", "--seed", "4", "--format", "json")
            assert code == 0
            reports[command] = json.loads(out)
        for report in reports.values():
            residuals = [row["residual"] for row in report["results"]]
            assert report["max_residual"] == max(residuals)
            assert report["median_residual"] == statistics.median(residuals)
            assert (report["seed"], report["pass"]) == (4, True)
        # the theta rows of sweep are verify-transform's rows at the same seed
        theta = [row for row in reports["sweep"]["results"] if row["kind"] == "theta"]
        assert theta == reports["verify-transform"]["results"]


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

    @pytest.mark.parametrize("command", [("eval", "--z", "0.3+0.1i", "--tau", "0+1i"), ("eta", "--tau", "0+1i")])
    def test_eval_and_eta_take_the_library_tolerance(self, capsys, command):
        # --tol goes to TruncationControl as given, and only it checks the range: below its 1e-16 floor is a
        # usage error, not a silent 1e-15, and 0.01, above the (0, 1e-3] of the residual thresholds, runs
        for text in ("1e-20", "nan", "1"):
            code, out, err = run_cli(capsys, *command, "--tol", text)
            assert (code, out, err) == (2, "", f"error: tolerance must be in [1e-16, 1), got {float(text)}\n")
        for tol, terms in ((1e-16, 8), (0.01, 2)):  # eval's terms: 1e-15 stops at 6
            code, out, _ = run_cli(capsys, *command, "--tol", str(tol), "--format", "json")
            document = json.loads(out)
            assert code == 0 and document["params"]["tolerance"] == tol
            if command[0] == "eval":
                assert document["results"][0]["terms"] == terms


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
        # every row is flat and carries exactly the header's fields
        assert list(result) == header
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
        argv = ("eval", "--z", "0.3+4i", "--tau", "0.1+0.02i")
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "theta1_fast" in err

    def test_raw_numeric_error_exits_3_without_traceback(self, capsys, monkeypatch):
        def overflow(*args):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli, "theta1_fast_info", overflow)
        code, out, err = run_cli(capsys, "eval", "--z", "0.2", "--tau", "0.3+1e-6i")
        assert code == 3
        assert out == ""
        assert err == "error: OverflowError: math range error\n"

    def test_near_axis_eval_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--z", "0.2+0i", "--tau", "0.3+1e-6i", "--format", "json")
        assert code == 0
        (row,) = json.loads(out)["results"]
        assert math.isfinite(row["value_re"]) and math.isfinite(row["value_im"])
