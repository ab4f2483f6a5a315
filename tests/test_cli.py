"""Command-line interface: output formats, exit codes, determinism."""

import argparse
import json
import math
import tracemalloc

import pytest

import revolve.cli
import revolve.volume
from revolve.cli import main
from revolve.errors import RevolveError
from revolve.expr import bind, differentiate, the_variable
from revolve.monotone import (RULE_NOT_MONOTONE, AlternationViolationError,
                              HypothesisReport, PreconditionViolatedError)
from revolve.numerics import (MaxIterationsExceededError, NoSignChangeError,
                              NonFiniteEvaluationError)
from revolve.volume import (HypothesisViolationError, NegativeCurveError,
                            NotInvertibleError, NotMonotoneError)

PI = math.pi


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


VOLUME_ARGS = ["volume", "--curve", "x/pi + sin(x)", "--var", "x",
               "--interval", "0", "2*pi", "--axis", "y", "--method", "all"]


class TestVolume:
    def test_example_json_report(self, capsys):
        code, out, _ = run_cli(capsys, VOLUME_ARGS + ["--json"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload.keys()) == {
            "value", "method", "sign_factor", "error_estimate",
            "partition", "cross_checks", "warnings",
        }
        assert payload["value"] == pytest.approx(122.161822, abs=1e-5)
        assert payload["method"] == "theorem2"
        assert payload["sign_factor"] == 1
        assert payload["partition"]["directions"] == [
            "increasing", "decreasing", "increasing"]
        assert payload["warnings"] == []
        for row in payload["cross_checks"]:
            assert row["delta"] <= 1e-9 * payload["value"]

    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, VOLUME_ARGS)
        assert code == 0
        assert "value: 122.161822085" in out
        assert "sign_factor: +1" in out
        assert "cross_checks:" in out

    def test_json_is_byte_identical_across_runs(self, capsys):
        _, first, _ = run_cli(capsys, VOLUME_ARGS + ["--json"])
        _, second, _ = run_cli(capsys, VOLUME_ARGS + ["--json"])
        assert first == second

    def test_single_method(self, capsys):
        code, out, _ = run_cli(capsys, [
            "volume", "--curve", "x", "--interval", "1", "2",
            "--method", "theorem1", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(7 * PI / 3, rel=1e-10)
        assert payload["cross_checks"] == []
        assert payload["partition"] is None

    def test_kepler_curve_via_parameters(self, capsys):
        code, out, _ = run_cli(capsys, [
            "volume", "--curve", "y - eps*sin(y)", "--var", "y",
            "--interval", "0", "2*pi", "--axis", "x", "--method", "theorem3",
            "--param", "eps=0.5", "--json"])
        assert code == 0
        payload = json.loads(out)
        expected = 8 * PI ** 4 / 3 - 2 * PI ** 2
        assert payload["value"] == pytest.approx(expected, rel=1e-9)

    def test_hypothesis_violation_exit_code(self, capsys):
        code, _, err = run_cli(capsys, [
            "volume", "--curve", "1 + sin(x)", "--interval", "0", "3*pi/2",
            "--method", "theorem2"])
        assert code == 2
        assert "multiple-intersection" in err

    @pytest.mark.parametrize("curve, hi", [("(x-1)^2 + 1", "2"),
                                           ("2 + 0*x", "1")])
    @pytest.mark.parametrize("frame", [[], ["--axis", "x", "--role", "x-of-y"]])
    def test_disk_refuses_a_non_monotone_curve(self, capsys, curve, hi, frame):
        # equal end values leave no inverse: a hypothesis refusal, not the
        # usage error the empty value range [2, 2] once gave
        code, out, err = run_cli(capsys, [
            "volume", "--curve", curve, "--interval", "0", hi,
            "--method", "disk", *frame])
        assert (code, out) == (2, "")
        assert err == "error: curve is not strictly monotone on its interval\n"

    @pytest.mark.parametrize("argv, code, message", [
        (["--curve", "2 + 0*x", "--interval", "0", "1", "--method", "theorem1"],
         2, "endpoint values are equal"),
        (["--curve", "x", "--interval", "0", "1", "--csv", "P",
          "--samples", "0"],
         1, "--samples must be at least 1"),
        (["--curve", "x", "--interval", "0", "1e999"],
         1, "interval bound '1e999' is not finite"),
    ])
    def test_refusal_prints_one_line(self, capsys, monkeypatch, tmp_path,
                                     argv, code, message):
        monkeypatch.chdir(tmp_path)  # where a CSV would land
        assert run_cli(capsys, ["volume", *argv]) == (
            code, "", f"error: {message}\n")

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, [
            "volume", "--curve", "x + + 2", "--interval", "0", "1"])
        assert code == 1
        assert "offset 4" in err

    def test_unknown_option_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, VOLUME_ARGS + ["--bogus"])
        assert code == 1

    @pytest.mark.parametrize("extra", [
        ["--param", "foo"],
        ["--param", "eps=abc"],
        ["--rel-tol", "-1"],
        # an infinite tolerance used to pass as a hypothesis violation
        ["--rel-tol", "inf"],
        ["--residual-tol", "inf", "--method", "disk"],
        # a non-finite parameter is rejected before it reaches the numerics
        ["--param", "eps=nan"],
        ["--param", "eps=inf"],
    ])
    def test_bad_parameter_or_tolerance_prints_one_error_line(self, capsys, extra):
        code, _, err = run_cli(capsys, VOLUME_ARGS + extra)
        assert code == 1
        assert_one_error_line(err)

    @pytest.mark.parametrize("bounds", [["2", "1"], ["1", "1"]])
    def test_bad_interval_exit_code(self, capsys, bounds):
        code, _, err = run_cli(capsys, [
            "volume", "--curve", "x", "--interval", *bounds])
        assert code == 1
        assert err.startswith("error: interval bounds must satisfy lo < hi")

    @pytest.mark.parametrize("pair", ["foo", "=1"])
    def test_parameter_binding_needs_a_name_and_an_equals_sign(self, capsys,
                                                               pair):
        code, _, err = run_cli(capsys, VOLUME_ARGS + ["--param", pair])
        assert code == 1
        assert err == f"error: parameter binding must be NAME=VALUE: {pair!r}\n"

    @pytest.mark.parametrize("frame", [
        ["--method", "all"],
        ["--method", "theorem1"],
        ["--method", "theorem2"],
        ["--method", "all", "--axis", "x", "--role", "x-of-y"],
        ["--method", "theorem3", "--axis", "x", "--role", "x-of-y"],
        ["--method", "piecewise"],
        ["--method", "piecewise", "--axis", "x", "--role", "x-of-y"],
        ["--method", "shell"],
    ])
    def test_negative_interval_has_one_refusal(self, capsys, monkeypatch,
                                               frame):
        # every boundary-term route refuses it with the same line, shell
        # quadrature with its own, and before the curve is compiled
        def compiled(*args, **kwargs):
            raise AssertionError("the curve was compiled before the refusal")

        monkeypatch.setattr(revolve.volume, "bind", compiled)
        monkeypatch.setattr(revolve.volume, "differentiate", compiled)
        what = ("shell quadrature" if "shell" in frame
                else "the boundary-term formula")
        code, out, err = run_cli(capsys, [
            "volume", "--curve", "x", "--interval", "-1", "1", *frame])
        assert (code, out) == (1, "")
        assert err == f"error: {what} requires an interval within [0, inf)\n"

    def test_non_finite_shell_integrand_exit_code(self, capsys):
        # x*f(x) overflows at the first panel node, the center of [0, 10]
        code, out, err = run_cli(capsys, [
            "volume", "--curve", "1e308*x*x", "--interval", "0", "10",
            "--method", "shell", "--json"])
        assert (code, out) == (3, "")
        assert err == "error: non-finite evaluation f(5.0) = inf\n"

    def test_unconverged_quadrature_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, [
            "volume", "--curve", "sin(100*y)", "--var", "y",
            "--interval", "0", "1", "--axis", "y", "--method", "disk",
            "--max-depth", "1", "--json"])
        assert code == 3
        payload = json.loads(out)
        assert any(w.startswith("quadrature-not-converged")
                   for w in payload["warnings"])


VIOLATED = HypothesisReport(
    False, 0.0, 1.0, (("multiple-intersection", 0.5), ("negative-value", 1.25)))


# (error raised by solve, exit code, lines after the error line)
SOLVE_ERRORS = [
    (HypothesisViolationError(VIOLATED), 2,
     "  multiple-intersection at 0.5\n  negative-value at 1.25\n"),
    (NotMonotoneError("endpoint values are equal"), 2, ""),
    (NotInvertibleError("curve is not strictly monotone"), 2, ""),
    (NegativeCurveError(0.5, -1.0), 2, ""),
    (AlternationViolationError("piece [0.0, 1.0] is not strictly monotone",
                               RULE_NOT_MONOTONE), 2, ""),
    (PreconditionViolatedError("endpoint values must differ"), 2, ""),
    (MaxIterationsExceededError("no convergence in 3 iterations"), 3, ""),
    (NoSignChangeError("bracket [0.0, 1.0] has no sign change"), 3, ""),
    (NonFiniteEvaluationError(5.0, math.inf), 3, ""),
    (RevolveError("a numeric failure"), 3, ""),
]


class TestExitCodes:
    """Each error class ``main`` maps, through its one table: the exit
    code, no output, and one ``error:`` line, followed by the violations
    of a ``HypothesisViolationError``."""

    @pytest.mark.parametrize("argv, message", [
        (["--curve", "x", "--param", "=1"],
         "parameter binding must be NAME=VALUE: '=1'"),
        (["--curve", "x", "--abs-tol", "0"],
         "abs_tol must be strictly positive and finite"),
        (["--curve", "x", "--csv", "missing/out.csv"],
         "[Errno 2] No such file or directory: 'missing/out.csv.partial'"),
        (["--curve", "x +"], "unexpected end of input at offset 3"),
    ], ids=["_UsageError", "ValueError", "OSError", "ExpressionError"])
    def test_input_error_exits_1(self, capsys, monkeypatch, tmp_path, argv,
                                 message):
        monkeypatch.chdir(tmp_path)  # with no directory "missing"
        code, out, err = run_cli(capsys, ["volume", *argv, "--interval", "0", "1"])
        assert (code, out) == (1, "")
        assert_one_error_line(err)
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("error, code, violations", SOLVE_ERRORS,
                             ids=[type(row[0]).__name__ for row in SOLVE_ERRORS])
    def test_solve_error_exit_code(self, capsys, monkeypatch, error, code,
                                   violations):
        def failing(problem):
            raise error

        monkeypatch.setattr(revolve.cli, "solve", failing)
        assert run_cli(capsys, ["volume", "--curve", "x", "--interval", "0", "1"]
                       ) == (code, "", f"error: {error}\n{violations}")

    def test_other_errors_propagate(self, capsys, monkeypatch):
        # a TypeError is a fault of the program, not of its input
        def failing(problem):
            raise TypeError("a fault")

        monkeypatch.setattr(revolve.cli, "solve", failing)
        with pytest.raises(TypeError, match="a fault"):
            main(["volume", "--curve", "x", "--interval", "0", "1"])
        assert capsys.readouterr() == ("", "")


class TestCsvExport:
    def test_row_count_and_format(self, capsys, tmp_path):
        path = tmp_path / "samples.csv"
        code, _, _ = run_cli(capsys, [
            "volume", "--curve", "x/pi + sin(x)", "--interval", "0", "2*pi",
            "--csv", str(path), "--samples", "16"])
        assert code == 0
        rows = path.read_text().strip().split("\n")
        assert len(rows) == 17
        xs, ys = [], []
        for row in rows:
            x_text, y_text = row.split(",")
            xs.append(float(x_text))
            ys.append(float(y_text))
        assert xs[0] == 0.0
        assert xs[-1] == pytest.approx(2 * PI, rel=1e-14)
        step = 2 * PI / 16
        for i, (x, y) in enumerate(zip(xs, ys)):
            assert x == pytest.approx(i * step, rel=1e-12, abs=1e-12)
            assert y == pytest.approx(x / PI + math.sin(x), rel=1e-12, abs=1e-12)

    def test_fifteen_significant_digits(self, capsys, tmp_path):
        path = tmp_path / "samples.csv"
        run_cli(capsys, [
            "volume", "--curve", "x/pi + sin(x)", "--interval", "0", "2*pi",
            "--csv", str(path), "--samples", "4"])
        final_x = path.read_text().strip().split("\n")[-1].split(",")[0]
        assert final_x == f"{2 * PI:.15g}"

    def test_one_sample_is_the_least(self, capsys, tmp_path):
        path = tmp_path / "samples.csv"
        argv = ["partition", "--curve", "x", "--interval", "0", "1",
                "--csv", str(path), "--samples"]
        assert run_cli(capsys, [*argv, "1"])[0] == 0
        assert path.read_text() == "0,0\n1,1\n"
        code, _, err = run_cli(capsys, [*argv, "0"])
        assert (code, err) == (1, "error: --samples must be at least 1\n")

    def test_failed_evaluation_leaves_no_file(self, capsys, tmp_path):
        # the third of five samples, x = 1.5, divides by zero
        path = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, [
            "volume", "--curve", "1/(x-1.5)", "--interval", "1", "2",
            "--csv", str(path), "--samples", "4", "--method", "shell"])
        assert (code, out, err) == (1, "", "error: division by zero\n")
        assert not path.exists()

    def test_failed_export_keeps_an_existing_file(self, capsys, tmp_path):
        # the rows stream into out.csv.partial, which only a complete
        # export renames onto out.csv
        path = tmp_path / "out.csv"
        path.write_text("kept\n")
        code, _, _ = run_cli(capsys, [
            "volume", "--curve", "1/(x-1.5)", "--interval", "1", "2",
            "--csv", str(path), "--samples", "4", "--method", "shell"])
        assert code == 1
        assert path.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_export_streams_its_rows(self, capsys, tmp_path):
        # building every row before opening the file traced a 15 MB peak
        path = tmp_path / "samples.csv"
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, [
                "partition", "--curve", "x", "--interval", "0", "1",
                "--csv", str(path), "--samples", "200000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 2_000_000, peak
        with path.open() as handle:
            assert sum(1 for _ in handle) == 200_001
        assert [p.name for p in tmp_path.iterdir()] == ["samples.csv"]


# the Tolerances fields, as flags, that each subcommand reads: only volume
# integrates, Brent and its root deduplication read no rel_tol, and kepler's
# newton_solve reads residual_tol and max_iter
TOLERANCE_FLAGS = {
    "volume": ("--abs-tol", "--rel-tol", "--residual-tol", "--max-depth",
               "--max-iter"),
    "verify": ("--abs-tol", "--rel-tol", "--residual-tol", "--max-iter"),
    "partition": ("--abs-tol", "--residual-tol", "--max-iter"),
    "kepler": ("--residual-tol", "--max-iter"),
}
SUBCOMMAND_ARGS = {
    "volume": VOLUME_ARGS,
    "verify": ["verify", "--curve", "x", "--interval", "1", "2"],
    "partition": ["partition", "--curve", "x", "--interval", "1", "2"],
    "kepler": ["kepler", "--eps", "0.5", "--invert", "1"],
}


class TestToleranceFlags:
    @pytest.mark.parametrize("sub, flag", [
        (sub, flag) for sub, flags in TOLERANCE_FLAGS.items() for flag in flags])
    def test_offered_flag_reaches_the_tolerances(self, capsys, sub, flag):
        # 0 is out of range for every field, so Tolerances refuses it
        field = flag[2:].replace("-", "_")
        code, out, err = run_cli(capsys, [*SUBCOMMAND_ARGS[sub], flag, "0"])
        assert (code, out) == (1, "")
        assert_one_error_line(err)
        assert err.startswith(f"error: {field} must be")

    @pytest.mark.parametrize("sub, flag", [
        (sub, flag) for sub, flags in TOLERANCE_FLAGS.items()
        for flag in TOLERANCE_FLAGS["volume"] if flag not in flags])
    def test_unread_flag_is_a_usage_error(self, capsys, sub, flag):
        code, out, err = run_cli(capsys, [*SUBCOMMAND_ARGS[sub], flag, "1e-9"])
        assert (code, out) == (1, "")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [
            f"revolve: error: unrecognized arguments: {flag} 1e-9"], err


class TestPartition:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, [
            "partition", "--curve", "x/pi + sin(x)", "--interval", "0", "2*pi"])
        assert code == 0
        assert "increasing, decreasing, increasing" in out
        assert "parity: True" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, [
            "partition", "--curve", "x/pi + sin(x)", "--interval", "0", "2*pi",
            "--json"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["breakpoints"]) == 4
        assert payload["parity"]["verdict"] is True

    def test_parity_precondition_reported(self, capsys):
        code, out, _ = run_cli(capsys, [
            "partition", "--curve", "1 + sin(x)", "--interval", "0", "3*pi/2",
            "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["parity"]["verdict"] is None
        assert "precondition" in payload["parity"]["detail"]


class TestVerify:
    def test_non_finite_parameter_is_a_usage_error(self, capsys):
        # NaN would otherwise pass every comparison-based rule unnoticed
        code, out, err = run_cli(capsys, [
            "verify", "--curve", "x+eps", "--param", "eps=nan",
            "--interval", "1", "2"])
        assert code == 1 and out == ""
        assert_one_error_line(err)

    def test_violation_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, [
            "verify", "--curve", "1 + sin(x)", "--interval", "0", "3*pi/2"])
        assert code == 2
        assert "multiple-intersection" in out

    def test_satisfied(self, capsys):
        code, out, _ = run_cli(capsys, [
            "verify", "--curve", "x/pi + sin(x)", "--interval", "0", "2*pi",
            "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["satisfied"] is True
        assert payload["c"] == pytest.approx(0.0, abs=1e-12)
        assert payload["d"] == pytest.approx(2.0, abs=1e-12)
        assert payload["violations"] == []


@pytest.mark.parametrize("argv", [
    VOLUME_ARGS,
    ["partition", "--curve", "x/pi + sin(x)", "--interval", "0", "2*pi"],
    ["verify", "--curve", "x/pi + sin(x)", "--interval", "0", "2*pi"],
    ["partition", "--curve", "x/pi + sin(x)", "--interval", "0", "2*pi",
     "--csv", "{csv}"],
    ["verify", "--curve", "x/pi + sin(x)", "--interval", "0", "2*pi",
     "--csv", "{csv}"],
])
def test_one_derivation_per_command(capsys, monkeypatch, tmp_path, argv):
    # the variable is resolved once, and f and f' are differentiated once
    # each, as in solve; partition and verify write --csv from the f they
    # compiled, and bind f and f' once each
    argv = [arg.format(csv=tmp_path / "samples.csv") for arg in argv]
    calls = []

    def counted(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    monkeypatch.setattr(revolve.volume, "the_variable",
                        counted("the_variable", the_variable))
    monkeypatch.setattr(revolve.volume, "differentiate",
                        counted("differentiate", differentiate))
    monkeypatch.setattr(revolve.volume, "bind", counted("bind", bind))
    assert run_cli(capsys, argv)[0] == 0
    assert sorted(calls) == ["bind", "bind", "differentiate", "differentiate",
                             "the_variable"]


class TestConstantCurve:
    # a variable-free curve is analysed as the constant function it is; its
    # one piece is not strictly monotone, which is not an alternation fault
    @pytest.mark.parametrize("subcommand, expected", [
        ("partition", "error: piece [0.0, 1.0] is not strictly monotone\n"),
        ("verify", "  endpoints-equal at 0\n  not-strictly-monotone at 0\n"),
    ])
    def test_matches_zero_slope_curve(self, capsys, subcommand, expected):
        bare, zero_slope = (
            run_cli(capsys, [subcommand, "--curve", text, "--interval", "0", "1"])
            for text in ("2", "2 + 0*x"))
        assert bare == zero_slope
        code, out, err = bare
        assert code == 2 and expected in out + err


class TestKepler:
    def test_invert(self, capsys):
        code, out, _ = run_cli(capsys, ["kepler", "--eps", "0.5",
                                        "--invert", "1"])
        assert code == 0
        assert "inverse(1) = 1.49870113352" in out
        assert "reference_volumes" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, [
            "kepler", "--eps", "0.5", "--forward", "1.5707963267948966",
            "--invert", "1", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["forward"]["x"] == pytest.approx(PI / 2 - 0.5)
        assert payload["inverse"]["y"] == pytest.approx(1.4987, abs=1e-4)
        assert abs(payload["inverse"]["residual"]) <= 1e-12
        assert payload["reference_volumes"]["v_y"] == \
            pytest.approx(281.964186, abs=1e-6)

    def test_bad_eccentricity(self, capsys):
        code, _, err = run_cli(capsys, ["kepler", "--eps", "1.5"])
        assert code == 1
        assert "eccentricity" in err

    def test_bad_tolerance_prints_one_error_line(self, capsys):
        code, _, err = run_cli(capsys, ["kepler", "--eps", "0.5", "--max-iter", "0"])
        assert code == 1
        assert_one_error_line(err)

    @pytest.mark.parametrize("flag", ["--forward", "--invert"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_is_a_usage_error(self, capsys, flag, value):
        # NaN printed as JSON NaN, inf failed inside math, and the inverse
        # of NaN blamed its bracket
        code, out, err = run_cli(capsys, [
            "kepler", "--eps", "0.5", f"{flag}={value}", "--json"])
        assert code == 1 and out == ""
        assert_one_error_line(err)
        assert flag in err and "not finite" in err


class TestDashValues:
    """Values that begin with a dash: argparse used to read "-pi" or
    "-1e-3" as an unknown option and print a usage error."""

    @pytest.mark.parametrize("text, value", [
        ("-pi", -PI),
        ("-1e-3", -1e-3),
        ("-2*pi", -2 * PI),
        ("-(1/2)", -0.5),
        ("-sqrt(2)", -math.sqrt(2)),
    ])
    def test_expression_lower_bound(self, capsys, text, value):
        code, out, err = run_cli(capsys, [
            "partition", "--curve", "x", "--interval", text, "1", "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["breakpoints"] == [value, 1.0]

    def test_verify_over_minus_pi_to_pi(self, capsys):
        code, out, err = run_cli(capsys, [
            "verify", "--curve", "x^2+1", "--interval", "-pi", "pi"])
        assert (code, err) == (2, "")
        assert out.startswith("satisfied: False\nc: 10.8696044011\n")
        assert "endpoints-equal at -3.14159265359" in out

    def test_negative_curve(self, capsys):
        code, out, _ = run_cli(capsys, [
            "partition", "--curve", "-x", "--interval", "0", "1", "--json"])
        assert code == 0
        assert json.loads(out)["directions"] == ["decreasing"]

    @pytest.mark.parametrize("flag, key, field", [
        ("--invert", "inverse", "x"),
        ("--forward", "forward", "y"),
    ])
    def test_kepler_negative_argument(self, capsys, flag, key, field):
        code, out, err = run_cli(capsys, [
            "kepler", "--eps", "0.5", flag, "-1e-3", "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out)[key][field] == -1e-3

    def test_help_and_unknown_options_are_unchanged(self, capsys):
        # the fix swaps argparse's private negative-number matcher; if a
        # Python renames it, this fails instead of the bug returning quietly
        assert hasattr(argparse.ArgumentParser(), "_negative_number_matcher")
        with pytest.raises(SystemExit) as caught:
            main(["volume", "-h"])
        assert caught.value.code == 0
        assert capsys.readouterr().out.startswith("usage: revolve volume [-h]")
        code, _, err = run_cli(capsys, VOLUME_ARGS + ["--interval", "--bogus"])
        assert code == 1
        assert err.endswith("error: argument --interval: expected 2 arguments\n")
