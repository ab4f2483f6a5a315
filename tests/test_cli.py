"""Command-line interface: output formats, exit codes, determinism."""

import argparse
import json
import math

import pytest

from revolve.cli import main

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

    def test_bad_interval_exit_code(self, capsys):
        code, _, err = run_cli(capsys, [
            "volume", "--curve", "x", "--interval", "2", "1"])
        assert code == 1
        assert "lo < hi" in err

    def test_unconverged_quadrature_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, [
            "volume", "--curve", "sin(100*y)", "--var", "y",
            "--interval", "0", "1", "--axis", "y", "--method", "disk",
            "--max-depth", "1", "--json"])
        assert code == 3
        payload = json.loads(out)
        assert any(w.startswith("quadrature-not-converged")
                   for w in payload["warnings"])


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


class TestEnvironmentDefaultTolerance:
    ARGS = ["volume", "--curve", "sin(100*y)", "--var", "y",
            "--interval", "0", "1", "--axis", "y", "--method", "disk",
            "--max-depth", "1"]

    def test_loose_env_tolerance_converges(self, capsys, monkeypatch):
        monkeypatch.setenv("REVOLVE_DEFAULT_TOL", "1e6")
        code, _, _ = run_cli(capsys, self.ARGS)
        assert code == 0

    def test_explicit_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REVOLVE_DEFAULT_TOL", "1e6")
        code, _, _ = run_cli(capsys, self.ARGS + ["--rel-tol", "1e-10"])
        assert code == 3

    def test_invalid_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("REVOLVE_DEFAULT_TOL", "soon")
        code, _, err = run_cli(capsys, self.ARGS)
        assert code == 1
        assert_one_error_line(err)
