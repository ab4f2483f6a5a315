"""Volume methods against closed forms and against each other."""

import math
import random

import pytest

import revolve.monotone
import revolve.volume
from revolve.expr import BinOp, Const, bind, parse
from revolve.kepler import KeplerCurve, reference_volumes
from revolve.monotone import AlternationViolationError, partition
from revolve.numerics import Interval, newton_solve
from revolve.volume import (
    AXIS_X,
    AXIS_Y,
    ROLE_X_OF_Y,
    ROLE_Y_OF_X,
    HypothesisViolationError,
    NegativeCurveError,
    NotInvertibleError,
    NotMonotoneError,
    VolumeProblem,
    VolumeReport,
    cross_validate,
    disk_volume_x_axis,
    disk_volume_y_axis,
    piecewise_signed_sum,
    shell_volume,
    solve,
    theorem1_x,
    theorem1_y,
    theorem2_y,
    theorem3_x,
)
from corpus import compiled

PI = math.pi
TWO_PI = 2.0 * math.pi
FULL = Interval(0.0, TWO_PI)

RAMP_WAVE = parse("x/pi + sin(x)", variable="x")
MIRROR_WAVE = parse("2 - x/pi - sin(x)", variable="x")
WAVE_OF_Y = parse("y/pi + sin(y)", variable="y")
LINE = parse("x", variable="x")
FALLING = parse("3 - x", variable="x")
SQUARE = parse("x^2", variable="x")
SHIFTED_WAVE = parse("1 + sin(x)", variable="x")

RAMP_WAVE_VOLUME = 8.0 * PI ** 3 / 3.0 + 4.0 * PI ** 2

KEPLER = KeplerCurve(0.5)
KEPLER_EXPR, KEPLER_PARAMS = KEPLER.as_expression()


class TestShellVolume:
    def test_unit_height_cylinder(self):
        report = shell_volume(parse("1"), Interval(0.0, 2.0))
        assert report.value == pytest.approx(4.0 * PI, rel=1e-12)
        assert report.sign_factor == 1

    def test_under_line_about_perpendicular_axis(self):
        report = shell_volume(LINE, Interval(0.0, 1.0))
        assert report.value == pytest.approx(2.0 * PI / 3.0, rel=1e-12)

    def test_ramp_plus_wave(self):
        # 2*pi * Int x*(x/pi + sin x) dx = 16*pi^3/3 - 4*pi^2, from the
        # antiderivative x^3/(3*pi) + sin x - x cos x
        expected = 16.0 * PI ** 3 / 3.0 - 4.0 * PI ** 2
        report = shell_volume(RAMP_WAVE, FULL)
        assert report.value == pytest.approx(expected, rel=1e-12)

    def test_negative_curve_rejected(self):
        with pytest.raises(NegativeCurveError):
            shell_volume(parse("sin(x)", variable="x"), FULL)

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            shell_volume(LINE, Interval(-1.0, 1.0))


class TestDiskVolumeYAxis:
    def test_straight_line_profile(self):
        report = disk_volume_y_axis(parse("y", variable="y"), ROLE_X_OF_Y,
                                    0.0, TWO_PI)
        assert report.value == pytest.approx(8.0 * PI ** 4 / 3.0, rel=1e-12)

    def test_kepler_profile(self):
        expected = 8.0 * PI ** 4 / 3.0 + 2.25 * PI ** 2
        report = disk_volume_y_axis(KEPLER_EXPR, ROLE_X_OF_Y, 0.0, TWO_PI,
                                    parameters=KEPLER_PARAMS)
        assert report.value == pytest.approx(expected, rel=1e-10)

    def test_inverted_line(self):
        report = disk_volume_y_axis(LINE, ROLE_Y_OF_X, 1.0, 2.0,
                                    x_interval=Interval(1.0, 2.0))
        assert report.value == pytest.approx(7.0 * PI / 3.0, rel=1e-10)

    def test_non_monotone_curve_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            disk_volume_y_axis(RAMP_WAVE, ROLE_Y_OF_X, 0.0, 2.0, x_interval=FULL)

    def test_inversion_needs_the_interval(self):
        with pytest.raises(ValueError):
            disk_volume_y_axis(LINE, ROLE_Y_OF_X, 1.0, 2.0)

    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            disk_volume_y_axis(parse("y", variable="y"), ROLE_X_OF_Y, 2.0, 1.0)


class TestDiskVolumeXAxis:
    def test_direct_profile(self):
        report = disk_volume_x_axis(LINE, ROLE_Y_OF_X, 0.0, 1.0)
        assert report.value == pytest.approx(PI / 3.0, rel=1e-12)

    def test_kepler_inverted_profile(self):
        expected = 8.0 * PI ** 4 / 3.0 - 2.0 * PI ** 2
        report = disk_volume_x_axis(KEPLER_EXPR, ROLE_X_OF_Y, 0.0, TWO_PI,
                                    parameters=KEPLER_PARAMS, y_interval=FULL)
        assert report.value == pytest.approx(expected, rel=1e-8)


class TestTheorem1:
    def test_increasing_line(self):
        report = theorem1_y(LINE, Interval(1.0, 2.0))
        assert report.value == pytest.approx(7.0 * PI / 3.0, rel=1e-12)
        assert report.sign_factor == 1

    def test_decreasing_line_same_volume(self):
        report = theorem1_y(FALLING, Interval(1.0, 2.0))
        assert report.value == pytest.approx(7.0 * PI / 3.0, rel=1e-12)
        assert report.sign_factor == -1

    def test_square(self):
        report = theorem1_y(SQUARE, Interval(1.0, 2.0))
        assert report.value == pytest.approx(15.0 * PI / 2.0, rel=1e-12)

    def test_matches_disk_on_the_inverse(self):
        formula = theorem1_y(SQUARE, Interval(1.0, 2.0))
        disk = disk_volume_y_axis(SQUARE, ROLE_Y_OF_X, 1.0, 4.0,
                                  x_interval=Interval(1.0, 2.0))
        assert formula.value == pytest.approx(disk.value, rel=1e-9)

    def test_non_monotone_rejected(self):
        with pytest.raises(NotMonotoneError):
            theorem1_y(RAMP_WAVE, FULL)

    def test_negative_curve_rejected(self):
        with pytest.raises(NegativeCurveError):
            theorem1_y(parse("x - 2", variable="x"), Interval(0.0, 1.0))

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            theorem1_y(LINE, Interval(-0.5, 1.0))

    def test_x_axis_kepler(self):
        expected = 8.0 * PI ** 4 / 3.0 - 2.0 * PI ** 2
        report = theorem1_x(KEPLER_EXPR, FULL, parameters=KEPLER_PARAMS)
        assert report.value == pytest.approx(expected, rel=1e-10)
        assert report.sign_factor == 1

    def test_x_axis_cone(self):
        report = theorem1_x(parse("y", variable="y"), Interval(0.0, 1.0))
        assert report.value == pytest.approx(PI / 3.0, rel=1e-12)

    def test_x_axis_reflected_cone(self):
        report = theorem1_x(parse("1 - y", variable="y"), Interval(0.0, 1.0))
        assert report.value == pytest.approx(PI / 3.0, rel=1e-12)
        assert report.sign_factor == -1


class TestTheorem2:
    def test_ramp_plus_wave(self):
        report = theorem2_y(RAMP_WAVE, FULL)
        assert report.value == pytest.approx(RAMP_WAVE_VOLUME, rel=1e-12)
        assert report.sign_factor == 1
        assert report.partition is not None
        assert report.partition.interior_count == 2

    def test_degenerates_to_single_piece_formula_bitwise(self):
        one = theorem1_y(LINE, Interval(1.0, 2.0))
        two = theorem2_y(LINE, Interval(1.0, 2.0))
        assert two.value == one.value

    def test_decreasing_mirror(self):
        report = theorem2_y(MIRROR_WAVE, FULL)
        assert report.value == pytest.approx(RAMP_WAVE_VOLUME, rel=1e-10)
        assert report.sign_factor == -1

    def test_hypothesis_violation_carries_report(self):
        with pytest.raises(HypothesisViolationError) as excinfo:
            theorem2_y(SHIFTED_WAVE, Interval(0.0, 1.5 * PI))
        assert excinfo.value.report.violations

    def test_equal_endpoint_values_refused(self):
        # sin has equal endpoint values on [0, pi]; the region's top and
        # bottom boundaries would coincide
        with pytest.raises(HypothesisViolationError):
            theorem2_y(parse("sin(x)", variable="x"), Interval(0.0, PI))


class TestTheorem3:
    def test_wave_of_y(self):
        report = theorem3_x(WAVE_OF_Y, FULL)
        assert report.value == pytest.approx(RAMP_WAVE_VOLUME, rel=1e-10)

    def test_cone(self):
        report = theorem3_x(parse("y", variable="y"), Interval(0.0, 1.0))
        assert report.value == pytest.approx(PI / 3.0, rel=1e-12)

    def test_shifted_wave_violation(self):
        with pytest.raises(HypothesisViolationError):
            theorem3_x(parse("1 + sin(y)", variable="y"),
                       Interval(0.0, 1.5 * PI))


class TestPiecewiseSignedSum:
    def test_ramp_plus_wave_matches_formula(self):
        part = partition(*compiled(RAMP_WAVE), FULL)
        report = piecewise_signed_sum(RAMP_WAVE, part)
        formula = theorem2_y(RAMP_WAVE, FULL)
        assert report.value == pytest.approx(formula.value, rel=1e-10)
        assert report.partition is part

    def test_single_piece(self):
        part = partition(*compiled(LINE), Interval(1.0, 2.0))
        report = piecewise_signed_sum(LINE, part)
        assert report.value == pytest.approx(7.0 * PI / 3.0, rel=1e-12)

    def test_decreasing_mirror_branch(self):
        part = partition(*compiled(MIRROR_WAVE), FULL)
        report = piecewise_signed_sum(MIRROR_WAVE, part)
        assert report.value == pytest.approx(RAMP_WAVE_VOLUME, rel=1e-10)
        assert report.sign_factor == -1

    def test_hypotheses_checked(self):
        part = partition(*compiled(SHIFTED_WAVE), Interval(0.0, 1.5 * PI))
        with pytest.raises(HypothesisViolationError):
            piecewise_signed_sum(SHIFTED_WAVE, part)

    def test_validates_against_the_given_partition(self, monkeypatch):
        part = partition(*compiled(RAMP_WAVE), FULL)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return partition(*args, **kwargs)

        monkeypatch.setattr(revolve.monotone, "partition", counted)
        monkeypatch.setattr(revolve.volume, "partition", counted)
        piecewise_signed_sum(RAMP_WAVE, part)
        assert len(calls) == 0


class TestCrossValidate:
    def test_ramp_plus_wave_all_methods_agree(self):
        problem = VolumeProblem(curve=RAMP_WAVE, interval=FULL, method="all")
        report = cross_validate(problem)
        assert report.method == "theorem2"
        assert report.value == pytest.approx(RAMP_WAVE_VOLUME, rel=1e-10)
        names = [name for name, _, _ in report.cross_checks]
        assert names == ["piecewise", "disk", "shell-complement"]
        for name, value, delta in report.cross_checks:
            assert delta <= 1e-9 * report.value, name
        assert report.warnings == ()

    def test_kepler_y_axis_disk_primary(self):
        problem = VolumeProblem(curve=KEPLER_EXPR, interval=FULL,
                                curve_role=ROLE_X_OF_Y, axis=AXIS_Y,
                                method="all", parameters=KEPLER_PARAMS)
        report = cross_validate(problem)
        assert report.method == "disk"
        expected = 8.0 * PI ** 4 / 3.0 + 2.25 * PI ** 2
        assert report.value == pytest.approx(expected, rel=1e-10)
        names = [name for name, _, _ in report.cross_checks]
        assert names == ["theorem1"]
        _, value, delta = report.cross_checks[0]
        assert delta <= 1e-8 * report.value

    def test_kepler_x_axis_formula_primary(self):
        problem = VolumeProblem(curve=KEPLER_EXPR, interval=FULL,
                                curve_role=ROLE_X_OF_Y, axis=AXIS_X,
                                method="all", parameters=KEPLER_PARAMS)
        report = cross_validate(problem)
        assert report.method == "theorem3"
        expected = 8.0 * PI ** 4 / 3.0 - 2.0 * PI ** 2
        assert report.value == pytest.approx(expected, rel=1e-10)
        names = [name for name, _, _ in report.cross_checks]
        assert names == ["theorem1", "piecewise", "disk", "shell-complement"]
        for name, value, delta in report.cross_checks:
            assert delta <= 1e-8 * report.value, name

    @pytest.mark.parametrize("axis, role, var", [(AXIS_Y, ROLE_X_OF_Y, "y"),
                                                 (AXIS_X, ROLE_Y_OF_X, "x")])
    def test_kepler_inversion_at_cycling_eccentricity(self, axis, role, var):
        # at this eccentricity, Newton seeded from the previous quadrature
        # node bounced between the ends of its bracket until it ran out of
        # iterations
        kepler = KeplerCurve(0.4946)
        curve = parse(f"{var} - eps*sin({var})", variable=var,
                      parameters=("eps",))
        problem = VolumeProblem(curve=curve, interval=FULL, curve_role=role,
                                axis=axis, method="all",
                                parameters={"eps": kepler.eccentricity})
        report = cross_validate(problem)
        assert report.method == "disk"
        v_y, _ = reference_volumes(kepler)
        assert report.value == pytest.approx(v_y, rel=1e-10)
        assert report.warnings == ()

    def test_cone_all_methods_agree(self):
        problem = VolumeProblem(curve=LINE, interval=Interval(0.0, 1.0),
                                method="all")
        report = cross_validate(problem)
        assert report.value == pytest.approx(PI / 3.0, rel=1e-10)
        for name, value, delta in report.cross_checks:
            assert value == pytest.approx(PI / 3.0, rel=1e-9), name

    def test_rejects_single_method_problems(self):
        with pytest.raises(ValueError):
            cross_validate(VolumeProblem(curve=LINE, interval=Interval(0.0, 1.0),
                                         method="shell"))

    def test_violating_curve_raises(self):
        problem = VolumeProblem(curve=SHIFTED_WAVE,
                                interval=Interval(0.0, 1.5 * PI), method="all")
        with pytest.raises(HypothesisViolationError):
            cross_validate(problem)


class TestSolveDispatch:
    def test_method_routing(self):
        cone = VolumeProblem(curve=LINE, interval=Interval(0.0, 1.0),
                             method="theorem2")
        assert solve(cone).method == "theorem2"
        shell = VolumeProblem(curve=LINE, interval=Interval(0.0, 1.0),
                              method="shell")
        assert solve(shell).value == pytest.approx(2.0 * PI / 3.0, rel=1e-12)
        disk = VolumeProblem(curve=LINE, interval=Interval(1.0, 2.0),
                             method="disk")
        assert solve(disk).value == pytest.approx(7.0 * PI / 3.0, rel=1e-10)

    def test_axis_method_compatibility(self):
        bad = VolumeProblem(curve=LINE, interval=Interval(0.0, 1.0),
                            axis=AXIS_X, method="theorem2")
        with pytest.raises(ValueError):
            solve(bad)
        bad3 = VolumeProblem(curve=LINE, interval=Interval(0.0, 1.0),
                             axis=AXIS_Y, method="theorem3")
        with pytest.raises(ValueError):
            solve(bad3)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            VolumeProblem(curve=LINE, interval=Interval(0.0, 1.0), method="bogus")
        with pytest.raises(ValueError):
            VolumeProblem(curve=LINE, interval=Interval(0.0, 1.0), axis="z-axis")
        with pytest.raises(ValueError):
            VolumeProblem(curve=LINE, interval=Interval(0.0, 1.0),
                          curve_role="sideways")

    def test_report_validation(self):
        with pytest.raises(ValueError):
            VolumeReport(value=1.0, method="disk", error_estimate=0.0,
                         sign_factor=0)

    @pytest.mark.parametrize("method", ["piecewise", "theorem2", "all"])
    def test_one_partition_per_request(self, method, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return partition(*args, **kwargs)

        monkeypatch.setattr(revolve.monotone, "partition", counted)
        monkeypatch.setattr(revolve.volume, "partition", counted)
        solve(VolumeProblem(curve=RAMP_WAVE, interval=FULL, method=method))
        assert len(calls) == 1

    def test_flagship_cross_check_newton_budget(self, monkeypatch):
        # the disk row inverts the curve once per quadrature node; 2,355
        # inversions before its nodes were clustered at the piece ends
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return newton_solve(*args, **kwargs)

        monkeypatch.setattr(revolve.volume, "newton_solve", counted)
        solve(VolumeProblem(curve=RAMP_WAVE, interval=FULL, method="all"))
        assert 0 < len(calls) <= 150

    @pytest.mark.parametrize("axis, method, curve, budget", [
        (AXIS_Y, "all", "ramp-wave", 2),
        (AXIS_Y, "theorem2", "ramp-wave", 2),
        # theorem1 and the inverting disk route need a monotone curve
        (AXIS_Y, "theorem1", "square", 2),
        # piecewise_signed_sum and the disk routes are public entry points
        # that compile f again after solve compiled it
        (AXIS_Y, "piecewise", "ramp-wave", 3),
        (AXIS_Y, "disk", "square", 3),
        # transverse frame: f, plus f' once the end values differ
        (AXIS_X, "all", "ramp-wave", 2),
        # the curve is the disk radius itself
        (AXIS_X, "disk", "ramp-wave", 1),
    ])
    def test_compile_budget(self, axis, method, curve, budget, monkeypatch):
        # each bind compiles f or f'; a request compiles each once and
        # passes both down, and no route compiles what it does not evaluate
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return bind(*args, **kwargs)

        monkeypatch.setattr(revolve.monotone, "bind", counted)
        monkeypatch.setattr(revolve.volume, "bind", counted)
        curve, interval = {"ramp-wave": (RAMP_WAVE, FULL),
                           "square": (SQUARE, Interval(1.0, 2.0))}[curve]
        solve(VolumeProblem(curve=curve, interval=interval, axis=axis,
                            method=method))
        assert 0 < len(calls) <= budget

    def test_piecewise_reports_the_partition_error_first(self):
        # validation would turn this into a HypothesisViolationError
        flat = VolumeProblem(curve=parse("2 + 0*x", variable="x"),
                             interval=Interval(0.0, 1.0), method="piecewise")
        with pytest.raises(AlternationViolationError):
            solve(flat)


# Kepler x = y - eps*sin(y) over [0, 2*pi] in each (axis, role) frame, with
# the closed form of reference_volumes (0 for v_y, 1 for v_x): read along
# the rotation axis the curve is the disk radius itself, otherwise the disk
# route inverts it numerically
KEPLER_DISK_FRAMES = [(AXIS_Y, ROLE_X_OF_Y, 0), (AXIS_X, ROLE_Y_OF_X, 0),
                      (AXIS_X, ROLE_X_OF_Y, 1), (AXIS_Y, ROLE_Y_OF_X, 1)]


class TestErrorCoverage:
    @pytest.mark.parametrize("axis, role, which", KEPLER_DISK_FRAMES)
    def test_disk_error_estimate_covers_kepler_closed_form(self, axis, role,
                                                           which):
        # |value - exact| <= error_estimate, plus a roundoff allowance of
        # 1e-13*|exact| for the closed form's and the sum's own rounding;
        # eps = 0.88 in the inverted frames once missed by 10x
        misses = []
        for i in range(2, 199):
            eps = i / 200.0
            report = solve(VolumeProblem(
                curve=KEPLER_EXPR, interval=FULL, curve_role=role, axis=axis,
                method="disk", parameters={"eps": eps}))
            exact = reference_volumes(KeplerCurve(eps))[which]
            error = abs(report.value - exact)
            if error > report.error_estimate + 1e-13 * abs(exact):
                misses.append((eps, error, report.error_estimate))
        assert not misses, misses


class TestProperties:
    def test_formula_matches_disk_on_random_monotone_cubics(self):
        rng = random.Random(17)
        for case in range(25):
            increasing = case % 2 == 0
            lo = rng.uniform(0.1, 2.5)
            hi = lo + rng.uniform(0.5, 2.0)
            slope = rng.uniform(0.2, 2.0)
            bow = rng.uniform(0.05, 1.0) / 3.0
            center = rng.uniform(0.0, 5.0)

            def cubic(x):
                return slope * x + bow * (x - center) ** 3

            if increasing:
                offset = 0.2 - cubic(lo)
                text = f"{offset} + {slope}*x + {bow}*(x - {center})^3"
            else:
                offset = 0.2 + cubic(hi)
                text = f"{offset} - {slope}*x - {bow}*(x - {center})^3"
            curve = parse(text, variable="x")
            formula = theorem1_y(curve, Interval(lo, hi))
            assert formula.sign_factor == (1 if increasing else -1)
            end_a = offset + (cubic(lo) if increasing else -cubic(lo))
            end_b = offset + (cubic(hi) if increasing else -cubic(hi))
            c, d = min(end_a, end_b), max(end_a, end_b)
            disk = disk_volume_y_axis(curve, ROLE_Y_OF_X, c, d,
                                      x_interval=Interval(lo, hi))
            assert abs(formula.value - disk.value) <= 1e-8 * formula.value

    def test_scaling_covariance(self):
        base = theorem2_y(RAMP_WAVE, FULL).value
        for factor in (0.5, 2.0):
            scaled_curve = BinOp("*", Const(factor), RAMP_WAVE)
            scaled = theorem2_y(scaled_curve, FULL).value
            assert scaled == pytest.approx(factor * base, rel=1e-10)

    def test_shift_is_not_an_invariance(self):
        base = theorem1_y(LINE, Interval(1.0, 2.0)).value
        shifted_curve = parse("x - 0.5", variable="x")
        shifted = theorem1_y(shifted_curve, Interval(1.5, 2.5)).value
        assert abs(shifted - base) > 1.0

    def test_sign_factor_tracks_orientation(self):
        rising = theorem1_y(LINE, Interval(1.0, 2.0))
        falling = theorem1_y(FALLING, Interval(1.0, 2.0))
        assert rising.sign_factor == 1
        assert falling.sign_factor == -1
        assert rising.value >= 0.0 and falling.value >= 0.0
