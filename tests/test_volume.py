"""Volume methods against closed forms and against each other."""

import math
import random

import pytest

import revolve.monotone
import revolve.volume
from revolve.expr import BinOp, Const, bind, enclose, parse
from revolve.kepler import KeplerCurve, reference_volumes
from revolve.monotone import AlternationViolationError, Enclosures, partition
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
    WARN_UNPROVEN,
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
# a 1e-3 dip whose two extrema fall between points of the 1024-cell grid,
# and a dip to -0.8 between points of the 4097-point grid
DIP = parse("x + 1 - 0.001/(1 + 100000000*(x - 1.0005)^2)", variable="x")
NARROW_DIP = parse("x + 0.2 - 2/(1 + 100000000*(x - 1.0001)^2)", variable="x")

RAMP_WAVE_VOLUME = 8.0 * PI ** 3 / 3.0 + 4.0 * PI ** 2

KEPLER = KeplerCurve(0.5)
KEPLER_EXPR, KEPLER_PARAMS = KEPLER.as_expression()
# compiled(...) is (fn, derivative, enclosures); shell_volume takes
# compiled(...)[::2], the curve and its enclosures
KEPLER_FN, KEPLER_DERIVATIVE, KEPLER_ENCLOSURES = compiled(KEPLER_EXPR,
                                                             KEPLER_PARAMS)


def _undecided(lo, hi):
    return None


class TestShellVolume:
    def test_unit_height_cylinder(self):
        report = shell_volume(*compiled(parse("1"))[::2], Interval(0.0, 2.0))
        assert report.value == pytest.approx(4.0 * PI, rel=1e-12)
        assert report.sign_factor == 1

    def test_under_line_about_perpendicular_axis(self):
        report = shell_volume(*compiled(LINE)[::2], Interval(0.0, 1.0))
        assert report.value == pytest.approx(2.0 * PI / 3.0, rel=1e-12)

    def test_ramp_plus_wave(self):
        # 2*pi * Int x*(x/pi + sin x) dx = 16*pi^3/3 - 4*pi^2, from the
        # antiderivative x^3/(3*pi) + sin x - x cos x
        expected = 16.0 * PI ** 3 / 3.0 - 4.0 * PI ** 2
        report = shell_volume(*compiled(RAMP_WAVE)[::2], FULL)
        assert report.value == pytest.approx(expected, rel=1e-12)

    def test_negative_curve_rejected(self):
        with pytest.raises(NegativeCurveError):
            shell_volume(*compiled(parse("sin(x)", variable="x"))[::2], FULL)

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            shell_volume(*compiled(LINE)[::2], Interval(-1.0, 1.0))

    def test_dip_between_grid_points_refused(self):
        # the curve reaches -0.8 near 1.0001, where no point of the
        # 4097-point grid lies
        with pytest.raises(NegativeCurveError) as excinfo:
            shell_volume(*compiled(NARROW_DIP)[::2], Interval(0.0, 2.0))
        assert excinfo.value.value < -0.5
        assert excinfo.value.x == pytest.approx(1.0001, abs=1e-4)

    def test_negativity_on_the_grid_is_reported_at_its_first_grid_point(self):
        # the first point of the 4096-cell grid below the floor, as before
        # the grid was replaced
        with pytest.raises(NegativeCurveError) as excinfo:
            shell_volume(*compiled(parse("1 - x", variable="x"))[::2],
                         Interval(0.0, 2.0))
        step = 2.0 / 4096
        assert excinfo.value.x == 2049 * step
        assert excinfo.value.value == 1.0 - 2049 * step

    def test_zero_at_the_left_end_is_proven(self):
        # the Kepler curve is exactly 0 at 0; its slope makes that the least
        report = shell_volume(KEPLER_FN, KEPLER_ENCLOSURES, FULL)
        assert report.warnings == ()

    def test_undecided_cells_warn(self):
        never = Enclosures(_undecided, _undecided, _undecided)
        report = shell_volume(compiled(LINE)[0], never, Interval(0.0, 1.0))
        assert report.value == pytest.approx(2.0 * PI / 3.0, rel=1e-12)
        assert len(report.warnings) == 1
        assert report.warnings[0].startswith(WARN_UNPROVEN)


class TestDiskVolumeYAxis:
    def test_straight_line_profile(self):
        report = disk_volume_y_axis(compiled(parse("y", variable="y"))[0],
                                    0.0, TWO_PI)
        assert report.value == pytest.approx(8.0 * PI ** 4 / 3.0, rel=1e-12)

    def test_kepler_profile(self):
        expected = 8.0 * PI ** 4 / 3.0 + 2.25 * PI ** 2
        report = disk_volume_y_axis(KEPLER_FN, 0.0, TWO_PI)
        assert report.value == pytest.approx(expected, rel=1e-10)

    def test_inverted_line(self):
        fn, derivative, enclosures = compiled(LINE)
        report = disk_volume_y_axis(fn, 1.0, 2.0,
                                    curve_interval=Interval(1.0, 2.0),
                                    derivative=derivative,
                                    enclosures=enclosures)
        assert report.value == pytest.approx(7.0 * PI / 3.0, rel=1e-10)

    def test_non_monotone_curve_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            fn, derivative, enclosures = compiled(RAMP_WAVE)
            disk_volume_y_axis(fn, 0.0, 2.0, curve_interval=FULL,
                               derivative=derivative,
                               enclosures=enclosures)

    def test_inversion_needs_the_derivative(self):
        with pytest.raises(ValueError):
            disk_volume_y_axis(compiled(LINE)[0], 1.0, 2.0,
                               curve_interval=Interval(1.0, 2.0))

    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            disk_volume_y_axis(compiled(parse("y", variable="y"))[0], 2.0, 1.0)


class TestDiskVolumeXAxis:
    def test_direct_profile(self):
        report = disk_volume_x_axis(compiled(LINE)[0], 0.0, 1.0)
        assert report.value == pytest.approx(PI / 3.0, rel=1e-12)

    def test_kepler_inverted_profile(self):
        expected = 8.0 * PI ** 4 / 3.0 - 2.0 * PI ** 2
        report = disk_volume_x_axis(KEPLER_FN, 0.0, TWO_PI,
                                    curve_interval=FULL,
                                    derivative=KEPLER_DERIVATIVE,
                                    enclosures=KEPLER_ENCLOSURES)
        assert report.value == pytest.approx(expected, rel=1e-8)


class TestTheorem1:
    def test_increasing_line(self):
        report = theorem1_y(*compiled(LINE), Interval(1.0, 2.0))
        assert report.value == pytest.approx(7.0 * PI / 3.0, rel=1e-12)
        assert report.sign_factor == 1

    def test_decreasing_line_same_volume(self):
        report = theorem1_y(*compiled(FALLING), Interval(1.0, 2.0))
        assert report.value == pytest.approx(7.0 * PI / 3.0, rel=1e-12)
        assert report.sign_factor == -1

    def test_square(self):
        report = theorem1_y(*compiled(SQUARE), Interval(1.0, 2.0))
        assert report.value == pytest.approx(15.0 * PI / 2.0, rel=1e-12)

    def test_matches_disk_on_the_inverse(self):
        formula = theorem1_y(*compiled(SQUARE), Interval(1.0, 2.0))
        fn, derivative, enclosures = compiled(SQUARE)
        disk = disk_volume_y_axis(fn, 1.0, 4.0,
                                  curve_interval=Interval(1.0, 2.0),
                                  derivative=derivative,
                                  enclosures=enclosures)
        assert formula.value == pytest.approx(disk.value, rel=1e-9)

    def test_non_monotone_rejected(self):
        with pytest.raises(NotMonotoneError):
            theorem1_y(*compiled(RAMP_WAVE), FULL)

    def test_negative_curve_rejected(self):
        with pytest.raises(NegativeCurveError):
            theorem1_y(*compiled(parse("x - 2", variable="x")),
                       Interval(0.0, 1.0))

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            theorem1_y(*compiled(LINE), Interval(-0.5, 1.0))

    def test_x_axis_kepler(self):
        expected = 8.0 * PI ** 4 / 3.0 - 2.0 * PI ** 2
        report = theorem1_x(KEPLER_FN, KEPLER_DERIVATIVE, KEPLER_ENCLOSURES,
                            FULL)
        assert report.value == pytest.approx(expected, rel=1e-10)
        assert report.sign_factor == 1

    def test_x_axis_cone(self):
        report = theorem1_x(*compiled(parse("y", variable="y")),
                            Interval(0.0, 1.0))
        assert report.value == pytest.approx(PI / 3.0, rel=1e-12)

    def test_x_axis_reflected_cone(self):
        report = theorem1_x(*compiled(parse("1 - y", variable="y")),
                            Interval(0.0, 1.0))
        assert report.value == pytest.approx(PI / 3.0, rel=1e-12)
        assert report.sign_factor == -1


class TestTheorem2:
    def test_ramp_plus_wave(self):
        report = theorem2_y(*compiled(RAMP_WAVE), FULL)
        assert report.value == pytest.approx(RAMP_WAVE_VOLUME, rel=1e-12)
        assert report.sign_factor == 1
        assert report.partition is not None
        assert report.partition.interior_count == 2

    def test_degenerates_to_single_piece_formula_bitwise(self):
        one = theorem1_y(*compiled(LINE), Interval(1.0, 2.0))
        two = theorem2_y(*compiled(LINE), Interval(1.0, 2.0))
        assert two.value == one.value

    def test_decreasing_mirror(self):
        report = theorem2_y(*compiled(MIRROR_WAVE), FULL)
        assert report.value == pytest.approx(RAMP_WAVE_VOLUME, rel=1e-10)
        assert report.sign_factor == -1

    def test_hypothesis_violation_carries_report(self):
        with pytest.raises(HypothesisViolationError) as excinfo:
            theorem2_y(*compiled(SHIFTED_WAVE), Interval(0.0, 1.5 * PI))
        assert excinfo.value.report.violations

    def test_equal_endpoint_values_refused(self):
        # sin has equal endpoint values on [0, pi]; the region's top and
        # bottom boundaries would coincide
        with pytest.raises(HypothesisViolationError):
            theorem2_y(*compiled(parse("sin(x)", variable="x")),
                       Interval(0.0, PI))


    def test_dip_extrema_found(self):
        # the 1e-3 dip's two extrema lie between points of the 1024-cell
        # grid; a grid scan passed the curve as one increasing piece
        report = solve(VolumeProblem(curve=DIP, interval=Interval(0.0, 2.0),
                                     method="theorem2"))
        assert report.partition.interior_count == 2
        assert report.warnings == ()


class TestTheorem3:
    def test_wave_of_y(self):
        report = theorem3_x(*compiled(WAVE_OF_Y), FULL)
        assert report.value == pytest.approx(RAMP_WAVE_VOLUME, rel=1e-10)

    def test_cone(self):
        report = theorem3_x(*compiled(parse("y", variable="y")),
                            Interval(0.0, 1.0))
        assert report.value == pytest.approx(PI / 3.0, rel=1e-12)

    def test_shifted_wave_violation(self):
        with pytest.raises(HypothesisViolationError):
            theorem3_x(*compiled(parse("1 + sin(y)", variable="y")),
                       Interval(0.0, 1.5 * PI))


class TestPiecewiseSignedSum:
    def test_ramp_plus_wave_matches_formula(self):
        fn, derivative, enclosures = compiled(RAMP_WAVE)
        part = partition(fn, derivative, enclosures, FULL)
        report = piecewise_signed_sum(fn, enclosures, part)
        formula = theorem2_y(fn, derivative, enclosures, FULL)
        assert report.value == pytest.approx(formula.value, rel=1e-10)
        assert report.partition is part

    def test_single_piece(self):
        fn, derivative, enclosures = compiled(LINE)
        part = partition(fn, derivative, enclosures, Interval(1.0, 2.0))
        report = piecewise_signed_sum(fn, enclosures, part)
        assert report.value == pytest.approx(7.0 * PI / 3.0, rel=1e-12)

    def test_decreasing_mirror_branch(self):
        fn, derivative, enclosures = compiled(MIRROR_WAVE)
        part = partition(fn, derivative, enclosures, FULL)
        report = piecewise_signed_sum(fn, enclosures, part)
        assert report.value == pytest.approx(RAMP_WAVE_VOLUME, rel=1e-10)
        assert report.sign_factor == -1

    def test_hypotheses_checked(self):
        fn, derivative, enclosures = compiled(SHIFTED_WAVE)
        part = partition(fn, derivative, enclosures, Interval(0.0, 1.5 * PI))
        with pytest.raises(HypothesisViolationError):
            piecewise_signed_sum(fn, enclosures, part)

    def test_validates_against_the_given_partition(self, monkeypatch):
        fn, derivative, enclosures = compiled(RAMP_WAVE)
        part = partition(fn, derivative, enclosures, FULL)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return partition(*args, **kwargs)

        monkeypatch.setattr(revolve.monotone, "partition", counted)
        monkeypatch.setattr(revolve.volume, "partition", counted)
        piecewise_signed_sum(fn, enclosures, part)
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

    def test_dip_routes_agree(self):
        # with the dip's pieces found, the disk route inverts each of them
        # and agrees with the formula
        report = solve(VolumeProblem(curve=DIP, interval=Interval(0.0, 2.0)))
        assert report.partition.interior_count == 2
        assert report.warnings == ()

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

    @pytest.mark.parametrize("axis, role, method, derivative_compiles", [
        # formula frames
        (AXIS_Y, ROLE_Y_OF_X, "all", 1),
        (AXIS_X, ROLE_X_OF_Y, "all", 1),
        (AXIS_Y, ROLE_Y_OF_X, "shell", 0),
        (AXIS_X, ROLE_X_OF_Y, "shell", 0),
        (AXIS_Y, ROLE_Y_OF_X, "disk", 1),
        (AXIS_X, ROLE_X_OF_Y, "disk", 1),
        (AXIS_Y, ROLE_Y_OF_X, "theorem1", 1),
        (AXIS_X, ROLE_X_OF_Y, "theorem1", 1),
        (AXIS_Y, ROLE_Y_OF_X, "theorem2", 1),
        (AXIS_X, ROLE_X_OF_Y, "theorem3", 1),
        (AXIS_Y, ROLE_Y_OF_X, "piecewise", 1),
        (AXIS_X, ROLE_X_OF_Y, "piecewise", 1),
        # disk frames: f' once the end values differ; the disk radius is
        # the curve itself
        (AXIS_Y, ROLE_X_OF_Y, "all", 1),
        (AXIS_X, ROLE_Y_OF_X, "all", 1),
        (AXIS_Y, ROLE_X_OF_Y, "disk", 0),
        (AXIS_X, ROLE_Y_OF_X, "disk", 0),
    ])
    def test_compile_budget(self, axis, role, method, derivative_compiles,
                            monkeypatch):
        # bind(f) receives the request's own tree, bind(f') its derivative;
        # no route compiles again what solve compiled, or f' where it is
        # not evaluated.  theorem1 and the inverting disk route need a
        # monotone curve.
        var = "x" if role == ROLE_Y_OF_X else "y"
        text, interval = (("{v}^2", Interval(1.0, 2.0))
                          if method in ("theorem1", "disk")
                          else ("{v}/pi + sin({v})", FULL))
        curve = parse(text.format(v=var), variable=var)
        compiles = {"f": 0, "f'": 0}

        def counted(tree, *args, **kwargs):
            compiles["f" if tree is curve else "f'"] += 1
            return bind(tree, *args, **kwargs)

        enclosed = []

        def counted_enclose(tree, *args, **kwargs):
            enclosed.append(tree)
            return enclose(tree, *args, **kwargs)

        monkeypatch.setattr(revolve.monotone, "bind", counted)
        monkeypatch.setattr(revolve.volume, "bind", counted)
        monkeypatch.setattr(revolve.volume, "enclose", counted_enclose)
        solve(VolumeProblem(curve=curve, interval=interval, curve_role=role,
                            axis=axis, method=method))
        assert compiles == {"f": 1, "f'": derivative_compiles}
        # f, f' and f'' each enclosed at most once
        assert len(enclosed) == len(set(enclosed)) <= 3

    def test_x_axis_names_are_the_y_axis_functions(self):
        assert disk_volume_x_axis is disk_volume_y_axis
        assert theorem1_x is theorem1_y

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
            fn, derivative, enclosures = compiled(curve)
            formula = theorem1_y(fn, derivative, enclosures, Interval(lo, hi))
            assert formula.sign_factor == (1 if increasing else -1)
            end_a = offset + (cubic(lo) if increasing else -cubic(lo))
            end_b = offset + (cubic(hi) if increasing else -cubic(hi))
            c, d = min(end_a, end_b), max(end_a, end_b)
            disk = disk_volume_y_axis(fn, c, d,
                                      curve_interval=Interval(lo, hi),
                                      derivative=derivative,
                                      enclosures=enclosures)
            assert abs(formula.value - disk.value) <= 1e-8 * formula.value

    def test_scaling_covariance(self):
        base = theorem2_y(*compiled(RAMP_WAVE), FULL).value
        for factor in (0.5, 2.0):
            scaled_curve = BinOp("*", Const(factor), RAMP_WAVE)
            scaled = theorem2_y(*compiled(scaled_curve), FULL).value
            assert scaled == pytest.approx(factor * base, rel=1e-10)

    def test_shift_is_not_an_invariance(self):
        base = theorem1_y(*compiled(LINE), Interval(1.0, 2.0)).value
        shifted_curve = parse("x - 0.5", variable="x")
        shifted = theorem1_y(*compiled(shifted_curve),
                             Interval(1.5, 2.5)).value
        assert abs(shifted - base) > 1.0

    def test_sign_factor_tracks_orientation(self):
        rising = theorem1_y(*compiled(LINE), Interval(1.0, 2.0))
        falling = theorem1_y(*compiled(FALLING), Interval(1.0, 2.0))
        assert rising.sign_factor == 1
        assert falling.sign_factor == -1
        assert rising.value >= 0.0 and falling.value >= 0.0
