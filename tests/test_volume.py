"""Volume methods against closed forms and against each other."""

import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import revolve.expr
import revolve.monotone
import revolve.volume
from revolve.expr import (BinOp, Const, _code, _lower, bind, differentiate,
                          enclose, parse, the_variable)
from revolve.kepler import KeplerCurve, reference_volumes
from revolve.monotone import Enclosures, partition
from revolve.numerics import (Interval, NoSignChangeError, Tolerances,
                              _abscissa, _newton, integrate)
from revolve.volume import (
    _inverse_on_piece,
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
    WARN_NOT_CONVERGED,
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
from corpus import CURVES, compiled
from golden_diff import CLOSED_FORMS, DISK_FRAME_FORMS

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

    def test_roundoff_below_zero_is_clamped(self):
        # -1e-13 lies within the nonnegativity floor, and the shell integral
        # -pi*1e-13 within the 1e-12 roundoff allowance: the volume is 0
        curve = parse("-1e-13 + 0*x", variable="x")
        report = shell_volume(*compiled(curve)[::2], Interval(0.0, 1.0))
        assert report.error_estimate < PI * 1e-13
        assert math.copysign(1.0, report.value) == 1.0 and report.value == 0.0

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
        # y = x read as the radius x = g(y): solve inverts it numerically
        report = solve(VolumeProblem(curve=LINE, interval=Interval(1.0, 2.0),
                                     method="disk"))
        assert report.value == pytest.approx(7.0 * PI / 3.0, rel=1e-10)

    def test_non_monotone_curve_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            solve(VolumeProblem(curve=RAMP_WAVE, interval=FULL, method="disk"))

    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            disk_volume_y_axis(compiled(parse("y", variable="y"))[0], 2.0, 1.0)

    def test_bounds_must_differ(self):
        with pytest.raises(ValueError) as caught:
            disk_volume_y_axis(compiled(parse("y", variable="y"))[0], 1.0, 1.0)
        assert str(caught.value) == "disk quadrature requires lo < hi"

    def test_tolerances_reach_the_quadrature(self):
        # one bisection level cannot resolve sin(100*y) on [0, 1]
        report = disk_volume_y_axis(compiled(parse("sin(100*y)", variable="y"))[0],
                                    0.0, 1.0, Tolerances(max_depth=1))
        assert report.warnings == (WARN_NOT_CONVERGED,)


class TestDiskVolumeXAxis:
    def test_direct_profile(self):
        report = disk_volume_x_axis(compiled(LINE)[0], 0.0, 1.0)
        assert report.value == pytest.approx(PI / 3.0, rel=1e-12)

    def test_kepler_inverted_profile(self):
        expected = 8.0 * PI ** 4 / 3.0 - 2.0 * PI ** 2
        report = solve(VolumeProblem(
            curve=KEPLER_EXPR, interval=FULL, curve_role=ROLE_X_OF_Y,
            axis=AXIS_X, method="disk", parameters=KEPLER_PARAMS))
        assert report.value == pytest.approx(expected, rel=1e-8)


# the transmuted-Kepler family x/p + A*sin(w*x + phi) + c; with
# |A*w*p| <= 1 its slope 1/p + A*w*cos(w*x + phi) never changes sign, so
# every interval is one monotone piece (|A*w*p| = 1 touches a zero slope)
TRANSMUTED_KEPLER = parse("x/p + A*sin(w*x + phi) + c", variable="x",
                          parameters=("p", "A", "w", "phi", "c"))

# node requests: a fraction of the piece's value range, or a value already
# met: an end value, a repeated request, or a solved root's stored value
_requests = st.lists(st.floats(0.0, 1.0) | st.sampled_from(
    ["lo", "hi", "again", "stored"]), min_size=1, max_size=40)


class TestInverseOnPiece:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(p=st.floats(0.5, 5.0), falling=st.booleans(),
           ratio=st.floats(-1.0, 1.0), w=st.floats(0.2, 5.0),
           phi=st.floats(0.0, TWO_PI), c=st.floats(-3.0, 3.0),
           lo=st.floats(-5.0, 5.0), width=st.floats(0.01, 10.0),
           requests=_requests)
    def test_every_node_is_bracketed_and_solved(self, p, falling, ratio, w,
                                                phi, c, lo, width, requests):
        params = {"p": -p if falling else p, "A": ratio / (w * p), "w": w,
                  "phi": phi, "c": c}
        fn, derivative, _ = compiled(TRANSMUTED_KEPLER, params)
        piece = Interval(lo, lo + width)
        ends = (fn(piece.lo), fn(piece.hi))
        tol = revolve.numerics.Tolerances()
        inverse, _ = _inverse_on_piece(fn, derivative, piece, ends, tol)
        v_min, v_max = min(ends), max(ends)
        asked, roots = [], []
        for request in requests:
            if request == "lo" or request == "hi":
                s = ends[request == "hi"]
            elif request == "again":
                s = asked[-1] if asked else ends[0]
            elif request == "stored":
                s = fn(roots[-1]) if roots else ends[1]
            else:
                s = min(max(v_min + request * (v_max - v_min), v_min), v_max)
            root = inverse(s)
            assert piece.lo <= root <= piece.hi
            assert abs(fn(root) - s) <= tol.residual_tol
            asked.append(s)
            roots.append(root)

    @pytest.mark.parametrize("parts", [False, True])
    def test_worst_error_is_the_residual_times_the_bracket_slope(self, parts):
        # a loose residual_tol stops Newton with a visible residual; the
        # root is then off by about the residual times |dt/ds| of its
        # bracket, here the piece's ends (1, 1) and (2, 4), and the list
        # holds that times the weight: 2*root for the disk integrand g^2,
        # s for the boundary-term integrand s*g(s)
        fn, derivative, _ = compiled(SQUARE)
        inverse, worst = _inverse_on_piece(
            fn, derivative, Interval(1.0, 2.0), (1.0, 4.0),
            Tolerances(residual_tol=1e-3), parts=parts)
        root = inverse(2.5)
        residual = fn(root) - 2.5
        assert 0.0 < abs(residual) <= 1e-3
        weight = 2.5 if parts else 2.0 * root
        assert worst == [pytest.approx(
            abs(weight * residual * (2.0 - 1.0) / (4.0 - 1.0)), rel=1e-12)]

    @pytest.mark.parametrize("s", [0.5, 4.5])
    def test_refuses_a_value_outside_the_piece(self, s):
        # the piece ends bracket s without a sign change, which the Newton
        # kernel refuses as newton_solve does
        fn, derivative, _ = compiled(SQUARE)
        inverse, _ = _inverse_on_piece(fn, derivative, Interval(1.0, 2.0),
                                       (1.0, 4.0), Tolerances())
        with pytest.raises(NoSignChangeError):
            inverse(s)


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
        disk = solve(VolumeProblem(curve=SQUARE, interval=Interval(1.0, 2.0),
                                   method="disk"))
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
        report = piecewise_signed_sum(fn, derivative, enclosures, FULL)
        formula = theorem2_y(fn, derivative, enclosures, FULL)
        assert report.value == pytest.approx(formula.value, rel=1e-10)
        assert report.partition == formula.partition

    def test_single_piece(self):
        report = piecewise_signed_sum(*compiled(LINE), Interval(1.0, 2.0))
        assert report.value == pytest.approx(7.0 * PI / 3.0, rel=1e-12)

    def test_decreasing_mirror_branch(self):
        report = piecewise_signed_sum(*compiled(MIRROR_WAVE), FULL)
        assert report.value == pytest.approx(RAMP_WAVE_VOLUME, rel=1e-10)
        assert report.sign_factor == -1

    def test_hypotheses_checked(self):
        with pytest.raises(HypothesisViolationError):
            piecewise_signed_sum(*compiled(SHIFTED_WAVE),
                                 Interval(0.0, 1.5 * PI))

    @pytest.mark.parametrize("method", ["piecewise", "all"])
    def test_validates_once_with_one_partition(self, monkeypatch, method):
        validations, partitions = [], []

        def counting(calls, original):
            def counted(*args, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)
            return counted

        monkeypatch.setattr(revolve.volume, "validate_revolution_hypotheses",
                            counting(validations,
                                     revolve.volume.validate_revolution_hypotheses))
        for module in (revolve.monotone, revolve.volume):
            monkeypatch.setattr(module, "partition",
                                counting(partitions, module.partition))
        solve(VolumeProblem(curve=RAMP_WAVE, interval=FULL, method=method))
        assert (len(validations), len(partitions)) == (1, 1)


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

    @pytest.mark.parametrize("curve, interval, quadratures", [
        # the primary's and the disk's: the piecewise row is the primary's
        (LINE, Interval(0.0, 1.0), 2),
        (SQUARE, Interval(1.0, 2.0), 2),
        # the primary's, then one per piece for piecewise and for disk
        (RAMP_WAVE, FULL, 7),
    ])
    def test_piecewise_row_reuses_a_single_piece_quadrature(
            self, curve, interval, quadratures, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(revolve.volume, "integrate", counted)
        report = solve(VolumeProblem(curve=curve, interval=interval))
        assert len(calls) == quadratures
        monkeypatch.undo()
        rows = {name: value for name, value, _ in report.cross_checks}
        if report.partition.interior_count == 0:
            # bit for bit the primary's, and the per-piece sum's
            piecewise = solve(VolumeProblem(curve=curve, interval=interval,
                                            method="piecewise"))
            assert rows["piecewise"] == report.value == piecewise.value

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

    @pytest.mark.parametrize("curve, interval", [(SQUARE, Interval(1.0, 2.0)),
                                                 (RAMP_WAVE, FULL)])
    def test_one_warning_per_disagreeing_row(self, curve, interval,
                                             monkeypatch):
        # a disk row 1e-6 off disagrees with every other row, but only its
        # comparison with the primary warns (4 and 3 warnings when every
        # pair of rows was compared)
        inverse_value = revolve.volume._inverse_value

        def skewed(*args):
            value, err, quad = inverse_value(*args)
            return value * (1.0 + 1e-6), err, quad

        monkeypatch.setattr(revolve.volume, "_inverse_value", skewed)
        report = solve(VolumeProblem(curve=curve, interval=interval))
        assert len(report.warnings) == 1
        assert report.warnings[0].startswith(
            "methods theorem2 and disk disagree: |delta| = ")

    @pytest.mark.parametrize("delta, warnings", [(1.5e-6, 0), (2.5e-6, 1)])
    def test_row_allowance_is_the_sum_of_both_errors(self, delta, warnings):
        # errors of 1e-6 on each side allow 2e-6, far above the default
        # relative floor of 1e-10 at this scale
        report = revolve.volume._method_report(
            "theorem2", 1.0, 1e-6, checks=[("disk", 1.0 + delta, 1e-6)],
            tol=Tolerances())
        assert len(report.warnings) == warnings


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
        # the disk row inverts the curve once per quadrature node (2,355
        # inversions before its nodes were clustered at the piece ends).
        # Each inversion is bracketed by its solved neighbours: 574
        # iterations and 39 bisection fallbacks when every node was
        # bracketed by the whole piece and seeded with the previous root.
        # The nested rule keeps every node it has inverted: adaptive
        # Gauss-Kronrod took 105 inversions and 312 iterations, and the
        # nested rule 93 and 300 while it stopped only when a level agreed
        # with the one before.  Its Chebyshev-tail stop ends each piece's
        # panel at 17 points, not 33: 45 inversions, 166 iterations and 2
        # fallbacks
        results = []

        def counted(*args):
            results.append(_newton(*args))
            return results[-1]

        monkeypatch.setattr(revolve.volume, "_newton", counted)
        solve(VolumeProblem(curve=RAMP_WAVE, interval=FULL, method="all"))
        assert len(results) == 45
        assert sum(iterations for _, _, iterations, _ in results) <= 180
        assert sum(fell_back for _, _, _, fell_back in results) <= 5

    def test_square_root_end_inversion_budget(self, monkeypatch):
        # y^2 on [0, 1] in the disk frame: the inverse sqrt(s) has a
        # square-root end at s = 0, which the nested rule's substitution
        # makes analytic; Gauss-Kronrod in s bisected toward it with 255
        # inversions
        calls = []

        def counted(*args):
            calls.append(args)
            return _newton(*args)

        monkeypatch.setattr(revolve.volume, "_newton", counted)
        report = solve(VolumeProblem(curve=parse("y^2", variable="y"),
                                     interval=Interval(0.0, 1.0),
                                     curve_role=ROLE_X_OF_Y, method="all"))
        assert [row for row, _, _ in report.cross_checks] == ["theorem1"]
        assert len(calls) == 15

    @pytest.mark.parametrize("axis, role, method, derivative_compiles, shape", [
        # formula frames
        (AXIS_Y, ROLE_Y_OF_X, "all", 1, "flagship"),
        (AXIS_X, ROLE_X_OF_Y, "all", 1, "flagship"),
        (AXIS_Y, ROLE_Y_OF_X, "shell", 0, "flagship"),
        (AXIS_X, ROLE_X_OF_Y, "shell", 0, "flagship"),
        (AXIS_Y, ROLE_Y_OF_X, "disk", 1, "square"),
        (AXIS_X, ROLE_X_OF_Y, "disk", 1, "square"),
        # equal end values: refused before f' is compiled
        (AXIS_Y, ROLE_Y_OF_X, "disk", 0, "bowl"),
        (AXIS_X, ROLE_X_OF_Y, "disk", 0, "bowl"),
        (AXIS_Y, ROLE_Y_OF_X, "theorem1", 1, "square"),
        (AXIS_X, ROLE_X_OF_Y, "theorem1", 1, "square"),
        (AXIS_Y, ROLE_Y_OF_X, "theorem2", 1, "flagship"),
        (AXIS_X, ROLE_X_OF_Y, "theorem3", 1, "flagship"),
        (AXIS_Y, ROLE_Y_OF_X, "piecewise", 1, "flagship"),
        (AXIS_X, ROLE_X_OF_Y, "piecewise", 1, "flagship"),
        # disk frames: f' once the end values differ; the disk radius is
        # the curve itself
        (AXIS_Y, ROLE_X_OF_Y, "all", 1, "flagship"),
        (AXIS_X, ROLE_Y_OF_X, "all", 1, "flagship"),
        (AXIS_Y, ROLE_X_OF_Y, "disk", 0, "square"),
        (AXIS_X, ROLE_Y_OF_X, "disk", 0, "square"),
    ])
    def test_compile_budget(self, axis, role, method, derivative_compiles,
                            shape, monkeypatch):
        # bind(f) receives the request's own tree, bind(f') its derivative;
        # no route compiles again what solve compiled, or f' where it is
        # not evaluated.  The variable is resolved once, and f and f' are
        # differentiated once each, only where the enclosures are built: the
        # one slope tree is both compiled and enclosed.  theorem1 and the
        # inverting disk route need a monotone curve.  f'' is derived and
        # enclosed at most once, and only where the certificate consults it:
        # on the flagship's extrema, never on x^2 over [1, 2] or for shell,
        # whose floor certificate reads f and f' alone.  The inverting disk
        # route refuses the bowl's equal end values before it compiles f'.
        var = "x" if role == ROLE_Y_OF_X else "y"
        text, interval = {"flagship": ("{v}/pi + sin({v})", FULL),
                          "square": ("{v}^2", Interval(1.0, 2.0)),
                          "bowl": ("({v}-1)^2 + 1", Interval(0.0, 2.0))}[shape]
        curve = parse(text.format(v=var), variable=var)
        compiles = {"f": 0, "f'": 0}
        resolved, differentiated, bound = [], [], []

        def counted(tree, *args, **kwargs):
            compiles["f" if tree is curve else "f'"] += 1
            bound.append(tree)
            return bind(tree, *args, **kwargs)

        def counted_variable(tree):
            resolved.append(tree)
            return the_variable(tree)

        def counted_differentiate(tree, var):
            differentiated.append((tree, differentiate(tree, var)))
            return differentiated[-1][1]

        enclosed = []

        def counted_enclose(tree, *args, **kwargs):
            enclosed.append(tree)
            return enclose(tree, *args, **kwargs)

        monkeypatch.setattr(revolve.monotone, "bind", counted)
        monkeypatch.setattr(revolve.volume, "bind", counted)
        monkeypatch.setattr(revolve.volume, "enclose", counted_enclose)
        monkeypatch.setattr(revolve.volume, "the_variable", counted_variable)
        monkeypatch.setattr(revolve.volume, "differentiate",
                            counted_differentiate)
        problem = VolumeProblem(curve=curve, interval=interval,
                                curve_role=role, axis=axis, method=method)
        if shape == "bowl":
            with pytest.raises(NotInvertibleError):
                solve(problem)
        else:
            solve(problem)
        assert compiles == {"f": 1, "f'": derivative_compiles}
        assert resolved == [curve]
        if enclosed:
            (first_from, slope), *curvature = differentiated
            assert first_from is curve
            assert all(tree is slope for tree, _ in curvature)
            assert len(curvature) == (method not in ("shell", "theorem1", "disk"))
            assert list(map(id, enclosed)) == [
                id(curve), id(slope), *(id(second) for _, second in curvature)]
            assert list(map(id, bound)) == [id(curve)] + [id(slope)] * derivative_compiles
        else:
            assert differentiated == [] and derivative_compiles == 0

    def test_an_equal_curve_is_derived_and_lowered_once(self, monkeypatch):
        # expr caches each step per process: a second request on a curve
        # parsed again, equal to the first, lowers nothing and derives
        # nothing, yet calls bind and differentiate through volume as often
        # as the first, since the benchmark's tracer counts those calls
        first, second = (VolumeProblem(curve=parse("x/pi + sin(x)", variable="x"),
                                       interval=FULL, method="theorem2")
                         for _ in range(2))
        calls = {"lowered": 0, "derived": 0, "bind": [], "differentiate": []}
        expected = solve(first)

        def counting(key, fn):
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        def listing(key, fn):
            def listed(tree, *args, **kwargs):
                calls[key].append(tree)
                return fn(tree, *args, **kwargs)
            return listed

        monkeypatch.setattr(revolve.expr._Compiler, "compile",
                            counting("lowered", revolve.expr._Compiler.compile))
        monkeypatch.setattr(revolve.expr, "_derivative",
                            counting("derived", revolve.expr._derivative))
        monkeypatch.setattr(revolve.volume, "bind", listing("bind", bind))
        monkeypatch.setattr(revolve.volume, "differentiate",
                            listing("differentiate", differentiate))
        assert solve(second) == expected
        slope = differentiate(first.curve, "x")
        assert (calls["lowered"], calls["derived"]) == (0, 0)
        assert calls["bind"] == [second.curve, slope]
        assert calls["bind"][0] is second.curve and calls["bind"][1] is slope
        assert list(map(id, calls["differentiate"])) == [id(second.curve), id(slope)]

    def test_flagship_enclosure_budget(self, monkeypatch):
        # f'' proves f' monotone on wide cells, so each extremum's grid
        # bracket is found by bisecting f' point values, not by a descent
        # of f' enclosures to grid width (41 enclosure calls before)
        calls = []

        def counted_enclose(tree, *args, **kwargs):
            enclosure = enclose(tree, *args, **kwargs)

            def counted(lo, hi):
                calls.append((lo, hi))
                return enclosure(lo, hi)
            return counted

        monkeypatch.setattr(revolve.volume, "enclose", counted_enclose)
        solve(VolumeProblem(curve=RAMP_WAVE, interval=FULL, method="theorem2"))
        assert len(calls) <= 15

    def test_kepler_sweep_compiles_four_code_objects(self):
        # the source bind and enclose compile depends on the curve's shape
        # alone, so a sweep over eps compiles f and f' once each, as a
        # function and as an enclosure (f'' is never needed: f' stays
        # positive); a parameter value printed into the source would
        # compile 80.  Each eps is a new lowering, which reaches the code
        # cache, unless an earlier test lowered it
        _code.cache_clear()
        _lower.cache.clear()
        for i in range(20):
            solve(VolumeProblem(curve=KEPLER_EXPR, interval=FULL,
                                curve_role=ROLE_X_OF_Y, axis=AXIS_X,
                                method="all",
                                parameters={"eps": 0.05 + 0.045 * i}))
        assert _code.cache_info().misses == 4

    def test_x_axis_names_are_the_y_axis_functions(self):
        assert disk_volume_x_axis is disk_volume_y_axis
        assert theorem1_x is theorem1_y

    def test_theorem1_accepts_end_values_the_hypotheses_call_equal(self):
        # theorem1 refuses only equal end values; the hypotheses that
        # theorem2, piecewise and all validate also refuse end values
        # within tol of each other
        def problem(method):
            return VolumeProblem(curve=parse("1 + 1e-11*x", variable="x"),
                                 interval=Interval(1.0, 2.0), method=method)

        report = solve(problem("theorem1"))
        assert report.value == 7.330314133469074e-11
        assert abs(report.value - 7.0 * PI * 1e-11 / 3.0) <= report.error_estimate
        for method in ("theorem2", "piecewise", "all"):
            with pytest.raises(HypothesisViolationError) as caught:
                solve(problem(method))
            assert caught.value.report.violations == (("endpoints-equal", 1.0),)

    def test_piecewise_validates_as_theorem2_does(self):
        errors = []
        for method in ("piecewise", "theorem2"):
            flat = VolumeProblem(curve=parse("2 + 0*x", variable="x"),
                                 interval=Interval(0.0, 1.0), method=method)
            with pytest.raises(HypothesisViolationError) as caught:
                solve(flat)
            errors.append((str(caught.value), caught.value.report.violations))
        assert errors[0] == errors[1]
        assert errors[0][1] == (("endpoints-equal", 0.0),
                                ("not-strictly-monotone", 0.0))


# Kepler x = y - eps*sin(y) over [0, 2*pi] in each (axis, role) frame, with
# the closed form of reference_volumes (0 for v_y, 1 for v_x): read along
# the rotation axis the curve is the disk radius itself, otherwise the disk
# route inverts it numerically
KEPLER_DISK_FRAMES = [(AXIS_Y, ROLE_X_OF_Y, 0), (AXIS_X, ROLE_Y_OF_X, 0),
                      (AXIS_X, ROLE_X_OF_Y, 1), (AXIS_Y, ROLE_Y_OF_X, 1)]


def _monotone(text, var, params, lo, hi):
    fn, derivative, enclosures = compiled(
        parse(text, variable=var, parameters=params), params)
    return partition(fn, derivative, enclosures,
                     Interval(lo, hi)).interior_count == 0


# corpus curves with a formula-frame closed form that are monotone on their
# domain, so that --method disk inverts each as a single piece
MONOTONE_CLOSED_FORMS = [
    (name, text, var, params, lo, hi)
    for name, text, var, params, lo, hi in CURVES
    if text in CLOSED_FORMS and _monotone(text, var, params, lo, hi)]


# monotone corpus curves whose interval the cross-check accepts: it refuses
# one reaching below 0, as every boundary-term method does
CROSS_CHECKED_MONOTONE = [curve for curve in CURVES
                          if curve[4] >= 0.0 and _monotone(*curve[1:])]


# corpus curves with a formula-frame closed form whose interval the formula
# frame accepts
FORMULA_FRAME_CLOSED_FORMS = [curve for curve in CURVES
                              if curve[1] in CLOSED_FORMS and curve[4] >= 0.0]


# corpus curves with a disk-frame closed form; kepler-mid and kepler-high
# share one
DISK_FRAME_CLOSED_FORMS = [curve for curve in CURVES
                           if curve[1] in DISK_FRAME_FORMS]

# the formula frame's single-formula routes on each curve: theorem1 only
# where the curve is one monotone piece, theorem2 or theorem3 by the frame
FORMULA_ROUTES = [
    (curve, method) for curve in FORMULA_FRAME_CLOSED_FORMS
    for method in (["theorem1"] if _monotone(*curve[1:]) else [])
    + ["theorem2" if curve[2] == "x" else "theorem3", "piecewise"]]


def _record_checks(monkeypatch):
    """The ``checks`` of each report ``_method_report`` builds from now on:
    the cross-check rows with their error estimates, which only its
    comparison reads."""
    rows = []
    method_report = revolve.volume._method_report
    monkeypatch.setattr(
        revolve.volume, "_method_report",
        lambda *args, **kwargs: rows.append(kwargs.get("checks", ()))
        or method_report(*args, **kwargs))
    return rows


def _assert_disk_route_agrees(curve, params, interval):
    """The disk route, on the curve's numeric inverse, agrees with the
    boundary-term formula within the sum of their estimates plus
    1e-15*|V| for rounding, or the curve breaks the formula's hypotheses."""
    with pytest.MonkeyPatch.context() as patched:
        rows = _record_checks(patched)
        try:
            report = solve(VolumeProblem(curve=curve, interval=interval,
                                         method="all", parameters=params))
        except HypothesisViolationError:
            assume(False)
    (checks,) = rows
    (disk, disk_err), = [(v, e) for row, v, e in checks if row == "disk"]
    assert abs(disk - report.value) <= (report.error_estimate + disk_err
                                        + 1e-15 * abs(report.value))


def _formula_frame(text, var, params, lo, hi, method, disk_frame=False):
    # the curve read along the axis perpendicular to the rotation axis, or,
    # in the disk frame, along the rotation axis itself
    role = ROLE_Y_OF_X if var == "x" else ROLE_X_OF_Y
    axis = AXIS_Y if (var == "x") != disk_frame else AXIS_X
    return VolumeProblem(curve=parse(text, variable=var, parameters=params),
                         interval=Interval(lo, hi), axis=axis,
                         curve_role=role, method=method, parameters=params)


class TestInverseDiskRoute:
    def test_cross_checked_monotone_curves_are_found(self):
        assert len(CROSS_CHECKED_MONOTONE) == 7

    @pytest.mark.parametrize("name, text, var, params, lo, hi",
                             CROSS_CHECKED_MONOTONE,
                             ids=[c[0] for c in CROSS_CHECKED_MONOTONE])
    def test_disk_method_is_the_cross_check_disk_row(self, name, text, var,
                                                     params, lo, hi):
        # one per-piece function serves both, so a single piece gives the
        # same bits
        disk = solve(_formula_frame(text, var, params, lo, hi, "disk"))
        rows = {row: value for row, value, _ in solve(
            _formula_frame(text, var, params, lo, hi, "all")).cross_checks}
        assert disk.value.hex() == rows["disk"].hex()


class TestErrorCoverage:
    def test_monotone_closed_forms_are_found(self):
        assert len(MONOTONE_CLOSED_FORMS) == 8

    @pytest.mark.parametrize("name, text, var, params, lo, hi",
                             MONOTONE_CLOSED_FORMS,
                             ids=[c[0] for c in MONOTONE_CLOSED_FORMS])
    def test_disk_error_estimate_covers_corpus_closed_forms(
            self, name, text, var, params, lo, hi):
        # formula frame, which the disk route inverts; arccos(x) was
        # 1.4e-13 from its closed form against an estimate of 3.4e-14 before
        # the estimate counted the inversion's error
        report = solve(_formula_frame(text, var, params, lo, hi, "disk"))
        exact = CLOSED_FORMS[text](params)
        assert report.warnings == ()
        assert abs(report.value - exact) <= (report.error_estimate
                                             + 1e-15 * abs(exact))

    def test_disk_error_estimate_counts_the_rounding_of_each_root(self):
        # every node's residual f(root) - s is exactly 0 here, yet ulp(5),
        # 8.9e-16, against a slope of 1e-12 leaves each root uncertain by
        # about 1e-3: the value is 3.1e-14 from the closed form, and the
        # estimate read 1.1e-16 before it counted that rounding
        report = solve(VolumeProblem(curve=parse("5 + 1e-12*x", variable="x"),
                                     interval=Interval(10.0, 11.0),
                                     method="disk"))
        exact = 331.0 * PI / 3.0 * 1e-12
        assert report.warnings == ()
        assert abs(report.value - exact) <= (report.error_estimate
                                             + 1e-15 * abs(exact))

    @pytest.mark.parametrize("axis, role, which", KEPLER_DISK_FRAMES)
    def test_disk_error_estimate_covers_kepler_closed_form(self, axis, role,
                                                           which):
        # |value - exact| <= error_estimate, plus a roundoff allowance of
        # 1e-15*|exact| for the closed form's own rounding; eps = 0.88 in
        # the inverted frames once missed by 10x, and two eps per inverted
        # frame needed 1e-13*|exact| before the estimate counted the
        # inversion's error
        misses = []
        for i in range(2, 199):
            eps = i / 200.0
            report = solve(VolumeProblem(
                curve=KEPLER_EXPR, interval=FULL, curve_role=role, axis=axis,
                method="disk", parameters={"eps": eps}))
            exact = reference_volumes(KeplerCurve(eps))[which]
            error = abs(report.value - exact)
            if error > report.error_estimate + 1e-15 * abs(exact):
                misses.append((eps, error, report.error_estimate))
        assert not misses, misses

    def test_inverse_row_estimate_covers_disk_frame_closed_forms(
            self, monkeypatch):
        # disk frame, about both axes: the boundary-term row runs on the
        # numeric inverse, and its estimate, which only _method_report's
        # comparison reads, must count the inversion's error; without it
        # arccos(x) was 5.3e-13 off against 1.2e-13, and Kepler about the
        # y-axis at eps = 0.015 7.5e-12 against 5.8e-12.  y^2 and y^3 start
        # at a flat end, where the inverse has a square-root end.  With
        # Gauss-Kronrod in s, the set took 76,470 inversions; the nested
        # rule in u takes 24,038
        rows = _record_checks(monkeypatch)
        curves = [(parse(text, variable=var, parameters=params),
                   Interval(lo, hi), params, DISK_FRAME_FORMS[text](params))
                  for _, text, var, params, lo, hi in DISK_FRAME_CLOSED_FORMS]
        curves += [(parse("y^2", variable="y"), Interval(0.0, 1.0), {},
                    PI / 5.0),
                   (parse("y^3", variable="y"), Interval(0.0, 2.0), {},
                    128.0 * PI / 7.0)]
        curves += [(KEPLER_EXPR, FULL, {"eps": i / 200.0},
                    reference_volumes(KeplerCurve(i / 200.0))[0])
                   for i in range(2, 199)]
        misses = []
        for curve, interval, params, exact in curves:
            for axis, role in ((AXIS_Y, ROLE_X_OF_Y), (AXIS_X, ROLE_Y_OF_X)):
                rows.clear()
                report = solve(VolumeProblem(
                    curve=curve, interval=interval, axis=axis,
                    curve_role=role, method="all", parameters=params))
                assert report.warnings == ()
                (name, value, err), = rows[0]
                assert name == ("theorem1" if axis == AXIS_Y else "theorem3")
                if abs(value - exact) > err + 1e-15 * abs(exact):
                    misses.append((curve, params, axis, abs(value - exact),
                                   err))
        assert not misses, misses

    def test_inverse_row_estimate_adds_the_inversion_over_the_span(
            self, monkeypatch):
        # x^2 on [1, 2] about the x-axis: the inverse's variable spans
        # [1, 4], and the row's estimate is 2*pi times its quadrature's
        # plus 3 times the worst node error of s*g(s), which a loose
        # residual_tol makes visible.  Its value is the boundary-term
        # formula on the inverse, whose ends are g(1) = 1 and g(4) = 2
        rows = _record_checks(monkeypatch)
        inversions, values = [], []
        inverse_on_piece = revolve.volume._inverse_on_piece
        inverse_value = revolve.volume._inverse_value

        def recorded_inverse(*args):
            inverse, inversion = inverse_on_piece(*args)
            inversions.append((args[-1], inversion))
            return inverse, inversion

        def recorded_value(*args, **kwargs):
            values.append((kwargs, inverse_value(*args, **kwargs)))
            return values[-1][1]

        monkeypatch.setattr(revolve.volume, "_inverse_on_piece",
                            recorded_inverse)
        monkeypatch.setattr(revolve.volume, "_inverse_value", recorded_value)
        monkeypatch.setattr(revolve.volume, "_parts_value", None)
        solve(VolumeProblem(curve=SQUARE, interval=Interval(1.0, 2.0),
                            axis=AXIS_X, curve_role=ROLE_Y_OF_X, method="all",
                            tol=Tolerances(residual_tol=1e-6)))
        ((parts, worst),) = inversions
        ((kwargs, (value, err, quad)),) = values
        (name, row_value, row_err), = rows[0]
        assert parts is True and kwargs == {"parts": True}
        assert name == "theorem3" and worst[0] > 0.0
        assert (row_value, row_err) == (value, err)
        assert err == pytest.approx(
            2.0 * PI * (quad.error_estimate + 3.0 * worst[0]), rel=1e-12)
        assert value == PI * 31.0 - 2.0 * PI * quad.value

    def test_formula_frame_closed_forms_are_found(self):
        assert len(FORMULA_FRAME_CLOSED_FORMS) == 10
        assert sum(not _monotone(*curve[1:])
                   for curve in FORMULA_FRAME_CLOSED_FORMS) == 3

    @pytest.mark.parametrize("name, text, var, params, lo, hi",
                             FORMULA_FRAME_CLOSED_FORMS,
                             ids=[c[0] for c in FORMULA_FRAME_CLOSED_FORMS])
    def test_every_formula_frame_row_covers_corpus_closed_forms(
            self, monkeypatch, name, text, var, params, lo, hi):
        # the primary and each cross-check row, each against its own
        # estimate; the tightest is x^2's disk row, 4.2e-13 off against
        # 3.9e-12
        rows = _record_checks(monkeypatch)
        report = solve(_formula_frame(text, var, params, lo, hi, "all"))
        exact = CLOSED_FORMS[text](params)
        assert report.warnings == ()
        (checks,) = rows
        assert ([row for row, _, _ in checks]
                == [row for row, _, _ in report.cross_checks])
        for row, value, err in [(report.method, report.value,
                                 report.error_estimate), *checks]:
            assert abs(value - exact) <= err + 1e-15 * abs(exact), row

    def test_disk_frame_closed_forms_are_found(self):
        assert len(DISK_FRAME_CLOSED_FORMS) == 8
        assert len(FORMULA_ROUTES) == 27

    @pytest.mark.parametrize("method", ["disk", "all"])
    @pytest.mark.parametrize("name, text, var, params, lo, hi",
                             DISK_FRAME_CLOSED_FORMS,
                             ids=[c[0] for c in DISK_FRAME_CLOSED_FORMS])
    def test_disk_frame_primary_covers_corpus_closed_forms(
            self, name, text, var, params, lo, hi, method):
        # the curve is the disk radius, so no inversion is involved
        report = solve(_formula_frame(text, var, params, lo, hi, method,
                                      disk_frame=True))
        exact = DISK_FRAME_FORMS[text](params)
        assert (report.method, report.warnings) == ("disk", ())
        assert abs(report.value - exact) <= (report.error_estimate
                                             + 1e-15 * abs(exact))

    @pytest.mark.parametrize("curve, method", FORMULA_ROUTES,
                             ids=[f"{c[0]}-{m}" for c, m in FORMULA_ROUTES])
    def test_single_formula_route_covers_corpus_closed_forms(self, curve,
                                                             method):
        # the tightest is piecewise on ramp-plus-wave, 7.1e-14 off against
        # 1.4e-12
        name, text, var, params, lo, hi = curve
        report = solve(_formula_frame(text, var, params, lo, hi, method))
        exact = CLOSED_FORMS[text](params)
        assert (report.method, report.warnings) == (method, ())
        assert abs(report.value - exact) <= (report.error_estimate
                                             + 1e-15 * abs(exact))


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
            formula = theorem1_y(*compiled(curve), Interval(lo, hi))
            assert formula.sign_factor == (1 if increasing else -1)
            disk = solve(VolumeProblem(curve=curve, interval=Interval(lo, hi),
                                       method="disk"))
            assert abs(formula.value - disk.value) <= 1e-8 * formula.value

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(p=st.floats(0.5, 5.0), a=st.floats(-4.0, 4.0),
           w=st.floats(0.2, 5.0), phi=st.floats(0.0, TWO_PI),
           c=st.floats(0.5, 3.0), lo=st.floats(0.0, 5.0),
           width=st.floats(0.5, 12.0), k=st.floats(0.1, 10.0),
           d=st.floats(-3.0, 3.0))
    # ramp-plus-wave: p = pi, A = 1, w = 1, phi = 0, c = 0 on [0, 2*pi]
    @example(p=PI, a=1.0, w=1.0, phi=0.0, c=0.0, lo=0.0, width=TWO_PI,
             k=0.5, d=1.0)
    @example(p=PI, a=1.0, w=1.0, phi=0.0, c=0.0, lo=0.0, width=TWO_PI,
             k=2.0, d=-0.5)
    def test_scaling_and_shift(self, p, a, w, phi, c, lo, width, k, d):
        # V(k*f) = k*V(f) and V(f + d) = V(f) on the transmuted-Kepler
        # family, each within the scaled estimates plus 4e-15*|V|
        params = {"p": p, "A": a, "w": w, "phi": phi, "c": c}
        interval = Interval(lo, lo + width)

        def volume(curve):
            try:
                return theorem2_y(*compiled(curve, params), interval)
            except HypothesisViolationError:
                assume(False)

        base = volume(TRANSMUTED_KEPLER)
        scaled = volume(BinOp("*", Const(k), TRANSMUTED_KEPLER))
        shifted = volume(BinOp("+", TRANSMUTED_KEPLER, Const(d)))
        assert abs(scaled.value - k * base.value) <= (
            scaled.error_estimate + k * base.error_estimate
            + 4e-15 * abs(scaled.value))
        assert abs(shifted.value - base.value) <= (
            shifted.error_estimate + base.error_estimate
            + 4e-15 * abs(base.value))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(p=st.floats(0.5, 5.0), a=st.floats(-4.0, 4.0),
           w=st.floats(0.2, 5.0), phi=st.floats(0.0, TWO_PI),
           c=st.floats(0.5, 3.0), lo=st.floats(0.0, 5.0),
           width=st.floats(0.5, 12.0))
    def test_disk_route_agrees_with_the_formula_on_transmuted_kepler(
            self, p, a, w, phi, c, lo, width):
        # most non-monotone draws break the alternation hypothesis and are
        # skipped; one of the 60 kept has several pieces
        _assert_disk_route_agrees(
            TRANSMUTED_KEPLER, {"p": p, "A": a, "w": w, "phi": phi, "c": c},
            Interval(lo, lo + width))

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(k=st.floats(-3.0, 3.0).filter(bool),
           roots=st.lists(st.integers(-100, 1124) | st.floats(-0.5, 2.5),
                          min_size=1, max_size=4),
           lo=st.sampled_from([0.0, 1.0, 0.3]),
           width=st.sampled_from([1.5, 2.0, 0.7]),
           margin=st.floats(0.05, 2.0))
    def test_disk_route_agrees_with_the_formula_on_polynomials(
            self, k, roots, lo, width, margin):
        # f' = k*(x - r1)*...*(x - rn), an integer root being that point of
        # the 1024-cell grid; f is its antiderivative, lifted to a least
        # value of about margin on a 1024-cell grid of the interval
        interval = Interval(lo, lo + width)
        grid = _abscissa(interval.lo, interval.hi, 1024)
        slope = [k]  # coefficients of f', lowest degree first
        for r in roots:
            r = grid(r) if isinstance(r, int) else r
            slope = [0.0, *slope]
            for i in range(len(slope) - 1):
                slope[i] -= r * slope[i + 1]
        terms = [c / (i + 1) for i, c in enumerate(slope)]

        def rise(x):
            return sum(t * x ** (i + 1) for i, t in enumerate(terms))

        offset = margin - min(rise(grid(i)) for i in range(1025))
        text = " + ".join([repr(offset)] + [f"({t!r})*x^{i + 1}"
                                            for i, t in enumerate(terms)])
        _assert_disk_route_agrees(parse(text, variable="x"), {}, interval)

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
