"""Monotone partitioning, parity checking, and hypothesis validation."""

import math
import random

import pytest

import revolve.monotone
from revolve.expr import bind, differentiate, parse
from revolve.monotone import (
    DECREASING,
    INCREASING,
    AlternationViolationError,
    CriticalPoints,
    Enclosures,
    MonotonePartition,
    PreconditionViolatedError,
    RULE_ALTERNATION,
    RULE_ENDPOINTS_EQUAL,
    RULE_MULTIPLE_INTERSECTION,
    RULE_NEGATIVE_VALUE,
    RULE_NOT_MONOTONE,
    check_lemma1,
    critical_points,
    partition,
    validate_revolution_hypotheses,
)
from revolve.numerics import (Interval, Tolerances, find_root_bracketed,
                               scan_sign_changes)
from corpus import CURVES, compiled

TWO_PI = 2.0 * math.pi
RAMP_WAVE = parse("x/pi + sin(x)", variable="x")
X1 = math.acos(-1.0 / math.pi)
X2 = TWO_PI - X1
# curve values at the extrema, from the arccos closed form
F_X1 = X1 / math.pi + math.sqrt(1.0 - 1.0 / math.pi ** 2)
F_X2 = X2 / math.pi - math.sqrt(1.0 - 1.0 / math.pi ** 2)


class TestCriticalPoints:
    def test_ramp_plus_wave(self):
        found = critical_points(*compiled(RAMP_WAVE)[1:], Interval(0.0, TWO_PI))
        assert len(found.points) == 2
        assert found.points[0] == pytest.approx(X1, abs=1e-9)
        assert found.points[1] == pytest.approx(X2, abs=1e-9)
        assert found.unproven == ()

    def test_monotone_line(self):
        assert critical_points(*compiled(parse("x", variable="x"))[1:],
                               Interval(1.0, 2.0)) == CriticalPoints(())

    def test_kepler_slope_never_vanishes(self):
        curve = parse("y - eps*sin(y)", variable="y", parameters=("eps",))
        found = critical_points(*compiled(curve, {"eps": 0.5})[1:],
                                Interval(0.0, TWO_PI))
        assert found == CriticalPoints(())

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            critical_points(*compiled(RAMP_WAVE)[1:], Interval(1.0, 1.0))


class TestPartition:
    def test_ramp_plus_wave_pieces(self):
        part = partition(*compiled(RAMP_WAVE), Interval(0.0, TWO_PI))
        assert part.breakpoints[0] == 0.0
        assert part.breakpoints[-1] == TWO_PI
        assert part.breakpoints[1] == pytest.approx(X1, abs=1e-9)
        assert part.breakpoints[2] == pytest.approx(X2, abs=1e-9)
        assert part.directions == (INCREASING, DECREASING, INCREASING)
        assert part.extremum_values[0] == pytest.approx(F_X1, abs=1e-9)
        assert part.extremum_values[1] == pytest.approx(F_X2, abs=1e-9)
        assert part.interior_count == 2

    def test_single_increasing_piece(self):
        part = partition(*compiled(parse("x", variable="x")), Interval(1.0, 2.0))
        assert part.breakpoints == (1.0, 2.0)
        assert part.directions == (INCREASING,)
        assert part.extremum_values == ()

    def test_single_decreasing_piece(self):
        part = partition(*compiled(parse("3 - x", variable="x")),
                         Interval(1.0, 2.0))
        assert part.breakpoints == (1.0, 2.0)
        assert part.directions == (DECREASING,)

    def test_constant_curve_rejected(self):
        with pytest.raises(AlternationViolationError) as excinfo:
            partition(*compiled(parse("2")), Interval(0.0, 1.0))
        assert excinfo.value.rule == RULE_NOT_MONOTONE

    def test_invariants_enforced_at_construction(self):
        with pytest.raises(AlternationViolationError):
            MonotonePartition((0.0, 1.0, 2.0), (INCREASING, INCREASING), (1.0,))
        with pytest.raises(ValueError):
            MonotonePartition((0.0, 1.0), (INCREASING, DECREASING), ())
        with pytest.raises(ValueError):
            MonotonePartition((1.0, 0.0), (INCREASING,), ())

    @pytest.mark.parametrize("name,text,var,params,lo,hi", CURVES[:11])
    def test_piece_directions_match_derivative_sign(self, name, text, var,
                                                    params, lo, hi):
        curve = parse(text, variable=var, parameters=params.keys())
        part = partition(*compiled(curve, params), Interval(lo, hi))
        slope = bind(differentiate(curve, var), var, params)
        rng = random.Random(hash(name) & 0xFFFF)
        for piece, direction in part.pieces():
            for _ in range(100):
                x = rng.uniform(piece.lo + 1e-9 * piece.width,
                                piece.hi - 1e-9 * piece.width)
                s = slope(x)
                if direction == INCREASING:
                    assert s > -1e-9
                else:
                    assert s < 1e-9

    @pytest.mark.parametrize("name,text,var,params,lo,hi", CURVES)
    def test_piece_directions_follow_breakpoint_values(self, name, text, var,
                                                       params, lo, hi):
        curve = parse(text, variable=var, parameters=params.keys())
        part = partition(*compiled(curve, params), Interval(lo, hi))
        fn = bind(curve, var, params)
        for piece, direction in part.pieces():
            rising = fn(piece.hi) > fn(piece.lo)
            assert direction == (INCREASING if rising else DECREASING)

    def test_nan_values_have_no_direction(self):
        # NaN end values order neither way, although the slope is 1
        curve = parse("x + eps", variable="x", parameters=("eps",))
        with pytest.raises(AlternationViolationError, match="not strictly"):
            partition(*compiled(curve, {"eps": math.nan}),
                      Interval(1.0, 2.0))

    def test_idempotent_on_monotone_piece(self):
        part = partition(*compiled(parse("x^2", variable="x")),
                         Interval(0.5, 2.0))
        assert part.breakpoints == (0.5, 2.0)


def _lipschitz(fn, constant):
    """An enclosure of ``fn`` from a Lipschitz ``constant``: on [lo, hi]
    it stays within constant*(hi - lo) of fn(lo), plus rounding slack."""
    def enclosure(lo, hi):
        v, reach = fn(lo), constant * (hi - lo) + 1e-15
        return v - reach, v + reach
    return enclosure


class TestCompiledFunctionContract:
    # the analyses take any float -> float functions and any valid interval
    # enclosures, not expressions: here crude Lipschitz bounds
    def test_partition_of_plain_callables(self):
        enclosures = Enclosures(_lipschitz(math.sin, 1.0),
                                _lipschitz(math.cos, 1.0),
                                _lipschitz(lambda x: -math.sin(x), 1.0))
        part = partition(math.sin, math.cos, enclosures, Interval(0.0, TWO_PI))
        assert len(part.breakpoints) == 4
        assert part.breakpoints[1] == pytest.approx(math.pi / 2, abs=1e-9)
        assert part.breakpoints[2] == pytest.approx(1.5 * math.pi, abs=1e-9)
        assert part.directions == (INCREASING, DECREASING, INCREASING)

    def test_validation_of_lambdas(self):
        fn = lambda x: x / math.pi + math.sin(x)
        slope = lambda x: 1.0 / math.pi + math.cos(x)
        enclosures = Enclosures(_lipschitz(fn, 1.0 + 1.0 / math.pi),
                                _lipschitz(slope, 1.0),
                                _lipschitz(lambda x: -math.sin(x), 1.0))
        report = validate_revolution_hypotheses(fn, slope, enclosures,
                                                Interval(0.0, TWO_PI))
        assert report.satisfied
        assert report.unproven == ()
        assert report.partition.breakpoints[1] == pytest.approx(X1, abs=1e-9)
        assert report.partition.breakpoints[2] == pytest.approx(X2, abs=1e-9)
        assert report.partition.extremum_values[0] == pytest.approx(F_X1,
                                                                    abs=1e-9)
        assert report.partition.extremum_values[1] == pytest.approx(F_X2,
                                                                    abs=1e-9)


def _grid_scan_points(curve, interval, params=None):
    """Breakpoints as the 1024-cell sign-change scan found them: brackets
    between grid points, refined by Brent, sorted and deduplicated."""
    _, derivative, _ = compiled(curve, params)
    tol = Tolerances()
    roots = sorted(find_root_bracketed(derivative, b.lo, b.hi, tol).root
                   for b in scan_sign_changes(derivative, interval.lo,
                                              interval.hi, 1024))
    edge = max(tol.abs_tol, 4.0 * math.ulp(max(abs(interval.lo),
                                               abs(interval.hi), 1.0)))
    points = []
    for r in roots:
        if interval.lo + edge < r < interval.hi - edge and not (
                points and r - points[-1] <= tol.abs_tol):
            points.append(r)
    return tuple(points)


def _undecided(lo, hi):
    return None


# The 1e-3 dip of x + 1 - 0.001/(1 + 1e8*(x - 1.0005)^2) on [0, 2]: f' < 0
# on a window about 2.4e-4 wide, inside one cell of the 1024-cell grid
DIP = parse("x + 1 - 0.001/(1 + 100000000*(x - 1.0005)^2)", variable="x")


class TestCertificate:
    @pytest.mark.parametrize("name,text,var,params,lo,hi", CURVES)
    def test_breakpoints_are_the_grid_scans(self, name, text, var, params,
                                            lo, hi):
        # wherever every cell settles at grid width, the extrema are refined
        # on the grid's own brackets, so they keep their bits
        curve = parse(text, variable=var, parameters=params.keys())
        found = critical_points(*compiled(curve, params)[1:], Interval(lo, hi))
        assert found.unproven == ()
        assert found.points == _grid_scan_points(curve, Interval(lo, hi), params)

    def test_dip_between_grid_points_is_found(self):
        found = critical_points(*compiled(DIP)[1:], Interval(0.0, 2.0))
        assert _grid_scan_points(DIP, Interval(0.0, 2.0)) == ()
        assert len(found.points) == 2 and found.unproven == ()
        assert 1.0002 < found.points[0] < found.points[1] < 1.0006
        part = partition(*compiled(DIP), Interval(0.0, 2.0))
        assert part.directions == (INCREASING, DECREASING, INCREASING)

    def test_one_sign_change_below_grid_width_keeps_the_grid_bracket(self):
        # f'' = 12*(x - 0.3)^2 touches 0 at the minimum, so its grid cell is
        # bisected below grid width; its one sign change is still refined on
        # the grid's bracket, as the scan did
        curve = parse("(x-0.3)^4", variable="x")
        found = critical_points(*compiled(curve)[1:], Interval(0.0, 1.0))
        assert len(found.points) == 1 and found.unproven == ()
        assert found.points == _grid_scan_points(curve, Interval(0.0, 1.0))

    def test_tangential_zero_gives_no_breakpoint(self):
        # x^3 has f'(0) = 0 without a sign change, at a grid point of [-1, 1]
        curve = parse("x^3", variable="x")
        found = critical_points(*compiled(curve)[1:], Interval(-1.0, 1.0))
        assert found == CriticalPoints(())
        part = partition(*compiled(curve), Interval(-1.0, 1.0))
        assert part.directions == (INCREASING,)

    def test_slope_vanishing_at_the_right_end(self):
        # f' = cos(x) vanishes at 1.5*pi, the interval's end: no breakpoint
        found = critical_points(*compiled(parse("1 + sin(x)", variable="x"))[1:],
                                Interval(0.0, 1.5 * math.pi))
        assert len(found.points) == 1 and found.unproven == ()
        assert found.points[0] == pytest.approx(math.pi / 2, abs=1e-9)

    def test_constant_curve_has_no_breakpoint(self):
        found = critical_points(*compiled(parse("2"))[1:], Interval(0.0, 1.0))
        assert found == CriticalPoints(())

    def test_undecided_cells_are_reported_unproven(self):
        # enclosures that never decide: every grid cell is bisected to the
        # depth cap or the cell budget; the sign changes of cos still show
        # at cell ends, and the cells without one are reported, not passed
        never = Enclosures(_undecided, _undecided, _undecided)
        found = critical_points(math.cos, never, Interval(0.0, TWO_PI))
        assert found.points == pytest.approx((math.pi / 2, 1.5 * math.pi),
                                             abs=1e-9)
        assert found.unproven
        report = validate_revolution_hypotheses(
            lambda x: 2.0 + math.sin(x), math.cos, never, Interval(0.0, 1.0))
        assert report.satisfied and report.unproven

    def test_dip_in_an_unproven_cell_is_found(self):
        # a dip below zero about 1e-6 wide, centred on a point of the
        # 4096-cell grid between two points of the 1024-cell grid, where f'
        # is positive: the partition has no breakpoint near it and leaves
        # its cell unproven, so nonnegativity is proven cell by cell too
        centre = 2050 / 4096

        def fn(x):
            return x + 1.0 - 2.0 / (1.0 + 1e12 * (x - centre) ** 2)

        def slope(x):
            return 1.0 + 4e12 * (x - centre) / (1.0 + 1e12 * (x - centre) ** 2) ** 2

        never = Enclosures(_undecided, _undecided, _undecided)
        report = validate_revolution_hypotheses(fn, slope, never,
                                                Interval(0.0, 1.0))
        assert report.partition.breakpoints == (0.0, 1.0)
        assert report.partition.unproven
        assert report.violations == ((RULE_NEGATIVE_VALUE, centre),)


class TestCheckLemma1:
    def test_ramp_plus_wave_is_even(self):
        part = partition(*compiled(RAMP_WAVE), Interval(0.0, TWO_PI))
        assert check_lemma1(part, 0.0, 2.0) is True

    def test_zero_extrema_is_even(self):
        part = partition(*compiled(parse("x", variable="x")), Interval(1.0, 2.0))
        assert check_lemma1(part, 1.0, 2.0) is True

    def test_extremum_outside_range_is_a_precondition_failure(self):
        curve = parse("1 + sin(x)", variable="x")
        part = partition(*compiled(curve), Interval(0.0, 1.5 * math.pi))
        # extremum value 2 exceeds max(f(a), f(b)) = 1
        with pytest.raises(PreconditionViolatedError):
            check_lemma1(part, 1.0, 0.0)

    def test_equal_endpoints_are_a_precondition_failure(self):
        part = partition(*compiled(parse("x", variable="x")), Interval(1.0, 2.0))
        with pytest.raises(PreconditionViolatedError):
            check_lemma1(part, 1.0, 1.0)

    def test_wrong_edge_direction_fails_the_verdict(self):
        # hand-built partition: rising endpoint values but a falling piece
        lone = MonotonePartition((0.0, 1.0), (DECREASING,), ())
        assert check_lemma1(lone, 0.0, 1.0) is False


class TestValidateRevolutionHypotheses:
    def test_ramp_plus_wave_satisfied(self):
        report = validate_revolution_hypotheses(*compiled(RAMP_WAVE),
                                                Interval(0.0, TWO_PI))
        assert report.satisfied
        assert report.c == pytest.approx(0.0, abs=1e-12)
        assert report.d == pytest.approx(2.0, abs=1e-12)
        # both extrema interior to (c, d)
        assert 0.0 < F_X2 < F_X1 < 2.0

    def test_shifted_wave_intersects_twice(self):
        curve = parse("1 + sin(x)", variable="x")
        report = validate_revolution_hypotheses(*compiled(curve),
                                                Interval(0.0, 1.5 * math.pi))
        assert not report.satisfied
        rules = [rule for rule, _ in report.violations]
        assert RULE_MULTIPLE_INTERSECTION in rules
        locations = [loc for rule, loc in report.violations
                     if rule == RULE_MULTIPLE_INTERSECTION]
        assert locations[0] == pytest.approx(math.pi / 2, abs=1e-6)

    def test_line_satisfied(self):
        report = validate_revolution_hypotheses(*compiled(parse("x", variable="x")),
                                                Interval(1.0, 2.0))
        assert report.satisfied
        assert (report.c, report.d) == (1.0, 2.0)

    def test_negative_curve_flagged(self):
        report = validate_revolution_hypotheses(*compiled(parse("x - 1", variable="x")),
                                                Interval(0.0, 2.0))
        assert not report.satisfied
        assert RULE_NEGATIVE_VALUE in [rule for rule, _ in report.violations]

    def test_constant_curve_is_not_strictly_monotone(self):
        # its one piece has equal end values: not an alternation fault
        report = validate_revolution_hypotheses(*compiled(parse("2")),
                                                Interval(0.0, 1.0))
        assert report.violations == ((RULE_ENDPOINTS_EQUAL, 0.0),
                                     (RULE_NOT_MONOTONE, 0.0))
        assert report.partition is None and report.unproven == ()

    def test_same_direction_pieces_keep_the_alternation_rule(self, monkeypatch):
        def same_direction(*args):
            return MonotonePartition((0.0, 1.0, 2.0), (INCREASING, INCREASING),
                                     (1.0,))

        monkeypatch.setattr(revolve.monotone, "partition", same_direction)
        report = validate_revolution_hypotheses(
            *compiled(parse("x + 1", variable="x")), Interval(0.0, 2.0))
        assert report.violations == ((RULE_ALTERNATION, 0.0),)

    def test_negative_curve_without_partition_is_flagged(self):
        report = validate_revolution_hypotheses(*compiled(parse("-1")),
                                                Interval(0.0, 1.0))
        assert (RULE_NEGATIVE_VALUE, 0.0) in report.violations

    def test_equal_endpoints_flagged(self):
        report = validate_revolution_hypotheses(*compiled(parse("sin(x)", variable="x")),
                                                Interval(0.0, math.pi))
        assert not report.satisfied
        assert RULE_ENDPOINTS_EQUAL in [rule for rule, _ in report.violations]

    def test_parity_property_over_trig_polynomials(self):
        # any curve accepted by the validator must have an even number of
        # interior extrema
        rng = random.Random(2024)
        accepted = 0
        for _ in range(120):
            a = rng.uniform(0.2, 1.5)
            b = rng.uniform(-1.5, 1.5)
            c = rng.uniform(-1.5, 1.5)
            d = rng.uniform(0.0, 3.0)
            text = f"{a}*x + {b}*sin(x) + {c}*cos(x) + {d}"
            curve = parse(text, variable="x")
            report = validate_revolution_hypotheses(*compiled(curve),
                                                    Interval(0.0, TWO_PI))
            if not report.satisfied:
                continue
            accepted += 1
            part = partition(*compiled(curve), Interval(0.0, TWO_PI))
            assert part.interior_count % 2 == 0
        assert accepted >= 10
