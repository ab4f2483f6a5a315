"""Monotone partitioning, parity checking, and hypothesis validation."""

import math
import random

import pytest

from revolve.expr import bind, differentiate, parse
from revolve.monotone import (
    DECREASING,
    INCREASING,
    AlternationViolationError,
    MonotonePartition,
    PreconditionViolatedError,
    RULE_ENDPOINTS_EQUAL,
    RULE_MULTIPLE_INTERSECTION,
    RULE_NEGATIVE_VALUE,
    check_lemma1,
    critical_points,
    partition,
    validate_revolution_hypotheses,
)
from revolve.numerics import Interval
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
        points = critical_points(compiled(RAMP_WAVE)[1], Interval(0.0, TWO_PI))
        assert len(points) == 2
        assert points[0] == pytest.approx(X1, abs=1e-9)
        assert points[1] == pytest.approx(X2, abs=1e-9)

    def test_monotone_line(self):
        assert critical_points(compiled(parse("x", variable="x"))[1],
                               Interval(1.0, 2.0)) == []

    def test_kepler_slope_never_vanishes(self):
        curve = parse("y - eps*sin(y)", variable="y", parameters=("eps",))
        points = critical_points(compiled(curve, {"eps": 0.5})[1],
                                 Interval(0.0, TWO_PI))
        assert points == []

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            critical_points(compiled(RAMP_WAVE)[1], Interval(1.0, 1.0))


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
        with pytest.raises(AlternationViolationError):
            partition(*compiled(parse("2")), Interval(0.0, 1.0))

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


class TestCompiledFunctionContract:
    # the analyses take any float -> float functions, not expressions
    def test_partition_of_plain_callables(self):
        part = partition(math.sin, math.cos, Interval(0.0, TWO_PI))
        assert len(part.breakpoints) == 4
        assert part.breakpoints[1] == pytest.approx(math.pi / 2, abs=1e-9)
        assert part.breakpoints[2] == pytest.approx(1.5 * math.pi, abs=1e-9)
        assert part.directions == (INCREASING, DECREASING, INCREASING)

    def test_validation_of_lambdas(self):
        report = validate_revolution_hypotheses(
            lambda x: x / math.pi + math.sin(x),
            lambda x: 1.0 / math.pi + math.cos(x), Interval(0.0, TWO_PI))
        assert report.satisfied
        assert report.partition.breakpoints[1] == pytest.approx(X1, abs=1e-9)
        assert report.partition.breakpoints[2] == pytest.approx(X2, abs=1e-9)
        assert report.partition.extremum_values[0] == pytest.approx(F_X1,
                                                                    abs=1e-9)
        assert report.partition.extremum_values[1] == pytest.approx(F_X2,
                                                                    abs=1e-9)


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
