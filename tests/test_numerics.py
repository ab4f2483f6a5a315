"""Quadrature and root finding against independent oracles.

Expected values are computed in-test from antiderivatives or plain
bisection, never copied from the routines under test.
"""

import math
import random

import pytest

from revolve.numerics import (
    Interval,
    MaxIterationsExceededError,
    NoSignChangeError,
    NonFiniteEvaluationError,
    Tolerances,
    _cc_cosines,
    _cc_level,
    _cc_weights,
    _clenshaw_curtis_panel,
    _XGK,
    find_root_bracketed,
    integrate,
    kronrod_panel,
    newton_solve,
    scan_sign_changes,
)

TWO_PI = 2.0 * math.pi


def bisect_oracle(f, lo, hi, steps=80):
    """Plain bisection, the reference for every root fixture."""
    flo = f(lo)
    assert flo * f(hi) < 0.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


class TestInterval:
    def test_orders_endpoints(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)

    def test_properties(self):
        iv = Interval(1.0, 3.0)
        assert iv.width == 2.0


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.abs_tol == 1e-12
        assert tol.rel_tol == 1e-10
        assert tol.residual_tol == 1e-12
        assert tol.max_depth == 50
        assert tol.max_iter == 100

    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": 0.0},
        {"rel_tol": -1e-3},
        {"residual_tol": 0.0},
        {"abs_tol": math.inf},
        {"rel_tol": math.inf},
        {"residual_tol": math.inf},
        {"rel_tol": math.nan},
        {"max_depth": 0},
        {"max_iter": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            Tolerances(**kwargs)


class TestKronrodPanel:
    def test_polynomial_exactness_to_degree_ten(self):
        # a single panel must integrate degree<=10 polynomials to roundoff;
        # fixtures keep |integral| >= 0.1 so the check measures rule
        # exactness rather than cancellation
        rng = random.Random(7)
        checked = 0
        while checked < 50:
            degree = rng.randint(0, 10)
            coeffs = [rng.uniform(-2, 2) for _ in range(degree + 1)]
            a = rng.uniform(-1.0, 0.5)
            b = a + rng.uniform(0.2, 1.0)
            exact = sum(c / (k + 1) * (b ** (k + 1) - a ** (k + 1))
                        for k, c in enumerate(coeffs))
            if abs(exact) < 0.1:
                continue
            value, _err = kronrod_panel(
                lambda x: sum(c * x ** k for k, c in enumerate(coeffs)), a, b)
            assert abs(value - exact) <= 1e-13 * abs(exact)
            checked += 1

    def test_nonfinite_integrand_reports_location(self):
        with pytest.raises(NonFiniteEvaluationError) as excinfo:
            kronrod_panel(lambda x: math.nan, 0.0, 1.0)
        assert 0.0 <= excinfo.value.x <= 1.0


# the panel's nodes on [0, 10] in evaluation order: the center, then
# center - half*x_j and center + half*x_j for each abscissa, outermost first
PANEL_NODES = [5.0] + [x for j in range(7)
                       for x in (5.0 - 5.0 * _XGK[j], 5.0 + 5.0 * _XGK[j])]


def _recording(values):
    """An integrand returning ``values[k]`` at its k-th call, or raising it
    when it is an exception, and the list of the abscissae it was called at."""
    calls = []

    def f(x):
        calls.append(x)
        value = values.get(len(calls) - 1, 1.0)
        if isinstance(value, Exception):
            raise value
        return value
    return f, calls


class TestKronrodPanelFailures:
    # node 4 is node 3's mirror, evaluated on the same line
    @pytest.mark.parametrize("raises", [5, 4])
    def test_first_non_finite_node_wins_over_a_later_raise(self, raises):
        f, calls = _recording({3: math.nan, raises: ZeroDivisionError("late")})
        with pytest.raises(NonFiniteEvaluationError) as excinfo:
            kronrod_panel(f, 0.0, 10.0)
        assert excinfo.value.x == PANEL_NODES[3]
        assert math.isnan(excinfo.value.value)
        assert calls == PANEL_NODES[:len(calls)]

    def test_first_non_finite_node_in_order_is_reported(self):
        f, calls = _recording({9: math.inf, 12: math.nan, 14: -math.inf})
        with pytest.raises(NonFiniteEvaluationError) as excinfo:
            kronrod_panel(f, 0.0, 10.0)
        assert (excinfo.value.x, excinfo.value.value) == (PANEL_NODES[9], math.inf)

    @pytest.mark.parametrize("k", range(15))
    def test_raise_stops_evaluation_in_node_order(self, k):
        error = ZeroDivisionError(f"at node {k}")
        f, calls = _recording({k: error})
        with pytest.raises(ZeroDivisionError) as excinfo:
            kronrod_panel(f, 0.0, 10.0)
        assert excinfo.value is error
        assert calls == PANEL_NODES[:k + 1]

    def test_every_node_evaluated_once_in_order(self):
        f, calls = _recording({})
        kronrod_panel(f, 0.0, 10.0)
        assert calls == PANEL_NODES

    @pytest.mark.parametrize("f, pinned", [
        (lambda x: 1e308, ("inf", "inf")),
        # an odd step about the center: resk stays finite, resabs overflows
        (lambda x: 1e308 if x >= 5.0 else -1e308,
         ("0x1.2a4ffe199d1b0p+1023", "inf")),
    ])
    def test_finite_values_whose_sums_overflow_do_not_raise(self, f, pinned):
        # every value is finite, so no node fails; hex bits from before the
        # panel was written as straight-line code
        value, err = kronrod_panel(f, 0.0, 10.0)
        assert (float.hex(value), float.hex(err)) == pinned


class TestIntegrate:
    def test_simple_polynomial(self):
        r = integrate(lambda x: x * x, 0.0, 1.0)
        assert r.converged
        assert abs(r.value - 1.0 / 3.0) <= 1e-14

    def test_oscillatory_fixture(self):
        # antiderivative of x*sin(x) is sin(x) - x*cos(x)
        exact = (math.sin(TWO_PI) - TWO_PI * math.cos(TWO_PI)) - 0.0
        assert exact == pytest.approx(-TWO_PI)
        r = integrate(lambda x: x * math.sin(x), 0.0, TWO_PI)
        assert r.converged
        assert abs(r.value - exact) <= 1e-12

    def test_squared_kepler_integrand(self):
        # Int (y - e*sin y)^2 dy over [0, 2pi] = 8pi^3/3 + (4e + e^2)*pi
        eps = 0.5
        exact = 8 * math.pi ** 3 / 3 + (4 * eps + eps * eps) * math.pi
        r = integrate(lambda y: (y - eps * math.sin(y)) ** 2, 0.0, TWO_PI)
        assert r.converged
        assert abs(r.value - exact) <= 1e-10 * exact

    def test_degenerate_interval(self):
        r = integrate(math.sin, 1.0, 1.0)
        assert r.value == 0.0 and r.converged and r.evaluations == 0

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0),
                                      (math.nan, 1.0)])
    def test_non_finite_limits_rejected(self, a, b):
        with pytest.raises(ValueError, match="limits must be finite"):
            integrate(lambda x: 1.0, a, b)

    def test_reversed_limits_rejected(self):
        with pytest.raises(ValueError):
            integrate(math.sin, 1.0, 0.0)

    def test_unconverged_when_depth_exhausted(self):
        tol = Tolerances(rel_tol=1e-13, abs_tol=1e-15, max_depth=1)
        r = integrate(lambda x: math.sin(50.0 * x) * x, 0.0, TWO_PI, tol)
        assert not r.converged

    def test_converged_error_bound_invariant(self):
        rng = random.Random(3)
        for _ in range(20):
            a = rng.uniform(0.0, 2.0)
            b = a + rng.uniform(0.5, 4.0)
            w = rng.uniform(0.5, 6.0)
            r = integrate(lambda x: math.cos(w * x) + 0.3 * x, a, b)
            if r.converged:
                assert r.error_estimate <= max(1e-12, 1e-10 * abs(r.value))
            assert r.error_estimate >= 0.0

    def test_additivity(self):
        rng = random.Random(11)
        for _ in range(20):
            a = rng.uniform(-2.0, 0.0)
            c = a + rng.uniform(1.0, 4.0)
            b = rng.uniform(a + 0.1, c - 0.1)
            k = rng.uniform(0.5, 3.0)

            def f(x):
                return x * x - k * math.sin(k * x)

            whole = integrate(f, a, c)
            left = integrate(f, a, b)
            right = integrate(f, b, c)
            tolerance = (whole.error_estimate + left.error_estimate
                         + right.error_estimate + 1e-13)
            assert abs(whole.value - left.value - right.value) <= tolerance

    def test_bit_reproducible(self):
        first = integrate(lambda x: x * math.sin(x), 0.0, TWO_PI)
        second = integrate(lambda x: x * math.sin(x), 0.0, TWO_PI)
        assert first.value == second.value
        assert first.error_estimate == second.error_estimate

    @pytest.mark.parametrize("f, a, b, pinned", [
        # the bits of Gauss-Kronrod integrate before it took a rule
        (lambda x: x * math.sin(x), 0.0, TWO_PI,
         ("-0x1.921fb54442d18p+2", "0x1.3a28c59d5433bp-43", 45)),
        (lambda x: math.sin(50.0 * x) * x, 0.0, TWO_PI,
         ("-0x1.015bf92172846p-3", "0x1.95dc5c4bc8920p-37", 3135)),
    ])
    def test_default_rule_keeps_its_bits(self, f, a, b, pinned):
        r = integrate(f, a, b)
        assert (r.value.hex(), r.error_estimate.hex(), r.evaluations) == pinned

    def test_custom_rule(self):
        # the two-point midpoint rule, its estimate the difference from the
        # one-point rule, which on x^2 is three times its error
        def midpoint(f, lo, hi, tol):
            mid, h = 0.5 * (lo + hi), hi - lo
            coarse = h * f(mid)
            fine = 0.5 * h * (f(0.5 * (lo + mid)) + f(0.5 * (mid + hi)))
            return fine, abs(fine - coarse), 3

        calls = []

        def f(x):
            calls.append(x)
            return x * x

        r = integrate(f, 0.0, 1.0, Tolerances(abs_tol=1e-6, rel_tol=1e-6),
                      midpoint)
        assert calls[:3] == [0.5, 0.25, 0.75]
        assert r.converged and r.evaluations == len(calls) > 3
        assert abs(r.value - 1.0 / 3.0) <= r.error_estimate <= 1e-6


def _monomial_level_sum(degree, level):
    """The sum of ``level`` for t^degree on [-1, 1], after the levels
    below it have filled their nodes."""
    values = [None] * 129
    values[0], values[-1] = (-1.0) ** degree, 1.0
    for k in range(level + 1):
        total = _cc_level(lambda t: t ** degree, 0.0, 1.0, values, k)
    return total


class TestClenshawCurtis:
    @pytest.mark.parametrize("level", range(5))
    def test_exact_up_to_each_levels_degree(self, level):
        # n + 1 points on n cells integrate degree n + 1 exactly (odd
        # degrees by symmetry)
        for degree in range((8 << level) + 2):
            exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
            value = _monomial_level_sum(degree, level)
            assert abs(value - exact) <= 1e-15, degree

    def test_level_zero_is_not_exact_beyond_its_degree(self):
        assert abs(_monomial_level_sum(10, 0) - 2.0 / 11.0) > 1e-5

    def test_weights_are_positive_and_symmetric(self):
        # their sum, 2, is the exactness test's degree 0
        for level in range(5):
            weights = _cc_weights(level)
            assert len(weights) == (8 << level) + 1
            assert min(weights) > 0.0
            assert weights == weights[::-1]
        # the end weight of n cells is 1/(n^2 - 1)
        assert _cc_weights(0)[0] == pytest.approx(1.0 / 63.0, rel=1e-15)

    def test_level_sum_is_taken_left_to_right(self):
        # terms of 1e16 that cancel: a compensated sum (the built-in sum of
        # floats from Python 3.12 on) keeps the small middle terms that a
        # left-to-right sum loses, so the bits would depend on the version
        def f(x):
            return 1e16 if x < -0.3 else -1e16 if x > 0.3 else 1.0

        values = [None] * 129
        values[0], values[-1] = f(-1.0), f(1.0)
        level_sum = _cc_level(f, 0.0, 1.0, values, 0)
        expected = 0.0
        for weight, value in zip(_cc_weights(0), values[::16]):
            expected += weight * value
        assert level_sum.hex() == expected.hex()

    def test_levels_reuse_every_node(self):
        # an integrand that vanishes at both ends is never evaluated there
        seen = []

        def f(x):
            seen.append(x)
            return x * (1.0 - x) * math.exp(x)

        values = [None] * 129
        values[0] = values[-1] = 0.0
        counts = []
        for level in range(5):
            value = 0.5 * _cc_level(f, 0.5, 0.5, values, level)
            counts.append(len(seen))
        assert counts == [7, 15, 31, 63, 127]
        assert len(set(seen)) == 127 and 0.0 < min(seen) and max(seen) < 1.0
        assert abs(value - (3.0 - math.e)) <= 1e-15

    def test_panel_stops_at_the_first_agreeing_level(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.exp(x)

        value, err, evaluations = _clenshaw_curtis_panel(
            f, 0.0, 1.0, Tolerances())
        # e^x on [0, 1]: level 1 (17 points) agrees with level 0
        assert evaluations == len(calls) == 17
        assert abs(value - (math.e - 1.0)) <= err

    def test_bit_identical_on_repeat(self):
        def run():
            r = integrate(lambda u: math.sin(3.0 * u) * u * (1.0 - u), 0.0,
                          1.0, None, _clenshaw_curtis_panel)
            return r.value.hex(), r.error_estimate.hex(), r.evaluations

        first = run()
        # the weights and nodes, computed on first use, come out the same
        _cc_weights.cache_clear()
        _cc_cosines.cache_clear()
        assert run() == first == run()

    def test_non_finite_node_reports_its_location(self):
        # 0.5 is the centre of [0, 1], a node of the first level
        with pytest.raises(NonFiniteEvaluationError) as excinfo:
            integrate(lambda x: math.nan if x == 0.5 else x, 0.0, 1.0,
                      rule=_clenshaw_curtis_panel)
        assert excinfo.value.x == 0.5 and math.isnan(excinfo.value.value)

    def test_narrow_bump_is_split_and_converges(self):
        seen = []

        def bump(x):
            seen.append(x)
            return 1.0 / (1.0 + 1e6 * (x - 0.3) ** 2)

        r = integrate(bump, 0.0, 1.0, None, _clenshaw_curtis_panel)
        exact = (math.atan(700.0) + math.atan(300.0)) / 1e3
        assert r.converged
        assert r.evaluations > 129  # one panel of 129 points failed
        assert abs(r.value - exact) <= r.error_estimate
        assert r.evaluations == len(seen)


class TestFindRootBracketed:
    def test_sqrt_two(self):
        r = find_root_bracketed(lambda x: x * x - 2.0, 1.0, 2.0)
        assert r.method_used == "bracketed"
        assert abs(r.root - math.sqrt(2.0)) <= 1e-11
        assert 1.0 <= r.root <= 2.0

    def test_extremum_of_ramp_plus_wave(self):
        f = lambda x: 1.0 / math.pi + math.cos(x)
        oracle = bisect_oracle(f, 1.5, 2.5)
        r = find_root_bracketed(f, 1.5, 2.5)
        assert abs(r.root - oracle) <= 1e-10
        assert abs(r.root - math.acos(-1.0 / math.pi)) <= 1e-10
        assert r.root == pytest.approx(1.894742, abs=1e-6)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChangeError):
            find_root_bracketed(lambda y: 1.0 - 0.5 * math.cos(y), 0.0, TWO_PI)

    def test_zero_endpoint_is_not_a_strict_bracket(self):
        with pytest.raises(NoSignChangeError):
            find_root_bracketed(lambda x: x, 0.0, 1.0)

    def test_sign_change_whose_product_underflows(self):
        # f(lo) * f(hi) is -0.0 here, yet the ends differ in sign; both are
        # within residual_tol of 0, so an end is accepted at once
        r = find_root_bracketed(lambda x: 1e-200 * (x - 0.25), 0.0, 1.0)
        assert r.root in (0.0, 1.0) and r.iterations == 0

    def test_bracket_residuals_are_not_evaluated_again(self):
        calls = []

        def f(x):
            calls.append(x)
            return x * x - 2.0

        newton_solve(f, lambda x: 2.0 * x, 0.0, 1.5, bracket=(1.0, 2.0),
                     residuals=(-1.0, 2.0))
        assert 1.0 not in calls and 2.0 not in calls

    def test_non_finite_bracket_residual_rejected(self):
        with pytest.raises(NonFiniteEvaluationError):
            newton_solve(lambda x: x - 1.5, lambda x: 1.0, 0.0, 1.5,
                         bracket=(1.0, 2.0), residuals=(math.nan, 0.5))

    def test_non_finite_iterate_reports_its_location(self):
        # finite only at the ends, so the first iterate inside fails
        with pytest.raises(NonFiniteEvaluationError) as excinfo:
            find_root_bracketed(lambda x: {0.0: -1.0, 1.0: 1.0}.get(x, math.inf),
                                0.0, 1.0)
        assert 0.0 < excinfo.value.x < 1.0
        assert excinfo.value.value == math.inf

    def test_max_iterations(self):
        tol = Tolerances(max_iter=2, residual_tol=1e-300, abs_tol=1e-300)
        with pytest.raises(MaxIterationsExceededError):
            find_root_bracketed(lambda x: math.cos(x), 0.0, 3.0, tol)

    def test_random_cubics_stay_bracketed(self):
        # the solver asserts f(b)*f(c) <= 0 on every iteration internally;
        # exercise it across many shapes
        rng = random.Random(23)
        for _ in range(50):
            r1 = rng.uniform(-2.0, 2.0)
            r2 = r1 + rng.uniform(0.5, 2.0)
            r3 = r2 + rng.uniform(0.5, 2.0)
            scale = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)

            def f(x):
                return scale * (x - r1) * (x - r2) * (x - r3)

            lo = r1 + (r2 - r1) * rng.uniform(0.05, 0.45)
            hi = r2 - 1e-9
            if f(lo) * f(hi) >= 0.0:
                continue
            root = find_root_bracketed(f, lo, hi).root
            assert abs(root - r2) <= 1e-7 or abs(f(root)) <= 1e-10


class TestScanSignChanges:
    def test_two_extrema_of_ramp_plus_wave(self):
        f = lambda x: 1.0 / math.pi + math.cos(x)
        brackets = scan_sign_changes(f, 0.0, TWO_PI, 1024)
        assert len(brackets) == 2
        x1 = math.acos(-1.0 / math.pi)
        x2 = TWO_PI - x1
        assert brackets[0].lo <= x1 <= brackets[0].hi
        assert brackets[1].lo <= x2 <= brackets[1].hi

    def test_constant_has_no_brackets(self):
        assert scan_sign_changes(lambda x: 1.0, 0.0, 1.0) == []

    def test_positive_kepler_slope_has_no_brackets(self):
        assert scan_sign_changes(
            lambda y: 1.0 - 0.9 * math.cos(y), 0.0, TWO_PI) == []

    def test_exact_zero_on_grid_extends_bracket(self):
        brackets = scan_sign_changes(lambda x: x - 0.5, 0.0, 1.0, 2)
        assert brackets == [Interval(0.0, 1.0)]

    def test_tangential_zero_not_reported(self):
        brackets = scan_sign_changes(lambda x: (x - 0.5) ** 2, 0.0, 1.0, 2)
        assert brackets == []

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            scan_sign_changes(lambda x: x, 0.0, 1.0, 1)


class TestNewtonSolve:
    def test_kepler_inversion_matches_bisection(self):
        eps = 0.5
        f = lambda y: y - eps * math.sin(y) - 1.0
        oracle = bisect_oracle(f, 1.0, 2.0)
        r = newton_solve(f, lambda y: 1.0 - eps * math.cos(y), 0.0, 1.0,
                         bracket=(0.5, 1.5), residuals=(f(0.5), f(1.5)))
        assert abs(r.root - oracle) <= 1e-10
        assert r.root == pytest.approx(1.4987, abs=1e-4)
        assert abs(r.residual) <= 1e-12

    def test_fixed_point_at_origin(self):
        f = lambda y: y - 0.5 * math.sin(y)
        r = newton_solve(f, lambda y: 1.0 - 0.5 * math.cos(y), 0.0, 0.0,
                         bracket=(-1.0, 1.0), residuals=(f(-1.0), f(1.0)))
        assert r.root == 0.0
        assert r.iterations == 0

    def test_fixed_point_at_two_pi(self):
        f = lambda y: y - 0.5 * math.sin(y) - TWO_PI
        lo, hi = TWO_PI - 0.5, TWO_PI + 0.5
        r = newton_solve(f, lambda y: 1.0 - 0.5 * math.cos(y), 0.0,
                         TWO_PI + 0.5 * math.sin(TWO_PI),
                         bracket=(lo, hi), residuals=(f(lo), f(hi)))
        assert abs(r.root - TWO_PI) <= 1e-12

    def test_bisection_fallback_converges(self):
        # a zero derivative forces pure bisection on the bracket
        r = newton_solve(lambda x: x * x - 2.0, lambda x: 0.0, 0.0, 1.0,
                         bracket=(1.0, 2.0), residuals=(-1.0, 2.0))
        assert r.method_used == "newton-with-bisection-fallback"
        assert abs(r.root - math.sqrt(2.0)) <= 1e-10

    def test_bracket_without_sign_change_rejected(self):
        with pytest.raises(NoSignChangeError):
            newton_solve(lambda x: x * x + 1.0, lambda x: 2.0 * x, 0.0, 1.5,
                         bracket=(1.0, 2.0), residuals=(2.0, 5.0))

    def test_one_signed_residuals_whose_product_underflows_rejected(self):
        # 5e-200 * 6e-200 underflows to 0.0, yet both residuals are positive
        with pytest.raises(NoSignChangeError):
            newton_solve(lambda x: 1e-200 * (x + 5.0), lambda x: 1e-200, 0.0,
                         0.5, bracket=(0.0, 1.0), residuals=(5e-200, 6e-200))

    def test_bracket_residuals_are_not_evaluated_again(self):
        calls = []

        def f(x):
            calls.append(x)
            return x * x - 2.0

        newton_solve(f, lambda x: 2.0 * x, 0.0, 1.5, bracket=(1.0, 2.0),
                     residuals=(-1.0, 2.0))
        assert 1.0 not in calls and 2.0 not in calls

    @pytest.mark.parametrize("residuals, x", [((math.nan, 0.5), 1.0),
                                              ((-0.5, math.inf), 2.0)])
    def test_non_finite_bracket_residual_rejected(self, residuals, x):
        with pytest.raises(NonFiniteEvaluationError) as excinfo:
            newton_solve(lambda x: x - 1.5, lambda x: 1.0, 0.0, 1.5,
                         bracket=(1.0, 2.0), residuals=residuals)
        assert excinfo.value.x == x

    def test_non_finite_iterate_reports_its_location(self):
        # the seed 1.5 lies inside the bracket, and f fails there
        with pytest.raises(NonFiniteEvaluationError) as excinfo:
            newton_solve(lambda x: math.nan if x == 1.5 else x - 1.5,
                         lambda x: 1.0, 0.0, 1.5, bracket=(1.0, 2.0),
                         residuals=(-0.5, 0.5))
        assert excinfo.value.x == 1.5 and math.isnan(excinfo.value.value)

    def test_max_iterations(self):
        tol = Tolerances(max_iter=3, residual_tol=1e-300)
        with pytest.raises(MaxIterationsExceededError):
            newton_solve(lambda x: math.cos(x) - x, lambda x: -math.sin(x) - 1.0,
                         0.0, 0.0, bracket=(0.0, 1.0),
                         residuals=(1.0, math.cos(1.0) - 1.0), tol=tol)

    def test_agrees_with_brent_on_kepler_residuals(self):
        rng = random.Random(42)
        for _ in range(100):
            eps = rng.uniform(1e-3, 1.0 - 1e-3)
            x = rng.uniform(0.0, TWO_PI)

            def f(y):
                return y - eps * math.sin(y) - x

            newton = newton_solve(f, lambda y: 1.0 - eps * math.cos(y), 0.0,
                                  x + eps * math.sin(x),
                                  bracket=(x - eps, x + eps),
                                  residuals=(f(x - eps), f(x + eps)))
            lo, hi = x - eps - 1e-6, x + eps + 1e-6
            brent = find_root_bracketed(f, lo, hi)
            assert abs(newton.root - brent.root) <= 1e-10

    def test_solves_for_a_target(self):
        f = lambda x: x * x
        r = newton_solve(f, lambda x: 2.0 * x, 2.0, 1.5, bracket=(1.0, 2.0),
                         residuals=(-1.0, 2.0))
        assert abs(r.root - math.sqrt(2.0)) <= 1e-12
        assert r.value == f(r.root)
        assert r.residual == r.value - 2.0

    def test_seed_outside_bracket_starts_at_nearer_end(self):
        # the seed 0.0 meets the residual tolerance, but lies outside
        r = newton_solve(lambda x: x, lambda x: 1.0, 1e-13, 0.0,
                         bracket=(1e-13, 1.0), residuals=(0.0, 1.0 - 1e-13))
        assert r.root == 1e-13
        assert r.iterations == 0

    @pytest.mark.parametrize("bracket", [(2.0, 1.0), (math.nan, 1.0),
                                         (0.0, math.inf)])
    def test_bracket_must_be_finite_and_ordered(self, bracket):
        with pytest.raises(ValueError):
            newton_solve(lambda x: x - 1.5, lambda x: 1.0, 0.0, 1.5,
                         bracket=bracket, residuals=(-0.5, 0.5))
