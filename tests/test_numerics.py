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
        assert iv.midpoint == 2.0
        assert 2.5 in iv
        assert 3.5 not in iv


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

    def test_bracket_residuals_are_not_evaluated_again(self):
        calls = []

        def f(x):
            calls.append(x)
            return x * x - 2.0

        newton_solve(f, lambda x: 2.0 * x, 1.5, bracket=Interval(1.0, 2.0),
                     residuals=(-1.0, 2.0))
        assert 1.0 not in calls and 2.0 not in calls

    def test_non_finite_bracket_residual_rejected(self):
        with pytest.raises(NonFiniteEvaluationError):
            newton_solve(lambda x: x - 1.5, lambda x: 1.0, 1.5,
                         bracket=Interval(1.0, 2.0), residuals=(math.nan, 0.5))

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
        r = newton_solve(f, lambda y: 1.0 - eps * math.cos(y), 1.0,
                         bracket=Interval(0.5, 1.5), residuals=(f(0.5), f(1.5)))
        assert abs(r.root - oracle) <= 1e-10
        assert r.root == pytest.approx(1.4987, abs=1e-4)
        assert abs(r.residual) <= 1e-12

    def test_fixed_point_at_origin(self):
        f = lambda y: y - 0.5 * math.sin(y)
        r = newton_solve(f, lambda y: 1.0 - 0.5 * math.cos(y), 0.0,
                         bracket=Interval(-1.0, 1.0), residuals=(f(-1.0), f(1.0)))
        assert r.root == 0.0
        assert r.iterations == 0

    def test_fixed_point_at_two_pi(self):
        f = lambda y: y - 0.5 * math.sin(y) - TWO_PI
        lo, hi = TWO_PI - 0.5, TWO_PI + 0.5
        r = newton_solve(f, lambda y: 1.0 - 0.5 * math.cos(y),
                         TWO_PI + 0.5 * math.sin(TWO_PI),
                         bracket=Interval(lo, hi), residuals=(f(lo), f(hi)))
        assert abs(r.root - TWO_PI) <= 1e-12

    def test_bisection_fallback_converges(self):
        # a zero derivative forces pure bisection on the bracket
        r = newton_solve(lambda x: x * x - 2.0, lambda x: 0.0, 1.0,
                         bracket=Interval(1.0, 2.0), residuals=(-1.0, 2.0))
        assert r.method_used == "newton-with-bisection-fallback"
        assert abs(r.root - math.sqrt(2.0)) <= 1e-10

    def test_bracket_without_sign_change_rejected(self):
        with pytest.raises(NoSignChangeError):
            newton_solve(lambda x: x * x + 1.0, lambda x: 2.0 * x, 1.5,
                         bracket=Interval(1.0, 2.0), residuals=(2.0, 5.0))

    def test_bracket_residuals_are_not_evaluated_again(self):
        calls = []

        def f(x):
            calls.append(x)
            return x * x - 2.0

        newton_solve(f, lambda x: 2.0 * x, 1.5, bracket=Interval(1.0, 2.0),
                     residuals=(-1.0, 2.0))
        assert 1.0 not in calls and 2.0 not in calls

    def test_non_finite_bracket_residual_rejected(self):
        with pytest.raises(NonFiniteEvaluationError):
            newton_solve(lambda x: x - 1.5, lambda x: 1.0, 1.5,
                         bracket=Interval(1.0, 2.0), residuals=(math.nan, 0.5))

    def test_max_iterations(self):
        tol = Tolerances(max_iter=3, residual_tol=1e-300)
        with pytest.raises(MaxIterationsExceededError):
            newton_solve(lambda x: math.cos(x) - x, lambda x: -math.sin(x) - 1.0,
                         0.0, bracket=Interval(0.0, 1.0),
                         residuals=(1.0, math.cos(1.0) - 1.0), tol=tol)

    def test_agrees_with_brent_on_kepler_residuals(self):
        rng = random.Random(42)
        for _ in range(100):
            eps = rng.uniform(1e-3, 1.0 - 1e-3)
            x = rng.uniform(0.0, TWO_PI)

            def f(y):
                return y - eps * math.sin(y) - x

            newton = newton_solve(f, lambda y: 1.0 - eps * math.cos(y),
                                  x + eps * math.sin(x),
                                  bracket=Interval(x - eps, x + eps),
                                  residuals=(f(x - eps), f(x + eps)))
            lo, hi = x - eps - 1e-6, x + eps + 1e-6
            brent = find_root_bracketed(f, lo, hi)
            assert abs(newton.root - brent.root) <= 1e-10
