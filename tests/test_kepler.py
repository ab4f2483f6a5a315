"""Kepler curve family: forward map, inversion, reference volumes."""

import math
import random

import pytest

from revolve.kepler import KeplerCurve, forward, inverse, reference_volumes
from revolve.numerics import integrate
from corpus import compiled

TWO_PI = 2.0 * math.pi


def bisect_oracle(f, lo, hi, steps=80):
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


class TestKeplerCurve:
    @pytest.mark.parametrize("eps", [0.0, -0.1, 1.0, 1.5])
    def test_eccentricity_bounds(self, eps):
        with pytest.raises(ValueError):
            KeplerCurve(eps)

    def test_near_one_accepted(self):
        KeplerCurve(1.0 - 1e-6)

    def test_as_expression_matches_forward(self):
        from revolve.expr import evaluate

        curve = KeplerCurve(0.37)
        tree, params = curve.as_expression()
        for y in (0.0, 1.1, math.pi, 5.5):
            assert evaluate(tree, {**params, "y": y}) == forward(curve, y)


class TestForward:
    def test_zero(self):
        assert forward(KeplerCurve(0.5), 0.0) == 0.0

    def test_pi(self):
        assert forward(KeplerCurve(0.5), math.pi) == pytest.approx(math.pi)

    def test_half_pi(self):
        assert forward(KeplerCurve(0.5), math.pi / 2) == \
            pytest.approx(math.pi / 2 - 0.5)

    def test_strictly_increasing(self):
        rng = random.Random(5)
        curve = KeplerCurve(0.95 - 1e-6)
        ys = sorted(rng.uniform(-10.0, 10.0) for _ in range(200))
        xs = [forward(curve, y) for y in ys]
        assert all(x2 > x1 for x1, x2 in zip(xs, xs[1:]))


class TestInverse:
    def test_two_pi_fixed_point(self):
        assert inverse(KeplerCurve(0.5), TWO_PI) == pytest.approx(TWO_PI, abs=1e-12)

    def test_mid_value_matches_bisection(self):
        curve = KeplerCurve(0.5)
        oracle = bisect_oracle(lambda y: forward(curve, y) - 1.0, 1.0, 2.0)
        y = inverse(curve, 1.0)
        assert abs(y - oracle) <= 1e-10
        assert y == pytest.approx(1.4987, abs=1e-4)

    def test_high_eccentricity_fixed_point(self):
        assert inverse(KeplerCurve(0.9), math.pi) == pytest.approx(math.pi, abs=1e-12)

    def test_round_trip_identity(self):
        rng = random.Random(99)
        for _ in range(1000):
            curve = KeplerCurve(rng.uniform(1e-3, 1.0 - 1e-3))
            y = rng.uniform(0.0, TWO_PI)
            assert abs(inverse(curve, forward(curve, y)) - y) <= 1e-10


class TestReferenceVolumes:
    def test_near_zero_eccentricity_limit(self):
        v_y, v_x = reference_volumes(KeplerCurve(1e-12))
        limit = 8.0 * math.pi ** 4 / 3.0
        assert v_y == pytest.approx(limit, rel=1e-10)
        assert v_x == pytest.approx(limit, rel=1e-10)
        assert limit == pytest.approx(259.7576, abs=1e-4)

    def test_mid_eccentricity_values(self):
        v_y, v_x = reference_volumes(KeplerCurve(0.5))
        assert v_y == pytest.approx(281.964186, abs=1e-6)
        assert v_x == pytest.approx(240.018367, abs=1e-6)

    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    def test_v_y_confirmed_by_quadrature(self, eps):
        v_y, _ = reference_volumes(KeplerCurve(eps))
        quad = integrate(lambda y: (y - eps * math.sin(y)) ** 2, 0.0, TWO_PI)
        assert quad.converged
        assert math.pi * quad.value == pytest.approx(v_y, rel=1e-10)

    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    def test_v_x_confirmed_by_inverted_quadrature(self, eps):
        curve = KeplerCurve(eps)
        _, v_x = reference_volumes(curve)
        quad = integrate(lambda x: inverse(curve, x) ** 2, 0.0, TWO_PI)
        assert quad.converged
        assert math.pi * quad.value == pytest.approx(v_x, rel=1e-8)

    def test_growth_relative_to_straight_line(self):
        # v_y(eps) - v_y(0) = (4*eps + eps^2) * pi^2, confirmed by quadrature
        eps = 0.3
        base = 8.0 * math.pi ** 4 / 3.0
        quad = integrate(lambda y: (y - eps * math.sin(y)) ** 2, 0.0, TWO_PI)
        growth = math.pi * quad.value - base
        assert growth == pytest.approx((4 * eps + eps * eps) * math.pi ** 2,
                                       rel=1e-9)

    def test_sum_is_not_conserved(self):
        # guard against assuming the two volumes are complementary
        sums = [sum(reference_volumes(KeplerCurve(eps))) for eps in (0.1, 0.5)]
        assert abs(sums[0] - sums[1]) > 1.0

    def test_v_x_matches_boundary_term_formula(self):
        from revolve.volume import theorem1_x
        from revolve.numerics import Interval

        curve = KeplerCurve(0.5)
        tree, params = curve.as_expression()
        _, v_x = reference_volumes(curve)
        report = theorem1_x(*compiled(tree, params), Interval(0.0, TWO_PI))
        assert report.value == pytest.approx(v_x, rel=1e-9)
