"""Kepler-equation curve family: forward map, Newton inverse, and
closed-form volume references.

The curve x = y - eps*sin(y) is strictly increasing for eccentricities
below 1 (its derivative 1 - eps*cos(y) stays positive), so the inverse
y(x) exists everywhere and Newton iteration with a bracket converges
unconditionally.  The family doubles as a fixture generator: both volumes
of revolution over [0, 2*pi] have closed forms, verified independently by
adaptive quadrature in the test suite.
"""

from __future__ import annotations

import math

from ._record import record
from .expr import Expression, parse
from .numerics import Interval, Tolerances, newton_solve

__all__ = ["KeplerCurve", "forward", "inverse", "reference_volumes"]

_MAX_ECCENTRICITY = 1.0 - 1e-6


@record
class KeplerCurve:
    """Curve x = y - eps*sin(y) with eccentricity eps in (0, 1)."""

    eccentricity: float

    def __post_init__(self):
        e = self.eccentricity
        if not (0.0 < e <= _MAX_ECCENTRICITY):
            raise ValueError(
                f"eccentricity must lie in (0, {_MAX_ECCENTRICITY}]; got {e!r}")

    def as_expression(self) -> tuple[Expression, dict[str, float]]:
        """The curve as ``y - eps*sin(y)`` plus its parameter binding."""
        return (parse("y - eps*sin(y)", variable="y", parameters=("eps",)),
                {"eps": self.eccentricity})


def forward(curve: KeplerCurve, y: float) -> float:
    """x = y - eps*sin(y)."""
    return y - curve.eccentricity * math.sin(y)


def inverse(curve: KeplerCurve, x: float,
            tol: Tolerances | None = None) -> float:
    """Solve y - eps*sin(y) = x for y.

    Newton iteration seeded with one fixed-point step y0 = x + eps*sin(x);
    the bracket [x - eps, x + eps] is always valid because
    |y - x| = eps*|sin(y)| <= eps.
    """
    e = curve.eccentricity

    def residual(y: float) -> float:
        return y - e * math.sin(y) - x

    def slope(y: float) -> float:
        return 1.0 - e * math.cos(y)

    seed = x + e * math.sin(x)
    lo, hi = x - e, x + e
    return newton_solve(residual, slope, seed, Interval(lo, hi),
                        (residual(lo), residual(hi)), tol).root


def reference_volumes(curve: KeplerCurve) -> tuple[float, float]:
    """Closed-form volumes of revolution of the curve over [0, 2*pi].

    Returns ``(v_y, v_x)``: the y-axis volume of the region between the
    curve and the y-axis, and the x-axis volume of the region between the
    inverse curve and the x-axis.  With eps the eccentricity,

        v_y = 8*pi^4/3 + (4*eps + eps^2)*pi^2
        v_x = 8*pi^4/3 - 4*eps*pi^2

    both confirmed against direct adaptive quadrature of pi*Int g(y)^2 dy
    and pi*Int f(x)^2 dx (f evaluated by Newton inversion).
    """
    e = curve.eccentricity
    base = 8.0 * math.pi ** 4 / 3.0
    v_y = base + (4.0 * e + e * e) * math.pi ** 2
    v_x = base - 4.0 * e * math.pi ** 2
    return v_y, v_x
