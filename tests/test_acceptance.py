"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Every expected value is a closed form re-derived from antiderivatives or
an independent numeric oracle; tolerances are fixed here, not tuned.
"""

import math
import random
import time

import pytest

from revolve.expr import bind, differentiate, parse
from revolve.kepler import KeplerCurve
from revolve.monotone import (
    RULE_MULTIPLE_INTERSECTION,
    partition,
    validate_revolution_hypotheses,
)
from revolve.numerics import Interval, integrate
from revolve.volume import (
    disk_volume_x_axis,
    disk_volume_y_axis,
    piecewise_signed_sum,
    theorem1_x,
    theorem1_y,
    theorem2_y,
)
from corpus import CURVES, compiled

PI = math.pi
TWO_PI = 2.0 * math.pi
FULL = Interval(0.0, TWO_PI)


def _report(criterion, passed, detail):
    marker = "PASS" if passed else "FAIL"
    print(f"{marker} criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_flagship_curve_reproduction():
    curve = parse("x/pi + sin(x)", variable="x")
    expected = 8.0 * PI ** 3 / 3.0 + 4.0 * PI ** 2

    start = time.perf_counter()
    fn, derivative, enclosures = compiled(curve)
    formula = theorem2_y(fn, derivative, enclosures, FULL)
    pieces = piecewise_signed_sum(
        fn, enclosures, partition(fn, derivative, enclosures, FULL))
    elapsed = time.perf_counter() - start

    formula_rel = abs(formula.value - expected) / expected
    pieces_rel = abs(pieces.value - formula.value) / expected
    _report(1, formula_rel <= 1e-10 and pieces_rel <= 1e-9 and elapsed < 1.0,
            f"value {formula.value:.9f} vs 8pi^3/3 + 4pi^2 = {expected:.9f} "
            f"(rel {formula_rel:.2e}), piecewise rel {pieces_rel:.2e}, "
            f"{elapsed * 1e3:.0f} ms")


def test_criterion_2_disk_volume_of_kepler_family():
    worst = 0.0
    for eps in (0.1, 0.5, 0.9):
        curve, params = KeplerCurve(eps).as_expression()
        expected = 8.0 * PI ** 4 / 3.0 + (4.0 * eps + eps * eps) * PI ** 2
        report = disk_volume_y_axis(compiled(curve, params)[0], 0.0, TWO_PI)
        worst = max(worst, abs(report.value - expected) / expected)
    _report(2, worst <= 1e-8,
            f"disk volumes match 8pi^4/3 + (4e+e^2)pi^2 for e in "
            f"{{0.1, 0.5, 0.9}}, worst rel {worst:.2e}")


def test_criterion_3_x_axis_volume_through_numeric_inversion():
    worst = 0.0
    slowest = 0.0
    for eps in (0.1, 0.5, 0.9):
        fn, derivative, enclosures = compiled(*KeplerCurve(eps).as_expression())
        expected = 8.0 * PI ** 4 / 3.0 - 4.0 * eps * PI ** 2

        start = time.perf_counter()
        inverted = disk_volume_x_axis(fn, 0.0, TWO_PI, curve_interval=FULL,
                                      derivative=derivative,
                                      enclosures=enclosures)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        formula = theorem1_x(fn, derivative, enclosures, FULL)

        worst = max(worst,
                    abs(inverted.value - expected) / expected,
                    abs(formula.value - expected) / expected,
                    abs(inverted.value - formula.value) / expected)
    _report(3, worst <= 1e-6 and slowest < 1.0,
            f"inverted disk and boundary-term formula match "
            f"8pi^4/3 - 4e*pi^2, worst rel {worst:.2e}, "
            f"slowest inversion {slowest * 1e3:.0f} ms")


def test_criterion_4_formula_vs_disk_on_random_monotone_cubics():
    rng = random.Random(2718)
    worst = 0.0
    signs = {1: 0, -1: 0}
    for case in range(200):
        increasing = case % 2 == 0
        lo = rng.uniform(0.1, 2.5)
        hi = lo + rng.uniform(0.5, min(2.5, 5.0 - lo))
        slope = rng.uniform(0.2, 2.0)
        bow = rng.uniform(0.05, 1.0) / 3.0
        center = rng.uniform(0.0, 5.0)

        def cubic(x):
            return slope * x + bow * (x - center) ** 3

        if increasing:
            offset = 0.2 - cubic(lo)
            text = f"{offset} + {slope}*x + {bow}*(x - {center})^3"
            end_a, end_b = 0.2, offset + cubic(hi)
        else:
            offset = 0.2 + cubic(hi)
            text = f"{offset} - {slope}*x - {bow}*(x - {center})^3"
            end_a, end_b = offset - cubic(lo), 0.2
        fn, derivative, enclosures = compiled(parse(text, variable="x"))

        formula = theorem1_y(fn, derivative, enclosures, Interval(lo, hi))
        signs[formula.sign_factor] += 1
        c, d = min(end_a, end_b), max(end_a, end_b)
        disk = disk_volume_y_axis(fn, c, d, curve_interval=Interval(lo, hi),
                                  derivative=derivative,
                                  enclosures=enclosures)
        worst = max(worst, abs(formula.value - disk.value) / formula.value)
    _report(4, worst <= 1e-8 and signs[1] == 100 and signs[-1] == 100,
            f"200 monotone cubics, worst |formula - disk| rel {worst:.2e}, "
            f"sign branches hit {signs[1]}/{signs[-1]}")


def test_criterion_5_parity_of_accepted_curves():
    accepted = 0
    for name, text, var, params, lo, hi in CURVES:
        curve = parse(text, variable=var, parameters=params.keys())
        report = validate_revolution_hypotheses(*compiled(curve, params),
                                                Interval(lo, hi))
        if not report.satisfied:
            continue
        accepted += 1
        part = partition(*compiled(curve, params), Interval(lo, hi))
        assert part.interior_count % 2 == 0, name

    rejected = validate_revolution_hypotheses(
        *compiled(parse("1 + sin(x)", variable="x")), Interval(0.0, 1.5 * PI))
    counterexample_rejected = (
        not rejected.satisfied
        and RULE_MULTIPLE_INTERSECTION in [r for r, _ in rejected.violations])
    _report(5, accepted >= 8 and counterexample_rejected,
            f"{accepted} accepted fixtures all carry an even interior "
            f"extremum count; the double-intersection counterexample is "
            f"rejected with rule '{RULE_MULTIPLE_INTERSECTION}'")


def test_criterion_6_piecewise_formula_degenerates_exactly():
    fixtures = [
        ("x", "x", {}, Interval(1.0, 2.0)),
        ("3 - x", "x", {}, Interval(1.0, 2.0)),
        ("x^2", "x", {}, Interval(1.0, 2.0)),
        ("sqrt(x)", "x", {}, Interval(1.0, 4.0)),
        ("2*x^0.5 + x", "x", {}, Interval(0.01, 3.0)),
        ("y - eps*sin(y)", "y", {"eps": 0.5}, Interval(0.0, TWO_PI)),
    ]
    exact = True
    for text, var, params, interval in fixtures:
        curve = parse(text, variable=var, parameters=params.keys())
        one = theorem1_y(*compiled(curve, params), interval)
        two = theorem2_y(*compiled(curve, params), interval)
        exact = exact and (two.value == one.value)
    _report(6, exact,
            f"piecewise formula equals the single-piece formula bit-for-bit "
            f"on {len(fixtures)} monotone fixtures")


def test_criterion_7_quadrature_floor():
    oscillatory = integrate(lambda x: x * math.sin(x), 0.0, TWO_PI)
    osc_err = abs(oscillatory.value - (-TWO_PI))
    poly = integrate(lambda x: x * x, 0.0, 1.0)
    poly_err = abs(poly.value - 1.0 / 3.0)
    _report(7, osc_err <= 1e-12 and poly_err <= 1e-14,
            f"Int x sin x = -2pi within {osc_err:.2e} (<= 1e-12), "
            f"Int x^2 = 1/3 within {poly_err:.2e} (<= 1e-14)")


def test_criterion_8_symbolic_derivatives_match_finite_differences():
    h = 1e-6
    worst = 0.0
    for name, text, var, params, lo, hi in CURVES:
        curve = parse(text, variable=var, parameters=params.keys())
        fn = bind(curve, var, params)
        dfn = bind(differentiate(curve, var), var, params)
        rng = random.Random(hash(name) & 0xFFFFFF)
        for _ in range(1000):
            x = rng.uniform(lo + 2 * h, hi - 2 * h)
            fd = (fn(x + h) - fn(x - h)) / (2.0 * h)
            sym = dfn(x)
            scaled = abs(sym - fd) / (1.0 + abs(sym))
            worst = max(worst, scaled)
            assert scaled <= 1e-5, (name, x)
    _report(8, worst <= 1e-5,
            f"{len(CURVES)} fixture curves x 1000 points, worst scaled "
            f"derivative deviation {worst:.2e}")
