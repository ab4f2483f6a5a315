"""Volumes of solids of revolution, computed by mutually cross-validating
methods.

Four routes are implemented:

* ``shell``     -- direct shell quadrature 2*pi*Int x*f(x) dx of the region
                   between the curve and the abscissa axis;
* ``disk``      -- direct disk quadrature pi*Int g(y)^2 dy, inverting the
                   curve numerically per quadrature node when it is given
                   the other way around;
* ``theorem1``  -- the sign-corrected boundary-term formula
                   sgn(f(b)-f(a)) * {pi*[b^2 f(b) - a^2 f(a)] - 2*pi*Int x*f(x) dx}
                   valid for strictly monotone curves (``theorem3`` is its
                   x-axis mirror, ``theorem2`` the piecewise-monotone
                   extension under single-intersection hypotheses);
* ``piecewise`` -- the alternating sum of per-piece boundary-term volumes,
                   whose telescoping must reproduce the ``theorem2`` value.

Each method takes the curve compiled to a ``float -> float`` function
(``revolve.expr.bind``) and, where it evaluates f', the compiled
derivative, as the monotone analyses do; where a method checks a
hypothesis it also takes the curve's interval ``Enclosures``.  ``solve``
and ``cross_validate`` take a :class:`VolumeProblem` and compile its curve
once.  A hypothesis the enclosures leave unproven adds a
``hypotheses-unproven`` warning to the report.  The x-axis
names ``theorem1_x`` and ``disk_volume_x_axis`` are the same functions as
their y-axis mirrors: only the axis labels differ.

The boundary-term formulas are evaluated with a single quadrature plus
boundary terms, never by numerically inverting the curve; the direct disk
route does invert.  Keeping that asymmetry is what makes cross-validation
meaningful.

Where the disk radius is that numeric inverse, its integral is taken in
u over [0, 1] with y = lo + (hi-lo)*u^2*(3-2u) rather than in y.  At an
interior extremum f' = 0, so the inverse has a square-root end,
g(y) ~ x_e +- sqrt((y - y_e)/c), which adaptive quadrature in y resolves
only by bisecting toward it; in u that end is analytic.  The substitution
only moves the quadrature nodes: each node is still inverted by Newton
iteration on the curve itself, never through y = f(x) substituted
analytically, so the disk row still computes a different integrand in the
transverse variable and stays an independent check.

Cross-validation also reports ``shell-complement``: the bounding cylinders
minus the shell volume.  Its shell integral is the formula's own quadrature
(same integrand, interval and tolerances give the same bits), so that row
checks the cylinder arithmetic and sign correction, not the quadrature.

Reported volumes follow the convention that the region extends to the
rotation axis: rotation about the y-axis takes the region bounded by
x = 0, the two horizontal endpoint lines, and the curve; rotation about
the x-axis is the mirror image.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Sequence

from ._record import factory, record
from .errors import RevolveError
from .expr import Expression, bind, differentiate, enclose, the_variable
from .monotone import (
    _NONNEG_FLOOR,
    Enclosures,
    HypothesisReport,
    MonotonePartition,
    _floor_certificate,
    _validate_with_partition,
    critical_points,
    partition,
    validate_revolution_hypotheses,
)
from .numerics import (
    Interval,
    QuadratureResult,
    Tolerances,
    integrate,
    newton_solve,
)

__all__ = [
    "AXIS_X",
    "AXIS_Y",
    "HypothesisViolationError",
    "METHODS",
    "NegativeCurveError",
    "NotInvertibleError",
    "NotMonotoneError",
    "ROLE_X_OF_Y",
    "ROLE_Y_OF_X",
    "VolumeProblem",
    "VolumeReport",
    "WARN_NOT_CONVERGED",
    "WARN_UNPROVEN",
    "cross_validate",
    "disk_volume_x_axis",
    "disk_volume_y_axis",
    "piecewise_signed_sum",
    "shell_volume",
    "solve",
    "theorem1_x",
    "theorem1_y",
    "theorem2_y",
    "theorem3_x",
]

AXIS_Y = "y-axis"
AXIS_X = "x-axis"
ROLE_Y_OF_X = "y-of-x"
ROLE_X_OF_Y = "x-of-y"
METHODS = ("shell", "disk", "theorem1", "theorem2", "theorem3", "piecewise", "all")

WARN_NOT_CONVERGED = "quadrature-not-converged"
WARN_UNPROVEN = "hypotheses-unproven"


class NegativeCurveError(RevolveError):
    """The curve dips below zero where the method requires f >= 0."""

    def __init__(self, x: float, value: float):
        self.x = x
        self.value = value
        super().__init__(f"curve is negative: f({x!r}) = {value!r}")


class NotMonotoneError(RevolveError):
    """The single-piece boundary-term formula needs a strictly monotone curve."""


class NotInvertibleError(RevolveError):
    """Disk quadrature cannot invert a non-monotone curve."""


class HypothesisViolationError(RevolveError):
    """The piecewise formulas refuse curves that fail validation."""

    def __init__(self, report: HypothesisReport):
        self.report = report
        rules = ", ".join(f"{rule} at {loc!r}" for rule, loc in report.violations)
        super().__init__(f"revolution hypotheses violated: {rules}")


@record
class VolumeProblem:
    """One volume-of-revolution request.

    ``curve_role`` says whether the expression gives the ordinate as a
    function of the abscissa (``y-of-x``) or the other way around;
    ``interval`` is the range of the expression's free variable.
    """

    curve: Expression
    interval: Interval
    curve_role: str = ROLE_Y_OF_X
    axis: str = AXIS_Y
    method: str = "all"
    tol: Tolerances = factory(Tolerances)
    parameters: Mapping[str, float] = factory(dict)

    def __post_init__(self):
        if self.curve_role not in (ROLE_Y_OF_X, ROLE_X_OF_Y):
            raise ValueError(f"unknown curve role {self.curve_role!r}")
        if self.axis not in (AXIS_Y, AXIS_X):
            raise ValueError(f"unknown axis {self.axis!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


@record
class VolumeReport:
    """Result of a volume computation.

    ``sign_factor`` is the orientation correction sgn(f(b) - f(a)) applied
    by the boundary-term formulas; methods that need no correction report
    +1.  ``cross_checks`` holds ``(method, value, delta)`` triples relative
    to the primary value.
    """

    value: float
    method: str
    error_estimate: float
    sign_factor: int
    partition: MonotonePartition | None = None
    cross_checks: tuple[tuple[str, float, float], ...] = ()
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if self.sign_factor not in (-1, 1):
            raise ValueError("sign_factor must be -1 or +1")


# ---------------------------------------------------------------------------
# Internal helpers

# The only compile sites: ``solve`` and the cross-validation frames compile
# f once, and f' only where it is evaluated, and hand both functions down,
# with the enclosures where a method proves a hypothesis.
def _curve_function(curve: Expression, parameters: Mapping[str, float] | None
                    ) -> Callable[[float], float]:
    return bind(curve, the_variable(curve) or "_", parameters)


def _derivative_function(curve: Expression,
                         parameters: Mapping[str, float] | None
                         ) -> Callable[[float], float]:
    var = the_variable(curve) or "_"
    return bind(differentiate(curve, var), var, parameters)


def _curve_enclosures(curve: Expression, parameters: Mapping[str, float] | None
                      ) -> Enclosures:
    var = the_variable(curve) or "_"
    slope = differentiate(curve, var)
    return Enclosures(enclose(curve, var, parameters),
                      enclose(slope, var, parameters),
                      enclose(differentiate(slope, var), var, parameters))


def _clamp(raw: float, err: float) -> float:
    # volumes are nonnegative; absorb quadrature roundoff at zero
    if raw < 0.0 and -raw <= max(err, 1e-12):
        return 0.0
    return raw


def _sign(h_lo: float, h_hi: float) -> int:
    # the boundary-term formulas' orientation correction sgn(h_hi - h_lo)
    return 1 if h_hi > h_lo else -1


def _parts_value(fn: Callable[[float], float], lo: float, hi: float,
                 h_lo: float, h_hi: float, tol: Tolerances
                 ) -> tuple[float, float, QuadratureResult]:
    """Boundary-term evaluation shared by every formula tier.

    Returns ``(value, error_estimate, quadrature)`` for
    sgn(h_hi-h_lo) * {pi*[hi^2 h_hi - lo^2 h_lo] - 2*pi*Int t*h(t) dt},
    given the endpoint values ``h_lo = h(lo)`` and ``h_hi = h(hi)``.
    """
    quad = integrate(lambda t: t * fn(t), lo, hi, tol)
    boundary = math.pi * (hi * hi * h_hi - lo * lo * h_lo)
    raw = _sign(h_lo, h_hi) * (boundary - 2.0 * math.pi * quad.value)
    err = 2.0 * math.pi * quad.error_estimate
    return _clamp(raw, err), err, quad


def _disk_value(radius: Callable[[float], float], lo: float, hi: float,
                tol: Tolerances) -> tuple[float, float, QuadratureResult]:
    """``(value, error_estimate, quadrature)`` for pi*Int r(t)^2 dt."""
    quad = integrate(lambda t: radius(t) ** 2, lo, hi, tol)
    err = math.pi * quad.error_estimate
    return _clamp(math.pi * quad.value, err), err, quad


def _inverse_disk_value(inverse: Callable[[float], float], lo: float,
                        hi: float, tol: Tolerances
                        ) -> tuple[float, float, QuadratureResult]:
    """``(value, error_estimate, quadrature)`` for pi*Int g(y)^2 dy over
    [lo, hi], where ``g`` is the numeric inverse of a monotone piece.

    At an interior extremum g has a square-root end, so the integral is
    taken in u over [0, 1] with y = lo + (hi-lo)*u^2*(3-2u) and
    dy = 6*(hi-lo)*u*(1-u) du, which makes that end analytic in u.  Above
    u = 1/2, y is measured back from ``hi``, so every node stays within
    [lo, hi] and the inversion's bracket keeps its sign change; measured
    from ``lo`` it need not (-3.0 + (0.1 - -3.0) rounds above 0.1).
    """
    width = hi - lo

    def integrand(u: float) -> float:
        v = 1.0 - u
        if u <= 0.5:
            y = lo + width * (u * u * (3.0 - 2.0 * u))
        else:
            y = hi - width * (v * v * (1.0 + 2.0 * u))
        return inverse(y) ** 2 * (6.0 * width * u * v)

    quad = integrate(integrand, 0.0, 1.0, tol)
    err = math.pi * quad.error_estimate
    return _clamp(math.pi * quad.value, err), err, quad


def _alternating_sum(parts: Iterable[tuple[float, float, QuadratureResult]]
                     ) -> tuple[float, float, list[QuadratureResult]]:
    """Sum per-piece ``(volume, error_estimate, quadrature)`` triples with
    signs (-1)^i, as the piecewise formulas prescribe."""
    total = 0.0
    err = 0.0
    quads = []
    for i, (piece_value, piece_err, quad) in enumerate(parts):
        total += piece_value if i % 2 == 0 else -piece_value
        err += piece_err
        quads.append(quad)
    return _clamp(total, err), err, quads


def _quad_warnings(*quads: QuadratureResult) -> list[str]:
    return [WARN_NOT_CONVERGED] if any(not q.converged for q in quads) else []


def _unproven_warnings(cells: Sequence[tuple[float, float]]) -> list[str]:
    if not cells:
        return []
    lo, hi = cells[0]
    return [f"{WARN_UNPROVEN}: {len(cells)} cell(s) undecided, "
            f"first [{lo!r}, {hi!r}]"]


def _method_report(method: str, value: float, err: float,
                   *quads: QuadratureResult, sign: int = 1,
                   partition: MonotonePartition | None = None,
                   unproven: Sequence[tuple[float, float]] = ()) -> VolumeReport:
    return VolumeReport(
        value=value,
        method=method,
        error_estimate=err,
        sign_factor=sign,
        partition=partition,
        warnings=tuple(_quad_warnings(*quads) + _unproven_warnings(unproven)),
    )


def _inverse_on_piece(fn: Callable[[float], float],
                      derivative: Callable[[float], float],
                      piece: Interval, ends: tuple[float, float],
                      tol: Tolerances) -> Callable[[float], float]:
    """Evaluator for the inverse of ``fn`` restricted to a monotone piece,
    whose end values fn(piece.lo), fn(piece.hi) are ``ends``.

    Each call solves fn(t) = s by Newton iteration, bracketed by the piece
    and seeded with the previous root.  The flagship x/pi + sin(x) over
    [0, 2*pi] makes 105 calls per cross-check, at 5.5 iterations per call
    (574 in all).
    """
    seed = [piece.midpoint]
    f_lo, f_hi = ends

    def inverse(s: float) -> float:
        result = newton_solve(lambda t: fn(t) - s, derivative, seed[0],
                              piece, (f_lo - s, f_hi - s), tol)
        seed[0] = result.root
        return result.root

    return inverse


# ---------------------------------------------------------------------------
# Direct quadrature methods

def shell_volume(fn: Callable[[float], float], enclosures: Enclosures,
                 interval: Interval, tol: Tolerances | None = None
                 ) -> VolumeReport:
    """Shell quadrature 2*pi*Int x*f(x) dx about the perpendicular axis.

    This is the volume of the region between the curve and its abscissa
    axis.  Requires f >= 0 and an interval within [0, inf).  f >= 0 (within
    roundoff slack) is proven with the enclosures of f and f'; a point
    found below it raises ``NegativeCurveError``, at the first point of the
    4096-cell grid below it where there is one.
    """
    tol = tol or Tolerances()
    if interval.lo < 0.0:
        raise ValueError("shell quadrature requires an interval within [0, inf)")
    negative, unproven = _floor_certificate(fn, enclosures, interval)
    if negative is not None:
        raise NegativeCurveError(*negative)
    quad = integrate(lambda x: x * fn(x), interval.lo, interval.hi, tol)
    err = 2.0 * math.pi * quad.error_estimate
    return _method_report("shell", _clamp(2.0 * math.pi * quad.value, err),
                          err, quad, unproven=unproven)


def disk_volume_y_axis(fn: Callable[[float], float], lo: float, hi: float,
                       tol: Tolerances | None = None,
                       curve_interval: Interval | None = None,
                       derivative: Callable[[float], float] | None = None,
                       enclosures: Enclosures | None = None) -> VolumeReport:
    """Disk quadrature pi*Int r(t)^2 dt over [lo, hi].

    Without ``curve_interval``, ``fn`` is the disk radius itself (x = g(y)
    about the y-axis).  With it, the curve is given the other way around
    and is inverted numerically: it must be strictly monotone on
    ``curve_interval``, whose image is [lo, hi], which ``derivative`` and
    ``enclosures`` prove, and each quadrature node solves fn(t) = s by
    Newton iteration with ``derivative`` and the interval as bracket.

    ``disk_volume_x_axis``, its mirror for y = f(x) about the x-axis, is
    this same function: only the axis labels differ.
    """
    if not lo < hi:
        raise ValueError("disk quadrature requires lo < hi")
    tol = tol or Tolerances()
    if curve_interval is None:
        return _method_report("disk", *_disk_value(fn, lo, hi, tol))
    if derivative is None or enclosures is None:
        raise ValueError("inverting the curve requires its derivative and "
                         "enclosures")
    found = critical_points(derivative, enclosures, curve_interval, tol)
    if found.points:
        raise NotInvertibleError("curve is not strictly monotone on its interval")
    ends = (fn(curve_interval.lo), fn(curve_interval.hi))
    inverse = _inverse_on_piece(fn, derivative, curve_interval, ends, tol)
    return _method_report("disk", *_inverse_disk_value(inverse, lo, hi, tol),
                          unproven=found.unproven)


disk_volume_x_axis = disk_volume_y_axis


# ---------------------------------------------------------------------------
# Boundary-term formulas

def theorem1_y(fn: Callable[[float], float],
               derivative: Callable[[float], float], enclosures: Enclosures,
               interval: Interval, tol: Tolerances | None = None
               ) -> VolumeReport:
    """Boundary-term formula for a strictly monotone curve y = f(x)
    rotated about the y-axis.

        sgn(f(b)-f(a)) * {pi*[b^2 f(b) - a^2 f(a)] - 2*pi*Int x*f(x) dx}

    ``theorem1_x``, its mirror for x = g(y) about the x-axis, is this same
    function: only the axis labels differ.
    """
    tol = tol or Tolerances()
    if interval.lo < 0.0:
        raise ValueError("the boundary-term formula requires an interval "
                         "within [0, inf)")
    found = critical_points(derivative, enclosures, interval, tol)
    if found.points:
        raise NotMonotoneError("curve has interior extrema on the interval")
    f_lo, f_hi = fn(interval.lo), fn(interval.hi)
    if f_lo == f_hi:
        raise NotMonotoneError("endpoint values are equal")
    if min(f_lo, f_hi) < _NONNEG_FLOOR:
        raise NegativeCurveError(
            interval.lo if f_lo < f_hi else interval.hi, min(f_lo, f_hi))
    return _method_report(
        "theorem1", *_parts_value(fn, interval.lo, interval.hi, f_lo, f_hi, tol),
        sign=_sign(f_lo, f_hi), unproven=found.unproven)


theorem1_x = theorem1_y


def _theorem2(fn: Callable[[float], float],
              derivative: Callable[[float], float], enclosures: Enclosures,
              interval: Interval, tol: Tolerances | None, tag: str
              ) -> tuple[VolumeReport, tuple[float, ...], QuadratureResult,
                         tuple[tuple[float, float], ...]]:
    """The validated boundary-term formula over the whole interval.

    Besides the report, returns what cross-validation reuses: the curve's
    breakpoint values, the quadrature and the cells the validation left
    unproven.
    """
    tol = tol or Tolerances()
    if interval.lo < 0.0:
        raise ValueError("the boundary-term formula requires an interval "
                         "within [0, inf)")
    report = validate_revolution_hypotheses(fn, derivative, enclosures,
                                            interval, tol)
    if not report.satisfied:
        raise HypothesisViolationError(report)
    # the extremum values are fn's own results at the interior breakpoints
    ends = (fn(interval.lo), *report.partition.extremum_values, fn(interval.hi))
    value, err, quad = _parts_value(fn, interval.lo, interval.hi,
                                    ends[0], ends[-1], tol)
    primary = _method_report(tag, value, err, quad, sign=_sign(ends[0], ends[-1]),
                             partition=report.partition, unproven=report.unproven)
    return primary, ends, quad, report.unproven


def theorem2_y(fn: Callable[[float], float],
               derivative: Callable[[float], float], enclosures: Enclosures,
               interval: Interval, tol: Tolerances | None = None
               ) -> VolumeReport:
    """Piecewise-monotone boundary-term formula about the y-axis.

    Validates the revolution hypotheses first (violations raise
    ``HypothesisViolationError`` carrying the report).  On strictly
    monotone input this degenerates to :func:`theorem1_y` exactly: both
    run the same code path, so the results agree bit for bit.
    """
    return _theorem2(fn, derivative, enclosures, interval, tol, "theorem2")[0]


def theorem3_x(fn: Callable[[float], float],
               derivative: Callable[[float], float], enclosures: Enclosures,
               interval: Interval, tol: Tolerances | None = None
               ) -> VolumeReport:
    """Mirror of :func:`theorem2_y`: piecewise-monotone x = g(y) rotated
    about the x-axis."""
    return _theorem2(fn, derivative, enclosures, interval, tol, "theorem3")[0]


def _piecewise_value(fn: Callable[[float], float], p: MonotonePartition,
                     ends: tuple[float, ...], tol: Tolerances
                     ) -> tuple[float, float, list[QuadratureResult]]:
    # ``ends`` holds the curve's value at every breakpoint of ``p``
    return _alternating_sum(
        _parts_value(fn, piece.lo, piece.hi, h_lo, h_hi, tol)
        for (piece, _), h_lo, h_hi in zip(p.pieces(), ends, ends[1:]))


def piecewise_signed_sum(fn: Callable[[float], float], enclosures: Enclosures,
                         p: MonotonePartition, tol: Tolerances | None = None
                         ) -> VolumeReport:
    """Alternating sum of per-piece boundary-term volumes.

    Piece i contributes (-1)^i times its own (nonnegative) volume; the
    telescoping of the boundary terms makes the total equal the
    single-formula value, which is exactly what cross-validation checks.

    ``p`` must be ``partition``'s result for ``fn`` over its span: the
    revolution hypotheses are validated against ``p``, not against a fresh
    partition, and ``enclosures`` prove f >= 0 where ``p`` left a cell
    unproven.
    """
    tol = tol or Tolerances()
    report = _validate_with_partition(fn, enclosures, p, tol)
    if not report.satisfied:
        raise HypothesisViolationError(report)
    ends = tuple(fn(x) for x in p.breakpoints)
    value, err, quads = _piecewise_value(fn, p, ends, tol)
    return _method_report("piecewise", value, err, *quads,
                          sign=_sign(ends[0], ends[-1]), partition=p,
                          unproven=report.unproven)


# ---------------------------------------------------------------------------
# Cross-validation

def _disk_pieces_value(fn: Callable[[float], float],
                       derivative: Callable[[float], float],
                       p: MonotonePartition, ends: tuple[float, ...],
                       tol: Tolerances
                       ) -> tuple[float, float, list[QuadratureResult]]:
    """Alternating sum of per-piece disk volumes via numeric inversion.

    This is the fully independent route: a different integrand, taken in
    the transverse variable, with the curve inverted per node.  ``ends``
    holds the curve's value at every breakpoint.
    """
    return _alternating_sum(
        _inverse_disk_value(
            _inverse_on_piece(fn, derivative, piece, (h_lo, h_hi), tol),
            min(h_lo, h_hi), max(h_lo, h_hi), tol)
        for (piece, _), h_lo, h_hi in zip(p.pieces(), ends, ends[1:]))


def _pairwise_warnings(rows: list[tuple[str, float, float]],
                       tol: Tolerances) -> list[str]:
    warnings = []
    scale = max(abs(value) for _, value, _ in rows)
    floor = max(tol.abs_tol, tol.rel_tol * scale)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            name_i, value_i, err_i = rows[i]
            name_j, value_j, err_j = rows[j]
            allowed = max(err_i + err_j, floor)
            delta = abs(value_i - value_j)
            if delta > allowed:
                warnings.append(
                    f"methods {name_i} and {name_j} disagree: "
                    f"|delta| = {delta:.3e} > allowed {allowed:.3e}")
    return warnings


def _cross_theorem_frame(problem: VolumeProblem) -> VolumeReport:
    """Cross-validate a problem whose boundary-term formula applies
    directly (y-of-x about the y-axis, or x-of-y about the x-axis)."""
    tol = problem.tol
    interval = problem.interval
    if interval.lo < 0.0:
        raise ValueError("the boundary-term formulas require an interval "
                         "within [0, inf)")
    fn = _curve_function(problem.curve, problem.parameters)
    derivative = _derivative_function(problem.curve, problem.parameters)
    enclosures = _curve_enclosures(problem.curve, problem.parameters)
    primary, ends, quad, unproven = _theorem2(
        fn, derivative, enclosures, interval, tol,
        "theorem2" if problem.axis == AXIS_Y else "theorem3")
    part = primary.partition
    value, err = primary.value, primary.error_estimate
    rows: list[tuple[str, float, float]] = [(primary.method, value, err)]

    if part.interior_count == 0:
        # the formulas coincide on monotone input; record the tier anyway
        rows.append(("theorem1", value, err))

    piecewise_value, piecewise_err, piecewise_quads = _piecewise_value(
        fn, part, ends, tol)
    rows.append(("piecewise", piecewise_value, piecewise_err))

    disk_value, disk_err, disk_quads = _disk_pieces_value(
        fn, derivative, part, ends, tol)
    rows.append(("disk", disk_value, disk_err))

    # complement through the bounding cylinders: the region between the
    # curve and its own axis plus this region fill sgn-corrected cylinders.
    # Its shell integral is the primary's quadrature, so this row checks the
    # cylinder arithmetic, not the quadrature.
    shell_value = _clamp(2.0 * math.pi * quad.value, err)
    boundary = math.pi * (interval.hi ** 2 * ends[-1] - interval.lo ** 2 * ends[0])
    rows.append(("shell-complement",
                 _clamp(primary.sign_factor * (boundary - shell_value), err), err))

    warnings = _quad_warnings(quad, *piecewise_quads, *disk_quads) + \
        _unproven_warnings(unproven) + _pairwise_warnings(rows, tol)
    cross = tuple((name, v, abs(v - value)) for name, v, _ in rows[1:])
    return VolumeReport(value=value, method=primary.method, error_estimate=err,
                        sign_factor=primary.sign_factor, partition=part,
                        cross_checks=cross, warnings=tuple(warnings))


def _cross_disk_frame(problem: VolumeProblem) -> VolumeReport:
    """Cross-validate a problem whose direct route is the disk quadrature
    (x-of-y about the y-axis, or y-of-x about the x-axis).

    No boundary-term formula applies to this frame directly; when the
    curve is strictly monotone the formula is evaluated on the numerically
    inverted curve instead, as the independent check.
    """
    tol = problem.tol
    interval = problem.interval
    fn = _curve_function(problem.curve, problem.parameters)

    value, err, quad = _disk_value(fn, interval.lo, interval.hi, tol)
    rows: list[tuple[str, float, float]] = [("disk", value, err)]
    quads = [quad]
    warnings: list[str] = []

    h_lo, h_hi = fn(interval.lo), fn(interval.hi)
    mirror_tag = "theorem1" if problem.axis == AXIS_Y else "theorem3"

    derivative = (None if h_lo == h_hi
                  else _derivative_function(problem.curve, problem.parameters))
    found = None if derivative is None else critical_points(
        derivative, _curve_enclosures(problem.curve, problem.parameters),
        interval, tol)
    if found is None or found.points:
        warnings.append(
            "curve is not strictly monotone: no independent formula route")
    else:
        # boundary-term formula on the inverse curve, one inversion per
        # node: its variable spans the curve's values, and its values at
        # the ends of that span are the interval's ends
        warnings += _unproven_warnings(found.unproven)
        inverse = _inverse_on_piece(fn, derivative, interval, (h_lo, h_hi), tol)
        lo, hi = interval.lo, interval.hi
        limits = (h_lo, h_hi, lo, hi) if h_lo < h_hi else (h_hi, h_lo, hi, lo)
        inv_value, inv_err, inv_quad = _parts_value(inverse, *limits, tol)
        rows.append((mirror_tag, inv_value, inv_err))
        quads.append(inv_quad)

    warnings = _quad_warnings(*quads) + warnings + _pairwise_warnings(rows, tol)
    cross = tuple((name, v, abs(v - value)) for name, v, _ in rows[1:])
    return VolumeReport(
        value=value,
        method="disk",
        error_estimate=err,
        sign_factor=_sign(h_lo, h_hi) if h_lo != h_hi else 1,
        cross_checks=cross,
        warnings=tuple(warnings),
    )


def _formula_frame(problem: VolumeProblem) -> bool:
    # the curve is given along the axis perpendicular to the rotation axis
    return (problem.axis == AXIS_Y) == (problem.curve_role == ROLE_Y_OF_X)


def cross_validate(problem: VolumeProblem) -> VolumeReport:
    """Run every method applicable to ``problem`` and compare them.

    The primary value is the one with the fewest quadrature layers (the
    boundary-term formula where it applies directly, otherwise the direct
    disk quadrature); every other method lands in ``cross_checks`` with
    its absolute deviation, and any pair disagreeing beyond their combined
    error budget adds a warning instead of raising.
    """
    if problem.method != "all":
        raise ValueError("cross_validate requires method='all'")
    if _formula_frame(problem):
        return _cross_theorem_frame(problem)
    return _cross_disk_frame(problem)


# ---------------------------------------------------------------------------
# Problem dispatch

def solve(problem: VolumeProblem) -> VolumeReport:
    """Dispatch a :class:`VolumeProblem` to the requested method.

    Every method/frame check runs before anything is compiled; then f is
    compiled once, and f' only for the methods that evaluate it.
    """
    method = problem.method
    axis, role = problem.axis, problem.curve_role
    interval, tol = problem.interval, problem.tol
    formula_frame = _formula_frame(problem)

    if method == "all":
        return cross_validate(problem)
    if method in ("shell", "piecewise") and not formula_frame:
        raise ValueError(f"{method} needs the curve expressed along the "
                         "perpendicular axis")
    if method == "theorem1" and not formula_frame:
        raise ValueError("theorem1 applies to y-of-x curves about the "
                         "y-axis or x-of-y curves about the x-axis")
    if method == "theorem2" and (axis != AXIS_Y or role != ROLE_Y_OF_X):
        raise ValueError("theorem2 applies to y-of-x curves about the y-axis")
    if method == "theorem3" and (axis != AXIS_X or role != ROLE_X_OF_Y):
        raise ValueError("theorem3 applies to x-of-y curves about the x-axis")

    fn = _curve_function(problem.curve, problem.parameters)
    if method == "disk" and not formula_frame:
        # the curve is the disk radius itself
        return disk_volume_y_axis(fn, interval.lo, interval.hi, tol)
    enclosures = _curve_enclosures(problem.curve, problem.parameters)
    if method == "shell":
        return shell_volume(fn, enclosures, interval, tol)
    derivative = _derivative_function(problem.curve, problem.parameters)
    if method == "disk":
        # the radius is the inverse curve, over the curve's value range
        lo_v, hi_v = fn(interval.lo), fn(interval.hi)
        return disk_volume_y_axis(fn, min(lo_v, hi_v), max(lo_v, hi_v), tol,
                                  interval, derivative, enclosures)
    if method == "piecewise":
        # partition first, so a malformed curve reports the partition's
        # error rather than a hypothesis violation
        return piecewise_signed_sum(
            fn, enclosures, partition(fn, derivative, enclosures, interval, tol),
            tol)
    if method == "theorem1":
        return theorem1_y(fn, derivative, enclosures, interval, tol)
    if method == "theorem2":
        return theorem2_y(fn, derivative, enclosures, interval, tol)
    return theorem3_x(fn, derivative, enclosures, interval, tol)
