"""Volumes of solids of revolution, computed by mutually cross-validating
methods.

Four routes are implemented:

* ``shell``     -- direct shell quadrature 2*pi*Int x*f(x) dx of the region
                   between the curve and the abscissa axis;
* ``disk``      -- direct disk quadrature pi*Int g(y)^2 dy, inverting the
                   curve numerically per quadrature node when it is given
                   the other way around (``disk_volume_y_axis`` takes the
                   radius itself; the inverted route runs through
                   ``solve``: the formula-frame ``disk`` method and the
                   cross-check's disk row share one per-piece function);
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
``hypotheses-unproven`` warning to the report.  Every report, those of
cross-validation included, is built by ``_method_report``, which also
compares each cross-check row with the primary value.  The Theorem 2
family (``theorem2``, ``theorem3``, ``piecewise`` and the formula frame
of cross-validation) is validated in one place, ``_validated``, which
also refuses an interval reaching below 0; ``solve`` runs every such
refusal before compiling.
The x-axis names ``theorem1_x`` and ``disk_volume_x_axis`` are the same
functions as their y-axis mirrors: only the axis labels differ.

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
transverse variable and stays an independent check.  A nested
Clenshaw-Curtis rule integrates it in u, so a finer level keeps every node
already inverted; the formula routes keep Gauss-Kronrod.

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
from bisect import bisect_left
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from ._record import record
from .errors import RevolveError
from .expr import Expression, bind, differentiate, enclose, the_variable
from .monotone import (
    _NONNEG_FLOOR,
    Enclosures,
    HypothesisReport,
    MonotonePartition,
    _floor_certificate,
    critical_points,
    partition,  # noqa: F401  (the benchmark's tracer patches it here)
    validate_revolution_hypotheses,
)
from .numerics import (
    Interval,
    QuadratureResult,
    Tolerances,
    _clenshaw_curtis_panel,
    _newton,
    integrate,
    newton_solve,  # noqa: F401  (the benchmark's tracer patches it here)
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
    tol: Tolerances = Tolerances()
    parameters: Mapping[str, float] = MappingProxyType({})

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

# The only compile site.  ``solve``, the cross-validation frames and the CLI
# call it once per request: f is compiled at once, and ``slope_functions``
# returns f' (unless ``derivative`` is false) and the enclosures of f, f'
# and f''.  The variable is resolved once and f differentiated once: the one
# slope tree serves both f' and the enclosures.  f'' is derived and enclosed
# on the first call of its enclosure, which only cells where the enclosure
# of f' straddles zero make.
def _compile(curve: Expression, parameters: Mapping[str, float] | None
             ) -> tuple[Callable[[float], float], Callable]:
    var = the_variable(curve) or "_"

    def slope_functions(derivative: bool = True):
        slope = differentiate(curve, var)
        curvature = None

        def lazy_curvature(lo: float, hi: float):
            nonlocal curvature
            if curvature is None:
                curvature = enclose(differentiate(slope, var), var, parameters)
            return curvature(lo, hi)
        return (bind(slope, var, parameters) if derivative else None,
                Enclosures(enclose(curve, var, parameters),
                           enclose(slope, var, parameters), lazy_curvature))
    return bind(curve, var, parameters), slope_functions


def _clamp(raw: float, err: float) -> float:
    # volumes are nonnegative; absorb quadrature roundoff at zero
    if raw < 0.0 and -raw <= max(err, 1e-12):
        return 0.0
    return raw


def _require_nonnegative(interval: Interval, what: str) -> None:
    if interval.lo < 0.0:
        raise ValueError(f"{what} requires an interval within [0, inf)")


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


def _inverse_disk_value(fn: Callable[[float], float],
                        derivative: Callable[[float], float],
                        piece: Interval, ends: tuple[float, float],
                        tol: Tolerances
                        ) -> tuple[float, float, QuadratureResult]:
    """``(value, error_estimate, quadrature)`` for pi*Int g(y)^2 dy over
    [lo, hi] = [min(ends), max(ends)], the image of a monotone ``piece``
    whose end values are ``ends``, where ``g`` is the numeric inverse of
    ``fn`` that :func:`_inverse_on_piece` builds on it.  This is the one
    disk route on a numeric inverse: the ``disk`` method and the
    cross-check's disk row both run it.

    At an interior extremum g has a square-root end, so the integral is
    taken in u over [0, 1] with y = lo + (hi-lo)*u^2*(3-2u) and
    dy = 6*(hi-lo)*u*(1-u) du, which makes that end analytic in u.  Above
    u = 1/2, y is measured back from ``hi``, so every node stays within
    [lo, hi] and the inversion's bracket keeps its sign change; measured
    from ``lo`` it need not (-3.0 + (0.1 - -3.0) rounds above 0.1).  The
    nested Clenshaw-Curtis rule integrates it: a finer level keeps every
    node already inverted, and a bisected panel's halves invert new ones.
    dy/du is 0 at u = 0 and u = 1, so the integrand is 0 there without an
    inversion.  The error estimate adds the inversion's, pi*(hi-lo) times
    the largest error of g^2, to the quadrature's.
    """
    inverse, inversion = _inverse_on_piece(fn, derivative, piece, ends, tol)
    lo, hi = min(ends), max(ends)
    width = hi - lo

    def integrand(u: float) -> float:
        if u == 0.0 or u == 1.0:
            return 0.0
        v = 1.0 - u
        if u <= 0.5:
            y = lo + width * (u * u * (3.0 - 2.0 * u))
        else:
            y = hi - width * (v * v * (1.0 + 2.0 * u))
        return inverse(y) ** 2 * (6.0 * width * u * v)

    quad = integrate(integrand, 0.0, 1.0, tol, _clenshaw_curtis_panel)
    err = math.pi * (quad.error_estimate + width * inversion[0])
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


def _method_report(method: str, value: float, err: float,
                   *quads: QuadratureResult, sign: int = 1,
                   partition: MonotonePartition | None = None,
                   unproven: Sequence[tuple[float, float]] = (),
                   notes: Sequence[str] = (),
                   checks: Sequence[tuple[str, float, float]] = (),
                   tol: Tolerances | None = None) -> VolumeReport:
    """The one place a :class:`VolumeReport` is built.

    ``checks`` are cross-validation rows ``(name, value, error_estimate)``;
    each row that disagrees with the primary beyond ``tol`` adds one
    warning after those of unconverged ``quads``, ``notes`` and
    ``unproven`` cells.
    """
    warnings = [WARN_NOT_CONVERGED] if any(not q.converged for q in quads) else []
    warnings += notes
    if unproven:
        lo, hi = unproven[0]
        warnings.append(f"{WARN_UNPROVEN}: {len(unproven)} cell(s) undecided, "
                        f"first [{lo!r}, {hi!r}]")
    if checks:
        scale = max(abs(value), *(abs(v) for _, v, _ in checks))
        floor = max(tol.abs_tol, tol.rel_tol * scale)
        for name, v, row_err in checks:
            allowed = max(err + row_err, floor)
            delta = abs(value - v)
            if delta > allowed:
                warnings.append(
                    f"methods {method} and {name} disagree: "
                    f"|delta| = {delta:.3e} > allowed {allowed:.3e}")
    return VolumeReport(
        value=value, method=method, error_estimate=err, sign_factor=sign,
        partition=partition, warnings=tuple(warnings),
        cross_checks=tuple((name, v, abs(v - value)) for name, v, _ in checks))


def _inverse_on_piece(fn: Callable[[float], float],
                      derivative: Callable[[float], float],
                      piece: Interval, ends: tuple[float, float],
                      tol: Tolerances, parts: bool = False
                      ) -> tuple[Callable[[float], float], list[float]]:
    """Evaluator for the inverse of ``fn`` restricted to a monotone piece,
    whose end values fn(piece.lo), fn(piece.hi) are ``ends``, and a
    one-item list holding the largest first-order error among the nodes
    solved so far of the inverse's square, or with ``parts`` of s times the
    inverse: the disk and the boundary-term integrands.

    Each call solves fn(t) = s by Newton iteration through the kernel
    behind ``newton_solve``, which builds no record per node.  The points
    solved so far, starting with the piece ends, are kept sorted by fn
    value; s is bracketed by its two nearest solved neighbours, whose
    stored values minus s are the bracket's residuals, and Newton is seeded
    by linear interpolation between them.  Each root is stored with
    fn(root) as Newton evaluated it, so every later bracket's residuals
    carry the signs fn gives.  A root is off by about its residual
    |fn(root) - s| plus ulp(s), the rounding that leaves even a residual of
    exactly 0 uncertain, times the bracket's slope |dt/ds|; so its square
    by twice the root times that, and s times it by |s| times that; the
    list keeps the largest.  The flagship x/pi + sin(x) over
    [0, 2*pi] makes 45 calls per cross-check, at 3.7 iterations per call
    (166 in all).
    """
    (v_lo, t_lo), (v_hi, t_hi) = sorted(zip(ends, (piece.lo, piece.hi)))
    values, roots = [v_lo, v_hi], [t_lo, t_hi]
    residual_tol, max_iter = tol.residual_tol, tol.max_iter
    worst = [0.0]

    def inverse(s: float) -> float:
        i = bisect_left(values, s, 1, len(values) - 1)
        v0, v1, t0, t1 = values[i - 1], values[i], roots[i - 1], roots[i]
        seed = t0 + (t1 - t0) * ((s - v0) / (v1 - v0)) if v0 < v1 else t0
        if t0 <= t1:
            root, value, _, _ = _newton(fn, derivative, s, seed, t0, t1,
                                        v0 - s, v1 - s, residual_tol, max_iter)
        else:
            root, value, _, _ = _newton(fn, derivative, s, seed, t1, t0,
                                        v1 - s, v0 - s, residual_tol, max_iter)
        if v0 < v1:
            weight = s if parts else 2.0 * root
            miss = abs(value - s) + math.ulp(s)
            error = abs(weight * miss * (t1 - t0) / (v1 - v0))
            if error > worst[0]:
                worst[0] = error
        if not v0 <= value <= v1:
            # fn is monotone only up to rounding
            i = bisect_left(values, value)
        values.insert(i, value)
        roots.insert(i, root)
        return root

    return inverse, worst


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
    _require_nonnegative(interval, "shell quadrature")
    negative, unproven = _floor_certificate(fn, enclosures, interval)
    if negative is not None:
        raise NegativeCurveError(*negative)
    quad = integrate(lambda x: x * fn(x), interval.lo, interval.hi, tol)
    err = 2.0 * math.pi * quad.error_estimate
    return _method_report("shell", _clamp(2.0 * math.pi * quad.value, err),
                          err, quad, unproven=unproven)


def disk_volume_y_axis(fn: Callable[[float], float], lo: float, hi: float,
                       tol: Tolerances | None = None) -> VolumeReport:
    """Disk quadrature pi*Int r(t)^2 dt over [lo, hi], where ``fn`` is the
    disk radius itself (x = g(y) about the y-axis).

    A curve given the other way around is inverted numerically by
    :func:`solve`: its ``disk`` method in a formula frame, and the disk
    row of :func:`cross_validate`.  ``disk_volume_x_axis``, the mirror for
    y = f(x) about the x-axis, is this same function: only the axis labels
    differ.
    """
    if not lo < hi:
        raise ValueError("disk quadrature requires lo < hi")
    return _method_report("disk", *_disk_value(fn, lo, hi, tol or Tolerances()))


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
    _require_nonnegative(interval, "the boundary-term formula")
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


def _validated(fn: Callable[[float], float],
               derivative: Callable[[float], float], enclosures: Enclosures,
               interval: Interval, tol: Tolerances
               ) -> tuple[HypothesisReport, tuple[float, ...]]:
    """Refuse an interval reaching below 0, then validate the revolution
    hypotheses, raising ``HypothesisViolationError`` if they fail; return
    the report and the curve's value at each breakpoint."""
    _require_nonnegative(interval, "the boundary-term formula")
    report = validate_revolution_hypotheses(fn, derivative, enclosures,
                                            interval, tol)
    if not report.satisfied:
        raise HypothesisViolationError(report)
    # the extremum values are fn's own results at the interior breakpoints
    return report, (fn(interval.lo), *report.partition.extremum_values,
                    fn(interval.hi))


def _theorem2(fn: Callable[[float], float],
              derivative: Callable[[float], float], enclosures: Enclosures,
              interval: Interval, tol: Tolerances | None, tag: str
              ) -> VolumeReport:
    """The validated boundary-term formula over the whole interval."""
    tol = tol or Tolerances()
    report, ends = _validated(fn, derivative, enclosures, interval, tol)
    return _method_report(
        tag, *_parts_value(fn, interval.lo, interval.hi, ends[0], ends[-1], tol),
        sign=_sign(ends[0], ends[-1]), partition=report.partition,
        unproven=report.unproven)


def theorem2_y(fn: Callable[[float], float],
               derivative: Callable[[float], float], enclosures: Enclosures,
               interval: Interval, tol: Tolerances | None = None
               ) -> VolumeReport:
    """Piecewise-monotone boundary-term formula about the y-axis.

    Validates the revolution hypotheses first (violations raise
    ``HypothesisViolationError`` carrying the report).  On strictly
    monotone input that passes, the value is :func:`theorem1_y`'s bit for
    bit, since both sum the same boundary terms.  Only the checks differ:
    ``theorem1_y`` refuses end values only when they are equal, while the
    hypotheses also refuse end values within ``tol`` of each other.
    """
    return _theorem2(fn, derivative, enclosures, interval, tol, "theorem2")


def theorem3_x(fn: Callable[[float], float],
               derivative: Callable[[float], float], enclosures: Enclosures,
               interval: Interval, tol: Tolerances | None = None
               ) -> VolumeReport:
    """Mirror of :func:`theorem2_y`: piecewise-monotone x = g(y) rotated
    about the x-axis."""
    return _theorem2(fn, derivative, enclosures, interval, tol, "theorem3")


def _piecewise_value(fn: Callable[[float], float], p: MonotonePartition,
                     ends: tuple[float, ...], tol: Tolerances
                     ) -> tuple[float, float, list[QuadratureResult]]:
    # ``ends`` holds the curve's value at every breakpoint of ``p``
    return _alternating_sum(
        _parts_value(fn, piece.lo, piece.hi, h_lo, h_hi, tol)
        for (piece, _), h_lo, h_hi in zip(p.pieces(), ends, ends[1:]))


def piecewise_signed_sum(fn: Callable[[float], float],
                         derivative: Callable[[float], float],
                         enclosures: Enclosures, interval: Interval,
                         tol: Tolerances | None = None) -> VolumeReport:
    """Alternating sum of per-piece boundary-term volumes.

    Piece i contributes (-1)^i times its own (nonnegative) volume; the
    telescoping of the boundary terms makes the total equal the
    single-formula value, which is exactly what cross-validation checks.
    The revolution hypotheses are validated as :func:`theorem2_y` validates
    them, and the pieces are those of the validation's partition.
    """
    tol = tol or Tolerances()
    report, ends = _validated(fn, derivative, enclosures, interval, tol)
    value, err, quads = _piecewise_value(fn, report.partition, ends, tol)
    return _method_report("piecewise", value, err, *quads,
                          sign=_sign(ends[0], ends[-1]),
                          partition=report.partition, unproven=report.unproven)


# ---------------------------------------------------------------------------
# Cross-validation

def _cross_theorem_frame(problem: VolumeProblem) -> VolumeReport:
    """Cross-validate a problem whose boundary-term formula applies
    directly (y-of-x about the y-axis, or x-of-y about the x-axis)."""
    tol = problem.tol
    interval = problem.interval
    fn, slope_functions = _compile(problem.curve, problem.parameters)
    derivative, enclosures = slope_functions()
    report, ends = _validated(fn, derivative, enclosures, interval, tol)
    part = report.partition
    value, err, quad = _parts_value(fn, interval.lo, interval.hi,
                                    ends[0], ends[-1], tol)
    sign = _sign(ends[0], ends[-1])
    # the formulas coincide on monotone input; record the tier anyway
    rows = [] if part.interior_count else [("theorem1", value, err)]

    # a single piece's quadrature is the primary's own: the same integrand,
    # interval and tolerances give the same bits, so it is not run again
    piecewise_value, piecewise_err, piecewise_quads = (
        _piecewise_value(fn, part, ends, tol) if part.interior_count
        else _alternating_sum([(value, err, quad)]))
    rows.append(("piecewise", piecewise_value, piecewise_err))

    # the fully independent route: per-piece disk volumes, a different
    # integrand taken in the transverse variable, the curve inverted per node
    disk_value, disk_err, disk_quads = _alternating_sum(
        _inverse_disk_value(fn, derivative, piece, (h_lo, h_hi), tol)
        for (piece, _), h_lo, h_hi in zip(part.pieces(), ends, ends[1:]))
    rows.append(("disk", disk_value, disk_err))

    # complement through the bounding cylinders: the region between the
    # curve and its own axis plus this region fill sgn-corrected cylinders.
    # Its shell integral is the primary's quadrature, so this row checks the
    # cylinder arithmetic, not the quadrature.
    shell_value = _clamp(2.0 * math.pi * quad.value, err)
    boundary = math.pi * (interval.hi ** 2 * ends[-1] - interval.lo ** 2 * ends[0])
    rows.append(("shell-complement",
                 _clamp(sign * (boundary - shell_value), err), err))

    return _method_report("theorem2" if problem.axis == AXIS_Y else "theorem3",
                          value, err, quad, *piecewise_quads, *disk_quads,
                          sign=sign, partition=part, unproven=report.unproven,
                          checks=rows, tol=tol)


def _cross_disk_frame(problem: VolumeProblem) -> VolumeReport:
    """Cross-validate a problem whose direct route is the disk quadrature
    (x-of-y about the y-axis, or y-of-x about the x-axis).

    No boundary-term formula applies to this frame directly; when the
    curve is strictly monotone the formula is evaluated on the numerically
    inverted curve instead, as the independent check.
    """
    tol = problem.tol
    interval = problem.interval
    fn, slope_functions = _compile(problem.curve, problem.parameters)

    value, err, quad = _disk_value(fn, interval.lo, interval.hi, tol)
    quads, checks, notes, unproven = [quad], [], [], ()
    h_lo, h_hi = fn(interval.lo), fn(interval.hi)
    derivative, enclosures = (None, None) if h_lo == h_hi else slope_functions()
    found = None if derivative is None else critical_points(
        derivative, enclosures, interval, tol)
    if found is None or found.points:
        notes = ["curve is not strictly monotone: no independent formula route"]
    else:
        # boundary-term formula on the inverse curve, one inversion per
        # node: its variable spans the curve's values, and its values at
        # the ends of that span are the interval's ends
        unproven = found.unproven
        inverse, inversion = _inverse_on_piece(
            fn, derivative, interval, (h_lo, h_hi), tol, parts=True)
        lo, hi = interval.lo, interval.hi
        limits = (h_lo, h_hi, lo, hi) if h_lo < h_hi else (h_hi, h_lo, hi, lo)
        inv_value, inv_err, inv_quad = _parts_value(inverse, *limits, tol)
        # 2*pi*Int s*g(s) ds is off by up to 2*pi*|span| times s*g's worst
        inv_err += 2.0 * math.pi * abs(h_hi - h_lo) * inversion[0]
        checks = [("theorem1" if problem.axis == AXIS_Y else "theorem3",
                   inv_value, inv_err)]
        quads.append(inv_quad)
    return _method_report("disk", value, err, *quads,
                          sign=_sign(h_lo, h_hi) if h_lo != h_hi else 1,
                          unproven=unproven, notes=notes, checks=checks, tol=tol)


def _formula_frame(problem: VolumeProblem) -> bool:
    # the curve is given along the axis perpendicular to the rotation axis
    return (problem.axis == AXIS_Y) == (problem.curve_role == ROLE_Y_OF_X)


def cross_validate(problem: VolumeProblem) -> VolumeReport:
    """Run every method applicable to ``problem`` and compare them.

    The primary value is the one with the fewest quadrature layers (the
    boundary-term formula where it applies directly, otherwise the direct
    disk quadrature); every other method lands in ``cross_checks`` with
    its absolute deviation, and each one disagreeing with the primary
    beyond their combined error budget adds a warning instead of raising.
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

    Every method/frame check and interval refusal runs before anything is
    compiled; then f is compiled once, and f' only for the methods that
    evaluate it.
    """
    method = problem.method
    axis, role = problem.axis, problem.curve_role
    interval, tol = problem.interval, problem.tol
    formula_frame = _formula_frame(problem)

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
    if method == "shell":
        _require_nonnegative(interval, "shell quadrature")
    elif formula_frame and method != "disk":
        _require_nonnegative(interval, "the boundary-term formula")

    if method == "all":
        return cross_validate(problem)
    fn, slope_functions = _compile(problem.curve, problem.parameters)
    if method == "disk" and not formula_frame:
        # the curve is the disk radius itself
        return disk_volume_y_axis(fn, interval.lo, interval.hi, tol)
    if method == "disk":
        # the radius is the inverse curve, which only a strictly monotone
        # curve has; f' is compiled only once the end values differ
        ends = (fn(interval.lo), fn(interval.hi))
        derivative, enclosures = ((None, None) if ends[0] == ends[1]
                                  else slope_functions())
        found = None if derivative is None else critical_points(
            derivative, enclosures, interval, tol)
        if found is None or found.points:
            raise NotInvertibleError("curve is not strictly monotone on its "
                                     "interval")
        return _method_report(
            "disk", *_inverse_disk_value(fn, derivative, interval, ends, tol),
            unproven=found.unproven)
    derivative, enclosures = slope_functions(method != "shell")
    if method == "shell":
        return shell_volume(fn, enclosures, interval, tol)
    # looked up per call: the benchmark's tracer patches these names
    formula = {"theorem1": theorem1_y, "theorem2": theorem2_y,
               "theorem3": theorem3_x, "piecewise": piecewise_signed_sum}
    return formula[method](fn, derivative, enclosures, interval, tol)
