"""Partition curves into strictly monotone pieces and validate the
hypotheses the volume formulas rely on.

Every analysis takes the curve as a ``float -> float`` function and, where
it needs one, its derivative; callers compile each once (``revolve.volume``
and the CLI do) and pass both to every analysis.

A partition's interior breakpoints are the curve's local extrema: zeros of
the derivative at which the derivative changes sign.  Zeros without a sign
change (such as the derivative of x^3 at 0) do not break strict
monotonicity and are deliberately excluded.

A piece's direction is sgn(f(hi) - f(lo)) of its end values, as the paper
orients a curve; the derivative serves only to find the breakpoints.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

from ._record import record
from .errors import RevolveError
# Unused here: bench/tracer.py's Tracer.install patches these two names on
# this module, so they stay until the tracer stops wrapping them.
from .expr import bind, differentiate  # noqa: F401
from .numerics import (Interval, Tolerances, find_root_bracketed,
                       scan_sign_changes, uniform_grid)

__all__ = [
    "AlternationViolationError",
    "HypothesisReport",
    "INCREASING",
    "DECREASING",
    "MonotonePartition",
    "PreconditionViolatedError",
    "RULE_ALTERNATION",
    "RULE_ENDPOINTS_EQUAL",
    "RULE_MULTIPLE_INTERSECTION",
    "RULE_NEGATIVE_VALUE",
    "check_lemma1",
    "critical_points",
    "partition",
    "validate_revolution_hypotheses",
]

INCREASING = "increasing"
DECREASING = "decreasing"

# Roundoff slack when checking nonnegativity at a zero boundary; the volume
# methods apply the same floor.
_NONNEG_FLOOR = -1e-12

# Cells of the derivative sign-change scan, and of the uniform grid on which
# nonnegativity is checked (here and by the volume methods).
_SCAN_CELLS = 1024
_NONNEG_CELLS = 4096

RULE_ENDPOINTS_EQUAL = "endpoints-equal"
RULE_NEGATIVE_VALUE = "negative-value"
RULE_MULTIPLE_INTERSECTION = "multiple-intersection"
RULE_ALTERNATION = "alternation"


class PreconditionViolatedError(RevolveError):
    """Input fails the boundary conditions of the parity check."""


class AlternationViolationError(RevolveError):
    """Adjacent pieces of a partition do not alternate direction, which
    signals a missed tangential-zero pathology."""


@record
class MonotonePartition:
    """Breakpoints of a curve's strictly monotone pieces.

    ``breakpoints`` runs from the query interval's left endpoint to its
    right endpoint; the interior points are the curve's local extrema, and
    ``extremum_values`` holds the curve values there.
    """

    breakpoints: tuple[float, ...]
    directions: tuple[str, ...]
    extremum_values: tuple[float, ...]

    def __post_init__(self):
        if len(self.breakpoints) < 2:
            raise ValueError("a partition needs at least two breakpoints")
        if len(self.directions) != len(self.breakpoints) - 1:
            raise ValueError("one direction per piece is required")
        if len(self.extremum_values) != len(self.breakpoints) - 2:
            raise ValueError("one value per interior breakpoint is required")
        if any(b >= c for b, c in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly ascending")
        for d in self.directions:
            if d not in (INCREASING, DECREASING):
                raise ValueError(f"unknown direction tag {d!r}")
        for x, prev, nxt in zip(self.breakpoints[1:], self.directions,
                                self.directions[1:]):
            if prev == nxt:
                raise AlternationViolationError(
                    f"pieces adjacent at {x!r} share direction {prev!r}")

    @property
    def interior_count(self) -> int:
        return len(self.breakpoints) - 2

    def pieces(self) -> Iterator[tuple[Interval, str]]:
        for lo, hi, direction in zip(self.breakpoints, self.breakpoints[1:],
                                     self.directions):
            yield Interval(lo, hi), direction


@record
class HypothesisReport:
    """Outcome of the single-intersection / nonnegativity validation.

    ``c`` and ``d`` are the smaller and larger endpoint values of the
    curve; ``violations`` is a sequence of ``(rule, location)`` pairs and
    ``satisfied`` holds exactly when it is empty.  ``partition`` is the
    monotone partition the validation computed, or ``None`` when it could
    not be built.
    """

    satisfied: bool
    c: float
    d: float
    violations: tuple[tuple[str, float], ...]
    partition: MonotonePartition | None = None

    def __post_init__(self):
        if self.satisfied != (not self.violations):
            raise ValueError("satisfied flag inconsistent with violations")


def critical_points(derivative: Callable[[float], float], interval: Interval,
                    tol: Tolerances | None = None) -> list[float]:
    """Interior points where ``derivative`` changes sign.

    Sign changes are located on a 1024-cell scan and refined by
    bracketed root finding; results are sorted and deduplicated within
    ``abs_tol``.
    """
    tol = tol or Tolerances()
    if interval.width <= 0.0:
        raise ValueError("interval must be non-degenerate")
    roots = []
    for bracket in scan_sign_changes(derivative, interval.lo, interval.hi,
                                     _SCAN_CELLS):
        roots.append(find_root_bracketed(derivative, bracket.lo, bracket.hi, tol).root)
    roots.sort()
    scale = max(abs(interval.lo), abs(interval.hi), 1.0)
    edge = max(tol.abs_tol, 4.0 * math.ulp(scale))
    deduped: list[float] = []
    for r in roots:
        if r <= interval.lo + edge or r >= interval.hi - edge:
            continue
        if deduped and r - deduped[-1] <= tol.abs_tol:
            continue
        deduped.append(r)
    return deduped


def partition(fn: Callable[[float], float],
              derivative: Callable[[float], float], interval: Interval,
              tol: Tolerances | None = None) -> MonotonePartition:
    """Split ``interval`` into strictly monotone pieces of ``fn``, breaking
    it where ``derivative`` changes sign.

    A piece is increasing when fn(hi) > fn(lo) and decreasing when
    fn(hi) < fn(lo); equal or unordered (NaN) end values raise
    ``AlternationViolationError``, and so do adjacent pieces that share a
    direction.  A constant curve is one piece with equal end values.
    """
    tol = tol or Tolerances()
    points = critical_points(derivative, interval, tol)
    breakpoints = (interval.lo, *points, interval.hi)
    values = [fn(x) for x in breakpoints]

    directions = []
    for lo, hi, v_lo, v_hi in zip(breakpoints, breakpoints[1:],
                                  values, values[1:]):
        if not (v_lo < v_hi or v_lo > v_hi):  # equal, or NaN
            raise AlternationViolationError(
                f"piece [{lo!r}, {hi!r}] is not strictly monotone")
        directions.append(INCREASING if v_hi > v_lo else DECREASING)
    return MonotonePartition(breakpoints, tuple(directions), tuple(values[1:-1]))


def check_lemma1(p: MonotonePartition, f_a: float, f_b: float) -> bool:
    """Parity check: with distinct endpoint values and every interior
    extremum value strictly between them, the interior extremum count must
    be even.

    Returns ``True`` for even counts whose first and last pieces run in
    the direction the endpoint ordering dictates (rising endpoints start
    and finish on increasing pieces, falling endpoints on decreasing
    ones).  Boundary-condition failures raise ``PreconditionViolatedError``
    rather than producing a parity verdict.
    """
    if f_a == f_b:
        raise PreconditionViolatedError("endpoint values must differ")
    lo_v, hi_v = min(f_a, f_b), max(f_a, f_b)
    for x, v in zip(p.breakpoints[1:-1], p.extremum_values):
        if not lo_v < v < hi_v:
            raise PreconditionViolatedError(
                f"extremum value {v!r} at {x!r} is outside ({lo_v!r}, {hi_v!r})")
    if p.interior_count % 2 != 0:
        return False
    expected = INCREASING if f_a < f_b else DECREASING
    return p.directions[0] == expected and p.directions[-1] == expected


def validate_revolution_hypotheses(fn: Callable[[float], float],
                                   derivative: Callable[[float], float],
                                   interval: Interval,
                                   tol: Tolerances | None = None
                                   ) -> HypothesisReport:
    """Check that the curve ``fn``, with derivative ``derivative``,
    supports the piecewise volume formulas.

    Rules checked, each yielding a ``(rule, location)`` violation:

    * endpoint values differ beyond tolerance;
    * the curve is nonnegative on a 4096-cell grid (within roundoff slack);
    * every interior extremum value lies strictly between the endpoint
      values, which for piecewise strictly monotone curves is equivalent
      to the top and bottom boundary lines meeting the curve only once;
    * piece directions strictly alternate, and every piece is strictly
      monotone (so a constant curve fails this rule too).

    Violations are data, not exceptions.
    """
    tol = tol or Tolerances()
    return _validate(fn, interval, tol,
                     lambda: partition(fn, derivative, interval, tol))


def _validate_with_partition(fn: Callable[[float], float], p: MonotonePartition,
                             tol: Tolerances | None) -> HypothesisReport:
    """:func:`validate_revolution_hypotheses` over ``p``'s span, reusing
    ``p`` instead of building the partition again.  ``p`` must be what
    ``partition(fn, derivative, span, tol)`` returns."""
    span = Interval(p.breakpoints[0], p.breakpoints[-1])
    return _validate(fn, span, tol or Tolerances(), lambda: p)


def _validate(fn: Callable[[float], float], interval: Interval, tol: Tolerances,
              build_partition: Callable[[], MonotonePartition]
              ) -> HypothesisReport:
    f_a = fn(interval.lo)
    f_b = fn(interval.hi)
    c, d = min(f_a, f_b), max(f_a, f_b)
    violations: list[tuple[str, float]] = []

    if math.isclose(f_a, f_b, rel_tol=tol.rel_tol, abs_tol=tol.abs_tol):
        violations.append((RULE_ENDPOINTS_EQUAL, interval.lo))

    part: MonotonePartition | None = None
    try:
        part = build_partition()
    except AlternationViolationError:
        violations.append((RULE_ALTERNATION, interval.lo))

    extrema = (list(zip(part.breakpoints[1:-1], part.extremum_values))
               if part is not None else [])
    # nonnegativity on a dense grid plus all breakpoints
    worst_x, worst_v = interval.lo, f_a
    for x in uniform_grid(interval.lo, interval.hi, _NONNEG_CELLS):
        v = fn(x)
        if v < worst_v:
            worst_x, worst_v = x, v
    for x, v in extrema:
        if v < worst_v:
            worst_x, worst_v = x, v
    if worst_v < _NONNEG_FLOOR:
        violations.append((RULE_NEGATIVE_VALUE, worst_x))

    violations.extend((RULE_MULTIPLE_INTERSECTION, x) for x, v in extrema
                      if not c < v < d)

    return HypothesisReport(not violations, c, d, tuple(violations), part)
