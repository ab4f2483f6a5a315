"""Partition curves into strictly monotone pieces and validate the
hypotheses the volume formulas rely on.

Every analysis takes the curve as a ``float -> float`` function and, where
it needs one, its derivative, plus :class:`Enclosures`: interval
enclosures of the curve and its first two derivatives.  Callers compile
each once (``revolve.volume`` and the CLI do) and pass them to every
analysis.

A partition's interior breakpoints are the curve's local extrema: zeros of
the derivative at which the derivative changes sign.  Zeros without a sign
change (such as the derivative of x^3 at 0) do not break strict
monotonicity and are deliberately excluded.

Both hypotheses are proven rather than sampled.  The interval is bisected
into cells aligned to a 1024-cell grid; a cell is settled when the
enclosure of f' keeps one sign on it, or when the enclosure of f'' excludes
0, so that f' is strictly monotone there and changes sign at most once.
In a settled cell wider than one grid cell, bisecting grid points finds
the grid cell around that sign change, where bracketed root finding
refines the extremum, as it would after a scan of every grid point.  Any
other cell is bisected again, below grid width, down to a fixed depth; a
sign change of f' at the ends of a cell at that depth still counts as an
extremum, and a cell left without one is reported as unproven instead of
being passed over.  Nonnegativity follows: on proven monotone pieces the
minimum is a breakpoint value.  Where no partition is built, or it left a
cell unproven, f >= -1e-12 is proven cell by cell from the enclosure of f
(or of f', which puts the minimum at a cell's end).  Both certificates
bisect the same way (``_bisect``).

A piece's direction is sgn(f(hi) - f(lo)) of its end values, as the paper
orients a curve; the derivative serves only to find the breakpoints.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

from ._record import record
from .errors import RevolveError
# Unused here: bench/tracer.py's Tracer.install patches these three names
# on this module, so they stay until the tracer stops wrapping them.
from .expr import bind, differentiate  # noqa: F401
from .numerics import scan_sign_changes  # noqa: F401
from .numerics import (Interval, Tolerances, _abscissa, _checked,
                       find_root_bracketed)

__all__ = [
    "AlternationViolationError",
    "CriticalPoints",
    "Enclosures",
    "HypothesisReport",
    "INCREASING",
    "DECREASING",
    "MonotonePartition",
    "PreconditionViolatedError",
    "RULE_ALTERNATION",
    "RULE_ENDPOINTS_EQUAL",
    "RULE_MULTIPLE_INTERSECTION",
    "RULE_NEGATIVE_VALUE",
    "RULE_NOT_MONOTONE",
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

# The grids the certificates' cells align to: breakpoints are refined on
# the brackets of the 1024-cell grid, and a curve found negative is
# reported at the first point of the 4096-cell grid below the floor, where
# such a grid point exists.
_SCAN_CELLS = 1024
_NONNEG_CELLS = 4096
# Bisections below one grid cell, and the cells one certificate may
# examine there in all; cells beyond either limit are unproven.
_DEPTH_CAP = 40
_SUBCELL_BUDGET = 4096

RULE_ENDPOINTS_EQUAL = "endpoints-equal"
RULE_NEGATIVE_VALUE = "negative-value"
RULE_MULTIPLE_INTERSECTION = "multiple-intersection"
RULE_ALTERNATION = "alternation"
RULE_NOT_MONOTONE = "not-strictly-monotone"

# a cell [lo, hi] of the query interval
Cell = tuple[float, float]

class PreconditionViolatedError(RevolveError):
    """Input fails the boundary conditions of the parity check."""


class AlternationViolationError(RevolveError):
    """Adjacent pieces of a partition do not alternate direction, which
    signals a missed tangential-zero pathology, or a piece is not strictly
    monotone.  ``rule`` names which: ``RULE_ALTERNATION`` or
    ``RULE_NOT_MONOTONE``."""

    def __init__(self, message: str, rule: str = RULE_ALTERNATION):
        self.rule = rule
        super().__init__(message)


@record
class Enclosures:
    """Interval enclosures of a curve f and of f' and f''.

    Each maps ``(lo, hi)`` to ``(low, high)`` with low <= g(x) <= high for
    every x in [lo, hi], or to ``None`` where it cannot decide;
    ``revolve.expr.enclose`` builds such functions from an expression.
    """

    curve: Callable[[float, float], tuple[float, float] | None]
    slope: Callable[[float, float], tuple[float, float] | None]
    curvature: Callable[[float, float], tuple[float, float] | None]


@record
class CriticalPoints:
    """Where a derivative changes sign inside an interval.

    ``points`` are the refined sign changes, ascending.  ``unproven`` holds
    the cells ``(lo, hi)`` on which the derivative was shown neither to
    keep its sign nor to change it.
    """

    points: tuple[float, ...]
    unproven: tuple[Cell, ...] = ()


@record
class MonotonePartition:
    """Breakpoints of a curve's strictly monotone pieces.

    ``breakpoints`` runs from the query interval's left endpoint to its
    right endpoint; the interior points are the curve's local extrema, and
    ``extremum_values`` holds the curve values there.  ``unproven`` holds
    the cells where the derivative's sign was left undecided, so that a
    pair of extrema could hide there.
    """

    breakpoints: tuple[float, ...]
    directions: tuple[str, ...]
    extremum_values: tuple[float, ...]
    unproven: tuple[Cell, ...] = ()

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
    not be built.  ``unproven`` holds the cells on which a hypothesis was
    neither proven nor found violated.
    """

    satisfied: bool
    c: float
    d: float
    violations: tuple[tuple[str, float], ...]
    partition: MonotonePartition | None = None
    unproven: tuple[Cell, ...] = ()

    def __post_init__(self):
        if self.satisfied != (not self.violations):
            raise ValueError("satisfied flag inconsistent with violations")


# ---------------------------------------------------------------------------
# Certificates

# bounds of an enclosure that cannot decide: across zero
_UNKNOWN = (-math.inf, math.inf)


def _opposite(u: float, v: float) -> bool:
    # u and v are nonzero and of opposite sign, also where u * v underflows
    return u < 0.0 < v or v < 0.0 < u


def _bisect(interval: Interval, cells: int,
            settle: Callable[[float, float, int], object]) -> list[tuple]:
    """The leaves ``(i, j, state)`` of ``interval``, ascending, bisected
    the one way both certificates share.

    Cells start as index ranges ``(i, j)`` of the ``cells``-cell grid and
    are halved while ``settle(lo, hi, width)``, with ``width`` the cell's
    count of grid cells, returns None; so one-cell-wide cells are settled
    in grid order before anything narrower.  Each grid cell still
    unsettled is then bisected below grid width, in order, with ``width``
    0, down to ``_DEPTH_CAP`` levels and within ``_SUBCELL_BUDGET`` cells
    in all; its state becomes the list of its own leaves ``(lo, hi,
    state)``, where a leaf left at either limit has state None.
    """
    grid = _abscissa(interval.lo, interval.hi, cells)
    leaves: list[tuple] = []
    stack = [(0, cells)]
    while stack:
        i, j = stack.pop()
        state = settle(grid(i), grid(j), j - i)
        if state is None and j - i > 1:
            m = (i + j) // 2
            stack += [(m, j), (i, m)]
        else:
            leaves.append((i, j, state))

    budget = _SUBCELL_BUDGET
    for index, (i, j, state) in enumerate(leaves):
        if state is not None:
            continue
        below = []
        stack = [(grid(i), grid(j), 0)]
        while stack:
            a, b, depth = stack.pop()
            state = settle(a, b, 0)
            mid = 0.5 * (a + b)
            if (state is None and depth < _DEPTH_CAP and budget > 0
                    and a < mid < b):
                budget -= 2
                stack += [(mid, b, depth + 1), (a, mid, depth + 1)]
            else:
                below.append((a, b, state))
        leaves[index] = (i, j, below)
    return leaves


def _slope_certificate(derivative: Callable[[float], float],
                       enclosures: Enclosures, interval: Interval
                       ) -> tuple[list[Cell], list[Cell]]:
    """Brackets of the sign changes of ``derivative`` on ``interval``, in
    ascending order, and the cells left unproven.

    A cell of :func:`_bisect` on the 1024-cell grid is settled when the
    enclosure of f' is of one strict sign or exactly zero, or when f'' has
    one strict sign, so that f' changes sign at most once on it; a wider
    cell needs a decided f' enclosure for the latter, and a cell one grid
    cell wide or narrower is also settled when f' keeps one side of zero.
    f' is evaluated at the ends of every unsettled one-cell cell in grid
    order, so a grid point where it fails raises as a grid scan would.
    The brackets are those of a scan over the points the leaves visit:
    their ends (and the midpoint of a narrow leaf whose ends are both
    zeros) and, in a wider leaf, the grid cell where f' changes sign,
    found by bisecting grid indices, where a zero of f' at a grid point is
    stepped over to its neighbours as a scan does.  So where every cell
    settles at grid width or wider these are exactly the brackets
    ``scan_sign_changes`` returns; a grid cell bisected further that holds
    one sign change between grid ends of opposite sign keeps its grid
    bracket too.
    """
    slope, curvature = enclosures.slope, enclosures.curvature
    grid = _abscissa(interval.lo, interval.hi, _SCAN_CELLS)
    values: dict[float, float] = {}

    def value(x: float) -> float:
        v = values.get(x)
        if v is None:
            v = values[x] = _checked(derivative, x)
        return v

    def settle(a: float, b: float, width: int) -> bool | None:
        bounds = slope(a, b)
        low, high = bounds or _UNKNOWN
        if low > 0.0 or high < 0.0 or low == high == 0.0:
            return True
        if width <= 1:
            if width == 1:
                value(a), value(b)
            if low >= 0.0 or high <= 0.0:
                return True
        elif bounds is None:  # f' may fail at a grid point of the cell
            return None
        low, high = curvature(a, b) or _UNKNOWN
        return True if low > 0.0 or high < 0.0 else None

    brackets: list[Cell] = []
    unproven: list[Cell] = []
    last: tuple[float, bool] | None = None  # last point where f' != 0, f' < 0

    def visit(x: float) -> None:
        nonlocal last
        v = value(x)
        if v != 0.0:
            if last is not None and last[1] != (v < 0.0):
                brackets.append((last[0], x))
            last = (x, v < 0.0)

    def crossing(i: int, j: int) -> list[int]:
        # the grid indices a scan brackets the one sign change of a
        # monotone f' on [i, j] with, found by bisecting the indices; none
        # where the ends do not differ in sign.  A zero is stepped over.
        if not _opposite(value(grid(i)), value(grid(j))):
            return []
        while j - i > 1:
            m = (i + j) // 2
            v = value(grid(m))
            if v == 0.0:
                return [m - 1, m + 1]
            i, j = (m, j) if _opposite(v, value(grid(j))) else (i, m)
        return [i, j]

    def sweep(a: float, b: float, state: object) -> None:
        visit(a)
        if value(a) == 0.0 == value(b):
            visit(0.5 * (a + b))
        visit(b)
        # a leaf at the limits still shows a sign change at its ends
        if state is None and not _opposite(value(a), value(b)):
            unproven.append((a, b))

    for i, j, state in _bisect(interval, _SCAN_CELLS, settle):
        a, b = grid(i), grid(j)
        if j - i > 1:
            # a zero at an end is stepped over to its neighbour inside
            points = [i, *crossing(i, j), j]
            if value(a) == 0.0:
                points.insert(1, i + 1)
            if value(b) == 0.0:
                points.insert(-1, j - 1)
            for k in points:
                visit(grid(k))
            continue
        start = len(brackets)
        for leaf in state if isinstance(state, list) else [(a, b, state)]:
            sweep(*leaf)
        # one sign change between grid ends of opposite sign: refine it on
        # the grid bracket, the one scan_sign_changes gives
        if len(brackets) == start + 1 and _opposite(value(a), value(b)):
            brackets[start] = (a, b)
    return brackets, unproven


class _Below(Exception):
    """The curve is below the floor at ``args``: ``(x, f(x))``."""


def _floor_certificate(fn: Callable[[float], float], enclosures: Enclosures,
                       interval: Interval
                       ) -> tuple[tuple[float, float] | None, list[Cell]]:
    """Prove ``fn >= _NONNEG_FLOOR`` on ``interval``.

    Returns ``(negative, unproven)``: ``negative`` is ``(x, fn(x))`` at the
    first point found below the floor, or ``None``.  A cell of
    :func:`_bisect` on the 4096-cell grid is proven when the enclosure of
    f stays above the floor, or when the enclosure of f' keeps one side of
    zero, so that f is monotone there, and f at the end where it is least
    does.  An unproven cell one grid cell wide has f evaluated at its grid
    points, in grid order and before any cell is bisected below grid
    width, so a curve negative at some grid point is reported at the first
    such point; below grid width f is evaluated at each cell's midpoint.
    """
    curve, slope = enclosures.curve, enclosures.slope

    def check(x: float) -> None:
        v = fn(x)
        if v < _NONNEG_FLOOR:
            raise _Below(x, v)

    def settle(a: float, b: float, width: int) -> bool | None:
        bounds = curve(a, b)
        if bounds is not None:  # else f may fail to evaluate on [a, b]
            if bounds[0] >= _NONNEG_FLOOR:
                return True
            low, high = slope(a, b) or _UNKNOWN
            # f is monotone on [a, b]: its least value is at one end
            if (low >= 0.0 or high <= 0.0) and fn(
                    a if low >= 0.0 else b) >= _NONNEG_FLOOR:
                return True
        if width == 1:
            check(a)
            check(b)
        elif width == 0:
            check(0.5 * (a + b))
        return None

    try:
        leaves = _bisect(interval, _NONNEG_CELLS, settle)
    except _Below as below:
        return below.args, []
    return None, [(lo, hi) for _, _, state in leaves if isinstance(state, list)
                  for lo, hi, settled in state if settled is None]


# ---------------------------------------------------------------------------
# Analyses

def critical_points(derivative: Callable[[float], float],
                    enclosures: Enclosures, interval: Interval,
                    tol: Tolerances | None = None) -> CriticalPoints:
    """Interior points where ``derivative`` changes sign, proven with the
    enclosures of f' and f'' (``enclosures.slope`` and
    ``enclosures.curvature``).

    Each sign change is refined by bracketed root finding; where the
    certificate settles every cell at the 1024-cell grid, the brackets are
    that grid's, as a scan of it would give them.  Results are sorted and
    deduplicated within ``abs_tol``; cells left undecided are returned as
    ``unproven``.
    """
    tol = tol or Tolerances()
    if interval.width <= 0.0:
        raise ValueError("interval must be non-degenerate")
    brackets, unproven = _slope_certificate(derivative, enclosures, interval)
    roots = sorted(find_root_bracketed(derivative, lo, hi, tol).root
                   for lo, hi in brackets)
    scale = max(abs(interval.lo), abs(interval.hi), 1.0)
    edge = max(tol.abs_tol, 4.0 * math.ulp(scale))
    deduped: list[float] = []
    for r in roots:
        if r <= interval.lo + edge or r >= interval.hi - edge:
            continue
        if deduped and r - deduped[-1] <= tol.abs_tol:
            continue
        deduped.append(r)
    return CriticalPoints(tuple(deduped), tuple(unproven))


def partition(fn: Callable[[float], float],
              derivative: Callable[[float], float], enclosures: Enclosures,
              interval: Interval, tol: Tolerances | None = None
              ) -> MonotonePartition:
    """Split ``interval`` into strictly monotone pieces of ``fn``, breaking
    it where ``derivative`` changes sign (see :func:`critical_points`).

    A piece is increasing when fn(hi) > fn(lo) and decreasing when
    fn(hi) < fn(lo); equal or unordered (NaN) end values raise
    ``AlternationViolationError`` with rule ``RULE_NOT_MONOTONE``, and
    adjacent pieces that share a direction raise it with rule
    ``RULE_ALTERNATION``.  A constant curve is one piece with equal end
    values.
    """
    tol = tol or Tolerances()
    found = critical_points(derivative, enclosures, interval, tol)
    breakpoints = (interval.lo, *found.points, interval.hi)
    values = [fn(x) for x in breakpoints]

    directions = []
    for lo, hi, v_lo, v_hi in zip(breakpoints, breakpoints[1:],
                                  values, values[1:]):
        if not (v_lo < v_hi or v_lo > v_hi):  # equal, or NaN
            raise AlternationViolationError(
                f"piece [{lo!r}, {hi!r}] is not strictly monotone",
                RULE_NOT_MONOTONE)
        directions.append(INCREASING if v_hi > v_lo else DECREASING)
    return MonotonePartition(breakpoints, tuple(directions),
                             tuple(values[1:-1]), found.unproven)


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
                                   enclosures: Enclosures, interval: Interval,
                                   tol: Tolerances | None = None
                                   ) -> HypothesisReport:
    """Check that the curve ``fn``, with derivative ``derivative`` and the
    interval ``enclosures`` of both, supports the piecewise volume formulas.

    Rules checked, each yielding a ``(rule, location)`` violation:

    * endpoint values differ beyond tolerance (``RULE_ENDPOINTS_EQUAL``);
    * every piece is strictly monotone (``RULE_NOT_MONOTONE``, so a
      constant curve fails it) and piece directions strictly alternate
      (``RULE_ALTERNATION``);
    * the curve is nonnegative within roundoff slack
      (``RULE_NEGATIVE_VALUE``): on a partition with no unproven cell its
      minimum is a breakpoint value; without a partition, or with such a
      cell, where a pair of extrema could hide, the enclosure of f
      proves it cell by cell;
    * every interior extremum value lies strictly between the endpoint
      values, which for piecewise strictly monotone curves is equivalent
      to the top and bottom boundary lines meeting the curve only once
      (``RULE_MULTIPLE_INTERSECTION``).

    Violations are data, not exceptions.  Cells where the partition or the
    nonnegativity proof stayed undecided are reported as ``unproven``.
    """
    tol = tol or Tolerances()
    f_a = fn(interval.lo)
    f_b = fn(interval.hi)
    c, d = min(f_a, f_b), max(f_a, f_b)
    violations: list[tuple[str, float]] = []

    if math.isclose(f_a, f_b, rel_tol=tol.rel_tol, abs_tol=tol.abs_tol):
        violations.append((RULE_ENDPOINTS_EQUAL, interval.lo))

    part: MonotonePartition | None = None
    try:
        part = partition(fn, derivative, enclosures, interval, tol)
    except AlternationViolationError as exc:
        violations.append((exc.rule, interval.lo))

    extrema = []
    negative, unproven = None, []
    if part is not None:
        # monotone pieces take their least value at a breakpoint
        extrema = list(zip(part.breakpoints[1:-1], part.extremum_values))
        worst = min([(interval.lo, f_a), (interval.hi, f_b), *extrema],
                    key=lambda point: point[1])
        if worst[1] < _NONNEG_FLOOR:
            negative = worst
        unproven = list(part.unproven)
    # without a proven partition a dip may hide anywhere: prove the floor
    if negative is None and (part is None or part.unproven):
        negative, floor_unproven = _floor_certificate(fn, enclosures, interval)
        unproven = sorted({*unproven, *floor_unproven})
    if negative is not None:
        violations.append((RULE_NEGATIVE_VALUE, negative[0]))

    violations.extend((RULE_MULTIPLE_INTERSECTION, x) for x, v in extrema
                      if not c < v < d)

    return HypothesisReport(not violations, c, d, tuple(violations), part,
                            tuple(unproven))
