"""Adaptive definite integration and root finding with explicit accuracy
contracts.

Quadrature is an adaptive Gauss-Kronrod 7-15 pair with recursive interval
bisection; the nodes and weights are embedded as hex-exact constants so
results are bit-reproducible across platforms.  Root finding offers a
Brent-style bracketed solver, a grid scanner that turns sign changes into
brackets, and a Newton iteration with bisection fallback.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable, Iterator

from ._record import record
from .errors import RevolveError

__all__ = [
    "Interval",
    "MaxIterationsExceededError",
    "NoSignChangeError",
    "NonFiniteEvaluationError",
    "QuadratureResult",
    "RootResult",
    "Tolerances",
    "find_root_bracketed",
    "integrate",
    "kronrod_panel",
    "newton_solve",
    "scan_sign_changes",
    "uniform_grid",
]

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


class NonFiniteEvaluationError(RevolveError):
    """The integrand or residual returned NaN or infinity."""

    def __init__(self, x: float, value: float):
        self.x = x
        self.value = value
        super().__init__(f"non-finite evaluation f({x!r}) = {value!r}")


class NoSignChangeError(RevolveError):
    """A bracketed solver was given endpoints with no sign change."""


class MaxIterationsExceededError(RevolveError):
    """The iteration budget ran out before the residual converged."""


@record
class Interval:
    """Ordered pair of reals; ``lo <= hi`` always."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite: {self}")
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@record
class Tolerances:
    """Accuracy knobs shared by the quadrature and root-finding layers."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    residual_tol: float = 1e-12
    max_depth: int = 50
    max_iter: int = 100

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "residual_tol"):
            # an infinite tolerance makes every comparison against it pass,
            # which later reads as equal endpoints or a flat curve
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be strictly positive and finite")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@record
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


@record
class RootResult:
    root: float
    residual: float
    iterations: int
    method_used: str  # "bracketed" | "newton" | "newton-with-bisection-fallback"


def _checked(f: Callable[[float], float], x: float) -> float:
    value = f(x)
    if not math.isfinite(value):
        raise NonFiniteEvaluationError(x, value)
    return value


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7-15 panel

# Abscissae of the 15-point Kronrod rule (positive half; odd indices are the
# embedded 7-point Gauss nodes).  Hex floats keep the constants bit-exact.
_XGK = (
    float.fromhex("0x1.fba009d4d09b1p-1"),  # 0.991455371120812639206854697526
    float.fromhex("0x1.e5f178e7c6229p-1"),  # 0.949107912342758524526189684048
    float.fromhex("0x1.bacf827b9bb3ep-1"),  # 0.864864423359769072789712788641
    float.fromhex("0x1.7ba9f9be3a1d6p-1"),  # 0.741531185599394439863864773281
    float.fromhex("0x1.2c13a049dfa24p-1"),  # 0.586087235467691130294144838259
    float.fromhex("0x1.9f95df119fd62p-2"),  # 0.405845151377397166906606412077
    float.fromhex("0x1.a98b2892e0c77p-3"),  # 0.207784955007898467600689403773
    0.0,
)

# Kronrod weights, aligned with _XGK.
_WGK = (
    float.fromhex("0x1.77c5b67d57470p-6"),  # 0.022935322010529224963732008059
    float.fromhex("0x1.026cdaa7b61c4p-4"),  # 0.063092092629978553290700663189
    float.fromhex("0x1.ad384a34814c6p-4"),  # 0.104790010322250183839876322542
    float.fromhex("0x1.200ed0f46e8c1p-3"),  # 0.140653259715525918745189590510
    float.fromhex("0x1.5a1f266e47d5cp-3"),  # 0.169004726639267902826583426599
    float.fromhex("0x1.85d6861c80eb1p-3"),  # 0.190350578064785409913256402421
    float.fromhex("0x1.a2adbcbec9cd8p-3"),  # 0.204432940075298892414161999235
    float.fromhex("0x1.ad04f9087090fp-3"),  # 0.209482141084727828012999174892
)

# 7-point Gauss weights for _XGK[1], _XGK[3], _XGK[5], _XGK[7].
_WG = (
    float.fromhex("0x1.092f69f826d57p-3"),  # 0.129484966168869693270611432679
    float.fromhex("0x1.1e6b1713d8644p-2"),  # 0.279705391489276667901467771424
    float.fromhex("0x1.86fe74ee32b3dp-2"),  # 0.381830050505118944950369775489
    float.fromhex("0x1.abfd7e03c2fa6p-2"),  # 0.417959183673469387755102040816
)


def kronrod_panel(f: Callable[[float], float], a: float, b: float
                  ) -> tuple[float, float]:
    """One 15-point Kronrod panel on [a, b].

    Returns ``(value, error_estimate)``.  The error estimate follows the
    QUADPACK model: the Gauss/Kronrod difference is rescaled against the
    panel's variation, which sharply penalizes unresolved structure.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)

    fc = _checked(f, center)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    resabs = _WGK[7] * abs(fc)
    pairs = []
    for j in range(7):
        dx = half * _XGK[j]
        f1 = _checked(f, center - dx)
        f2 = _checked(f, center + dx)
        pairs.append((f1, f2))
        resk += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += _WG[j // 2] * (f1 + f2)

    reskh = 0.5 * resk
    resasc = _WGK[7] * abs(fc - reskh)
    for j, (f1, f2) in enumerate(pairs):
        resasc += _WGK[j] * (abs(f1 - reskh) + abs(f2 - reskh))

    value = resk * half
    resabs *= abs(half)
    resasc *= abs(half)
    abserr = abs((resk - resg) * half)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _TINY / (50.0 * _EPS):
        abserr = max(_EPS * 50.0 * resabs, abserr)
    return value, abserr


_MAX_SPLITS = 4096


def integrate(f: Callable[[float], float], a: float, b: float,
              tol: Tolerances | None = None) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of ``f`` over [a, b].

    Requires ``a <= b``; callers negate for reversed orientation.  The
    panel with the largest error estimate is bisected repeatedly until the
    summed error meets ``max(abs_tol, rel_tol * |value|)``.  A panel
    bisected ``max_depth`` times is frozen at its best estimate and the
    result is flagged unconverged if the frozen error keeps the total
    above the target.  The whole procedure is sequential and
    deterministic: identical inputs give bit-identical results.
    """
    tol = tol or Tolerances()
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration limits must be finite")
    if a > b:
        raise ValueError("integrate requires a <= b (negate for reversed orientation)")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0, True)

    value0, err0 = kronrod_panel(f, a, b)
    evals = 15
    # active panels as (neg_err, seq, lo, hi, value, err, depth); seq breaks
    # ties first-in-first-out so the heap order is deterministic
    seq = 0
    active = [(-err0, seq, a, b, value0, err0, 0)]
    frozen: list[tuple[float, float, float, float]] = []  # lo, hi, value, err
    frozen_err = 0.0
    total_value = value0
    total_err = err0
    splits = 0
    while True:
        target = max(tol.abs_tol, tol.rel_tol * abs(total_value))
        if total_err <= target:
            break
        if not active or frozen_err > target or splits >= _MAX_SPLITS:
            break
        neg_err, _, lo, hi, v, e, depth = heapq.heappop(active)
        if depth >= tol.max_depth:
            frozen.append((lo, hi, v, e))
            frozen_err += e
            continue
        mid = 0.5 * (lo + hi)
        vl, el = kronrod_panel(f, lo, mid)
        vr, er = kronrod_panel(f, mid, hi)
        evals += 30
        splits += 1
        total_value += vl + vr - v
        total_err += el + er - e
        seq += 1
        heapq.heappush(active, (-el, seq, lo, mid, vl, el, depth + 1))
        seq += 1
        heapq.heappush(active, (-er, seq, mid, hi, vr, er, depth + 1))

    # re-sum in interval order: cleaner rounding and independent of the
    # heap's processing history
    panels = frozen + [(lo, hi, v, e) for _, _, lo, hi, v, e, _ in active]
    panels.sort(key=lambda p: p[0])
    value = 0.0
    err = 0.0
    for _, _, v, e in panels:
        value += v
        err += e
    converged = err <= max(tol.abs_tol, tol.rel_tol * abs(value))
    return QuadratureResult(value, err, evals, converged)


# ---------------------------------------------------------------------------
# Root finding

def find_root_bracketed(f: Callable[[float], float], lo: float, hi: float,
                        tol: Tolerances | None = None) -> RootResult:
    """Brent-style bracketed root finding.

    Requires a strict sign change ``f(lo) * f(hi) < 0``.  Inverse-quadratic
    and secant steps are safeguarded by bisection, so the bracket always
    contains the root; convergence is ``|f(root)| <= residual_tol`` or
    bracket width at the ``abs_tol`` floor.
    """
    tol = tol or Tolerances()
    a = float(lo)
    b = float(hi)
    fa = _checked(f, a)
    fb = _checked(f, b)
    if fa * fb >= 0.0:
        raise NoSignChangeError(
            f"no strict sign change on [{lo!r}, {hi!r}]: f(lo)={fa!r}, f(hi)={fb!r}")

    c, fc = a, fa
    d = e = b - a
    iterations = 0
    while iterations < tol.max_iter:
        # (b, c) always brackets the root
        assert fb * fc <= 0.0
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol.abs_tol
        xm = 0.5 * (c - b)
        if abs(fb) <= tol.residual_tol or abs(xm) <= tol1:
            return RootResult(b, fb, iterations, "bracketed")

        if abs(e) < tol1 or abs(fa) <= abs(fb):
            d = e = xm
        else:
            s = fb / fa
            if a == c:
                # secant
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                # inverse quadratic
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s = e
            e = d
            if 2.0 * p < 3.0 * xm * q - abs(tol1 * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                d = e = xm

        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        elif xm > 0.0:
            b += tol1
        else:
            b -= tol1
        fb = _checked(f, b)
        iterations += 1
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a

    raise MaxIterationsExceededError(
        f"no convergence in {tol.max_iter} iterations; last bracket "
        f"[{min(b, c)!r}, {max(b, c)!r}]")


def _abscissa(lo: float, hi: float, n: int) -> Callable[[int], float]:
    """Abscissa ``k`` of ``n`` equal cells on [lo, hi], as a function of
    ``k``; ``k = n`` gives ``hi`` exactly.  The one place the grids of the
    scan, the CLI's samples and the monotone certificates are computed."""
    step = (hi - lo) / n
    return lambda k: hi if k == n else lo + k * step


def uniform_grid(lo: float, hi: float, n: int) -> Iterator[float]:
    """The ``n + 1`` abscissae of ``n`` equal cells on [lo, hi], ending at
    ``hi`` exactly."""
    return map(_abscissa(lo, hi, n), range(n + 1))


def scan_sign_changes(f: Callable[[float], float], a: float, b: float,
                      grid_n: int = 1024) -> list[Interval]:
    """Scan a uniform grid for sign changes of ``f`` and return bracket
    intervals.

    Grid points where ``f`` is exactly zero do not terminate a bracket;
    the bracket extends to the adjacent cell, so a zero crossed with a
    genuine sign change is still caught while a tangential zero (no sign
    change) is ignored.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    brackets: list[Interval] = []
    last_x: float | None = None
    last_neg = False
    for x in uniform_grid(float(a), float(b), grid_n):
        v = _checked(f, x)
        if v == 0.0:
            continue
        neg = v < 0.0
        if last_x is not None and neg != last_neg:
            brackets.append(Interval(last_x, x))
        last_x = x
        last_neg = neg
    return brackets


def newton_solve(f: Callable[[float], float], fprime: Callable[[float], float],
                 x0: float, bracket: Interval, residuals: tuple[float, float],
                 tol: Tolerances | None = None) -> RootResult:
    """Newton iteration safeguarded by a bracket around the root.

    ``residuals`` is ``(f(bracket.lo), f(bracket.hi))``, which every caller
    already holds, so f is not evaluated at the ends again.  The bracket is
    kept up to date from every residual evaluation.  One bisection step
    replaces the Newton step whenever that step would leave the bracket,
    the derivative is below 1e-14 in magnitude, or |f(x)| has not fallen
    below 0.9 times its value two iterations earlier; the last rule breaks
    Newton cycles that bounce between the ends of the bracket.
    """
    tol = tol or Tolerances()
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = residuals
    if not math.isfinite(flo):
        raise NonFiniteEvaluationError(lo, flo)
    if not math.isfinite(fhi):
        raise NonFiniteEvaluationError(hi, fhi)
    if flo * fhi > 0.0:
        raise NoSignChangeError(
            f"bracket [{lo!r}, {hi!r}] has no sign change")

    x = float(x0)
    fell_back = False
    # |f| one and two iterations back
    last = before_last = math.inf
    for iteration in range(tol.max_iter + 1):
        fx = _checked(f, x)
        if lo <= x <= hi:
            if (fx < 0.0) == (flo < 0.0):
                lo, flo = x, fx
            else:
                hi, fhi = x, fx
        if abs(fx) <= tol.residual_tol:
            method = "newton-with-bisection-fallback" if fell_back else "newton"
            return RootResult(x, fx, iteration, method)

        stalled = abs(fx) >= 0.9 * before_last
        before_last, last = last, abs(fx)
        dfx = fprime(x)
        step_ok = not stalled and math.isfinite(dfx) and abs(dfx) >= 1e-14
        if step_ok:
            candidate = x - fx / dfx
            step_ok = lo <= candidate <= hi
        if step_ok:
            x = candidate
        else:
            x = 0.5 * (lo + hi)
            fell_back = True

    raise MaxIterationsExceededError(
        f"no convergence in {tol.max_iter} iterations; last iterate {x!r}")
