"""Adaptive definite integration and root finding with explicit accuracy
contracts.

Quadrature bisects the panels of a rule adaptively.  The default rule is
the Gauss-Kronrod 7-15 pair, whose nodes and weights are embedded as
hex-exact constants so results are bit-reproducible across platforms; a
nested Clenshaw-Curtis rule, whose weights are computed on first use, serves
integrands whose every evaluation is costly.  Root finding offers a
Brent-style bracketed solver, a grid scanner that turns sign changes into
brackets, and a Newton iteration with bisection fallback.
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
from typing import Callable, Iterable, Iterator

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
    value: float  # f(root) as evaluated; residual is value - target


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


def _check_nodes(center: float, half: float, values: tuple) -> None:
    """Raise what :func:`_checked` would at the first non-finite value of a
    Kronrod panel's nodes, in their order, stopping at None: not evaluated."""
    xs = [center]
    for x in _XGK[:7]:
        xs += (center - half * x, center + half * x)
    for x, value in zip(xs, values):
        if value is None:
            return
        if not math.isfinite(value):
            raise NonFiniteEvaluationError(x, value)


def kronrod_panel(f: Callable[[float], float], a: float, b: float
                  ) -> tuple[float, float]:
    """One 15-point Kronrod panel on [a, b].

    Returns ``(value, error_estimate)``.  The error estimate follows the
    QUADPACK model: the Gauss/Kronrod difference is rescaled against the
    panel's variation, which sharply penalizes unresolved structure.

    ``f`` is called once per node, in this order: the center c, then
    c - h*x_j and c + h*x_j for j = 0..6 (h the half-width, x_j outermost
    first).  A NaN or infinite value raises ``NonFiniteEvaluationError``
    for the first such node once every node is evaluated.  If ``f`` raises,
    no later node is called, and an earlier non-finite value is reported.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x0, x1, x2, x3, x4, x5, x6, _ = _XGK
    (k0, k1, k2, k3, k4, k5, k6, k7), (g0, g1, g2, g3) = _WGK, _WG
    fc = l0 = r0 = l1 = r1 = l2 = r2 = l3 = r3 = l4 = r4 = l5 = r5 = l6 = r6 = None
    try:
        fc = f(center)
        d = half * x0; l0 = f(center - d); r0 = f(center + d)  # noqa: E702
        d = half * x1; l1 = f(center - d); r1 = f(center + d)  # noqa: E702
        d = half * x2; l2 = f(center - d); r2 = f(center + d)  # noqa: E702
        d = half * x3; l3 = f(center - d); r3 = f(center + d)  # noqa: E702
        d = half * x4; l4 = f(center - d); r4 = f(center + d)  # noqa: E702
        d = half * x5; l5 = f(center - d); r5 = f(center + d)  # noqa: E702
        d = half * x6; l6 = f(center - d); r6 = f(center + d)  # noqa: E702
        # each sum term by term, in the order of a loop over j
        resk = (k7 * fc + k0 * (l0 + r0) + k1 * (l1 + r1) + k2 * (l2 + r2)
                + k3 * (l3 + r3) + k4 * (l4 + r4) + k5 * (l5 + r5) + k6 * (l6 + r6))
        resg = g3 * fc + g0 * (l1 + r1) + g1 * (l3 + r3) + g2 * (l5 + r5)
        resabs = (k7 * abs(fc) + k0 * (abs(l0) + abs(r0)) + k1 * (abs(l1) + abs(r1))
                  + k2 * (abs(l2) + abs(r2)) + k3 * (abs(l3) + abs(r3))
                  + k4 * (abs(l4) + abs(r4)) + k5 * (abs(l5) + abs(r5))
                  + k6 * (abs(l6) + abs(r6)))
        m = 0.5 * resk  # QUADPACK's reskh: the mean of f on the panel
        resasc = (k7 * abs(fc - m) + k0 * (abs(l0 - m) + abs(r0 - m))
                  + k1 * (abs(l1 - m) + abs(r1 - m)) + k2 * (abs(l2 - m) + abs(r2 - m))
                  + k3 * (abs(l3 - m) + abs(r3 - m)) + k4 * (abs(l4 - m) + abs(r4 - m))
                  + k5 * (abs(l5 - m) + abs(r5 - m)) + k6 * (abs(l6 - m) + abs(r6 - m)))
    except Exception:  # as in a node loop, a bad value before f raised wins
        _check_nodes(center, half, (fc, l0, r0, l1, r1, l2, r2, l3, r3, l4, r4,
                                    l5, r5, l6, r6))
        raise
    if not math.isfinite(resabs):  # a value is not finite, or the sum overflowed
        _check_nodes(center, half, (fc, l0, r0, l1, r1, l2, r2, l3, r3, l4, r4,
                                    l5, r5, l6, r6))

    value = resk * half
    resabs *= abs(half)
    resasc *= abs(half)
    abserr = abs((resk - resg) * half)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _TINY / (50.0 * _EPS):
        abserr = max(_EPS * 50.0 * resabs, abserr)
    return value, abserr


def _kronrod_rule(f: Callable[[float], float], a: float, b: float,
                  tol: Tolerances) -> tuple[float, float, int]:
    # :func:`kronrod_panel` as a rule for :func:`integrate`
    value, err = kronrod_panel(f, a, b)
    return value, err, 15


# ---------------------------------------------------------------------------
# Nested Clenshaw-Curtis panel

# Level L has 8 << L cells and 8 << L + 1 points: 9, 17, 33, 65, 129.  Its
# nodes are every (16 >> L)-th node of the last level, whose node K lies at
# the panel's center minus half its width times cos(K*pi/128), so each
# level reuses every node of the one before.
_CC_LEVELS = 5
_CC_CELLS = 8 << _CC_LEVELS - 1


@functools.cache
def _cc_cosines() -> tuple[float, ...]:
    """cos(m*pi/128) for m = 0..255, computed on first use.  The first
    quadrant is built from cos and sin each below pi/4, the rest by
    symmetry, so cos(pi/2) is exactly 0 and the nodes are exactly
    symmetric about the panel's center."""
    step = math.pi / _CC_CELLS
    quarter = [math.cos(m * step) if 2 * m <= _CC_CELLS // 2
               else math.sin((_CC_CELLS // 2 - m) * step)
               for m in range(_CC_CELLS // 2 + 1)]
    half = quarter + [-c for c in reversed(quarter[:-1])]
    return tuple(half + half[-2:0:-1])


@functools.cache
def _cc_weights(level: int) -> tuple[float, ...]:
    """Clenshaw-Curtis weights on [-1, 1] for the ``8 << level`` cells of
    ``level``, computed on first use (Trefethen, SIAM Review 50(1), 2008):
    w_k = (c_k/n) * (1 - sum_{j=1}^{n/2} b_j cos(2jk*pi/n) / (4j^2 - 1)),
    with c_k and b_j 1 at the ends of their ranges and 2 inside."""
    n = 8 << level
    stride = _CC_CELLS // n
    cosine = _cc_cosines()
    left = []
    for k in range(n // 2 + 1):
        terms = [1.0]
        for j in range(1, n // 2 + 1):
            b_j = 1.0 if 2 * j == n else 2.0
            terms.append(-b_j * cosine[2 * j * k * stride % len(cosine)]
                         / (4 * j * j - 1))
        left.append((1.0 if k == 0 else 2.0) * math.fsum(terms) / n)
    return tuple(left + left[-2::-1])


def _dot(weights: Iterable[float], values: Iterable[float]) -> float:
    # left to right: the built-in sum of floats is compensated from Python
    # 3.12 on, which would make the nested rule's bits depend on the version
    total = 0.0
    for weight, value in zip(weights, values):
        total += weight * value
    return total


def _cc_level(f: Callable[[float], float], center: float, half: float,
              values: list, level: int) -> float:
    """Evaluate f at the nodes ``level`` adds to ``values`` and return the
    level's sum on [-1, 1].

    ``values`` holds f at the last level's 129 nodes, ends included, as far
    as lower levels have filled it: level 0 adds its 7 interior nodes and
    every later level the nodes halfway between its predecessor's.
    """
    stride = _CC_CELLS >> 3 + level
    cosine = _cc_cosines()
    for k in range(stride, _CC_CELLS, stride if level == 0 else 2 * stride):
        values[k] = _checked(f, center - half * cosine[k])
    return _dot(_cc_weights(level), values[::stride])


def _clenshaw_curtis_panel(f: Callable[[float], float], a: float, b: float,
                           tol: Tolerances) -> tuple[float, float, int]:
    """One nested Clenshaw-Curtis panel on [a, b], as a rule for
    :func:`integrate`.

    Evaluates f at a and b, then climbs the levels of 9, 17, 33, 65 and
    129 points, each evaluating only the nodes it adds, and stops at the
    first level whose difference from the level before meets
    ``max(abs_tol, rel_tol * |value|)``; a panel that fails at 129 points
    returns that difference, and :func:`integrate` bisects it.  The
    error estimate is the last difference, at least 50 ulps of the
    integral of |f|, as for the Gauss-Kronrod panel.  Returns ``(value,
    error_estimate, evaluations)``.
    """
    values: list = [None] * (_CC_CELLS + 1)
    values[0], values[-1] = _checked(f, a), _checked(f, b)
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    previous = 0.0
    for level in range(_CC_LEVELS):
        value = half * _cc_level(f, center, half, values, level)
        err = abs(value - previous)
        if level and err <= max(tol.abs_tol, tol.rel_tol * abs(value)):
            break
        previous = value
    resabs = half * _dot(_cc_weights(level),
                         map(abs, values[::_CC_CELLS >> 3 + level]))
    return value, max(err, 50.0 * _EPS * resabs), (8 << level) + 1


_MAX_SPLITS = 4096


def integrate(f: Callable[[float], float], a: float, b: float,
              tol: Tolerances | None = None, rule: Callable | None = None
              ) -> QuadratureResult:
    """Adaptive integration of ``f`` over [a, b] by bisecting the panels of
    ``rule``.

    Requires ``a <= b``; callers negate for reversed orientation.  The
    panel with the largest error estimate is bisected repeatedly until the
    summed error meets ``max(abs_tol, rel_tol * |value|)``.  A panel
    bisected ``max_depth`` times is frozen at its best estimate and the
    result is flagged unconverged if the frozen error keeps the total
    above the target.  The whole procedure is sequential and
    deterministic: identical inputs give bit-identical results.

    ``rule(f, lo, hi, tol)`` integrates one panel and returns ``(value,
    error_estimate, evaluations)``.  Every panel evaluates f at its own
    nodes: the halves of a bisected panel are integrated afresh.  The
    default rule is :func:`kronrod_panel`; ``_clenshaw_curtis_panel`` is
    the nested one.
    """
    tol = tol or Tolerances()
    rule = rule or _kronrod_rule
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration limits must be finite")
    if a > b:
        raise ValueError("integrate requires a <= b (negate for reversed orientation)")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0, True)

    value0, err0, evals = rule(f, a, b, tol)
    # active panels as (neg_err, seq, lo, hi, value, err, depth); seq
    # breaks ties first-in-first-out so the heap order is deterministic
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
        _, _, lo, hi, v, e, depth = heapq.heappop(active)
        if depth >= tol.max_depth:
            frozen.append((lo, hi, v, e))
            frozen_err += e
            continue
        mid = 0.5 * (lo + hi)
        vl, el, nl = rule(f, lo, mid, tol)
        vr, er, nr = rule(f, mid, hi, tol)
        evals += nl + nr
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

    Requires a strict sign change: f(lo) and f(hi) nonzero and of opposite
    sign, however small (their product may underflow).  Inverse-quadratic
    and secant steps are safeguarded by bisection, so the bracket always
    contains the root; convergence is ``|f(root)| <= residual_tol`` or
    bracket width at the ``abs_tol`` floor.
    """
    tol = tol or Tolerances()
    a = float(lo)
    b = float(hi)
    fa = _checked(f, a)
    fb = _checked(f, b)
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
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
            return RootResult(b, fb, iterations, "bracketed", fb)

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
                 target: float, x0: float, bracket: tuple[float, float],
                 residuals: tuple[float, float],
                 tol: Tolerances | None = None) -> RootResult:
    """Newton iteration for f(x) = target, safeguarded by a bracket around
    the root.

    ``bracket`` is ``(lo, hi)`` with ``lo <= hi``, and ``residuals`` is
    ``(f(lo) - target, f(hi) - target)``, which every caller already
    holds, so f is not evaluated at the ends again; two residuals of one
    sign, however small, raise ``NoSignChangeError``.  A seed ``x0`` outside
    the bracket starts from its nearer end, so the root always lies in the
    bracket.  The bracket is kept up to date from every residual
    evaluation.  One bisection step replaces the Newton step whenever that
    step would leave the bracket, the derivative is below 1e-14 in
    magnitude, or |f(x) - target| has not fallen below 0.9 times its value
    two iterations earlier; the last rule breaks Newton cycles that bounce
    between the ends of the bracket.  The result's ``value`` is f(root) as
    evaluated, so a caller can bracket later targets with it.
    """
    tol = tol or Tolerances()
    lo, hi = bracket
    flo, fhi = residuals
    root, value, iterations, fell_back = _newton(
        f, fprime, target, x0, lo, hi, flo, fhi, tol.residual_tol, tol.max_iter)
    method = "newton-with-bisection-fallback" if fell_back else "newton"
    return RootResult(root, value - target, iterations, method, value)


def _newton(f: Callable[[float], float], fprime: Callable[[float], float],
            target: float, x0: float, lo: float, hi: float, flo: float,
            fhi: float, residual_tol: float, max_iter: int
            ) -> tuple[float, float, int, bool]:
    """The validation and iteration behind :func:`newton_solve`, which
    documents them, on the bracket [lo, hi] with residuals ``flo`` and
    ``fhi``.  Returns ``(root, f(root), iterations, fell_back)``, so a
    caller that inverts many values builds no record per call."""
    if not -math.inf < lo <= hi < math.inf:
        raise ValueError(f"bracket endpoints must be finite and ordered: "
                         f"({lo!r}, {hi!r})")
    if not math.isfinite(flo):
        raise NonFiniteEvaluationError(lo, flo)
    if not math.isfinite(fhi):
        raise NonFiniteEvaluationError(hi, fhi)
    # of one sign, however small: their product may underflow to 0
    if flo < 0.0 and fhi < 0.0 or flo > 0.0 and fhi > 0.0:
        raise NoSignChangeError(
            f"bracket [{lo!r}, {hi!r}] has no sign change")

    x = float(x0)
    if not lo <= x <= hi:
        x = lo if x < lo else hi
    fell_back = False
    # |f - target| one and two iterations back
    last = before_last = math.inf
    for iteration in range(max_iter + 1):
        value = f(x)
        fx = value - target
        if not math.isfinite(fx):
            raise NonFiniteEvaluationError(x, fx)
        if lo <= x <= hi:
            if (fx < 0.0) == (flo < 0.0):
                lo, flo = x, fx
            else:
                hi, fhi = x, fx
        size = abs(fx)
        if size <= residual_tol:
            return x, value, iteration, fell_back

        stalled = size >= 0.9 * before_last
        before_last, last = last, size
        dfx = fprime(x)
        # a finite derivative at least 1e-14 in magnitude
        if not stalled and 1e-14 <= abs(dfx) < math.inf:
            candidate = x - fx / dfx
            if lo <= candidate <= hi:
                x = candidate
                continue
        x = 0.5 * (lo + hi)
        fell_back = True

    raise MaxIterationsExceededError(
        f"no convergence in {max_iter} iterations; last iterate {x!r}")
