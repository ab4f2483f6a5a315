"""Reference outcomes for benchmark operations, computed without revolve.

Every curve the workloads use has the form

    h(t) = sum_i c_i * t**p_i + A*sin(t)        on [a, b], a >= 0,

where the sine term only appears together with powers 0 and 1.  For this
family the integrals the volume routes need have closed forms:

    I1 = Int_a^b t*h(t) dt        (boundary-term formulas, shell route)
    I2 = Int_a^b h(t)^2 dt        (direct disk route)

and the interior extrema of h are the roots of s + A*cos(t) (s the
coefficient of t), so the monotone partition and the revolution
hypotheses follow by analysis.  Nothing here imports or runs revolve.

Tolerances come from the Tolerances an operation requests, never from
observed error.  Each adaptive quadrature stops once its error estimate
is at most max(abs_tol, rel_tol*|Q|); a route combines at most
``_MAX_QUADRATURES`` such integrals, each scaled by at most 2*pi, and
every |Q| is bounded by the route's magnitude scale M (the largest term
it sums).  Hence a route's value may differ from the closed form by at
most 2*pi * _MAX_QUADRATURES * max(abs_tol, rel_tol*M), plus rounding of
the terms (a small multiple of machine epsilon times M).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

PI = math.pi
TWO_PI = 2.0 * math.pi
_EPS = sys.float_info.epsilon

# Default accuracy request, spelled out so the reference does not depend
# on the package under test.
DEFAULT_TOL = {"abs_tol": 1e-12, "rel_tol": 1e-10, "residual_tol": 1e-12}

# revolve's documented roundoff slack for nonnegativity checks.
NONNEG_FLOOR = -1e-12

# Upper bound on the adaptive integrals one route combines: the disk and
# piecewise routes integrate once per monotone piece (at most three pieces
# here), the formulas once.
_MAX_QUADRATURES = 8

# A value perturbed by this relative amount must fall outside the
# tolerance; the generator refuses any operation where it would not.
DETECTABLE_REL = 1e-6

WARN_NO_FORMULA = "curve is not strictly monotone: no independent formula route"

AXIS_Y = "y-axis"
AXIS_X = "x-axis"
ROLE_Y_OF_X = "y-of-x"
ROLE_X_OF_Y = "x-of-y"

EXIT_OK = 0
EXIT_HYPOTHESIS = 2


# ---------------------------------------------------------------------------
# Curves

@dataclass(frozen=True)
class Curve:
    """h(t) = sum(c * t**p for c, p in terms) + wave*sin(t) on [lo, hi].

    ``eps`` marks a Kepler member: its text binds the eccentricity as the
    parameter ``eps`` and ``wave`` equals ``-eps``.  ``text_form``, when
    set, is the literal source text with ``{v}`` for the variable (used
    for corpus curves such as the flagship ``x/pi + sin(x)``).
    """

    family: str
    terms: tuple[tuple[float, float], ...]
    wave: float
    lo: float
    hi: float
    eps: float | None = None
    text_form: str | None = None

    def __post_init__(self):
        if not 0.0 <= self.lo < self.hi:
            raise ValueError(f"{self.family}: need 0 <= lo < hi")
        if self.wave and any(p not in (0.0, 1.0) for _, p in self.terms):
            raise ValueError(f"{self.family}: sine term needs powers 0 and 1")
        if self.lo == 0.0 and any(p < 1.0 and p != 0.0 for _, p in self.terms):
            raise ValueError(f"{self.family}: fractional power at t = 0")

    # -- evaluation --------------------------------------------------------

    def h(self, t: float) -> float:
        return sum(c * t ** p for c, p in self.terms) + self.wave * math.sin(t)

    def dh(self, t: float) -> float:
        return (sum(c * p * t ** (p - 1.0) for c, p in self.terms if p != 0.0)
                + self.wave * math.cos(t))

    def d2h(self, t: float) -> float:
        return (sum(c * p * (p - 1.0) * t ** (p - 2.0)
                    for c, p in self.terms if p not in (0.0, 1.0))
                - self.wave * math.sin(t))

    # -- source text -------------------------------------------------------

    def text(self, var: str) -> str:
        if self.text_form is not None:
            return self.text_form.format(v=var)
        parts = []
        for c, p in self.terms:
            if p == 0.0:
                body = _num(abs(c))
            elif p == 1.0:
                body = f"{_num(abs(c))}*{var}"
            elif p == 0.5 and self.family == "sqrt":
                body = f"{_num(abs(c))}*sqrt({var})"
            else:
                body = f"{_num(abs(c))}*{var}^{_num(p)}"
            parts.append(("-" if c < 0.0 else "+", body))
        if self.eps is not None:
            parts.append(("-", f"eps*sin({var})"))
        elif self.wave:
            parts.append(("-" if self.wave < 0.0 else "+",
                          f"{_num(abs(self.wave))}*sin({var})"))
        sign, body = parts[0]
        out = body if sign == "+" else f"-{body}"
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def params(self) -> dict[str, float]:
        return {} if self.eps is None else {"eps": self.eps}

    # -- analysis ----------------------------------------------------------

    def extrema(self) -> list[float]:
        """Interior points where h' changes sign, ascending."""
        if not self.wave:
            # sums of like-signed monotone powers: h' keeps one sign
            slopes = {math.copysign(1.0, c * p) for c, p in self.terms if p != 0.0}
            if len(slopes) != 1:
                raise ValueError(f"{self.family}: mixed-sign power terms")
            return []
        s = sum(c for c, p in self.terms if p == 1.0)
        ratio = -s / self.wave
        if abs(ratio) >= 1.0:
            return []
        base = math.acos(ratio)
        roots = []
        k = math.floor((self.lo - base) / TWO_PI) - 1
        while True:
            for r in (base + TWO_PI * k, TWO_PI * (k + 1) - base):
                if self.lo < r < self.hi:
                    roots.append(r)
            if base + TWO_PI * k > self.hi:
                break
            k += 1
        return sorted(roots)

    def directions(self) -> list[str]:
        points = [self.lo, *self.extrema(), self.hi]
        return ["increasing" if self.dh(0.5 * (a + b)) > 0.0 else "decreasing"
                for a, b in zip(points, points[1:])]

    def integral_th(self) -> float:
        """I1 = Int_lo^hi t*h(t) dt."""
        a, b = self.lo, self.hi
        total = sum(c * (b ** (p + 2.0) - a ** (p + 2.0)) / (p + 2.0)
                    for c, p in self.terms)
        return total + self.wave * (_t_sin(b) - _t_sin(a))

    def integral_h2(self) -> float:
        """I2 = Int_lo^hi h(t)^2 dt."""
        a, b = self.lo, self.hi
        total = 0.0
        for ci, pi_ in self.terms:
            for cj, pj in self.terms:
                q = pi_ + pj + 1.0
                total += ci * cj * (b ** q - a ** q) / q
        if self.wave:
            for c, p in self.terms:
                prim = (lambda t: -math.cos(t)) if p == 0.0 else _t_sin
                total += 2.0 * self.wave * c * (prim(b) - prim(a))
            total += self.wave ** 2 * (_sin2(b) - _sin2(a))
        return total

    def term_scale(self) -> float:
        """Largest sum of term magnitudes at the endpoints and extrema; the
        rounding of one evaluation of h is a few ulps of it."""
        return max(sum(abs(c * t ** p) for c, p in self.terms) + abs(self.wave)
                   for t in (self.lo, self.hi, *self.extrema()))

    def magnitude(self) -> float:
        """Largest term any route sums: boundary products and integrals."""
        a, b = self.lo, self.hi
        ha, hb = abs(self.h(a)), abs(self.h(b))
        peak = max([ha, hb] + [abs(self.h(x)) for x in self.extrema()])
        return max(PI * b * b * hb, PI * a * a * ha,
                   TWO_PI * abs(self.integral_th()),
                   PI * self.integral_h2(),
                   PI * peak * peak * max(a, b))


def _num(x: float) -> str:
    text = repr(float(x))
    if "e" in text or "inf" in text or "nan" in text:
        raise ValueError(f"literal {text} is outside the expression grammar")
    return text


def _t_sin(t: float) -> float:
    # antiderivative of t*sin(t)
    return math.sin(t) - t * math.cos(t)


def _sin2(t: float) -> float:
    # antiderivative of sin(t)^2
    return 0.5 * t - 0.25 * math.sin(2.0 * t)


# ---------------------------------------------------------------------------
# Expected outcomes

@dataclass(frozen=True)
class Tol:
    """Absolute tolerances of one expected outcome: for volumes, for
    abscissae (breakpoints, violation locations) and for curve values."""

    value: float
    location: float
    curve: float


def value_tolerance(tol: dict, scale: float) -> float:
    quad = max(tol["abs_tol"], tol["rel_tol"] * scale)
    return TWO_PI * _MAX_QUADRATURES * quad + 64.0 * _EPS * scale


def location_tolerance(tol: dict, curve: Curve) -> float:
    """Brent stops at |h'| <= residual_tol or a bracket of about abs_tol."""
    worst = tol["abs_tol"]
    for x in curve.extrema():
        worst = max(worst, tol["residual_tol"] / abs(curve.d2h(x)))
    return 4.0 * (worst + tol["abs_tol"]) + 8.0 * _EPS * curve.hi


def curve_tolerance(curve: Curve) -> float:
    """Rounding of one evaluation of h; at a located extremum h' = 0, so
    the location error adds only second-order terms."""
    return 64.0 * _EPS * curve.term_scale()


def _tols(tol: dict, curve: Curve, volume: bool) -> Tol:
    return Tol(value_tolerance(tol, curve.magnitude()) if volume else 0.0,
               location_tolerance(tol, curve), curve_tolerance(curve))


@dataclass(frozen=True)
class Expected:
    """What the generator says an operation must produce.

    ``kind`` is ``volume``, ``partition``, ``verify`` or ``refusal``.
    Volume outcomes list every cross-check row by name; all rows of one
    operation measure the same region, so they share ``value``.
    """

    kind: str
    exit_code: int = EXIT_OK
    method: str | None = None
    value: float | None = None
    sign_factor: int | None = None
    breakpoints: tuple[float, ...] | None = None
    directions: tuple[str, ...] | None = None
    extremum_values: tuple[float, ...] | None = None
    rows: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()
    satisfied: bool | None = None
    c: float | None = None
    d: float | None = None
    violations: tuple[tuple[str, float], ...] = ()
    verdict: bool | None = None
    error: str | None = None
    tol: Tol = field(default_factory=lambda: Tol(0.0, 0.0, 0.0))

    def to_json(self) -> dict:
        out = {k: v for k, v in self.__dict__.items()
               if v not in (None, ()) and k != "tol"}
        out["tol"] = dict(self.tol.__dict__)
        return out


def _sign(curve: Curve) -> int:
    return 1 if curve.h(curve.hi) > curve.h(curve.lo) else -1


def _checked_tol(tol: dict, value: float, curve: Curve) -> Tol:
    out = _tols(tol, curve, volume=True)
    if not DETECTABLE_REL * abs(value) > 4.0 * out.value:
        raise ValueError(f"{curve.family}: tolerance {out.value:.3e} would hide a "
                         f"{DETECTABLE_REL:g} relative error of {value!r}")
    return out


def expect_volume(curve: Curve, axis: str, role: str, method: str,
                  tol: dict) -> Expected:
    """Expected report of ``solve`` (or ``revolve volume``) on ``curve``.

    The theorem frame (y-of-x about y, x-of-y about x) measures the region
    between the curve and the rotation axis:
        V = sgn(h(b)-h(a)) * (pi*[b^2 h(b) - a^2 h(a)] - 2*pi*I1).
    The transverse (disk) frame measures pi*I2.  ``shell`` measures the
    region between the curve and its own abscissa axis, 2*pi*I1.
    """
    theorem_frame = (axis == AXIS_Y) == (role == ROLE_Y_OF_X)
    a, b = curve.lo, curve.hi
    sign = _sign(curve)
    v_formula = sign * (PI * (b * b * curve.h(b) - a * a * curve.h(a))
                        - TWO_PI * curve.integral_th())
    extrema = tuple(curve.extrema())
    partition = {"breakpoints": (a, *extrema, b),
                 "directions": tuple(curve.directions()),
                 "extremum_values": tuple(curve.h(x) for x in extrema)}
    monotone = not extrema

    if method == "shell":
        if not theorem_frame:
            raise ValueError("shell needs the curve along the perpendicular axis")
        value = TWO_PI * curve.integral_th()
        return Expected("volume", method="shell", value=value, sign_factor=1,
                        tol=_checked_tol(tol, value, curve))
    if method == "disk":
        if theorem_frame:
            raise ValueError("the benchmark uses disk only in transverse frames")
        value = PI * curve.integral_h2()
        return Expected("volume", method="disk", value=value, sign_factor=1,
                        tol=_checked_tol(tol, value, curve))
    if method == "all" and not theorem_frame:
        value = PI * curve.integral_h2()
        mirror = "theorem1" if axis == AXIS_Y else "theorem3"
        return Expected(
            "volume", method="disk", value=value, sign_factor=sign,
            rows=(mirror,) if monotone else (),
            warnings=() if monotone else (WARN_NO_FORMULA,),
            tol=_checked_tol(tol, value, curve))
    if not theorem_frame:
        raise ValueError(f"{method} needs the theorem frame")
    tol_v = _checked_tol(tol, v_formula, curve)
    if method == "all":
        rows = (("theorem1",) if monotone else ()) + (
            "piecewise", "disk", "shell-complement")
        return Expected("volume", method="theorem2" if axis == AXIS_Y else "theorem3",
                        value=v_formula, sign_factor=sign, rows=rows, tol=tol_v,
                        **partition)
    if method == "theorem1":
        if not monotone:
            raise ValueError("theorem1 needs a monotone curve")
        return Expected("volume", method="theorem1", value=v_formula,
                        sign_factor=sign, tol=tol_v)
    if method in ("theorem2", "theorem3"):
        if (method == "theorem2") != (axis == AXIS_Y):
            raise ValueError(f"{method} does not apply about the {axis}")
        return Expected("volume", method=method, value=v_formula, sign_factor=sign,
                        tol=tol_v, **partition)
    raise ValueError(f"unsupported method {method!r}")


def hypothesis_violations(curve: Curve, tol: dict) -> tuple[tuple[str, float], ...]:
    """The violations revolve's validation must report, in its rule order."""
    a, b = curve.lo, curve.hi
    fa, fb = curve.h(a), curve.h(b)
    c, d = min(fa, fb), max(fa, fb)
    out: list[tuple[str, float]] = []
    if math.isclose(fa, fb, rel_tol=tol["rel_tol"], abs_tol=tol["abs_tol"]):
        out.append(("endpoints-equal", a))
    extrema = curve.extrema()
    lowest = min([fb] + [curve.h(x) for x in extrema])
    if min(fa, lowest) < NONNEG_FLOOR:
        if not fa < lowest:
            raise ValueError(f"{curve.family}: the benchmark only predicts "
                             "negativity located at the left endpoint")
        out.append(("negative-value", a))
    for x in extrema:
        if not c < curve.h(x) < d:
            out.append(("multiple-intersection", x))
    return tuple(out)


def expect_verify(curve: Curve, tol: dict) -> Expected:
    violations = hypothesis_violations(curve, tol)
    fa, fb = curve.h(curve.lo), curve.h(curve.hi)
    return Expected("verify", exit_code=EXIT_HYPOTHESIS if violations else EXIT_OK,
                    satisfied=not violations, c=min(fa, fb), d=max(fa, fb),
                    violations=violations, tol=_tols(tol, curve, volume=False))


def expect_partition(curve: Curve, tol: dict) -> Expected:
    """``revolve partition``: pieces plus the parity verdict of Lemma 1."""
    extrema = curve.extrema()
    fa, fb = curve.h(curve.lo), curve.h(curve.hi)
    lo_v, hi_v = min(fa, fb), max(fa, fb)
    if fa == fb or not all(lo_v < curve.h(x) < hi_v for x in extrema):
        raise ValueError("the benchmark partitions only curves meeting Lemma 1")
    directions = curve.directions()
    rising = "increasing" if fa < fb else "decreasing"
    verdict = (len(extrema) % 2 == 0 and directions[0] == rising
               and directions[-1] == rising)
    return Expected("partition", breakpoints=(curve.lo, *extrema, curve.hi),
                    directions=tuple(directions), verdict=verdict,
                    extremum_values=tuple(curve.h(x) for x in extrema),
                    tol=_tols(tol, curve, volume=False))


def expect_refusal(curve: Curve, tol: dict) -> Expected:
    """A formula request on a curve that violates the hypotheses."""
    if not hypothesis_violations(curve, tol):
        raise ValueError("refusal expected only for violating curves")
    return Expected("refusal", exit_code=EXIT_HYPOTHESIS,
                    error="HypothesisViolationError")


# ---------------------------------------------------------------------------
# Checking

def _close(got, want: float, allowed: float) -> bool:
    return (isinstance(got, (int, float)) and not isinstance(got, bool)
            and math.isfinite(got) and abs(got - want) <= allowed)


def check(expected: Expected, outcome: dict) -> list[str]:
    """Compare one outcome with its expectation; return the problems found.

    ``outcome`` has ``exit_code`` and either ``payload`` (the JSON document
    the CLI prints, or the same fields of an in-process report) or
    ``error`` (exception class name) with ``message``.
    """
    problems: list[str] = []
    code = outcome.get("exit_code")
    if code != expected.exit_code:
        problems.append(f"exit code {code!r}, expected {expected.exit_code}")
    if expected.kind == "refusal":
        if outcome.get("error") not in (None, expected.error):
            problems.append(f"raised {outcome.get('error')}, expected {expected.error}")
        if "revolution hypotheses violated" not in outcome.get("message", ""):
            problems.append(f"refusal message missing: {outcome.get('message')!r}")
        return problems
    payload = outcome.get("payload")
    if not isinstance(payload, dict):
        problems.append(f"no report: {outcome.get('error')} {outcome.get('message', '')!r}")
        return problems
    if expected.kind == "volume":
        problems += _check_volume(expected, payload)
    elif expected.kind == "verify":
        problems += _check_verify(expected, payload)
    elif expected.kind == "partition":
        problems += _check_partition(expected, payload)
    else:
        problems.append(f"unknown expectation kind {expected.kind!r}")
    return problems


def _check_points(name: str, got, want, allowed: float) -> list[str]:
    if not isinstance(got, (list, tuple)) or len(got) != len(want):
        return [f"{name} {got!r}, expected {len(want)} points near {list(want)!r}"]
    bad = [(g, w) for g, w in zip(got, want) if not _close(g, w, allowed)]
    return [f"{name} {list(got)!r} differ from {list(want)!r}"] if bad else []


def _check_volume(e: Expected, p: dict) -> list[str]:
    out = []
    allowed = e.tol.value
    if p.get("method") != e.method:
        out.append(f"method {p.get('method')!r}, expected {e.method!r}")
    if p.get("sign_factor") != e.sign_factor:
        out.append(f"sign_factor {p.get('sign_factor')!r}, expected {e.sign_factor}")
    value = p.get("value")
    if not _close(value, e.value, allowed):
        out.append(f"value {value!r} vs reference {e.value!r} (allowed {allowed:.3e})")
    err = p.get("error_estimate")
    if not (isinstance(err, (int, float)) and 0.0 <= err <= allowed):
        out.append(f"error_estimate {err!r} outside [0, {allowed:.3e}]")
    part = p.get("partition")
    if e.breakpoints is None:
        if part is not None:
            out.append(f"unexpected partition {part!r}")
    elif not isinstance(part, dict):
        out.append(f"missing partition, expected breakpoints {e.breakpoints!r}")
    else:
        out += _check_pieces(e, part)
    rows = p.get("cross_checks")
    if not isinstance(rows, list):
        return out + [f"cross_checks {rows!r} is not a list"]
    names = tuple(r.get("method") for r in rows if isinstance(r, dict))
    if names != e.rows or len(rows) != len(e.rows):
        out.append(f"cross-check rows {names!r}, expected {e.rows!r}")
    for r in rows:
        if not isinstance(r, dict):
            continue
        if not _close(r.get("value"), e.value, allowed):
            out.append(f"row {r.get('method')} value {r.get('value')!r} vs "
                       f"reference {e.value!r} (allowed {allowed:.3e})")
        elif isinstance(value, (int, float)) and not _close(
                r.get("delta"), abs(r["value"] - value), allowed):
            out.append(f"row {r.get('method')} delta {r.get('delta')!r} is not "
                       f"|{r['value']!r} - {value!r}|")
    if tuple(p.get("warnings", ())) != e.warnings:
        out.append(f"warnings {p.get('warnings')!r}, expected {list(e.warnings)!r}")
    return out


def _check_verify(e: Expected, p: dict) -> list[str]:
    out = []
    if p.get("satisfied") is not e.satisfied:
        out.append(f"satisfied {p.get('satisfied')!r}, expected {e.satisfied}")
    for key, want in (("c", e.c), ("d", e.d)):
        if not _close(p.get(key), want, e.tol.curve):
            out.append(f"{key} {p.get(key)!r}, expected {want!r}")
    got = p.get("violations")
    if not isinstance(got, list):
        return out + [f"violations {got!r} is not a list"]
    rules = tuple(v.get("rule") for v in got if isinstance(v, dict))
    want_rules = tuple(rule for rule, _ in e.violations)
    if rules != want_rules or len(got) != len(e.violations):
        out.append(f"violation rules {rules!r}, expected {want_rules!r}")
    else:
        out += _check_points("violation locations", [v.get("location") for v in got],
                             [loc for _, loc in e.violations], e.tol.location)
    return out


def _check_pieces(e: Expected, p: dict) -> list[str]:
    out = _check_points("breakpoints", p.get("breakpoints"), e.breakpoints,
                        e.tol.location)
    out += _check_points("extremum_values", p.get("extremum_values"),
                         e.extremum_values, e.tol.curve)
    if tuple(p.get("directions", ())) != e.directions:
        out.append(f"directions {p.get('directions')!r}, expected {e.directions!r}")
    return out


def _check_partition(e: Expected, p: dict) -> list[str]:
    out = _check_pieces(e, p)
    parity = p.get("parity")
    if not isinstance(parity, dict) or parity.get("verdict") is not e.verdict:
        out.append(f"parity {parity!r}, expected verdict {e.verdict}")
    return out
