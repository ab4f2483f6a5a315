"""Command-line front end.

Subcommands: ``volume`` (compute and cross-check a volume of revolution),
``partition`` (monotone pieces plus the parity verdict), ``verify``
(hypothesis report), and ``kepler`` (curve family evaluations).  Output is
human-readable text or JSON; curve samples can be exported as CSV for
plotting.

Each subparser registers its handler with ``set_defaults``; ``main`` calls
it with the parsed ``argparse.Namespace``, so a new flag touches only the
parser and the handler that reads it.  Every usage error prints one
``error: ...`` line to stderr; argparse's own errors print the usage line
first.

Exit codes: 0 success, 1 usage or parse error, 2 hypothesis violation,
3 numeric non-convergence.  One table, ``_EXIT_CODES``, decides which error
exits how: ``main`` prints the error's one line and returns the code of the
first row whose classes it matches.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import Callable

from . import kepler as kepler_mod
from .errors import RevolveError
from .expr import ExpressionError, Expression, evaluate, parse
from .monotone import (
    AlternationViolationError,
    HypothesisReport,
    MonotonePartition,
    PreconditionViolatedError,
    check_lemma1,
    partition,
    validate_revolution_hypotheses,
)
from .numerics import Interval, Tolerances, uniform_grid
from .volume import (
    AXIS_X,
    AXIS_Y,
    HypothesisViolationError,
    METHODS,
    NegativeCurveError,
    NotInvertibleError,
    NotMonotoneError,
    ROLE_X_OF_Y,
    ROLE_Y_OF_X,
    VolumeProblem,
    VolumeReport,
    WARN_NOT_CONVERGED,
    _compile,
    solve,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


# the first matching row wins, so any other RevolveError (numeric) exits 3
_EXIT_CODES = (
    ((_UsageError, ExpressionError, ValueError, OSError), EXIT_USAGE),
    ((HypothesisViolationError, NotMonotoneError, NotInvertibleError,
      NegativeCurveError, AlternationViolationError, PreconditionViolatedError),
     EXIT_HYPOTHESIS),
    (RevolveError, EXIT_NUMERIC),
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads an argument that names no option as a value when
        # this private matcher accepts it; the stock one takes only plain
        # negative numbers, so "--interval -pi pi" failed.  Now any single
        # dash does ("-h" matches its option first); "--name" stays an option.
        self._negative_number_matcher = re.compile(r"-[^-]")

    # argparse exits with status 2 by default; usage errors must be 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="revolve",
                     description="Volumes of solids of revolution, computed "
                                 "several ways and cross-checked.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_tolerance_options(p, fields):
        for name in fields:  # typed as the Tolerances field's default
            p.add_argument("--" + name.replace("_", "-"), default=None,
                           type=type(getattr(Tolerances(), name)))
        p.add_argument("--json", action="store_true", help="emit JSON")

    def add_curve_options(p, handler, fields, with_method=False):
        p.set_defaults(handler=handler)
        p.add_argument("--curve", required=True, help="curve expression text")
        p.add_argument("--var", default="x", help="free variable name (default x)")
        p.add_argument("--interval", nargs=2, required=True,
                       metavar=("LO", "HI"),
                       help="interval bounds; variable-free expressions like 2*pi")
        p.add_argument("--param", action="append", default=[],
                       metavar="NAME=VALUE", help="bind a parameter (repeatable)")
        if with_method:
            p.add_argument("--axis", choices=["y", "x"], default="y",
                           help="rotation axis (default y)")
            p.add_argument("--method", choices=list(METHODS), default="all",
                           help="computation method (default all)")
            p.add_argument("--role", choices=[ROLE_Y_OF_X, ROLE_X_OF_Y],
                           default=None,
                           help="how to read the curve; inferred from --var "
                                "when omitted")
        add_tolerance_options(p, fields)
        p.add_argument("--csv", default=None, metavar="PATH",
                       help="export curve samples as CSV")
        p.add_argument("--samples", type=int, default=512,
                       help="CSV sample count (default 512)")

    add_curve_options(sub.add_parser("volume", help="compute a volume"),
                      _run_volume, Tolerances.__match_args__, with_method=True)
    # only volume integrates (max_depth); Brent and its root dedup: no rel_tol
    add_curve_options(sub.add_parser(
        "partition", help="monotone pieces and parity verdict"), _run_partition,
        ("abs_tol", "residual_tol", "max_iter"))
    add_curve_options(sub.add_parser(
        "verify", help="check the revolution hypotheses"), _run_verify,
        ("abs_tol", "rel_tol", "residual_tol", "max_iter"))

    kp = sub.add_parser("kepler", help="Kepler curve family evaluations")
    kp.set_defaults(handler=_run_kepler)
    kp.add_argument("--eps", type=float, required=True, help="eccentricity")
    kp.add_argument("--forward", type=float, default=None, metavar="Y",
                    help="evaluate the forward map at Y")
    kp.add_argument("--invert", type=float, default=None, metavar="X",
                    help="invert the curve at X")
    add_tolerance_options(kp, ("residual_tol", "max_iter"))  # newton_solve's
    return parser


def _tolerances(ns: argparse.Namespace) -> Tolerances:
    # each flag's dest is its Tolerances field; subcommands omit unread ones
    given = {name: value for name in Tolerances.__match_args__
             if (value := getattr(ns, name, None)) is not None}
    return Tolerances(**given)


def _parameters(pairs: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs:
        name, sep, text = pair.partition("=")
        if not sep or not name:
            raise _UsageError(f"parameter binding must be NAME=VALUE: {pair!r}")
        try:
            out[name] = float(text)
        except ValueError:
            raise _UsageError(f"parameter {name!r} has non-numeric value {text!r}")
        if not math.isfinite(out[name]):
            raise _UsageError(f"parameter {name!r} is not finite: {text!r}")
    return out


# ---------------------------------------------------------------------------
# Shared pieces

def _parse_bound(text: str) -> float:
    value = evaluate(parse(text))
    if not math.isfinite(value):
        raise _UsageError(f"interval bound {text!r} is not finite")
    return value


def _curve_inputs(ns: argparse.Namespace
                  ) -> tuple[Expression, Interval, dict[str, float], Tolerances]:
    """The shared start of ``volume``/``partition``/``verify``: parse the
    parameters, tolerances, curve and interval in that order, then check
    ``--samples`` if a ``--csv`` export was asked for."""
    parameters = _parameters(ns.param)
    tol = _tolerances(ns)
    curve = parse(ns.curve, variable=ns.var, parameters=parameters.keys())
    lo, hi = _parse_bound(ns.interval[0]), _parse_bound(ns.interval[1])
    if not lo < hi:
        raise _UsageError(f"interval bounds must satisfy lo < hi: {lo!r}, {hi!r}")
    interval = Interval(lo, hi)
    if ns.csv is not None and ns.samples < 1:
        raise _UsageError("--samples must be at least 1")
    return curve, interval, parameters, tol


def _write_csv(ns: argparse.Namespace, fn: Callable[[float], float],
               interval: Interval) -> None:
    """Stream the ``--csv`` export of ``fn``, if one was asked for, into
    ``PATH.partial`` and rename it onto PATH; a failure leaves no file."""
    if ns.csv is None:
        return
    partial = ns.csv + ".partial"
    try:
        with open(partial, "w", encoding="utf-8") as handle:
            handle.writelines(f"{x:.15g},{fn(x):.15g}\n" for x in
                              uniform_grid(interval.lo, interval.hi, ns.samples))
        os.replace(partial, ns.csv)
    finally:
        if os.path.exists(partial):  # a failure left it behind
            os.remove(partial)


def _emit(payload: dict, ns: argparse.Namespace, text: str) -> None:
    if ns.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text, end="")


# ---------------------------------------------------------------------------
# Subcommands

def _unproven_payload(cells: tuple[tuple[float, float], ...]) -> dict:
    # only a curve the enclosures could not settle carries the key
    return {"unproven": [list(cell) for cell in cells]} if cells else {}


def _unproven_lines(cells: tuple[tuple[float, float], ...]) -> list[str]:
    return [f"unproven: [{lo:.12g}, {hi:.12g}]" for lo, hi in cells]


def _partition_payload(part: MonotonePartition) -> dict:
    return {
        "breakpoints": list(part.breakpoints),
        "directions": list(part.directions),
        "extremum_values": list(part.extremum_values),
        **_unproven_payload(part.unproven),
    }


def _report_payload(report: VolumeReport) -> dict:
    return {
        "value": report.value,
        "method": report.method,
        "sign_factor": report.sign_factor,
        "error_estimate": report.error_estimate,
        "partition": (_partition_payload(report.partition)
                      if report.partition is not None else None),
        "cross_checks": [
            {"method": name, "value": value, "delta": delta}
            for name, value, delta in report.cross_checks
        ],
        "warnings": list(report.warnings),
    }


def _report_text(report: VolumeReport) -> str:
    lines = [
        f"method: {report.method}",
        f"value: {report.value:.12g}",
        f"sign_factor: {report.sign_factor:+d}",
        f"error_estimate: {report.error_estimate:.3e}",
    ]
    if report.partition is not None:
        bp = ", ".join(f"{x:.12g}" for x in report.partition.breakpoints)
        lines.append(f"breakpoints: [{bp}]")
        lines.append("directions: " + ", ".join(report.partition.directions))
    if report.cross_checks:
        lines.append("cross_checks:")
        for name, value, delta in report.cross_checks:
            lines.append(f"  {name:<18} {value:.12g}   |delta| = {delta:.3e}")
    if report.warnings:
        lines.append("warnings:")
        lines.extend(f"  {w}" for w in report.warnings)
    else:
        lines.append("warnings: (none)")
    return "\n".join(lines) + "\n"


def _run_volume(ns: argparse.Namespace) -> int:
    curve, interval, parameters, tol = _curve_inputs(ns)
    if ns.csv is not None:  # solve compiles the curve on its own
        _write_csv(ns, _compile(curve, parameters)[0], interval)
    problem = VolumeProblem(
        curve=curve,
        interval=interval,
        curve_role=ns.role or (ROLE_X_OF_Y if ns.var == "y" else ROLE_Y_OF_X),
        axis=AXIS_Y if ns.axis == "y" else AXIS_X,
        method=ns.method,
        tol=tol,
        parameters=parameters,
    )
    report = solve(problem)
    _emit(_report_payload(report), ns, _report_text(report))
    if any(w.startswith(WARN_NOT_CONVERGED) for w in report.warnings):
        return EXIT_NUMERIC
    return EXIT_OK


def _run_partition(ns: argparse.Namespace) -> int:
    curve, interval, parameters, tol = _curve_inputs(ns)
    fn, slope_functions = _compile(curve, parameters)
    _write_csv(ns, fn, interval)
    part = partition(fn, *slope_functions(), interval, tol)
    f_a, f_b = fn(interval.lo), fn(interval.hi)
    try:
        verdict: bool | None = check_lemma1(part, f_a, f_b)
        detail = ("interior extremum count "
                  f"{part.interior_count} is {'even' if verdict else 'odd'}")
    except PreconditionViolatedError as exc:
        verdict = None
        detail = f"precondition violated: {exc}"

    payload = {
        **_partition_payload(part),
        "parity": {"verdict": verdict, "detail": detail},
    }
    lines = [
        "breakpoints: [" + ", ".join(f"{x:.12g}" for x in part.breakpoints) + "]",
        "directions: " + ", ".join(part.directions),
        "extremum_values: ["
        + ", ".join(f"{v:.12g}" for v in part.extremum_values) + "]",
        f"parity: {verdict} ({detail})",
        *_unproven_lines(part.unproven),
    ]
    _emit(payload, ns, "\n".join(lines) + "\n")
    return EXIT_OK


def _verify_payload(report: HypothesisReport) -> dict:
    return {
        "satisfied": report.satisfied,
        "c": report.c,
        "d": report.d,
        "violations": [
            {"rule": rule, "location": location}
            for rule, location in report.violations
        ],
        **_unproven_payload(report.unproven),
    }


def _run_verify(ns: argparse.Namespace) -> int:
    curve, interval, parameters, tol = _curve_inputs(ns)
    fn, slope_functions = _compile(curve, parameters)
    _write_csv(ns, fn, interval)
    report = validate_revolution_hypotheses(fn, *slope_functions(), interval, tol)
    lines = [
        f"satisfied: {report.satisfied}",
        f"c: {report.c:.12g}",
        f"d: {report.d:.12g}",
    ]
    if report.violations:
        lines.append("violations:")
        lines.extend(f"  {rule} at {loc:.12g}" for rule, loc in report.violations)
    else:
        lines.append("violations: (none)")
    lines += _unproven_lines(report.unproven)
    _emit(_verify_payload(report), ns, "\n".join(lines) + "\n")
    return EXIT_OK if report.satisfied else EXIT_HYPOTHESIS


def _run_kepler(ns: argparse.Namespace) -> int:
    tol = _tolerances(ns)
    for flag, value in (("--forward", ns.forward), ("--invert", ns.invert)):
        if value is not None and not math.isfinite(value):
            raise _UsageError(f"{flag} is not finite: {value!r}")
    curve = kepler_mod.KeplerCurve(ns.eps)
    v_y, v_x = kepler_mod.reference_volumes(curve)
    payload: dict = {"eccentricity": curve.eccentricity,
                     "forward": None, "inverse": None,
                     "reference_volumes": {"v_y": v_y, "v_x": v_x}}
    lines = [f"eccentricity: {curve.eccentricity:.12g}"]
    if ns.forward is not None:
        x = kepler_mod.forward(curve, ns.forward)
        payload["forward"] = {"y": ns.forward, "x": x}
        lines.append(f"forward({ns.forward:.12g}) = {x:.12g}")
    if ns.invert is not None:
        y = kepler_mod.inverse(curve, ns.invert, tol)
        residual = kepler_mod.forward(curve, y) - ns.invert
        payload["inverse"] = {"x": ns.invert, "y": y, "residual": residual}
        lines.append(f"inverse({ns.invert:.12g}) = {y:.12g}")
    lines.append(f"reference_volumes: v_y = {v_y:.12g}, v_x = {v_x:.12g}")
    _emit(payload, ns, "\n".join(lines) + "\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Console entry point; returns the process exit status."""
    try:
        ns = _build_parser().parse_args(argv)
    except _UsageError:
        return EXIT_USAGE  # the parser has printed its usage and message
    try:
        return ns.handler(ns)
    except Exception as exc:
        code = next((code for classes, code in _EXIT_CODES
                     if isinstance(exc, classes)), None)
        if code is None:
            raise  # not an error of the input: keep its traceback
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, HypothesisViolationError):
            for rule, location in exc.report.violations:
                print(f"  {rule} at {location:.12g}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
