"""Command-line front end.

Subcommands: ``volume`` (compute and cross-check a volume of revolution),
``partition`` (monotone pieces plus the parity verdict), ``verify``
(hypothesis report), and ``kepler`` (curve family evaluations).  Output is
human-readable text or JSON; curve samples can be exported as CSV for
plotting.

Exit codes: 0 success, 1 usage or parse error, 2 hypothesis violation,
3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

from . import kepler as kepler_mod
from .errors import RevolveError
from .expr import ExpressionError, Expression, bind, evaluate, parse
from .monotone import (
    AlternationViolationError,
    HypothesisReport,
    MonotonePartition,
    PreconditionViolatedError,
    check_lemma1,
    partition,
    validate_revolution_hypotheses,
)
from .numerics import (
    DivergedWithoutBracketError,
    Interval,
    MaxIterationsExceededError,
    NoSignChangeError,
    NonFiniteEvaluationError,
    Tolerances,
    uniform_grid,
)
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
    solve,
)

__all__ = ["RunConfig", "main", "run"]

ENV_DEFAULT_TOL = "REVOLVE_DEFAULT_TOL"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_NUMERIC = 3

_HYPOTHESIS_ERRORS = (
    HypothesisViolationError,
    NotMonotoneError,
    NotInvertibleError,
    NegativeCurveError,
    AlternationViolationError,
    PreconditionViolatedError,
)
_NUMERIC_ERRORS = (
    MaxIterationsExceededError,
    DivergedWithoutBracketError,
    NonFiniteEvaluationError,
    NoSignChangeError,
)


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs."""

    subcommand: str
    curve: str = ""
    variable: str = "x"
    interval_text: tuple[str, str] = ("0", "1")
    axis: str = AXIS_Y
    method: str = "all"
    role: str | None = None
    parameters: dict[str, float] = field(default_factory=dict)
    tol: Tolerances = field(default_factory=Tolerances)
    as_json: bool = False
    csv_path: str | None = None
    samples: int = 512
    eps: float | None = None
    forward_at: float | None = None
    invert_at: float | None = None


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; usage errors must be 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _build_parser() -> _Parser:
    parser = _Parser(prog="revolve",
                     description="Volumes of solids of revolution, computed "
                                 "several ways and cross-checked.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_curve_options(p, with_method=False):
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
        p.add_argument("--abs-tol", type=float, default=None)
        p.add_argument("--rel-tol", type=float, default=None)
        p.add_argument("--residual-tol", type=float, default=None)
        p.add_argument("--max-depth", type=int, default=None)
        p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--csv", default=None, metavar="PATH",
                       help="export curve samples as CSV")
        p.add_argument("--samples", type=int, default=512,
                       help="CSV sample count (default 512)")

    add_curve_options(sub.add_parser("volume", help="compute a volume"),
                      with_method=True)
    add_curve_options(sub.add_parser(
        "partition", help="monotone pieces and parity verdict"))
    add_curve_options(sub.add_parser(
        "verify", help="check the revolution hypotheses"))

    kp = sub.add_parser("kepler", help="Kepler curve family evaluations")
    kp.add_argument("--eps", type=float, required=True, help="eccentricity")
    kp.add_argument("--forward", type=float, default=None, metavar="Y",
                    help="evaluate the forward map at Y")
    kp.add_argument("--invert", type=float, default=None, metavar="X",
                    help="invert the curve at X")
    kp.add_argument("--abs-tol", type=float, default=None)
    kp.add_argument("--rel-tol", type=float, default=None)
    kp.add_argument("--residual-tol", type=float, default=None)
    kp.add_argument("--max-depth", type=int, default=None)
    kp.add_argument("--max-iter", type=int, default=None)
    kp.add_argument("--json", action="store_true", help="emit JSON")
    return parser


def _tolerances(ns: argparse.Namespace) -> Tolerances:
    defaults = Tolerances()
    rel_default = defaults.rel_tol
    env = os.environ.get(ENV_DEFAULT_TOL)
    if env is not None:
        try:
            rel_default = float(env)
        except ValueError:
            raise _UsageError(f"{ENV_DEFAULT_TOL} is not a number: {env!r}")
    try:
        return Tolerances(
            abs_tol=ns.abs_tol if ns.abs_tol is not None else defaults.abs_tol,
            rel_tol=ns.rel_tol if ns.rel_tol is not None else rel_default,
            residual_tol=(ns.residual_tol if ns.residual_tol is not None
                          else defaults.residual_tol),
            max_depth=(ns.max_depth if ns.max_depth is not None
                       else defaults.max_depth),
            max_iter=ns.max_iter if ns.max_iter is not None else defaults.max_iter,
        )
    except ValueError as exc:
        raise _UsageError(str(exc))


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
    return out


def _config_from_args(argv: list[str] | None) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    if ns.subcommand == "kepler":
        return RunConfig(
            subcommand="kepler",
            tol=_tolerances(ns),
            as_json=ns.json,
            eps=ns.eps,
            forward_at=ns.forward,
            invert_at=ns.invert,
        )
    role = getattr(ns, "role", None)
    if role is None:
        role = ROLE_X_OF_Y if ns.var == "y" else ROLE_Y_OF_X
    return RunConfig(
        subcommand=ns.subcommand,
        curve=ns.curve,
        variable=ns.var,
        interval_text=tuple(ns.interval),
        axis=AXIS_Y if getattr(ns, "axis", "y") == "y" else AXIS_X,
        method=getattr(ns, "method", "all"),
        role=role,
        parameters=_parameters(ns.param),
        tol=_tolerances(ns),
        as_json=ns.json,
        csv_path=ns.csv,
        samples=ns.samples,
    )


# ---------------------------------------------------------------------------
# Shared pieces

def _parse_bound(text: str) -> float:
    value = evaluate(parse(text))
    if not math.isfinite(value):
        raise _UsageError(f"interval bound {text!r} is not finite")
    return value


def _interval(config: RunConfig) -> Interval:
    lo = _parse_bound(config.interval_text[0])
    hi = _parse_bound(config.interval_text[1])
    if not lo < hi:
        raise _UsageError(
            f"interval bounds must satisfy lo < hi: {lo!r}, {hi!r}")
    return Interval(lo, hi)


def _curve(config: RunConfig) -> Expression:
    return parse(config.curve, variable=config.variable,
                 parameters=config.parameters.keys())


def _write_csv(config: RunConfig, curve: Expression, interval: Interval) -> None:
    if config.csv_path is None:
        return
    if config.samples < 1:
        raise _UsageError("--samples must be at least 1")
    fn = bind(curve, config.variable, config.parameters)
    with open(config.csv_path, "w", encoding="utf-8") as handle:
        for x in uniform_grid(interval.lo, interval.hi, config.samples):
            handle.write(f"{x:.15g},{fn(x):.15g}\n")


def _emit(payload: dict, config: RunConfig, text: str) -> None:
    if config.as_json:
        print(json.dumps(payload, indent=2))
    else:
        print(text, end="")


# ---------------------------------------------------------------------------
# Subcommands

def _partition_payload(part: MonotonePartition) -> dict:
    return {
        "breakpoints": list(part.breakpoints),
        "directions": list(part.directions),
        "extremum_values": list(part.extremum_values),
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


def _run_volume(config: RunConfig) -> int:
    curve = _curve(config)
    interval = _interval(config)
    _write_csv(config, curve, interval)
    problem = VolumeProblem(
        curve=curve,
        interval=interval,
        curve_role=config.role or ROLE_Y_OF_X,
        axis=config.axis,
        method=config.method,
        tol=config.tol,
        parameters=config.parameters,
    )
    report = solve(problem)
    _emit(_report_payload(report), config, _report_text(report))
    if any(w.startswith(WARN_NOT_CONVERGED) for w in report.warnings):
        return EXIT_NUMERIC
    return EXIT_OK


def _run_partition(config: RunConfig) -> int:
    curve = _curve(config)
    interval = _interval(config)
    _write_csv(config, curve, interval)
    part = partition(curve, interval, config.tol, config.parameters)
    fn = bind(curve, config.variable, config.parameters)
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
    ]
    _emit(payload, config, "\n".join(lines) + "\n")
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
    }


def _run_verify(config: RunConfig) -> int:
    curve = _curve(config)
    interval = _interval(config)
    _write_csv(config, curve, interval)
    report = validate_revolution_hypotheses(
        curve, interval, config.tol, config.parameters)
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
    _emit(_verify_payload(report), config, "\n".join(lines) + "\n")
    return EXIT_OK if report.satisfied else EXIT_HYPOTHESIS


def _run_kepler(config: RunConfig) -> int:
    try:
        curve = kepler_mod.KeplerCurve(config.eps)
    except ValueError as exc:
        raise _UsageError(str(exc))
    v_y, v_x = kepler_mod.reference_volumes(curve)
    payload: dict = {"eccentricity": curve.eccentricity,
                     "forward": None, "inverse": None,
                     "reference_volumes": {"v_y": v_y, "v_x": v_x}}
    lines = [f"eccentricity: {curve.eccentricity:.12g}"]
    if config.forward_at is not None:
        x = kepler_mod.forward(curve, config.forward_at)
        payload["forward"] = {"y": config.forward_at, "x": x}
        lines.append(f"forward({config.forward_at:.12g}) = {x:.12g}")
    if config.invert_at is not None:
        y = kepler_mod.inverse(curve, config.invert_at, config.tol)
        residual = kepler_mod.forward(curve, y) - config.invert_at
        payload["inverse"] = {"x": config.invert_at, "y": y,
                              "residual": residual}
        lines.append(f"inverse({config.invert_at:.12g}) = {y:.12g}")
    lines.append(f"reference_volumes: v_y = {v_y:.12g}, v_x = {v_x:.12g}")
    _emit(payload, config, "\n".join(lines) + "\n")
    return EXIT_OK


def run(config: RunConfig) -> int:
    """Execute one parsed invocation and return its exit status."""
    if config.subcommand == "volume":
        return _run_volume(config)
    if config.subcommand == "partition":
        return _run_partition(config)
    if config.subcommand == "verify":
        return _run_verify(config)
    if config.subcommand == "kepler":
        return _run_kepler(config)
    raise _UsageError(f"unknown subcommand {config.subcommand!r}")


def main(argv: list[str] | None = None) -> int:
    """Console entry point; returns the process exit status."""
    try:
        config = _config_from_args(argv)
    except _UsageError:
        return EXIT_USAGE
    try:
        return run(config)
    except _UsageError as exc:
        _fail(str(exc))
        return EXIT_USAGE
    except HypothesisViolationError as exc:
        _fail(str(exc))
        for rule, location in exc.report.violations:
            print(f"  {rule} at {location:.12g}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except _HYPOTHESIS_ERRORS as exc:
        _fail(str(exc))
        return EXIT_HYPOTHESIS
    except _NUMERIC_ERRORS as exc:
        _fail(str(exc))
        return EXIT_NUMERIC
    except (ExpressionError, ValueError) as exc:
        _fail(str(exc))
        return EXIT_USAGE
    except OSError as exc:
        _fail(str(exc))
        return EXIT_USAGE
    except RevolveError as exc:
        _fail(str(exc))
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
