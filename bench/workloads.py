"""Seeded operation lists for the three workloads.

Every workload is a fixed list of slots; the seed only draws each slot's
curve parameters from a narrow range (stratified where one family spans a
wide range, as the Kepler eccentricity sweep does).  So two seeds give
lists of the same shape and nearly the same cost, with different numbers.
Each operation carries the outcome the reference in ``oracle`` predicts
for it; nothing here runs revolve, and no input is chosen by running it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracle
from oracle import (AXIS_X, AXIS_Y, DEFAULT_TOL, PI, ROLE_X_OF_Y, ROLE_Y_OF_X,
                    TWO_PI, Curve, Expected)

# frame name -> (variable, curve role, rotation axis)
THEOREM_Y = ("x", ROLE_Y_OF_X, AXIS_Y)    # y = f(x) about the y-axis
THEOREM_X = ("y", ROLE_X_OF_Y, AXIS_X)    # x = g(y) about the x-axis
DISK_Y = ("y", ROLE_X_OF_Y, AXIS_Y)       # x = g(y) about the y-axis
DISK_X = ("x", ROLE_Y_OF_X, AXIS_X)       # y = f(x) about the x-axis


@dataclass(frozen=True)
class Op:
    """One operation: a ``solve`` request or a ``revolve`` command line.

    Every operation has ``argv``, the equivalent ``revolve`` arguments.
    ``request`` is set for in-process operations and holds the fields of
    a ``VolumeProblem``.
    """

    id: int
    label: str
    argv: tuple[str, ...]
    expected: Expected
    curve_text: str
    variable: str
    params: dict
    request: dict | None = None

    def to_json(self) -> dict:
        return {"id": self.id, "label": self.label, "argv": list(self.argv),
                "request": self.request, "expected": self.expected.to_json()}


# ---------------------------------------------------------------------------
# Curve families (tests/corpus.py members and their seeded neighbours)

def _u(rng: random.Random, lo: float, hi: float, digits: int = 4) -> float:
    return round(rng.uniform(lo, hi), digits)


def flagship(rng=None) -> Curve:
    return Curve("flagship", ((1.0 / PI, 1.0),), 1.0, 0.0, TWO_PI,
                 text_form="{v}/pi + sin({v})")


def line(rng) -> Curve:
    return Curve("line", ((_u(rng, 0.8, 1.2), 1.0), (_u(rng, 0.05, 0.3), 0.0)),
                 0.0, 1.0, 2.0)


def falling_line(rng) -> Curve:
    return Curve("falling-line",
                 ((_u(rng, 2.9, 3.1), 0.0), (-_u(rng, 0.9, 1.1), 1.0)), 0.0, 1.0, 2.0)


def power(rng) -> Curve:
    return Curve("power", ((_u(rng, 0.8, 1.2), _u(rng, 1.8, 2.6, 2)),), 0.0, 1.0, 2.0)


def ramp_wave(rng) -> Curve:
    # two interior extrema whose values lie strictly between the endpoint
    # values, as in x/pi + sin(x)
    return Curve("ramp-wave", ((_u(rng, 0.29, 0.35), 1.0), (_u(rng, 0.01, 0.2), 0.0)),
                 _u(rng, 0.9, 1.1), 0.0, TWO_PI)


def mirrored_ramp(rng) -> Curve:
    s = _u(rng, 0.29, 0.35)
    c = round(TWO_PI * s + _u(rng, 0.01, 0.2), 4)
    return Curve("mirrored-ramp", ((c, 0.0), (-s, 1.0)), -_u(rng, 0.9, 1.1),
                 0.0, TWO_PI)


def kepler(lo_eps: float, hi_eps: float):
    def make(rng) -> Curve:
        eps = _u(rng, lo_eps, hi_eps)
        return Curve("kepler", ((1.0, 1.0),), -eps, 0.0, TWO_PI, eps=eps,
                     text_form="{v} - eps*sin({v})")
    return make


def sqrt_curve(rng) -> Curve:
    return Curve("sqrt", ((_u(rng, 0.8, 1.2), 0.5), (_u(rng, 0.01, 0.2), 0.0)),
                 0.0, 0.01, 4.0)


def scaled_power(rng) -> Curve:
    return Curve("scaled-power", ((_u(rng, 1.8, 2.2), 0.5), (_u(rng, 0.8, 1.2), 1.0)),
                 0.0, 0.01, 3.0)


# Curves that violate the revolution hypotheses, by construction.

def overshoot_wave(rng) -> Curve:
    # slope too small for the wave: both extremum values leave the
    # endpoint range (multiple intersections), while the curve stays > 0
    return Curve("overshoot-wave", ((_u(rng, 0.08, 0.12), 1.0), (_u(rng, 1.2, 1.4), 0.0)),
                 _u(rng, 0.9, 1.1), 0.0, TWO_PI)


def negative_line(rng) -> Curve:
    return Curve("negative-line", ((_u(rng, 0.8, 1.2), 1.0), (-_u(rng, 0.2, 0.5), 0.0)),
                 0.0, 0.0, 2.0)


def level_ends(rng) -> Curve:
    return Curve("level-ends", ((_u(rng, 1.5, 2.0), 0.0),), _u(rng, 0.5, 1.0),
                 0.0, TWO_PI)


MONOTONE = (line, falling_line, power, kepler(0.1, 0.35), kepler(0.35, 0.65),
            kepler(0.65, 0.9), sqrt_curve, scaled_power)
PIECEWISE = (flagship, ramp_wave, mirrored_ramp)


# ---------------------------------------------------------------------------
# Operations

def _common_args(curve: Curve, var: str) -> list[str]:
    args = ["--curve", curve.text(var), "--var", var,
            "--interval", repr(curve.lo), repr(curve.hi)]
    for name, value in curve.params().items():
        args += ["--param", f"{name}={value!r}"]
    return args


def _volume(ops: list, curve: Curve, frame: tuple, method: str,
            in_process: bool) -> None:
    var, role, axis = frame
    if (role == ROLE_X_OF_Y) != (var == "y"):
        raise ValueError("the CLI infers the curve role from the variable name")
    argv = ("volume", *_common_args(curve, var), "--axis", axis[0],
            "--method", method, "--json")
    request = None
    if in_process:
        request = {"curve": curve.text(var), "variable": var,
                   "parameters": curve.params(), "lo": curve.lo, "hi": curve.hi,
                   "curve_role": role, "axis": axis, "method": method,
                   "tol": dict(DEFAULT_TOL)}
    expected = oracle.expect_volume(curve, axis, role, method, DEFAULT_TOL)
    ops.append(Op(len(ops), f"volume {method} {curve.family} {role} about {axis}",
                  argv, expected, curve.text(var), var, curve.params(), request))


def _command(ops: list, command: str, curve: Curve, var: str,
             expected: Expected) -> None:
    argv = (command, *_common_args(curve, var), "--json")
    ops.append(Op(len(ops), f"{command} {curve.family}", argv, expected,
                  curve.text(var), var, curve.params()))


def cross_check(seed: int) -> list[Op]:
    """``solve(method="all")`` in both boundary-term frames."""
    rng = random.Random(seed)
    ops: list[Op] = []
    for frame in (THEOREM_Y, THEOREM_X):
        for family in PIECEWISE + MONOTONE:
            _volume(ops, family(rng), frame, "all", in_process=True)
    return ops


def formula_sweep(seed: int) -> list[Op]:
    """Single-method requests: one formula route, no inversion."""
    rng = random.Random(seed)
    ops: list[Op] = []
    for i, family in enumerate(MONOTONE):
        curve = family(rng)
        own = THEOREM_Y if i % 2 == 0 else THEOREM_X
        _volume(ops, curve, own, "theorem1", in_process=True)
        _volume(ops, curve, THEOREM_X, "theorem3", in_process=True)
        _volume(ops, curve, own, "shell", in_process=True)
    for i, family in enumerate(PIECEWISE):
        curve = family(rng)
        _volume(ops, curve, THEOREM_Y, "theorem2", in_process=True)
        _volume(ops, curve, THEOREM_X, "theorem3", in_process=True)
        _volume(ops, curve, THEOREM_Y if i % 2 == 0 else THEOREM_X, "shell",
                in_process=True)
    return ops


def cli(seed: int) -> list[Op]:
    """``revolve volume|partition|verify --json`` processes."""
    rng = random.Random(seed)
    tol = DEFAULT_TOL
    ops: list[Op] = []
    for family in (kepler(0.35, 0.65), ramp_wave, sqrt_curve, line):
        _volume(ops, family(rng), DISK_Y, "all", in_process=False)
    for family in (falling_line, mirrored_ramp, scaled_power, power):
        _volume(ops, family(rng), DISK_X, "all", in_process=False)
    for family in (kepler(0.65, 0.9), flagship):
        _volume(ops, family(rng), DISK_Y, "disk", in_process=False)
    for family in (line, sqrt_curve):
        _volume(ops, family(rng), DISK_X, "disk", in_process=False)
    for family, var in ((flagship, "x"), (ramp_wave, "x"), (kepler(0.1, 0.35), "y")):
        curve = family(rng)
        _command(ops, "partition", curve, var, oracle.expect_partition(curve, tol))
    for family in (line, ramp_wave, overshoot_wave, negative_line, level_ends):
        curve = family(rng)
        _command(ops, "verify", curve, "x", oracle.expect_verify(curve, tol))
    curve = overshoot_wave(rng)
    argv_curve = _common_args(curve, "x")
    ops.append(Op(len(ops), "volume all overshoot-wave (refused)",
                  ("volume", *argv_curve, "--axis", "y", "--method", "all", "--json"),
                  oracle.expect_refusal(curve, tol), curve.text("x"), "x",
                  curve.params()))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object
    in_process: bool
    tail_percentile: float


WORKLOADS = {
    "cross-check": Workload("cross-check", cross_check, True, 90.0),
    "formula-sweep": Workload("formula-sweep", formula_sweep, True, 98.0),
    "cli": Workload("cli", cli, False, 95.0),
}
