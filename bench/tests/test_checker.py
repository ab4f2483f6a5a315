"""Self-test of the benchmark's output checker and tracer.

Run from the repository root:

    python3 -m pytest -q bench/tests

Every injected fault (a value off by one part in a million, a wrong exit
code, a "methods ... disagree" warning) must count as a failed operation,
both on outcomes synthesised from the reference and on real revolve
output.
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SEEDS = (1, 2)
ALL_OPS = [op for name, w in sorted(workloads.WORKLOADS.items()) for seed in SEEDS
           for op in w.generate(seed)]
VOLUME_OPS = [op for op in ALL_OPS if op.expected.kind == "volume"]
DISAGREE = "methods disk and piecewise disagree: |delta| = 1.000e-06 > allowed 1.000e-09"


def ideal(expected: oracle.Expected) -> dict:
    """The outcome a perfect implementation would produce."""
    e = expected
    if e.kind == "refusal":
        return {"exit_code": e.exit_code, "error": e.error,
                "message": "error: revolution hypotheses violated: multiple-intersection"}
    pieces = None if e.breakpoints is None else {
        "breakpoints": list(e.breakpoints), "directions": list(e.directions),
        "extremum_values": list(e.extremum_values)}
    if e.kind == "volume":
        payload = {"value": e.value, "method": e.method, "sign_factor": e.sign_factor,
                   "error_estimate": 0.0, "partition": pieces,
                   "cross_checks": [{"method": name, "value": e.value, "delta": 0.0}
                                    for name in e.rows],
                   "warnings": list(e.warnings)}
    elif e.kind == "verify":
        payload = {"satisfied": e.satisfied, "c": e.c, "d": e.d,
                   "violations": [{"rule": r, "location": x} for r, x in e.violations]}
    else:
        payload = {**pieces, "parity": {"verdict": e.verdict, "detail": ""}}
    return {"exit_code": e.exit_code, "payload": payload}


def nudge(x: float) -> float:
    return x * (1.0 + oracle.DETECTABLE_REL)


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: f"{op.id}-{op.label}")
def test_ideal_outcome_passes(op):
    assert oracle.check(op.expected, ideal(op.expected)) == []


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: f"{op.id}-{op.label}")
def test_wrong_exit_code_fails(op):
    outcome = ideal(op.expected)
    outcome["exit_code"] = 3 if op.expected.exit_code != 3 else 0
    assert oracle.check(op.expected, outcome)


@pytest.mark.parametrize("op", VOLUME_OPS, ids=lambda op: f"{op.id}-{op.label}")
def test_perturbed_volume_fails(op):
    outcome = ideal(op.expected)
    outcome["payload"]["value"] = nudge(outcome["payload"]["value"])
    assert oracle.check(op.expected, outcome)


@pytest.mark.parametrize("op", [op for op in VOLUME_OPS if op.expected.rows],
                         ids=lambda op: f"{op.id}-{op.label}")
def test_every_perturbed_cross_check_row_fails(op):
    for i in range(len(op.expected.rows)):
        outcome = ideal(op.expected)
        row = outcome["payload"]["cross_checks"][i]
        row["value"] = nudge(row["value"])
        row["delta"] = abs(row["value"] - outcome["payload"]["value"])
        assert oracle.check(op.expected, outcome), op.expected.rows[i]


@pytest.mark.parametrize("op", VOLUME_OPS, ids=lambda op: f"{op.id}-{op.label}")
def test_injected_disagreement_warning_fails(op):
    outcome = ideal(op.expected)
    outcome["payload"]["warnings"].append(DISAGREE)
    assert oracle.check(op.expected, outcome)


def _curve_numbers(payload: dict):
    """Paths to every nonzero curve value and abscissa in a report."""
    pieces = payload.get("partition") or payload
    for key in ("breakpoints", "extremum_values"):
        for i, x in enumerate(pieces.get(key, [])):
            if x:
                yield pieces[key], i
    for key in ("c", "d"):
        if payload.get(key):
            yield payload, key
    for v in payload.get("violations", []):
        if v["location"]:
            yield v, "location"


@pytest.mark.parametrize("op", [op for op in ALL_OPS
                                if op.expected.kind in ("verify", "partition")],
                         ids=lambda op: f"{op.id}-{op.label}")
def test_perturbed_curve_values_fail(op):
    paths = list(_curve_numbers(ideal(op.expected)["payload"]))
    assert paths
    for n in range(len(paths)):
        outcome = ideal(op.expected)
        holder, key = list(_curve_numbers(outcome["payload"]))[n]
        holder[key] = nudge(holder[key])
        assert oracle.check(op.expected, outcome)


def test_missing_or_extra_row_fails():
    op = next(op for op in VOLUME_OPS if len(op.expected.rows) > 1)
    outcome = ideal(op.expected)
    outcome["payload"]["cross_checks"].pop()
    assert oracle.check(op.expected, outcome)
    outcome = ideal(op.expected)
    outcome["payload"]["cross_checks"].append(
        {"method": "disk", "value": op.expected.value, "delta": 0.0})
    assert oracle.check(op.expected, outcome)


def test_refusal_without_message_fails():
    op = next(op for op in ALL_OPS if op.expected.kind == "refusal")
    outcome = ideal(op.expected)
    outcome["message"] = ""
    assert oracle.check(op.expected, outcome)


# ---------------------------------------------------------------------------
# Real revolve output

@pytest.fixture(scope="module")
def setups():
    return {name: run.Setup(w, 1) for name, w in workloads.WORKLOADS.items()}


def _fast(ops, limit=4):
    # the cheap families keep the self-test quick
    slow = ("flagship", "ramp", "mirrored", "kepler", "scaled")
    return [op.id for op in ops if not any(s in op.label for s in slow)][:limit]


@pytest.mark.parametrize("name", ["cross-check", "formula-sweep"])
def test_real_in_process_outputs_pass_and_faults_fail(setups, name):
    setup = setups[name]
    runner = run.Runner(setup)
    for index in _fast(setup.ops):
        op = setup.ops[index]
        outcome = runner.in_process(index)
        assert oracle.check(op.expected, outcome) == [], op.label
        bad = copy.deepcopy(outcome)
        bad["payload"]["value"] = nudge(bad["payload"]["value"])
        assert oracle.check(op.expected, bad)
        bad = copy.deepcopy(outcome)
        bad["payload"]["warnings"].append(DISAGREE)
        assert oracle.check(op.expected, bad)
        for i in range(len(outcome["payload"]["cross_checks"])):
            bad = copy.deepcopy(outcome)
            bad["payload"]["cross_checks"][i]["value"] = nudge(
                bad["payload"]["cross_checks"][i]["value"])
            assert oracle.check(op.expected, bad)


def test_real_cli_outputs_pass_and_wrong_exit_fails(setups):
    setup = setups["cli"]
    runner = run.Runner(setup)
    kinds = {}
    for index, op in enumerate(setup.ops):
        if op.expected.kind not in kinds and "kepler" not in op.label:
            kinds[op.expected.kind] = index
    kinds["violation"] = next(i for i, op in enumerate(setup.ops)
                              if op.expected.kind == "verify" and not op.expected.satisfied)
    for index in kinds.values():
        op = setup.ops[index]
        outcome = runner.main_in_process(index)
        assert oracle.check(op.expected, outcome) == [], op.label
        bad = dict(outcome, exit_code=0 if outcome["exit_code"] else 2)
        assert oracle.check(op.expected, bad)
    process = runner.process(kinds["violation"])
    assert process["exit_code"] == oracle.EXIT_HYPOTHESIS
    assert oracle.check(setup.ops[kinds["violation"]].expected, process) == []


# ---------------------------------------------------------------------------
# Tracer

def test_tracer_counts_repeat_and_originals_return(setups):
    setup = setups["cross-check"]
    originals = {name: getattr(setup.volume, name)
                 for name in ("integrate", "bind", "solve", "partition")}
    index = _fast(setup.ops, limit=1)[0]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(setup.volume, setup.monotone, setup.cli)
        try:
            setup.volume.solve(setup.problems[index])
        finally:
            tracer.restore()
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    assert counts[0]["expr.evals"] == counts[0]["expr.f_evals"] + counts[0]["expr.deriv_evals"]
    assert counts[0]["volume.solve.calls"] == 1
    assert all(getattr(setup.volume, name) is fn for name, fn in originals.items())
    assert all(math.isfinite(v) and v >= 0.0 for v in tracer.seconds.values())
