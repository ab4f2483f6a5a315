"""The package namespace: what ``import revolve`` exports and loads."""

import os
import pathlib
import subprocess
import sys

import revolve
from revolve import errors, expr, kepler, monotone, numerics, volume

# names callers import from the package; none may go missing
LISTED_EXPORTS = [
    "AlternationViolationError", "BinOp", "Bindings", "Call", "Const",
    "DomainError", "Expression",
    "ExpressionError", "ExpressionSyntaxError", "HypothesisReport",
    "HypothesisViolationError", "Interval", "KeplerCurve",
    "MaxIterationsExceededError", "MonotonePartition", "Neg",
    "NegativeCurveError", "NoSignChangeError", "NonFiniteEvaluationError",
    "NotInvertibleError", "NotMonotoneError", "PI", "Param", "PiConst",
    "PreconditionViolatedError", "QuadratureResult", "RevolveError",
    "RootResult", "Tolerances", "UnboundIdentifierError",
    "UnknownIdentifierError", "Var", "VolumeProblem", "VolumeReport", "bind",
    "check_lemma1", "critical_points", "cross_validate", "differentiate",
    "disk_volume_x_axis", "disk_volume_y_axis", "evaluate",
    "find_root_bracketed", "forward", "free_variables", "integrate",
    "inverse", "kronrod_panel", "newton_solve", "parse", "partition",
    "piecewise_signed_sum", "reference_volumes", "scan_sign_changes",
    "shell_volume", "solve", "the_variable", "theorem1_x", "theorem1_y",
    "theorem2_y", "theorem3_x", "unparse", "validate_revolution_hypotheses",
]


def test_exports_are_the_modules_all_lists():
    modules = (errors, expr, kepler, monotone, numerics, volume)
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared))
    assert sorted(revolve.__all__) == sorted(declared)
    assert "RevolveError" in revolve.__all__
    for module in modules:
        for name in module.__all__:
            assert getattr(revolve, name) is getattr(module, name)


def test_listed_exports_still_import():
    assert len(LISTED_EXPORTS) == 63
    assert set(LISTED_EXPORTS) <= set(revolve.__all__)
    assert all(hasattr(revolve, name) for name in LISTED_EXPORTS)


# ---------------------------------------------------------------------------
# Start-up footprint: every CLI run is a fresh process, so what importing the
# package loads is paid per run.  `dataclasses` and the `inspect` it imports
# were among the largest of those costs, and revolve needs neither.

SRC = pathlib.Path(revolve.__file__).resolve().parent.parent
HEAVY = {"dataclasses", "inspect"}


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60, check=True)


def _imported(*args: str) -> set[str]:
    """Modules that ``python -X importtime ARGS`` imports."""
    lines = _python("-X", "importtime", *args).stderr.splitlines()
    return {line.rpartition("|")[2].strip() for line in lines
            if line.startswith("import time:")}


def test_importing_the_cli_loads_no_dataclasses():
    code = ("import sys; before = set(sys.modules); import revolve.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    added = set(_python("-c", code).stdout.split())
    assert "revolve.cli" in added
    assert not added & HEAVY


def test_a_volume_run_loads_no_dataclasses():
    baseline = _imported("-c", "pass")
    run = _imported("-m", "revolve", "volume", "--curve", "x+1",
                    "--interval", "0", "1", "--json")
    assert "revolve.volume" in run
    assert not (run - baseline) & HEAVY
