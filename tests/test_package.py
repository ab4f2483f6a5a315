"""The package namespace: what ``import revolve`` exports."""

import revolve
from revolve import errors, expr, kepler, monotone, numerics, volume

# names callers import from the package; none may go missing
LISTED_EXPORTS = [
    "AlternationViolationError", "BinOp", "Bindings", "Call", "Const",
    "DivergedWithoutBracketError", "DomainError", "Expression",
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
    assert len(LISTED_EXPORTS) == 64
    assert set(LISTED_EXPORTS) <= set(revolve.__all__)
    assert all(hasattr(revolve, name) for name in LISTED_EXPORTS)
