"""The value classes' record contract: construction, repr, equality,
hashing, immutability and pattern matching, for every record in revolve.

The repr strings and error messages are the ones the classes printed as
frozen dataclasses; error messages such as ``Interval``'s embed the repr.
"""

import math

import pytest

from revolve.expr import BinOp, Call, Const, Neg, Param, PiConst, Var, _Token
from revolve.kepler import KeplerCurve
from revolve.monotone import (AlternationViolationError, CriticalPoints,
                              HypothesisReport, MonotonePartition)
from revolve.numerics import Interval, QuadratureResult, RootResult, Tolerances
from revolve.volume import VolumeProblem, VolumeReport

TOLERANCES_REPR = ("Tolerances(abs_tol=1e-12, rel_tol=1e-10, residual_tol=1e-12, "
                   "max_depth=50, max_iter=100)")

# (constructor, its repr); one row per record class
RECORDS = [
    (lambda: Const(1.0), "Const(value=1.0)"),
    (lambda: PiConst(), "PiConst()"),
    (lambda: Var("x"), "Var(name='x')"),
    (lambda: Param("eps"), "Param(name='eps')"),
    (lambda: Neg(Var("x")), "Neg(arg=Var(name='x'))"),
    (lambda: Call("sin", Var("x")), "Call(func='sin', arg=Var(name='x'))"),
    (lambda: BinOp("+", Var("x"), Const(1.0)),
     "BinOp(op='+', left=Var(name='x'), right=Const(value=1.0))"),
    (lambda: _Token("number", "2.5", 3), "_Token(kind='number', text='2.5', pos=3)"),
    (lambda: Interval(0.0, 1.0), "Interval(lo=0.0, hi=1.0)"),
    (lambda: Tolerances(), TOLERANCES_REPR),
    (lambda: QuadratureResult(2.0, 1e-15, 15, True),
     "QuadratureResult(value=2.0, error_estimate=1e-15, evaluations=15, "
     "converged=True)"),
    (lambda: RootResult(0.5, -1e-17, 4, "newton", 2.0),
     "RootResult(root=0.5, residual=-1e-17, iterations=4, method_used='newton', "
     "value=2.0)"),
    (lambda: MonotonePartition((0.0, 1.0, 2.0), ("increasing", "decreasing"),
                               (3.0,)),
     "MonotonePartition(breakpoints=(0.0, 1.0, 2.0), directions=('increasing', "
     "'decreasing'), extremum_values=(3.0,), unproven=())"),
    (lambda: CriticalPoints((1.0,), ((2.0, 2.5),)),
     "CriticalPoints(points=(1.0,), unproven=((2.0, 2.5),))"),
    (lambda: HypothesisReport(False, 1.0, 2.0, (("negative-value", 0.5),)),
     "HypothesisReport(satisfied=False, c=1.0, d=2.0, violations=(("
     "'negative-value', 0.5),), partition=None, unproven=())"),
    (lambda: VolumeProblem(Var("x"), Interval(0.0, 1.0)),
     "VolumeProblem(curve=Var(name='x'), interval=Interval(lo=0.0, hi=1.0), "
     "curve_role='y-of-x', axis='y-axis', method='all', tol="
     + TOLERANCES_REPR + ", parameters=mappingproxy({}))"),
    (lambda: VolumeReport(1.5, "theorem2", 1e-12, -1),
     "VolumeReport(value=1.5, method='theorem2', error_estimate=1e-12, "
     "sign_factor=-1, partition=None, cross_checks=(), warnings=())"),
    (lambda: KeplerCurve(0.5), "KeplerCurve(eccentricity=0.5)"),
]
IDS = [text.partition("(")[0] for _, text in RECORDS]


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
class TestContract:
    def test_repr(self, make, text):
        assert repr(make()) == text

    def test_equal_values_are_equal(self, make, text):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        if type(a) is VolumeProblem:
            with pytest.raises(TypeError):  # its parameters are a mapping
                hash(a)
        else:
            assert hash(a) == hash(b)

    def test_fields_are_frozen(self, make, text):
        value = make()
        names = type(value).__match_args__ or ("anything",)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == text

    def test_keywords_rebuild_the_value(self, make, text):
        value = make()
        names = type(value).__match_args__
        assert type(value)(**{n: getattr(value, n) for n in names}) == value


class TestEquality:
    def test_other_class_with_equal_fields_is_unequal(self):
        assert Var("x") != Param("x")
        assert Param("x") != Var("x")
        assert Interval(0.0, 1.0) != (0.0, 1.0)

    def test_different_values_are_unequal(self):
        assert Interval(0.0, 1.0) != Interval(0.0, 2.0)
        assert BinOp("+", Var("x"), Const(1.0)) != BinOp("-", Var("x"), Const(1.0))

    def test_hash_is_the_field_tuples(self):
        assert hash(Interval(0.0, 1.0)) == hash((0.0, 1.0))
        assert hash(PiConst()) == hash(())
        assert len({Var("x"), Var("x"), Param("x")}) == 2


class TestConstruction:
    def test_positional_match_on_expression_nodes(self):
        match BinOp("*", Const(2.0), Call("sin", Neg(Var("x")))):
            case BinOp(op, Const(value), Call(func, Neg(Var(name)))):
                assert (op, value, func, name) == ("*", 2.0, "sin", "x")
            case _:
                pytest.fail("positional pattern did not match")
        assert BinOp.__match_args__ == ("op", "left", "right")

    def test_defaults(self):
        tol = Tolerances(rel_tol=1e-6)
        assert (tol.abs_tol, tol.rel_tol, tol.max_iter) == (1e-12, 1e-6, 100)
        assert HypothesisReport(True, 0.0, 1.0, ()).partition is None
        report = VolumeReport(1.0, "disk", 0.0, 1)
        assert report.cross_checks == () and report.warnings == ()

    def test_problem_defaults_are_immutable(self):
        problem = VolumeProblem(Var("x"), Interval(0.0, 1.0))
        assert problem.parameters == {} and problem.tol == Tolerances()
        with pytest.raises(TypeError):
            problem.parameters["k"] = 1.0
        given = {"k": 2.0}
        assert VolumeProblem(Var("x"), Interval(0.0, 1.0),
                             parameters=given).parameters is given

    def test_wrong_arguments_raise_type_error(self):
        with pytest.raises(TypeError):
            Interval(0.0)
        with pytest.raises(TypeError):
            Interval(0.0, 1.0, 2.0)
        with pytest.raises(TypeError):
            Interval(0.0, 1.0, lo=0.0)


X = Var("x")
UNIT = Interval(0.0, 1.0)


@pytest.mark.parametrize("make, error, message", [
    (lambda: Interval(math.nan, 1.0), ValueError,
     "interval endpoints must be finite: Interval(lo=nan, hi=1.0)"),
    (lambda: Interval(2.0, 1.0), ValueError,
     "interval endpoints out of order: Interval(lo=2.0, hi=1.0)"),
    (lambda: Interval(0.0, math.inf), ValueError,
     "interval endpoints must be finite: Interval(lo=0.0, hi=inf)"),
    (lambda: Tolerances(abs_tol=0.0), ValueError,
     "abs_tol must be strictly positive and finite"),
    (lambda: Tolerances(rel_tol=math.inf), ValueError,
     "rel_tol must be strictly positive and finite"),
    (lambda: Tolerances(residual_tol=-1.0), ValueError,
     "residual_tol must be strictly positive and finite"),
    (lambda: Tolerances(max_depth=0), ValueError, "max_depth must be at least 1"),
    (lambda: Tolerances(max_iter=0), ValueError, "max_iter must be at least 1"),
    (lambda: MonotonePartition((0.0,), (), ()), ValueError,
     "a partition needs at least two breakpoints"),
    (lambda: MonotonePartition((0.0, 1.0), (), ()), ValueError,
     "one direction per piece is required"),
    (lambda: MonotonePartition((0.0, 1.0), ("increasing",), (1.0,)), ValueError,
     "one value per interior breakpoint is required"),
    (lambda: MonotonePartition((1.0, 0.0), ("increasing",), ()), ValueError,
     "breakpoints must be strictly ascending"),
    (lambda: MonotonePartition((0.0, 1.0), ("up",), ()), ValueError,
     "unknown direction tag 'up'"),
    (lambda: MonotonePartition((0.0, 1.0, 2.0), ("increasing", "increasing"),
                               (1.0,)),
     AlternationViolationError,
     "pieces adjacent at 1.0 share direction 'increasing'"),
    (lambda: HypothesisReport(True, 0.0, 1.0, (("negative-value", 0.5),)),
     ValueError, "satisfied flag inconsistent with violations"),
    (lambda: HypothesisReport(False, 0.0, 1.0, ()), ValueError,
     "satisfied flag inconsistent with violations"),
    (lambda: VolumeProblem(X, UNIT, curve_role="z-of-x"), ValueError,
     "unknown curve role 'z-of-x'"),
    (lambda: VolumeProblem(X, UNIT, axis="z-axis"), ValueError,
     "unknown axis 'z-axis'"),
    (lambda: VolumeProblem(X, UNIT, method="simpson"), ValueError,
     "unknown method 'simpson'"),
    (lambda: VolumeReport(1.0, "disk", 0.0, 0), ValueError,
     "sign_factor must be -1 or +1"),
    (lambda: KeplerCurve(0.0), ValueError,
     "eccentricity must lie in (0, 0.999999]; got 0.0"),
    (lambda: KeplerCurve(1.0), ValueError,
     "eccentricity must lie in (0, 0.999999]; got 1.0"),
])
def test_post_init_messages(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert type(caught.value) is error
    assert str(caught.value) == message
