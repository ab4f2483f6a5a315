"""Expression language: parsing, evaluation, differentiation, printing."""

import math
import random

import pytest
from hypothesis import example, given, strategies as st

from revolve.expr import (
    PI,
    BinOp,
    Call,
    Const,
    DomainError,
    ExpressionSyntaxError,
    Neg,
    Param,
    UnboundIdentifierError,
    UnknownIdentifierError,
    Var,
    bind,
    differentiate,
    evaluate,
    free_variables,
    parse,
    the_variable,
    unparse,
)
from corpus import CURVES


class TestParse:
    def test_ramp_plus_wave_ast(self):
        e = parse("x/pi + sin(x)", variable="x")
        assert e == BinOp("+", BinOp("/", Var("x"), PI), Call("sin", Var("x")))

    def test_parametric_curve_ast(self):
        e = parse("y - eps*sin(y)", variable="y", parameters=("eps",))
        assert e == BinOp("-", Var("y"),
                          BinOp("*", Param("eps"), Call("sin", Var("y"))))

    def test_double_plus_is_a_syntax_error_at_offset_4(self):
        with pytest.raises(ExpressionSyntaxError) as excinfo:
            parse("x + + 2", variable="x")
        assert excinfo.value.position == 4
        assert excinfo.value.expected

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as excinfo:
            parse("x + bogus", variable="x")
        assert excinfo.value.name == "bogus"
        assert excinfo.value.position == 4

    def test_function_requires_parentheses(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("sin x", variable="x")

    def test_unbalanced_parentheses(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("(x + 1", variable="x")

    def test_empty_source(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("   ", variable="x")

    def test_variable_exponent_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("2^x", variable="x")
        with pytest.raises(ExpressionSyntaxError):
            parse("x^(x+1)", variable="x")

    def test_constant_and_parameter_exponents_allowed(self):
        parse("x^2.5", variable="x")
        parse("x^-2", variable="x")
        parse("x^eps", variable="x", parameters=("eps",))

    def test_reserved_names_rejected_as_declarations(self):
        with pytest.raises(ValueError):
            parse("pi", variable="pi")
        with pytest.raises(ValueError):
            parse("x", variable="x", parameters=("sin",))
        with pytest.raises(ValueError):
            parse("x", variable="x", parameters=("x",))

    def test_negative_literal_folds(self):
        assert parse("-2.5") == Const(-2.5)
        assert parse("--2") == Const(2.0)
        assert parse("-x", variable="x") == Neg(Var("x"))


class TestPrecedence:
    def test_spec_precedence_value(self):
        assert evaluate(parse("2+3*4^2")) == 50.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert evaluate(parse("-x^2", variable="x"), {"x": 2.0}) == -4.0
        assert evaluate(parse("(-x)^2", variable="x"), {"x": 2.0}) == 4.0

    def test_power_is_right_associative(self):
        assert evaluate(parse("2^3^2")) == 512.0

    def test_mul_div_left_associative(self):
        assert evaluate(parse("8/4/2")) == 1.0
        assert evaluate(parse("8 - 4 - 2")) == 2.0


class TestEvaluate:
    def test_ramp_plus_wave_at_two_pi(self):
        e = parse("x/pi + sin(x)", variable="x")
        assert evaluate(e, {"x": 2 * math.pi}) == pytest.approx(2.0, abs=1e-12)

    def test_kepler_curve_at_pi(self):
        e = parse("y - eps*sin(y)", variable="y", parameters=("eps",))
        assert evaluate(e, {"y": math.pi, "eps": 0.5}) == pytest.approx(math.pi)

    def test_arccos_out_of_domain(self):
        e = parse("arccos(x)", variable="x")
        with pytest.raises(DomainError):
            evaluate(e, {"x": 2.0})

    def test_sqrt_of_negative(self):
        with pytest.raises(DomainError):
            evaluate(parse("sqrt(x)", variable="x"), {"x": -1.0})

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            evaluate(parse("1/x", variable="x"), {"x": 0.0})

    def test_negative_base_fractional_exponent(self):
        with pytest.raises(DomainError):
            evaluate(parse("x^0.5", variable="x"), {"x": -4.0})

    def test_unbound_identifier(self):
        e = parse("y - eps*sin(y)", variable="y", parameters=("eps",))
        with pytest.raises(UnboundIdentifierError):
            evaluate(e, {"y": 1.0})

    def test_pi_is_reserved(self):
        assert evaluate(parse("2*pi")) == 2 * math.pi

    def test_deterministic(self):
        e = parse("cos(x)*x/2 + 2", variable="x")
        values = {evaluate(e, {"x": 1.2345}) for _ in range(10)}
        assert len(values) == 1


class TestDifferentiate:
    def test_ramp_plus_wave(self):
        e = parse("x/pi + sin(x)", variable="x")
        assert differentiate(e, "x") == \
            BinOp("+", BinOp("/", Const(1.0), PI), Call("cos", Var("x")))

    def test_kepler_curve(self):
        e = parse("y - eps*sin(y)", variable="y", parameters=("eps",))
        assert differentiate(e, "y") == \
            BinOp("-", Const(1.0), BinOp("*", Param("eps"), Call("cos", Var("y"))))

    def test_constant_rule(self):
        assert differentiate(parse("3.5"), "x") == Const(0.0)
        assert differentiate(PI, "x") == Const(0.0)

    def test_power_rule(self):
        e = parse("x^2", variable="x")
        assert differentiate(e, "x") == BinOp("*", Const(2.0), Var("x"))

    def test_chain_rule_through_sqrt(self):
        e = parse("sqrt(x)", variable="x")
        d = differentiate(e, "x")
        assert evaluate(d, {"x": 4.0}) == pytest.approx(0.25)

    def test_arccos_derivative(self):
        e = parse("arccos(x)", variable="x")
        d = differentiate(e, "x")
        assert evaluate(d, {"x": 0.5}) == pytest.approx(-1 / math.sqrt(0.75))

    @pytest.mark.parametrize("name,text,var,params,lo,hi", CURVES)
    def test_matches_finite_differences(self, name, text, var, params, lo, hi):
        e = parse(text, variable=var, parameters=params.keys())
        d = differentiate(e, var)
        fn = bind(e, var, params)
        dfn = bind(d, var, params)
        rng = random.Random(hash(name) & 0xFFFF)
        h = 1e-6
        for _ in range(200):
            x = rng.uniform(lo + 2 * h, hi - 2 * h)
            fd = (fn(x + h) - fn(x - h)) / (2 * h)
            sym = dfn(x)
            assert abs(sym - fd) <= 1e-5 * (1.0 + abs(sym))


class TestHelpers:
    def test_free_variables(self):
        e = parse("y - eps*sin(y)", variable="y", parameters=("eps",))
        assert free_variables(e) == frozenset({"y"})
        assert the_variable(e) == "y"
        assert the_variable(parse("2*pi")) is None

    def test_two_variables_is_an_error(self):
        mixed = BinOp("+", Var("x"), Var("y"))
        with pytest.raises(ValueError):
            the_variable(mixed)

    def test_bind(self):
        e = parse("y - eps*sin(y)", variable="y", parameters=("eps",))
        f = bind(e, "y", {"eps": 0.5})
        assert f(math.pi) == pytest.approx(math.pi)


# ---------------------------------------------------------------------------
# Round-trip property

_names = st.sampled_from(["x"])
_params = st.sampled_from(["eps"])
_consts = st.floats(min_value=-1e6, max_value=1e6,
                    allow_nan=False, allow_infinity=False)


def _atoms():
    return st.one_of(
        st.builds(Const, _consts),
        st.just(PI),
        st.builds(Var, _names),
        st.builds(Param, _params),
    )


def _constant_trees():
    # variable-free subtrees, usable as exponents
    return st.recursive(
        st.one_of(st.builds(Const, _consts), st.just(PI), st.builds(Param, _params)),
        lambda children: st.one_of(
            st.builds(Call, st.sampled_from(["sin", "cos", "arccos", "sqrt"]),
                      children),
            st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]),
                      children, children),
        ),
        max_leaves=4,
    )


def _trees():
    def extend(children):
        non_const = children.filter(lambda e: not isinstance(e, Const))
        return st.one_of(
            st.builds(Neg, non_const),
            st.builds(Call, st.sampled_from(["sin", "cos", "arccos", "sqrt"]),
                      children),
            st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]),
                      children, children),
            st.builds(lambda b, e: BinOp("^", b, e), children, _constant_trees()),
        )

    return st.recursive(_atoms(), extend, max_leaves=16)


@given(_trees())
@example(BinOp("^", Const(-0.0), PI))
def test_print_parse_round_trip(tree):
    text = unparse(tree)
    assert parse(text, variable="x", parameters=("eps",)) == tree
