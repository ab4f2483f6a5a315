"""Expression language: parsing, evaluation, differentiation, printing."""

import json
import math
import pathlib
import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from revolve.expr import (
    FUNCTIONS,
    PI,
    BinOp,
    Bindings,
    Call,
    Const,
    DomainError,
    Expression,
    ExpressionError,
    ExpressionSyntaxError,
    Neg,
    Param,
    UnboundIdentifierError,
    UnknownIdentifierError,
    Var,
    _INF,
    _Undecided,
    _apply_interval,
    _binary_interval,
    _code,
    _derivative,
    _eval,
    _lower,
    _pow_interval,
    bind,
    differentiate,
    enclose,
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
@example(Const(math.inf))
@example(Const(-math.inf))
def test_print_parse_round_trip(tree):
    text = unparse(tree)
    assert parse(text, variable="x", parameters=("eps",)) == tree


@given(_trees())
@example(parse("1e999*x - 1e999*x", variable="x"))
@example(parse("1e999*2*x", variable="x"))
def test_derivative_print_parse_round_trip(tree):
    derivative = differentiate(tree, "x")
    text = unparse(derivative)
    assert parse(text, variable="x", parameters=("eps",)) == derivative


def test_derivative_keeps_nan_constant_products():
    """``1e999*0`` has no constant to fold into, so the product stays and
    the derivative of ``1e999*2*x`` is NaN, not ``1e999*2``."""
    derivative = differentiate(parse("1e999*2*x", variable="x"), "x")
    assert math.isnan(evaluate(derivative, {"x": 1.0}))


def test_infinite_constants_print_as_parseable_literals():
    assert unparse(parse("1e999")) == "1e999"
    assert unparse(parse("-1e999")) == "-1e999"
    x_plus_inf = parse("x + 1e999", variable="x")
    assert parse(unparse(x_plus_inf), variable="x") == x_plus_inf


# ---------------------------------------------------------------------------
# Compiled evaluation (bind) against the reference (evaluate)

def _outcome(call, *args):
    """A call's result as comparable data: the value's bits, or the type and
    message of the error it raised."""
    try:
        value = call(*args)
    except Exception as exc:  # every error counts, not just DomainError
        return type(exc), str(exc)
    return struct.pack("<d", value)


def _is_nan(outcome) -> bool:
    return isinstance(outcome, bytes) and math.isnan(struct.unpack("<d", outcome)[0])


def _mirror(e):
    """``e`` with the operands of every ``+`` and ``*`` swapped.  Both are
    commutative bit for bit except on which NaN ``nan1 + nan2`` returns."""
    if isinstance(e, BinOp):
        left, right = _mirror(e.left), _mirror(e.right)
        return BinOp(e.op, right, left) if e.op in "+*" else BinOp(e.op, left, right)
    if isinstance(e, Neg):
        return Neg(_mirror(e.arg))
    if isinstance(e, Call):
        return Call(e.func, _mirror(e.arg))
    return e


_points = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e10, math.inf, math.nan]),
)


@given(_trees(), _points, st.none() | _points)
@example(BinOp("^", Const(-0.0), PI), 1.0, None)
@example(Const(math.inf), 1.0, None)
@example(Call("arccos", Var("x")), 2.0, None)
@example(Call("sqrt", Var("x")), -1.0, None)
@example(BinOp("/", Const(1.0), Var("x")), 0.0, None)
@example(BinOp("/", Const(1.0), Var("x")), -0.0, None)
@example(BinOp("^", Var("x"), Const(0.5)), -4.0, None)
@example(BinOp("^", Var("x"), Const(-1.0)), 0.0, None)
@example(BinOp("^", Var("x"), Const(400.0)), 1e10, None)
@example(BinOp("*", Param("eps"), Var("x")), 1.0, None)
@example(differentiate(BinOp("+", Var("x"), Param("eps")), "x"), 1.0, None)
@example(BinOp("+", Call("sqrt", Const(-1.0)), Param("eps")), 1.0, None)
@example(BinOp("+", Neg(Neg(Param("eps"))), Neg(Var("x"))), math.nan, math.nan)
def test_compiled_matches_reference(tree, x, eps):
    """``bind`` agrees with ``evaluate`` bit for bit, -0.0 and NaN included,
    and raises the same error with the same message.  ``eps=None`` leaves the
    parameter unbound.

    Which operand's NaN ``a + b`` or ``a * b`` returns when both are NaN
    differs between CPython's generic and specialized float paths, so
    ``evaluate`` itself returns other NaN bits once ``_binary`` has been
    specialized.  A NaN that differs must then be the reference's NaN for the
    mirrored tree, which takes the other operand at every such node.

    Each tree is bound twice: cold, from a cleared code cache, and warm,
    from the code the first bind compiled and its call specialized.  The
    lowering cache is cleared before each bind, or the second would not
    reach the code cache."""
    params = {} if eps is None else {"eps": eps}
    _code.cache_clear()
    for _ in ("cold", "warm"):
        _lower.cache.clear()
        fn = bind(tree, "x", params)  # an unbound name must not raise here
        got = _outcome(fn, x)
        want = _outcome(evaluate, tree, {**params, "x": x})
        if got != want and _is_nan(got) and _is_nan(want):
            want = _outcome(evaluate, _mirror(tree), {**params, "x": x})
        assert got == want
    assert _code.cache_info().hits == 1


_NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
             0x7FF0000000000001]


@pytest.mark.parametrize("nan_bits", _NAN_BITS, ids=hex)
@pytest.mark.parametrize("tree,flip", [
    (Param("eps"), 0),
    (Neg(Param("eps")), 1 << 63),
    (Neg(Neg(Param("eps"))), 0),
])
def test_compiled_nan_bits_are_exact(tree, flip, nan_bits):
    """Where one NaN flows through, its sign and payload are fixed: ``bind``
    returns the reference's bits, which are the parameter's with the sign
    flipped by each negation."""
    eps = struct.unpack("<d", struct.pack("<Q", nan_bits))[0]
    want = _outcome(evaluate, tree, {"eps": eps, "x": 1.0})
    assert _outcome(bind(tree, "x", {"eps": eps}), 1.0) == want
    assert struct.unpack("<Q", want)[0] == nan_bits ^ flip


@pytest.mark.parametrize("name,text,var,params,lo,hi", CURVES)
def test_compiled_corpus_matches_reference(name, text, var, params, lo, hi):
    e = parse(text, variable=var, parameters=params.keys())
    for tree in (e, differentiate(e, var)):
        fn = bind(tree, var, params)
        for i in range(257):
            x = lo + (hi - lo) * i / 256
            assert _outcome(fn, x) == _outcome(evaluate, tree, {**params, var: x})


def test_unbound_parameter_raises_on_the_call_not_on_bind():
    fn = bind(parse("c*x", variable="x", parameters=("c",)), "x", {})
    with pytest.raises(UnboundIdentifierError, match="'c'"):
        fn(1.0)
    derivative = differentiate(parse("x + c", variable="x", parameters=("c",)), "x")
    assert bind(derivative, "x", {})(2.0) == 1.0


def test_uncoercible_parameter_raises_on_the_call_like_evaluate():
    e = parse("c*x", variable="x", parameters=("c",))
    for _ in range(2):  # the tree's lowering is cached, then reused
        assert bind(e, "x", {"c": 2.0})(1.5) == 3.0
    fn = bind(e, "x", {"c": "oops"})
    assert _outcome(fn, 1.0) == _outcome(evaluate, e, {"c": "oops", "x": 1.0})
    assert _outcome(fn, 1.0)[0] is ValueError


@pytest.mark.parametrize("first, second", [
    (("2*x", "x", {}), ("3*x", "x", {})),
    # a change of frame renames the variable
    (("y - eps*sin(y)", "y", {"eps": 0.3}), ("x - eps*sin(x)", "x", {"eps": 0.7})),
])
def test_binds_of_one_shape_share_code(first, second):
    """Constants and parameter values reach the compiled code by name, so
    trees that differ only in them share one code object, and each function
    keeps its own values.  The lowering cache is cleared too: a tree an
    earlier test lowered would not reach the code cache."""
    _code.cache_clear()
    _lower.cache.clear()
    functions = []
    for text, var, params in (first, second):
        tree = parse(text, variable=var, parameters=params.keys())
        fn = bind(tree, var, params)
        functions.append(fn)
        for i in range(65):
            x = -4.0 + i / 8.0
            assert _outcome(fn, x) == _outcome(evaluate, tree, {**params, var: x})
    assert functions[0].__code__ is functions[1].__code__
    assert _code.cache_info().misses == 1


def test_errors_survive_a_code_cache_hit():
    """Shared code keeps every error of a fresh compile: an unbound name
    raises on the call, and a value ``float()`` cannot coerce raises the
    reference error.  Both fail at lowering, so both calls repeat the
    reference lookup, from one code object apart from a float parameter's."""
    e = parse("c*x", variable="x", parameters=("c",))
    unbound = [bind(e, "x", {}) for _ in range(2)]
    oops = [bind(e, "x", {"c": "oops"}) for _ in range(2)]
    scaled = bind(e, "x", {"c": 2.0})
    assert unbound[0].__code__ is unbound[1].__code__
    assert oops[0].__code__ is oops[1].__code__
    assert len({fn.__code__ for fn in (unbound[0], oops[0], scaled)}) == 2
    for fn in unbound:
        with pytest.raises(UnboundIdentifierError, match="'c'"):
            fn(1.0)
    for fn in oops:
        assert _outcome(fn, 1.0) == _outcome(evaluate, e, {"c": "oops", "x": 1.0})
    assert scaled(1.5) == 3.0


def test_code_cache_stays_bounded():
    # 300 distinct shapes: sin nested i // 20 deep plus cos nested i % 20
    # deep, none of them lowered before, so each reaches the code cache
    _code.cache_clear()
    _lower.cache.clear()
    sizes = []
    for i in range(300):
        left, right = Var("x"), Var("x")
        for _ in range(i // 20):
            left = Call("sin", left)
        for _ in range(i % 20):
            right = Call("cos", right)
        bind(BinOp("+", left, right), "x")
        sizes.append(len(_lower.cache))
    info = _code.cache_info()
    assert info.misses == 300
    assert info.currsize <= info.maxsize < 300
    assert max(sizes) == 256


def test_bind_coerces_the_variable_like_evaluate():
    e = parse("x^2.0", variable="x")
    assert bind(e, "x")(3) == evaluate(e, {"x": 3}) == 9.0
    assert type(bind(e, "x")(3)) is float


# ---------------------------------------------------------------------------
# Process-wide caches: exact keys

def _sign(value: float) -> float:
    return math.copysign(1.0, value)


def test_parameter_zero_signs_keep_their_own_entries():
    """``c = 0.0`` and ``c = -0.0`` are equal, but ``c*x`` gives zeros of
    their own signs, in either order, as in a cold process."""
    e = parse("c*x", variable="x", parameters=("c",))
    for order in ((0.0, -0.0), (-0.0, 0.0)):
        _lower.cache.clear()
        for c in order * 2:
            assert _sign(bind(e, "x", {"c": c})(1.0)) == _sign(c)
            bounds = enclose(e, "x", {"c": c})(1.0, 2.0)
            assert list(map(_sign, bounds)) == [_sign(c)] * 2


def test_trees_differing_in_a_zero_sign_keep_their_own_entries():
    trees = [BinOp("*", Const(c), Var("x")) for c in (0.0, -0.0)]
    assert trees[0] == trees[1]  # record equality cannot key a cache
    for order in ((0, 1), (1, 0)):
        _lower.cache.clear()
        for tree in [trees[i] for i in order] * 2:
            sign = _sign(tree.left.value)
            assert _sign(bind(tree, "x")(1.0)) == sign
            assert list(map(_sign, enclose(tree, "x")(1.0, 2.0))) == [sign] * 2
    # d/dx x/c is 1/c, which keeps c's sign
    differentiate.cache.clear()
    for text in ("x/0", "x/-0", "x/0"):
        e = parse(text, variable="x")
        assert repr(differentiate(e, "x")) == repr(_derivative(e, "x"))
        assert _sign(differentiate(e, "x").right.value) == _sign(e.right.value)


def test_equal_trees_share_one_derivation_and_one_lowering():
    first, second = (parse("x/pi + sin(x)", variable="x") for _ in range(2))
    assert first is not second
    assert differentiate(first, "x") is differentiate(second, "x")
    assert the_variable(second) == "x"
    one, two = bind(first, "x"), bind(second, "x")
    assert one is not two and one.__code__ is two.__code__
    assert one.__globals__ is two.__globals__
    low, high = enclose(first, "x"), enclose(second, "x")
    assert low is not high and low.__code__ is high.__code__
    assert low(0.0, 1.0) == high(0.0, 1.0)


def test_a_value_float_accepts_is_keyed_by_it_even_unhashable():
    class Half:
        __hash__ = None

        def __float__(self):
            return 0.5

    e = parse("c*x", variable="x", parameters=("c",))
    halved = bind(e, "x", {"c": 0.5}), enclose(e, "x", {"c": 0.5})
    size = len(_lower.cache)
    assert bind(e, "x", {"c": Half()})(3.0) == halved[0](3.0) == 1.5
    assert bind(e, "x", {"c": Half()}).__globals__ is halved[0].__globals__
    assert enclose(e, "x", {"c": Half()})(2.0, 2.0) == halved[1](2.0, 2.0)
    unhashable = [bind(e, "x", {"c": [0.5]}) for _ in range(2)]
    assert len(_lower.cache) == size  # Half() hits 0.5's entries; a list skips
    for fn in unhashable:
        assert _outcome(fn, 1.0) == _outcome(evaluate, e, {"c": [0.5], "x": 1.0})
        assert _outcome(fn, 1.0)[0] is TypeError


def test_nan_constants_skip_the_caches():
    # every NaN prints alike, so a repr cannot tell their bits apart
    tree = BinOp("+", Const(math.nan), Var("x"))
    before = len(differentiate.cache), len(_lower.cache)
    differentiate(tree, "x")
    bind(tree, "x")
    enclose(tree, "x")
    assert (len(differentiate.cache), len(_lower.cache)) == before


# ---------------------------------------------------------------------------
# Interval enclosure (enclose) against compiled evaluation (bind)

_ends = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@given(_trees(), _ends, _ends, st.none() | _consts)
@example(BinOp("^", Var("x"), Const(2.0)), -1.0, 1.0, None)
@example(BinOp("*", Const(3.0), BinOp("^", Var("x"), Const(2.0))), -1e-3, 0.0,
         None)
@example(Call("sqrt", Var("x")), 0.0, 4.0, None)
@example(Call("sqrt", Var("x")), -1.0, 4.0, None)
@example(BinOp("/", Const(1.0), Var("x")), -1.0, 1.0, None)
@example(Call("arccos", Var("x")), -1.0, 1.0, None)
@example(Call("sin", Var("x")), 0.0, 0.0, None)
@example(Call("cos", Var("x")), -1e-3, 1e-3, None)
@example(BinOp("^", Var("x"), Const(-3.0)), -2.0, -0.5, None)
@example(BinOp("*", Param("eps"), Var("x")), 1.0, 2.0, None)
@example(BinOp("*", Const(1e300), BinOp("*", Var("x"), Var("x"))), 1e10, 1e11,
         None)
def test_enclosure_contains_compiled_values(tree, a, b, eps):
    """On a sampled interval the enclosure holds every value ``bind``
    computes inside it, and a point where ``bind`` raises (a failed domain
    check, an unbound name) or gives a non-finite value makes it
    undecided."""
    lo, hi = min(a, b), max(a, b)
    params = {} if eps is None else {"eps": eps}
    bounds = enclose(tree, "x", params)(lo, hi)
    fn = bind(tree, "x", params)
    for t in (0.0, 0.125, 0.5, 0.7, 1.0):
        x = min(max(lo + (hi - lo) * t, lo), hi)
        try:
            value = fn(x)
        except Exception:
            assert bounds is None
            continue
        if bounds is not None:
            assert bounds[0] <= value <= bounds[1]


# The walk over the tree that computed enclosures before they were compiled,
# kept as the compiled enclosures' reference
def _eval_interval(e: Expression, variable: str, params: Bindings,
                   x: tuple[float, float]) -> tuple[float, float]:
    """Bounds on ``e`` for ``variable`` in the interval ``x``: the twin of
    ``_eval``."""
    if isinstance(e, BinOp):
        op = e.op
        if op == "^":  # the grammar keeps the variable out of exponents
            return _pow_interval(*_eval_interval(e.left, variable, params, x),
                                 _eval(e.right, params))
        if op in ("+", "-", "*", "/"):
            return _binary_interval(op, _eval_interval(e.left, variable, params, x),
                                    _eval_interval(e.right, variable, params, x))
    elif isinstance(e, Call):
        if e.func in FUNCTIONS:
            return _apply_interval(e.func,
                                   _eval_interval(e.arg, variable, params, x))
    elif isinstance(e, (Var, Param)):
        if e.name == variable:
            return x
    elif isinstance(e, Neg):
        low, high = _eval_interval(e.arg, variable, params, x)
        return -high, -low
    value = _eval(e, params)  # a constant or a parameter's value
    if -_INF < value < _INF:
        return value, value
    raise _Undecided


def _walked(tree, variable, params, lo, hi):
    """The enclosure as a walk over the tree computed it, the reference the
    compiled enclosure must match."""
    try:
        return _eval_interval(tree, variable, params, (lo, hi))
    except (_Undecided, ExpressionError, ArithmeticError, ValueError):
        return None


def _bounds_outcome(call, *args):
    """An enclosure call's result as comparable data: the bounds' bits,
    None, or the type and message of the error it raised."""
    try:
        bounds = call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None if bounds is None else tuple(struct.pack("<d", b) for b in bounds)


@settings(derandomize=True, max_examples=400)
@given(_trees(), _ends, _ends, st.none() | _consts | st.just(-0.0))
@example(BinOp("*", Param("eps"), Var("x")), 1.0, 2.0, None)  # unbound name
@example(Call("sqrt", Var("x")), -1.0, 4.0, None)  # domain check
@example(BinOp("*", Const(1e300), BinOp("*", Var("x"), Var("x"))), 1e10, 1e11,
         None)  # a bound that is not finite
@example(BinOp("+", Var("x"), Const(math.inf)), 0.0, 1.0, None)
@example(BinOp("^", Var("x"), Call("sqrt", Const(-1.0))), 1.0, 2.0, None)
@example(BinOp("^", Var("x"), Param("eps")), 1.0, 2.0, None)  # exponents
@example(BinOp("^", Var("x"), BinOp("/", Const(1.0), Const(0.0))), 1.0, 2.0,
         None)
@example(BinOp("^", Var("x"), BinOp("*", Const(1e300), Const(1e300))), 1.0,
         2.0, None)
@example(BinOp("*", Param("eps"), Var("x")), 1.0, 2.0, -0.0)
@example(Neg(Var("x")), -0.0, 0.0, None)
def test_compiled_enclosure_matches_the_walk(tree, a, b, eps):
    """The compiled enclosure returns the walk's bounds bit for bit, and
    None, or the same error, in the same places: cold, and from the
    lowering cache."""
    lo, hi = min(a, b), max(a, b)
    params = {} if eps is None else {"eps": eps}
    want = _bounds_outcome(_walked, tree, "x", params, lo, hi)
    _lower.cache.clear()
    for _ in ("cold", "cached"):
        assert _bounds_outcome(enclose(tree, "x", params), lo, hi) == want


@pytest.mark.parametrize("params", [{"c": "oops"}, {"c": [2.0]}, {"c": 1e999}],
                         ids=["string", "list", "inf"])
def test_enclosure_fails_where_a_value_fails(params):
    # float() refuses "oops", which leaves the walk undecided, but raises a
    # TypeError for a list, which the walk let through
    e = parse("sqrt(x) + c*x", variable="x", parameters=("c",))
    for lo, hi in ((-1.0, 1.0), (1.0, 2.0)):
        assert (_bounds_outcome(enclose(e, "x", params), lo, hi)
                == _bounds_outcome(_walked, e, "x", params, lo, hi))
    if isinstance(params["c"], list):
        with pytest.raises(TypeError):
            enclose(e, "x", params)(1.0, 2.0)


class TestEnclose:
    def test_exact_zero_bounds_stay_zero(self):
        # a tangential zero of f' must keep its sign-definite enclosure
        slope = enclose(parse("3*x^2", variable="x"), "x")
        assert slope(-1e-3, 0.0)[0] == 0.0
        assert slope(-1e-3, 1e-3)[0] == 0.0
        assert enclose(parse("sin(x)", variable="x"), "x")(0.0, 1.0)[0] == 0.0

    def test_bounds_round_outward(self):
        low, high = enclose(parse("x + 0.1", variable="x"), "x")(0.2, 0.2)
        assert low < 0.2 + 0.1 < high

    def test_interior_extrema_of_sin_and_cos(self):
        assert enclose(parse("sin(x)", variable="x"), "x")(1.0, 2.0)[1] == 1.0
        assert enclose(parse("cos(x)", variable="x"), "x")(3.0, 3.5)[0] == -1.0
        assert enclose(parse("cos(x)", variable="x"), "x")(0.0, 7.0) == (-1.0, 1.0)

    @pytest.mark.parametrize("text, lo, hi", [
        ("sqrt(x)", -1.0, 1.0),
        ("1/x", -1.0, 1.0),
        ("arccos(x)", 0.0, 2.0),
        ("x^0.5", -1.0, 1.0),
        ("x^-1", 0.0, 1.0),
        ("x + c", 0.0, 1.0),  # c has no value
        ("1e300*x*x", 1e10, 1e11),  # overflows
        ("-1e300*x*x", 1e10, 1e11),  # overflows below
        ("x^400", 10.0, 20.0),
        ("sqrt(0 - 1) + x", 0.0, 1.0),
    ])
    def test_undecided(self, text, lo, hi):
        e = parse(text, variable="x", parameters=("c",))
        assert enclose(e, "x")(lo, hi) is None

    def test_constant_curve(self):
        assert enclose(parse("2"), "x")(-1.0, 1.0) == (2.0, 2.0)
        assert enclose(parse("1e999"), "x")(-1.0, 1.0) is None
        assert enclose(parse("-1e999"), "x")(-1.0, 1.0) is None

    def test_arccos_is_decided_up_to_the_ends_of_its_domain(self):
        arccos = enclose(parse("arccos(x)", variable="x"), "x")
        low, high = arccos(-1.0, 1.0)
        assert low == 0.0 and math.pi < high < 3.1415926535898
        assert arccos(0.0, 1.0)[0] == 0.0


# for every corpus curve: f' and f'' as unparse prints them, and the
# enclosures of f, f' and f'' on the curve's interval and on its two halves
# as float.hex, all as computed before the walkers dispatched by isinstance
EXPR_PINS = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "expr_pins.json").read_text())


class TestWalkerPins:
    def test_every_corpus_curve_is_pinned(self):
        assert list(EXPR_PINS) == [c[0] for c in CURVES]

    @pytest.mark.parametrize("name, text, var, params, lo, hi", CURVES,
                             ids=[c[0] for c in CURVES])
    def test_derivatives_and_enclosures_keep_their_bits(self, name, text, var,
                                                        params, lo, hi):
        pin = EXPR_PINS[name]
        f = parse(text, variable=var, parameters=tuple(params))
        d1 = differentiate(f, var)
        d2 = differentiate(d1, var)
        assert (unparse(d1), unparse(d2)) == (pin["d1"], pin["d2"])
        mid = 0.5 * (lo + hi)
        bounds = [[enclose(e, var, params)(a, b)
                   for a, b in ((lo, hi), (lo, mid), (mid, hi))]
                  for e in (f, d1, d2)]
        assert bounds == [[None if pair is None else tuple(map(float.fromhex, pair))
                           for pair in row] for row in pin["enclose"]]


class _Product(BinOp):
    pass


class _Number(Const):
    pass


class TestNodeSubclasses:
    # a subclass of a node class walks as its base, as it did when the
    # walkers matched class patterns
    SUB = _Product("*", _Number(2.0), BinOp("+", Call("sin", Var("x")),
                                            _Number(0.5)))
    BASE = BinOp("*", Const(2.0), BinOp("+", Call("sin", Var("x")), Const(0.5)))

    def test_prints_like_its_base(self):
        assert unparse(self.SUB) == str(self.SUB) == unparse(self.BASE)
        assert unparse(Neg(self.SUB)) == unparse(Neg(self.BASE))
        assert unparse(BinOp("^", Var("x"), _Number(-0.0))) == "x^-0.0"

    def test_evaluates_and_binds_like_its_base(self):
        for x in (0.0, 0.3, 1.7):
            expected = evaluate(self.BASE, {"x": x})
            assert evaluate(self.SUB, {"x": x}) == expected
            assert bind(self.SUB, "x")(x) == expected
        assert free_variables(self.SUB) == {"x"}
        assert the_variable(self.SUB) == "x"

    def test_differentiates_like_its_base(self):
        for order in range(1, 3):
            sub, base = self.SUB, self.BASE
            for _ in range(order):
                sub, base = differentiate(sub, "x"), differentiate(base, "x")
            assert unparse(sub) == unparse(base)
            assert bind(sub, "x")(0.3) == bind(base, "x")(0.3)

    def test_encloses_like_its_base(self):
        for lo, hi in ((0.0, 1.0), (-2.0, 3.0), (0.25, 0.25)):
            assert (enclose(self.SUB, "x")(lo, hi)
                    == enclose(self.BASE, "x")(lo, hi))
