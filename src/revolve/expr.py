"""Curve expression language: parsing, evaluation, compilation, interval
enclosure, symbolic differentiation.

The grammar is closed on purpose -- sin, cos, arccos, sqrt, the constant
``pi``, one free variable, and any number of named parameters.  Keeping
the function set fixed makes every expression differentiable inside the
same language, which the rest of the package relies on.

::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | base ("^" factor)?
    base   := number | ident | "(" expr ")" | func "(" expr ")"
    func   := "sin" | "cos" | "arccos" | "sqrt"

``^`` binds tighter than unary minus and associates to the right.  An
exponent must not contain the free variable, so the power rule always
applies.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache, wraps
from typing import Callable, Iterable, Mapping

from ._record import record
from .errors import RevolveError

__all__ = [
    "BinOp",
    "Bindings",
    "Call",
    "Const",
    "DomainError",
    "Expression",
    "ExpressionError",
    "ExpressionSyntaxError",
    "FUNCTIONS",
    "Neg",
    "PI",
    "Param",
    "PiConst",
    "UnboundIdentifierError",
    "UnknownIdentifierError",
    "Var",
    "bind",
    "differentiate",
    "enclose",
    "evaluate",
    "free_variables",
    "parse",
    "the_variable",
    "unparse",
]

FUNCTIONS = ("sin", "cos", "arccos", "sqrt")

Bindings = Mapping[str, float]


class ExpressionError(RevolveError):
    """Base class for expression-language errors."""


class ExpressionSyntaxError(ExpressionError):
    """Source text does not match the grammar.

    ``position`` is the 0-based character offset of the offending token and
    ``expected`` names the token classes that would have been accepted.
    """

    def __init__(self, message: str, position: int, expected: Iterable[str] = ()):
        self.position = position
        self.expected = tuple(expected)
        detail = f"{message} at offset {position}"
        if self.expected:
            detail += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(detail)


class UnknownIdentifierError(ExpressionError):
    """Identifier is not a function, ``pi``, the variable, or a parameter."""

    def __init__(self, name: str, position: int):
        self.name = name
        self.position = position
        super().__init__(f"unknown identifier {name!r} at offset {position}")


class UnboundIdentifierError(ExpressionError):
    """Evaluation met a variable or parameter with no bound value."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no value bound for {name!r}")


class DomainError(ExpressionError):
    """Evaluation left the real domain (arccos outside [-1,1], sqrt of a
    negative, division by zero, ...)."""


# ---------------------------------------------------------------------------
# AST nodes

class Expression:
    """Base class for expression nodes.  All nodes are frozen records
    (``revolve._record``), so structural equality and hashing come for
    free."""

    def __str__(self) -> str:
        return unparse(self)


@record
class Const(Expression):
    value: float


@record
class PiConst(Expression):
    """The named constant ``pi``."""


PI = PiConst()


@record
class Var(Expression):
    name: str


@record
class Param(Expression):
    name: str


@record
class Neg(Expression):
    arg: Expression


@record
class Call(Expression):
    func: str
    arg: Expression


@record
class BinOp(Expression):
    op: str
    left: Expression
    right: Expression


# ---------------------------------------------------------------------------
# Tokenizer

@record
class _Token:
    kind: str  # "number" | "ident" | "op" | "end"
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExpressionSyntaxError(
                f"unexpected character {source[pos]!r}", pos,
                ("number", "identifier", "operator"))
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_ATOM_EXPECTED = ("number", "identifier", "'('", "'-'")


class _Parser:
    def __init__(self, tokens: list[_Token], variable: str | None,
                 parameters: frozenset[str]):
        self.tokens = tokens
        self.index = 0
        self.variable = variable
        self.parameters = parameters

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def _advance(self) -> _Token:
        tok = self.current
        self.index += 1
        return tok

    def _at_op(self, *texts: str) -> bool:
        tok = self.current
        return tok.kind == "op" and tok.text in texts

    def _expect_op(self, text: str) -> None:
        if not self._at_op(text):
            raise ExpressionSyntaxError(
                f"unexpected {self.current.text!r}" if self.current.kind != "end"
                else "unexpected end of input",
                self.current.pos, (f"'{text}'",))
        self._advance()

    def parse(self) -> Expression:
        node = self.expression()
        if self.current.kind != "end":
            raise ExpressionSyntaxError(
                f"unexpected {self.current.text!r}", self.current.pos,
                ("operator", "end of input"))
        return node

    def expression(self) -> Expression:
        node = self.term()
        while self._at_op("+", "-"):
            op = self._advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expression:
        node = self.factor()
        while self._at_op("*", "/"):
            op = self._advance().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expression:
        if self._at_op("-"):
            self._advance()
            inner = self.factor()
            # fold "-2" into a negative literal so printed constants
            # round-trip structurally
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Neg(inner)
        node = self.base()
        if self._at_op("^"):
            caret = self._advance()
            exponent = self.factor()
            if self.variable is not None and self.variable in free_variables(exponent):
                raise ExpressionSyntaxError(
                    "exponent must not contain the free variable", caret.pos,
                    ("constant exponent",))
            node = BinOp("^", node, exponent)
        return node

    def base(self) -> Expression:
        tok = self.current
        if tok.kind == "number":
            self._advance()
            return Const(float(tok.text))
        if self._at_op("("):
            self._advance()
            node = self.expression()
            self._expect_op(")")
            return node
        if tok.kind == "ident":
            self._advance()
            name = tok.text
            if name in FUNCTIONS:
                self._expect_op("(")
                arg = self.expression()
                self._expect_op(")")
                return Call(name, arg)
            if name == "pi":
                return PI
            if name == self.variable:
                return Var(name)
            if name in self.parameters:
                return Param(name)
            raise UnknownIdentifierError(name, tok.pos)
        raise ExpressionSyntaxError(
            f"unexpected {tok.text!r}" if tok.kind != "end"
            else "unexpected end of input",
            tok.pos, _ATOM_EXPECTED)


_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def _check_name(name: str, what: str) -> None:
    if not _IDENT_RE.match(name):
        raise ValueError(f"{what} {name!r} is not a valid identifier")
    if name == "pi" or name in FUNCTIONS:
        raise ValueError(f"{what} {name!r} collides with a reserved name")


def parse(source: str, variable: str | None = None,
          parameters: Iterable[str] = ()) -> Expression:
    """Parse ``source`` into an expression tree.

    ``variable`` declares the (single) free variable; ``parameters`` declares
    the identifiers that may appear as named parameters.  ``variable=None``
    parses variable-free text, which is how interval bounds like ``2*pi``
    are handled.
    """
    params = frozenset(parameters)
    if variable is not None:
        _check_name(variable, "variable")
    for p in params:
        _check_name(p, "parameter")
    if variable in params:
        raise ValueError(f"variable {variable!r} also declared as a parameter")
    if not source.strip():
        raise ExpressionSyntaxError("empty expression", 0, ("expression",))
    return _Parser(_tokenize(source), variable, params).parse()


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(e: Expression, bindings: Bindings | None = None) -> float:
    """Evaluate ``e`` in IEEE double precision by walking the tree.

    This is the reference evaluator: :func:`bind` compiles the same
    operations in the same order and must agree with it bit for bit.
    Every variable and parameter must be present in ``bindings``; there are
    no defaults.
    """
    b = bindings or {}
    return _eval(e, b)


def _lookup(b: Bindings, name: str) -> float:
    try:
        return float(b[name])
    except KeyError:
        raise UnboundIdentifierError(name) from None


def _eval(e: Expression, b: Bindings) -> float:
    # isinstance tests: a match class pattern costs several times as much
    if isinstance(e, BinOp):
        x = _eval(e.left, b)
        y = _eval(e.right, b)
        return _binary(e.op, x, y)
    if isinstance(e, Const):
        return e.value
    if isinstance(e, (Var, Param)):
        return _lookup(b, e.name)
    if isinstance(e, Call):
        return _apply(e.func, _eval(e.arg, b))
    if isinstance(e, Neg):
        return -_eval(e.arg, b)
    if isinstance(e, PiConst):
        return math.pi
    raise TypeError(f"not an expression node: {e!r}")


def _apply(func: str, x: float) -> float:
    if func == "sin":
        return math.sin(x)
    if func == "cos":
        return math.cos(x)
    if func == "arccos":
        if not -1.0 <= x <= 1.0:
            raise DomainError(f"arccos argument {x!r} outside [-1, 1]")
        return math.acos(x)
    if func == "sqrt":
        if x < 0.0:
            raise DomainError(f"sqrt of negative value {x!r}")
        return math.sqrt(x)
    raise TypeError(f"unknown function {func!r}")


def _binary(op: str, x: float, y: float) -> float:
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    if op == "/":
        if y == 0.0:
            raise DomainError("division by zero")
        return x / y
    if op == "^":
        if x < 0.0 and y != math.floor(y):
            raise DomainError(
                f"negative base {x!r} with non-integer exponent {y!r}")
        if x == 0.0 and y < 0.0:
            raise DomainError("zero base with negative exponent")
        try:
            return x ** y
        except OverflowError:
            raise DomainError(f"overflow in {x!r} ** {y!r}") from None
    raise TypeError(f"unknown operator {op!r}")


# ---------------------------------------------------------------------------
# Differentiation

def _memoised(function):
    """``function`` of a tree behind a process-wide cache of at most 256
    entries, keyed by the tree's repr, kept on the tree: record equality
    calls ``Const(0.0)`` and ``Const(-0.0)`` equal, a repr does not.  A repr
    prints every float exactly but NaN, so one with "nan" is not cached."""
    cache, missing = {}, object()

    @wraps(function)
    def memo(e, *args):
        if not isinstance(e, Expression):
            return function(e, *args)
        text = e.__dict__.get("_exact") or e.__dict__.setdefault("_exact", repr(e))
        key = (text, *args)
        value = cache.get(key, missing)
        if value is missing:
            value = function(e, *args)
            if "nan" not in text:
                if len(cache) >= 256:
                    cache.clear()  # atomic, unlike evicting one chosen entry
                cache[key] = value
        return value
    memo.cache = cache
    return memo


@_memoised
def differentiate(e: Expression, var: str) -> Expression:
    """Symbolic derivative of ``e`` with respect to ``var``.

    The result is lightly simplified (0*u -> 0, u+0 -> u, 1*u -> u, and
    constant folding) so derivative trees are structurally stable.  An
    exactly equal tree gets the same derivative object back."""
    return _derivative(e, var)


def _derivative(e: Expression, var: str) -> Expression:
    if isinstance(e, BinOp):
        op, left, right = e.op, e.left, e.right
        dl = _derivative(left, var)
        dr = _derivative(right, var)
        if op == "+":
            return _add(dl, dr)
        if op == "-":
            return _sub(dl, dr)
        if op == "*":
            return _add(_mul(dl, right), _mul(left, dr))
        if op == "/":
            if dr == Const(0.0):
                return _div(dl, right)
            num = _sub(_mul(dl, right), _mul(left, dr))
            return _div(num, _pow(right, Const(2.0)))
        if op == "^":
            # exponent is variable-free by construction
            k_minus_1 = _sub(right, Const(1.0))
            return _mul(_mul(right, _pow(left, k_minus_1)), dl)
        raise TypeError(f"unknown operator {op!r}")
    if isinstance(e, Call):
        func, arg = e.func, e.arg
        du = _derivative(arg, var)
        if func == "sin":
            return _mul(Call("cos", arg), du)
        if func == "cos":
            return _neg(_mul(Call("sin", arg), du))
        if func == "arccos":
            radicand = _sub(Const(1.0), _mul(arg, arg))
            return _neg(_div(du, Call("sqrt", radicand)))
        if func == "sqrt":
            return _div(du, _mul(Const(2.0), Call("sqrt", arg)))
        raise TypeError(f"unknown function {func!r}")
    if isinstance(e, Var):
        return Const(1.0) if e.name == var else Const(0.0)
    if isinstance(e, Neg):
        return _neg(_derivative(e.arg, var))
    if isinstance(e, (Const, PiConst, Param)):
        return Const(0.0)
    raise TypeError(f"not an expression node: {e!r}")


def _is_const(e: Expression, value: float) -> bool:
    return isinstance(e, Const) and e.value == value


def _fold(op: str, a: Expression, b: Expression) -> Expression | None:
    """``a op b`` as one constant when both operands are constants, or as the
    unfolded ``BinOp`` when that constant would be NaN: no literal spells NaN,
    so it would not print back.  None when an operand is not a constant."""
    if isinstance(a, Const) and isinstance(b, Const):
        value = _binary(op, a.value, b.value)
        return BinOp(op, a, b) if math.isnan(value) else Const(value)
    return None


def _add(a: Expression, b: Expression) -> Expression:
    if (folded := _fold("+", a, b)) is not None:
        return folded
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def _sub(a: Expression, b: Expression) -> Expression:
    if (folded := _fold("-", a, b)) is not None:
        return folded
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a: Expression, b: Expression) -> Expression:
    if (folded := _fold("*", a, b)) is not None:
        return folded
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return BinOp("*", a, b)


def _div(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    if not _is_const(b, 0.0) and (folded := _fold("/", a, b)) is not None:
        return folded
    return BinOp("/", a, b)


def _pow(a: Expression, b: Expression) -> Expression:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return Const(1.0)
    return BinOp("^", a, b)


def _neg(a: Expression) -> Expression:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


# ---------------------------------------------------------------------------
# Printing

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _prec(e: Expression) -> int:
    if isinstance(e, BinOp):
        if e.op in "+-":
            return _PREC_ADD
        if e.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(e, Const):
        # a -0.0 literal prints as "-0.0", which binds like a negation
        return _PREC_ATOM if math.copysign(1.0, e.value) > 0.0 else _PREC_NEG
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, (PiConst, Var, Param, Call)):
        return _PREC_ATOM
    raise TypeError(f"not an expression node: {e!r}")


def _wrap(e: Expression, minimum: int) -> str:
    text = unparse(e)
    return f"({text})" if _prec(e) < minimum else text


def unparse(e: Expression) -> str:
    """Render ``e`` as source text.  ``parse(unparse(e))`` reproduces ``e``
    structurally."""
    if isinstance(e, BinOp):
        op, left, right = e.op, e.left, e.right
        if op == "+" or op == "-":
            return f"{_wrap(left, _PREC_ADD)} {op} {_wrap(right, _PREC_ADD + 1)}"
        if op == "*" or op == "/":
            return f"{_wrap(left, _PREC_MUL)}{op}{_wrap(right, _PREC_MUL + 1)}"
        if op == "^":
            return f"{_wrap(left, _PREC_ATOM)}^{_wrap(right, _PREC_NEG)}"
    elif isinstance(e, Const):
        if math.isinf(e.value):
            # "inf" is no literal of the grammar; 1e999 parses to inf
            return "1e999" if e.value > 0.0 else "-1e999"
        return repr(e.value)
    elif isinstance(e, (Var, Param)):
        return e.name
    elif isinstance(e, Call):
        return f"{e.func}({unparse(e.arg)})"
    elif isinstance(e, Neg):
        return "-" + _wrap(e.arg, _PREC_NEG)
    elif isinstance(e, PiConst):
        return "pi"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Helpers for the numeric layers

def free_variables(e: Expression) -> frozenset[str]:
    """Names of all ``Var`` nodes in ``e``."""
    names = set()
    stack = [e]
    while stack:  # left operands first, so a non-node is met in tree order
        e = stack.pop()
        if isinstance(e, BinOp):
            stack += (e.right, e.left)
        elif isinstance(e, (Neg, Call)):
            stack.append(e.arg)
        elif isinstance(e, Var):
            names.add(e.name)
        elif not isinstance(e, (Const, PiConst, Param)):
            raise TypeError(f"not an expression node: {e!r}")
    return frozenset(names)


@_memoised
def the_variable(e: Expression) -> str | None:
    """The single free variable of ``e``, or ``None`` for a constant
    expression.  More than one free variable is a structural error."""
    names = free_variables(e)
    if len(names) > 1:
        raise ValueError(f"expected one free variable, found {sorted(names)}")
    return next(iter(names)) if names else None


def bind(e: Expression, variable: str,
         parameters: Bindings | None = None) -> Callable[[float], float]:
    """Compile ``e``, closed over ``parameters``, into a plain
    ``float -> float`` function of ``variable``.

    The tree is lowered to straight-line Python source whose text depends
    only on the tree's shape: constants and parameter values reach it by
    name, and the variable is always the argument.  The code compiled from
    that source is shared across binds of the same shape (a bounded cache,
    like the ``re`` module's), so a parameter sweep compiles once; an
    exactly equal tree with equal values is lowered once.  Each call still
    returns a fresh function, which computes exactly what :func:`evaluate`
    computes, bit for bit and error for error.  A name with no value, or
    a value ``float()`` refuses, raises only when a call reaches it.  The
    returned callable is pure and safe for concurrent use.
    """
    return _lowered(e, variable, parameters, False)


def _lowered(e: Expression, variable: str, parameters: Bindings | None,
             interval: bool) -> Callable:
    try:  # 0.0 == -0.0, but the two must not share an entry
        values = tuple(sorted((name, float(raw), math.copysign(1.0, raw))
                              for name, raw in (parameters or {}).items()))
    except Exception:  # float() refuses a value: coerce it on each call
        return _Compiler(variable, dict(parameters or {}), interval).compile(e)
    f = _lower(e, variable, values, interval)
    return type(f)(f.__code__, f.__globals__)  # a fresh f; globals are read-only


@_memoised
def _lower(e: Expression, variable: str, values: tuple, interval: bool):
    return _Compiler(variable, {n: v for n, v, _ in values}, interval).compile(e)


@lru_cache(maxsize=256)
def _code(source: str):
    return compile(source, "<revolve.expr.bind>", "exec")


# Each domain check the reference evaluator makes, as a condition on the
# operands {0} (and {1}); when it holds, the reference operation raises.
_DOMAIN_CHECKS = {
    "arccos": "not -1.0 <= {0} <= 1.0",
    "sqrt": "{0} < 0.0",
    "/": "{1} == 0.0",
    "^": "{0} < 0.0 and {1} != floor({1}) or {0} == 0.0 and {1} < 0.0",
}


class _Compiler:
    """Lowers one tree to ``def f(x): ...`` with one temporary per node,
    emitted in ``_eval``'s order: operands, then the domain check, then the
    operation.  A failed check calls the reference operation, which raises
    the reference error.  Constants and parameter values live in the
    function's namespace by name, never as printed literals, so the source,
    and the code :func:`_code` caches for it, depends on the shape alone.
    In interval mode it lowers to ``def f(lo, hi): ...`` for :func:`enclose`."""

    def __init__(self, variable: str, params: dict[str, object],
                 interval: bool):
        self.variable = variable
        self.params = params
        self.interval = interval
        self.namespace: dict[str, object] = {
            "__builtins__": {}, "float": float, "floor": math.floor,
            "OverflowError": OverflowError,
            "pi": math.pi, "sin": math.sin, "cos": math.cos,
            "arccos": math.acos, "sqrt": math.sqrt,
            "_apply": _apply, "_binary": _binary,
            "_apply_interval": _apply_interval, "_pow_interval": _pow_interval,
            "_binary_interval": _binary_interval, "_UNDECIDED": (
                _Undecided, ExpressionError, ArithmeticError, ValueError),
        }
        self.lines: list[str] = []
        self.locals: dict[str, str] = {}  # identifier -> name of its float
        self.count = 0

    def compile(self, e: Expression) -> Callable:
        result = (self._enclose if self.interval else self._emit)(e)
        lines = [*self.lines, f"return {result}"]
        if self.interval:  # an error an enclosure absorbs leaves it undecided
            lines = ["x = lo, hi", "try:", *(f"    {line}" for line in lines),
                     "except _UNDECIDED:", "    return None"]
        source = f"def f({'lo, hi' if self.interval else 'x'}):\n" + "".join(
            f"    {line}\n" for line in lines)
        exec(_code(source), self.namespace)
        # f's globals are the namespace: without the pop, f and the
        # namespace form a cycle that only the cyclic collector frees
        return self.namespace.pop("f")

    def _name(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def _temp(self, code: str) -> str:
        name = self._name("t")
        self.lines.append(f"{name} = {code}")
        return name

    def _constant(self, value: object) -> str:
        name = self._name("c")
        self.namespace[name] = value
        return name

    def _check(self, op: str, reference: str, *operands: str) -> None:
        check = _DOMAIN_CHECKS.get(op)
        if check is not None:
            args = ", ".join((repr(op), *operands))
            self.lines.append(f"if {check.format(*operands)}: {reference}({args})")

    def _lookup(self, e: Var | Param) -> str:
        # _lookup coerces with float() on every reach; coercing once, at
        # the first reach, gives the same values and the same first error
        if e.name not in self.locals:
            self.locals[e.name] = (self._temp("float(x)") if e.name == self.variable
                                   else self._fixed(_eval, e))
        return self.locals[e.name]

    def _emit(self, e: Expression) -> str:
        if isinstance(e, BinOp):
            op = e.op
            if op in ("+", "-", "*", "/", "^"):
                a, b = self._emit(e.left), self._emit(e.right)
                self._check(op, "_binary", a, b)
                if op != "^":
                    return self._temp(f"{a} {op} {b}")
                t = self._name("t")
                self.lines += [f"try: {t} = {a} ** {b}",
                               f"except OverflowError: _binary('^', {a}, {b})"]
                return t
        elif isinstance(e, Const):
            return self._constant(e.value)
        elif isinstance(e, (Var, Param)):
            return self._lookup(e)
        elif isinstance(e, Call):
            if e.func in FUNCTIONS:
                a = self._emit(e.arg)
                self._check(e.func, "_apply", a)
                return self._temp(f"{e.func}({a})")
        elif isinstance(e, Neg):
            return self._temp(f"-{self._emit(e.arg)}")
        elif isinstance(e, PiConst):
            return "pi"
        raise TypeError(f"not an expression node: {e!r}")

    def _enclose(self, e: Expression) -> str:
        if isinstance(e, BinOp) and e.op in ("+", "-", "*", "/", "^"):
            a = self._enclose(e.left)  # the variable is kept out of exponents
            if e.op == "^":
                return self._temp(f"_pow_interval(*{a}, {self._fixed(_eval, e.right)})")
            b = self._enclose(e.right)
            return self._temp(f"_binary_interval({e.op!r}, {a}, {b})")
        if isinstance(e, Call) and e.func in FUNCTIONS:
            return self._temp(f"_apply_interval({e.func!r}, {self._enclose(e.arg)})")
        if isinstance(e, (Var, Param)) and e.name == self.variable:
            return "x"
        if isinstance(e, Neg):
            a = self._enclose(e.arg)
            return self._temp(f"(-{a}[1], -{a}[0])")
        return self._fixed(_point, e)

    def _fixed(self, evaluate: Callable, e: Expression) -> str:
        # evaluate(e, params) once, here, or if that raises, on each call
        try:
            return self._constant(evaluate(e, self.params))
        except Exception:  # which then fails where and as the operation would
            args = ", ".join(map(self._constant, (e, self.params)))
            return self._temp(f"{self._constant(evaluate)}({args})")


# ---------------------------------------------------------------------------
# Interval enclosure

def enclose(e: Expression, variable: str, parameters: Bindings | None = None
            ) -> Callable[[float, float], tuple[float, float] | None]:
    """An interval enclosure of ``e``, closed over ``parameters``, as a
    function of ``variable``.

    The returned function maps ``(lo, hi)`` to ``(low, high)`` with
    low <= e(x) <= high for every x in [lo, hi], both for the exact real
    value and for what :func:`bind` computes at a float x.  It is compiled
    and cached as :func:`bind` is, one interval operation per node in
    :func:`evaluate`'s order: constants and parameter values enter exactly,
    an exponent is evaluated once, and every bound an operation computes
    is rounded outward with ``math.nextafter`` (two steps for sin, cos,
    arccos and ``^``, which come from the platform library), except a zero
    that is exact.  The result is ``None``, "undecided", wherever a domain
    check could fail somewhere on [lo, hi], a name has no value, an
    exponent fails or a bound is not finite; it never raises for those.
    """
    return _lowered(e, variable, parameters, True)


class _Undecided(Exception):
    """An interval operation cannot bound its result."""


_INF = math.inf
_TWO_PI = 2.0 * math.pi
_nextafter = math.nextafter


def _round_out(low: float, high: float, steps: int = 1,
               flushed: bool = False) -> tuple[float, float]:
    """``(low, high)`` moved ``steps`` floats outward.  A zero bound is
    exact and stays, unless some result ``flushed`` to zero by underflow.
    Bounds that are not finite leave the enclosure undecided."""
    if low != 0.0 or flushed:
        low = _nextafter(low, -_INF)
        if steps == 2:
            low = _nextafter(low, -_INF)
    if high != 0.0 or flushed:
        high = _nextafter(high, _INF)
        if steps == 2:
            high = _nextafter(high, _INF)
    if -_INF < low <= high < _INF:
        return low, high
    raise _Undecided


def _apply_interval(func: str, a: tuple[float, float]) -> tuple[float, float]:
    """Bounds on ``func`` over the interval ``a``: the twin of ``_apply``.
    sqrt rounds correctly; sin, cos and arccos get two steps.  sin, sqrt
    and arccos are zero only at 0, 0 and 1, where that is exact."""
    lo, hi = a
    if func == "sqrt":
        if lo < 0.0:
            raise _Undecided
        return _round_out(math.sqrt(lo), math.sqrt(hi))
    if func == "arccos":
        if lo < -1.0 or hi > 1.0:
            raise _Undecided
        low, high = _round_out(math.acos(hi), math.acos(lo), 2)
        return max(0.0, low), high
    if hi - lo > 6.3:  # more than a period of sin or cos
        return -1.0, 1.0
    if func == "sin":
        u, v, peak = math.sin(lo), math.sin(hi), 0.5 * math.pi
    else:
        u, v, peak = math.cos(lo), math.cos(hi), 0.0
    low, high = _round_out(u, v, 2) if u <= v else _round_out(v, u, 2)
    # a maximum (peak + 2*pi*k) or minimum (half a period on) within slack
    # of [lo, hi] counts as inside it: that only widens the bounds, and
    # slack dwarfs the rounding of the test
    slack = 1e-9 * (1.0 + max(-lo, hi))
    lo, hi = lo - slack, hi + slack
    if peak + math.ceil((lo - peak) / _TWO_PI) * _TWO_PI <= hi:
        high = 1.0
    trough = peak + math.pi
    if trough + math.ceil((lo - trough) / _TWO_PI) * _TWO_PI <= hi:
        low = -1.0
    return max(-1.0, low), min(1.0, high)


def _binary_interval(op: str, a: tuple[float, float], b: tuple[float, float]
                     ) -> tuple[float, float]:
    """Bounds on ``a op b`` over intervals, for + - * /: the twin of
    ``_binary``.  A float sum rounds to zero only when it is zero; a
    product or quotient only when an operand (the numerator) is zero, or
    when it underflowed."""
    lo, hi = a
    b_lo, b_hi = b
    if op == "+":
        return _round_out(lo + b_lo, hi + b_hi)
    if op == "-":
        return _round_out(lo - b_hi, hi - b_lo)
    if op == "*":
        corners = (lo * b_lo, lo * b_hi, hi * b_lo, hi * b_hi)
    elif b_lo <= 0.0 <= b_hi:
        raise _Undecided
    else:
        corners = (lo / b_lo, lo / b_hi, hi / b_lo, hi / b_hi)
    # no divisor bound is zero here, so the same test serves both
    flushed = 0.0 in corners and any(
        c == 0.0 and x != 0.0 and y != 0.0
        for c, x, y in zip(corners, (lo, lo, hi, hi), (b_lo, b_hi, b_lo, b_hi)))
    return _round_out(min(corners), max(corners), 1, flushed)


def _pow_interval(lo: float, hi: float, y: float) -> tuple[float, float]:
    """Bounds on x ** y for x in [lo, hi] and a float exponent: monotone in
    x except for an even power across zero, whose least value is 0."""
    if y == 0.0:
        return 1.0, 1.0  # x ** 0.0 is 1.0 for every x
    whole = y == math.floor(y)
    if lo < 0.0 and not whole or y < 0.0 and lo <= 0.0 <= hi:
        raise _Undecided
    p, q = lo ** y, hi ** y
    flushed = p == 0.0 and lo != 0.0 or q == 0.0 and hi != 0.0
    low, high = _round_out(min(p, q), max(p, q), 2, flushed)
    if whole and y % 2.0 == 0.0 and lo < 0.0 < hi:
        low = 0.0
    return low, high


def _point(e: Expression, params: Bindings) -> tuple[float, float]:
    """Bounds on a constant or a parameter's value: exact, if finite."""
    value = _eval(e, params)
    if -_INF < value < _INF:
        return value, value
    raise _Undecided
