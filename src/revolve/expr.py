"""Curve expression language: parsing, evaluation, symbolic differentiation.

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
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

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
    """Base class for expression nodes.  All nodes are frozen dataclasses,
    so structural equality and hashing come for free."""

    def __str__(self) -> str:
        return unparse(self)


@dataclass(frozen=True)
class Const(Expression):
    value: float


@dataclass(frozen=True)
class PiConst(Expression):
    """The named constant ``pi``."""


PI = PiConst()


@dataclass(frozen=True)
class Var(Expression):
    name: str


@dataclass(frozen=True)
class Param(Expression):
    name: str


@dataclass(frozen=True)
class Neg(Expression):
    arg: Expression


@dataclass(frozen=True)
class Call(Expression):
    func: str
    arg: Expression


@dataclass(frozen=True)
class BinOp(Expression):
    op: str
    left: Expression
    right: Expression


# ---------------------------------------------------------------------------
# Tokenizer

@dataclass(frozen=True)
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
    """Evaluate ``e`` in IEEE double precision.

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
    match e:
        case Const(value):
            return value
        case PiConst():
            return math.pi
        case Var(name):
            return _lookup(b, name)
        case Param(name):
            return _lookup(b, name)
        case Neg(arg):
            return -_eval(arg, b)
        case Call(func, arg):
            return _apply(func, _eval(arg, b))
        case BinOp(op, left, right):
            x = _eval(left, b)
            y = _eval(right, b)
            return _binary(op, x, y)
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

def differentiate(e: Expression, var: str) -> Expression:
    """Symbolic derivative of ``e`` with respect to ``var``.

    The result is lightly simplified (0*u -> 0, u+0 -> u, 1*u -> u, and
    constant folding) so derivative trees are structurally stable.
    """
    match e:
        case Const() | PiConst() | Param():
            return Const(0.0)
        case Var(name):
            return Const(1.0) if name == var else Const(0.0)
        case Neg(arg):
            return _neg(differentiate(arg, var))
        case Call(func, arg):
            du = differentiate(arg, var)
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
        case BinOp(op, left, right):
            dl = differentiate(left, var)
            dr = differentiate(right, var)
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
    raise TypeError(f"not an expression node: {e!r}")


def _is_const(e: Expression, value: float) -> bool:
    return isinstance(e, Const) and e.value == value


def _add(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def _sub(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
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
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
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
    match e:
        case Const(value):
            # a -0.0 literal prints as "-0.0", which binds like a negation
            return _PREC_ATOM if math.copysign(1.0, value) > 0.0 else _PREC_NEG
        case PiConst() | Var() | Param() | Call():
            return _PREC_ATOM
        case Neg():
            return _PREC_NEG
        case BinOp(op, _, _):
            if op in "+-":
                return _PREC_ADD
            if op in "*/":
                return _PREC_MUL
            return _PREC_POW
    raise TypeError(f"not an expression node: {e!r}")


def _wrap(e: Expression, minimum: int) -> str:
    text = unparse(e)
    return f"({text})" if _prec(e) < minimum else text


def unparse(e: Expression) -> str:
    """Render ``e`` as source text.  ``parse(unparse(e))`` reproduces ``e``
    structurally."""
    match e:
        case Const(value):
            return repr(value)
        case PiConst():
            return "pi"
        case Var(name):
            return name
        case Param(name):
            return name
        case Neg(arg):
            return "-" + _wrap(arg, _PREC_NEG)
        case Call(func, arg):
            return f"{func}({unparse(arg)})"
        case BinOp("+", left, right):
            return f"{_wrap(left, _PREC_ADD)} + {_wrap(right, _PREC_ADD + 1)}"
        case BinOp("-", left, right):
            return f"{_wrap(left, _PREC_ADD)} - {_wrap(right, _PREC_ADD + 1)}"
        case BinOp("*", left, right):
            return f"{_wrap(left, _PREC_MUL)}*{_wrap(right, _PREC_MUL + 1)}"
        case BinOp("/", left, right):
            return f"{_wrap(left, _PREC_MUL)}/{_wrap(right, _PREC_MUL + 1)}"
        case BinOp("^", left, right):
            return f"{_wrap(left, _PREC_ATOM)}^{_wrap(right, _PREC_NEG)}"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Helpers for the numeric layers

def free_variables(e: Expression) -> frozenset[str]:
    """Names of all ``Var`` nodes in ``e``."""
    match e:
        case Const() | PiConst() | Param():
            return frozenset()
        case Var(name):
            return frozenset((name,))
        case Neg(arg) | Call(_, arg):
            return free_variables(arg)
        case BinOp(_, left, right):
            return free_variables(left) | free_variables(right)
    raise TypeError(f"not an expression node: {e!r}")


def the_variable(e: Expression) -> str | None:
    """The single free variable of ``e``, or ``None`` for a constant
    expression.  More than one free variable is a structural error."""
    names = free_variables(e)
    if len(names) > 1:
        raise ValueError(f"expected one free variable, found {sorted(names)}")
    return next(iter(names)) if names else None


def bind(e: Expression, variable: str,
         parameters: Bindings | None = None) -> Callable[[float], float]:
    """Close ``e`` over ``parameters`` and return a plain ``float -> float``
    function of ``variable``.  The returned callable is pure and safe for
    concurrent use."""
    params = dict(parameters or {})

    def f(x: float) -> float:
        return _eval(e, {**params, variable: x})

    return f
