"""Closed-form scalar functions as small expression trees.

A function of one variable is represented as an immutable tree of
dataclass nodes.  Trees can be parsed from a plain infix syntax,
pretty-printed back, evaluated on floats or numpy arrays, and composed
with affine argument changes (needed to form terms like f(x/m)).

Evaluation never returns NaN or infinity: any point outside the real
domain of the expression raises :class:`DomainError` instead.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Const", "Var", "Add", "Sub", "Mul", "Div", "Pow", "Exp", "Log",
    "Sqrt", "Abs", "AffineArg", "Expr", "X", "Interval",
    "ParseError", "DomainError",
    "parse", "to_string", "evaluate", "compose_affine", "lin_comb",
]


# ------------------------- node types -------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    """The single free variable x."""


@dataclass(frozen=True)
class Add:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow:
    """base raised to a fixed real exponent (the exponent is not a subtree)."""
    base: Expr
    exponent: float


@dataclass(frozen=True)
class Exp:
    arg: Expr


@dataclass(frozen=True)
class Log:
    arg: Expr


@dataclass(frozen=True)
class Sqrt:
    arg: Expr


@dataclass(frozen=True)
class Abs:
    arg: Expr


@dataclass(frozen=True)
class AffineArg:
    """x |-> inner(p*x + q).  Composition with an affine argument change."""
    inner: Expr
    p: float
    q: float


Expr = Const | Var | Add | Sub | Mul | Div | Pow | Exp | Log | Sqrt | Abs | AffineArg

X = Var()


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval needs finite ends, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValueError(f"interval needs lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _require_tol(name: str, value: float) -> None:
    """Reject a tolerance that is not positive and finite (inf passes anything)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


# ------------------------- errors -------------------------

class ParseError(ValueError):
    """Rejected input text; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DomainError(ArithmeticError):
    """Evaluation left the real domain (log of a non-positive value, division
    by zero, fractional power of a non-positive base, overflow, ...).

    Carries the offending node and an evaluation point where the failure
    occurs, so callers can report it rather than crash.
    """

    def __init__(self, reason: str, node: Expr | None, x: float):
        super().__init__(f"{reason} at x={x!r}")
        self.reason = reason
        self.node = node
        self.x = x


# ------------------------- evaluation -------------------------

def evaluate(f: Expr, x: float | np.ndarray) -> float | np.ndarray:
    """Evaluate ``f`` at a float or elementwise over a numpy array.

    Every intermediate result is checked: a value outside the domain or a
    non-finite intermediate raises DomainError with a witness point.
    """
    xv = np.asarray(x, dtype=float)
    scalar = xv.ndim == 0

    def bad_point(mask: np.ndarray | bool) -> float:
        if scalar:
            return float(xv)
        m = np.broadcast_to(np.asarray(mask), xv.shape).ravel()
        return float(xv.ravel()[int(np.argmax(m))])

    def domain(bad: np.ndarray | bool, reason: str, node: Expr) -> None:
        if np.any(bad):
            raise DomainError(reason, node, bad_point(bad))

    def finite(val, node: Expr):
        ok = np.isfinite(val)
        if not np.all(ok):
            raise DomainError("non-finite value", node, bad_point(~np.asarray(ok)))
        return val

    def ev(node: Expr, arg):
        match node:
            case Const(v):
                return finite(v, node)
            case Var():
                return arg
            case Add(l, r):
                return finite(ev(l, arg) + ev(r, arg), node)
            case Sub(l, r):
                return finite(ev(l, arg) - ev(r, arg), node)
            case Mul(l, r):
                return finite(ev(l, arg) * ev(r, arg), node)
            case Div(l, r):
                den = ev(r, arg)
                domain(den == 0.0, "division by zero", node)
                return finite(ev(l, arg) / den, node)
            case Pow(b, e):
                base = ev(b, arg)
                if float(e).is_integer():
                    if e < 0:
                        domain(base == 0.0, "zero base with negative exponent", node)
                else:
                    domain(base <= 0.0, "non-positive base with fractional exponent", node)
                return finite(np.power(base, e), node)
            case Exp(a):
                return finite(np.exp(ev(a, arg)), node)
            case Log(a):
                v = ev(a, arg)
                domain(v <= 0.0, "log of non-positive value", node)
                return finite(np.log(v), node)
            case Sqrt(a):
                v = ev(a, arg)
                domain(v < 0.0, "sqrt of negative value", node)
                return finite(np.sqrt(v), node)
            case Abs(a):
                return np.abs(ev(a, arg))
            case AffineArg(inner, p, q):
                return ev(inner, finite(p * arg + q, node))
        raise TypeError(f"not an Expr node: {node!r}")

    with np.errstate(all="ignore"):
        out = ev(f, xv)
    if scalar:
        return float(out)
    return np.broadcast_to(np.asarray(out, dtype=float), xv.shape)


# ------------------------- composition -------------------------

def compose_affine(f: Expr, p: float, q: float) -> Expr:
    """Return the expression x |-> f(p*x + q); p must be nonzero."""
    if p == 0.0:
        raise ValueError("compose_affine needs p != 0")
    if p == 1.0 and q == 0.0:
        return f
    return AffineArg(f, p, q)


def lin_comb(c1: float, f: Expr, c2: float, g: Expr) -> Expr:
    """Return the expression c1*f + c2*g."""
    return Add(Mul(Const(c1), f), Mul(Const(c2), g))


# ------------------------- printing -------------------------

# precedence levels used by the printer; a child is parenthesized when its
# level is below the minimum its position requires
_L_ADD, _L_MUL, _L_FACTOR, _L_ATOM = 1, 2, 3, 4


def _fmt_number(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def _fmt(e: Expr, min_level: int, arg: Expr = X) -> str:
    """Render ``e`` with its variable standing for the expression ``arg``."""
    match e:
        case Const(v):
            text, level = _fmt_number(v), (_L_ATOM if v >= 0 else _L_FACTOR)
        case Var() if arg != X:
            return _fmt(arg, min_level)
        case Var():
            text, level = "x", _L_ATOM
        case Add(l, r):
            text, level = f"{_fmt(l, _L_ADD, arg)} + {_fmt(r, _L_MUL, arg)}", _L_ADD
        case Sub(l, r):
            text, level = f"{_fmt(l, _L_ADD, arg)} - {_fmt(r, _L_MUL, arg)}", _L_ADD
        case Mul(l, r):
            text, level = f"{_fmt(l, _L_MUL, arg)}*{_fmt(r, _L_FACTOR, arg)}", _L_MUL
        case Div(l, r):
            text, level = f"{_fmt(l, _L_MUL, arg)}/{_fmt(r, _L_FACTOR, arg)}", _L_MUL
        case Pow(b, ex):
            text, level = f"{_fmt(b, _L_ATOM, arg)}^{_fmt_number(ex)}", _L_FACTOR
        case Exp(a):
            text, level = f"exp({_fmt(a, _L_ADD, arg)})", _L_ATOM
        case Log(a):
            text, level = f"log({_fmt(a, _L_ADD, arg)})", _L_ATOM
        case Sqrt(a):
            text, level = f"sqrt({_fmt(a, _L_ADD, arg)})", _L_ATOM
        case Abs(a):
            text, level = f"abs({_fmt(a, _L_ADD, arg)})", _L_ATOM
        case AffineArg(inner, p, q):
            return _fmt(inner, min_level, Add(Mul(Const(p), arg), Const(q)))
        case _:
            raise TypeError(f"not an Expr node: {e!r}")
    if level < min_level:
        return f"({text})"
    return text


def to_string(e: Expr) -> str:
    """Render ``e`` in the surface syntax accepted by :func:`parse`."""
    return _fmt(e, _L_ADD)


# ------------------------- parsing -------------------------

_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

_CONSTANTS = {"e": math.e, "pi": math.pi}
_FUNCTIONS = {"exp": Exp, "log": Log, "sqrt": Sqrt, "abs": Abs}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _NUM_RE.match(text, pos)
        if m:
            tokens.append(("num", m.group(), pos))
            pos = m.end()
            continue
        m = _IDENT_RE.match(text, pos)
        if m:
            tokens.append(("ident", m.group(), pos))
            pos = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", off)
        self.take()

    def at_op(self, ops: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "op" and text in ops

    def expr(self) -> Expr:
        node = self.term()
        while self.at_op("+-"):
            _, op, _ = self.take()
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.at_op("*/"):
            _, op, _ = self.take()
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def factor(self) -> Expr:
        neg = False
        if self.at_op("-"):
            self.take()
            neg = True
        node = self.base()
        if self.at_op("^"):
            self.take()
            node = Pow(node, self.signed_number())
        if neg:
            # '^' binds tighter than the unary minus
            node = Mul(Const(-1.0), node)
        return node

    def base(self) -> Expr:
        kind, text, off = self.peek()
        if kind == "num":
            self.take()
            return Const(float(text))
        if kind == "ident":
            self.take()
            if text == "x":
                return X
            if text in _CONSTANTS:
                return Const(_CONSTANTS[text])
            if text in _FUNCTIONS:
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return _FUNCTIONS[text](inner)
            raise ParseError(f"unknown identifier {text!r}", off)
        if kind == "op" and text == "(":
            self.take()
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a number, 'x', a constant, a function call, or '('", off)

    def signed_number(self) -> float:
        sign = 1.0
        if self.at_op("+-"):
            _, op, _ = self.take()
            if op == "-":
                sign = -1.0
        kind, text, off = self.peek()
        if kind != "num":
            raise ParseError("expected a numeric exponent", off)
        self.take()
        return sign * float(text)


def parse(text: str) -> Expr:
    """Parse infix syntax into an expression tree.

    Grammar: ``+ - * /`` with usual precedence, ``^`` with a literal
    (possibly signed) numeric exponent, functions exp/log/sqrt/abs,
    constants ``e`` and ``pi``, and the variable ``x``.
    """
    p = _Parser(text)
    node = p.expr()
    kind, _, off = p.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", off)
    return node
