"""Closed-form scalar functions as small expression trees.

A function of one variable is represented as an immutable tree of
dataclass nodes.  Trees can be parsed from a plain infix syntax,
pretty-printed back, evaluated on floats or numpy arrays, and composed
with affine argument changes (needed to form terms like f(x/m)), which
substitute p*x + q for the variable.

Evaluation never returns NaN or infinity: any point outside the real
domain of the expression raises :class:`DomainError` instead.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "Const", "Var", "Add", "Sub", "Mul", "Div", "Pow", "Exp", "Log",
    "Sqrt", "Abs", "Expr", "X", "Interval",
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


Expr = Const | Var | Add | Sub | Mul | Div | Pow | Exp | Log | Sqrt | Abs

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
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"interval width hi - lo overflows on [{self.lo}, {self.hi}]")

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

# Each tree compiles once into a tape for a stack machine: instructions
# (code, node, operand, checks) in the order of a recursive walk.  evaluate
# runs it in a fast pass and, if that fails, again in a strict pass, which
# checks finiteness at every node but Var and Abs and so raises the error of
# the first failing check.  The fast pass checks finiteness only at the
# output and where a non-finite value can vanish: x/inf, exp(-inf), inf^0
# and inf^-1.
_CONST, _VAR, _OP, _DOMAIN = range(4)
_STRICT, _FAST = 1, 2
_UFUNCS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Exp: np.exp,
           Log: np.log, Sqrt: np.sqrt, Abs: np.abs}
_DOMAINS = {Log: (operator.le, "log of non-positive value"),
            Sqrt: (operator.lt, "sqrt of negative value")}


def _divide(den, num):
    return num / den


def _compile(f: Expr) -> tuple:
    tape: list[tuple] = []
    put = tape.append

    def emit(node: Expr, check: int) -> None:
        """Append node's instructions; ``check`` holds the passes that check
        its value."""
        match node:
            case Const(v):
                return put((_CONST, node, np.float64(v), check | _STRICT))
            case Var():
                return put((_VAR, node, None, check))
            case Add(l, r) | Sub(l, r) | Mul(l, r):
                emit(l, 0)
                emit(r, 0)
                op = (_UFUNCS[type(node)], 2)
            case Div(l, r):
                emit(r, _FAST)
                put((_DOMAIN, node, (operator.eq, "division by zero"), 0))
                emit(l, 0)
                op = (_divide, 2)
            case Pow(b, e):
                emit(b, _FAST if e <= 0 else 0)
                if not float(e).is_integer():
                    put((_DOMAIN, node,
                         (operator.le, "non-positive base with fractional exponent"), 0))
                elif e < 0:
                    put((_DOMAIN, node, (operator.eq, "zero base with negative exponent"), 0))
                put((_CONST, node, e, 0))
                op = (np.power, 2)
            case Exp(a) | Log(a) | Sqrt(a) | Abs(a):
                emit(a, _FAST if isinstance(node, Exp) else 0)
                if type(node) in _DOMAINS:
                    put((_DOMAIN, node, _DOMAINS[type(node)], 0))
                op = (_UFUNCS[type(node)], 1)
            case _:
                raise TypeError(f"not an Expr node: {node!r}")
        put((_OP, node, op, check if isinstance(node, Abs) else check | _STRICT))

    emit(f, _FAST)
    return tuple(tape)


def _run(tape: tuple, xv: np.ndarray, mode: int):
    """Run a tape at the points xv with the finiteness checks of ``mode``."""
    scalar = xv.ndim == 0
    x = xv[()] if scalar else xv
    isfinite = math.isfinite if scalar else (lambda v: np.isfinite(v).all())

    def error(reason: str, node: Expr, bad) -> DomainError:
        m = np.broadcast_to(bad, xv.shape).ravel()
        return DomainError(reason, node, float(xv.ravel()[int(np.argmax(m))]))

    vals: list = []
    for code, node, k, check in tape:
        if code == _OP:
            fn, n = k
            v = fn(*vals[-n:])     # a value that does not depend on x stays a scalar
            del vals[-n:]
        elif code == _CONST:
            v = k
        elif code == _VAR:
            v = x
        elif code == _DOMAIN:
            bad = k[0](vals[-1], 0.0)
            if bad if scalar else bad.any():
                raise error(k[1], node, bad)
            continue
        if check & mode and not isfinite(v):
            raise error("non-finite value", node, ~np.isfinite(v))
        vals.append(v)
    return vals[0]


def evaluate(f: Expr, x: float | np.ndarray) -> float | np.ndarray:
    """Evaluate ``f`` at a float or elementwise over a numpy array.

    Raises exactly the DomainError of checking every intermediate result in
    turn: a value outside a node's domain or a non-finite intermediate, with
    the node and a witness point of the first check that fails.
    """
    xv = np.asarray(x, dtype=float)
    if "_tape" not in getattr(f, "__dict__", ()):
        object.__setattr__(f, "_tape", _compile(f))
    # with no points, a non-finite part that is constant in x never shows
    fast = xv.size > 0
    with np.errstate(all="ignore"):
        try:
            out = _run(f._tape, xv, _FAST if fast else _STRICT)
        except DomainError:
            if not fast:
                raise
            out = _run(f._tape, xv, _STRICT)
    if xv.ndim == 0:
        return float(out)
    if isinstance(out, np.ndarray) and out is not xv and out.shape == xv.shape:
        out.flags.writeable = False     # a new array of f's values, which no caller shares
        return out
    return np.broadcast_to(np.asarray(out, dtype=float), xv.shape)  # a constant or the caller's x


# ------------------------- composition -------------------------

def compose_affine(f: Expr, p: float, q: float) -> Expr:
    """Return the expression x |-> f(p*x + q), with p*x + q in place of
    every x; p must be nonzero."""
    if p == 0.0:
        raise ValueError("compose_affine needs p != 0")
    if p == 1.0 and q == 0.0:
        return f
    arg = Add(Mul(Const(p), X), Const(q))

    def sub(e: Expr) -> Expr:
        if isinstance(e, Var):
            return arg
        kids = (getattr(e, fd.name) for fd in fields(e))
        return type(e)(*(sub(k) if isinstance(k, Expr) else k for k in kids))

    return sub(f)


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


def _fmt(e: Expr, min_level: int) -> str:
    match e:
        case Const(v):
            text, level = _fmt_number(v), (_L_ATOM if v >= 0 else _L_FACTOR)
        case Var():
            text, level = "x", _L_ATOM
        case Add(l, r):
            text, level = f"{_fmt(l, _L_ADD)} + {_fmt(r, _L_MUL)}", _L_ADD
        case Sub(l, r):
            text, level = f"{_fmt(l, _L_ADD)} - {_fmt(r, _L_MUL)}", _L_ADD
        case Mul(l, r):
            text, level = f"{_fmt(l, _L_MUL)}*{_fmt(r, _L_FACTOR)}", _L_MUL
        case Div(l, r):
            text, level = f"{_fmt(l, _L_MUL)}/{_fmt(r, _L_FACTOR)}", _L_MUL
        case Pow(b, ex):
            text, level = f"{_fmt(b, _L_ATOM)}^{_fmt_number(ex)}", _L_FACTOR
        case Exp(a):
            text, level = f"exp({_fmt(a, _L_ADD)})", _L_ATOM
        case Log(a):
            text, level = f"log({_fmt(a, _L_ADD)})", _L_ATOM
        case Sqrt(a):
            text, level = f"sqrt({_fmt(a, _L_ADD)})", _L_ATOM
        case Abs(a):
            text, level = f"abs({_fmt(a, _L_ADD)})", _L_ATOM
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
