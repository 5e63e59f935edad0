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
from fractions import Fraction

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
_CONSTANT, _AFFINE, _CONVEX, _UNKNOWN = range(4)     # curvature ranks of the shape pass
_UFUNCS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Exp: np.exp,
           Log: np.log, Sqrt: np.sqrt, Abs: np.abs}
_DOMAINS = {Log: (operator.le, "log of non-positive value"),
            Sqrt: (operator.lt, "sqrt of negative value")}


def _divide(den, num):
    return num / den


def _kept(compute):
    """compute(e, *args), kept on the node for the latest args: each tree is compiled and walked
    once, a node's result built from its children's, which are shared (copy one to change it)."""
    def kept(e: Expr, *args):
        if (got := getattr(e, "__dict__", {}).get(compute.__name__)) is None or got[0] != args:
            object.__setattr__(e, compute.__name__, got := (args, compute(e, *args)))
        return got[1]
    return kept


@_kept
def _compile(f: Expr) -> tuple:
    """f's tape, compiled on first use."""
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


def _out(lo: float, hi: float, ulps: int = 1) -> tuple[float, float]:
    return lo - ulps * math.ulp(lo), hi + ulps * math.ulp(hi)


@_kept
@np.errstate(all="ignore")     # an overflowing power is inf, and refused
def _shape(f: Expr, iv: Interval) -> tuple[int, float, float] | None:
    """(curvature, low, high) of f on iv by the rules of disciplined convex programming (Grant,
    Boyd & Ye, 2006), _UNKNOWN where none applies; None where no enclosure rule does or
    evaluate could raise.  [low, high] holds f's exact and computed values on iv, widened at
    a nonzero end grid points may round past; each step rounds outward (4 ulps: exp, power).
    Each node the walk passes keeps its own result, so a subtree's costs a lookup."""
    lo, hi = _out(iv.lo, iv.hi)
    x, vals = (_AFFINE, lo if iv.lo else 0.0, hi if iv.hi else 0.0), []
    for code, node, k, _ in _compile(f):
        if code == _DOMAIN:
            continue
        v = (_CONSTANT, float(k), float(k)) if code == _CONST else x
        if code == _OP:
            args = vals[-k[1]:]
            del vals[-k[1]:]
            match node, args:
                case Add(), [(c, l1, h1), (d, l2, h2)]:
                    v = max(c, d), *_out(l1 + l2, h1 + h2)
                case Sub(), [(c, l1, h1), (d, l2, h2)]:
                    v = max(c, d if d < _CONVEX else _UNKNOWN), *_out(l1 - h2, h1 - l2)
                case Mul(), _ if min(args)[0] == _CONSTANT:
                    (_, cl, ch), (d, dl, dh) = sorted(args)
                    ends = (cl * dl, cl * dh, ch * dl, ch * dh)
                    v = _UNKNOWN if d == _CONVEX and cl < 0 else d, *_out(min(ends), max(ends))
                case Exp(), [(c, l, h)] if h < 709.0:
                    v = c and max(c, _CONVEX), *_out(math.exp(l), math.exp(h), 4)
                case Pow(_, e), [(c, l, h), _] if l > 0 or e >= 0 and e.is_integer():
                    even = e % 2 == 0
                    ends = sorted(float(p) for p in np.power((l, h), e))
                    convex = c < _UNKNOWN and (e > 1 and (l >= 0 or even and c == _AFFINE)
                                               or e < 0 and c == _AFFINE)
                    v = (c if c == _CONSTANT or e == 1 else _CONVEX if convex else _UNKNOWN,
                         *_out(0.0 if even and l < 0 < h else ends[0], ends[1], 4))
                case _:
                    return None
        if not (math.isfinite(v[1]) and math.isfinite(v[2])):
            return None
        if code == _OP:     # not a leaf, nor a power's exponent, which comes with its node
            node.__dict__["_shape"] = (iv,), v
        vals.append(v)
    return vals[0]


_ONE = Const(1.0)


@_kept
def _linear(e: Expr) -> tuple[int, dict[Expr, int]]:
    """(k, terms): e as the sum of terms[atom]·atom / 2^k over its subtrees that are not sums,
    differences or products with a constant, keyed by structural equality; Const(1.0) keys
    the constant term.  Floats are dyadic, so ints over one power of two hold every
    coefficient exactly.  e's constants must be finite."""
    match e:
        case Const(v):
            n, d = float(v).as_integer_ratio()
            return d.bit_length() - 1, {_ONE: n}
        case Add(l, r) | Sub(l, r):
            (i, a), (j, b), op = _linear(l), _linear(r), _UFUNCS[type(e)]
            k = max(i, j)
            terms = {atom: c << k - i for atom, c in a.items()} if k > i else dict(a)
            for atom, c in b.items():
                terms[atom] = op(terms.get(atom, 0), c << k - j)
            return k, terms
        case Mul(l, r):
            (i, a), (j, b) = _linear(l), _linear(r)
            if len(b) == 1 and _ONE in b:   # a constant's form, as _ONE is its one key
                (i, a), (j, b) = (j, b), (i, a)
            if len(a) == 1 and _ONE in a:
                return i + j, {atom: a[_ONE] * c for atom, c in b.items()}
    return 0, {e: 1}


@_kept
def _exact_at_zero(e: Expr) -> Fraction | None:
    """e(0) in rational arithmetic from its children's kept values; None where no rule gives it
    at e or at a node it needs, whatever that node's factor, or for a power above 64."""
    match e:
        case Const() | Var():
            return Fraction(getattr(e, "value", 0))
        case Add(l, r) | Sub(l, r) | Mul(l, r) if None not in (a := [_exact_at_zero(l),
                                                                    _exact_at_zero(r)]):
            return _UFUNCS[type(e)](*a)
        case Exp(a) if _exact_at_zero(a) == 0:
            return Fraction(1)
        case Pow(b, p) if 0 <= p <= 64 and p.is_integer() and (v := _exact_at_zero(b)) is not None:
            return v ** int(p)
    return None


def evaluate(f: Expr, x: float | np.ndarray) -> float | np.ndarray:
    """Evaluate ``f`` at a float or elementwise over a numpy array.

    Raises exactly the DomainError of checking every intermediate result in
    turn: a value outside a node's domain or a non-finite intermediate, with
    the node and a witness point of the first check that fails.
    """
    xv = np.asarray(x, dtype=float)
    # with no points, a non-finite part that is constant in x never shows
    fast = xv.size > 0
    with np.errstate(all="ignore"):
        try:
            out = _run(_compile(f), xv, _FAST if fast else _STRICT)
        except DomainError:
            if not fast:
                raise
            out = _run(_compile(f), xv, _STRICT)
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


# ------------------------- grammar -------------------------

# One table of the surface syntax, which the tokenizer, the parser and the
# printer all read: each binary operator's node class and precedence level.
# A printed child is parenthesized when its level is below the minimum its
# position requires.
_L_ADD, _L_MUL, _L_FACTOR, _L_ATOM = 1, 2, 3, 4
_BINARY = {"+": (Add, _L_ADD), "-": (Sub, _L_ADD), "*": (Mul, _L_MUL), "/": (Div, _L_MUL)}
_CONSTANTS = {"e": math.e, "pi": math.pi}
_FUNCTIONS = {"exp": Exp, "log": Log, "sqrt": Sqrt, "abs": Abs}

# derived once: each level's operators, and the printer's text for each node class
_LEVEL_OPS = ["".join(s for s, (_, lv) in _BINARY.items() if lv == level)
              for level in range(_L_FACTOR)]
_SYMBOL_OF = {cls: (f" {s} " if lv == _L_ADD else s, lv) for s, (cls, lv) in _BINARY.items()}
_NAME_OF = {cls: name for name, cls in _FUNCTIONS.items()}
_TOKEN_RE = re.compile(r"(?P<space>\s+)|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                       r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
                       rf"|(?P<op>[{re.escape(''.join(_BINARY) + '^()')}])|(?P<bad>.)", re.S)


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
        case Pow(b, ex):
            text, level = f"{_fmt(b, _L_ATOM)}^{_fmt_number(ex)}", _L_FACTOR
        case _ if type(e) in _SYMBOL_OF:
            symbol, level = _SYMBOL_OF[type(e)]
            text = f"{_fmt(e.left, level)}{symbol}{_fmt(e.right, level + 1)}"
        case _ if type(e) in _NAME_OF:
            text, level = f"{_NAME_OF[type(e)]}({_fmt(e.arg, _L_ADD)})", _L_ATOM
        case _:
            raise TypeError(f"not an Expr node: {e!r}")
    if level < min_level:
        return f"({text})"
    return text


def to_string(e: Expr) -> str:
    """Render ``e`` in the surface syntax accepted by :func:`parse`."""
    return _fmt(e, _L_ADD)


def _tokenize(text: str) -> list[tuple[str, str | float, int]]:
    """(kind, text, offset) of each token but whitespace, a number's text read as
    a float, then ("end", "", len(text))."""
    tokens: list[tuple[str, str | float, int]] = []
    for m in _TOKEN_RE.finditer(text):
        kind, tok, pos = m.lastgroup, m.group(), m.start()
        if kind == "num" and math.isinf(tok := float(tok)):
            raise ParseError("number out of range", pos)
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", pos)
        if kind != "space":
            tokens.append((kind, tok, pos))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    # each method calls the next directly, so that a parenthesis nests four frames deep
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def take(self, ops: str, required: bool = False) -> str | None:
        """Consume the next token and return it if it is one of the operators
        ``ops``; otherwise return None, or raise if it was required."""
        kind, text, off = self.tokens[self.i]
        if kind == "op" and text in ops:
            self.i += 1
            return text
        if required:
            raise ParseError(f"expected {ops!r}", off)
        return None

    def binary(self, level: int) -> Expr:
        """A left-associative chain of the operators of ``level``; its operands
        are chains of the next level, or factors past the last one."""
        ops, tighter = _LEVEL_OPS[level], level + 1 < _L_FACTOR
        node = self.binary(level + 1) if tighter else self.factor()
        while op := self.take(ops):
            node = _BINARY[op][0](node, self.binary(level + 1) if tighter else self.factor())
        return node

    def factor(self) -> Expr:
        neg = self.take("-")
        node = self.base()
        if self.take("^"):
            sign = -1.0 if self.take("+-") == "-" else 1.0
            kind, value, off = self.tokens[self.i]
            if kind != "num":
                raise ParseError("expected a numeric exponent", off)
            self.i += 1
            node = Pow(node, sign * value)
        # '^' binds tighter than the unary minus
        return Mul(Const(-1.0), node) if neg else node

    def base(self) -> Expr:
        kind, text, off = self.tokens[self.i]
        self.i += 1
        if kind == "num":
            return Const(text)
        if kind == "ident":
            if text == "x":
                return X
            if text in _CONSTANTS:
                return Const(_CONSTANTS[text])
            if text not in _FUNCTIONS:
                raise ParseError(f"unknown identifier {text!r}", off)
            self.take("(", required=True)
        elif text != "(":
            raise ParseError("expected a number, 'x', a constant, a function call, or '('", off)
        inner = self.binary(_L_ADD)
        self.take(")", required=True)
        return _FUNCTIONS[text](inner) if kind == "ident" else inner


def parse(text: str) -> Expr:
    """Parse infix syntax into an expression tree.

    Grammar: ``+ - * /`` with usual precedence, ``^`` with a literal
    (possibly signed) numeric exponent, functions exp/log/sqrt/abs,
    constants ``e`` and ``pi``, and the variable ``x``.  A literal too
    large for a float is refused.
    """
    p = _Parser(text)
    node = p.binary(_L_ADD)
    kind, _, off = p.tokens[p.i]
    if kind != "end":
        raise ParseError("unexpected trailing input", off)
    return node
