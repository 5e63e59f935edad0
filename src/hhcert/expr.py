"""Closed-form scalar functions as small expression trees.

A function of one variable is represented as an immutable tree of nodes,
each a :class:`Value`, whose methods are written once: no class generates
code as it is created.  Trees can be parsed from a plain infix syntax,
pretty-printed back, evaluated on floats or numpy arrays, and composed with
affine argument changes (for terms like f(x/m)), which substitute p*x + q for x.

Evaluation never returns NaN or infinity: any point outside the real
domain of the expression raises :class:`DomainError` instead.  Each walk over
a tree's nodes looks a node's class up once: a ``match`` ladder was over half a compile.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np

__all__ = [
    "Const", "Var", "Add", "Sub", "Mul", "Div", "Pow", "Exp", "Log",
    "Sqrt", "Abs", "Expr", "X", "Interval", "Value",
    "ParseError", "DomainError",
    "parse", "to_string", "evaluate", "compose_affine", "lin_comb",
]


# ------------------------- node types -------------------------

class Value:
    """A frozen dataclass of the fields annotated in its class body (a parent's first), each
    defaulting to the class attribute of its name; its methods are written once, not per class."""

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        names = cls.__match_args__ = (*cls.__match_args__, *cls.__dict__.get("__annotations__", ()))
        get = operator.attrgetter(*names) if names else lambda self: ()
        cls._key = property(get if len(names) != 1 else lambda self: (get(self),))
        cls._defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}

    def __init__(self, *args, **kw) -> None:
        cls, names = type(self), self.__match_args__
        if kw or len(args) != len(names):     # bind as a call does, defaults filled in
            got = self._defaults | dict(zip(names, args)) | kw
            if len(args) > len(names) or got.keys() != set(names) or kw.keys() & names[:len(args)]:
                raise TypeError(f"{cls.__name__}() takes {names}, got {len(args)} and {list(kw)}")
            args = tuple(map(got.__getitem__, names))
        for name, value in zip(names, args):     # as a dataclass does: no dict of its own yet
            object.__setattr__(self, name, value)
        self.__post_init__()

    __post_init__ = object.__init__     # a subclass's checks of its fields; none here

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __reduce__(self):     # the fields alone: a kept result may hold the node as a key
        return type(self), self._key

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Const(Value):
    value: float

    def __init__(self, value: float) -> None:
        object.__setattr__(self, "value", value)


class Var(Value):
    """The single free variable x."""


class _Binary(Value):
    left: Expr
    right: Expr

    def __init__(self, left: Expr, right: Expr) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Add(_Binary):
    """left + right"""


class Sub(_Binary):
    """left - right"""


class Mul(_Binary):
    """left * right"""


class Div(_Binary):
    """left / right"""


class Pow(Value):
    """base raised to a fixed real exponent (the exponent is not a subtree)."""
    base: Expr
    exponent: float

    def __init__(self, base: Expr, exponent: float) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


class _Unary(Value):
    arg: Expr

    def __init__(self, arg: Expr) -> None:
        object.__setattr__(self, "arg", arg)


class Exp(_Unary):
    """exp(arg)"""


class Log(_Unary):
    """log(arg), the natural logarithm"""


class Sqrt(_Unary):
    """sqrt(arg)"""


class Abs(_Unary):
    """abs(arg)"""


Expr = Const | Var | Add | Sub | Mul | Div | Pow | Exp | Log | Sqrt | Abs

X = Var()


class Interval(Value):
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
_CONVEX, _CONCAVE, _AFFINE, _CONSTANT = 1, 2, 3, 7   # curvature bits of the shape pass; 4: constant


def _divide(den, num):
    return num / den


# each operator node's (function, operands it takes off the stack), a quotient's divisor first
_OPS = {Add: (operator.add, 2), Sub: (operator.sub, 2), Mul: (operator.mul, 2), Div: (_divide, 2),
        Pow: (np.power, 2), Exp: (np.exp, 1), Log: (np.log, 1), Sqrt: (np.sqrt, 1),
        Abs: (np.abs, 1)}
_DOMAINS = {Log: (operator.le, "log of non-positive value"),
            Sqrt: (operator.lt, "sqrt of negative value")}
_MONOTONE = {Exp: (math.exp, _CONVEX), Log: (math.log, _CONCAVE), Sqrt: (math.sqrt, _CONCAVE)}


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
        kind = type(node)
        if kind is Const:
            return put((_CONST, node, np.float64(node.value), check | _STRICT))
        if kind is Var:
            return put((_VAR, node, None, check))
        if (op := _OPS.get(kind)) is None:
            raise TypeError(f"not an Expr node: {node!r}")
        if kind is Pow:
            e = node.exponent
            emit(node.base, _FAST if e <= 0 else 0)
            if not float(e).is_integer():
                put((_DOMAIN, node,
                     (operator.le, "non-positive base with fractional exponent"), 0))
            elif e < 0:
                put((_DOMAIN, node, (operator.eq, "zero base with negative exponent"), 0))
            put((_CONST, node, e, 0))
        elif kind is Div:
            emit(node.right, _FAST)
            put((_DOMAIN, node, (operator.eq, "division by zero"), 0))
            emit(node.left, 0)
        elif op[1] == 2:
            emit(node.left, 0)
            emit(node.right, 0)
        else:
            emit(node.arg, _FAST if kind is Exp else 0)
            if kind in _DOMAINS:
                put((_DOMAIN, node, _DOMAINS[kind], 0))
        put((_OP, node, op, check if kind is Abs else check | _STRICT))

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
            fn, n = k     # a value that does not depend on x stays a scalar
            v = fn(vals.pop()) if n == 1 else fn(vals.pop(-2), vals.pop())
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


def _flip(c: int) -> int:
    """The curvature bits of -h for h of curvature c: convex and concave swap."""
    return c & 4 | (c & _CONVEX) << 1 | (c & _CONCAVE) >> 1


@_kept
@np.errstate(all="ignore")     # an overflowing power is inf, and refused
def _shape(f: Expr, iv: Interval) -> tuple[int, float, float] | None:
    """(curvature, low, high) of f on iv, by one rule for each instruction of its tape; None
    where evaluate could raise on iv: a domain check could fail on its operand's enclosure, or
    a bound is not finite (or exp's argument reaches 709).  curvature holds the _CONVEX and
    _CONCAVE bits of f on iv by the rules of disciplined convex programming (Grant, Boyd & Ye,
    2006), both for affine f and, with bit 4, for f that does not read x; else 0.  [low,
    high] holds f's exact and computed values on iv, widened at a nonzero end grid points may
    round past; each step rounds outward (Moore, 1966; 4 ulps: exp, log, sqrt, power).  Each
    node the walk passes keeps its own result, so a subtree's costs a lookup."""
    lo, hi = _out(iv.lo, iv.hi)
    x, vals = (_AFFINE, lo if iv.lo else 0.0, hi if iv.hi else 0.0), []
    for code, node, k, _ in _compile(f):
        if code == _DOMAIN:     # could it fail at the operand's low end, or its point nearest 0?
            _, l, h = vals[-1]
            if k[0](l, 0.0) or k[0](min(max(l, 0.0), h), 0.0):
                return None
            continue
        v = (_CONSTANT, float(k), float(k)) if code == _CONST else x
        if code == _OP:     # the last operand, and the first of two
            kind, (d, l2, h2) = type(node), vals.pop()
            c, l, h = vals.pop() if k[1] == 2 else (d, l2, h2)
            constant = c == d == _CONSTANT
            if kind is Add:
                v = c & d, *_out(l + l2, h + h2)
            elif kind is Sub:
                v = c & _flip(d), *_out(l - h2, h - l2)
            elif kind is Mul or kind is Div:     # a quotient's divisor first
                ends = [k[0](a, b) for a in (l, h) for b in (l2, h2)]
                if kind is Div and d == _CONSTANT:     # 1/h: convex for concave h > 0,
                    c = _flip(c) & (_CONVEX if l > 0 else _CONCAVE)  # concave for convex h < 0
                if d == _CONSTANT:
                    (c, l, h), (d, l2, h2) = (d, l2, h2), (c, l, h)
                # a constant factor of fixed sign keeps d, or flips it
                v = ((d if h > 0 else _AFFINE) & (_flip(d) if l < 0 else _AFFINE)
                     if c == _CONSTANT else 0), *_out(min(ends), max(ends))
            elif kind is Pow:
                e = node.exponent
                even = e % 2 == 0
                ends = sorted(float(p) for p in np.power((l, h), e))
                convex = (e > 1 and (l >= 0 and c & _CONVEX or even and c == _AFFINE)
                          or e < 0 < l and c & _CONCAVE)     # 1/h^-e for concave h > 0
                v = (c if e == 1 else _CONVEX if convex else c & _CONCAVE if 0 < e < 1 else 0,
                     *_out(0.0 if even and l < 0 < h else ends[0], ends[1], 4))
            elif kind is Abs:
                v = (c if l >= 0 else _flip(c) if h <= 0 else _CONVEX if c == _AFFINE else 0,
                     max(l, -h, 0.0), max(-l, h))
            elif kind is Exp and h >= 709.0:
                return None
            else:
                fn, keep = _MONOTONE[kind]
                lo, hi = _out(fn(l), fn(h), 4)     # exp and sqrt are never below 0
                v = c & keep, lo if kind is Log else max(lo, 0.0), hi
            if constant:
                v = _CONSTANT, v[1], v[2]
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
    kind = type(e)
    if kind is Const:
        n, d = float(e.value).as_integer_ratio()
        return d.bit_length() - 1, {_ONE: n}
    if kind is Add or kind is Sub:
        (i, a), (j, b), op = _linear(e.left), _linear(e.right), _OPS[kind][0]
        k = max(i, j)
        terms = {atom: c << k - i for atom, c in a.items()} if k > i else dict(a)
        for atom, c in b.items():
            terms[atom] = op(terms.get(atom, 0), c << k - j)
        return k, terms
    if kind is Mul:
        (i, a), (j, b) = _linear(e.left), _linear(e.right)
        if len(b) == 1 and _ONE in b:   # a constant's form, as _ONE is its one key
            (i, a), (j, b) = (j, b), (i, a)
        if len(a) == 1 and _ONE in a:
            return i + j, {atom: a[_ONE] * c for atom, c in b.items()}
    return 0, {e: 1}


@_kept
def _exact_at_zero(e: Expr) -> Fraction | None:
    """e(0) in rational arithmetic from its children's kept values; None where no rule gives it
    at e or at a node it needs, whatever that node's factor, or for a power above 64."""
    kind = type(e)
    if kind is Const or kind is Var:
        return Fraction(getattr(e, "value", 0))
    if kind is Add or kind is Sub or kind is Mul:
        if None not in (a := [_exact_at_zero(e.left), _exact_at_zero(e.right)]):
            return _OPS[kind][0](*a)
    elif kind is Exp and _exact_at_zero(e.arg) == 0:
        return Fraction(1)
    elif kind is Pow and 0 <= e.exponent <= 64 and e.exponent.is_integer():
        return None if (v := _exact_at_zero(e.base)) is None else v ** int(e.exponent)
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
        kind = type(e)
        if kind is Var:
            return arg
        if kind is Const:
            return Const(e.value)
        if kind is Pow:
            return Pow(sub(e.base), e.exponent)
        if _OPS[kind][1] == 1:
            return kind(sub(e.arg))
        return kind(sub(e.left), sub(e.right))

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
