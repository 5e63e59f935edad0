"""The expression layer's per-node walks against a reference that dispatches by ``match``.

``expr._compile``'s emit, ``_shape``'s rule per instruction, ``_linear``, ``_exact_at_zero`` and
``compose_affine`` look a node's class up once.  Below is the form they had before, which
tried Python's class patterns in turn, kept as the reference: the same rules, written as
``match`` ladders, keeping nothing on the nodes.  Every tree must give the reference's tape,
enclosures, linear forms, values at 0, compositions, values and errors, to the bit.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhcert import expr
from hhcert.expr import (_AFFINE, _CONCAVE, _CONST, _CONSTANT, _CONVEX, _DOMAIN, _DOMAINS,
                         _FAST, _MONOTONE, _OP, _STRICT, _VAR, Abs, Add, Const, Div,
                         DomainError, Exp, Expr, Interval, Log, Mul, Pow, Sqrt, Sub, Var, X,
                         _divide, _flip, _out, compose_affine, evaluate, parse)

from conftest import SPECIAL, any_tree, shape_trees

# tier-1 runs these at multiples of the default profile's examples, and CI's
# "proof-soundness" profile (conftest.py) at ten times as many
EXAMPLES = settings.default.max_examples
TREES = any_tree() | shape_trees()
# the intervals of test_convexity.py::test_shape_proof_sound_on_every_node
INTERVALS = [Interval(0.0, 1.0), Interval(0.0, 3.0), Interval(0.5, 2.0), Interval(-1.0, 1.0),
             Interval(0.25, 2.0), Interval(-2.0, -0.5)]


# ------------------------- the reference -------------------------

_UFUNCS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Exp: np.exp,
           Log: np.log, Sqrt: np.sqrt, Abs: np.abs}


def ref_compile(f: Expr) -> tuple:
    tape: list[tuple] = []
    put = tape.append

    def emit(node: Expr, check: int) -> None:
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


def ref_run(tape: tuple, xv: np.ndarray, mode: int):
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
            v = fn(*vals[-n:])
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


def ref_evaluate(f: Expr, x):
    xv = np.asarray(x, dtype=float)
    fast = xv.size > 0
    with np.errstate(all="ignore"):
        try:
            out = ref_run(ref_compile(f), xv, _FAST if fast else _STRICT)
        except DomainError:
            if not fast:
                raise
            out = ref_run(ref_compile(f), xv, _STRICT)
    if xv.ndim == 0:
        return float(out)
    if isinstance(out, np.ndarray) and out is not xv and out.shape == xv.shape:
        out.flags.writeable = False
        return out
    return np.broadcast_to(np.asarray(out, dtype=float), xv.shape)


@np.errstate(all="ignore")
def ref_shape(f: Expr, iv: Interval):
    lo, hi = _out(iv.lo, iv.hi)
    x, vals = (_AFFINE, lo if iv.lo else 0.0, hi if iv.hi else 0.0), []
    for code, node, k, _ in ref_compile(f):
        if code == _DOMAIN:
            _, l, h = vals[-1]
            if k[0](l, 0.0) or k[0](min(max(l, 0.0), h), 0.0):
                return None
            continue
        v = (_CONSTANT, float(k), float(k)) if code == _CONST else x
        if code == _OP:
            args = vals[-k[1]:]
            del vals[-k[1]:]
            match node, args:
                case Add(), [(c, l1, h1), (d, l2, h2)]:
                    v = c & d, *_out(l1 + l2, h1 + h2)
                case Sub(), [(c, l1, h1), (d, l2, h2)]:
                    v = c & _flip(d), *_out(l1 - h2, h1 - l2)
                case Mul() | Div(), [(c, l1, h1), (d, l2, h2)]:
                    ends = [k[0](a, b) for a in (l1, h1) for b in (l2, h2)]
                    if isinstance(node, Div) and d == _CONSTANT:
                        c = _flip(c) & (_CONVEX if l1 > 0 else _CONCAVE)
                    if d == _CONSTANT:
                        (c, l1, h1), (d, l2, h2) = (d, l2, h2), (c, l1, h1)
                    v = ((d if h1 > 0 else _AFFINE) & (_flip(d) if l1 < 0 else _AFFINE)
                         if c == _CONSTANT else 0), *_out(min(ends), max(ends))
                case Exp() | Log() | Sqrt(), [(c, l, h)] if h < 709.0 or not isinstance(node, Exp):
                    fn, keep = _MONOTONE[type(node)]
                    lo, hi = _out(fn(l), fn(h), 4)
                    v = c & keep, lo if isinstance(node, Log) else max(lo, 0.0), hi
                case Abs(), [(c, l, h)]:
                    v = (c if l >= 0 else _flip(c) if h <= 0 else _CONVEX if c == _AFFINE else 0,
                         max(l, -h, 0.0), max(-l, h))
                case Pow(_, e), [(c, l, h), _]:
                    even = e % 2 == 0
                    ends = sorted(float(p) for p in np.power((l, h), e))
                    convex = (e > 1 and (l >= 0 and c & _CONVEX or even and c == _AFFINE)
                              or e < 0 < l and c & _CONCAVE)
                    v = (c if e == 1 else _CONVEX if convex else c & _CONCAVE if 0 < e < 1 else 0,
                         *_out(0.0 if even and l < 0 < h else ends[0], ends[1], 4))
                case _:
                    return None
            if all(a[0] == _CONSTANT for a in args):
                v = _CONSTANT, v[1], v[2]
        if not (math.isfinite(v[1]) and math.isfinite(v[2])):
            return None
        vals.append(v)
    return vals[0]


_ONE = Const(1.0)


def ref_linear(e: Expr):
    match e:
        case Const(v):
            n, d = float(v).as_integer_ratio()
            return d.bit_length() - 1, {_ONE: n}
        case Add(l, r) | Sub(l, r):
            (i, a), (j, b), op = ref_linear(l), ref_linear(r), _UFUNCS[type(e)]
            k = max(i, j)
            terms = {atom: c << k - i for atom, c in a.items()} if k > i else dict(a)
            for atom, c in b.items():
                terms[atom] = op(terms.get(atom, 0), c << k - j)
            return k, terms
        case Mul(l, r):
            (i, a), (j, b) = ref_linear(l), ref_linear(r)
            if len(b) == 1 and _ONE in b:
                (i, a), (j, b) = (j, b), (i, a)
            if len(a) == 1 and _ONE in a:
                return i + j, {atom: a[_ONE] * c for atom, c in b.items()}
    return 0, {e: 1}


def ref_exact_at_zero(e: Expr):
    match e:
        case Const() | Var():
            return Fraction(getattr(e, "value", 0))
        case Add(l, r) | Sub(l, r) | Mul(l, r) if None not in (a := [ref_exact_at_zero(l),
                                                                    ref_exact_at_zero(r)]):
            return _UFUNCS[type(e)](*a)
        case Exp(a) if ref_exact_at_zero(a) == 0:
            return Fraction(1)
        case Pow(b, p) if (0 <= p <= 64 and p.is_integer()
                           and (v := ref_exact_at_zero(b)) is not None):
            return v ** int(p)
    return None


def ref_compose_affine(f: Expr, p: float, q: float) -> Expr:
    if p == 0.0:
        raise ValueError("compose_affine needs p != 0")
    if p == 1.0 and q == 0.0:
        return f
    arg = Add(Mul(Const(p), X), Const(q))

    def sub(e: Expr) -> Expr:
        if isinstance(e, Var):
            return arg
        kids = e._key
        return type(e)(*(sub(k) if isinstance(k, Expr) else k for k in kids))

    return sub(f)


# ------------------------- comparisons to the bit -------------------------

def _bits(v):
    """v with each float as its type and hex digits, so -0.0, 0.0 and each NaN compare as bits;
    a tree as its node classes and fields."""
    if isinstance(v, (float, np.floating)):
        return type(v).__name__, float(v).hex()
    if isinstance(v, np.ndarray):
        return "array", v.dtype.str, v.shape, v.flags.writeable, v.tobytes()
    if isinstance(v, expr.Value):
        return type(v).__name__, *(_bits(getattr(v, name)) for name in v.__match_args__)
    if isinstance(v, (tuple, list)):
        return type(v).__name__, *map(_bits, v)
    if isinstance(v, dict):
        return "dict", *((_bits(k), _bits(c)) for k, c in v.items())
    return v


def _outcome(fn, *args):
    """fn's result as bits, or the type and arguments of what it raised; a DomainError also by
    the identity of its node and the bits of its x."""
    try:
        return "value", _bits(fn(*args))
    except DomainError as exc:
        return DomainError, exc.reason, id(exc.node), _bits(exc.x)
    except (ArithmeticError, ValueError, TypeError) as exc:
        return type(exc), exc.args


def _subtrees(e):
    yield e
    for name in e.__match_args__:
        if isinstance(kid := getattr(e, name), Expr):
            yield from _subtrees(kid)


# ------------------------- the walks -------------------------

@settings(max_examples=3 * EXAMPLES, deadline=None)
@given(TREES)
@example(parse("abs(x - 1)/(x^-0.5 + sqrt(log(x + 2)))^3 - exp(-x)*x^2.5"))
def test_walks_compile_the_reference_tape(f):
    """Each instruction is the reference's: code, the same node object, operand and checks."""
    tape, want = expr._compile(f), ref_compile(f)
    assert len(tape) == len(want)
    for (code, node, k, check), (want_code, want_node, want_k, want_check) in zip(tape, want):
        assert (code, check) == (want_code, want_check)
        assert node is want_node
        assert _bits(k) == _bits(want_k)


FLOATS = st.floats() | st.sampled_from(SPECIAL)


@settings(max_examples=3 * EXAMPLES, deadline=None)
@given(TREES, st.lists(FLOATS, min_size=1, max_size=4), FLOATS, FLOATS)
@example(parse("log(x)"), [0.0, -1.0, 2.0], 0.0, 1.0)
@example(parse("1/(x - 0.5) + sqrt(x)"), [0.5, -0.25], -1.0, 1.0)
@example(parse("exp(1000*x)^0 + x^-1"), [0.0, 1.0], 0.0, 1.0)
def test_walks_evaluate_as_the_reference(f, points, a, b):
    """Values and DomainErrors (reason, node, x) of evaluate are the reference's on scalars,
    on a 15-point panel from a to b, on the points as an array and on no points at all;
    the special constants and points leave the domain of many trees."""
    with np.errstate(all="ignore"):
        panel = a + (b - a) * np.linspace(0.0, 1.0, 15)
    for x in (*points, panel, np.array(points), np.array([])):
        assert _outcome(evaluate, f, x) == _outcome(ref_evaluate, f, x)


@settings(max_examples=3 * EXAMPLES, deadline=None)
@given(TREES, st.sampled_from(INTERVALS))
@example(parse("-sqrt(sqrt(x)) + 2/(x - 3) - 0.5/(x^2 + 1)"), INTERVALS[0])
@example(parse("sqrt(exp(-800*x)) + 3/sqrt(x + 1) - 1/log(x + 2)"), INTERVALS[0])
@example(parse("(x + 3)^-0.5 - 2*sqrt(log(x + 3)) + 1/(x - 2)"), INTERVALS[5])
@example(parse("exp(709) + x"), INTERVALS[0])      # exp's argument reaches 709: refused
def test_walks_shape_as_the_reference(f, iv):
    """_shape of the tree and of each subtree, kept by the walk or computed afresh, is the
    reference's on each interval."""
    assert _bits(expr._shape(f, iv)) == _bits(ref_shape(f, iv))
    for e in _subtrees(f):
        assert _bits(expr._shape(e, iv)) == _bits(ref_shape(e, iv))


@settings(max_examples=3 * EXAMPLES, deadline=None)
@given(TREES)
@example(parse("2*(x - 0.5*exp(x)) - 3*x*0.25 + 1"))
@example(parse("(0*x + 2)^3 - exp(x - x)"))
def test_walks_linear_and_exact_at_zero_as_the_reference(f):
    """_linear's forms, their terms in order, and _exact_at_zero's values at 0 are the
    reference's for the tree and each subtree, or both raise the same."""
    for e in (f, *_subtrees(f)):
        assert _outcome(expr._linear, e) == _outcome(ref_linear, e)
        assert _outcome(expr._exact_at_zero, e) == _outcome(ref_exact_at_zero, e)


@settings(max_examples=3 * EXAMPLES, deadline=None)
@given(TREES, st.sampled_from([1.0, 0.5, -1.0, 2.0, 1e308, 1e-300, 0.0, -0.0]),
       st.sampled_from([0.0, -0.0, 1.0, -3.0, 1e308]))
def test_walks_compose_affine_as_the_reference(f, p, q):
    """compose_affine's tree, node by node and field by field, is the reference's."""
    assert _outcome(compose_affine, f, p, q) == _outcome(ref_compose_affine, f, p, q)
