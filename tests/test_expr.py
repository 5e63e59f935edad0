from __future__ import annotations

import dataclasses
import math
import pickle
import re
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhcert import expr
from hhcert.expr import (Abs, Add, Const, Div, DomainError, Exp, Interval, Log,
                         Mul, ParseError, Pow, Sqrt, Sub, Var, X,
                         compose_affine, evaluate, lin_comb, parse, to_string)

from conftest import SPECIAL, any_tree

# ------------------------- parsing -------------------------


def test_parse_atoms():
    assert parse("x") == X
    assert parse("3") == Const(3.0)
    assert parse("2.5e-1") == Const(0.25)
    assert parse(".5") == Const(0.5)
    assert parse("1.7e308") == Const(1.7e308)
    assert parse("1e-999") == Const(0.0)         # underflow reads as 0; overflow is refused
    assert parse("e") == Const(math.e)
    assert parse("pi") == Const(math.pi)


def test_parse_precedence_shapes():
    assert parse("x + 2*x") == Add(X, Mul(Const(2.0), X))
    assert parse("2*x^3") == Mul(Const(2.0), Pow(X, 3.0))
    assert parse("(x + 1)^2") == Pow(Add(X, Const(1.0)), 2.0)
    assert parse("x - 1 - 2") == Sub(Sub(X, Const(1.0)), Const(2.0))
    assert parse("x/2/4") == Div(Div(X, Const(2.0)), Const(4.0))


def test_parse_unary_minus_binds_below_pow():
    # -x^2 is -(x^2), matching the usual convention
    assert parse("-x^2") == Mul(Const(-1.0), Pow(X, 2.0))
    assert evaluate(parse("-x^2"), 3.0) == -9.0
    assert parse("2 - -x") == Sub(Const(2.0), Mul(Const(-1.0), X))


def test_parse_negative_exponent_literal():
    assert parse("x^-2") == Pow(X, -2.0)
    assert parse("x^2.5") == Pow(X, 2.5)
    assert parse("x^-1e-999") == Pow(X, -0.0)


def test_parse_functions():
    assert parse("exp(x)") == Exp(X)
    assert parse("log(x)") == Log(X)
    assert parse("sqrt(x)") == Sqrt(X)
    assert parse("abs(x)") == Abs(X)
    assert parse("exp(-x^2)") == Exp(Mul(Const(-1.0), Pow(X, 2.0)))


EXPECTED_NUMBER = "expected a number, 'x', a constant, a function call, or '('"
PARSE_ERRORS = [
    ("x +", 3, EXPECTED_NUMBER),
    ("x^(", 2, "expected a numeric exponent"),      # exponent must be a numeric literal
    ("(x + 1", 6, "expected ')'"),
    ("x y", 2, "unexpected trailing input"),
    ("sin(x)", 0, "unknown identifier 'sin'"),
    ("exp x", 4, "expected '('"),
    ("", 0, EXPECTED_NUMBER),
    ("x @ 2", 2, "unexpected character '@'"),
    ("x^1e999", 2, "number out of range"),
    ("2*1e999 @", 2, "number out of range"),
    ("x^-2e308", 3, "number out of range"),
]


@pytest.mark.parametrize("text, offset, message", PARSE_ERRORS,
                         ids=[f"{text}-{offset}" for text, offset, _ in PARSE_ERRORS])
def test_parse_errors_carry_offset(text, offset, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.offset == offset
    assert str(exc.value) == f"{message} (at offset {offset})"


DEPTH = 230


@pytest.mark.parametrize("opening, printed", [("(", "x"), ("exp(", "exp(" * DEPTH + "x" + ")" * DEPTH)],
                         ids=["parentheses", "exp"])
def test_parse_nesting_limit(opening, printed):
    # each nesting level costs the parser a fixed number of frames: at the default
    # recursion limit a fresh thread parses 248 levels, and one frame more per level
    # would bring that below DEPTH
    result = []
    text = opening * DEPTH + "x" + ")" * DEPTH
    thread = threading.Thread(target=lambda: result.append(to_string(parse(text))))
    thread.start()
    thread.join(timeout=10)
    assert result == [printed]


def test_readme_grammar_lists_the_tables():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rules = dict(re.findall(r"^(\w+)\s+:= (.*)$", readme, re.M))
    assert rules["func"].split(" | ") == sorted(expr._FUNCTIONS)
    assert all(f'"{name}"' in rules["base"].split(" | ") for name in expr._CONSTANTS)


# ------------------------- evaluation -------------------------


def test_evaluate_scalar_basics():
    f = parse("x^2 + exp(x)")
    assert evaluate(f, 1.0) == pytest.approx(1.0 + math.e, rel=1e-15)
    assert isinstance(evaluate(f, 1.0), float)
    assert evaluate(parse("abs(x - 1)"), 0.25) == 0.75
    assert evaluate(parse("sqrt(x)"), 4.0) == 2.0
    assert evaluate(parse("log(x)"), math.e) == pytest.approx(1.0, rel=1e-15)


def test_evaluate_array_matches_scalar():
    f = parse("x^3 - 2*x + 1/(x + 2)")
    xs = np.linspace(-1.0, 1.0, 17)
    out = evaluate(f, xs)
    assert isinstance(out, np.ndarray)
    assert out.shape == xs.shape
    for xi, oi in zip(xs, out):
        assert oi == evaluate(f, float(xi))


def test_evaluate_constant_broadcasts():
    out = evaluate(Const(3.0), np.zeros((2, 5)))
    assert out.shape == (2, 5)
    assert np.all(out == 3.0)


@pytest.mark.parametrize("text", ["x", "3", "2*3 - exp(1)", "abs(x)", "x^2 + 1", "x + 0"])
def test_evaluate_array_result_is_read_only(text):
    """An array result has the points' shape and cannot be written; it aliases
    the caller's points only for a bare x, as a read-only view, and a
    constant is broadcast, not copied."""
    pts = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    out = evaluate(parse(text), pts)
    assert out.shape == pts.shape and out.dtype == np.float64
    assert not out.flags.writeable
    with pytest.raises(ValueError):
        out[0, 0] = 7.0
    assert pts.flags.writeable and pts[0, 0] == -1.0
    assert np.shares_memory(out, pts) == (text == "x")
    assert (out.strides == (0, 0)) == (text in ("3", "2*3 - exp(1)"))


def test_integer_power_zero_and_negative_base():
    assert evaluate(Pow(X, 2.0), -3.0) == 9.0
    assert evaluate(Pow(X, 3.0), -2.0) == -8.0
    assert evaluate(Pow(X, 2.0), 0.0) == 0.0


@pytest.mark.parametrize("expr_text, bad_x, reason_part", [
    ("1/x", 0.0, "division by zero"),
    ("log(x)", 0.0, "log"),
    ("log(x)", -1.0, "log"),
    ("sqrt(x)", -0.5, "sqrt"),
    ("x^-1", 0.0, "zero base"),
    ("x^0.5", -1.0, "fractional exponent"),
])
def test_domain_errors_scalar(expr_text, bad_x, reason_part):
    f = parse(expr_text)
    with pytest.raises(DomainError) as exc:
        evaluate(f, bad_x)
    assert reason_part in exc.value.reason
    assert exc.value.x == bad_x


def test_domain_error_array_reports_offending_point():
    f = parse("log(x)")
    xs = np.array([1.0, 2.0, -3.0, 4.0])
    with pytest.raises(DomainError) as exc:
        evaluate(f, xs)
    assert exc.value.x == -3.0


def test_overflow_is_a_domain_error():
    f = parse("exp(x)")
    with pytest.raises(DomainError) as exc:
        evaluate(f, 1e6)
    assert "non-finite" in exc.value.reason


# ------------------------- composition -------------------------


def test_compose_affine_identity_shortcut():
    f = parse("x^2 + 1")
    assert compose_affine(f, 1.0, 0.0) is f


def test_compose_affine_pointwise():
    f = parse("x^2 + exp(x)")
    g = compose_affine(f, 2.0, -1.0)
    for x in (-1.0, 0.0, 0.3, 2.0):
        assert evaluate(g, x) == evaluate(f, 2.0 * x - 1.0)


def test_compose_affine_composes():
    # composing two affine substitutions collapses to one
    f = parse("x^3 - x")
    g = compose_affine(compose_affine(f, 2.0, 1.0), 3.0, -4.0)
    h = compose_affine(f, 6.0, -7.0)
    for x in np.linspace(-2.0, 2.0, 9):
        assert evaluate(g, float(x)) == pytest.approx(
            evaluate(h, float(x)), rel=1e-14, abs=1e-14)


def test_lin_comb():
    f = parse("x^2")
    g = parse("x")
    h = lin_comb(2.0, f, -3.0, g)
    assert evaluate(h, 2.0) == 2.0 * 4.0 - 3.0 * 2.0


def test_affine_arg_prints_substituted():
    f = compose_affine(parse("x^2"), 2.0, 1.0)
    s = to_string(f)
    assert "(" in s
    assert evaluate(parse(s), 0.7) == pytest.approx(evaluate(f, 0.7), rel=1e-14)
    nested = compose_affine(compose_affine(parse("x^2"), 2.0, 0.0), 1.0, 1.0)
    assert to_string(nested) == "(2*(1*x + 1) + 0)^2"
    g = compose_affine(parse("exp(x)/(1+x) - x^3"), 0.5, -0.25)
    assert to_string(g) == ("exp(0.5*x + -0.25)/(1 + (0.5*x + -0.25)) - "
                            "(0.5*x + -0.25)^3")


# ------------------------- printing round trip -------------------------


def _expr_strategy():
    leaf = st.sampled_from([X, Const(0.0), Const(1.0), Const(2.5),
                            Const(-1.5), Const(math.pi)])

    def extend(children):
        unary = st.builds(lambda a, k: k(a), children,
                          st.sampled_from([Exp, Log, Sqrt, Abs]))
        binary = st.builds(lambda a, b, k: k(a, b), children, children,
                           st.sampled_from([Add, Sub, Mul, Div]))
        powed = st.builds(Pow, children,
                          st.sampled_from([2.0, 3.0, -1.0, 0.5]))
        return st.one_of(unary, binary, powed)

    return st.recursive(leaf, extend, max_leaves=12)


def _eval_or_error(f, x):
    try:
        return ("ok", evaluate(f, x))
    except DomainError:
        return ("domain_error", None)


@settings(max_examples=150, deadline=None)
@given(_expr_strategy())
def test_print_parse_round_trip(f):
    text = to_string(f)
    g = parse(text)
    for x in np.linspace(-2.0, 2.0, 9):
        tag_f, val_f = _eval_or_error(f, float(x))
        tag_g, val_g = _eval_or_error(g, float(x))
        assert tag_f == tag_g
        if tag_f == "ok":
            assert val_g == pytest.approx(val_f, rel=1e-12, abs=1e-12)


def test_printer_examples():
    assert to_string(parse("x^2 + 1")) == "x^2 + 1"
    assert to_string(parse("2*x^3 - x")) == "2*x^3 - x"
    assert to_string(parse("exp(x)/(1 + x)")) == "exp(x)/(1 + x)"
    assert to_string(Mul(Add(X, Const(1.0)), Const(2.0))) == "(x + 1)*2"


# ------------------------- misc types -------------------------


def test_nodes_are_immutable():
    f = Add(X, Const(1.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.left = Const(2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        Const(1.0).value = 2.0


def test_nodes_hashable_and_comparable():
    f = parse("1/x + 1")
    evaluate(f, 1.0)        # caches the compiled tape on the node
    assert pickle.loads(pickle.dumps(f)) == f
    assert hash(parse("x + 1")) == hash(parse("x + 1"))
    assert parse("x + 1") == parse("x + 1")
    assert parse("x + 1") != parse("1 + x")
    assert Var() == Var()


def test_interval_validation():
    iv = Interval(-1.0, 3.0)
    assert iv.width == 4.0
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, -2.0)
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            Interval(lo, hi)
    with pytest.raises(ValueError, match="width"):
        Interval(-1e308, 1e308)      # finite ends, but hi - lo overflows
    with pytest.raises(dataclasses.FrozenInstanceError):
        iv.lo = 0.0


def test_affine_arg_evaluates_nested():
    inner = compose_affine(parse("x^2"), 2.0, 0.0)
    outer = compose_affine(inner, 1.0, 1.0)     # x -> inner(x + 1) = (2(x+1))^2
    assert evaluate(outer, 1.0) == 16.0


def test_compose_affine_ignored_argument_is_not_evaluated():
    # p*x overflows at x = 10, but a constant never reads its argument
    assert evaluate(compose_affine(Const(2.0), 1e308, 0.0), 10.0) == 2.0


# ------------------------- fast pass against strict checking -------------------------

def _walk(f, x):
    """Reference: a recursive walk that checks every intermediate result, in
    the order evaluate documents (a Div's denominator first)."""
    xv = np.asarray(x, dtype=float)

    def fail(reason, node, bad):
        m = np.broadcast_to(bad, xv.shape).ravel()
        raise DomainError(reason, node, float(xv.ravel()[int(np.argmax(m))]))

    def fin(v, node):
        if not np.all(np.isfinite(v)):
            fail("non-finite value", node, ~np.isfinite(v))
        return v

    def dom(bad, reason, node):
        if np.any(bad):
            fail(reason, node, bad)

    def ev(node):
        match node:
            case Const(v):
                return fin(v, node)
            case Var():
                return xv
            case Add(l, r):
                return fin(ev(l) + ev(r), node)
            case Sub(l, r):
                return fin(ev(l) - ev(r), node)
            case Mul(l, r):
                return fin(ev(l) * ev(r), node)
            case Div(l, r):
                den = ev(r)
                dom(den == 0.0, "division by zero", node)
                return fin(ev(l) / den, node)
            case Pow(b, e):
                base = ev(b)
                if not float(e).is_integer():
                    dom(base <= 0.0, "non-positive base with fractional exponent", node)
                elif e < 0:
                    dom(base == 0.0, "zero base with negative exponent", node)
                return fin(np.power(base, e), node)
            case Exp(a):
                return fin(np.exp(ev(a)), node)
            case Log(a):
                v = ev(a)
                dom(v <= 0.0, "log of non-positive value", node)
                return fin(np.log(v), node)
            case Sqrt(a):
                v = ev(a)
                dom(v < 0.0, "sqrt of negative value", node)
                return fin(np.sqrt(v), node)
            case Abs(a):
                return np.abs(ev(a))

    with np.errstate(all="ignore"):
        out = ev(f)
    return float(out) if xv.ndim == 0 else np.broadcast_to(np.asarray(out, dtype=float), xv.shape)


def _strict(f, x):
    """The tape run in strict mode alone, with no fast pass."""
    xv = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        out = expr._run(expr._compile(f), xv, expr._STRICT)
    return float(out) if xv.ndim == 0 else np.broadcast_to(np.asarray(out, dtype=float), xv.shape)


def _outcome(fn, *args):
    """Result bits (the sign of zero and NaN payloads included), or the
    error's reason, node identity and witness bits."""
    try:
        return ("value", np.asarray(fn(*args), dtype=float).tobytes())
    except DomainError as exc:
        return ("error", exc.reason, id(exc.node), np.float64(exc.x).tobytes())
    except ValueError as exc:   # a failing check with no point to report
        return ("no witness", str(exc))


@pytest.mark.parametrize("f, x", [
    (compose_affine(Div(Const(1.0), X), 1e308, 0.0), 10.0),   # 1/(1e308*10) = 0
    (Div(X, Const(math.inf)), 1.0),                 # x/inf = 0
    (Div(X, Mul(X, Const(1e-308))), 1e-20),         # division by an underflow
    (Exp(Mul(Const(-1.0), Exp(X))), 800.0),         # exp(-inf) = 0
    (Pow(Exp(X), 0.0), 800.0),                      # inf^0 = 1
    (Pow(Exp(X), -1.0), 800.0),                     # inf^-1 = 0
    (Add(X, Mul(Const(1e300), Const(1e300))), np.array([])),   # no point to carry inf
    (Abs(X), math.inf),                             # Var and Abs go unchecked
])
def test_fast_pass_keeps_strict_errors(f, x):
    assert _outcome(evaluate, f, x) == _outcome(_walk, f, x) == _outcome(_strict, f, x)


@settings(max_examples=400, deadline=None)
@given(any_tree(), st.sampled_from(SPECIAL + [-0.75, 3.0, 1e-310, 700.0]))
def test_fast_pass_matches_strict_run(f, x):
    expected = _outcome(_walk, f, x)
    assert _outcome(_strict, f, x) == expected
    assert _outcome(evaluate, f, x) == expected


@settings(max_examples=150, deadline=None)
@given(any_tree())
def test_array_evaluation_matches_pointwise(f):
    """A panel and a grid cube give, at each point, the scalar evaluation's
    bits, or fail as that point does."""
    panel = np.linspace(-1.5, 2.0, 15)
    ts = np.linspace(0.0, 1.0, 3)[None, None, :]
    xs = np.linspace(0.0, 2.0, 4)
    cube = ts * xs[:, None, None] + (0.5 * (1.0 - ts)) * xs[None, :, None]
    for points in (panel, cube):
        got = _outcome(evaluate, f, points)
        assert got == _outcome(_walk, f, points)
        if got[0] == "error":
            assert _outcome(evaluate, f, float(np.frombuffer(got[3])[0]))[:3] == got[:3]
        else:
            pointwise = [evaluate(f, float(p)) for p in points.ravel()]
            assert np.asarray(pointwise).tobytes() == np.frombuffer(got[1]).tobytes()
