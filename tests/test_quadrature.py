from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import any_tree
from hhcert import quadrature
from hhcert.expr import (Abs, Add, Const, Div, DomainError, Exp, Interval, Log, Mul, Pow,
                         Sqrt, Sub, X, evaluate, parse)
from hhcert.quadrature import MAX_PANELS, IntegralResult, NonConvergence, integrate

UNIT = Interval(0.0, 1.0)


def test_worked_examples():
    r = integrate(parse("x^2"), UNIT)
    assert r.value == pytest.approx(1.0 / 3.0, abs=1e-14)
    r = integrate(parse("1"), UNIT)
    assert r.value == pytest.approx(1.0, abs=1e-15)
    r = integrate(parse("exp(x)"), UNIT)
    assert r.value == pytest.approx(math.e - 1.0, abs=1e-13)


def test_result_fields():
    r = integrate(parse("x^2"), UNIT)
    assert isinstance(r, IntegralResult)
    assert r.error_bound >= 0.0
    assert r.subdivisions >= 1
    # a single Gauss-Kronrod panel is exact for low-degree polynomials
    assert r.subdivisions == 1


def _poly_expr(coeffs):
    expr = Const(float(coeffs[0]))
    for k, c in enumerate(coeffs[1:], start=1):
        expr = Add(expr, Mul(Const(float(c)), Pow(X, float(k))))
    return expr


def _poly_integral(coeffs, a, b):
    def anti(x):
        acc = 0.0
        for k, c in enumerate(coeffs):
            acc += c * x ** (k + 1) / (k + 1)
        return acc
    return anti(b) - anti(a)


def test_random_polynomials_match_antiderivative():
    rng = np.random.default_rng(911)
    for _ in range(20):
        deg = int(rng.integers(0, 9))
        coeffs = rng.uniform(-10.0, 10.0, size=deg + 1)
        want = _poly_integral(coeffs, 0.0, 1.0)
        got = integrate(_poly_expr(coeffs), UNIT)
        assert abs(got.value - want) <= 1e-10


def test_negative_and_shifted_intervals():
    r = integrate(parse("x^3"), Interval(-1.0, 1.0))
    assert r.value == pytest.approx(0.0, abs=1e-14)
    r = integrate(parse("1/x"), Interval(1.0, math.e))
    assert r.value == pytest.approx(1.0, abs=1e-12)


def test_interval_additivity():
    f = parse("exp(x) + x^4")
    tol = 1e-10
    whole = integrate(f, Interval(0.0, 2.0), tol).value
    left = integrate(f, Interval(0.0, 0.7), tol).value
    right = integrate(f, Interval(0.7, 2.0), tol).value
    assert abs(whole - (left + right)) <= 3.0 * tol


def test_linearity():
    f = parse("x^2")
    g = parse("exp(x)")
    combined = integrate(parse("2*x^2 + 3*exp(x)"), UNIT).value
    split = 2.0 * integrate(f, UNIT).value + 3.0 * integrate(g, UNIT).value
    assert abs(combined - split) <= 1e-12


def test_kink_subdivides_and_converges():
    # |x - 1/3| integrates to 5/18; the kink forces subdivision
    r = integrate(parse("abs(x - 0.333333333333)"), UNIT)
    want = 5.0 / 18.0
    assert r.value == pytest.approx(want, abs=1e-9)
    assert r.subdivisions > 1


def test_sqrt_converges():
    r = integrate(parse("sqrt(x)"), UNIT)
    assert r.value == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_deterministic_bitwise():
    f = parse("exp(x)*x^2 + sqrt(x + 1)")
    r1 = integrate(f, Interval(0.0, 3.0))
    r2 = integrate(f, Interval(0.0, 3.0))
    assert r1.value == r2.value
    assert r1.error_bound == r2.error_bound
    assert r1.subdivisions == r2.subdivisions


def test_tol_scales_error_bound():
    f = parse("sqrt(x)")
    loose = integrate(f, UNIT, 1e-6)
    tight = integrate(f, UNIT, 1e-12)
    assert tight.error_bound <= loose.error_bound
    assert tight.subdivisions >= loose.subdivisions


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_rejects_tolerance_not_positive_and_finite(tol):
    # an infinite tol would accept the first panel whatever its error
    with pytest.raises(ValueError, match="positive and finite"):
        integrate(parse("x^2"), UNIT, tol)


def test_non_convergence_raises():
    with pytest.raises(NonConvergence):
        integrate(parse("sqrt(x)"), UNIT, 1e-15, max_panels=4)
    # the Kronrod sums of 1.7e308 overflow to inf, so no panel is accepted;
    # numpy stays silent while the budget runs out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence):
            integrate(parse("1.7e308"), UNIT, max_panels=64)


def test_panel_budget_large_enough_for_rough_integrand():
    # same integrand converges once the budget is realistic
    r = integrate(parse("sqrt(x)"), UNIT, 1e-12)
    assert r.value == pytest.approx(2.0 / 3.0, abs=1e-10)


# ------------------------- prefetch equivalence -------------------------

def _reference_integrate(f, iv, tol=quadrature.QUAD_TOL_DEFAULT, max_panels=MAX_PANELS):
    """The stack loop without prefetch: one 15-point evaluate call per panel."""
    width = iv.width
    stack = [(iv.lo, iv.hi)]
    total = 0.0
    err_total = 0.0
    accepted = 0
    examined = 0
    while stack:
        a, b = stack.pop()
        examined += 1
        if examined > max_panels:
            raise NonConvergence(
                f"integral did not converge within {max_panels} panels")
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        fv = evaluate(f, mid + half * quadrature._NODES)
        with np.errstate(all="ignore"):
            k15 = float(np.dot(quadrature._W15, fv))
            g7 = float(np.dot(quadrature._W7, fv))
        value, err = half * k15, half * abs(k15 - g7)
        if err <= tol * (b - a) / width:
            total += value
            err_total += err
            accepted += 1
        else:
            stack.append((mid, b))
            stack.append((a, mid))
    return IntegralResult(total, err_total, accepted)


def _outcome(run, *args, **kwargs):
    """The result, or everything an exception carries; floats compare by bits."""
    try:
        r = run(*args, **kwargs)
    except (DomainError, NonConvergence) as exc:
        return (type(exc), str(exc), getattr(exc, "node", None), repr(getattr(exc, "x", None)))
    return (type(r), repr(r.value), repr(r.error_bound), r.subdivisions)


def _same_as_reference(f, iv, max_panels=None):
    budget = 4096 if max_panels is None else max_panels
    want = _outcome(_reference_integrate, f, iv, max_panels=budget)
    if max_panels is None and want[0] is not NonConvergence:
        # an outcome reached within 4096 panels is the default budget's too
        got = _outcome(integrate, f, iv)
    else:
        got = _outcome(integrate, f, iv, max_panels=budget)
    assert got[0] is want[0] and got[1:] == want[1:]
    if got[0] is DomainError:
        assert got[2] is want[2]   # the very node of f, not an equal one


_IVS = [UNIT, Interval(-1.0, 2.0), Interval(0.29, 0.31), Interval(-5.0, -1e-3),
        Interval(0.0, 1e-300), Interval(-1e300, 1e300)]


# any_tree's extreme constants end most integrals at the root; finite
# constants and a rough or singular term make most of these bisect
_ROUGH = [parse(t) for t in ("sqrt(x)", "log(x)", "1/(x - 0.25)", "x^-0.5", "abs(x - 0.3)",
                             "sqrt(abs(x - 0.3))", "log(abs(x + 0.7))", "abs(x + 0.7)^1.5",
                             "-log(1 - x)", "(1 - x)^-0.5", "-log(x - 2)", "-log(-x)")]


def _rough_tree():
    leaf = st.one_of(st.just(X), st.builds(Const, st.sampled_from([0.3, 1.0, -1.5, 2.0])))
    tame = st.recursive(leaf, lambda kids: st.one_of(
        *(st.builds(t, kids, kids) for t in (Add, Sub, Mul, Div)),
        *(st.builds(t, kids) for t in (Exp, Log, Sqrt, Abs))), max_leaves=6)
    return st.builds(Add, tame, st.sampled_from(_ROUGH))


_BUDGETS = st.sampled_from([1, 4, 64, None])
# twice the profile's examples: ten times more under the "proof-soundness" profile
PREFETCH_EXAMPLES = 2 * settings.default.max_examples


@settings(max_examples=PREFETCH_EXAMPLES, deadline=None)
@given(any_tree(), st.sampled_from(_IVS), _BUDGETS)
def test_prefetch_matches_panel_by_panel_loop(f, iv, max_panels):
    _same_as_reference(f, iv, max_panels)


@settings(max_examples=PREFETCH_EXAMPLES, deadline=None)
@given(_rough_tree(), st.sampled_from(_IVS[:3]), _BUDGETS)
def test_prefetch_matches_on_rough_integrands(f, iv, max_panels):
    _same_as_reference(f, iv, max_panels)


@pytest.mark.parametrize("text, lo, hi", [
    ("log(x - 0.3)", 0.0, 1.0), ("sqrt(x - 0.5)", 0.0, 1.0), ("1/(x - 0.25)", 0.0, 1.0),
    ("x^-0.5", 0.0, 1.0), ("abs(x - 0.7508)", 0.0, 1.0), ("sqrt(x)", 0.0, 1.0),
    ("exp(x)*x^2 + sqrt(x + 1)", 0.0, 3.0), ("log(x)", 1e-3, 2.0),
    # singular at the right end, or at an end other than 0
    ("-log(1 - x)", 0.0, 1.0), ("(1 - x)^-0.5", 0.0, 1.0), ("-log(x - 2)", 2.0, 3.0),
    ("-log(-x)", -1.0, 0.0), ("-1.2345*log(x)", 0.0, 1.0),
    # toward b, the far panel at depth 490 fails and its subtree meets x = -c as panel 991,
    # before the near panels below it: at budgets from 991 on this ends in that DomainError
    ("-log(-x) - log(abs(x + 4.105834472543469e-148))", -1.0, 0.0)])
# -1.2345*log(x) walks chains toward 0 of 6, 12, 24, 48 and then 64 levels, and examines
# 2135 panels: near the end the one at depth d as panel d + 1, far from it as 2136 - d;
# -log(-x) walks them toward 0 at its right end, the far panel at depth d as panel 2d and
# the near one as 2d + 1.  From 13 on, each budget but the last runs out inside a chain
# walk of one of them: in the first block (13), the last (1000, 1100 and 2000 toward a),
# a middle one (1000 toward b, 1600) or the first far run (2126); 2135 is the exact total
@pytest.mark.parametrize("max_panels", [1, 5, 1000, None, 13, 1100, 1600, 2000, 2126, 2135])
def test_prefetch_matches_on_domain_edges(text, lo, hi, max_panels):
    _same_as_reference(parse(text), Interval(lo, hi), max_panels)


def _counting_evaluate(monkeypatch):
    """Count quadrature's evaluate calls, and the ones that raise."""
    counts = {"calls": 0, "raised": 0}

    def counted(f, x):
        counts["calls"] += 1
        try:
            return evaluate(f, x)
        except DomainError:
            counts["raised"] += 1
            raise

    monkeypatch.setattr(quadrature, "evaluate", counted)
    return counts


def test_log_chain_prefetch_drops_domain_errors(monkeypatch):
    # the panels at 0 bisect to subnormal widths, 1068 levels deep; the last
    # prefetches reach x = 0 below the examined panels, and the integral
    # still succeeds, twice to the same bits
    f = parse("-1.2345*log(x)")
    want = _outcome(_reference_integrate, f, UNIT)
    assert want[0] is IntegralResult and want[3] == 1068
    counts = _counting_evaluate(monkeypatch)
    assert _outcome(integrate, f, UNIT) == want == _outcome(integrate, f, UNIT)
    assert counts["raised"] > 0


def test_prefetch_cuts_evaluate_calls(monkeypatch):
    counts = _counting_evaluate(monkeypatch)
    for text, iv in (("-1.2345*log(x)", UNIT), ("-log(-x)", Interval(-1.0, 0.0)),
                     ("-log(x)", Interval(0.0, 1e-3))):
        counts["calls"] = 0
        integrate(parse(text), iv)
        assert counts["calls"] <= 31    # chains toward 0; one call per panel makes 2135
    counts["calls"] = 0
    assert integrate(parse("exp(x)+x^2"), UNIT).subdivisions == 1
    assert counts["calls"] == 1     # the root is evaluated alone


# tree_calls: the evaluate calls of a prefetch that fetches only depth-3 trees; the last
# four, singular only away from 0, fetch no chain and make the same calls
@pytest.mark.parametrize("text, lo, hi, max_panels, tree_calls", [
    ("x^-0.5", 0.0, 1.0, MAX_PANELS, 362), ("-1.3*sqrt(x)", 0.0, 1.0, MAX_PANELS, 16),
    ("log(abs(x - 0.01))", 0.0, 1.0, 4096, 799),
    ("-log(x - 2)", 2.0, 3.0, MAX_PANELS, 21), ("(1 - x)^-0.5", 0.0, 1.0, 4096, 495),
    ("-log(1 - x)", 0.0, 1.0, MAX_PANELS, 7213), ("-1.2345*log(1 - x)", 0.0, 1.0, MAX_PANELS, 8007)])
def test_chain_prefetch_makes_no_more_calls_than_trees(monkeypatch, text, lo, hi, max_panels,
                                                       tree_calls):
    counts = _counting_evaluate(monkeypatch)
    try:
        integrate(parse(text), Interval(lo, hi), max_panels=max_panels)
    except (DomainError, NonConvergence):    # nodes round onto the end, or the budget runs out
        pass
    assert counts["calls"] <= tree_calls


def test_prefetch_calls_stay_bounded_when_far_panels_fail(monkeypatch):
    # x on [0, 1e308]: every far panel of the chains toward 0 fails its error test and is
    # bisected in trees until the budget runs out; fetching one block per tree or chain
    # makes 543 and 1,564 calls here, and walking a chain must add none
    counts = _counting_evaluate(monkeypatch)
    for max_panels, calls in ((4096, 543), (65536, 1564)):
        counts["calls"] = 0
        with pytest.raises(NonConvergence, match=f"within {max_panels} panels"):
            integrate(X, Interval(0.0, 1e308), max_panels=max_panels)
        assert counts["calls"] <= calls


# both signs, magnitudes up to 1e300, subnormals and zeros of both signs
_ROW_VALUES = st.floats(-1e300, 1e300, allow_subnormal=True)
_ROWS = st.integers(1, 8).flatmap(
    lambda n: arrays(np.float64, (n, 15), elements=_ROW_VALUES, fill=st.nothing()))


@settings(max_examples=PREFETCH_EXAMPLES, deadline=None)
@given(_ROWS, st.one_of(st.just(None), _ROW_VALUES))
def test_prefetch_block_sums_are_np_dot_of_each_row(rows, constant):
    # one vecdot for a block gives both rules' sums of each row as np.dot gives them on
    # that row alone, which the panel-by-panel loop takes; a constant's rows are a
    # broadcast view, which np.dot copies first
    if constant is not None:
        rows = np.broadcast_to(np.float64(constant), rows.shape)
    mid = np.full(len(rows), 0.5)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(quadrature, "evaluate", lambda f, x: rows)
        sums = quadrature._sums(X, mid, mid)
    assert sums.shape == (len(rows), 2)
    for row, (k15, g7) in zip(rows, sums):
        assert k15.tobytes() == np.dot(quadrature._W15, row).tobytes()
        assert g7.tobytes() == np.dot(quadrature._W7, row).tobytes()
