from __future__ import annotations

import math

import numpy as np
import pytest

from hhcert.expr import Add, Const, Interval, Mul, Pow, X, parse
from hhcert.quadrature import IntegralResult, NonConvergence, integrate

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


def test_panel_budget_large_enough_for_rough_integrand():
    # same integrand converges once the budget is realistic
    r = integrate(parse("sqrt(x)"), UNIT, 1e-12)
    assert r.value == pytest.approx(2.0 / 3.0, abs=1e-10)
