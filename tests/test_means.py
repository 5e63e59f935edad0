from __future__ import annotations

import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from hhcert.means import (EPS_R, MeanBranchTag, _power_mean_raw, gen_log_mean,
                          power_mean)

positive = st.floats(min_value=0.05, max_value=50.0,
                     allow_nan=False, allow_infinity=False)
weights = st.floats(min_value=0.0, max_value=1.0,
                    allow_nan=False, allow_infinity=False)
orders = st.floats(min_value=-6.0, max_value=6.0,
                   allow_nan=False, allow_infinity=False)

# ------------------------- power mean -------------------------


def test_power_mean_worked_values():
    # harmonic mean of 2 and 4: 2 / (1/2 + 1/4) = 8/3
    assert power_mean(2.0, 4.0, 0.5, -1.0) == pytest.approx(8.0 / 3.0, rel=1e-15)
    # geometric mean of 1 and 4
    assert power_mean(1.0, 4.0, 0.5, 0.0) == pytest.approx(2.0, rel=1e-15)
    # arithmetic mean
    assert power_mean(3.0, 5.0, 0.5, 1.0) == pytest.approx(4.0, rel=1e-15)
    # quadratic mean of 1 and 7 with weight 0.5: sqrt(25) = 5
    assert power_mean(1.0, 7.0, 0.5, 2.0) == pytest.approx(5.0, rel=1e-15)
    # weight moves the mean toward the first argument
    assert power_mean(2.0, 8.0, 1.0, 1.0) == 2.0
    assert power_mean(2.0, 8.0, 0.0, 1.0) == 8.0


def test_power_mean_endpoints_exact():
    for r in (-2.0, -1.0, 0.0, 0.5, 1.0, 3.0):
        assert power_mean(1.23456, 7.89, 1.0, r) == 1.23456
        assert power_mean(1.23456, 7.89, 0.0, r) == 7.89


def test_power_mean_diagonal_exact():
    for r in (-2.0, 0.0, 1.7):
        for lam in (0.0, 0.3, 1.0):
            assert power_mean(0.7, 0.7, lam, r) == 0.7


@given(positive, positive, weights, orders)
@settings(max_examples=200, deadline=None)
def test_power_mean_internal(x, y, lam, r):
    v = power_mean(x, y, lam, r)
    assert min(x, y) <= v <= max(x, y)


# every positive finite double, its ends and the top of the range drawn often
any_positive = (st.floats(min_value=5e-324, max_value=sys.float_info.max)
                | st.sampled_from([5e-324, 1e-310, sys.float_info.min, 1.0,
                                   1e308, 1.7e308, sys.float_info.max]))
# both sides of the branch cuts at EPS_R and 0.25
_CUTS = [c for v in (EPS_R, 0.25) for c in (math.nextafter(v, 0.0), v, math.nextafter(v, 1.0))]
any_order = (st.floats(min_value=-1e300, max_value=1e300)
             | st.sampled_from([0.0] + _CUTS + [-c for c in _CUTS]))


@given(st.lists(st.tuples(any_positive, any_positive, weights), min_size=1, max_size=8),
       any_order)
@settings(max_examples=200, deadline=None)
def test_power_mean_raw_is_finite_and_internal(xyl, r):
    """A power mean of positive finite values never needs a NaN path."""
    x, y, lam = np.array(xyl).T
    res = _power_mean_raw(x, y, lam, r)
    assert np.isfinite(res).all()
    assert (np.minimum(x, y) <= res).all() and (res <= np.maximum(x, y)).all()


@given(st.lists(any_positive, min_size=1, max_size=6), any_order, st.sampled_from([3, 5, 17]))
@settings(max_examples=200, deadline=None)
def test_power_mean_raw_grid_out_has_the_same_bits(fx, r, n_lambda):
    """The grid form, built in out with its endpoints taken by slicing, is
    bit for bit the broadcasting form."""
    x, y = np.array(fx)[:, None, None], np.array(fx)[None, :, None]
    ts = np.linspace(0.0, 1.0, n_lambda)
    want = _power_mean_raw(x, y, ts, r)
    got = _power_mean_raw(x, y, ts, r, out=np.empty(want.shape))
    assert got.tobytes() == want.tobytes()


@given(positive, positive, weights, orders)
@settings(max_examples=200, deadline=None)
def test_power_mean_symmetry(x, y, lam, r):
    # a lam for which 1 - lam is exact, so the mirrored call gets the
    # mirrored weight
    lam = 1.0 - (1.0 - lam)
    a = power_mean(x, y, lam, r)
    b = power_mean(y, x, 1.0 - lam, r)
    assert b == pytest.approx(a, rel=1e-13)


@given(positive, positive, weights, orders)
@settings(max_examples=200, deadline=None)
def test_power_mean_matches_mpmath(x, y, lam, r):
    # |r| < EPS_R is the geometric branch by definition
    with mpmath.workdps(60):
        mx, my, ml, mr = (mpmath.mpf(v) for v in (x, y, lam, r))
        if abs(r) < EPS_R:
            want = mx ** ml * my ** (1 - ml)
        else:
            want = (ml * mx ** mr + (1 - ml) * my ** mr) ** (1 / mr)
        want = float(want)
    assert power_mean(x, y, lam, r) == pytest.approx(want, rel=1e-13)


def test_power_mean_monotone_in_order():
    # strictly increasing in r for distinct arguments and interior weight
    rs = (-4.0, -1.0, -0.25, 0.0, 0.25, 1.0, 2.0, 5.0)
    for x, y, lam in ((1.0, 4.0, 0.5), (0.2, 9.0, 0.25), (3.0, 3.5, 0.75)):
        vals = [power_mean(x, y, lam, r) for r in rs]
        for lo, hi in zip(vals, vals[1:]):
            assert hi - lo > -1e-12 * max(abs(lo), abs(hi))


def test_power_mean_branch_continuity_at_zero():
    for x, y, lam in ((0.5, 2.0, 0.3), (1.0, 10.0, 0.5)):
        base = power_mean(x, y, lam, 0.0)
        for r in (1e-7, -1e-7):
            assert abs(power_mean(x, y, lam, r) - base) <= 1e-5 * base


def test_power_mean_rejects_bad_arguments():
    with pytest.raises(ValueError):
        power_mean(0.0, 1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        power_mean(1.0, -2.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        power_mean(1.0, 2.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        power_mean(1.0, 2.0, 1.5, 1.0)


# ------------------------- generalized log mean -------------------------


def test_gen_log_mean_worked_values():
    # r = 2, x = 1, y = 2: (2/3) * (2^3 - 1) / (2^2 - 1) = 14/9
    mb = gen_log_mean(1.0, 2.0, 2.0)
    assert mb.tag is MeanBranchTag.GENERAL_R
    assert mb.value == pytest.approx(14.0 / 9.0, rel=1e-14)
    # r = 0 is the classic log mean: (x - y) / log(x/y)
    mb = gen_log_mean(math.e, 1.0, 0.0)
    assert mb.tag is MeanBranchTag.LOG_MEAN
    assert mb.value == pytest.approx(math.e - 1.0, rel=1e-14)
    # r = -1: x*y*log(x/y)/(x - y)
    mb = gen_log_mean(1.0, math.e, -1.0)
    assert mb.tag is MeanBranchTag.HARMONIC_LOG
    assert mb.value == pytest.approx(math.e / (math.e - 1.0), rel=1e-14)
    # r = 1 collapses to the arithmetic mean
    mb = gen_log_mean(3.0, 5.0, 1.0)
    assert mb.value == pytest.approx(4.0, rel=1e-14)


def test_gen_log_mean_diagonal():
    mb = gen_log_mean(2.5, 2.5, 3.7)
    assert mb.tag is MeanBranchTag.DIAGONAL
    assert mb.value == 2.5
    # just inside the relative threshold still counts as diagonal
    mb = gen_log_mean(1.0, 1.0 + 1e-13, 2.0)
    assert mb.tag is MeanBranchTag.DIAGONAL


def test_gen_log_mean_branch_tags():
    assert gen_log_mean(1.0, 2.0, 0.5 * EPS_R).tag is MeanBranchTag.LOG_MEAN
    assert gen_log_mean(1.0, 2.0, -1.0 + 0.5 * EPS_R).tag is MeanBranchTag.HARMONIC_LOG
    assert gen_log_mean(1.0, 2.0, 0.5).tag is MeanBranchTag.GENERAL_R


@given(positive, positive, orders)
@settings(max_examples=200, deadline=None)
def test_gen_log_mean_symmetry_and_internality(x, y, r):
    a = gen_log_mean(x, y, r).value
    b = gen_log_mean(y, x, r).value
    assert b == pytest.approx(a, rel=1e-13)
    assert min(x, y) <= a <= max(x, y)


def test_gen_log_mean_branch_continuity():
    for x, y in ((0.5, 2.0), (1.0, 10.0), (3.0, 3.1)):
        at0 = gen_log_mean(x, y, 0.0).value
        atm1 = gen_log_mean(x, y, -1.0).value
        for dr in (1e-7, -1e-7):
            assert abs(gen_log_mean(x, y, dr).value - at0) <= 1e-5 * at0
            assert abs(gen_log_mean(x, y, -1.0 + dr).value - atm1) <= 1e-5 * atm1


@pytest.mark.parametrize("x, y, r", [(1.0, 2.0, -2000.0), (2.0, 1.0, -2000.0),
                                     (1.0, 2.0, 2000.0), (2.0, 1.0, 2000.0),
                                     (1e20, 1.0, 50.0), (0.5, 3.0, -900.0)])
def test_gen_log_mean_large_orders(x, y, r):
    # each case, or its mirror, overflows the direct general-branch form
    with mpmath.workdps(50):
        mx, my, mr = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(r)
        want = float(mr / (mr + 1) * (mx ** (mr + 1) - my ** (mr + 1))
                     / (mx ** mr - my ** mr))
    mb = gen_log_mean(x, y, r)
    assert mb.tag is MeanBranchTag.GENERAL_R
    assert mb.value == pytest.approx(want, rel=1e-15)
    if (x, y, r) == (1.0, 2.0, -2000.0):
        assert mb.value == 1.0005002501250626


def _log_mean_mp(x: float, y: float, r: float) -> float:
    with mpmath.workdps(60):
        mx, my, mr = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(r)
        u = mpmath.log(mx) - mpmath.log(my)
        if r == 0.0:
            return float((mx - my) / u)
        if r == -1.0:
            return float(mx * my * u / (mx - my))
        return float(mr / (mr + 1) * (mx ** (mr + 1) - my ** (mr + 1))
                     / (mx ** mr - my ** mr))


@pytest.mark.parametrize("x, y, r", [
    (x, y, r)
    for x, y in [(2e10, 1e10), (1e10, 2e10), (1.0, 1e20), (1e20, 1.0),
                 (1e150, 1e170), (1.0, 1e15), (1e15, 1.0),
                 (1e-60, 1e-45), (1e-45, 1e-60), (1e153, 1e155), (1e155, 1e153)]
    for r in (0.0, -1.0, 0.5, 1020.0)
] + [(x, y, r) for x, y in [(1e-170, 2e-170), (2e-170, 1e-170)]
       for r in (0.0, -1.0, 0.5)])
def test_gen_log_mean_far_and_overflowing_inputs(x, y, r):
    # (2e10, 1e10, 1020) overflows to inf in a product without raising;
    # log1p(d / y) has no value for (1, 1e20), where d / y rounds to -1,
    # and loses digits of log(x/y) for (1, 1e15) and (1e-60, 1e-45), where
    # d / y is within 1e-15 of -1; x*y overflows for (1e150, 1e170), and
    # x*y*u at r = -1 overflows for (1e153, 1e155) and underflows for
    # (1e-170, 2e-170).  r = 1020 is left out there: its general form is
    # off by 6e-14 at (2e-170, 1e-170), from exp of a rounded 1021*u
    assert gen_log_mean(x, y, r).value == pytest.approx(_log_mean_mp(x, y, r),
                                                        rel=1e-14, abs=0.0)


def test_gen_log_mean_raises_without_a_finite_form():
    with pytest.raises(ValueError, match="overflows"):
        gen_log_mean(1e308, 5e-324, -0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite order"):
            gen_log_mean(1.0, 2.0, bad)


def test_gen_log_mean_rejects_nonpositive():
    with pytest.raises(ValueError):
        gen_log_mean(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gen_log_mean(1.0, -1.0, 1.0)


# ------------------------- cross-check: L_r is the lam-average of M_r ----


def _log_mean_quad_oracle(x: float, y: float, r: float) -> float:
    val, err = scipy.integrate.quad(lambda t: power_mean(x, y, t, r), 0.0, 1.0,
                                    epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-9
    return val


def test_log_mean_is_average_of_power_mean():
    rng = np.random.default_rng(2213)
    for _ in range(40):
        x = float(rng.uniform(0.1, 10.0))
        y = float(rng.uniform(0.1, 10.0))
        r = float(rng.uniform(-3.0, 3.0))
        got = gen_log_mean(x, y, r).value
        want = _log_mean_quad_oracle(x, y, r)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_log_mean_average_identity_at_special_orders():
    for x, y in ((0.3, 7.0), (2.0, 2.00001)):
        for r in (0.0, -1.0, 1.0, 2.0, -2.0):
            got = gen_log_mean(x, y, r).value
            want = _log_mean_quad_oracle(x, y, r)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_near_diagonal_stability():
    # values one ulp apart must not blow up through cancellation
    x = 1.0
    y = 1.0 + 1e-11        # beyond the diagonal threshold, worst case
    for r in (0.0, -1.0, 2.0, -3.0):
        v = gen_log_mean(x, y, r).value
        assert x <= v <= y
