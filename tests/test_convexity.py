from __future__ import annotations

import math

import numpy as np
import pytest

from hhcert.convexity import (DEFAULT_GRID, AlphaM, CheckResult, GridSpec,
                              NonPositiveFunction, RConvex, Witness,
                              alpha_m_gap_grid, check, check_alpha_m_convex,
                              check_dominated_alpha_m, check_dominated_r,
                              check_r_convex, construct_dominated_pair,
                              dominated_alpha_m_gap_grid, split_pair)
from hhcert.expr import Const, DomainError, Interval, evaluate, lin_comb, parse
from hhcert.means import power_mean

from conftest import atom_combination

UNIT = Interval(0.0, 1.0)
COARSE = GridSpec(2, 5)

# ------------------------- parameter types -------------------------


def test_class_params_validate():
    AlphaM(0.5, 1.0)
    AlphaM(1.0, 0.25)
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            AlphaM(bad, 1.0)
        with pytest.raises(ValueError):
            AlphaM(1.0, bad)
    RConvex(-3.0)   # any finite real order is fine
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            check(parse("exp(x)"), UNIT, RConvex(bad))
        with pytest.raises(ValueError):
            check_r_convex(parse("exp(x)"), UNIT, bad)


def test_grid_spec_validate():
    GridSpec(2, 3)
    with pytest.raises(ValueError):
        GridSpec(1, 5)
    with pytest.raises(ValueError):
        GridSpec(4, 2)
    with pytest.raises(ValueError):
        GridSpec(4, 5, tol=0.0)
    assert DEFAULT_GRID.n_xy == 33
    assert DEFAULT_GRID.n_lambda == 65


def test_witness_gap():
    w = Witness(0.0, 1.0, 0.25, 0.75, 0.5)
    assert w.gap == 0.25


# ------------------------- (alpha, m) membership -------------------------


def test_identity_violates_half_convexity_coarse_grid():
    # f(x) = x against (0.5, 1): classic counterexample with a clean witness
    res = check_alpha_m_convex(parse("x"), UNIT, 0.5, 1.0, COARSE)
    assert not res.passed
    w = res.witness
    assert (w.x, w.y, w.lam) == (0.0, 1.0, 0.25)
    assert w.lhs == 0.75
    assert w.rhs == 0.5
    assert w.gap == 0.25
    # points = n_xy^2 * n_lambda
    assert res.points_checked == 2 * 2 * 5


def test_identity_violation_default_grid_worst_point():
    res = check_alpha_m_convex(parse("x"), UNIT, 0.5, 1.0)
    w = res.witness
    assert (w.x, w.y, w.lam) == (0.0, 1.0, 0.25)
    assert w.gap == 0.25
    # scan-order first violation is recorded separately and is much smaller
    fw = res.first_witness
    assert fw.gap <= w.gap
    assert (fw.x, fw.y, fw.lam) == (0.0, 0.03125, 0.015625)


def test_square_is_convex_but_not_half_alpha_convex():
    assert check_alpha_m_convex(parse("x^2"), UNIT, 1.0, 1.0).passed
    assert check_alpha_m_convex(parse("x^2"), UNIT, 1.0, 0.5).passed
    res = check_alpha_m_convex(parse("x^2"), UNIT, 0.5, 1.0)
    assert not res.passed


def test_constants_need_m_equal_one():
    assert check_alpha_m_convex(Const(1.0), UNIT, 1.0, 1.0).passed
    res = check_alpha_m_convex(Const(1.0), UNIT, 1.0, 0.5)
    assert not res.passed


def test_affine_passes_ordinary_convexity():
    assert check_alpha_m_convex(parse("2*x + 1"), UNIT, 1.0, 1.0).passed
    assert check_alpha_m_convex(parse("exp(x) - 1"), UNIT, 1.0, 1.0).passed


def test_negative_lo_rejected_for_alpha_m():
    with pytest.raises(ValueError):
        check_alpha_m_convex(parse("x^2"), Interval(-1.0, 1.0), 1.0, 1.0)


def test_f0_flag():
    assert check_alpha_m_convex(parse("x^2"), UNIT, 1.0, 1.0).f0_nonpositive is True
    assert check_alpha_m_convex(parse("x^2 + 1"), UNIT, 1.0, 1.0).f0_nonpositive is False
    res = check_alpha_m_convex(parse("x^2"), Interval(0.5, 1.0), 1.0, 1.0)
    assert res.f0_nonpositive is None


def test_witness_values_recompute():
    res = check_alpha_m_convex(parse("x"), UNIT, 0.5, 1.0)
    w = res.witness
    alpha, m = 0.5, 1.0
    comb = w.lam * w.x + m * (1.0 - w.lam) * w.y
    lhs = evaluate(parse("x"), comb)
    rhs = (w.lam ** alpha) * evaluate(parse("x"), w.x) + \
        m * (1.0 - w.lam ** alpha) * evaluate(parse("x"), w.y)
    assert abs(lhs - w.lhs) <= 1e-14
    assert abs(rhs - w.rhs) <= 1e-14


def test_gap_grid_shape_and_scan_consistency():
    grid = GridSpec(5, 9)
    gaps = alpha_m_gap_grid(parse("x"), UNIT, 0.5, 1.0, grid)
    assert gaps.shape == (5, 5, 9)
    res = check_alpha_m_convex(parse("x"), UNIT, 0.5, 1.0, grid)
    assert res.witness.gap == gaps.max()
    assert res.points_checked == gaps.size


def test_gap_grid_symmetry_alpha_one():
    gaps = alpha_m_gap_grid(parse("exp(x)"), UNIT, 1.0, 1.0, GridSpec(9, 17))
    # alpha = m = 1 makes the defining combination symmetric under
    # (x, y, t) -> (y, x, 1-t)
    assert np.allclose(gaps, gaps[::, ::, ::][..., ::-1].transpose(1, 0, 2),
                       atol=1e-12)


# ------------------------- r-membership -------------------------


def test_anti_log_convex_witness_coarse_grid():
    res = check_r_convex(parse("2 - x"), Interval(0.0, 1.5), 0.0, COARSE)
    assert not res.passed
    w = res.witness
    assert (w.x, w.y, w.lam) == (0.0, 1.5, 0.5)
    assert w.lhs == 1.25
    assert w.rhs == pytest.approx(1.0, abs=1e-15)
    assert w.gap == pytest.approx(0.25, abs=1e-15)


def test_exp_is_log_convex():
    assert check_r_convex(parse("exp(x)"), UNIT, 0.0).passed


def test_shifted_square_convexity_orders():
    f = parse("x^2 + 1")
    assert check_r_convex(f, UNIT, 1.0).passed        # ordinary convexity
    assert check_r_convex(f, UNIT, 0.0).passed        # log-convex on [0, 1]
    res = check_r_convex(f, Interval(0.0, 3.0), 0.0)  # but not on [0, 3]
    assert not res.passed


def test_r_witness_recomputes_through_power_mean():
    res = check_r_convex(parse("2 - x"), Interval(0.0, 1.5), 0.0, COARSE)
    w = res.witness
    f = parse("2 - x")
    comb = w.lam * w.x + (1.0 - w.lam) * w.y
    assert abs(evaluate(f, comb) - w.lhs) <= 1e-14
    want_rhs = power_mean(evaluate(f, w.x), evaluate(f, w.y), w.lam, 0.0)
    assert abs(want_rhs - w.rhs) <= 1e-14


def test_r_convexity_requires_positive_values():
    with pytest.raises(NonPositiveFunction) as exc:
        check_r_convex(parse("x - 2"), UNIT, 1.0)
    assert exc.value.value <= 0.0
    with pytest.raises(NonPositiveFunction):
        check_r_convex(parse("x"), UNIT, 0.5)    # f(0) = 0 is not positive


def test_r_grid_monotone_in_r():
    # a fixed function passing at order r also passes at any s > r
    # (power means increase in the order, relaxing the bound)
    f = parse("exp(x)")
    assert check_r_convex(f, UNIT, 0.0).passed
    assert check_r_convex(f, UNIT, 0.5).passed
    assert check_r_convex(f, UNIT, 2.0).passed


# ------------------------- dominance -------------------------


def test_square_dominated_by_zero_function():
    res = check_dominated_alpha_m(parse("x^2"), Const(0.0), UNIT, 1.0, 1.0)
    assert not res.passed
    w = res.witness
    assert (w.x, w.y, w.lam) == (0.0, 1.0, 0.5)
    assert w.lhs == 0.25
    assert w.rhs == 0.0
    assert w.gap == 0.25


def test_double_dominates_square():
    res = check_dominated_alpha_m(parse("x^2"), parse("2*x^2"), UNIT, 1.0, 1.0)
    assert res.passed
    assert res.points_checked == 33 * 33 * 65


def test_dominance_is_two_sided():
    # g dominates f requires |deviation of f| <= deviation of g; a concave
    # f with large curvature fails even though -f is convex
    res = check_dominated_alpha_m(parse("-x^2"), parse("0.5*x^2"), UNIT, 1.0, 1.0)
    assert not res.passed


def test_dominated_r_linear_order():
    # r = 1 dominance over ordinary convex pair
    res = check_dominated_r(parse("x^2 + 1"), parse("2*x^2 + 2"), UNIT, 1.0)
    assert res.passed


def test_dominated_r_requires_positive_g():
    with pytest.raises(NonPositiveFunction):
        check_dominated_r(parse("x"), parse("x - 5"), UNIT, 1.0)


def test_dominance_gap_grid_matches_check():
    grid = GridSpec(7, 9)
    f, g = parse("x^2"), Const(0.0)
    gaps = dominated_alpha_m_gap_grid(f, g, UNIT, 1.0, 1.0, grid)
    res = check_dominated_alpha_m(f, g, UNIT, 1.0, 1.0, grid)
    assert res.witness.gap == gaps.max()


# ------------------------- pair construction algebra -------------------------


def test_construct_then_split_round_trip(rng):
    for _ in range(10):
        h = atom_combination(rng)
        k = atom_combination(rng)
        f, g = construct_dominated_pair(h, k)
        h2, k2 = split_pair(f, g)
        for x in np.linspace(0.0, 1.0, 7):
            assert evaluate(h2, float(x)) == pytest.approx(
                evaluate(h, float(x)), rel=1e-13, abs=1e-13)
            assert evaluate(k2, float(x)) == pytest.approx(
                evaluate(k, float(x)), rel=1e-13, abs=1e-13)


def test_constructed_pair_is_dominated_when_parents_convex(rng):
    grid = GridSpec(9, 17)
    built = 0
    while built < 5:
        h = atom_combination(rng)
        k = atom_combination(rng)
        if not (check_alpha_m_convex(h, UNIT, 1.0, 1.0, grid).passed
                and check_alpha_m_convex(k, UNIT, 1.0, 1.0, grid).passed):
            continue
        built += 1
        f, g = construct_dominated_pair(h, k)
        assert check_dominated_alpha_m(f, g, UNIT, 1.0, 1.0, grid).passed


def test_dominance_equals_conjunction_of_memberships(rng):
    # per-point identity: dominance gap = max of the convexity gaps of
    # g + f and g - f (sum/difference linearity of the defining forms)
    grid = GridSpec(9, 17)
    tol = grid.tol
    for alpha, m in ((1.0, 1.0), (0.5, 1.0), (1.0, 0.5), (0.5, 0.5)):
        for _ in range(5):
            f = atom_combination(rng)
            g = atom_combination(rng)
            plus, minus = split_pair(f, g)
            dom = dominated_alpha_m_gap_grid(f, g, UNIT, alpha, m, grid)
            gp = alpha_m_gap_grid(plus, UNIT, alpha, m, grid)
            gm = alpha_m_gap_grid(minus, UNIT, alpha, m, grid)
            assert np.allclose(dom, np.maximum(gp, gm), atol=1e-10)
            assert np.array_equal(dom > tol, np.maximum(gp, gm) > tol)


def test_pass_result_has_no_witness():
    res = check_alpha_m_convex(parse("x^2"), UNIT, 1.0, 1.0)
    assert isinstance(res, CheckResult)
    assert res.passed
    assert res.witness is None
    assert res.first_witness is None
    assert res.points_checked == 33 * 33 * 65


# ------------------------- the single entry point -------------------------


@pytest.mark.parametrize("params, f_member, f_planted, g", [
    (AlphaM(1.0, 1.0), "x^2 + 1", "-x^2", "3*x^2"),
    (AlphaM(0.5, 0.5), "x^3", "sqrt(x + 0.1)", "4*x^3"),
    (RConvex(0.0), "exp(x)", "2 - x^2", "3*exp(2*x)"),
    (RConvex(-2.0), "1/(3 - x)^0.25", "2 - x^2", "5 + 4*x^2"),
])
def test_check_matches_public_checkers(params, f_member, f_planted, g):
    grid = GridSpec(9, 9)
    g = parse(g)
    for f in (parse(f_member), parse(f_planted)):
        if isinstance(params, AlphaM):
            member = check_alpha_m_convex(f, UNIT, params.alpha, params.m, grid)
            dominated = check_dominated_alpha_m(f, g, UNIT, params.alpha, params.m, grid)
        else:
            member = check_r_convex(f, UNIT, params.r, grid)
            dominated = check_dominated_r(f, g, UNIT, params.r, grid)
        assert check(f, UNIT, params, grid=grid) == member
        assert check(f, UNIT, params, g, grid) == dominated
    assert not check(parse(f_planted), UNIT, params, grid=grid).passed
    assert check(parse(f_member), UNIT, params, grid=grid).passed


def test_dominance_evaluation_order():
    # both f and g leave the domain; the message names the one checked first
    f, g = parse("log(x - 2)"), parse("sqrt(x - 2)")
    for params in (RConvex(1.0), RConvex(-1.0)):
        with pytest.raises(DomainError, match="sqrt"):   # g before f
            check(f, UNIT, params, g)
    with pytest.raises(DomainError, match="log"):        # f before g
        check(f, UNIT, AlphaM(1.0, 1.0), g)
    with pytest.raises(NonPositiveFunction, match="^g must"):
        check(parse("x - 5"), UNIT, RConvex(-1.0), parse("x - 3"))
