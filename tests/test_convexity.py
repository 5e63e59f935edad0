from __future__ import annotations

import math
import operator
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hhcert import convexity, expr
from hhcert.convexity import (DEFAULT_GRID, AlphaM, CheckResult, GridSpec,
                              NonPositiveFunction, RConvex, Witness, check,
                              check_alpha_m_convex, check_dominated_alpha_m,
                              check_dominated_r, check_r_convex, construct_dominated_pair,
                              gap_grid, passes, proved, split_pair)
from hhcert.expr import (Abs, Add, Const, Div, DomainError, Exp, Expr, Interval, Log, Mul, Pow,
                         Sqrt, Sub, Var, X, compose_affine, evaluate, lin_comb, parse, to_string)
from hhcert.means import _power_mean_raw, power_mean
from hhcert.search import StressConfig, _draw_pair, _trial_rng

from conftest import any_tree, atom_combination, shape_trees

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
    for bad_tol in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            GridSpec(4, 5, tol=bad_tol)
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
        check_alpha_m_convex(parse("x^2"), Interval(-1.0, 1.0), 1.0, 0.5)


def test_negative_lo_allowed_at_m_one():
    # at m = 1, t*x + (1-t)*y is a convex combination and stays in [a, b]
    iv = Interval(-1.0, 1.0)
    assert check_alpha_m_convex(parse("x^2"), iv, 1.0, 1.0).passed
    assert not check_alpha_m_convex(parse("0 - x^2"), iv, 1.0, 1.0).passed


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
    gaps = gap_grid(parse("x"), UNIT, AlphaM(0.5, 1.0), grid=grid)
    assert gaps.shape == (5, 5, 9)
    res = check_alpha_m_convex(parse("x"), UNIT, 0.5, 1.0, grid)
    assert res.witness.gap == gaps.max()
    assert res.points_checked == gaps.size


def test_gap_grid_symmetry_alpha_one():
    gaps = gap_grid(parse("exp(x)"), UNIT, AlphaM(1.0, 1.0), grid=GridSpec(9, 17))
    # alpha = m = 1 makes the defining combination symmetric under
    # (x, y, t) -> (y, x, 1-t)
    assert np.allclose(gaps, gaps[::, ::, ::][..., ::-1].transpose(1, 0, 2),
                       atol=1e-12)


# ------------------------- r-membership -------------------------


@pytest.mark.parametrize("r", [-1.0, 0.0, 2.0])
def test_gap_grid_r_classes_match_check(r):
    # 2 - x^2 is concave, so it fails every r-class, and dominating itself fails too
    grid, f = GridSpec(9, 17), parse("2 - x^2")
    for g in (None, f):
        gaps = gap_grid(f, UNIT, RConvex(r), g, grid)
        res = check(f, UNIT, RConvex(r), g, grid)
        assert gaps.shape == (9, 9, 17)
        assert res.witness.gap == gaps.max()
        assert res.points_checked == gaps.size


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
    with pytest.raises(NonPositiveFunction, match=r"x=0\.015625$"):
        # zero at a combination point only: xs are the multiples of 1/32
        check_r_convex(parse("abs(x - 0.015625)"), UNIT, 1.0)


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


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0])
def test_dominated_r_requires_positive_f(r):
    # f(0) = -0.5: r-classes need f > 0 at every order r, not only r <= 0
    with pytest.raises(NonPositiveFunction, match="^f must"):
        check_dominated_r(parse("x - 0.5"), parse("x + 1"), UNIT, r, GridSpec(9, 9))


def test_dominated_r_requires_positive_g():
    with pytest.raises(NonPositiveFunction):
        check_dominated_r(parse("x"), parse("x - 5"), UNIT, 1.0)


def test_dominance_gap_grid_matches_check():
    grid = GridSpec(7, 9)
    f, g = parse("x^2"), Const(0.0)
    gaps = gap_grid(f, UNIT, AlphaM(1.0, 1.0), g, grid)
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
            dom = gap_grid(f, UNIT, AlphaM(alpha, m), g, grid)
            gp = gap_grid(plus, UNIT, AlphaM(alpha, m), grid=grid)
            gm = gap_grid(minus, UNIT, AlphaM(alpha, m), grid=grid)
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


def test_results_survive_later_checks():
    """Nothing that grid checks or evaluate return may change when later
    checks run, on the same grid or another."""
    f, g = parse("exp(x) + x^2"), parse("3*exp(x) + 2*x^2")
    planted = parse("x^3 - 1.5*x^2 + 0.6*x")
    ts = np.linspace(0.0, 1.0, 65)[None, None, :]
    xs = np.linspace(0.0, 1.0, 33)
    kept = {
        "cube": evaluate(f, ts * xs[:, None, None] + (1.0 - ts) * xs[None, :, None]),
        "gaps": gap_grid(f, UNIT, AlphaM(0.5, 0.75)),
        "dominated gaps": gap_grid(f, UNIT, AlphaM(0.5, 0.75), g),
        "violation": check(planted, UNIT, AlphaM(1.0, 1.0)),
    }
    assert not kept["violation"].passed
    copies = {name: np.copy(v) if isinstance(v, np.ndarray) else v
              for name, v in kept.items()}
    for grid in (DEFAULT_GRID, GridSpec(9, 5)):
        for params in (AlphaM(0.5, 0.75), AlphaM(1.0, 1.0), RConvex(2.0), RConvex(-1.0)):
            check(g, UNIT, params, grid=grid)
            check(f, UNIT, params, g, grid)
        check(planted, UNIT, AlphaM(0.5, 1.0), g, grid)
        gap_grid(g, UNIT, AlphaM(1.0, 0.5), grid=grid)
        gap_grid(planted, UNIT, AlphaM(1.0, 1.0), g, grid)
    for name, value in kept.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, copies[name]), name
        else:
            assert value == copies[name], name


# ------------------------- scanning in blocks of x rows -------------------------


def _outcome(*args):
    """A check's result, or its error's type, message and node identity."""
    try:
        return check(*args)
    except (DomainError, ValueError) as exc:
        return type(exc), str(exc), id(getattr(exc, "node", None))


def _outcomes(block, f, g, alpha_m, r):
    with mock.patch.object(convexity, "_BLOCK", block):
        return [_outcome(f, UNIT, params, h, grid)
                for grid in (GridSpec(33, 65), GridSpec(9, 5))
                for params in (alpha_m, r) for h in (None, g)]


@settings(max_examples=40, deadline=None)
@given(any_tree(), any_tree(),
       st.sampled_from([AlphaM(1.0, 1.0), AlphaM(0.5, 0.75)]),
       st.sampled_from([RConvex(-1.0), RConvex(0.0), RConvex(0.5), RConvex(2.0)]))
def test_blocks_match_one_block_of_all_rows(f, g, alpha_m, r):
    """One x row per block and the default blocks give the result, or the
    error, of a single block holding the whole grid."""
    whole = _outcomes(10**9, f, g, alpha_m, r)
    assert _outcomes(1, f, g, alpha_m, r) == whole
    assert _outcomes(convexity._BLOCK, f, g, alpha_m, r) == whole


@pytest.mark.parametrize("block", [1, convexity._BLOCK])
def test_error_is_the_whole_grid_error(block):
    # log fails in the first block, but a whole-grid pass meets sqrt first
    f = parse("sqrt(0.9 - x) + log(x - 0.05)")
    with mock.patch.object(convexity, "_BLOCK", block):
        with pytest.raises(DomainError, match=r"^sqrt of negative value at x=0\.90625$"):
            check(f, UNIT, AlphaM(0.5, 0.75))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("block", [1, convexity._BLOCK])
@pytest.mark.parametrize("text, infs, nans", [
    # gaps overflow to +inf in blocks 0, 1, 3 and 4 of the default scan
    ("-1.7e308*(2*x-1)^2 + 1.53e308", 2606, 0),
    # inf - inf: NaN gaps, all in block 0, whose other gaps pass, while the
    # first violation lies in block 1; np.argmax ranks the first NaN worst
    ("1.7e308*(2*x-1)^2 - 1.7e308*(1-(2*x-1)^2)", 0, 2606),
])
def test_overflowing_gaps_keep_argmax_witnesses(block, text, infs, nans):
    f = parse(text)
    gaps = gap_grid(f, UNIT, AlphaM(1.0, 1.0), f)
    assert (np.isposinf(gaps).sum(), np.isnan(gaps).sum()) == (infs, nans)
    xs, ts = np.linspace(0.0, 1.0, 33), np.linspace(0.0, 1.0, 65)
    with mock.patch.object(convexity, "_BLOCK", block):
        res = check(f, UNIT, AlphaM(1.0, 1.0), f)
    for w, flat in ((res.witness, np.argmax(gaps)), (res.first_witness, np.argmax(gaps > 1e-9))):
        i, j, k = np.unravel_index(flat, gaps.shape)
        assert (w.x, w.y, w.lam) == (xs[i], xs[j], ts[k])
        assert np.array_equal(w.gap, gaps[i, j, k], equal_nan=True)


@pytest.mark.parametrize("params", [AlphaM(0.5, 0.75), RConvex(-1.0)])
def test_fine_grid_check_memory_is_bounded(params):
    """A dominance check at 257 x 257 x 65 (34 MB per cube) allocates only
    blocks of rows besides its cached grid constants."""
    f, g, grid = parse("x^2 + 1"), parse("3*x^2 + 2"), GridSpec(257, 65)
    check(f, UNIT, params, g, grid)     # caches xs, ts and the comb cube
    tracemalloc.start()
    try:
        res = check(f, UNIT, params, g, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.points_checked == 257 * 257 * 65
    assert peak < 2 * 2**20


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=5e-324, max_value=sys.float_info.max) | st.sampled_from(
           [5e-324, sys.float_info.min, 1.0, 1.7e308]), min_size=2, max_size=9),
       st.integers(3, 66),
       st.sampled_from([RConvex(r) for r in (0.0, 1e-10, -1e-10, 0.1, -0.2, 1.0, -1.0, 2.0, 3.0)]
                       + [AlphaM(1.0, 1.0), AlphaM(0.5, 1.0), AlphaM(1.0, 0.75),
                          AlphaM(0.3, 0.5)]),
       st.sampled_from([1, convexity._BLOCK]))
def test_hoisted_y_side_gives_the_whole_cube_rhs(fx, n_lambda, params, block):
    """Each block's rhs, built on the y side a check computes once, is bit
    for bit the formula on the whole (x, y, t) cube for random f values; so is
    each mirrored block's, on its columns j >= j0."""
    fx, m = np.array(fx), 1.0 if isinstance(params, RConvex) else params.m
    xs = convexity._grids(0.0.hex(), 1.0.hex(), m, len(fx), n_lambda)[-1][0]
    at = {x.tobytes(): v for x, v in zip(xs, fx)}

    def fake(f, pts):   # f at each x, keyed by its bits, and 1 at every other point
        return np.array([at.get(p.tobytes(), 1.0) for p in pts.ravel()]).reshape(pts.shape)
    with mock.patch.object(convexity, "_BLOCK", block), \
            mock.patch.object(convexity, "evaluate", fake), np.errstate(all="ignore"):
        rows, xs, ts, mirrored = convexity._grid_rows(
            parse("x"), None, UNIT, params, GridSpec(len(fx), n_lambda))[-1]
        got = np.concatenate([rows(sl, 0)[1] for sl, _ in convexity._blocks(len(xs), len(ts),
                                                                            False)])
        half = [(sl, j0, rows(sl, j0)[1])
                for sl, j0 in convexity._blocks(len(xs), len(ts), mirrored)]
        x, y = fx[:, None, None], fx[None, :, None]
        if isinstance(params, RConvex):
            want = _power_mean_raw(x, y, ts, params.r)
        else:
            ta = ts ** params.alpha
            want = ta * x + params.m * (1.0 - ta) * y
    assert got.tobytes() == want.tobytes()
    for sl, j0, rhs in half:
        assert rhs.tobytes() == want[sl, j0:].tobytes()


# ------------------------- the verdict alone -------------------------


def _verdict(fn, *args):
    try:
        return fn(*args)
    except (DomainError, NonPositiveFunction) as exc:
        return type(exc)


@st.composite
def candidates(draw):
    """A stress candidate, maybe with a log term that leaves the domain
    (c0 >= 0) or dips below zero, maybe shifted so that r-classes meet
    non-positive values, maybe scaled by 1e300, and maybe plus s*(2u - 1)
    with u in [0, 1], whose gaps overflow to inf at s = 1.7e308 (and to NaN,
    as inf - inf, in dominance)."""
    text = to_string(atom_combination(np.random.default_rng(draw(st.integers(0, 2**32 - 1)))))
    if draw(st.booleans()):
        text += f" + {draw(st.floats(0.25, 2.0))!r}*log(x - {draw(st.floats(-1.0, 0.5))!r})"
    shift = draw(st.sampled_from([0.0, 0.5, 3.0]))
    text = f"{draw(st.sampled_from([1.0, 1e300]))!r}*({text} - {shift!r})"
    s = draw(st.sampled_from([None, 1e300, 1.7e308]))
    return text if s is None else f"{text} + {s!r}*(2*x/3 - 1)^2 - {s!r}*(1 - (2*x/3 - 1)^2)"


@settings(max_examples=150, deadline=None)
@given(candidates(), candidates(),
       st.sampled_from([AlphaM(1.0, 1.0), AlphaM(0.5, 0.75), AlphaM(0.5, 1.0), RConvex(-1.0),
                        RConvex(0.0), RConvex(0.5), RConvex(2.0)]),
       st.sampled_from([UNIT, Interval(0.0, 3.0)]),
       st.sampled_from([DEFAULT_GRID, GridSpec(9, 17), GridSpec(5, 5), GridSpec(10, 7),
                        GridSpec(33, 66), GridSpec(17, 9, tol=1e-300)]))
# inf gaps, and NaN gaps next to a violation in another block
@example("-1.7e308*(2*x-1)^2 + 1.53e308", "x^2", AlphaM(1.0, 1.0), UNIT, DEFAULT_GRID)
@example("1.7e308*(2*x-1)^2 - 1.7e308*(1-(2*x-1)^2)", "x^2", AlphaM(1.0, 1.0), UNIT,
         DEFAULT_GRID)
def test_passes_is_the_verdict_of_check(f, g, params, iv, grid):
    """passes returns check's verdict, and raises only where check raises.
    There it may raise the other error, as it meets the grid in another
    order, or return False at a violation met first."""
    errors = (DomainError, NonPositiveFunction)
    f, g = parse(f), parse(g)
    for h in (None, g, f):
        want = _verdict(lambda: check(f, iv, params, h, grid).passed)
        got = _verdict(passes, f, iv, params, h, grid)
        assert got == want or (want in errors and (got is False or got in errors))


def test_passes_may_meet_another_error_first():
    # g dips below 0 only between the subgrid's points 0 and 3, where f
    # already leaves its domain; check validates g on the whole grid first
    f, g = parse("x + log(x)"), parse("(2*x/3 - 1)^2 - 0.5")
    args = (f, Interval(0.0, 3.0), RConvex(-1.0), g, GridSpec(5, 5))
    with pytest.raises(NonPositiveFunction, match="^g must .* at x=0.75$"):
        check(*args)
    with pytest.raises(DomainError, match="^log of non-positive value at x=0.0$"):
        passes(*args)


def test_subgrid_takes_full_grid_entries():
    sub, full = convexity._grids(0.0.hex(), 3.0.hex(), 0.5, 33, 65)
    for a in sub[:4] + full[:4]:
        assert a.flags.c_contiguous and not a.flags.writeable
    assert sub[4] is full[4] is True    # 1 - ts is ts reversed, at 17 and 65 weights
    # xs, ts and the cube u[inv]
    for a, b in zip((*sub[:2], sub[2][sub[3]]), (*full[:2], full[2][full[3]])):
        assert np.array_equal(a, b[(slice(None, None, 4),) * b.ndim])
    for n_xy, n_lambda in ((10, 7), (33, 66), (34, 65)):
        assert len(convexity._grids(0.0.hex(), 1.0.hex(), 1.0, n_xy, n_lambda)) == 1


# ------------------------- distinct combination points -------------------------

# half the default profile's examples in tier-1; the CI step "Proof soundness and
# equivalence" runs ten times as many, by the "proof-soundness" profile of conftest.py
DEDUP_EXAMPLES = settings.default.max_examples // 2
ENDS = [-0.0, 0.0, 0.3, 1.0, 1.7777777777777777, 3.0, 1e300, -1.0, -2.5]


@settings(max_examples=2 * DEDUP_EXAMPLES, deadline=None)
@given(st.lists(st.sampled_from(ENDS), min_size=2, max_size=2, unique=True).map(sorted),
       st.sampled_from([1.0, 0.5, 0.75, 0.6, 1 / 3]), st.integers(2, 41), st.integers(3, 70))
def test_dedup_gives_the_cube_bit_for_bit(ends, m, n_xy, n_lambda):
    """u[inv] is the cube t*x + m*(1-t)*y to the bit, and u holds only its values, whether
    the key guesses right (lo = 0 or m = 1, where rounding allows) or not."""
    lo, hi = ends
    assume(m == 1.0 or lo >= 0.0)
    xs, ts = np.linspace(lo, hi, n_xy), np.linspace(0.0, 1.0, n_lambda)
    with np.errstate(all="ignore"):
        cube = ts * xs[:, None, None] + m * (1 - ts) * xs[None, :, None]
        u, inv = convexity._distinct(xs, ts, m)
    assert u[inv].tobytes() == cube.tobytes()
    assert u[inv[:, 0, -1]].tobytes() == xs.tobytes()   # grid checks read f on xs there
    assert np.isin(u.view(np.uint64), cube.view(np.uint64)).all()
    assert inv.dtype.kind == "u" and len(u) <= cube.size


@pytest.mark.parametrize("hi, m, n_xy, distinct", [
    (1.0, 1.0, 129, 8193), (1.0, 0.5, 129, 16258), (1.0, 0.75, 129, 32046),
    (2.0, 1.0, 33, 2049), (16 / 9, 0.75, 33, 13638), (0.3, 1.0, 33, 4158)])
def test_dedup_keeps_one_entry_per_distinct_float(hi, m, n_xy, distinct):
    # on [0, hi] the key's lattice holds, and the low bits keep roundings apart
    xs, ts, u, inv, _ = convexity._grids(0.0.hex(), hi.hex(), m, n_xy, 65)[-1]
    cube = ts * xs[:, None, None] + m * (1 - ts) * xs[None, :, None]
    assert len(u) == len(np.unique(cube.view(np.uint64))) == distinct
    assert inv.dtype == np.uint16


def _without_dedup(xs, ts, m):
    """u the whole cube, and inv the identity."""
    cube = ts * xs[:, None, None] + m * (1 - ts) * xs[None, :, None]
    return cube.ravel(), np.arange(cube.size).reshape(cube.shape)


def _grid_outcomes(f, g, iv, params, grid):
    """check's results and passes' verdicts for f and (f, g), or their errors' type, message,
    node and x, with a cache of grids of its own."""
    out = []
    with mock.patch.object(convexity, "_GRIDS", {}):
        for fn in (check, passes):
            for h in (None, g):
                try:
                    out.append(repr(fn(f, iv, params, h, grid)))
                except (DomainError, ValueError) as exc:
                    out.append((type(exc), str(exc), id(getattr(exc, "node", None)),
                                repr(getattr(exc, "x", None))))
    return out


# f or g meets its domain's edge, or 0, only at combination points t*x + (1-t)*y, or first
# at a point that is not the least of those it fails at
POINT_TREES = st.sampled_from(["abs(x - 0.015625)", "log(abs(x - 0.015625))", "sqrt(x - 0.015625)",
                               "1/(x - 0.015625)", "abs(x - 0.015625) + x^2", "sqrt(0.9 - x)",
                               "sqrt(0.9 - x) + log(x - 0.05)"]).map(parse)


@settings(max_examples=DEDUP_EXAMPLES, deadline=None)
@given(any_tree() | POINT_TREES, any_tree() | POINT_TREES,
       st.sampled_from([AlphaM(1.0, 1.0), AlphaM(0.5, 0.75), AlphaM(0.5, 1.0), RConvex(-1.0),
                        RConvex(0.0), RConvex(1.0), RConvex(2.0)]),
       st.sampled_from([UNIT, Interval(0.0, 3.0), Interval(-1.0, 1.0)]),
       st.sampled_from([DEFAULT_GRID, GridSpec(9, 17), GridSpec(10, 7)]))
@example(parse("abs(x - 0.015625)"), parse("x^2 + 1"), RConvex(1.0), UNIT, DEFAULT_GRID)
def test_dedup_matches_identity_inverse(f, g, params, iv, grid):
    """check and passes give the same results, verdicts and errors with f evaluated once per
    distinct point as with f evaluated at every entry of the cube."""
    assume(isinstance(params, RConvex) or params.m == 1.0 or iv.lo >= 0.0)
    with mock.patch.object(convexity, "_distinct", _without_dedup):
        whole = _grid_outcomes(f, g, iv, params, grid)
    assert _grid_outcomes(f, g, iv, params, grid) == whole


def _raised(fn, *args):
    """fn's return value, or its error's type, message, node identity and x."""
    try:
        return fn(*args)
    except (DomainError, NonPositiveFunction) as exc:
        return type(exc), str(exc), id(getattr(exc, "node", None)), repr(exc.x)


def _whole_grid_pass(f, g, params, xs, u, inv):
    """One pass over the whole cube u[inv]: g then f in r-dominance, f then g otherwise, each
    evaluated on the cube and then, in r-classes, checked positive on xs and on the cube."""
    r_class, cube = isinstance(params, RConvex), u[inv]
    for h, name in [(g, "g"), (f, "f")] if r_class else [(f, "f"), (g, "g")]:
        if h is None:
            continue
        lhs = evaluate(h, cube)
        for values, points in [(evaluate(h, xs), xs), (lhs, cube)] if r_class else []:
            bad = (values <= 0.0).ravel()
            if bad.any():
                at = int(np.argmax(bad))
                raise NonPositiveFunction(name, float(points.ravel()[at]),
                                          float(values.ravel()[at]))


@settings(max_examples=DEDUP_EXAMPLES, deadline=None)
@given(any_tree() | POINT_TREES, any_tree() | POINT_TREES,
       st.sampled_from([AlphaM(1.0, 1.0), AlphaM(0.5, 0.75), AlphaM(0.5, 1.0), RConvex(-1.0),
                        RConvex(0.0), RConvex(1.0), RConvex(2.0)]),
       st.sampled_from([UNIT, Interval(0.0, 3.0), Interval(-1.0, 1.0)]),
       st.sampled_from([DEFAULT_GRID, GridSpec(9, 17), GridSpec(10, 7)]))
@example(parse("sqrt(0.9 - x) + log(x - 0.05)"), parse("x^2 + 1"), AlphaM(1.0, 1.0), UNIT,
         DEFAULT_GRID)
@example(parse("x + log(x)"), parse("(2*x/3 - 1)^2 - 0.5"), RConvex(-1.0), Interval(0.0, 3.0),
         GridSpec(5, 5))
# 0 at x = 0.5 and, first in scan order, at 0.0625, which is no x value
@example(parse("abs(x - 0.0625)*abs(x - 0.5)"), parse("x^2 + 1"), RConvex(0.0), UNIT,
         GridSpec(9, 17))
def test_dedup_errors_are_one_whole_grid_pass(f, g, params, iv, grid):
    """Where f or g fails on the grid, check and gap_grid raise what one pass over the whole
    grid raises (type, message, node, x), and elsewhere nothing.  passes raises that of the
    first grid it scans that fails, unless a violation on a subgrid that does not ends it."""
    assume(isinstance(params, RConvex) or params.m == 1.0 or iv.lo >= 0.0)
    m = 1.0 if isinstance(params, RConvex) else params.m
    grids = convexity._grids(float(iv.lo).hex(), float(iv.hi).hex(), m, grid.n_xy, grid.n_lambda)
    for h in (None, g):
        want = [_raised(_whole_grid_pass, f, h, params, xs, u, inv)
                for xs, _, u, inv, _ in grids]
        failing = [e for e in want if e]
        got = _raised(check, f, iv, params, h, grid)
        assert got == want[-1] if want[-1] else isinstance(got, CheckResult)
        got = _raised(gap_grid, f, iv, params, h, grid)
        assert got == want[-1] if want[-1] else isinstance(got, np.ndarray)
        got = _raised(passes, f, iv, params, h, grid)
        if got is False:
            assert want[-1] is None or len(want) == 2 and want[0] is None
        else:
            assert got == (failing[0] if failing else True)


@pytest.mark.parametrize("f, g, params", [
    ("x^2 + 1", None, AlphaM(0.5, 0.75)), ("x^2", "3*x^2 + 1", AlphaM(0.5, 0.75)),
    ("x^2 + 1", None, RConvex(0.0)), ("x^2 + 1", "3*x^2 + 2", RConvex(0.0)),
    ("x - 0.5", None, RConvex(0.0)), ("x^2 + 1", "x - 0.5", RConvex(-1.0))])
def test_grid_checks_evaluate_only_on_distinct_points(f, g, params):
    """check, passes and gap_grid evaluate f and g on slices of u, or on the whole cube u[inv]
    where one is not positive, and never on the x values; only check's f(0) side condition of
    (alpha, m) membership evaluates a scalar."""
    f, g, m = parse(f), g and parse(g), 1.0 if isinstance(params, RConvex) else params.m
    grids = convexity._grids(0.0.hex(), 1.0.hex(), m, DEFAULT_GRID.n_xy, DEFAULT_GRID.n_lambda)
    seen = []
    spy = lambda e, pts: seen.append(pts) or evaluate(e, pts)
    with mock.patch.object(convexity, "evaluate", spy):
        for fn in (check, passes, gap_grid):
            _raised(fn, f, UNIT, params, g)
    scalars = [pts for pts in seen if np.ndim(pts) == 0]
    assert scalars == ([0.0] if g is None and isinstance(params, AlphaM) else [])
    assert len(seen) > len(scalars)
    for pts in (pts for pts in seen if np.ndim(pts)):
        assert not any(np.shares_memory(pts, xs) for xs, *_ in grids)
        assert any(pts.ndim == 1 and np.shares_memory(pts, u) or pts.tobytes() == u[inv].tobytes()
                   for _, _, u, inv, _ in grids)


# ------------------------- the mirror half of a grid -------------------------

# half the default profile's examples in tier-1; the CI step "Proof soundness and
# equivalence" runs ten times as many, by the "proof-soundness" profile of conftest.py
MIRROR_EXAMPLES = settings.default.max_examples // 2
# every branch of _power_mean_raw, and alpha = m = 1
MIRRORED = [RConvex(r) for r in (0.0, 1e-10, -1e-10, 0.1, -0.2, -1.0, 1.0, 2.0, 3.5)] + [
    AlphaM(1.0, 1.0)]
GRID_ROWS = convexity._grid_rows


def _valued(values):
    """An elementwise evaluate that gives each tree's value at a point as one of
    ``values[tree]``, picked by the point's bits."""
    def evaluate(f, pts):
        vals, bits = np.asarray(values[f]), np.asarray(pts, dtype=float).view(np.uint64)
        return vals[(bits * np.uint64(0x9E3779B97F4A7C15) >> np.uint64(40)) % len(vals)]
    return evaluate


FLOATS = st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, sys.float_info.min, 1.0, 1.7e308, -1.7e308]), min_size=1, max_size=9)


@settings(max_examples=2 * MIRROR_EXAMPLES, deadline=None)
@given(FLOATS, FLOATS, st.booleans(), st.sampled_from(MIRRORED), st.sampled_from([3, 5, 17, 65]),
       st.integers(2, 41),
       st.sampled_from([UNIT, Interval(0.0, 3.0), Interval(-1.0, 1.0)]))
def test_mirror_gaps_are_the_same_bits(f_values, g_values, pair, params, n_lambda, n_xy, iv):
    """Where the half scan applies, gap(x, y, t) and gap(y, x, 1 - t) are the same bits, for
    random values of f (and g), positive in r-classes, at every grid point."""
    f, g, grid = parse("x"), parse("2*x") if pair else None, GridSpec(n_xy, n_lambda)
    if isinstance(params, RConvex):
        f_values, g_values = (np.maximum(np.abs(v), 5e-324) for v in (f_values, g_values))
    assert all(mirrored for *_, mirrored in GRID_ROWS(f, g, iv, params, grid))
    with mock.patch.object(convexity, "evaluate", _valued({f: f_values, g: g_values})):
        gaps = gap_grid(f, iv, params, g, grid)
    assert gaps.tobytes() == gaps.transpose(1, 0, 2)[:, :, ::-1].tobytes()


def _unmirrored(*args):
    return [(rows, xs, ts, False) for rows, xs, ts, _ in GRID_ROWS(*args)]


# gaps that overflow to inf, and inf - inf: NaN gaps
OVERFLOWS = ["-1.7e308*(2*x-1)^2 + 1.53e308", "1.7e308*(2*x-1)^2 - 1.7e308*(1-(2*x-1)^2)"]
OVERFLOW = st.sampled_from(OVERFLOWS).map(parse)


@settings(max_examples=MIRROR_EXAMPLES, deadline=None)
@given(*[any_tree() | candidates().map(parse) | POINT_TREES | OVERFLOW] * 2,
       st.sampled_from(MIRRORED), st.sampled_from([UNIT, Interval(0.0, 3.0), Interval(-1.0, 1.0)]),
       st.sampled_from([DEFAULT_GRID, GridSpec(9, 17), GridSpec(17, 65, tol=1e-300)]),
       st.sampled_from([2048, convexity._BLOCK]))
@example(parse(OVERFLOWS[0]), parse(OVERFLOWS[0]), AlphaM(1.0, 1.0), UNIT, DEFAULT_GRID,
         convexity._BLOCK)
@example(parse(OVERFLOWS[1]), parse(OVERFLOWS[1]), AlphaM(1.0, 1.0), UNIT, DEFAULT_GRID,
         convexity._BLOCK)
def test_mirror_half_scan_matches_whole_grid(f, g, params, iv, grid, block):
    """check and passes give the same results, verdicts and errors (type, message, node, x)
    scanning the mirror half of a grid as scanning all of it, in blocks of ``block`` entries."""
    with mock.patch.object(convexity, "proved", lambda *args: False), \
            mock.patch.object(convexity, "_BLOCK", block):
        with mock.patch.object(convexity, "_grid_rows", _unmirrored):
            whole = _grid_outcomes(f, g, iv, params, grid)
        assert _grid_outcomes(f, g, iv, params, grid) == whole


# 1e-15/(x - p) divides by zero only at p = 1591/2048, first met in row 16 of the 33 x 65 grid,
# and at p = 2047/2048, first met in row 31.  The -c*abs(x - k) kink makes gaps above tol first
# in row 15 and in row 27, which end no scan: f fails on the grid's distinct points, and check
# and passes raise what one pass over the whole grid raises.
@pytest.mark.parametrize("f, want", [
    ("x^2 - 0.05*abs(x - 0.55) + 1e-15/(x - 0.77685546875)", "division by zero at x=0.77685546875"),
    ("x^2 - 0.03*abs(x - 0.87) + 1e-15/(x - 0.99951171875)",
     "division by zero at x=0.99951171875")])
@pytest.mark.parametrize("params", [AlphaM(1.0, 1.0), RConvex(1.0)])
def test_mirror_passes_meets_what_whole_rows_meet(f, want, params):
    f = parse(f"{f} + 1" if isinstance(params, RConvex) else f)
    for fn in (check, passes):
        with pytest.raises(DomainError, match=f"^{want}$"):
            fn(f, UNIT, params)


@pytest.mark.parametrize("params, n_lambda, mirrored", [
    (RConvex(-1.0), 11, False), (RConvex(-1.0), 50, False), (AlphaM(1.0, 1.0), 11, False),
    (AlphaM(1.0, 1.0), 50, False), (AlphaM(0.5, 1.0), 65, False), (AlphaM(1.0, 0.75), 65, False),
    (RConvex(-1.0), 65, True), (AlphaM(1.0, 1.0), 65, True)])
def test_mirror_half_only_where_gaps_mirror(params, n_lambda, mirrored):
    # 1 - ts is ts reversed to the bit only where n_lambda - 1 is a power of two; elsewhere,
    # and for alpha < 1 or m < 1, every block takes all the y columns of its rows
    blocks, seen = convexity._blocks, []

    def spy(*args):
        out = list(blocks(*args))
        seen.extend(out)
        return out
    f, g, grid = parse("x^2 + 1"), parse("3*x^2 + 2"), GridSpec(33, n_lambda)
    with mock.patch.object(convexity, "_blocks", spy), \
            mock.patch.object(convexity, "proved", lambda *args: False):
        assert check(f, UNIT, params, g, grid).passed == passes(f, UNIT, params, g, grid)
    assert seen
    assert all(j0 == (sl.start if mirrored else 0) for sl, j0 in seen)
    assert any(j0 for _, j0 in seen) == mirrored


# ------------------------- membership by construction -------------------------

def _mp(e, x):
    """e at x in mpmath's working precision."""
    match e:
        case Const(v):
            return mpmath.mpf(v)
        case Add(l, r) | Sub(l, r) | Mul(l, r) | Div(l, r):
            return _MP_BINARY[type(e)](_mp(l, x), _mp(r, x))
        case Pow(b, p):
            return _mp(b, x) ** (int(p) if p.is_integer() else mpmath.mpf(p))
        case Exp(a) | Log(a) | Sqrt(a) | Abs(a):
            return _MP_UNARY[type(e)](_mp(a, x))
    return x


_MP_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
_MP_UNARY = {Exp: mpmath.exp, Log: mpmath.log, Sqrt: mpmath.sqrt, Abs: abs}


# the proof-soundness tests: tier-1 runs them at multiples of the default
# profile's 100 examples, and the "proof-soundness" profile of conftest.py at
# ten times as many
PROOF_EXAMPLES = settings.default.max_examples
SHAPE_TREES = shape_trees()
SHAPE_INTERVALS = [UNIT, Interval(0.0, 3.0), Interval(0.5, 2.0), Interval(-1.0, 1.0)]


def _second_differences_ok(ys, scale) -> bool:
    return all(a - 2 * b + c >= -1e-40 * scale for a, b, c in zip(ys, ys[1:], ys[2:]))


def _mp_points(iv):
    return [mpmath.mpf(iv.lo) + i * (mpmath.mpf(iv.hi) - iv.lo) / 256 for i in range(257)]


@settings(max_examples=3 * PROOF_EXAMPLES, deadline=None)
@given(SHAPE_TREES, st.sampled_from(SHAPE_INTERVALS),
       st.sampled_from([AlphaM(1.0, 1.0), AlphaM(1.0, 0.5), AlphaM(0.5, 1.0), RConvex(1.0),
                        RConvex(2.0), RConvex(0.0)]))
@example(parse("(x - 0.5)^3 + 2"), UNIT, RConvex(1.0))
@example(parse("(1 - x)^1.5 + (2 - x)^-2"), Interval(-1.0, 0.25), AlphaM(1.0, 1.0))
@example(parse("x^2 - 0.5*x^2 - x"), Interval(0.0, 3.0), AlphaM(1.0, 0.5))
def test_proved_members_are_in_their_class(f, iv, params):
    """Where proved holds, f is convex to 50 digits on a fine grid, meets its
    rule's side condition there, and the grid's own gaps stay within its tolerance."""
    if not proved(f, iv, params):
        return
    with mpmath.workdps(50):
        ys = [_mp(f, x) for x in _mp_points(iv)]
        scale = 1 + max(abs(y) for y in ys)
        assert _second_differences_ok(ys, scale)
        if isinstance(params, RConvex):
            assert min(ys) > 0
        elif params.m < 1.0:
            assert _mp(f, mpmath.mpf(0)) <= 0
    # the grid's tolerance is absolute, so only moderate values leave rounding below it
    if scale < 1e3:
        grid = GridSpec(17, 33)
        assert (gap_grid(f, iv, params, grid=grid) <= grid.tol).all()


@st.composite
def shape_pairs(draw):
    """f = (h - k)/2 and g = (h + k)/2 for trees h and k, maybe with c*p added
    to f or to g for one more tree p."""
    f, g = construct_dominated_pair(draw(SHAPE_TREES), draw(SHAPE_TREES))
    side = draw(st.sampled_from([None, "f", "g"]))
    if side is not None:
        c, p = draw(st.sampled_from([-0.5, 0.25, 1.0])), draw(SHAPE_TREES)
        f, g = (lin_comb(1.0, f, c, p), g) if side == "f" else (f, lin_comb(1.0, g, c, p))
    return f, g


@settings(max_examples=2 * PROOF_EXAMPLES, deadline=None)
@given(shape_pairs(), st.sampled_from(SHAPE_INTERVALS),
       st.sampled_from([AlphaM(1.0, 1.0), AlphaM(1.0, 0.5), AlphaM(0.5, 1.0), RConvex(1.0),
                        RConvex(2.0)]))
@example(construct_dominated_pair(parse("x^2 + exp(x) - 1"), parse("2*x^2 - x")), UNIT,
         AlphaM(1.0, 0.5))
@example((parse("0.5*x + 1"), parse("x^2 + exp(x)")), UNIT, RConvex(1.0))
def test_proved_pairs_are_dominated(pair, iv, params):
    """Where proved holds for a pair, g + f and g - f are convex to 50 digits on
    a fine grid and, at m < 1, at most 0 at 0, or at r = 1 f and g are positive
    there; the grid's own dominance gaps stay within its tolerance.  r other
    than 1 and alpha < 1 are never proved."""
    f, g = pair
    if not proved(f, iv, params, g):
        return
    r_class = isinstance(params, RConvex)
    assert params.r == 1.0 if r_class else params.alpha == 1.0
    with mpmath.workdps(50):
        xs = _mp_points(iv)
        fs, gs = [_mp(f, x) for x in xs], [_mp(g, x) for x in xs]
        scale = 1 + max(max(abs(y) for y in fs), max(abs(y) for y in gs))
        if r_class:
            assert min(fs) > 0 and min(gs) > 0
        for sign in (1, -1):
            assert _second_differences_ok([b + sign * a for a, b in zip(fs, gs)], scale)
            if not r_class and params.m < 1.0:
                assert _mp(g, mpmath.mpf(0)) + sign * _mp(f, mpmath.mpf(0)) <= 0
    if scale < 1e3:
        grid = GridSpec(17, 33)
        assert (gap_grid(f, iv, params, g, grid) <= grid.tol).all()


def _subtrees(e):
    yield e
    for name in e.__match_args__:
        if isinstance(kid := getattr(e, name), Expr):
            yield from _subtrees(kid)


@settings(max_examples=4 * PROOF_EXAMPLES, deadline=None)
@given(any_tree() | SHAPE_TREES,
       st.sampled_from(SHAPE_INTERVALS + [Interval(0.25, 2.0), Interval(-2.0, -0.5)]))
@example(parse("abs(log(x))"), Interval(0.5, 2.0))
@example(parse("exp(30*x) + abs(x - 2)"), UNIT)
@example(parse("(x + 3)^-0.5 - 2*sqrt(log(x + 3)) + 1/(x - 2)"), Interval(-2.0, -0.5))
@example(parse("abs(x^3) - abs(x - 3)"), Interval(-2.0, -0.5))
@example(parse("-sqrt(sqrt(x)) + 2/(x - 3) - 0.5/(x^2 + 1)"), UNIT)
@example(parse("sqrt(exp(-800*x)) + 3/sqrt(x + 1) - 1/log(x + 2)"), UNIT)
def test_shape_proof_sound_on_every_node(f, iv):
    """Where _shape encloses f on iv, evaluate raises nowhere on iv, each value it computes
    and each value to 50 digits lies in the enclosure, and f's second differences to 50
    digits are >= 0 where the convex bit is set and <= 0 where the concave one is."""
    if (shape := expr._shape(f, iv)) is None:
        return
    bits, low, high = shape
    values = [*evaluate(f, np.linspace(iv.lo, iv.hi, 257)), evaluate(f, iv.lo), evaluate(f, iv.hi)]
    assert all(low <= v <= high for v in values)
    # mpmath rounds relative to the largest intermediate, which every node's enclosure bounds
    scale = 1 + max(max(-s[1], s[2]) for s in (expr._shape(e, iv) for e in _subtrees(f)))
    with mpmath.workdps(50):
        ys = [_mp(f, x) for x in _mp_points(iv)]
        assert all(low <= y <= high for y in ys)
        if bits & expr._CONVEX:
            assert _second_differences_ok(ys, scale)
        if bits & expr._CONCAVE:
            assert _second_differences_ok([-y for y in ys], scale)


@pytest.mark.parametrize("text, bits", [("sqrt(sqrt(x))", expr._CONCAVE),
                                         ("-sqrt(sqrt(x))", expr._CONVEX),
                                         ("sqrt(exp(-800*x))", 0)])
def test_shape_encloses_sqrt_and_exp_from_zero(text, bits):
    # sqrt and exp are never below 0, so their low ends are not rounded out past it, where
    # a sqrt above would read them as negative
    bits_got, low, high = expr._shape(parse(text), UNIT)
    assert bits_got == bits
    assert (low, high) == ((0.0, 1.0000000000000013) if bits != expr._CONVEX
                           else (-1.0000000000000016, 5e-324))


@pytest.mark.parametrize("text, iv, params", [
    ("x^1.5", UNIT, AlphaM(1.0, 1.0)),                          # evaluate raises at 0
    ("1e200*x^4", Interval(0.0, 1e80), AlphaM(1.0, 1.0)),       # overflows
    ("exp(800*x)", UNIT, AlphaM(1.0, 1.0)),
    ("x + 1", UNIT, AlphaM(1.0, 0.5)),                          # f(0) > 0
    ("x + 1e-300*1e-300", UNIT, AlphaM(1.0, 0.5)),              # f(0) > 0, rounded to 0
    ("x^2 - 1", UNIT, RConvex(1.0)),                            # not positive
    ("x^2", UNIT, RConvex(2.0)),                                # zero at 0
    ("-x^2", UNIT, AlphaM(1.0, 1.0)),
    ("sqrt(x)", UNIT, AlphaM(1.0, 1.0)),                        # concave
    ("-abs(x - 0.5)", UNIT, AlphaM(1.0, 1.0)),
    ("x^3", Interval(-1.0, 1.0), AlphaM(1.0, 1.0)),
    ("(x - 0.5)^3 + 2", UNIT, RConvex(1.0)),
    ("x^-1", Interval(-2.0, -1.0), AlphaM(1.0, 1.0)),
    ("(x^2 - 1)^2", UNIT, AlphaM(1.0, 1.0)),
    ("x*x", UNIT, AlphaM(1.0, 1.0)),                            # a product of two non-constants
    ("x^2", UNIT, AlphaM(0.5, 1.0)),                            # no rule below alpha = 1
    ("x^2 + 1", UNIT, RConvex(0.5)),                            # nor below r = 1
    ("2e307*x^2", UNIT, AlphaM(1.0, 1.0)),                      # beyond 2^1020
    ("x^2 - 1.5*x^2", UNIT, AlphaM(1.0, 1.0)),                  # concave once collected
    ("abs(x^2 - 1)", Interval(-2.0, 2.0), AlphaM(1.0, 1.0)),    # abs of a tree not affine
    ("1/x", Interval(-1.0, 1.0), AlphaM(1.0, 1.0)),             # evaluate raises at 0
    ("log(x)", UNIT, AlphaM(1.0, 1.0)),                         # evaluate raises at 0
    ("3", UNIT, AlphaM(0.5, 0.5)),                              # a constant > 0 at m < 1
    ("-2", Interval(-1.0, 1.0), AlphaM(0.5, 0.5)),              # m < 1 lives on [0, b]
    ("2 - exp(1)", UNIT, RConvex(0.0)),                         # not positive
    ("-1/(x + 1)", UNIT, AlphaM(1.0, 1.0)),                     # concave
    ("1/(x^2 + 1)", UNIT, AlphaM(1.0, 1.0)),                    # 1 over a convex h > 0
    ("1/(x^2 - 4)", UNIT, AlphaM(1.0, 1.0)),                    # 1 over a convex h < 0
])
def test_proved_refuses(text, iv, params):
    assert proved(parse(text), iv, params) is False


@pytest.mark.parametrize("text, iv, params", [
    ("1.5*x^4 + 0.3*(exp(x) - 1) + 2*x", Interval(0.0, 12.0), AlphaM(1.0, 0.5)),
    ("x^3", UNIT, AlphaM(1.0, 0.5)),
    ("(x - 0.5)^2 + exp(-x) - 3", Interval(-1.0, 1.0), AlphaM(1.0, 1.0)),
    ("x^-1 + (2*x + 1)^1.5 + (x^2 - 1)^1.5", Interval(1.5, 2.0), RConvex(3.0)),
    ("0.5*(1.2*x^2 + 0.7) + 0.5*(1.2*x^2 + 0.7 + 0.3*(exp(x) - 1))", UNIT, RConvex(1.0)),
    # the enclosure's low end comes from a power, a numpy float
    ("1.5715*(1.8735-x)^-1", Interval(0.25, 1.0), RConvex(2.0)),
    ("x^2 - 0.5*x^2 - x", Interval(0.0, 3.0), AlphaM(1.0, 0.5)),  # convex once collected
    ("abs(x - 0.5)", UNIT, AlphaM(1.0, 1.0)),                   # abs of an affine argument
    # constants, in every class they belong to
    ("3", UNIT, AlphaM(0.5, 1.0)),
    ("-2*exp(1)", UNIT, AlphaM(0.5, 0.5)),
    ("exp(1) - 2", Interval(0.5, 2.0), RConvex(-1.0)),
    ("1 - 1", UNIT, AlphaM(1.0, 0.5)),     # its enclosure reaches above 0, but it is 0 at 0
    # a constant over a concave h > 0 or a convex h < 0, as that constant times h^-1
    ("1/(x + 1)", UNIT, AlphaM(1.0, 1.0)),
    ("-2/(x - 2) + 3/sqrt(x + 1)", UNIT, AlphaM(1.0, 1.0)),
    ("-1/(x^2 - 4)", Interval(-1.0, 1.0), AlphaM(1.0, 1.0)),
])
def test_proved_accepts(text, iv, params):
    f = parse(text)
    assert proved(f, iv, params) is True
    assert (gap_grid(f, iv, params) <= DEFAULT_GRID.tol).all()


def _pair(h: str, k: str):
    return construct_dominated_pair(parse(h), parse(k))


@pytest.mark.parametrize("pair, iv, params", [
    (_pair("x^2 + 1", "-x^2"), UNIT, AlphaM(1.0, 1.0)),         # a planted concave k
    (_pair("x^2 + 1", "x - x^3"), UNIT, AlphaM(1.0, 1.0)),
    (_pair("x^2", "x^4"), UNIT, AlphaM(0.5, 1.0)),              # no rule below alpha = 1
    (_pair("x^2 + 1", "exp(x)"), UNIT, RConvex(2.0)),           # r-dominance is not linear
    (_pair("x^2 + 1", "exp(x)"), UNIT, RConvex(1.0)),           # at r = 1 it is, but f <= 0
    ((parse("-0.5"), parse("x^2 + 2")), UNIT, RConvex(1.0)),    # f < 0
    ((parse("0.5"), parse("x^2 - 1")), UNIT, RConvex(1.0)),     # g < 0
    ((parse("0.5*x"), parse("x^2 + 2")), UNIT, RConvex(1.0)),   # f(0) = 0
    ((parse("0.5"), parse("x^2 + 2")), UNIT, RConvex(0.5)),     # no rule below r = 1
    (_pair("x^2", "x^2 + 1"), UNIT, AlphaM(1.0, 0.5)),          # (g - f)(0) > 0
    (_pair("x^2 + 1e-300*1e-300", "x^2"), UNIT, AlphaM(1.0, 0.5)),  # (g + f)(0) > 0
    (_pair("x^2", "sqrt(x + 1)"), UNIT, AlphaM(1.0, 1.0)),      # g - f = sqrt(x + 1), concave
    # g - f = 0, but f and g reach 1.7e308, where the grid's sums overflow
    ((parse("1.7e308*(2*x-1)^2 - 1.7e308*(1-(2*x-1)^2)"),) * 2, UNIT, AlphaM(1.0, 1.0)),
    ((parse("2e307*x^2"),) * 2, UNIT, AlphaM(1.0, 1.0)),
])
def test_proved_refuses_pairs(pair, iv, params):
    f, g = pair
    assert proved(f, iv, params, g) is False


@pytest.mark.parametrize("pair, iv, params", [
    (_pair("1.2*x^2 + 0.5*(exp(x) - 1)", "0.7*x + 1.3*x^3"), UNIT, AlphaM(1.0, 0.5)),
    (_pair("x^2 + 1", "exp(-x) - 3*x"), Interval(-1.0, 2.0), AlphaM(1.0, 1.0)),
    (_pair("x^2", "x^2 - 2*x"), Interval(0.0, 3.0), AlphaM(1.0, 0.5)),
    ((parse("x^2"), parse("3*x^2 + 2")), UNIT, AlphaM(1.0, 1.0)),
    ((parse("1e300*x^2"), parse("1e300*x^2")), UNIT, AlphaM(1.0, 1.0)),
    ((parse("0.5*x + 1"), parse("x^2 + exp(x)")), UNIT, RConvex(1.0)),
    ((parse("x^2 + 1"), parse("3*x^2 + exp(x)")), Interval(-1.0, 2.0), RConvex(1.0)),
])
def test_proved_accepts_pairs(pair, iv, params):
    f, g = pair
    assert proved(f, iv, params, g) is True
    if max(abs(evaluate(e, iv.hi)) for e in pair) < 1e3:
        assert (gap_grid(f, iv, params, g) <= DEFAULT_GRID.tol).all()


@pytest.mark.parametrize("f, g, iv, params", [
    ("exp(3*x)", None, UNIT, AlphaM(1.0, 1.0)),
    ("x^2 - x", None, UNIT, AlphaM(1.0, 0.5)),
    ("x^2 + 1", None, Interval(0.0, 3.0), RConvex(2.0)),
    ("0.5*(x^2 + 1) - 0.5*(exp(x) - x)", "0.5*(x^2 + 1) + 0.5*(exp(x) - x)", UNIT,
     AlphaM(1.0, 1.0)),
    ("x^3 - x", "x^3 + x", UNIT, AlphaM(1.0, 0.75)),
])
@pytest.mark.parametrize("grid", [DEFAULT_GRID, GridSpec(9, 17), GridSpec(10, 7)])
def test_proof_gives_the_grid_pass_result(f, g, iv, params, grid):
    # a proved check returns what a scan of its grid returns on a pass, without scanning
    f, g = parse(f), g and parse(g)
    assert proved(f, iv, params, g)
    with mock.patch.object(convexity, "proved", lambda *args: False):
        scanned = check(f, iv, params, g, grid)
    with mock.patch.object(convexity, "_grid_rows", None):
        assert check(f, iv, params, g, grid) == scanned
        assert passes(f, iv, params, g, grid) is True
    assert scanned.passed


def test_proof_comes_after_argument_checks():
    # m < 1 below 0 is refused before a proof, and a grid whose cube cannot be
    # allocated raises as a scan of it would
    with pytest.raises(ValueError, match="live on \\[0, b\\]"):
        check(parse("x^2"), Interval(-1.0, 1.0), AlphaM(1.0, 0.5))
    with pytest.raises(ValueError, match="live on \\[0, b\\]"):
        passes(parse("x^2"), Interval(-1.0, 1.0), AlphaM(1.0, 0.5), parse("2*x^2"))
    for fn in (check, passes):
        with pytest.raises(MemoryError):
            fn(parse("x^2"), UNIT, AlphaM(1.0, 1.0), grid=GridSpec(10**5, 65))


def test_tree_too_deep_for_the_proof_is_left_to_the_grid():
    # a walk that meets the recursion limit proves nothing, and check scans as before
    f, g = parse("x^2 - x"), parse("3*x^2")

    def too_deep(e):
        raise RecursionError
    with mock.patch.object(convexity, "_linear", too_deep):
        assert proved(f, UNIT, AlphaM(1.0, 1.0), g) is False
        with mock.patch.object(convexity, "_grid_rows", mock.Mock(wraps=convexity._grid_rows)):
            assert check(f, UNIT, AlphaM(1.0, 1.0), g).passed
            assert convexity._grid_rows.called


# ------------------------- proofs from kept linear forms -------------------------

def _fresh(e):
    """A copy of e that shares no node with it, and so no result kept on one."""
    return type(e)(*(_fresh(v) if isinstance(v, Expr) else v
                     for v in (getattr(e, name) for name in e.__match_args__)))


# proved as it was before linear forms and values at 0 were kept on the nodes, as a
# reference: Fraction coefficients, a walk of each side's whole tree, and _shape on fresh
# copies; only its positivity at r >= 1 also takes the enclosures on pieces
def _ref_linear(e):
    match e:
        case Const(v):
            return {ONE: Fraction(v)}
        case Add(l, r) | Sub(l, r):
            terms = Counter(_ref_linear(l))
            (terms.update if isinstance(e, Add) else terms.subtract)(_ref_linear(r))
            return terms
        case Mul(l, r):
            a, b = sorted((_ref_linear(l), _ref_linear(r)), key=lambda t: t.keys() != {ONE})
            if a.keys() == {ONE}:
                return {atom: a[ONE] * c for atom, c in b.items()}
    return {e: Fraction(1)}


def _ref_exact_at_zero(e):
    match e:
        case Const() | Var():
            return Fraction(getattr(e, "value", 0))
        case Add() | Sub() | Mul() if None not in (a := [*map(_ref_exact_at_zero, (e.left, e.right))]):
            return {Add: operator.add, Sub: operator.sub, Mul: operator.mul}[type(e)](*a)
        case Exp(a) if _ref_exact_at_zero(a) == 0:
            return Fraction(1)
        case Pow(b, p) if 0 <= p <= 64 and p.is_integer() and (v := _ref_exact_at_zero(b)) is not None:
            return v ** int(p)
    return None


def _ref_shape(e, iv):
    return expr._shape(_fresh(e), iv)


def _ref_convex(e, iv):
    return all(not c or (s := _ref_shape(atom, iv)) is not None
               and s[0] & (expr._CONVEX if c > 0 else expr._CONCAVE)
               for atom, c in _ref_linear(e).items())


def _ref_proved(f, iv, params, g=None):
    r_class = isinstance(params, RConvex)
    try:
        shapes = [_ref_shape(e, iv) for e in (f, g) if e is not None]
        if None in shapes or max(max(-low, high) for _, low, high in shapes) >= 2.0 ** 1020:
            return False
        if g is None and shapes[0][0] == expr._CONSTANT:
            _, low, high = shapes[0]
            if low > 0.0 if r_class else params.m == 1.0 or high <= 0.0 and iv.lo >= 0.0:
                return True
        if not (params.r == 1.0 or params.r >= 1.0 and g is None if r_class
                else params.alpha == 1.0):
            return False
        sides = (f,) if g is None else (Add(g, f), Sub(g, f))
        if not all(_ref_convex(s, iv) for s in sides):
            return False
        if r_class:
            return all(low > 0.0 or convexity._positive(_fresh(e), iv, 4)
                       for e, (_, low, _) in zip((f, g), shapes))
        return params.m == 1.0 or iv.lo == 0.0 and all(
            (v := _ref_exact_at_zero(side)) is not None and v <= 0 for side in sides)
    except RecursionError:
        return False


ONE = Const(1.0)
# atoms that _shape gives a curvature but that have no exact value at 0: a fractional, negative or
# large power, exp of a tree that is not 0 at 0, log and sqrt
NO_ZERO_RULE = [parse(t) for t in ("(x + 1)^1.5", "(x + 2)^-1", "x^66", "exp(x + 1)",
                                   "log(x + 2)", "sqrt(x + 1)")]
PROOF_PARAMS = [AlphaM(1.0, 1.0), AlphaM(1.0, 0.5), AlphaM(1.0, 0.75), AlphaM(0.5, 1.0),
                RConvex(1.0), RConvex(2.0), RConvex(0.5)]
PROOF_INTERVALS = SHAPE_INTERVALS + [Interval(0.25, 2.0)]
PROOF_TREES = any_tree() | SHAPE_TREES | st.integers(0, 2**32 - 1).map(
    lambda seed: atom_combination(np.random.default_rng(seed)))


@st.composite
def proof_inputs(draw):
    """(f, None), or a stress pair (f, g) whose trees share h and k, or the same pair with g
    a copy that shares no node with f; maybe with c*atom added to f or g, for an atom with no
    value at 0 and c = 0 or not."""
    kind = draw(st.sampled_from(["member", "shared", "copies"]))
    f, g = (draw(PROOF_TREES), None) if kind == "member" else construct_dominated_pair(
        draw(PROOF_TREES), draw(PROOF_TREES))
    if kind == "copies":
        g = _fresh(g)
    if draw(st.booleans()):
        c, atom = draw(st.sampled_from([0.0, 0.5, -0.25])), draw(st.sampled_from(NO_ZERO_RULE))
        f, g = (lin_comb(1.0, f, c, atom), g) if g is None or draw(st.booleans()) else (
            f, lin_comb(1.0, g, c, atom))
    return f, g


@settings(max_examples=3 * PROOF_EXAMPLES, deadline=None)
@given(proof_inputs(), st.sampled_from(PROOF_INTERVALS), st.sampled_from(PROOF_PARAMS),
       st.sampled_from(PROOF_INTERVALS))
@example(_pair("x^2 + 0*(x + 1)^1.5", "x^2"), UNIT, AlphaM(1.0, 0.5), UNIT)
@example(_pair("x^2 + 0*(x + 1)^1.5", "x^2"), UNIT, AlphaM(1.0, 1.0), UNIT)
@example(_pair("x^2 + 0.5*x^66", "x^3"), UNIT, AlphaM(1.0, 0.5), Interval(0.0, 3.0))
@example(_pair("x^2 + 0.5*(exp(x) - 1)", "0.7*x + 1.3*x^3"), UNIT, AlphaM(1.0, 0.5),
         Interval(0.5, 2.0))
@example(_pair("3*x^2 + 2", "x^2 + 1"), UNIT, RConvex(1.0), Interval(-1.0, 1.0))
def test_proved_from_kept_forms_matches_the_reference(pair, iv, params, other):
    """proved gives the reference's verdict, on trees new to it and on trees it has proved
    on another interval, whose nodes keep the results of that proof; each tree's and each
    side's linear form and value at 0 are the reference's, zero coefficients included."""
    f, g = pair
    want = _ref_proved(f, iv, params, g)
    assert proved(f, iv, params, g) is want
    proved(f, other, params, g)
    assert proved(f, iv, params, g) is want
    for e in (f,) if g is None else (f, g, Add(g, f), Sub(g, f)):
        assert _or_error(_kept_linear, e) == _or_error(lambda e: dict(_ref_linear(e)), e)
        assert _or_error(expr._exact_at_zero, e) == _or_error(_ref_exact_at_zero, e)


def _kept_linear(e):
    k, terms = expr._linear(e)
    return {atom: Fraction(c, 1 << k) for atom, c in terms.items()}


def _or_error(fn, e):
    """fn(e), or "raised" where a constant that is not finite makes it raise: proved never
    asks, as _shape refuses such a tree first, so which constant raises first may differ."""
    try:
        return fn(e)
    except (ValueError, OverflowError):
        return "raised"


def _looks(e):
    return (e == _fresh(e), hash(e), repr(e), to_string(e),
            [(name, getattr(e, name)) for name in e.__match_args__],
            compose_affine(e, 0.5, 0.25))


@settings(max_examples=PROOF_EXAMPLES, deadline=None)
@given(SHAPE_TREES, SHAPE_TREES, st.sampled_from(PROOF_PARAMS), st.sampled_from(PROOF_INTERVALS),
       st.sampled_from(PROOF_INTERVALS))
def test_kept_proof_results_are_invisible(h, k, params, iv, other):
    """A proof leaves ==, hash, repr, to_string, the fields and compose_affine of its trees
    as they were; h and k, each a subtree of both f and g, and f proved on two intervals get
    the verdicts that trees sharing no node get."""
    f, g = construct_dominated_pair(h, k)
    before = [_looks(e) for e in (f, g, h, k)]
    calls = [(f, iv, g), (h, other, None), (k, iv, None), (f, other, g), (g, iv, None),
             (f, iv, g)]
    fresh = [proved(_fresh(e), piv, params, g2 and _fresh(g2)) for e, piv, g2 in calls]
    assert [proved(e, piv, params, g2) for e, piv, g2 in calls] == fresh
    assert [_looks(e) for e in (f, g, h, k)] == before


def test_proof_on_pieces_passes_on_the_grid():
    """Each stress pair at r = 1 that proved accepts only through enclosures on pieces of
    the interval, as f's or g's enclosure on all of it reaches 0, passes on the grid."""
    config, r_one, newly = StressConfig(alpha_pool=(), m_pool=(), r_pool=(1.0,)), RConvex(1.0), 0
    for seed in range(12):
        for iv in (UNIT, Interval(0.0, 3.0), Interval(0.5, 2.0)):
            pair, _ = _draw_pair(_trial_rng(seed, 0), r_one, iv, config)
            if pair is None or min(expr._shape(e, iv)[1] for e in pair) > 0.0:
                continue
            f, g = pair
            if proved(f, iv, r_one, g):
                newly += 1
                with mock.patch.object(convexity, "proved", lambda *args: False):
                    assert check(f, iv, r_one, g).passed
    assert newly >= 10
