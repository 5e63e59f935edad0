from __future__ import annotations

import math
import sys
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhcert import convexity
from hhcert.convexity import (DEFAULT_GRID, AlphaM, CheckResult, GridSpec,
                              NonPositiveFunction, RConvex, Witness, check,
                              check_alpha_m_convex, check_dominated_alpha_m,
                              check_dominated_r, check_r_convex, construct_dominated_pair,
                              gap_grid, passes, proved, split_pair)
from hhcert.expr import (Add, Const, DomainError, Exp, Interval, Mul, Pow, Sub, X, evaluate,
                         lin_comb, parse, to_string)
from hhcert.means import _power_mean_raw, power_mean

from conftest import any_tree, atom_combination

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
    for bit the formula on the whole (x, y, t) cube for random f values."""
    fx = np.array(fx)
    fake = lambda f, pts: fx if pts.ndim == 1 else np.ones(pts.shape)   # f on xs, on comb
    with mock.patch.object(convexity, "_BLOCK", block), \
            mock.patch.object(convexity, "evaluate", fake), np.errstate(all="ignore"):
        rows, xs, ts, step = convexity._grid_rows(
            parse("x"), None, UNIT, params, GridSpec(len(fx), n_lambda))[-1]
        got = np.concatenate([rows(slice(i, i + step))[1] for i in range(0, len(xs), step)])
        x, y = fx[:, None, None], fx[None, :, None]
        if isinstance(params, RConvex):
            want = _power_mean_raw(x, y, ts, params.r)
        else:
            ta = ts ** params.alpha
            want = ta * x + params.m * (1.0 - ta) * y
    assert got.tobytes() == want.tobytes()


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
    for a, b in zip(sub, full):
        assert a.flags.c_contiguous and not a.flags.writeable
        assert np.array_equal(a, b[(slice(None, None, 4),) * b.ndim])
    for n_xy, n_lambda in ((10, 7), (33, 66), (34, 65)):
        assert len(convexity._grids(0.0.hex(), 1.0.hex(), 1.0, n_xy, n_lambda)) == 1


# ------------------------- membership by construction -------------------------

def shape_trees():
    """Trees over the nodes that proved has rules for, with moderate constants."""
    leaf = st.one_of(st.just(X), st.builds(Const, st.sampled_from(
        [0.0, 0.5, 1.0, 2.0, 3.0, -0.5, -1.0, -2.0, 0.1, 1.7])))

    def extend(kids):
        return st.one_of(
            *(st.builds(t, kids, kids) for t in (Add, Sub)),
            st.builds(Mul, leaf, kids), st.builds(Mul, kids, kids), st.builds(Exp, kids),
            st.builds(Pow, kids, st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, -1.0, -2.0])))

    return st.recursive(leaf, extend, max_leaves=6)


def _mp(e, x):
    """e at x in mpmath's working precision."""
    match e:
        case Const(v):
            return mpmath.mpf(v)
        case Add(l, r) | Sub(l, r) | Mul(l, r):
            a, b = _mp(l, x), _mp(r, x)
            return a + b if isinstance(e, Add) else a - b if isinstance(e, Sub) else a * b
        case Pow(b, p):
            return _mp(b, x) ** (int(p) if p.is_integer() else mpmath.mpf(p))
        case Exp(a):
            return mpmath.exp(_mp(a, x))
    return x


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
def test_proved_pairs_are_dominated(pair, iv, params):
    """Where proved holds for a pair, g + f and g - f are convex to 50 digits on
    a fine grid and, at m < 1, at most 0 at 0; the grid's own dominance gaps stay
    within its tolerance.  r-classes and alpha < 1 are never proved."""
    f, g = pair
    if not proved(f, iv, params, g):
        return
    assert isinstance(params, AlphaM) and params.alpha == 1.0
    with mpmath.workdps(50):
        xs = _mp_points(iv)
        fs, gs = [_mp(f, x) for x in xs], [_mp(g, x) for x in xs]
        scale = 1 + max(max(abs(y) for y in fs), max(abs(y) for y in gs))
        for sign in (1, -1):
            assert _second_differences_ok([b + sign * a for a, b in zip(fs, gs)], scale)
            if params.m < 1.0:
                assert _mp(g, mpmath.mpf(0)) + sign * _mp(f, mpmath.mpf(0)) <= 0
    if scale < 1e3:
        grid = GridSpec(17, 33)
        assert (gap_grid(f, iv, params, g, grid) <= grid.tol).all()


@pytest.mark.parametrize("text, iv, params", [
    ("x^1.5", UNIT, AlphaM(1.0, 1.0)),                          # evaluate raises at 0
    ("1e200*x^4", Interval(0.0, 1e80), AlphaM(1.0, 1.0)),       # overflows
    ("exp(800*x)", UNIT, AlphaM(1.0, 1.0)),
    ("x + 1", UNIT, AlphaM(1.0, 0.5)),                          # f(0) > 0
    ("x + 1e-300*1e-300", UNIT, AlphaM(1.0, 0.5)),              # f(0) > 0, rounded to 0
    ("x^2 - 1", UNIT, RConvex(1.0)),                            # not positive
    ("x^2", UNIT, RConvex(2.0)),                                # zero at 0
    ("-x^2", UNIT, AlphaM(1.0, 1.0)),
    ("sqrt(x)", UNIT, AlphaM(1.0, 1.0)),
    ("abs(x - 0.5)", UNIT, AlphaM(1.0, 1.0)),
    ("x^3", Interval(-1.0, 1.0), AlphaM(1.0, 1.0)),
    ("(x - 0.5)^3 + 2", UNIT, RConvex(1.0)),
    ("x^-1", Interval(-2.0, -1.0), AlphaM(1.0, 1.0)),
    ("(x^2 - 1)^2", UNIT, AlphaM(1.0, 1.0)),
    ("x*x", UNIT, AlphaM(1.0, 1.0)),                            # a product of two non-constants
    ("x^2", UNIT, AlphaM(0.5, 1.0)),                            # no rule below alpha = 1
    ("x^2 + 1", UNIT, RConvex(0.5)),                            # nor below r = 1
    ("2e307*x^2", UNIT, AlphaM(1.0, 1.0)),                      # beyond 2^1020
    ("x^2 - 1.5*x^2", UNIT, AlphaM(1.0, 1.0)),                  # concave once collected
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
    (_pair("x^2 + 1", "exp(x)"), UNIT, RConvex(1.0)),
    (_pair("x^2", "x^2 + 1"), UNIT, AlphaM(1.0, 0.5)),          # (g - f)(0) > 0
    (_pair("x^2 + 1e-300*1e-300", "x^2"), UNIT, AlphaM(1.0, 0.5)),  # (g + f)(0) > 0
    (_pair("x^2", "sqrt(x + 1)"), UNIT, AlphaM(1.0, 1.0)),      # no rule for sqrt
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
