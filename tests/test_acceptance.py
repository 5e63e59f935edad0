"""Acceptance suite.

Each test covers one acceptance criterion, prints a single pass/fail
line, and enforces the stated runtime budget where one applies.  Run
with ``pytest -v`` (or ``-s`` to see the per-criterion lines).
"""

from __future__ import annotations

import functools
import io
import json
import time

import numpy as np
import pytest

from hhcert.cli import run as cli_run
from hhcert.convexity import (AlphaM, GridSpec, check_alpha_m_convex,
                              check_dominated_alpha_m, gap_grid, split_pair)
from hhcert.expr import Add, Const, Interval, Mul, Pow, X, parse
from hhcert.hh import run_verifier, run_verifiers
from hhcert.means import gen_log_mean, power_mean
from hhcert.quadrature import integrate
from hhcert.search import StressConfig, stress
from hhcert.expr import lin_comb

from conftest import atom_combination

UNIT = Interval(0.0, 1.0)
SEED = 20240823


def criterion(label, budget=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            elapsed = time.monotonic() - start
            if budget is not None and elapsed >= budget:
                print(f"{label}: FAIL (took {elapsed:.2f}s, budget {budget}s)")
                raise AssertionError(
                    f"{label} exceeded its {budget}s runtime budget "
                    f"({elapsed:.2f}s)")
            print(f"{label}: PASS ({elapsed:.2f}s)")
        return wrapper
    return deco


@criterion("criterion 1 (mean branch continuity)", budget=1.0)
def test_criterion_1_mean_branch_continuity():
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        x = float(rng.uniform(0.1, 10.0))
        y = float(rng.uniform(0.1, 10.0))
        lam = float(rng.uniform(0.0, 1.0))
        l0 = gen_log_mean(x, y, 0.0).value
        lm1 = gen_log_mean(x, y, -1.0).value
        m0 = power_mean(x, y, lam, 0.0)
        for dr in (1e-7, -1e-7):
            assert abs(gen_log_mean(x, y, dr).value - l0) <= 1e-5 * l0
            assert abs(gen_log_mean(x, y, -1.0 + dr).value - lm1) <= 1e-5 * lm1
            assert abs(power_mean(x, y, lam, dr) - m0) <= 1e-5 * m0


@criterion("criterion 2 (quadrature vs antiderivative)", budget=1.0)
def test_criterion_2_quadrature_oracle():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(50):
        deg = int(rng.integers(0, 9))
        coeffs = [float(c) for c in rng.uniform(-10.0, 10.0, size=deg + 1)]
        expr = Const(coeffs[0])
        for k, c in enumerate(coeffs[1:], start=1):
            expr = Add(expr, Mul(Const(c), Pow(X, float(k))))
        exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
        got = integrate(expr, UNIT).value
        assert abs(got - exact) <= 1e-10


@criterion("criterion 3 (dominance equals two-membership conjunction)",
           budget=30.0)
def test_criterion_3_dominance_equivalence():
    rng = np.random.default_rng(SEED + 2)
    params = [(0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0)]
    grid = GridSpec(33, 65)
    for i in range(200):
        f = atom_combination(rng)
        g = atom_combination(rng)
        alpha, m = params[i % 4]
        plus, minus = split_pair(f, g)
        dom = gap_grid(f, UNIT, AlphaM(alpha, m), g, grid)
        gp = gap_grid(plus, UNIT, AlphaM(alpha, m), grid=grid)
        gm = gap_grid(minus, UNIT, AlphaM(alpha, m), grid=grid)
        assert dom.shape == (33, 33, 65)
        # per-point verdict agreement between the two formulations
        assert np.array_equal(dom > grid.tol,
                              np.maximum(gp, gm) > grid.tol)
        # whole-check verdict agreement
        res_dom = check_dominated_alpha_m(f, g, UNIT, alpha, m, grid)
        res_p = check_alpha_m_convex(plus, UNIT, alpha, m, grid)
        res_m = check_alpha_m_convex(minus, UNIT, alpha, m, grid)
        assert res_dom.passed == (res_p.passed and res_m.passed)


@criterion("criterion 4 (stress soundness)", budget=60.0)
def test_criterion_4_stress_soundness():
    am = stress(StressConfig(seed=SEED, trials=100))
    for tid in ("theorem_a_first", "theorem_a_second", "t1_first",
                "t1_second", "t2"):
        st = am.verifiers[tid]
        assert st.fails == 0, tid
        assert st.passes > 0, tid
        assert st.min_slack >= -1e-8, tid
    assert am.worst_failure is None

    rr = stress(StressConfig(seed=SEED + 3, trials=100, alpha_pool=(),
                             m_pool=(), r_pool=(1.0,)))
    st = rr.verifiers["gr_dominated"]
    assert st.fails == 0
    assert st.passes > 0
    assert st.min_slack >= -1e-8
    assert rr.verifiers["gill_r"].fails == 0
    assert rr.worst_failure is None


@criterion("criterion 5 (alpha=1 reduction)")
def test_criterion_5_alpha_one_reduction():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(50):
        f = atom_combination(rng)
        g = atom_combination(rng)
        m = float(rng.uniform(0.25, 1.0))
        kw = dict(a=0.0, b=1.0, alpha=1.0, m=m, hypotheses=False)
        a1, a2 = run_verifiers(("theorem_a_first", "theorem_a_second"), f, g, **kw)
        b1 = run_verifier("t1_first", f, g, **kw)
        b2 = run_verifier("t1_second", f, g, **kw)
        assert abs(b1.lhs - a1.lhs) <= 1e-12
        assert abs(b1.rhs - a1.rhs) <= 1e-12
        assert abs(b2.lhs - a2.lhs) <= 1e-12
        assert abs(b2.rhs - a2.rhs) <= 1e-12


@criterion("criterion 6 (forced equality cases)")
def test_criterion_6_equality_regressions():
    x2 = parse("x^2")
    for tid in ("t1_first", "t1_second", "t2"):
        rep = run_verifier(tid, x2, x2, a=0.0, b=1.0, alpha=1.0, m=1.0)
        assert abs(rep.slack) <= 1e-10
    ex = parse("exp(x)")
    rep = run_verifier("gr_dominated", ex, ex, a=0.0, b=1.0, r=0.0)
    assert abs(rep.lhs) <= 1e-9
    assert abs(rep.rhs) <= 1e-9
    assert abs(run_verifier("gill_r", ex, a=0.0, b=1.0, r=0.0).slack) <= 1e-9


@criterion("criterion 7 (violation witnesses)")
def test_criterion_7_violation_detection():
    res = check_alpha_m_convex(parse("x"), UNIT, 0.5, 1.0)
    assert not res.passed
    assert res.witness.gap >= 0.2
    assert (res.witness.x, res.witness.y, res.witness.lam) == (0.0, 1.0, 0.25)
    assert res.witness.gap == pytest.approx(0.25, abs=1e-15)

    res = check_dominated_alpha_m(parse("x^2"), Const(0.0), UNIT, 1.0, 1.0)
    assert not res.passed
    assert res.witness.gap >= 0.2


@criterion("criterion 8 (two-proof equivalence for t2)")
def test_criterion_8_t2_biconditional():
    rng = np.random.default_rng(SEED + 5)
    pool = (0.25, 0.5, 0.75, 1.0)
    for i in range(50):
        f = atom_combination(rng)
        g = atom_combination(rng)
        alpha = pool[int(rng.integers(0, 4))]
        m = pool[int(rng.integers(0, 4))]
        kw = dict(a=0.0, b=1.0, alpha=alpha, m=m, hypotheses=False)
        rep = run_verifier("t2", f, g, **kw)
        # the trapezoid residual of g + f and of g - f
        rp = run_verifier("set_trapezoid", lin_comb(1.0, g, 1.0, f), **kw).slack
        rm = run_verifier("set_trapezoid", lin_comb(1.0, g, -1.0, f), **kw).slack
        assert rep.holds == (rp >= -rep.tol and rm >= -rep.tol)


@criterion("criterion 9 (CLI contract)")
def test_criterion_9_cli_contract():
    def run_argv(argv):
        out, err = io.StringIO(), io.StringIO()
        code = cli_run(argv, stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    argv1 = ["verify", "t2", "--f", "x^2", "--g", "x^2", "--a", "0", "--b",
             "1", "--alpha", "1", "--m", "1", "--json"]
    code, out, _ = run_argv(argv1)
    assert code == 0
    payload = json.loads(out)
    assert list(payload.keys()) == ["theorem_id", "params", "lhs", "rhs",
                                    "slack", "tol", "holds", "quad_error",
                                    "hypothesis"]
    assert abs(payload["slack"]) <= 1e-8

    code, out, _ = run_argv(["means", "--kind", "logmean", "--x",
                             "2.718281828", "--y", "1", "--r", "0"])
    assert code == 0
    assert out.strip().startswith("1.7182818")

    code, out, _ = run_argv(["check-convexity", "--f", "x", "--a", "0",
                             "--b", "1", "--alpha", "0.5", "--m", "1"])
    assert code == 1
    assert "x=0 y=1 t=0.25" in out
    assert "gap=0.25" in out

    # byte-identical repeats
    for argv in (argv1,
                 ["stress", "--seed", "5", "--trials", "3", "--json"],
                 ["scan", "--f", "0", "--g", "x^2", "--a", "0", "--b", "1",
                  "--alpha-list", "0.5,1", "--m-list", "1", "--csv"]):
        assert run_argv(argv) == run_argv(argv)
