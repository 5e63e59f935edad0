from __future__ import annotations

import json
import math

import numpy as np
import pytest

from hhcert import hh
from hhcert.convexity import GridSpec, NonPositiveFunction
from hhcert.expr import Const, Interval, compose_affine, lin_comb, parse
from hhcert.hh import NEEDS_G, THEOREM_IDS, report_json, run_verifier, run_verifiers

X2 = parse("x^2")
EX = parse("exp(x)")
CLASSIC = ("classic_hh_left", "classic_hh_right")
DRAGOMIR = ("dragomir_left", "dragomir_right")
THEOREM_A = ("theorem_a_first", "theorem_a_second")


def _residual(f, alpha, m):
    """Trapezoid form minus the averaged integral of f over [0, 1]."""
    return run_verifier("set_trapezoid", f, a=0.0, b=1.0, alpha=alpha, m=m,
                        hypotheses=False).slack

# ------------------------- classic two-sided bound -------------------------


def test_classic_worked_values():
    left, right = run_verifiers(CLASSIC, X2, a=0.0, b=1.0)
    assert left.lhs == pytest.approx(0.25, abs=1e-15)
    assert left.rhs == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert right.lhs == left.rhs
    assert right.rhs == pytest.approx(0.5, abs=1e-15)
    assert left.holds and right.holds
    assert left.hypothesis["f_convex"].status == "pass"


def test_classic_concave_violates_left():
    left, right = run_verifiers(CLASSIC, parse("-x^2"), a=0.0, b=1.0)
    assert not left.holds
    assert left.slack == pytest.approx(-1.0 / 12.0, abs=1e-12)
    assert not right.holds
    assert left.hypothesis["f_convex"].status == "violation"
    assert left.hypothesis["f_convex"].witness is not None


def test_classic_on_interval_left_of_zero():
    left, _ = run_verifiers(CLASSIC, X2, a=-1.0, b=1.0)
    assert left.holds
    assert left.hypothesis["f_convex"].status == "pass"


def test_classic_equality_for_affine():
    left, right = run_verifiers(CLASSIC, parse("3*x - 1"), a=0.0, b=2.0)
    assert left.slack == pytest.approx(0.0, abs=1e-12)
    assert right.slack == pytest.approx(0.0, abs=1e-12)


# ------------------------- scaled-argument refinements -------------------------


def test_dragomir_worked_values():
    left, right = run_verifiers(DRAGOMIR, X2, a=0.0, b=1.0, m=0.5)
    # (1/2)[f(x) + m f(x/m)] for f = x^2, m = 1/2 equals (3/2) x^2
    assert left.lhs == pytest.approx(0.25, abs=1e-15)
    assert left.rhs == pytest.approx(0.5, abs=1e-12)
    assert right.lhs == left.rhs
    assert right.rhs == pytest.approx(1.5, abs=1e-12)
    assert left.holds and right.holds


def test_dragomir_reduces_to_classic_at_m_one():
    for f in (X2, EX, parse("x^4 + x")):
        cl, cr = run_verifiers(CLASSIC, f, a=0.0, b=1.0, hypotheses=False)
        dl, dr = run_verifiers(DRAGOMIR, f, a=0.0, b=1.0, m=1.0, hypotheses=False)
        assert dl.lhs == cl.lhs and dl.rhs == cl.rhs
        assert dr.lhs == cr.lhs and dr.rhs == cr.rhs


def test_dragomir_rejects_bad_m():
    with pytest.raises(ValueError):
        run_verifiers(DRAGOMIR, X2, a=0.0, b=1.0, m=0.0)
    with pytest.raises(ValueError):
        run_verifiers(DRAGOMIR, X2, a=0.0, b=1.0, m=1.5)
    with pytest.raises(ValueError):
        run_verifiers(DRAGOMIR, X2, a=-1.0, b=1.0, m=0.5)     # negative left endpoint


def test_set_midpoint_weighted_forms():
    # alpha = m = 1 reduces to the classic left bound
    rep = run_verifier("set_midpoint", X2, a=0.0, b=1.0, alpha=1.0, m=1.0)
    assert rep.lhs == pytest.approx(0.25, abs=1e-15)
    assert rep.rhs == pytest.approx(1.0 / 3.0, abs=1e-12)
    # constant function with alpha = 1/2, m = 1: both sides collapse
    rep = run_verifier("set_midpoint", Const(1.0), a=0.0, b=1.0, alpha=0.5, m=1.0)
    assert rep.slack == pytest.approx(0.0, abs=1e-12)
    assert rep.holds


def test_set_trapezoid_worked_values():
    rep = run_verifier("set_trapezoid", X2, a=0.0, b=1.0, alpha=1.0, m=1.0)
    assert rep.lhs == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.5, abs=1e-15)
    assert rep.holds


def test_midpoint_inequality_holds_despite_failed_hypothesis():
    # the report separates conclusion from hypothesis certification
    rep = run_verifier("set_midpoint", parse("x"), a=0.0, b=1.0, alpha=0.5, m=1.0)
    assert rep.holds
    assert rep.slack == pytest.approx(0.0, abs=1e-12)
    assert rep.hypothesis["f_alpha_m_convex"].status == "violation"


# ------------------------- order-r mean bound -------------------------


def test_gill_log_convex_equality():
    rep = run_verifier("gill_r", EX, a=0.0, b=1.0, r=0.0)
    assert rep.lhs == pytest.approx(math.e - 1.0, abs=1e-12)
    assert rep.rhs == pytest.approx(math.e - 1.0, abs=1e-12)
    assert abs(rep.slack) <= 1e-9
    assert rep.holds


def test_gill_order_one_is_trapezoid_bound():
    f = parse("x^2 + 1")
    rep = run_verifier("gill_r", f, a=0.0, b=1.0, r=1.0)
    assert rep.lhs == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert rep.rhs == pytest.approx(1.5, abs=1e-12)      # arithmetic mean of 1, 2
    assert rep.slack == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_gill_requires_positive_f():
    with pytest.raises(NonPositiveFunction):
        run_verifier("gill_r", parse("x - 3"), a=0.0, b=1.0, r=1.0)


def test_gill_reflection_symmetry():
    # reflecting the function across the interval midpoint swaps the
    # endpoint values; the mean bound is symmetric so both sides agree
    f = parse("exp(x) + x^2")
    a, b = 0.25, 1.75
    g = compose_affine(f, -1.0, a + b)
    r1 = run_verifier("gill_r", f, a=a, b=b, r=0.7, hypotheses=False)
    r2 = run_verifier("gill_r", g, a=a, b=b, r=0.7, hypotheses=False)
    assert r1.lhs == pytest.approx(r2.lhs, rel=1e-10)
    assert r1.rhs == pytest.approx(r2.rhs, rel=1e-12)


# ------------------------- dominance-form bounds -------------------------


def test_theorem_a_equal_pair_slack_zero():
    first, second = run_verifiers(THEOREM_A, X2, X2, a=0.0, b=1.0, m=0.5)
    assert first.lhs == pytest.approx(0.25, abs=1e-12)
    assert first.slack == pytest.approx(0.0, abs=1e-12)
    assert second.slack == pytest.approx(0.0, abs=1e-12)
    assert first.holds and second.holds


def test_t1_worked_values():
    f, g = parse("0.5*x^2"), parse("1.5*x^2")
    first = run_verifier("t1_first", f, g, a=0.0, b=1.0, alpha=1.0, m=1.0)
    second = run_verifier("t1_second", f, g, a=0.0, b=1.0, alpha=1.0, m=1.0)
    assert first.lhs == pytest.approx(1.0 / 24.0, abs=1e-12)
    assert first.rhs == pytest.approx(1.0 / 8.0, abs=1e-12)
    assert second.lhs == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert second.rhs == pytest.approx(1.0 / 4.0, abs=1e-12)
    assert first.holds and second.holds


def test_t1_reduces_to_theorem_a_at_alpha_one():
    f, g = parse("0.5*x^2 + x"), parse("1.5*x^2 + 2*x")
    for m in (1.0, 0.75, 0.5):
        a1, a2 = run_verifiers(THEOREM_A, f, g, a=0.0, b=1.0, m=m, hypotheses=False)
        b1 = run_verifier("t1_first", f, g, a=0.0, b=1.0, alpha=1.0, m=m, hypotheses=False)
        b2 = run_verifier("t1_second", f, g, a=0.0, b=1.0, alpha=1.0, m=m, hypotheses=False)
        # bitwise: the alpha = 1 weighted forms are the same expressions
        assert (b1.lhs, b1.rhs) == (a1.lhs, a1.rhs)
        assert (b2.lhs, b2.rhs) == (a2.lhs, a2.rhs)


def test_t2_equal_pair_and_zero_function():
    rep = run_verifier("t2", X2, X2, a=0.0, b=1.0, alpha=1.0, m=1.0)
    assert rep.lhs == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert rep.slack == pytest.approx(0.0, abs=1e-12)
    rep = run_verifier("t2", Const(0.0), X2, a=0.0, b=1.0, alpha=1.0, m=1.0)
    assert rep.lhs == 0.0
    assert rep.rhs == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_t2_verdict_matches_residual_route():
    cases = [
        (parse("0.5*x^2 + x"), parse("1.5*x^2 + 2*x"), 0.5, 0.75),
        (X2, X2, 1.0, 1.0),
        (X2, parse("0.1*x^2"), 1.0, 1.0),      # violating pair
        (parse("exp(x) - 1"), parse("2*exp(x)"), 0.75, 1.0),
    ]
    for f, g, alpha, m in cases:
        rep = run_verifier("t2", f, g, a=0.0, b=1.0, alpha=alpha, m=m, hypotheses=False)
        rp = _residual(lin_comb(1.0, g, 1.0, f), alpha, m)
        rm = _residual(lin_comb(1.0, g, -1.0, f), alpha, m)
        assert rep.holds == (rp >= -rep.tol and rm >= -rep.tol)
        assert rep.slack == pytest.approx(min(rp, rm), abs=1e-10)


def test_t2_violating_pair_reports_negative_slack():
    rep = run_verifier("t2", X2, parse("0.1*x^2"), a=0.0, b=1.0, alpha=1.0, m=1.0)
    assert not rep.holds
    assert rep.slack == pytest.approx(0.1 / 6.0 - 1.0 / 6.0, abs=1e-10)


def test_gr_dominated_worked_values():
    rep = run_verifier("gr_dominated", X2, parse("2*x^2"), a=1.0, b=2.0, r=1.0)
    assert rep.lhs == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert rep.rhs == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert rep.holds
    assert rep.hypothesis["g_r_convex"].status == "pass"
    assert rep.hypothesis["f_dominated"].status == "pass"


def test_gr_dominated_equal_log_convex_pair():
    rep = run_verifier("gr_dominated", EX, EX, a=0.0, b=1.0, r=0.0)
    assert rep.lhs == pytest.approx(0.0, abs=1e-9)
    assert rep.rhs == pytest.approx(0.0, abs=1e-9)
    assert rep.holds


def test_gr_dominated_needs_positive_functions():
    with pytest.raises(NonPositiveFunction):
        run_verifier("gr_dominated", parse("x - 2"), EX, a=0.0, b=1.0, r=0.0)
    with pytest.raises(NonPositiveFunction):
        run_verifier("gr_dominated", EX, parse("x - 2"), a=0.0, b=1.0, r=0.0)


# ------------------------- trapezoid residual -------------------------


def test_trapezoid_residual_nonnegative_for_convex():
    # convex functions keep the trapezoid form above the averaged integral
    for f in (X2, EX, parse("x^4 + 2*x")):
        assert _residual(f, 1.0, 1.0) >= -1e-12


def test_trapezoid_residual_worked_value():
    # f = x^2, alpha = m = 1: (f(0) + f(1))/2 - 1/3 = 1/6
    res = _residual(X2, 1.0, 1.0)
    assert res == pytest.approx(1.0 / 6.0, abs=1e-12)


# ------------------------- dispatcher -------------------------


def _dispatch_args(tid):
    kw = {"a": 0.0, "b": 1.0}
    if tid in ("gill_r", "gr_dominated"):
        kw["r"] = 0.0
    if tid in ("dragomir_left", "dragomir_right", "theorem_a_first",
               "theorem_a_second"):
        kw["m"] = 0.5
    if tid in ("set_midpoint", "set_trapezoid", "t1_first", "t1_second", "t2"):
        kw["alpha"] = 0.5
        kw["m"] = 0.5
    return kw


def test_run_verifier_covers_every_theorem():
    for tid in THEOREM_IDS:
        g = EX if tid in NEEDS_G else None
        rep = run_verifier(tid, EX, g, hypotheses=False, **_dispatch_args(tid))
        assert rep.theorem_id == tid
        assert math.isfinite(rep.slack)


@pytest.mark.parametrize("ids, kw", [
    (CLASSIC, {}),
    (DRAGOMIR, dict(m=0.5)),
    (THEOREM_A, dict(m=0.5)),
    (("theorem_a_first", "theorem_a_second", "t1_first", "t1_second", "t2"),
     dict(alpha=0.5, m=0.5)),
    (THEOREM_IDS, dict(alpha=1.0, m=0.5, r=1.0)),
    (THEOREM_IDS, dict(alpha=0.5, m=0.5, r=1.0)),
])
def test_run_verifiers_matches_each_id_alone(ids, kw):
    # memo sharing inside one engine call changes no bit of any report
    f, g = parse("exp(x) + x^2"), parse("2*exp(x) + 3*x^2")
    g = g if NEEDS_G.intersection(ids) else None
    for hypotheses in (False, True):
        args = dict(kw, a=0.0, b=1.0, hypotheses=hypotheses)
        together = run_verifiers(ids, f, g, **args)
        for tid, rep in zip(ids, together, strict=True):
            alone = run_verifier(tid, f, g, **args)
            assert report_json(rep) == report_json(alone), (tid, hypotheses)


STRESS_IDS = ("theorem_a_first", "theorem_a_second", "t1_first", "t1_second", "t2")


@pytest.mark.parametrize("ids, kw, counts", [
    # f and g each averaged plainly and as (f(x) + m*f(x/m))/2, which at
    # alpha = 1 is also the 2^alpha weighting; 10 distinct grid checks
    (THEOREM_IDS, dict(alpha=1.0, m=0.5), {"integrate": 4, "_status": 10}),
    # the 2^alpha weighting adds one integral per function
    (THEOREM_IDS, dict(alpha=0.5, m=0.5), {"integrate": 6}),
    # f and g at (a+b)/2, a = a/m = 0, b, b/m and b/m^2
    (STRESS_IDS, dict(alpha=1.0, m=0.5, hypotheses=False), {"integrate": 4, "evaluate": 10}),
], ids=["all_alpha_1", "all_alpha_half", "stress_ids"])
def test_run_verifiers_computes_each_distinct_value_once(monkeypatch, ids, kw, counts):
    calls = dict.fromkeys(counts, 0)
    for name in counts:
        real = getattr(hh, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(hh, name, counting)
    f, g = parse("exp(x) + x^2"), parse("2*exp(x) + 3*x^2")
    run_verifiers(ids, f, g, a=0.0, b=1.0, r=1.0, **kw)
    assert calls == counts


def test_point_values_keep_the_sign_of_zero():
    # (a + b)/2 rounds to -0.0 and b is 0.0: equal as keys, but 0*x tells
    # them apart, so the pair must not share f((a+b)/2) as f(b)
    f = parse("0*x")
    args = dict(a=-5e-324, b=0.0, hypotheses=False)
    together = run_verifiers(CLASSIC, f, **args)
    assert [report_json(rep) for rep in together] == [
        report_json(run_verifier(tid, f, **args)) for tid in CLASSIC]
    assert together[1].rhs == 0.0 and math.copysign(1.0, together[1].rhs) == 1.0


def test_pairs_integrate_each_function_once(monkeypatch):
    calls = []
    real = hh.integrate

    def counting(e, iv, tol):
        calls.append(e)
        return real(e, iv, tol)

    monkeypatch.setattr(hh, "integrate", counting)
    run_verifiers(CLASSIC, X2, a=0.0, b=1.0, hypotheses=False)
    assert len(calls) == 1
    calls.clear()
    run_verifiers(THEOREM_A, X2, EX, a=0.0, b=1.0, m=0.5, hypotheses=False)
    assert len(calls) == 2


def test_scaled_function_composed_once_per_call(monkeypatch):
    # dragomir_left averages (f + m*f(x/m))/2 and set_midpoint the 2^alpha
    # weighting; both read the one f(x/m)
    calls = []
    real = hh.compose_affine

    def counting(e, p, q):
        calls.append(e)
        return real(e, p, q)

    monkeypatch.setattr(hh, "compose_affine", counting)
    args = dict(a=0.0, b=1.0, alpha=0.5, m=0.75, hypotheses=False)
    ids = ("dragomir_left", "set_midpoint")
    together = run_verifiers(ids, X2, **args)
    assert calls == [X2]
    calls.clear()
    run_verifiers(("theorem_a_first", "t1_first"), X2, EX, **args)
    assert calls == [X2, EX]
    alone = [run_verifier(tid, X2, **args) for tid in ids]
    assert [report_json(rep) for rep in together] == [report_json(rep) for rep in alone]


@pytest.mark.parametrize("ids, kw", [
    (("theorem_a_first", "theorem_a_second", "t1_first", "t1_second", "t2"),
     dict(alpha=1.0, m=1.0)),
    (("theorem_a_first", "theorem_a_second", "t1_first", "t1_second", "t2"),
     dict(alpha=1.0, m=0.5)),
    (("gr_dominated", "gill_r"), dict(r=0.5)),
])
def test_run_verifiers_shares_work_without_changing_values(monkeypatch, ids, kw):
    f, g = parse("exp(x) + x^2"), parse("2*exp(x) + 3*x^2")
    calls = []
    real = hh.integrate

    def counting(e, iv, tol):
        calls.append(e)
        return real(e, iv, tol)

    monkeypatch.setattr(hh, "integrate", counting)
    for hypotheses in (False, True):
        args = dict(kw, a=0.0, b=1.0, hypotheses=hypotheses)
        calls.clear()
        together = run_verifiers(ids, f, g, **args)
        shared = len(calls)
        calls.clear()
        alone = [run_verifier(tid, f, g, **args) for tid in ids]
        assert [report_json(rep) for rep in together] == [report_json(rep) for rep in alone]
        assert shared < len(calls)


def test_run_verifier_rejects_bad_input():
    with pytest.raises(ValueError):
        run_verifier("no_such_theorem", X2, a=0.0, b=1.0)
    with pytest.raises(ValueError):
        run_verifier("t2", X2, None, a=0.0, b=1.0, alpha=1.0, m=1.0)
    with pytest.raises(ValueError):
        run_verifier("t2", X2, X2, a=0.0, b=1.0, m=1.0)   # missing alpha
    with pytest.raises(ValueError):
        run_verifier("gill_r", EX, a=0.0, b=1.0)          # missing r
    with pytest.raises(ValueError):
        run_verifier("classic_hh_left", X2, a=1.0, b=0.0)  # empty interval
    with pytest.raises(ValueError):
        run_verifier("t2", X2, X2, a=0.0, b=1.0, alpha=1.0, m=1.0, tol=-1.0)
    with pytest.raises(ValueError):
        run_verifier("gill_r", EX, a=0.0, b=1.0, r=math.nan)


# ------------------------- report serialization -------------------------


def test_report_json_schema_and_key_order():
    rep = run_verifier("t2", X2, X2, a=0.0, b=1.0, alpha=1.0, m=1.0)
    payload = json.loads(report_json(rep))
    assert list(payload.keys()) == ["theorem_id", "params", "lhs", "rhs",
                                    "slack", "tol", "holds", "quad_error",
                                    "hypothesis"]
    assert payload["theorem_id"] == "t2"
    assert payload["holds"] is True
    assert set(payload["hypothesis"]) == {"g_alpha_m_convex", "f_dominated"}


def test_report_json_17_digit_round_trip():
    rep = run_verifier("gill_r", EX, a=0.0, b=1.0, r=0.0)
    payload = json.loads(report_json(rep))
    # 17 significant digits reconstruct the double exactly
    assert payload["lhs"] == rep.lhs
    assert payload["rhs"] == rep.rhs
    assert payload["slack"] == rep.slack


def test_hypothesis_witness_serialized():
    rep = run_verifier("set_midpoint", parse("x"), a=0.0, b=1.0, alpha=0.5, m=1.0)
    payload = json.loads(report_json(rep))
    wit = payload["hypothesis"]["f_alpha_m_convex"]["witness"]
    assert list(wit.keys()) == ["x", "y", "lambda", "lhs", "rhs", "gap"]
    assert wit["gap"] == 0.25


def test_skipped_hypothesis_status():
    rep = run_verifier("t2", X2, X2, a=0.0, b=1.0, alpha=1.0, m=1.0, hypotheses=False)
    assert all(s.status == "skipped" for s in rep.hypothesis.values())


def test_domain_error_hypothesis_status():
    # 1/x is integrable on [1/2, 1] but undefined at the origin, which the
    # certification grid for the scaled class always contains
    f = parse("1/x")
    rep = run_verifier("set_midpoint", f, a=0.5, b=1.0, alpha=1.0, m=1.0)
    assert rep.holds                            # the conclusion still computes
    assert rep.hypothesis["f_alpha_m_convex"].status == "domain_error"
    # m^2 underflows to 0, so the interval [0, b/m^2] to certify on is infinite
    rep = run_verifier("dragomir_left", parse("x"), a=0.0, b=1.0, m=1e-200)
    assert rep.holds
    assert rep.hypothesis["f_m_convex"].status == "domain_error"
    assert "finite ends" in rep.hypothesis["f_m_convex"].detail


def test_certification_interval_survives_underflowing_m_power():
    # m^2 = 1e-340 underflows to 0, but b / m / m = 1e40 is finite
    assert hh._over_power(1e-300, 1e-170, 2) == 1e-300 / 1e-170 / 1e-170
    rep = run_verifier("dragomir_left", parse("x"), a=0.0, b=1e-300, m=1e-170)
    assert rep.hypothesis["f_m_convex"].status == "pass"
    # where m^k is nonzero the quotient is b / m^k, as before
    assert hh._over_power(3.0, 0.1, 2) == 3.0 / 0.1 ** 2 != 3.0 / 0.1 / 0.1


def test_mean_of_an_underflowing_integral():
    # the integral of x over [0, 1e-300] is 5e-601, which underflows to 0; its
    # mean 5e-301 is the mean of 1e-300*u over [0, 1]
    rep = run_verifier("classic_hh_left", parse("x"), a=0.0, b=1e-300, hypotheses=False)
    assert rep.lhs == 5e-301
    assert rep.rhs == pytest.approx(5e-301, rel=1e-15)
    assert abs(rep.slack) <= 1e-15 * 5e-301
    assert hh._mean_integral(Const(0.0), Interval(0.0, 1e-300), 1e-10) == (0.0, 0.0)
