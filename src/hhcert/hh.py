"""Two-sided verification of Hermite-Hadamard-type integral inequalities.

Each verifier evaluates both sides of one inequality numerically and
reports lhs, rhs, slack = rhs - lhs, and holds = (slack >= -tol), together
with the accumulated quadrature error and the status of the inequality's
hypotheses as :func:`convexity.check` gives it, by proof or on a finite grid.
Sides are always computed, even when a hypothesis fails, so near-misses show.

The catalogue, by report id (a two-sided bound is split into its halves):

* classic_hh_left, classic_hh_right
                      f((a+b)/2) <= avg integral of f <= (f(a)+f(b))/2
* dragomir_left, dragomir_right
                      the m-convex refinement of both halves
* theorem_a_first, theorem_a_second
                      dominance bounds for both halves at alpha = 1
* set_midpoint        (alpha, m) lower half with the 2^alpha weighting
* set_trapezoid       (alpha, m) upper half with the (alpha+1) weighting
* gill_r              avg integral of f <= generalized log mean of f(a), f(b)
* t1_first, t1_second dominance bounds for the weighted halves
* t2                  dominance bound for the trapezoid form
* gr_dominated        dominance bound for the log-mean form

``avg integral`` always means 1/(b-a) * integral over [a, b].

Every bound compares the average of an integrand with a point form, so the
catalogue is one table with a row per report id, run by one engine.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .convexity import (DEFAULT_GRID, AlphaM, ClassParams, GridSpec,
                        NonPositiveFunction, RConvex, Witness, _require_positive,
                        check)
from .expr import (DomainError, Expr, Interval, Value, _require_tol, compose_affine,
                   evaluate, lin_comb)
from .jsonio import dumps
from .means import gen_log_mean
from .quadrature import QUAD_TOL_DEFAULT, integrate

__all__ = [
    "TOL_DEFAULT", "QUAD_TOL_DEFAULT", "THEOREM_IDS",
    "HypothesisStatus", "IneqReport", "report_json", "report_to_dict",
    "run_verifier", "run_verifiers", "NEEDS_G",
]

TOL_DEFAULT = 1e-8


class HypothesisStatus(Value):
    status: str  # "pass" | "violation" | "skipped" | "domain_error"
    witness: Witness | None = None
    detail: str | None = None


class IneqReport(Value):
    theorem_id: str
    params: dict[str, float]
    lhs: float
    rhs: float
    slack: float
    tol: float
    holds: bool
    quad_error: float
    hypothesis: dict[str, HypothesisStatus]


# ------------------------- serialization -------------------------

def _witness_dict(w: Witness) -> dict:
    return {"x": w.x, "y": w.y, "lambda": w.lam,
            "lhs": w.lhs, "rhs": w.rhs, "gap": w.gap}


def _status_dict(s: HypothesisStatus) -> dict:
    d: dict = {"status": s.status}
    if s.witness is not None:
        d["witness"] = _witness_dict(s.witness)
    if s.detail is not None:
        d["detail"] = s.detail
    return d


def report_to_dict(rep: IneqReport) -> dict:
    return {
        "theorem_id": rep.theorem_id,
        "params": dict(rep.params),
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "slack": rep.slack,
        "tol": rep.tol,
        "holds": rep.holds,
        "quad_error": rep.quad_error,
        "hypothesis": {name: _status_dict(s) for name, s in rep.hypothesis.items()},
    }


def report_json(rep: IneqReport) -> str:
    return dumps(report_to_dict(rep))


# ------------------------- integrands and point forms -------------------------

def _over_power(b: float, m: float, k: int) -> float:
    """b / m^k for b > 0; where m^k underflows to 0, b divided by m k times."""
    d = m ** k
    if d:
        return b / d
    for _ in range(k):
        b /= m
    return b


def _mean_integral(e: Expr, iv: Interval, quad_tol: float) -> tuple[float, float]:
    res = integrate(e, iv, quad_tol)
    if abs(res.value) < sys.float_info.min and iv.width < 1.0:
        # the integral may have underflowed: average e(lo + width*u) over u in [0, 1]
        return _mean_integral(compose_affine(e, iv.width, iv.lo), Interval(0.0, 1.0), quad_tol)
    return res.value / iv.width, res.error_bound / iv.width


def _plain(c: ClassParams) -> tuple[float, float]:
    return 1.0, 0.0


def _half_sum(c: ClassParams) -> tuple[float, float]:
    """(f(x) + m*f(x/m)) / 2."""
    return 0.5, 0.5 * c.m


def _weighted(c: ClassParams) -> tuple[float, float]:
    """(f(x) + m*(2^alpha - 1)*f(x/m)) / 2^alpha."""
    two_a = 2.0 ** c.alpha
    return 1.0 / two_a, c.m * (two_a - 1.0) / two_a


def _midpoint(F: Callable, a: float, b: float, c: ClassParams) -> float:
    return F(0.5 * (a + b))


def _ends(F: Callable, a: float, b: float, c: ClassParams) -> float:
    return 0.5 * (F(a) + F(b))


def _trapezoid(F: Callable, a: float, b: float, c: ClassParams) -> float:
    alpha, m = c.alpha, c.m
    return 0.5 * ((F(a) + F(b) + (m * alpha) * F(a / m) + (m * alpha) * F(b / m)) / (alpha + 1.0))


def _endpoint(F: Callable, a: float, b: float, c: ClassParams) -> float:
    alpha, m = c.alpha, c.m
    return 0.5 * ((F(a) + m * F(a / m)) / (alpha + 1.0)
                  + (m * alpha) * ((F(b / m) + m * F(_over_power(b, m, 2))) / (alpha + 1.0)))


def _log_mean(F: Callable, a: float, b: float, c: ClassParams) -> float:
    return gen_log_mean(F(a), F(b), c.r).value


# ------------------------- the catalogue -------------------------

class _Row(Value):
    params: tuple[str, ...]      # class parameters in report order; alpha, m default to 1
    weights: Callable            # class -> (c1, c2): c1*f(x) + c2*f(x/m) is averaged over [a, b]
    form: Callable               # (F, a, b, class) -> the point side, F mapping x to f(x)
    avg_upper: bool              # the average is the larger side
    hyp_class: str               # names the hypothesis key f_<class> / g_<class>
    cert: int | None             # certify on [0, b/m^cert], or on [a, b] if None
    dominated: bool = False      # bound f's deviation by g's


_AM = ("alpha", "m")

_TABLE = {
    "classic_hh_left": _Row((), _plain, _midpoint, True, "convex", None),
    "classic_hh_right": _Row((), _plain, _ends, False, "convex", None),
    "dragomir_left": _Row(("m",), _half_sum, _midpoint, True, "m_convex", 2),
    "dragomir_right": _Row(("m",), _half_sum, _endpoint, False, "m_convex", 2),
    "theorem_a_first": _Row(("m",), _half_sum, _midpoint, True, "m_convex", 2, True),
    "theorem_a_second": _Row(("m",), _half_sum, _endpoint, False, "m_convex", 2, True),
    "set_midpoint": _Row(_AM, _weighted, _midpoint, True, "alpha_m_convex", 1),
    "set_trapezoid": _Row(_AM, _plain, _trapezoid, False, "alpha_m_convex", 1),
    "gill_r": _Row(("r",), _plain, _log_mean, False, "r_convex", None),
    "t1_first": _Row(_AM, _weighted, _midpoint, True, "alpha_m_convex", 1, True),
    "t1_second": _Row(_AM, _half_sum, _endpoint, False, "alpha_m_convex", 2, True),
    "t2": _Row(_AM, _plain, _trapezoid, False, "alpha_m_convex", 1, True),
    "gr_dominated": _Row(("r",), _plain, _log_mean, False, "r_convex", None, True),
}

THEOREM_IDS = tuple(_TABLE)

NEEDS_G = frozenset(tid for tid, row in _TABLE.items() if row.dominated)


# ------------------------- the engine -------------------------

_SKIPPED = HypothesisStatus("skipped")


def _class_of(row: _Row, params: dict[str, float]) -> ClassParams:
    given = {name: params[name] for name in row.params}
    return RConvex(**given) if "r" in given else AlphaM(**{"alpha": 1.0, "m": 1.0, **given})


def _status(c: ClassParams, bounds: tuple[float, float], f: Expr, g: Expr | None,
            grid: GridSpec) -> HypothesisStatus:
    """Certify f's class membership or, with g, f's dominance by g, as check does."""
    try:
        res = check(f, Interval(*bounds), c, g, grid)
    except (DomainError, NonPositiveFunction, ValueError) as exc:
        return HypothesisStatus("domain_error", detail=str(exc))
    if res.passed:
        return HypothesisStatus("pass")
    return HypothesisStatus("violation", witness=res.witness)


def run_verifiers(ids: tuple[str, ...], f: Expr, g: Expr | None = None, *,
                  a: float, b: float, alpha: float | None = None,
                  m: float | None = None, r: float | None = None,
                  tol: float = TOL_DEFAULT, quad_tol: float = QUAD_TOL_DEFAULT,
                  hypotheses: bool = True,
                  grid: GridSpec = DEFAULT_GRID) -> tuple[IneqReport, ...]:
    """Run the verifiers ``ids`` on one input and return one report per id.

    Each distinct integral, point value and hypothesis check is computed once
    per call, keyed by what it is, so rows that agree on one share it (the two
    halves of a pair; at alpha = 1, t1 and theorem_a).
    """
    params = {"alpha": alpha, "m": m, "r": r}
    rows = []
    for tid in ids:
        row = _TABLE.get(tid)
        if row is None:
            raise ValueError(f"unknown theorem id {tid!r}")
        if row.dominated and g is None:
            raise ValueError(f"{tid} needs --g")
        for name in row.params:
            if params.get(name) is None:
                raise ValueError(f"{tid} needs --{name}")
        rows.append((tid, row))
    _require_tol("tol", tol)
    _require_tol("quad_tol", quad_tol)
    iv = Interval(a, b)
    fg = {"f": f, "g": g}
    todo = []
    for tid, row in rows:
        c = _class_of(row, params)
        if "m" in row.params and a < 0.0:
            raise ValueError(f"this family needs a >= 0, got a={a}")
        if isinstance(c, RConvex):
            xs = np.linspace(a, b, 129)
            for name in ("g", "f") if row.dominated else ("f",):
                _require_positive(evaluate(fg[name], xs), xs, name)
        todo.append((tid, row, c))

    memo: dict = {}

    def once(key, compute):
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def value(w: str, x: float) -> float:
        # keyed with its sign too: 0.0 == -0.0 as a key, yet f(0.0) and f(-0.0) may differ
        return once(("at", w, x, math.copysign(1.0, x)), lambda: evaluate(fg[w], x))

    def over_m(w: str, m: float) -> Expr:
        """f(x/m) or g(x/m), built once per function and m."""
        return once(("x/m", w, m), lambda: compose_affine(fg[w], 1.0 / m, 0.0))

    # every side before any hypothesis: a domain error costs no grid check
    sides = []
    for tid, row, c in todo:
        who = ("f", "g") if row.dominated else ("f",)
        c1, c2 = row.weights(c)     # with c2 = 0 the integrand is f itself, for any m
        avgs = [once(("avg", w, c1, c2, c.m if c2 else None), lambda: _mean_integral(
            lin_comb(c1, fg[w], c2, over_m(w, c.m)) if c2 else fg[w], iv, quad_tol)) for w in who]
        points = [row.form(lambda x: value(w, x), a, b, c) for w in who]
        lower_upper = [(pt, avg) if row.avg_upper else (avg, pt)
                       for (avg, _), pt in zip(avgs, points)]
        if row.dominated:
            (lo_f, up_f), (lo_g, up_g) = lower_upper
            sides.append((abs(up_f - lo_f), up_g - lo_g, avgs[0][1] + avgs[1][1]))
        else:
            sides.append((*lower_upper[0], avgs[0][1]))

    reports = []
    for (tid, row, c), (lhs, rhs, err) in zip(todo, sides):
        if row.dominated:
            checks = {f"g_{row.hyp_class}": ("g", None), "f_dominated": ("f", "g")}
        else:
            checks = {f"f_{row.hyp_class}": ("f", None)}
        bounds = (a, b) if row.cert is None else (0.0, _over_power(b, c.m, row.cert))
        hyp = {key: once((bounds, e, dom, c), lambda: _status(c, bounds, fg[e], fg.get(dom), grid))
               if hypotheses else _SKIPPED for key, (e, dom) in checks.items()}
        params_out = {"a": a, "b": b, **{name: getattr(c, name) for name in row.params}}
        slack = rhs - lhs
        reports.append(IneqReport(tid, params_out, float(lhs), float(rhs), float(slack),
                                  tol, bool(slack >= -tol), float(err), hyp))
    return tuple(reports)


# ------------------------- one report id -------------------------

def run_verifier(theorem_id: str, *args, **kwargs) -> IneqReport:
    """Run one report id; arguments and defaults are those of :func:`run_verifiers`."""
    return run_verifiers((theorem_id,), *args, **kwargs)[0]
