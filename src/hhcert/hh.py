"""Two-sided verification of Hermite-Hadamard-type integral inequalities.

Each verifier evaluates both sides of one inequality numerically and
reports lhs, rhs, slack = rhs - lhs, and holds = (slack >= -tol), together
with the accumulated quadrature error and the status of the inequality's
hypotheses as certified on a finite grid.  Sides are always computed,
even when a hypothesis fails, so near-misses can be inspected.

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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .convexity import (DEFAULT_GRID, AlphaM, ClassParams, GridSpec,
                        NonPositiveFunction, RConvex, Witness, _require_positive,
                        check)
from .expr import (DomainError, Expr, Interval, _require_tol, compose_affine,
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


@dataclass(frozen=True)
class HypothesisStatus:
    status: str  # "pass" | "violation" | "skipped" | "domain_error"
    witness: Witness | None = None
    detail: str | None = None


@dataclass(frozen=True)
class IneqReport:
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
    """b / m^k for b > 0; inf, as for a quotient that overflows, when m^k
    underflows to 0."""
    d = m ** k
    return b / d if d else math.inf


def _mean_integral(e: Expr, iv: Interval, quad_tol: float) -> tuple[float, float]:
    res = integrate(e, iv, quad_tol)
    return res.value / iv.width, res.error_bound / iv.width


def _plain(f: Expr, c: ClassParams) -> Expr:
    return f


def _half_sum(f: Expr, c: ClassParams) -> Expr:
    """(f(x) + m*f(x/m)) / 2 as an expression tree."""
    return lin_comb(0.5, f, 0.5 * c.m, compose_affine(f, 1.0 / c.m, 0.0))


def _weighted(f: Expr, c: ClassParams) -> Expr:
    """(f(x) + m*(2^alpha - 1)*f(x/m)) / 2^alpha as an expression tree."""
    two_a = 2.0 ** c.alpha
    return lin_comb(1.0 / two_a, f, c.m * (two_a - 1.0) / two_a,
                    compose_affine(f, 1.0 / c.m, 0.0))


def _midpoint(f: Expr, a: float, b: float, c: ClassParams) -> float:
    return evaluate(f, 0.5 * (a + b))


def _ends(f: Expr, a: float, b: float, c: ClassParams) -> float:
    return 0.5 * (evaluate(f, a) + evaluate(f, b))


def _trapezoid(f: Expr, a: float, b: float, c: ClassParams) -> float:
    alpha, m = c.alpha, c.m
    fa = evaluate(f, a)
    fb = evaluate(f, b)
    fam = evaluate(f, a / m)
    fbm = evaluate(f, b / m)
    return 0.5 * ((fa + fb + (m * alpha) * fam + (m * alpha) * fbm) / (alpha + 1.0))


def _endpoint(f: Expr, a: float, b: float, c: ClassParams) -> float:
    alpha, m = c.alpha, c.m
    fa = evaluate(f, a)
    fam = evaluate(f, a / m)
    fbm = evaluate(f, b / m)
    fbm2 = evaluate(f, _over_power(b, m, 2))
    return 0.5 * ((fa + m * fam) / (alpha + 1.0)
                  + (m * alpha) * ((fbm + m * fbm2) / (alpha + 1.0)))


def _log_mean(f: Expr, a: float, b: float, c: ClassParams) -> float:
    return gen_log_mean(evaluate(f, a), evaluate(f, b), c.r).value


# ------------------------- the catalogue -------------------------

@dataclass(frozen=True)
class _Row:
    params: tuple[str, ...]      # class parameters in report order; alpha, m default to 1
    integrand: Callable          # (f, class) -> expression averaged over [a, b]
    form: Callable               # (f, a, b, class) -> the point side
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
    """Grid-certify f's class membership or, with g, f's dominance by g."""
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

    Integrals, point forms and hypothesis statuses are computed once per
    call, keyed by the row's builder, by which function they belong to and
    by the class parameters, so rows that agree on those share them (the
    two halves of a pair; theorem_a and t1_second at alpha = 1).
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

    # every side before any hypothesis: a domain error costs no grid check
    sides = []
    for tid, row, c in todo:
        who = ("f", "g") if row.dominated else ("f",)
        avgs = [once((row.integrand, w, c), lambda: _mean_integral(
            row.integrand(fg[w], c), iv, quad_tol)) for w in who]
        points = [once((row.form, w, c), lambda: row.form(fg[w], a, b, c))
                  for w in who]
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
            checks = {f"g_{row.hyp_class}": (g, None), "f_dominated": (f, g)}
        else:
            checks = {f"f_{row.hyp_class}": (f, None)}
        bounds = (a, b) if row.cert is None else (0.0, _over_power(b, c.m, row.cert))
        hyp = {key: once((row.cert, key, c), lambda: _status(c, bounds, e, dom, grid))
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
