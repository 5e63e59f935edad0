"""Independent answers for every benchmark op.

Nothing here imports hhcert.  Expression text is translated to Python and
evaluated with ``math``; integrals come from ``scipy.integrate.quad``; means
are evaluated in 40-digit ``mpmath``.  Each check returns None when the
op's output is right and a one-line reason when it is not.

The expected verdicts come from how the inputs were built (see
workloads.py): constructed members and dominated pairs must pass and every
bound must hold; planted non-members must report a violation whose witness
this module re-evaluates.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache

import mpmath
from scipy.integrate import quad

__all__ = ["check_op", "SLACK_ABS", "SLACK_REL"]

# reported value vs oracle: |v - v_oracle| <= quad_error + oracle error
#                                           + SLACK_ABS + SLACK_REL * |v_oracle|
SLACK_ABS = 1e-9
SLACK_REL = 1e-9
GRID_TOL = 1e-9

mpmath.mp.dps = 40


@lru_cache(maxsize=4096)
def _code(text: str):
    return compile(text.replace("^", "**"), "<expr>", "eval")


_NS = {"exp": math.exp, "log": math.log, "sqrt": math.sqrt, "abs": abs,
       "__builtins__": {}}


def fn(text: str):
    code = _code(text)
    return lambda x: eval(code, _NS, {"x": float(x)})


def _avg(e, a: float, b: float) -> tuple[float, float]:
    value, err = quad(e, a, b, epsabs=1e-13, epsrel=1e-13, limit=400)
    return value / (b - a), err / (b - a)


def power_mean(x: float, y: float, lam: float, r: float) -> float:
    x, y, lam = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(lam)
    if r == 0.0:
        return float(x ** lam * y ** (1 - lam))
    return float((lam * x ** r + (1 - lam) * y ** r) ** (1 / mpmath.mpf(r)))


def log_mean(x: float, y: float, r: float) -> float:
    x, y = mpmath.mpf(x), mpmath.mpf(y)
    if abs(x - y) <= 1e-12 * max(x, y):
        return float(x)
    if r == 0.0:
        return float((x - y) / (mpmath.log(x) - mpmath.log(y)))
    if r == -1.0:
        return float(x * y * (mpmath.log(x) - mpmath.log(y)) / (x - y))
    r = mpmath.mpf(r)
    return float(r / (r + 1) * (x ** (r + 1) - y ** (r + 1)) / (x ** r - y ** r))


# ------------------------- inequality sides -------------------------

def verify_sides(req: dict) -> tuple[float, float, float]:
    """(lhs, rhs, oracle error) of the inequality ``req['tid']`` states."""
    tid, a, b = req["tid"], req["a"], req["b"]
    f = fn(req["f"])
    g = fn(req["g"]) if req["g"] is not None else None
    alpha = req["alpha"] if req["alpha"] is not None else 1.0
    m, r = req["m"], req["r"]
    mid = 0.5 * (a + b)

    def half_sum(e):
        return lambda x: 0.5 * e(x) + 0.5 * m * e(x / m)

    def weighted(e):
        two_a = 2.0 ** alpha
        return lambda x: (e(x) + m * (two_a - 1.0) * e(x / m)) / two_a

    def endpoint(e, al):
        return 0.5 * ((e(a) + m * e(a / m)) / (al + 1.0)
                      + m * al * (e(b / m) + m * e(b / m ** 2)) / (al + 1.0))

    def trapezoid(e):
        return 0.5 * (e(a) + e(b) + m * alpha * (e(a / m) + e(b / m))) / (alpha + 1.0)

    if tid.startswith("classic_hh"):
        avg, err = _avg(f, a, b)
        if tid.endswith("left"):
            return f(mid), avg, err
        return avg, 0.5 * (f(a) + f(b)), err
    if tid.startswith("dragomir"):
        avg, err = _avg(half_sum(f), a, b)
        if tid.endswith("left"):
            return f(mid), avg, err
        return avg, endpoint(f, 1.0), err
    if tid == "set_midpoint":
        avg, err = _avg(weighted(f), a, b)
        return f(mid), avg, err
    if tid == "set_trapezoid":
        avg, err = _avg(f, a, b)
        return avg, trapezoid(f), err
    if tid == "gill_r":
        avg, err = _avg(f, a, b)
        return avg, log_mean(f(a), f(b), r), err
    # dominance bounds: |form(f) - mean(f)| against the signed gap of g,
    # mean - midpoint for the first halves and form - mean otherwise
    sign = 1.0
    if tid in ("theorem_a_first", "t1_first"):
        integrand = half_sum if tid == "theorem_a_first" else weighted
        sign = -1.0
        forms = (lambda e: e(mid)), lambda e: _avg(integrand(e), a, b)
    elif tid in ("theorem_a_second", "t1_second"):
        al = 1.0 if tid == "theorem_a_second" else alpha
        forms = (lambda e: endpoint(e, al)), lambda e: _avg(half_sum(e), a, b)
    elif tid == "t2":
        forms = trapezoid, lambda e: _avg(e, a, b)
    else:  # gr_dominated
        forms = (lambda e: log_mean(e(a), e(b), r)), lambda e: _avg(e, a, b)
    point, mean = forms
    (avg_f, err_f), (avg_g, err_g) = mean(f), mean(g)
    return abs(point(f) - avg_f), sign * (point(g) - avg_g), err_f + err_g


def _close(reported: float, expected: float, allowance: float) -> bool:
    return abs(reported - expected) <= allowance + SLACK_ABS + SLACK_REL * abs(expected)


def expected_status(req: dict) -> str:
    if not req["hyp"]:
        return "skipped"
    # the grid for -log(x) includes x = 0
    return "domain_error" if "log(x)" in req["f"] else "pass"


def check_verify(req: dict, text: str) -> str | None:
    rep = json.loads(text)
    if rep["theorem_id"] != req["tid"]:
        return f"theorem_id {rep['theorem_id']!r}"
    for key, value in rep["params"].items():
        if value != req[key]:
            return f"param {key}={value!r}"
    if not rep["holds"]:
        return f"bound reported violated, slack {rep['slack']!r}"
    lhs, rhs, err = verify_sides(req)
    allowance = rep["quad_error"] + err
    if not (_close(rep["lhs"], lhs, allowance) and _close(rep["rhs"], rhs, allowance)):
        return (f"sides ({rep['lhs']!r}, {rep['rhs']!r}), oracle ({lhs!r}, {rhs!r}), "
                f"quad_error {rep['quad_error']!r}")
    want = expected_status(req)
    got = [s["status"] for s in rep["hypothesis"].values()]
    if not got or any(s != want for s in got):
        return f"hypothesis statuses {got}, expected {want}"
    return None


# ------------------------- grid witnesses -------------------------

def witness_sides(req: dict, x: float, y: float, t: float) -> tuple[float, float]:
    f = fn(req["f"])
    checker = req["checker"]
    if checker in ("alpha_m", "dom_alpha_m"):
        alpha, m = req["alpha"], req["m"]
        ta = t ** alpha
        point = t * x + m * (1.0 - t) * y

        def sides(e):
            return e(point), ta * e(x) + m * (1.0 - ta) * e(y)
    else:
        point = t * x + (1.0 - t) * y

        def sides(e):
            return e(point), power_mean(e(x), e(y), t, req["r"])
    lhs_f, rhs_f = sides(f)
    if checker in ("alpha_m", "r"):
        return lhs_f, rhs_f
    lhs_g, rhs_g = sides(fn(req["g"]))
    return abs(rhs_f - lhs_f), rhs_g - lhs_g


def check_certify(req: dict, text: str) -> str | None:
    res = json.loads(text)
    if res["verdict"] != req["expect"]:
        return f"verdict {res['verdict']}, expected {req['expect']}"
    if res["points_checked"] != req["n_xy"] ** 2 * req["n_lambda"]:
        return f"points_checked {res['points_checked']}"
    if req["checker"] == "alpha_m":
        want_f0 = fn(req["f"])(0.0) <= 0.0
        if res["f0_nonpositive"] is not want_f0:
            return f"f0_nonpositive {res['f0_nonpositive']}"
    if req["expect"] == "pass":
        if res["witness"] is not None or res["first_witness"] is not None:
            return "witness on a pass"
        return None
    for key in ("witness", "first_witness"):
        w = res[key]
        if w is None:
            return f"violation without {key}"
        lhs, rhs = witness_sides(req, w["x"], w["y"], w["lambda"])
        if not (_close(w["lhs"], lhs, 0.0) and _close(w["rhs"], rhs, 0.0)):
            return f"{key} sides ({w['lhs']!r}, {w['rhs']!r}), oracle ({lhs!r}, {rhs!r})"
        if not lhs - rhs > GRID_TOL:
            return f"{key} gap {lhs - rhs!r} does not exceed tol"
    if res["witness"]["gap"] < res["first_witness"]["gap"]:
        return "worst witness smaller than first witness"
    return None


# ------------------------- stress and cli -------------------------

def check_stress(text: str, trials: int) -> str | None:
    summary = json.loads(text)
    if summary["trials"] != trials:
        return f"trials {summary['trials']}"
    for tid, st in summary["verifiers"].items():
        if st["fail"]:
            return f"{tid} failed {st['fail']} time(s)"
        if st["pass"] + st["skipped"] != trials:
            return f"{tid} tallies {st}"
    return None


def check_scan(req: dict, text: str) -> str | None:
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 3 * len(req["alphas"]) * len(req["ms"]):
        return f"{len(rows)} scan rows"
    for row in rows:
        if row["holds"] != "true":
            return f"scan row {row}"
        sub = {"tid": row["theorem"], "f": req["f"], "g": req["g"], "a": req["a"],
               "b": req["b"], "alpha": float(row["alpha"]), "m": float(row["m"]),
               "r": None}
        lhs, rhs, err = verify_sides(sub)
        if not _close(float(row["slack"]), rhs - lhs, err + 1e-9):
            return f"scan slack {row['slack']}, oracle {rhs - lhs!r}"
    return None


def check_cli(op: dict, text: str) -> str | None:
    res = json.loads(text)
    code, out = res["exit"], res["stdout"]
    cat = op["cat"]
    if cat.startswith("defect") or cat.endswith("error"):
        if code != 2 or out:
            return f"exit {code} with {len(out)} bytes of stdout; expected exit 2, no stdout"
        return None
    want = 1 if cat == "check_dominance" else 0
    if code != want:
        return f"exit {code}, expected {want}"
    if cat.startswith("verify"):
        return check_verify(op["verify"], out)
    if cat.startswith("check"):
        return check_certify(op["certify"], out)
    if cat == "scan":
        return check_scan(op, out)
    if cat == "stress":
        return check_stress(out, op["trials"])
    res = json.loads(out)
    if cat == "integrate":
        value, err = _avg(fn(op["f"]), op["a"], op["b"])
        width = op["b"] - op["a"]
        if not _close(res["value"], value * width, res["error_bound"] + err * width):
            return f"integral {res['value']!r}, oracle {value * width!r}"
        return None
    x, y, r = float(op["x"]), float(op["y"]), op["r"]
    if op["mean"] == "power":
        want_v = power_mean(x, y, float(op["lam"]), r)
    else:
        want_v = log_mean(x, y, r)
    if not _close(res["value"], want_v, 0.0):
        return f"mean {res['value']!r}, oracle {want_v!r}"
    return None


def check_op(workload: str, op: dict, text: str) -> str | None:
    """None when ``text``, the op's output, is right; else why it is not."""
    try:
        if workload == "verify_catalogue":
            return check_verify(op, text)
        if workload == "certify_fine":
            return check_certify(op, text)
        if workload == "stress_mixed":
            return check_stress(text, 1)
        return check_cli(op, text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
