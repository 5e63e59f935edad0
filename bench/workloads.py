"""Seeded inputs for the hhcert benchmark workloads.

Every op is a plain dict built from (workload, seed, op index) alone, so the
worker process that runs an op and the parent process that checks it agree on
its inputs without exchanging them.  Functions are written as expression text
in hhcert's grammar; the checker translates the same text to Python for its
own oracle, so the program under test only ever sees the text.

A workload is a fixed cycle of op categories (a "round").  Op ``i`` has
category ``ROUNDS[workload][i % len(round)]`` and draws its parameters from a
generator seeded with ``(workload, seed, i)``.  Any whole number of rounds
therefore has exactly the same mix of categories, whatever the seed.

Every generated instance has a known answer from the mathematics of its
construction, not from hhcert:

* class members are sums of atoms that provably belong to the class
  (convex atoms with f(0) = 0 are m-convex for every m; 1/(C - x) has a
  linear reciprocal, so it is r-convex for every r >= -1; exp of a convex
  quadratic is log-convex, so r-convex for every r >= 0);
* dominated pairs are f = (h - k)/2, g = (h + k)/2 with h, k members, or
  f = c*g with 0 < c < 1 for the r-classes (power means are homogeneous);
* planted non-members are strictly concave, and the checker re-evaluates
  the reported witness triple itself.
"""

from __future__ import annotations

import random

__all__ = ["WORKLOADS", "ROUNDS", "KNOWN_DEFECTS", "CERT_GRID", "OP_LIMIT_S",
           "make_op", "round_ops", "warmup_op", "cli_argv"]

WORKLOADS = ("stress_mixed", "verify_catalogue", "certify_fine", "cli_cold")

THEOREM_IDS = (
    "classic_hh_left", "classic_hh_right",
    "dragomir_left", "dragomir_right",
    "theorem_a_first", "theorem_a_second",
    "set_midpoint", "set_trapezoid", "gill_r",
    "t1_first", "t1_second", "t2", "gr_dominated",
)
PAIR_IDS = ("theorem_a_first", "theorem_a_second", "t1_first", "t1_second", "t2")

ALPHA_M_POOL = (0.5, 0.75, 1.0)
R_POOL = (-1.0, 0.0, 1.0, 2.0)
M_POOL = (0.5, 0.75, 1.0)

# an op that takes longer than this fails; a cli_cold child is killed at it
OP_LIMIT_S = 2.0

# certify_fine grid: 129 * 129 * 65 = 1.08 M triples, 8.65 MB per float64 cube
CERT_GRID = (129, 65)

CHECKERS = ("alpha_m", "r", "dom_alpha_m", "dom_r")

ROUNDS = {
    # one single-trial campaign per (class parameters, interval) cell
    "stress_mixed": tuple(
        f"{cell}@{hi:g}"
        for hi in (1.0, 2.0)
        for cell in ([f"am:{a:g},{m:g}" for a in ALPHA_M_POOL for m in ALPHA_M_POOL]
                     + [f"r:{r:g}" for r in R_POOL])),
    # every theorem id with hypotheses on and off, then the non-smooth and
    # singular tail.  Hypotheses-off requests run twice per round so the
    # median falls inside a dense cluster, not on the edge between the
    # fast and slow halves; log, at about 300 ms, runs once.  kink is the
    # known quadrature defect.
    "verify_catalogue": tuple(
        [f"{tid}/on" for tid in THEOREM_IDS]
        + [f"{tid}/off" for tid in THEOREM_IDS] * 2
        + ["abs/on", "abs/off", "sqrt/on", "sqrt/off", "log/on", "kink/off"]),
    # the single-function checks run twice per round, so the median falls
    # inside the r-convexity cluster rather than between it and the
    # two-function dominance checks, which cost about twice as much
    "certify_fine": tuple(f"{checker}/{kind}"
                          for checker in CHECKERS[:2] * 2 + CHECKERS[2:]
                          for kind in ("member", "planted")),
    "cli_cold": ("verify_on", "verify_off", "integrate", "check_convexity",
                 "check_dominance", "means", "scan", "stress",
                 "defect_tol", "defect_nan", "defect_inf",
                 "parse_error", "domain_error"),
}

# Ops that reproduce open defects.  They count in failed_frac; they do not
# make a run incorrect.  Each cli_cold call should end with exit 2 and empty
# stdout, and today does not.  A kink op's integral is off by about 1e-6
# while its reported quad_error is about 1e-17.
KNOWN_DEFECTS = {"cli_cold": frozenset({"defect_tol", "defect_nan", "defect_inf"}),
                 "verify_catalogue": frozenset({"kink/off"})}


# ------------------------- expression text -------------------------

def _num(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.4f}"


def _atom(rng: random.Random, kind: str) -> str:
    c = _num(rng, 0.25, 2.0)
    if kind == "power":
        return f"{c}*x^{rng.randint(2, 4)}"
    if kind == "expm1":
        return f"{c}*(exp(x)-1)"
    if kind == "linear":
        return f"{c}*x"
    return c


def m_member(rng: random.Random, m: float) -> str:
    """A sum of 1-3 convex atoms; atoms vanish at 0 unless m = 1, so the sum
    is m-convex."""
    kinds = ["power", "expm1", "linear"] + (["const"] if m == 1.0 else [])
    return " + ".join(_atom(rng, rng.choice(kinds)) for _ in range(rng.randint(1, 3)))


def r_member(rng: random.Random, r: float, b: float) -> str:
    """A positive function that is r-convex on [0, b]."""
    if r < 0.0 or rng.random() < 0.5:
        return f"{_num(rng, 0.5, 2.0)}*({_num(rng, b + 0.5, b + 2.0)}-x)^-1"
    return f"{_num(rng, 0.5, 2.0)}*exp({_num(rng, -1.0, 1.0)}*x+{_num(rng, 0.0, 0.5)}*x^2)"


def concave_plant(rng: random.Random) -> str:
    """Strictly concave with f(0) = 0: no (alpha, m) class contains it."""
    return f"-{_num(rng, 0.5, 2.0)}*x^2 - {_num(rng, 0.0, 1.0)}*x"


def positive_concave_plant(rng: random.Random) -> str:
    """Positive and strictly concave: not r-convex for any r <= 2."""
    return f"{_num(rng, 0.5, 2.0)} + {_num(rng, 0.5, 2.0)}*sqrt(x)"


def dominated_pair(h: str, k: str) -> tuple[str, str]:
    """f = (h - k)/2 and g = (h + k)/2, so g + f = h and g - f = k."""
    return f"0.5*({h}) - 0.5*({k})", f"0.5*({h}) + 0.5*({k})"


# ------------------------- op builders -------------------------

def _verify_request(rng: random.Random, tid: str, hyp: bool) -> dict:
    req = {"kind": "verify", "tid": tid, "f": None, "g": None,
           "a": rng.choice((0.0, 0.25)), "b": rng.choice((1.0, 2.0)),
           "alpha": None, "m": None, "r": None, "hyp": hyp}
    if tid in ("gill_r", "gr_dominated"):
        req["r"] = rng.choice(R_POOL)
        g = r_member(rng, req["r"], req["b"])
        if tid == "gill_r":
            req["f"] = g
        else:
            req["f"], req["g"] = f"{_num(rng, 0.2, 0.8)}*({g})", g
        return req
    req["m"] = 1.0 if tid.startswith("classic") else rng.choice(M_POOL)
    if tid.startswith(("set_", "t1_", "t2")):
        req["alpha"] = 1.0
    if tid in PAIR_IDS:
        req["f"], req["g"] = dominated_pair(m_member(rng, req["m"]),
                                            m_member(rng, req["m"]))
    else:
        req["f"] = m_member(rng, req["m"])
    if tid.startswith("classic"):
        req["m"] = None
    return req


def _tail_request(rng: random.Random, tail: str, hyp: bool) -> dict:
    k = _num(rng, 0.5, 2.0)
    req = {"kind": "verify", "g": None, "a": 0.0, "b": 1.0, "alpha": None,
           "m": None, "r": None, "hyp": hyp}
    if tail == "abs":
        # 2^L * c mod 1 stays at least 0.2 from an integer for these c, so the
        # kink is never within 0.2 panel widths of a bisection point and the
        # G7/K15 nodes always straddle it
        c = rng.choice(("0.2", "0.3", "0.4", "0.6", "0.7", "0.8"))
        req.update(tid="classic_hh_right", f=f"{k}*abs(x-{c})")
    elif tail == "kink":
        # a kink just right of 3/4 lies between the edge of panel [3/4, 1]
        # and its outermost node (0.7511): both rules see a line, the error
        # estimate is 0, and the panel is accepted
        req.update(tid="classic_hh_right", f=f"{k}*abs(x-{_num(rng, 0.7506, 0.7509)})")
    elif tail == "sqrt":
        req.update(tid="classic_hh_left", f=f"-{k}*sqrt(x)")
    else:
        # -log is convex but undefined at 0, so the grid hypothesis reports a
        # domain error while the bound itself holds
        req.update(tid="set_midpoint", f=f"-{k}*log(x)", alpha=1.0, m=1.0)
    return req


def _certify_request(rng: random.Random, checker: str, kind: str) -> dict:
    member = kind == "member"
    req = {"kind": "certify", "checker": checker, "f": None, "g": None,
           "a": 0.0, "b": rng.choice((1.0, 2.0)), "alpha": None, "m": None,
           "r": None, "expect": "pass" if member else "violation",
           "n_xy": CERT_GRID[0], "n_lambda": CERT_GRID[1]}
    if checker in ("alpha_m", "dom_alpha_m"):
        req["m"] = rng.choice(M_POOL)
        req["alpha"] = 1.0 if member else rng.choice(ALPHA_M_POOL)
        h = m_member(rng, req["m"])
        if checker == "alpha_m":
            req["f"] = h if member else concave_plant(rng)
        else:
            k = m_member(rng, req["m"]) if member else concave_plant(rng)
            req["f"], req["g"] = dominated_pair(h, k)
        return req
    req["r"] = rng.choice(R_POOL)
    if checker == "r":
        req["f"] = r_member(rng, req["r"], req["b"]) if member else positive_concave_plant(rng)
    elif member:
        g = r_member(rng, req["r"], req["b"])
        req["f"], req["g"] = f"{_num(rng, 0.2, 0.8)}*({g})", g
    else:
        # g is nearly constant, so its deviation cannot cover the concave f
        req["g"] = f"{_num(rng, 0.5, 2.0)}*({_num(rng, req['b'] + 2.0, req['b'] + 4.0)}-x)^-1"
        req["f"] = f"{_num(rng, 1.0, 2.0)}*(1+sqrt(x))"
    return req


def _stress_request(rng: random.Random, cell: str) -> dict:
    params, hi = cell.split("@")
    family, values = params.split(":")
    req = {"kind": "stress", "seed": rng.randrange(2 ** 31), "hi": float(hi),
           "alpha": None, "m": None, "r": None}
    if family == "am":
        req["alpha"], req["m"] = (float(v) for v in values.split(","))
    else:
        req["r"] = float(values)
    return req


def _cli_request(rng: random.Random, cat: str) -> dict:
    req: dict = {"kind": "cli", "cat": cat}
    if cat in ("verify_on", "verify_off"):
        req["verify"] = _verify_request(rng, rng.choice(THEOREM_IDS), cat == "verify_on")
    elif cat == "integrate":
        req.update(f=m_member(rng, 1.0), a=0.0, b=rng.choice((1.0, 2.0)))
    elif cat == "check_convexity":
        req["certify"] = dict(_certify_request(rng, "alpha_m", "member"),
                              n_xy=33, n_lambda=65)
    elif cat == "check_dominance":
        req["certify"] = dict(_certify_request(rng, "dom_alpha_m", "planted"),
                              n_xy=33, n_lambda=65)
    elif cat == "means":
        req.update(mean=rng.choice(("power", "logmean")), x=_num(rng, 0.5, 4.0),
                   y=_num(rng, 0.5, 4.0), lam=_num(rng, 0.0, 1.0),
                   r=rng.choice(R_POOL + (0.5, 3.0)))
    elif cat == "scan":
        f, g = dominated_pair(m_member(rng, 0.5), m_member(rng, 0.5))
        req.update(f=f, g=g, a=0.0, b=1.0, alphas=(1.0,), ms=(1.0, 0.5))
    elif cat == "stress":
        req.update(seed=rng.randrange(10 ** 6), trials=3, m=rng.choice(M_POOL))
    elif cat == "defect_tol":
        f = m_member(rng, 1.0)
        # f = g: an equality case, so a negative tol flips the verdict
        req["verify"] = {"kind": "verify", "tid": "t2", "f": f, "g": f,
                         "a": 0.0, "b": 1.0, "alpha": 1.0, "m": 1.0, "r": None,
                         "hyp": False, "tol": -1.0}
    elif cat == "defect_nan":
        # the human-readable report is the one that is printed in part
        req["verify"] = dict(_verify_request(rng, "gill_r", False), r=float("nan"),
                             human=True)
    elif cat == "defect_inf":
        # only a bare x spins: every other node rejects the NaN panel points
        req.update(f="x", a=0.0, b=float("inf"))
    elif cat == "parse_error":
        req.update(f=f"{_num(rng, 0.5, 2.0)}*x + (", a=0.0, b=1.0)
    elif cat == "domain_error":
        req.update(f=f"log(x - {_num(rng, 0.1, 0.9)})", a=0.0, b=1.0)
    else:
        raise ValueError(f"unknown cli category {cat!r}")
    return req


def _catalogue_request(rng: random.Random, cat: str) -> dict:
    name, hyp = cat.split("/")
    build = _tail_request if name in ("abs", "sqrt", "log", "kink") else _verify_request
    return build(rng, name, hyp == "on")


_BUILDERS = {
    "stress_mixed": _stress_request,
    "verify_catalogue": _catalogue_request,
    "certify_fine": lambda rng, cat: _certify_request(rng, *cat.split("/")),
    "cli_cold": _cli_request,
}


def make_op(workload: str, seed: int | str, index: int) -> dict:
    """The op at ``index`` of ``workload`` under ``seed``."""
    cats = ROUNDS[workload]
    cat = cats[index % len(cats)]
    op = _BUILDERS[workload](random.Random(f"{workload}/{seed}/{index}"), cat)
    op["index"] = index
    op["cat"] = cat
    return op


def round_ops(workload: str, seed: int, j: int) -> list[dict]:
    n = len(ROUNDS[workload])
    return [make_op(workload, seed, j * n + i) for i in range(n)]


def warmup_op(workload: str) -> dict:
    """A fixed op, the same for every seed, run once before timing starts."""
    return make_op(workload, "warmup", 0)


# ------------------------- command lines -------------------------

def _arg(v: float) -> str:
    return repr(float(v))


def _verify_argv(req: dict) -> list[str]:
    argv = ["verify", req["tid"], "--f", req["f"]]
    if req["g"] is not None:
        argv += ["--g", req["g"]]
    argv += ["--a", _arg(req["a"]), "--b", _arg(req["b"])]
    for key in ("alpha", "m", "r"):
        if req[key] is not None:
            argv += [f"--{key}", _arg(req[key])]
    if "tol" in req:
        argv += ["--tol", _arg(req["tol"])]
    if not req["hyp"]:
        argv.append("--skip-hypotheses")
    return argv if req.get("human") else argv + ["--json"]


def _certify_argv(req: dict) -> list[str]:
    if req["g"] is None:
        argv = ["check-convexity", "--f", req["f"]]
    else:
        argv = ["check-dominance", "--f", req["f"], "--g", req["g"]]
    argv += ["--a", _arg(req["a"]), "--b", _arg(req["b"])]
    for key in ("alpha", "m", "r"):
        if req[key] is not None:
            argv += [f"--{key}", _arg(req[key])]
    return argv + ["--grid-xy", str(req["n_xy"]), "--grid-lambda",
                   str(req["n_lambda"]), "--json"]


def cli_argv(op: dict) -> list[str]:
    """Arguments after ``python -m hhcert`` for a cli_cold op."""
    cat = op["cat"]
    if "verify" in op:
        return _verify_argv(op["verify"])
    if "certify" in op:
        return _certify_argv(op["certify"])
    if cat == "means":
        argv = ["means", "--kind", op["mean"], "--x", op["x"], "--y", op["y"],
                "--r", _arg(op["r"])]
        if op["mean"] == "power":
            argv += ["--lambda", op["lam"]]
        return argv + ["--json"]
    if cat == "scan":
        return ["scan", "--f", op["f"], "--g", op["g"], "--a", _arg(op["a"]),
                "--b", _arg(op["b"]), "--alpha-list", ",".join(map(_arg, op["alphas"])),
                "--m-list", ",".join(map(_arg, op["ms"])), "--csv"]
    if cat == "stress":
        return ["stress", "--seed", str(op["seed"]), "--trials", str(op["trials"]),
                "--m", _arg(op["m"]), "--json"]
    # integrate, defect_inf, parse_error, domain_error
    return ["integrate", "--f", op["f"], "--a", _arg(op["a"]), "--b", _arg(op["b"]),
            "--json"]
