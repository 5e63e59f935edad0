"""Command-line front end.

Exit codes: 0 when every requested check holds, 1 when a violation or a
failing inequality was found (the report is still printed), 2 for usage
errors, domain errors and inputs too large or too deeply nested to
evaluate, with nothing written to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys

from .convexity import (DEFAULT_GRID, AlphaM, ClassParams, GridSpec, RConvex,
                        check)
from .expr import DomainError, Interval, parse, to_string
from .hh import (QUAD_TOL_DEFAULT, THEOREM_IDS, TOL_DEFAULT, _witness_dict,
                 report_to_dict, run_verifier)
from .jsonio import dumps, fmt_float
from .means import gen_log_mean, power_mean
from .quadrature import NonConvergence, integrate
from .search import (StressConfig, scan_csv, stress, summary_to_dict,
                     tightness_scan)

__all__ = ["build_parser", "run", "main"]


def _f(v: float) -> str:
    return fmt_float(float(v))


# StressConfig's field defaults, read without constructing one
_STRESS = {fld.name: fld.default for fld in dataclasses.fields(StressConfig)}


def _flags(*names: str, **kw) -> argparse.ArgumentParser:
    """A parent parser that declares each flag in ``names`` with ``kw``."""
    p = argparse.ArgumentParser(add_help=False)
    for name in names:
        p.add_argument(name, **kw)
    return p


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hhcert",
        description="Certify generalized convexity classes and verify "
                    "Hermite-Hadamard-type integral inequalities.")
    sub = top.add_subparsers(dest="command", required=True)

    # flags that several subcommands share, each declared once; a factory
    # gives the required or optional form, or the command's default
    f = _flags("--f", required=True, help='function of x, e.g. "x^2 + exp(x)"')
    g = lambda need: _flags("--g", required=need)
    ab = lambda need: _flags("--a", "--b", type=float, required=need)
    r = lambda need: _flags("--r", type=float, required=need,
                            help="order r of the mean or of the r-convex class")
    am = _flags("--alpha", "--m", type=float)
    grid = _flags("--grid-xy", "--grid-lambda", type=int)
    grid.set_defaults(grid_xy=DEFAULT_GRID.n_xy, grid_lambda=DEFAULT_GRID.n_lambda)
    class_grid = [am, r(False), grid]
    tol = lambda default: _flags("--tol", type=float, default=default)
    js = _flags("--json", action="store_true")

    # a subcommand's own leading flags are parents too, so that argparse
    # names missing required flags in their documented order
    kind = _flags("--kind", choices=("power", "logmean"), required=True)
    xy = _flags("--x", "--y", type=float, required=True)
    p = sub.add_parser("means", parents=[kind, xy, r(True), js],
                       help="evaluate a power mean or generalized log mean")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5,
                   help="weight in [0, 1] (power mean only; default 0.5)")

    sub.add_parser("integrate", parents=[f, ab(True), tol(QUAD_TOL_DEFAULT), js],
                   help="adaptive quadrature of an expression")

    for name, fg in (("check-convexity", [f]), ("check-dominance", [f, g(True)])):
        sub.add_parser(name, parents=fg + [ab(True)] + class_grid
                       + [tol(DEFAULT_GRID.tol), js],
                       help="grid-certify class membership" if len(fg) == 1
                       else "grid-certify a dominance relation")

    tid = _flags("theorem_id", choices=THEOREM_IDS)
    p = sub.add_parser("verify", parents=[tid, f, g(False), ab(True)] + class_grid
                       + [tol(TOL_DEFAULT), js],
                       help="verify one inequality and report slack")
    p.add_argument("--quad-tol", type=float, default=QUAD_TOL_DEFAULT)
    p.add_argument("--skip-hypotheses", action="store_true",
                   help="do not grid-certify the inequality's hypotheses")

    p = sub.add_parser("stress", parents=[ab(False)] + class_grid
                       + [tol(_STRESS["tol"]), js],
                       help="randomized soundness campaign; --alpha and --m "
                            "(default 1) or --r give the class")
    p.set_defaults(a=_STRESS["intervals"][0].lo, b=_STRESS["intervals"][0].hi)
    p.add_argument("--config", help="JSON file with StressConfig fields")
    p.add_argument("--seed", type=int, default=_STRESS["seed"])
    p.add_argument("--trials", type=int, default=20)

    p = sub.add_parser("scan", parents=[f, g(True), ab(True), tol(TOL_DEFAULT)],
                       help="slack of the dominance bounds over an "
                            "(alpha, m) parameter grid")
    p.add_argument("--alpha-list", default="0.25,0.5,0.75,1")
    p.add_argument("--m-list", default="0.25,0.5,0.75,1")
    p.add_argument("--csv", action="store_true")
    return top


# ------------------------- subcommand bodies -------------------------
# Each returns its exit code, the payload that --json prints and a function
# that renders the text form as lines; `run` prints one of the two forms.

def _cmd_means(args):
    if args.kind == "power":
        payload = {"kind": "power", "x": args.x, "y": args.y, "lambda": args.lam,
                   "r": args.r, "value": power_mean(args.x, args.y, args.lam, args.r)}
    else:
        mb = gen_log_mean(args.x, args.y, args.r)
        payload = {"kind": "logmean", "x": args.x, "y": args.y, "r": args.r,
                   "value": mb.value, "branch": mb.tag.value}
    return 0, payload, lambda: [_f(payload["value"])]


def _cmd_integrate(args):
    res = integrate(parse(args.f), Interval(args.a, args.b), args.tol)
    payload = {"value": res.value, "error_bound": res.error_bound,
               "subdivisions": res.subdivisions}
    return 0, payload, lambda: [f"{k} = {_f(v)}" for k, v in payload.items()]


def _by_r(args) -> bool:
    """Whether --r gives the class; --alpha or --m alongside it is an error."""
    if args.r is not None and (args.alpha is not None or args.m is not None):
        raise ValueError("give either --alpha with --m, or --r, not both")
    return args.r is not None


def _class_args(args) -> ClassParams:
    if _by_r(args):
        return RConvex(args.r)
    if args.alpha is None or args.m is None:
        raise ValueError("give both --alpha and --m, or --r")
    return AlphaM(args.alpha, args.m)


def _cmd_check(args):
    """check-convexity, or check-dominance when the command takes --g."""
    params = _class_args(args)
    iv = Interval(args.a, args.b)
    grid = GridSpec(args.grid_xy, args.grid_lambda, args.tol)
    f = parse(args.f)
    g = parse(args.g) if args.command == "check-dominance" else None
    res = check(f, iv, params, g, grid)
    cls = (_f(params.r) if isinstance(params, RConvex)
           else f"({_f(params.alpha)}, {_f(params.m)})")
    label = f"{cls}-convexity" if g is None else f"(g, {cls})-dominance"
    w, fw = res.witness, res.first_witness
    payload = {"verdict": "pass" if res.passed else "violation",
               "points_checked": res.points_checked,
               "witness": None if w is None else _witness_dict(w),
               "first_witness": None if fw is None else _witness_dict(fw),
               "f0_nonpositive": res.f0_nonpositive}

    def text():
        if res.passed:
            return [f"PASS: {label} holds at all {res.points_checked} grid points"]
        return [f"VIOLATION: {label} fails ({res.points_checked} points checked)",
                f"worst witness: x={_f(w.x)} y={_f(w.y)} t={_f(w.lam)} "
                f"lhs={_f(w.lhs)} rhs={_f(w.rhs)} gap={_f(w.gap)}",
                f"first witness: x={_f(fw.x)} y={_f(fw.y)} t={_f(fw.lam)} "
                f"gap={_f(fw.gap)}"]
    return (0 if res.passed else 1), payload, text


def _cmd_verify(args):
    f = parse(args.f)
    g = parse(args.g) if args.g is not None else None
    grid = GridSpec(args.grid_xy, args.grid_lambda)
    rep = run_verifier(args.theorem_id, f, g, a=args.a, b=args.b,
                       alpha=args.alpha, m=args.m, r=args.r, tol=args.tol,
                       quad_tol=args.quad_tol,
                       hypotheses=not args.skip_hypotheses, grid=grid)
    return (0 if rep.holds else 1), report_to_dict(rep), lambda: [
        f"theorem: {rep.theorem_id}",
        "params: " + " ".join(f"{k}={_f(v)}" for k, v in rep.params.items()),
        f"lhs = {_f(rep.lhs)}",
        f"rhs = {_f(rep.rhs)}",
        f"slack = {_f(rep.slack)}",
        f"holds = {'true' if rep.holds else 'false'}   (tol = {_f(rep.tol)})",
        f"quad_error = {_f(rep.quad_error)}",
        "hypothesis: " + " ".join(f"{k}={s.status}"
                                  for k, s in rep.hypothesis.items())]


_GRID_KEYS = {"grid_xy": "n_xy", "grid_lambda": "n_lambda"}


def _stress_config_from(raw) -> StressConfig:
    """A StressConfig from a JSON object keyed by its field names, with
    grid_xy and grid_lambda for the grid; absent keys keep its defaults."""
    if not isinstance(raw, dict):
        raise ValueError("stress config must be a JSON object")
    kw: dict = {}
    grid: dict = {}
    try:
        for key, value in raw.items():
            default = 0 if key in _GRID_KEYS else _STRESS.get(key)
            kind = list if isinstance(default, tuple) else type(default)
            if kind in (int, list) and type(value) is not kind:     # a bool is no int
                raise ValueError(f"{key} must be a JSON {'array' if kind is list else 'integer'}"
                                 f", got {json.dumps(value)}")
            if key in _GRID_KEYS:
                grid[_GRID_KEYS[key]] = value
            elif key == "intervals":
                kw[key] = tuple(Interval(float(lo), float(hi)) for lo, hi in value)
            elif isinstance(_STRESS.get(key), tuple):
                kw[key] = tuple(float(v) for v in value)
            elif key in _STRESS and key != "grid":
                kw[key] = type(_STRESS[key])(value)
            else:
                raise ValueError(f"unknown key {key!r}")
        return StressConfig(**kw, **({"grid": GridSpec(**grid)} if grid else {}))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad stress config: {exc}") from exc


def _load_stress_config(args) -> StressConfig:
    """The --config file if given, else the flags as the same JSON object."""
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            return _stress_config_from(json.load(fh))
    raw = {"seed": args.seed, "trials": args.trials,
           "grid_xy": args.grid_xy, "grid_lambda": args.grid_lambda,
           "intervals": [[args.a, args.b]], "tol": args.tol}
    if _by_r(args):
        raw.update(alpha_pool=[], m_pool=[], r_pool=[args.r])
    else:
        raw.update({key: [v] for key, v in (("alpha_pool", args.alpha),
                                            ("m_pool", args.m)) if v is not None})
    return _stress_config_from(raw)


def _cmd_stress(args):
    summary = stress(_load_stress_config(args))
    fails = sum(st.fails for st in summary.verifiers.values())

    def text():
        lines = [f"trials = {summary.trials}  rejected_trials = "
                 f"{summary.rejected_trials}  rejected_candidates = "
                 f"{summary.rejected_candidates}"]
        for tid, st in summary.verifiers.items():
            slack = "-" if st.min_slack is None else _f(st.min_slack)
            lines.append(f"{tid:18s} pass={st.passes:4d} fail={st.fails:4d} "
                         f"skipped={st.skips:4d} min_slack={slack}")
        if summary.worst_failure:
            lines.append(f"worst failure: {summary.worst_failure}")
        return lines
    return (1 if fails else 0), summary_to_dict(summary), text


def _cmd_scan(args):
    alphas = tuple(float(v) for v in args.alpha_list.split(","))
    ms = tuple(float(v) for v in args.m_list.split(","))
    rows = tightness_scan(parse(args.f), parse(args.g),
                          Interval(args.a, args.b), alphas, ms, tol=args.tol)

    def text():
        if args.csv:
            return scan_csv(rows).splitlines()
        lines = [f"{'alpha':>8} {'m':>8} {'theorem':>10} {'slack':>24} holds"]
        for row in rows:
            holds = "skipped" if row.skipped else ("true" if row.holds else "false")
            lines.append(f"{row.alpha:8.4g} {row.m:8.4g} {row.theorem_id:>10} "
                         f"{row.slack:24.17g} {holds}")
        return lines
    bad = any(not row.holds and not row.skipped for row in rows)
    return (1 if bad else 0), None, text


_HANDLERS = {
    "means": _cmd_means,
    "integrate": _cmd_integrate,
    "check-convexity": _cmd_check,
    "check-dominance": _cmd_check,
    "verify": _cmd_verify,
    "stress": _cmd_stress,
    "scan": _cmd_scan,
}


def run(argv: list[str], stdout=None, stderr=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # render the printed form in full first, so that an error leaves
    # nothing on stdout
    try:
        code, payload, text = _HANDLERS[args.command](args)
        rendered = (dumps(payload) if getattr(args, "json", False)
                    else "\n".join(text()))
    except (ValueError, DomainError, NonConvergence, OSError, MemoryError,
            RecursionError) as exc:
        node = getattr(exc, "node", None)
        where = "" if node is None else f" in {to_string(node)}"
        print(f"error: {exc}{where}", file=err)
        return 2
    out.write(rendered + "\n")
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
