"""Command-line front end.

Exit codes: 0 when every requested check holds, 1 when a violation or a
failing inequality was found (the report is still printed), 2 for usage
errors and domain errors, with nothing written to stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import sys

from .convexity import (AlphaM, CheckResult, ClassParams, GridSpec,
                        NonPositiveFunction, RConvex, check)
from .expr import DomainError, Interval, ParseError, parse
from .hh import THEOREM_IDS, _witness_dict, report_json, run_verifier
from .jsonio import dumps, fmt_float
from .means import MeanBranch, gen_log_mean, power_mean
from .quadrature import NonConvergence, integrate
from .search import StressConfig, scan_csv, stress, summary_json, tightness_scan

__all__ = ["build_parser", "run", "main"]


def _f(v: float) -> str:
    return fmt_float(float(v))


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hhcert",
        description="Certify generalized convexity classes and verify "
                    "Hermite-Hadamard-type integral inequalities.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("means", help="evaluate a power mean or generalized log mean")
    p.add_argument("--kind", choices=("power", "logmean"), required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5,
                   help="weight in [0, 1] (power mean only; default 0.5)")
    p.add_argument("--r", type=float, required=True, help="order parameter")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("integrate", help="adaptive quadrature of an expression")
    p.add_argument("--f", required=True, help="integrand, e.g. \"x^2 + exp(x)\"")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--json", action="store_true")

    for name, needs_g in (("check-convexity", False), ("check-dominance", True)):
        p = sub.add_parser(
            name, help="grid-certify class membership" if not needs_g
            else "grid-certify a dominance relation")
        p.add_argument("--f", required=True)
        if needs_g:
            p.add_argument("--g", required=True)
        p.add_argument("--a", type=float, required=True)
        p.add_argument("--b", type=float, required=True)
        p.add_argument("--alpha", type=float)
        p.add_argument("--m", type=float)
        p.add_argument("--r", type=float)
        p.add_argument("--grid-xy", type=int, default=33)
        p.add_argument("--grid-lambda", type=int, default=65)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="verify one inequality and report slack")
    p.add_argument("theorem_id", choices=THEOREM_IDS)
    p.add_argument("--f", required=True)
    p.add_argument("--g")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--m", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--quad-tol", type=float, default=1e-10)
    p.add_argument("--grid-xy", type=int, default=33)
    p.add_argument("--grid-lambda", type=int, default=65)
    p.add_argument("--skip-hypotheses", action="store_true",
                   help="do not grid-certify the inequality's hypotheses")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("stress", help="randomized soundness campaign")
    p.add_argument("--config", help="JSON file with StressConfig fields")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--alpha", type=float, help="alpha pool entry (default 1)")
    p.add_argument("--m", type=float, help="m pool entry (default 1)")
    p.add_argument("--r", type=float,
                   help="use the r-convex family with this order instead")
    p.add_argument("--grid-xy", type=int, default=33)
    p.add_argument("--grid-lambda", type=int, default=65)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("scan", help="slack of the dominance bounds over an "
                                    "(alpha, m) parameter grid")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--alpha-list", default="0.25,0.5,0.75,1")
    p.add_argument("--m-list", default="0.25,0.5,0.75,1")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--csv", action="store_true")

    return top


# ------------------------- subcommand bodies -------------------------

def _cmd_means(args, out) -> int:
    if args.kind == "power":
        value = power_mean(args.x, args.y, args.lam, args.r)
        payload = {"kind": "power", "x": args.x, "y": args.y,
                   "lambda": args.lam, "r": args.r, "value": value}
    else:
        mb: MeanBranch = gen_log_mean(args.x, args.y, args.r)
        value = mb.value
        payload = {"kind": "logmean", "x": args.x, "y": args.y, "r": args.r,
                   "value": value, "branch": mb.tag.value}
    print(dumps(payload) if args.json else _f(value), file=out)
    return 0


def _cmd_integrate(args, out) -> int:
    res = integrate(parse(args.f), Interval(args.a, args.b), args.tol)
    if args.json:
        print(dumps({"value": res.value, "error_bound": res.error_bound,
                     "subdivisions": res.subdivisions}), file=out)
    else:
        print(f"value = {_f(res.value)}", file=out)
        print(f"error_bound = {_f(res.error_bound)}", file=out)
        print(f"subdivisions = {res.subdivisions}", file=out)
    return 0


def _class_args(args) -> ClassParams:
    if args.r is not None:
        if args.alpha is not None or args.m is not None:
            raise ValueError("give either --alpha with --m, or --r, not both")
        return RConvex(args.r)
    if args.alpha is None or args.m is None:
        raise ValueError("give both --alpha and --m, or --r")
    return AlphaM(args.alpha, args.m)


def _witness_payload(res: CheckResult) -> dict:
    def wd(w):
        return None if w is None else _witness_dict(w)
    return {"verdict": "pass" if res.passed else "violation",
            "points_checked": res.points_checked,
            "witness": wd(res.witness),
            "first_witness": wd(res.first_witness),
            "f0_nonpositive": res.f0_nonpositive}


def _print_check(res: CheckResult, label: str, json_out: bool, out) -> int:
    if json_out:
        print(dumps(_witness_payload(res)), file=out)
    elif res.passed:
        print(f"PASS: {label} holds at all {res.points_checked} grid points",
              file=out)
    else:
        w = res.witness
        fw = res.first_witness
        print(f"VIOLATION: {label} fails ({res.points_checked} points checked)",
              file=out)
        print(f"worst witness: x={_f(w.x)} y={_f(w.y)} t={_f(w.lam)} "
              f"lhs={_f(w.lhs)} rhs={_f(w.rhs)} gap={_f(w.gap)}", file=out)
        print(f"first witness: x={_f(fw.x)} y={_f(fw.y)} t={_f(fw.lam)} "
              f"gap={_f(fw.gap)}", file=out)
    return 0 if res.passed else 1


def _cmd_check(args, out) -> int:
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
    return _print_check(res, label, args.json, out)


def _cmd_verify(args, out) -> int:
    f = parse(args.f)
    g = parse(args.g) if args.g is not None else None
    grid = GridSpec(args.grid_xy, args.grid_lambda)
    rep = run_verifier(args.theorem_id, f, g, a=args.a, b=args.b,
                       alpha=args.alpha, m=args.m, r=args.r, tol=args.tol,
                       quad_tol=args.quad_tol,
                       hypotheses=not args.skip_hypotheses, grid=grid)
    if args.json:
        print(report_json(rep), file=out)
    else:
        print(f"theorem: {rep.theorem_id}", file=out)
        print("params: " + " ".join(f"{k}={_f(v)}" for k, v in rep.params.items()),
              file=out)
        print(f"lhs = {_f(rep.lhs)}", file=out)
        print(f"rhs = {_f(rep.rhs)}", file=out)
        print(f"slack = {_f(rep.slack)}", file=out)
        print(f"holds = {'true' if rep.holds else 'false'}   (tol = {_f(rep.tol)})",
              file=out)
        print(f"quad_error = {_f(rep.quad_error)}", file=out)
        print("hypothesis: " + " ".join(f"{k}={s.status}"
                                        for k, s in rep.hypothesis.items()),
              file=out)
    return 0 if rep.holds else 1


_GRID_KEYS = {"grid_xy": "n_xy", "grid_lambda": "n_lambda"}


def _stress_config_from(raw) -> StressConfig:
    """A StressConfig from a JSON object keyed by its field names, with
    grid_xy and grid_lambda for the grid; absent keys keep its defaults."""
    if not isinstance(raw, dict):
        raise ValueError("stress config must be a JSON object")
    defaults = {fld.name: fld.default for fld in dataclasses.fields(StressConfig)}
    kw: dict = {}
    grid: dict = {}
    try:
        for key, value in raw.items():
            if key in _GRID_KEYS:
                grid[_GRID_KEYS[key]] = int(value)
            elif key == "intervals":
                kw[key] = tuple(Interval(float(lo), float(hi)) for lo, hi in value)
            elif isinstance(defaults.get(key), tuple):
                kw[key] = tuple(float(v) for v in value)
            elif key in defaults and key != "grid":
                kw[key] = type(defaults[key])(value)
            else:
                raise ValueError(f"unknown stress config key {key!r}")
    except TypeError as exc:
        raise ValueError(f"bad stress config value: {exc}") from exc
    return StressConfig(**kw, **({"grid": GridSpec(**grid)} if grid else {}))


def _load_stress_config(args) -> StressConfig:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            return _stress_config_from(json.load(fh))
    grid = GridSpec(args.grid_xy, args.grid_lambda)
    if args.r is not None:
        pools = {"alpha_pool": (), "m_pool": (), "r_pool": (args.r,)}
    else:
        pools = {"alpha_pool": (1.0 if args.alpha is None else args.alpha,),
                 "m_pool": (1.0 if args.m is None else args.m,)}
    return StressConfig(seed=args.seed, trials=args.trials,
                        intervals=(Interval(args.a, args.b),), grid=grid,
                        tol=args.tol, **pools)


def _cmd_stress(args, out) -> int:
    summary = stress(_load_stress_config(args))
    fails = sum(st.fails for st in summary.verifiers.values())
    if args.json:
        print(summary_json(summary), file=out)
    else:
        print(f"trials = {summary.trials}  rejected_trials = "
              f"{summary.rejected_trials}  rejected_candidates = "
              f"{summary.rejected_candidates}", file=out)
        for tid, st in summary.verifiers.items():
            slack = "-" if st.min_slack is None else _f(st.min_slack)
            print(f"{tid:18s} pass={st.passes:4d} fail={st.fails:4d} "
                  f"skipped={st.skips:4d} min_slack={slack}", file=out)
        if summary.worst_failure:
            print(f"worst failure: {summary.worst_failure}", file=out)
    return 1 if fails else 0


def _cmd_scan(args, out) -> int:
    alphas = tuple(float(v) for v in args.alpha_list.split(","))
    ms = tuple(float(v) for v in args.m_list.split(","))
    rows = tightness_scan(parse(args.f), parse(args.g),
                          Interval(args.a, args.b), alphas, ms, tol=args.tol)
    if args.csv:
        out.write(scan_csv(rows))
    else:
        print(f"{'alpha':>8} {'m':>8} {'theorem':>10} {'slack':>24} holds", file=out)
        for row in rows:
            holds = "skipped" if row.skipped else ("true" if row.holds else "false")
            print(f"{row.alpha:8.4g} {row.m:8.4g} {row.theorem_id:>10} "
                  f"{row.slack:24.17g} {holds}", file=out)
    bad = any(not row.holds and not row.skipped for row in rows)
    return 1 if bad else 0


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
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # render into a buffer so that an error leaves nothing on stdout
    buf = io.StringIO()
    try:
        code = _HANDLERS[args.command](args, buf)
    except (ParseError, DomainError, NonPositiveFunction, NonConvergence,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    out.write(buf.getvalue())
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
