"""Randomized stress testing of the inequality verifiers.

Candidate class members are positive combinations of simple convex atoms
(c*x^p with integer p >= 2, c*(e^x - 1), c*x, and positive constants).
Every emitted function is certified against its class on the grid before
use; draws that fail certification are rejected and retried up to a cap.

A stress trial draws two certified members h, k, forms the dominated pair
f = (h - k)/2, g = (h + k)/2, and runs every verifier whose hypotheses
the construction guarantees.  With all pools inside the classical regime
(alpha = m = 1, or r = 1) any reported failure is a bug, not mathematics.

Trials are reproducible: each uses an RNG substream derived from
(seed, trial index), and summaries serialize to byte-identical JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convexity import (DEFAULT_GRID, AlphaM, ClassParams, GridSpec,
                        NonPositiveFunction, RConvex, construct_dominated_pair, passes)
from .expr import (Add, Const, DomainError, Expr, Interval, Mul, Pow, Sub, Exp, X,
                   _require_tol)
from .hh import TOL_DEFAULT, IneqReport, run_verifier, run_verifiers
from .jsonio import dumps
from .quadrature import QUAD_TOL_DEFAULT, NonConvergence

__all__ = [
    "ATOM_KINDS", "StressConfig", "TheoremStats", "StressSummary",
    "random_convex_expr", "stress", "ScanRow", "tightness_scan", "scan_csv",
    "STRESS_THEOREMS",
]

ATOM_KINDS = ("power", "expm1", "linear", "const")

STRESS_THEOREMS = ("theorem_a_first", "theorem_a_second", "t1_first",
                   "t1_second", "t2", "gill_r", "gr_dominated")


@dataclass(frozen=True)
class StressConfig:
    """Pools and budgets for a stress campaign.

    Each trial draws its class parameters uniformly from the product of
    alpha_pool and m_pool plus the entries of r_pool, and its interval
    from ``intervals``.  An empty r_pool (or empty alpha/m pools) simply
    disables that family.
    """
    seed: int = 0
    trials: int = 100
    intervals: tuple[Interval, ...] = (Interval(0.0, 1.0),)
    alpha_pool: tuple[float, ...] = (1.0,)
    m_pool: tuple[float, ...] = (1.0,)
    r_pool: tuple[float, ...] = ()
    atom_budget: int = 3
    grid: GridSpec = DEFAULT_GRID
    tol: float = TOL_DEFAULT
    quad_tol: float = QUAD_TOL_DEFAULT
    max_attempts: int = 50

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not self.intervals:
            raise ValueError("interval pool is empty")
        if bool(self.alpha_pool) != bool(self.m_pool):
            raise ValueError("alpha_pool and m_pool must be both given or both empty")
        if not (self.alpha_pool or self.r_pool):
            raise ValueError("no class parameters: alpha/m pools and r pool are empty")
        if self.atom_budget < 1:
            raise ValueError("atom_budget must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        _require_tol("tol", self.tol)
        _require_tol("quad_tol", self.quad_tol)

    def params_pool(self) -> tuple[ClassParams, ...]:
        alpha_m = tuple(AlphaM(a, m) for a in self.alpha_pool for m in self.m_pool)
        return alpha_m + tuple(RConvex(r) for r in self.r_pool)


@dataclass(frozen=True)
class TheoremStats:
    passes: int
    fails: int
    skips: int
    min_slack: float | None


@dataclass(frozen=True)
class StressSummary:
    trials: int
    rejected_trials: int
    rejected_candidates: int
    verifiers: dict[str, TheoremStats]
    worst_failure: dict | None


def summary_to_dict(s: StressSummary) -> dict:
    return {
        "trials": s.trials,
        "rejected_trials": s.rejected_trials,
        "rejected_candidates": s.rejected_candidates,
        "verifiers": {
            tid: {"pass": st.passes, "fail": st.fails, "skipped": st.skips,
                  "min_slack": st.min_slack}
            for tid, st in s.verifiers.items()
        },
        "worst_failure": s.worst_failure,
    }


def summary_json(s: StressSummary) -> str:
    return dumps(summary_to_dict(s))


# ------------------------- candidate generation -------------------------

def _draw_atom(rng: np.random.Generator, kind: str) -> Expr:
    c = float(rng.uniform(0.25, 2.0))
    if kind == "power":
        p = float(rng.integers(2, 5))
        return Mul(Const(c), Pow(X, p))
    if kind == "expm1":
        return Mul(Const(c), Sub(Exp(X), Const(1.0)))
    if kind == "linear":
        return Mul(Const(c), X)
    if kind == "const":
        return Const(c)
    raise ValueError(f"unknown atom kind {kind!r}")


def _draw_candidate(rng: np.random.Generator, atoms: tuple[str, ...],
                    budget: int, force_const: bool) -> Expr:
    n = int(rng.integers(1, budget + 1))
    expr: Expr | None = Const(float(rng.uniform(0.25, 2.0))) if force_const else None
    for _ in range(n):
        atom = _draw_atom(rng, atoms[int(rng.integers(0, len(atoms)))])
        expr = atom if expr is None else Add(expr, atom)
    return expr


def _allowed_atoms(params: ClassParams) -> tuple[str, ...]:
    if isinstance(params, AlphaM) and params.m != 1.0:
        # a positive constant c fails c <= t*c + m*(1-t)*c when m < 1
        return ("power", "expm1", "linear")
    return ATOM_KINDS


# evaluation left the domain, a function is not positive where its class
# needs it, or an integral did not converge: the input has no value
_NO_VALUE = (DomainError, NonPositiveFunction, NonConvergence)


def _certifies(e: Expr, params: ClassParams, iv: Interval, grid: GridSpec) -> bool:
    try:
        return passes(e, iv, params, grid=grid)
    except _NO_VALUE:
        return False


def _draw_certified(rng: np.random.Generator, params: ClassParams, iv: Interval,
                    budget: int, grid: GridSpec, max_attempts: int,
                    atoms: tuple[str, ...] | None,
                    force_const: bool) -> tuple[Expr | None, int]:
    """Rejection-sample one certified class member; returns (expr, attempts)."""
    kinds = atoms if atoms is not None else _allowed_atoms(params)
    for attempt in range(1, max_attempts + 1):
        cand = _draw_candidate(rng, kinds, budget, force_const)
        if _certifies(cand, params, iv, grid):
            return cand, attempt
    return None, max_attempts


def random_convex_expr(rng: np.random.Generator, params: ClassParams,
                       iv: Interval, budget: int = 3,
                       grid: GridSpec = DEFAULT_GRID, max_attempts: int = 50,
                       atoms: tuple[str, ...] | None = None) -> Expr | None:
    """Draw a random combination of convex atoms certified to belong to the
    class described by ``params`` on ``iv``; None when every attempt was
    rejected by the certifier."""
    expr, _ = _draw_certified(rng, params, iv, budget, grid, max_attempts,
                              atoms, force_const=False)
    return expr


# ------------------------- stress harness -------------------------

def _trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def _draw_pair(rng: np.random.Generator, params: ClassParams, iv: Interval,
               config: StressConfig) -> tuple[tuple[Expr, Expr] | None, int]:
    """Draw two certified members and form f = (h - k)/2, g = (h + k)/2;
    returns (pair or None, rejected candidates).  (alpha, m) draws h then k
    on [0, b/m^2]; r draws k then delta and takes h = k + delta, so f =
    delta/2 > 0.  Both are drawn even when the first is rejected."""
    alpha_m = isinstance(params, AlphaM)
    cert_iv = Interval(0.0, iv.hi / params.m ** 2) if alpha_m else iv
    (first, n_first), (second, n_second) = (
        _draw_certified(rng, params, cert_iv, config.atom_budget, config.grid,
                        config.max_attempts, None, not alpha_m) for _ in range(2))
    rejected = n_first + n_second - 2
    if first is None or second is None:
        return None, rejected
    if alpha_m:
        return construct_dominated_pair(first, second), rejected
    h = Add(first, second)
    if not _certifies(h, params, iv, config.grid):
        return None, rejected + 1
    return construct_dominated_pair(h, first), rejected


def _verify_pair(f: Expr, g: Expr, params: ClassParams, iv: Interval,
                 config: StressConfig) -> tuple[IneqReport, ...]:
    """Run the verifiers whose hypotheses the construction certifies."""
    kw = dict(a=iv.lo, b=iv.hi, tol=config.tol, quad_tol=config.quad_tol,
              hypotheses=False)
    if isinstance(params, AlphaM):
        ids = ("t1_first", "t1_second", "t2")
        if params.alpha == 1.0:
            ids = ("theorem_a_first", "theorem_a_second") + ids
        return run_verifiers(ids, f, g, alpha=params.alpha, m=params.m, **kw)
    reports = ()
    if passes(f, iv, params, g, config.grid):
        reports += (run_verifier("gr_dominated", f, g, r=params.r, **kw),)
    if _certifies(g, params, iv, config.grid):
        reports += (run_verifier("gill_r", g, r=params.r, **kw),)
    return reports


def stress(config: StressConfig) -> StressSummary:
    """Run the configured number of randomized trials and tally verifier
    outcomes.  Rejected trials and verifiers whose hypotheses the trial
    cannot guarantee count as skips, never as failures."""
    pool = config.params_pool()
    rejected_trials = rejected_candidates = 0
    runs: list[tuple[int, IneqReport]] = []
    for index in range(config.trials):
        rng = _trial_rng(config.seed, index)
        iv = config.intervals[int(rng.integers(0, len(config.intervals)))]
        params = pool[int(rng.integers(0, len(pool)))]
        pair, rejected = _draw_pair(rng, params, iv, config)
        rejected_candidates += rejected
        if pair is None:
            rejected_trials += 1
            continue
        try:
            reports = _verify_pair(*pair, params, iv, config)
        except _NO_VALUE:
            continue
        runs += ((index, rep) for rep in reports)

    verifiers = {}
    for tid in STRESS_THEOREMS:
        reps = [rep for _, rep in runs if rep.theorem_id == tid]
        passed = sum(rep.holds for rep in reps)
        verifiers[tid] = TheoremStats(passed, len(reps) - passed, config.trials - len(reps),
                                      min((rep.slack for rep in reps), default=None))
    failed = [(index, rep) for index, rep in runs if not rep.holds]
    worst = None
    if failed:
        # the first of the smallest slacks, in trial order
        index, rep = min(failed, key=lambda run: run[1].slack)
        worst = {"trial": index, "theorem_id": rep.theorem_id,
                 "slack": rep.slack, "params": dict(rep.params)}
    return StressSummary(config.trials, rejected_trials, rejected_candidates,
                         verifiers, worst)


# ------------------------- tightness scans -------------------------

@dataclass(frozen=True)
class ScanRow:
    alpha: float
    m: float
    theorem_id: str
    slack: float
    holds: bool
    skipped: bool = False


def tightness_scan(f: Expr, g: Expr, iv: Interval,
                   alphas: tuple[float, ...], ms: tuple[float, ...], *,
                   tol: float = TOL_DEFAULT,
                   quad_tol: float = QUAD_TOL_DEFAULT) -> list[ScanRow]:
    """Slack of the three (alpha, m) dominance bounds over a parameter
    grid; rows where evaluation leaves the domain are marked skipped.
    Invalid parameters or tolerances raise ValueError."""
    rows: list[ScanRow] = []
    for alpha in alphas:
        for m in ms:
            for tid in ("t1_first", "t1_second", "t2"):
                try:
                    rep = run_verifier(tid, f, g, a=iv.lo, b=iv.hi, alpha=alpha, m=m,
                                       tol=tol, quad_tol=quad_tol, hypotheses=False)
                    rows.append(ScanRow(alpha, m, tid, rep.slack, rep.holds))
                except _NO_VALUE:
                    rows.append(ScanRow(alpha, m, tid, math.nan, False, skipped=True))
    return rows


def scan_csv(rows: list[ScanRow]) -> str:
    """Render scan rows as CSV with a fixed header and 17-digit floats."""
    lines = ["alpha,m,theorem,slack,holds"]
    for row in rows:
        if row.skipped:
            slack, holds = "nan", "skipped"
        else:
            slack = f"{row.slack:.17g}"
            holds = "true" if row.holds else "false"
        lines.append(f"{row.alpha:.17g},{row.m:.17g},{row.theorem_id},{slack},{holds}")
    return "\n".join(lines) + "\n"
