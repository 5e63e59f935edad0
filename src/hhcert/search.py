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
                        NonPositiveFunction, RConvex, check, construct_dominated_pair)
from .expr import Add, Const, DomainError, Expr, Interval, Mul, Pow, Sub, Exp, X
from .hh import IneqReport, run_verifier, run_verifiers
from .jsonio import dumps
from .quadrature import NonConvergence

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
    tol: float = 1e-8
    quad_tol: float = 1e-10
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


def _certifies(e: Expr, params: ClassParams, iv: Interval, grid: GridSpec) -> bool:
    try:
        return check(e, iv, params, grid=grid).passed
    except (DomainError, NonPositiveFunction):
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


class _Tally:
    def __init__(self) -> None:
        self.passes = 0
        self.fails = 0
        self.skips = 0
        self.min_slack: float | None = None

    def record(self, rep: IneqReport) -> None:
        if rep.holds:
            self.passes += 1
        else:
            self.fails += 1
        if self.min_slack is None or rep.slack < self.min_slack:
            self.min_slack = rep.slack

    def skip(self) -> None:
        self.skips += 1


def stress(config: StressConfig) -> StressSummary:
    """Run the configured number of randomized trials and tally verifier
    outcomes.  Rejected trials and verifiers whose hypotheses the trial
    cannot guarantee count as skips, never as failures."""
    tallies = {tid: _Tally() for tid in STRESS_THEOREMS}
    pool = config.params_pool()
    rejected_trials = 0
    rejected_candidates = 0
    worst: dict | None = None

    for index in range(config.trials):
        rng = _trial_rng(config.seed, index)
        iv = config.intervals[int(rng.integers(0, len(config.intervals)))]
        params = pool[int(rng.integers(0, len(pool)))]
        kw = dict(a=iv.lo, b=iv.hi, tol=config.tol, quad_tol=config.quad_tol,
                  hypotheses=False)

        reports: list[IneqReport] = []
        ran: set[str] = set()
        if isinstance(params, AlphaM):
            cert_iv = Interval(0.0, iv.hi / params.m ** 2)
            h, att_h = _draw_certified(rng, params, cert_iv, config.atom_budget,
                                       config.grid, config.max_attempts, None, False)
            k, att_k = _draw_certified(rng, params, cert_iv, config.atom_budget,
                                       config.grid, config.max_attempts, None, False)
            rejected_candidates += (att_h - 1) + (att_k - 1)
            if h is None or k is None:
                rejected_trials += 1
            else:
                f, g = construct_dominated_pair(h, k)
                ids = ("t1_first", "t1_second", "t2")
                if params.alpha == 1.0:
                    ids = ("theorem_a_first", "theorem_a_second") + ids
                try:
                    reports += run_verifiers(ids, f, g, alpha=params.alpha, m=params.m, **kw)
                except (DomainError, NonPositiveFunction, NonConvergence):
                    reports = []
        else:
            # build f positive by construction: h = k + delta with delta > 0,
            # so f = (h - k)/2 = delta/2 stays strictly positive
            k, att_k = _draw_certified(rng, params, iv, config.atom_budget,
                                       config.grid, config.max_attempts, None, True)
            delta, att_d = _draw_certified(rng, params, iv, config.atom_budget,
                                           config.grid, config.max_attempts, None, True)
            rejected_candidates += (att_k - 1) + (att_d - 1)
            h = Add(k, delta) if k is not None and delta is not None else None
            if h is not None and not _certifies(h, params, iv, config.grid):
                rejected_candidates += 1
                h = None
            if h is None:
                rejected_trials += 1
            else:
                f, g = construct_dominated_pair(h, k)
                try:
                    # run only what the construction actually certifies
                    if check(f, iv, params, g, config.grid).passed:
                        reports.append(run_verifier("gr_dominated", f, g, r=params.r, **kw))
                    if _certifies(g, params, iv, config.grid):
                        reports.append(run_verifier("gill_r", g, r=params.r, **kw))
                except (DomainError, NonPositiveFunction, NonConvergence):
                    reports = []

        for rep in reports:
            tallies[rep.theorem_id].record(rep)
            ran.add(rep.theorem_id)
            if not rep.holds and (worst is None or rep.slack < worst["slack"]):
                worst = {"trial": index, "theorem_id": rep.theorem_id,
                         "slack": rep.slack, "params": dict(rep.params)}
        for tid in STRESS_THEOREMS:
            if tid not in ran:
                tallies[tid].skip()

    verifiers = {tid: TheoremStats(t.passes, t.fails, t.skips, t.min_slack)
                 for tid, t in tallies.items()}
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
                   tol: float = 1e-8, quad_tol: float = 1e-10) -> list[ScanRow]:
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
                except (DomainError, NonPositiveFunction, NonConvergence):
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
