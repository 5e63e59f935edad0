"""Numerical certification of generalized convexity and the integral
inequalities those classes satisfy.

The package has three layers:

- expression trees (`parse`, `evaluate`, `compose_affine`) for the
  functions under test;
- grid certifiers (`check`, for a class `AlphaM` or `RConvex` with an
  optional dominating g) that either pass or return a concrete witness;
- inequality verifiers (`run_verifiers`, `run_verifier` and friends)
  that integrate with an adaptive Gauss-Kronrod rule and report left
  side, right side and slack for each bound.

`stress` drives randomized soundness campaigns over generated instances.
"""

from __future__ import annotations

from .convexity import (AlphaM, CheckResult, GridSpec, NonPositiveFunction,
                        RConvex, Witness, alpha_m_gap_grid, check,
                        check_alpha_m_convex, check_dominated_alpha_m,
                        check_dominated_r, check_r_convex,
                        construct_dominated_pair, dominated_alpha_m_gap_grid,
                        passes, split_pair)
from .expr import (AffineArg, Const, DomainError, Expr, Interval, ParseError,
                   Var, X, compose_affine, evaluate, lin_comb, parse,
                   to_string)
from .hh import (NEEDS_G, THEOREM_IDS, HypothesisStatus, IneqReport,
                 classic_hh, dragomir_m, gill_r, gr_dominated, report_json,
                 report_to_dict, run_verifier, run_verifiers, set_midpoint,
                 set_trapezoid, t1_first, t1_second, t2, theorem_a,
                 trapezoid_residual)
from .means import MeanBranch, MeanBranchTag, gen_log_mean, power_mean
from .quadrature import IntegralResult, NonConvergence, integrate
from .search import (ScanRow, StressConfig, StressSummary, TheoremStats,
                     random_convex_expr, scan_csv, stress, summary_json,
                     summary_to_dict, tightness_scan)

__version__ = "0.1.0"

__all__ = [
    "AffineArg", "AlphaM", "CheckResult", "Const", "DomainError", "Expr",
    "GridSpec", "HypothesisStatus", "IneqReport", "IntegralResult",
    "Interval", "MeanBranch", "MeanBranchTag", "NEEDS_G", "NonConvergence",
    "NonPositiveFunction", "ParseError", "RConvex", "ScanRow", "StressConfig",
    "StressSummary", "THEOREM_IDS", "TheoremStats", "Var", "Witness", "X",
    "alpha_m_gap_grid", "check", "check_alpha_m_convex", "check_dominated_alpha_m",
    "check_dominated_r", "check_r_convex", "classic_hh", "compose_affine",
    "construct_dominated_pair", "dominated_alpha_m_gap_grid", "dragomir_m",
    "evaluate", "gen_log_mean", "gill_r", "gr_dominated", "integrate",
    "lin_comb", "parse", "passes", "power_mean", "random_convex_expr", "report_json",
    "report_to_dict", "run_verifier", "run_verifiers", "scan_csv", "set_midpoint",
    "set_trapezoid", "split_pair", "stress", "summary_json",
    "summary_to_dict", "t1_first", "t1_second", "t2", "theorem_a",
    "tightness_scan", "to_string", "trapezoid_residual",
]
