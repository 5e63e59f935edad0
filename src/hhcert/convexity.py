"""Grid certification of generalized convexity and convex dominance.

A function f on [lo, hi] is checked against the defining inequality of a
class at every triple (x, y, t) of a finite grid:

* (alpha, m)-convexity:   f(t*x + m*(1-t)*y) <= t^alpha f(x) + m*(1-t^alpha) f(y)
* r-convexity:            f(t*x + (1-t)*y)  <= M_r(f(x), f(y); t)
* dominance variants:     |combination(f) - f(point)| <= combination(g) - g(point)

A check passes when no grid triple violates its inequality by more than
``grid.tol``.  Violations report two witnesses: the largest violation on
the grid and the first one in row-major scan order (x outer, y middle,
t inner).  Both are deterministic.

These are finite certificates, not proofs: a Pass says the inequality
held at every sampled triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import DomainError, Expr, Interval, evaluate, lin_comb
from .means import _power_mean_raw

__all__ = [
    "AlphaM", "RConvex", "ClassParams", "GridSpec", "DEFAULT_GRID",
    "Witness", "CheckResult", "NonPositiveFunction", "check",
    "check_alpha_m_convex", "check_r_convex",
    "check_dominated_alpha_m", "check_dominated_r",
    "alpha_m_gap_grid", "dominated_alpha_m_gap_grid",
    "construct_dominated_pair", "split_pair",
]


@dataclass(frozen=True)
class AlphaM:
    """Parameters of the (alpha, m) class; both lie in (0, 1]."""
    alpha: float
    m: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 < self.m <= 1.0:
            raise ValueError(f"m must lie in (0, 1], got {self.m}")


@dataclass(frozen=True)
class RConvex:
    """Order of the r-convex class: any finite real."""
    r: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.r):
            raise ValueError(f"r must be finite, got {self.r}")


ClassParams = AlphaM | RConvex


@dataclass(frozen=True)
class GridSpec:
    """Certification grid: n_xy points per axis, n_lambda weights, and the
    absolute tolerance below which a violation is ignored."""
    n_xy: int = 33
    n_lambda: int = 65
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.n_xy < 2:
            raise ValueError(f"n_xy must be >= 2, got {self.n_xy}")
        if self.n_lambda < 3:
            raise ValueError(f"n_lambda must be >= 3, got {self.n_lambda}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")


DEFAULT_GRID = GridSpec()


@dataclass(frozen=True)
class Witness:
    """A grid triple where the checked inequality fails: lhs > rhs + tol."""
    x: float
    y: float
    lam: float
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return self.lhs - self.rhs


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a grid check.

    ``witness`` is the largest violation found (None when the check
    passed); ``first_witness`` is the earliest violation in scan order.
    ``f0_nonpositive`` reports the side condition f(0) <= 0 when the
    interval starts at 0, purely as information.
    """
    witness: Witness | None
    first_witness: Witness | None
    points_checked: int
    f0_nonpositive: bool | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None


class NonPositiveFunction(ValueError):
    """A positivity precondition failed at a sampled point."""

    def __init__(self, name: str, x: float, value: float):
        super().__init__(f"{name} must be strictly positive on the interval; "
                         f"got {value!r} at x={x!r}")
        self.x = x
        self.value = value


# ------------------------- grid plumbing -------------------------

def _grids(iv: Interval, grid: GridSpec):
    xs = np.linspace(iv.lo, iv.hi, grid.n_xy)
    ts = np.linspace(0.0, 1.0, grid.n_lambda)
    return xs, ts, xs[:, None, None], xs[None, :, None], ts[None, None, :]


def _witness_at(flat: int, shape, lhs, rhs, xs, ts) -> Witness:
    i, j, k = np.unravel_index(flat, shape)
    return Witness(float(xs[i]), float(xs[j]), float(ts[k]),
                   float(lhs[i, j, k]), float(rhs[i, j, k]))


def _scan(lhs, rhs, xs, ts, tol: float,
          f0_nonpositive: bool | None = None) -> CheckResult:
    gaps = lhs - rhs
    mask = gaps > tol
    points = int(gaps.size)
    if not mask.any():
        return CheckResult(None, None, points, f0_nonpositive)
    worst = _witness_at(int(np.argmax(gaps)), gaps.shape, lhs, rhs, xs, ts)
    first = _witness_at(int(np.argmax(mask)), gaps.shape, lhs, rhs, xs, ts)
    return CheckResult(worst, first, points, f0_nonpositive)


def _require_positive(values, points, name: str) -> None:
    bad = np.asarray(values <= 0.0)
    if bad.any():
        idx = int(np.argmax(bad.ravel()))
        pt = float(np.broadcast_to(points, bad.shape).ravel()[idx])
        val = float(np.asarray(values).ravel()[idx])
        raise NonPositiveFunction(name, pt, val)


def _f0_flag(f: Expr, iv: Interval) -> bool | None:
    if iv.lo != 0.0:
        return None
    try:
        return bool(evaluate(f, 0.0) <= 0.0)
    except DomainError:
        return None


# ------------------------- one check for every class -------------------------

def _sides(f: Expr, iv: Interval, params: ClassParams, grid: GridSpec,
           name: str, need_positive: bool):
    """Both sides of params' defining inequality for f on the grid, as
    (lhs, rhs, xs, ts).  For r-convexity, need_positive demands that f
    (called ``name`` in errors) be strictly positive at every sample."""
    xs, ts, x3, y3, t3 = _grids(iv, grid)
    if isinstance(params, AlphaM):
        if iv.lo < 0.0:
            raise ValueError(f"(alpha, m) classes live on [0, b]; interval starts at {iv.lo}")
        alpha, m = params.alpha, params.m
        comb = (t3 * x3) + (m * (1.0 - t3)) * y3
        lhs = evaluate(f, comb)
        fvals = evaluate(f, xs)
        ta = np.power(ts, alpha)
        rhs = (ta[None, None, :] * fvals[:, None, None]
               + (m * (1.0 - ta))[None, None, :] * fvals[None, :, None])
        return lhs, np.broadcast_to(rhs, lhs.shape), xs, ts
    comb = (t3 * x3) + (1.0 - t3) * y3
    fvals = evaluate(f, xs)
    fcomb = evaluate(f, comb)
    if need_positive:
        _require_positive(fvals, xs, name)
        _require_positive(fcomb, comb, name)
    mr = _power_mean_raw(fvals[:, None, None], fvals[None, :, None], t3, params.r)
    if not np.all(np.isfinite(mr)):
        bad = ~np.isfinite(np.broadcast_to(mr, fcomb.shape))
        idx = int(np.argmax(bad.ravel()))
        raise DomainError("power mean undefined for sampled values", None,
                          float(comb.ravel()[idx]))
    return fcomb, np.broadcast_to(mr, fcomb.shape), xs, ts


def _dominance(f: Expr, g: Expr, iv: Interval, params: ClassParams, grid: GridSpec):
    """|combination(f) - f(point)| and combination(g) - g(point) on the grid.

    r-dominance needs g strictly positive, so g is validated before f; f
    must be positive too when r <= 0 (the power mean of order r <= 0 needs
    positive entries).  (alpha, m) dominance evaluates f before g.
    """
    if isinstance(params, RConvex):
        lhs_g, rhs_g, xs, ts = _sides(g, iv, params, grid, "g", True)
        lhs_f, rhs_f, _, _ = _sides(f, iv, params, grid, "f", params.r <= 0.0)
    else:
        lhs_f, rhs_f, xs, ts = _sides(f, iv, params, grid, "f", False)
        lhs_g, rhs_g, _, _ = _sides(g, iv, params, grid, "g", False)
    return np.abs(rhs_f - lhs_f), rhs_g - lhs_g, xs, ts


def check(f: Expr, iv: Interval, params: ClassParams, g: Expr | None = None,
          grid: GridSpec = DEFAULT_GRID) -> CheckResult:
    """Grid-check that f belongs to the class ``params`` or, given g, that
    f is g-dominated over it.  r-convexity needs f strictly positive at
    every sampled point; the (alpha, m) membership check also reports the
    f(0) <= 0 side condition."""
    if g is not None:
        return _scan(*_dominance(f, g, iv, params, grid), grid.tol)
    lhs, rhs, xs, ts = _sides(f, iv, params, grid, "f", True)
    f0 = _f0_flag(f, iv) if isinstance(params, AlphaM) else None
    return _scan(lhs, rhs, xs, ts, grid.tol, f0)


def alpha_m_gap_grid(f: Expr, iv: Interval, alpha: float, m: float,
                     grid: GridSpec = DEFAULT_GRID) -> np.ndarray:
    """Pointwise violation gap lhs - rhs of the (alpha, m) inequality,
    shaped (n_xy, n_xy, n_lambda); a positive entry beyond tol is a
    violation at that triple."""
    lhs, rhs, _, _ = _sides(f, iv, AlphaM(alpha, m), grid, "f", False)
    return lhs - rhs


def dominated_alpha_m_gap_grid(f: Expr, g: Expr, iv: Interval, alpha: float,
                               m: float, grid: GridSpec = DEFAULT_GRID) -> np.ndarray:
    dom_lhs, dom_rhs, _, _ = _dominance(f, g, iv, AlphaM(alpha, m), grid)
    return dom_lhs - dom_rhs


def check_alpha_m_convex(f: Expr, iv: Interval, alpha: float, m: float,
                         grid: GridSpec = DEFAULT_GRID) -> CheckResult:
    return check(f, iv, AlphaM(alpha, m), grid=grid)


def check_dominated_alpha_m(f: Expr, g: Expr, iv: Interval, alpha: float,
                            m: float, grid: GridSpec = DEFAULT_GRID) -> CheckResult:
    """Check |combination(f) - f(point)| <= combination(g) - g(point) on the grid."""
    return check(f, iv, AlphaM(alpha, m), g, grid)


def check_r_convex(f: Expr, iv: Interval, r: float,
                   grid: GridSpec = DEFAULT_GRID) -> CheckResult:
    """Check f(t*x + (1-t)*y) <= M_r(f(x), f(y); t); f must be strictly
    positive at every sampled point."""
    return check(f, iv, RConvex(r), grid=grid)


def check_dominated_r(f: Expr, g: Expr, iv: Interval, r: float,
                      grid: GridSpec = DEFAULT_GRID) -> CheckResult:
    """Check |M_r(f(x), f(y); t) - f(point)| <= M_r(g(x), g(y); t) - g(point).

    g must be strictly positive everywhere; f must be when r <= 0.
    """
    return check(f, iv, RConvex(r), g, grid)


# ------------------------- dominated pairs -------------------------

def construct_dominated_pair(h: Expr, k: Expr) -> tuple[Expr, Expr]:
    """From class members h, k build f = (h - k)/2 and g = (h + k)/2; then
    g + f = h and g - f = k, so f is g-dominated whenever h and k are in
    the class."""
    return lin_comb(0.5, h, -0.5, k), lin_comb(0.5, h, 0.5, k)


def split_pair(f: Expr, g: Expr) -> tuple[Expr, Expr]:
    """Inverse of construct_dominated_pair: return (g + f, g - f)."""
    return lin_comb(1.0, g, 1.0, f), lin_comb(1.0, g, -1.0, f)
