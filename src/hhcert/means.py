"""Weighted power means and the generalized logarithmic mean.

Both families have removable singularities in the order parameter r.
Branch selection is by explicit epsilon thresholds so that results are
deterministic and continuous across the cuts:

* power mean  M_r(x, y; lam) = (lam*x^r + (1-lam)*y^r)^(1/r), with the
  geometric mean x^lam * y^(1-lam) at r = 0;
* generalized log mean  L_r(x, y) = (r/(r+1)) * (x^(r+1) - y^(r+1)) / (x^r - y^r),
  with dedicated branches at r = 0, r = -1 and on the diagonal x = y.
"""

from __future__ import annotations

import math
import sys
from enum import Enum

import numpy as np

from .expr import Value

__all__ = [
    "EPS_R", "EPS_XY", "MeanBranchTag", "MeanBranch",
    "power_mean", "gen_log_mean",
]

# |r| below this collapses to the r = 0 branch; likewise |r+1| for r = -1
EPS_R = 1e-9
# relative diagonal threshold: |x - y| <= EPS_XY * max(x, y) means x = y
EPS_XY = 1e-12


class MeanBranchTag(Enum):
    GENERAL_R = "general"
    LOG_MEAN = "log"
    HARMONIC_LOG = "harmonic-log"
    DIAGONAL = "diagonal"


class MeanBranch(Value):
    tag: MeanBranchTag
    value: float


def _y_side(y, lam, r: float):
    """The y term of the power mean's sum: y^(1-lam), (1-lam)*expm1(r*log y) or (1-lam)*y^r."""
    if abs(r) < EPS_R:
        return np.power(y, 1.0 - lam)
    return (1.0 - lam) * (np.expm1(r * np.log(y)) if abs(r) < 0.25 else np.power(y, r))


def _power_mean_raw(x, y, lam, r: float, out=None, y_side=None):
    """Branch-selected power mean of positive inputs, without validation.

    Accepts floats or broadcastable numpy arrays for x, y and lam.  The
    endpoints lam = 0 and lam = 1 return y and x exactly.  The result is
    clamped into [min, max] so internality holds to the last bit.  A grid
    gives ``out`` of the broadcast shape, with lam on its last axis from 0 to 1,
    and may give ``y_side``, which is :func:`_y_side` of y and lam.
    """
    with np.errstate(all="ignore"):
        if y_side is None:
            y_side = _y_side(y, lam, r)
        if abs(r) < EPS_R:
            res = np.multiply(np.power(x, lam), y_side, out=out)
        elif abs(r) < 0.25:
            # s = lam*x^r + (1-lam)*y^r lies near 1 and s^(1/r) multiplies
            # its rounding error by 1/r; carry s - 1 through expm1/log1p
            s1 = np.add(lam * np.expm1(r * np.log(x)), y_side, out=out)
            res = np.exp(np.divide(np.log1p(s1, out=out), r, out=out), out=out)
        else:
            s = np.add(lam * np.power(x, r), y_side, out=out)
            res = np.power(s, 1.0 / r, out=out)
        if out is None:
            res = np.where(lam == 1.0, x, np.where(lam == 0.0, y, res))
            return np.clip(res, np.minimum(x, y), np.maximum(x, y))
        res[..., 0], res[..., -1] = y[..., 0], x[..., 0]
        np.maximum(res, np.minimum(x, y), out=out)    # np.clip's bits, at half its cost
        return np.minimum(out, np.maximum(x, y), out=out)


def _require_args(fn: str, x: float, y: float, r: float) -> None:
    """Reject a non-finite x, y or r and a non-positive x or y of mean ``fn``."""
    for name, v in (("x", x), ("y", y), ("order r", r)):
        if not math.isfinite(v):
            raise ValueError(f"{fn} needs a finite {name}, got {v}")
    if not (x > 0.0 and y > 0.0):
        raise ValueError(f"{fn} needs positive x and y, got {x}, {y}")


def power_mean(x: float, y: float, lam: float, r: float) -> float:
    """Weighted power mean of order r of two positive finite reals."""
    _require_args("power_mean", x, y, r)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"weight lam must lie in [0, 1], got {lam}")
    return float(_power_mean_raw(float(x), float(y), float(lam), float(r)))


def gen_log_mean(x: float, y: float, r: float) -> MeanBranch:
    """Generalized logarithmic mean of order r of two positive reals.

    Returns the value together with the branch that produced it.  The
    formulas are evaluated through expm1/log1p of u = log(x/y), which
    avoids cancellation when x and y or the powers x^r and y^r are close.
    x, y and r must be finite, on the diagonal x = y too.
    """
    _require_args("gen_log_mean", x, y, r)
    x = float(x)
    y = float(y)
    r = float(r)
    if abs(x - y) <= EPS_XY * max(x, y):
        return MeanBranch(MeanBranchTag.DIAGONAL, x)
    d = x - y
    ratio = d / y
    # u = log(x) - log(y) via log1p, accurate near the diagonal.  Once
    # max/min reaches 1024, 1 + d/y no longer holds the digits of min/max
    # (and d/y rounds to -1 past ~9e15); the plain difference of the logs is
    # then accurate to |u|, but x*y may overflow
    far = not -1023.0 / 1024.0 < ratio < 1023.0
    u = math.log(x) - math.log(y) if far else math.log1p(ratio)
    if abs(r) < EPS_R:
        tag, value = MeanBranchTag.LOG_MEAN, d / u
    elif abs(r + 1.0) < EPS_R:
        # x*y*u overflows, or loses digits below the normal range; the
        # scaled form of the far branch is used there too
        tag = MeanBranchTag.HARMONIC_LOG
        xyu = x * y * u
        value = (xyu / d if not far and sys.float_info.min <= abs(xyu) < math.inf
                 else min(x, y) * abs(u) * (max(x, y) / abs(d)))
    else:
        # (r/(r+1)) * (x^(r+1) - y^(r+1)) / (x^r - y^r) rewritten via
        # x^s - y^s = y^s * expm1(s*u); the y^s factors reduce to a single y.
        # Where that overflows, raising or reaching inf in the product, the
        # same form with x and y swapped (L_r is symmetric, u -> -u) is
        # tried; when r and r+1 share a sign its two exponents are negative
        tag = MeanBranchTag.GENERAL_R
        k = r / (r + 1.0)
        for base, s in ((y, u), (x, -u)):
            try:
                value = k * base * math.expm1((r + 1.0) * s) / math.expm1(r * s)
            except OverflowError:
                continue
            if math.isfinite(value):
                break
        else:
            raise ValueError(f"generalized log mean overflows at x={x!r}, "
                             f"y={y!r}, r={r!r}")
    value = min(max(value, min(x, y)), max(x, y))
    return MeanBranch(tag, value)
