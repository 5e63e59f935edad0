"""Deterministic adaptive quadrature for expression trees.

Each panel is evaluated with a 15-point Kronrod extension of the 7-point
Gauss-Legendre rule; the difference between the two embedded rules is the
panel error estimate.  Panels whose estimate exceeds their share of the
tolerance are bisected.  Panels are examined strictly left to right and
summed in that order, so repeated runs are bit-identical.

A bisected panel prefetches: one ``evaluate`` call gets f at the nodes of
its descendants ``_AHEAD`` levels deep (2 + 4 + 8 sub-panels), and each of
them takes its values from that block when it is examined.  The values are
those of one call per panel to the bit.  A block that leaves f's domain is
dropped, and its panels are evaluated one at a time, so a DomainError names
the panel, node and x that panel-by-panel evaluation names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import DomainError, Expr, Interval, _require_tol, evaluate

__all__ = ["IntegralResult", "NonConvergence", "integrate", "MAX_PANELS",
           "QUAD_TOL_DEFAULT"]

MAX_PANELS = 2 ** 20
QUAD_TOL_DEFAULT = 1e-10

# Kronrod-15 abscissae (positive half, descending) and weights; the odd
# indices 1, 3, 5, 7 carry the embedded Gauss-7 rule.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

# all 15 scaled abscissae on [-1, 1], ascending
_NODES = np.array([-z for z in _XGK[:-1]] + [0.0] + [z for z in reversed(_XGK[:-1])])
_W15 = np.array(list(_WGK[:-1]) + [_WGK[-1]] + list(reversed(_WGK[:-1])))
_W7 = np.zeros(15)
for _i, _w in zip((1, 3, 5), _WG[:3]):
    _W7[_i] = _w
    _W7[14 - _i] = _w
_W7[7] = _WG[3]


class NonConvergence(RuntimeError):
    """The panel budget was exhausted before the tolerance was met."""


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_bound: float
    subdivisions: int


_AHEAD = 3   # levels of descendants a bisected panel evaluates in one call


def _prefetch(f: Expr, a: float, b: float) -> np.ndarray | None:
    """f at the nodes of the sub-panels of [a, b], ``_AHEAD`` levels deep, one
    row per panel in heap order (the children of row k - 2 are rows 2k - 2
    and 2k - 1), or None if the block leaves f's domain."""
    ends = [(a, b)]
    for i in range(2 ** _AHEAD - 1):
        lo, hi = ends[i]
        mid = 0.5 * (lo + hi)
        ends += [(lo, mid), (mid, hi)]
    mid_half = np.array([(0.5 * (lo + hi), 0.5 * (hi - lo)) for lo, hi in ends[1:]])
    try:
        return evaluate(f, mid_half[:, :1] + mid_half[:, 1:] * _NODES)
    except DomainError:
        return None


@np.errstate(all="ignore")    # entered once per call, not once per panel
def integrate(f: Expr, iv: Interval, tol: float = QUAD_TOL_DEFAULT,
              max_panels: int = MAX_PANELS) -> IntegralResult:
    """Integrate ``f`` over ``iv`` to an absolute error bound of ``tol``,
    which must be positive and finite.

    Raises NonConvergence once ``max_panels`` panels have been examined,
    and propagates DomainError if the integrand leaves its domain.
    """
    _require_tol("tol", tol)
    width = iv.width
    # (a, b, the prefetched block or None, the panel's heap index in it)
    stack = [(iv.lo, iv.hi, None, 1)]
    total = 0.0
    err_total = 0.0
    accepted = 0
    examined = 0
    while stack:
        a, b, block, k = stack.pop()
        examined += 1
        if examined > max_panels:
            raise NonConvergence(
                f"integral did not converge within {max_panels} panels")
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        fv = evaluate(f, mid + half * _NODES) if block is None else block[k - 2]
        k15 = float(np.dot(_W15, fv))
        g7 = float(np.dot(_W7, fv))
        err = half * abs(k15 - g7)
        if err <= tol * (b - a) / width:
            total += half * k15
            err_total += err
            accepted += 1
        else:
            if block is None or k >= 2 ** _AHEAD:
                block, k = _prefetch(f, a, b), 1
            stack.append((mid, b, block, 2 * k + 1))   # pushed first, popped second
            stack.append((a, mid, block, 2 * k))       # keeps accumulation left to right
    return IntegralResult(total, err_total, accepted)
