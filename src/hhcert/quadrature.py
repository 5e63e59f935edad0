"""Deterministic adaptive quadrature for expression trees.

Each panel is evaluated with a 15-point Kronrod extension of the 7-point
Gauss-Legendre rule; the difference between the two embedded rules is the
panel error estimate.  Panels whose estimate exceeds their share of the
tolerance are bisected.  Panels are examined strictly left to right and
summed in that order, so repeated runs are bit-identical.

A bisected panel prefetches: one ``evaluate`` call gets f at the nodes of
sub-panels it may examine, in a block keyed by panel ``(a, b)``; each takes
its values from the block when they are there, else is evaluated alone.  A
panel fetches its descendants ``_AHEAD`` levels deep (2 + 4 + 8 sub-panels),
unless it lies at an end of the interval at 0 and is ``2 * _AHEAD`` or more
levels deep: then it fetches a chain, the two children of each panel toward
0, for as many levels as it is deep, up to ``_CHAIN``.  Floats are dense at
0, so an integrable singularity there, as in -log(x), is bisected down to
subnormal widths, a thousand levels deep; near any other end nodes round
onto it some 50 levels below its magnitude.  The values are those of one
call per panel to the bit.  A block that leaves f's domain is dropped, and
its panels are evaluated one at a time, so a DomainError names the panel,
node and x that panel-by-panel evaluation names; after a dropped chain, the
end fetches trees.
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


_AHEAD = 3   # levels of descendants one tree holds
_CHAIN = 64  # most levels one chain toward 0 covers


def _prefetch(f: Expr, a: float, b: float, levels: int, left: bool | None) -> dict | None:
    """f at the nodes of the sub-panels of [a, b] keyed by panel, or None if the block leaves
    f's domain: all of them ``levels`` levels deep (``left`` None), or the two children of
    each panel on the chain toward a (``left``) or b.  Panels (+-0, +-0) are left out, as
    their keys cannot tell -0.0 from 0.0; any other key's nodes do not depend on it."""
    ends, level = [], [(a, b)]
    for _ in range(levels):
        kids = []
        for lo, hi in level:
            mid = 0.5 * (lo + hi)
            kids += [(lo, mid), (mid, hi)]
        ends += kids
        level = kids if left is None else kids[:1] if left else kids[1:]
    mid_half = np.array([(0.5 * (lo + hi), 0.5 * (hi - lo)) for lo, hi in ends])
    try:
        rows = evaluate(f, mid_half[:, :1] + mid_half[:, 1:] * _NODES)
    except DomainError:
        return None
    return {p: row for p, row in zip(ends, rows) if p[0] or p[1]}


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
    stack = [(iv.lo, iv.hi, None, 0)]     # (a, b, the prefetched block or None, depth)
    chains = True                   # whether the end at 0, if any, still fetches chains
    total = 0.0
    err_total = 0.0
    accepted = 0
    examined = 0
    while stack:
        a, b, block, depth = stack.pop()
        examined += 1
        if examined > max_panels:
            raise NonConvergence(
                f"integral did not converge within {max_panels} panels")
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        fv = None if block is None else block.get((a, b))
        if fv is None:
            fv = evaluate(f, mid + half * _NODES)
        k15 = float(_W15.dot(fv))
        g7 = float(_W7.dot(fv))
        err = half * abs(k15 - g7)
        if err <= tol * (b - a) / width:
            total += half * k15
            err_total += err
            accepted += 1
        else:
            if block is None or (a, mid) not in block:
                if chains and depth >= 2 * _AHEAD and (a == iv.lo == 0.0 or b == iv.hi == 0.0):
                    block = _prefetch(f, a, b, min(depth, _CHAIN), a == iv.lo)
                    chains = block is not None      # after a dropped chain, trees only
                else:
                    block = _prefetch(f, a, b, _AHEAD, None)
            stack.append((mid, b, block, depth + 1))   # pushed first, popped second
            stack.append((a, mid, block, depth + 1))   # keeps accumulation left to right
    return IntegralResult(total, err_total, accepted)
