"""Deterministic adaptive quadrature for expression trees.

Each panel is evaluated with a 15-point Kronrod extension of the 7-point
Gauss-Legendre rule; the difference between the two embedded rules is the
panel error estimate.  Panels whose estimate exceeds their share of the
tolerance are bisected.  Panels are examined strictly left to right and
summed in that order, so repeated runs are bit-identical.

A bisected panel prefetches: one ``evaluate`` call gets f at the nodes of
sub-panels it may examine and one vecdot both rules' sums on each.  A panel
fetches its descendants ``_AHEAD`` levels deep (2 + 4 + 8 sub-panels), keyed
by panel, unless it lies at an end of the interval at 0 and is ``2 * _AHEAD``
or more levels deep: then it fetches a chain, the two children of each panel
toward 0, for as many levels as it is deep, up to ``_CHAIN``.  Floats are
dense at 0, so an integrable singularity there, as in -log(x), is bisected
to subnormal widths, a thousand levels deep.  A chain is walked in one pass:
it counts the near panels, at 0, that bisection goes down through, and pushes
the others, each run of accepted far panels as one entry summed left to
right.  The values are those of one call per panel to the bit.  A block that
leaves f's domain is dropped, and its panels are evaluated one at a time, so
a DomainError names the panel, node and x that panel-by-panel evaluation
names; after a dropped chain, the end fetches trees.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .expr import DomainError, Expr, Interval, Value, _require_tol, evaluate

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

# all 15 scaled abscissae on [-1, 1], ascending; both rules' weights, one row each
_NODES = np.array([-z for z in _XGK[:-1]] + [0.0] + [z for z in reversed(_XGK[:-1])])
_W = np.array([_WGK + _WGK[-2::-1], np.zeros(15)])
_W[1, 1::2] = _WG + _WG[-2::-1]
_W15, _W7 = _W


class NonConvergence(RuntimeError):
    """The panel budget was exhausted before the tolerance was met."""


class IntegralResult(Value):
    value: float
    error_bound: float
    subdivisions: int


_AHEAD = 3   # levels of descendants one tree holds
_CHAIN = 64  # most levels one chain toward 0 covers


def _sums(f: Expr, mid: np.ndarray, half: np.ndarray) -> np.ndarray | None:
    """Both rules' sums of f on the panels of midpoints ``mid`` and half-widths ``half``, or
    None if f leaves its domain on one.  The vecdot is one ddot per row, np.dot's on one row,
    once the rows (a constant's are broadcast) are contiguous."""
    try:
        rows = evaluate(f, mid[:, None] + half[:, None] * _NODES)
    except DomainError:
        return None
    return np.vecdot(np.ascontiguousarray(rows)[:, None], _W)


def _tree(f: Expr, a: float, b: float) -> dict | None:
    """The sums of the panels ``_AHEAD`` levels below [a, b] keyed by panel, or None; not of
    (+-0, +-0), as keys cannot tell -0.0 from 0.0, while any other key's nodes are its own."""
    ends, level = [], [(a, b)]
    for _ in range(_AHEAD):
        level = [p for lo, hi in level for m in (0.5 * (lo + hi),) for p in ((lo, m), (m, hi))]
        ends += level
    sums = _sums(f, *np.array([(0.5 * (lo + hi), 0.5 * (hi - lo)) for lo, hi in ends]).T)
    return None if sums is None else {p: s for p, s in zip(ends, sums.tolist()) if p[0] or p[1]}


def _chain(f: Expr, a: float, b: float, levels: int, left: bool, tol: float, width: float):
    """The chain of [a, b] toward a (``left``) or b, or None: ends and sums of each level's near
    child at i and far child at ``levels + i``; per level: stop here, far accepted, far's result."""
    end, ms = (a, [b]) if left else (b, [a])
    for _ in range(levels):
        ms.append(0.5 * (end + ms[-1]))     # the halvings of one bisection at a time
    ends = ([end] * levels + ms[1:], ms[1:] + ms[:-1])[::1 if left else -1]
    lo, hi = np.array(ends)
    half = 0.5 * (hi - lo)
    sums = _sums(f, 0.5 * (lo + hi), half)
    if sums is None:
        return None
    err = half * np.abs(sums[:, 0] - sums[:, 1])
    ok = err <= tol * (hi - lo) / width
    stop = ok[:levels] if left else ok[:levels] | ~ok[levels:]    # toward b, far comes first
    return (left, levels, *ends, sums.tolist(), stop.tolist(), ok[levels:].tolist(),
            list(zip((half * sums[:, 0])[levels:].tolist(), err[levels:].tolist())))


def _walk(stack: list, chain: tuple, k: int, depth: int) -> int:
    """Push what bisection examines of ``chain`` from level k (below ``depth``) to where it stops
    going down, in its order, and return how many near panels it bisects on the way."""
    left, n, lo, hi, sums, stop, far, done = chain
    j = (stop[k:n - 1] + [True]).index(True) + k     # n - 1 at the latest
    seq = [(lo[j], hi[j], (*sums[j], chain, j), depth + 1 + j - k)]
    for good, run in groupby(range(j, k - 1, -1) if left else range(k, j + 1), far.__getitem__):
        seq += ([(None, [done[i] for i in run], None, None)] if good else
                [(lo[n + i], hi[n + i], sums[n + i], depth + 1 + i - k) for i in run])
    stack.extend(reversed(seq if left else seq[1:] + seq[:1]))
    return j - k


@np.errstate(all="ignore")    # entered once per call, not once per panel
def integrate(f: Expr, iv: Interval, tol: float = QUAD_TOL_DEFAULT,
              max_panels: int = MAX_PANELS) -> IntegralResult:
    """Integrate ``f`` over ``iv`` to an absolute error bound of ``tol``,
    which must be positive and finite.

    Raises NonConvergence when panel ``max_panels + 1`` would be examined,
    and propagates DomainError if the integrand leaves its domain.
    """
    _require_tol("tol", tol)
    width = iv.width
    # (a, b, its sums: None, a tree, a pair or (k15, g7, chain, level), depth), or a run
    stack = [(iv.lo, iv.hi, None, 0)]
    chains = True                   # whether the end at 0, if any, still fetches chains
    total = err_total = 0.0
    accepted = examined = 0
    while stack:
        a, b, src, depth = stack.pop()
        examined += 1 if a is not None else len(b)    # and a walk's near panels, checked
        if examined > max_panels:                     # here, as no evaluate call comes between
            raise NonConvergence(f"integral did not converge within {max_panels} panels")
        if a is None:                   # the (value, error) of far panels accepted in turn
            for value, err in b:
                total, err_total = total + value, err_total + err
            accepted += len(b)
            continue
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        sums = src.get((a, b)) if type(src) is dict else src
        if sums is None:
            fv = evaluate(f, mid + half * _NODES)
            sums = float(_W15.dot(fv)), float(_W7.dot(fv))
        k15, g7 = sums[0], sums[1]
        err = half * abs(k15 - g7)
        if err <= tol * (b - a) / width:
            total += half * k15
            err_total += err
            accepted += 1
            continue
        if type(src) is tuple and src[3] + 1 < src[2][1]:      # the chain holds the children
            examined += _walk(stack, src[2], src[3] + 1, depth)
            continue
        if type(src) is not dict or (a, mid) not in src:
            if chains and depth >= 2 * _AHEAD and (a == iv.lo == 0.0 or b == iv.hi == 0.0):
                src = _chain(f, a, b, min(depth, _CHAIN), a == iv.lo, tol, width)
                chains = src is not None        # after a dropped chain, trees only
                if chains:
                    examined += _walk(stack, src, 0, depth)
                    continue
            else:
                src = _tree(f, a, b)
        stack.append((mid, b, src, depth + 1))   # pushed first, popped second
        stack.append((a, mid, src, depth + 1))   # keeps accumulation left to right
    return IntegralResult(total, err_total, accepted)
