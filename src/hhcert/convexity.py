"""Certification of generalized convexity and convex dominance, by proof or on a grid.

A function f on [lo, hi] is checked against the defining inequality of a
class at every triple (x, y, t) of a finite grid:

* (alpha, m)-convexity:   f(t*x + m*(1-t)*y) <= t^alpha f(x) + m*(1-t^alpha) f(y)
* r-convexity:            f(t*x + (1-t)*y)  <= M_r(f(x), f(y); t)
* dominance variants:     |combination(f) - f(point)| <= combination(g) - g(point)

A check passes when no grid triple violates its inequality by more than ``grid.tol``.
Violations report two witnesses: the largest violation on the grid and the first one in
row-major scan order (x outer, y middle, t inner).  Both are deterministic.  A check scans
blocks of x rows; where the gaps at (x, y, t) and (y, x, 1 - t) are the same bits (r-classes,
as M_r(a, b; t) = M_r(b, a; 1 - t), and alpha = m = 1, when 1 - t is t reversed to the bit),
rows from i take the y columns from i only.  The least triple of a set the mirror keeps (the
largest gaps, those above tol) has x <= y, so no witness moves, and ``points_checked`` counts
every triple, a skipped one's gap being its mirror's.  It evaluates f once per distinct point
t*x + m*(1-t)*y of the grid and gathers each block's lhs from those values, which are f's at
each entry to the bit, as evaluate is elementwise; where f raises there (or is not positive, in
an r-class), it raises at once what one pass over the whole grid raises.  It reads f on the x
values there too (at t = 1), and from it computes once the y side (m*(1-t^alpha)*f(y), or the
power mean's y term) of the rhs, so that each block adds only its x side.  :func:`passes` gives
the verdict alone: it scans the subgrid of every 4th x, y and t first (if 4 divides n_xy - 1 and
n_lambda - 1), whose entries are the full grid's to the same bits, so a violation there rejects
at once; then the full grid until a violation.  Where f fails, it evaluates that grid whole.

:func:`check` and :func:`passes` first ask :func:`proved`, which proves membership at
alpha = 1 and r >= 1 and of constants in every class, and (alpha, m)-dominance at alpha = 1:
a proved check returns a grid pass's result without a scan.  Any other pass is a finite
certificate, not a proof: the inequality held at every sampled triple.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .expr import (_CONCAVE, _CONSTANT, _CONVEX, _VAR, Add, DomainError, Expr, Interval, Sub,
                   Value, _compile, _exact_at_zero, _linear, _require_tol, _shape, evaluate,
                   lin_comb)
from .means import _power_mean_raw, _y_side

__all__ = [
    "AlphaM", "RConvex", "ClassParams", "GridSpec", "DEFAULT_GRID",
    "Witness", "CheckResult", "NonPositiveFunction", "check", "passes", "proved",
    "gap_grid", "check_alpha_m_convex", "check_r_convex",
    "check_dominated_alpha_m", "check_dominated_r",
    "construct_dominated_pair", "split_pair",
]


class AlphaM(Value):
    """Parameters of the (alpha, m) class; both lie in (0, 1]."""
    alpha: float
    m: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 < self.m <= 1.0:
            raise ValueError(f"m must lie in (0, 1], got {self.m}")


class RConvex(Value):
    """Order of the r-convex class: any finite real."""
    r: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.r):
            raise ValueError(f"r must be finite, got {self.r}")


ClassParams = AlphaM | RConvex


class GridSpec(Value):
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
        _require_tol("tol", self.tol)


DEFAULT_GRID = GridSpec()


class Witness(Value):
    """A grid triple where the checked inequality fails: lhs > rhs + tol."""
    x: float
    y: float
    lam: float
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return self.lhs - self.rhs


class CheckResult(Value):
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

_BLOCK = 16384  # entries per block of x rows in a scan; a block has at least one row
_GRIDS: dict = {}   # _grids' results, least recently used first


def _grids(lo: str, hi: str, m: float, n_xy: int, n_lambda: int):
    """Read-only (xs, ts, u, inv) of :func:`_distinct` on [lo, hi], after its subgrid if any, and
    whether 1 - ts is ts reversed to the bit; the ends come as float.hex, which tells -0.0 from
    0.0.  r-convexity uses m = 1.  It keeps the latest grids within two of its float64 cubes."""
    key = (lo, hi, m, n_xy, n_lambda)
    if key not in _GRIDS:
        xs = np.linspace(float.fromhex(lo), float.fromhex(hi), n_xy)
        ts = np.linspace(0.0, 1.0, n_lambda)
        sub = [(xs[::4].copy(), ts[::4].copy())] * ((n_xy - 1) % 4 == (n_lambda - 1) % 4 == 0)
        held = [g[3] for gs in _GRIDS.values() for g in gs]     # an equal inv is held once
        grids = tuple((x, t, u, next((h for h in held if np.array_equal(h, inv)), inv),
                       np.array_equal(1.0 - t, t[::-1]))
                      for x, t in sub + [(xs, ts)] for u, inv in [_distinct(x, t, m)])
        for a in (a for g in grids for a in g[:4]):
            a.flags.writeable = False
        while _GRIDS and sum({id(a): a.nbytes for gs in (grids, *_GRIDS.values()) for g in gs
                              for a in g[:4]}.values()) > 16 * n_xy * n_xy * n_lambda:
            del _GRIDS[next(iter(_GRIDS))]
        _GRIDS[key] = grids
    _GRIDS[key] = _GRIDS.pop(key)
    return _GRIDS[key]


def _distinct(xs, ts, m: float):
    """(u, inv), u[inv] the cube t*x + m*(1-t)*y bit for bit, with no sort.  A key guesses an
    entry's value as a multiple of h/(q*(len(ts) - 1)) for m ~ p/q, as it is where lo = 0 or
    m = 1, plus its two lowest bits, which tell roundings of one value apart.  A key's slot
    takes one entry's bits, and an entry whose bits differ (as -0.0 from 0.0) gets an entry of
    u of its own.  So u holds only the cube's values, each slot's once."""
    n, nl = len(xs), len(ts)
    inv, step = np.empty((n, n, nl), np.intp), max(1, _BLOCK // (n * nl))
    p, q = Fraction(m).limit_denominator(max(1, n // 4)).as_integer_ratio()    # <= n*n*nl slots
    size, k = 4 * max(p, q) * (nl - 1) * (n - 1) + 4, np.arange(nl)
    ki, kj = q * k * np.arange(n)[:, None, None], p * (nl - 1 - k) * np.arange(n)[:, None]

    def blocks():   # (x rows, bits, keys) of the cube on blocks of x rows
        for i in range(0, n, step):
            comb = (ts * xs[i:i + step, None, None]) + (m * (1.0 - ts)) * xs[None, :, None]
            bits = comb.view(np.uint64)
            yield slice(i, i + step), bits, 4 * (ki[i:i + step] + kj) + (bits & 3).view(np.int64)

    slot, used = np.zeros(size, np.uint64), np.zeros(size, bool)
    for _, bits, keys in blocks():
        slot[keys], used[keys] = bits, True
    at, u = np.cumsum(used) - 1, [slot[used]]
    for rows, bits, keys in blocks():
        own = slot.take(keys) != bits
        inv[rows] = at.take(keys)
        inv[rows][own] = np.arange(own.sum()) + sum(map(len, u))
        u.append(bits[own])
    u = np.concatenate(u).view(np.float64)
    return u, inv.astype(np.min_scalar_type(len(u) - 1))


def _blocks(n: int, n_lambda: int, mirrored: bool):
    """(x rows, first y column) of blocks of about _BLOCK entries, at least one row each;
    mirrored, the rows from i take the columns from i."""
    i = 0
    while i < n:
        step = max(1, _BLOCK // ((n - i * mirrored) * n_lambda))
        yield slice(i, i + step), i * mirrored
        i += step


def _witness_at(block, flat: int, shape, lhs: float, rhs: float, xs, ts) -> Witness:
    (rows, j0), (a, j, k) = block, np.unravel_index(flat, shape)    # y columns from j0
    return Witness(*map(float, (xs[rows.start + a], xs[j0 + j], ts[k], lhs, rhs)))


@np.errstate(all="ignore")     # overflow to inf or NaN is part of the result
def _scan(rows, xs, ts, tol: float, blocks) -> tuple:
    """np.argmax's worst and first witnesses on lhs - rhs over the whole grid (None on a pass),
    from (lhs, rhs) = rows(x rows, first y column) on ``blocks``, which hold each triple or,
    mirrored, at least the one of it and its mirror with x <= y."""
    tops, first = [], None      # each block's argmax gap and its witness's arguments
    for block in blocks:
        lhs, rhs = rows(*block)
        gaps = lhs - rhs
        if not (gaps <= tol).all():     # a violation, or a NaN, which np.argmax ranks first
            top = int(np.argmax(gaps))
            tops.append((gaps.flat[top], block, top, gaps.shape, lhs.flat[top], rhs.flat[top]))
            if first is None and (gaps > tol).any():
                at = int(np.argmax(gaps > tol))
                first = _witness_at(block, at, gaps.shape, lhs.flat[at], rhs.flat[at], xs, ts)
        del lhs, rhs, gaps      # before the next block's are made
    if first is None:
        return None, None
    worst = tops[int(np.argmax([top[0] for top in tops]))]
    return _witness_at(*worst[1:], xs, ts), first


def _require_positive(values, points, name: str) -> None:
    bad = (values <= 0.0).ravel()      # evaluate gives values in the points' shape
    if bad.any():
        idx = int(np.argmax(bad))
        raise NonPositiveFunction(name, float(points.ravel()[idx]), float(values.ravel()[idx]))


def _f0_flag(f: Expr, iv: Interval) -> bool | None:
    if iv.lo != 0.0:
        return None
    try:
        return bool(evaluate(f, 0.0) <= 0.0)
    except DomainError:
        return None


# ------------------------- one check for every class -------------------------

def _on_distinct(f: Expr, u, inv, positive: bool, name: str):
    """f on u, in blocks into one array.  Where evaluate raises there or, if ``positive``, f is not
    positive, it raises what one pass over the whole grid u[inv] raises, as it must, u holding only
    its values: evaluate's error, else NonPositiveFunction at the first x (the grid's entries at
    y = lo and t = 1, which are x to the bit), else grid entry."""
    fu = np.empty_like(u)
    try:
        for c in range(0, len(u), _BLOCK):
            fu[c:c + _BLOCK] = evaluate(f, u[c:c + _BLOCK])
        if not (positive and (fu <= 0.0).any()):
            return fu
    except DomainError:
        pass
    pts = u.take(inv)
    lhs = evaluate(f, pts)
    _require_positive(lhs[:, 0, -1], pts[:, 0, -1], name)
    _require_positive(lhs, pts, name)


@functools.lru_cache(maxsize=64)
def _weights(ts: bytes, alpha: float, m: float):
    """t^alpha and m*(1 - t^alpha) along an rhs's t axis, on the weights whose bytes are ts."""
    ta = np.power(np.frombuffer(ts), alpha)     # returned as read-only views: checks share them
    return np.broadcast_to(ta, (1, 1, ta.size)), np.broadcast_to(m * (1.0 - ta), (1, 1, ta.size))


def _rows(f: Expr, g: Expr | None, params: ClassParams, ts, u, inv):
    """rows(slice, j0) gives lhs and rhs, rhs in an array of its own, on those x rows and the y
    columns from j0 of a grid of :func:`_grids`: the sides of params' defining inequality for f
    or, given g, |combination(f) - f(point)| and combination(g) - g(point).  Its first call
    evaluates each function once, on u by :func:`_on_distinct`, raising its error: g before f in
    r-classes, which need both strictly positive, as M_r does, and f before g in (alpha, m)
    classes.  It keeps each one's values on u, on the x values (read at y = lo and t = 1, where
    t*x + m*(1-t)*y is x to the bit) and the y side of its rhs."""
    r_class = isinstance(params, RConvex)
    ta, y_weight = (None, None) if r_class else _weights(ts.tobytes(), params.alpha, params.m)
    order = [("f", f)] if g is None else [("g", g), ("f", f)] if r_class else [("f", f), ("g", g)]
    kept = {}   # name: (values on u, values on the x values, rhs's y side), once per check

    def sides(fu, fx, y_side, sl: slice, j0: int):
        lhs = fu.take(inv[sl, j0:])
        if r_class:
            return lhs, _power_mean_raw(fx[sl, None, None], fx[None, j0:, None], ts, params.r,
                                        out=np.empty_like(lhs), y_side=y_side[:, j0:])
        return lhs, np.add(ta * fx[sl, None, None], y_side[:, j0:],
                           out=np.empty_like(lhs))

    def rows(sl: slice, j0: int):
        for name, e in order * (not kept):     # at the first call only
            fu = _on_distinct(e, u, inv, r_class, name)
            fx = fu.take(inv[:, 0, -1])
            kept[name] = fu, fx, (_y_side(fx[None, :, None], ts, params.r) if r_class
                                  else y_weight * fx[None, :, None])
        lhs, rhs = sides(*kept["f"], sl, j0)
        if g is None:
            return lhs, rhs
        lhs_g, rhs_g = sides(*kept["g"], sl, j0)
        np.abs(np.subtract(rhs, lhs, out=rhs), out=rhs)
        return rhs, np.subtract(rhs_g, lhs_g, out=rhs_g)
    return rows


def _proved_first(f: Expr, g: Expr | None, iv: Interval, params: ClassParams,
                  grid: GridSpec) -> bool:
    """:func:`proved`, which never holds where the grid raises ValueError (m < 1 below 0); where
    it holds, np.empty raises the grid's MemoryError if any, touching no page."""
    if not proved(f, iv, params, g):
        return False
    np.empty((grid.n_xy, grid.n_xy, grid.n_lambda))
    return True


def _grid_rows(f: Expr, g: Expr | None, iv: Interval, params: ClassParams, grid: GridSpec):
    """(rows, xs, ts, mirrored) of :func:`_rows` on each grid of :func:`_grids`, mirrored where
    the gaps at (x, y, t) and (y, x, 1 - t) are the same to the bit: for r-classes, whose power
    mean has M_r(a, b; t) = M_r(b, a; 1 - t), and alpha = m = 1, on a mirrored grid."""
    m = 1.0 if isinstance(params, RConvex) else params.m
    if m < 1.0 and iv.lo < 0.0:     # t*x + m*(1-t)*y may leave [a, b] unless a >= 0
        raise ValueError(f"(alpha, m) classes with m < 1 live on [0, b]; "
                         f"interval starts at {iv.lo}")
    grids = _grids(float(iv.lo).hex(), float(iv.hi).hex(), m, grid.n_xy, grid.n_lambda)
    mirror = isinstance(params, RConvex) or params.alpha == m == 1.0
    return [(_rows(f, g, params, ts, u, inv), xs, ts, mirror and mirrored)
            for xs, ts, u, inv, mirrored in grids]


def check(f: Expr, iv: Interval, params: ClassParams, g: Expr | None = None,
          grid: GridSpec = DEFAULT_GRID) -> CheckResult:
    """Check that f belongs to the class ``params`` or, given g, that f is g-dominated over it,
    by :func:`proved` (a grid pass's result, with no scan) or on the grid, raising what one pass
    over it raises where f or g fails: r-classes need both strictly positive at every sample.
    The (alpha, m) membership check also reports the f(0) <= 0 side condition."""
    worst = first = None
    if not _proved_first(f, g, iv, params, grid):
        rows, xs, ts, mirrored = _grid_rows(f, g, iv, params, grid)[-1]
        worst, first = _scan(rows, xs, ts, grid.tol, _blocks(len(xs), len(ts), mirrored))
    f0 = _f0_flag(f, iv) if g is None and isinstance(params, AlphaM) else None
    return CheckResult(worst, first, grid.n_xy ** 2 * grid.n_lambda, f0)


@np.errstate(all="ignore")
def passes(f: Expr, iv: Interval, params: ClassParams, g: Expr | None = None,
           grid: GridSpec = DEFAULT_GRID) -> bool:
    """``check(...).passed``: True where :func:`proved` holds, else by the module docstring's
    scan.  Where f or g fails on a grid it scans, it evaluates that grid whole, as check does,
    and raises check's error for it before any violation: it raises only where check does."""
    return _proved_first(f, g, iv, params, grid) or not any(
        (np.subtract(*rows(*block)) > grid.tol).any()
        for rows, xs, ts, mirrored in _grid_rows(f, g, iv, params, grid)
        for block in _blocks(len(xs), len(ts), mirrored))


def _convex(e: Expr, iv: Interval) -> bool:
    """Whether each term of e is convex on iv where its coefficient is positive, and concave
    where it is negative."""
    return all(not c or (s := _shape(atom, iv)) is not None
               and s[0] & (_CONVEX if c > 0 else _CONCAVE) for atom, c in _linear(e)[1].items())


def _positive(e: Expr, iv: Interval, depth: int) -> bool:
    """Whether _shape's enclosure of e is > 0 on both halves of iv, each bisected again where
    it is not, down to pieces of iv.width / 2**depth."""
    mid = iv.lo + 0.5 * iv.width
    return depth > 0 and iv.lo < mid < iv.hi and all(
        (s := _shape(e, h)) and s[1] > 0.0 or _positive(e, h, depth - 1)
        for h in (Interval(iv.lo, mid), Interval(mid, iv.hi)))


def proved(f: Expr, iv: Interval, params: ClassParams, g: Expr | None = None) -> bool:
    """Whether f is in the class ``params`` on iv or, given g at alpha = 1 or r = 1,
    g-dominated: g + f and g - f are in it.  A constant c (a tree that does not read x) is in every
    r-class if c > 0, and in every (alpha, m) class if m = 1, or c <= 0 on [0, b].  Else each h
    is convex on iv term by term over the ``expr._linear`` forms kept on f's and g's nodes, each
    term's curvature by ``expr._shape``, so in its class at alpha = m = 1; at alpha = 1 on
    [0, b] if h(0) <= 0 exactly, as h(tx + m(1-t)y) <= t h(x) + (1-t) h(my) <= t h(x) +
    (1-t)(m h(y) + (1-m) h(0)) (Toader, 1984); at r >= 1 if h > 0 on iv or on each of up to 16
    pieces, as M_r >= M_1.  M_1 is t a + (1-t) b, so g-dominance at r = 1 is dominance at
    alpha = m = 1, given f > 0 and g > 0 as the grid needs them.  Evaluate raises nowhere on a
    proved f or g, which stay below 2^1020 in size; False proves nothing."""
    r_class = isinstance(params, RConvex)
    rule = params.r == 1.0 or params.r >= 1.0 and g is None if r_class else params.alpha == 1.0
    try:
        # with no rule, only a constant can be proved: a tree that does not read x
        if not (rule or g is None and all(code != _VAR for code, *_ in _compile(f))):
            return False
        shapes = [_shape(e, iv) for e in (f, g) if e is not None]
        # below 2^1020 in size, every sum and difference of a grid check stays finite
        if None in shapes or max(max(-low, high) for _, low, high in shapes) >= 2.0 ** 1020:
            return False
        (c, low, high), sides = shapes[0], (f,) if g is None else (Add(g, f), Sub(g, f))
        if g is None and c == _CONSTANT and (     # m < 1 lives on [0, b], as on the grid
                low > 0.0 if r_class else params.m == 1.0 or high <= 0.0 and iv.lo >= 0.0):
            return True
        if not (rule and all(_convex(s, iv) for s in sides)):
            return False
        if r_class:
            return all(low > 0.0 or _positive(e, iv, 4) for e, (_, low, _) in zip((f, g), shapes))
        return params.m == 1.0 or iv.lo == 0.0 and all(
            (v := _exact_at_zero(side)) is not None and v <= 0 for side in sides)
    except RecursionError:      # a tree too deep to walk here is left to the grid
        return False


@np.errstate(all="ignore")
def gap_grid(f: Expr, iv: Interval, params: ClassParams, g: Expr | None = None,
             grid: GridSpec = DEFAULT_GRID) -> np.ndarray:
    """lhs - rhs of the inequality :func:`check` checks, at every triple of its grid,
    shaped (n_xy, n_xy, n_lambda); an entry above ``grid.tol`` is a violation there."""
    lhs, rhs = _grid_rows(f, g, iv, params, grid)[-1][0](slice(None), 0)
    return lhs - rhs


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

    f and g must be strictly positive at every sampled point.
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
