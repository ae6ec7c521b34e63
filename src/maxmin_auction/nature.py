"""Nature's problem: minimize expected revenue over mean-constrained distributions.

The minimization is solved as a linear program over probabilities on a product
grid.  Revenue is tabulated through a lower tie-breaking envelope: at profiles
where the mechanism is indifferent, Nature collects the least value reachable
by an approaching sequence, which is what the infimum over distributions sees.
On breakpoint-complete grids this makes the grid value exact for affine-score
mechanisms.
"""

from __future__ import annotations

import enum
import logging
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import core
from .core import (DiscreteDistribution, GridMechanism, Instance,
                   LinearScoreAuction, check_compatible, check_grid,
                   check_multipliers, corner_hitting)
from .dual import _lsa_lagrangian
from .errors import (BoundaryError, DomainError, InfeasibleError, RegimeError,
                     SizeError)
from .simplex import solve_lp

PROB_TOL = 1e-12
MAX_STEP_NODES = 10_000_000   # largest grid a ``step`` may ask for
MAP_MAX_ITER = 200            # steps of one corner-map start
NEWTON_STEPS = 20             # Newton steps of one cell solve

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DualCertificate:
    """Multipliers on the mean constraints plus the normalization offset.

    ``value = lam @ m + lambda0`` lower-bounds the worst-case revenue; at an
    LP optimum it equals it.
    """

    lambda0: float
    lam: np.ndarray
    value: float


# ---------------------------------------------------------------------------
# Grids and revenue tabulation
# ---------------------------------------------------------------------------

def dedup_sorted(values, tol: float, snap) -> np.ndarray:
    """Sorted unique values; clusters within tol (>= 0) collapse to their
    first member, and the members within tol of a ``snap`` anchor (one run,
    bisected 2 tol wide for rounding) become the anchor: exact box ends."""
    vals = np.sort(np.asarray(values, dtype=float)).tolist()
    keep = [vals[0]]
    for v in vals[1:]:
        if v - keep[-1] > tol:
            keep.append(v)
    for anchor in map(float, snap):
        lo = bisect_left(keep, anchor - 2 * tol)
        hi = bisect_right(keep, anchor + 2 * tol, lo)
        while lo < hi and not abs(keep[lo] - anchor) <= tol:
            lo += 1
        while hi > lo and not abs(keep[hi - 1] - anchor) <= tol:
            hi -= 1
        keep[lo:hi] = [anchor] if lo < hi else []
    return np.asarray(keep)


def breakpoint_coords(mech, step: float | None = None) -> list[np.ndarray]:
    """Per-bidder coordinates covering the box with all threshold breakpoints.

    For affine-score mechanisms the induced threshold values are closed under
    re-tabulation, which is what makes the grid LP exact.  An LSA takes one
    round from its reserves: its thresholds are (alpha_i + l) / beta_i
    clipped to [0, vmax_i], where the rival score l lies in
    {0} | {(beta_j vmax_j - alpha_j)^+}, and every score at such a point is
    again in that set, so a second round adds nothing.
    A two-bidder grid mechanism takes one round too: its p_i are piecewise
    linear with kinks at the rival's coords, and a feasible mechanism's win
    regions meet the other curve only where the curves coincide, so every
    vertex of a piece on which revenue is affine is a product of coords,
    induced thresholds p_i(c) and curve crossings (no inverse images).
    A ``step`` refines that closed grid with a uniform one on [0, vmax_i),
    merged once after the closure, so every breakpoint stays and no axis
    reaches past its bound; it must be finite and positive,
    and raises ``SizeError`` when the uniform grid alone would have more
    than ``MAX_STEP_NODES`` nodes.
    """
    return _breakpoint_grid(mech, step)[0]


def _breakpoint_grid(mech, step: float | None):
    """``breakpoint_coords`` and :func:`_tables` on it: the closure's last
    round's when that round ran on exactly the returned axes, else None (an
    LSA's always with a step, which refines the axes after the closure)."""
    if not isinstance(mech, (LinearScoreAuction, GridMechanism)):
        raise DomainError(f"Nature's grid takes a score auction or a grid "
                          f"mechanism, got {type(mech).__name__}")
    n, vmax = mech.n, mech.vmax
    if step is not None:
        step = float(step)
        if not (math.isfinite(step) and step > 0.0):
            raise DomainError(f"grid step must be finite and positive, "
                              f"got {step}")
        nodes = math.prod(float(v) / step + 1.0 for v in vmax)
        if nodes > MAX_STEP_NODES:
            raise SizeError(f"grid step {step} gives {nodes:.3g} nodes, more "
                            f"than {MAX_STEP_NODES}")
    rounds, max_per_axis = 1, math.inf
    if isinstance(mech, LinearScoreAuction):
        seeds = [[mech.reserve(i)] for i in range(n)]
    else:                      # the coords and the no-sale region's corners:
        if n == 2:             # where the two threshold curves cross
            corners = _threshold_crossings_2d(mech)
        else:                  # fixed points of the pinned, clamped map
            rounds, max_per_axis = 3, 24
            corners = _map_corner_points(mech)
        seeds = [[*mech.coords[i], *(point[i] for point in corners)]
                 for i in range(n)]
    tol = 1e-12 * max(1.0, max(vmax))
    coords = [dedup_sorted([0.0, vmax[i], *seeds[i]], tol, snap=(0.0, vmax[i]))
              for i in range(n)]
    for _ in range(rounds):
        grew, tabulated = False, list(coords)
        induced, read = _tables(mech, coords, raw=step is None)
        for i in range(n):
            merged = dedup_sorted(np.concatenate(
                [coords[i], induced[i].ravel()]), tol, snap=(0.0, vmax[i]))
            if len(merged) <= max_per_axis:
                grew |= len(merged) != len(coords[i])
                coords[i] = merged
        if not grew:
            break
    if step is not None:
        coords = [dedup_sorted(np.concatenate(
            [c, np.arange(0.0, vmax[i], step)]), tol,
            snap=(0.0, vmax[i])) for i, c in enumerate(coords)]
    same = read is not None and all(map(np.array_equal, tabulated, coords))
    return coords, (induced, read) if same else None


def _map_corner_points(mech: GridMechanism) -> list[tuple[float, ...]]:
    """Extremal fixed points of v -> p(v) with coordinates pinned at zero,
    the no-sale corners of an n >= 3 grid mechanism's breakpoint grid.

    For monotone thresholds the iterations from the bottom and the top of the
    box approach the least and greatest fixed points of each pinned map; these
    are the no-sale corners Nature's worst case can occupy.  A map runs on its
    free bidders' tables sliced at the pinned axes' index 0 (same bits).  The
    map of a one-bidder face is constant: both starts read it at the zero node,
    clamped, and count as converged by iteration.  A two-bidder face's least
    and greatest fixed points are computed exactly, with no iteration
    (:func:`_face_fixed_points`).  On a face with three or more free bidders a
    start iterates until the cells its coordinates lie in and the clamp
    pattern of its thresholds have held for three steps, then solves that
    cell's system exactly (:func:`_cell_fixed_point`).  Trying at the first
    repeat instead lets Newton's method on an n >= 3 cell, started far from
    the fixed point, land on another root of the multilinear system.  The
    solution ends the start only if it lies in the closed cell, keeps the
    clamp pattern, sits on the iteration's side of the iterate (above it from
    the bottom, below it from the top) and is a fixed point of the clamped
    map to 1e-12; otherwise the start iterates on, trying each cell at most
    once.  Iteration alone stops once no coordinate moves more than 1e-10,
    or after ``MAP_MAX_ITER`` steps.  When a start was solved in its cell or
    capped, one debug line counts the starts read off two-bidder faces,
    solved in their cell, converged by iteration and capped.
    """
    n, vmax, tol = mech.n, mech.vmax, 1e-12 * max(1.0, max(mech.vmax))
    axes, index = [c.tolist() for c in mech.coords], operator.itemgetter(0)
    points, swept, solved, capped = [], 0, 0, 0
    for mask in range(2 ** n - 1):
        free = [i for i in range(n) if not mask >> i & 1]
        if len(free) == 1:
            p = 0.0 + 1.0 * mech.thresholds[free[0]].item(0)
            points += [tuple(min(max(p, 0.0), vmax[j]) if j in free else 0.0
                             for j in range(n))] * 2
            continue
        coords = [axes[i] for i in free]
        pick = [slice(None) if j in free else 0 for j in range(n)]
        sliced = [mech.thresholds[i][tuple(pick[:i] + pick[i + 1:])]
                 for i in free]
        box, ends = [vmax[i] for i in free], []
        if len(free) == 2:
            for v in _face_fixed_points(*coords, *(t.tolist() for t in sliced),
                                        *box, tol):
                points.append(tuple(v[free.index(j)] if j in free else 0.0
                                    for j in range(n)))
            swept += 2
            continue
        tables = [(t.ravel().tolist(), t.shape) for t in sliced]
        for top in (False, True):
            v = list(box) if top else [0.0] * len(free)
            last, prev, tried = None, None, set()
            for _ in range(MAP_MAX_ITER):
                cells = list(map(core.locate, coords, v))
                new, pattern = _pinned_map(tables, cells, box, tol)
                v, old = new, v
                if max(map(abs, map(operator.sub, v, old))) <= 1e-10:
                    break
                key = (tuple(map(index, cells)), pattern)
                if key == last == prev and key not in tried:
                    tried.add(key)
                    fixed = _cell_fixed_point(coords, tables, box, key, v,
                                              top, tol)
                    if fixed is not None:
                        v = fixed
                        solved += 1
                        break
                prev, last = last, key
            else:
                capped += 1
            ends.append(v)
        points += [tuple(v[free.index(j)] if j in free else 0.0
                         for j in range(n)) for v in ends]
    if solved or capped:
        logger.debug("corner map: %d starts, %d read off two-bidder faces, "
                     "%d solved in their cell, %d converged by iteration, %d "
                     "left at max_iter=%d", len(points), swept, solved,
                     len(points) - swept - solved - capped, capped,
                     MAP_MAX_ITER)
    return points


def _face_fixed_points(ca, cb, ta, tb, top_a: float, top_b: float,
                       tol: float):
    """Least and greatest fixed points of a two-bidder face's map
    v_a = f_a(v_b), v_b = f_b(v_a): f_a interpolates ``ta`` over b's coords
    ``cb`` and clamps it to [0, top_a], f_b interpolates ``tb`` over ``ca``.

    Their v_a are the least and greatest roots of g(x) = f_a(f_b(x)) - x on
    [0, top_a], where g(0) >= 0 >= g(top_a), and v_b = f_b(v_a).  g is
    linear between its breakpoints: a's coords, where f_b is its clamped
    table entry, and the x at which p_b, on the line through its nodes,
    reaches a level where f_a(clamp(.)) kinks (b's coords, 0, top_b, and
    where p_a meets 0 or top_a), where f_b is that level.  A sweep from
    each end evaluates g at the breakpoints in order and stops at the first
    one with 0 <= g <= tol (0 >= g >= -tol from the top), since the curves
    often coincide on whole segments; where g passes the band instead, from
    above tol to below 0, it returns the zero of the linear piece.  For
    monotone tables these are the corners the iteration from the bottom and
    the top of the box approaches; for others they are still the face's
    extreme fixed points in v_a, which that iteration need not reach.
    """
    def f(c, t, top, x):
        return min(max(core.multilinear(t, (len(t),), [core.locate(c, x)]),
                       0.0), top)

    levels = [0.0, top_b, *(y for y in cb if 0.0 < y < top_b)]
    for k in range(len(cb) - 1):               # where p_a meets its clamps
        t0, t1 = ta[k], ta[k + 1]
        for level in (0.0, top_a):
            if (t0 - level) * (t1 - level) < 0.0:
                levels.append(cb[k] + (level - t0) / (t1 - t0)
                              * (cb[k + 1] - cb[k]))
    levels.sort()
    points = [(0.0, f(ca, tb, top_b, 0.0))]          # (x, f_b(x)) pairs
    for k in range(len(ca) - 1):
        x0, x1, u0, u1 = ca[k], ca[k + 1], tb[k], tb[k + 1]
        if u0 < u1:
            cut = levels[bisect_right(levels, u0):bisect_left(levels, u1)]
        else:
            cut = levels[bisect_right(levels, u1):bisect_left(levels, u0)]
            cut.reverse()
        for y in cut:
            x = x0 + (y - u0) / (u1 - u0) * (x1 - x0)
            if 0.0 < x < top_a:
                points.append((x, y))
        if 0.0 < x1 < top_a:
            points.append((x1, min(max(0.0 + u1, 0.0), top_b)))
    points.append((top_a, f(ca, tb, top_b, top_a)))
    ends = (_first_root(lambda x, y: f(cb, ta, top_a, y) - x, points, tol),
            _first_root(lambda x, y: x - f(cb, ta, top_a, y), points[::-1],
                        tol))
    return [[x, f(ca, tb, top_b, x) if y is None else y] for x, y in ends]


def _first_root(h, points, tol: float):
    """The first of the points (x, y) with 0 <= h(x, y) <= tol, or the zero
    of h on the line between the last point with h > tol and a next one
    with h < 0, as (x, None); h >= 0 at the first point and <= 0 at the
    last.  A sweep over -g from the top finds a zero on the same line as
    one over g from the bottom, bit for bit."""
    (x0, y0), rest = points[0], points[1:]
    h0 = h(x0, y0)
    for x, y in rest:
        if h0 <= tol:
            break
        hx = h(x, y)
        if hx < 0.0:             # in increasing x, the same bits both ways
            (x0, h0), (x, hx) = sorted([(x0, h0), (x, hx)])
            return x0 + h0 / (h0 - hx) * (x - x0), None
        x0, y0, h0 = x, y, hx
    return x0, y0


def _pinned_map(tables, cells, vmax, tol: float):
    """One step of a face's clamped threshold map at its located ``cells``,
    with the clamp pattern: 0 below zero, 2 above the bound, 1 otherwise (a
    threshold within ``tol`` of a bound counts as inside)."""
    new, pattern = [], []
    for i, ((flat, shape), top) in enumerate(zip(tables, vmax)):
        p = core.multilinear(flat, shape, cells[:i] + cells[i + 1:])
        new.append(min(max(p, 0.0), top))
        pattern.append(0 if p < -tol else 2 if p > top + tol else 1)
    return new, tuple(pattern)


def _cell_fixed_point(coords, tables, vmax, key, v, top: bool, tol: float):
    """The face map's fixed point in the cell and clamp pattern ``key``,
    solved next to the iterate v; None unless it is in the closed cell,
    keeps the pattern, lies on the iteration's side of v and is a fixed
    point of the clamped map to ``tol``."""
    ks, pattern = key
    solve = [i for i, p in enumerate(pattern) if p == 1]
    x = (_newton_in_cell(coords, tables, ks, v, solve, tol) if solve
         else list(v))                         # clamped entries are exact
    if x is None:
        return None
    for i in solve:
        c, k = coords[i], ks[i]
        if not -1e-9 <= (x[i] - c[k]) / (c[k + 1] - c[k]) <= 1.0 + 1e-9:
            return None
    if not all(a <= b + tol if top else a >= b - tol for a, b in zip(x, v)):
        return None
    image, same = _pinned_map(tables, [core.locate(c, a) for c, a in
                                       zip(coords, x)], vmax, tol)
    if same != pattern or not all(abs(a - b) <= tol
                                  for a, b in zip(image, x)):
        return None
    return [min(max(a, 0.0), b) for a, b in zip(x, vmax)]


def _newton_in_cell(coords, tables, ks, x, solve, tol: float):
    """Newton's method for v_i = p_i(v_{-i}), i in ``solve``, each p_i the
    multilinear polynomial of cell ``ks`` (unclamped weights, so iterates
    may leave the cell); the other coordinates keep their values in x.
    With at most two unknowns the system is linear and one step solves it.
    None when the Jacobian is singular."""
    n = len(x)
    base = [coords[j][ks[j]] for j in range(n)]
    width = [coords[j][ks[j] + 1] - base[j] for j in range(n)]
    x = list(x)
    for _ in range(NEWTON_STEPS):
        w = [(x[j] - base[j]) / width[j] for j in range(n)]
        jac, resid = [], []
        for i in solve:
            cells = [(ks[j], w[j]) for j in range(n) if j != i]
            row, p = [], None
            for j in solve:
                if j == i:
                    row.append(1.0)
                    continue
                d = j - (j > i)
                cells[d] = (ks[j], 0.0)
                lo = core.multilinear(*tables[i], cells)
                cells[d] = (ks[j], 1.0)
                hi = core.multilinear(*tables[i], cells)
                cells[d] = (ks[j], w[j])
                row.append((lo - hi) / width[j])
                if p is None:                 # p_i is affine in each w_j
                    p = lo + w[j] * (hi - lo)
            if p is None:
                p = core.multilinear(*tables[i], cells)
            resid.append(x[i] - p)
            jac.append(row)
        try:
            step = np.linalg.solve(jac, resid).tolist()
        except np.linalg.LinAlgError:                 # singular Jacobian
            return None
        for i, s in zip(solve, step):
            x[i] -= s
        if len(solve) <= 2 or max(abs(s) for s in step) <= 1e3 * tol:
            break
    return x


def _threshold_crossings_2d(mech: GridMechanism) -> list[tuple[float, float]]:
    """Intersections of v1 = p1(v2) with v2 = p2(v1), cell by cell: each
    cell's line (lo, hi, a, b), the threshold a + b x on [lo, hi], is built
    once; each row line v1 = A + B v2 meets each column line v2 = C + D v1."""
    c1, c2 = (c.tolist() for c in mech.coords)
    t1, t2 = (t.tolist() for t in mech.thresholds)  # p1 over c2, p2 over c1
    lines = []
    for c, t in ((c2, t1), (c1, t2)):
        slopes = [(t[k + 1] - t[k]) / (c[k + 1] - c[k]) for k in range(len(c) - 1)]
        lines.append([(c[k], c[k + 1], t[k] - b * c[k], b)
                      for k, b in enumerate(slopes)])
    rows, columns = lines
    out, eps = [], 1e-12
    for y0, y1, A, B in rows:
        for x0, x1, C, D in columns:
            denom = 1.0 - B * D
            if abs(denom) >= 1e-12:
                x = (A + B * C) / denom
                y = C + D * x
                if x0 - eps <= x <= x1 + eps and y0 - eps <= y <= y1 + eps:
                    out.append((x, y))
    return out


def threshold_tables(mech, coords) -> list[np.ndarray]:
    """p_i evaluated on the product of the other bidders' coordinate lists
    (the mechanism's own ``tables``, under a module-level name)."""
    return mech.tables(coords)


def least_winning_threshold(values, thresholds, tol: float) -> np.ndarray:
    """Least threshold among the bidders whose value reaches it, ``inf``
    where nobody's does, as a new array of the shape all ``values`` and
    ``thresholds`` broadcast to.  Any entry may have any shape that
    broadcasts: a scalar ``+inf`` for a bidder who can never win, a table
    missing the axes it does not vary along.  The table is allocated once
    and each bidder is folded into it in place."""
    t = np.full(np.broadcast_shapes(*map(np.shape, (*values, *thresholds))),
                np.inf)
    for v, p in zip(values, thresholds):
        np.minimum(t, p, out=t, where=v >= p - tol)
    return t


def _one_sided_slopes(c, t, tol: float):
    """Left and right slopes of the table t over the increasing c at z, by a
    function built once: the cells beside the node of c nearest z within
    tol, else the cell holding z; zero past either end.  A cell no wider
    than tol across which t moves by no more than tol is part of its node
    (None in s), and the next counted cell out gives the slope."""
    c, t = c.tolist(), t.tolist()
    s = [0.0, *((t1 - t0) / (c1 - c0) if c1 - c0 > tol or abs(t1 - t0) > tol
                else None for c0, c1, t0, t1 in zip(c, c[1:], t, t[1:])), 0.0]
    left, right = (list(accumulate(order, lambda s0, s1: s0 if s1 is None
                                   else s1)) for order in (s, s[::-1]))
    mid, right = [(c0 + c1) / 2 for c0, c1 in zip(c, c[1:])], right[::-1]

    def slopes(z):                 # s[j] is cell j - 1
        k = bisect_left(mid, z)    # the node nearest z
        d = z - c[k]               # z's cell is k - 1 below it, k above it
        return left[k + (d > tol)], right[k + (d >= -tol)]
    return slopes


def _no_sale_limits_2d(mech: GridMechanism, x, y, tables, below,
                       tol: float) -> None:
    """Clear each tie (some v_i >= p_i - tol) of a two-bidder weak no-sale
    mask ``below`` on the open mesh x, y that no no-sale sequence approaches.
    By the mechanism's own one-sided slopes, a tie counts when a direction
    into the box strictly undercuts every binding threshold: with one, when
    her value can fall (else it and her threshold are within tol of 0, and
    the entry within 2 tol of 0 either way)."""
    act1, act2 = x >= tables[0] - tol, y >= tables[1] - tol
    ties = np.flatnonzero(np.logical_and(act1 | act2, below))
    slopes1 = _one_sided_slopes(mech.coords[1], mech.thresholds[0], tol)
    slopes2 = _one_sided_slopes(mech.coords[0], mech.thresholds[1], tol)
    x, y, width = x.ravel().tolist(), y.ravel().tolist(), y.size
    (top1, top2), stol = (v - tol for v in mech.vmax), 1e-9
    for k, on1, on2 in zip(ties.tolist(), act1.take(ties).tolist(),
                           act2.take(ties).tolist()):
        a, b = divmod(k, width)
        x_dn, y_dn = x[a] > tol, y[b] > tol
        limit = x_dn if on1 else y_dn
        if on1 and on2:             # p1 varies over v2, p2 over v1
            (g1m, g1p), (g2m, g2p) = slopes1(y[b]), slopes2(x[a])
            limit = ((x_dn and g2m < -stol) or (y_dn and g1m < -stol)
                     or (x_dn and y_dn and (g1m <= stol or g2m <= stol
                                            or g1m * g2m < 1.0 - stol))
                     or (x[a] < top1 and y[b] < top2 and g1p > stol
                         and g2p > stol and g1p * g2p > 1.0 + stol))
        below.flat[k] = limit


def lower_revenue_table(mech, coords) -> np.ndarray:
    """Worst-tie revenue at every grid node, shaped like the product grid.

    A winner candidate contributes her threshold whenever her value reaches
    it; zero contributes wherever the no-sale region accumulates.
    """
    coords, _ = check_grid(coords, mech.vmax)
    return _lower_envelope(mech, coords)[0]


def _tables(mech, coords, raw: bool = True):
    """``mech.tables(coords)`` and the tables the lower envelope reads: an
    LSA's unclamped ones, which clip to the first's bits (None unless raw)."""
    if raw and isinstance(mech, LinearScoreAuction):
        read = [mech.unclamped_table(i, coords) for i in range(mech.n)]
        return [np.clip(p, 0.0, v) for p, v in zip(read, mech.vmax)], read
    tables = mech.tables(coords)
    return tables, None if isinstance(mech, LinearScoreAuction) else tables


def _lower_envelope(mech, coords, closure=None):
    """``lower_revenue_table`` on checked axes, and ``mech.tables(coords)``;
    the tables are ``closure``, :func:`_tables` on coords, when it is given."""
    n, tol = len(coords), 1e-9 * max(1.0, max(float(c[-1]) for c in coords))
    value_grids = np.meshgrid(*coords, indexing="ij", sparse=True)
    tables, read = closure or _tables(mech, coords)
    spread = [np.expand_dims(p, axis=i) for i, p in enumerate(read)]
    # A bidder is a winner candidate where her value reaches her threshold,
    # an LSA's raw one: above her bound she cannot win (unequal bounds only).
    t = least_winning_threshold(value_grids, spread, tol)

    if isinstance(mech, LinearScoreAuction):
        # No-sale profiles accumulate exactly below the reserves: a box of
        # axis prefixes, as every axis increases.
        if all(mech.reserve(i) > 0.0 for i in mech.included()):
            box = [slice(None)] * n
            for i in mech.included():
                box[i] = slice(int(np.searchsorted(
                    coords[i], mech.reserve(i) + tol, side="right")))
            no_sale = t[tuple(box)]                # a view: zeroes t there
            np.minimum(no_sale, 0.0, out=no_sale)
        return t, tables

    below = value_grids[0] <= spread[0] + tol    # v_i <= p_i for all i
    for v, p in zip(value_grids[1:], spread[1:]):
        below &= v <= p + tol
    if n == 2:
        _no_sale_limits_2d(mech, *value_grids, spread, below, tol)
    np.minimum(t, 0.0, out=t, where=below)
    return t, tables


# ---------------------------------------------------------------------------
# The worst-case linear program and its oracle
# ---------------------------------------------------------------------------

def worst_case_lp(coords, t, instance: Instance):
    """Minimize expected revenue over grid distributions with the given means.

    Returns ``(value, distribution, certificate)``; the distribution is a
    basic solution with at most n+1 atoms and the certificate carries the
    exact dual multipliers of the simplex basis.  The simplex starts from
    the Freudenthal corners of the grid's box, which hold the means;
    ``DomainError`` when the table holds NaN or ``-inf``, or ``+inf`` at
    one of those corners.  The atoms are the final basis's nodes with
    probability above ``PROB_TOL``, in increasing node order.
    """
    n = instance.n
    coords, t = check_grid(coords, instance.vmax, t)
    shape, tvals = t.shape, t.ravel()
    b = np.concatenate([[1.0], instance.mean_vector])
    start = _freudenthal_corners(coords, b[1:])
    if math.inf in tvals[start].tolist():       # NaN and -inf failed above
        raise DomainError("revenue table is infinite at a corner of the "
                          "grid's box")
    A = np.empty((n + 1, tvals.shape[0]))
    A[0] = 1.0
    for row, g in zip(A[1:], np.meshgrid(*coords, indexing="ij", sparse=True)):
        row.reshape(shape)[...] = g
    res = solve_lp(tvals, A, b, start=start)

    atoms = np.sort(res.basis[res.x[res.basis] > PROB_TOL])
    probs = res.x[atoms]
    dist = DiscreteDistribution(A[1:, atoms].T, probs / probs.sum(),
                                vmax=instance.vmax)
    lam = res.duals[1:].copy()
    cert = DualCertificate(lambda0=float(res.duals[0]), lam=lam,
                           value=float(res.duals @ b))
    return res.value, dist, cert


def _freudenthal_corners(coords, means) -> list[int]:
    """Flat grid indices of n+1 box corners whose hull holds ``means``.

    With u_i the mean's position along axis i of the box, the corners are the
    lowest one and then, taking axes in decreasing u, each next corner moves
    one more axis to its top: the simplex of Freudenthal's triangulation of
    the box that contains u.  Their weights 1 - u_(1), u_(1) - u_(2), ...,
    u_(n) are nonnegative, so the corners are a feasible basis of Nature's LP.
    """
    u = [(float(m) - float(c[0])) / (float(c[-1]) - float(c[0]))
         for m, c in zip(means, coords)]
    if min(u) < 0.0 or max(u) > 1.0:
        raise InfeasibleError("means outside the grid's box")
    strides = [math.prod(len(c) for c in coords[i + 1:])
               for i in range(len(coords))]
    corners = [0]
    for i in sorted(range(len(u)), key=lambda k: -u[k]):
        corners.append(corners[-1] + (len(coords[i]) - 1) * strides[i])
    return corners


def dual_value(coords, t, instance: Instance, lam) -> float:
    """lam @ m plus the minimum of t - lam @ v over the grid nodes."""
    coords, t = check_grid(coords, instance.vmax, t)
    grids = np.meshgrid(*coords, indexing="ij", sparse=True)
    return _dual_values(grids, [t], instance, lam)[0]


def _dual_values(grids, tables, instance: Instance, lam) -> list[float]:
    """``dual_value`` of each table on the open mesh ``grids``, with one
    lam @ v; ``DomainError`` unless lam holds n finite values."""
    lam = check_multipliers(lam, instance.n)
    lam_dot_v = sum(lam[i] * grids[i] for i in range(len(grids)))
    return [float(lam @ instance.mean_vector + np.min(t - lam_dot_v))
            for t in tables]


def mechanism_guarantee(mech, instance: Instance, step: float | None = None):
    """Breakpoint grid + lower-envelope tabulation + LP, in one call."""
    return _price(mech, instance, step)[:4]


def _price(mech, instance: Instance, step: float | None = None):
    """``mechanism_guarantee``'s value, distribution, certificate and grid,
    and the mechanism's tables on that grid (``mech.tables(grid)``'s bits),
    tabulated once: by the grid's last closure round when it ran on the
    returned axes, else by the envelope."""
    check_compatible(mech, instance)
    coords, closure = _breakpoint_grid(mech, step)
    t, tables = _lower_envelope(mech, coords, closure)
    value, dist, cert = worst_case_lp(coords, t, instance)
    return value, dist, cert, coords, tables


# ---------------------------------------------------------------------------
# Closed-form worst-case distributions for two bidders
# ---------------------------------------------------------------------------

class WorstCaseType(enum.Enum):
    I = "I"
    II = "II"
    III = "III"


def _check_wc_inputs(r, instance: Instance):
    """Two finite reserves in [0, mean) as floats, the common bound and the
    worst-case type; ``BoundaryError`` on a boundary between types."""
    if instance.n != 2:
        raise DomainError("closed-form worst cases are for two bidders")
    vmax = instance.common_vmax()
    r = core._floats(r, "reserves")
    if r.shape != (2,) or not all(map(math.isfinite, r.tolist())):
        raise DomainError(f"closed forms need two finite reserves, got "
                          f"{r.tolist()}")
    r1, r2 = r.tolist()
    if r1 < 0.0 or r2 < 0.0:
        raise DomainError("reserves must be nonnegative")
    if not (r1 < instance.means[0] and r2 < instance.means[1]):
        raise DomainError("closed forms require reserves below the means")
    if abs(r2 - (vmax - r1)) <= 1e-12:
        raise BoundaryError("reserves on the sure-sale boundary")
    if r2 > vmax - r1:
        return r1, r2, vmax, WorstCaseType.III
    rbar = wc_boundary_r2(r1, instance)
    if abs(r2 - rbar) <= 1e-12:
        raise BoundaryError("reserves on the undercut boundary")
    return r1, r2, vmax, WorstCaseType.I if r2 < rbar else WorstCaseType.II


def wc_boundary_r2(r1: float, instance: Instance) -> float:
    """Reserve level for bidder 2 separating sale-sure from undercut regimes."""
    m1, m2 = instance.means
    vmax = instance.common_vmax()
    return (m2 * (vmax - r1) - vmax * (vmax - m1)) / (m1 - r1)


def wcdistr2_classify(r, instance: Instance) -> WorstCaseType:
    return _check_wc_inputs(r, instance)[3]


def _binding_corners(r, instance: Instance):
    """Optimal multipliers of the two-bidder reserve auction, the three
    limit profiles where its Lagrangian binds (the support of Nature's
    worst case, by complementary slackness) and the checked reserves.
    lam_i = r_i / (vmax - r_i) ties the no-sale corner r to bidder i's row
    (she at vmax, her rival at his reserve); (vmax - r_j) / (vmax - r_i)
    ties the wall to bidder j's row; Type III takes the better candidate."""
    r1, r2, vmax, kind = _check_wc_inputs(r, instance)
    sale1, sale2 = r1 / (vmax - r1), r2 / (vmax - r2)
    wall1, wall2 = (vmax - r2) / (vmax - r1), (vmax - r1) / (vmax - r2)
    no_sale, row1, row2, wall = (r1, r2), (vmax, r2), (r1, vmax), (vmax, vmax)
    if kind is WorstCaseType.I:
        return np.array([wall1, wall2]), [wall, row1, row2], no_sale
    if kind is WorstCaseType.II:
        return np.array([sale1, sale2]), [no_sale, row2, row1], no_sale
    pairs = [(np.array([sale1, wall2]), row1), (np.array([wall1, sale2]), row2)]
    # on a tie, max keeps the first pair
    lam, row = max(pairs, key=lambda p: _lsa_lagrangian(no_sale, p[0], instance))
    return lam, [no_sale, row, wall], no_sale


def lsa2_dual_multipliers(r, instance: Instance) -> np.ndarray:
    """Optimal mean-constraint multipliers for a two-bidder reserve auction."""
    return _binding_corners(r, instance)[0]


def lsa2_guarantee(r, instance: Instance) -> float:
    """Worst-case expected revenue of the two-bidder reserve auction."""
    lam, _, r = _binding_corners(r, instance)
    return _lsa_lagrangian(r, lam, instance)


def wcdistr2_construct(r, instance: Instance) -> DiscreteDistribution:
    """A canonical worst-case distribution against the reserve auction: the
    corners where the Lagrangian binds, weighted by Cramer's rule to hit the
    means.  No sale when both values are at or below the reserves: the tie
    resolution the infimum over distributions sees."""
    _, corners, _ = _binding_corners(r, instance)
    m1, m2 = instance.means
    a = [(x - m1, y - m2) for x, y in corners]        # corners seen from m
    areas = [a[k - 2][0] * a[k - 1][1] - a[k - 1][0] * a[k - 2][1]
             for k in range(3)]
    probs = np.array(areas) / sum(areas)
    if probs.min() < -PROB_TOL:
        raise RegimeError("corner weight negative; not this regime")
    probs = np.maximum(probs, 0.0)
    return DiscreteDistribution(corners, probs / probs.sum(), vmax=instance.vmax)


def revenue_unsold_at_reserves(r, instance: Instance, v) -> float:
    """Reserve-auction revenue with no sale when every value is at its reserve."""
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.all(v <= r + 1e-12):
        return 0.0
    return core.revenue(corner_hitting(r, instance.vmax), v)
