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
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (DiscreteDistribution, GridMechanism, Instance,
                   LinearScoreAuction, check_compatible, corner_hitting,
                   grid_nodes)
from .dual import _lsa_lagrangian, lsa_lagrangian
from .errors import (BoundaryError, DomainError, InfeasibleError, RegimeError,
                     SizeError)
from .simplex import solve_lp

PROB_TOL = 1e-12
MAX_STEP_NODES = 10_000_000   # largest grid a ``step`` may ask for
MAP_MAX_ITER = 200            # steps of one corner-map start
NEWTON_STEPS = 20             # Newton steps of one cell solve
BRUTE_FORCE_GUARD = 10_000_000  # most supports brute_force_min enumerates

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
    """Sorted unique values; clusters within tol collapse to their first
    member, except that clusters touching a ``snap`` anchor take the anchor
    itself (keeps box endpoints exact, never one rounding off)."""
    vals = np.sort(np.asarray(values, dtype=float)).tolist()
    keep = [vals[0]]
    for v in vals[1:]:
        if v - keep[-1] > tol:
            keep.append(v)
    out = np.asarray(keep)
    for anchor in snap:
        out[np.abs(out - anchor) <= tol] = anchor
    return np.unique(out)


def check_grid(coords, n: int, t=None):
    """The axes as float arrays, and the table t (when given) as a float
    array shaped like their product grid.  Raises ``DomainError`` unless
    there are n axes of at least two strictly increasing coordinates and t
    has one entry per node."""
    coords = [np.asarray(c, dtype=float) for c in coords]
    if len(coords) != n:
        raise DomainError(f"need one coordinate axis per bidder ({n}), got "
                          f"{len(coords)}")
    for c in coords:
        if c.ndim != 1 or c.shape[0] < 2 or not (c[1:] > c[:-1]).all():
            raise DomainError("each axis needs at least two increasing "
                              "coordinates")
    if t is not None:
        shape = tuple(c.shape[0] for c in coords)
        t = np.asarray(t, dtype=float)
        if t.size != math.prod(shape):
            raise DomainError("revenue table does not match the grid")
        t = t.reshape(shape)
    return coords, t


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
    A ``step`` refines that closed grid with a uniform one, merged once after
    the closure, so every breakpoint stays; it must be finite and positive,
    and raises ``SizeError`` when the uniform grid alone would have more
    than ``MAX_STEP_NODES`` nodes.
    """
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
        grew = False
        induced = mech.tables(coords)        # before any axis grows this round
        for i in range(n):
            merged = dedup_sorted(np.concatenate(
                [coords[i], induced[i].ravel()]), tol, snap=(0.0, vmax[i]))
            if len(merged) > max_per_axis:
                merged = coords[i]
            if len(merged) != len(coords[i]):
                grew = True
            coords[i] = merged
        if not grew:
            break
    if step is not None:
        coords = [dedup_sorted(np.concatenate(
            [c, np.arange(0.0, vmax[i] + step / 2, step)]), tol,
            snap=(0.0, vmax[i])) for i, c in enumerate(coords)]
    return coords


def _map_corner_points(mech: GridMechanism) -> list[tuple[float, ...]]:
    """Extremal fixed points of v -> p(v) with coordinates pinned at zero,
    the no-sale corners of an n >= 3 grid mechanism's breakpoint grid.

    For monotone thresholds the iterations from the bottom and the top of the
    box approach the least and greatest fixed points of each pinned map; these
    are the no-sale corners Nature's worst case can occupy.  A map runs on its
    free bidders' tables sliced at the pinned axes' index 0 (same bits).  A
    start iterates until the cells its coordinates lie in and the clamp
    pattern of its thresholds have held for three steps, then solves that
    cell's fixed-point system exactly (:func:`_cell_fixed_point`).  Trying at
    the first repeat instead lets Newton's method on an n >= 3 cell, started
    far from the fixed point, land on another root of the multilinear system.
    The solution ends the start only if it lies in the closed cell, keeps the
    clamp pattern, sits on the iteration's side of the iterate (above it from
    the bottom, below it from the top) and is a fixed point of the clamped map
    to 1e-12; otherwise the start iterates on, trying each cell at most once.
    Iteration alone stops once no coordinate moves more than 1e-10, or after
    ``MAP_MAX_ITER`` steps.  When any start was not converged by iteration,
    one debug line counts the starts solved in their cell, converged by
    iteration and left at the cap.
    """
    n, vmax, tol = mech.n, mech.vmax, 1e-12 * max(1.0, max(mech.vmax))
    points, solved, capped = [], 0, 0
    for mask in range(2 ** n - 1):
        free = [i for i in range(n) if not mask >> i & 1]
        coords = [mech.coords[i].tolist() for i in free]
        pick = [slice(None) if j in free else 0 for j in range(n)]
        tables = [(t.ravel().tolist(), t.shape) for t in (
            mech.thresholds[i][tuple(pick[:i] + pick[i + 1:])] for i in free)]
        box, ends = [vmax[i] for i in free], []
        for top in (False, True):
            v = list(box) if top else [0.0] * len(free)
            last, prev, tried = None, None, set()
            for _ in range(MAP_MAX_ITER):
                cells = [core.locate(c, x) for c, x in zip(coords, v)]
                new, pattern = _pinned_map(tables, cells, box, tol)
                v, old = new, v
                if all(abs(a - b) <= 1e-10 for a, b in zip(v, old)):
                    break
                key = (tuple(k for k, _ in cells), pattern)
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
        logger.debug("corner map: %d starts, %d solved in their cell, %d "
                     "converged by iteration, %d left at max_iter=%d",
                     len(points), solved, len(points) - solved - capped,
                     capped, MAP_MAX_ITER)
    return points


def _pinned_map(tables, cells, vmax, tol: float):
    """One step of a face's clamped threshold map at its located ``cells``,
    with the clamp pattern: 0 below zero, 2 above the bound, 1 otherwise (a
    threshold within ``tol`` of a bound counts as inside)."""
    new, pattern = [], []
    for i, table in enumerate(tables):
        p = core.multilinear(*table, cells[:i] + cells[i + 1:])
        new.append(min(max(p, 0.0), vmax[i]))
        pattern.append(0 if p < -tol else 2 if p > vmax[i] + tol else 1)
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


def _crossing_2d(c1, c2, t1, t2, j: int, k: int):
    """Where v1 = p1(v2) meets v2 = p2(v1), both taken linear on their cells
    (v1 in cell j of c1, v2 in cell k of c2); None when they are parallel."""
    y0, y1 = c2[k], c2[k + 1]
    B = (t1[k + 1] - t1[k]) / (y1 - y0)
    A = t1[k] - B * y0                                # v1 = A + B v2
    x0, x1 = c1[j], c1[j + 1]
    D = (t2[j + 1] - t2[j]) / (x1 - x0)
    C = t2[j] - D * x0                                # v2 = C + D v1
    denom = 1.0 - B * D
    if abs(denom) < 1e-12:
        return None
    x = (A + B * C) / denom
    return x, C + D * x


def _threshold_crossings_2d(mech: GridMechanism) -> list[tuple[float, float]]:
    """Intersections of v1 = p1(v2) with v2 = p2(v1), cell by cell."""
    c1, c2 = (c.tolist() for c in mech.coords)
    t1, t2 = (t.tolist() for t in mech.thresholds)  # p1 over c2, p2 over c1
    out = []
    eps = 1e-12
    for k in range(len(c2) - 1):
        for j in range(len(c1) - 1):
            point = _crossing_2d(c1, c2, t1, t2, j, k)
            if point is not None and c1[j] - eps <= point[0] <= c1[j + 1] + eps \
                    and c2[k] - eps <= point[1] <= c2[k + 1] + eps:
                out.append(point)
    return out


def threshold_tables(mech, coords) -> list[np.ndarray]:
    """p_i evaluated on the product of the other bidders' coordinate lists
    (the mechanism's own ``tables``, under a module-level name)."""
    return mech.tables(coords)


def least_winning_threshold(values, thresholds, tol: float) -> np.ndarray:
    """Least threshold among the bidders whose value reaches it, ``inf``
    where nobody's does; ``values[i]`` and ``thresholds[i]`` broadcast to
    the grid (``+inf`` for a bidder who can never win)."""
    t = np.inf
    for v, p in zip(values, thresholds):
        t = np.minimum(t, np.where(v >= p - tol, p, np.inf))
    return t


def _one_sided_slopes(c, t, z, tol: float):
    """Left and right slopes of the table t over the increasing c at each z:
    the two cells beside the node of c nearest z when it is within tol, the
    one cell holding z otherwise; zero past either end.  A cell no wider
    than tol across which t moves by no more than tol is part of its node,
    and the next cell out gives the slope; a jump across one keeps its own."""
    dc, dt = np.diff(c), np.diff(t)
    cell = np.concatenate([[True], (dc > tol) | (np.abs(dt) > tol), [True]])
    s = np.concatenate([[0.0], dt / dc, [0.0]])  # s[j]: cell j-1, 0 off the ends
    j = np.arange(len(s))         # prev/nxt: nearest counted s index <= / >= j
    prev = np.maximum.accumulate(np.where(cell, j, 0))
    nxt = np.minimum.accumulate(np.where(cell, j, j[-1])[::-1])[::-1]
    k = np.searchsorted((c[:-1] + c[1:]) / 2, z)  # the node nearest z
    d = z - c[k]                  # z's cell is k - 1 below it, k above it
    return s[prev[k + (d > tol)]], s[nxt[k + (d >= -tol)]]


def _no_sale_limits_2d(mech: GridMechanism, value_grids, tables,
                       tol: float) -> np.ndarray:
    """Which nodes of a two-bidder grid can a no-sale sequence approach?

    Linearized test on the one-sided slopes of the mechanism's own tables:
    a node where a threshold binds counts only when some direction into the
    box strictly undercuts every binding threshold.  Meaningful where
    v <= p + tol for both bidders.
    """
    x, y = value_grids                          # open mesh: a column, a row
    act1, act2 = x >= tables[0] - tol, y >= tables[1] - tol
    # p1 varies over v2, p2 over v1
    g1m, g1p = _one_sided_slopes(mech.coords[1], mech.thresholds[0], y, tol)
    g2m, g2p = _one_sided_slopes(mech.coords[0], mech.thresholds[1], x, tol)
    x_dn, x_up = x > tol, x < mech.vmax[0] - tol
    y_dn, y_up = y > tol, y < mech.vmax[1] - tol
    stol = 1e-9
    # One threshold binds: a limit wherever that bidder's value can fall.
    # Where it cannot, her value and threshold are both within tol of 0,
    # so the entry is within 2 tol of 0 either way.
    only1, only2 = x_dn, y_dn
    # Both thresholds bind: a direction (dx, dy) must strictly undercut both.
    both = ((x_dn & (g2m < -stol)) | (y_dn & (g1m < -stol))
            | (x_dn & y_dn & ((g1m <= stol) | (g2m <= stol)
                              | (g1m * g2m < 1.0 - stol)))
            | (x_up & y_up & (g1p > stol) & (g2p > stol)
               & (g1p * g2p > 1.0 + stol)))
    return np.where(act1, np.where(act2, both, only1),
                    np.where(act2, only2, True))


def lower_revenue_table(mech, coords) -> np.ndarray:
    """Worst-tie revenue at every grid node, shaped like the product grid.

    A winner candidate contributes her threshold whenever her value reaches
    it; zero contributes wherever the no-sale region accumulates.
    """
    coords, _ = check_grid(coords, mech.n)
    n = len(coords)
    shape = tuple(len(c) for c in coords)
    scale = max(1.0, max(float(c[-1]) for c in coords))
    tol = 1e-9 * scale
    value_grids = np.meshgrid(*coords, indexing="ij", sparse=True)

    if isinstance(mech, LinearScoreAuction):
        # A bidder is a winner candidate where her value reaches the raw
        # score threshold; a threshold clamped at her bound means she cannot
        # win there at all (this matters only under unequal bounds).
        raw = [np.expand_dims(p, axis=i)
               for i, p in enumerate(mech.unclamped_tables(coords))]
        t = least_winning_threshold(value_grids, raw, tol)
        # No-sale profiles accumulate exactly below the reserves.
        if all(mech.reserve(i) > 0.0 for i in mech.included()):
            no_sale = np.ones(shape, dtype=bool)
            for i in mech.included():
                no_sale &= value_grids[i] <= mech.reserve(i) + tol
            t[no_sale] = np.minimum(t[no_sale], 0.0)
        if not np.all(np.isfinite(t)):
            raise DomainError("grid node with no winner candidate and no "
                              "no-sale limit; refine the grid")
        return t

    tables = [np.expand_dims(p, axis=i)
              for i, p in enumerate(mech.tables(coords))]
    t = least_winning_threshold(value_grids, tables, tol)
    below = np.all([v <= p + tol for v, p in zip(value_grids, tables)],
                   axis=0)                       # v_i <= p_i for all i
    if n == 2:
        below &= _no_sale_limits_2d(mech, value_grids, tables, tol)
    t[below] = np.minimum(t[below], 0.0)
    return t


# ---------------------------------------------------------------------------
# The worst-case linear program and its oracle
# ---------------------------------------------------------------------------

def worst_case_lp(coords, t, instance: Instance):
    """Minimize expected revenue over grid distributions with the given means.

    Returns ``(value, distribution, certificate)``; the distribution is a
    basic solution with at most n+1 atoms and the certificate carries the
    exact dual multipliers of the simplex basis.  The simplex starts from
    the Freudenthal corners of the grid's box, which hold the means.
    """
    n = instance.n
    coords, t = check_grid(coords, n, t)
    shape, tvals = t.shape, t.ravel()
    A = np.empty((n + 1, tvals.shape[0]))
    A[0] = 1.0
    for row, g in zip(A[1:], np.meshgrid(*coords, indexing="ij", sparse=True)):
        row.reshape(shape)[...] = g
    b = np.concatenate([[1.0], instance.mean_vector])
    res = solve_lp(tvals, A, b, start=_freudenthal_corners(coords, b[1:]))

    keep = res.x > PROB_TOL
    probs = res.x[keep]
    dist = DiscreteDistribution(A[1:, keep].T, probs / probs.sum(),
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
    coords, t = check_grid(coords, instance.n, t)
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (instance.n,) or not np.isfinite(lam).all():
        raise DomainError(f"need {instance.n} finite multipliers, got "
                          f"{lam.tolist()}")
    grids = np.meshgrid(*coords, indexing="ij", sparse=True)
    lam_dot_v = sum(lam[i] * grids[i] for i in range(len(grids)))
    return float(lam @ instance.mean_vector + np.min(t - lam_dot_v))


def brute_force_min(coords, t, instance: Instance) -> float:
    """Enumerate all supports of n+1 grid nodes and keep feasible solutions.

    Independent of the simplex path: each candidate support solves a square
    linear system for its probabilities.
    """
    coords, t = check_grid(coords, instance.n, t)
    nodes, tvals = grid_nodes(coords), t.ravel()
    N, n = nodes.shape
    k = n + 1
    if N < k:
        raise SizeError("grid smaller than a basic support")
    if math.comb(N, k) > BRUTE_FORCE_GUARD:
        raise SizeError(f"{math.comb(N, k)} supports exceed the guard "
                        f"{BRUTE_FORCE_GUARD}")

    b = np.concatenate([[1.0], instance.mean_vector])
    best = np.inf
    combos = itertools.combinations(range(N), k)
    chunk = 200_000
    while True:
        batch = list(itertools.islice(combos, chunk))
        if not batch:
            break
        idx = np.asarray(batch)
        S = np.concatenate([np.ones((len(batch), 1, k)),
                            nodes[idx].transpose(0, 2, 1)], axis=1)
        dets = np.abs(np.linalg.det(S))
        ok = dets > 1e-12
        if not np.any(ok):
            continue
        rhs = np.broadcast_to(b.reshape(1, k, 1), (int(ok.sum()), k, 1))
        f = np.linalg.solve(S[ok], rhs)[:, :, 0]
        feas = np.all(f >= -PROB_TOL, axis=1)
        if not np.any(feas):
            continue
        vals = np.einsum("ij,ij->i", f[feas], tvals[idx[ok][feas]])
        best = min(best, float(vals.min()))
    if not np.isfinite(best):
        raise SizeError("no feasible support found")
    return best


def mechanism_guarantee(mech, instance: Instance, step: float | None = None):
    """Breakpoint grid + lower-envelope tabulation + LP, in one call."""
    check_compatible(mech, instance)
    coords = breakpoint_coords(mech, step=step)
    t = lower_revenue_table(mech, coords)
    value, dist, cert = worst_case_lp(coords, t, instance)
    return value, dist, cert, coords


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
    r = np.asarray(r, dtype=float)
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
    """Optimal multipliers of the two-bidder reserve auction and the three
    limit profiles where its Lagrangian binds: by complementary slackness,
    the support of Nature's worst case.  lam_i = r_i / (vmax - r_i) ties the
    no-sale corner r to bidder i's row (she at vmax, her rival at his
    reserve); (vmax - r_j) / (vmax - r_i) ties the wall (vmax, vmax) to
    bidder j's row.  Type III takes the candidate that scores higher."""
    r1, r2, vmax, kind = _check_wc_inputs(r, instance)
    sale1, sale2 = r1 / (vmax - r1), r2 / (vmax - r2)
    wall1, wall2 = (vmax - r2) / (vmax - r1), (vmax - r1) / (vmax - r2)
    no_sale, row1, row2, wall = (r1, r2), (vmax, r2), (r1, vmax), (vmax, vmax)
    if kind is WorstCaseType.I:
        return np.array([wall1, wall2]), [wall, row1, row2]
    if kind is WorstCaseType.II:
        return np.array([sale1, sale2]), [no_sale, row2, row1]
    pairs = [(np.array([sale1, wall2]), row1), (np.array([wall1, sale2]), row2)]
    # on a tie, max keeps the first pair
    lam, row = max(pairs, key=lambda p: _lsa_lagrangian(no_sale, p[0], instance))
    return lam, [no_sale, row, wall]


def lsa2_dual_multipliers(r, instance: Instance) -> np.ndarray:
    """Optimal mean-constraint multipliers for a two-bidder reserve auction."""
    return _binding_corners(r, instance)[0]


def lsa2_guarantee(r, instance: Instance) -> float:
    """Worst-case expected revenue of the two-bidder reserve auction."""
    return lsa_lagrangian(r, lsa2_dual_multipliers(r, instance), instance)


def wcdistr2_construct(r, instance: Instance) -> DiscreteDistribution:
    """A canonical worst-case distribution against the reserve auction: the
    corners where the Lagrangian binds, weighted by Cramer's rule to hit the
    means.  No sale when both values are at or below the reserves: the tie
    resolution the infimum over distributions sees."""
    _, corners = _binding_corners(r, instance)
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
