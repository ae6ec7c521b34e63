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
from .errors import (BoundaryError, DomainError, InfeasibleError, RegimeError,
                     SizeError)
from .simplex import solve_lp

PROB_TOL = 1e-12

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

def dedup_sorted(values, tol: float, snap=None) -> np.ndarray:
    """Sorted unique values; clusters within tol collapse to their first
    member, except that clusters touching a ``snap`` anchor take the anchor
    itself (keeps box endpoints exact, never one rounding off)."""
    vals = np.sort(np.asarray(values, dtype=float)).tolist()
    keep = [vals[0]]
    for v in vals[1:]:
        if v - keep[-1] > tol:
            keep.append(v)
    out = np.asarray(keep)
    if snap is not None:
        for anchor in snap:
            out[np.abs(out - anchor) <= tol] = anchor
        out = np.unique(out)
    return out


def breakpoint_coords(mech, step: float | None = None,
                      extra=None, max_per_axis: int = 200) -> list[np.ndarray]:
    """Per-bidder coordinates covering the box with all threshold breakpoints.

    For affine-score mechanisms the induced threshold values are closed under
    a few rounds of re-tabulation, which is what makes the grid LP exact.
    """
    n, vmax = mech.n, mech.vmax
    rounds = 6
    if not isinstance(mech, LinearScoreAuction):
        rounds = 3
        max_per_axis = min(max_per_axis, 40 if n == 2 else 24)
        # Corners of the no-sale region sit where threshold surfaces meet:
        # crossings (two bidders) and fixed points of the clamped threshold
        # map with any subset of coordinates pinned at zero.
        corners = _map_corner_points(mech)
        if n == 2:
            corners.extend(_threshold_crossings_2d(mech))
    tol = 1e-12 * max(1.0, max(vmax))
    coords = []
    for i in range(n):
        base = [0.0, vmax[i]]
        if isinstance(mech, LinearScoreAuction):
            base.append(mech.reserve(i))
        else:
            base.extend(np.asarray(mech.coords[i], dtype=float))
            base.extend(point[i] for point in corners)
        if extra is not None and extra[i] is not None:
            base.extend(np.asarray(extra[i], dtype=float))
        if step is not None:
            base.extend(np.arange(0.0, vmax[i] + step / 2, step))
        coords.append(dedup_sorted(base, tol, snap=(0.0, vmax[i])))
    for _ in range(rounds):
        grew = False
        snapshot = [c.copy() for c in coords]      # no cascade within a round
        induced = mech.tables(snapshot)
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
    return coords


def _map_corner_points(mech: GridMechanism, max_iter: int = 200
                       ) -> list[tuple[float, ...]]:
    """Extremal fixed points of v -> p(v) with coordinates pinned at zero.

    For monotone thresholds the iterations from the bottom and the top of the
    box approach the least and greatest fixed points of each pinned map;
    these are the no-sale corners Nature's worst case can occupy.  A start
    stops after ``max_iter`` steps or once no coordinate moves more than
    1e-10; convergence is linear, so for score auctions a corner can be
    unconverged.  Starts left at the cap are counted in a debug log.
    """
    n, vmax = mech.n, mech.vmax
    coords = [c.tolist() for c in mech.coords]
    tables = [(t.ravel().tolist(), t.shape) for t in mech.thresholds]
    points, capped = [], 0
    for mask in range(2 ** n - 1):
        free = [i for i in range(n) if not mask >> i & 1]
        for top in (False, True):
            v = [vmax[i] if top and i in free else 0.0 for i in range(n)]
            for _ in range(max_iter):
                cells = [core.locate(c, x) for c, x in zip(coords, v)]
                new = [0.0] * n
                for i in free:
                    p = core.multilinear(*tables[i], cells[:i] + cells[i + 1:])
                    new[i] = min(max(p, 0.0), vmax[i])
                v, old = new, v
                if all(abs(a - b) <= 1e-10 for a, b in zip(v, old)):
                    break
            else:
                capped += 1
            points.append(tuple(v))
    if capped:
        logger.debug("corner map: %d of %d starts ended at max_iter=%d still "
                     "moving", capped, len(points), max_iter)
    return points


def _threshold_crossings_2d(mech: GridMechanism) -> list[tuple[float, float]]:
    """Intersections of v1 = p1(v2) with v2 = p2(v1), cell by cell."""
    c1, c2 = mech.coords[0], mech.coords[1]
    t1, t2 = mech.thresholds[0], mech.thresholds[1]   # p1 over c2, p2 over c1
    out = []
    eps = 1e-12
    for k in range(len(c2) - 1):
        y0, y1 = c2[k], c2[k + 1]
        B = (t1[k + 1] - t1[k]) / (y1 - y0)
        A = t1[k] - B * y0                            # v1 = A + B v2
        for j in range(len(c1) - 1):
            x0, x1 = c1[j], c1[j + 1]
            D = (t2[j + 1] - t2[j]) / (x1 - x0)
            C = t2[j] - D * x0                        # v2 = C + D v1
            denom = 1.0 - B * D
            if abs(denom) < 1e-12:
                continue
            x = (A + B * C) / denom
            y = C + D * x
            if x0 - eps <= x <= x1 + eps and y0 - eps <= y <= y1 + eps:
                out.append((float(x), float(y)))
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
    the two adjacent cells at a node of c, the one cell between nodes, zero
    past either end."""
    s = np.concatenate([[0.0], np.diff(t) / np.diff(c), [0.0]])
    k = np.clip(np.searchsorted(c, z + tol) - 1, 0, len(c) - 1)
    hi = s[k + 1]
    return np.where(np.abs(z - c[k]) <= tol, s[k], hi), hi


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
    only1 = x_dn | (y_up & (g1p > stol)) | (y_dn & (g1m < -stol))
    only2 = y_dn | (x_up & (g2p > stol)) | (x_dn & (g2m < -stol))
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
    coords = [np.asarray(c, dtype=float) for c in coords]
    n = len(coords)
    shape = tuple(len(c) for c in coords)
    scale = max(1.0, max(float(c[-1]) for c in coords))
    tol = 1e-9 * scale
    value_grids = np.meshgrid(*coords, indexing="ij", sparse=True)

    if isinstance(mech, LinearScoreAuction):
        # A bidder is a winner candidate where her value reaches the raw
        # score threshold; a threshold clamped at her bound means she cannot
        # win there at all (this matters only under unequal bounds).
        scores = [mech.betas[i] * value_grids[i] - mech.alphas[i]
                  for i in range(n)]
        raw = [np.inf] * n
        for i in mech.included():
            rival = np.zeros(shape)
            for j in mech.included():
                if j != i:
                    rival = np.maximum(rival, scores[j])
            raw[i] = (mech.alphas[i] + rival) / mech.betas[i]
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
    coords = [np.asarray(c, dtype=float) for c in coords]
    n = instance.n
    if len(coords) != n:
        raise DomainError("one coordinate axis per bidder required")
    for c in coords:
        if c.ndim != 1 or c.shape[0] < 2 or not np.all(c[1:] > c[:-1]):
            raise DomainError("each axis needs at least two increasing "
                              "coordinates")
    shape = tuple(c.shape[0] for c in coords)
    tvals = np.asarray(t, dtype=float).ravel()
    if tvals.shape[0] != math.prod(shape):
        raise DomainError("revenue table does not match the grid")
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
    lam = np.asarray(lam, dtype=float)
    grids = np.meshgrid(*coords, indexing="ij", sparse=True)
    lam_dot_v = sum(lam[i] * grids[i] for i in range(len(grids)))
    t = np.asarray(t, dtype=float).reshape(lam_dot_v.shape)
    return float(lam @ instance.mean_vector + np.min(t - lam_dot_v))


def brute_force_min(coords, t, instance: Instance,
                    guard: int = 10_000_000) -> float:
    """Enumerate all supports of n+1 grid nodes and keep feasible solutions.

    Independent of the simplex path: each candidate support solves a square
    linear system for its probabilities.
    """
    nodes = grid_nodes(coords)
    tvals = np.asarray(t, dtype=float).ravel()
    N, n = nodes.shape
    k = n + 1
    if N < k:
        raise SizeError("grid smaller than a basic support")
    if math.comb(N, k) > guard:
        raise SizeError(f"{math.comb(N, k)} supports exceed the guard {guard}")

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


def _check_wc_inputs(r, instance: Instance) -> tuple[float, float, float]:
    if instance.n != 2:
        raise DomainError("closed-form worst cases are for two bidders")
    vmax = instance.common_vmax()
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("reserves must be nonnegative")
    if not (r[0] < instance.means[0] and r[1] < instance.means[1]):
        raise DomainError("closed forms require reserves below the means")
    return float(r[0]), float(r[1]), vmax


def wc_boundary_r2(r1: float, instance: Instance) -> float:
    """Reserve level for bidder 2 separating sale-sure from undercut regimes."""
    m1, m2 = instance.means
    vmax = instance.common_vmax()
    return (m2 * (vmax - r1) - vmax * (vmax - m1)) / (m1 - r1)


def wcdistr2_classify(r, instance: Instance) -> WorstCaseType:
    r1, r2, vmax = _check_wc_inputs(r, instance)
    rbar = wc_boundary_r2(r1, instance)
    btol = 1e-12
    if abs(r2 - (vmax - r1)) <= btol:
        raise BoundaryError("reserves on the sure-sale boundary")
    if r2 > vmax - r1:
        return WorstCaseType.III
    if abs(r2 - rbar) <= btol:
        raise BoundaryError("reserves on the undercut boundary")
    return WorstCaseType.I if r2 < rbar else WorstCaseType.II


def lsa2_dual_multipliers(r, instance: Instance) -> np.ndarray:
    """Optimal mean-constraint multipliers for a two-bidder reserve auction."""
    from .dual import lsa_lagrangian

    r1, r2, vmax = _check_wc_inputs(r, instance)
    kind = wcdistr2_classify(r, instance)
    if kind is WorstCaseType.I:
        return np.array([(vmax - r2) / (vmax - r1), (vmax - r1) / (vmax - r2)])
    if kind is WorstCaseType.II:
        return np.array([r1 / (vmax - r1), r2 / (vmax - r2)])
    cand_a = np.array([r1 / (vmax - r1), (vmax - r1) / (vmax - r2)])
    cand_b = np.array([(vmax - r2) / (vmax - r1), r2 / (vmax - r2)])
    val_a = lsa_lagrangian(r, cand_a, instance)
    val_b = lsa_lagrangian(r, cand_b, instance)
    return cand_a if val_a >= val_b else cand_b


def lsa2_guarantee(r, instance: Instance) -> float:
    """Worst-case expected revenue of the two-bidder reserve auction."""
    from .dual import lsa_lagrangian

    return lsa_lagrangian(r, lsa2_dual_multipliers(r, instance), instance)


def wcdistr2_construct(r, instance: Instance) -> DiscreteDistribution:
    """A canonical worst-case distribution against the reserve auction.

    The object is treated as unsold when both values are at or below the
    reserves, which is the tie resolution the infimum over distributions sees.
    """
    r1, r2, vmax = _check_wc_inputs(r, instance)
    m1, m2 = instance.means
    kind = wcdistr2_classify(r, instance)

    if kind is WorstCaseType.II:
        q1 = (m1 - r1) / (vmax - r1)          # mass at (vmax, r2)
        q2 = (m2 - r2) / (vmax - r2)          # mass at (r1, vmax)
        q0 = 1.0 - q1 - q2
        if q0 < -PROB_TOL:
            raise RegimeError("corner mass negative; not an undercut regime")
        q0 = max(q0, 0.0)
        atoms = [(r1, r2), (r1, vmax), (vmax, r2)]
        probs = np.array([q0, q2, q1])
        return DiscreteDistribution(atoms, probs / probs.sum(), vmax=instance.vmax)

    if kind is WorstCaseType.I:
        a_lo = max(0.0, (vmax - m2) / (vmax - r2))
        a_hi = min(1.0, (m1 - r1) / (vmax - r1))
        if a_hi < a_lo - PROB_TOL:
            # Should not happen inside the regime; defer to the LP's basis.
            lsa = corner_hitting([r1, r2], instance.vmax)
            _, dist, _, _ = mechanism_guarantee(lsa, instance)
            return dist
        a = 0.5 * (a_lo + a_hi)
        x = (m1 - a * vmax) / (1.0 - a)
        y = (m2 - (1.0 - a) * vmax) / a
        return DiscreteDistribution([(vmax, y), (x, vmax)], [a, 1.0 - a],
                                    vmax=instance.vmax)

    lam = lsa2_dual_multipliers(r, instance)
    on_wall_1 = abs(lam[0] - r1 / (vmax - r1)) <= 1e-12
    if on_wall_1:
        q0 = (vmax - m1) / (vmax - r1)
        c = (m2 - r2) / (vmax - r2)           # mass at (vmax, vmax)
        a = 1.0 - q0 - c                      # mass at (vmax, r2)
        atoms = [(r1, r2), (vmax, r2), (vmax, vmax)]
    else:
        q0 = (vmax - m2) / (vmax - r2)
        c = (m1 - r1) / (vmax - r1)
        a = 1.0 - q0 - c
        atoms = [(r1, r2), (r1, vmax), (vmax, vmax)]
    if a < -PROB_TOL:
        raise RegimeError("wall mass negative; inconsistent with the regime")
    probs = np.array([q0, max(a, 0.0), c])
    return DiscreteDistribution(atoms, probs / probs.sum(), vmax=instance.vmax)


def revenue_unsold_at_reserves(r, instance: Instance, v) -> float:
    """Reserve-auction revenue with no sale when every value is at its reserve."""
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.all(v <= r + 1e-12):
        return 0.0
    return core.revenue(corner_hitting(r, instance.vmax), v)
