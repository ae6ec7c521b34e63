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
from .errors import BoundaryError, DomainError, RegimeError, SizeError
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
    vals = np.sort(np.asarray(values, dtype=float))
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


def _zero_reachable_2d(mech: GridMechanism, x: float, y: float,
                       p1: float, p2: float, tol: float) -> bool:
    """Can a sequence inside the no-sale region approach (x, y)?

    Linearized test using one-sided threshold slopes at the node; needed so
    that indifference profiles only count as no-sale when no-sale profiles
    actually accumulate there.
    """
    if x > p1 + tol or y > p2 + tol:
        return False
    act1 = x >= p1 - tol
    act2 = y >= p2 - tol
    if not act1 and not act2:
        return True
    vmax = mech.vmax
    c1, c2 = mech.coords[1], mech.coords[0]   # p1 varies over v2, p2 over v1
    can_x_dn, can_x_up = x > tol, x < vmax[0] - tol
    can_y_dn, can_y_up = y > tol, y < vmax[1] - tol

    def slopes(i, c, z):
        def cell(a, b):
            return (mech.threshold(i, [b]) - mech.threshold(i, [a])) / (b - a)

        k = int(np.searchsorted(c, z + tol) - 1)
        k = min(max(k, 0), len(c) - 1)
        if abs(z - c[k]) <= tol:              # z sits on a mechanism node
            lo = cell(c[k - 1], c[k]) if k > 0 else 0.0
            hi = cell(c[k], c[k + 1]) if k < len(c) - 1 else 0.0
        else:                                 # interior of one cell
            hi = cell(c[k], c[min(k + 1, len(c) - 1)]) if k < len(c) - 1 else 0.0
            lo = hi
        return lo, hi

    g1m, g1p = slopes(0, c1, y)
    g2m, g2p = slopes(1, c2, x)
    stol = 1e-9

    if act1 and not act2:
        if can_x_dn:
            return True
        return (can_y_up and g1p > stol) or (can_y_dn and g1m < -stol)
    if act2 and not act1:
        if can_y_dn:
            return True
        return (can_x_up and g2p > stol) or (can_x_dn and g2m < -stol)

    # Both thresholds bind: a direction (dx, dy) must strictly undercut both.
    if can_x_dn and g2m < -stol:
        return True
    if can_y_dn and g1m < -stol:
        return True
    if can_x_dn and can_y_dn and (g1m <= stol or g2m <= stol
                                  or g1m * g2m < 1.0 - stol):
        return True
    if can_x_up and can_y_up and (g1p > stol and g2p > stol
                                  and g1p * g2p > 1.0 + stol):
        return True
    return False


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
    value_grids = np.meshgrid(*coords, indexing="ij")

    if isinstance(mech, LinearScoreAuction):
        # A bidder is a winner candidate where her value reaches the raw
        # score threshold; a threshold clamped at her bound means she cannot
        # win there at all (this matters only under unequal bounds).
        t = np.full(shape, np.inf)
        scores = [mech.betas[i] * value_grids[i] - mech.alphas[i]
                  for i in range(n)]
        for i in mech.included():
            rival = np.zeros(shape)
            for j in mech.included():
                if j != i:
                    rival = np.maximum(rival, scores[j])
            raw = (mech.alphas[i] + rival) / mech.betas[i]
            can_win = value_grids[i] >= raw - tol
            t = np.minimum(t, np.where(can_win, raw, np.inf))
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

    tables = mech.tables(coords)
    t = np.full(shape, np.inf)
    below = np.ones(shape, dtype=bool)       # v_i <= p_i for all i
    strictly_below = np.ones(shape, dtype=bool)
    for i in range(n):
        p_i = np.expand_dims(tables[i], axis=i)
        can_win = value_grids[i] >= p_i - tol
        t = np.minimum(t, np.where(can_win, p_i, np.inf))
        below &= value_grids[i] <= p_i + tol
        strictly_below &= value_grids[i] < p_i - tol

    if n == 2:
        for a, x in enumerate(coords[0]):
            for b, y in enumerate(coords[1]):
                if strictly_below[a, b]:
                    t[a, b] = 0.0
                elif below[a, b] and _zero_reachable_2d(
                        mech, x, y, tables[0][b], tables[1][a], tol):
                    t[a, b] = 0.0
    else:
        t[below] = np.minimum(t[below], 0.0)
    return t


# ---------------------------------------------------------------------------
# The worst-case linear program and its oracle
# ---------------------------------------------------------------------------

def worst_case_lp(coords, t, instance: Instance):
    """Minimize expected revenue over grid distributions with the given means.

    Returns ``(value, distribution, certificate)``; the distribution is a
    basic solution with at most n+1 atoms and the certificate carries the
    exact dual multipliers of the simplex basis.
    """
    coords = [np.asarray(c, dtype=float) for c in coords]
    nodes = grid_nodes(coords)
    tvals = np.asarray(t, dtype=float).ravel()
    if tvals.shape[0] != nodes.shape[0]:
        raise DomainError("revenue table does not match the grid")
    n = instance.n
    A = np.vstack([np.ones(nodes.shape[0]), nodes.T])
    b = np.concatenate([[1.0], instance.mean_vector])
    res = solve_lp(tvals, A, b)

    keep = res.x > PROB_TOL
    probs = res.x[keep]
    dist = DiscreteDistribution(nodes[keep], probs / probs.sum(),
                                vmax=instance.vmax)
    lam = res.duals[1:].copy()
    cert = DualCertificate(lambda0=float(res.duals[0]), lam=lam,
                           value=float(res.duals @ b))
    return res.value, dist, cert


def dual_value(coords, t, instance: Instance, lam) -> float:
    """lam @ m plus the minimum of t - lam @ v over the grid nodes."""
    nodes = grid_nodes(coords)
    tvals = np.asarray(t, dtype=float).ravel()
    lam = np.asarray(lam, dtype=float)
    return float(lam @ instance.mean_vector + np.min(tvals - nodes @ lam))


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
