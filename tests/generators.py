"""Random problem generators and a reference interpolator shared across the
test modules."""

from __future__ import annotations

import itertools

import numpy as np

import maxmin_auction as ma
from maxmin_auction import nature, solve
from maxmin_auction.improve import AffineThresholds


def random_instance(rng, n=None, lo=0.08, hi=0.92, vmax=1.0):
    n = n or int(rng.integers(2, 4))
    means = rng.uniform(lo, hi, n) * vmax
    return ma.Instance(n, means, vmax)


def random_corner_lsa(rng, instance, allow_edges=True):
    vm = instance.vmax_vector
    r = rng.uniform(0.0, 1.0, instance.n) * vm
    if allow_edges and rng.random() < 0.15:
        r[rng.integers(instance.n)] = 0.0
    if allow_edges and rng.random() < 0.1:
        r[rng.integers(instance.n)] = vm[rng.integers(instance.n)]
    return ma.corner_hitting(r, instance.vmax)


def random_score_auction(rng, n, vmax=1.0, extra_coords=None):
    """Feasible mechanism from strictly increasing piecewise-linear scores."""
    if extra_coords is None:
        extra_coords = 2 if n == 2 else 1
    knots, vals = [], []
    for _ in range(n):
        k = int(rng.integers(2, 5 if n == 2 else 4))
        if k > 2:
            xs = np.concatenate([[0.0],
                                 np.sort(rng.uniform(0.05, 0.95, k - 2)) * vmax,
                                 [vmax]])
        else:
            xs = np.array([0.0, vmax])
        lo = rng.uniform(-0.6, 0.3)
        hi = rng.uniform(max(lo + 0.2, 0.2), 1.4)
        ys = np.sort(rng.uniform(lo, hi, len(xs)))
        ys[0], ys[-1] = lo, hi
        ys = np.maximum.accumulate(ys + np.linspace(0.0, 1e-6, len(xs)))
        knots.append(xs)
        vals.append(ys)

    def score(i, v):
        return np.interp(v, knots[i], vals[i])

    def inverse(i, target):
        if target > vals[i][-1]:
            return vmax
        return float(np.interp(target, vals[i], knots[i]))

    # score-zero values in the grid keep thresholds flat below the reserves
    coords = [np.unique(np.concatenate(
        [k, [0.0, vmax, inverse(i, 0.0)],
         rng.uniform(0.0, vmax, extra_coords)]))
        for i, k in enumerate(knots)]
    tables = []
    for i in range(n):
        rivals = [j for j in range(n) if j != i]
        axes = [coords[j] for j in rivals]
        t = np.empty(tuple(len(a) for a in axes))
        for node in itertools.product(*(range(len(a)) for a in axes)):
            best = 0.0
            for d, j in enumerate(rivals):
                best = max(best, float(score(j, axes[d][node[d]])))
            t[node] = inverse(i, best)
        tables.append(t)
    return ma.GridMechanism(coords, tables)


def random_excluded_mechanism(rng, vmax=1.0):
    """Two bidders, the first priced out, the second facing an affine price."""
    base = rng.uniform(0.05, 0.4)
    slope = rng.uniform(0.05, min(0.5, (vmax - base) / vmax - 0.01))
    c = np.unique(np.concatenate([[0.0, vmax], rng.uniform(0, vmax, 3)]))
    coords = [c, np.unique(np.concatenate([[0.0, vmax],
                                           base + slope * c]))]
    p1 = np.full(len(coords[1]), vmax)
    p2 = base + slope * coords[0]
    return ma.GridMechanism(coords, [p1, p2])


def tabulated_auction(rng, n):
    """Corner-hitting auction tabulated on its own breakpoint grid."""
    lsa = ma.corner_hitting(rng.uniform(0.0, 0.9, n), [1.0] * n)
    return ma.grid_from_lsa(lsa, nature.breakpoint_coords(lsa))


def excluded_lsa(rng, n, k):
    """Corner-hitting auction with its first k bidders excluded."""
    r = rng.uniform(0.0, 0.9, n)
    r[:k] = 1.0
    return ma.corner_hitting(r, [1.0] * n)


def random_feasible_mechanism(rng, n, vmax=1.0):
    roll = rng.random()
    if roll < 0.45:
        return random_score_auction(rng, n, vmax)
    if roll < 0.75 or n != 2:
        r = rng.uniform(0.0, 0.9, n) * vmax
        lsa = ma.corner_hitting(r, [vmax] * n)
        return ma.grid_from_lsa(lsa, nature.breakpoint_coords(lsa))
    return random_excluded_mechanism(rng, vmax)


def random_affine_map(rng, tiny_intercepts=False):
    """An ``AffineThresholds`` map on n = 2 to 5 bidders, equal bounds or not.

    With w_i = lam_i / (1 + lam_i), sum(w) is drawn at 1 (singular), within
    1e-12 to 1e-6 of 1 on either side, or away from 1, and each w_i is then
    capped at 0.95.  About a quarter of the multipliers are zero.
    ``tiny_intercepts`` scales the intercepts down by 1e-9 to 1e-1, which
    puts the least fixed point on a nearly flat piece of its scalar equation
    when sum(w) is close to 1.
    """
    n = int(rng.integers(2, 6))
    vmax = rng.uniform(0.5, 2.0, n) if rng.random() < 0.5 else np.ones(n)
    kind = int(rng.integers(4 if not tiny_intercepts else 3))
    near = 10.0 ** rng.uniform(-12, -6)
    target = (1.0, 1.0 - near, 1.0 + near, rng.uniform(0.1, 1.8))[kind]
    w = rng.dirichlet(np.ones(n))
    zero = rng.random(n) < 0.25
    zero[np.argsort(w)[-2:]] = False
    w[zero] = 0.0
    w = np.minimum(w * target / w.sum(), 0.95)
    b = rng.uniform(-0.6, 1.0, n) * vmax
    if tiny_intercepts:
        b *= 10.0 ** rng.uniform(-9, -1)
    return AffineThresholds(b, w / (1.0 - w), tuple(vmax))


def sample_optimal_member(rng, instance):
    """A mechanism inside the optimal envelope for a two-bidder instance."""
    vmax = instance.common_vmax()
    sol = ma.optimal_reserves(instance)
    lam = sol.lambda_star
    r1, r2 = sol.reserves_canonical
    low = sol.regime is solve.Regime.LOW_MEANS

    ks = np.sort(rng.uniform(r1 + 0.05 * (vmax - r1),
                             vmax - 0.05 * (vmax - r1), 2))
    xs_plan = np.array([r1, *ks, vmax])
    xs, ys = [r1], [r2]
    hit = False
    for a, b in zip(xs_plan[:-1], xs_plan[1:]):
        if hit:
            xs.append(b)
            ys.append(vmax)
            continue
        s = rng.uniform(lam[0], 1.0 / lam[1]) if low else lam[0]
        y_next = ys[-1] + s * (b - a)
        if y_next >= vmax - 1e-12:
            x_hit = a + (vmax - ys[-1]) / s
            if x_hit < b - 1e-9:
                xs.append(x_hit)
                ys.append(vmax)
            xs.append(b)
            ys.append(vmax)
            hit = True
        else:
            xs.append(b)
            ys.append(y_next)
    xs, ys = np.array(xs), np.array(ys)
    strict = np.concatenate([[True], np.diff(ys) > 1e-12])
    xs_s, ys_s = xs[strict], ys[strict]

    def below(w, i, rival_slope, own_lam):
        lower = (r1, r2)[i] + rival_slope * (w - (r2, r1)[i])
        upper = (lam[0] * r1 + lam[1] * r2 - rival_slope * w) / own_lam
        lo, hi = max(0.0, lower), min(vmax, upper)
        return rng.uniform(lo, hi) if hi > lo else lo

    c1 = np.unique(np.concatenate([[0.0, 0.5 * r1], xs, [vmax]]))
    c2 = np.unique(np.concatenate([[0.0, 0.5 * r2], ys, [vmax]]))
    p2 = np.array([np.interp(w, xs, ys) if w >= r1 - 1e-15
                   else below(w, 1, lam[0], lam[1]) for w in c1])

    def inv(w):
        if w > ys_s[-1] + 1e-12:
            return vmax
        return float(np.interp(w, ys_s, xs_s))

    p1 = np.array([inv(w) if w >= r2 - 1e-15
                   else below(w, 0, lam[1], lam[0]) for w in c2])
    return ma.GridMechanism([c1, c2], [p1, p2])


def sample_near_miss(rng, instance):
    """A mechanism just outside the optimal set: reserves off the optimal set."""
    sol = ma.optimal_reserves(instance)
    r = sol.reserves_canonical.copy()
    which = int(rng.integers(2))
    delta = float(rng.uniform(0.05, 0.12)) * float(rng.choice([-1.0, 1.0]))
    r[which] = float(np.clip(r[which] + delta, 0.02, 0.95))
    lsa = ma.corner_hitting(r, instance.vmax)
    return ma.grid_from_lsa(lsa, nature.breakpoint_coords(lsa))


def multilinear_batch(table, axes, points):
    """Multilinear interpolation of ``table`` at many points at once: the
    library's batch interpolator before it went axis-wise, kept as the
    reference whose bits ``GridMechanism.tables`` must match."""
    pts = np.atleast_2d(points)
    idx, weights = [], []
    for k, c in enumerate(axes):
        x = np.clip(pts[:, k], c[0], c[-1])
        j = np.clip(np.searchsorted(c, x, side="right") - 1, 0, len(c) - 2)
        idx.append(j)
        weights.append((x - c[j]) / (c[j + 1] - c[j]))
    out = np.zeros(pts.shape[0])
    for corner in itertools.product((0, 1), repeat=len(axes)):
        w = np.ones(pts.shape[0])
        sel = []
        for k, bit in enumerate(corner):
            w = w * (weights[k] if bit else 1.0 - weights[k])
            sel.append(idx[k] + bit)
        out += w * table[tuple(sel)]
    return out


def bent_boundary(instance, slopes):
    """Two-bidder thresholds whose winning boundary leaves the optimal
    reserves (r1, r2) in two straight pieces, slope ``slopes[0]`` up to the
    middle of [r1, vmax] and ``slopes[1]`` after it, capped at vmax.  Below
    the rival's reserve each threshold is the bidder's own reserve; above
    it p2 follows the boundary and p1 inverts it."""
    vmax = instance.common_vmax()
    r1, r2 = ma.optimal_reserves(instance).reserves_canonical
    xs, ys = [r1], [r2]
    for a, b, s in ((r1, 0.5 * (r1 + vmax), slopes[0]),
                    (0.5 * (r1 + vmax), vmax, slopes[1])):
        if ys[-1] >= vmax:
            break
        x_hit = a + (vmax - ys[-1]) / s
        if x_hit < b:
            xs.append(x_hit)
            ys.append(vmax)
        else:
            xs.append(b)
            ys.append(ys[-1] + s * (b - a))
    if xs[-1] < vmax:
        xs.append(vmax)
        ys.append(vmax)
    xs, ys = np.array(xs), np.array(ys)
    c1 = np.unique(np.concatenate([[0.0, vmax], xs]))
    c2 = np.unique(np.concatenate([[0.0, vmax], ys]))
    p2 = np.interp(c1, xs, ys)
    rising = np.concatenate([[True], np.diff(ys) > 0.0])
    p1 = np.where(c2 > ys[-1], vmax, np.interp(c2, ys[rising], xs[rising]))
    return ma.GridMechanism([c1, c2], [p1, p2])
