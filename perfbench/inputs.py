"""Seeded input generators for the benchmark.

They mirror the distributions of the test suite's generators but live here,
so that an edit to the tests cannot silently change what the benchmark runs.
Every function draws only from the ``numpy.random.Generator`` it is given.
"""

from __future__ import annotations

import itertools

import numpy as np

import maxmin_auction as ma
from maxmin_auction import nature, solve


def instance(rng, n, lo=0.08, hi=0.92, vmax=1.0):
    """Means drawn from U(lo, hi) * vmax, common upper bound vmax."""
    return ma.Instance(n, rng.uniform(lo, hi, n) * vmax, vmax)


def corner_reserves(inst, u, zero_roll, top_roll, pick):
    """Reserves ``u * vmax`` for U(0, 1) draws ``u``; when ``zero_roll`` is
    below 0.15 one reserve is pinned at 0, when ``top_roll`` is below 0.1 one
    at vmax (an excluded bidder).  ``pick`` holds U(0, 1) draws choosing
    which bidder, and whose bound, each edge uses."""
    vm = inst.vmax_vector
    r = np.asarray(u, dtype=float) * vm
    n = inst.n
    if zero_roll < 0.15:
        r[int(pick[0] * n)] = 0.0
    if top_roll < 0.1:
        r[int(pick[1] * n)] = vm[int(pick[2] * n)]
    return r


def score_auction(rng, n, vmax=1.0):
    """Feasible grid mechanism from strictly increasing piecewise-linear
    scores: bidder i wins when her score beats every rival's and zero."""
    extra_coords = 2 if n == 2 else 1
    knots, vals = [], []
    for _ in range(n):
        k = int(rng.integers(2, 5 if n == 2 else 4))
        xs = np.array([0.0, vmax])
        if k > 2:
            inner = np.sort(rng.uniform(0.05, 0.95, k - 2)) * vmax
            xs = np.concatenate([[0.0], inner, [vmax]])
        lo = rng.uniform(-0.6, 0.3)
        hi = rng.uniform(max(lo + 0.2, 0.2), 1.4)
        ys = np.sort(rng.uniform(lo, hi, len(xs)))
        ys[0], ys[-1] = lo, hi
        knots.append(xs)
        vals.append(np.maximum.accumulate(ys + np.linspace(0.0, 1e-6, len(xs))))

    def inverse(i, target):
        if target > vals[i][-1]:
            return vmax
        return float(np.interp(target, vals[i], knots[i]))

    # the score-zero value on each axis keeps thresholds flat below reserves
    coords = [np.unique(np.concatenate([knots[i], [0.0, vmax, inverse(i, 0.0)],
                                        rng.uniform(0.0, vmax, extra_coords)]))
              for i in range(n)]
    tables = []
    for i in range(n):
        rivals = [j for j in range(n) if j != i]
        axes = [coords[j] for j in rivals]
        t = np.empty(tuple(len(a) for a in axes))
        for node in itertools.product(*(range(len(a)) for a in axes)):
            best = max([0.0] + [float(np.interp(axes[d][k], knots[j], vals[j]))
                                for d, (j, k) in enumerate(zip(rivals, node))])
            t[node] = inverse(i, best)
        tables.append(t)
    return ma.GridMechanism(coords, tables)


def excluded_mechanism(rng, vmax=1.0):
    """Two bidders: the first priced out, the second facing an affine price."""
    base = rng.uniform(0.05, 0.4)
    slope = rng.uniform(0.05, min(0.5, (vmax - base) / vmax - 0.01))
    c = np.unique(np.concatenate([[0.0, vmax], rng.uniform(0, vmax, 3)]))
    coords = [c, np.unique(np.concatenate([[0.0, vmax], base + slope * c]))]
    return ma.GridMechanism(coords, [np.full(len(coords[1]), vmax),
                                     base + slope * coords[0]])


def tabulated_auction(reserves, vmax=1.0):
    """A corner-hitting auction tabulated on its own breakpoint grid."""
    lsa = ma.corner_hitting(reserves, [vmax] * len(reserves))
    return ma.grid_from_lsa(lsa, nature.breakpoint_coords(lsa))


def stratified(rng, count):
    """``count`` draws from U(0, 1), one in each interval [k, k+1) / count,
    in random order: a mix drawn with them has the mix's exact shares."""
    return (rng.permutation(count) + rng.random(count)) / count


def feasible_mechanism(rng, n, roll, vmax=1.0):
    """The acceptance gate's mix of feasible grid mechanisms, picked by a
    U(0, 1) ``roll``.

    Returns ``(kind, mechanism, reserves)``; ``reserves`` is set only for the
    kind ``"auction"``, whose exact guarantee ``lsa_guarantee`` knows.
    """
    if roll < 0.45:
        return "score", score_auction(rng, n, vmax), None
    if roll < 0.75 or n != 2:
        r = rng.uniform(0.0, 0.9, n) * vmax
        return "auction", tabulated_auction(r, vmax), r
    return "excluded", excluded_mechanism(rng, vmax), None


def optimal_member(rng, inst):
    """A two-bidder grid mechanism inside the optimal envelope."""
    vmax = inst.common_vmax()
    sol = ma.optimal_reserves(inst)
    lam = sol.lambda_star
    r1, r2 = sol.reserves_canonical
    low = sol.regime is solve.Regime.LOW_MEANS

    ks = np.sort(rng.uniform(r1 + 0.05 * (vmax - r1),
                             vmax - 0.05 * (vmax - r1), 2))
    plan = np.array([r1, *ks, vmax])
    xs, ys = [r1], [r2]
    hit = False
    for a, b in zip(plan[:-1], plan[1:]):
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

    def inverse(w):
        if w > ys_s[-1] + 1e-12:
            return vmax
        return float(np.interp(w, ys_s, xs_s))

    c1 = np.unique(np.concatenate([[0.0, 0.5 * r1], xs, [vmax]]))
    c2 = np.unique(np.concatenate([[0.0, 0.5 * r2], ys, [vmax]]))
    p2 = np.array([np.interp(w, xs, ys) if w >= r1 - 1e-15
                   else below(w, 1, lam[0], lam[1]) for w in c1])
    p1 = np.array([inverse(w) if w >= r2 - 1e-15
                   else below(w, 0, lam[1], lam[0]) for w in c2])
    return ma.GridMechanism([c1, c2], [p1, p2])


def near_miss_reserves(rng, inst):
    """Reserves moved 0.05 to 0.12 off the optimal set on one coordinate."""
    r = ma.optimal_reserves(inst).reserves_canonical.copy()
    which = int(rng.integers(2))
    delta = float(rng.uniform(0.05, 0.12)) * float(rng.choice([-1.0, 1.0]))
    r[which] = float(np.clip(r[which] + delta, 0.02, 0.95))
    return r


def wc_reserves(rng, inst, tries=200):
    """Two-bidder reserves below the means whose worst case is type I or II,
    or None when no draw lands there."""
    m = inst.mean_vector
    for _ in range(tries):
        r = rng.uniform(0.05, 0.95, 2) * np.maximum(m - 0.02, 0.0)
        try:
            kind = nature.wcdistr2_classify(r, inst)
        except ma.BoundaryError:
            continue
        if kind in (nature.WorstCaseType.I, nature.WorstCaseType.II):
            return r
    return None
