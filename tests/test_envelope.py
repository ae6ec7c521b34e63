"""Nature's lower-envelope table and the audit's Lagrangian, both on one
winner rule, against the routines they replaced: the per-node two-bidder
no-sale test (``_zero_reachable_2d`` in its double loop over the grid) and
``lagrangian_on_grid``'s own win and no-sale loop.  Same tables and values,
the same bits.  ``dual_value`` sums ``lam_i * v_i`` term by term where it
took a matrix product, so it is held to a few ulps instead."""

import numpy as np
import pytest

import maxmin_auction as ma
from brute_force_oracle import grid_nodes
from generators import (excluded_lsa, random_excluded_mechanism,
                        random_score_auction, tabulated_auction)
from maxmin_auction import nature
from maxmin_auction.improve import AffineThresholds


def reference_zero_reachable_2d(mech, x, y, p1, p2, tol):
    if x > p1 + tol or y > p2 + tol:
        return False
    act1 = x >= p1 - tol
    act2 = y >= p2 - tol
    if not act1 and not act2:
        return True
    vmax = mech.vmax
    c1, c2 = mech.coords[1], mech.coords[0]
    can_x_dn, can_x_up = x > tol, x < vmax[0] - tol
    can_y_dn, can_y_up = y > tol, y < vmax[1] - tol

    def slopes(i, c, z):
        def cell(a, b):
            return (mech.threshold(i, [b]) - mech.threshold(i, [a])) / (b - a)

        k = int(np.searchsorted(c, z + tol) - 1)
        k = min(max(k, 0), len(c) - 1)
        if abs(z - c[k]) <= tol:
            lo = cell(c[k - 1], c[k]) if k > 0 else 0.0
            hi = cell(c[k], c[k + 1]) if k < len(c) - 1 else 0.0
        else:
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


def reference_lower_revenue_table(mech, coords):
    coords = [np.asarray(c, dtype=float) for c in coords]
    n = len(coords)
    shape = tuple(len(c) for c in coords)
    scale = max(1.0, max(float(c[-1]) for c in coords))
    tol = 1e-9 * scale
    value_grids = np.meshgrid(*coords, indexing="ij")
    if isinstance(mech, ma.LinearScoreAuction):
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
        if all(mech.reserve(i) > 0.0 for i in mech.included()):
            no_sale = np.ones(shape, dtype=bool)
            for i in mech.included():
                no_sale &= value_grids[i] <= mech.reserve(i) + tol
            t[no_sale] = np.minimum(t[no_sale], 0.0)
        return t
    tables = mech.tables(coords)
    t = np.full(shape, np.inf)
    below = np.ones(shape, dtype=bool)
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
                elif below[a, b] and reference_zero_reachable_2d(
                        mech, x, y, tables[0][b], tables[1][a], tol):
                    t[a, b] = 0.0
    else:
        t[below] = np.minimum(t[below], 0.0)
    return t


def reference_lagrangian(thresholds, lam, instance, coords):
    lam = np.asarray(lam, dtype=float)
    coords = [np.asarray(c, dtype=float) for c in coords]
    n = len(coords)
    tol = 1e-12 * max(1.0, max(float(c[-1]) for c in coords))
    tables = thresholds.tables(coords)
    grids = np.meshgrid(*coords, indexing="ij")
    lam_dot_v = sum(lam[i] * grids[i] for i in range(n))
    best = np.inf
    no_sale = np.ones(grids[0].shape, dtype=bool)
    for i in range(n):
        p_i = np.expand_dims(tables[i], axis=i)
        win = grids[i] >= p_i - tol
        if np.any(win):
            best = min(best, float(np.min((p_i - lam_dot_v)[win])))
        no_sale &= grids[i] < p_i
    if np.any(no_sale):
        best = min(best, float(np.min(-lam_dot_v[no_sale])))
    return float(lam @ instance.mean_vector + best)


def reference_dual_value(coords, t, instance, lam):
    nodes = grid_nodes(coords)
    tvals = np.asarray(t, dtype=float).ravel()
    lam = np.asarray(lam, dtype=float)
    return float(lam @ instance.mean_vector + np.min(tvals - nodes @ lam))


def corpus():
    """Seeded generator mechanisms: score and tabulated auctions, excluded
    bidders, LSAs with and without a zero reserve, and unequal bounds."""
    rng = np.random.default_rng(4104)
    out = []
    for n in (2, 3):
        out += [random_score_auction(rng, n) for _ in range(8)]
        out += [tabulated_auction(rng, n) for _ in range(3)]
        out += [ma.corner_hitting(rng.uniform(0.0, 0.9, n), [1.0] * n)
                for _ in range(3)]
        out += [excluded_lsa(rng, n, 1) for _ in range(2)]
        zero = rng.uniform(0.0, 0.9, n)
        zero[-1] = 0.0
        out.append(ma.corner_hitting(zero, [1.0] * n))
    out += [random_excluded_mechanism(rng) for _ in range(4)]
    for vmax in ([1.0, 1.6], [1.5, 1.0]):         # unequal bounds
        lsa = ma.corner_hitting(rng.uniform(0.0, 0.9, 2) * vmax, vmax)
        out += [lsa, ma.grid_from_lsa(lsa, nature.breakpoint_coords(lsa))]
    return out


MECHANISMS = corpus()
IDS = [f"{type(m).__name__}{m.n}-{k}" for k, m in enumerate(MECHANISMS)]


def grids(mech):
    """The breakpoint grid and the breakpoint grid with a 0.05 step."""
    return [nature.breakpoint_coords(mech),
            nature.breakpoint_coords(mech, step=0.05)]


def instance_and_multipliers(mech, k):
    rng = np.random.default_rng(500 + k)
    inst = ma.Instance(mech.n, rng.uniform(0.15, 0.85, mech.n), mech.vmax)
    return inst, [rng.uniform(-0.3, 1.5, mech.n), rng.uniform(0.0, 1.5, mech.n),
                  np.zeros(mech.n)]


def test_corpus_reaches_both_no_sale_outcomes():
    """The two-bidder grid tables set zeros off the strict no-sale region,
    and the reachability test leaves some weakly-below nodes alone."""
    zeroed = kept = 0
    for mech in MECHANISMS:
        if mech.n != 2 or not isinstance(mech, ma.GridMechanism):
            continue
        for coords in grids(mech):
            tol = 1e-9 * max(1.0, max(float(c[-1]) for c in coords))
            t = nature.lower_revenue_table(mech, coords)
            p1, p2 = mech.tables(coords)
            x, y = coords[0][:, None], coords[1][None, :]
            weak = (x <= p1[None, :] + tol) & (y <= p2[:, None] + tol)
            strict = (x < p1[None, :] - tol) & (y < p2[:, None] - tol)
            zeroed += int(np.sum((t == 0.0) & weak & ~strict))
            kept += int(np.sum((t != 0.0) & weak))
    assert zeroed > 0 and kept > 0


@pytest.mark.parametrize("mech", MECHANISMS, ids=IDS)
def test_lower_revenue_table_matches_reference(mech):
    for coords in grids(mech):
        new = nature.lower_revenue_table(mech, coords)
        old = reference_lower_revenue_table(mech, coords)
        assert new.shape == old.shape
        assert np.array_equal(new, old)


@pytest.mark.parametrize("k, mech", enumerate(MECHANISMS), ids=IDS)
def test_lagrangian_matches_reference(k, mech):
    inst, lams = instance_and_multipliers(mech, k)
    for coords in grids(mech):
        for lam in lams:
            assert ma.lagrangian_on_grid([mech], lam, inst, coords)[0] == \
                reference_lagrangian(mech, lam, inst, coords)


@pytest.mark.parametrize("n", (2, 3))
def test_lagrangian_matches_reference_on_affine_thresholds(n):
    rng = np.random.default_rng(4105 + n)
    for _ in range(8):
        pt = AffineThresholds(rng.uniform(-0.3, 0.5, n),
                              rng.uniform(0.0, 1.5, n), (1.0,) * n)
        inst = ma.Instance(n, rng.uniform(0.15, 0.85, n), 1.0)
        coords = [np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 6)]))
                  for _ in range(n)]
        assert ma.lagrangian_on_grid([pt], pt.lam, inst, coords)[0] == \
            reference_lagrangian(pt, pt.lam, inst, coords)


@pytest.mark.parametrize("k, mech", enumerate(MECHANISMS), ids=IDS)
def test_dual_value_within_a_few_ulps(k, mech):
    """Bound set from the dtype: both sums of n products round at most n
    times each, and the subtraction and the final sum once more each."""
    inst, lams = instance_and_multipliers(mech, k)
    for coords in grids(mech):
        t = nature.lower_revenue_table(mech, coords)
        for lam in lams:
            scale = max(1.0, float(np.abs(lam) @ np.asarray(mech.vmax))
                        + max(mech.vmax) + abs(float(lam @ inst.mean_vector)))
            new = nature.dual_value(coords, t, inst, lam)
            old = reference_dual_value(coords, t, inst, lam)
            assert abs(new - old) <= 2 * (mech.n + 2) * 2.3e-16 * scale
            assert nature.dual_value(coords, t.ravel(), inst, lam) == new
