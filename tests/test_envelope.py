"""Nature's lower-envelope table and the audit's Lagrangian, both on one
winner rule, against the routines they replaced: the per-node two-bidder
no-sale test (``_zero_reachable_2d`` in its double loop over the grid) and
``lagrangian_on_grid``'s own win and no-sale loop.  Same tables and values,
the same bits.  The reference's slopes sit on the node nearest each value
and pass over a narrow flat cell, the rule that
``test_optset.py::test_no_sale_limits_beside_a_narrow_jump`` pins: the
loop's own lookup, the last node within tol above the value, read the far
side of a narrow jump.  ``dual_value`` sums ``lam_i * v_i`` term by term
where it took a matrix product, so it is held to a few ulps instead.

The references also keep the masks that the in-place passes replaced: the
winner rule as a ``np.where`` per bidder (``audit_reference``), a score
auction's no-sale region as a boolean mask over every node, and
``worst_case_lp``'s atoms as the nodes of an N-wide ``x > PROB_TOL`` mask."""

import numpy as np
import pytest

import audit_reference
import maxmin_auction as ma
from brute_force_oracle import grid_nodes
from generators import (excluded_lsa, random_excluded_mechanism,
                        random_score_auction, tabulated_auction)
from maxmin_auction import nature
from maxmin_auction.improve import AffineThresholds
from test_optset import rising_step, step_mechanism


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
        def cell(k, step):
            # cell k's slope; a cell no wider than tol across which p_i moves
            # by no more than tol is part of its node: go on in direction
            # step to the next one; zero past either end
            while 0 <= k < len(c) - 1:
                a, b = c[k], c[k + 1]
                pa, pb = mech.threshold(i, [a]), mech.threshold(i, [b])
                if b - a > tol or abs(pb - pa) > tol:
                    return (pb - pa) / (b - a)
                k += step
            return 0.0

        # z sits on the node of c nearest it, by midpoints; within tol of
        # it, the cells beside it count, else the cell holding z
        k = sum(bool((c[j] + c[j + 1]) / 2 < z) for j in range(len(c) - 1))
        d = z - c[k]
        return (cell(k - 1 if d <= tol else k, -1),
                cell(k if d >= -tol else k - 1, 1))

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


def reference_atoms(res, A):
    """The atoms and probabilities of ``worst_case_lp`` as a boolean mask
    over every node and a masked column gather picked them."""
    keep = res.x > nature.PROB_TOL
    probs = res.x[keep]
    return A[1:, keep].T, probs / probs.sum()


def reference_dual_value(coords, t, instance, lam):
    nodes = grid_nodes(coords)
    tvals = np.asarray(t, dtype=float).ravel()
    lam = np.asarray(lam, dtype=float)
    return float(lam @ instance.mean_vector + np.min(tvals - nodes @ lam))


def corpus():
    """Seeded generator mechanisms: score and tabulated auctions, excluded
    bidders, LSAs with and without a zero reserve or any included bidder,
    and unequal bounds."""
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
    rng = np.random.default_rng(4106)
    out += [ma.corner_hitting([1.0] * n, [1.0] * n) for n in (2, 3)]
    out += [excluded_lsa(rng, 3, 2) for _ in range(2)]
    vmax = [1.2, 1.4, 1.0]                        # unequal bounds, n = 3
    lsa = ma.corner_hitting(rng.uniform(0.0, 0.9, 3) * vmax, vmax)
    out += [lsa, ma.grid_from_lsa(lsa, nature.breakpoint_coords(lsa))]
    return out + narrow_cells()


def narrow_cells():
    """Two-bidder mechanisms with a cell 1e-10 or 1e-6 wide, on either side
    of the tie tolerance, where the slope rules decide: the threshold jumps
    of ``step_mechanism`` and ``rising_step`` and ROADMAP item 1's residue
    pair, and a flat cell 1e-10 wide at the top of an axis."""
    out = []
    for w in (1e-10, 1e-6):
        c = [[0.0, 0.2, 0.8, 1.0], [0.0, 0.5, 0.5 + w, 1.0]]
        out += [step_mechanism(w), rising_step(w), ma.GridMechanism(c, c)]
    c = [0.0, 0.5882352941176471, 0.7529411764705882, 1.0 - 1e-10, 1.0]
    return out + [ma.GridMechanism(
        [[0.0, 0.4117647058823529, 0.6470588235294118, 1.0], c],
        [[0.0, 0.4117647058823529, 0.6470588235294118, 1.0, 1.0],
         [0.30000000000000004, *c[1:4]]])]


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


@pytest.mark.parametrize("mech", narrow_cells())
def test_narrow_cells_match_reference_on_a_fine_grid(mech):
    """About a hundred nodes per axis put many ties beside a narrow cell."""
    coords = nature.breakpoint_coords(mech, step=0.01)
    assert same_bits(nature.lower_revenue_table(mech, coords),
                     reference_lower_revenue_table(mech, coords))


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


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def winner_rule_cases():
    """Values and thresholds in shapes that broadcast to a 4 x 3 x 5 grid."""
    rng = np.random.default_rng(4107)
    axes = [np.sort(rng.uniform(0.0, 1.0, k)) for k in (4, 3, 5)]
    sparse = np.meshgrid(*axes, indexing="ij", sparse=True)
    dense = np.meshgrid(*axes, indexing="ij")
    p = [np.expand_dims(rng.uniform(0.0, 1.0, shape), axis=i)
         for i, shape in enumerate([(3, 5), (4, 5), (4, 3)])]
    return {
        "sparse-values": (sparse, p),
        "dense-values": (dense, p),
        "never-wins-scalar-inf": (sparse, [np.inf, p[1], p[2]]),
        "table-missing-an-axis": (sparse, [p[0][0], p[1], p[2][:, :1]]),
        "scalar-thresholds": (sparse, [0.5, 0.25, np.inf]),
        "full-shape-thresholds": (sparse, [np.broadcast_to(q, (4, 3, 5))
                                           for q in p]),
        "stacked-families": (sparse, [np.stack([q, 0.9 * q]) for q in p]),
        "one-bidder": (sparse[:1], p[:1]),
        "nan-threshold": (sparse, [np.where(p[0] > 0.5, np.nan, p[0]),
                                   p[1], p[2]]),
        "thresholds-on-nodes": (sparse, [axes[0][1], axes[1][2],
                                         np.full((4, 3, 1), axes[2][0])]),
    }


WINNER_RULE_CASES = winner_rule_cases()


@pytest.mark.parametrize("case", sorted(WINNER_RULE_CASES))
@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.3])
def test_winner_rule_keeps_its_contract(case, tol):
    """Any thresholds that broadcast to the grid give the np.where rule's
    table, a new array, and leave their inputs alone."""
    values, thresholds = WINNER_RULE_CASES[case]
    before = [np.array(a, copy=True) for a in (*values, *thresholds)]
    new = nature.least_winning_threshold(values, thresholds, tol)
    old = audit_reference.least_winning_threshold(values, thresholds, tol)
    assert same_bits(new, old)
    assert all(new is not a for a in (*values, *thresholds))
    assert all(same_bits(a, b) for a, b in
               zip(before, (*values, *thresholds)))


def box_edge_grids(lsa):
    """Grids on which a no-sale box ends exactly on a node: the breakpoint
    grid, which holds every reserve, and its 0.05 step, each with one more
    node one tol above every positive reserve below its bound."""
    tol = 1e-9 * max(1.0, max(lsa.vmax))
    out = []
    for coords in (nature.breakpoint_coords(lsa),
                   nature.breakpoint_coords(lsa, step=0.05)):
        edges = [[r + tol] if 0.0 < r and r + tol < vm else []
                 for r, vm in zip(map(lsa.reserve, range(lsa.n)), lsa.vmax)]
        out.append([np.unique(np.concatenate([c, e]))
                    for c, e in zip(coords, edges)])
    return out


def box_lsas():
    rng = np.random.default_rng(4108)
    out = []
    for n, vmax in ((2, [1.0, 1.0]), (3, [1.0, 1.0, 1.0]), (2, [1.0, 1.6]),
                    (3, [1.0, 1.4, 0.8])):
        for _ in range(3):
            out.append(ma.corner_hitting(rng.uniform(0.05, 0.9, n) * vmax,
                                         vmax))
        r = rng.uniform(0.05, 0.9, n) * vmax
        r[0] = vmax[0]                            # one bidder excluded
        out.append(ma.corner_hitting(r, vmax))
        r[0] = 0.0                                # a zero reserve: no box
        out.append(ma.corner_hitting(r, vmax))
    return out


BOX_LSAS = box_lsas()


@pytest.mark.parametrize("lsa", BOX_LSAS,
                         ids=[f"lsa{m.n}-{k}" for k, m in enumerate(BOX_LSAS)])
def test_no_sale_box_edges_match_reference(lsa):
    for coords in box_edge_grids(lsa):
        assert same_bits(nature.lower_revenue_table(lsa, coords),
                         reference_lower_revenue_table(lsa, coords))


def test_box_edge_grids_put_a_node_on_the_box_edge():
    """Each positive, in-bound reserve is a node, and so is a node exactly
    one tol above it, the last one its no-sale box holds."""
    edges = 0
    for lsa in BOX_LSAS:
        tol = 1e-9 * max(1.0, max(lsa.vmax))
        for coords in box_edge_grids(lsa):
            for i in lsa.included():
                r = lsa.reserve(i)
                if 0.0 < r and r + tol < lsa.vmax[i]:
                    assert r in coords[i] and r + tol in coords[i]
                    edges += 1
    assert edges >= 40


def solved(coords, t, instance):
    """``worst_case_lp``'s outputs, with the LP matrix and the simplex
    result it read them from."""
    seen, solve_lp = [], nature.solve_lp

    def spy(*args, **kwargs):
        seen.append((args[1], solve_lp(*args, **kwargs)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nature, "solve_lp", spy)
        out = nature.worst_case_lp(coords, t, instance)
    (A, res), = seen
    return out, A, res


def lp_cases():
    """Each corpus envelope on its grids at seeded means, at means 0.5 and
    at the nodes nearest the box's middle (degenerate final bases), and
    tables affine in v, optimal at their start, with a mean PROB_TOL from
    an end of its axis: a basic value of exactly PROB_TOL."""
    cases = []
    for k, mech in enumerate(MECHANISMS):
        inst, _ = instance_and_multipliers(mech, k)
        for coords in grids(mech):
            t = nature.lower_revenue_table(mech, coords)
            middle = [c[1:-1][np.argmin(np.abs(c[1:-1] - c[-1] / 2))]
                      if len(c) > 2 else c[-1] / 2 for c in coords]
            for means in (inst.means, [0.5] * mech.n, middle):
                cases.append((coords, t, ma.Instance(mech.n, means,
                                                     mech.vmax)))
    for means, coords in (([nature.PROB_TOL, 0.5], [[0.0, 1.0],
                                                    [0.0, 0.5, 1.0]]),
                          ([0.5, 1.0 - nature.PROB_TOL], [[0.0, 1.0]] * 2),
                          ([0.3, 0.3 + nature.PROB_TOL, 0.7],
                           [[0.0, 1.0]] * 3)):
        v = np.meshgrid(*coords, indexing="ij")
        cases.append((coords, 0.25 + 0.5 * v[0] - 0.125 * v[-1],
                      ma.Instance(len(means), means, 1.0)))
    return cases


LP_CASES = lp_cases()


def test_lp_cases_cover_their_bases():
    """Final bases out of node order among the atoms, unsorted bases with a
    basic value at most PROB_TOL, and a basic value of exactly PROB_TOL."""
    unsorted_atoms = unsorted_small = exact = 0
    for coords, t, inst in LP_CASES:
        _, _, res = solved(coords, t, inst)
        xb = res.x[res.basis]
        unsorted = bool(np.any(np.diff(res.basis) < 0))
        unsorted_atoms += bool(np.any(
            np.diff(res.basis[xb > nature.PROB_TOL]) < 0))
        unsorted_small += unsorted and bool(np.any(xb <= nature.PROB_TOL))
        exact += bool(np.any(xb == nature.PROB_TOL))
    assert unsorted_atoms >= 100 and unsorted_small >= 10 and exact >= 1


@pytest.mark.parametrize("case", range(len(LP_CASES)))
def test_worst_case_lp_atoms_match_reference(case):
    (value, dist, cert), A, res = solved(*LP_CASES[case])
    atoms, probs = reference_atoms(res, A)
    assert same_bits(dist.atoms, atoms) and same_bits(dist.probs, probs)
    assert value == res.value and same_bits(cert.lam, res.duals[1:])
