"""The corner map and the one-pass corner merge against the batched
reference loop they replaced.

The reference is the plain 200-step monotone iteration.  Where its starts
converge exactly (tabulated auctions, excluded bidders) the map must give
the same bits, except on two-bidder faces, which the map solves exactly and
``face_oracle`` checks to 1e-12.  On score auctions the map solves each
start's cell exactly, so there its corners must be fixed points to 1e-12 and
agree with every converged reference start to 1e-7."""

import itertools
import logging

import numpy as np
import pytest

import maxmin_auction as ma
from face_oracle import free_counts, with_oracle_faces
from generators import (multilinear_batch, random_excluded_mechanism,
                        random_feasible_mechanism, random_instance,
                        random_score_auction, sample_near_miss,
                        sample_optimal_member)
from maxmin_auction import nature


def reference_multilinear(table, axes, point):
    """Scalar interpolation as ``GridMechanism.threshold`` computed it before
    it moved onto ``core.multilinear``."""
    idx, weights = [], []
    for c, x in zip(axes, point):
        x = min(max(float(x), c[0]), c[-1])
        k = int(np.searchsorted(c, x, side="right") - 1)
        k = min(max(k, 0), len(c) - 2)
        idx.append(k)
        weights.append((x - c[k]) / (c[k + 1] - c[k]))
    total = 0.0
    for corner in itertools.product((0, 1), repeat=len(axes)):
        w = 1.0
        for d, bit in enumerate(corner):
            w *= weights[d] if bit else 1.0 - weights[d]
        if w:
            total += w * float(table[tuple(k + bit for k, bit in zip(idx, corner))])
    return total


def reference_corner_points(mech, max_iter=200):
    """The batched Kleene iteration: every start advances as one numpy batch.

    Returns the corner points and, per start, whether it was still moving
    at ``max_iter``.
    """
    n = mech.n
    vmax = np.asarray(mech.vmax)
    starts, pins = [], []
    for mask in range(2 ** n - 1):
        pinned = np.array([bool(mask >> i & 1) for i in range(n)])
        for base in (np.zeros(n), vmax.copy()):
            base = base.copy()
            base[pinned] = 0.0
            starts.append(base)
            pins.append(pinned)
    V = np.array(starts)
    P = np.array(pins)
    active = np.ones(len(V), dtype=bool)
    for _ in range(max_iter):
        if not active.any():
            break
        rows = np.flatnonzero(active)
        new = V[rows].copy()
        for i in range(n):
            rivals = [j for j in range(n) if j != i]
            vals = multilinear_batch(
                mech.thresholds[i], [mech.coords[j] for j in rivals],
                V[np.ix_(rows, rivals)])
            new[:, i] = np.clip(vals, 0.0, vmax[i])
        new[P[rows]] = 0.0
        moved = np.abs(new - V[rows]).max(axis=1) > 1e-10
        V[rows] = new
        active[rows] = moved
    return [v for v in V], active


def reference_breakpoint_coords(mech, max_per_axis=200, corners=None):
    """Grid-mechanism breakpoint coords, merging corners (the reference
    loop's unless given) one point and one axis at a time.  At n = 2 this is
    the corner-map grid two-bidder mechanisms took before the one-pass set."""
    n, vmax = mech.n, mech.vmax
    max_per_axis = min(max_per_axis, 40 if n == 2 else 24)
    tol = 1e-12 * max(1.0, max(vmax))
    coords = [nature.dedup_sorted([0.0, vmax[i], *mech.coords[i]], tol,
                                  snap=(0.0, vmax[i])) for i in range(n)]
    if corners is None:
        corners, _ = reference_corner_points(mech)
    corners = list(corners)
    if n == 2:
        corners.extend(nature._threshold_crossings_2d(mech))
    for point in corners:
        for i in range(n):
            coords[i] = nature.dedup_sorted(np.append(coords[i], point[i]), tol,
                                            snap=(0.0, vmax[i]))
    for _ in range(3):
        grew = False
        snapshot = [c.copy() for c in coords]
        induced = nature.threshold_tables(mech, snapshot)
        for i in range(n):
            merged = nature.dedup_sorted(np.concatenate(
                [coords[i], induced[i].ravel()]), tol, snap=(0.0, vmax[i]))
            if len(merged) > max_per_axis:
                merged = coords[i]
            if len(merged) != len(coords[i]):
                grew = True
            coords[i] = merged
        if not grew:
            break
    return coords


def tabulated_auction(rng, n):
    lsa = ma.corner_hitting(rng.uniform(0.0, 0.9, n), [1.0] * n)
    return ma.grid_from_lsa(lsa, nature.breakpoint_coords(lsa))


def mechanisms():
    rng = np.random.default_rng(2006)
    out = [("score2", random_score_auction(rng, 2)) for _ in range(12)]
    out += [("score3", random_score_auction(rng, 3)) for _ in range(12)]
    out += [("tabulated2", tabulated_auction(rng, 2)) for _ in range(4)]
    out += [("tabulated3", tabulated_auction(rng, 3)) for _ in range(4)]
    out += [("excluded", random_excluded_mechanism(rng)) for _ in range(4)]
    return out


MECHANISMS = mechanisms()


def corner_cases():
    """MECHANISMS with its two-bidder score auctions, whose breakpoint grids
    no longer come from the corner map, replaced by n = 3 and n = 4 ones."""
    rng = np.random.default_rng(2010)
    return ([("score3", random_score_auction(rng, 3)) for _ in range(6)]
            + [("score4", random_score_auction(rng, 4)) for _ in range(6)]
            + MECHANISMS[12:])


CORNER_CASES = corner_cases()


def capped_mechanism():
    """A score auction whose reference loop leaves starts at the step cap."""
    rng = np.random.default_rng(7)
    while True:
        mech = random_score_auction(rng, 3)
        if reference_corner_points(mech)[1].any():
            return mech


def still_capped_mechanism():
    """Seed 7, after 90 two-bidder auctions: the sixteenth three-bidder one.
    One start creeps down a cell whose own fixed point lies outside it and
    is still moving at the cap."""
    rng = np.random.default_rng(7)
    for _ in range(90):
        random_score_auction(rng, 2)
    for _ in range(15):
        random_score_auction(rng, 3)
    return random_score_auction(rng, 3)


def pinned_map_residuals(mech, corners):
    """Per start, how far the clamped map with the start's pins moves its
    corner, evaluated with the reference interpolation."""
    n = mech.n
    out = []
    for (mask, _), v in zip(itertools.product(range(2 ** n - 1), (0, 1)),
                            corners):
        image = np.zeros(n)
        for i in range(n):
            if not mask >> i & 1:
                axes = [mech.coords[j] for j in range(n) if j != i]
                p = reference_multilinear(mech.thresholds[i], axes,
                                          np.delete(v, i))
                image[i] = min(max(p, 0.0), mech.vmax[i])
        out.append(float(np.max(np.abs(image - np.asarray(v)))))
    return np.array(out)


@pytest.mark.parametrize("kind, mech", CORNER_CASES, ids=[
    f"{k}-{i}" for i, (k, _) in enumerate(CORNER_CASES)])
def test_corner_points_and_coords_match_reference(kind, mech):
    ref, moving = reference_corner_points(mech)
    corners = nature._map_corner_points(mech)
    assert len(corners) == len(ref)
    if kind.startswith("score"):
        # solved in their cells: exact where the reference only converged
        assert np.all(pinned_map_residuals(mech, corners) <= 1e-12)
        done = ~moving
        assert np.all(np.abs(np.array(corners)[done] - np.array(ref)[done])
                      <= 1e-7)
        old = reference_breakpoint_coords(mech, corners=corners)
    else:
        two = free_counts(mech.n) == 2
        assert np.array_equal(np.array(corners)[~two], np.array(ref)[~two])
        expected = np.array(with_oracle_faces(mech, ref))
        assert np.all(np.abs(np.array(corners)[two] - expected[two]) <= 1e-12)
        old = reference_breakpoint_coords(mech, corners=corners)
    new = nature.breakpoint_coords(mech)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert np.array_equal(a, b)


def two_bidder_pairs():
    """Instances with the generators' two-bidder grid mechanisms: score
    auctions, tabulated auctions and excluded bidders (the feasible mix),
    optimal-set members and near misses."""
    rng = np.random.default_rng(2012)
    out = []
    for _ in range(12):
        inst = random_instance(rng, n=2)
        out += [(inst, random_feasible_mechanism(rng, 2)) for _ in range(3)]
        out += [(inst, sample_optimal_member(rng, inst)),
                (inst, sample_near_miss(rng, inst))]
    return out


TWO_BIDDER = two_bidder_pairs()


def test_two_bidder_value_matches_the_corner_map_grid():
    """A two-bidder grid mechanism takes the one-pass breakpoint set; Nature's
    value on it equals the value on the grid that the corner map and three
    capped closure rounds build, within 1e-9."""
    for inst, mech in TWO_BIDDER:
        value, *_ = nature.mechanism_guarantee(mech, inst)
        coords = reference_breakpoint_coords(
            mech, corners=nature._map_corner_points(mech))
        ref, *_ = nature.worst_case_lp(
            coords, nature.lower_revenue_table(mech, coords), inst)
        assert value == pytest.approx(ref, abs=1e-9)


def reference_crossings_2d(mech):
    """The cell-pair loop the two-bidder crossings replaced: both cells'
    lines are rebuilt for every pair of cells."""
    c1, c2 = (c.tolist() for c in mech.coords)
    t1, t2 = (t.tolist() for t in mech.thresholds)
    out, eps = [], 1e-12
    for k in range(len(c2) - 1):
        for j in range(len(c1) - 1):
            y0, y1, x0, x1 = c2[k], c2[k + 1], c1[j], c1[j + 1]
            B = (t1[k + 1] - t1[k]) / (y1 - y0)
            A = t1[k] - B * y0
            D = (t2[j + 1] - t2[j]) / (x1 - x0)
            C = t2[j] - D * x0
            denom = 1.0 - B * D
            if abs(denom) < 1e-12:
                continue
            x = (A + B * C) / denom
            point = x, C + D * x
            if x0 - eps <= point[0] <= x1 + eps and \
                    y0 - eps <= point[1] <= y1 + eps:
                out.append(point)
    return out


def test_two_bidder_crossings_match_the_cell_pair_loop():
    """Each cell's line is built once; every crossing keeps its bits, on
    random feasible mechanisms, the same with rounded tables, and curves
    that run parallel (v1 = v2 twice) or step across a 1e-10 cell."""
    rng = np.random.default_rng(2031)
    mechs = [mech for _, mech in TWO_BIDDER]
    for _ in range(400):
        mech = random_feasible_mechanism(rng, 2)
        mechs += [mech, ma.GridMechanism(mech.coords, [
            np.round(t, 2) for t in mech.thresholds])]
    c = [[0, 0.2, 0.8, 1], [0, 0.5, 0.5 + 1e-10, 1]]
    mechs += [ma.GridMechanism([[0, 1], [0, 1]], [[0, 1], [0, 1]]),
              ma.GridMechanism(c, c)]
    assert not nature._threshold_crossings_2d(mechs[-2])      # parallel
    assert sum(len(reference_crossings_2d(m)) for m in mechs) > 1000
    for mech in mechs:
        assert nature._threshold_crossings_2d(mech) == \
            reference_crossings_2d(mech)


def test_two_bidder_grids_skip_the_corner_map(monkeypatch):
    def unreachable(mech):
        raise AssertionError("corner map reached")

    monkeypatch.setattr(nature, "_map_corner_points", unreachable)
    for inst, mech in TWO_BIDDER:
        nature.mechanism_guarantee(mech, inst)
        nature.breakpoint_coords(mech, step=0.05)
    with pytest.raises(AssertionError, match="corner map reached"):
        nature.breakpoint_coords(CORNER_CASES[0][1])         # n = 3


def test_capped_starts_reach_fixed_points():
    mech = capped_mechanism()
    ref, moving = reference_corner_points(mech)
    assert moving.any()
    assert np.all(pinned_map_residuals(mech, ref)[moving] > 1e-12)
    corners = nature._map_corner_points(mech)
    assert np.all(pinned_map_residuals(mech, corners) <= 1e-12)
    for a, b in zip(nature.breakpoint_coords(mech),
                    reference_breakpoint_coords(mech, corners=corners)):
        assert np.array_equal(a, b)


def test_capped_starts_are_logged(caplog):
    with caplog.at_level(logging.DEBUG, logger="maxmin_auction.nature"):
        nature._map_corner_points(capped_mechanism())
        nature._map_corner_points(still_capped_mechanism())
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.DEBUG, "corner map: 14 starts, 6 read off two-bidder "
                        "faces, 2 solved in their cell, 6 converged by "
                        "iteration, 0 left at max_iter=200"),
        (logging.DEBUG, "corner map: 14 starts, 6 read off two-bidder "
                        "faces, 2 solved in their cell, 6 converged by "
                        "iteration, 0 left at max_iter=200")]


def test_each_cell_is_solved_at_most_once_per_start(monkeypatch):
    """A face's cells are face-local, so a call is named by the face's
    bidders (read off its coordinate lists, which differ per bidder), the
    start and the key."""
    mech = still_capped_mechanism()
    axes = [tuple(c) for c in mech.coords]
    assert len(set(axes)) == mech.n
    calls = []
    solve = nature._cell_fixed_point

    def record(coords, tables, vmax, key, v, top, tol):
        face = tuple(axes.index(tuple(c)) for c in coords)
        calls.append((face, top, key))
        return solve(coords, tables, vmax, key, v, top, tol)

    monkeypatch.setattr(nature, "_cell_fixed_point", record)
    corners = nature._map_corner_points(mech)
    assert len(calls) == len(set(calls)) > 0
    assert len(corners) == 14


def line_mechanism(t1, t2):
    """Two bidders on the axes (0, 0.5, 1): p1 over v2 and p2 over v1,
    piecewise linear through the given node values; returned as the
    coordinate lists and flat tables the corner map works on."""
    c = [0.0, 0.5, 1.0]
    tables = [(list(t1), (3,)), (list(t2), (3,))]
    return [c, c], tables, (1.0, 1.0)


def cell_solve(mech, key, v, top=False):
    coords, tables, vmax = mech
    return nature._cell_fixed_point(coords, tables, vmax, key, v, top, 1e-12)


AFFINE = line_mechanism([0.2, 0.45, 0.7], [0.1, 0.35, 0.6])  # fixed (1/3, 4/15)


def test_cell_solve_needs_the_cell_to_hold_the_point():
    point = cell_solve(AFFINE, ((0, 0), (1, 1)), [0.0, 0.0])
    assert point == pytest.approx([1 / 3, 4 / 15], abs=1e-15)
    # the same lines, but the cell (1, 1) does not hold their crossing
    assert cell_solve(AFFINE, ((1, 1), (1, 1)), [0.0, 0.0]) is None


def test_cell_solve_keeps_the_iteration_side():
    key = ((0, 0), (1, 1))
    assert cell_solve(AFFINE, key, [0.4, 0.4]) is None        # from below
    assert cell_solve(AFFINE, key, [0.4, 0.4], top=True) == pytest.approx(
        [1 / 3, 4 / 15], abs=1e-15)


def test_cell_solve_needs_a_fixed_point_of_the_map():
    """The crossing of cell (1, 0)'s lines sits 2e-11 left of the cell, inside
    the cell tolerance, where p2 follows its flat left piece instead."""
    kinked = line_mechanism([0.35 - 8e-12, 0.6 - 8e-12, 0.85 - 8e-12],
                            [0.3, 0.3, 0.9])
    assert cell_solve(kinked, ((1, 0), (1, 1)), [0.0, 0.0]) is None


def test_cell_solve_keeps_the_clamp_pattern():
    """p2 sits 1e-13 below the bound, which counts as inside, not clamped."""
    near_top = line_mechanism([0.4, 0.4, 0.4], [1.0 - 1e-13] * 3)
    assert cell_solve(near_top, ((0, 1), (1, 2)), [0.3, 1.0]) is None
    assert cell_solve(near_top, ((0, 1), (1, 1)), [0.3, 1.0]) == [
        0.4, 1.0 - 1e-13]


def test_cell_solve_returns_a_point_in_the_box():
    """p2 sits 5e-13 above the bound, within the table tolerance."""
    above_top = line_mechanism([0.4, 0.4, 0.4], [1.0 + 5e-13] * 3)
    assert cell_solve(above_top, ((0, 1), (1, 1)), [0.3, 1.0]) == [0.4, 1.0]


def test_converged_map_logs_nothing(caplog):
    """Every start converged by iteration: no start solved in its cell and
    none at the cap, so the map says nothing."""
    mech = MECHANISMS[-1][1]                       # excluded: affine, converges
    assert not reference_corner_points(mech)[1].any()
    with caplog.at_level(logging.DEBUG, logger="maxmin_auction.nature"):
        corners = nature._map_corner_points(mech)
    assert not caplog.records
    assert np.all(pinned_map_residuals(mech, corners) == 0.0)


@pytest.mark.parametrize("kind, mech", MECHANISMS[::3],
                         ids=[k for k, _ in MECHANISMS[::3]])
def test_threshold_matches_reference_interpolation(kind, mech):
    rng = np.random.default_rng(11)
    n = mech.n
    for i in range(n):
        axes = [mech.coords[j] for j in range(n) if j != i]
        pts = [rng.uniform(-0.1, 1.1, n - 1) for _ in range(40)]
        pts += [np.array([a[rng.integers(len(a))] for a in axes])
                for _ in range(10)]                # nodes
        for w in pts:
            assert mech.threshold(i, w) == reference_multilinear(
                mech.thresholds[i], axes, w)
