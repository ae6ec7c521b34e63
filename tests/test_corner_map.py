"""The scalar corner map and the one-pass corner merge against the batched
reference they replaced: same starts, same steps, the same bits."""

import itertools
import logging

import numpy as np
import pytest

import maxmin_auction as ma
from generators import random_excluded_mechanism, random_score_auction
from maxmin_auction import core, nature


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

    Returns the corner points and the number of starts still moving at
    ``max_iter``.
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
            vals = core._multilinear_batch(
                mech.thresholds[i], [mech.coords[j] for j in rivals],
                V[np.ix_(rows, rivals)])
            new[:, i] = np.clip(vals, 0.0, vmax[i])
        new[P[rows]] = 0.0
        moved = np.abs(new - V[rows]).max(axis=1) > 1e-10
        V[rows] = new
        active[rows] = moved
    return [v for v in V], int(active.sum())


def reference_breakpoint_coords(mech, max_per_axis=200):
    """Grid-mechanism breakpoint coords, merging corners one point and one
    axis at a time."""
    n, vmax = mech.n, mech.vmax
    max_per_axis = min(max_per_axis, 40 if n == 2 else 24)
    tol = 1e-12 * max(1.0, max(vmax))
    coords = [nature.dedup_sorted([0.0, vmax[i], *mech.coords[i]], tol,
                                  snap=(0.0, vmax[i])) for i in range(n)]
    corners, _ = reference_corner_points(mech)
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


def capped_mechanism():
    """A score auction whose corner map leaves starts at the step cap."""
    rng = np.random.default_rng(7)
    while True:
        mech = random_score_auction(rng, 3)
        if reference_corner_points(mech)[1]:
            return mech


@pytest.mark.parametrize("kind, mech", MECHANISMS,
                         ids=[f"{k}-{i}" for i, (k, _) in enumerate(MECHANISMS)])
def test_corner_points_and_coords_match_reference(kind, mech):
    ref, _ = reference_corner_points(mech)
    assert np.array_equal(np.array(nature._map_corner_points(mech)),
                          np.array(ref))
    new = nature.breakpoint_coords(mech)
    old = reference_breakpoint_coords(mech)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert np.array_equal(a, b)


def test_capped_start_matches_reference():
    mech = capped_mechanism()
    ref, capped = reference_corner_points(mech)
    assert capped > 0
    assert np.array_equal(np.array(nature._map_corner_points(mech)),
                          np.array(ref))
    for a, b in zip(nature.breakpoint_coords(mech),
                    reference_breakpoint_coords(mech)):
        assert np.array_equal(a, b)


def test_capped_starts_are_logged(caplog):
    mech = capped_mechanism()
    _, capped = reference_corner_points(mech)
    with caplog.at_level(logging.DEBUG, logger="maxmin_auction.nature"):
        nature._map_corner_points(mech)
    records = [r for r in caplog.records if "max_iter=200" in r.getMessage()]
    assert len(records) == 1
    assert records[0].levelno == logging.DEBUG
    assert records[0].getMessage().startswith(f"corner map: {capped} of 14 ")


def test_converged_map_logs_nothing(caplog):
    mech = MECHANISMS[-1][1]                       # excluded: affine, converges
    assert reference_corner_points(mech)[1] == 0
    with caplog.at_level(logging.DEBUG, logger="maxmin_auction.nature"):
        nature._map_corner_points(mech)
    assert not caplog.records


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
