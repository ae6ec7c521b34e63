"""The face-by-face corner map and the unrolled one- and two-axis
interpolation give the bits of the full pinned map and the generic loop
(``corner_map_reference``): corners, breakpoint grids and interpolated
values compare by their bytes, so even the sign of a zero must agree."""

import itertools

import numpy as np
import pytest

import maxmin_auction as ma
from corner_map_reference import generic_multilinear, map_corner_points
from generators import excluded_lsa, random_score_auction, tabulated_auction
from maxmin_auction import core, nature
from test_corner_map import (CORNER_CASES, capped_mechanism,
                             still_capped_mechanism)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_coords(mech):
    """``breakpoint_coords`` with the reference corners merged."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nature, "_map_corner_points", map_corner_points)
        return nature.breakpoint_coords(mech)


def assert_matches_reference(mech):
    corners = nature._map_corner_points(mech)
    ref = map_corner_points(mech)
    assert len(corners) == len(ref) == 2 * (2 ** mech.n - 1)
    assert np.array_equal(corners, ref) and same_bits(corners, ref)
    new, old = nature.breakpoint_coords(mech), reference_coords(mech)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert np.array_equal(a, b) and same_bits(a, b)


FACE_CASES = [(k, m) for k, m in CORNER_CASES if m.n >= 3]


@pytest.mark.parametrize("kind, mech", FACE_CASES, ids=[
    f"{k}-{i}" for i, (k, _) in enumerate(FACE_CASES)])
def test_corner_cases_match_the_full_map(kind, mech):
    assert_matches_reference(mech)


@pytest.mark.parametrize("make", [capped_mechanism, still_capped_mechanism])
def test_capped_mechanisms_match_the_full_map(make):
    assert_matches_reference(make())


def fresh_mechanisms():
    """150 grid mechanisms per n = 3, 4: score auctions, tabulated
    auctions and tabulated auctions with one or two bidders excluded."""
    rng = np.random.default_rng(2026)
    out = []
    for n in (3, 4):
        out += [random_score_auction(rng, n) for _ in range(60)]
        out += [tabulated_auction(rng, n) for _ in range(50)]
        for k in range(40):
            lsa = excluded_lsa(rng, n, 1 + k % 2)
            out.append(ma.grid_from_lsa(lsa, nature.breakpoint_coords(lsa)))
    return out


def test_fresh_generator_mechanisms_match_the_full_map():
    mechs = fresh_mechanisms()
    assert len(mechs) == 300
    for mech in mechs:
        assert_matches_reference(mech)


def edge_tables(rng, shape, vmax=1.0):
    """Random entries in [0, vmax] with the two ends of the table tolerance,
    -1e-12 and vmax + 1e-12, then (where there is room) both bounds placed
    among them."""
    t = rng.uniform(0.0, vmax, shape)
    flat, edges = t.reshape(-1), [-1e-12, vmax + 1e-12, 0.0, vmax]
    flat[rng.permutation(flat.size)[:4]] = edges[:min(4, flat.size)]
    return t


AXES = [np.array([0.0, 1.0]), np.array([0.0, 0.3, 0.7, 1.0]),
        np.array([0.0, 0.1, 0.2, 0.55, 0.6, 1.0])]
POINTS = [-0.5, -1e-12, 0.0, 0.1, 0.3, 0.42, 0.7, 1.0, 1.0 + 1e-12, 1.5]
WEIGHTS = [0.0, 1.0, 0.25, -0.3, 1.7]           # unclamped, as Newton's are


@pytest.mark.parametrize("d", [1, 2])
def test_unrolled_paths_match_the_loop(d):
    """At located points (w = 0 at nodes, w = 1 at the top node, points
    beyond both ends clamped) and at raw weights outside [0, 1], on two-point
    and longer axes."""
    rng = np.random.default_rng(d)
    for axes in itertools.product(AXES, repeat=d):
        table = edge_tables(rng, tuple(len(c) for c in axes))
        flat, shape = table.ravel().tolist(), table.shape
        grid = [[core.locate(c.tolist(), x) for x in POINTS] for c in axes]
        grid = [g + [(k, w) for k in (0, len(c) - 2) for w in WEIGHTS]
                for g, c in zip(grid, axes)]
        for cells in itertools.product(*grid):
            got = core.multilinear(flat, shape, list(cells))
            assert same_bits(got, generic_multilinear(flat, shape, cells))


@pytest.mark.parametrize("n", [2, 3])
def test_grid_threshold_matches_the_loop_beyond_the_box(n):
    """``GridMechanism.threshold`` (one or two rival axes) at rival values
    inside, on and beyond both ends of two-point and longer axes."""
    rng = np.random.default_rng(10 + n)
    coords = [AXES[0], AXES[2], AXES[1]][:n]
    tables = [edge_tables(rng, tuple(len(c) for j, c in enumerate(coords)
                                     if j != i)) for i in range(n)]
    mech = ma.GridMechanism(coords, tables)
    for i in range(n):
        axes = [c for j, c in enumerate(coords) if j != i]
        flat = mech.thresholds[i].ravel()
        for v in itertools.product(POINTS, repeat=n - 1):
            cells = [core.locate(c, float(x)) for c, x in zip(axes, v)]
            ref = generic_multilinear(flat, mech.thresholds[i].shape, cells)
            assert same_bits(mech.threshold(i, list(v)), ref)


def test_coordinates_just_below_zero_stay_within_the_stop_rule():
    """A coordinate list may start anywhere within 1e-12 of 0.  The full map
    locates a pinned 0 on a list that starts at -1e-13 at a weight of about
    1e-13 / width past the first node; a face reads the first node itself.
    The corners and breakpoint grids stay within the map's 1e-10 stop rule
    of the full map's."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        mech = random_score_auction(rng, 3)
        coords = [c.copy() for c in mech.coords]
        for c in coords[:2]:
            c[0] = -1e-13
        mech = ma.GridMechanism(coords, mech.thresholds)
        corners, ref = nature._map_corner_points(mech), map_corner_points(mech)
        assert len(corners) == len(ref) == 14
        assert np.allclose(corners, ref, rtol=0.0, atol=1e-10)
        new, old = nature.breakpoint_coords(mech), reference_coords(mech)
        assert [len(a) for a in new] == [len(b) for b in old]
        for a, b in zip(new, old):
            assert np.allclose(a, b, rtol=0.0, atol=1e-10)
