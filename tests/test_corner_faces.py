"""The face-by-face corner map and the unrolled one- and two-axis
interpolation against the full pinned map and the generic loop
(``corner_map_reference``).  Faces with one free bidder and faces with three
or more keep the full map's bits, compared by bytes, so even the sign of a
zero must agree.  A two-bidder face is solved exactly, so its corners are
checked against ``face_oracle`` to 1e-12 instead, and every corner of a
face with one or two free bidders must be a fixed point of its clamped
pinned map to 1e-12 (times the largest bound, when that exceeds 1)."""

import itertools

import numpy as np
import pytest

import maxmin_auction as ma
from corner_map_reference import generic_multilinear, map_corner_points
from face_oracle import free_counts, with_oracle_faces
from generators import excluded_lsa, random_score_auction, tabulated_auction
from maxmin_auction import core, nature
from test_corner_map import (CORNER_CASES, capped_mechanism,
                             pinned_map_residuals, still_capped_mechanism)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def oracle_corners(mech):
    """The full map's corners with every two-bidder face's from
    ``face_oracle``."""
    return with_oracle_faces(mech, map_corner_points(mech))


def assert_corners_by_face(mech, corners):
    """Faces with one or three or more free bidders keep the full map's
    bits; two-bidder faces match the oracle to 1e-12; every corner of a face
    with one or two free bidders is a fixed point to the map's tolerance,
    1e-12 times the largest bound when that exceeds 1."""
    ref = map_corner_points(mech)
    ref, expected = np.array(ref), np.array(with_oracle_faces(mech, ref))
    corners, free = np.array(corners), free_counts(mech.n)
    assert len(corners) == len(ref) == 2 * (2 ** mech.n - 1)
    two = free == 2
    assert same_bits(corners[~two], ref[~two])
    assert np.all(np.abs(corners[two] - expected[two]) <= 1e-12)
    assert np.all(pinned_map_residuals(mech, corners)[free <= 2]
                  <= 1e-12 * max(1.0, max(mech.vmax)))


def reference_coords(mech):
    """``breakpoint_coords`` with :func:`oracle_corners` merged."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nature, "_map_corner_points", oracle_corners)
        return nature.breakpoint_coords(mech)


def assert_matches_reference(mech):
    """Corners by face, and the breakpoint grid within 1e-12 of the grid
    the oracle's corners give, axis lengths equal."""
    assert_corners_by_face(mech, nature._map_corner_points(mech))
    new, old = nature.breakpoint_coords(mech), reference_coords(mech)
    assert [len(a) for a in new] == [len(b) for b in old]
    for a, b in zip(new, old):
        assert np.all(np.abs(a - b) <= 1e-12)


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
    The corners of faces with one or three free bidders and the breakpoint
    grids stay within the map's 1e-10 stop rule of the full map's (two-bidder
    faces taken from the oracle), and two-bidder faces match the oracle to
    1e-12."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        mech = random_score_auction(rng, 3)
        coords = [c.copy() for c in mech.coords]
        for c in coords[:2]:
            c[0] = -1e-13
        mech = ma.GridMechanism(coords, mech.thresholds)
        corners, ref = nature._map_corner_points(mech), oracle_corners(mech)
        assert len(corners) == len(ref) == 14
        two = free_counts(3) == 2
        assert np.allclose(np.array(corners)[~two], np.array(ref)[~two],
                           rtol=0.0, atol=1e-10)
        assert np.all(np.abs(np.array(corners)[two] - np.array(ref)[two])
                      <= 1e-12)
        new, old = nature.breakpoint_coords(mech), reference_coords(mech)
        assert [len(a) for a in new] == [len(b) for b in old]
        for a, b in zip(new, old):
            assert np.allclose(a, b, rtol=0.0, atol=1e-10)
