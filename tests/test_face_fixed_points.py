"""A two-bidder face of the corner map is solved exactly, with no
iteration: its corners are the least and greatest roots of
g(x) = f_a(f_b(x)) - x, found by a sweep over g's pieces.  They must match
``face_oracle``'s dense scan to 1e-12 and be fixed points of the face's
clamped map to 1e-12 (times the largest bound, when that exceeds 1), on
the starts an iterating map left at its step cap and on drawn faces:
coincident segments reaching 0 or the bound, flat curves, entries 1e-12
outside [0, vmax], unequal bounds and non-monotone tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxmin_auction as ma
from face_oracle import face_corners, free_counts, in_band_between
from generators import random_score_auction
from maxmin_auction import nature
from test_corner_faces import assert_corners_by_face, fresh_mechanisms
from test_corner_map import (capped_mechanism, pinned_map_residuals,
                             still_capped_mechanism)


def seed7_auctions():
    """The generators' three-bidder score auctions at seed 7, drawn after
    90 two-bidder ones (``still_capped_mechanism`` is the sixteenth)."""
    rng = np.random.default_rng(7)
    for _ in range(90):
        random_score_auction(rng, 2)
    return [random_score_auction(rng, 3) for _ in range(90)]


SEED7 = seed7_auctions()
# two-bidder starts left at the step cap: by the plain reference loop on
# ``capped_mechanism``, by the map with its cell solves on the others
CAPPED = {"capped": capped_mechanism, "still-capped": still_capped_mechanism,
          **{f"seed7-{k}": (lambda k=k: SEED7[k]) for k in (15, 48, 54)},
          **{f"fresh-{k}": (lambda k=k: fresh_mechanisms()[k])
             for k in (20, 188, 199, 204)}}


@pytest.mark.parametrize("name", CAPPED)
def test_one_and_two_bidder_corners_are_fixed_points(name):
    mech = CAPPED[name]()
    corners = nature._map_corner_points(mech)
    small = free_counts(mech.n) <= 2
    assert np.all(pinned_map_residuals(mech, corners)[small] <= 1e-12)


def test_seed7_auctions_match_the_oracle_by_face():
    for mech in SEED7:
        assert_corners_by_face(mech, nature._map_corner_points(mech))


def two_bidder(ca, cb, ta, tb):
    """A two-bidder grid mechanism: p_a tabulated over ``cb``, p_b over
    ``ca``.  Its corner map's first two starts are the two-bidder face."""
    return ma.GridMechanism([ca, cb], [ta, tb])


def assert_face_matches_the_oracle(mech):
    """Corners within 1e-12 of the oracle's, or, where they differ by
    more, on one stretch of v_a where |g| stays within the tolerance: a
    root within the band is defined only up to such a stretch, and the
    sweep meets g at breakpoints the oracle does not see (a kink of f_b
    where f_a is flat, say)."""
    corners = nature._map_corner_points(mech)[:2]
    for got, want in zip(corners, face_corners(mech, 0, 1)):
        assert (np.all(np.abs(np.subtract(got, want)) <= 1e-12)
                or in_band_between(mech, 0, 1, got[0], want[0]))
    tol = 1e-12 * max(1.0, max(mech.vmax))         # the map's own tolerance
    assert np.all(pinned_map_residuals(mech, corners)[:2] <= tol)
    return corners


BOUNDS = st.sampled_from([1.0, 2.5, 0.6]) | st.floats(0.5, 2.5)
EDGES = [-1e-12, 0.0, 1.0, 1.0 + 1e-12]          # times the bound, + 1e-12


@st.composite
def unit_axis(draw):
    """0, interior nodes on a 1/100 lattice, 1."""
    inner = draw(st.sets(st.integers(1, 99), max_size=5))
    return np.array([0.0, *sorted(inner), 100.0]) / 100.0


@st.composite
def table(draw, size, top, monotone):
    """``size`` entries in [0, top], some at the table tolerance's ends."""
    unit = st.sampled_from(EDGES) | st.floats(0.0, 1.0)
    values = np.array(draw(st.lists(unit, min_size=size, max_size=size)))
    if monotone:
        values.sort()
    out = values * top
    out[values == EDGES[0]] = -1e-12
    out[values == EDGES[3]] = top + 1e-12
    return out


@st.composite
def faces(draw):
    """A two-bidder face of one drawn kind, with drawn, often unequal,
    bounds."""
    kind = draw(st.sampled_from(["free", "monotone", "flat", "coincident"]))
    top_a, top_b = draw(BOUNDS), draw(BOUNDS)
    ua, ub = draw(unit_axis()), draw(unit_axis())
    if kind == "coincident":          # p_a and p_b^-1 agree on a run of nodes
        ub = ua
        k = len(ua)
        lo, hi = sorted(draw(st.lists(st.integers(0, k - 1), min_size=2,
                                      max_size=2)))
        lo, hi = draw(st.sampled_from([(0, hi), (lo, k - 1), (lo, hi)]))
        ta = draw(table(k, top_a, True))
        tb = draw(table(k, top_b, True))
        ta = np.clip(ta, None, ua[lo] * top_a)     # below the run, then above
        ta[hi:] = np.maximum(ta[hi:], ua[hi] * top_a)
        tb = np.clip(tb, None, ua[lo] * top_b)
        tb[hi:] = np.maximum(tb[hi:], ua[hi] * top_b)
        ta[lo:hi + 1] = ua[lo:hi + 1] * top_a
        tb[lo:hi + 1] = ua[lo:hi + 1] * top_b
    else:
        monotone = kind != "free"
        ta = draw(table(len(ub), top_a, monotone))
        tb = draw(table(len(ua), top_b, monotone))
        if kind == "flat":
            ta[:] = ta[draw(st.integers(0, len(ta) - 1))]
    return kind, two_bidder(ua * top_a, ub * top_b, ta, tb)


@given(faces())
@settings(max_examples=400, deadline=None)
def test_drawn_faces_match_the_oracle(case):
    kind, mech = case
    (a0, b0), (a1, b1) = assert_face_matches_the_oracle(mech)
    if kind != "free":                    # monotone: the least lies below
        assert a0 <= a1 and b0 <= b1


def test_coincident_segments_reaching_both_ends():
    """p_a(y) = y and p_b(x) = x: every point of the diagonal is fixed, so
    the corners are (0, 0) and the top of the box, at unequal bounds too."""
    for top_a, top_b in ((1.0, 1.0), (1.5, 0.75)):
        c = np.array([0.0, 0.3, 0.7, 1.0])
        mech = two_bidder(c * top_a, c * top_b, c * top_a, c * top_b)
        assert assert_face_matches_the_oracle(mech) == [(0.0, 0.0),
                                                        (top_a, top_b)]


def test_non_monotone_table():
    """p_b(x) = x and p_a falls from 0.5 to 0 and rises to 1: fixed points
    at 1/3, 2/3 and 1 on the diagonal.  Iterating from the bottom of the box
    cycles through (0, 0), (0.5, 0), (0.5, 0.5), (0, 0.5) without end; the
    sweep returns the least and greatest fixed points in v_a, with
    v_b = f_b(v_a)."""
    mech = two_bidder([0.0, 1.0], [0.0, 0.25, 0.5, 0.75, 1.0],
                      [0.5, 0.5, 0.0, 1.0, 1.0], [0.0, 1.0])
    low, high = assert_face_matches_the_oracle(mech)
    assert low == pytest.approx([1 / 3, 1 / 3], abs=1e-15)
    assert high == (1.0, 1.0)


@pytest.mark.parametrize("ca, cb, ta, tb", [
    # p_a climbs from -1e-12 to 1 + 1e-12 within 0.01 and falls back: its
    # clamp at the top bends f_a inside a cell
    ([0.0, 0.01, 0.02, 0.03, 0.33, 1.0], [0.0, 0.01, 0.02, 0.03, 1.0],
     [-1e-12, 1.0 + 1e-12, -1e-12, -1e-12, -1e-12],
     [-1e-12, -1e-12, -1e-12, -1e-12, 1.0, -1e-12]),
    # p_b falls from 1 to -1e-12 within 0.01: its clamp at zero bends f_b
    ([0.0, 0.01, 1.0], [0.0, 0.01, 1.0], [0.0, 1.0, -1e-12],
     [1.0, -1e-12, -1e-12])])
def test_clamp_kinks_inside_a_cell(ca, cb, ta, tb):
    """A clamp bends f_a or f_b 1e-12 from a node, on a piece so steep
    that a sweep which did not cut g there would put the greatest corner
    more than 1e-12 off the oracle's, or off its fixed point."""
    low, high = assert_face_matches_the_oracle(two_bidder(ca, cb, ta, tb))
    assert low[0] < high[0]
