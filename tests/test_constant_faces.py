"""A face of the n >= 3 corner map with one free bidder has a constant map,
which the library reads directly instead of iterating: the corners keep the
bits of the full pinned map (``corner_map_reference``), the sign of a zero
and a threshold at or just below the bound included, and so do faces with
three or more free bidders, while two-bidder faces match ``face_oracle``;
only faces with three or more free bidders locate points and step the map;
and the map's debug line counts the generator mechanisms' starts by how
each was found."""

import logging
import math
import re

import numpy as np
import pytest

import maxmin_auction as ma
from generators import random_score_auction
from maxmin_auction import core, nature
from test_corner_faces import assert_corners_by_face, fresh_mechanisms


def with_zero_node(mech, value, bounds):
    """``mech`` rescaled to the per-bidder ``bounds`` (axes and tables
    alike), with every table's entry at the all-zero rival profile set to
    ``value(vmax_i)``."""
    coords = [c * b for c, b in zip(mech.coords, bounds)]
    tables = []
    for t, b in zip(mech.thresholds, bounds):
        t = t * b
        t[(0,) * t.ndim] = value(b)
        tables.append(t)
    return ma.GridMechanism(coords, tables)


ZERO_NODES = {
    "minus-zero": lambda b: -0.0,
    "at-the-bound": lambda b: b,
    "just-below-the-bound": lambda b: b - 1e-13,
    "just-below-zero": lambda b: -1e-13,
    "just-above-the-bound": lambda b: b + 1e-13,
}


@pytest.mark.parametrize("name", ZERO_NODES)
@pytest.mark.parametrize("n", [3, 4])
def test_constant_faces_keep_the_full_maps_bits(n, name):
    rng = np.random.default_rng(300 + n)
    for k in range(12):
        bounds = [1.0] * n if k % 2 else rng.uniform(0.5, 2.5, n).tolist()
        mech = with_zero_node(random_score_auction(rng, n), ZERO_NODES[name],
                              bounds)
        corners = nature._map_corner_points(mech)
        assert_corners_by_face(mech, corners)
        for i in range(n):                  # the face where i alone is free
            mask = (2 ** n - 1) ^ (1 << i)
            for point in corners[2 * mask:2 * mask + 2]:
                x = min(max(0.0 + ZERO_NODES[name](mech.vmax[i]), 0.0),
                        mech.vmax[i])
                assert point[i] == x and math.copysign(1.0, point[i]) == 1.0
                assert all(v == 0.0 for j, v in enumerate(point) if j != i)


def test_constant_faces_locate_nothing_and_step_no_map(monkeypatch):
    """Every ``_pinned_map`` call has three or more free bidders, and each
    is fed by exactly one ``core.locate`` call per free bidder: no located
    point is spent on a face with one free bidder, and a two-bidder face
    locates only inside its exact solve."""
    located, faces, sweeping = [], [], []
    locate, pinned_map = core.locate, nature._pinned_map
    face_fixed_points = nature._face_fixed_points

    def counted_locate(c, x):
        if not sweeping:
            located.append(x)
        return locate(c, x)

    def counted_map(tables, cells, vmax, tol):
        faces.append(len(tables))
        return pinned_map(tables, cells, vmax, tol)

    def sweep(*args):
        sweeping.append(True)
        try:
            return face_fixed_points(*args)
        finally:
            sweeping.pop()

    monkeypatch.setattr(core, "locate", counted_locate)
    monkeypatch.setattr(nature, "_pinned_map", counted_map)
    monkeypatch.setattr(nature, "_face_fixed_points", sweep)
    rng = np.random.default_rng(17)
    for n in (3, 4):
        for _ in range(5):
            assert len(nature._map_corner_points(
                random_score_auction(rng, n))) == 2 * (2 ** n - 1)
    assert faces and min(faces) >= 3
    assert len(located) == sum(faces)


def test_debug_counts_over_the_generator_mechanisms(caplog):
    """The totals of the map's debug line over ``fresh_mechanisms``, which
    prints when a start was solved in its cell or capped.  When every start
    iterated (constant faces counted as converged by iteration) the totals
    over its 120 lines were 2,640 starts, 1,618 solved in their cell, 1,018
    converged by iteration and 4 capped, all four capped starts on
    two-bidder faces."""
    mechs = fresh_mechanisms()
    with caplog.at_level(logging.DEBUG, logger="maxmin_auction.nature"):
        for mech in mechs:
            nature._map_corner_points(mech)
    counts = [[int(x) for x in re.fullmatch(
        r"corner map: (\d+) starts, (\d+) read off two-bidder faces, (\d+) "
        r"solved in their cell, (\d+) converged by iteration, (\d+) left at "
        r"max_iter=200", r.getMessage()).groups()] for r in caplog.records]
    assert len(counts) == 120
    assert np.sum(counts, axis=0).tolist() == [2640, 1080, 659, 901, 0]
