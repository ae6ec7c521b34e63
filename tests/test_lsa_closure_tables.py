"""A score auction's breakpoint closure tabulates its unclamped tables once,
clips them for the thresholds it merges, and hands them to the lower
envelope when its round ran on the returned axes, so ``_price`` tabulates
an LSA once on its final grid.  ``_price`` must still give the bits of the
public composition: ``breakpoint_coords``, then ``lower_revenue_table``,
then ``worst_case_lp``, with ``mech.tables(grid)`` for the tables."""

from collections import Counter

import numpy as np
import pytest

import maxmin_auction as ma
from maxmin_auction import nature
from maxmin_auction.core import LinearScoreAuction
from test_corner_faces import same_bits

# name: (reserves, bounds, means)
CASES = {
    "two-bidders": ([0.3, 0.45], [1.0, 1.0], [0.64, 0.64]),
    "three-bidders": ([0.3, 0.4, 0.5], [1.0, 1.0, 1.0], [0.5, 0.5, 0.5]),
    "zero-reserve": ([0.0, 0.3, 0.4], [1.0, 1.0, 1.0], [0.5, 0.6, 0.7]),
    "excluded-bidder": ([0.3, 0.2, 1.0], [1.0, 1.0, 1.0], [0.5, 0.5, 0.5]),
    "unequal-bounds": ([0.3, 0.9], [1.0, 2.0], [0.6, 1.1]),
    "unequal-bounds-three": ([0.2, 0.5, 1.0], [1.0, 1.5, 2.0],
                             [0.6, 0.9, 1.2]),
}


def case(name):
    reserves, bounds, means = CASES[name]
    inst = ma.Instance(len(reserves), means, bounds)
    return ma.corner_hitting(reserves, bounds), inst


@pytest.mark.parametrize("name", CASES)
def test_lsa_tabulated_once_on_its_final_grid(monkeypatch, name):
    lsa, inst = case(name)
    _, closure = nature._breakpoint_grid(lsa, None)
    assert closure is not None                   # the round ran on the grid
    count, unclamped = Counter(), LinearScoreAuction.unclamped_table

    def counted(self, i, coords):
        count[i] += 1
        return unclamped(self, i, coords)

    monkeypatch.setattr(LinearScoreAuction, "unclamped_table", counted)
    nature._price(lsa, inst)
    assert count == {i: 1 for i in range(lsa.n)}


@pytest.mark.parametrize("step", [None, 0.1, 1.0])
@pytest.mark.parametrize("name", CASES)
def test_lsa_price_is_the_public_composition(name, step):
    lsa, inst = case(name)
    value, dist, cert, grid, tables = nature._price(lsa, inst, step)
    coords = nature.breakpoint_coords(lsa, step)
    t = nature.lower_revenue_table(lsa, coords)
    ref_value, ref_dist, ref_cert = nature.worst_case_lp(coords, t, inst)
    assert float(value).hex() == float(ref_value).hex()
    assert same_bits(dist.atoms, ref_dist.atoms)
    assert same_bits(dist.probs, ref_dist.probs)
    assert cert.lambda0.hex() == ref_cert.lambda0.hex()
    assert cert.value.hex() == ref_cert.value.hex()
    assert same_bits(cert.lam, ref_cert.lam)
    assert len(grid) == len(coords) and all(map(same_bits, grid, coords))
    assert all(map(same_bits, tables, lsa.tables(coords)))


def test_a_step_hands_no_lsa_tables_on():
    """With a step the closure merges the clamped tables alone, even when
    the uniform points add nothing (a step past the bound): the envelope
    then tabulates the unclamped ones itself."""
    lsa, _ = case("excluded-bidder")
    for step in (0.1, 1.0):
        grid, closure = nature._breakpoint_grid(lsa, step)
        assert closure is None
    assert all(map(np.array_equal, nature.breakpoint_coords(lsa, 1.0),
                   nature.breakpoint_coords(lsa)))
