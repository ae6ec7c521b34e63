"""Nature's pricing hands the breakpoint closure's last tables to the lower
envelope when that round ran on exactly the returned axes, so a grid
mechanism is tabulated once on its final grid.  Each case is checked for
the closure it claims (rounds run, axes of the last round), and ``_price``
must give the bits of the public composition: ``breakpoint_coords``, then
``lower_revenue_table``, then ``worst_case_lp``, with ``mech.tables(grid)``
for the tables."""

from collections import Counter

import numpy as np
import pytest

import maxmin_auction as ma
from generators import random_instance, random_score_auction, tabulated_auction
from maxmin_auction import nature
from maxmin_auction.core import GridMechanism

def shifted_axis(rival_reads_it: bool) -> GridMechanism:
    """Axes [0, 0.5, 1]^3, every threshold 1 except t0[1, 1] = 0.5 - 4e-13,
    which moves axis 0's middle node within the merge tolerance: the axis
    keeps its length, so the closure stops after one round, on axes it no
    longer returns.  With ``rival_reads_it`` bidder 1's threshold is 0.5 at
    v0 = 0, so her table on the moved axis differs from the stale one."""
    t0 = np.ones((3, 3))
    t0[1, 1] = 0.5 - 4e-13
    t1 = np.ones((3, 3))
    if rival_reads_it:
        t1[0, :] = 0.5
    return GridMechanism([[0.0, 0.5, 1.0]] * 3, [t0, t1, np.ones((3, 3))])


def rising_price() -> GridMechanism:
    """CI's three-bidder grid: bidder 3's price rises 0.3, 0.45, 0.6 with
    bidder 1's value, and the middle price joins her axis in round one."""
    return GridMechanism([[0, 0.5, 1], [0, 1], [0, 0.4, 1]],
                         [np.ones((2, 3)), np.ones((3, 3)),
                          [[0.3, 0.3], [0.45, 0.45], [0.6, 0.6]]])


def score(seed, n=3):
    return random_score_auction(np.random.default_rng(seed), n)


# name: (mechanism, step, closure rounds, last round on the returned axes)
CASES = {
    "closed-after-one-round": (score(1), None, 1, True),
    "closed-after-two-rounds": (score(0), None, 2, True),
    "rising-price-two-rounds": (rising_price(), None, 2, True),
    "rising-price-unit-step": (rising_price(), 1.0, 2, True),
    "round-limit-still-growing": (score(29), None, 3, False),
    "step-grid": (score(1), 0.25, 1, False),
    "step-lsa": (ma.corner_hitting([0.3, 0.4, 0.5], 1.0), 0.1, 1, False),
    "two-bidders-not-growing": (
        tabulated_auction(np.random.default_rng(0), 2), None, 1, True),
    "shifted-axis": (shifted_axis(False), None, 1, False),
    "shifted-axis-read-by-a-rival": (shifted_axis(True), None, 1, False),
}


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def closure_rounds(monkeypatch, mech, step):
    """The axes of each ``tables`` call the breakpoint closure makes."""
    seen, tables = [], type(mech).tables

    def record(self, coords):
        seen.append([np.array(c) for c in coords])
        return tables(self, coords)

    with monkeypatch.context() as m:
        m.setattr(type(mech), "tables", record)
        coords = nature.breakpoint_coords(mech, step)
    return seen, coords


@pytest.mark.parametrize("name", CASES)
def test_case_closes_as_named(monkeypatch, name):
    mech, step, rounds, on_returned_axes = CASES[name]
    seen, coords = closure_rounds(monkeypatch, mech, step)
    assert len(seen) == rounds
    assert all(map(np.array_equal, seen[-1], coords)) is on_returned_axes
    grid, tables = nature._breakpoint_grid(mech, step)
    assert all(map(same_bits, grid, coords))
    assert (tables is not None) is on_returned_axes
    if name.startswith("shifted-axis"):
        assert [len(c) for c in coords] == [3, 3, 3]
        assert coords[0][1] == 0.5 - 4e-13
        stale = mech.tables(seen[-1])
        assert all(map(same_bits, stale, mech.tables(coords))) is (
            name == "shifted-axis")


@pytest.mark.parametrize("name", CASES)
def test_price_is_the_public_composition(name):
    mech, step, _, _ = CASES[name]
    inst = random_instance(np.random.default_rng(2027), mech.n)
    value, dist, cert, grid, tables = nature._price(mech, inst, step)
    coords = nature.breakpoint_coords(mech, step)
    t = nature.lower_revenue_table(mech, coords)
    ref_value, ref_dist, ref_cert = nature.worst_case_lp(coords, t, inst)
    assert float(value).hex() == float(ref_value).hex()
    assert same_bits(dist.atoms, ref_dist.atoms)
    assert same_bits(dist.probs, ref_dist.probs)
    assert cert.lambda0.hex() == ref_cert.lambda0.hex()
    assert cert.value.hex() == ref_cert.value.hex()
    assert same_bits(cert.lam, ref_cert.lam)
    assert len(grid) == len(coords) and all(map(same_bits, grid, coords))
    ref_tables = mech.tables(coords)
    assert len(tables) == len(ref_tables)
    assert all(map(same_bits, tables, ref_tables))


@pytest.mark.parametrize("name, calls", [("closed-after-one-round", 1),
                                         ("closed-after-two-rounds", 2),
                                         ("round-limit-still-growing", 4)])
def test_grid_mechanism_tabulated_once_on_its_final_grid(monkeypatch, name,
                                                         calls):
    """Each bidder's table is made once per closure round, and once more by
    the envelope only when the last round ran on other axes."""
    mech, _, _, _ = CASES[name]
    count, table = Counter(), GridMechanism.table

    def counted(self, i, coords):
        count[i] += 1
        return table(self, i, coords)

    monkeypatch.setattr(GridMechanism, "table", counted)
    nature._price(mech, random_instance(np.random.default_rng(2027), 3))
    assert count == {i: calls for i in range(3)}
