"""Nature's grid LP against the LP that also holds a grid mechanism's exact
winning columns (``tests/winning_columns_oracle.py``, ROADMAP item 2).  The
columns only add points, each priced no lower than its worst-tie revenue, so
the grid LP may never come out above that oracle."""

import numpy as np
import pytest

import maxmin_auction as ma
from generators import random_instance, random_score_auction
from maxmin_auction import nature

pytest.importorskip("scipy.optimize")
from winning_columns_oracle import winning_columns_value  # noqa: E402


def guarantee_and_oracle(mech, inst):
    value, _, _, coords = nature.mechanism_guarantee(mech, inst)
    t = nature.lower_revenue_table(mech, coords)
    return value, winning_columns_value(mech, coords, t, inst)


def overshoot_case():
    """The 198th pair of an n = 3 score auction and an instance drawn from
    seed 2: its capped closure dropped a winning column."""
    rng = np.random.default_rng(2)
    for _ in range(198):
        mech, inst = random_score_auction(rng, 3), random_instance(rng, 3)
    return mech, inst


def test_winning_columns_add_nothing_to_closed_two_bidder_grids():
    """A two-bidder grid mechanism's breakpoint grid closes in one round and
    holds every winning column, so the oracle equals the grid LP there; a
    column priced below its revenue would pull the oracle lower."""
    rng = np.random.default_rng(2)
    for _ in range(20):
        mech, inst = random_score_auction(rng, 2), random_instance(rng, 2)
        value, oracle = guarantee_and_oracle(mech, inst)
        assert oracle == pytest.approx(value, abs=1e-9)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2 (exact winning "
                   "columns): the capped n >= 3 closure drops a round's "
                   "merge, and with it own-vertex thresholds, so the grid LP "
                   "overshoots")
def test_fix_capped_closure_overshoot():
    """Today the grid LP gives 0.174560 and the winning columns 0.118492."""
    mech, inst = overshoot_case()
    assert isinstance(mech, ma.GridMechanism) and mech.n == 3
    value, oracle = guarantee_and_oracle(mech, inst)
    assert value <= oracle + 1e-9
