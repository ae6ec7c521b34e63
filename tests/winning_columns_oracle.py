"""Nature's LP on a grid mechanism's own grid plus its exact winning columns
(ROADMAP item 2), solved by scipy's HiGHS: an upper bound on the exact
guarantee that the grid LP must not exceed.

Where bidder i is a winner candidate, Nature's objective t - lam @ v is
p_i(v_-i) - lam @ v.  For fixed rivals it is least at v_i = vmax_i or at
v_i = p_i(v_-i), and p_i is multilinear on each cell of the rivals' own
coords, so it is least at a cell vertex c.  Each column (v_i, c) with v_i in
{vmax_i, p_i(c)} costs p_i(c), no less than the worst-tie revenue there, so
adding the columns to any grid's nodes keeps the LP's value at or above the
exact infimum; a grid LP above it overshoots.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog

from brute_force_oracle import grid_nodes


def winning_columns(mech):
    """The points (v_i, c) and their costs p_i(c), for each bidder i, each
    vertex c of the rivals' own coords and each v_i in {vmax_i, p_i(c)}."""
    points, costs = [], []
    for i, table in enumerate(mech.thresholds):
        rivals = [mech.coords[j] for j in range(mech.n) if j != i]
        for c, p in zip(itertools.product(*rivals), table.ravel()):
            for v in (mech.vmax[i], p):
                points.append([*c[:i], v, *c[i:]])
                costs.append(p)
    return np.array(points), np.array(costs)


def winning_columns_value(mech, coords, t, instance) -> float:
    """The LP over the grid's nodes at their table values ``t`` plus the
    mechanism's winning columns."""
    points, costs = winning_columns(mech)
    points = np.vstack([grid_nodes(coords), points])
    costs = np.concatenate([np.asarray(t, dtype=float).ravel(), costs])
    A = np.vstack([np.ones(len(costs)), points.T])
    b = np.concatenate([[1.0], instance.mean_vector])
    res = linprog(costs, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)
