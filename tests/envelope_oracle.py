"""The two-bidder optimal set as four envelope conditions on the thresholds:
the reference that ``member``'s saddle-point test is checked against.

A mechanism is optimal iff its thresholds stay inside an affine envelope
anchored at the optimal reserves, with slope equal to the rival's optimal
multiplier; in the high-means regime the upper branch of the envelope is an
equality, in the low-means regime monotonicity and mutual inversion take
over above the reserves.  A score auction is read on its breakpoint grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import maxmin_auction as ma
from maxmin_auction import nature
from maxmin_auction.solve import Regime

TOL = 1e-9


@dataclass(frozen=True)
class Violation:
    condition: int
    bidder: int
    rival_value: float
    threshold: float
    bound: float

    def describe(self) -> str:
        return (f"condition {self.condition}: p_{self.bidder}"
                f"({self.rival_value:.6g}) = {self.threshold:.6g} "
                f"vs bound {self.bound:.6g}")


def _eval_nodes(mech, i, rstar, vmax):
    rival = 1 - i
    nodes = np.concatenate([mech.coords[rival],
                            [0.0, rstar[rival], vmax]])
    return np.unique(np.clip(nodes, 0.0, vmax))


def envelope_violations(mech, instance) -> list[Violation]:
    """Every violated envelope condition, each with a witness; empty for a
    member of the optimal set."""
    if isinstance(mech, ma.LinearScoreAuction):
        mech = ma.grid_from_lsa(mech, nature.breakpoint_coords(mech))
    vmax = instance.common_vmax()
    sol = ma.optimal_reserves(instance)
    lam = sol.lambda_star
    rstar = sol.reserves_canonical
    violations = []

    high = sol.regime is Regime.HIGH_MEANS
    lower_cond, upper_cond = (2, 3) if high else (1, 2)
    for i in (0, 1):
        rival = 1 - i
        slope = lam[rival]                      # rival multiplier is the slope
        for w in _eval_nodes(mech, i, rstar, vmax):
            p = mech.threshold(i, [w])
            lower = rstar[i] + slope * (w - rstar[rival])
            if p < lower - TOL:
                violations.append(Violation(lower_cond, i, float(w), p,
                                            float(lower)))
            if w <= rstar[rival] + TOL:
                upper = (lam[0] * rstar[0] + lam[1] * rstar[1]
                         - slope * w) / lam[i]
                if p > upper + TOL:
                    violations.append(Violation(upper_cond, i, float(w), p,
                                                float(upper)))
            if high and w >= rstar[rival] - TOL and abs(p - lower) > TOL:
                violations.append(Violation(1, i, float(w), p, float(lower)))

    if sol.regime is Regime.LOW_MEANS:
        for i in (0, 1):
            nodes = _eval_nodes(mech, i, rstar, vmax)
            above = nodes[nodes >= rstar[1 - i] - TOL]
            vals = np.array([mech.threshold(i, [w]) for w in above])
            drops = np.flatnonzero(vals[1:] < vals[:-1] - TOL)
            for k in drops:
                violations.append(Violation(3, i, float(above[k + 1]),
                                            float(vals[k + 1]), float(vals[k])))
        violations.extend(_inverse_violations(mech, rstar, vmax))
    return violations


def _inverse_violations(mech, rstar, vmax) -> list[Violation]:
    """Where p_rival strictly increases above the reserves, the two threshold
    functions must invert each other."""
    out = []
    for i in (0, 1):
        rival = 1 - i
        # Strict increase of p_rival over bidder i's own value axis.
        own_nodes = np.unique(np.concatenate([mech.coords[i],
                                              [rstar[i], vmax]]))
        own_nodes = own_nodes[(own_nodes >= rstar[i] - TOL)
                              & (own_nodes <= vmax + TOL)]
        for a, bnd in zip(own_nodes[:-1], own_nodes[1:]):
            pa = mech.threshold(rival, [a])
            pb = mech.threshold(rival, [bnd])
            if pb - pa <= TOL:
                continue
            for frac in (0.25, 0.5, 0.75):
                x = a + frac * (bnd - a)
                image = mech.threshold(rival, [x])
                back = mech.threshold(i, [image])
                if abs(back - x) > TOL:
                    out.append(Violation(4, i, float(image), float(back),
                                         float(x)))
                    break
    return out
