"""Membership test for the set of optimal two-bidder mechanisms.

By weak duality, a mechanism whose worst-tie revenue t satisfies
t(v) >= V* - lam* @ m + lam* @ v at every profile v earns at least V*
against every distribution with means m, so it is optimal.  Conversely, an
optimal mechanism and Nature's worst case form a saddle point whose
multipliers are the optimal lam*; for two bidders ``optimal_lambda`` never
reports a weakly excluded bidder, so lam* is unique and every optimal
mechanism clears that bound.  The test reads the bound on Nature's own
breakpoint grid and lower-envelope table, where the revenue is affine
between nodes.  For n >= 3 that table can undershoot, so the test is
restricted to two bidders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nature, solve
from .core import Instance, check_compatible
from .errors import DomainError

TOL = 1e-9


@dataclass(frozen=True)
class Witness:
    """A profile where the worst-tie revenue falls below the bound."""

    values: tuple[float, ...]
    revenue: float
    bound: float


def member(mech, instance: Instance) -> tuple[bool, Witness | None]:
    """Does the mechanism achieve the optimal worst-case revenue?

    Returns the verdict and, for a non-member, the grid node with the
    largest shortfall of revenue below V* - lam* @ m + lam* @ v."""
    check_compatible(mech, instance)
    if instance.n != 2:
        raise DomainError("optimal-set characterization covers two bidders")
    sol = solve.optimal_reserves(instance)
    lam = sol.lambda_star
    coords = nature.breakpoint_coords(mech)
    t = nature.lower_revenue_table(mech, coords)
    x, y = np.meshgrid(*coords, indexing="ij", sparse=True)
    bound = sol.guarantee - lam @ instance.mean_vector + lam[0] * x + lam[1] * y
    gap = t - bound
    k = np.unravel_index(np.argmin(gap), gap.shape)
    if gap[k] >= -TOL:
        return True, None
    return False, Witness(tuple(float(c[i]) for c, i in zip(coords, k)),
                          float(t[k]), float(bound[k]))
