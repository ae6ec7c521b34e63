"""The improvement pipeline as it ran before Nature's tables fed it:
``dominating_lsa`` priced the mechanism with ``mechanism_guarantee``'s three
public steps, tabulated it a second time on Nature's grid through the
checking ``GridMechanism`` constructor, and split it through that
constructor again.  The library must give these bits."""

import numpy as np

from maxmin_auction import nature
from maxmin_auction.core import (GridMechanism, check_compatible,
                                 check_feasible, check_multipliers,
                                 corner_hitting)
from maxmin_auction.improve import (ImprovementAudit, _audit_coords,
                                    lagrangian_on_grid, least_fixed_point,
                                    tilde_transform)


def grand_case_split(mech, lam):
    lam = check_multipliers(lam, mech.n)
    if np.all(lam > 0.0):
        return mech, lam.copy()
    tables = []
    for i, t in enumerate(mech.thresholds):
        pin = tuple(slice(0, 1) if lam[j] <= 0.0 else slice(None)
                    for j in range(mech.n) if j != i)
        tables.append(np.full(t.shape, mech.vmax[i]) if lam[i] <= 0.0
                      else np.broadcast_to(t[pin], t.shape).copy())
    return GridMechanism(mech.coords, tables), np.maximum(lam, 0.0)


def dominating_lsa(mech, instance):
    check_feasible(mech)
    check_compatible(mech, instance)
    grid = nature.breakpoint_coords(mech)
    t = nature.lower_revenue_table(mech, grid)
    guarantee, _, cert = nature.worst_case_lp(grid, t, instance)
    mech = GridMechanism(grid, mech.tables(grid))
    lam_raw = cert.lam
    split_mech, lam = grand_case_split(mech, lam_raw)
    pt = tilde_transform(split_mech, lam)
    vstar = least_fixed_point(pt)
    out = corner_hitting(vstar, instance.vmax)
    coords = _audit_coords(grid, pt, vstar)
    audit = ImprovementAudit(
        lam_raw.copy(), lam.copy(), float(guarantee),
        *lagrangian_on_grid((split_mech, pt, out), lam, instance, coords),
        vstar.copy())
    return out, audit
