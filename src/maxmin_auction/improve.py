"""Constructing a reserve auction that dominates an arbitrary feasible mechanism.

Pipeline: take the dual multipliers of Nature's problem, exclude the bidders
whose multipliers are not positive and zero those multipliers, replace each
threshold function by its affine minorant with the multiplier slopes, and
read the new generalized reserves off the least fixed point of the resulting
monotone map, found exactly as the least root of one scalar equation.  The
audit evaluates each step on one grid that also holds a point on the fixed
point's curve just inside the minorant's no-sale region.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import nature
from .core import (GridMechanism, Instance, LinearScoreAuction, Mechanism,
                   ThresholdRule, check_compatible, check_feasible, check_grid,
                   check_multipliers, corner_hitting, rival_axes)
from .errors import DomainError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AffineThresholds(ThresholdRule):
    """Thresholds p_i(v_{-i}) = max(lam_{-i} @ v_{-i} + b_i, 0)."""

    b: np.ndarray
    lam: np.ndarray
    vmax: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.b)

    def curve(self, s) -> np.ndarray:
        """v(S) = clip((S + b) / (1 + lam), 0, vmax): each bidder's solution
        of v_i = clip(p_i(v_{-i}), 0, vmax_i) given S = lam @ v, one row per
        entry of ``s``."""
        return np.minimum(np.maximum((np.asarray(s)[..., None] + self.b)
                                     / (1.0 + self.lam), 0.0),
                          np.asarray(self.vmax, dtype=float))

    def table(self, i: int, coords) -> np.ndarray:
        """p_i on the product of bidder i's rival coordinate lists."""
        return np.maximum(sum(self.lam[j] * a for j, a in rival_axes(coords, i))
                          + self.b[i], 0.0)


def grand_case_split(mech: GridMechanism, lam) -> tuple[GridMechanism, np.ndarray]:
    """Remove bidders with multipliers <= 0 and clamp their values to zero.

    With positive multipliers the map is the identity; otherwise those
    bidders get priced out and the rest are re-tabulated at zero for them.
    A zero multiplier is priced out like a negative one, so simplex
    round-off (-8e-17 against 0.0) cannot decide the split.  Raises
    ``DomainError`` unless lam holds n finite values.
    """
    lam = check_multipliers(lam, mech.n)
    if np.all(lam > 0.0):
        return mech, lam.copy()
    tables = []
    for i, t in enumerate(mech.thresholds):
        # a priced-out rival sits at her lowest node, v_j = 0
        pin = tuple(slice(0, 1) if lam[j] <= 0.0 else slice(None)
                    for j in range(mech.n) if j != i)
        tables.append(np.full(t.shape, mech.vmax[i]) if lam[i] <= 0.0
                      else np.broadcast_to(t[pin], t.shape).copy())
    return GridMechanism._trusted(mech.coords, tables), np.maximum(lam, 0.0)


def tilde_transform(mech: GridMechanism, lam) -> AffineThresholds:
    """Supporting affine minorant of each threshold with slopes lam_{-i}."""
    lam = check_multipliers(lam, mech.n, nonnegative=True)
    b = np.array([np.min(t - sum(lam[j] * a
                                 for j, a in rival_axes(mech.coords, i)))
                  for i, t in enumerate(mech.thresholds)])
    return AffineThresholds(b=b, lam=lam.copy(), vmax=mech.vmax)


def least_fixed_point(pt: AffineThresholds) -> np.ndarray:
    """Least fixed point of v -> clip(pt(v), 0, vmax), exactly.

    With S = lam @ v, bidder i's equation v_i = clip(S - lam_i v_i + b_i, 0,
    vmax_i) has one solution v_i(S), ``pt.curve(S)``, nondecreasing in S
    as lam >= 0.  So the fixed points are v(S) at the roots of
    h(S) = lam @ v(S) - S, and the least root gives the least.
    h is piecewise linear with kinks at -b_i and (1 + lam_i) vmax_i - b_i
    (lam_i > 0), and h(0) >= 0 >= h(lam @ vmax): the least root is the first
    knot of [0, lam @ vmax] where h <= 1e-12 * scale or, if h < 0 there, the
    root of the piece before it.  One debug line gives S and that piece.
    """
    lam, b = check_multipliers(pt.lam, pt.n, nonnegative=True), pt.b
    vmax = np.asarray(pt.vmax, dtype=float)
    tol = 1e-12 * max(1.0, float(vmax.max()))

    top, pos = float(lam @ vmax), lam > 0.0
    kinks = np.concatenate([-b[pos], (1.0 + lam[pos]) * vmax[pos] - b[pos]])
    knots = np.sort(np.concatenate([[0.0, top],
                                    kinks[(kinks > 0.0) & (kinks < top)]]))
    h = pt.curve(knots) @ lam - knots
    k = int(np.argmax(h <= tol))
    lo, s = knots[max(k - 1, 0)], knots[k]
    if h[k] < 0.0:                       # so k >= 1, as h(0) >= 0
        s = lo + h[k - 1] * (s - lo) / (h[k - 1] - h[k])
    logger.debug("least fixed point: S=%.6g on piece [%.6g, %.6g]",
                 s, lo, knots[k])
    return pt.curve(s)


def lagrangian_on_grid(families, lam, instance: Instance, coords) -> list[float]:
    """lam @ m plus the worst infimum on a grid, one value per family: each
    a mechanism that tabulates itself with ``tables``.

    ``nature.dual_value`` on a table with strict no-sale ties: winner
    regions use weak inequalities with the threshold as the collected
    value; the no-sale region uses strict ones and collects zero.  Defined
    for infeasible threshold tuples too.  The families share one mesh and
    one envelope over their stacked tables.  ``DomainError`` without a
    family, or when a family, the grid or lam does not fit the instance."""
    if not families:
        raise DomainError("need at least one threshold family")
    lam = np.asarray(lam, dtype=float)
    for thresholds in families:
        check_compatible(thresholds, instance)
        if isinstance(thresholds, AffineThresholds) and np.any(lam < 0):
            raise DomainError("affine minorants assume nonnegative multipliers")
    coords, _ = check_grid(coords, instance.vmax)
    tol = 1e-12 * max(1.0, max(float(c[-1]) for c in coords))
    grids = np.meshgrid(*coords, indexing="ij", sparse=True)
    tables = [np.expand_dims(np.stack(p), axis=i + 1) for i, p in
              enumerate(zip(*(f.tables(coords) for f in families)))]
    t = nature.least_winning_threshold(grids, tables, tol)
    no_sale = grids[0] < tables[0]
    for g, p in zip(grids[1:], tables[1:]):
        no_sale &= g < p
    np.minimum(t, 0.0, out=t, where=no_sale)
    return nature._dual_values(grids, t, instance, lam)


@dataclass(frozen=True)
class ImprovementAudit:
    """Values certifying each step of the construction, on a shared grid."""

    lambda_raw: np.ndarray        # Nature's dual, possibly signed
    lam: np.ndarray               # multipliers after the sign split
    input_guarantee: float        # Nature's LP value for the input mechanism
    value_input: float            # R(p, lam) after the split
    value_minorant: float         # R(p~, lam)
    value_output: float           # R(p^, lam)
    fixed_point: np.ndarray


def dominating_lsa(mech: Mechanism, instance: Instance
                   ) -> tuple[LinearScoreAuction, ImprovementAudit]:
    """A corner-hitting auction whose guarantee weakly beats ``mech``'s:
    Nature prices ``mech`` itself, and later steps read the tables it
    tabulated on that grid."""
    check_feasible(mech)
    guarantee, _, cert, grid, tables = nature._price(mech, instance)
    mech = GridMechanism._trusted(grid, tables)
    lam_raw = cert.lam
    split_mech, lam = grand_case_split(mech, lam_raw)
    pt = tilde_transform(split_mech, lam)
    vstar = least_fixed_point(pt)
    out = corner_hitting(vstar, instance.vmax)

    coords = _audit_coords(grid, pt, vstar)
    audit = ImprovementAudit(   # R(p, lam), R(p~, lam), R(p^, lam) at once
        lam_raw.copy(), lam.copy(), float(guarantee),
        *lagrangian_on_grid((split_mech, pt, out), lam, instance, coords),
        vstar.copy())
    return out, audit


def _audit_coords(grid, pt: AffineThresholds, vstar: np.ndarray):
    """Shared evaluation grid: mechanism breakpoints, the fixed point, and a
    point w just inside the minorant's no-sale region when it is positive.

    w = v(S - delta) on the fixed point's own curve, S = lam @ vstar.  As
    h(S) = lam @ v(S) - S is positive left of its least root, pt_i(w) is
    w_i + h(S - delta) for a free bidder and above vmax_i for one clamped at
    the top, so every bidder stays below her minorant threshold, while
    lam @ (vstar - w) stays in [0, delta], below the audit chain's tolerance.
    """
    scale = max(1.0, max(pt.vmax))
    inside = pt.curve(float(pt.lam @ vstar) - 1e-10 * scale)
    extra = np.stack([vstar, inside]) if np.all(inside > 0.0) else vstar[None]
    return [nature.dedup_sorted(np.concatenate([grid[i], extra[:, i]]),
                                1e-13 * scale, snap=(0.0, pt.vmax[i]))
            for i in range(pt.n)]
