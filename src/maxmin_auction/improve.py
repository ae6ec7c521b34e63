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
                   check_compatible, check_feasible, corner_hitting,
                   rival_axes, table_node)
from .errors import DomainError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AffineThresholds:
    """Thresholds p_i(v_{-i}) = max(lam_{-i} @ v_{-i} + b_i, 0)."""

    b: np.ndarray
    lam: np.ndarray
    vmax: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.b)

    threshold = table_node

    def curve(self, s) -> np.ndarray:
        """v(S) = clip((S + b) / (1 + lam), 0, vmax): each bidder's solution
        of v_i = clip(p_i(v_{-i}), 0, vmax_i) given S = lam @ v, one row per
        entry of ``s``."""
        return np.minimum(np.maximum((np.asarray(s)[..., None] + self.b)
                                     / (1.0 + self.lam), 0.0),
                          np.asarray(self.vmax, dtype=float))

    def tables(self, coords) -> list[np.ndarray]:
        """p_i on the product of bidder i's rival coordinate lists, each i."""
        return [np.maximum(sum(self.lam[j] * a for j, a in rival_axes(coords, i))
                           + self.b[i], 0.0) for i in range(self.n)]


def grand_case_split(mech: GridMechanism, lam) -> tuple[GridMechanism, np.ndarray]:
    """Remove bidders with multipliers <= 0 and clamp their values to zero.

    With positive multipliers the map is the identity; otherwise those
    bidders get priced out and the rest are re-tabulated at zero for them.
    A zero multiplier is priced out like a negative one, so simplex
    round-off (-8e-17 against 0.0) cannot decide the split.  Raises
    ``DomainError`` unless lam holds n finite values.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (mech.n,) or not np.isfinite(lam).all():
        raise DomainError(f"need {mech.n} finite multipliers, got "
                          f"{lam.tolist()}")
    if np.all(lam > 0.0):
        return mech, lam.copy()
    tables = []
    for i, t in enumerate(mech.thresholds):
        # a priced-out rival sits at her lowest node, v_j = 0
        pin = tuple(slice(0, 1) if lam[j] <= 0.0 else slice(None)
                    for j in range(mech.n) if j != i)
        tables.append(np.full(t.shape, mech.vmax[i]) if lam[i] <= 0.0
                      else np.broadcast_to(t[pin], t.shape).copy())
    return GridMechanism(mech.coords, tables), np.maximum(lam, 0.0)


def tilde_transform(mech: GridMechanism, lam) -> AffineThresholds:
    """Supporting affine minorant of each threshold with slopes lam_{-i}."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (mech.n,) or not ((lam >= 0.0) & (lam < np.inf)).all():
        raise DomainError(f"minorant slopes must be {mech.n} finite "
                          f"nonnegative values, got {lam.tolist()}")
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
    lam, b = pt.lam, pt.b
    if not np.all(lam >= 0.0):           # NaN fails too
        raise DomainError("least fixed point needs nonnegative multipliers")
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


def lagrangian_on_grid(thresholds, lam, instance: Instance, coords) -> float:
    """Reduced revenue functional on a grid: lam @ m plus the worst infimum.

    ``thresholds`` is any mechanism that tabulates itself with ``tables``.

    This is ``nature.dual_value`` on a table with strict no-sale ties:
    winner regions use weak inequalities with the threshold as the collected
    value; the no-sale region uses strict ones and collects zero.  Defined
    for infeasible threshold tuples as well.  Raises ``DomainError`` when
    the thresholds, the grid or the multipliers do not fit the instance.
    """
    lam = np.asarray(lam, dtype=float)
    check_compatible(thresholds, instance)
    if isinstance(thresholds, AffineThresholds) and np.any(lam < 0):
        raise DomainError("affine minorants assume nonnegative multipliers")
    coords, _ = nature.check_grid(coords, instance.n)
    scale = max(1.0, max(float(c[-1]) for c in coords))
    tol = 1e-12 * scale

    grids = np.meshgrid(*coords, indexing="ij", sparse=True)
    tables = [np.expand_dims(p, axis=i)
              for i, p in enumerate(thresholds.tables(coords))]
    t = nature.least_winning_threshold(grids, tables, tol)
    no_sale = np.all([g < p for g, p in zip(grids, tables)],
                     axis=0)                 # strict: ties never sit in W0
    t[no_sale] = np.minimum(t[no_sale], 0.0)
    return nature.dual_value(coords, t, instance, lam)


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
    Nature prices ``mech`` itself; later steps read its tables on that grid."""
    check_feasible(mech)
    guarantee, _, cert, grid = nature.mechanism_guarantee(mech, instance)
    mech = GridMechanism(grid, mech.tables(grid))
    lam_raw = cert.lam
    split_mech, lam = grand_case_split(mech, lam_raw)
    pt = tilde_transform(split_mech, lam)
    vstar = least_fixed_point(pt)
    out = corner_hitting(vstar, instance.vmax)

    coords = _audit_coords(grid, pt, vstar)
    audit = ImprovementAudit(
        lambda_raw=lam_raw.copy(),
        lam=lam.copy(),
        input_guarantee=float(guarantee),
        value_input=lagrangian_on_grid(split_mech, lam, instance, coords),
        value_minorant=lagrangian_on_grid(pt, lam, instance, coords),
        value_output=lagrangian_on_grid(out, lam, instance, coords),
        fixed_point=vstar.copy(),
    )
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
