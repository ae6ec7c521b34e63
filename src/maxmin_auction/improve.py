"""Constructing a reserve auction that dominates an arbitrary feasible mechanism.

Pipeline: take the dual multipliers of Nature's problem, zero out negative
ones while excluding those bidders, replace each threshold function by its
affine minorant with the multiplier slopes, and read the new generalized
reserves off the least fixed point of the resulting monotone map.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import nature
from .core import (GridMechanism, Instance, LinearScoreAuction,
                   check_compatible, check_feasible, corner_hitting, drop,
                   rival_axes)
from .errors import DomainError, FeasibilityError, NumericalError

logger = logging.getLogger(__name__)

FIXED_POINT_MAX_ITER = 1_000_000


@dataclass(frozen=True)
class AffineThresholds:
    """Thresholds p_i(v_{-i}) = max(lam_{-i} @ v_{-i} + b_i, 0)."""

    b: np.ndarray
    lam: np.ndarray
    vmax: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.b)

    def threshold(self, i: int, v_others: Sequence[float]) -> float:
        lam_others = drop(self.lam, i)
        raw = float(lam_others @ np.asarray(v_others, dtype=float) + self.b[i])
        return max(raw, 0.0)

    def apply(self, v: np.ndarray) -> np.ndarray:
        total = float(self.lam @ v)
        return np.maximum(total - self.lam * v + self.b, 0.0)

    def tables(self, coords) -> list[np.ndarray]:
        """p_i on the product of bidder i's rival coordinate lists, each i."""
        return [np.maximum(sum(self.lam[j] * a for j, a in rival_axes(coords, i))
                           + self.b[i], 0.0) for i in range(self.n)]


def matrix_A(lam) -> np.ndarray:
    """Ones on the diagonal, -lam_j off it; governs the fixed-point geometry."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[0]
    A = -np.tile(lam, (n, 1))
    np.fill_diagonal(A, 1.0)
    return A


def det_A(lam) -> float:
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise DomainError("determinant formula requires nonnegative multipliers")
    return float((1.0 - np.sum(lam / (1.0 + lam))) * np.prod(1.0 + lam))


def grand_case_split(mech: GridMechanism, lam) -> tuple[GridMechanism, np.ndarray]:
    """Remove bidders with negative multipliers and clamp their values to zero.

    With nonnegative multipliers the map is the identity; otherwise negative
    bidders get priced out and the rest are re-tabulated at zero for them.
    """
    lam = np.asarray(lam, dtype=float)
    if np.all(lam >= 0.0):
        return mech, lam.copy()
    tables = []
    for i, t in enumerate(mech.thresholds):
        # a priced-out rival sits at her lowest node, v_j = 0
        pin = tuple(slice(0, 1) if lam[j] < 0.0 else slice(None)
                    for j in range(mech.n) if j != i)
        tables.append(np.full(t.shape, mech.vmax[i]) if lam[i] < 0.0
                      else np.broadcast_to(t[pin], t.shape).copy())
    return GridMechanism(mech.coords, tables), np.maximum(lam, 0.0)


def tilde_transform(mech: GridMechanism, lam) -> AffineThresholds:
    """Supporting affine minorant of each threshold with slopes lam_{-i}."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0.0):
        raise DomainError("minorant slopes must be nonnegative")
    b = np.array([np.min(t - sum(lam[j] * a
                                 for j, a in rival_axes(mech.coords, i)))
                  for i, t in enumerate(mech.thresholds)])
    return AffineThresholds(b=b, lam=lam.copy(), vmax=mech.vmax)


def _affine_solve_on(pt: AffineThresholds, A: np.ndarray, free: list[int],
                     pinned: np.ndarray):
    """Solve v_F = lam_{-i} v_{-i} + b_i on the free block, others pinned."""
    sub = A[np.ix_(free, free)]
    if abs(np.linalg.det(sub)) < 1e-12:
        return None
    rhs = pt.b[free].copy()
    for row, i in enumerate(free):
        for j in range(pt.n):
            if j not in free:
                rhs[row] += pt.lam[j] * pinned[j]
    sol = np.linalg.solve(sub, rhs)
    out = pinned.copy()
    out[free] = sol
    return out


def least_fixed_point(pt: AffineThresholds) -> np.ndarray:
    """Least fixed point of v -> clamp(pt(v)) by monotone iteration from zero.

    Mid-iteration the affine system of the current clamp pattern is solved;
    the solution replaces the iterate only when it is a fixed point carrying
    the same pattern and sitting above the iterate, in which case it provably
    equals the iteration's limit.  This removes the slow creep near singular
    multiplier configurations.  The iteration count is logged at debug level.
    """
    vmax = np.asarray(pt.vmax, dtype=float)
    n = pt.n
    v = np.zeros(n)
    scale = float(max(1.0, vmax.max()))
    tol = 1e-12 * scale
    A = matrix_A(pt.lam)

    def pattern(raw):
        return tuple(0 if raw[i] <= 0.0 else (2 if raw[i] >= vmax[i] else 1)
                     for i in range(n))

    for steps in range(1, FIXED_POINT_MAX_ITER + 1):
        raw = pt.apply(v)
        new = np.minimum(np.maximum(raw, 0.0), vmax)
        if np.max(np.abs(new - v)) < 1e-12:
            v = new
            ended = "converged"
            break
        v = new
        pat = pattern(raw)
        free = [i for i in range(n) if pat[i] == 1]
        if not free:
            continue
        candidate = _affine_solve_on(pt, A, free, new)
        if candidate is None or np.any(candidate < -tol) \
                or np.any(candidate > vmax + tol) \
                or np.any(candidate < v - tol):
            continue
        candidate = np.minimum(np.maximum(candidate, 0.0), vmax)
        raw_c = pt.apply(candidate)
        same_pattern = pattern(raw_c) == pat
        is_fixed = np.max(np.abs(np.minimum(np.maximum(raw_c, 0.0), vmax)
                                 - candidate)) <= tol
        if same_pattern and is_fixed:
            v = candidate
            ended = "solved on its clamp pattern"
            break
    else:
        raise NumericalError("fixed-point iteration did not converge")
    logger.debug("least fixed point: iterations=%d, %s", steps, ended)

    # Polish the interior coordinates on the exact affine system.
    free = [i for i in range(n) if tol < v[i] < vmax[i] - tol]
    if free:
        sub = A[np.ix_(free, free)]
        if abs(np.linalg.det(sub)) > 1e-9:
            polished = _affine_solve_on(pt, A, free, v)
            if polished is not None:
                clipped = np.minimum(np.maximum(polished, 0.0), vmax)
                check = np.minimum(np.maximum(pt.apply(clipped), 0.0), vmax)
                if np.max(np.abs(check - clipped)) <= 1e-9 * scale:
                    v = clipped
    return v


def lagrangian_on_grid(thresholds, lam, instance: Instance,
                       coords=None) -> float:
    """Reduced revenue functional on a grid: lam @ m plus the worst infimum.

    ``thresholds`` is any mechanism that tabulates itself with ``tables``.

    This is ``nature.dual_value`` on a table with strict no-sale ties:
    winner regions use weak inequalities with the threshold as the collected
    value; the no-sale region uses strict ones and collects zero.  Defined
    for infeasible threshold tuples as well.  Raises ``DomainError`` when
    the thresholds or the multipliers do not fit the instance.
    """
    lam = np.asarray(lam, dtype=float)
    check_compatible(thresholds, instance)
    if lam.shape != (instance.n,):
        raise DomainError(f"need {instance.n} multipliers, got {lam.shape}")
    if isinstance(thresholds, AffineThresholds) and np.any(lam < 0):
        raise DomainError("affine minorants assume nonnegative multipliers")
    if coords is None:
        coords = nature.breakpoint_coords(thresholds) \
            if not isinstance(thresholds, AffineThresholds) \
            else [np.array([0.0, v]) for v in thresholds.vmax]
    coords = [np.asarray(c, dtype=float) for c in coords]
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


def dominating_lsa(mech: GridMechanism, instance: Instance
                   ) -> tuple[LinearScoreAuction, ImprovementAudit]:
    """A corner-hitting auction whose guarantee weakly beats the input's."""
    violation = check_feasible(mech)
    if violation is not None:
        raise FeasibilityError(f"supply violated at {violation.values}")

    guarantee, _, cert, grid = nature.mechanism_guarantee(mech, instance)
    lam_raw = cert.lam
    split_mech, lam = grand_case_split(mech, lam_raw)
    pt = tilde_transform(split_mech, lam)
    vstar = least_fixed_point(pt)
    out = corner_hitting(vstar, instance.vmax)

    coords = _audit_coords(grid, pt, vstar, instance)
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


def _audit_coords(grid, pt: AffineThresholds, vstar: np.ndarray,
                  instance: Instance):
    """Shared evaluation grid: mechanism breakpoints, the fixed point, and a
    point just inside the minorant's no-sale region when one exists."""
    n = instance.n
    scale = max(1.0, max(instance.vmax))
    extra = [[float(vstar[i])] for i in range(n)]
    if np.all(vstar > 1e-12):
        direction = _descent_direction(pt, vstar)
        if direction is not None:
            # slack inside the no-sale region stays eps (A d = 1 on the free
            # block); keep the revenue perturbation below the chain tolerance
            eps = min(1e-10 * scale,
                      5e-10 * scale / max(1.0, float(pt.lam @ direction)))
            inside = vstar - eps * direction
            if np.all(inside > 0.0):
                for i in range(n):
                    extra[i].append(float(inside[i]))
    coords = []
    for i in range(n):
        merged = np.concatenate([grid[i], np.asarray(extra[i])])
        coords.append(nature.dedup_sorted(merged, 1e-13 * scale,
                                          snap=(0.0, instance.vmax[i])))
    return coords


def _descent_direction(pt: AffineThresholds, vstar: np.ndarray):
    """Direction d > 0 with A d > 0 on the unclamped block, if one exists."""
    n = pt.n
    vmax = np.asarray(pt.vmax)
    A = matrix_A(pt.lam)
    free = [i for i in range(n) if vstar[i] < vmax[i] - 1e-12]
    clamped = [i for i in range(n) if i not in free]
    d = np.zeros(n)
    if free:
        sub = A[np.ix_(free, free)]
        if abs(np.linalg.det(sub)) < 1e-9:
            return None
        try:
            d_free = np.linalg.solve(sub, np.ones(len(free)))
        except np.linalg.LinAlgError:
            return None
        if np.any(d_free <= 0.0):
            return None
        d[free] = d_free
    for _ in range(10):
        changed = False
        for j in clamped:
            lam_others = drop(pt.lam, j)
            need = float(lam_others @ drop(d, j)) + 1.0
            if d[j] < need:
                d[j] = need
                changed = True
        if not changed:
            break
    else:
        return None
    return d
