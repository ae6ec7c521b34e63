"""The least fixed point by monotone iteration from zero: the reference that
``improve.least_fixed_point``'s closed form is checked against.

The map v -> clip(pt(v), 0, vmax) is iterated from v = 0.  Mid-iteration
the affine system of the current clamp pattern is solved; the solution
replaces the iterate only when it is a fixed point carrying the same
pattern and sitting above the iterate, in which case it equals the
iteration's limit.  Interior coordinates are polished on the exact affine
system at the end.  Near a singular multiplier configuration the iteration
creeps, and it raises ``NumericalError`` after ``max_iter`` steps.
"""

from __future__ import annotations

import numpy as np

from maxmin_auction.errors import NumericalError
from maxmin_auction.improve import AffineThresholds

FIXED_POINT_MAX_ITER = 1_000_000


def matrix_A(lam) -> np.ndarray:
    """Ones on the diagonal, -lam_j off it: v = pt(v) reads A v = b."""
    lam = np.asarray(lam, dtype=float)
    A = -np.tile(lam, (lam.shape[0], 1))
    np.fill_diagonal(A, 1.0)
    return A


def raw_step(pt: AffineThresholds, v: np.ndarray) -> np.ndarray:
    """pt(v) before clipping: lam_{-i} @ v_{-i} + b_i for each i."""
    return float(pt.lam @ v) - pt.lam * v + pt.b


def clamped(pt: AffineThresholds, v: np.ndarray) -> np.ndarray:
    """One step of the map: clip(pt(v), 0, vmax)."""
    return np.minimum(np.maximum(raw_step(pt, v), 0.0), np.asarray(pt.vmax))


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


def iterated_least_fixed_point(pt: AffineThresholds,
                               max_iter: int = FIXED_POINT_MAX_ITER
                               ) -> np.ndarray:
    vmax = np.asarray(pt.vmax, dtype=float)
    n = pt.n
    v = np.zeros(n)
    scale = float(max(1.0, vmax.max()))
    tol = 1e-12 * scale
    A = matrix_A(pt.lam)

    def pattern(raw):
        return tuple(0 if raw[i] <= 0.0 else (2 if raw[i] >= vmax[i] else 1)
                     for i in range(n))

    for _ in range(max_iter):
        raw = raw_step(pt, v)
        new = np.minimum(np.maximum(raw, 0.0), vmax)
        if np.max(np.abs(new - v)) < 1e-12:
            v = new
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
        raw_c = raw_step(pt, candidate)
        same_pattern = pattern(raw_c) == pat
        is_fixed = np.max(np.abs(np.minimum(np.maximum(raw_c, 0.0), vmax)
                                 - candidate)) <= tol
        if same_pattern and is_fixed:
            v = candidate
            break
    else:
        raise NumericalError("fixed-point iteration did not converge")

    # Polish the interior coordinates on the exact affine system.
    free = [i for i in range(n) if tol < v[i] < vmax[i] - tol]
    if free:
        sub = A[np.ix_(free, free)]
        if abs(np.linalg.det(sub)) > 1e-9:
            polished = _affine_solve_on(pt, A, free, v)
            clipped = np.minimum(np.maximum(polished, 0.0), vmax)
            check = clamped(pt, clipped)
            if np.max(np.abs(check - clipped)) <= 1e-9 * scale:
                v = clipped
    return v
