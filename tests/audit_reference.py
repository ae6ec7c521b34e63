"""The audit's Lagrangian and the axis merge as they ran before the audit
went stacked and the merge went to floats: ``lagrangian_on_grid`` evaluated
one threshold family per call, through its own grid check, mesh, envelope
and ``dual_value``, and ``dedup_sorted`` snapped to its anchors and
deduplicated with numpy.  Its winner rule takes a ``np.where`` per bidder
and its strict no-sale mask is ``np.all`` over a stacked list, applied by
a gather and a scatter: the forms that the library's in-place passes
replaced (``test_envelope`` holds the winner rule to them too).  The
library must give these bits."""

import numpy as np

from maxmin_auction.core import check_compatible
from maxmin_auction.errors import DomainError
from maxmin_auction.improve import AffineThresholds
from maxmin_auction.nature import check_grid


def dedup_sorted(values, tol, snap):
    vals = np.sort(np.asarray(values, dtype=float)).tolist()
    keep = [vals[0]]
    for v in vals[1:]:
        if v - keep[-1] > tol:
            keep.append(v)
    out = np.asarray(keep)
    for anchor in snap:
        out[np.abs(out - anchor) <= tol] = anchor
    return np.unique(out)


def least_winning_threshold(values, thresholds, tol):
    t = np.inf
    for v, p in zip(values, thresholds):
        t = np.minimum(t, np.where(v >= p - tol, p, np.inf))
    return t


def dual_value(coords, t, instance, lam):
    coords, t = check_grid(coords, instance.vmax, t)
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (instance.n,) or not np.isfinite(lam).all():
        raise DomainError("multipliers")
    grids = np.meshgrid(*coords, indexing="ij", sparse=True)
    lam_dot_v = sum(lam[i] * grids[i] for i in range(len(grids)))
    return float(lam @ instance.mean_vector + np.min(t - lam_dot_v))


def lagrangian_on_grid(thresholds, lam, instance, coords):
    """One family's value, the one family in the call."""
    lam = np.asarray(lam, dtype=float)
    check_compatible(thresholds, instance)
    if isinstance(thresholds, AffineThresholds) and np.any(lam < 0):
        raise DomainError("affine minorants assume nonnegative multipliers")
    coords, _ = check_grid(coords, instance.vmax)
    scale = max(1.0, max(float(c[-1]) for c in coords))
    tol = 1e-12 * scale

    grids = np.meshgrid(*coords, indexing="ij", sparse=True)
    tables = [np.expand_dims(p, axis=i)
              for i, p in enumerate(thresholds.tables(coords))]
    t = least_winning_threshold(grids, tables, tol)
    no_sale = np.all([g < p for g, p in zip(grids, tables)], axis=0)
    t[no_sale] = np.minimum(t[no_sale], 0.0)
    return dual_value(coords, t, instance, lam)
