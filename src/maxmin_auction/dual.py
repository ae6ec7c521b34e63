"""Closed-form Lagrangian for reserve auctions and its exact maximization.

For a corner-hitting auction with reserves r and multipliers lam >= 0 the
inner minimization over value profiles collapses to finitely many affine
expressions; maximizing over lam is then a small linear program.
"""

from __future__ import annotations

import numpy as np

from .core import Instance
from .errors import DomainError
from .simplex import solve_lp


def _lagrangian_terms(r: np.ndarray, lam: np.ndarray, vmax,
                      wall_terms: list[float]) -> float:
    terms = list(wall_terms)
    lam_dot_r = float(lam @ r)
    for i in range(len(r)):
        terms.append(float(r[i] - (lam_dot_r - lam[i] * r[i]) - lam[i] * vmax[i]))
    if np.all(r > 0.0):                    # no-sale region nonempty
        terms.append(-lam_dot_r)
    return min(terms)


def _checked(r, lam, instance: Instance, upper):
    """Reserves and multipliers as float arrays of shape (n,).

    Raises ``DomainError`` unless 0 <= r <= ``upper`` (the bound plus its
    tolerance: one float, or one per bidder) and, when ``lam`` is given,
    0 <= lam < inf.  Every comparison with NaN is false, so NaN fails too.
    """
    shape = (instance.n,)
    r = np.asarray(r, dtype=float)
    if r.shape != shape:
        raise DomainError(f"reserves must have shape {shape}, got {r.shape}")
    if not (r.min() >= 0.0 and (r <= upper).all()):
        raise DomainError("reserves outside the box")
    if lam is not None:
        lam = np.asarray(lam, dtype=float)
        if lam.shape != shape:
            raise DomainError(
                f"multipliers must have shape {shape}, got {lam.shape}")
        if not (lam.min() >= 0.0 and lam.max() < np.inf):
            raise DomainError(
                "closed form requires finite nonnegative multipliers")
    return r, lam


def lsa_lagrangian(r, lam, instance: Instance) -> float:
    """Lower bound lam @ m + inf(t - lam @ v) for the reserve auction, exactly."""
    vmax = instance.common_vmax()
    r, lam = _checked(r, lam, instance, vmax + 1e-12)
    wall = [vmax * (1.0 - float(lam.sum()))]
    inner = _lagrangian_terms(r, lam, instance.vmax, wall)
    return float(lam @ instance.mean_vector + inner)


def _guarantee_lp(wall_A, wall_b: list, r: np.ndarray, vmax,
                  means: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximize means @ lam + u subject to u <= terms_b - terms_A @ lam, lam >= 0.

    The terms are the given wall rows (``wall_A`` is anything that fills a
    ``len(wall_b) x n`` block), then one row per bidder
    (u <= r_i - lam_{-i} r_{-i} - lam_i vmax_i), then the no-sale row
    (u <= -lam @ r) when every reserve is positive.  Variables are
    (lam, u+, u-, slacks); every right-hand side is nonnegative, so the
    slack columns are a feasible starting basis.
    """
    n = means.shape[0]
    w = len(wall_b)
    k = w + n + (r.min() > 0.0)            # no-sale row iff its region is nonempty
    ncols = n + 2 + k
    A = np.zeros((k, ncols))
    b = np.zeros(k)
    A[:w, :n] = wall_A
    A[w:, :n] = r                          # bidder rows, then the no-sale row
    np.fill_diagonal(A[w:w + n], vmax)     # ... with vmax_i in place of r_i
    A[:, n] = 1.0
    A[:, n + 1] = -1.0
    np.fill_diagonal(A[:, n + 2:], 1.0)
    b[:w] = wall_b
    b[w:w + n] = r
    c = np.zeros(ncols)
    c[:n] = -means
    c[n] = -1.0
    c[n + 1] = 1.0
    res = solve_lp(c, A, b, start=np.arange(n + 2, ncols))
    return 0.0 - res.value, res.x[:n].copy()      # +0.0, never -0.0


def lsa_guarantee(r, instance: Instance) -> tuple[float, np.ndarray]:
    """Worst-case expected revenue of the reserve auction and an argmax lam."""
    vmax = instance.common_vmax()
    r, _ = _checked(r, None, instance, vmax + 1e-12)
    return _guarantee_lp(vmax, [vmax],     # u <= vmax (1 - sum lam)
                         r, vmax, instance.mean_vector)


def _asym_checks(r, v1_tilde, lam, instance: Instance):
    if instance.n != 2:
        raise DomainError("asymmetric-bound form is for two bidders")
    v1, v2 = instance.vmax
    if v1 < v2 - 1e-12:
        raise DomainError("bidder 1 must carry the larger bound")
    r, lam = _checked(r, lam, instance, np.array([v1, v2]) + 1e-12)
    if not (0.0 <= v1_tilde <= v1 + 1e-12):
        raise DomainError("sure-win value outside bidder 1's range")
    return r, lam, float(v1), float(v2)


def lsa2_asym_lagrangian(r, v1_tilde, lam, instance: Instance) -> float:
    """Two-bidder Lagrangian when the score boundary exits through the wall.

    ``v1_tilde`` is the lowest report at which bidder 1 wins outright.
    """
    r, lam, v1, v2 = _asym_checks(r, v1_tilde, lam, instance)
    wall = [float(v1_tilde - lam[1] * v2 - lam[0] * v1),
            float(v2 - lam[0] * v1_tilde - lam[1] * v2)]
    inner = _lagrangian_terms(r, lam, instance.vmax, wall)
    return float(lam @ instance.mean_vector + inner)


def lsa2_asym_guarantee(r, v1_tilde, instance: Instance) -> tuple[float, np.ndarray]:
    """Maximize the asymmetric-bound Lagrangian over nonnegative multipliers."""
    r, _, v1, v2 = _asym_checks(r, v1_tilde, None, instance)
    return _guarantee_lp([[v1, v2], [v1_tilde, v2]], [v1_tilde, v2],
                         r, (v1, v2), instance.mean_vector)
