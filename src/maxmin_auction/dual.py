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


def lsa_lagrangian(r, lam, instance: Instance) -> float:
    """Lower bound lam @ m + inf(t - lam @ v) for the reserve auction, exactly."""
    vmax = instance.common_vmax()
    r = np.asarray(r, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise DomainError("closed form requires nonnegative multipliers")
    if np.any(r < 0) or np.any(r > vmax + 1e-12):
        raise DomainError("reserves outside the box")
    wall = [vmax * (1.0 - float(lam.sum()))]
    inner = _lagrangian_terms(r, lam, instance.vmax, wall)
    return float(lam @ instance.mean_vector + inner)


def _guarantee_lp(wall_A: list, wall_b: list, r: np.ndarray, vmax,
                  means: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximize means @ lam + u subject to u <= terms_b - terms_A @ lam, lam >= 0.

    The terms are the given wall rows, then one row per bidder
    (u <= r_i - lam_{-i} r_{-i} - lam_i vmax_i), then the no-sale row
    (u <= -lam @ r) when every reserve is positive.  Variables are
    (lam, u+, u-, slacks); every right-hand side is nonnegative, so the
    slack columns are a feasible starting basis.
    """
    rows, rhs = list(wall_A), list(wall_b)
    for i in range(len(r)):
        row = r.copy()
        row[i] = vmax[i]
        rows.append(row)
        rhs.append(r[i])
    if np.all(r > 0.0):                    # no-sale region nonempty
        rows.append(r.copy())
        rhs.append(0.0)
    terms_A, terms_b = np.asarray(rows), np.asarray(rhs)
    n = means.shape[0]
    k = terms_A.shape[0]
    ncols = n + 2 + k
    A = np.zeros((k, ncols))
    A[:, :n] = terms_A
    A[:, n] = 1.0
    A[:, n + 1] = -1.0
    A[:, n + 2:] = np.eye(k)
    c = np.zeros(ncols)
    c[:n] = -means
    c[n] = -1.0
    c[n + 1] = 1.0
    res = solve_lp(c, A, terms_b, start=np.arange(n + 2, ncols))
    lam = res.x[:n].copy()
    return -res.value, lam


def lsa_guarantee(r, instance: Instance) -> tuple[float, np.ndarray]:
    """Worst-case expected revenue of the reserve auction and an argmax lam."""
    vmax = instance.common_vmax()
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r > vmax + 1e-12):
        raise DomainError("reserves outside the box")
    n = instance.n
    return _guarantee_lp([np.full(n, vmax)], [vmax],   # u <= vmax (1 - sum lam)
                         r, [vmax] * n, instance.mean_vector)


def _asym_checks(r, v1_tilde, lam, instance: Instance):
    if instance.n != 2:
        raise DomainError("asymmetric-bound form is for two bidders")
    v1, v2 = instance.vmax
    if v1 < v2 - 1e-12:
        raise DomainError("bidder 1 must carry the larger bound")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or r[0] > v1 + 1e-12 or r[1] > v2 + 1e-12:
        raise DomainError("reserves outside the box")
    if not (0.0 <= v1_tilde <= v1 + 1e-12):
        raise DomainError("sure-win value outside bidder 1's range")
    if lam is not None and np.any(np.asarray(lam) < 0):
        raise DomainError("closed form requires nonnegative multipliers")
    return r, float(v1), float(v2)


def lsa2_asym_lagrangian(r, v1_tilde, lam, instance: Instance) -> float:
    """Two-bidder Lagrangian when the score boundary exits through the wall.

    ``v1_tilde`` is the lowest report at which bidder 1 wins outright.
    """
    r, v1, v2 = _asym_checks(r, v1_tilde, lam, instance)
    lam = np.asarray(lam, dtype=float)
    wall = [float(v1_tilde - lam[1] * v2 - lam[0] * v1),
            float(v2 - lam[0] * v1_tilde - lam[1] * v2)]
    inner = _lagrangian_terms(r, lam, instance.vmax, wall)
    return float(lam @ instance.mean_vector + inner)


def lsa2_asym_guarantee(r, v1_tilde, instance: Instance) -> tuple[float, np.ndarray]:
    """Maximize the asymmetric-bound Lagrangian over nonnegative multipliers."""
    r, v1, v2 = _asym_checks(r, v1_tilde, None, instance)
    return _guarantee_lp([np.array([v1, v2]), np.array([v1_tilde, v2])],
                         [v1_tilde, v2], r, (v1, v2), instance.mean_vector)
