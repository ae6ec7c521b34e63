"""Closed-form Lagrangian for reserve auctions and its exact maximization.

For a corner-hitting auction with reserves r and multipliers lam >= 0 the
inner minimization over value profiles collapses to finitely many affine
expressions.  With equal bounds, maximizing over lam is a fractional
knapsack in one parameter, solved exactly in O(n log n) (``lsa_guarantee``);
with unequal bounds (two bidders) the maximum is the best vertex of a
piecewise-linear function of two multipliers (``lsa2_asym_guarantee``).
No LP solver is used.
"""

from __future__ import annotations

import numpy as np

from .core import Instance, _floats, check_multipliers, check_reserves
from .errors import DomainError
from .simplex import solve_lp  # noqa: F401  unused here; perfbench wraps dual.solve_lp


def _lagrangian(r, lam, instance: Instance, wall_terms: list[float]) -> float:
    """lam @ m plus the least of the rows ``wall_terms``, one per bidder and
    the no-sale row when every reserve is positive."""
    terms = list(wall_terms)
    lam_dot_r = float(lam @ r)
    for i in range(len(r)):
        terms.append(float(r[i] - (lam_dot_r - lam[i] * r[i])
                           - lam[i] * instance.vmax[i]))
    if min(r) > 0.0:                       # no-sale region nonempty
        terms.append(-lam_dot_r)
    return float(lam @ instance.mean_vector + min(terms))


def _lsa_lagrangian(r, lam, instance: Instance) -> float:
    """``lsa_lagrangian`` on input that passed its checks, bounds equal."""
    wall = [instance.vmax[0] * (1.0 - float(lam.sum()))]
    return _lagrangian(r, lam, instance, wall)


def lsa_lagrangian(r, lam, instance: Instance) -> float:
    """Lower bound lam @ m + inf(t - lam @ v) for the reserve auction, exactly."""
    instance.common_vmax()                 # equal bounds only
    r = check_reserves(r, instance.vmax)
    lam = check_multipliers(lam, instance.n, nonnegative=True)
    return _lsa_lagrangian(r, lam, instance)


def lsa_guarantee(r, instance: Instance) -> tuple[float, np.ndarray]:
    """Worst-case expected revenue of the reserve auction and an argmax lam.

    This is the maximum of ``lsa_lagrangian`` over lam >= 0, found exactly
    without an LP solver.  With u the inner minimum, it is the LP: maximize
    m @ lam + u subject to the wall row u <= vmax (1 - sum lam), one row
    u <= r_i - lam_{-i} @ r_{-i} - lam_i vmax per bidder, and the no-sale
    row u <= -lam @ r when every reserve is positive.  Put
    x_j = (vmax - r_j) lam_j, s = u + lam @ r and
    q_j = (m_j - r_j) / (vmax - r_j).  The LP becomes

        maximize s + sum_j q_j x_j  subject to  x >= 0, s <= 0,
                 x_i <= r_i - s  and  sum_j x_j <= vmax - s.

    s <= 0 is the no-sale row; when some r_i = 0, bidder i's row
    x_i <= -s implies it.  A bidder with r_j >= vmax (up to the reserve
    tolerance above it) gains at most lam_j (r_j - vmax) from lam_j > 0,
    by loosening rows, and loses lam_j (r_j - m_j), which is more since
    m_j < vmax; one with q_j <= 0 only uses up budget.  Both get
    lam_j = 0, and their row s <= r_j holds for every s <= 0.

    For fixed s the rest is a fractional knapsack: fill the remaining
    bidders in decreasing q_j (ties to the lower index), each up to the cap
    r_j - s, until the budget vmax - s is spent.  Its value F(s) is concave
    and piecewise linear in s (the optimal value of an LP in its right-hand
    side).  The first k bidders in that order use exactly the budget where
    r_(1) + ... + r_(k) - k s = vmax - s, so F has kinks only at
    s_k = (r_(1) + ... + r_(k) - vmax) / (k - 1), k >= 2; the first bidder
    always fits, since r_(1) <= vmax.  Below every kink it is the only
    full bidder and the second takes the rest, so F has slope
    1 - q_(1) > 0 there (m_j < vmax gives q_j < 1).  F therefore peaks at
    s = 0 or at a negative s_k, where
    F(s_k) = s_k + sum_{i <= k} q_(i) (r_(i) - s_k) comes from prefix sums.
    The argmax lam is x_j / (vmax - r_j) from the fill at the best s.
    """
    vmax = instance.common_vmax()
    r = check_reserves(r, instance.vmax)
    q = [(m - rj) / (vmax - rj) if rj < vmax else 0.0
         for m, rj in zip(instance.means, r)]
    order = sorted((j for j, qj in enumerate(q) if qj > 0.0),
                   key=lambda j: -q[j])

    def fill(s):
        budget = vmax - s
        x = []
        for j in order:
            x.append(min(r[j] - s, budget))
            budget -= x[-1]
        return s + sum(q[j] * xj for j, xj in zip(order, x)), x

    best_s, (best, x) = 0.0, fill(0.0)
    sum_r = sum_q = sum_qr = 0.0
    for k, j in enumerate(order):           # k bidders ahead of j
        sum_r += r[j]
        sum_q += q[j]
        sum_qr += q[j] * r[j]
        if k:
            s = (sum_r - vmax) / k
            value = s * (1.0 - sum_q) + sum_qr
            if s < 0.0 and value > best:
                best_s, best = s, value
    if best_s < 0.0:
        best, x = fill(best_s)
    lam = [0.0] * instance.n
    for j, xj in zip(order, x):
        lam[j] = xj / (vmax - r[j])
    return best, np.array(lam)


def _asym_checks(r, v1_tilde, instance: Instance):
    """The reserves and the sure-win value as floats, and the two bounds."""
    v1, v2 = instance.ordered_bounds()
    r = check_reserves(r, instance.vmax)
    v1_tilde = _floats(v1_tilde, "sure-win value")
    if v1_tilde.ndim or not 0.0 <= v1_tilde <= v1 + 1e-12:
        raise DomainError("sure-win value outside bidder 1's range")
    return r, v1_tilde.item(), v1, v2


def lsa2_asym_lagrangian(r, v1_tilde, lam, instance: Instance) -> float:
    """Two-bidder Lagrangian when the score boundary exits through the wall.

    ``v1_tilde`` is the lowest report at which bidder 1 wins outright.
    """
    r, v1_tilde, _, _ = _asym_checks(r, v1_tilde, instance)
    lam = check_multipliers(lam, 2, nonnegative=True)
    return _asym_lagrangian(r, v1_tilde, lam, instance)


def _asym_lagrangian(r, v1_tilde, lam, instance: Instance) -> float:
    """``lsa2_asym_lagrangian`` on input that passed its checks."""
    v1, v2 = instance.vmax
    wall = [float(v1_tilde - lam[1] * v2 - lam[0] * v1),
            float(v2 - lam[0] * v1_tilde - lam[1] * v2)]
    return _lagrangian(r, lam, instance, wall)


def lsa2_asym_guarantee(r, v1_tilde, instance: Instance) -> tuple[float, np.ndarray]:
    """Maximize the asymmetric-bound Lagrangian over nonnegative multipliers.

    Each row k of ``lsa2_asym_lagrangian`` (two wall rows, two bidder rows
    and the no-sale row u <= -lam @ r, kept when a reserve is 0 because a
    bidder row then implies it) is affine in lam, f_k(lam) = c_k + g_k @ lam with g_k = m - A_k, so
    L(lam) = min_k f_k(lam) is concave and piecewise linear.  The first
    wall row bounds it by v1_tilde + (m - vmax) @ lam, and m < vmax, so L
    has a maximum over lam >= 0, attained at a vertex of {(lam, u):
    lam >= 0, u <= f_k(lam)}: a point where three independent constraints
    among u = f_k and lam_j = 0 hold.  In lam that is where two of the lines
    f_k = f_l and lam_j = 0 cross (two pairs of rows tie, one pair ties on
    an axis, or lam = 0).  Every pair of these lines is solved by Cramer's
    rule; crossings with lam >= -1e-12 are clipped at 0 and scored, and the
    best is returned with its value in ``lsa2_asym_lagrangian``.
    """
    r, v1_tilde, v1, v2 = _asym_checks(r, v1_tilde, instance)
    A = np.array([[v1, v2], [v1_tilde, v2], [v1, r[1]], [r[0], v2], r])
    c = np.array([v1_tilde, v2, r[0], r[1], 0.0])
    g = instance.mean_vector - A
    k, l = np.triu_indices(len(c), 1)      # lines a @ lam = b: ties, then axes
    a = np.vstack([g[k] - g[l], np.eye(2)])
    b = np.concatenate([c[l] - c[k], [0.0, 0.0]])
    p, q = np.triu_indices(len(b), 1)
    det = a[p, 0] * a[q, 1] - a[p, 1] * a[q, 0]
    keep = det != 0.0                      # parallel lines never cross
    p, q, det = p[keep], q[keep], det[keep]
    lam = np.column_stack([b[p] * a[q, 1] - a[p, 1] * b[q],
                           a[p, 0] * b[q] - b[p] * a[q, 0]]) / det[:, None]
    lam = np.maximum(lam[(lam >= -1e-12).all(axis=1)], 0.0)
    best = lam[(c + lam @ g.T).min(axis=1).argmax()]
    return _asym_lagrangian(r, v1_tilde, best, instance), best
