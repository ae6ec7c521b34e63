"""The closed forms as they ran when every check went through numpy arrays:
``dual.lsa_guarantee`` with its reserves held in an array and its q in a
dict, and the two-bidder worst case that checked its reserves once for
itself and once more to classify them, and scored Type III's candidates
through the checked ``lsa_lagrangian``.  The library must give these
bits."""

import numpy as np

from maxmin_auction.core import DiscreteDistribution
from maxmin_auction.errors import BoundaryError, DomainError, RegimeError
from maxmin_auction.nature import PROB_TOL, WorstCaseType, wc_boundary_r2


def _lagrangian_terms(r, lam, vmax, wall_terms):
    terms = list(wall_terms)
    lam_dot_r = float(lam @ r)
    for i in range(len(r)):
        terms.append(float(r[i] - (lam_dot_r - lam[i] * r[i]) - lam[i] * vmax[i]))
    if np.all(r > 0.0):
        terms.append(-lam_dot_r)
    return min(terms)


def _checked(r, lam, instance, upper):
    shape = (instance.n,)
    r = np.asarray(r, dtype=float)
    if r.shape != shape:
        raise DomainError(f"reserves must have shape {shape}, got {r.shape}")
    if not (r.min() >= 0.0 and (r <= upper).all()):
        raise DomainError("reserves outside the box")
    if lam is not None:
        lam = np.asarray(lam, dtype=float)
        if lam.shape != shape:
            raise DomainError("multipliers")
        if not (lam.min() >= 0.0 and lam.max() < np.inf):
            raise DomainError("multipliers")
    return r, lam


def lsa_lagrangian(r, lam, instance):
    vmax = instance.common_vmax()
    r, lam = _checked(r, lam, instance, vmax + 1e-12)
    wall = [vmax * (1.0 - float(lam.sum()))]
    inner = _lagrangian_terms(r, lam, instance.vmax, wall)
    return float(lam @ instance.mean_vector + inner)


def lsa_guarantee(r, instance):
    vmax = instance.common_vmax()
    r, _ = _checked(r, None, instance, vmax + 1e-12)
    r = r.tolist()
    q = {j: (m - r[j]) / (vmax - r[j])
         for j, m in enumerate(instance.means) if r[j] < vmax}
    order = sorted((j for j in q if q[j] > 0.0), key=lambda j: -q[j])

    def fill(s):
        budget = vmax - s
        x = []
        for j in order:
            x.append(min(r[j] - s, budget))
            budget -= x[-1]
        return s + sum(q[j] * xj for j, xj in zip(order, x)), x

    best_s, (best, x) = 0.0, fill(0.0)
    sum_r = sum_q = sum_qr = 0.0
    for k, j in enumerate(order):
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
    lam = np.zeros(instance.n)
    for j, xj in zip(order, x):
        lam[j] = xj / (vmax - r[j])
    return best, lam


def _check_wc_inputs(r, instance):
    if instance.n != 2:
        raise DomainError("closed-form worst cases are for two bidders")
    vmax = instance.common_vmax()
    r = np.asarray(r, dtype=float)
    if r.shape != (2,) or not np.all(np.isfinite(r)):
        raise DomainError("closed forms need two finite reserves")
    if np.any(r < 0):
        raise DomainError("reserves must be nonnegative")
    if not (r[0] < instance.means[0] and r[1] < instance.means[1]):
        raise DomainError("closed forms require reserves below the means")
    return float(r[0]), float(r[1]), vmax


def wcdistr2_classify(r, instance):
    r1, r2, vmax = _check_wc_inputs(r, instance)
    rbar = wc_boundary_r2(r1, instance)
    btol = 1e-12
    if abs(r2 - (vmax - r1)) <= btol:
        raise BoundaryError("reserves on the sure-sale boundary")
    if r2 > vmax - r1:
        return WorstCaseType.III
    if abs(r2 - rbar) <= btol:
        raise BoundaryError("reserves on the undercut boundary")
    return WorstCaseType.I if r2 < rbar else WorstCaseType.II


def _binding_corners(r, instance):
    r1, r2, vmax = _check_wc_inputs(r, instance)
    kind = wcdistr2_classify(r, instance)
    sale1, sale2 = r1 / (vmax - r1), r2 / (vmax - r2)
    wall1, wall2 = (vmax - r2) / (vmax - r1), (vmax - r1) / (vmax - r2)
    no_sale, row1, row2, wall = (r1, r2), (vmax, r2), (r1, vmax), (vmax, vmax)
    if kind is WorstCaseType.I:
        return np.array([wall1, wall2]), [wall, row1, row2]
    if kind is WorstCaseType.II:
        return np.array([sale1, sale2]), [no_sale, row2, row1]
    pairs = [(np.array([sale1, wall2]), row1), (np.array([wall1, sale2]), row2)]
    lam, row = max(pairs, key=lambda p: lsa_lagrangian(r, p[0], instance))
    return lam, [no_sale, row, wall]


def lsa2_guarantee(r, instance):
    return lsa_lagrangian(r, _binding_corners(r, instance)[0], instance)


def wcdistr2_construct(r, instance):
    _, corners = _binding_corners(r, instance)
    m1, m2 = instance.means
    a = [(x - m1, y - m2) for x, y in corners]
    areas = [a[k - 2][0] * a[k - 1][1] - a[k - 1][0] * a[k - 2][1]
             for k in range(3)]
    probs = np.array(areas) / sum(areas)
    if probs.min() < -PROB_TOL:
        raise RegimeError("corner weight negative; not this regime")
    probs = np.maximum(probs, 0.0)
    return DiscreteDistribution(corners, probs / probs.sum(), vmax=instance.vmax)
