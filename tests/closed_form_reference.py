"""The closed forms as they ran when every check went through numpy arrays:
``dual.lsa_guarantee`` with its reserves held in an array and its q in a
dict, and the two-bidder worst case that checked its reserves once for
itself and once more to classify them, and scored Type III's candidates
through the checked ``lsa_lagrangian``; the asymmetric-bound guarantee that
checked its input again to score its best vertex; the six numpy
reductions that validated a ``DiscreteDistribution``; and the optimum
``solve.optimal_reserves`` on numpy arrays (``argsort``, ``sqrt``, fancy
indexing and ``sum`` on its n-entry vectors).  The library must give these
bits and raise on the same input."""

import numpy as np

from maxmin_auction import solve

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


def _asym_checks(r, v1_tilde, lam, instance):
    if instance.n != 2:
        raise DomainError("asymmetric-bound form is for two bidders")
    v1, v2 = instance.vmax
    if v1 < v2 - 1e-12:
        raise DomainError("bidder 1 must carry the larger bound")
    r, lam = _checked(r, lam, instance, np.array([v1 + 1e-12, v2 + 1e-12]))
    if not (0.0 <= v1_tilde <= v1 + 1e-12):
        raise DomainError("sure-win value outside bidder 1's range")
    return r, lam, float(v1), float(v2)


def lsa2_asym_lagrangian(r, v1_tilde, lam, instance):
    r, lam, v1, v2 = _asym_checks(r, v1_tilde, lam, instance)
    wall = [float(v1_tilde - lam[1] * v2 - lam[0] * v1),
            float(v2 - lam[0] * v1_tilde - lam[1] * v2)]
    inner = _lagrangian_terms(r, lam, instance.vmax, wall)
    return float(lam @ instance.mean_vector + inner)


def lsa2_asym_guarantee(r, v1_tilde, instance):
    r, _, v1, v2 = _asym_checks(r, v1_tilde, None, instance)
    A = np.array([[v1, v2], [v1_tilde, v2], [v1, r[1]], [r[0], v2], r])
    c = np.array([v1_tilde, v2, r[0], r[1], 0.0])
    g = instance.mean_vector - A
    k, l = np.triu_indices(len(c), 1)
    a = np.vstack([g[k] - g[l], np.eye(2)])
    b = np.concatenate([c[l] - c[k], [0.0, 0.0]])
    p, q = np.triu_indices(len(b), 1)
    det = a[p, 0] * a[q, 1] - a[p, 1] * a[q, 0]
    keep = det != 0.0
    p, q, det = p[keep], q[keep], det[keep]
    lam = np.column_stack([b[p] * a[q, 1] - a[p, 1] * b[q],
                           a[p, 0] * b[q] - b[p] * a[q, 0]]) / det[:, None]
    lam = np.maximum(lam[(lam >= -1e-12).all(axis=1)], 0.0)
    best = lam[(c + lam @ g.T).min(axis=1).argmax()]
    return lsa2_asym_lagrangian(r, v1_tilde, best, instance), best


def distribution(atoms, probs, vmax=None):
    """``DiscreteDistribution``'s stored atoms and probs."""
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    probs = np.asarray(probs, dtype=float)
    if atoms.shape[0] != probs.shape[0]:
        raise DomainError("one probability per atom required")
    if not (np.all(np.isfinite(atoms)) and np.all(np.isfinite(probs))):
        raise DomainError("atoms and probabilities must be finite")
    if np.any(probs < -1e-12):
        raise DomainError("negative probability")
    if abs(float(probs.sum()) - 1.0) > 1e-12:
        raise DomainError("probabilities must sum to one")
    if np.any(atoms < -1e-12):
        raise DomainError("atom outside the box")
    if vmax is not None:
        vm = np.broadcast_to(np.asarray(vmax, dtype=float), atoms.shape[1:])
        if np.any(atoms > vm + 1e-12):
            raise DomainError("atom outside the box")
    return atoms, probs


def optimal_lambda(instance):
    vmax = instance.common_vmax()
    m = instance.mean_vector
    n = instance.n
    if solve.regime(instance) is solve.Regime.LOW_MEANS:
        lam = np.sqrt(vmax / (vmax - m)) - 1.0
        return lam, None, frozenset()
    order = np.argsort(m, kind="stable")
    roots = np.sqrt(vmax - m[order])
    k_star = next(k for k in range(1, n)
                  if roots[k:].sum() / roots[k - 1] > n - k - 1)
    tail = roots[k_star - 1:]
    level = tail.sum() / (n - k_star)
    lam_sorted = np.zeros(n)
    lam_sorted[k_star - 1:] = level / tail - 1.0
    lam = np.empty(n)
    lam[order] = lam_sorted
    we = frozenset(int(order[i]) for i in range(k_star - 1))
    return lam, k_star - 1, we


def guarantee(lam, instance):
    return float(np.sum(instance.mean_vector * lam
                        - lam ** 2 * instance.vmax_vector / (1.0 + lam)))


def optimal_reserves(instance):
    vmax = instance.common_vmax()
    m = instance.mean_vector
    lam, k_star, we = optimal_lambda(instance)
    value = guarantee(lam, instance)
    if k_star is None:
        r = vmax - np.sqrt(vmax * (vmax - m))
        rset = solve.ReserveSet(kind="point", point=r.copy())
        return solve.OptimalSolution(solve.Regime.LOW_MEANS, lam, None, we, r,
                                     rset, value)
    si = sorted(set(range(instance.n)) - we)
    roots = np.sqrt(vmax - m[si])
    s_min = (len(si) - 1) * vmax / roots.sum()
    s_max = vmax / roots.max()
    canonical = np.full(instance.n, vmax)
    canonical[si] = lam[si] * vmax / (1.0 + lam[si])
    low = np.full(instance.n, vmax)
    low[si] = vmax - s_max * roots
    rset = solve.ReserveSet(kind="segment", included=tuple(si),
                            scale_range=(float(s_min), float(s_max)),
                            endpoint_low=low, endpoint_high=canonical.copy())
    return solve.OptimalSolution(solve.Regime.HIGH_MEANS, lam, k_star, we,
                                 canonical, rset, value)
