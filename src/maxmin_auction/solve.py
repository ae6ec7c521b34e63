"""Parametric optimum: regimes, multipliers, reserves, and the n=2 extension."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Instance, _floats


class Regime(enum.Enum):
    LOW_MEANS = "low-means"
    HIGH_MEANS = "high-means"


def regime(instance: Instance) -> Regime:
    """Low means iff the slack in the multiplier geometry stays strict."""
    vmax = instance.common_vmax()
    total = sum(math.sqrt(1.0 - m / vmax) for m in instance.means)
    return Regime.LOW_MEANS if total > instance.n - 1 else Regime.HIGH_MEANS


def optimal_lambda(instance: Instance) -> tuple[np.ndarray, Optional[int], frozenset]:
    """Optimal mean-constraint multipliers, cutoff rank, and excluded set.

    Returns ``(lam, k_star, weakly_excluded)`` in input order; ``k_star``
    counts how many of the ascending-mean bidders carry a zero multiplier
    (None in the low-means regime).
    """
    vmax, m, n = instance.common_vmax(), instance.means, instance.n
    if regime(instance) is Regime.LOW_MEANS:
        lam = [math.sqrt(vmax / (vmax - mi)) - 1.0 for mi in m]
        return np.array(lam), None, frozenset()

    order = sorted(range(n), key=m.__getitem__)    # stable: ties keep order
    roots = [math.sqrt(vmax - m[i]) for i in order]
    # cutoff rank, 1-based as sorted; k = n - 1 always qualifies, as every
    # mean is below vmax
    k_star = next(k for k in range(1, n)
                  if _sum(roots[k:]) / roots[k - 1] > n - k - 1)
    tail = roots[k_star - 1:]
    level = _sum(tail) / (n - k_star)
    lam = [0.0] * n
    for i, root in zip(order[k_star - 1:], tail):
        lam[i] = level / root - 1.0
    return np.array(lam), k_star - 1, frozenset(order[:k_star - 1])


def _sum(values) -> float:
    """Left to right, as numpy sums fewer than eight terms (from eight on
    it sums pairwise, so longer sums may differ in their last bits)."""
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class ReserveSet:
    """All optimal reserve vectors.

    Either a single point, or the segment r_i = vmax - s * sqrt(vmax - m_i)
    for the strictly included bidders with s in [s_min, s_max] (reserves of
    weakly excluded bidders are free; the canonical vector pins them at vmax).
    """

    kind: str                                   # "point" | "segment"
    point: Optional[np.ndarray] = None
    included: Optional[tuple[int, ...]] = None
    scale_range: Optional[tuple[float, float]] = None
    endpoint_low: Optional[np.ndarray] = None   # smallest reserves (s_max)
    endpoint_high: Optional[np.ndarray] = None  # canonical, largest reserves


@dataclass(frozen=True)
class OptimalSolution:
    regime: Regime
    lambda_star: np.ndarray
    k_star: Optional[int]
    weakly_excluded: frozenset
    reserves_canonical: np.ndarray
    reserve_set: ReserveSet
    guarantee: float


def _guarantee(lam, instance: Instance) -> float:
    """sum(m * lam - lam**2 vmax / (1 + lam)): the worst-case revenue of the
    optimal auction, from its multipliers."""
    return float(_sum(m * x - x * x * v / (1.0 + x) for m, x, v in
                      zip(instance.means, lam, instance.vmax)))


def optimal_reserves(instance: Instance) -> OptimalSolution:
    """The canonical optimal reserve vector plus the full optimal set."""
    vmax, m, n = instance.common_vmax(), instance.means, instance.n
    lam_star, k_star, we = optimal_lambda(instance)
    lam = lam_star.tolist()
    guarantee = _guarantee(lam, instance)

    if k_star is None:                          # the low-means regime
        r = [vmax - math.sqrt(vmax * (vmax - mi)) for mi in m]
        rset = ReserveSet(kind="point", point=np.array(r))
        return OptimalSolution(Regime.LOW_MEANS, lam_star, None, we,
                               np.array(r), rset, guarantee)

    si = sorted(set(range(n)) - we)
    roots = [math.sqrt(vmax - m[i]) for i in si]
    s_min = (len(si) - 1) * vmax / _sum(roots)
    s_max = vmax / max(roots)
    canonical = [vmax] * n                      # excluded bidders priced out
    low = [vmax] * n
    for i, root in zip(si, roots):
        canonical[i] = lam[i] * vmax / (1.0 + lam[i])
        low[i] = vmax - s_max * root
    rset = ReserveSet(kind="segment", included=tuple(si),
                      scale_range=(s_min, s_max), endpoint_low=np.array(low),
                      endpoint_high=np.array(canonical))
    return OptimalSolution(Regime.HIGH_MEANS, lam_star, k_star, we,
                           np.array(canonical), rset, guarantee)


def reserve_is_optimal(r, instance: Instance) -> bool:
    """Membership test for the set of optimal reserve vectors, to 1e-9."""
    tol = 1e-9
    vmax = instance.common_vmax()
    r = _floats(r, "reserves")
    if r.shape != (instance.n,) or np.any(r < -tol) or np.any(r > vmax + tol):
        return False
    sol = optimal_reserves(instance)
    if sol.regime is Regime.LOW_MEANS:
        return bool(np.all(np.abs(r - sol.reserves_canonical) <= tol))
    si = list(sol.reserve_set.included)
    roots = np.sqrt(vmax - instance.mean_vector[si])
    scales = (vmax - r[si]) / roots
    if scales.max() - scales.min() > tol:
        return False
    return float(r[si].sum()) <= vmax + tol


def symmetric_reserve_set(m: float, vmax: float, n: int) -> tuple[float, float]:
    """Optimal reserve prices for n symmetric bidders, as an interval.

    A single point collapses to a zero-length interval.  The point is
    optimal in the low-means regime, n (1 - sqrt(1 - m / vmax)) < 1 as in
    :func:`regime`; dividing by 1 - sqrt(1 - m / vmax) instead fails for
    tiny m, where it rounds to 0.
    """
    inst = Instance(n, float(m), float(vmax))
    n, m, vmax = inst.n, inst.means[0], inst.vmax[0]
    if n * (1.0 - math.sqrt(1.0 - m / vmax)) < 1.0:
        point = vmax - math.sqrt(vmax * (vmax - m))
        return (point, point)
    return (0.0, vmax / n)


@dataclass(frozen=True)
class Asym2Solution:
    """Optimal two-bidder auction under different upper bounds.

    The winning boundary has slope ``gamma`` in score space; ``v1_tilde`` is
    the report at which bidder 1 wins outright.  In the low-means regime the
    reserves are unique and any slope in ``gamma_range`` is optimal; in the
    high-means regime the slope is unique and the reserves trace the line
    (vmax2 - r2) / (v1_tilde - r1) = gamma with r1/vmax1 + r2/vmax2 <= 1.
    """

    regime: Regime
    gamma_star: float
    gamma_range: tuple[float, float]
    v1_tilde: float
    reserves: np.ndarray
    guarantee: float


def gamma_equation_residual(gamma: float, instance: Instance) -> float:
    v1, v2 = instance.vmax
    m1, m2 = instance.means
    return (v1 - v2) / (gamma + 1.0) ** 2 + (v2 - m2) / gamma ** 2 - (v1 - m1)


def _bisect_gamma(instance: Instance) -> float:
    """Root of the residual, which decreases in gamma, bisected to 1e-12 or
    to adjacent floats.  At sqrt((v2 - m2) / (v1 - m1)) its last two terms
    cancel, leaving (v1 - v2) / (gamma + 1)**2 >= 0; at
    sqrt((v1 - m2) / (v1 - m1)) they sum to -(v1 - v2) / gamma**2, which
    outweighs the first."""
    v1, v2 = instance.vmax
    m1, m2 = instance.means
    lo, hi = math.sqrt((v2 - m2) / (v1 - m1)), math.sqrt((v1 - m2) / (v1 - m1))
    mid = 0.5 * (lo + hi)
    while hi - lo > 1e-12 and lo < mid < hi:
        if gamma_equation_residual(mid, instance) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def asymmetric2_solve(instance: Instance) -> Asym2Solution:
    """Optimal slope and reserves for two bidders with vmax1 >= vmax2."""
    v1, v2 = instance.ordered_bounds()
    m1, m2 = instance.means
    low = math.sqrt(1.0 - m1 / v1) + math.sqrt(1.0 - m2 / v2) > 1.0

    if low:
        r = np.array([v1 - math.sqrt(v1 * (v1 - m1)), v2 - math.sqrt(v2 * (v2 - m2))])
        g_lo = r[0] / (v1 - r[0])
        g_hi = (v2 - r[1]) / r[1] if r[1] > 0 else math.inf
        gamma = (v2 - r[1]) / (v1 - r[0])      # boundary through the corner
        lam = np.array([math.sqrt(v1 / (v1 - m1)) - 1.0,
                        math.sqrt(v2 / (v2 - m2)) - 1.0])
        return Asym2Solution(Regime.LOW_MEANS, float(gamma),
                             (float(g_lo), float(g_hi)), float(v1),
                             r, _guarantee(lam, instance))

    gamma = _bisect_gamma(instance)
    v1t = (gamma * v1 + v2) / (gamma + 1.0)
    lam = np.array([gamma, 1.0 / gamma])
    r = lam * instance.vmax_vector / (1.0 + lam)
    return Asym2Solution(Regime.HIGH_MEANS, float(gamma), (float(gamma), float(gamma)),
                         float(v1t), r, _guarantee(lam, instance))
