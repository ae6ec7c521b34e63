"""Parametric optimum: regimes, multipliers, reserves, and the n=2 extension."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Instance
from .errors import DomainError


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
    vmax = instance.common_vmax()
    m = instance.mean_vector
    n = instance.n
    if regime(instance) is Regime.LOW_MEANS:
        lam = np.sqrt(vmax / (vmax - m)) - 1.0
        return lam, None, frozenset()

    order = np.argsort(m, kind="stable")
    roots = np.sqrt(vmax - m[order])
    # cutoff rank, 1-based as sorted; k = n - 1 always qualifies, as every
    # mean is below vmax
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


def _guarantee(lam: np.ndarray, instance: Instance) -> float:
    """sum(m * lam - lam**2 vmax / (1 + lam)): the worst-case revenue of the
    optimal auction, from its multipliers."""
    return float(np.sum(instance.mean_vector * lam
                        - lam ** 2 * instance.vmax_vector / (1.0 + lam)))


def optimal_reserves(instance: Instance) -> OptimalSolution:
    """The canonical optimal reserve vector plus the full optimal set."""
    vmax = instance.common_vmax()
    m = instance.mean_vector
    lam, k_star, we = optimal_lambda(instance)
    guarantee = _guarantee(lam, instance)

    if k_star is None:                          # the low-means regime
        r = vmax - np.sqrt(vmax * (vmax - m))
        rset = ReserveSet(kind="point", point=r.copy())
        return OptimalSolution(Regime.LOW_MEANS, lam, None, we, r, rset, guarantee)

    si = sorted(set(range(instance.n)) - we)
    roots = np.sqrt(vmax - m[si])
    s_min = (len(si) - 1) * vmax / roots.sum()
    s_max = vmax / roots.max()
    canonical = np.full(instance.n, vmax)       # excluded bidders priced out
    canonical[si] = lam[si] * vmax / (1.0 + lam[si])
    low = np.full(instance.n, vmax)
    low[si] = vmax - s_max * roots
    rset = ReserveSet(kind="segment", included=tuple(si),
                      scale_range=(float(s_min), float(s_max)),
                      endpoint_low=low, endpoint_high=canonical.copy())
    return OptimalSolution(Regime.HIGH_MEANS, lam, k_star, we,
                           canonical, rset, guarantee)


def reserve_is_optimal(r, instance: Instance) -> bool:
    """Membership test for the set of optimal reserve vectors, to 1e-9."""
    tol = 1e-9
    vmax = instance.common_vmax()
    r = np.asarray(r, dtype=float)
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
    if not (0.0 < m < vmax < math.inf):
        raise DomainError("need 0 < m < vmax < inf")
    if not float(n).is_integer() or n < 2:
        raise DomainError(f"need an integer number of bidders >= 2, got {n}")
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
    if instance.n != 2:
        raise DomainError("asymmetric-bound solution is for two bidders")
    v1, v2 = instance.vmax
    if v1 < v2 - 1e-12:
        raise DomainError("bidder 1 must carry the larger bound")
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
