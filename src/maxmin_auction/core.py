"""Domain types: problem instances, mechanisms, and their evaluation.

A deterministic dominant-strategy mechanism is represented either by per-bidder
affine scores (:class:`LinearScoreAuction`) or by threshold tables on a product
grid (:class:`GridMechanism`).  Bidders are indexed 0..n-1.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DomainError, FeasibilityError

COMP_TOL = 1e-12


def _as_tuple(x, n: int) -> tuple[float, ...]:
    arr = np.broadcast_to(np.asarray(x, dtype=float), (n,))
    return tuple(float(v) for v in arr)


@dataclass(frozen=True)
class Instance:
    """Problem data: bidder count, per-bidder means, per-bidder upper bounds."""

    n: int
    means: tuple[float, ...]
    vmax: tuple[float, ...]

    def __init__(self, n: int, means, vmax):
        if not float(n).is_integer() or n < 2:
            raise DomainError(f"need an integer number of bidders >= 2, got {n}")
        n = int(n)
        if np.asarray(means).size not in (1, n) or np.asarray(vmax).size not in (1, n):
            raise DomainError("means and vmax must have length n (or be scalar)")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "means", _as_tuple(means, n))
        object.__setattr__(self, "vmax", _as_tuple(vmax, n))
        for m, v in zip(self.means, self.vmax):
            if not (np.isfinite(m) and np.isfinite(v)):
                raise DomainError("means and bounds must be finite")
            if not (0.0 < m < v):
                raise DomainError(f"need 0 < mean < upper bound, got {m}, {v}")

    @property
    def mean_vector(self) -> np.ndarray:
        return np.asarray(self.means)

    @property
    def vmax_vector(self) -> np.ndarray:
        return np.asarray(self.vmax)

    def common_vmax(self) -> float:
        if max(self.vmax) - min(self.vmax) > COMP_TOL:
            raise DomainError("operation requires equal upper bounds")
        return self.vmax[0]


def drop(values: Sequence[float], i: int) -> np.ndarray:
    """Values of all bidders except i, in increasing index order."""
    v = np.asarray(values, dtype=float)
    return np.delete(v, i)


@dataclass(frozen=True)
class LinearScoreAuction:
    """Affine-score mechanism: the highest nonnegative score wins.

    ``excluded[i]`` means bidder i can never win; her score is never compared.
    """

    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    vmax: tuple[float, ...]
    excluded: tuple[bool, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        n = len(self.alphas)
        if self.excluded is None:
            object.__setattr__(self, "excluded", tuple(False for _ in range(n)))
        if not (len(self.betas) == len(self.vmax) == len(self.excluded) == n):
            raise DomainError("parameter lengths disagree")
        if not all(map(math.isfinite, (*self.alphas, *self.betas, *self.vmax))):
            raise DomainError("score parameters and bounds must be finite")
        for i in range(n):
            if self.excluded[i]:
                continue
            if self.alphas[i] < 0 or self.betas[i] <= 0:
                raise DomainError("scores need alpha >= 0 and beta > 0")

    @property
    def n(self) -> int:
        return len(self.alphas)

    def included(self) -> list[int]:
        return [i for i in range(self.n) if not self.excluded[i]]

    def score(self, i: int, v_i: float) -> float:
        if self.excluded[i]:
            raise DomainError(f"bidder {i} is excluded; score undefined")
        if not (-COMP_TOL <= v_i <= self.vmax[i] + COMP_TOL):
            raise DomainError(f"value {v_i} outside [0, {self.vmax[i]}]")
        return self.betas[i] * v_i - self.alphas[i]

    def reserve(self, i: int) -> float:
        """Lowest value with nonnegative score (the generalized reserve)."""
        if self.excluded[i]:
            return self.vmax[i]
        return min(self.alphas[i] / self.betas[i], self.vmax[i])

    def allocate(self, v: Sequence[float]) -> Optional[int]:
        """Winner index, or None if every score is negative.

        Ties at the top score go to the lowest index; a zero top score still
        wins (granting at indifference never hurts revenue).
        """
        best, winner = 0.0, None
        for i in self.included():
            s = self.score(i, v[i])
            if winner is None:
                if s >= 0.0:
                    best, winner = s, i
            elif s > best:
                best, winner = s, i
        return winner

    def threshold(self, i: int, v_others: Sequence[float]) -> float:
        """Minimal winning value for bidder i against rival values ``v_others``.

        ``v_others`` lists the other bidders' values in increasing index order.
        """
        rivals = [j for j in range(self.n) if j != i]
        for j, w in zip(rivals, v_others):
            if not (self.excluded[i] or self.excluded[j]):
                self.score(j, w)         # DomainError outside [0, vmax_j]
        return table_node(self, i, v_others)

    def payment(self, v: Sequence[float]) -> np.ndarray:
        """Per-bidder transfers at profile v: the winner pays her threshold."""
        t = np.zeros(self.n)
        winner = self.allocate(v)
        if winner is not None:
            t[winner] = self.threshold(winner, drop(v, winner))
        return t

    def unclamped_tables(self, coords) -> list[np.ndarray]:
        """(alpha_i + max(0, rival scores)) / beta_i on the product of bidder
        i's rival coordinate lists, each i; ``+inf`` for an excluded bidder."""
        out = []
        for i in range(self.n):
            axes = rival_axes(coords, i)
            shape = tuple(a.size for _, a in axes)
            if self.excluded[i]:
                out.append(np.full(shape, np.inf))
                continue
            best = np.zeros(shape)
            for j, a in axes:
                if not self.excluded[j]:
                    best = np.maximum(best, self.betas[j] * a - self.alphas[j])
            out.append((self.alphas[i] + best) / self.betas[i])
        return out

    def tables(self, coords) -> list[np.ndarray]:
        """p_i on the product of bidder i's rival coordinate lists, each i."""
        return [np.clip(p, 0.0, vm)
                for p, vm in zip(self.unclamped_tables(coords), self.vmax)]


def corner_hitting(r: Sequence[float], vmax) -> LinearScoreAuction:
    """Auction whose included bidders all have maximal score one.

    Bidder i gets slope 1/(vmax_i - r_i) and intercept r_i/(vmax_i - r_i);
    a bidder with r_i == vmax_i is excluded outright.
    """
    r = np.asarray(r, dtype=float)
    vm = np.asarray(vmax, dtype=float)
    if vm.ndim and vm.shape != r.shape:
        raise DomainError(f"{r.size} reserves for {vm.size} value bounds")
    vm = np.broadcast_to(vm, r.shape)
    alphas, betas, excluded = [], [], []
    for ri, vi in zip(r, vm):
        if not (0.0 <= ri <= vi):
            raise DomainError(f"reserve {ri} outside [0, {vi}]")
        if vi - ri <= COMP_TOL:
            alphas.append(float(ri))
            betas.append(1.0)
            excluded.append(True)
        else:
            alphas.append(float(ri / (vi - ri)))
            betas.append(float(1.0 / (vi - ri)))
            excluded.append(False)
    return LinearScoreAuction(tuple(alphas), tuple(betas),
                              tuple(float(v) for v in vm), tuple(excluded))


@dataclass(frozen=True)
class GridMechanism:
    """Thresholds tabulated on per-bidder coordinate grids.

    ``coords[i]`` is strictly increasing and covers [0, vmax_i] with both
    endpoints present.  ``thresholds[i]`` has one axis per rival bidder
    (in increasing index order) and holds p_i on the rival grid; between
    nodes p_i is evaluated by multilinear interpolation.
    """

    coords: tuple[np.ndarray, ...]
    thresholds: tuple[np.ndarray, ...]

    def __init__(self, coords, thresholds):
        coords = tuple(np.asarray(c, dtype=float) for c in coords)
        n = len(coords)
        tables = []
        for i, (c, t) in enumerate(zip(coords, thresholds)):
            if len(c) < 2 or not (abs(c[0]) <= COMP_TOL and np.isfinite(c[-1])
                                  and np.all(np.diff(c) > 0)):
                raise DomainError("coordinates must increase strictly from 0 "
                                  "to a finite bound")
            shape = tuple(len(coords[j]) for j in range(n) if j != i)
            t = np.asarray(t, dtype=float).reshape(shape)
            if not np.all((t >= -COMP_TOL) & (t <= c[-1] + COMP_TOL)):
                raise DomainError("thresholds must be finite and lie in [0, vmax]")
            tables.append(t)
        if len(thresholds) != n:
            raise DomainError("one threshold table per bidder required")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "thresholds", tuple(tables))

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def vmax(self) -> tuple[float, ...]:
        return tuple(float(c[-1]) for c in self.coords)

    def threshold(self, i: int, v_others: Sequence[float]) -> float:
        """p_i at rival values ``v_others`` by multilinear interpolation."""
        if len(v_others) != self.n - 1:
            raise DomainError(f"need {self.n - 1} rival values")
        axes = self.coords[:i] + self.coords[i + 1:]
        cells = [locate(c, float(x)) for c, x in zip(axes, v_others)]
        return multilinear(self.thresholds[i].ravel(), self.thresholds[i].shape, cells)

    def allocate(self, v: Sequence[float]) -> Optional[int]:
        p = [self.threshold(i, drop(v, i)) for i in range(self.n)]
        strict = [i for i in range(self.n) if v[i] > p[i] + COMP_TOL]
        if len(strict) > 1:
            raise FeasibilityError(f"two strict winners {strict} at {tuple(v)}")
        if strict:
            return strict[0]
        return next((i for i in range(self.n) if v[i] >= p[i] - COMP_TOL), None)

    payment = LinearScoreAuction.payment

    def tables(self, coords) -> list[np.ndarray]:
        """p_i on the product of bidder i's rival coordinate lists, each i;
        ``np.interp`` for one rival, multilinear interpolation for more."""
        out = []
        for i, t in enumerate(self.thresholds):
            if self.n == 2:
                out.append(np.interp(coords[1 - i], self.coords[1 - i], t))
            else:
                out.append(_multilinear_grid(t, [
                    (self.coords[j], a) for j, a in rival_axes(coords, i)]))
        return out


Mechanism = Union[LinearScoreAuction, GridMechanism]


def grid_nodes(coords) -> np.ndarray:
    mesh = np.meshgrid(*coords, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def rival_axes(coords, i: int) -> list[tuple[int, np.ndarray]]:
    """Bidder i's rivals j, in increasing order, each with ``coords[j]``
    shaped to run along j's axis of the rival grid."""
    rivals = [j for j in range(len(coords)) if j != i]
    return [(j, np.asarray(coords[j], dtype=float).reshape(
        [-1 if e == d else 1 for e in range(len(rivals))]))
        for d, j in enumerate(rivals)]


def _multilinear_grid(table: np.ndarray, axes) -> np.ndarray:
    """Multilinear interpolation of ``table`` at every node of a product
    grid.  ``axes`` pairs each table axis's coordinate list with the grid's
    points on it, shaped to run along that axis (as :func:`rival_axes`
    shapes them): each list is located once and the 2^d corner terms
    broadcast, in :func:`multilinear`'s arithmetic order (same bits)."""
    cells = []
    for c, x in axes:
        x = np.clip(x, c[0], c[-1])
        k = np.clip(np.searchsorted(c, x, side="right") - 1, 0, len(c) - 2)
        w = (x - c[k]) / (c[k + 1] - c[k])
        cells.append(((k, 1.0 - w), (k + 1, w)))
    out = 0.0
    for corner in itertools.product(*cells):
        ks, ws = zip(*corner)
        out = out + math.prod(ws) * table[ks]
    return out


def locate(c: Sequence[float], x: float) -> tuple[int, float]:
    """Cell index and weight of x on the increasing list c, clamped to it."""
    x = min(max(x, c[0]), c[-1])
    k = min(max(bisect_right(c, x) - 1, 0), len(c) - 2)
    return k, (x - c[k]) / (c[k + 1] - c[k])


def multilinear(flat: Sequence[float], shape: Sequence[int],
                cells: list[tuple[int, float]]) -> float:
    """Interpolate a C-order flattened table of ``shape`` at :func:`locate`'s
    ``cells`` in :func:`_multilinear_grid`'s order (same bits; 1-2 axes unrolled)."""
    if len(cells) == 1:
        (k, w), = cells
        return 0.0 + (1.0 - w) * flat[k] + w * flat[k + 1]
    if len(cells) == 2:
        (k, w), (l, u) = cells
        p, q, a, b = k * shape[1] + l, (k + 1) * shape[1] + l, 1.0 - w, 1.0 - u
        return (0.0 + a * b * flat[p] + a * u * flat[p + 1]
                + w * b * flat[q] + w * u * flat[q + 1])
    ws, pos = [1.0], [0]
    for (k, w), size in zip(cells, shape):
        ws = [a * b for a in ws for b in (1.0 - w, w)]
        pos = [p * size + d for p in pos for d in (k, k + 1)]
    total = 0.0
    for w, p in zip(ws, pos):
        total += w * flat[p]
    return total


def table_node(mech, i: int, v_others: Sequence[float]) -> float:
    """p_i at one rival profile: the node of ``mech.tables`` on the
    one-point grid at ``v_others`` (bidder i's own point is never read)."""
    if len(v_others) != mech.n - 1:
        raise DomainError(f"need {mech.n - 1} rival values")
    coords = [[x] for x in v_others]
    coords.insert(i, [0.0])
    return mech.tables(coords)[i].item()


def revenue(mech: Mechanism, v: Sequence[float]) -> float:
    """Total transfer collected at profile v."""
    return float(np.sum(mech.payment(v)))


def check_feasible(mech: Mechanism) -> None:
    """Raise ``FeasibilityError`` at the first node of a grid mechanism's own
    grid with two strict winners (between nodes they can remain); a score
    auction is feasible as built."""
    if isinstance(mech, LinearScoreAuction):
        return
    grids = np.meshgrid(*mech.coords, indexing="ij", sparse=True)
    wins = sum(g > np.expand_dims(t, axis=i) + COMP_TOL
               for i, (g, t) in enumerate(zip(grids, mech.thresholds)))
    bad = np.argwhere(wins >= 2)
    if bad.size:
        values = tuple(float(c[k]) for c, k in zip(mech.coords, bad[0]))
        raise FeasibilityError(f"supply violated at {values}")


def grid_from_lsa(lsa: LinearScoreAuction, coords) -> GridMechanism:
    """Tabulate an affine-score mechanism's thresholds on the given grids."""
    if len(coords) != lsa.n:
        raise DomainError("need one grid axis per bidder")
    mech = GridMechanism(coords, lsa.tables(coords))   # axes start at 0
    if any(v > vm + COMP_TOL for v, vm in zip(mech.vmax, lsa.vmax)):
        raise DomainError(f"grid reaches past the bounds {lsa.vmax}")
    return mech


def check_compatible(mech, instance: Instance) -> None:
    """Raise unless the mechanism has the instance's bidders and bounds."""
    if mech.n != instance.n or max(
            abs(a - b) for a, b in zip(mech.vmax, instance.vmax)) > COMP_TOL:
        raise DomainError(f"mechanism (n={mech.n}, vmax {mech.vmax}) does not "
                          f"fit the instance (n={instance.n}, vmax "
                          f"{instance.vmax})")


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite-support joint value distribution: Nature's strategies."""

    atoms: np.ndarray   # (k, n) value vectors
    probs: np.ndarray   # (k,) nonnegative, summing to one

    def __init__(self, atoms, probs, vmax=None):
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
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)

    def mean(self) -> np.ndarray:
        return self.probs @ self.atoms

    def expected_revenue(self, mech: Mechanism) -> float:
        return float(sum(p * revenue(mech, a)
                         for a, p in zip(self.atoms, self.probs)))
