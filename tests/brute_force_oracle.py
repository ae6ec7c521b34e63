"""Nature's grid LP solved by enumeration: the oracle the simplex path is
checked against.

Every support of n + 1 grid nodes solves a square linear system for its
probabilities; the least expected revenue over the feasible ones is the LP's
value.  No simplex and no certificate are involved, so an error in either
shows as a disagreement.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from maxmin_auction.core import Instance, check_grid
from maxmin_auction.errors import SizeError

PROB_TOL = 1e-12
BRUTE_FORCE_GUARD = 10_000_000  # most supports brute_force_min enumerates


def grid_nodes(coords) -> np.ndarray:
    """Every node of the product grid, one row each, in C order."""
    mesh = np.meshgrid(*coords, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def brute_force_min(coords, t, instance: Instance) -> float:
    """Enumerate all supports of n+1 grid nodes and keep feasible solutions.

    The grid and table are checked against the instance's bounds first
    (``DomainError``); ``SizeError`` when there are more than
    ``BRUTE_FORCE_GUARD`` supports or none is feasible.
    """
    coords, t = check_grid(coords, instance.vmax, t)
    nodes, tvals = grid_nodes(coords), t.ravel()
    N, n = nodes.shape
    k = n + 1
    if math.comb(N, k) > BRUTE_FORCE_GUARD:
        raise SizeError(f"{math.comb(N, k)} supports exceed the guard "
                        f"{BRUTE_FORCE_GUARD}")

    b = np.concatenate([[1.0], instance.mean_vector])
    best = np.inf
    combos = itertools.combinations(range(N), k)
    chunk = 200_000
    while True:
        batch = list(itertools.islice(combos, chunk))
        if not batch:
            break
        idx = np.asarray(batch)
        S = np.concatenate([np.ones((len(batch), 1, k)),
                            nodes[idx].transpose(0, 2, 1)], axis=1)
        dets = np.abs(np.linalg.det(S))
        ok = dets > 1e-12
        if not np.any(ok):
            continue
        rhs = np.broadcast_to(b.reshape(1, k, 1), (int(ok.sum()), k, 1))
        f = np.linalg.solve(S[ok], rhs)[:, :, 0]
        feas = np.all(f >= -PROB_TOL, axis=1)
        if not np.any(feas):
            continue
        vals = np.einsum("ij,ij->i", f[feas], tvals[idx[ok][feas]])
        best = min(best, float(vals.min()))
    if not np.isfinite(best):
        raise SizeError("no feasible support found")
    return best
