"""The n >= 3 corner map as it ran before faces: every start iterates the
full n-bidder map, pinned coordinates held at zero and located and
interpolated at weight 0 on every step, through the generic multilinear
loop.  The face-by-face map and the unrolled one- and two-axis
interpolation must give these bits."""

import numpy as np

from maxmin_auction import core, nature


def generic_multilinear(flat, shape, cells):
    """``core.multilinear``'s loop over the 2^d corner terms."""
    ws, pos = [1.0], [0]
    for (k, w), size in zip(cells, shape):
        ws = [a * b for a in ws for b in (1.0 - w, w)]
        pos = [p * size + d for p in pos for d in (k, k + 1)]
    total = 0.0
    for w, p in zip(ws, pos):
        total += w * flat[p]
    return total


def map_corner_points(mech):
    """Extremal fixed points of every pinned map, in the library's order:
    pin masks 0 .. 2^n - 2, the bottom start before the top one."""
    n, vmax = mech.n, mech.vmax
    coords = [c.tolist() for c in mech.coords]
    tables = [(t.ravel().tolist(), t.shape) for t in mech.thresholds]
    tol = 1e-12 * max(1.0, max(vmax))
    points = []
    for mask in range(2 ** n - 1):
        free = [i for i in range(n) if not mask >> i & 1]
        for top in (False, True):
            v = [vmax[i] if top and i in free else 0.0 for i in range(n)]
            last, prev, tried = None, None, set()
            for _ in range(nature.MAP_MAX_ITER):
                cells = [core.locate(c, x) for c, x in zip(coords, v)]
                new, pattern = pinned_map(tables, cells, free, vmax, tol)
                v, old = new, v
                if all(abs(a - b) <= 1e-10 for a, b in zip(v, old)):
                    break
                key = (tuple(k for k, _ in cells), pattern)
                if key == last == prev and key not in tried:
                    tried.add(key)
                    fixed = cell_fixed_point(coords, tables, vmax, free, key,
                                             v, top, tol)
                    if fixed is not None:
                        v = fixed
                        break
                prev, last = last, key
            points.append(tuple(v))
    return points


def pinned_map(tables, cells, free, vmax, tol):
    new, pattern = [0.0] * len(cells), []
    for i in free:
        p = generic_multilinear(*tables[i], cells[:i] + cells[i + 1:])
        new[i] = min(max(p, 0.0), vmax[i])
        pattern.append(0 if p < -tol else 2 if p > vmax[i] + tol else 1)
    return new, tuple(pattern)


def cell_fixed_point(coords, tables, vmax, free, key, v, top, tol):
    ks, pattern = key
    solve = [i for i, p in zip(free, pattern) if p == 1]
    x = list(v)
    if solve:
        x = newton_in_cell(coords, tables, ks, x, solve, tol)
    if x is None:
        return None
    for i in solve:
        c, k = coords[i], ks[i]
        if not -1e-9 <= (x[i] - c[k]) / (c[k + 1] - c[k]) <= 1.0 + 1e-9:
            return None
    if not all(a <= b + tol if top else a >= b - tol for a, b in zip(x, v)):
        return None
    image, same = pinned_map(tables, [core.locate(c, a) for c, a in
                                      zip(coords, x)], free, vmax, tol)
    if same != pattern or not all(abs(a - b) <= tol
                                  for a, b in zip(image, x)):
        return None
    return [min(max(a, 0.0), b) for a, b in zip(x, vmax)]


def newton_in_cell(coords, tables, ks, x, solve, tol):
    n = len(x)
    base = [coords[j][ks[j]] for j in range(n)]
    width = [coords[j][ks[j] + 1] - base[j] for j in range(n)]
    x = list(x)
    for _ in range(nature.NEWTON_STEPS):
        w = [(x[j] - base[j]) / width[j] for j in range(n)]
        jac, resid = [], []
        for i in solve:
            cells = [(ks[j], w[j]) for j in range(n) if j != i]
            row, p = [], None
            for j in solve:
                if j == i:
                    row.append(1.0)
                    continue
                d = j - (j > i)
                cells[d] = (ks[j], 0.0)
                lo = generic_multilinear(*tables[i], cells)
                cells[d] = (ks[j], 1.0)
                hi = generic_multilinear(*tables[i], cells)
                cells[d] = (ks[j], w[j])
                row.append((lo - hi) / width[j])
                if p is None:
                    p = lo + w[j] * (hi - lo)
            if p is None:
                p = generic_multilinear(*tables[i], cells)
            resid.append(x[i] - p)
            jac.append(row)
        try:
            step = np.linalg.solve(jac, resid).tolist()
        except np.linalg.LinAlgError:
            return None
        for i, s in zip(solve, step):
            x[i] -= s
        if len(solve) <= 2 or max(abs(s) for s in step) <= 1e3 * tol:
            break
    return x
