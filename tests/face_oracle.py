"""An independent oracle for the corners of a two-bidder face of the corner
map: a dense scan of g(x) = f_a(f_b(x)) - x plus bisection, with no
knowledge of where g kinks.

On a face every bidder but a and b is pinned at zero, so the map is
v_a = f_a(v_b), v_b = f_b(v_a), each f the clamped interpolation of the
bidder's table over the rival's coordinates (``np.interp``, which holds the
ends beyond the axis as ``core.locate`` does).  The least fixed point's v_a
is the least root of g.  Because the two curves often coincide on whole
segments, a root counts from where g enters the band |g| <= tol: the scan
finds the first point with g <= tol (or a dip of the scanned values that
reaches it between scan points), and bisection narrows it to the entry point
b.  From b, g either follows the line it arrived on down to its zero, which
is the root, or kinks first, inside the band, and that kink is the root (a
coincident segment starts there); the kink is found by bisecting for where g
leaves that line.  The greatest root is the least root of the map mirrored
at the top of the box.
"""

from __future__ import annotations

import numpy as np

SCAN = 2 ** 14 + 1
SECANT = 1e-7
LINE = 1e-14            # rounding noise of g, per unit of the bound


def face_tables(mech, a, b):
    """Bidder a's and b's tables on the face where every other bidder is
    pinned at zero: p_a over b's coordinates and p_b over a's."""
    out = []
    for i in (a, b):
        rivals = [j for j in range(mech.n) if j != i]
        index = tuple(slice(None) if j in (a, b) else 0 for j in rivals)
        out.append(np.asarray(mech.thresholds[i][index], dtype=float))
    return out


def face_maps(ca, cb, ta, tb, top_a, top_b):
    """f_a over v_b and f_b over v_a, vectorised."""
    def f_a(y):
        return np.clip(np.interp(y, cb, ta), 0.0, top_a)

    def f_b(x):
        return np.clip(np.interp(x, ca, tb), 0.0, top_b)
    return f_a, f_b


def least_root(h, top, tol):
    """The least root of h on [0, top], h(0) >= 0 >= h(top), counted from
    the entry into the band h <= tol (see the module docstring).  A root
    where h only touches the band, between scan points, shows as a local
    minimum of the scanned values, which :func:`lowest_point` narrows."""
    xs = np.linspace(0.0, top, SCAN)
    hs = h(xs)
    if hs[0] <= tol:
        return 0.0
    j = int(np.argmax(hs <= tol))
    lo, hi = float(xs[j - 1]), float(xs[j])           # h(lo) > tol >= h(hi)
    dips = np.flatnonzero((hs[1:j] < hs[:j - 1]) & (hs[1:j] <= hs[2:j + 1]))
    for i in dips + 1:
        x = lowest_point(h, xs[i - 1], xs[i + 1])
        if h(x) <= tol:
            lo, hi = float(xs[i - 1]), x
            break
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if h(mid) <= tol:
            hi = mid
        else:
            lo = mid
    value = float(h(hi))

    def secant(width):
        return (value - float(h(hi - width))) / width

    width = min(SECANT, hi)              # halved until no kink lies within
    slope = secant(width)
    while width > 1e-12:
        width *= 0.5
        slope, last = secant(width), slope
        if abs(slope - last) <= 1e-6 * abs(slope):
            break
    if not slope < 0.0:
        return hi
    lo, zero = hi, hi - value / slope

    def off_line(x):
        return abs(float(h(x)) - value - slope * (x - hi)) > LINE * max(
            1.0, top)

    if not off_line(zero):
        return zero
    while lo < 0.5 * (lo + zero) < zero:     # h kinks inside the band first
        mid = 0.5 * (lo + zero)
        if off_line(mid):
            zero = mid
        else:
            lo = mid
    return lo


def lowest_point(h, lo, hi, levels=7, k=257):
    """Where h is least on [lo, hi], by scans that zoom into the least
    sample's neighbours."""
    for _ in range(levels):
        xs = np.linspace(lo, hi, k)
        i = int(np.argmin(h(xs)))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, k - 1)]
    return float(xs[i])


def extreme_roots(h, top, tol):
    """Least and greatest roots of h on [0, top]."""
    low = least_root(h, top, tol)
    high = top - least_root(lambda x: -h(top - x), top, tol)
    return low, high


def face_corners(mech, a, b):
    """The face's least and greatest fixed points as (v_a, v_b) pairs:
    v_a from g's extreme roots and v_b = f_b(v_a).  (v_b is not found as a
    root of its own composite f_b(f_a(y)) - y: where a piece of g is nearly
    flat, a g within the band at a kink puts that root up to tol / |g'|
    away, while the corner stays a fixed point to tol.)"""
    ca, cb = mech.coords[a], mech.coords[b]
    ta, tb = face_tables(mech, a, b)
    top_a, top_b = mech.vmax[a], mech.vmax[b]
    tol = 1e-12 * max(1.0, max(mech.vmax))
    f_a, f_b = face_maps(ca, cb, ta, tb, top_a, top_b)
    return [(x, float(f_b(x)))
            for x in extreme_roots(lambda x: f_a(f_b(x)) - x, top_a, tol)]


def in_band_between(mech, a, b, x0, x1, samples=257):
    """Whether |g| <= tol all along [x0, x1] in v_a (sampled): two corners
    there are the same root to the tolerance, the curves coinciding to it
    in between."""
    ta, tb = face_tables(mech, a, b)
    f_a, f_b = face_maps(mech.coords[a], mech.coords[b], ta, tb,
                         mech.vmax[a], mech.vmax[b])
    xs = np.linspace(min(x0, x1), max(x0, x1), samples)
    tol = 1e-12 * max(1.0, max(mech.vmax))
    return bool(np.all(np.abs(f_a(f_b(xs)) - xs) <= tol))


def free_counts(n):
    """Free bidders of each start of the corner map, in its order: pin
    masks 0 .. 2^n - 2, two starts each."""
    return np.repeat([n - bin(mask).count("1") for mask in range(2 ** n - 1)],
                     2)


def with_oracle_faces(mech, points):
    """The corner list ``points`` (in the map's order) with every two-bidder
    face's corners replaced by :func:`face_corners`'."""
    n, points = mech.n, list(points)
    for mask in range(2 ** n - 1):
        free = [i for i in range(n) if not mask >> i & 1]
        if len(free) == 2:
            for k, pair in enumerate(face_corners(mech, *free)):
                v = [0.0] * n
                for i, x in zip(free, pair):
                    v[i] = x
                points[2 * mask + k] = tuple(v)
    return points
