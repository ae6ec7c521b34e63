"""``nature.dedup_sorted`` as it ran before its snapping went to bisection:
every kept value is tested against every anchor, in the anchors' order.
The library must give these bits."""

import numpy as np


def dedup_sorted(values, tol, snap):
    vals = np.sort(np.asarray(values, dtype=float)).tolist()
    keep = [vals[0]]
    for v in vals[1:]:
        if v - keep[-1] > tol:
            keep.append(v)
    snap, out = [float(a) for a in snap], []
    for x in keep:
        for anchor in snap:
            if abs(x - anchor) <= tol:
                x = anchor
        if not out or x != out[-1]:
            out.append(x)
    return np.asarray(out)
