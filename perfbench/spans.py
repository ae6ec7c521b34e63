"""Span recording around the program's layer boundaries, from outside.

The tracer replaces module attributes through which the layers call each
other with wrappers that record a span (name, start, end, parent) and put the
original back on ``restore``.  No program file is edited: a call that goes
through ``module.attr`` at call time sees the wrapper, so spans nest the way
the layers call each other.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from maxmin_auction import cli, core, dual, improve, nature, optset, solve

# (module, attribute, span name).  Both simplex entry points share one name.
BOUNDARIES = [
    (cli, "run", "cli"),
    (core, "grid_from_lsa", "core.grid_from_lsa"),
    (nature, "mechanism_guarantee", "nature.guarantee"),
    (nature, "breakpoint_coords", "nature.grid"),
    (nature, "lower_revenue_table", "nature.table"),
    (nature, "worst_case_lp", "nature.lp"),
    (nature, "wcdistr2_construct", "nature.wc_construct"),
    (nature, "solve_lp", "simplex.solve"),
    (dual, "solve_lp", "simplex.solve"),
    (dual, "lsa_guarantee", "dual.guarantee"),
    (solve, "optimal_reserves", "solve.optimal"),
    (improve, "dominating_lsa", "improve.dominating"),
    (improve, "grand_case_split", "improve.split"),
    (improve, "tilde_transform", "improve.minorant"),
    (improve, "least_fixed_point", "improve.fixed_point"),
    (improve, "lagrangian_on_grid", "improve.audit"),
    (optset, "member", "optset.member"),
]
ROOT = "op"


def _info(name, args, out):
    """Cheap facts kept with a span, read after it has closed."""
    if name == "nature.grid":
        return args[0], out                    # mechanism, coordinates
    if name == "simplex.solve":
        return np.shape(args[1])[1]            # columns of A
    if name == "nature.lp":
        return out[1].atoms.shape[0], np.size(args[1])   # atoms, grid nodes
    return None


class Tracer:
    """Records spans as ``[name, start, end, parent, info]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = self._open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._close(idx)
        self.spans[idx][4] = _info(name, args, out)
        return out

    def install(self):
        for module, attr, name in BOUNDARIES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))

            def wrapper(*args, _fn=original, _name=name, **kwargs):
                return self.call(_name, _fn, *args, **kwargs)

            setattr(module, attr, wrapper)

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus direct children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for k, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - child[k]
    return dict(out)


def root_time(spans) -> float:
    return sum(end - start for name, start, end, parent, _ in spans
               if parent < 0)


def grid_closed(mech, coords) -> bool:
    """True when every threshold induced on the grid is a grid coordinate,
    to the tolerance ``breakpoint_coords`` merges points with."""
    induced = nature.threshold_tables(mech, coords)
    for i, c in enumerate(coords):
        tol = 1e-12 * max(1.0, float(c[-1]))
        vals = np.asarray(induced[i], dtype=float).ravel()
        k = np.clip(np.searchsorted(c, vals), 1, len(c) - 1)
        gap = np.minimum(np.abs(vals - c[k - 1]), np.abs(vals - c[k]))
        if np.any(gap > tol):
            return False
    return True


def counts(spans) -> dict[str, float]:
    """Exact-repeat work counts from the spans' recorded facts."""
    nodes = unclosed = calls = columns = atoms = lp_nodes = 0
    for name, _, _, _, info in spans:
        if info is None:                       # the call raised
            continue
        if name == "nature.grid":
            mech, coords = info
            nodes += int(np.prod([len(c) for c in coords]))
            unclosed += not grid_closed(mech, coords)
        elif name == "simplex.solve":
            calls += 1
            columns += info
        elif name == "nature.lp":
            atoms += info[0]
            lp_nodes += info[1]
    return {
        "nature.grid_nodes": nodes,
        "nature.grid_unclosed": unclosed,
        "simplex.calls": calls,
        "simplex.columns": columns,
        "nature.lp_support_ratio": atoms / lp_nodes if lp_nodes else 0.0,
    }
