"""``nature.dedup_sorted`` snaps only the kept values that bisection finds
within 2 tol of an anchor; it must give the bits of the loop that tested
every kept value against every anchor (``dedup_reference``), on the inputs
where snapping and collapsing interact: clusters at 0 and at the bound,
values within tol outside the box, and chains of gaps below tol whose span
exceeds tol."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dedup_reference as ref
from maxmin_auction import nature

TOLS = st.sampled_from([1e-12, 2.5e-12, 1e-10, 2.0 ** -40]) | st.floats(
    1e-13, 1e-9)
BOUNDS = st.sampled_from([1.0, 2.5, 0.75]) | st.floats(0.5, 3.0)


@st.composite
def box_values(draw):
    """A tol, a bound and values built from pieces, in a drawn order."""
    tol, vmax = draw(TOLS), draw(BOUNDS)
    unit = st.floats(0.0, 1.0)
    values = []
    for kind in draw(st.lists(st.sampled_from(
            ["cluster0", "cluster_top", "outside", "chain", "inner"]),
            min_size=1, max_size=6)):
        if kind in ("cluster0", "cluster_top"):     # spaced about tol apart
            k = draw(st.integers(1, 6))
            gaps = draw(st.lists(st.floats(0.1, 1.6), min_size=k, max_size=k))
            offsets = np.cumsum(gaps) * tol - draw(unit) * tol
            values += (offsets if kind == "cluster0"
                       else vmax - offsets).tolist()
        elif kind == "outside":                     # within tol of the box
            u = draw(unit)
            values.append(-u * tol if draw(st.booleans()) else vmax + u * tol)
        elif kind == "chain":           # gaps below tol, span above tol
            k = draw(st.integers(4, 9))
            gaps = draw(st.lists(st.floats(0.3, 0.99), min_size=k,
                                 max_size=k))
            start = draw(st.sampled_from([0.0, vmax]) | st.floats(
                -tol, vmax + tol))
            chain = start + np.concatenate([[0.0], np.cumsum(gaps)]) * tol
            if draw(st.booleans()):
                chain = 2 * start - chain                # running downwards
            values += chain.tolist()
        else:
            values.append(draw(st.floats(0.0, vmax)))
    values += draw(st.sampled_from([[], [0.0], [vmax], [0.0, vmax]]))
    order = draw(st.permutations(range(len(values))))
    return [values[k] for k in order], tol, vmax


@given(box_values())
@settings(max_examples=600, deadline=None)
def test_dedup_sorted_keeps_the_loops_bits(case):
    values, tol, vmax = case
    for snap in ((0.0, vmax), (vmax, 0.0)):
        old = ref.dedup_sorted(values, tol, snap)
        for given_values in (values, np.asarray(values)):
            new = nature.dedup_sorted(given_values, tol, snap)
            assert new.dtype == old.dtype
            assert new.tobytes() == old.tobytes(), (values, tol, snap)
