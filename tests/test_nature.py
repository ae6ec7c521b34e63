import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxmin_auction as ma
from brute_force_oracle import brute_force_min, grid_nodes
from generators import (random_corner_lsa, random_feasible_mechanism,
                        random_instance)
from maxmin_auction import nature
from maxmin_auction.errors import (BoundaryError, DomainError, InfeasibleError,
                                   SizeError)


def spa(reserves, vmax=(1.0, 1.0)):
    return ma.corner_hitting(reserves, vmax)


def example1_mechanism(r=0.2, k=0.3):
    """Bidder 1 priced out; bidder 2 faces an affine price in bidder 1's report."""
    c = np.array([0.0, 0.2, 0.5, 1.0])
    return ma.GridMechanism([c, c], [np.full(4, 1.0), r + k * c])


EX1_INSTANCE = ma.Instance(2, [0.5, 0.5], 1.0)


class TestWorstCaseLP:
    def test_spa_guarantee_is_sum_of_means_minus_one(self):
        inst = ma.Instance(2, [0.6, 0.7], 1.0)
        mech = spa([0.0, 0.0])
        value, dist, cert, _ = nature.mechanism_guarantee(mech, inst, step=0.1)
        assert value == pytest.approx(0.3, abs=1e-9)
        assert dist.mean() == pytest.approx([0.6, 0.7], abs=1e-9)

    def test_constant_revenue(self):
        inst = ma.Instance(2, [0.6, 0.7], 1.0)
        coords = [np.array([0.0, 0.5, 1.0])] * 2
        t = np.full((3, 3), 0.42)
        value, dist, cert = nature.worst_case_lp(coords, t, inst)
        assert value == pytest.approx(0.42)
        assert dist.mean() == pytest.approx([0.6, 0.7])

    def test_excluded_bidder_example(self):
        coords = [np.array([0.0, 0.2, 0.5, 1.0])] * 2
        mech = example1_mechanism()
        t = nature.lower_revenue_table(mech, coords)
        value, dist, cert = nature.worst_case_lp(coords, t, EX1_INSTANCE)
        assert value == pytest.approx(0.0375, abs=1e-9)
        assert cert.lam[0] == pytest.approx(-0.075, abs=1e-9)
        assert cert.lam[1] == pytest.approx(0.25, abs=1e-9)

    def test_infeasible_means(self):
        inst = ma.Instance(2, [0.7, 0.5], 1.0)
        coords = [np.array([0.0, 0.5]), np.array([0.0, 1.0])]
        with pytest.raises(InfeasibleError):
            nature.worst_case_lp(coords, np.zeros((2, 2)), inst)

    def test_means_outside_grid_is_domain_error(self):
        """Coords that do not cover the means are bad input."""
        inst = ma.Instance(2, [0.7, 0.5], 1.0)
        coords = [np.array([0.0, 0.5]), np.array([0.0, 1.0])]
        with pytest.raises(DomainError):
            nature.worst_case_lp(coords, np.zeros((2, 2)), inst)

    def test_unequal_bounds_negative_multiplier(self):
        # reserve above the small-bound rival's support: more rival mean hurts
        inst = ma.Instance(2, [1.5, 0.2], [2.0, 1.0])
        lsa = ma.corner_hitting([1.2, 0.1], inst.vmax)
        value, dist, cert, _ = nature.mechanism_guarantee(lsa, inst)
        expected = (1 - 1.2 / 1.0) * 0.2 + (1.5 - 1.2) / 0.8 * 1.2
        assert value == pytest.approx(expected, abs=1e-9)
        assert cert.lam[1] == pytest.approx(-0.2, abs=1e-9)

    def test_support_size(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            lsa = random_corner_lsa(rng, inst)
            _, dist, _, _ = nature.mechanism_guarantee(lsa, inst)
            assert len(dist.probs) <= inst.n + 1

    def test_complementary_slackness(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            lsa = random_corner_lsa(rng, inst)
            coords = nature.breakpoint_coords(lsa)
            t = nature.lower_revenue_table(lsa, coords)
            value, dist, cert = nature.worst_case_lp(coords, t, inst)
            nodes = grid_nodes(coords)
            tv = t.ravel()
            for atom in dist.atoms:
                idx = int(np.argmin(np.abs(nodes - atom).sum(axis=1)))
                slack = tv[idx] - cert.lam @ atom - cert.lambda0
                assert abs(slack) <= 1e-9

    def test_strong_duality(self, rng):
        for _ in range(30):
            inst = random_instance(rng)
            lsa = random_corner_lsa(rng, inst)
            value, _, cert, _ = nature.mechanism_guarantee(lsa, inst)
            assert abs(value - cert.value) <= 1e-9

    def test_grid_refinement_never_increases(self, rng):
        inst = ma.Instance(2, [0.6, 0.7], 1.0)
        lsa = spa([0.35, 0.45])
        coarse = nature.breakpoint_coords(lsa)
        v_coarse, *_ = nature.worst_case_lp(
            coarse, nature.lower_revenue_table(lsa, coarse), inst)
        for _ in range(5):
            fine = [np.unique(np.concatenate([c, rng.uniform(0, 1, 4)]))
                    for c in coarse]
            v_fine, *_ = nature.worst_case_lp(
                fine, nature.lower_revenue_table(lsa, fine), inst)
            assert v_fine <= v_coarse + 1e-9

    def test_fine_step_does_not_raise_the_guarantee(self):
        """A step-0.002 grid has about 500 points per axis, past the
        per-axis cap of 40 for a two-bidder grid mechanism.  The step points
        are merged after the closure rounds, so the cap never drops the
        breakpoints the default grid gives Nature.  Seed 7, pair 43 of
        (random_instance, random_feasible_mechanism): the default grid gives
        0.16942; with the step points in the closure rounds the step grid
        gave 0.16967."""
        rng = np.random.default_rng(7)
        for _ in range(44):
            inst = random_instance(rng, n=2)
            mech = random_feasible_mechanism(rng, 2)
        default, *_ = nature.mechanism_guarantee(mech, inst)
        fine, *_ = nature.mechanism_guarantee(mech, inst, step=0.002)
        assert fine <= default + 1e-9


@pytest.mark.parametrize("m", [0.3, 0.64, 0.9])
def test_second_price_without_reserve_optimal_for_enough_bidders(m):
    """The paper's last claim through Nature's LP: with n symmetric bidders,
    the auction without reserves reaches the optimal guarantee exactly when
    n >= 1 / (1 - sqrt(1 - m / vmax)); below that it falls short."""
    switch = 1.0 / (1.0 - np.sqrt(1.0 - m))
    for n in range(2, 9):
        inst = ma.Instance(n, [m] * n, 1.0)
        zeros = np.zeros(n)
        value, *_ = nature.mechanism_guarantee(
            ma.corner_hitting(zeros, inst.vmax), inst)
        assert abs(value - ma.lsa_guarantee(zeros, inst)[0]) <= 1e-9
        best = ma.optimal_reserves(inst).guarantee
        if n >= switch:
            assert abs(value - best) <= 1e-9
        else:
            assert value < best - 1e-6


class TestBruteForce:
    def test_matches_lp_on_spa(self):
        inst = ma.Instance(2, [0.6, 0.7], 1.0)
        mech = spa([0.0, 0.0])
        coords = nature.breakpoint_coords(mech, step=0.25)
        t = nature.lower_revenue_table(mech, coords)
        lp, *_ = nature.worst_case_lp(coords, t, inst)
        assert brute_force_min(coords, t, inst) == pytest.approx(lp, abs=1e-9)
        assert lp == pytest.approx(0.3, abs=1e-9)

    def test_point_mass_forced(self):
        # means sit exactly on a grid node with a unique support
        inst = ma.Instance(2, [0.5, 0.5], 1.0)
        coords = [np.array([0.0, 0.5, 1.0])] * 2
        t = np.arange(9.0).reshape(3, 3) + 1.0
        # force the point mass by shrinking the grid to the node and corners
        bf = brute_force_min(coords, t, inst)
        lp, *_ = nature.worst_case_lp(coords, t, inst)
        assert bf == pytest.approx(lp, abs=1e-9)

    def test_example1(self):
        coords = [np.array([0.0, 0.2, 0.5, 1.0])] * 2
        t = nature.lower_revenue_table(example1_mechanism(), coords)
        assert brute_force_min(coords, t, EX1_INSTANCE) == pytest.approx(
            0.0375, abs=1e-9)

    def test_guard(self):
        inst = ma.Instance(2, [0.5, 0.5], 1.0)
        coords = [np.linspace(0, 1, 40)] * 2
        # C(1600, 3) ~ 6.8e8 supports, past the 1e7 guard
        with pytest.raises(SizeError):
            brute_force_min(coords, np.zeros((40, 40)), inst)


class TestGridStep:
    @pytest.mark.parametrize("n, steps", [(2, (0.05, 0.01, 0.002)),
                                          (3, (0.05, 0.01))])
    def test_step_refines_the_default_grid(self, n, steps):
        """A step grid keeps every coordinate of the default grid, so
        Nature's value on it is never above the default one.  Grid
        mechanisms and LSAs from the generators; the two-bidder run covers
        seed 7's pair 43 (above).  At n = 3 a 0.002 step asks for 501^3
        nodes, past ``MAX_STEP_NODES``."""
        rng, lsa_rng = np.random.default_rng(7), np.random.default_rng(8)
        for _ in range(44 if n == 2 else 12):
            inst = random_instance(rng, n=n)
            for mech in (random_feasible_mechanism(rng, n),
                         random_corner_lsa(lsa_rng, inst)):
                default, _, _, coarse = nature.mechanism_guarantee(mech, inst)
                for step in steps:
                    fine = nature.breakpoint_coords(mech, step=step)
                    for c, f in zip(coarse, fine):
                        assert np.abs(c[:, None] - f).min(axis=1).max() \
                            <= 1e-12
                    value, *_ = nature.mechanism_guarantee(mech, inst,
                                                           step=step)
                    assert value <= default + 1e-9

    def test_two_bidder_grid_value_is_exact(self):
        """The one-pass two-bidder breakpoint set gives the value of a step
        0.002 refinement, within 1e-9, on seed 7's 200 two-bidder pairs."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            inst = random_instance(rng, n=2)
            mech = random_feasible_mechanism(rng, 2)
            value, *_ = nature.mechanism_guarantee(mech, inst)
            fine, *_ = nature.mechanism_guarantee(mech, inst, step=0.002)
            assert value == pytest.approx(fine, abs=1e-9)

    @pytest.mark.parametrize("n, steps", [(2, (0.05, 0.01, 0.002)),
                                          (3, (0.05, 0.01))])
    def test_lsa_step_value_is_exact(self, rng, n, steps):
        """On a step grid an LSA keeps its exact guarantee."""
        for _ in range(8):
            inst = random_instance(rng, n=n)
            lsa = random_corner_lsa(rng, inst)
            exact, _ = ma.lsa_guarantee([lsa.reserve(i) for i in range(n)],
                                        inst)
            for step in steps:
                value, *_ = nature.mechanism_guarantee(lsa, inst, step=step)
                assert value == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3])
    def test_step_past_the_bound_stays_in_the_box(self, n):
        """A step that does not divide the bound (0.6, whose uniform grid
        would reach 1.2) adds no point past it; the value stays exact."""
        inst = ma.Instance(n, [0.64, 0.6, 0.5][:n], 1.0)
        r = [0.3, 0.2, 0.5][:n]
        lsa = ma.corner_hitting(r, inst.vmax)
        for c in nature.breakpoint_coords(lsa, step=0.6):
            assert c[0] == 0.0 and c[-1] == 1.0
        value, *_ = nature.mechanism_guarantee(lsa, inst, step=0.6)
        assert value == pytest.approx(ma.lsa_guarantee(r, inst)[0], abs=1e-9)

    @pytest.mark.parametrize("step", [0.0, -0.1, float("nan"), float("inf")])
    def test_step_must_be_finite_and_positive(self, step):
        with pytest.raises(DomainError, match="grid step"):
            nature.breakpoint_coords(example1_mechanism(), step=step)

    def test_tiny_step_raises_before_allocating(self):
        # step 1e-6 asks for about 1e12 nodes at n = 2
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match="grid step"):
                nature.breakpoint_coords(example1_mechanism(), step=1e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000


def random_lsa(rng, n):
    """Corner-hitting auctions with reserves at 0 and at the bound, and
    general alpha / beta with exclusions and alpha = 0; equal or unequal
    bounds."""
    vmax = rng.uniform(0.5, 2.0, n) if rng.random() < 0.5 else np.ones(n)
    if rng.random() < 0.4:
        r = rng.uniform(0.0, 1.0, n) * vmax
        r[rng.random(n) < 0.2] = 0.0
        top = rng.random(n) < 0.2
        r[top] = vmax[top]
        return ma.corner_hitting(r, vmax)
    alphas = rng.uniform(0.0, 1.5, n)
    alphas[rng.random(n) < 0.25] = 0.0
    return ma.LinearScoreAuction(
        tuple(alphas), tuple(rng.uniform(0.3, 3.0, n)), tuple(vmax),
        tuple(bool(e) for e in rng.random(n) < 0.2))


def six_round_lsa_coords(lsa):
    """An LSA's breakpoint grid as it was built before one round was shown
    to close it: up to six rounds of induced thresholds, at most 200
    points per axis."""
    n, vmax = lsa.n, lsa.vmax
    tol = 1e-12 * max(1.0, max(vmax))
    coords = [nature.dedup_sorted([0.0, vmax[i], lsa.reserve(i)], tol,
                                  snap=(0.0, vmax[i])) for i in range(n)]
    for _ in range(6):
        grew = False
        induced = lsa.tables(coords)
        for i in range(n):
            merged = nature.dedup_sorted(np.concatenate(
                [coords[i], induced[i].ravel()]), tol, snap=(0.0, vmax[i]))
            if len(merged) > 200:
                merged = coords[i]
            grew |= len(merged) != len(coords[i])
            coords[i] = merged
        if not grew:
            break
    return coords


def test_lsa_grid_closes_in_one_round():
    """Every threshold of an LSA on its breakpoint grid is a coordinate of
    that grid, and the grid is the one the six-round loop built.  For
    n >= 3 and general alpha / beta that loop's second round can re-derive
    a threshold one or two ulps lower, which the dedup then keeps, so the
    coordinates agree to 2e-15 rather than bit for bit."""
    rng = np.random.default_rng(61)
    for k in range(600):
        lsa = random_lsa(rng, 2 + k % 4)
        grid = nature.breakpoint_coords(lsa)
        for i, table in enumerate(lsa.tables(grid)):
            assert np.abs(table.reshape(-1, 1) - grid[i]).min(axis=1).max() \
                <= 1e-12, k
        for a, b in zip(grid, six_round_lsa_coords(lsa)):
            assert len(a) == len(b) and np.abs(a - b).max() <= 2e-15, k


class TestDualValue:
    def test_zero_multiplier_gives_min_revenue(self):
        inst = ma.Instance(2, [0.6, 0.7], 1.0)
        coords = [np.array([0.0, 1.0])] * 2
        t = np.array([[0.1, 0.2], [0.3, 0.4]])
        assert nature.dual_value(coords, t, inst, [0.0, 0.0]) == pytest.approx(0.1)

    def test_spa_unit_multipliers(self):
        inst = ma.Instance(2, [0.6, 0.7], 1.0)
        mech = spa([0.0, 0.0])
        coords = nature.breakpoint_coords(mech, step=0.5)
        t = nature.lower_revenue_table(mech, coords)
        assert nature.dual_value(coords, t, inst, [1.0, 1.0]) == pytest.approx(0.3)

    def test_weak_duality(self, rng):
        inst = ma.Instance(2, [0.6, 0.7], 1.0)
        mech = spa([0.3, 0.2])
        coords = nature.breakpoint_coords(mech)
        t = nature.lower_revenue_table(mech, coords)
        lp, *_ = nature.worst_case_lp(coords, t, inst)
        for _ in range(50):
            lam = rng.normal(size=2)
            assert nature.dual_value(coords, t, inst, lam) <= lp + 1e-9


class TestGridChecks:
    """A grid, table or multiplier vector that does not fit the instance is a
    ``DomainError``, never a number or another error."""
    INST2 = ma.Instance(2, [0.6, 0.7], 1.0)
    INST3 = ma.Instance(3, [0.5] * 3, 1.0)

    @staticmethod
    def grid():
        mech = spa([0.3, 0.2])
        coords = nature.breakpoint_coords(mech)
        return mech, coords, nature.lower_revenue_table(mech, coords)

    def test_dual_value_needs_one_axis_per_bidder(self):
        _, coords, t = self.grid()
        with pytest.raises(DomainError, match="axis per bidder"):
            nature.dual_value(coords, t, self.INST3, [0.5] * 3)

    @pytest.mark.parametrize("lam", [[0.5], [0.5] * 3, [np.nan, 0.5],
                                     [0.5, np.inf]])
    def test_dual_value_needs_n_finite_multipliers(self, lam):
        _, coords, t = self.grid()
        with pytest.raises(DomainError, match="finite multipliers"):
            nature.dual_value(coords, t, self.INST2, lam)

    def test_brute_force_needs_one_axis_per_bidder(self):
        with pytest.raises(DomainError, match="axis per bidder"):
            brute_force_min([[0.0, 1.0]] * 2, np.zeros(4), self.INST3)

    @pytest.mark.parametrize("axes", [1, 3])
    @pytest.mark.parametrize("tabulated", [False, True])
    def test_lower_revenue_table_needs_one_axis_per_bidder(self, axes,
                                                           tabulated):
        mech, coords, _ = self.grid()
        if tabulated:
            mech = ma.grid_from_lsa(mech, coords)
        with pytest.raises(DomainError, match="axis per bidder"):
            nature.lower_revenue_table(mech, (coords * 2)[:axes])

    @pytest.mark.parametrize("call", [
        lambda: nature.lower_revenue_table(
            ma.corner_hitting([0.3, 0.3], [1, 1]), [[0, 0.5, 1.5], [0, 1]]),
        lambda: ma.lagrangian_on_grid(
            [ma.grid_from_lsa(ma.corner_hitting([0.3, 0.3], [1, 1]),
                              [[0, 0.3, 1]] * 2)], [0.5, 0.5],
            ma.Instance(2, [0.6, 0.6], 1.0), [[0, 0.3, 1, 1.5], [0, 0.3, 1]]),
        lambda: nature.dual_value([[0, 1, 1.5], [0, 1]], np.zeros(6),
                                  ma.Instance(2, [0.6, 0.6], 1.0), [0.5, 0.5]),
        lambda: nature.dual_value([[-0.5, 0, 1], [0, 1]], np.zeros(6),
                                  ma.Instance(2, [0.6, 0.6], 1.0), [0.5, 0.5]),
        lambda: nature.worst_case_lp([[0, 1, 1.5], [0, 1]], np.zeros(6),
                                     ma.Instance(2, [0.6, 0.6], 1.0)),
        lambda: brute_force_min([[0, 1, 1.5], [0, 1]], np.zeros(6),
                                ma.Instance(2, [0.6, 0.6], 1.0)),
    ], ids=["lower-revenue-table", "lagrangian-on-grid", "dual-value",
            "dual-value-below-zero", "worst-case-lp", "brute-force"])
    def test_axes_past_the_bounds_raise(self, call):
        with pytest.raises(DomainError, match="reaches past the bounds"):
            call()


class TestNonFiniteTables:
    """A revenue table holding NaN or -inf anywhere, or +inf at a corner the
    simplex starts from, is a ``DomainError`` before any pivot; +inf
    elsewhere is a node Nature never picks."""
    INST = ma.Instance(2, [0.5, 0.4], 1.0)
    COORDS = [np.array([0.0, 0.5, 1.0])] * 2
    START = (0, 6, 8)     # Freudenthal corners (0, 0), (1, 0), (1, 1)

    def table(self, node, entry):
        t = np.full(9, 0.2)
        t[node] = entry
        return t.reshape(3, 3)

    def test_start_corners(self):
        assert nature._freudenthal_corners(
            self.COORDS, self.INST.means) == list(self.START)

    @pytest.mark.parametrize("entry", [np.nan, -np.inf])
    @pytest.mark.parametrize("node", range(9))
    def test_nan_or_minus_inf_anywhere_raises(self, entry, node):
        t = self.table(node, entry)
        with pytest.raises(DomainError, match="NaN or -inf"):
            nature.worst_case_lp(self.COORDS, t, self.INST)
        with pytest.raises(DomainError, match="NaN or -inf"):
            nature.dual_value(self.COORDS, t, self.INST, [0.5, 0.5])

    @pytest.mark.parametrize("node", START)
    def test_inf_at_a_start_corner_raises(self, node):
        with pytest.raises(DomainError, match="infinite at a corner"):
            nature.worst_case_lp(self.COORDS, self.table(node, np.inf),
                                 self.INST)

    @pytest.mark.parametrize("node", sorted(set(range(9)) - set(START)))
    def test_inf_elsewhere_is_never_an_atom(self, node):
        t = self.table(node, np.inf)
        value, dist, cert = nature.worst_case_lp(self.COORDS, t, self.INST)
        assert value == pytest.approx(0.2, abs=1e-12)
        assert cert.value == pytest.approx(0.2, abs=1e-12)
        assert dist.mean() == pytest.approx(self.INST.means, abs=1e-12)
        assert nature.dual_value(self.COORDS, t, self.INST, [0.0, 0.0]) == 0.2


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_lsa_revenue_table_is_finite_on_in_box_grids(seed):
    """Inside the box every node of a score auction's table has a winner
    candidate or is a no-sale limit: n = 2 to 4, equal or unequal bounds,
    excluded bidders, zero reserves and reserves clipped to their bound."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    vmax = rng.uniform(0.5, 2.0, n) if rng.random() < 0.5 else np.ones(n)
    if rng.random() < 0.5:
        r = rng.uniform(0.0, 1.0, n) * vmax
        r[rng.random(n) < 0.2] = 0.0
        top = rng.random(n) < 0.2              # excluded bidders
        r[top] = vmax[top]
        lsa = ma.corner_hitting(r, vmax)
    else:                     # alpha / beta may pass vmax: a clipped reserve
        lsa = ma.LinearScoreAuction(
            tuple(rng.uniform(0.0, 1.5, n) * vmax * (rng.random(n) > 0.2)),
            tuple(rng.uniform(0.3, 3.0, n)), tuple(vmax),
            tuple(bool(e) for e in rng.random(n) < 0.2))
    coords = []
    for vm in vmax:
        pts = rng.uniform(0.0, vm, int(rng.integers(1, 6)))
        ends = [x for x, keep in zip((0.0, vm), rng.random(2) < 0.7) if keep]
        coords.append(np.unique(np.concatenate([pts, ends, [vm / 2]])))
    t = nature.lower_revenue_table(lsa, coords)
    assert t.shape == tuple(len(c) for c in coords)
    assert np.all(np.isfinite(t))


class TestWorstCaseClassification:
    INST = ma.Instance(2, [0.7, 0.6], 1.0)

    def test_type_i(self):
        assert nature.wcdistr2_classify([0.2, 0.2], self.INST) is \
            nature.WorstCaseType.I
        assert nature.wc_boundary_r2(0.2, self.INST) == pytest.approx(0.36)

    def test_type_ii(self):
        assert nature.wcdistr2_classify([0.45, 0.5], self.INST) is \
            nature.WorstCaseType.II
        assert nature.wc_boundary_r2(0.45, self.INST) == pytest.approx(0.12)

    def test_boundary_curve_at_zero(self):
        assert nature.wc_boundary_r2(0.0, self.INST) == pytest.approx(3 / 7)

    def test_type_iii(self):
        assert nature.wcdistr2_classify([0.55, 0.55], self.INST) is \
            nature.WorstCaseType.III

    def test_reserve_at_mean_rejected(self):
        with pytest.raises(DomainError):
            nature.wcdistr2_classify([0.7, 0.2], self.INST)

    @pytest.mark.parametrize("r", [[0.4], [0.2, 0.2, 0.2], [np.nan, 0.3],
                                   [0.3, np.inf]])
    @pytest.mark.parametrize("fn", [nature.wcdistr2_classify,
                                    nature.wcdistr2_construct,
                                    nature.lsa2_dual_multipliers,
                                    nature.lsa2_guarantee])
    def test_reserves_need_two_finite_entries(self, fn, r):
        with pytest.raises(DomainError, match="two finite reserves"):
            fn(r, self.INST)

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryError):
            nature.wcdistr2_classify([0.45, 0.55], self.INST)  # r2 = 1 - r1
        rbar = nature.wc_boundary_r2(0.45, self.INST)
        with pytest.raises(BoundaryError):
            nature.wcdistr2_classify([0.45, rbar], self.INST)


class TestDualMultipliers:
    INST = ma.Instance(2, [0.7, 0.6], 1.0)

    def test_type_i(self):
        lam = nature.lsa2_dual_multipliers([0.2, 0.2], self.INST)
        assert lam == pytest.approx([1.0, 1.0])

    def test_type_ii(self):
        lam = nature.lsa2_dual_multipliers([0.45, 0.5], self.INST)
        assert lam == pytest.approx([9 / 11, 1.0])

    def test_symmetric_reserves_give_equal_multipliers(self, rng):
        # holds in the undercut and sure-sale regimes; the wall regime's
        # candidate pairs are asymmetric by construction
        inst = ma.Instance(2, [0.8, 0.8], 1.0)
        for _ in range(20):
            r = float(rng.uniform(0.05, 0.49))
            try:
                lam = nature.lsa2_dual_multipliers([r, r], inst)
            except BoundaryError:
                continue
            assert lam[0] == pytest.approx(lam[1], abs=1e-12)


class TestWorstCaseConstruction:
    INST = ma.Instance(2, [0.7, 0.6], 1.0)

    def test_type_ii_atoms_and_revenue(self):
        d = nature.wcdistr2_construct([0.45, 0.5], self.INST)
        probs = {tuple(np.round(a, 6)): p for a, p in zip(d.atoms, d.probs)}
        assert probs[(0.45, 0.5)] == pytest.approx(19 / 55)
        assert probs[(1.0, 0.5)] == pytest.approx(5 / 11)
        assert probs[(0.45, 1.0)] == pytest.approx(0.2)
        rev = sum(p * nature.revenue_unsold_at_reserves([0.45, 0.5], self.INST, a)
                  for a, p in zip(d.atoms, d.probs))
        assert rev == pytest.approx(0.3045454545454545, abs=1e-9)

    def test_type_i_is_three_binding_corners(self):
        d = nature.wcdistr2_construct([0.2, 0.2], self.INST)
        assert d.atoms.tolist() == [[1.0, 1.0], [1.0, 0.2], [0.2, 1.0]]
        assert d.probs == pytest.approx([0.125, 0.5, 0.375], abs=1e-12)

    @pytest.mark.parametrize("means, row", [((0.7, 0.6), (1.0, 0.55)),
                                            ((0.6, 0.7), (0.55, 1.0))])
    def test_type_iii_on_either_wall(self, means, row):
        # the no-sale corner, the wall and the bidder row of the better
        # candidate multipliers; swapping the means swaps the wall
        inst = ma.Instance(2, means, 1.0)
        r = [0.55, 0.55]
        assert nature.wcdistr2_classify(r, inst) is nature.WorstCaseType.III
        d = nature.wcdistr2_construct(r, inst)
        assert [tuple(a) for a in d.atoms] == [(0.55, 0.55), row, (1.0, 1.0)]
        assert d.probs == pytest.approx([2 / 3, 2 / 9, 1 / 9], abs=1e-12)
        assert nature.lsa2_guarantee(r, inst) == pytest.approx(7 / 30,
                                                               abs=1e-12)

    def test_atoms_are_binding_corners(self, rng):
        """Every atom is a corner of [r1, vmax] x [r2, vmax] where the
        Lagrangian binds: revenue - lam @ v is its inner minimum there."""
        seen = {t: 0 for t in nature.WorstCaseType}
        walls = set()
        while min(seen.values()) < 100 or len(walls) < 2:
            m = rng.uniform(0.05, 0.98, 2)
            inst = ma.Instance(2, m, 1.0)
            r = rng.uniform(0.0, 1.0, 2) * m
            try:
                kind = nature.wcdistr2_classify(r, inst)
            except BoundaryError:
                continue
            seen[kind] += 1
            d = nature.wcdistr2_construct(r, inst)
            lam = nature.lsa2_dual_multipliers(r, inst)
            inner = nature.lsa2_guarantee(r, inst) - lam @ m
            corners = {(r[0], r[1]), (1.0, r[1]), (r[0], 1.0), (1.0, 1.0)}
            for a in d.atoms:
                assert tuple(a) in corners, (m, r, a)
                rev = nature.revenue_unsold_at_reserves(r, inst, a)
                assert abs(rev - lam @ a - inner) <= 1e-12, (m, r, a)
            assert np.abs(d.mean() - m).max() <= 1e-12, (m, r)
            if kind is nature.WorstCaseType.III:
                walls.add((1.0, r[1]) in map(tuple, d.atoms))

    def test_type_i_revenue_matches_dual(self):
        d = nature.wcdistr2_construct([0.2, 0.2], self.INST)
        rev = sum(p * nature.revenue_unsold_at_reserves([0.2, 0.2], self.INST, a)
                  for a, p in zip(d.atoms, d.probs))
        assert rev == pytest.approx(0.3, abs=1e-9)

    def test_means_exact(self, rng):
        for _ in range(50):
            m = rng.uniform(0.35, 0.9, 2)
            inst = ma.Instance(2, m, 1.0)
            r = rng.uniform(0.02, 0.98, 2) * (m - 0.01)
            try:
                d = nature.wcdistr2_construct(r, inst)
            except BoundaryError:
                continue
            assert d.mean() == pytest.approx(m, abs=1e-12)

    def test_revenue_equals_dual_value_per_regime(self, rng):
        """Constructed distribution attains the multiplier bound, all regimes."""
        seen = {t: 0 for t in nature.WorstCaseType}
        while min(seen.values()) < 100:
            m = rng.uniform(0.3, 0.95, 2)
            inst = ma.Instance(2, m, 1.0)
            r = rng.uniform(0.05, 0.95, 2) * (m - 0.02)
            try:
                kind = nature.wcdistr2_classify(r, inst)
                d = nature.wcdistr2_construct(r, inst)
            except BoundaryError:
                continue
            seen[kind] += 1
            dual = nature.lsa2_guarantee(r, inst)
            rev = sum(p * nature.revenue_unsold_at_reserves(r, inst, a)
                      for a, p in zip(d.atoms, d.probs))
            assert rev == pytest.approx(dual, abs=1e-9), (m, r, kind)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1 (fix Nature's lower "
                   "envelope), n = 2 residue: a node within tol of a "
                   "threshold jump counts as a point where one bidder binds")
def test_fix_natures_lower_envelope_n2_residue():
    """Narrowing a step of an always-sell boundary from 1e-6 to 1e-10 wide
    should barely move its value; today it drops from 0.112 to 0.040."""
    inst = ma.Instance(2, [0.64, 0.64], 1.0)
    values = []
    for w in (1e-10, 1e-6):
        c = [[0.0, 0.2, 0.8, 1.0], [0.0, 0.5, 0.5 + w, 1.0]]
        values.append(nature.mechanism_guarantee(ma.GridMechanism(c, c),
                                                 inst)[0])
    assert values[0] == pytest.approx(values[1], abs=1e-3)


def _table_past_a_clipped_reserve():
    # bidder 1's reserve 2 is clipped to her bound 1, and the grid reaches
    # 1.5: there she neither wins nor stays in the no-sale region
    mech = ma.LinearScoreAuction((2.0, 0.5), (1.0, 1.0), (1.0, 1.0))
    return nature.lower_revenue_table(mech, [[0, 1, 1.5], [0, 0.25, 1]])


INST3 = ma.Instance(3, [0.5] * 3, 1.0)
ERROR_PATHS = {
    "lp-table-size": (DomainError, "does not match the grid",
                      lambda: nature.worst_case_lp(
                          [[0.0, 1.0]] * 2, np.zeros(3), EX1_INSTANCE)),
    "dual-table-size": (DomainError, "does not match the grid",
                        lambda: nature.dual_value([[0.0, 1.0]] * 2,
                                                  np.zeros(5), EX1_INSTANCE,
                                                  [0.5, 0.5])),
    "means-outside-grid": (SizeError, "no feasible support",
                           lambda: brute_force_min(
                               [[0.0, 0.4]] * 2, np.zeros(4), EX1_INSTANCE)),
    "past-clipped-reserve": (DomainError, "reaches past",
                             _table_past_a_clipped_reserve),
    "classify-n3": (DomainError, "two bidders",
                    lambda: nature.wcdistr2_classify([0.1] * 3, INST3)),
    "construct-n3": (DomainError, "two bidders",
                     lambda: nature.wcdistr2_construct([0.1] * 3, INST3)),
    "multipliers-n3": (DomainError, "two bidders",
                       lambda: nature.lsa2_dual_multipliers([0.1] * 3, INST3)),
    "guarantee-n3": (DomainError, "two bidders",
                     lambda: nature.lsa2_guarantee([0.1] * 3, INST3)),
}


@pytest.mark.parametrize("case", sorted(ERROR_PATHS))
def test_error_paths(case):
    error, match, call = ERROR_PATHS[case]
    with pytest.raises(error, match=match):
        call()
