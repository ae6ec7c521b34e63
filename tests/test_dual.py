import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxmin_auction as ma
from generators import random_corner_lsa, random_instance
from maxmin_auction import nature
from maxmin_auction.errors import BoundaryError, DomainError
from test_lp_start import reference_multiplier_lp, reference_solve_lp

INST64 = ma.Instance(2, [0.64, 0.64], 1.0)


class TestLagrangian:
    def test_symmetric_low_means_point(self):
        val = ma.lsa_lagrangian([0.4, 0.4], [2 / 3, 2 / 3], INST64)
        assert val == pytest.approx(0.32, abs=1e-12)
        assert val == pytest.approx(1.28 * (2 / 3) - 8 / 15, abs=1e-12)

    def test_high_means_point_all_kinks_tied(self):
        inst = ma.Instance(2, [0.75, 0.91], 1.0)
        val = ma.lsa_lagrangian([3 / 8, 5 / 8], [0.6, 5 / 3], inst)
        assert val == pytest.approx(0.7, abs=1e-12)
        # cross-check against the separable objective
        lam = np.array([0.6, 5 / 3])
        sep = float(np.sum(inst.mean_vector * lam - lam ** 2 / (1 + lam)))
        assert val == pytest.approx(sep, abs=1e-12)

    def test_zero_multipliers(self):
        assert ma.lsa_lagrangian([0.4, 0.4], [0.0, 0.0], INST64) == 0.0
        assert ma.lsa_lagrangian([0.0, 0.4], [0.0, 0.0], INST64) == 0.0

    def test_negative_multiplier_rejected(self):
        with pytest.raises(DomainError):
            ma.lsa_lagrangian([0.4, 0.4], [-0.1, 0.5], INST64)

    def test_zero_reserve_drops_no_sale_term(self):
        # with r > 0 the -lam @ r kink binds at lam = 0+; with r1 = 0 it is gone
        lam = [0.05, 0.05]
        with_r = ma.lsa_lagrangian([0.2, 0.2], lam, INST64)
        assert with_r == pytest.approx(
            0.064 + min(0.9, 0.2 - 0.01 - 0.05, -0.02), abs=1e-12)
        no_r = ma.lsa_lagrangian([0.0, 0.2], lam, INST64)
        assert no_r == pytest.approx(0.064 + min(0.9, -0.06, 0.19), abs=1e-12)


def multiplier_lp_value(r, inst):
    """The multiplier LP that ``lsa_guarantee`` maximizes, by the simplex."""
    c, A, b, start = reference_multiplier_lp(
        "lsa_guarantee", (np.asarray(r, dtype=float), inst))
    return -reference_solve_lp(c, A, b, start=start).value


class TestGuarantee:
    def test_spa_no_reserve(self):
        inst = ma.Instance(2, [0.6, 0.7], 1.0)
        value, lam = ma.lsa_guarantee([0.0, 0.0], inst)
        assert value == pytest.approx(0.3, abs=1e-9)
        assert lam == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_optimal_reserves(self):
        value, lam = ma.lsa_guarantee([0.4, 0.4], INST64)
        assert value == pytest.approx(0.32, abs=1e-9)
        assert lam == pytest.approx([2 / 3, 2 / 3], abs=1e-9)

    def test_suboptimal_reserves(self):
        value, lam = ma.lsa_guarantee([0.3, 0.3], INST64)
        assert value == pytest.approx(2.04 / 7, abs=1e-9)
        assert lam == pytest.approx([3 / 7, 3 / 7], abs=1e-9)

    def test_never_sell_guarantee_is_positive_zero(self):
        # every reserve at the bound: the LP's value is zero, never -0.0
        inst = ma.Instance(3, [0.5, 0.5, 0.5], 1.0)
        value, _ = ma.lsa_guarantee([1.0, 1.0, 1.0], inst)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_certificate_soundness(self, rng):
        """Every nonnegative multiplier vector stays below the LP value."""
        for _ in range(25):
            inst = random_instance(rng)
            lsa = random_corner_lsa(rng, inst, allow_edges=False)
            r = [lsa.reserve(i) for i in range(inst.n)]
            lp_value, *_ = nature.mechanism_guarantee(lsa, inst)
            for _ in range(20):
                lam = rng.uniform(0.0, 2.5, inst.n)
                assert ma.lsa_lagrangian(r, lam, inst) <= lp_value + 1e-9

    def test_exact_at_optimum(self, rng):
        """Closed-form maximization equals the grid LP on breakpoint grids."""
        for k in range(100):
            inst = random_instance(rng, n=2 if k % 2 == 0 else 3)
            lsa = random_corner_lsa(rng, inst)
            r = [lsa.reserve(i) for i in range(inst.n)]
            value, lam = ma.lsa_guarantee(r, inst)
            lp_value, *_ = nature.mechanism_guarantee(lsa, inst)
            assert value == pytest.approx(lp_value, abs=1e-6)

    def test_kink_equalization_at_matched_reserves(self, rng):
        """At r_i = lam_i vmax / (1 + lam_i) every kink but the top ties."""
        for _ in range(50):
            n = int(rng.integers(2, 4))
            lam = rng.uniform(0.05, 1.5, n)
            if np.sum(lam / (1 + lam)) >= 1.0:
                continue
            r = lam / (1.0 + lam)
            terms = [r[i] - (lam @ r - lam[i] * r[i]) - lam[i]
                     for i in range(n)]
            terms.append(float(-lam @ r))
            assert np.ptp(terms) <= 1e-12

    def test_matches_two_bidder_closed_form(self, rng):
        """lsa2_guarantee's worst-case types I, II and III, 1e-12 apart."""
        seen = {kind: 0 for kind in nature.WorstCaseType}
        while min(seen.values()) < 30:
            inst = ma.Instance(2, rng.uniform(0.05, 0.95, 2), 1.0)
            r = rng.uniform(0.0, 1.0, 2) * inst.mean_vector
            try:
                kind = nature.wcdistr2_classify(r, inst)
            except BoundaryError:
                continue
            seen[kind] += 1
            value, lam = ma.lsa_guarantee(r, inst)
            assert value == pytest.approx(nature.lsa2_guarantee(r, inst),
                                          abs=1e-12), (r, inst)
            assert ma.lsa_lagrangian(r, lam, inst) == pytest.approx(
                value, abs=1e-12)

    def test_three_bidder_corner_hitting(self):
        inst = ma.Instance(3, [0.6, 0.6, 0.6], 1.0)
        lsa = ma.corner_hitting([0.3] * 3, inst.vmax)
        value, lam = ma.lsa_guarantee(
            [lsa.reserve(i) for i in range(3)], inst)
        assert value == pytest.approx(0.4, abs=1e-12)
        assert lam == pytest.approx([0.5, 0.5, 0.5], abs=1e-12)

    @pytest.mark.parametrize("edge", [0.0, 1.0, 1.0 + 5e-13])
    def test_reserves_at_the_edges(self, edge, rng):
        """Reserves at 0, at vmax and just above it (within the tolerance):
        no division by zero (which would raise) or by a negative number
        (which would give a negative lam); a bidder at or above vmax gets
        lam = 0, and the value is the multiplier LP's."""
        for _ in range(40):
            n = int(rng.integers(2, 6))
            inst = random_instance(rng, n)
            r = rng.uniform(0.0, 1.0, n)
            r[rng.random(n) < 0.5] = edge
            value, lam = ma.lsa_guarantee(r, inst)
            assert np.all(np.isfinite(lam)) and lam.min() >= 0.0
            assert np.all(lam[r >= 1.0] == 0.0)
            assert value == pytest.approx(multiplier_lp_value(r, inst),
                                          abs=1e-12), r
        for r in ([edge] * 2, [edge] * 5):
            value, lam = ma.lsa_guarantee(r, random_instance(rng, len(r)))
            assert math.isfinite(value) and lam.min() >= 0.0

    def test_zero_reserve_pool_matches_lp(self):
        """Bidders with reserve 0 have no room at s = 0; the greedy fill
        must pass over them, not stop, to reach the LP's value."""
        rng = np.random.default_rng(131)
        for _ in range(400):
            n = int(rng.integers(2, 7))
            inst = random_instance(rng, n, lo=0.05, hi=0.95)
            r = rng.uniform(0.0, 1.0, n)
            r[rng.random(n) < 0.4] = 0.0
            value, lam = ma.lsa_guarantee(r, inst)
            assert value == pytest.approx(multiplier_lp_value(r, inst),
                                          abs=1e-12), r
            assert ma.lsa_lagrangian(r, lam, inst) == pytest.approx(
                value, abs=1e-12), r

    def test_degenerate_lp_with_tiny_reserves(self):
        """The revised simplex hits its iteration limit on this multiplier
        LP (an improve output's reserves); the exact solution needs none."""
        inst = ma.Instance(2, [0.5456451129224206, 0.32773468526500726], 1.0)
        r = [1.4178788317825602e-09, 2.857820171975376e-05]
        value, lam = ma.lsa_guarantee(r, inst)
        assert value == pytest.approx(nature.lsa2_guarantee(r, inst),
                                      abs=1e-12)
        assert ma.lsa_lagrangian(r, lam, inst) == pytest.approx(value,
                                                                abs=1e-12)

    @given(st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4),
           st.lists(st.floats(0.05, 0.9), min_size=2, max_size=2),
           st.floats(0.1, 0.9))
    @settings(max_examples=200, deadline=None)
    def test_concavity_in_multipliers(self, lams, r, m):
        inst = ma.Instance(2, [m, m], 1.0)
        a, b = np.asarray(lams[:2]), np.asarray(lams[2:])
        f = lambda lam: ma.lsa_lagrangian(r, lam, inst)
        assert f(0.5 * (a + b)) >= 0.5 * (f(a) + f(b)) - 1e-12


class TestAsymmetric:
    def test_equal_bounds_degenerates(self, rng):
        inst = ma.Instance(2, [0.6, 0.7], 1.0)
        for _ in range(20):
            r = rng.uniform(0.05, 0.9, 2)
            lam = rng.uniform(0.0, 1.5, 2)
            sym = ma.lsa_lagrangian(r, lam, inst)
            asym = ma.lsa2_asym_lagrangian(r, 1.0, lam, inst)
            assert asym == pytest.approx(sym, abs=1e-12)

    def test_zero_multipliers(self):
        inst = ma.Instance(2, [1.0, 0.5], [2.0, 1.0])
        val = ma.lsa2_asym_lagrangian([0.3, 0.2], 1.5, [0.0, 0.0], inst)
        assert val == pytest.approx(0.0)

    def test_optimum_matches_grid_lp(self):
        inst = ma.Instance(2, [1.5, 0.84], [2.0, 1.0])
        sol = ma.asymmetric2_solve(inst)
        value, lam = ma.lsa2_asym_guarantee(sol.reserves, sol.v1_tilde, inst)
        lsa = ma.LinearScoreAuction(
            (sol.gamma_star * sol.reserves[0], sol.reserves[1]),
            (sol.gamma_star, 1.0), inst.vmax)
        lp_value, *_ = nature.mechanism_guarantee(lsa, inst)
        assert value == pytest.approx(lp_value, abs=1e-9)
        assert value == pytest.approx(sol.guarantee, abs=1e-9)

    def test_degenerate_lp_with_tiny_reserves(self):
        """The equal-bounds instance on which the simplex failed: with
        v1_tilde = vmax the unequal-bounds form is the equal-bounds one."""
        inst = ma.Instance(2, [0.5456451129224206, 0.32773468526500726], 1.0)
        r = [1.4178788317825602e-09, 2.857820171975376e-05]
        value, lam = ma.lsa2_asym_guarantee(r, 1.0, inst)
        assert value == pytest.approx(ma.lsa_guarantee(r, inst)[0],
                                      abs=1e-12)
        assert ma.lsa2_asym_lagrangian(r, 1.0, lam, inst) == value

    def test_tiny_reserve_pool_against_highs(self):
        """Tiny reserves, unequal bounds: every call returns a value that its
        lam attains, and HiGHS's lam, scored the same way, is no better."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(71)
        for k in range(320):
            vmax = np.array([1.0, rng.uniform(0.5, 1.0)])
            inst = ma.Instance(2, rng.uniform(0.05, 0.95, 2) * vmax, vmax)
            r = 10.0 ** rng.uniform(-10.0, -5.0, 2) * vmax
            v1_tilde = rng.uniform(0.0, 1.0)
            value, lam = ma.lsa2_asym_guarantee(r, v1_tilde, inst)
            assert ma.lsa2_asym_lagrangian(r, v1_tilde, lam, inst) == value, k
            c, A, b, _ = reference_multiplier_lp("lsa2_asym_guarantee",
                                                 (r, v1_tilde, inst))
            res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
            assert res.status == 0, (k, res.message)
            highs = ma.lsa2_asym_lagrangian(r, v1_tilde,
                                            np.maximum(res.x[:2], 0.0), inst)
            assert highs <= value + 1e-12, k

    def test_bound_order_enforced(self):
        inst = ma.Instance(2, [0.5, 1.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            ma.lsa2_asym_lagrangian([0.2, 0.2], 0.9, [0.1, 0.1], inst)


ASYM = ma.Instance(2, [1.0, 0.5], [2.0, 1.0])
BAD_RESERVES = {
    "nan": [np.nan, 0.5],
    "inf": [np.inf, 0.5],
    "short": [0.5],
    "long": [0.3, 0.3, 0.3],
    "matrix": [[0.3, 0.3]],
}
BAD_MULTIPLIERS = {
    "nan": [np.nan, 0.2],
    "inf": [0.2, np.inf],
    "short": [0.2],
    "long": [0.2, 0.2, 0.2],
    "negative": [0.2, -0.1],
}
ENTRY_POINTS = {
    "lsa_lagrangian": lambda r, lam: ma.lsa_lagrangian(r, lam, INST64),
    "lsa_guarantee": lambda r, lam: ma.lsa_guarantee(r, INST64),
    "lsa2_asym_lagrangian": lambda r, lam: ma.lsa2_asym_lagrangian(
        r, 1.5, lam, ASYM),
    "lsa2_asym_guarantee": lambda r, lam: ma.lsa2_asym_guarantee(r, 1.5, ASYM),
}


class TestBadInput:
    """Reserves and multipliers that are not n finite numbers in their
    range raise DomainError at every entry point, never a stray exception,
    an unbounded LP or a silent number."""

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("case", sorted(BAD_RESERVES))
    def test_bad_reserves(self, entry, case):
        with pytest.raises(DomainError):
            ENTRY_POINTS[entry](BAD_RESERVES[case], [0.2, 0.2])

    @pytest.mark.parametrize("entry", ["lsa_lagrangian", "lsa2_asym_lagrangian"])
    @pytest.mark.parametrize("case", sorted(BAD_MULTIPLIERS))
    def test_bad_multipliers(self, entry, case):
        with pytest.raises(DomainError):
            ENTRY_POINTS[entry]([0.3, 0.2], BAD_MULTIPLIERS[case])

    @pytest.mark.parametrize("call", [
        lambda inst: ma.lsa2_asym_lagrangian([0.3] * 3, 1.0, [0.2] * 3, inst),
        lambda inst: ma.lsa2_asym_guarantee([0.3] * 3, 1.0, inst),
    ], ids=["lagrangian", "guarantee"])
    def test_asymmetric_forms_need_two_bidders(self, call):
        with pytest.raises(DomainError, match="two bidders"):
            call(ma.Instance(3, [0.5] * 3, 1.0))

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_good_input_still_accepted(self, entry):
        out = ENTRY_POINTS[entry]([0.3, 0.2], [0.2, 0.2])
        assert np.isfinite(out if np.isscalar(out) else out[0])
