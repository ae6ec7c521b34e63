import math

import numpy as np
import pytest

import maxmin_auction as ma
from generators import random_instance
from maxmin_auction import Regime, nature
from maxmin_auction.errors import DomainError
from maxmin_auction.solve import _bisect_gamma, gamma_equation_residual


class TestRegime:
    def test_low(self):
        assert ma.regime(ma.Instance(2, [0.64, 0.64], 1.0)) is Regime.LOW_MEANS

    def test_high(self):
        assert ma.regime(ma.Instance(2, [0.75, 0.91], 1.0)) is Regime.HIGH_MEANS

    def test_boundary_goes_high(self):
        # sqrt terms 0.7 + 0.3 sum to exactly n - 1 = 1
        inst = ma.Instance(2, [1 - 0.49, 1 - 0.09], 1.0)
        assert ma.regime(inst) is Regime.HIGH_MEANS


class TestOptimalLambda:
    def test_symmetric_low(self):
        lam, k, we = ma.optimal_lambda(ma.Instance(2, [0.64, 0.64], 1.0))
        assert lam == pytest.approx([2 / 3, 2 / 3], abs=1e-12)
        assert k is None and we == frozenset()

    def test_high_means_product_one(self):
        lam, k, we = ma.optimal_lambda(ma.Instance(2, [0.75, 0.91], 1.0))
        assert lam == pytest.approx([0.6, 5 / 3], abs=1e-12)
        assert lam[0] * lam[1] == pytest.approx(1.0, abs=1e-12)
        assert we == frozenset()

    def test_weak_exclusion_n3(self):
        lam, k, we = ma.optimal_lambda(ma.Instance(3, [0.19, 0.96, 0.96], 1.0))
        assert lam == pytest.approx([0.0, 1.0, 1.0], abs=1e-12)
        assert we == frozenset({0})
        assert np.sum(lam / (1 + lam)) == pytest.approx(1.0, abs=1e-12)

    def test_order_mapped_back(self):
        lam, k, we = ma.optimal_lambda(ma.Instance(3, [0.96, 0.19, 0.96], 1.0))
        assert lam == pytest.approx([1.0, 0.0, 1.0], abs=1e-12)
        assert we == frozenset({1})

    def test_geometry_constraint(self, rng):
        for _ in range(200):
            inst = random_instance(rng, lo=0.05, hi=0.95)
            lam, k, we = ma.optimal_lambda(inst)
            total = float(np.sum(lam / (1 + lam)))
            assert total <= 1.0 + 1e-12
            if ma.regime(inst) is Regime.HIGH_MEANS:
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_boundary_continuity(self):
        # both branch formulas coincide when the regimes touch
        m = [1 - 0.49, 1 - 0.09]
        inst = ma.Instance(2, m, 1.0)
        lam, _, _ = ma.optimal_lambda(inst)
        low_formula = np.sqrt(1 / (1 - np.asarray(m))) - 1
        assert lam == pytest.approx(low_formula, abs=1e-12)

    def test_weak_exclusion_bound(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 5))
            inst = random_instance(rng, n=n, lo=0.02, hi=0.98)
            _, _, we = ma.optimal_lambda(inst)
            assert len(we) <= n - 2

    def test_kkt_multipliers_stationary(self, rng):
        """First-order conditions hold at the stated mean-geometry multipliers."""
        checked = 0
        while checked < 50:
            n = int(rng.integers(2, 5))
            inst = random_instance(rng, n=n, lo=0.05, hi=0.98)
            if ma.regime(inst) is not Regime.HIGH_MEANS:
                continue
            lam, k, we = ma.optimal_lambda(inst)
            m = np.sort(inst.mean_vector)
            k_star = len(we)                     # cutoff in ascending order
            roots = np.sqrt(1.0 - m)
            xi = 1.0 - (roots[k_star:].sum() / (n - k_star - 1)) ** 2
            lam_sorted = np.sort(lam)
            for i in range(n):
                kappa = max(xi - m[i], 0.0)
                li = lam_sorted[i]
                grad = m[i] - (li ** 2 + 2 * li) / (1 + li) ** 2 \
                    - xi / (1 + li) ** 2 + kappa
                assert abs(grad) <= 1e-9, (m, lam_sorted, xi)
            checked += 1


class TestOptimalReserves:
    def test_low_means_point(self):
        sol = ma.optimal_reserves(ma.Instance(2, [0.64, 0.64], 1.0))
        assert sol.reserves_canonical == pytest.approx([0.4, 0.4], abs=1e-12)
        assert sol.guarantee == pytest.approx(0.32, abs=1e-12)
        assert sol.reserve_set.kind == "point"

    def test_high_means_canonical(self):
        sol = ma.optimal_reserves(ma.Instance(2, [0.75, 0.91], 1.0))
        assert sol.reserves_canonical == pytest.approx([3 / 8, 5 / 8], abs=1e-12)
        assert sol.guarantee == pytest.approx(0.7, abs=1e-9)

    def test_segment_endpoints(self):
        sol = ma.optimal_reserves(ma.Instance(2, [0.7, 0.853], 1.0))
        rset = sol.reserve_set
        assert rset.kind == "segment"
        assert rset.endpoint_low == pytest.approx([0.0, 0.3], abs=1e-9)
        assert rset.endpoint_high == pytest.approx([7 / 17, 10 / 17], abs=1e-9)

    def test_discrimination_direction(self, rng):
        for _ in range(100):
            inst = random_instance(rng)
            sol = ma.optimal_reserves(inst)
            si = sorted(set(range(inst.n)) - sol.weakly_excluded)
            r = sol.reserves_canonical
            for i in si:
                for j in si:
                    if inst.means[i] > inst.means[j] + 1e-9:
                        assert r[i] > r[j] - 1e-12

    def test_guarantee_matches_closed_form(self, rng):
        for _ in range(50):
            inst = random_instance(rng)
            sol = ma.optimal_reserves(inst)
            value, lam = ma.lsa_guarantee(sol.reserves_canonical, inst)
            assert sol.guarantee == pytest.approx(value, abs=1e-12)
            assert lam == pytest.approx(sol.lambda_star, abs=1e-12)

    def test_four_bidders(self):
        inst = ma.Instance(4, [0.9, 0.92, 0.94, 0.2], 1.0)
        sol = ma.optimal_reserves(inst)
        assert sol.regime is Regime.HIGH_MEANS
        assert np.sum(sol.lambda_star / (1 + sol.lambda_star)) == \
            pytest.approx(1.0, abs=1e-12)
        value, lam = ma.lsa_guarantee(sol.reserves_canonical, inst)
        assert sol.guarantee == pytest.approx(value, abs=1e-12)
        assert lam == pytest.approx(sol.lambda_star, abs=1e-12)
        assert ma.reserve_is_optimal(sol.reserves_canonical, inst)


class TestReserveIsOptimal:
    def test_segment_midpoint(self):
        inst = ma.Instance(2, [0.7, 0.853], 1.0)
        assert ma.reserve_is_optimal([7 / 34, 151 / 340], inst)

    def test_low_means_rejects_other_points(self):
        assert not ma.reserve_is_optimal([0.3, 0.3],
                                         ma.Instance(2, [0.64, 0.64], 1.0))

    def test_canonical_accepted(self, rng):
        for _ in range(30):
            inst = random_instance(rng)
            sol = ma.optimal_reserves(inst)
            assert ma.reserve_is_optimal(sol.reserves_canonical, inst)

    @pytest.mark.parametrize("r", [[1.2, 0.3, 0.4], [-0.1, 0.3, 0.4],
                                   [0.2, 0.3]], ids=["above", "below",
                                                     "short"])
    def test_rejects_reserves_off_the_box(self, r):
        assert not ma.reserve_is_optimal(r, ma.Instance(3, [0.8, 0.85, 0.9],
                                                        1.0))

    def test_rejects_unequal_scales(self):
        # the segment's reserves share one scale s; raising r_1 breaks it
        inst = ma.Instance(3, [0.8, 0.85, 0.9], 1.0)
        r = ma.optimal_reserves(inst).reserves_canonical.copy()
        assert ma.reserve_is_optimal(r, inst)
        r[0] += 0.01
        assert not ma.reserve_is_optimal(r, inst)


class TestSymmetricReserveSet:
    def test_point_when_few_bidders(self):
        lo, hi = ma.symmetric_reserve_set(0.64, 1.0, 2)
        assert lo == hi == pytest.approx(0.4, abs=1e-12)

    def test_interval_when_many(self):
        assert ma.symmetric_reserve_set(0.64, 1.0, 3) == \
            pytest.approx((0.0, 1 / 3), abs=1e-12)

    def test_threshold_continuity(self):
        # n = 1 / (1 - sqrt(1 - m)) exactly at m = 0.75, n = 2
        lo, hi = ma.symmetric_reserve_set(0.75, 1.0, 2)
        assert (lo, hi) == pytest.approx((0.0, 0.5), abs=1e-12)
        point = 1.0 - math.sqrt(1.0 * (1.0 - 0.75))
        assert point == pytest.approx(hi, abs=1e-12)
        assert (lo, hi) == (0.0, 0.5)        # the equality case is an interval

    @pytest.mark.parametrize("m, n", [(1e-17, 2), (1e-300, 3)])
    def test_tiny_means_give_the_zero_point(self, m, n):
        assert ma.symmetric_reserve_set(m, 1.0, n) == (0.0, 0.0)
        sol = ma.optimal_reserves(ma.Instance(n, m, 1.0))
        assert sol.reserves_canonical.tolist() == [0.0] * n

    @pytest.mark.parametrize("m, vmax, n", [(0.5, math.inf, 3),
                                            (0.5, math.nan, 2),
                                            (0.5, 1.0, 2.5),
                                            (0.5, 1.0, math.inf)])
    def test_rejects_unbounded_support_and_fractional_n(self, m, vmax, n):
        with pytest.raises(DomainError):
            ma.symmetric_reserve_set(m, vmax, n)


class TestAsymmetric2:
    def test_needs_two_bidders(self):
        with pytest.raises(DomainError, match="two bidders"):
            ma.asymmetric2_solve(ma.Instance(3, [0.5] * 3, 1.0))

    def test_low_means(self):
        inst = ma.Instance(2, [1.0, 0.5], [2.0, 1.0])
        sol = ma.asymmetric2_solve(inst)
        assert sol.regime is Regime.LOW_MEANS
        assert sol.reserves == pytest.approx([2 - math.sqrt(2),
                                              1 - math.sqrt(0.5)], abs=1e-12)
        assert sol.gamma_range == pytest.approx((0.41421356, 2.41421356))

    def test_high_means_bisection(self):
        inst = ma.Instance(2, [1.5, 0.84], [2.0, 1.0])
        sol = ma.asymmetric2_solve(inst)
        assert sol.regime is Regime.HIGH_MEANS
        assert abs(gamma_equation_residual(sol.gamma_star, inst)) <= 1e-10
        assert sol.gamma_star == pytest.approx(0.866, abs=1e-3)
        assert sol.v1_tilde == pytest.approx(1.464, abs=1e-3)

    def test_equal_bounds_degenerates(self):
        inst = ma.Instance(2, [0.64, 0.64], 1.0)
        sol = ma.asymmetric2_solve(inst)
        ref = ma.optimal_reserves(inst)
        assert sol.reserves == pytest.approx(ref.reserves_canonical, abs=1e-12)
        assert sol.guarantee == pytest.approx(ref.guarantee, abs=1e-12)

    def test_gamma_bracket_signs(self, rng):
        """The residual is >= 0 at sqrt((v2 - m2) / (v1 - m1)) and <= 0 at
        sqrt((v1 - m2) / (v1 - m1)), and the root lies between the two."""
        checked = 0
        while checked < 200:
            v1 = rng.uniform(1.0, 3.0)
            v2 = rng.uniform(0.5, v1)
            m1, m2 = rng.uniform(0.0, 1.0, 2) * (v1, v2)
            inst = ma.Instance(2, [m1, m2], [v1, v2])
            if ma.asymmetric2_solve(inst).regime is not Regime.HIGH_MEANS:
                continue
            lo = math.sqrt((v2 - m2) / (v1 - m1))
            hi = math.sqrt((v1 - m2) / (v1 - m1))
            assert gamma_equation_residual(lo, inst) >= 0.0
            assert gamma_equation_residual(hi, inst) <= 0.0
            assert lo - 1e-12 <= _bisect_gamma(inst) <= hi + 1e-12
            checked += 1

    def test_gamma_at_equal_bounds(self, rng):
        for _ in range(100):
            inst = random_instance(rng, n=2)
            v = inst.common_vmax()
            m1, m2 = inst.means
            assert _bisect_gamma(inst) == pytest.approx(
                math.sqrt((v - m2) / (v - m1)), abs=1e-12)

    def test_steep_gamma_returns(self):
        """gamma near 3e4, where floats are 4e-12 apart: bisecting to a
        1e-12 bracket never ended."""
        inst = ma.Instance(2, [2.0 - 1e-9, 0.9], [2.0, 1.0])
        gamma = _bisect_gamma(inst)
        assert gamma == pytest.approx(33165.3374, rel=1e-8)
        assert gamma_equation_residual(gamma * (1 - 1e-15), inst) > 0.0
        assert gamma_equation_residual(gamma * (1 + 1e-15), inst) < 0.0

    def test_rejects_wrong_order(self):
        with pytest.raises(DomainError):
            ma.asymmetric2_solve(ma.Instance(2, [0.5, 1.0], [1.0, 2.0]))

    def test_low_means_endpoint_slopes_achieve_guarantee(self):
        """Boundary slopes at the ends of the admissible range are optimal."""
        inst = ma.Instance(2, [1.0, 0.5], [2.0, 1.0])
        sol = ma.asymmetric2_solve(inst)
        for gamma in sol.gamma_range:
            lsa = ma.LinearScoreAuction(
                (gamma * sol.reserves[0], sol.reserves[1]), (gamma, 1.0),
                inst.vmax)
            value, *_ = nature.mechanism_guarantee(lsa, inst)
            assert value == pytest.approx(sol.guarantee, abs=1e-6)
