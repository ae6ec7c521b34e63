import logging

import numpy as np
import pytest

import maxmin_auction as ma
from generators import random_feasible_mechanism, random_instance
from maxmin_auction import nature
from maxmin_auction.errors import DomainError, FeasibilityError
from maxmin_auction.improve import AffineThresholds

INST64 = ma.Instance(2, [0.64, 0.64], 1.0)


def lsa_grid(reserves, vmax=(1.0, 1.0)):
    lsa = ma.corner_hitting(reserves, vmax)
    return ma.grid_from_lsa(lsa, nature.breakpoint_coords(lsa))


def example1_mechanism():
    c = np.array([0.0, 0.2, 0.5, 1.0])
    return ma.GridMechanism([c, c], [np.full(4, 1.0), 0.2 + 0.3 * c])


class TestGrandCaseSplit:
    def test_identity_on_nonnegative(self):
        gm = lsa_grid([0.4, 0.4])
        out, lam = ma.grand_case_split(gm, np.array([1.0, 1.0]))
        assert out is gm
        assert lam == pytest.approx([1.0, 1.0])

    def test_negative_bidder_priced_out(self):
        gm = example1_mechanism()
        out, lam = ma.grand_case_split(gm, np.array([-0.075, 0.25]))
        assert lam == pytest.approx([0.0, 0.25])
        assert np.all(out.thresholds[0] == 1.0)
        # the rival is re-tabulated with the removed bidder at zero
        assert out.thresholds[1] == pytest.approx(np.full(4, 0.2))

    def test_all_negative(self):
        gm = lsa_grid([0.4, 0.4])
        out, lam = ma.grand_case_split(gm, np.array([-1.0, -0.5]))
        assert lam == pytest.approx([0.0, 0.0])
        for t in out.thresholds:
            assert np.all(t == 1.0)


class TestTildeTransform:
    def test_supporting_intercepts(self):
        pt = ma.tilde_transform(lsa_grid([0.4, 0.4]), np.array([2 / 3, 2 / 3]))
        assert pt.b == pytest.approx([2 / 15, 2 / 15], abs=1e-12)

    def test_touches_own_thresholds(self):
        gm = lsa_grid([0.3, 0.5])
        lam = nature.lsa2_dual_multipliers(
            [0.3, 0.5], ma.Instance(2, [0.6, 0.7], 1.0))
        pt = ma.tilde_transform(gm, lam)
        gaps = []
        for i in range(2):
            for w in gm.coords[1 - i]:
                gaps.append(gm.threshold(i, [w]) - pt.threshold(i, [w]))
        assert min(gaps) == pytest.approx(0.0, abs=1e-12)
        assert all(g >= -1e-12 for g in gaps)

    def test_zero_slope_gives_constant(self):
        gm = lsa_grid([0.3, 0.5])
        pt = ma.tilde_transform(gm, np.zeros(2))
        for w in np.linspace(0, 1, 7):
            assert pt.threshold(0, [w]) == pytest.approx(0.3)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            ma.tilde_transform(lsa_grid([0.4, 0.4]), np.array([-0.1, 0.2]))


class TestMatrixA:
    def test_singular_at_unit_pair(self):
        assert ma.det_A([1.0, 1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_known_value(self):
        assert ma.det_A([2 / 3, 2 / 3]) == pytest.approx(5 / 9, abs=1e-12)

    def test_identity(self):
        assert ma.det_A([0.0, 0.0, 0.0]) == 1.0
        assert ma.matrix_A([0.0, 0.0, 0.0]) == pytest.approx(np.eye(3))

    def test_formula_matches_elimination(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 6))
            lam = rng.uniform(0.0, 3.0, n)
            lhs = ma.det_A(lam)
            rhs = float(np.linalg.det(ma.matrix_A(lam)))
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))

    def test_inverse_nonnegative_when_det_positive(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 5))
            lam = rng.uniform(0.0, 2.0, n)
            if ma.det_A(lam) > 1e-9:
                inv = np.linalg.inv(ma.matrix_A(lam))
                assert np.all(inv >= -1e-9)


class TestLeastFixedPoint:
    def test_interior_solution(self):
        pt = AffineThresholds(np.array([2 / 15, 2 / 15]),
                              np.array([2 / 3, 2 / 3]), (1.0, 1.0))
        assert ma.least_fixed_point(pt) == pytest.approx([0.4, 0.4], abs=1e-12)

    def test_constant_map(self):
        pt = AffineThresholds(np.array([0.3, -0.1]), np.zeros(2), (1.0, 1.0))
        assert ma.least_fixed_point(pt) == pytest.approx([0.3, 0.0])

    def test_iteration_count_is_logged(self, caplog):
        solved = AffineThresholds(np.array([2 / 15, 2 / 15]),
                                  np.array([2 / 3, 2 / 3]), (1.0, 1.0))
        at_top = AffineThresholds(np.array([2.0, 2.0]), np.zeros(2),
                                  (1.0, 1.0))
        with caplog.at_level(logging.DEBUG, logger="maxmin_auction.improve"):
            ma.least_fixed_point(solved)
            ma.least_fixed_point(at_top)
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.DEBUG, "least fixed point: iterations=1, solved on its "
                            "clamp pattern"),
            (logging.DEBUG, "least fixed point: iterations=2, converged")]

    def test_singular_high_means_map_hits_floor(self):
        """With multiplier product one the fixed points form a segment; the
        least one sits on the boundary of the box, not at the interior
        reserves (which are another, larger fixed point)."""
        inst = ma.Instance(2, [0.75, 0.91], 1.0)
        gm = lsa_grid([3 / 8, 5 / 8])
        lam = np.array([0.6, 5 / 3])
        pt = ma.tilde_transform(gm, lam)
        v = ma.least_fixed_point(pt)
        assert v == pytest.approx([0.0, 0.4], abs=1e-12)
        # both the fixed point and the original reserves are optimal
        assert ma.reserve_is_optimal(v, inst)
        assert ma.reserve_is_optimal([3 / 8, 5 / 8], inst)

    def test_validity_and_leastness(self, rng):
        for trial in range(14):
            n = 2 if trial % 2 == 0 else 3
            inst = random_instance(rng, n=n)
            gm = random_feasible_mechanism(rng, n)
            _, _, cert, _ = nature.mechanism_guarantee(gm, inst)
            split, lam = ma.grand_case_split(gm, cert.lam)
            pt = ma.tilde_transform(split, lam)
            v = ma.least_fixed_point(pt)
            clamp = np.minimum(np.maximum(pt.apply(v), 0.0), 1.0)
            assert np.max(np.abs(clamp - v)) <= 1e-9
            for _ in range(10):
                w = rng.uniform(0.0, 1.0, n)
                converged = False
                for _ in range(30_000):
                    w2 = np.minimum(np.maximum(pt.apply(w), 0.0), 1.0)
                    if np.max(np.abs(w2 - w)) < 1e-13:
                        converged = True
                        break
                    w = w2
                if converged:          # plain iteration can creep when A is
                    assert np.all(v <= w + 1e-9)   # nearly singular; skip then


class TestLagrangianOnGrid:
    def test_optimal_lsa_value(self):
        gm = lsa_grid([0.4, 0.4])
        val = ma.lagrangian_on_grid(gm, [2 / 3, 2 / 3], INST64)
        assert val == pytest.approx(0.32, abs=1e-12)

    def test_minorant_dominates_original(self):
        # shared evaluation grid must contain the mechanism's own breakpoints
        gm = lsa_grid([0.4, 0.4])
        lam = np.array([2 / 3, 2 / 3])
        pt = ma.tilde_transform(gm, lam)
        coords = [np.unique(np.concatenate([np.linspace(0, 1, 9), c]))
                  for c in gm.coords]
        assert ma.lagrangian_on_grid(pt, lam, INST64, coords) >= \
            ma.lagrangian_on_grid(gm, lam, INST64, coords) - 1e-9

    def test_zero_multipliers(self):
        gm = lsa_grid([0.4, 0.4])
        val = ma.lagrangian_on_grid(gm, [0.0, 0.0], INST64)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_tuple_evaluates(self):
        gm = ma.GridMechanism([[0.0, 1.0], [0.0, 1.0]],
                              [np.array([0.2, 0.2]), np.array([0.3, 0.3])])
        val = ma.lagrangian_on_grid(gm, [0.5, 0.5], INST64)
        assert np.isfinite(val)

    def test_bound_mismatch_raises(self):
        with pytest.raises(DomainError, match="vmax"):
            ma.lagrangian_on_grid(example1_mechanism(), [0.5, 0.5],
                                  ma.Instance(2, [0.5, 0.5], 2.0))

    def test_bidder_count_mismatch_raises(self):
        with pytest.raises(DomainError, match="n=2"):
            ma.lagrangian_on_grid(example1_mechanism(), [0.5] * 3,
                                  ma.Instance(3, [0.5] * 3, 1.0))

    @pytest.mark.parametrize("lam", [[0.5], [0.5] * 3])
    def test_multiplier_count_mismatch_raises(self, lam):
        with pytest.raises(DomainError, match="multipliers"):
            ma.lagrangian_on_grid(example1_mechanism(), lam, INST64)


class TestDominatingLsa:
    def test_optimal_lsa_is_self_map(self):
        out, audit = ma.dominating_lsa(lsa_grid([0.4, 0.4]), INST64)
        assert [out.reserve(i) for i in range(2)] == pytest.approx([0.4, 0.4])
        assert audit.value_output >= audit.value_minorant - 1e-9
        assert audit.value_minorant >= audit.value_input - 1e-9

    def test_suboptimal_spa_not_worsened(self):
        out, audit = ma.dominating_lsa(lsa_grid([0.3, 0.3]), INST64)
        r = [out.reserve(i) for i in range(2)]
        value, _ = ma.lsa_guarantee(r, INST64)
        assert value >= 2.04 / 7 - 1e-9

    def test_excluded_bidder_input(self):
        inst = ma.Instance(2, [0.5, 0.5], 1.0)
        out, audit = ma.dominating_lsa(example1_mechanism(), inst)
        assert audit.lambda_raw[0] == pytest.approx(-0.075, abs=1e-9)
        assert audit.lam[0] == 0.0
        r = [out.reserve(i) for i in range(2)]
        value, _ = ma.lsa_guarantee(r, inst)
        assert value >= 0.0375 - 1e-9

    def test_rejects_infeasible(self):
        gm = ma.GridMechanism([[0.0, 1.0], [0.0, 1.0]],
                              [np.array([0.2, 0.2]), np.array([0.3, 0.3])])
        with pytest.raises(FeasibilityError):
            ma.dominating_lsa(gm, INST64)

    def test_dominance_and_chain_on_random_mechanisms(self, rng):
        for trial in range(60):
            n = 2 if trial % 2 == 0 else 3
            inst = random_instance(rng, n=n)
            gm = random_feasible_mechanism(rng, n)
            out, audit = ma.dominating_lsa(gm, inst)
            r = [out.reserve(i) for i in range(n)]
            value, _ = ma.lsa_guarantee(r, inst)
            assert value >= audit.input_guarantee - 1e-6
            assert audit.value_minorant >= audit.value_input - 1e-9
            assert audit.value_output >= audit.value_minorant - 1e-9

    def test_pointwise_ordering(self, rng):
        """Minorant below the input thresholds, output thresholds above the
        minorant, at every grid node."""
        for trial in range(20):
            n = 2 if trial % 2 == 0 else 3
            inst = random_instance(rng, n=n)
            gm = random_feasible_mechanism(rng, n)
            _, _, cert, _ = nature.mechanism_guarantee(gm, inst)
            split, lam = ma.grand_case_split(gm, cert.lam)
            pt = ma.tilde_transform(split, lam)
            vstar = ma.least_fixed_point(pt)
            out = ma.corner_hitting(vstar, inst.vmax)
            axes = [np.linspace(0, 1, 5)] * (n - 1)
            import itertools
            for i in range(n):
                for w in itertools.product(*axes):
                    w = list(w)
                    assert pt.threshold(i, w) <= split.threshold(i, w) + 1e-9
                    assert out.threshold(i, w) >= pt.threshold(i, w) - 1e-9
