import numpy as np
import pytest

import maxmin_auction as ma
from generators import sample_near_miss, sample_optimal_member
from maxmin_auction import nature
from maxmin_auction.errors import DomainError
from maxmin_auction.optset import Violation

INST_LOW = ma.Instance(2, [0.64, 0.64], 1.0)
INST_HIGH = ma.Instance(2, [0.75, 0.91], 1.0)


def lsa_grid(reserves, vmax=(1.0, 1.0)):
    lsa = ma.corner_hitting(reserves, vmax)
    return ma.grid_from_lsa(lsa, nature.breakpoint_coords(lsa))


def always_sell_high_means():
    """The boundary-line mechanism that always allocates the object."""
    c1 = np.array([0.0, 3 / 8, 1.0])
    c2 = np.array([0.0, 0.4, 5 / 8, 1.0])
    p2 = 0.4 + 0.6 * c1
    p1 = np.array([0.0, 0.0, (5 / 8 - 0.4) / 0.6, 1.0])
    return ma.GridMechanism([c1, c2], [p1, p2])


class TestMember:
    def test_optimal_lsa_is_member(self):
        ok, violations = ma.member(lsa_grid([0.4, 0.4]), INST_LOW)
        assert ok and not violations

    def test_suboptimal_spa_rejected_with_witness(self):
        ok, violations = ma.member(lsa_grid([0.3, 0.3]), INST_LOW)
        assert not ok
        assert any(v.condition == 1 for v in violations)
        # the guarantee shortfall is real, not a tolerance artifact
        value, *_ = nature.mechanism_guarantee(lsa_grid([0.3, 0.3]), INST_LOW)
        assert value < 0.32 - 1e-3

    def test_high_means_always_sell_member(self):
        gm = always_sell_high_means()
        assert ma.check_feasible(gm) is None
        ok, violations = ma.member(gm, INST_HIGH)
        assert ok, [v.describe() for v in violations]
        value, *_ = nature.mechanism_guarantee(gm, INST_HIGH)
        assert value == pytest.approx(0.7, abs=1e-6)

    def test_high_means_shifted_line_rejected(self):
        # same slope but the boundary no longer passes through the reserves
        c1 = np.array([0.0, 3 / 8, 0.75, 1.0])
        c2 = np.array([0.0, 0.55, 0.775, 1.0])
        p2 = np.minimum(0.55 + 0.6 * c1, 1.0)
        p1 = np.array([0.0, 0.0, 3 / 8, 0.75])
        gm = ma.GridMechanism([c1, c2], [p1, p2])
        assert ma.check_feasible(gm) is None
        ok, violations = ma.member(gm, INST_HIGH)
        assert not ok
        value, *_ = nature.mechanism_guarantee(gm, INST_HIGH)
        assert value < 0.7 - 1e-4

    def test_threshold_drop_above_reserve_is_condition_3(self):
        c = [0.0, 0.4, 0.7, 1.0]
        gm = ma.GridMechanism([c, c], [[0.4, 0.4, 0.9, 0.8],
                                       [0.4, 0.4, 0.7, 1.0]])
        ok, violations = ma.member(gm, INST_LOW)
        assert not ok
        assert Violation(3, 0, 1.0, 0.8, 0.9) in violations

    def test_thresholds_that_do_not_invert_are_condition_4(self):
        # both thresholds clear the envelope and rise above the reserves,
        # but p_0(v_1) = v_1 there while p_1(v_0) = 0.4 + 1.5 (v_0 - 0.4)
        # on [0.4, 0.7]: they do not invert each other
        gm = ma.GridMechanism([[0.0, 0.4, 0.7, 1.0], [0.0, 0.4, 1.0]],
                              [[0.4, 0.4, 1.0], [0.4, 0.4, 0.85, 1.0]])
        assert ma.check_feasible(gm) is None
        ok, violations = ma.member(gm, INST_LOW)
        assert not ok
        assert {v.condition for v in violations} == {4}
        assert {v.bidder for v in violations} == {0, 1}

    def test_requires_two_bidders(self):
        inst = ma.Instance(3, [0.5, 0.5, 0.5], 1.0)
        lsa = ma.corner_hitting([0.2, 0.2, 0.2], inst.vmax)
        gm = ma.grid_from_lsa(lsa, nature.breakpoint_coords(lsa))
        with pytest.raises(DomainError):
            ma.member(gm, inst)


class TestSampledSoundness:
    @pytest.mark.parametrize("means", [[0.64, 0.64], [0.55, 0.7],
                                       [0.75, 0.91], [0.7, 0.853]])
    def test_members_achieve_the_optimum(self, rng, means):
        inst = ma.Instance(2, means, 1.0)
        target = ma.optimal_reserves(inst).guarantee
        for _ in range(25):
            gm = sample_optimal_member(rng, inst)
            assert ma.check_feasible(gm) is None
            ok, violations = ma.member(gm, inst)
            assert ok, [v.describe() for v in violations]
            value, *_ = nature.mechanism_guarantee(gm, inst)
            assert value == pytest.approx(target, abs=1e-6)

    @pytest.mark.parametrize("means", [[0.64, 0.64], [0.75, 0.91]])
    def test_near_misses_fall_short(self, rng, means):
        inst = ma.Instance(2, means, 1.0)
        target = ma.optimal_reserves(inst).guarantee
        for _ in range(25):
            gm = sample_near_miss(rng, inst)
            ok, _ = ma.member(gm, inst)
            assert not ok
            value, *_ = nature.mechanism_guarantee(gm, inst)
            assert value < target - 1e-4

    @pytest.mark.parametrize("means", [[0.64, 0.64], [0.55, 0.7],
                                       [0.75, 0.91]])
    def test_score_auction_read_as_its_tabulation(self, rng, means):
        inst = ma.Instance(2, means, 1.0)
        optimal = ma.optimal_reserves(inst).reserves_canonical
        for k in range(10):
            r = optimal.copy()
            if k:                               # near misses
                r[k % 2] = np.clip(r[k % 2] + rng.uniform(-0.12, 0.12),
                                   0.0, 0.95)
            lsa = ma.corner_hitting(r, inst.vmax)
            gm = ma.grid_from_lsa(lsa, nature.breakpoint_coords(lsa))
            assert ma.member(lsa, inst) == ma.member(gm, inst)

    def test_regime_consistency_members_always_sell_above_reserves(self, rng):
        """Accepted high-means mechanisms allocate wherever both values sit
        above the optimal reserves."""
        inst = INST_HIGH
        sol = ma.optimal_reserves(inst)
        r1, r2 = sol.reserves_canonical
        for _ in range(10):
            gm = sample_optimal_member(rng, inst)
            ok, _ = ma.member(gm, inst)
            assert ok
            for v1 in np.linspace(r1 + 1e-6, 1.0, 6):
                for v2 in np.linspace(r2 + 1e-6, 1.0, 6):
                    assert gm.allocate([v1, v2]) is not None
