import numpy as np
import pytest

import maxmin_auction as ma
from envelope_oracle import Violation, envelope_violations
from generators import (bent_boundary, random_feasible_mechanism,
                        random_instance, sample_near_miss,
                        sample_optimal_member)
from maxmin_auction import nature
from maxmin_auction.errors import DomainError

INST_LOW = ma.Instance(2, [0.64, 0.64], 1.0)
INST_HIGH = ma.Instance(2, [0.75, 0.91], 1.0)
CRITERION_12 = ([0.64, 0.64], [0.55, 0.7], [0.75, 0.91], [0.7, 0.853])


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


def rejected(mech, instance):
    """member's verdict is no, with a witness below its bound; returns the
    oracle's violations."""
    ok, witness = ma.member(mech, instance)
    assert not ok
    assert witness.revenue < witness.bound
    violations = envelope_violations(mech, instance)
    assert violations
    return violations


def accepted(mech, instance):
    """member's verdict is yes, with no witness, and the oracle agrees."""
    ok, witness = ma.member(mech, instance)
    violations = envelope_violations(mech, instance)
    assert ok and witness is None, witness
    assert not violations, [v.describe() for v in violations]


class TestMember:
    def test_optimal_lsa_is_member(self):
        accepted(lsa_grid([0.4, 0.4]), INST_LOW)
        accepted(ma.corner_hitting([0.4, 0.4], 1.0), INST_LOW)

    def test_suboptimal_spa_rejected_with_witness(self):
        violations = rejected(lsa_grid([0.3, 0.3]), INST_LOW)
        assert any(v.condition == 1 for v in violations)
        # the guarantee shortfall is real, not a tolerance artifact
        value, *_ = nature.mechanism_guarantee(lsa_grid([0.3, 0.3]), INST_LOW)
        assert value < 0.32 - 1e-3

    def test_high_means_always_sell_member(self):
        gm = always_sell_high_means()
        assert ma.check_feasible(gm) is None
        accepted(gm, INST_HIGH)
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
        rejected(gm, INST_HIGH)
        value, *_ = nature.mechanism_guarantee(gm, INST_HIGH)
        assert value < 0.7 - 1e-4

    def test_threshold_drop_above_reserve_is_condition_3(self):
        c = [0.0, 0.4, 0.7, 1.0]
        gm = ma.GridMechanism([c, c], [[0.4, 0.4, 0.9, 0.8],
                                       [0.4, 0.4, 0.7, 1.0]])
        violations = rejected(gm, INST_LOW)
        assert Violation(3, 0, 1.0, 0.8, 0.9) in violations

    def test_thresholds_that_do_not_invert_are_condition_4(self):
        # both thresholds clear the envelope and rise above the reserves,
        # but p_0(v_1) = v_1 there while p_1(v_0) = 0.4 + 1.5 (v_0 - 0.4)
        # on [0.4, 0.7]: they do not invert each other
        gm = ma.GridMechanism([[0.0, 0.4, 0.7, 1.0], [0.0, 0.4, 1.0]],
                              [[0.4, 0.4, 1.0], [0.4, 0.4, 0.85, 1.0]])
        assert ma.check_feasible(gm) is None
        violations = rejected(gm, INST_LOW)
        assert {v.condition for v in violations} == {4}
        assert {v.bidder for v in violations} == {0, 1}

    def test_requires_two_bidders(self):
        inst = ma.Instance(3, [0.5, 0.5, 0.5], 1.0)
        lsa = ma.corner_hitting([0.2, 0.2, 0.2], inst.vmax)
        gm = ma.grid_from_lsa(lsa, nature.breakpoint_coords(lsa))
        with pytest.raises(DomainError):
            ma.member(gm, inst)

    def test_requires_equal_bounds(self):
        inst = ma.Instance(2, [0.5, 0.5], [1.0, 2.0])
        with pytest.raises(DomainError, match="equal upper bounds"):
            ma.member(ma.corner_hitting([0.2, 0.2], inst.vmax), inst)


class TestSampledSoundness:
    @pytest.mark.parametrize("means", [[0.64, 0.64], [0.55, 0.7],
                                       [0.75, 0.91], [0.7, 0.853]])
    def test_members_achieve_the_optimum(self, rng, means):
        inst = ma.Instance(2, means, 1.0)
        target = ma.optimal_reserves(inst).guarantee
        for _ in range(25):
            gm = sample_optimal_member(rng, inst)
            assert ma.check_feasible(gm) is None
            accepted(gm, inst)
            value, *_ = nature.mechanism_guarantee(gm, inst)
            assert value == pytest.approx(target, abs=1e-6)

    @pytest.mark.parametrize("means", [[0.64, 0.64], [0.75, 0.91]])
    def test_near_misses_fall_short(self, rng, means):
        inst = ma.Instance(2, means, 1.0)
        target = ma.optimal_reserves(inst).guarantee
        for _ in range(25):
            gm = sample_near_miss(rng, inst)
            rejected(gm, inst)
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
            ok, _ = ma.member(lsa, inst)
            assert ok == ma.member(gm, inst)[0]
            assert ok == (not envelope_violations(lsa, inst)) == (k == 0)

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


def test_cell_narrower_than_the_tie_tolerance():
    """A 1e-10-wide cell at the top of p_0's axis once made (1, 1) a false
    no-sale limit, which put the guarantee at 0.027."""
    inst = ma.Instance(2, [0.7, 0.853], 1.0)
    gm = ma.GridMechanism(
        [[0, 0.4117647058823529, 0.6470588235294118, 1],
         [0, 0.5882352941176471, 0.7529411764705882, 0.9999999999, 1]],
        [[0, 0.4117647058823529, 0.6470588235294118, 1, 1],
         [0.30000000000000004, 0.5882352941176471, 0.7529411764705882,
          0.9999999999]])
    assert ma.check_feasible(gm) is None
    value, *_ = nature.mechanism_guarantee(gm, inst)
    assert value == pytest.approx(0.58, abs=1e-6)
    accepted(gm, inst)


def step_mechanism(width):
    """p_0 steps from 0.2 to 0.8 across [0.5, 0.5 + width] of bidder 1's
    axis, and p_1 >= 0.5 wherever bidder 0 can win: feasible, with a no-sale
    region whose corners (0.2, 0.5) and (0.8, 1) are genuine limits."""
    return ma.GridMechanism([[0, 0.2, 0.5, 0.8, 1], [0, 0.5, 0.5 + width, 1]],
                            [[0.2, 0.2, 0.8, 0.8], [0, 0.5, 0.5, 1, 1]])


@pytest.mark.parametrize("means", [[0.9, 0.6], [0.95, 0.7], [0.64, 0.64]])
def test_threshold_step_across_a_narrow_cell(means):
    """A jump across a 1e-10 cell prices as the same jump across a 1e-6
    cell; merging the narrow cell into a neighbour once folded the jump into
    that neighbour's slope and put (0.95, 0.7) at 0.39 instead of 0.24."""
    inst = ma.Instance(2, means, 1.0)
    narrow, wide = step_mechanism(1e-10), step_mechanism(1e-6)
    assert ma.check_feasible(narrow) is None
    assert ma.check_feasible(wide) is None
    value, *_ = nature.mechanism_guarantee(narrow, inst)
    wide_value, *_ = nature.mechanism_guarantee(wide, inst)
    assert value == pytest.approx(wide_value, abs=1e-5)
    assert ma.member(narrow, inst)[0] == ma.member(wide, inst)[0]


def rising_step(width):
    """p_0 rises with slope 0.8 to 0.4 at v_1 = 0.5, then steps to 0.9 across
    [0.5, 0.5 + width]; p_1 meets p_0 at (0.4, 0.5) and keeps rising, so
    a no-sale region opens up and to the right of that node."""
    return ma.GridMechanism([[0, 0.4, 0.9, 1], [0, 0.5, 0.5 + width, 1]],
                            [[0, 0.4, 0.9, 1], [0, 0.5, 0.8, 1]])


@pytest.mark.parametrize("mech, nodes", [
    (step_mechanism, [(0.2, 0.5), (0.8, 1.0)]),
    (rising_step, [(0.4, 0.5)]),
])
def test_no_sale_limits_beside_a_narrow_jump(mech, nodes):
    """Genuine no-sale limits next to a 1e-10 step keep revenue 0: the step
    is a slope of its own, not part of the node, and a node sits on the
    mechanism's nearest node, not on the far end of the step."""
    for width in (1e-10, 1e-6):
        gm = mech(width)
        assert ma.check_feasible(gm) is None
        coords = nature.breakpoint_coords(gm)
        t = nature.lower_revenue_table(gm, coords)
        for node in nodes:
            i, j = (int(np.argmin(np.abs(c - v))) for c, v in zip(coords, node))
            assert (coords[0][i], coords[1][j]) == pytest.approx(node,
                                                                 abs=1e-12)
            assert t[i, j] == 0.0, (width, node)


class TestBentBoundary:
    """The paper's high-means claim: there the optimal boundary is the one
    line through the optimal reserves with slope lam*_0, while at low means
    any increasing boundary with slopes in [lam*_0, 1/lam*_1] is optimal."""

    @pytest.mark.parametrize("means", [[0.75, 0.91], [0.7, 0.853]])
    @pytest.mark.parametrize("factors", [(1.3, 1.0), (0.8, 1.0), (1.0, 1.3),
                                         (1.0, 0.8), (1.3, 0.8), (0.8, 1.3)])
    def test_high_means_bend_falls_short(self, means, factors):
        inst = ma.Instance(2, means, 1.0)
        sol = ma.optimal_reserves(inst)
        assert sol.regime is ma.Regime.HIGH_MEANS
        gm = bent_boundary(inst, [f * sol.lambda_star[0] for f in factors])
        assert ma.check_feasible(gm) is None
        rejected(gm, inst)
        value, *_ = nature.mechanism_guarantee(gm, inst)
        assert value < sol.guarantee - 1e-3

    @pytest.mark.parametrize("means", [[0.64, 0.64], [0.55, 0.7]])
    @pytest.mark.parametrize("weights", [(0.0, 1.0), (1.0, 0.0), (0.3, 0.7),
                                         (0.5, 0.0), (1.0, 1.0)])
    def test_low_means_bend_is_optimal(self, means, weights):
        inst = ma.Instance(2, means, 1.0)
        sol = ma.optimal_reserves(inst)
        assert sol.regime is ma.Regime.LOW_MEANS
        lo, hi = sol.lambda_star[0], 1.0 / sol.lambda_star[1]
        gm = bent_boundary(inst, [lo + w * (hi - lo) for w in weights])
        assert ma.check_feasible(gm) is None
        accepted(gm, inst)
        value, *_ = nature.mechanism_guarantee(gm, inst)
        assert value == pytest.approx(sol.guarantee, abs=1e-9)


def agreement_inputs(rng, size):
    """Seeded n = 2 inputs, five kinds in turn: sampled members, near
    misses, random feasible mechanisms, optimal or perturbed score auctions
    and bent boundaries; on criterion 12's four instances and random ones."""
    fixed = [ma.Instance(2, m, 1.0) for m in CRITERION_12]
    for k in range(size):
        inst = fixed[k % 5] if k % 5 < 4 else random_instance(rng, 2)
        sol = ma.optimal_reserves(inst)
        lam = sol.lambda_star
        kind = k // 5 % 5
        if kind == 0:
            mech = sample_optimal_member(rng, inst)
        elif kind == 1:
            mech = sample_near_miss(rng, inst)
        elif kind == 2:
            mech = random_feasible_mechanism(rng, 2)
        elif kind == 3:
            r = sol.reserves_canonical.copy()
            if rng.random() < 0.7:
                j = int(rng.integers(2))
                r[j] = np.clip(r[j] + rng.uniform(-0.12, 0.12), 0.0, 0.95)
            mech = ma.corner_hitting(r, inst.vmax)
        elif sol.regime is ma.Regime.HIGH_MEANS:
            mech = bent_boundary(inst, lam[0] * rng.choice([0.8, 1.0, 1.3], 2))
        else:
            slopes = rng.uniform(lam[0], 1.0 / lam[1], 2)
            if rng.random() < 0.3:
                slopes[rng.integers(2)] *= rng.choice([0.8, 1.3])
            mech = bent_boundary(inst, slopes)
        yield inst, mech


def test_member_agrees_with_oracle_and_lp():
    rng = np.random.default_rng(15)
    verdicts = []
    for inst, mech in agreement_inputs(rng, 1000):
        ok, witness = ma.member(mech, inst)
        target = ma.optimal_reserves(inst).guarantee
        value, *_ = nature.mechanism_guarantee(mech, inst)
        assert ok == (not envelope_violations(mech, inst))
        assert ok == (value >= target - 1e-7)
        assert (witness is None) == ok
        assert ok or witness.revenue < witness.bound
        verdicts.append(ok)
    assert 300 <= sum(verdicts) <= 700            # both verdicts well covered
