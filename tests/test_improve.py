import json
import logging
import time

import numpy as np
import pytest

import maxmin_auction as ma
from fixed_point_oracle import clamped, iterated_least_fixed_point
from generators import (random_affine_map, random_corner_lsa,
                        random_feasible_mechanism, random_instance)
from maxmin_auction import nature
from maxmin_auction.errors import DomainError, FeasibilityError, NumericalError
from maxmin_auction.improve import AffineThresholds, _audit_coords

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


    @pytest.mark.parametrize("lam", [[1.0], [1.0] * 3, [np.nan, 1.0],
                                     [1.0, np.inf]])
    def test_needs_n_finite_multipliers(self, lam):
        with pytest.raises(DomainError, match="finite multipliers"):
            ma.grand_case_split(lsa_grid([0.4, 0.4]), lam)


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

    @pytest.mark.parametrize("lam", [[np.nan, 1.0], [1.0, np.inf], [1.0],
                                     [1.0] * 3])
    def test_rejects_nan_inf_and_wrong_count(self, lam):
        with pytest.raises(DomainError, match="finite nonnegative"):
            ma.tilde_transform(lsa_grid([0.4, 0.4]), lam)


class TestLeastFixedPoint:
    def test_interior_solution(self):
        pt = AffineThresholds(np.array([2 / 15, 2 / 15]),
                              np.array([2 / 3, 2 / 3]), (1.0, 1.0))
        assert ma.least_fixed_point(pt) == pytest.approx([0.4, 0.4], abs=1e-12)

    def test_constant_map(self):
        pt = AffineThresholds(np.array([0.3, -0.1]), np.zeros(2), (1.0, 1.0))
        assert ma.least_fixed_point(pt) == pytest.approx([0.3, 0.0])

    def test_root_and_piece_are_logged(self, caplog):
        solved = AffineThresholds(np.array([2 / 15, 2 / 15]),
                                  np.array([2 / 3, 2 / 3]), (1.0, 1.0))
        at_top = AffineThresholds(np.array([2.0, 2.0]), np.zeros(2),
                                  (1.0, 1.0))
        with caplog.at_level(logging.DEBUG, logger="maxmin_auction.improve"):
            ma.least_fixed_point(solved)
            ma.least_fixed_point(at_top)
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.DEBUG, "least fixed point: S=0.533333 on piece "
                            "[0, 1.33333]"),
            (logging.DEBUG, "least fixed point: S=0 on piece [0, 0]")]

    def test_rejects_negative_multiplier(self):
        pt = AffineThresholds(np.array([0.1, 0.1]), np.array([0.5, -0.1]),
                              (1.0, 1.0))
        with pytest.raises(DomainError, match="nonnegative"):
            ma.least_fixed_point(pt)

    @pytest.mark.parametrize("lam", [[np.nan, 0.5], [0.5, np.nan]])
    def test_rejects_nan_multiplier(self, lam):
        pt = AffineThresholds(np.array([0.1, 0.1]), np.array(lam), (1.0, 1.0))
        with pytest.raises(DomainError, match="nonnegative"):
            ma.least_fixed_point(pt)

    @pytest.mark.parametrize("lam, b, expected", [
        ((1.0, 1.0 - 1e-12), (1e-9, 0.0), (1.0, 1.0)),
        ((1.0, 1.0 - 1e-9), (1e-6, 0.0), (1.0, 1.0)),
        ((0.5, 2.0 - 1e-10), (1e-8, -1e-9), (1.0, 0.5 - 1e-9))])
    def test_near_singular_maps(self, lam, b, expected):
        """Multipliers within 1e-9 of a singular pair: monotone iteration
        creeps here and gave up after a million steps.  The expected points
        are the exact least fixed points, solved in rationals."""
        pt = AffineThresholds(np.array(b), np.array(lam), (1.0, 1.0))
        v = ma.least_fixed_point(pt)
        assert v == pytest.approx(expected, abs=1e-12)
        assert np.max(np.abs(clamped(pt, v) - v)) <= 1e-12

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
            assert np.max(np.abs(clamped(pt, v) - v)) <= 1e-9
            for _ in range(10):
                w = rng.uniform(0.0, 1.0, n)
                converged = False
                for _ in range(30_000):
                    w2 = clamped(pt, w)
                    if np.max(np.abs(w2 - w)) < 1e-13:
                        converged = True
                        break
                    w = w2
                if converged:          # plain iteration can creep when A is
                    assert np.all(v <= w + 1e-9)   # nearly singular; skip then


def iterated_fixed_points(pt, rng, starts=8, steps=500):
    """Fixed points that plain iteration reaches from random starts; a start
    still moving after ``steps`` steps is left out."""
    vmax = np.asarray(pt.vmax)
    w = rng.uniform(0.0, 1.0, (starts, pt.n)) * vmax
    for _ in range(steps):
        nxt = np.minimum(np.maximum((w @ pt.lam)[:, None] - pt.lam * w + pt.b,
                                    0.0), vmax)
        moved = np.max(np.abs(nxt - w), axis=1)
        w = nxt
        if np.all(moved < 1e-13):
            break
    return w[moved < 1e-13]


def check_against_iteration(pt, rng, slack, max_iter=5_000):
    """The closed form is a fixed point, lies below every fixed point that
    iteration reaches from a random start, and is within ``slack`` of the
    iterated least fixed point.  A map that the iteration does not finish in
    ``max_iter`` steps is checked for the first two only; returns whether it
    finished."""
    scale = max(1.0, max(pt.vmax))
    v = ma.least_fixed_point(pt)
    assert np.max(np.abs(clamped(pt, v) - v)) <= 1e-12 * scale
    for w in iterated_fixed_points(pt, rng):
        assert np.all(v <= w + slack)
    try:
        ref = iterated_least_fixed_point(pt, max_iter)
    except NumericalError:
        return False
    assert np.max(np.abs(v - ref)) <= slack
    return True


class TestAgainstIteration:
    """``least_fixed_point`` against the monotone iteration it replaced."""

    def test_pipeline_maps(self, rng):
        finished = 0
        for trial in range(120):
            n = 2 if trial % 2 == 0 else 3
            inst = random_instance(rng, n=n)
            gm = random_feasible_mechanism(rng, n)
            _, _, cert, _ = nature.mechanism_guarantee(gm, inst)
            split, lam = ma.grand_case_split(gm, cert.lam)
            pt = ma.tilde_transform(split, lam)
            finished += check_against_iteration(pt, rng, 1e-12)
        assert finished == 120

    def test_random_maps(self, rng):
        finished = 0
        for _ in range(1_000):
            pt = random_affine_map(rng)
            finished += check_against_iteration(
                pt, rng, 1e-12 * max(1.0, max(pt.vmax)))
        assert finished >= 990

    def test_nearly_flat_roots(self, rng):
        """Tiny intercepts with sum(lam / (1 + lam)) near 1 put the root on
        a piece of h with slope -gap close to 0.  Two roots within the
        residual tolerance of such a piece lie up to tolerance / gap apart,
        so that is the slack; the routes differed by up to 5e-8 on these.
        The iteration creeps on about half of them, so it gets 300 steps."""
        finished = 0
        for _ in range(60):
            pt = random_affine_map(rng, tiny_intercepts=True)
            scale = max(1.0, max(pt.vmax))
            v = ma.least_fixed_point(pt)
            free = (v > 1e-12 * scale) & (v < np.subtract(pt.vmax,
                                                          1e-12 * scale))
            gap = abs(1.0 - np.sum(pt.lam[free] / (1.0 + pt.lam[free])))
            slack = 1e-12 * scale / min(1.0, gap) if gap > 0.0 else np.inf
            finished += check_against_iteration(pt, rng, slack, 300)
        assert finished >= 20


class TestAuditCoords:
    def test_node_inside_minorant_no_sale_region(self, rng):
        """With a positive fixed point, the audit grid holds a node strictly
        below every minorant threshold with lam @ v >= lam @ v* - delta, so
        the grid sees the minorant's no-sale region reach up to v*."""
        checked = 0
        for _ in range(1_000):
            pt = random_affine_map(rng)
            vstar = ma.least_fixed_point(pt)
            if not np.all(vstar > 0.0):
                continue
            delta = 1e-10 * max(1.0, max(pt.vmax))
            coords = _audit_coords([[0.0, v] for v in pt.vmax], pt, vstar)
            grids = np.meshgrid(*coords, indexing="ij", sparse=True)
            tables = [np.expand_dims(p, axis=i)
                      for i, p in enumerate(pt.tables(coords))]
            inside = np.all([g < p for g, p in zip(grids, tables)], axis=0)
            near = sum(lam * g for lam, g in zip(pt.lam, grids)) \
                >= float(pt.lam @ vstar) - delta
            assert np.any(inside & near)
            checked += 1
        assert checked >= 500


class TestLagrangianOnGrid:
    def test_optimal_lsa_value(self):
        gm = lsa_grid([0.4, 0.4])
        val = ma.lagrangian_on_grid(gm, [2 / 3, 2 / 3], INST64,
                                    nature.breakpoint_coords(gm))
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
        val = ma.lagrangian_on_grid(gm, [0.0, 0.0], INST64,
                                    nature.breakpoint_coords(gm))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_tuple_evaluates(self):
        gm = ma.GridMechanism([[0.0, 1.0], [0.0, 1.0]],
                              [np.array([0.2, 0.2]), np.array([0.3, 0.3])])
        val = ma.lagrangian_on_grid(gm, [0.5, 0.5], INST64,
                                    nature.breakpoint_coords(gm))
        assert np.isfinite(val)

    def test_bound_mismatch_raises(self):
        gm = example1_mechanism()
        with pytest.raises(DomainError, match="vmax"):
            ma.lagrangian_on_grid(gm, [0.5, 0.5],
                                  ma.Instance(2, [0.5, 0.5], 2.0), gm.coords)

    def test_bidder_count_mismatch_raises(self):
        gm = example1_mechanism()
        with pytest.raises(DomainError, match="n=2"):
            ma.lagrangian_on_grid(gm, [0.5] * 3,
                                  ma.Instance(3, [0.5] * 3, 1.0), gm.coords)

    @pytest.mark.parametrize("lam", [[0.5], [0.5] * 3])
    def test_multiplier_count_mismatch_raises(self, lam):
        gm = example1_mechanism()
        with pytest.raises(DomainError, match="multipliers"):
            ma.lagrangian_on_grid(gm, lam, INST64, gm.coords)

    @pytest.mark.parametrize("axes", [1, 3])
    def test_axis_count_mismatch_raises(self, axes):
        gm = example1_mechanism()
        with pytest.raises(DomainError, match="axis per bidder"):
            ma.lagrangian_on_grid(gm, [0.5, 0.5], INST64,
                                  (gm.coords * 2)[:axes])


# Score auctions from the improve benchmark (seed 5 input 220, seed 23 input
# 129) whose Nature LP returns a multiplier of exactly 0.0.  Keeping such a
# bidder broke the audit chain (R(p^, lam) = 0.011 against R(p~, lam) =
# 0.041, and -0.310 against 0.135), while -8e-17 priced her out cleanly.
ZERO_MULTIPLIER_INPUTS = [("""
{"n": 2, "means": [0.15883434787732642, 0.3834182689558443],
 "vmax": [1.0, 1.0]}""", """
{"type": "grid",
 "coords": [[0.0, 0.31447307043300365, 0.3930638292288629,
             0.8697727930442201, 0.9069285837068504, 1.0],
            [0.0, 0.031597352042771365, 0.15352310833718097,
             0.2774362839587153, 1.0]],
 "thresholds": [[0.31447307043300365, 0.31447307043300365,
                 0.31447307043300365, 0.31447307043300365, 1.0],
                [0.2774362839587153, 0.2774362839587153, 0.3538273759716538,
                 0.4457897972702884, 0.4529575594353903,
                 0.47091206301239125]]}"""), ("""
{"n": 3, "means": [0.08467494496412245, 0.19896499004335028,
                   0.6275871120291019], "vmax": [1.0, 1.0, 1.0]}""", """
{"type": "grid",
 "coords": [[0.0, 0.2004105870952982, 0.649663491293469, 0.7588315626266043,
             1.0],
            [0.0, 0.09223572595614149, 0.18334707196036926, 1.0],
            [0.0, 0.07765851131030455, 0.3175236698178726, 0.4839348168323956,
             1.0]],
 "thresholds": [
  [[0.2004105870952982, 0.2004105870952982, 0.2004105870952982,
    0.2004105870952982, 0.9002505356721503],
   [0.2004105870952982, 0.2004105870952982, 0.2004105870952982,
    0.2004105870952982, 0.9002505356721503],
   [0.2004105870952982, 0.2004105870952982, 0.2004105870952982,
    0.2004105870952982, 0.9002505356721503],
   [1.0, 1.0, 1.0, 1.0, 1.0]],
  [[0.18334707196036926, 0.18334707196036926, 0.18334707196036926,
    0.18334707196036926, 0.7802756931998628],
   [0.18334707196036926, 0.18334707196036926, 0.18334707196036926,
    0.18334707196036926, 0.7802756931998628],
   [0.4819007865998046, 0.4819007865998046, 0.4819007865998046,
    0.4819007865998046, 0.7802756931998628],
   [0.5544490838104853, 0.5544490838104853, 0.5544490838104853,
    0.5544490838104853, 0.7802756931998628],
   [0.9395618401181417, 0.9395618401181417, 0.9395618401181417,
    0.9395618401181417, 0.9395618401181417]],
  [[0.4839348168323956, 0.4839348168323956, 0.4839348168323956, 1.0],
   [0.4839348168323956, 0.4839348168323956, 0.4839348168323956, 1.0],
   [0.7420447012451138, 0.7420447012451138, 0.7420447012451138, 1.0],
   [0.8047651823150048, 0.8047651823150048, 0.8047651823150048, 1.0],
   [1.0, 1.0, 1.0, 1.0]]]}""")]


class TestDominatingLsa:
    @pytest.mark.parametrize("instance, mechanism", ZERO_MULTIPLIER_INPUTS,
                             ids=["n2", "n3"])
    def test_zero_multiplier_is_priced_out(self, instance, mechanism):
        data, mech = json.loads(instance), json.loads(mechanism)
        inst = ma.Instance(data["n"], data["means"], data["vmax"])
        gm = ma.GridMechanism(mech["coords"], mech["thresholds"])
        out, audit = ma.dominating_lsa(gm, inst)
        zero = audit.lambda_raw == 0.0
        assert zero.any()
        assert np.all(audit.lam[zero] == 0.0)
        assert audit.value_minorant >= audit.value_input - 1e-9
        assert audit.value_output >= audit.value_minorant - 1e-9
        r = [out.reserve(i) for i in range(inst.n)]
        value, _ = ma.lsa_guarantee(r, inst)
        assert value >= audit.input_guarantee - 1e-6

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

    def test_near_singular_three_bidder_reserves(self):
        """Nature's multipliers here make the minorant map nearly singular:
        monotone iteration took 186,985 steps and about 14 s on this input."""
        inst = ma.Instance(3, [0.9172663132876794, 0.8632910464440933,
                               0.567934521954772], 1.0)
        lsa = ma.corner_hitting([0.562418436216321, 0.4375156068316928,
                                 2.8756935570187846e-05], inst.vmax)
        start = time.perf_counter()
        out, audit = ma.dominating_lsa(lsa, inst)
        assert time.perf_counter() - start < 3.0
        r = [out.reserve(i) for i in range(3)]
        assert r == pytest.approx([0.5624058523496, 0.4374994310391, 0.0],
                                  abs=1e-9)
        assert ma.lsa_guarantee(r, inst)[0] >= audit.input_guarantee - 1e-9
        assert audit.value_minorant >= audit.value_input - 1e-9
        assert audit.value_output >= audit.value_minorant - 1e-9

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

    def test_three_bidder_reserve_auctions_priced_as_themselves(self, rng):
        """Nature prices an n = 3 score auction itself, so the input
        guarantee is the multiplier LP's; a tabulated copy undershot it."""
        for _ in range(30):
            inst = random_instance(rng, n=3)
            lsa = random_corner_lsa(rng, inst)
            r = [lsa.reserve(i) for i in range(3)]
            out, audit = ma.dominating_lsa(lsa, inst)
            assert audit.input_guarantee == pytest.approx(
                ma.lsa_guarantee(r, inst)[0], abs=1e-9)
            value, _ = ma.lsa_guarantee([out.reserve(i) for i in range(3)],
                                        inst)
            assert value >= audit.input_guarantee - 1e-9
            assert audit.value_minorant >= audit.value_input - 1e-9
            assert audit.value_output >= audit.value_minorant - 1e-9

    def test_two_bidder_score_auction_matches_its_tabulation(self, rng):
        for _ in range(30):
            inst = random_instance(rng, n=2)
            lsa = random_corner_lsa(rng, inst)
            gm = ma.grid_from_lsa(lsa, nature.breakpoint_coords(lsa))
            (out_a, a), (out_b, b) = (ma.dominating_lsa(m, inst)
                                      for m in (lsa, gm))
            assert [out_a.reserve(i) for i in range(2)] == pytest.approx(
                [out_b.reserve(i) for i in range(2)], abs=1e-12)
            for field in ("lambda_raw", "lam", "input_guarantee",
                          "value_input", "value_minorant", "value_output",
                          "fixed_point"):
                assert np.asarray(getattr(a, field)) == pytest.approx(
                    np.asarray(getattr(b, field)), abs=1e-12), field

    def test_output_value_matches_closed_form(self, rng):
        """At equal bounds the audit's R(p^, lam) on its grid is the exact
        Lagrangian of the output reserve auction at the audit's lam."""
        for trial in range(40):
            n = 2 if trial % 2 == 0 else 3
            inst = random_instance(rng, n=n)
            mech = (random_feasible_mechanism(rng, n) if trial % 4 < 2
                    else random_corner_lsa(rng, inst))
            out, audit = ma.dominating_lsa(mech, inst)
            r = [out.reserve(i) for i in range(n)]
            assert audit.value_output == pytest.approx(
                ma.lsa_lagrangian(r, audit.lam, inst), abs=1e-9)

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
