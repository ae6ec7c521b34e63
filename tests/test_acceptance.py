"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""

import contextlib

import numpy as np

import maxmin_auction as ma
from brute_force_oracle import brute_force_min
from envelope_oracle import envelope_violations
from generators import (random_corner_lsa, random_feasible_mechanism,
                        random_instance, sample_near_miss,
                        sample_optimal_member)
from maxmin_auction import nature
from maxmin_auction.errors import BoundaryError


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {label}: PASS")


def test_01_spa_identity():
    rng = np.random.default_rng(101)
    with criterion(1, "no-reserve SPA guarantee m1 + m2 - 1"):
        done = 0
        while done < 20:
            m = rng.uniform(0.05, 0.95, 2)
            if m.sum() < 1.0:
                continue
            inst = ma.Instance(2, m, 1.0)
            spa = ma.corner_hitting([0.0, 0.0], inst.vmax)
            value, *_ = nature.mechanism_guarantee(spa, inst)
            assert abs(value - (m.sum() - 1.0)) <= 1e-6
            done += 1


def test_02_low_means_figures():
    with criterion(2, "low-means reserves 0.4 and multipliers 2/3"):
        sol = ma.optimal_reserves(ma.Instance(2, [0.64, 0.64], 1.0))
        assert np.all(np.abs(sol.reserves_canonical - 0.4) <= 1e-12)
        assert np.all(np.abs(sol.lambda_star - 2 / 3) <= 1e-12)


def test_03_high_means_figures():
    with criterion(3, "high-means multipliers, reserves, guarantee 0.7"):
        inst = ma.Instance(2, [0.75, 0.91], 1.0)
        sol = ma.optimal_reserves(inst)
        assert abs(sol.lambda_star[0] - 0.6) <= 1e-12
        assert abs(sol.lambda_star[1] - 5 / 3) <= 1e-12
        assert abs(sol.lambda_star[0] * sol.lambda_star[1] - 1.0) <= 1e-12
        assert np.all(np.abs(sol.reserves_canonical - [3 / 8, 5 / 8]) <= 1e-12)
        assert abs(sol.guarantee - 0.7) <= 1e-9
        lsa = ma.corner_hitting(sol.reserves_canonical, inst.vmax)
        lp, *_ = nature.mechanism_guarantee(lsa, inst)
        assert abs(lp - 0.7) <= 1e-9


def test_04_reserve_segment():
    with criterion(4, "optimal-price segment endpoints"):
        sol = ma.optimal_reserves(ma.Instance(2, [0.7, 0.853], 1.0))
        rset = sol.reserve_set
        assert np.all(np.abs(rset.endpoint_low - [0.0, 0.3]) <= 1e-9)
        assert np.all(np.abs(rset.endpoint_high - [7 / 17, 10 / 17]) <= 1e-9)


def test_05_excluded_bidder_example():
    with criterion(5, "affine-price mechanism with a negative multiplier"):
        r, k = 0.2, 0.3
        inst = ma.Instance(2, [0.5, 0.5], 1.0)
        c = np.array([0.0, 0.2, 0.5, 1.0])
        gm = ma.GridMechanism([c, c], [np.full(4, 1.0), r + k * c])
        coords = nature.breakpoint_coords(gm)
        t = nature.lower_revenue_table(gm, coords)
        value, dist, cert = nature.worst_case_lp(coords, t, inst)
        expected = -(k * r / (1 - r)) * 0.5 + r * (0.5 - r) / (1 - r)
        assert abs(value - expected) <= 1e-9
        assert abs(cert.lam[0] - (-k * r / (1 - r))) <= 1e-9
        assert cert.lam[0] < 0


def test_06_strong_duality_and_oracle():
    rng = np.random.default_rng(106)
    with criterion(6, "strong duality and brute-force oracle, 200 instances"):
        for trial in range(200):
            n = 2 if trial % 2 == 0 else 3
            inst = random_instance(rng, n=n)
            lsa = random_corner_lsa(rng, inst)
            coords = nature.breakpoint_coords(lsa)
            if n == 2 and rng.random() < 0.5:
                extra = [rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)]
                coords = [np.unique(np.concatenate([c, e]))
                          for c, e in zip(coords, extra)]
            assert np.prod([len(c) for c in coords]) <= 15 ** 3
            t = nature.lower_revenue_table(lsa, coords)
            value, dist, cert = nature.worst_case_lp(coords, t, inst)
            assert abs(value - cert.value) <= 1e-9
            bf = brute_force_min(coords, t, inst)
            assert abs(value - bf) <= 1e-9


def test_07_dominance():
    rng = np.random.default_rng(107)
    with criterion(7, "dominating auction beats 100 feasible mechanisms"):
        for trial in range(100):
            n = 2 if trial % 5 < 3 else 3
            inst = random_instance(rng, n=n)
            gm = random_feasible_mechanism(rng, n)
            out, audit = ma.dominating_lsa(gm, inst)
            reserves = [out.reserve(i) for i in range(n)]
            value, _ = ma.lsa_guarantee(reserves, inst)
            assert value >= audit.input_guarantee - 1e-6
            assert audit.value_minorant >= audit.value_input - 1e-9
            assert audit.value_output >= audit.value_minorant - 1e-9


def test_08_optimality():
    rng = np.random.default_rng(108)
    with criterion(8, "canonical reserves beat sampled rivals, 50 instances"):
        for trial in range(50):
            n = 2 if trial % 2 == 0 else 3
            inst = random_instance(rng, n=n)
            sol = ma.optimal_reserves(inst)
            best = sol.guarantee
            for _ in range(1000):
                r = rng.uniform(0.0, 1.0, n)
                value, _ = ma.lsa_guarantee(r, inst)
                assert value <= best + 1e-6
            for _ in range(100):
                gm = random_feasible_mechanism(rng, n)
                value, *_ = nature.mechanism_guarantee(gm, inst)
                assert value <= best + 1e-6


def test_09_worst_case_distributions():
    rng = np.random.default_rng(109)
    with criterion(9, "constructed worst cases attain the dual bound"):
        seen = {nature.WorstCaseType.I: 0, nature.WorstCaseType.II: 0}
        while min(seen.values()) < 100:
            m = rng.uniform(0.3, 0.95, 2)
            inst = ma.Instance(2, m, 1.0)
            r = rng.uniform(0.05, 0.95, 2) * (m - 0.02)
            try:
                kind = nature.wcdistr2_classify(r, inst)
            except BoundaryError:
                continue
            if kind not in seen or seen[kind] >= 100:
                continue
            dist = nature.wcdistr2_construct(r, inst)
            assert np.all(np.abs(dist.mean() - m) <= 1e-12)
            dual = nature.lsa2_guarantee(r, inst)
            rev = sum(p * nature.revenue_unsold_at_reserves(r, inst, a)
                      for a, p in zip(dist.atoms, dist.probs))
            assert abs(rev - dual) <= 1e-9
            seen[kind] += 1


def test_10_symmetric_reserve_set():
    with criterion(10, "symmetric reserve set and its threshold continuity"):
        lo, hi = ma.symmetric_reserve_set(0.64, 1.0, 2)
        assert lo == hi and abs(lo - 0.4) <= 1e-12
        lo, hi = ma.symmetric_reserve_set(0.64, 1.0, 3)
        assert lo == 0.0 and abs(hi - 1 / 3) <= 1e-12
        # n == 1 / (1 - sqrt(1 - m)) exactly at m = 0.75, n = 2
        lo, hi = ma.symmetric_reserve_set(0.75, 1.0, 2)
        point = 1.0 - np.sqrt(1.0 - 0.75)
        assert abs(hi - 0.5) <= 1e-12 and abs(point - hi) <= 1e-12


def test_11_asymmetric_bounds():
    with criterion(11, "asymmetric bounds: slope equation and guarantee"):
        from maxmin_auction.solve import gamma_equation_residual
        inst = ma.Instance(2, [1.5, 0.84], [2.0, 1.0])
        sol = ma.asymmetric2_solve(inst)
        assert abs(gamma_equation_residual(sol.gamma_star, inst)) <= 1e-10
        lsa = ma.LinearScoreAuction(
            (sol.gamma_star * sol.reserves[0], sol.reserves[1]),
            (sol.gamma_star, 1.0), inst.vmax)
        lp, *_ = nature.mechanism_guarantee(lsa, inst)
        closed, _ = ma.lsa2_asym_guarantee(sol.reserves, sol.v1_tilde, inst)
        assert abs(lp - closed) <= 1e-6


def test_12_optimal_set_membership():
    rng = np.random.default_rng(112)
    with criterion(12, "sampled members optimal, near-misses short"):
        for means in ([0.64, 0.64], [0.55, 0.7], [0.75, 0.91], [0.7, 0.853]):
            inst = ma.Instance(2, means, 1.0)
            target = ma.optimal_reserves(inst).guarantee
            for _ in range(8):
                gm = sample_optimal_member(rng, inst)
                ok, witness = ma.member(gm, inst)
                assert ok, witness
                assert not envelope_violations(gm, inst)
                value, *_ = nature.mechanism_guarantee(gm, inst)
                assert abs(value - target) <= 1e-6
            for _ in range(8):
                gm = sample_near_miss(rng, inst)
                ok, witness = ma.member(gm, inst)
                assert not ok and witness.revenue < witness.bound
                assert envelope_violations(gm, inst)
                value, *_ = nature.mechanism_guarantee(gm, inst)
                assert value < target - 1e-4
