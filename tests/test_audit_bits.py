"""The stacked audit and the float merge of grid axes give the bits of the
versions in ``audit_reference``: ``lagrangian_on_grid`` over a sequence of
families against one reference call per family, on a seeded corpus of
grid, score, excluded, LSA and affine families with n = 2, 3 and 4 and
on ``dominating_lsa``'s own audit grids; and ``dedup_sorted`` against the
numpy snap and ``np.unique``, on chains, NaN, -0.0, unsorted input and
values near both anchors."""

import numpy as np
import pytest

import audit_reference as ref
import maxmin_auction as ma
from generators import (excluded_lsa, random_excluded_mechanism,
                        random_score_auction, tabulated_auction)
from maxmin_auction import nature
from maxmin_auction.errors import DomainError
from maxmin_auction.improve import AffineThresholds, _audit_coords


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def families(rng, n):
    """Grid, score, excluded, LSA and affine families on the unit box."""
    lsa = ma.corner_hitting(rng.uniform(0.0, 0.9, n), [1.0] * n)
    out = [random_score_auction(rng, n), tabulated_auction(rng, n), lsa,
           excluded_lsa(rng, n, 1),
           ma.grid_from_lsa(excluded_lsa(rng, n, 1),
                            [np.linspace(0.0, 1.0, 5)] * n),
           AffineThresholds(rng.uniform(-0.3, 0.5, n),
                            rng.uniform(0.0, 1.5, n), (1.0,) * n)]
    if n == 2:
        out.append(random_excluded_mechanism(rng))
    return out


def multipliers(rng, n):
    """Positive, some zero, all zero and one exactly 1 / 3 multiplier set."""
    lam = rng.uniform(0.0, 1.5, n)
    some_zero = lam.copy()
    some_zero[rng.integers(n)] = 0.0
    some_zero[rng.random(n) < 0.3] = 0.0
    return [lam, some_zero, np.zeros(n), np.full(n, 1.0 / 3.0)]


def grids(rng, fams, n):
    """The first family's breakpoint grid (n <= 3), a random grid holding
    the families' own coordinates, and a coarse uniform one."""
    own = [np.concatenate([f.coords[i] for f in fams
                           if isinstance(f, ma.GridMechanism)])
           for i in range(n)]
    out = [[np.unique(np.concatenate([[0.0, 1.0], o, rng.uniform(0, 1, 3)]))
            for o in own], [np.linspace(0.0, 1.0, 4)] * n]
    if n <= 3:
        out.append(nature.breakpoint_coords(fams[0]))
    return out


def corpus():
    rng = np.random.default_rng(2207)
    cases = []
    for n in (2, 3, 4):
        for _ in range(6 if n < 4 else 3):
            fams = families(rng, n)
            inst = ma.Instance(n, rng.uniform(0.1, 0.9, n), 1.0)
            for coords in grids(rng, fams, n):
                for lam in multipliers(rng, n):
                    cases.append((fams, lam, inst, coords))
    return cases


CORPUS = corpus()


def test_corpus_covers_its_cases():
    assert {inst.n for _, _, inst, _ in CORPUS} == {2, 3, 4}
    kinds = {type(f) for fams, _, _, _ in CORPUS for f in fams}
    assert kinds == {ma.GridMechanism, ma.LinearScoreAuction, AffineThresholds}
    assert sum(np.any(lam == 0.0) and np.any(lam > 0.0)
               for _, lam, _, _ in CORPUS) >= 30


def test_stacked_families_keep_their_bits():
    for fams, lam, inst, coords in CORPUS:
        values = ma.lagrangian_on_grid(fams, lam, inst, coords)
        assert len(values) == len(fams)
        for f, value in zip(fams, values):
            expected = ref.lagrangian_on_grid(f, lam, inst, coords)
            assert type(value) is float
            assert same_bits(value, expected), (f, lam, inst)


def test_families_keep_their_order():
    """Reversing the families reverses the values, and the values differ."""
    distinct = 0
    for fams, lam, inst, coords in CORPUS:
        values = ma.lagrangian_on_grid(fams, lam, inst, coords)
        back = ma.lagrangian_on_grid(fams[::-1], lam, inst, coords)
        assert same_bits(back, values[::-1])
        distinct += len(set(values)) > 1
    assert distinct >= len(CORPUS) // 2


def test_signed_multipliers_on_mechanisms_keep_their_bits():
    """Without an affine family, multipliers may be negative."""
    rng = np.random.default_rng(2208)
    for fams, lam, inst, coords in CORPUS[::7]:
        mechs = [f for f in fams if not isinstance(f, AffineThresholds)]
        signed = lam - rng.uniform(0.0, 1.0, inst.n)
        values = ma.lagrangian_on_grid(mechs, signed, inst, coords)
        for f, value in zip(mechs, values):
            assert same_bits(value,
                             ref.lagrangian_on_grid(f, signed, inst, coords))


def improve_inputs():
    rng = np.random.default_rng(2209)
    out = []
    for n, count in ((2, 12), (3, 5), (4, 3)):
        for k in range(count):
            inst = ma.Instance(n, rng.uniform(0.15, 0.85, n), 1.0)
            r = rng.uniform(0.0, 0.9, n)
            if k % 3 == 0:
                mech = ma.corner_hitting(r, inst.vmax)
            elif k % 3 == 1 or n == 4:
                mech = tabulated_auction(rng, n)
            else:
                mech = random_score_auction(rng, n)
            out.append((mech, inst))
        out.append((random_excluded_mechanism(rng),
                    ma.Instance(2, rng.uniform(0.15, 0.85, 2), 1.0)))
    return out


@pytest.mark.parametrize("k, case", enumerate(improve_inputs()))
def test_dominating_lsa_audit_keeps_its_bits(k, case):
    """The audit's three values equal one reference call per step, on the
    audit's own grid, rebuilt from the pipeline's public steps."""
    mech, inst = case
    out, audit = ma.dominating_lsa(mech, inst)
    _, _, cert, grid = nature.mechanism_guarantee(mech, inst)
    split, lam = ma.grand_case_split(
        ma.GridMechanism(grid, mech.tables(grid)), cert.lam)
    pt = ma.tilde_transform(split, lam)
    coords = _audit_coords(grid, pt, ma.least_fixed_point(pt))
    for f, value in zip((split, pt, out), (audit.value_input,
                                           audit.value_minorant,
                                           audit.value_output)):
        assert same_bits(value, ref.lagrangian_on_grid(f, lam, inst, coords))


class TestMixedFamilyErrors:
    INST = ma.Instance(2, [0.64, 0.64], 1.0)

    def mech(self):
        return ma.grid_from_lsa(ma.corner_hitting([0.4, 0.4], [1.0, 1.0]),
                                [[0.0, 0.4, 1.0]] * 2)

    def test_other_bound_in_one_family_raises(self):
        wide = AffineThresholds(np.array([0.1, 0.1]), np.array([0.5, 0.5]),
                                (1.0, 2.0))
        for fams in ([self.mech(), wide], [wide, self.mech()]):
            with pytest.raises(DomainError, match="vmax"):
                ma.lagrangian_on_grid(fams, [0.5, 0.5], self.INST,
                                      [[0.0, 0.5, 1.0]] * 2)

    def test_other_bidder_count_in_one_family_raises(self):
        three = ma.corner_hitting([0.3, 0.3, 0.3], [1.0] * 3)
        with pytest.raises(DomainError, match="n=3"):
            ma.lagrangian_on_grid([self.mech(), self.mech(), three],
                                  [0.5, 0.5], self.INST, [[0.0, 1.0]] * 2)

    def test_negative_multiplier_with_one_affine_family_raises(self):
        pt = ma.tilde_transform(self.mech(), [0.5, 0.5])
        lam = [0.5, -0.1]
        assert len(ma.lagrangian_on_grid([self.mech()], lam, self.INST,
                                         [[0.0, 1.0]] * 2)) == 1
        with pytest.raises(DomainError, match="nonnegative"):
            ma.lagrangian_on_grid([self.mech(), pt], lam, self.INST,
                                  [[0.0, 1.0]] * 2)

    @pytest.mark.parametrize("fams", [[], ()])
    def test_no_family_raises(self, fams):
        with pytest.raises(DomainError, match="family"):
            ma.lagrangian_on_grid(fams, [0.5, 0.5], self.INST,
                                  [[0.0, 1.0]] * 2)

    @pytest.mark.parametrize("lam", [[0.5], [0.5, np.nan], [0.5, np.inf]])
    def test_bad_multipliers_with_several_families_raise(self, lam):
        with pytest.raises(DomainError, match="multipliers"):
            ma.lagrangian_on_grid([self.mech(), self.mech()], lam, self.INST,
                                  [[0.0, 1.0]] * 2)


DEDUP_CASES = [
    # chains of values each within tol of the last
    ([0.1, 0.1 + 9e-13, 0.1 + 1.8e-12, 0.1 + 2.7e-12, 0.1 + 3.6e-12], 1e-12,
     (0.0, 1.0)),
    ([0.0, 6e-13, 1.2e-12, 1.8e-12, 2.4e-12, 0.5], 1e-12, (0.0, 1.0)),
    ([1.0 - 2.4e-12, 1.0 - 1.6e-12, 1.0 - 8e-13, 1.0, 0.3], 1e-12, (0.0, 1.0)),
    # NaN alone, among values and twice
    ([np.nan], 1e-12, (0.0, 1.0)),
    ([0.3, np.nan, 0.5, 0.0], 1e-12, (0.0, 1.0)),
    ([np.nan, np.nan], 1e-12, (0.0, 1.0)),
    ([np.nan, 0.0], 1e-12, ()),
    # signed zeros, with and without an anchor at zero
    ([-0.0, 0.0, 0.5], 1e-12, (0.0, 1.0)),
    ([0.5, -0.0], 1e-12, (0.0, 1.0)),
    ([-0.0, 0.7], 1e-12, ()),
    ([0.0, -0.0, -0.0], 1e-12, (1.0,)),
    # within tol of both anchors: anchors within tol, and farther apart
    ([5e-13, 0.5], 1e-12, (0.0, 1e-13)),
    ([1.5e-12, 0.5], 2e-12, (0.0, 3e-12)),
    ([1.5e-12, 0.5], 2e-12, (3e-12, 0.0)),
    ([1e-12, 2e-12, 0.5], 2e-12, (0.0, 2.5e-12)),
    # exactly tol from an anchor (powers of two, so the gaps are exact)
    ([0.5, 1.0 - 2.0 ** -40], 2.0 ** -40, (0.0, 1.0)),
    ([2.0 ** -40, 0.5], 2.0 ** -40, (0.0, 1.0)),
    # unsorted, a single value, integer anchors, an anchor off every value
    ([0.9, 0.1, 1.0, 0.0, 0.5, 0.1 + 5e-13], 1e-12, (0.0, 1.0)),
    ([0.42], 1e-12, (0.0, 1.0)),
    ([1e-13], 1e-12, (0.0, 1.0)),
    ([0.0, 1.0], 1e-12, (0, 1)),
    ([0.2, 0.6], 1e-12, (0.4,)),
    ([2.5, 0.0, 2.5 - 3e-12, 1.25], 2.5e-12, (0.0, 2.5)),
    ([-1e-13, 0.3, 1.0 + 1e-13], 1e-12, (0.0, np.float64(1.0))),
    ([np.inf, 0.0, 1.0, -np.inf], 1e-12, (0.0, 1.0)),
]


@pytest.mark.parametrize("values, tol, snap", DEDUP_CASES)
def test_dedup_sorted_keeps_its_bits(values, tol, snap):
    new = nature.dedup_sorted(values, tol, snap)
    old = ref.dedup_sorted(values, tol, snap)
    assert new.dtype == old.dtype and same_bits(new, old)


def test_dedup_sorted_keeps_its_bits_on_random_clusters():
    """Clusters of points spaced about tol apart, around random anchors
    and the box ends, as arrays and as lists."""
    rng = np.random.default_rng(2210)
    for _ in range(2_000):
        tol = 10.0 ** rng.uniform(-13, -10)
        vmax = float(rng.choice([1.0, 2.5, rng.uniform(0.5, 3.0)]))
        centres = np.concatenate([[0.0, vmax], rng.uniform(0, vmax, 4)])
        k = int(rng.integers(1, 30))
        values = (rng.choice(centres, k)
                  + rng.integers(-4, 5, k) * tol * rng.uniform(0.3, 1.2, k))
        snap = (0.0, vmax) if rng.random() < 0.8 else tuple(
            rng.choice(centres, int(rng.integers(0, 3))))
        for given in (values, values.tolist()):
            new = nature.dedup_sorted(given, tol, snap)
            old = ref.dedup_sorted(given, tol, snap)
            assert same_bits(new, old), (values, tol, snap)
