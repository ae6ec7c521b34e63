"""Each mechanism's ``tables`` against the tabulators it replaced: the
type-dispatching ``threshold_tables`` with its separate LSA routine, and the
per-node loops of ``grid_from_lsa``, ``grand_case_split`` and
``tilde_transform``.  Same tables, the same bits; ``tilde_transform``'s
intercepts within one ulp of the largest term, because the old loop took
``lam @ w`` as a dot product, which may fuse a multiply and an add.  Each
bidder's ``table(i, coords)`` is read against the same references.  The
scalar ``threshold`` of a score auction and of affine thresholds, which now
read bidder i's ``table`` on the one-point grid, against the scalar rules
they replaced: the same bits, and within two ulp of the terms' magnitude
for the dot product."""

import itertools

import numpy as np
import pytest

import maxmin_auction as ma
from brute_force_oracle import grid_nodes
from generators import (excluded_lsa, multilinear_batch,
                        random_excluded_mechanism, random_score_auction,
                        tabulated_auction)
from maxmin_auction import nature
from maxmin_auction.core import ThresholdRule
from maxmin_auction.improve import AffineThresholds


def reference_lsa_tables(mech, coords):
    n = len(coords)
    tables = []
    for i in range(n):
        rivals = [j for j in range(n) if j != i]
        axes = [coords[j] for j in rivals]
        shape = tuple(len(a) for a in axes)
        if mech.excluded[i]:
            tables.append(np.full(shape, mech.vmax[i]))
            continue
        best = np.zeros(shape)
        for d, j in enumerate(rivals):
            if mech.excluded[j]:
                continue
            sh = [1] * len(axes)
            sh[d] = len(axes[d])
            score_j = (mech.betas[j] * axes[d] - mech.alphas[j]).reshape(sh)
            best = np.maximum(best, score_j)
        p = (mech.alphas[i] + best) / mech.betas[i]
        tables.append(np.clip(p, 0.0, mech.vmax[i]))
    return tables


def reference_threshold_tables(mech, coords):
    """The type ladder that tabulated every mechanism kind in one routine."""
    n = len(coords)
    if isinstance(mech, ma.LinearScoreAuction):
        return reference_lsa_tables(mech, coords)
    tables = []
    for i in range(n):
        axes = [coords[j] for j in range(n) if j != i]
        if isinstance(mech, AffineThresholds):
            lam = np.asarray(mech.lam)
            rivals = [j for j in range(n) if j != i]
            acc = np.zeros(tuple(len(a) for a in axes))
            for d, j in enumerate(rivals):
                shape = [1] * len(axes)
                shape[d] = len(axes[d])
                acc = acc + lam[j] * axes[d].reshape(shape)
            tables.append(np.maximum(acc + mech.b[i], 0.0))
            continue
        if n == 2:
            tables.append(np.interp(axes[0], mech.coords[1 - i],
                                    mech.thresholds[i]))
            continue
        shape = tuple(len(a) for a in axes)
        rival = [j for j in range(n) if j != i]
        vals = multilinear_batch(
            mech.thresholds[i], [mech.coords[j] for j in rival],
            grid_nodes(axes))
        tables.append(vals.reshape(shape))
    return tables


def reference_lsa_threshold(lsa, i, v_others):
    """The scalar rule: (alpha_i + max(0, included rival scores)) / beta_i,
    clipped to [0, vmax_i]; vmax_i for an excluded bidder."""
    if lsa.excluded[i]:
        return lsa.vmax[i]
    rivals = [j for j in range(lsa.n) if j != i]
    best = 0.0
    for j, w in zip(rivals, v_others):
        if not lsa.excluded[j]:
            best = max(best, lsa.score(j, w))
    p = (lsa.alphas[i] + best) / lsa.betas[i]
    return float(min(max(p, 0.0), lsa.vmax[i]))


def reference_affine_threshold(pt, i, v_others):
    raw = float(np.delete(pt.lam, i) @ np.asarray(v_others, dtype=float)
                + pt.b[i])
    return max(raw, 0.0)


def reference_grid_from_lsa(lsa, coords):
    coords = [np.asarray(c, dtype=float) for c in coords]
    n = lsa.n
    tables = []
    for i in range(n):
        axes = [coords[j] for j in range(n) if j != i]
        shape = tuple(len(a) for a in axes)
        t = np.empty(shape)
        for node in itertools.product(*(range(s) for s in shape)):
            t[node] = reference_lsa_threshold(
                lsa, i, [axes[d][k] for d, k in enumerate(node)])
        tables.append(t)
    return tables


def reference_split_tables(mech, lam):
    n = mech.n
    neg = [i for i in range(n) if lam[i] < 0.0]
    tables = []
    for i in range(n):
        if i in neg:
            tables.append(np.full(mech.thresholds[i].shape, mech.vmax[i]))
            continue
        rivals = [j for j in range(n) if j != i]
        axes = [mech.coords[j] for j in rivals]
        t = np.empty(tuple(len(a) for a in axes))
        for node in itertools.product(*(range(len(a)) for a in axes)):
            w = [0.0 if rivals[d] in neg else axes[d][k]
                 for d, k in enumerate(node)]
            t[node] = mech.threshold(i, w)
        tables.append(t)
    return tables


def reference_intercepts(mech, lam):
    n = mech.n
    b = np.empty(n)
    for i in range(n):
        rivals = [j for j in range(n) if j != i]
        best = np.inf
        for node in itertools.product(*(mech.coords[j] for j in rivals)):
            w = np.asarray(node)
            best = min(best, mech.threshold(i, w) - float(lam[rivals] @ w))
        b[i] = best
    return b


def lsas():
    rng = np.random.default_rng(2007)
    out = []
    for n in (2, 3):
        out += [ma.corner_hitting(rng.uniform(0.0, 0.9, n), [1.0] * n)
                for _ in range(4)]
        out += [excluded_lsa(rng, n, 1) for _ in range(2)]
        for excluded in [(False,) * n, (True,) + (False,) * (n - 1)]:
            # an excluded bidder's score would be positive if compared
            out.append(ma.LinearScoreAuction(
                tuple(rng.uniform(0.0, 0.5, n)),
                tuple(rng.uniform(0.5, 2.0, n)), (1.0,) * n, excluded))
    # bidder 2's rivals are all excluded: her table keeps the rival grid shape
    out.append(excluded_lsa(rng, 3, 2))
    return out


def grid_mechanisms():
    rng = np.random.default_rng(2008)
    out = []
    for n in (2, 3):
        out += [random_score_auction(rng, n) for _ in range(6)]
        out += [tabulated_auction(rng, n) for _ in range(3)]
    out += [random_excluded_mechanism(rng) for _ in range(3)]
    out += [ma.grid_from_lsa(lsa, nature.breakpoint_coords(lsa))
            for lsa in (excluded_lsa(rng, 2, 1), excluded_lsa(rng, 3, 1),
                        excluded_lsa(rng, 3, 2))]
    return out


def affine_thresholds():
    rng = np.random.default_rng(2009)
    return [AffineThresholds(rng.uniform(-0.3, 0.5, n), rng.uniform(0.0, 1.5, n),
                             (1.0,) * n) for n in (2, 2, 3, 3)]


LSAS = lsas()
GRIDS = grid_mechanisms()
MECHANISMS = LSAS + GRIDS + affine_thresholds()


def test_corpus_has_an_lsa_with_every_rival_excluded():
    assert any(lsa.n == 3 and not lsa.excluded[2] and all(lsa.excluded[:2])
               for lsa in LSAS)


def evaluation_grids(mech):
    """The mechanism's breakpoint grid (when it has one) and a step grid."""
    rng = np.random.default_rng(mech.n)
    step = [np.unique(np.concatenate([np.linspace(0.0, v, 7),
                                      rng.uniform(0.0, v, 3)]))
            for v in mech.vmax]
    if isinstance(mech, AffineThresholds):
        return [step]
    return [nature.breakpoint_coords(mech), step]


def assert_same_tables(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize("mech", MECHANISMS,
                         ids=[f"{type(m).__name__}{m.n}-{k}"
                              for k, m in enumerate(MECHANISMS)])
def test_tables_match_reference(mech):
    for coords in evaluation_grids(mech):
        ref = reference_threshold_tables(mech, coords)
        assert_same_tables(mech.tables(coords), ref)
        assert_same_tables(nature.threshold_tables(mech, coords), ref)
        assert_same_tables([mech.table(i, coords) for i in range(mech.n)],
                           ref)


@pytest.mark.parametrize("lsa", LSAS, ids=[f"lsa{m.n}-{k}"
                                          for k, m in enumerate(LSAS)])
def test_grid_from_lsa_matches_reference(lsa):
    for coords in evaluation_grids(lsa):
        assert_same_tables(ma.grid_from_lsa(lsa, coords).thresholds,
                           reference_grid_from_lsa(lsa, coords))


@pytest.mark.parametrize("n", [3, 4])
def test_grid_tables_match_pointwise_interpolation(n):
    """Axis-wise tables equal interpolation node by node, bit for bit, on
    rival coordinate lists that reach outside the mechanism's coords."""
    rng = np.random.default_rng(2010 + n)
    for mech in [random_score_auction(rng, n) for _ in range(3)] + [
            tabulated_auction(rng, n)]:
        coords = [np.unique(np.concatenate([c, rng.uniform(-0.3, 1.3, 4),
                                            [-0.5, 1.5]]))
                  for c in mech.coords]
        tables = mech.tables(coords)
        for i in range(n):
            rivals = [j for j in range(n) if j != i]
            nodes = grid_nodes([coords[j] for j in rivals])
            assert tables[i].shape == tuple(len(coords[j]) for j in rivals)
            assert np.array_equal(tables[i].ravel(), [
                mech.threshold(i, v) for v in nodes])
            assert np.array_equal(tables[i].ravel(), multilinear_batch(
                mech.thresholds[i], [mech.coords[j] for j in rivals], nodes))
            assert np.array_equal(mech.table(i, coords), tables[i])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_grid_scalar_threshold_against_the_one_point_table(n):
    """``GridMechanism.threshold`` keeps its scalar route.  At n >= 3 it has
    the bits of bidder i's table on the one-point grid, the route the other
    mechanisms take; at n = 2 that table is ``np.interp``, within 1e-14."""
    rng = np.random.default_rng(2020 + n)
    for mech in [random_score_auction(rng, n) for _ in range(3)] + [
            tabulated_auction(rng, n)]:
        for _ in range(300):
            i = int(rng.integers(n))
            w = rng.uniform(-0.2, 1.2, n - 1).tolist()
            scalar = mech.threshold(i, w)
            table = ThresholdRule.threshold(mech, i, w)
            if n == 2:
                assert abs(scalar - table) <= 1e-14
            else:
                assert scalar == table


def sign_patterns(n):
    """Multiplier vectors with at least one negative entry."""
    mags = np.linspace(0.3, 0.9, n)
    return [np.where(np.array(signs) < 0, -mags, mags)
            for signs in itertools.product((-1, 1), repeat=n)
            if min(signs) < 0]


@pytest.mark.parametrize("mech", GRIDS, ids=[f"grid{m.n}-{k}"
                                            for k, m in enumerate(GRIDS)])
def test_grand_case_split_matches_reference(mech):
    for lam in sign_patterns(mech.n):
        out, lam_out = ma.grand_case_split(mech, lam)
        assert_same_tables(out.thresholds, reference_split_tables(mech, lam))
        assert np.array_equal(lam_out, np.maximum(lam, 0.0))


@pytest.mark.parametrize("mech", GRIDS, ids=[f"grid{m.n}-{k}"
                                            for k, m in enumerate(GRIDS)])
def test_tilde_transform_within_one_ulp(mech):
    rng = np.random.default_rng(13)
    for lam in [np.zeros(mech.n), rng.uniform(0.0, 1.5, mech.n),
                rng.uniform(0.0, 0.5, mech.n)]:
        b = ma.tilde_transform(mech, lam).b
        ref = reference_intercepts(mech, lam)
        if mech.n == 2:                    # one rival: a product, no dot
            assert np.array_equal(b, ref)
            continue
        vmax = np.asarray(mech.vmax)
        for i in range(mech.n):            # one ulp of the largest term
            rival_sum = float(np.delete(lam * vmax, i).sum())
            assert abs(b[i] - ref[i]) <= 2.3e-16 * max(1.0, vmax.max(),
                                                       rival_sum)


def threshold_corpus():
    """Score auctions and affine thresholds at n = 2 to 4 (general alpha and
    beta, corner-hitting, excluded bidders, unequal bounds), each with rival
    values per bidder: 0, vmax, two breakpoint nodes, two points between
    nodes and one uniform draw."""
    rng = np.random.default_rng(2011)
    out = []
    for n in (2, 3, 4):
        for k in range(12):
            vmax = tuple(rng.uniform(0.5, 2.0, n)) if k % 2 else (1.0,) * n
            if k % 3 == 0:
                mech = ma.corner_hitting(rng.uniform(0.0, 1.0, n) * vmax, vmax)
            elif k % 3 == 1:
                mech = ma.LinearScoreAuction(
                    tuple(rng.uniform(0.0, 0.6, n) * vmax),
                    tuple(rng.uniform(0.3, 3.0, n)), vmax,
                    tuple(bool(e) for e in rng.random(n) < 0.3))
            else:
                lam = rng.uniform(0.0, 1.5, n) * (rng.random(n) > 0.2)
                mech = AffineThresholds(rng.uniform(-0.5, 0.5, n), lam, vmax)
            nodes = (nature.breakpoint_coords(mech)
                     if isinstance(mech, ma.LinearScoreAuction) else
                     [np.linspace(0.0, v, 5) for v in vmax])
            values = []
            for c, v in zip(nodes, vmax):
                between = (c[:-1] + c[1:]) / 2
                values.append(np.unique(np.concatenate([
                    [0.0, v], rng.choice(c, min(2, c.size), replace=False),
                    rng.choice(between, min(2, between.size), replace=False),
                    rng.uniform(0.0, v, 1)])))
            out.append((mech, values))
    return out


THRESHOLD_CORPUS = threshold_corpus()


def rival_profiles(mech, values):
    for i in range(mech.n):
        for w in itertools.product(*(values[j] for j in range(mech.n)
                                     if j != i)):
            yield i, list(w)


def test_threshold_corpus_covers_its_cases():
    lsas = [m for m, _ in THRESHOLD_CORPUS
            if isinstance(m, ma.LinearScoreAuction)]
    assert {m.n for m, _ in THRESHOLD_CORPUS} == {2, 3, 4}
    assert any(any(m.excluded) for m in lsas)
    assert any(len(set(m.vmax)) > 1 for m in lsas)
    assert any(isinstance(m, AffineThresholds) and np.any(m.lam == 0.0)
               for m, _ in THRESHOLD_CORPUS)


def test_lsa_threshold_matches_scalar_rule():
    calls = 0
    for mech, values in THRESHOLD_CORPUS:
        if not isinstance(mech, ma.LinearScoreAuction):
            continue
        for i, w in rival_profiles(mech, values):
            assert mech.threshold(i, w) == reference_lsa_threshold(mech, i, w)
            calls += 1
    assert calls > 5000


def test_affine_threshold_within_two_ulp_of_dot_product():
    calls = 0
    for mech, values in THRESHOLD_CORPUS:
        if not isinstance(mech, AffineThresholds):
            continue
        for i, w in rival_profiles(mech, values):
            terms = np.concatenate([[mech.b[i]], np.delete(mech.lam, i) * w])
            assert abs(mech.threshold(i, w) - reference_affine_threshold(
                mech, i, w)) <= 2 * np.spacing(np.abs(terms).sum())
            calls += 1
    assert calls > 2000


def protocol_corpus():
    """Score auctions (general, corner-hitting with excluded bidders) and
    affine thresholds at n = 2 to 5, equal and unequal bounds."""
    rng = np.random.default_rng(2012)
    out = []
    for n in (2, 3, 4, 5):
        for vmax in ((1.0,) * n, tuple(rng.uniform(0.5, 2.0, n))):
            r = rng.uniform(0.0, 1.0, n) * vmax
            r[n - 1] = vmax[n - 1]                  # bidder n-1 excluded
            out.append(ma.corner_hitting(r, vmax))
            out.append(ma.LinearScoreAuction(
                tuple(rng.uniform(0.0, 0.6, n) * vmax),
                tuple(rng.uniform(0.3, 3.0, n)), vmax,
                tuple(bool(e) for e in rng.random(n) < 0.3)))
            out.append(AffineThresholds(rng.uniform(-0.5, 0.5, n),
                                        rng.uniform(0.0, 1.5, n), vmax))
    return out


PROTOCOL_CORPUS = protocol_corpus()


def test_protocol_corpus_covers_its_cases():
    lsas = [m for m in PROTOCOL_CORPUS if isinstance(m, ma.LinearScoreAuction)]
    assert {m.n for m in PROTOCOL_CORPUS} == {2, 3, 4, 5}
    assert {m.n for m in lsas if any(m.excluded)} == {2, 3, 4, 5}
    assert any(len(set(m.vmax)) > 1 for m in lsas)


@pytest.mark.parametrize("cls", [ma.LinearScoreAuction, AffineThresholds])
def test_threshold_reads_one_table_for_its_bidder(cls, monkeypatch):
    """``threshold(i, v_others)`` calls ``table`` once, for bidder i, on the
    one-point grid at v_others, and returns that table's one entry."""
    calls, table = [], cls.table

    def spy(self, i, coords):
        out = table(self, i, coords)
        calls.append((self, i, [list(c) for c in coords], out))
        return out

    monkeypatch.setattr(cls, "table", spy)
    rng = np.random.default_rng(2013)
    mechs = [m for m in PROTOCOL_CORPUS if isinstance(m, cls)]
    assert {m.n for m in mechs} == {2, 3, 4, 5}
    for mech in mechs:
        for i in range(mech.n):
            w = (rng.uniform(0.0, 1.0, mech.n) * mech.vmax).tolist()
            del w[i]
            calls.clear()
            p = mech.threshold(i, w)
            (who, bidder, coords, out), = calls
            assert who is mech and bidder == i
            assert coords == [[x] for x in w[:i]] + [[0.0]] + [
                [x] for x in w[i:]]
            assert out.shape == (1,) * (mech.n - 1) and p == out.item()
