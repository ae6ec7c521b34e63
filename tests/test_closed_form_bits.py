"""The closed forms on plain floats give the bits of the array-checked
versions in ``closed_form_reference``: ``lsa_guarantee``'s value and
multipliers, and the two-bidder type, multipliers, guarantee and worst-case
distribution compare by their bytes, and both raise on the same input."""

import numpy as np
import pytest

import closed_form_reference as ref
import maxmin_auction as ma
from generators import random_instance
from maxmin_auction import nature
from maxmin_auction.errors import BoundaryError, DomainError


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def reserve_corpus():
    """(reserves, instance) pairs for n = 2 to 6: uniform reserves, zero
    reserves, reserves at vmax, 5e-13 above it and at the tolerance's
    edge, tied q and every q <= 0, on bounds 1 and 2.5."""
    rng = np.random.default_rng(41)
    out = []
    for n in range(2, 7):
        for vmax in (1.0, 2.5):
            for _ in range(40):
                inst = random_instance(rng, n, vmax=vmax)
                m, u = inst.mean_vector, rng.uniform(0.0, vmax, n)
                edge = u.copy()
                edge[rng.random(n) < 0.4] = vmax
                edge[rng.integers(n)] = vmax + 5e-13
                edge[rng.integers(n)] = vmax + 1e-12
                zero = u.copy()
                zero[rng.random(n) < 0.5] = 0.0
                out += [(u, inst), (zero, inst), (edge, inst),
                        (np.zeros(n), inst), (np.full(n, vmax), inst),
                        (m + rng.uniform(0.0, 1.0, n) * (vmax - m), inst)]
            # equal means and reserves tie every q; a pair of them ties two
            tied = ma.Instance(n, np.full(n, rng.uniform(0.1, 0.9) * vmax), vmax)
            out.append((np.full(n, rng.uniform(0.0, 0.9) * vmax), tied))
            m = rng.uniform(0.1, 0.9, n) * vmax
            r = rng.uniform(0.0, 1.0, n) * m
            m[1], r[1] = m[0], r[0]
            out.append((r, ma.Instance(n, m, vmax)))
    return out


CORPUS = reserve_corpus()


def test_lsa_guarantee_keeps_its_bits():
    for r, inst in CORPUS:
        value, lam = ma.lsa_guarantee(r, inst)
        ref_value, ref_lam = ref.lsa_guarantee(r, inst)
        assert type(value) is type(ref_value)
        assert same_bits(value, ref_value), (r, inst)
        assert same_bits(lam, ref_lam), (r, inst)


def test_corpus_covers_its_edge_cases():
    rows = [(np.asarray(r), inst) for r, inst in CORPUS]
    q_all_nonpositive = [r for r, inst in rows
                         if np.all(r >= inst.mean_vector)]
    assert {inst.n for _, inst in rows} == {2, 3, 4, 5, 6}
    assert sum(np.all(r == 0.0) for r, _ in rows) >= 10
    for above in (5e-13, 1e-12):
        assert sum(np.any(r == inst.vmax[0] + above) for r, inst in rows) >= 10
    assert sum(np.any(r == inst.vmax[0]) for r, inst in rows) >= 10
    assert len(q_all_nonpositive) >= 10


@pytest.mark.parametrize("r", [
    [np.nan, 0.5], [0.5, np.nan], [-1e-300, 0.5], [0.5, -0.1],
    [1.0 + 2e-12, 0.5], [0.5, np.inf], [0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]])
def test_lsa_guarantee_rejects_what_the_array_check_rejected(r):
    inst = ma.Instance(2, [0.64, 0.64], 1.0)
    with pytest.raises(DomainError):
        ref.lsa_guarantee(r, inst)
    with pytest.raises(DomainError):
        ma.lsa_guarantee(r, inst)


def criterion_9_draws():
    """Every draw of acceptance criterion 9's stream, Type III draws
    included, until it holds 100 of Types I and II (it meets no boundary)."""
    rng = np.random.default_rng(109)
    seen = {nature.WorstCaseType.I: 0, nature.WorstCaseType.II: 0}
    draws = []
    while min(seen.values()) < 100:
        m = rng.uniform(0.3, 0.95, 2)
        inst = ma.Instance(2, m, 1.0)
        r = rng.uniform(0.05, 0.95, 2) * (m - 0.02)
        draws.append((r, inst))
        try:
            kind = ref.wcdistr2_classify(r, inst)
        except BoundaryError:
            continue
        if kind in seen:
            seen[kind] += 1
    return draws


# equal means and reserves tie Type III's two candidates exactly
TIED_TYPE_III = [([0.55, 0.55], ma.Instance(2, [0.7, 0.7], 1.0)),
                 ([0.6, 0.6], ma.Instance(2, [0.9, 0.9], 1.0))]


def test_two_bidder_worst_case_keeps_its_bits():
    draws = criterion_9_draws()
    assert ({ref.wcdistr2_classify(r, inst) for r, inst in draws}
            == set(nature.WorstCaseType))
    for r, inst in draws + TIED_TYPE_III:
        assert ma.wcdistr2_classify(r, inst) is ref.wcdistr2_classify(r, inst)
        lam = ma.lsa2_dual_multipliers(r, inst)
        assert same_bits(lam, ref._binding_corners(r, inst)[0])
        assert same_bits(ma.lsa2_guarantee(r, inst),
                         ref.lsa2_guarantee(r, inst))
        dist, ref_dist = (ma.wcdistr2_construct(r, inst),
                          ref.wcdistr2_construct(r, inst))
        assert same_bits(dist.atoms, ref_dist.atoms)
        assert same_bits(dist.probs, ref_dist.probs)


@pytest.mark.parametrize("r, error", [
    ([0.45, 0.55], BoundaryError), ([0.45, 0.12], BoundaryError),
    ([0.7, 0.2], DomainError), ([-0.1, 0.2], DomainError),
    ([np.nan, 0.2], DomainError), ([0.2], DomainError)])
def test_two_bidder_worst_case_rejects_the_same_input(r, error):
    inst = ma.Instance(2, [0.7, 0.6], 1.0)
    for fn in (nature.wcdistr2_classify, nature.wcdistr2_construct,
               nature.lsa2_guarantee):
        with pytest.raises(error):
            getattr(ref, fn.__name__)(r, inst)
        with pytest.raises(error):
            fn(r, inst)
