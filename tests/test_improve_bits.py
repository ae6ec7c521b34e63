"""``dominating_lsa`` reads the tables Nature tabulated and splits them
without a second check, and gives the bits of ``improve_reference``, which
tabulates the input again on Nature's grid and checks every table it builds:
the output reserves and every audit field, on LSAs and grid mechanisms with
n = 2 and 3, with and without a multiplier <= 0, and on an unequal-bounds
LSA whose unclamped threshold passes its bound."""

import dataclasses

import numpy as np
import pytest

import improve_reference as ref
import maxmin_auction as ma
from generators import (excluded_lsa, random_corner_lsa,
                        random_excluded_mechanism, random_feasible_mechanism,
                        random_instance, random_score_auction)
from maxmin_auction import nature
from maxmin_auction.errors import DomainError

# raw threshold of bidder 1 at the rival's top: (0.2 + 1.5 - 0.1) / 1 = 1.6
UNEQUAL = (ma.LinearScoreAuction((0.2, 0.1), (1.0, 1.5), (1.2, 1.0)),
           ma.Instance(2, [0.7, 0.5], [1.2, 1.0]))
# and of bidder 2: (0.2 + 1.8 - 0.1) / 1 = 1.9, past the smaller bound
UNEQUAL_2 = (ma.LinearScoreAuction((0.1, 0.2), (1.5, 1.0), (1.2, 1.0)),
             ma.Instance(2, [0.7, 0.5], [1.2, 1.0]))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def corpus():
    rng = np.random.default_rng(2611)
    cases = [UNEQUAL, UNEQUAL_2]
    for n in (2, 3):
        for k in range(24 if n == 2 else 12):
            inst = random_instance(rng, n)
            kind = k % 4
            if kind == 0:
                mech = random_corner_lsa(rng, inst)
            elif kind == 1:
                mech = random_feasible_mechanism(rng, n)
            elif kind == 2:
                mech = random_score_auction(rng, n)
            else:
                mech = (random_excluded_mechanism(rng) if n == 2
                        else excluded_lsa(rng, n, 1))
            cases.append((mech, inst))
    return cases


CORPUS = corpus()


def test_corpus_covers_its_cases():
    kinds = {(inst.n, type(mech)) for mech, inst in CORPUS}
    assert kinds == {(n, t) for n in (2, 3)
                     for t in (ma.LinearScoreAuction, ma.GridMechanism)}
    signs = [bool(np.all(ref.dominating_lsa(mech, inst)[1].lambda_raw > 0.0))
             for mech, inst in CORPUS]
    assert 5 <= sum(signs) <= len(signs) - 5   # both sides of the split


@pytest.mark.parametrize("case, i, raw", [(UNEQUAL, 0, 1.6),
                                           (UNEQUAL_2, 1, 1.9)])
def test_unequal_bounds_threshold_passes_its_bound(case, i, raw):
    """The unclamped table reaches past the bidder's bound, so a grid built
    from it in place of the clamped one would change the pipeline."""
    lsa, inst = case
    grid = ma.breakpoint_coords(lsa)
    assert lsa.unclamped_table(i, grid).max() == pytest.approx(raw)
    assert lsa.table(i, grid).max() == inst.vmax[i]


def test_nature_returns_the_mechanisms_own_tables():
    """The tables Nature hands on are ``mech.tables(grid)``'s bits."""
    for mech, inst in CORPUS:
        value, _, _, grid, tables = nature._price(mech, inst)
        assert same_bits(value, nature.mechanism_guarantee(mech, inst)[0])
        expected = mech.tables(grid)
        assert len(tables) == len(expected) == inst.n
        assert all(same_bits(a, b) for a, b in zip(tables, expected))


@pytest.mark.parametrize("k", range(len(CORPUS)))
def test_dominating_lsa_keeps_the_reference_bits(k):
    mech, inst = CORPUS[k]
    out, audit = ma.dominating_lsa(mech, inst)
    ref_out, ref_audit = ref.dominating_lsa(mech, inst)
    assert out == ref_out
    assert [x.hex() for x in out.alphas + out.betas] == [
        x.hex() for x in ref_out.alphas + ref_out.betas]
    assert [out.reserve(i).hex() for i in range(inst.n)] == [
        ref_out.reserve(i).hex() for i in range(inst.n)]
    for field in dataclasses.fields(ma.improve.ImprovementAudit):
        new, old = (getattr(a, field.name) for a in (audit, ref_audit))
        assert type(new) is type(old), field.name
        if isinstance(new, float):
            assert new.hex() == old.hex(), field.name
        else:
            assert np.array_equal(new, old) and same_bits(new, old), field.name


def test_public_grid_constructor_still_checks_its_tables():
    coords = [[0.0, 0.5, 1.0]] * 2
    with pytest.raises(DomainError, match=r"lie in \[0, vmax\]"):
        ma.GridMechanism(coords, [[0.2, 0.5, 1.6], [0.2, 0.5, 0.9]])
    with pytest.raises(DomainError, match=r"lie in \[0, vmax\]"):
        ma.GridMechanism(coords, [[0.2, -0.1, 0.9], [0.2, 0.5, 0.9]])
