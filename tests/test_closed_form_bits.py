"""The closed forms on plain floats give the bits of the array-checked
versions in ``closed_form_reference``: ``lsa_guarantee``'s value and
multipliers, the two-bidder type, multipliers, guarantee and worst-case
distribution, the asymmetric-bound guarantee's value and multipliers, and
a ``DiscreteDistribution``'s stored atoms and probs, and every field of
``optimal_reserves`` compare by their bytes, and both raise on the same
input."""

import numpy as np
import pytest

import dataclasses

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


def asym_corpus():
    """(reserves, v1_tilde, instance) draws with v1 >= v2: equal and
    unequal bounds, zero reserves (no no-sale row), reserves at a bound
    and within the tolerance above it, v1_tilde at 0 and at v1."""
    rng = np.random.default_rng(43)
    out = []
    for _ in range(400):
        v2 = float(rng.choice([1.0, rng.uniform(0.3, 2.0)]))
        v1 = v2 if rng.random() < 0.3 else v2 + float(rng.uniform(0.0, 1.5))
        inst = ma.Instance(2, rng.uniform(0.05, 0.95, 2) * [v1, v2], [v1, v2])
        r = rng.uniform(0.0, 1.0, 2) * [v1, v2]
        roll = rng.random()
        if roll < 0.2:
            r[rng.integers(2)] = 0.0
        elif roll < 0.3:
            r = np.array([v1, v2 + 5e-13])
        v1_tilde = float(rng.choice([0.0, v1, rng.uniform(0.0, v1)]))
        out.append((r, v1_tilde, inst))
    return out


def test_asymmetric_guarantee_keeps_its_bits():
    for r, v1_tilde, inst in asym_corpus():
        value, lam = ma.lsa2_asym_guarantee(r, v1_tilde, inst)
        ref_value, ref_lam = ref.lsa2_asym_guarantee(r, v1_tilde, inst)
        assert type(value) is type(ref_value)
        assert same_bits(value, ref_value), (r, v1_tilde, inst)
        assert same_bits(lam, ref_lam), (r, v1_tilde, inst)


@pytest.mark.parametrize("r, v1_tilde, vmax", [
    ([np.nan, 0.5], 1.0, [1.0, 1.0]), ([0.5, -0.1], 1.0, [1.0, 1.0]),
    ([0.5, 1.0 + 2e-12], 1.0, [1.5, 1.0]), ([0.5, 0.5], 1.6, [1.5, 1.0]),
    ([0.5, 0.5], -0.1, [1.0, 1.0]), ([0.5, 0.5], 0.5, [1.0, 1.5]),
    ([0.5], 0.5, [1.0, 1.0])])
def test_asymmetric_guarantee_rejects_the_same_input(r, v1_tilde, vmax):
    inst = ma.Instance(2, [0.5, 0.5], vmax)
    with pytest.raises(DomainError):
        ref.lsa2_asym_guarantee(r, v1_tilde, inst)
    with pytest.raises(DomainError):
        ma.lsa2_asym_guarantee(r, v1_tilde, inst)


E = 1e-12
DISTRIBUTIONS = [
    ([[0.2, 0.3], [1.0, 0.5]], [0.25, 0.75], (1.0, 1.0)),
    ([[0.2, 0.3], [1.0, 0.5]], [0.25, 0.75], None),
    ([[0.2, 0.3], [1.0, 0.5]], [0.25, 0.75], 1.0),
    ([[0.2, 0.3], [1.0, 0.5]], [0.25, 0.75], [1.0]),
    ([[0.2, 0.3], [1.0, 2.5]], [0.25, 0.75], (1.0, 2.5)),
    ([[0.2, 0.3], [1.0 + E, 0.5]], [0.25, 0.75], (1.0, 1.0)),
    ([[0.2, 0.3], [1.0 + 2 * E, 0.5]], [0.25, 0.75], (1.0, 1.0)),
    ([[0.2, 0.3], [1.0 + 2 * E, 0.5]], [0.25, 0.75], None),
    ([[0.2, 0.3], [0.5, 1.0 + 2 * E]], [0.25, 0.75], (2.0, 1.0)),
    ([[-E, 0.3], [0.5, 0.5]], [0.25, 0.75], (1.0, 1.0)),
    ([[-2 * E, 0.3], [0.5, 0.5]], [0.25, 0.75], (1.0, 1.0)),
    ([[0.2, 0.3], [0.5, 0.5]], [-E, 1.0 + E], (1.0, 1.0)),
    ([[0.2, 0.3], [0.5, 0.5]], [-2 * E, 1.0 + 2 * E], (1.0, 1.0)),
    ([[0.2, 0.3], [0.5, 0.5]], [0.25, 0.75 + 2 * E], (1.0, 1.0)),
    ([[0.2, 0.3], [0.5, 0.5]], [0.25, 0.75 + 0.5 * E], (1.0, 1.0)),
    ([[0.2, np.nan], [0.5, 0.5]], [0.25, 0.75], (1.0, 1.0)),
    ([[0.2, np.inf], [0.5, 0.5]], [0.25, 0.75], None),
    ([[0.2, 0.3], [0.5, 0.5]], [np.nan, 0.75], (1.0, 1.0)),
    ([[0.2, 0.3], [0.5, 0.5]], [-np.inf, np.inf], (1.0, 1.0)),
    ([[0.2, 0.3], [0.5, 0.5]], [0.25, 0.75], (np.nan, 1.0)),
    ([[0.2, 0.3], [0.5, 0.5]], [1.0], (1.0, 1.0)),
    ([0.2, 0.3], [1.0], (1.0, 1.0)),
    ([[0.2, 0.3, 0.1], [0.5, 0.5, 0.9]], [0.5, 0.5], (1.0, 1.0, 0.8)),
    (np.zeros((0, 2)), np.zeros(0), (1.0, 1.0)),
    (np.asarray([[0.2, 0.9], [0.5, 0.5]]).T, [0.5, 0.5], (1.0, 0.6)),
]


@pytest.mark.parametrize("atoms, probs, vmax", DISTRIBUTIONS)
def test_distribution_checks_keep_their_cases_and_bits(atoms, probs, vmax):
    try:
        ref_atoms, ref_probs = ref.distribution(atoms, probs, vmax)
    except DomainError:
        with pytest.raises(DomainError):
            ma.DiscreteDistribution(atoms, probs, vmax=vmax)
        return
    dist = ma.DiscreteDistribution(atoms, probs, vmax=vmax)
    assert same_bits(dist.atoms, ref_atoms) and same_bits(dist.probs, ref_probs)


def test_distribution_checks_accept_and_reject_alike_on_random_input():
    """Two to five atoms near the box and probabilities near the simplex."""
    rng = np.random.default_rng(44)
    outcomes = set()
    for _ in range(3_000):
        n, k = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        vmax = rng.uniform(0.5, 2.0, n)
        atoms = rng.uniform(0.0, 1.0, (k, n)) * vmax
        atoms += rng.choice([0.0, -2e-12, 2e-12, 5e-13], (k, n)) * (
            rng.random((k, n)) < 0.1)
        corner = rng.random((k, n)) < 0.2
        atoms[corner] = np.broadcast_to(vmax, (k, n))[corner]
        probs = rng.dirichlet(np.ones(k))
        probs[0] += rng.choice([0.0, 5e-13, 2e-12, -2e-12])
        bound = vmax if rng.random() < 0.8 else float(vmax.max())
        try:
            ref.distribution(atoms, probs, bound)
        except DomainError:
            outcomes.add(False)
            with pytest.raises(DomainError):
                ma.DiscreteDistribution(atoms, probs, vmax=bound)
            continue
        outcomes.add(True)
        dist = ma.DiscreteDistribution(atoms, probs, vmax=bound)
        assert same_bits(dist.atoms, atoms) and same_bits(dist.probs, probs)
    assert outcomes == {True, False}


def optimum_corpus():
    """Instances drawn as the design benchmark draws them, n = 2 to 5 (means
    U(0.08, 0.92) times a common bound), on bounds 1 and 2.5, low and high
    means, plus tied means (a stable sort decides the excluded set), means
    near the bound and a bound 5e-13 apart."""
    rng = np.random.default_rng(43)
    out = []
    for n in range(2, 6):
        for vmax in (1.0, 2.5):
            out += [random_instance(rng, n, vmax=vmax) for _ in range(60)]
            out += [random_instance(rng, n, lo=0.6, hi=0.99, vmax=vmax)
                    for _ in range(20)]
            out += [random_instance(rng, n, lo=0.01, hi=0.2, vmax=vmax)
                    for _ in range(10)]
            m = np.full(n, rng.uniform(0.3, 0.95)) * vmax
            out.append(ma.Instance(n, m, vmax))
            m[: n // 2] = rng.uniform(0.3, 0.95) * vmax
            out.append(ma.Instance(n, m, vmax))
        out.append(ma.Instance(n, np.full(n, 0.5), [1.0] * (n - 1)
                               + [1.0 + 5e-13]))
    return out


def test_optimal_reserves_keeps_its_bits():
    corpus = optimum_corpus()
    regimes = {ma.optimal_reserves(inst).regime for inst in corpus}
    assert regimes == set(ma.Regime)
    for inst in corpus:
        new, old = ma.optimal_reserves(inst), ref.optimal_reserves(inst)
        for field in dataclasses.fields(new):
            a, b = getattr(new, field.name), getattr(old, field.name)
            if field.name == "reserve_set":
                for part in dataclasses.fields(a):
                    x, y = getattr(a, part.name), getattr(b, part.name)
                    assert type(x) is type(y)
                    if isinstance(x, np.ndarray) or part.name == "scale_range":
                        assert same_bits(x, y)
                    else:
                        assert x == y
            elif isinstance(a, np.ndarray):
                assert type(b) is np.ndarray and same_bits(a, b)
            else:
                assert type(a) is type(b) and a == b
        lam, k_star, we = ma.optimal_lambda(inst)
        ref_lam, ref_k, ref_we = ref.optimal_lambda(inst)
        assert same_bits(lam, ref_lam) and (k_star, we) == (ref_k, ref_we)
