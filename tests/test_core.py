import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxmin_auction as ma
from maxmin_auction import DomainError, FeasibilityError, nature
from maxmin_auction.core import drop
from maxmin_auction.improve import AffineThresholds


def lsa_04():
    return ma.corner_hitting([0.4, 0.4], [1.0, 1.0])


class TestInstance:
    def test_validation(self):
        with pytest.raises(DomainError):
            ma.Instance(1, [0.5], 1.0)
        with pytest.raises(DomainError):
            ma.Instance(2, [0.5, 1.5], 1.0)
        with pytest.raises(DomainError):
            ma.Instance(2, [0.0, 0.5], 1.0)
        with pytest.raises(DomainError):
            ma.Instance(2, [np.inf, 0.5], 1.0)

    @pytest.mark.parametrize("means", [0.5, [0.5] * 3, [0.5] * 4])
    @pytest.mark.parametrize("n", [3.7, 2.5, np.nan, np.inf])
    def test_non_integer_bidder_count(self, n, means):
        with pytest.raises(DomainError, match="integer number of bidders"):
            ma.Instance(n, means, 1.0)

    def test_integral_float_bidder_count(self):
        assert ma.Instance(3.0, 0.5, 1.0).n == 3

    def test_broadcast(self):
        inst = ma.Instance(3, 0.5, 1.0)
        assert inst.means == (0.5, 0.5, 0.5)
        assert inst.vmax == (1.0, 1.0, 1.0)

    def test_common_vmax_requires_equal(self):
        inst = ma.Instance(2, [0.5, 0.5], [2.0, 1.0])
        with pytest.raises(DomainError):
            inst.common_vmax()


@pytest.mark.parametrize("call, match", [
    (lambda: ma.Instance(2, [0.5] * 3, 1.0), "length n"),
    (lambda: ma.LinearScoreAuction((0.5, 0.5), (1.0,), (1.0, 1.0)),
     "lengths disagree"),
    (lambda: ma.LinearScoreAuction((-0.1, 0.5), (1.0, 1.0), (1.0, 1.0)),
     "alpha >= 0"),
    (lambda: ma.GridMechanism([[0, 1], [0, 1]], [[0.5, 0.5]]),
     "one threshold table per bidder"),
    (lambda: ma.grid_from_lsa(lsa_04(), [[0, 0.4, 1]]), "one grid axis"),
], ids=["means-length", "lsa-lengths", "negative-alpha", "one-table",
        "one-axis"])
def test_malformed_types_raise(call, match):
    with pytest.raises(DomainError, match=match):
        call()


INST_2 = ma.Instance(2, [0.6, 0.6], 1.0)
AFFINE_2 = AffineThresholds(np.array([0.2, 0.2]), np.array([0.5, 0.5]),
                            (1.0, 1.0))


@pytest.mark.parametrize("call, match", [
    (lambda: ma.GridMechanism([[[0, 1], [0, 1]], [0, 1]], [[1, 1], [1, 1]]),
     "each axis"),
    (lambda: ma.GridMechanism([[0, 1], [0, 0.5, 1]], [[1, 1], [1, 1, 1, 1]]),
     "threshold table 0 does not match"),
    (lambda: ma.GridMechanism([1, 1], [[1, 1], [1, 1]]), "each axis"),
    (lambda: ma.GridMechanism([["a", 1], [0, 1]], [[1, 1], [1, 1]]),
     "grid axes must be numbers"),
    (lambda: ma.corner_hitting([[0.1, 0.2]], 1.0), "2 reserves for 2 value"),
    (lambda: ma.corner_hitting(["a", 0.2], 1.0), "reserves must be numbers"),
    (lambda: ma.lsa_guarantee(["a", 0.2], INST_2), "reserves must be numbers"),
    (lambda: ma.GridMechanism([[0, 1], [0, 1]], [[1, 1], [1, 1]]).threshold(
        0, [np.nan]), "rival values must be finite"),
    (lambda: ma.mechanism_guarantee(AFFINE_2, INST_2), "got AffineThresholds"),
    (lambda: ma.dominating_lsa(AFFINE_2, INST_2), "got AffineThresholds"),
], ids=["nested-axis", "table-size", "scalar-axes", "string-axis",
        "nested-reserves", "string-reserves", "string-reserves-guarantee",
        "nan-rival", "affine-guarantee", "affine-dominating"])
def test_bad_input_the_shared_checks_catch(call, match):
    """Each once escaped as a numpy ``ValueError`` or ``TypeError``, an
    ``AttributeError``, or (the NaN rival) a NaN threshold."""
    with pytest.raises(DomainError, match=match):
        call()


@pytest.mark.parametrize("call, match", [
    (lambda: ma.Instance("2", 0.5, 1), "integer number of bidders"),
    (lambda: ma.Instance(2, ["a", 0.5], 1), "means must be numbers"),
    (lambda: ma.Instance(2, [[0.5], [0.5]], 1), "length n"),
    (lambda: ma.DiscreteDistribution([[0.5, 0.5], [0.5]], [0.5, 0.5]),
     "atoms must be numbers"),
    (lambda: ma.GridMechanism(5, []), "must be lists"),
    (lambda: ma.corner_hitting([0.3, 0.3], [[1], [1]]), "value bounds"),
    (lambda: ma.wcdistr2_construct(["a", 0.2], INST_2),
     "reserves must be numbers"),
    (lambda: ma.reserve_is_optimal(["a", 0.1], INST_2),
     "reserves must be numbers"),
    (lambda: ma.lsa2_asym_guarantee([0.1, 0.1], "a", INST_2),
     "sure-win value must be numbers"),
], ids=["string-n", "string-means", "nested-means", "ragged-atoms",
        "scalar-grid", "nested-bounds", "string-wc-reserves",
        "string-optimal-reserves", "string-sure-win"])
def test_bad_input_that_escaped_as_python_errors(call, match):
    """Each raised a ``TypeError`` or ``ValueError`` from Python or numpy
    before its input went through ``core._floats``."""
    with pytest.raises(DomainError, match=match):
        call()


@pytest.mark.parametrize("call, match", [
    (lambda: nature.check_grid(5, [1.0, 1.0]), "grid axes must be a list"),
    (lambda: ma.lower_revenue_table(lsa_04(), 5), "grid axes must be a list"),
    (lambda: ma.worst_case_lp(5, [0.0], ma.Instance(2, [0.5, 0.5], 1.0)),
     "grid axes must be a list"),
    (lambda: ma.DiscreteDistribution([[0.5, 0.5]], 1.0),
     "one probability per atom"),
], ids=["scalar-grid-check", "scalar-grid-table", "scalar-grid-lp",
        "scalar-probabilities"])
def test_scalar_grid_or_probabilities_raise(call, match):
    """A grid that is not a list raised ``TypeError`` ('int' object is not
    iterable) and scalar probabilities an ``IndexError``."""
    with pytest.raises(DomainError, match=match):
        call()


@pytest.mark.parametrize("call, match", [
    (lambda: ma.corner_hitting([0.3, 0.4], 1.0).tables([[0, 1]]),
     r"one grid axis per bidder \(2\), got 1"),
    (lambda: ma.GridMechanism([[0, 1]] * 3, [[[0.5] * 2] * 2] * 3).tables(
        [[0, 1]] * 2), r"one grid axis per bidder \(3\), got 2"),
    (lambda: ma.revenue(ma.corner_hitting([0.3, 0.4], 1.0), [0.5]),
     "need 2 values, got 1"),
    (lambda: ma.revenue(ma.corner_hitting([0.3, 0.4], 1.0), [0.5] * 3),
     "need 2 values, got 3"),
], ids=["lsa-tables-one-axis", "grid-tables-two-axes", "revenue-short",
        "revenue-long"])
def test_profile_or_grid_of_the_wrong_length_raises(call, match):
    """The tables came back on too few axes, and revenue raised
    ``IndexError`` on a short profile and a rival-count error on a long
    one."""
    with pytest.raises(DomainError, match=match):
        call()


class TestScore:
    def test_zero_at_reserve(self):
        assert lsa_04().score(0, 0.4) == pytest.approx(0.0, abs=1e-15)

    def test_one_at_top(self):
        # corner-hitting: the maximal score of an included bidder is one
        assert lsa_04().score(0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_affine(self):
        lsa = ma.LinearScoreAuction((0.2, 0.2), (1.0, 1.0), (1.0, 1.0))
        assert lsa.score(0, 0.5) == pytest.approx(0.3)

    def test_excluded_raises(self):
        lsa = ma.corner_hitting([1.0, 0.3], [1.0, 1.0])
        with pytest.raises(DomainError):
            lsa.score(0, 0.5)

    def test_out_of_range_raises(self):
        with pytest.raises(DomainError):
            lsa_04().score(0, 1.5)

    def test_threshold_rejects_rival_out_of_range(self):
        with pytest.raises(DomainError):
            lsa_04().threshold(0, [1.5])

    @pytest.mark.parametrize("rivals", [[0.9], [0.9, 0.95, 0.99]])
    def test_threshold_rejects_wrong_rival_count(self, rivals):
        lsa = ma.corner_hitting([0.3, 0.4, 0.5], [1.0] * 3)
        with pytest.raises(DomainError):
            lsa.threshold(0, rivals)


class TestCornerHitting:
    def test_formulas(self):
        lsa = lsa_04()
        assert lsa.betas == pytest.approx((5 / 3, 5 / 3))
        assert lsa.alphas == pytest.approx((2 / 3, 2 / 3))

    def test_zero_reserves_is_plain_spa(self):
        lsa = ma.corner_hitting([0.0, 0.0], [1.0, 1.0])
        assert lsa.betas == (1.0, 1.0)
        assert lsa.alphas == (0.0, 0.0)

    def test_exclusion_at_vmax(self):
        lsa = ma.corner_hitting([1.0, 0.3], [1.0, 1.0])
        assert lsa.excluded == (True, False)
        assert lsa.betas[1] == pytest.approx(1 / 0.7)
        assert lsa.alphas[1] == pytest.approx(3 / 7)

    def test_out_of_box_raises(self):
        with pytest.raises(DomainError):
            ma.corner_hitting([1.2, 0.3], [1.0, 1.0])

    def test_one_reserve_tolerance_with_lsa_guarantee(self):
        """A reserve within 1e-12 above its bound is one at the bound (the
        bidder is excluded) for ``corner_hitting`` as for ``lsa_guarantee``;
        past that tolerance both raise."""
        lsa = ma.corner_hitting([1 + 5e-13, 0.3], 1.0)
        assert lsa.excluded == (True, False) and lsa.reserve(0) == 1.0
        assert lsa.betas[1] == 1 / 0.7
        assert ma.lsa_guarantee([1 + 5e-13, 0.3], INST_2)[0] == \
            ma.lsa_guarantee([1.0, 0.3], INST_2)[0]
        with pytest.raises(DomainError, match="outside"):
            ma.corner_hitting([1 + 2e-12, 0.3], 1.0)
        with pytest.raises(DomainError, match="outside"):
            ma.lsa_guarantee([1 + 2e-12, 0.3], INST_2)

    @pytest.mark.parametrize("r, vmax", [([0.3], [1.0, 1.0]),
                                         ([0.3, 0.3], [1.0, 1.0, 1.0])])
    def test_length_mismatch_raises(self, r, vmax):
        with pytest.raises(DomainError,
                           match=f"{len(r)} reserves for {len(vmax)} value"):
            ma.corner_hitting(r, vmax)


class TestAllocate:
    def test_higher_value_wins(self):
        assert lsa_04().allocate([0.7, 0.5]) == 0

    def test_no_sale(self):
        assert lsa_04().allocate([0.3, 0.35]) is None

    def test_tie_to_lowest_index(self):
        lsa = ma.corner_hitting([3 / 8, 5 / 8], [1.0, 1.0])
        assert lsa.allocate([0.5, 0.7]) == 0

    def test_exact_zero_score_wins(self):
        assert lsa_04().allocate([0.4, 0.1]) == 0

    def test_all_excluded(self):
        lsa = ma.corner_hitting([1.0, 1.0], [1.0, 1.0])
        assert lsa.allocate([0.5, 0.9]) is None

    def test_grid_no_sale(self):
        gm = ma.grid_from_lsa(lsa_04(), [np.array([0.0, 0.4, 1.0])] * 2)
        assert gm.allocate([0.3, 0.35]) is None


class TestThreshold:
    def test_through_top_corner(self):
        lsa = ma.corner_hitting([3 / 8, 5 / 8], [1.0, 1.0])
        assert lsa.threshold(0, [1.0]) == pytest.approx(1.0)

    def test_rival_below_reserve(self):
        assert lsa_04().threshold(0, [0.2]) == pytest.approx(0.4)

    def test_rival_at_reserve(self):
        lsa = ma.corner_hitting([0.45, 0.5], [1.0, 1.0])
        assert lsa.threshold(1, [0.45]) == pytest.approx(0.5)

    def test_excluded_never_wins(self):
        lsa = ma.corner_hitting([1.0, 0.3], [1.0, 1.0])
        assert lsa.threshold(0, [0.9]) == 1.0

    @pytest.mark.parametrize("rivals", [[0.9], [0.9, 0.95, 0.99]])
    def test_grid_needs_one_value_per_rival(self, rivals):
        """Too few rival values once read 0.86, too many the two-value
        answer 0.977; a grid mechanism now refuses both, as the score
        auction it tabulates does."""
        lsa = ma.corner_hitting([0.3, 0.4, 0.5], [1.0] * 3)
        gm = ma.grid_from_lsa(lsa, [np.linspace(0.0, 1.0, 5)] * 3)
        assert gm.threshold(0, [0.9, 0.95]) == pytest.approx(0.9766666666666666)
        for mech in (gm, lsa):
            with pytest.raises(DomainError, match="need 2 rival values"):
                mech.threshold(0, rivals)


class TestPayment:
    def test_second_price(self):
        t = lsa_04().payment([0.7, 0.5])
        assert t == pytest.approx([0.5, 0.0])

    def test_rival_score_zero(self):
        lsa = ma.corner_hitting([0.45, 0.5], [1.0, 1.0])
        assert lsa.payment([1.0, 0.5]) == pytest.approx([0.45, 0.0])

    def test_no_sale_pays_nothing(self):
        assert lsa_04().payment([0.3, 0.35]) == pytest.approx([0.0, 0.0])


class TestRevenue:
    def test_spa(self):
        spa = ma.corner_hitting([0.0, 0.0], [1.0, 1.0])
        assert ma.revenue(spa, [0.8, 0.6]) == pytest.approx(0.6)

    def test_win_at_rival_reserve(self):
        lsa = ma.corner_hitting([0.45, 0.5], [1.0, 1.0])
        assert ma.revenue(lsa, [0.45, 1.0]) == pytest.approx(0.5)

    def test_below_thresholds(self):
        assert ma.revenue(lsa_04(), [0.1, 0.2]) == 0.0

    def test_grid_mechanism_tie_lowest_index(self):
        coords = [np.array([0.0, 0.5, 1.0])] * 2
        gm = ma.grid_from_lsa(ma.corner_hitting([0.0, 0.0], [1.0, 1.0]), coords)
        assert ma.revenue(gm, [0.8, 0.6]) == pytest.approx(0.6)

    def test_grid_infeasible_raises(self):
        gm = ma.GridMechanism([[0.0, 1.0], [0.0, 1.0]],
                              [np.array([0.2, 0.2]), np.array([0.3, 0.3])])
        with pytest.raises(FeasibilityError):
            ma.revenue(gm, [1.0, 1.0])


class TestCheckFeasible:
    def test_lsa_grid_is_feasible(self, rng):
        for _ in range(10):
            r = rng.uniform(0, 1, 2)
            lsa = ma.corner_hitting(r, [1.0, 1.0])
            coords = [np.linspace(0, 1, 6)] * 2
            assert ma.check_feasible(ma.grid_from_lsa(lsa, coords)) is None

    def test_constant_low_thresholds_violate(self):
        gm = ma.GridMechanism([[0.0, 1.0], [0.0, 1.0]],
                              [np.array([0.2, 0.2]), np.array([0.3, 0.3])])
        with pytest.raises(FeasibilityError, match=r"\(1\.0, 1\.0\)"):
            ma.check_feasible(gm)

    def test_spa_with_reserve_thresholds_ok(self):
        c = np.array([0.0, 0.4, 0.7, 1.0])
        p = np.maximum(0.4, c)
        gm = ma.GridMechanism([c, c], [p, p])
        assert ma.check_feasible(gm) is None

    def test_score_auction_is_feasible_as_built(self):
        assert ma.check_feasible(lsa_04()) is None


NONFINITE = [np.nan, np.inf, -np.inf]


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", NONFINITE)
    def test_grid_coords(self, bad):
        with pytest.raises(DomainError):
            ma.GridMechanism([[0.0, bad, 1.0], [0.0, 1.0]],
                             [[0.5, 0.5], [0.5, 0.5, 0.5]])
        with pytest.raises(DomainError):
            ma.GridMechanism([[0.0, 1.0], [0.0, bad]],
                             [[0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("bad", NONFINITE)
    def test_grid_thresholds(self, bad):
        with pytest.raises(DomainError):
            ma.GridMechanism([[0.0, 1.0], [0.0, 1.0]],
                             [[0.5, bad], [0.5, 0.5]])

    @pytest.mark.parametrize("bad", NONFINITE)
    def test_lsa_parameters(self, bad):
        with pytest.raises(DomainError):
            ma.LinearScoreAuction((bad, 0.2), (1.0, 1.0), (1.0, 1.0))
        with pytest.raises(DomainError):
            ma.LinearScoreAuction((0.2, 0.2), (1.0, bad), (1.0, 1.0))
        with pytest.raises(DomainError):
            ma.LinearScoreAuction((0.2, 0.2), (1.0, 1.0), (1.0, bad))

    def test_excluded_bidder_parameters(self):
        with pytest.raises(DomainError):
            ma.LinearScoreAuction((np.nan, 0.2), (1.0, 1.0), (1.0, 1.0),
                                  (True, False))

    @pytest.mark.parametrize("bad", NONFINITE)
    def test_distribution(self, bad):
        with pytest.raises(DomainError):
            ma.DiscreteDistribution([[bad, 0.5]], [1.0])
        with pytest.raises(DomainError):
            ma.DiscreteDistribution([[0.2, 0.5], [0.3, 0.3]], [bad, 1.0])


class TestGridFromLsa:
    def test_rows(self):
        coords = [np.array([0.0, 0.4, 1.0])] * 2
        gm = ma.grid_from_lsa(lsa_04(), coords)
        assert gm.thresholds[0] == pytest.approx([0.4, 0.4, 1.0])

    def test_spa_thresholds_are_rival_values(self):
        coords = [np.array([0.0, 0.3, 1.0])] * 2
        gm = ma.grid_from_lsa(ma.corner_hitting([0.0, 0.0], [1.0, 1.0]), coords)
        assert gm.thresholds[0] == pytest.approx([0.0, 0.3, 1.0])

    def test_excluded_row_is_vmax(self):
        coords = [np.array([0.0, 0.5, 1.0])] * 2
        gm = ma.grid_from_lsa(ma.corner_hitting([1.0, 0.3], [1.0, 1.0]), coords)
        assert gm.thresholds[0] == pytest.approx([1.0, 1.0, 1.0])

    def test_grid_outside_box_raises(self):
        with pytest.raises(DomainError):
            ma.grid_from_lsa(lsa_04(), [[0.0, 0.5, 1.0], [0.0, 0.5, 1.5]])
        with pytest.raises(DomainError):
            ma.grid_from_lsa(lsa_04(), [[-0.1, 0.5, 1.0], [0.0, 1.0]])

    def test_two_bidder_breakpoint_grid_is_exact(self, rng):
        """On its breakpoint grid a two-bidder score auction's tabulation
        interpolates back to its thresholds: the grid holds the reserves and
        the kinks where a threshold clips at its bound."""
        for _ in range(200):
            vmax = tuple(rng.uniform(0.5, 2.0, 2)) if rng.random() < 0.5 \
                else (1.0, 1.0)
            alphas, betas = rng.uniform(0.0, 1.5, 2), rng.uniform(0.3, 3.0, 2)
            lsa = ma.LinearScoreAuction(
                tuple(alphas), tuple(betas), vmax,
                tuple(bool(e) for e in rng.random(2) < 0.15))
            gm = ma.grid_from_lsa(lsa, nature.breakpoint_coords(lsa))
            for i in (0, 1):
                top = vmax[1 - i]
                for w in np.concatenate([rng.uniform(0.0, top, 20),
                                         np.linspace(0.0, top, 21)]):
                    assert gm.threshold(i, [w]) == pytest.approx(
                        lsa.threshold(i, [w]), abs=1e-12)


def two_bidder_grid(vmax=1.0):
    c = [0.0, 0.2 * vmax, 0.5 * vmax, vmax]
    return ma.GridMechanism([c, c], [[vmax] * 4, [0.2 * vmax + 0.3 * x
                                                  for x in c]])


class TestCompatibility:
    """Entry points reject a mechanism built for another instance."""

    ENTRY_POINTS = [ma.mechanism_guarantee, ma.dominating_lsa, ma.member]

    @pytest.mark.parametrize("entry", ENTRY_POINTS,
                             ids=lambda f: f.__name__)
    def test_bidder_count_mismatch(self, entry):
        with pytest.raises(DomainError, match="n=2"):
            entry(two_bidder_grid(), ma.Instance(3, [0.5] * 3, 1.0))

    @pytest.mark.parametrize("entry", ENTRY_POINTS,
                             ids=lambda f: f.__name__)
    def test_bound_mismatch(self, entry):
        with pytest.raises(DomainError, match="vmax"):
            entry(two_bidder_grid(), ma.Instance(2, [0.5, 0.5], 2.0))
        with pytest.raises(DomainError, match="vmax"):
            entry(two_bidder_grid(2.0), ma.Instance(2, [0.5, 0.5], 1.0))

    def test_lsa_bidder_count_mismatch(self):
        lsa = ma.corner_hitting([0.3, 0.3, 0.3], [1.0] * 3)
        with pytest.raises(DomainError):
            ma.mechanism_guarantee(lsa, ma.Instance(2, [0.5, 0.5], 1.0))

    def test_bounds_within_tolerance_pass(self):
        gm = two_bidder_grid()
        inst = ma.Instance(2, [0.5, 0.5], 1.0 + 1e-13)
        assert ma.mechanism_guarantee(gm, inst)[0] == pytest.approx(
            0.0375, abs=1e-6)


def test_public_names_resolve_once():
    assert len(ma.__all__) == len(set(ma.__all__))
    for name in ma.__all__:
        assert getattr(ma, name) is not None


class TestDiscreteDistribution:
    def test_validation(self):
        with pytest.raises(DomainError):
            ma.DiscreteDistribution([(0.5, 0.5)], [0.5])
        with pytest.raises(DomainError):
            ma.DiscreteDistribution([(0.5, 1.5)], [1.0], vmax=1.0)

    def test_mean_and_revenue(self):
        d = ma.DiscreteDistribution([(1.0, 0.2), (0.4, 1.0)], [0.5, 0.5])
        assert d.mean() == pytest.approx([0.7, 0.6])
        lsa = ma.corner_hitting([0.2, 0.2], [1.0, 1.0])
        assert d.expected_revenue(lsa) == pytest.approx(0.3)


class TestMechanismProperties:
    def test_dsic_and_ir(self, rng):
        """Truthful reporting beats any misreport; winners never overpay."""
        cases = 0
        misreports = np.linspace(0.0, 1.0, 11)
        while cases < 1000:
            n = int(rng.integers(2, 4))
            r = rng.uniform(0.0, 0.95, n)
            lsa = ma.corner_hitting(r, [1.0] * n)
            v = rng.uniform(0.0, 1.0, n)
            pays = lsa.payment(v)
            winner = lsa.allocate(v)
            for i in range(n):
                assert pays[i] <= (v[i] if i == winner else 0.0) + 1e-12
            for i in range(n):
                truthful = (v[i] - pays[i]) if i == winner else 0.0
                for bid in misreports:
                    report = v.copy()
                    report[i] = bid
                    w2 = lsa.allocate(report)
                    util = (v[i] - lsa.payment(report)[i]) if w2 == i else 0.0
                    assert util <= truthful + 1e-9
                cases += 1

    def test_threshold_consistency(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 4))
            r = rng.uniform(0.0, 0.95, n)
            lsa = ma.corner_hitting(r, [1.0] * n)
            v = rng.uniform(0.0, 1.0, n)
            winner = lsa.allocate(v)
            for i in range(n):
                p = lsa.threshold(i, drop(v, i))
                if v[i] > p + 1e-12:
                    assert winner == i
                if winner == i:
                    assert v[i] >= p - 1e-12

    def test_corner_score_range(self, rng):
        for _ in range(100):
            r = float(rng.uniform(0.0, 0.99))
            lsa = ma.corner_hitting([r, 0.5], [1.0, 1.0])
            assert lsa.score(0, 1.0) == pytest.approx(1.0, abs=1e-12)
            assert lsa.score(0, r) == pytest.approx(0.0, abs=1e-12)

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4),
           st.floats(0.0, 0.9))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_reduction(self, values, reserve):
        """Identical affine scores allocate like argmax-of-values w/ reserve."""
        n = len(values)
        lsa = ma.LinearScoreAuction((reserve,) * n, (1.0,) * n, (1.0,) * n)
        winner = lsa.allocate(values)
        arr = np.asarray(values)
        if arr.max() < reserve:
            assert winner is None
        else:
            assert winner == int(np.argmax(arr))
