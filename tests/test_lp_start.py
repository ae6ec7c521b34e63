"""The revised simplex against the dense tableau it replaced, and HiGHS.

Nature's LPs and the multiplier LPs are captured from their real callers
(``worst_case_lp`` and ``_guarantee_lp``), together with the starting basis
each caller passes.  Every LP is solved from that start and must match the
dense two-phase tableau below in value; the basis is not compared, because
on fine grids the optimum is often not unique.  The same LPs must also give
exactly the bits of the revised simplex's earlier form, kept at the end of
this file, which inverted every start, built the multiplier LP row by row
and could start from artificial variables instead.
"""

import operator

import numpy as np
import pytest

import maxmin_auction as ma
from generators import random_feasible_mechanism, random_instance
from maxmin_auction import dual, nature, simplex
from maxmin_auction.errors import (DomainError, InfeasibleError,
                                   NumericalError, UnboundedError)
from maxmin_auction.simplex import solve_lp

VALUE_TOL = 1e-10
HIGHS_TOL = 1e-8


def _tableau_pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col


def _tableau_run(tableau, basis, cost, max_iter):
    m = len(basis)
    ncols = tableau.shape[1] - 1
    stalled = 0
    for _ in range(max_iter):
        reduced = cost[:ncols] - tableau[:, :ncols].T @ cost[basis]
        candidates = np.flatnonzero(reduced < -1e-10)
        if candidates.size == 0:
            return
        if stalled > 8:
            entering = int(candidates[0])
        else:
            entering = int(candidates[np.argmin(reduced[candidates])])
        col = tableau[:, entering]
        rhs = tableau[:, -1]
        best_ratio = np.inf
        leaving = -1
        for i in range(m):
            if col[i] > 1e-10:
                ratio = rhs[i] / col[i]
                if ratio < best_ratio or (ratio == best_ratio
                                          and basis[i] < basis[leaving]):
                    best_ratio, leaving = ratio, i
        if leaving < 0:
            raise UnboundedError("objective unbounded below")
        stalled = 0 if best_ratio > 1e-10 else stalled + 1
        _tableau_pivot(tableau, basis, leaving, entering)
    raise NumericalError("simplex iteration limit exceeded")


def tableau_solve_lp(c, A, b, max_iter=100_000):
    """The dense two-phase tableau simplex, kept as the reference: returns
    the optimal value."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    tableau = np.zeros((m, n + m + 1))
    tableau[:, :n] = A
    tableau[:, n:n + m] = np.eye(m)
    tableau[:, -1] = b
    basis = np.arange(n, n + m)
    phase1_cost = np.concatenate([np.zeros(n), np.ones(m), [0.0]])
    _tableau_run(tableau, basis, phase1_cost, max_iter)
    if float(phase1_cost[basis] @ tableau[:, -1]) > 1e-9:
        raise InfeasibleError("no feasible point")
    for i in range(m):
        if basis[i] >= n:
            nz = np.flatnonzero(np.abs(tableau[i, :n]) > 1e-10)
            if nz.size:
                _tableau_pivot(tableau, basis, i, int(nz[0]))
    keep = np.flatnonzero(basis < n)
    tableau = np.hstack([tableau[keep][:, :n], tableau[keep][:, -1:]])
    basis = basis[keep]
    _tableau_run(tableau, basis, np.concatenate([c, [0.0]]), max_iter)
    return float(c[basis] @ tableau[:, -1])


def captured_lps(module, run):
    """Every ``(c, A, b, start)`` that ``run`` hands to ``module.solve_lp``."""
    lps = []
    real = module.solve_lp

    def spy(c, A, b, start):
        lps.append((c, A, b, start))
        return real(c, A, b, start=start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "solve_lp", spy)
        run()
    return lps


def corner_auction(rng, n):
    inst = random_instance(rng, n)
    r = rng.uniform(0.0, 1.0, n)
    r[rng.random(n) < 0.15] = 0.0
    return ma.corner_hitting(r, inst.vmax), inst


def evaluate_mix_lps(seed, per_n=10):
    """Nature's LPs for the evaluate mix on its breakpoint grids, n = 2, 3."""
    rng = np.random.default_rng(seed)

    def run():
        for n in (2, 3):
            for _ in range(per_n):
                inst = random_instance(rng, n)
                nature.mechanism_guarantee(
                    random_feasible_mechanism(rng, n), inst)

    return captured_lps(nature, run)


def fine_grid_lps(seed, steps=(0.01, 0.05), per_n=4):
    """Nature's LPs for corner-hitting auctions on step grids; ``steps``
    holds the step for n = 2, then for n = 3."""
    rng = np.random.default_rng(seed)

    def run():
        for n, step in zip((2, 3), steps):
            for _ in range(per_n):
                lsa, inst = corner_auction(rng, n)
                nature.mechanism_guarantee(lsa, inst, step=step)

    return captured_lps(nature, run)


def multiplier_calls(seed, per_n=40):
    """Inputs to ``lsa_guarantee`` for n = 2 to 5 and to
    ``lsa2_asym_guarantee``, with reserves at zero and at the bound mixed
    in: ``(function name, args)`` pairs."""
    rng = np.random.default_rng(seed)

    def reserves(vmax, n):
        r = rng.uniform(0.0, 1.0, n) * vmax
        roll = rng.random()
        if roll < 0.15:
            r[rng.integers(n)] = 0.0
        elif roll < 0.25:
            r[rng.integers(n)] = np.asarray(vmax, dtype=float).max()
        return np.minimum(r, vmax)

    calls = []
    for n in (2, 3, 4, 5):
        for _ in range(per_n):
            inst = random_instance(rng, n)
            calls.append(("lsa_guarantee", (reserves(1.0, n), inst)))
    for _ in range(per_n):
        v2 = rng.uniform(0.5, 1.0)
        vmax = np.array([1.0, v2])
        inst = ma.Instance(2, rng.uniform(0.05, 0.95, 2) * vmax, vmax)
        calls.append(("lsa2_asym_guarantee",
                      (reserves(vmax, 2), rng.uniform(0.0, 1.0), inst)))
    return calls


def multiplier_lps(seed, per_n=40):
    """The multiplier LPs of ``multiplier_calls(seed, per_n)``."""
    calls = multiplier_calls(seed, per_n)

    def run():
        for name, args in calls:
            getattr(dual, name)(*args)

    return captured_lps(dual, run)


@pytest.fixture(scope="module")
def nature_corpus():
    return evaluate_mix_lps(seed=51) + fine_grid_lps(seed=54)


@pytest.fixture(scope="module")
def multiplier_corpus():
    return multiplier_lps(seed=52)


def check_against_tableau(lps):
    assert lps
    for k, (c, A, b, start) in enumerate(lps):
        res = solve_lp(c, A, b, start=start)
        assert abs(res.value - tableau_solve_lp(c, A, b)) <= VALUE_TOL, k
        assert abs(res.duals @ b - res.value) <= VALUE_TOL, k
        assert np.min(c - res.duals @ A) >= -1e-9, k
        assert np.max(np.abs(A @ res.x - b)) <= 1e-9, k
        assert np.min(res.x) >= 0.0, k


def test_nature_lps_match_tableau(nature_corpus):
    check_against_tableau(nature_corpus)


def test_multiplier_lps_match_tableau(multiplier_corpus):
    check_against_tableau(multiplier_corpus)


def highs_value(c, A, b):
    from scipy.optimize import linprog

    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun


def test_highs_agrees(nature_corpus, multiplier_corpus):
    pytest.importorskip("scipy")
    for k, (c, A, b, start) in enumerate(nature_corpus + multiplier_corpus):
        value = solve_lp(c, A, b, start=start).value
        assert abs(value - highs_value(c, A, b)) <= HIGHS_TOL, k


def test_highs_agrees_on_large_grids():
    """Nature's LPs on grids of over 100k nodes: 334 x 334 and 48 x 48 x 48."""
    pytest.importorskip("scipy")
    rng = np.random.default_rng(53)

    def run():
        for n, k in ((2, 334), (2, 334), (3, 48), (3, 48)):
            lsa, inst = corner_auction(rng, n)
            coords = [np.linspace(0.0, v, k) for v in inst.vmax]
            nature.worst_case_lp(coords, nature.lower_revenue_table(lsa, coords),
                                 inst)

    large = captured_lps(nature, run)
    assert min(A.shape[1] for _, A, _, _ in large) > 100_000
    for k, (c, A, b, start) in enumerate(large):
        value = solve_lp(c, A, b, start=start).value
        assert abs(value - highs_value(c, A, b)) <= HIGHS_TOL, k


class TestStart:
    # min -x1 - 2 x2 st x1 + x2 + s = 4, x1 + 3 x2 + t = 6
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])

    def test_slack_start(self):
        res = solve_lp(self.c, self.A, self.b, start=[2, 3])
        assert res.value == pytest.approx(-5.0)
        assert res.x[:2] == pytest.approx([3.0, 1.0])
        assert res.pivots >= 1

    def test_optimal_start_takes_no_pivot(self):
        res = solve_lp(self.c, self.A, self.b, start=[0, 1])
        assert res.value == pytest.approx(-5.0)
        assert res.pivots == 0

    @pytest.mark.parametrize("start", [[2], [2, 3, 0], [2, 2], [2, 4],
                                       [-1, 2], [2.0, 3.0]])
    def test_start_not_m_distinct_columns(self, start):
        with pytest.raises(DomainError):
            solve_lp(self.c, self.A, self.b, start=start)

    @pytest.mark.parametrize("col", [[1.0, 1.0], [0.0, 1e-14]])
    def test_singular_start(self, col):
        # exactly singular, then feasible but singular to rounding (1-norm
        # condition number 2e14)
        A = np.column_stack([[1.0, 1.0], col, [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainError):
            solve_lp(self.c, A, self.b, start=[0, 1])

    def test_infeasible_start(self):
        # x1 = 6 - ... : basis {x1, s} gives s = 4 - 6 < 0
        with pytest.raises(DomainError):
            solve_lp(self.c, self.A, self.b, start=[0, 2])

    def test_caller_matrix_untouched(self):
        A = np.array([[-1.0, -1.0, -1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
        b = np.array([-4.0, 6.0])
        before = A.copy()
        res = solve_lp(self.c, A, b, start=[2, 3])
        assert res.value == pytest.approx(-5.0)
        assert res.duals @ b == pytest.approx(-5.0)
        np.testing.assert_array_equal(A, before)


class TestWorstCaseStart:
    def test_box_not_starting_at_zero(self, rng):
        coords = [np.array([0.2, 0.35, 0.6, 0.9]), np.array([0.3, 0.5, 0.8])]
        t = rng.uniform(0.0, 1.0, (4, 3))
        # equal positions along both axes make a degenerate corner start
        for means in ([0.55, 0.55], [0.35, 0.7], [0.2 + 0.7 * 0.4,
                                                   0.3 + 0.5 * 0.4]):
            inst = ma.Instance(2, means, 1.0)
            value, dist, cert = nature.worst_case_lp(coords, t, inst)
            assert value == pytest.approx(
                nature.brute_force_min(coords, t, inst), abs=1e-12)
            assert value == pytest.approx(
                tableau_solve_lp(t.ravel(),
                                 np.vstack([np.ones(12),
                                            nature.grid_nodes(coords).T]),
                                 [1.0, *means]), abs=VALUE_TOL)
            assert dist.mean() == pytest.approx(means, abs=1e-12)
            assert cert.value == pytest.approx(value, abs=1e-12)

    def test_three_axes_box_not_starting_at_zero(self, rng):
        coords = [np.array([0.1, 0.4, 1.0]), np.array([0.25, 0.5]),
                  np.array([0.05, 0.3, 0.6, 0.7])]
        t = rng.uniform(0.0, 1.0, (3, 2, 4))
        inst = ma.Instance(3, [0.5, 0.3, 0.4], 1.0)
        value, dist, _ = nature.worst_case_lp(coords, t, inst)
        assert value == pytest.approx(
            nature.brute_force_min(coords, t, inst), abs=1e-12)
        assert dist.mean() == pytest.approx(inst.mean_vector, abs=1e-12)

    def test_means_below_box(self):
        coords = [np.array([0.2, 1.0]), np.array([0.0, 1.0])]
        with pytest.raises(InfeasibleError):
            nature.worst_case_lp(coords, np.zeros((2, 2)),
                                 ma.Instance(2, [0.1, 0.5], 1.0))

    @pytest.mark.parametrize("coords", [
        [np.array([0.5]), np.array([0.0, 1.0])],
        [np.array([0.0, 1.0, 0.5]), np.array([0.0, 1.0])],
        [np.array([0.0, 0.5, 0.5, 1.0]), np.array([0.0, 1.0])],
        [np.array([0.0, 1.0])],
    ])
    def test_bad_axes(self, coords):
        t = np.zeros([len(c) for c in coords])
        with pytest.raises(DomainError):
            nature.worst_case_lp(coords, t, ma.Instance(2, [0.5, 0.5], 1.0))


# The revised simplex and the multiplier LP's rows before the identity start,
# the in-place pivot and the preallocated rows, kept as the reference: every
# output of the current code must carry the same bits.

def reference_pivot(inv, basis, row, col, entering):
    inv[row] /= col[row]
    factors = col.copy()
    factors[row] = 0.0
    inv -= np.outer(factors, inv[row])
    np.maximum(inv[:, -1], 0.0, out=inv[:, -1])
    basis[row] = entering


def reference_run_simplex(c, A, inv, basis, cost_b, max_iter):
    m = A.shape[0]
    stalled = pivots = 0
    while True:
        y = cost_b @ inv[:, :m]
        reduced = c - y @ A
        if stalled > simplex.STALL_LIMIT:
            candidates = np.flatnonzero(reduced < -simplex.PIVOT_TOL)
            if candidates.size == 0:
                return pivots, y
            entering = int(candidates[0])
        else:
            entering = int(np.argmin(reduced))
            if reduced[entering] >= -simplex.PIVOT_TOL:
                return pivots, y
        if pivots == max_iter:
            raise NumericalError("simplex iteration limit exceeded")
        col = inv[:, :m] @ A[:, entering]
        colv, rhs, bas = col.tolist(), inv[:, -1].tolist(), basis.tolist()
        best_ratio = np.inf
        leaving = -1
        for i in range(m):
            if colv[i] > simplex.PIVOT_TOL:
                ratio = rhs[i] / colv[i]
                if ratio < best_ratio or (ratio == best_ratio
                                          and bas[i] < bas[leaving]):
                    best_ratio, leaving = ratio, i
        if leaving < 0:
            raise UnboundedError("objective unbounded below")
        stalled = 0 if best_ratio > simplex.PIVOT_TOL else stalled + 1
        reference_pivot(inv, basis, leaving, col, entering)
        cost_b[leaving] = c[entering]
        pivots += 1


def reference_start_basis(A, b, start):
    m, ncols = A.shape
    try:
        basis = [operator.index(j) for j in start]
    except TypeError:
        raise DomainError("start must name columns of A by index") from None
    if (len(basis) != m or len(set(basis)) != m or min(basis) < 0
            or max(basis) >= ncols):
        raise DomainError(f"start must name {m} distinct columns of A")
    basis = np.array(basis, dtype=np.intp)
    B = A[:, basis]
    try:
        binv = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        raise DomainError("start basis is singular") from None
    if (np.abs(B).sum(axis=0).max() * np.abs(binv).sum(axis=0).max()
            > simplex.MAX_COND):
        raise DomainError("start basis is numerically singular")
    xb = binv @ b
    if np.any(xb < -simplex.START_TOL):
        raise DomainError("start basis is not feasible")
    return np.column_stack([binv, np.maximum(xb, 0.0)]), basis


def reference_solve_lp(c, A, b, start=None, max_iter=100_000):
    A = np.asarray(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, ncols = A.shape
    flip = b < 0
    if np.any(flip):
        A = A.copy()
        A[flip] *= -1.0
        b[flip] *= -1.0
    phase1 = 0
    if start is not None:
        inv, basis = reference_start_basis(A, b, start)
    else:
        inv = np.column_stack([np.eye(m), b])
        basis = np.arange(ncols, ncols + m)
        phase1, _ = reference_run_simplex(np.zeros(ncols), A, inv, basis,
                                          np.ones(m), max_iter)
        if float(inv[basis >= ncols, -1].sum()) > 1e-9:
            raise InfeasibleError("no feasible point")
        for i in np.flatnonzero(basis >= ncols):
            nz = np.flatnonzero(np.abs(inv[i, :m] @ A) > simplex.PIVOT_TOL)
            if nz.size:
                reference_pivot(inv, basis, i, inv[:, :m] @ A[:, nz[0]],
                                int(nz[0]))
                phase1 += 1
    cost_b = np.array([c[j] if j < ncols else 0.0 for j in basis])
    phase2, duals = reference_run_simplex(c, A, inv, basis, cost_b, max_iter)
    real = basis < ncols
    x = np.zeros(ncols)
    x[basis[real]] = inv[real, -1]
    value = float(c[basis[real]] @ inv[real, -1])
    duals[flip] *= -1.0
    return simplex.LPResult(x=x, value=value, basis=basis[real], duals=duals,
                            pivots=(phase1, phase2))


def reference_guarantee_rows(wall_A, wall_b, r, vmax, means):
    """``(c, A, b, start)`` of the multiplier LP, row by row."""
    rows, rhs = list(wall_A), list(wall_b)
    for i in range(len(r)):
        row = r.copy()
        row[i] = vmax[i]
        rows.append(row)
        rhs.append(r[i])
    if np.all(r > 0.0):
        rows.append(r.copy())
        rhs.append(0.0)
    terms_A, terms_b = np.asarray(rows), np.asarray(rhs)
    n = means.shape[0]
    k = terms_A.shape[0]
    ncols = n + 2 + k
    A = np.zeros((k, ncols))
    A[:, :n] = terms_A
    A[:, n] = 1.0
    A[:, n + 1] = -1.0
    A[:, n + 2:] = np.eye(k)
    c = np.zeros(ncols)
    c[:n] = -means
    c[n] = -1.0
    c[n + 1] = 1.0
    return c, A, terms_b, np.arange(n + 2, ncols)


def reference_multiplier_lp(name, args):
    """The LP that ``dual.<name>(*args)`` solved, from the reference rows."""
    if name == "lsa_guarantee":
        r, inst = args
        vmax = inst.common_vmax()
        return reference_guarantee_rows([np.full(inst.n, vmax)], [vmax],
                                         np.asarray(r, dtype=float),
                                         [vmax] * inst.n, inst.mean_vector)
    r, v1_tilde, inst = args
    v1, v2 = map(float, inst.vmax)
    return reference_guarantee_rows([np.array([v1, v2]),
                                     np.array([v1_tilde, v2])],
                                    [v1_tilde, v2], np.asarray(r, dtype=float),
                                    (v1, v2), inst.mean_vector)


def assert_same_bits(res, ref, where):
    assert res.value == ref.value, where
    for field in ("x", "duals", "basis"):
        assert np.array_equal(getattr(res, field), getattr(ref, field)), \
            (where, field)
    assert ref.pivots[0] == 0 and res.pivots == ref.pivots[1], where


def test_solver_bit_identical_to_reference(nature_corpus, multiplier_corpus):
    """From the caller's start the solver returns exactly the reference's
    numbers."""
    for k, (c, A, b, start) in enumerate(nature_corpus + multiplier_corpus):
        assert_same_bits(solve_lp(c, A, b, start=start),
                         reference_solve_lp(c, A, b, start=start), k)


def test_multiplier_lps_bit_identical_to_reference():
    """Each multiplier LP is built with exactly the reference's rows, and
    its guarantee and multipliers carry the reference's bits."""
    for k, (name, args) in enumerate(multiplier_calls(seed=52)):
        out = []
        (lp,) = captured_lps(dual, lambda: out.append(
            getattr(dual, name)(*args)))
        (value, lam), (c, A, b, start) = out[0], lp
        ref = reference_multiplier_lp(name, args)
        for got, want in zip((c, A, b, start), ref):
            assert np.array_equal(got, want), (k, name)
        res = reference_solve_lp(*ref[:3], start=ref[3])
        assert value == -res.value, (k, name)
        assert np.array_equal(lam, res.x[:len(lam)]), (k, name)


class TestIdentityStart:
    """The identity start needs no inverse; every other start still gets
    one, and the start's checks hold either way."""

    @staticmethod
    def count_inverses(mp):
        calls = []
        real = np.linalg.inv

        def spy(B):
            calls.append(B.shape)
            return real(B)

        mp.setattr(simplex.np.linalg, "inv", spy)
        return calls

    def test_slack_start_is_not_inverted(self, multiplier_corpus):
        with pytest.MonkeyPatch.context() as mp:
            calls = self.count_inverses(mp)
            for c, A, b, start in multiplier_corpus:
                solve_lp(c, A, b, start=start)
        assert calls == []

    def test_permuted_identity_takes_general_route(self, multiplier_corpus):
        for k, (c, A, b, start) in enumerate(multiplier_corpus[::7]):
            permuted = start[::-1]
            with pytest.MonkeyPatch.context() as mp:
                calls = self.count_inverses(mp)
                res = solve_lp(c, A, b, start=permuted)
            assert len(calls) == 1, k
            assert_same_bits(res, reference_solve_lp(c, A, b, start=permuted),
                             k)
            # the basis order differs, so only up to rounding
            assert res.value == pytest.approx(
                solve_lp(c, A, b, start=start).value, abs=1e-12), k

    def test_negative_rhs_makes_slack_start_infeasible(self):
        # the sign flip turns the second slack column into -e_2, so the
        # start is no longer the identity and x_B = -4 < 0
        A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
        c = np.array([-1.0, -2.0, 0.0, 0.0])
        b = np.array([6.0, -4.0])
        with pytest.raises(DomainError):
            solve_lp(c, A, b, start=[2, 3])
        with pytest.raises(DomainError):
            reference_solve_lp(c, A, b, start=[2, 3])

    def test_caller_matrix_untouched(self, multiplier_corpus):
        for k, (c, A, b, start) in enumerate(multiplier_corpus):
            before = (c.copy(), A.copy(), b.copy(), start.copy())
            solve_lp(c, A, b, start=start)
            for got, want in zip((c, A, b, start), before):
                assert np.array_equal(got, want), k
