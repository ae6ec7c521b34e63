import numpy as np
import pytest

from maxmin_auction.errors import UnboundedError
from maxmin_auction.simplex import solve_lp


def test_known_optimum():
    # min -x1 - 2 x2 st x1 + x2 + s = 4, x1 + 3 x2 + t = 6
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    res = solve_lp(c, A, b, start=[2, 3])
    assert res.value == pytest.approx(-5.0)
    assert res.x[:2] == pytest.approx([3.0, 1.0])


def test_duals_certify_value():
    rng = np.random.default_rng(3)
    solved = 0
    for _ in range(300):    # about one draw in nine is bounded
        m, n = 3, 8
        A = np.hstack([rng.uniform(-1, 1, (m, n)), np.eye(m)])  # with slacks
        x0 = np.abs(rng.uniform(0, 1, n))
        s0 = np.maximum(-A[:, :n] @ x0, 0.0) + rng.uniform(0.1, 1.0, m)
        b = A[:, :n] @ x0 + s0   # (x0, s0) is feasible, and so are the slacks
        c = np.concatenate([rng.uniform(-1, 1, n), np.zeros(m)])
        try:
            res = solve_lp(c, A, b, start=range(n, n + m))
        except UnboundedError:
            continue
        solved += 1
        assert res.duals @ b == pytest.approx(res.value, abs=1e-8)
        # dual feasibility: reduced costs nonnegative
        assert np.all(c - res.duals @ A >= -1e-8)
        # primal feasibility
        assert A @ res.x == pytest.approx(b, abs=1e-8)
        assert np.all(res.x >= -1e-10)
    assert solved >= 20


def test_unbounded():
    # min -x1 with x1 - x2 = 0 is unbounded along the ray x1 = x2
    A = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    with pytest.raises(UnboundedError):
        solve_lp(np.array([-1.0, 0.0]), A, b, start=[0])


def test_negative_rhs_rows_are_flipped():
    # same LP as test_known_optimum with the first row negated
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    A = np.array([[-1.0, -1.0, -1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    b = np.array([-4.0, 6.0])
    res = solve_lp(c, A, b, start=[2, 3])
    assert res.value == pytest.approx(-5.0)
    assert res.duals @ b == pytest.approx(-5.0)


def test_degenerate_cycling_guard():
    # classic degenerate example; Bland's rule must terminate
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    A = np.array([
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    res = solve_lp(c, A, b, start=[4, 5, 6])
    assert res.value == pytest.approx(-0.05)
