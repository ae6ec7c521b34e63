"""Revised primal simplex with Bland's anti-cycling rule.

Solves  min c'x  s.t.  Ax = b, x >= 0.  The LPs here have a handful of rows
and up to millions of columns, so the solver keeps only the m x m basis
inverse next to the basic solution and prices every column with one
``y @ A`` pass per pivot; it never forms B^-1 A.

Every caller knows a feasible basis and passes it as ``start``, so there is
no phase 1; a start whose columns are exactly the identity, such as a slack
basis, needs no inverse, so a tiny LP pays for its pivots alone.
Pivoting is deterministic: steepest reduced cost while the objective moves,
Bland's rule after a run of degenerate pivots, and ratio-test ties go to the
smaller basic index.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, UnboundedError

PIVOT_TOL = 1e-10
START_TOL = 1e-9       # a start's basic solution may dip this far below zero
STALL_LIMIT = 8        # degenerate pivots in a row before Bland's rule
MAX_COND = 1e12        # largest 1-norm condition number of a start's basis
MAX_ITER = 100_000     # pivots before the solver gives up


@dataclass
class LPResult:
    x: np.ndarray          # primal solution
    value: float           # c'x at the optimum
    basis: np.ndarray      # column indices of the final basis, one per row
    duals: np.ndarray      # y with y'A <= c' and y'b == value
    pivots: int            # pivots from the start to the optimum


def _pivot(inv: np.ndarray, basis: np.ndarray, row: int, col: np.ndarray,
           entering: int) -> None:
    """Bring ``entering``, whose column is ``col = B^-1 a``, into ``row``.

    ``inv`` is ``[B^-1 | x_B]``; the update is the tableau's row operation
    restricted to those columns, done in place.  ``col`` is scratch: the
    caller computed it for this pivot and does not read it again.  A basic
    value that rounding leaves below zero is set to zero.
    """
    pivot_row = inv[row]
    pivot_row /= col[row]
    col[row] = 0.0
    inv -= col[:, None] * pivot_row
    xb = inv[:, -1]
    np.maximum(xb, 0.0, out=xb)
    basis[row] = entering


def _run_simplex(c: np.ndarray, A: np.ndarray, inv: np.ndarray,
                 basis: np.ndarray) -> tuple[int, np.ndarray]:
    """Pivot in place until no reduced cost is below ``-PIVOT_TOL``.

    Returns the pivot count and the final duals.
    """
    m = A.shape[0]
    binv, xb = inv[:, :m], inv[:, -1]      # views; _pivot updates inv in place
    stalled = pivots = 0
    while True:
        y = c[basis] @ binv
        reduced = c - y @ A
        if stalled > STALL_LIMIT:                  # Bland
            candidates = np.flatnonzero(reduced < -PIVOT_TOL)
            if candidates.size == 0:
                return pivots, y
            entering = int(candidates[0])
        else:
            entering = int(reduced.argmin())
            if reduced[entering] >= -PIVOT_TOL:
                return pivots, y
        if pivots == MAX_ITER:
            raise NumericalError("simplex iteration limit exceeded")
        col = binv @ A[:, entering]
        colv, rhs, bas = col.tolist(), xb.tolist(), basis.tolist()
        best_ratio = np.inf
        leaving = -1
        for i in range(m):
            if colv[i] > PIVOT_TOL:
                ratio = rhs[i] / colv[i]
                if ratio < best_ratio or (ratio == best_ratio
                                          and bas[i] < bas[leaving]):
                    best_ratio, leaving = ratio, i
        if leaving < 0:
            raise UnboundedError("objective unbounded below")
        stalled = 0 if best_ratio > PIVOT_TOL else stalled + 1
        _pivot(inv, basis, leaving, col, entering)
        pivots += 1


def _start_basis(A: np.ndarray, b: np.ndarray, start) -> tuple[np.ndarray,
                                                                np.ndarray]:
    """``[B^-1 | x_B]`` and the basis for a caller's feasible start.

    A start whose columns are exactly the identity (a slack basis after the
    sign flip that made ``b >= 0``) has B^-1 = I, condition number 1 and
    x_B = b >= 0: it needs no inverse, and it passes the conditioning and
    feasibility checks by construction.
    """
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
    inv = np.eye(m, m + 1)
    if (B == inv[:, :m]).all():
        inv[:, -1] = b
        return inv, basis
    try:
        binv = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        raise DomainError("start basis is singular") from None
    if np.abs(B).sum(axis=0).max() * np.abs(binv).sum(axis=0).max() > MAX_COND:
        raise DomainError("start basis is numerically singular")
    xb = binv @ b
    if (xb < -START_TOL).any():
        raise DomainError("start basis is not feasible")
    return np.column_stack([binv, np.maximum(xb, 0.0)]), basis


def solve_lp(c: np.ndarray, A: np.ndarray, b: np.ndarray, start) -> LPResult:
    """Solve min c'x s.t. Ax = b, x >= 0 and return primal/dual data.

    ``start`` names m columns of ``A`` that form a feasible basis
    (``B^-1 b >= 0``).  ``A`` is never modified, and copied only when a row
    must be negated to make its right-hand side nonnegative.
    """
    A = np.asarray(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.asarray(c, dtype=float)

    flip = b < 0
    flipped = flip.any()
    if flipped:
        A = A.copy()
        A[flip] *= -1.0
        b[flip] *= -1.0

    inv, basis = _start_basis(A, b, start)
    pivots, duals = _run_simplex(c, A, inv, basis)

    xb = inv[:, -1].copy()      # a strided view would sum in another order
    x = np.zeros(A.shape[1])
    x[basis] = xb
    value = float(c[basis] @ xb)
    if flipped:
        duals[flip] *= -1.0
    return LPResult(x=x, value=value, basis=basis, duals=duals, pivots=pivots)
