"""Closed-form solvers for rectangular (non-symmetric) constraint patterns.

Every solver returns entries that are products of per-row and per-column
factors (uniformity wherever the data imposes no distinction), with equality
marginals reproduced exactly and bound marginals saturated for exactly the
informative constraints.
"""

from __future__ import annotations

import math

import numpy as np

from .constraints import REL_TOL, SolverCase, close
from .errors import InfeasibleMarginals, NegativeValue
from .solution import Solution
from .waterfill import BoundedVectorProblem, find_k_vector, waterfill_bounded_sum

__all__ = [
    "solve_gravity_partial_cols",
    "solve_row_bounds",
    "solve_total_row_bounds",
    "solve_bounded_total_row_bounds",
    "solve_row_col_bounds",
    "solve_row_bounds_elem_bounds",
]


def _check_nonneg(name: str, values: np.ndarray) -> None:
    if np.any(values < 0):
        raise NegativeValue(f"{name} must be nonnegative, got {values}")


def solve_gravity_partial_cols(u, v, m: int) -> Solution:
    """All row sums known, plus the sums of the first len(v) columns.

    The constrained left part takes the gravity form u_i * v_j / s with
    s = sum(u); the remaining columns split the leftover mass of each row
    evenly and are therefore identical.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    _check_nonneg("row sums", u)
    _check_nonneg("column sums", v)
    n, ell = u.size, v.size
    if ell > m:
        raise InfeasibleMarginals(f"{ell} column sums given for {m} columns")
    s = float(u.sum())
    v_total = float(v.sum())
    if v_total > s * (1 + REL_TOL):
        raise InfeasibleMarginals(
            f"column sums total {v_total} exceeds row-sum total {s}"
        )
    if ell == m and not close(v_total, s):
        raise InfeasibleMarginals(
            f"all columns constrained but totals differ: {v_total} vs {s}"
        )

    X = np.empty((n, m))
    if s == 0.0:
        X[:] = 0.0
        return Solution(X, SolverCase.GRAVITY_PARTIAL_COLS, total=0.0)

    if ell > 0:
        X[:, :ell] = np.outer(u, v) / s
    if ell == 0:
        # no column information at all: each row splits exactly evenly
        X[:] = (u / m)[:, None]
    elif ell < m:
        leftover = max(0.0, s - v_total)  # guard the tolerated near-equality
        X[:, ell:] = (leftover / (m - ell)) * (u / s)[:, None]

    # Product-form factors in the gauge x_ij = row_i * col_j, with the
    # factor of an unconstrained column fixed to 1.
    if ell < m:
        lam_total = (s - v_total) / (m - ell)
        row_f = lam_total * u / s
        col_f = np.ones(m)
        if lam_total > 0:
            col_f[:ell] = (m - ell) * v / (s - v_total)
    else:
        row_f = u / math.sqrt(s)
        col_f = v / math.sqrt(s)
    return Solution(
        X,
        SolverCase.GRAVITY_PARTIAL_COLS,
        total=s,
        row_multipliers=row_f,
        col_multipliers=col_f,
    )


def solve_row_bounds(u, m: int) -> Solution:
    """Only upper bounds on the row sums are known.

    Any matrix under its row bounds becomes more likely when an entry grows,
    so every row saturates; with nothing to distinguish the columns, row i is
    constant at u_i / m.
    """
    u = np.asarray(u, dtype=float)
    _check_nonneg("row bounds", u)
    if not np.all(np.isfinite(u)):
        raise InfeasibleMarginals("every row needs a finite bound")
    s = float(u.sum())
    X = np.tile((u / m)[:, None], (1, m))
    row_f = u / (m * s) if s > 0 else np.zeros(u.size)
    return Solution(
        X, SolverCase.ROW_BOUNDS, total=s, k=u.size, row_multipliers=row_f
    )


def solve_total_row_bounds(s: float, u, m: int) -> Solution:
    """Known total sum plus upper bounds on the row sums.

    The row-sum vector is the water-filling split of s over the bounds; each
    row then spreads its sum evenly over the m columns.  Only the k tightest
    bounds shape the answer.
    """
    u = np.asarray(u, dtype=float)
    _check_nonneg("row bounds", u)
    if not s >= 0:
        raise NegativeValue(f"total {s} < 0")
    total = float(u.sum())
    if s > total and not s <= total * (1 + REL_TOL):
        raise InfeasibleMarginals(f"total {s} exceeds the sum of row bounds {total}")

    wf = waterfill_bounded_sum(BoundedVectorProblem(min(s, total), tuple(u)))
    X = np.tile((wf.x / m)[:, None], (1, m))

    n = u.size
    k = wf.k
    row_f = np.ones(n)
    if 0 < k < n:
        saturated = np.array(wf.permutation[:k])
        leftover = s - float(u[saturated].sum())
        if leftover > 0:
            row_f[saturated] = (n - k) * u[saturated] / leftover
        # leftover == 0 only when the free rows are all zero; the saturated
        # bounds are then degenerate and their factors stay at 1.
    return Solution(
        X,
        SolverCase.TOTAL_ROW_BOUNDS,
        total=float(X.sum()),
        k=k,
        row_multipliers=row_f,
        permutation=wf.permutation,
    )


def solve_bounded_total_row_bounds(ubar: float, u, m: int) -> Solution:
    """Upper bounds on both the total and the row sums.

    Likelihood grows with the total, so the matrix realizes the largest total
    the constraints allow: the row-bounds solution when ubar is immaterial,
    otherwise the known-total solution at s = ubar.
    """
    u = np.asarray(u, dtype=float)
    if ubar >= float(u.sum()):
        sol = solve_row_bounds(u, m)
    else:
        sol = solve_total_row_bounds(ubar, u, m)
    return Solution(
        sol.matrix,
        SolverCase.BOUNDED_TOTAL_ROW_BOUNDS,
        total=sol.total,
        k=sol.k,
        row_multipliers=sol.row_multipliers,
        permutation=sol.permutation,
    )


def solve_row_col_bounds(u, v) -> Solution:
    """Upper bounds on every row sum and every column sum.

    The side with the smaller total saturates completely; on the other side
    the k tightest bounds bind (k from water-filling that total over them)
    and the rest share the leftover evenly.  Bounds of +inf mean "no bound" and are never informative.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    _check_nonneg("row bounds", u)
    _check_nonneg("column bounds", v)
    u_total, v_total = float(u.sum()), float(v.sum())
    if not (math.isfinite(u_total) or math.isfinite(v_total)):
        raise InfeasibleMarginals("at least one side must be fully bounded")

    if close(u_total, v_total):
        # Both sides can saturate simultaneously; the answer is the gravity
        # matrix over the full set of columns.
        sol = solve_gravity_partial_cols(u, v, v.size)
        return Solution(
            sol.matrix,
            SolverCase.ROW_COL_BOUNDS,
            total=sol.total,
            k=v.size,
            row_multipliers=u / u_total if u_total > 0 else np.zeros(u.size),
            col_multipliers=np.ones(v.size),
        )
    if u_total > v_total:
        t = solve_row_col_bounds(v, u)
        return Solution(
            t.matrix.T,
            SolverCase.ROW_COL_BOUNDS,
            total=t.total,
            k=t.k,
            row_multipliers=t.col_multipliers,
            col_multipliers=t.row_multipliers,
            permutation=t.permutation,
        )

    if not np.all(np.isfinite(u)):
        raise InfeasibleMarginals("the saturating side must have finite bounds")
    n, m = u.size, v.size
    order = np.argsort(v, kind="stable")
    vs = v[order]

    k = find_k_vector(u_total, vs)
    leftover = max(0.0, u_total - float(vs[:k].sum()))

    Xs = np.empty((n, m))
    if u_total == 0.0:
        Xs[:] = 0.0
    else:
        if k > 0:
            Xs[:, :k] = np.outer(u, vs[:k]) / u_total
        Xs[:, k:] = (leftover / (m - k)) * (u / u_total)[:, None]
    X = np.empty((n, m))
    X[:, order] = Xs

    lam_total = leftover / ((m - k) * u_total) if u_total > 0 else 0.0
    row_f = lam_total * u / u_total if u_total > 0 else np.zeros(n)
    col_s = np.ones(m)
    if k > 0 and lam_total > 0:
        col_s[:k] = vs[:k] / (u_total * lam_total)
    col_f = np.empty(m)
    col_f[order] = col_s
    return Solution(
        X,
        SolverCase.ROW_COL_BOUNDS,
        total=u_total,
        k=k,
        row_multipliers=row_f,
        col_multipliers=col_f,
        permutation=tuple(int(i) for i in order),
    )


def solve_row_bounds_elem_bounds(u, W) -> Solution:
    """Upper bounds on row sums and on individual elements.

    The constraints separate by row, so each row is the bounded-sum
    water-filling of its own element caps; a row whose caps total below its
    bound simply equals the caps.
    """
    u = np.asarray(u, dtype=float)
    W = np.asarray(W, dtype=float)
    _check_nonneg("element bounds", W)
    n, m = W.shape
    if u.size != n:
        raise InfeasibleMarginals(f"{u.size} row bounds for {n} rows")
    X = np.empty((n, m))
    for i in range(n):
        if not math.isfinite(u[i]) and not math.isfinite(float(W[i].sum())):
            raise InfeasibleMarginals(f"row {i} is unbounded in every direction")
        X[i] = waterfill_bounded_sum(BoundedVectorProblem(u[i], tuple(W[i]))).x
    return Solution(X, SolverCase.ROW_BOUNDS_ELEM_BOUNDS, total=float(X.sum()))
