"""Closed-form solvers for rectangular (non-symmetric) constraint patterns.

The bound cases are one construction: water-fill one side's bounds at a
target total, then assemble the gravity matrix over the resulting row and
column marginals (:func:`_gravity`).  Row bounds are water-filled at +inf
(a bounded total too, when ubar is at least their sum), at a known total s
or at ubar; with bounds on both sides, the side with the larger total is
water-filled at the smaller, which saturates.  Every side of bounds reports
its factors in one gauge (:func:`_gauge`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace

import numpy as np

from .constraints import REL_TOL, SolverCase, close
from .errors import InfeasibleMarginals, InvariantViolation, NegativeValue
from .solution import Solution
from .waterfill import waterfill_bounded_sum, waterfill_rows

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


def _gravity(u: np.ndarray, v: np.ndarray | None, given: np.ndarray) -> np.ndarray:
    """Gravity matrix u_i v_j / s over marginals of one total s = sum(u).

    A given column's cells are (u_i v_j) / s; the other columns share one
    level v_j and take (u_i / s) v_j; with no column given (``v`` unused)
    each row splits evenly, u_i / m.  The matrix is written in whole-matrix
    passes, and each cell's last write is its expression.
    """
    n, m = u.size, given.size
    s = _total(u)
    X = np.empty((n, m))
    ell = int(np.count_nonzero(given))
    if s == 0.0 or ell == 0:
        X[:] = 0.0 if s == 0.0 else (u / m)[:, None]
        return X
    v_given = v[given]
    # Near the top of the float range u_i * v_j overflows, and near the
    # bottom it underflows, although the entry does neither.  Then solve at
    # the power of two that brings every product into range, which keeps the
    # bits a solve in range gives; if none does, divide the larger factor
    # first, which keeps a symmetric matrix symmetric.
    u_low, v_low = (float(np.min(a, where=a > 0, initial=math.inf)) for a in (u, v_given))
    u_top, v_top = float(u.max()), float(v_given.max())
    top, low = (math.frexp(a)[1] + math.frexp(b)[1] for a, b in ((u_top, v_top), (u_low, v_low)))
    e = (top + low) // 4
    if math.isfinite(u_top * v_top) and not u_low * v_low < sys.float_info.min:
        np.multiply.outer(u, np.where(given, v, 0.0), out=X)
        X /= s
    elif top - 2 * e <= 1023 and low - 2 * e >= -1019:
        return np.ldexp(_gravity(np.ldexp(u, -e), np.ldexp(v, -e), given), e)
    else:
        cols = slice(None) if ell == m else given
        X[:, cols] = np.maximum.outer(u, v_given) / s * np.minimum.outer(u, v_given)
    if ell < m:
        level = v[np.argmin(given)]  # the first column not given
        if not np.all(v[~given] == level):
            raise InvariantViolation("the columns not given must share one level")
        np.copyto(X, ((u / s) * level)[:, None], where=~given)
    return X


def _total(x: np.ndarray) -> float:
    """``float(x.sum())``; past the float range inf, without a warning."""
    with np.errstate(over="ignore"):
        return float(x.sum())


def _gauge(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Factors of the bounds ``b`` of one side: each achieved sum ``x_i`` over
    the largest on the side.  So a slack bound gets 1, a saturated one
    bound / level, a zero bound 0, and a side that saturates throughout
    b_i / max b.  When nothing is achieved every positive bound is slack."""
    top = float(x.max())
    return x / top if top > 0 else np.where(b > 0, 1.0, 0.0)


def solve_gravity_partial_cols(u, v, m: int) -> Solution:
    """All row sums known, plus the sums of the first len(v) columns.

    A column sum of +inf, like a column past len(v), is not known.  The
    known columns take the gravity form u_i * v_j / s with s = sum(u); the
    other columns split the leftover mass of each row evenly and are
    therefore identical.  Past the float range it solves at a power of two.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    _check_nonneg("row sums", u)
    _check_nonneg("column sums", v)
    if v.size > m:
        raise InfeasibleMarginals(f"{v.size} column sums given for {m} columns")
    v = np.concatenate((v, np.full(m - v.size, math.inf)))
    given = np.isfinite(v)
    ell = int(np.count_nonzero(given))
    s = _total(u)
    v_total = _total(v[given])
    if v_total > s * (1 + REL_TOL):
        raise InfeasibleMarginals(f"column sums total {v_total} exceeds row-sum total {s}")
    if ell == m and not close(v_total, s):
        raise InfeasibleMarginals(f"all columns constrained but totals differ: {v_total} vs {s}")
    if s == 0.0:
        return Solution(np.zeros((u.size, m)), SolverCase.GRAVITY_PARTIAL_COLS, total=0.0)
    if math.isinf(2.0 * m * s):  # so is (m - ell) v_j below
        unit = 2.0 ** (4 * m * u.size).bit_length()
        sol = solve_gravity_partial_cols(u / unit, v / unit, m)
        return replace(sol, matrix=sol.matrix * unit, total=s,
                       row_multipliers=sol.row_multipliers * unit)
    if ell == m:
        row_f, col_f = u / math.sqrt(s), v / math.sqrt(s)
    else:
        # Product-form factors in the gauge x_ij = row_i * col_j, with the
        # factor of an unconstrained column fixed to 1.
        lam_total = (s - v_total) / (m - ell)
        if math.isfinite(lam_total * float(u.max())):
            row_f = lam_total * u / s
        else:
            row_f = lam_total * (u / s)
        col_f = np.ones(m)
        if lam_total > 0:
            col_f[given] = (m - ell) * v[given] / (s - v_total)
        # the tolerated near-equality leaves no negative leftover
        v = np.where(given, v, max(0.0, s - v_total) / (m - ell))
    return Solution(
        _gravity(u, v, given),
        SolverCase.GRAVITY_PARTIAL_COLS,
        total=s,
        row_multipliers=row_f,
        col_multipliers=col_f,
    )


def _total_target(s: float, u: np.ndarray, name: str) -> float:
    """The water-fill target min(s, sum u) of a known total s over bounds u."""
    _check_nonneg(name, u)
    if not s >= 0:
        raise NegativeValue(f"total {s} < 0")
    total = _total(u)
    if s > total and not s <= total * (1 + REL_TOL):
        raise InfeasibleMarginals(f"total {s} exceeds the sum of {name} {total}")
    return min(s, total)


def _rows_water_filled(case: SolverCase, a: float, u: np.ndarray, m: int) -> Solution:
    """Rows water-filled over bounds u at total ``a``, each spread evenly
    over m columns; the total is sum(u) at a = +inf, else the matrix sum."""
    rows = waterfill_bounded_sum(a, u)
    X = _gravity(rows.x, None, np.zeros(m, dtype=bool))
    return Solution(
        X,
        case,
        total=_total(X) if math.isfinite(a) else _total(u),
        k=rows.k,
        row_multipliers=_gauge(rows.x, u),
        permutation=rows.permutation,
    )


def solve_row_bounds(u, m: int) -> Solution:
    """Only upper bounds on the row sums are known.

    Any matrix under its row bounds becomes more likely when an entry grows,
    so every row saturates (the water-fill at total +inf); with nothing to
    distinguish the columns, row i is constant at u_i / m.
    """
    u = np.asarray(u, dtype=float)
    _check_nonneg("row bounds", u)
    if not np.all(np.isfinite(u)):
        raise InfeasibleMarginals("every row needs a finite bound")
    return _rows_water_filled(SolverCase.ROW_BOUNDS, math.inf, u, m)


def solve_total_row_bounds(s: float, u, m: int) -> Solution:
    """Known total sum plus upper bounds on the row sums.

    The row-sum vector is the water-filling split of s over the bounds; each
    row then spreads its sum evenly over the m columns.  Only the k tightest
    bounds shape the answer.
    """
    u = np.asarray(u, dtype=float)
    a = _total_target(s, u, "row bounds")
    return _rows_water_filled(SolverCase.TOTAL_ROW_BOUNDS, a, u, m)


def solve_bounded_total_row_bounds(ubar: float, u, m: int) -> Solution:
    """Upper bounds on both the total and the row sums.

    Likelihood grows with the total, so the matrix realizes the largest total
    the constraints allow: the row-bounds solution when ubar is immaterial,
    otherwise the known-total solution at s = ubar.
    """
    u = np.asarray(u, dtype=float)
    immaterial = ubar >= _total(u)
    sol = solve_row_bounds(u, m) if immaterial else solve_total_row_bounds(ubar, u, m)
    return replace(sol, case=SolverCase.BOUNDED_TOTAL_ROW_BOUNDS)


def solve_row_col_bounds(u, v) -> Solution:
    """Upper bounds on every row sum and every column sum.

    The side with the smaller total saturates completely; the other side is
    water-filled at that total, so its k tightest bounds bind and the rest
    share the leftover evenly.  When the totals are equal both sides
    saturate and k is the longer side's bound count, max(n, m), so a spec
    and its transpose report the same k.  Bounds of +inf mean "no bound"
    and are never informative.  When no side's total is in the float
    range, it solves at a power of two.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    _check_nonneg("row bounds", u)
    _check_nonneg("column bounds", v)
    if not (np.all(np.isfinite(u)) or np.all(np.isfinite(v))):
        raise InfeasibleMarginals("at least one side must be fully bounded")
    u_total, v_total = _total(u), _total(v)
    if not (math.isfinite(u_total) or math.isfinite(v_total)):
        # Homogeneous of degree 1, and the division exact: the true
        # solution is the divided one times the power.
        unit = 2.0 ** max(u.size, v.size).bit_length()
        sol = solve_row_col_bounds(u / unit, v / unit)
        return replace(sol, matrix=sol.matrix * unit, total=sol.total * unit)
    # Tied to REL_TOL relative at every scale, with no absolute floor, so
    # that totals near 1e-300 tie only when they are near each other; +inf
    # ties +inf alone.
    top = max(u_total, v_total)
    tie = u_total == v_total or (math.isfinite(top) and abs(u_total - v_total) <= REL_TOL * top)
    if u_total > v_total and not tie:
        return solve_row_col_bounds(v, u).transposed()
    if not np.all(np.isfinite(u)):
        raise InfeasibleMarginals("the saturating side must have finite bounds")

    # At equal totals the columns saturate as well: water-fill them at +inf.
    cols = waterfill_bounded_sum(math.inf if tie else u_total, v)
    saturated = np.zeros(v.size, dtype=bool)
    saturated[list(cols.permutation[: cols.k])] = True
    return Solution(
        _gravity(u, cols.x, saturated),
        SolverCase.ROW_COL_BOUNDS,
        total=u_total,
        k=max(u.size, v.size) if tie else cols.k,
        row_multipliers=_gauge(u, u),
        col_multipliers=_gauge(cols.x, v),
        permutation=cols.permutation,
    )


def solve_row_bounds_elem_bounds(u, caps, m: int) -> Solution:
    """Upper bounds on row sums and on individual elements of m columns.

    ``u`` holds the row bounds (+inf for none) and ``caps`` arrays of rows,
    columns and caps, each cell in range and named at most once.  The
    constraints separate by row, so each row is the bounded-sum
    water-filling of its own element caps, all rows in one batched pass; a
    row whose caps total below its bound simply equals the caps.
    """
    u = np.asarray(u, dtype=float)
    i, j, ub = (np.asarray(v, dtype=t) for v, t in zip(caps, (np.intp, np.intp, float)))
    if not np.all(ub >= 0):
        raise NegativeValue(f"element bounds must be nonnegative, got {ub}")
    # The first row without a finite, nonnegative bound or a finite cap on every cell is named.
    unbounded = ~np.isfinite(u) & (np.bincount(i[np.isfinite(ub)], minlength=u.size) < m)
    bad = np.flatnonzero(unbounded | ~(u >= 0))
    if bad.size and unbounded[bad[0]]:
        raise InfeasibleMarginals(f"row {bad[0]} is unbounded in every direction")
    if bad.size:
        raise NegativeValue(f"target sum {u[bad[0]]} < 0")
    X = waterfill_rows(u, (i, j, ub), m)[0]
    return Solution(X, SolverCase.ROW_BOUNDS_ELEM_BOUNDS, total=_total(X))
