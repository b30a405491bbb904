"""Solvers for square matrices with symmetric information.

Covers a known total with bounds on the (shared) row/column sums, given
row/column sums with some or all diagonal entries fixed, the 3-dimensional
analogue with a zero diagonal, and fixed diagonal blocks.  The fixed-entry
cases reduce to a single scalar equation: with ratios r_i of unfixed mass to
the total, the factor sum lam must satisfy

    sqrt(1 - 4 r_1 / lam^2) + .. + sqrt(1 - 4 r_m / lam^2)
        - 2 (r_{m+1} + .. + r_n) / lam^2  =  m - 2.

The left side increases in lam, so the root is unique; when every ratio is
below a third of their sum the root is bracketed by
(2 sqrt(r_max), 4 sqrt(sigma) / 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import REL_TOL, FixedBlock, SolverCase, close, require_block_consistency
from .errors import (
    BracketFailure,
    InfeasibleMarginals,
    InvariantViolation,
    NegativeValue,
    SeriesDomainError,
)
from .solution import Solution, TensorSolution
from .waterfill import BoundedVectorProblem, waterfill_bounded_sum

__all__ = [
    "RootProblem",
    "SeriesState",
    "solve_root_lambda",
    "branch_factors",
    "series_approx_xi",
    "solve_sym_total_row_col_bounds",
    "solve_sym_fixed_diagonal",
    "solve_sym_3d_fixed_diagonal",
    "solve_sym_block_diagonal",
]

SCAN_LIMIT = 64.0


@dataclass(frozen=True)
class RootProblem:
    """Data of the scalar saturation equation.

    ``r`` holds every mass ratio; the first ``m`` (fixed rows or diagonal
    blocks) contribute square-root terms, the rest only the -2 r / lam^2
    tail.  ``sigma`` is 1 when nothing but the diagonal structure is fixed
    and drops below 1 as fixed values absorb mass.
    """

    r: tuple[float, ...]
    m: int

    def __post_init__(self):
        if not 0 <= self.m <= len(self.r):
            raise ValueError(f"m={self.m} outside 0..{len(self.r)}")
        if any(not v >= 0 for v in self.r):
            raise NegativeValue("mass ratios must be nonnegative")

    @property
    def sigma(self) -> float:
        return float(sum(self.r))

    @property
    def r_max(self) -> float:
        """Largest ratio among the square-root terms.

        The bracket's lower end is the branch point of the square roots, so
        only the first m ratios matter here; a larger ratio in the linear
        tail does not move the branch point and must not be used (the root
        can legitimately sit below twice its square root).
        """
        return max(self.r[: self.m]) if self.m > 0 else max(self.r)

    @property
    def tail(self) -> float:
        return float(sum(self.r[self.m :]))

    @property
    def bracket(self) -> tuple[float, float]:
        return 2.0 * math.sqrt(self.r_max), 4.0 * math.sqrt(self.sigma) / 3.0

    @property
    def guaranteed(self) -> bool:
        """True when the bracket is backed by the sufficient conditions."""
        sigma = self.sigma
        if sigma <= 0 or not all(0 < v < sigma / 3 for v in self.r):
            return False
        if self.m == len(self.r):
            return self.m >= 3
        # Mixed form: proved for ratios summing to one.
        return len(self.r) >= 3 and close(sigma, 1.0)

    def f(self, lam: float) -> float:
        """Left side minus right side of the saturation equation, with the
        square roots clamped at zero so the function extends continuously
        below each branch point."""
        lam2 = lam * lam
        acc = 0.0
        for v in self.r[: self.m]:
            acc += math.sqrt(max(0.0, 1.0 - 4.0 * v / lam2))
        return acc - 2.0 * self.tail / lam2 - (self.m - 2)

    def f_prime(self, lam: float) -> float:
        lam2 = lam * lam
        acc = 4.0 * self.tail / (lam2 * lam)
        for v in self.r[: self.m]:
            g = 1.0 - 4.0 * v / lam2
            if g > 0:
                acc += 4.0 * v / (lam2 * lam * math.sqrt(g))
        return acc

    def f_at_branch_point(self) -> float:
        """Value of f at lam = 2 sqrt(max fixed ratio), computed exactly.

        At that point the square-root arguments reduce to 1 - r_i / r_top,
        which avoids the sqrt-of-rounding-noise the generic evaluator would
        produce for the top ratio itself (the tied terms are exactly zero).
        """
        r_fixed = self.r[: self.m]
        r_top = max(r_fixed)
        acc = 0.0
        for v in r_fixed:
            if v != r_top:
                acc += math.sqrt(max(0.0, 1.0 - v / r_top))
        return acc - self.tail / (2.0 * r_top) - (self.m - 2)


def solve_root_lambda(p: RootProblem, tol: float = 1e-12) -> float:
    """Unique root of the saturation equation.

    Bisects inside the analytic bracket when its sign conditions hold,
    otherwise scans upward from the first point where every square root is
    real (the function is increasing there, so a sign change still pins the
    root).  Bisection runs to floating-point exhaustion, then one guarded
    Newton step polishes the result.  A root sitting exactly on the branch
    point of the largest ratio is detected and returned as such.
    """
    lo, hi = p.bracket
    branch = _fixed_branch_point(p)
    flo = p.f_at_branch_point() if branch is not None and lo == branch else p.f(lo)
    fhi = p.f(hi)
    if p.guaranteed and not flo <= 0.0:
        raise BracketFailure(f"bracket lower end violates sign condition: f({lo})={flo}")
    if p.guaranteed and not fhi > 0.0:
        raise BracketFailure(f"bracket upper end violates sign condition: f({hi})={fhi}")
    if flo == 0.0:
        return lo
    if not (flo < 0.0 < fhi):
        lo, hi = _scan_for_sign_change(p)
        if lo == hi:
            return lo

    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if p.f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid

    lam = lo
    fv = p.f(lam)
    if fv != 0.0 and abs(fv) > tol:
        d = p.f_prime(lam)
        if d > 0 and math.isfinite(d):
            cand = lam - fv / d
            if 0.0 < cand <= SCAN_LIMIT and abs(p.f(cand)) < abs(fv):
                lam = cand
    return lam


def _fixed_branch_point(p: RootProblem) -> float | None:
    r_fixed = p.r[: p.m]
    if not r_fixed or max(r_fixed) <= 0:
        return None
    return 2.0 * math.sqrt(max(r_fixed))


def _scan_for_sign_change(p: RootProblem) -> tuple[float, float]:
    """Search [first real point, SCAN_LIMIT] for a bracketing interval.

    Returns a degenerate interval when the root sits on the branch point.
    """
    branch = _fixed_branch_point(p)
    if branch is not None:
        base = branch
        fb = p.f_at_branch_point()
        if fb == 0.0:
            return base, base
        if fb > 0.0:
            raise BracketFailure(
                "the saturation equation has no root: the function is already "
                f"positive at its branch point {base}"
            )
    else:
        base = 1e-9
        if p.f(base) > 0.0:
            raise BracketFailure("the saturation equation has no root")
    lo = base
    lam = base
    while lam < SCAN_LIMIT:
        lam = max(lam * 1.05, lam + 1e-9)
        if p.f(lam) > 0.0:
            return lo, lam
        lo = lam
    raise BracketFailure(f"no sign change found in ({base}, {SCAN_LIMIT})")


def branch_factors(p: RootProblem, lam: float) -> np.ndarray:
    """Square-root factors q_i = sqrt(1 - 4 r_i / lam^2) for the fixed part.

    The factor of the largest ratio (ties included) is recovered from the
    equation itself rather than from the square root: near a branch-point
    root the direct form loses half the significant digits, while the
    residual form keeps the defining identity exact, which in turn makes the
    assembled matrix reproduce its marginals to machine precision.
    """
    m = p.m
    lam2 = lam * lam
    q = np.empty(m)
    for i in range(m):
        q[i] = math.sqrt(max(0.0, 1.0 - 4.0 * p.r[i] / lam2))
    r_fixed = p.r[:m]
    r_top = max(r_fixed, default=0.0)
    if r_top > 0:
        ties = [i for i in range(m) if r_fixed[i] == r_top]
        others = sum(q[i] for i in range(m) if r_fixed[i] != r_top)
        residual = (m - 2) + 2.0 * p.tail / lam2 - others
        q[ties] = min(1.0, max(0.0, residual / len(ties)))
    return q


@dataclass(frozen=True)
class SeriesState:
    """Power-series approximation of the root in the xi = 4 / lam^2 variable.

    ``terms`` holds the order-0, order-1, and order-2 contributions; the
    approximation of a given order is their prefix sum.  ``delta`` is the
    residual of the expansion point and stays below 1 on the admissible
    interval.
    """

    xi0: float
    rho: tuple[float, ...]
    delta: float
    terms: tuple[float, float, float]
    order: int

    @property
    def value(self) -> float:
        return float(sum(self.terms[: self.order + 1]))

    def value_at(self, order: int) -> float:
        return float(sum(self.terms[: order + 1]))


def series_approx_xi(p: RootProblem, xi0: float, order: int = 2) -> SeriesState:
    """Reversion series for the root of f(xi) = m - 2 around xi0.

    With rho_i = sqrt(1 - r_i xi0) and delta the residual f(xi0) - (m - 2),
    the root expands as

        xi = xi0 + 2 delta / sum(r_i / rho_i)
                 - delta^2 * sum(r_i^2 / rho_i^3) / sum(r_i / rho_i)^3 - ..

    (tail ratios shift the derivatives but the structure is identical).
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1, or 2, got {order}")
    r_fixed = p.r[: p.m]
    args = [1.0 - v * xi0 for v in r_fixed]
    if any(a <= 0.0 for a in args):
        raise SeriesDomainError(
            f"expansion point {xi0} is at or beyond a branch point 1/r_max"
        )
    rho = tuple(math.sqrt(a) for a in args)
    tail = p.tail
    delta = sum(rho) - (tail / 2.0) * xi0 - (p.m - 2)
    d1 = -sum(v / (2.0 * q) for v, q in zip(r_fixed, rho)) - tail / 2.0
    d2 = -sum(v * v / (4.0 * q**3) for v, q in zip(r_fixed, rho))
    t1 = -delta / d1
    t2 = -d2 / (2.0 * d1**3) * delta * delta
    return SeriesState(
        xi0=xi0, rho=rho, delta=delta, terms=(xi0, t1, t2), order=order
    )


def _sorted_ascending(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(u, kind="stable")
    return order, u[order]


def solve_sym_total_row_col_bounds(s: float, u) -> Solution:
    """Known total with the same bound on each row sum and column sum.

    The informative count k is the same as in the row-only case; the first k
    rows and columns (by bound size) saturate, giving a gravity block, two
    transposed gravity strips, and a constant remainder.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise NegativeValue("bounds must be nonnegative")
    if not s >= 0:
        raise NegativeValue(f"total {s} < 0")
    total = float(u.sum())
    if s > total and not s <= total * (1 + REL_TOL):
        raise InfeasibleMarginals(f"total {s} exceeds the sum of bounds {total}")
    n = u.size
    s = min(s, total)
    wf = waterfill_bounded_sum(BoundedVectorProblem(s, tuple(u)))
    k = wf.k
    order, us = _sorted_ascending(u)

    Xs = np.empty((n, n))
    if s == 0.0:
        Xs[:] = 0.0
    elif k == n:
        Xs = np.outer(us, us) / s
    else:
        leftover = s - float(us[:k].sum())
        Xs[:k, :k] = np.outer(us[:k], us[:k]) / s
        Xs[:k, k:] = (leftover * us[:k] / ((n - k) * s))[:, None]
        Xs[k:, :k] = Xs[:k, k:].T
        Xs[k:, k:] = leftover**2 / ((n - k) ** 2 * s)

    X = np.empty((n, n))
    X[np.ix_(order, order)] = Xs

    mult = np.ones(n)
    if 0 < k < n:
        leftover = s - float(us[:k].sum())
        if leftover > 0:
            mult[order[:k]] = (n - k) * u[order[:k]] / leftover
    return Solution(
        X,
        SolverCase.SYM_TOTAL_ROW_COL_BOUNDS,
        total=float(X.sum()),
        k=k,
        row_multipliers=mult,
        col_multipliers=mult.copy(),
    )


def _root_factors(
    r: np.ndarray, groups, tol: float
) -> tuple[RootProblem, float, np.ndarray]:
    """Saturation-equation root and per-node factors over fixed groups.

    ``r[i]`` is node i's unfixed mass over the total.  Each group (the node
    indices of a fixed diagonal entry or a fixed block) contributes one
    square-root term over its summed ratio r_g; the nodes in no group form
    the linear tail, in index order.  A group's factor is the small root of
    f * (lam - f) = r_g in its subtraction-free form 2 r_g / (lam (1 + q_g)):
    the companion lam - f then equals lam (1 + q_g) / 2 exactly, so each row
    sum reproduces s r at full relative precision whatever the size of q_g.
    A singleton's node takes the group factor itself, a node of a larger
    group its share r_i / r_g of it, and a tail node r_i / lam.
    """
    grouped = np.zeros(r.size, dtype=bool)
    grouped[[i for g in groups for i in g]] = True
    tail = np.flatnonzero(~grouped)
    rl = r.tolist()
    r_group = [rl[g[0]] if len(g) == 1 else sum(rl[i] for i in g) for g in groups]
    problem = RootProblem(r=tuple(r_group) + tuple(r[tail].tolist()), m=len(r_group))
    lam = solve_root_lambda(problem, tol)
    q = branch_factors(problem, lam)
    f_group = 2.0 * np.array(r_group) / (lam * (1.0 + q))

    factors = np.zeros(r.size)
    factors[tail] = r[tail] / lam
    for g, rg, fg in zip(groups, r_group, f_group.tolist()):
        if len(g) == 1:
            factors[g[0]] = fg
        elif rg > 0:
            factors[list(g)] = r[list(g)] * fg / rg
    return problem, lam, factors


def solve_sym_fixed_diagonal(
    u, s: float, m_fixed: int, w_diag, bounds_mode: bool = False, tol: float = 1e-12
) -> Solution:
    """Equal row and column sums with the first m diagonal entries fixed.

    The singleton-block case of :func:`solve_sym_block_diagonal`: the
    unfixed entries take the form s * lam_i * lam_j, with the factor of a
    fixed-diagonal row obtained from the saturation-equation root and the
    factor of a free row equal to its ratio over the root.  With
    ``bounds_mode`` the sums are upper bounds; the same matrix applies and
    every factor is checked to lie in (0, 1].
    """
    w_diag = [float(w) for w in np.ravel(w_diag)]
    n = np.size(u)
    if not 0 < m_fixed <= n:
        raise InfeasibleMarginals(f"fixed prefix {m_fixed} outside 1..{n}")
    if len(w_diag) != m_fixed:
        raise InfeasibleMarginals(
            f"{len(w_diag)} diagonal values for a fixed prefix of {m_fixed}"
        )
    blocks = [FixedBlock((i,), ((w,),)) for i, w in enumerate(w_diag)]
    return solve_sym_block_diagonal(u, blocks, s, bounds_mode=bounds_mode, tol=tol)


def solve_sym_3d_fixed_diagonal(u, s: float, tol: float = 1e-12) -> TensorSolution:
    """Zero-diagonal 3-D array from symmetric per-slice section sums.

    ``u[i, k]`` is the sum of slice k's row i (equal to its column i).  The
    slices decouple: each gets its own root xi_k of the saturation equation
    over the ratios u[:, k] / s, and

        x[i, j, k] = (s / xi_k) (1 - sqrt(1 - r_ik xi_k)) (1 - sqrt(1 - r_jk xi_k))

    off the diagonal, zero on it.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise InfeasibleMarginals(f"section sums must be 2-D (n x K), got {u.shape}")
    if np.any(u < 0):
        raise NegativeValue("section sums must be nonnegative")
    n, K = u.shape
    if not close(s, float(u.sum())):
        raise InfeasibleMarginals(f"total {s} disagrees with the section total {u.sum()}")

    zero_diagonal = [FixedBlock((i,), ((0.0,),)) for i in range(n)]
    groups = [(i,) for i in range(n)]
    values = np.zeros((n, n, K))
    lams: list[float] = []
    xis: list[float] = []
    notes: list[str] = []
    for k in range(K):
        slice_total = float(u[:, k].sum())
        if slice_total == 0.0:
            lams.append(math.nan)
            xis.append(math.nan)
            continue
        require_block_consistency(u[:, k], zero_diagonal, slice_total)
        problem, lam, factors = _root_factors(u[:, k] / s, groups, tol)
        sheet = s * np.outer(factors, factors)
        np.fill_diagonal(sheet, 0.0)
        values[:, :, k] = sheet
        lams.append(lam)
        xis.append(4.0 / (lam * lam))
        if not problem.guaranteed:
            notes.append(f"slice {k}: outside guaranteed bracket regime")
    return TensorSolution(
        values,
        SolverCase.SYM_3D_FIXED_DIAGONAL,
        total=float(values.sum()),
        lam=tuple(lams),
        xi=tuple(xis),
        notes=tuple(notes),
    )


def solve_sym_block_diagonal(
    u, blocks, s: float, bounds_mode: bool = False, tol: float = 1e-12
) -> Solution:
    """Equal row and column sums with disjoint diagonal blocks fixed.

    Within a block the entries equal the given values; every other entry
    takes the form s * lam_i * lam_j, where a block node's factor is its
    unfixed-mass ratio scaled by the block factor and a node outside every
    block forms the linear tail.  When every block is a single diagonal
    entry this is the fixed-diagonal case.  With ``bounds_mode`` the sums
    are upper bounds; the same matrix applies and every factor is checked
    to lie in (0, 1].
    """
    u = np.asarray(u, dtype=float)
    n = u.size
    blocks = tuple(blocks)
    if np.any(u < 0):
        raise NegativeValue("sums must be nonnegative")
    covered = [i for b in blocks for i in b.index_set]
    if not covered or len(set(covered)) != len(covered) or not set(covered) <= set(range(n)):
        raise InfeasibleMarginals("fixed blocks must be one or more disjoint sets of nodes")
    if not close(s, float(u.sum())):
        raise InfeasibleMarginals(f"total {s} disagrees with the sum total {u.sum()}")
    for b in blocks:
        if any(
            not close(rs, cs)
            for rs, cs in zip(b.row_sums(), b.col_sums())
        ):
            raise InfeasibleMarginals(
                f"block {b.index_set}: fixed row and column sums differ, so the "
                "shared row/column totals cannot both hold"
            )
    require_block_consistency(u, blocks, s)

    w_rows = [w for b in blocks for w in b.row_sums()]
    for i, w in zip(covered, w_rows):
        if w > u[i] * (1 + REL_TOL):
            raise InfeasibleMarginals(f"node {i}: fixed values in its block exceed its sum")
    r = u / s
    r[covered] = (u[covered] - w_rows) / s
    problem, lam, factors = _root_factors(
        np.maximum(0.0, r), [b.index_set for b in blocks], tol
    )
    if bounds_mode and not np.all(factors <= 1.0 + 1e-9):
        raise InvariantViolation("bound-mode factors must stay in (0, 1]")

    X = s * np.outer(factors, factors)
    X[
        [i for b in blocks for i in b.index_set for _ in b.index_set],
        [j for b in blocks for _ in b.index_set for j in b.index_set],
    ] = [w for b in blocks for row in b.matrix for w in row]
    singletons = all(len(b.index_set) == 1 for b in blocks)
    return Solution(
        X,
        SolverCase.SYM_FIXED_DIAGONAL if singletons else SolverCase.SYM_BLOCK_DIAGONAL,
        total=float(X.sum()),
        row_multipliers=factors,
        col_multipliers=factors.copy(),
        lam=lam,
        xi=4.0 / (lam * lam),
        notes=() if problem.guaranteed else ("outside guaranteed bracket regime",),
        root=problem,
    )
