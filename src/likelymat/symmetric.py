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
from dataclasses import dataclass, field, replace

import numpy as np

from .constraints import (
    REL_TOL,
    ConsistencyReport,
    FixedCells,
    SolverCase,
    close,
    consistency_check_blocks,
)
from .errors import (
    BracketFailure,
    ConsistencyViolation,
    InfeasibleMarginals,
    InvariantViolation,
    NegativeValue,
    SeriesDomainError,
)
from .rect import _gauge, _gravity, _total, _total_target
from .solution import Solution, TensorSolution
from .waterfill import waterfill_bounded_sum

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
    "half_total_reports",
]

SCAN_LIMIT = 64.0
# |f| above which the bisected root takes one guarded Newton step
NEWTON_TOL = 1e-12


@dataclass(frozen=True)
class RootProblem:
    """Data of the scalar saturation equation.

    ``r`` holds every mass ratio; the first ``m`` (fixed rows or diagonal
    blocks) contribute square-root terms, the rest only the -2 r / lam^2
    tail.  ``sigma`` is 1 when nothing but the diagonal structure is fixed
    and drops below 1 as fixed values absorb mass.

    The sums over ``r`` are taken once, here; the evaluators then work on
    the fixed ratios as one array and add their square-root terms left to
    right (``np.add.accumulate``, not the pairwise ``np.sum``), so each
    value is bit for bit the one a scalar loop over the terms gives.
    """

    r: tuple[float, ...]
    m: int
    sigma: float = field(init=False, compare=False)
    tail: float = field(init=False, compare=False)
    r_max: float = field(init=False, compare=False)
    _r: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 0 <= self.m <= len(self.r):
            raise ValueError(f"m={self.m} outside 0..{len(self.r)}")
        if any(not v >= 0 for v in self.r):
            raise NegativeValue("mass ratios must be nonnegative")
        # The bracket's lower end is the branch point of the square roots, so
        # r_max looks at the first m ratios only; a larger ratio in the
        # linear tail does not move the branch point and must not be used
        # (the root can legitimately sit below twice its square root).
        r_max = max(self.r[: self.m]) if self.m > 0 else max(self.r, default=0.0)
        object.__setattr__(self, "r_max", r_max)
        object.__setattr__(self, "sigma", float(sum(self.r)))
        object.__setattr__(self, "tail", float(sum(self.r[self.m :])))
        object.__setattr__(self, "_r", np.array(self.r, dtype=float))

    @property
    def bracket(self) -> tuple[float, float]:
        return 2.0 * math.sqrt(self.r_max), 4.0 * math.sqrt(self.sigma) / 3.0

    @property
    def guaranteed(self) -> bool:
        """True when the bracket is backed by the sufficient conditions."""
        sigma = self.sigma
        if sigma <= 0 or not np.all((0 < self._r) & (self._r < sigma / 3)):
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
        roots = np.sqrt(np.maximum(0.0, 1.0 - 4.0 * self._r[: self.m] / lam2))
        return _left_sum(roots) - 2.0 * self.tail / lam2 - (self.m - 2)

    def f_prime(self, lam: float) -> float:
        lam2 = lam * lam
        r_fixed = self._r[: self.m]
        g = 1.0 - 4.0 * r_fixed / lam2
        real = g > 0
        terms = 4.0 * r_fixed[real] / (lam2 * lam * np.sqrt(g[real]))
        return _left_sum(terms, 4.0 * self.tail / (lam2 * lam))

    def f_at_branch_point(self) -> float:
        """Value of f at lam = 2 sqrt(max fixed ratio), computed exactly.

        At that point the square-root arguments reduce to 1 - r_i / r_top,
        which avoids the sqrt-of-rounding-noise the generic evaluator would
        produce for the top ratio itself (the tied terms are exactly zero).
        """
        r_fixed = self._r[: self.m]
        r_top = self.r_max
        others = r_fixed[r_fixed != r_top]
        acc = _left_sum(np.sqrt(np.maximum(0.0, 1.0 - others / r_top)))
        return acc - self.tail / (2.0 * r_top) - (self.m - 2)


def _left_sum(terms: np.ndarray, start: float = 0.0) -> float:
    """``start + terms[0] + terms[1] + ..``, added strictly left to right."""
    return float(np.add.accumulate(np.concatenate(([start], terms)))[-1])


def solve_root_lambda(p: RootProblem) -> float:
    """Unique root of the saturation equation.

    Bisects inside the analytic bracket when its sign conditions hold,
    otherwise scans upward from the first point where every square root is
    real (the function is increasing there, so a sign change still pins the
    root).  Bisection runs to floating-point exhaustion, so the root takes
    no tolerance; only when |f| there is above ``NEWTON_TOL`` does one
    guarded Newton step try to improve it.  A root sitting exactly on the
    branch point of the largest ratio is detected and returned as such.
    """
    if p.sigma == 0.0:
        raise BracketFailure("the saturation equation has no root: every ratio is zero")
    lo, hi = p.bracket
    if lo == 0.0:
        # Every square-root ratio is zero, so the tail drives f(0+) to -inf.
        flo = -math.inf
    elif p.m:
        flo = p.f_at_branch_point()  # lo is the branch point 2 sqrt(r_max)
    else:
        flo = p.f(lo)
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
    if fv != 0.0 and abs(fv) > NEWTON_TOL:
        d = p.f_prime(lam)
        if d > 0 and math.isfinite(d):
            cand = lam - fv / d
            if 0.0 < cand <= SCAN_LIMIT and abs(p.f(cand)) < abs(fv):
                lam = cand
    return lam


def _scan_for_sign_change(p: RootProblem) -> tuple[float, float]:
    """Search [first real point, SCAN_LIMIT] for a bracketing interval.

    Returns a degenerate interval when the root sits on the branch point.
    """
    if p.m and p.r_max > 0:
        base = p.bracket[0]
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
    r_fixed = p._r[:m]
    q = np.sqrt(np.maximum(0.0, 1.0 - 4.0 * r_fixed / lam2))
    r_top = p.r_max if m > 0 else 0.0
    if r_top > 0:
        ties = r_fixed == r_top
        others = _left_sum(q[~ties])
        residual = (m - 2) + 2.0 * p.tail / lam2 - others
        q[ties] = min(1.0, max(0.0, residual / int(ties.sum())))
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
    r_fixed = p._r[: p.m]
    args = 1.0 - r_fixed * xi0
    if np.any(args <= 0.0):
        raise SeriesDomainError(
            f"expansion point {xi0} is at or beyond a branch point 1/r_max"
        )
    rho = np.sqrt(args)
    tail = p.tail
    delta = _left_sum(rho) - (tail / 2.0) * xi0 - (p.m - 2)
    d1 = -_left_sum(r_fixed / (2.0 * rho)) - tail / 2.0
    # Cubes by the C library's pow, as Python's float power takes them:
    # numpy's vectorised power rounds differently in the last bit.
    cubes = np.array([q**3 for q in rho.tolist()])
    d2 = -_left_sum(r_fixed * r_fixed / (4.0 * cubes))
    t1 = -delta / d1
    t2 = -d2 / (2.0 * d1**3) * delta * delta
    return SeriesState(
        xi0=xi0, rho=tuple(rho.tolist()), delta=delta, terms=(xi0, t1, t2), order=order
    )


def solve_sym_total_row_col_bounds(s: float, u) -> Solution:
    """Known total with the same bound on each row sum and column sum.

    Rows and columns are water-filled alike at s, as in the row-only case,
    and the matrix is the gravity matrix over that marginal on both sides,
    x_i x_j / sum(x): its k tightest bounds saturate, and it is symmetric
    bit for bit.
    """
    u = np.asarray(u, dtype=float)
    wf = waterfill_bounded_sum(_total_target(s, u, "bounds"), u)
    X = _gravity(wf.x, wf.x, np.ones(u.size, dtype=bool))
    mult = _gauge(wf.x, u)
    return Solution(
        X,
        SolverCase.SYM_TOTAL_ROW_COL_BOUNDS,
        total=float(X.sum()),
        k=wf.k,
        row_multipliers=mult,
        col_multipliers=mult.copy(),
        permutation=wf.permutation,
    )


def _root_factors(
    r: np.ndarray, nodes: np.ndarray, block: np.ndarray
) -> tuple[RootProblem | None, float, np.ndarray]:
    """Saturation-equation root and per-node factors over fixed blocks.

    ``r[i]`` is node i's unfixed mass over the total; ``nodes`` and ``block``
    are the covered nodes and their blocks (:class:`FixedCells`).  Each
    block contributes one square-root term over its summed ratio r_g, added
    in ``nodes`` order; the nodes in no block form the linear tail, in index
    order.  A block's factor is the small root of f * (lam - f) = r_g in its
    subtraction-free form 2 r_g / (lam (1 + q_g)): the companion lam - f
    then equals lam (1 + q_g) / 2 exactly, so each row sum reproduces s r at
    full relative precision whatever the size of q_g.  A singleton's node
    takes the block factor itself, a node of a larger block its share
    r_i / r_g of it, and a tail node r_i / lam.  When every ratio is zero
    there is no root: the problem is None and lam is NaN.
    """
    tail = np.flatnonzero(np.bincount(nodes, minlength=r.size) == 0)
    rn = r[nodes]
    single = np.bincount(block)[block] == 1
    r_group = np.bincount(block, rn)
    r_group[block[single]] = rn[single]  # a singleton's ratio as it is (-0.0 too)
    problem = RootProblem(r=tuple(r_group.tolist()) + tuple(r[tail].tolist()), m=r_group.size)
    if problem.sigma == 0.0:
        # Nothing is left unfixed: no equation to solve, every free entry is 0.
        return None, math.nan, np.zeros(r.size)
    lam = solve_root_lambda(problem)
    q = branch_factors(problem, lam)
    f_group = 2.0 * r_group / (lam * (1.0 + q))

    factors = np.zeros(r.size)
    factors[tail] = r[tail] / lam
    fg, rg = f_group[block], r_group[block]
    share = np.divide(rn * fg, rg, out=np.zeros(rn.size), where=rg > 0)
    factors[nodes] = np.where(single, fg, share)
    return problem, lam, factors


def _in_range(u: np.ndarray, s: float, what: str) -> tuple[np.ndarray, float, float]:
    """``(u, s, 1)`` once s is checked against the ``what`` total of u; when s
    overflows, u and its total divided by a power of two, and that power.
    The solution is homogeneous of degree 1 and the division exact, so the
    divided problem solves to the true solution divided by the power."""
    total = _total(u)
    if not close(s, total):
        raise InfeasibleMarginals(f"total {s} disagrees with the {what} total {total}")
    if math.isfinite(s):
        return u, s, 1.0
    unit = 2.0 ** u.size.bit_length()
    return u / unit, _total(u / unit), unit


def _half_total(u: np.ndarray, c: FixedCells, total: float, unit: float) -> ConsistencyReport:
    """The half-total check at ``total`` of sums and cells divided by ``unit``
    (:func:`_in_range`), its values multiplied back (inf past the float
    range)."""
    report = consistency_check_blocks(u, c, total)
    if unit == 1.0:
        return report
    return ConsistencyReport(report.ok, tuple(
        (index_set, u_block * unit, limit * unit) for index_set, u_block, limit in report.violations))


def _zero_diagonal(n: int) -> FixedCells:
    at = np.arange(n)
    return FixedCells(at, at, at, at, np.zeros(n))


def half_total_reports(u, s: float, c: FixedCells) -> list:
    """The fixed-entry solvers' half-total check, without solving.

    ``u`` of shape (n,) is checked as :func:`solve_sym_block_diagonal`
    checks it, at the total ``s`` with the cells ``c`` fixed; ``u`` of shape
    (n, K) as :func:`solve_sym_3d_fixed_diagonal` does, each slice with a
    nonzero total at that total, with the zero diagonal whatever ``c``
    says.  Both run on the sums brought into the float range by
    :func:`_in_range`, and the reports' values are multiplied back.
    Returns (slice index, report) pairs, the slice index None in 2-D.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u, s, unit = _in_range(u, s, "sum")
        return [(None, _half_total(u, replace(c, values=c.values / unit), s, unit))]
    u, s, unit = _in_range(u, s, "section")
    zero_diagonal = _zero_diagonal(u.shape[0])
    totals = [float(u[:, k].sum()) for k in range(u.shape[1])]
    return [(k, _half_total(u[:, k], zero_diagonal, total, unit))
            for k, total in enumerate(totals) if total != 0.0]


def _fixed_entries(u, c: FixedCells, total: float, scale: float, unit: float):
    """The fixed-entry construction over node sums ``u`` with the cells ``c``
    fixed: the matrix, the factors, the root problem and the root.

    The half-total check runs at ``total``, the ratios are u / ``scale`` and
    the free entries scale f_i f_j.  The inputs come divided by ``unit``
    (:func:`_in_range`), and the matrix and the half-total check's message
    give them back multiplied by it.
    """
    report = _half_total(u, c, total, unit)
    if not report.ok:
        index_set, u_block, limit = report.first_violation
        raise ConsistencyViolation(
            f"index set {index_set}: outgoing traffic {u_block} is not strictly "
            f"below {limit} (half the total plus half the intra-set traffic)"
        )
    un, w = u[c.nodes], c.row_sums()
    over = np.flatnonzero(w > un * (1 + REL_TOL))
    if over.size:
        raise InfeasibleMarginals(
            f"node {c.nodes[over[0]]}: fixed values in its block exceed its sum")
    r = u / scale
    r[c.nodes] = (un - w) / scale
    problem, lam, factors = _root_factors(np.maximum(0.0, r), c.nodes, c.block)
    X = scale * np.outer(factors, factors)
    X[c.nodes[c.rows], c.nodes[c.cols]] = c.values
    if unit != 1.0:
        X *= unit
    return X, factors, problem, lam


def solve_sym_fixed_diagonal(
    u, s: float, m_fixed: int, w_diag, bounds_mode: bool = False
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
    negative = [w for w in w_diag if not w >= 0]
    if negative:
        raise NegativeValue(f"fixed block value {negative[0]} < 0")
    at = np.arange(m_fixed)  # the prefix's nodes, and their positions among them
    cells = FixedCells(at, at, at, at, np.array(w_diag))
    return solve_sym_block_diagonal(u, cells, s, bounds_mode=bounds_mode)


def solve_sym_3d_fixed_diagonal(u, s: float) -> TensorSolution:
    """Zero-diagonal 3-D array from symmetric per-slice section sums.

    ``u[i, k]`` is the sum of slice k's row i (equal to its column i).  The
    slices decouple: each is the fixed-entry construction of
    :func:`solve_sym_block_diagonal` with a zero diagonal, its half-total
    check at the slice's own total and its ratios u[:, k] / s over the
    global total, so each gets its own root xi_k and

        x[i, j, k] = (s / xi_k) (1 - sqrt(1 - r_ik xi_k)) (1 - sqrt(1 - r_jk xi_k))

    off the diagonal, zero on it.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise InfeasibleMarginals(f"section sums must be 2-D (n x K), got {u.shape}")
    if np.any(u < 0):
        raise NegativeValue("section sums must be nonnegative")
    n, K = u.shape
    u, s, unit = _in_range(u, s, "section")
    zero_diagonal = _zero_diagonal(n)
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
        values[:, :, k], _, problem, lam = _fixed_entries(
            u[:, k], zero_diagonal, slice_total, s, unit
        )
        lams.append(lam)
        xis.append(4.0 / (lam * lam))
        if problem is not None and not problem.guaranteed:
            notes.append(f"slice {k}: outside guaranteed bracket regime")
    return TensorSolution(
        values,
        SolverCase.SYM_3D_FIXED_DIAGONAL,
        total=_total(values),
        lam=tuple(lams),
        xi=tuple(xis),
        notes=tuple(notes),
    )


def solve_sym_block_diagonal(u, blocks, s: float, bounds_mode: bool = False) -> Solution:
    """Equal row and column sums with disjoint diagonal blocks fixed.

    ``blocks`` are :class:`FixedBlock` objects or their :class:`FixedCells`.
    Within a block the entries equal the given values; every other entry
    takes the form s * lam_i * lam_j, where a block node's factor is its
    unfixed-mass ratio scaled by the block factor and a node outside every
    block forms the linear tail.  When every block is a single diagonal
    entry this is the fixed-diagonal case.  With ``bounds_mode`` the sums
    are upper bounds; the same matrix applies and every factor is checked
    to lie in (0, 1].
    """
    u = np.asarray(u, dtype=float)
    c = FixedCells.of(blocks)
    if np.any(u < 0):
        raise NegativeValue("sums must be nonnegative")
    nodes = c.nodes
    if (not nodes.size or nodes.min() < 0 or nodes.max() >= u.size
            or np.bincount(nodes).max() > 1):
        raise InfeasibleMarginals("fixed blocks must be one or more disjoint sets of nodes")
    u, s, unit = _in_range(u, s, "sum")
    with np.errstate(over="ignore", invalid="ignore"):
        rs, cs = c.row_sums(), np.bincount(c.cols, c.values, minlength=nodes.size)
        differ = ~((rs == cs) | np.isfinite(rs) & np.isfinite(cs)
                   & (np.abs(rs - cs) <= REL_TOL * np.maximum(1.0, np.maximum(rs, cs))))
    if differ.any():
        raise InfeasibleMarginals(
            f"block {c.index_set(int(c.block[np.argmax(differ)]))}: fixed row and column "
            "sums differ, so the shared row/column totals cannot both hold"
        )
    c = replace(c, values=c.values / unit)
    X, factors, problem, lam = _fixed_entries(u, c, s, s, unit)
    if bounds_mode and not np.all(factors <= 1.0 + 1e-9):
        raise InvariantViolation("bound-mode factors must stay in (0, 1]")

    singletons = c.values.size == nodes.size
    return Solution(
        X,
        SolverCase.SYM_FIXED_DIAGONAL if singletons else SolverCase.SYM_BLOCK_DIAGONAL,
        total=_total(X),
        row_multipliers=factors,
        col_multipliers=factors.copy(),
        lam=lam,
        xi=4.0 / (lam * lam),
        notes=() if problem is None or problem.guaranteed
        else ("outside guaranteed bracket regime",),
        root=problem,
    )
