"""Solvers for square matrices with symmetric information.

Covers a known total with bounds on the (shared) row/column sums, given
row/column sums with some or all diagonal entries fixed, the 3-dimensional
analogue with a zero diagonal, and fixed diagonal blocks.  The fixed-entry
cases reduce to a single scalar equation: with ratios r_i of unfixed mass to
the total, the factor sum lam must satisfy

    sqrt(1 - 4 r_1 / lam^2) + .. + sqrt(1 - 4 r_m / lam^2)
        - 2 (r_{m+1} + .. + r_n) / lam^2  =  m - 2.

The left side increases in lam, so the root is unique, and it lies between
the branch point 2 sqrt(r_max) and 2 sqrt(sigma); when every ratio is below
a third of their sum the paper's narrower bracket
(2 sqrt(r_max), 4 sqrt(sigma) / 3) holds as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constraints import (
    REL_TOL,
    FixedCells,
    SolverCase,
    _left_sum,
    _same,
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
]

@dataclass(frozen=True, eq=False)
class RootProblem:
    """Data of the scalar saturation equation.

    ``r`` holds every mass ratio, as an array; the first ``m`` (fixed rows
    or diagonal blocks) contribute square-root terms, the rest only the
    -2 r / lam^2 tail.  ``sigma`` is 1 when nothing but the diagonal
    structure is fixed and drops below 1 as fixed values absorb mass.

    The sums over ``r`` are taken once, here; the evaluators then work on
    the fixed ratios as one array and add their square-root terms left to
    right (``np.add.accumulate``, not the pairwise ``np.sum``), so each
    value is bit for bit the one a scalar loop over the terms gives.
    """

    r: np.ndarray
    m: int
    sigma: float = field(init=False, compare=False)
    tail: float = field(init=False, compare=False)
    r_max: float = field(init=False, compare=False)

    __eq__ = _same

    def __post_init__(self):
        r = np.array(self.r, dtype=float)
        if not 0 <= self.m <= r.size:
            raise ValueError(f"m={self.m} outside 0..{r.size}")
        if not (r >= 0).all():  # a nan ratio too
            raise NegativeValue("mass ratios must be nonnegative")
        object.__setattr__(self, "r", r)
        # The root's lower end is the branch point of the square roots, so
        # r_max looks at the first m ratios only; a larger ratio in the
        # linear tail does not move the branch point and must not be used
        # (the root can legitimately sit below twice its square root).
        object.__setattr__(self, "r_max", float(r[: self.m].max(initial=0.0)))
        with np.errstate(over="ignore"):  # a sum past the float range is inf
            object.__setattr__(self, "sigma", _left_sum(r))
            object.__setattr__(self, "tail", _left_sum(r[self.m :]))

    @property
    def bracket(self) -> tuple[float, float]:
        return 2.0 * math.sqrt(self.r_max), 4.0 * math.sqrt(self.sigma) / 3.0

    @property
    def guaranteed(self) -> bool:
        """True when the bracket is backed by the sufficient conditions."""
        sigma = self.sigma
        if sigma <= 0 or not np.all((0 < self.r) & (self.r < sigma / 3)):
            return False
        if self.m == self.r.size:
            return self.m >= 3
        # Mixed form: proved for ratios summing to one.
        return self.r.size >= 3 and close(sigma, 1.0)

    def f(self, lam: float) -> float:
        """Left side minus right side of the saturation equation, with the
        square roots clamped at zero so the function extends continuously
        below each branch point."""
        lam2 = lam * lam
        roots = _sqrt_sums(4.0 * self.r[None, : self.m], [lam2])[0]
        return roots - 2.0 * self.tail / lam2 - (self.m - 2)

    def f_at_branch_point(self) -> float:
        """Value of f at lam = 2 sqrt(max fixed ratio), computed exactly.

        At that point the square-root arguments reduce to 1 - r_i / r_top,
        which avoids the sqrt-of-rounding-noise the generic evaluator would
        produce for the top ratio itself (the tied terms are exactly zero).
        """
        r_fixed = self.r[: self.m]
        r_top = self.r_max
        others = r_fixed[r_fixed != r_top]
        acc = _left_sum(np.sqrt(np.maximum(0.0, 1.0 - others / r_top)))
        tail_term = self.tail / (2.0 * r_top) if 2.0 * r_top < math.inf else self.tail / r_top / 2
        return acc - tail_term - (self.m - 2)


def _sqrt_sums(r4: np.ndarray, lam2: list[float]) -> list[float]:
    """Each row k of ``r4`` (4 r over a problem's m fixed ratios) summed as
    sqrt(1 - r4 / lam2[k]) terms, left to right from 0.0 as :func:`_left_sum`
    adds: one (K, m) pass for K problems, each sum a scalar loop's bits."""
    terms = np.zeros((r4.shape[0], r4.shape[1] + 1))  # column 0 is each sum's start
    t = terms[:, 1:]
    np.divide(r4, np.array(lam2)[:, None], out=t)
    np.subtract(1.0, t, out=t)
    np.sqrt(np.maximum(0.0, t, out=t), out=t)
    return np.add.accumulate(terms, axis=1, out=terms)[:, -1].tolist()


def _bracket(p: RootProblem) -> tuple[float, float]:
    """The root's bracket (lo, hi), lo == hi for a root on the branch point;
    ``BracketFailure`` when there is no root.  f increases from the branch
    point 2 sqrt(r_max) of the fixed ratios (0, where f is -inf, when none is
    positive), and since sqrt(1 - x) >= 1 - x it is at least
    2 - (F + T / 2) / sigma >= 1 at 2 sqrt(sigma), F and T the fixed and tail
    sums: that one bracket holds for every problem with a root.  Where
    ``guaranteed`` holds, the paper's bracket is checked too, as a theorem.
    """
    if p.sigma == 0.0:
        raise BracketFailure("the saturation equation has no root: every ratio is zero")
    lo, hi = 2.0 * math.sqrt(p.r_max), 2.0 * math.sqrt(p.sigma)
    if hi == math.inf:  # bisection would stop at once, on the branch point
        raise BracketFailure("the saturation equation has no finite bracket: "
                             "the ratios sum past the float range")
    flo = p.f_at_branch_point() if p.r_max > 0 else -math.inf
    if p.guaranteed:
        if not flo <= 0.0:
            raise BracketFailure(f"bracket lower end violates sign condition: f({lo})={flo}")
        upper = p.bracket[1]
        f_upper = p.f(upper)
        if not f_upper > 0.0:
            raise BracketFailure(
                f"bracket upper end violates sign condition: f({upper})={f_upper}")
    if flo == 0.0:
        return lo, lo
    if flo > 0.0:
        raise BracketFailure(
            "the saturation equation has no root: the function is already "
            f"positive at its branch point {lo}"
        )
    return lo, hi


def _bisect(problems: list[RootProblem], brackets: list[tuple[float, float]]) -> list[float]:
    """Roots of problems with one m, bisected in lockstep from their
    :func:`_bracket` to floating-point exhaustion: each step takes f at all
    live midpoints in one :func:`_sqrt_sums` pass, and a problem retires when
    its midpoint reaches lo or hi, with lo, where f <= 0 < f(next float).  The
    arithmetic is a scalar bisection's, so no root depends on the others."""
    m = problems[0].m if problems else 0
    r4 = 4.0 * np.array([p.r[:m] for p in problems]).reshape(len(problems), m)
    tail2 = [2.0 * p.tail for p in problems]
    lo, hi = [b[0] for b in brackets], [b[1] for b in brackets]
    live = list(range(len(problems)))
    while live:
        mid = [0.5 * (lo[k] + hi[k]) for k in live]
        halves = [lo[k] < x < hi[k] for k, x in zip(live, mid)]
        if not all(halves):
            live, r4 = [k for k, h in zip(live, halves) if h], r4[halves]
            continue
        lam2 = [x * x for x in mid]
        for k, x, l2, roots in zip(live, mid, lam2, _sqrt_sums(r4, lam2)):
            (lo if roots - tail2[k] / l2 - (m - 2) <= 0.0 else hi)[k] = x
    return lo


def solve_root_lambda(p: RootProblem) -> float:
    """Unique root of the saturation equation: :func:`_bisect` on its
    :func:`_bracket`, or the branch point when the root sits there."""
    return _bisect([p], [_bracket(p)])[0]


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
    r_fixed = p.r[:m]
    q = np.sqrt(np.maximum(0.0, 1.0 - 4.0 * r_fixed / lam2))
    r_top = p.r_max
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
        return _left_sum(self.terms[: self.order + 1])

    def value_at(self, order: int) -> float:
        return _left_sum(self.terms[: order + 1])


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


def _root_problem(r: np.ndarray, nodes: np.ndarray, block: np.ndarray) -> RootProblem | None:
    """The saturation equation over fixed blocks, None when nothing is left
    unfixed.  ``r[i]`` is node i's unfixed mass over the total, ``nodes`` and
    ``block`` the covered nodes and their blocks (:class:`FixedCells`).  Each
    block gives one square-root term over its summed ratio r_g, in ``nodes``
    order; the nodes in no block form the linear tail, in index order."""
    tail = np.flatnonzero(np.bincount(nodes, minlength=r.size) == 0)
    rn = r[nodes]
    single = np.bincount(block)[block] == 1
    r_group = np.bincount(block, rn)
    r_group[block[single]] = rn[single]  # a singleton's ratio as it is (-0.0 too)
    problem = RootProblem(r=np.concatenate((r_group, r[tail])), m=r_group.size)
    return None if problem.sigma == 0.0 else problem


def _factors(p: RootProblem, lam: float, r: np.ndarray, nodes: np.ndarray,
             block: np.ndarray) -> np.ndarray:
    """Per-node factors at the root ``lam`` of :func:`_root_problem`.  A
    block's factor is the small root of f * (lam - f) = r_g in its
    subtraction-free form 2 r_g / (lam (1 + q_g)): the companion lam - f
    then equals lam (1 + q_g) / 2 exactly, so each row sum reproduces s r at
    full relative precision whatever the size of q_g.  A singleton's node
    takes the block factor itself, a node of a larger block its share
    r_i / r_g of it, and a tail node r_i / lam."""
    tail = np.flatnonzero(np.bincount(nodes, minlength=r.size) == 0)
    single = np.bincount(block)[block] == 1
    r_group = p.r[: p.m]
    f_group = 2.0 * r_group / (lam * (1.0 + branch_factors(p, lam)))
    factors = np.zeros(r.size)
    factors[tail] = r[tail] / lam
    fg, rg, rn = f_group[block], r_group[block], r[nodes]
    share = np.divide(rn * fg, rg, out=np.zeros(rn.size), where=rg > 0)
    factors[nodes] = np.where(single, fg, share)
    return factors


def _slices(u: np.ndarray, s: float, c: FixedCells | None):
    """Sums ``u`` as the slices of :func:`_fixed_entries`: (n, K) sums, the
    cells fixed in each, their half-total check totals, the ratios' scale
    and a unit.  ``u`` of shape (n,) is one slice with the cells ``c``, of
    shape (n, K) K slices with the zero diagonal (None: total 0, unsolved).
    A total s past the float range divides u, s and the cells by a power of
    two, the unit; the solution is homogeneous of degree 1 and the division
    exact, so that solves to the true solution divided by the unit."""
    total = _total(u)
    if not close(s, total):
        raise InfeasibleMarginals(f"total {s} disagrees with the "
                                  f"{'sum' if u.ndim == 1 else 'section'} total {total}")
    unit = 1.0 if math.isfinite(s) else 2.0 ** u.size.bit_length()
    if unit != 1.0:
        u, s = u / unit, _total(u / unit)
    if u.ndim == 1:
        return u[:, None], replace(c, values=c.values / unit), [s], s, unit
    totals = [float(u[:, k].sum()) or None for k in range(u.shape[1])]
    at = np.arange(u.shape[0])
    return u, FixedCells(at, at, at, at, np.zeros(at.size)), totals, s, unit


def _fixed_entries(u: np.ndarray, c: FixedCells, totals: list, scale: float, unit: float):
    """The fixed-entry construction over :func:`_slices`: the (n, n, K)
    array, the factors, and per slice the root problem (None: unsolved or
    all fixed) and root (NaN where none).  Each slice's checks run first, in
    slice order: half-total, fixed values against sums, and its root's
    bracket over the ratios u / ``scale`` less the fixed mass.  Then the
    roots are bisected in lockstep; slice k's free entries are ``scale``
    f_ik f_jk, written a block of rows at a time and scaled while in cache,
    then the fixed cells, all times ``unit``."""
    (n, K), w = u.shape, c.row_sums()
    ratios, problems, brackets = np.zeros(u.shape), [None] * K, []
    for k, total in enumerate(totals):
        if total is None:
            continue
        report = consistency_check_blocks(u[:, k], c, total)
        if not report.ok:  # its values times the unit, inf past the float range
            bad = tuple((k, i, out * unit, limit * unit) for i, out, limit in report.violations)
            raise ConsistencyViolation(
                "index set {}: outgoing traffic {} is not strictly below {} (half the "
                "total plus half the intra-set traffic)".format(*bad[0][1:]), bad)
        un = u[c.nodes, k]
        over = np.flatnonzero(w > un * (1 + REL_TOL))
        if over.size:
            raise InfeasibleMarginals(
                f"node {c.nodes[over[0]]}: fixed values in its block exceed its sum")
        r = u[:, k] / scale
        r[c.nodes] = (un - w) / scale
        ratios[:, k] = r = np.maximum(0.0, r)
        problems[k] = _root_problem(r, c.nodes, c.block)
        if problems[k] is not None:
            brackets.append(_bracket(problems[k]))
    solved = [k for k, p in enumerate(problems) if p is not None]
    lams, F = [math.nan] * K, np.zeros((n, K))
    for k, lam in zip(solved, _bisect([problems[k] for k in solved], brackets)):
        lams[k] = lam
        F[:, k] = _factors(problems[k], lam, ratios[:, k], c.nodes, c.block)
    X = np.empty((n, n, K))
    step = max(1, 2**15 // (n * K))
    for i in range(0, n, step):
        rows = np.einsum("ik,jk->ijk", F[i:i + step], F, out=X[i:i + step])
        rows *= scale
    # einsum adds each product to 0.0: a -0.0 factor's products are redone
    i, k = np.nonzero((F == 0.0) & np.signbit(F))
    X[i, :, k] = F[i, k][:, None] * F[:, k].T * scale
    X[:, i, k] = F[:, k] * F[i, k] * scale
    X[c.nodes[c.rows], c.nodes[c.cols]] = c.values[:, None]
    if unit != 1.0:
        X *= unit
    return X, F, problems, lams


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
    global total, so each gets its own root xi_k, bisected in lockstep, and

        x[i, j, k] = (s / xi_k) (1 - sqrt(1 - r_ik xi_k)) (1 - sqrt(1 - r_jk xi_k))

    off the diagonal, zero on it.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise InfeasibleMarginals(f"section sums must be 2-D (n x K), got {u.shape}")
    if np.any(u < 0):
        raise NegativeValue("section sums must be nonnegative")
    values, _, problems, lams = _fixed_entries(*_slices(u, s, None))
    return TensorSolution(
        values,
        SolverCase.SYM_3D_FIXED_DIAGONAL,
        total=_total(values),
        lam=tuple(lams),
        xi=tuple(4.0 / (lam * lam) for lam in lams),
        notes=tuple(f"slice {k}: outside guaranteed bracket regime"
                    for k, p in enumerate(problems) if p is not None and not p.guaranteed),
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
    slices = _slices(u, s, c)
    with np.errstate(over="ignore", invalid="ignore"):
        rs, cs = c.row_sums(), np.bincount(c.cols, c.values, minlength=nodes.size)
        differ = ~((rs == cs) | np.isfinite(rs) & np.isfinite(cs)
                   & (np.abs(rs - cs) <= REL_TOL * np.maximum(1.0, np.maximum(rs, cs))))
    if differ.any():
        raise InfeasibleMarginals(
            f"block {c.index_set(int(c.block[np.argmax(differ)]))}: fixed row and column "
            "sums differ, so the shared row/column totals cannot both hold"
        )
    X, F, (problem,), (lam,) = _fixed_entries(*slices)
    X, factors = X[:, :, 0], F[:, 0]
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
