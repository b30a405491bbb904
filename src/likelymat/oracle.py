"""Independent verification: numerical optimization, enumeration, KKT checks.

Nothing here reuses the closed forms.  :func:`numeric_maxent` maximizes the
entropy (or, when the total is unknown, the entropy-difference objective)
over the problem's linear constraints by solving the smooth dual: L-BFGS-B
down to a projected gradient of 1e-4 times the largest target, then
projected-Newton steps by Cholesky (by least squares once a Cholesky step
fails), its ``iterations`` counting both.  A program whose maximizer scales
with the data is solved at a power-of-two scale of its own, so that data
near the ends of the float range solves as well as any.
:func:`brute_force_most_likely` enumerates small integer instances outright;
:func:`verify_kkt` checks feasibility, product form, multiplier ranges, and
complementary slackness of any solution.

scipy is imported inside the two routines that call it, so importing the
package (or starting the CLI) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .constraints import (
    REL_TOL,
    ElementBound,
    MarginalConstraint,
    ProblemSpec,
    constraint_values,
    validate_spec,
)
from .counting import ExactCount
from .errors import (
    Infeasible,
    LikelymatError,
    NotConverged,
    SearchSpaceTooLarge,
    UnsupportedCase,
)
from .solution import Solution, TensorSolution

__all__ = [
    "OracleResult",
    "BruteForceResult",
    "KktReport",
    "numeric_maxent",
    "brute_force_most_likely",
    "verify_kkt",
    "entropy",
    "entropy_difference",
]

# The dual parameterization keeps every free cell strictly positive; final
# output snaps entries below this threshold to exact zeros.
ZERO_REPORT = 1e-9

# L-BFGS-B hands off to the Newton polish once its projected gradient is
# below this fraction of the largest target: float resolution keeps it from
# getting much further, and it would run on until its line search fails.
HANDOFF_GTOL = 1e-4
# Each Newton step adds this fraction of its system's diagonal to the
# diagonal before the Cholesky factorization: the ridge covers the gauge null
# space of the symmetric and full-marginal programs.
NEWTON_RIDGE = 1e-12


def entropy(x) -> float:
    """Combinatorial entropy -sum(x ln x), with 0 ln 0 = 0."""
    v = np.asarray(x, dtype=float).ravel()
    pos = v[v > 0]
    return float(-(pos * np.log(pos)).sum())


def entropy_difference(x) -> float:
    """(sum x) ln (sum x) - sum(x ln x): the objective when the total is free."""
    v = np.asarray(x, dtype=float).ravel()
    s = float(v.sum())
    return (s * math.log(s) if s > 0 else 0.0) + entropy(v)


@dataclass(frozen=True)
class OracleResult:
    matrix: np.ndarray
    objective: str
    objective_value: float
    converged: bool
    iterations: int
    residual: float


@dataclass(frozen=True)
class BruteForceResult:
    """All most-likely integer matrices, their shared count, and the number
    of feasible matrices enumerated."""

    argmax: tuple[np.ndarray, ...]
    count: ExactCount
    n_feasible: int


@dataclass(frozen=True)
class KktReport:
    feasible: bool
    product_form: bool
    multiplier_range: bool
    complementary_slackness: bool
    max_residual: float
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return (
            self.feasible
            and self.product_form
            and self.multiplier_range
            and self.complementary_slackness
        )


# ----------------------------------------------------------------------
# Constraint extraction shared by the optimizer and the enumerator
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Incidence:
    """A 0/1 constraint matrix ``M`` kept as its nonzeros: constraint
    ``con[t]`` contains free cell ``cell[t]``, in order of the constraints."""

    con: np.ndarray
    cell: np.ndarray
    k: int  # constraints
    n: int  # free cells

    @classmethod
    def of(cls, members: list, n: int) -> _Incidence:
        runs = [np.asarray(m, dtype=np.intp) for m in members]
        cell = np.concatenate(runs) if runs else np.zeros(0, np.intp)
        con = np.repeat(np.arange(len(members)), [len(m) for m in members])
        return cls(con, cell, len(members), n)

    @cached_property
    def _segments(self) -> tuple[np.ndarray, np.ndarray]:
        """The constraints with members, and where each one's run starts."""
        nonempty = np.flatnonzero(np.bincount(self.con, minlength=self.k))
        return nonempty, np.searchsorted(self.con, nonempty)

    def rmatvec(self, theta: np.ndarray) -> np.ndarray:
        """M^T theta: per cell, the sum of its constraints' multipliers."""
        return np.bincount(self.cell, theta[self.con], minlength=self.n)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """M x: per constraint, the sum of its cells.  The sums run pairwise,
        as np.sum's do: L-BFGS-B's gradient test needs them near exact."""
        nonempty, start = self._segments
        out = np.zeros(self.k)
        if nonempty.size:
            out[nonempty] = np.add.reduceat(x[self.cell], start)
        return out

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every ordered pair of constraints that share a cell, as the key
        ``a * k + b`` and the cell they share."""
        order = np.argsort(self.cell, kind="stable")
        con, cell = self.con[order], self.cell[order]
        deg = np.bincount(cell, minlength=self.n)
        first = np.cumsum(deg) - deg  # each cell's first entry in the sorted lists
        reps = deg[cell]  # an entry pairs with every entry of its cell
        left = np.repeat(np.arange(cell.size), reps)
        right = first[cell[left]] + np.arange(left.size) - np.repeat(np.cumsum(reps) - reps, reps)
        return con[left] * self.k + con[right], cell[left]

    def gram(self, x: np.ndarray) -> np.ndarray:
        """M diag(x) M^T, constraints x constraints."""
        key, cell = self._pairs
        return np.bincount(key, x[cell], minlength=self.k * self.k).reshape(self.k, self.k)


@dataclass
class _Program:
    shape: tuple[int, ...]
    cells: np.ndarray  # (n, ndim) coordinates of the free cells, row-major
    fixed: dict[tuple[int, ...], float]
    eq: list[tuple[list[int], float, str]]
    ub: list[tuple[list[int], float, str]]

    @property
    def n(self) -> int:
        return len(self.cells)

    @cached_property
    def incidence(self) -> _Incidence:
        """The constraints eq, then ub."""
        return _Incidence.of([m for m, _, _ in self.eq + self.ub], self.n)

    @cached_property
    def search_incidence(self) -> _Incidence:
        """eq, a total over every free cell, then ub: the G path's line search."""
        eq, ub = [m for m, _, _ in self.eq], [m for m, _, _ in self.ub]
        return _Incidence.of(eq + [np.arange(self.n)] + ub, self.n)

    def assemble(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.shape)
        for cell, v in self.fixed.items():
            out[cell] = v
        out[tuple(self.cells.T)] = x
        return out


def _build_program(spec: ProblemSpec) -> _Program:
    spec = validate_spec(spec)
    sh = spec.shape
    shape = (sh.rows, sh.cols, sh.slices) if sh.is_3d else (sh.rows, sh.cols)
    if sh.is_3d and spec.element_bounds:
        raise UnsupportedCase("element bounds on a 3-D spec name no cell")

    if sh.is_3d:  # the zero diagonal of every slice, whatever the blocks say
        fixed = dict.fromkeys(((i, i, k) for i in range(sh.rows) for k in range(sh.slices)), 0.0)
    else:
        c = spec.fixed_cells
        fixed = dict(zip(zip(c.nodes[c.rows].tolist(), c.nodes[c.cols].tolist()),
                         c.values.tolist()))
    # Zero element caps pin the cell outright; keeping them as inequality
    # constraints would push the dual to infinity.
    for e in spec.element_bounds:
        if e.ub == 0.0:
            if fixed.get((e.i, e.j), 0.0) != 0.0:
                raise Infeasible(f"cell ({e.i},{e.j}) is fixed above its zero cap")
            fixed[(e.i, e.j)] = 0.0

    # The free cells as a mask, numbered row-major by ``pos``.
    free = np.ones(shape, dtype=bool)
    grid = np.zeros(shape)
    if fixed:
        at = tuple(np.array(list(fixed)).T)
        free[at] = False
        grid[at] = list(fixed.values())
    pos = np.zeros(shape, dtype=np.intp)
    pos[free] = np.arange(np.count_nonzero(free))
    cells = np.argwhere(free)
    # A marginal's pinned mass, added left to right along its axis (np.sum
    # would add pairwise); 0.0 + grid turns a fixed -0.0 into 0.0, as adding
    # it to a running 0.0 does.
    pinned_along = [np.take(np.cumsum(0.0 + grid, axis=ax), -1, axis=ax) for ax in (0, 1)]

    eq: list[tuple[list[int], float, str]] = []
    ub: list[tuple[list[int], float, str]] = []

    def _add(kind: str, members: list[int], target: float, label: str) -> None:
        if target < -REL_TOL:
            raise Infeasible(f"{label}: fixed values exceed the stated sum")
        if kind == "upper" and target == math.inf:
            return  # bounds nothing, as an infinite element cap
        target = max(target, 0.0)
        (eq if kind == "equal" else ub).append((members, target, label))

    def _axis_cells(axis: str, idx: int, slice_idx) -> tuple[list[int], float]:
        ax = 1 if axis == "row" else 0  # the axis the sum runs along
        rest = () if slice_idx is None else (slice_idx,)
        at = ((idx, slice(None)) if ax == 1 else (slice(None), idx)) + rest
        return pos[at][free[at]].tolist(), float(pinned_along[ax][(idx, *rest)])

    stated = {(c.axis, c.index, c.slice_index) for c in spec.marginals}
    for c in spec.marginals:
        members, pinned = _axis_cells(c.axis, c.index, c.slice_index)
        _add(c.kind, members, c.value - pinned, f"{c.axis} {c.index}/{c.slice_index}")
        if spec.symmetric:
            other = "col" if c.axis == "row" else "row"
            if (other, c.index, c.slice_index) not in stated:
                members, pinned = _axis_cells(other, c.index, c.slice_index)
                _add(c.kind, members, c.value - pinned, f"{other} {c.index}/{c.slice_index} (mirror)")

    if spec.total is not None:
        pinned = sum(fixed.values())
        _add(
            spec.total.kind,
            list(range(len(cells))),
            spec.total.value - pinned,
            "total",
        )

    for e in spec.element_bounds:
        if e.ub > 0.0 and math.isfinite(e.ub) and free[e.i, e.j]:
            ub.append(([int(pos[e.i, e.j])], e.ub, f"element ({e.i},{e.j})"))

    return _Program(shape, cells, fixed, eq, ub)


# ----------------------------------------------------------------------
# Dual entropy maximization
# ----------------------------------------------------------------------


def _dual_solve(program: _Program, total=None, theta0=None, tol: float = 1e-9):
    """Maximize entropy over the program's constraints via the dual.

    The stationary primal point is x_c = exp(-1 - sum of multipliers over
    constraints containing c); the dual is smooth and convex with bound
    constraints only (inequality multipliers stay nonnegative).  L-BFGS-B is
    the global phase: it hands off once its projected gradient is below
    ``HANDOFF_GTOL`` times the largest target.  A projected-Newton polish
    then takes the KKT residual to ``tol * 1e-3``.  Each Newton step factors
    the free block of M diag(x) M^T by Cholesky with a ``NEWTON_RIDGE``
    ridge; once a Cholesky step fails to lower the residual (or to factor),
    the remaining steps solve by least squares.  Should the polish stop
    above ``1e3 * tol``, where :func:`numeric_maxent` would raise
    :class:`NotConverged`, L-BFGS-B resumes from its point at a gradient
    tolerance of 1e-12, which in practice runs it until its line search
    fails, and the polish runs once more; with every target 0 that is the
    only round.

    A ``total`` adds the equality "the free cells sum to it" after the
    program's own.  Returns the primal vector, the multipliers, the KKT
    residual, and the iteration count: L-BFGS-B iterations plus Newton
    steps.
    """
    from scipy.linalg import cho_factor, cho_solve  # loaded with scipy.optimize
    from scipy.optimize import minimize  # loaded on first use, not at import

    eq_targets = [target for _, target, _ in program.eq]
    if total is None:
        M = program.incidence
    else:
        M, eq_targets = program.search_incidence, eq_targets + [total]
    n_eq = len(eq_targets)
    targets = np.array(eq_targets + [target for _, target, _ in program.ub], dtype=float)

    def primal(theta: np.ndarray) -> np.ndarray:
        return np.exp(np.clip(-1.0 - M.rmatvec(theta), -700.0, 700.0))

    def value_grad(theta: np.ndarray):
        x = primal(theta)
        return float(x.sum() + theta @ targets), targets - M.matvec(x)

    def kkt_residual(theta: np.ndarray, g: np.ndarray) -> float:
        res = float(np.max(np.abs(g[:n_eq]), initial=0.0))
        # A bound with a positive multiplier must be tight; one at zero may
        # only be slack.  A nan term is skipped (np.fmax), not propagated.
        g_ub = g[n_eq:]
        ub_res = np.where(theta[n_eq:] > 1e-14, np.abs(g_ub), -g_ub)
        return max(res, float(np.fmax.reduce(ub_res, initial=0.0)))

    def polish(theta: np.ndarray):
        x = primal(theta)
        g = targets - M.matvec(x)
        best_res = kkt_residual(theta, g)
        cholesky, steps = True, 0
        for _ in range(40):
            if best_res <= tol * 1e-3:
                break
            active = np.zeros(theta.size, dtype=bool)
            active[n_eq:] = (theta[n_eq:] <= 1e-14) & (g[n_eq:] >= 0)
            free = ~active
            H = M.gram(x)[np.ix_(free, free)]
            step = np.zeros_like(theta)
            if cholesky:
                try:
                    ridged = H + np.diag(NEWTON_RIDGE * H.diagonal())
                    step[free] = cho_solve(cho_factor(ridged, check_finite=False), -g[free],
                                           check_finite=False)
                except np.linalg.LinAlgError:  # not positive definite
                    cholesky = False
            if not cholesky:
                step[free] = np.linalg.lstsq(H, -g[free], rcond=None)[0]
            alpha, improved = 1.0, False
            for _ in range(30):
                cand = theta + alpha * step
                cand[n_eq:] = np.maximum(cand[n_eq:], 0.0)
                cand_x = primal(cand)
                cand_g = targets - M.matvec(cand_x)
                cand_res = kkt_residual(cand, cand_g)
                if cand_res < best_res:
                    theta, x, g, best_res, improved = cand, cand_x, cand_g, cand_res, True
                    break
                alpha *= 0.5
            steps += 1
            if not improved:
                if not cholesky:
                    break
                cholesky = False
        return x, theta, best_res, steps

    theta = np.zeros(targets.size) if theta0 is None else np.asarray(theta0, float)
    bounds = [(None, None)] * n_eq + [(0.0, None)] * len(program.ub)
    largest = float(np.max(targets, initial=0.0))
    iters = 0
    for gtol in (HANDOFF_GTOL * largest, 1e-12) if largest > 0 else (1e-12,):
        res = minimize(
            value_grad,
            theta,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 500, "maxfun": 5000, "ftol": 1e-16, "gtol": gtol},
        )
        x, theta, residual, steps = polish(res.x)
        iters += int(res.nit) + steps
        if residual <= 1e3 * tol:
            break
    return x, theta, residual, iters


def _max_total(program: _Program) -> float:
    """Largest feasible total of the free cells (linear program)."""
    from scipy.optimize import linprog  # loaded on first use, not at import
    from scipy.sparse import csr_array  # already loaded by scipy.optimize

    n = program.n
    if n == 0:
        return 0.0
    M, n_eq = program.incidence, len(program.eq)

    def rows(lo: int, hi: int):
        """Constraints lo..hi-1 as a sparse 0/1 matrix over the free cells."""
        if lo == hi:
            return None
        at = (M.con >= lo) & (M.con < hi)
        data = np.ones(np.count_nonzero(at))
        return csr_array((data, (M.con[at] - lo, M.cell[at])), shape=(hi - lo, n))

    ub, eq = program.ub, program.eq
    res = linprog(
        -np.ones(n),
        A_ub=rows(n_eq, M.k),
        b_ub=np.array([target for _, target, _ in ub]) if ub else None,
        A_eq=rows(0, n_eq),
        b_eq=np.array([target for _, target, _ in eq]) if eq else None,
        bounds=(0, None),
        method="highs",
    )
    if res.status == 3:
        raise Infeasible("the total sum is unbounded under these constraints")
    if not res.success:
        raise Infeasible(f"no feasible matrix: {res.message}")
    return float(-res.fun)


def numeric_maxent(spec: ProblemSpec, objective: str = "H", tol: float = 1e-9) -> OracleResult:
    """Numerically maximize H (known total) or G (unknown total) over a spec.

    The G path reduces to a line of H problems: the value of the G program
    restricted to a fixed total S is concave in S with derivative
    ln S + 1 + (total multiplier), so the optimal total is found by
    monotone bisection, checking the largest feasible total first.

    When the maximizer scales with the data (G always; H when the
    equalities fix the total), the constraints are solved divided by 2^e,
    the power of two at or below the largest mean cell value one of them
    asks for, and the free cells multiplied back, which is exact.  ``tol``
    and the reported residual are then relative to 2^e, and free cells
    below ``ZERO_REPORT`` times 2^e read 0.
    """
    if objective not in ("H", "G"):
        raise ValueError(f"objective must be 'H' or 'G', got {objective!r}")
    program = _build_program(spec)
    e = _exponent(program) if objective == "G" or _fixes_total(spec) else 0
    scaled = _scaled(program, e)

    def result(x: np.ndarray, converged: bool, iters: int, residual: float) -> OracleResult:
        if not converged and residual > 1e3 * tol:
            raise NotConverged(f"dual residual {residual} above tolerance {tol}", residual)
        X = program.assemble(np.ldexp(x, e))
        return OracleResult(X, objective, _objective_value(objective, X, e), converged, iters,
                            residual)

    if program.n == 0:
        return result(np.zeros(0), True, 0, 0.0)

    if objective == "H":
        x, _, residual, iters = _dual_solve(scaled, tol=tol)
        return result(_floor_small(x), residual <= tol, iters, residual)

    s_hi = _max_total(scaled)
    if s_hi <= 0:
        X = program.assemble(np.zeros(program.n))
        return OracleResult(X, "G", 0.0, True, 0, 0.0)

    theta_warm = None
    iters_total = 0

    def solve_at(s: float):
        nonlocal theta_warm, iters_total
        x, theta, residual, iters = _dual_solve(scaled, total=s, theta0=theta_warm, tol=tol)
        theta_warm = theta
        iters_total += iters
        slope = math.log(s) + 1.0 + theta[len(program.eq)]
        return x, residual, slope

    # Probe the slope strictly inside the boundary: at the largest total the
    # active bounds tile every cell and the total multiplier is not unique,
    # so its value there cannot be trusted for the sign test.
    s_probe = s_hi * (1.0 - 1e-9)
    _, _, slope = solve_at(s_probe)
    if slope >= -tol:
        x, residual, _ = solve_at(s_hi)
    else:
        lo, hi = s_hi * 1e-9, s_probe
        x, residual, slope_lo = solve_at(lo)
        if slope_lo > 0:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    break
                x_mid, res_mid, slope_mid = solve_at(mid)
                if slope_mid >= 0:
                    lo = mid
                    x, residual = x_mid, res_mid
                else:
                    hi = mid
    return result(_floor_small(x), residual <= tol, iters_total, residual)


def _fixes_total(spec: ProblemSpec) -> bool:
    """Whether the equalities fix the total: a total equality, or equality
    sums on every row (or every column) of every slice."""
    if spec.total is not None and spec.total.kind == "equal":
        return True
    return any(spec.axis_complete(axis) and spec.axis_kinds(axis) == {"equal"}
               for axis in ("row", "col"))


def _exponent(program: _Program) -> int:
    """e with 2^e at or below the largest finite mean target per member
    cell, and above half of it; 0 when every target is 0.  Divided by 2^e,
    the cells the constraints ask for are near the dual's start, 1/e."""
    means = [t / max(len(m), 1) for m, t, _ in program.eq + program.ub]
    largest = max((abs(v) for v in means if math.isfinite(v)), default=0.0)
    return math.frexp(largest)[1] - 1 if largest else 0


def _scaled(program: _Program, e: int) -> _Program:
    """The program with its targets divided by 2^e; the solve reads no fixed
    value."""
    if e == 0:
        return program

    def scale(constraints):
        return [(members, math.ldexp(t, -e), label) for members, t, label in constraints]

    return replace(program, eq=scale(program.eq), ub=scale(program.ub))


def _floor_small(x: np.ndarray) -> np.ndarray:
    out = np.asarray(x, dtype=float).copy()
    out[out < ZERO_REPORT] = 0.0
    return out


def _objective_value(objective: str, X: np.ndarray, e: int) -> float:
    """H or G of X; past the float range -inf or inf, without a warning.
    G is homogeneous of degree 1: it is taken of X / 2^e and multiplied
    back, so that its total stays in range whenever the result does."""
    with np.errstate(over="ignore"):
        if objective == "H":
            return entropy(X)
        return float(np.ldexp(entropy_difference(np.ldexp(X, -e)), e))


# ----------------------------------------------------------------------
# Brute-force enumeration
# ----------------------------------------------------------------------


def brute_force_most_likely(spec: ProblemSpec, limit: int = 10_000_000) -> BruteForceResult:
    """Enumerate every integer matrix satisfying the problem.

    Returns all matrices tied for the maximal realization count, the count
    itself, and how many feasible matrices exist.  Guarded: an estimate of
    the search space above ``limit`` raises before any work is done.
    """
    program = _build_program(spec)
    eq, ub = program.eq, program.ub
    for members, target, label in eq + ub:
        if abs(target - round(target)) > 1e-9:
            raise LikelymatError(f"enumeration needs integer data ({label} = {target})")
    for cell, v in program.fixed.items():
        if abs(v - round(v)) > 1e-9:
            raise LikelymatError(f"enumeration needs integer data (fixed {cell} = {v})")

    n = program.n
    caps = np.full(n, np.inf)
    for members, target, _ in eq + ub:
        for c in members:
            caps[c] = min(caps[c], target)
    if np.any(np.isinf(caps)):
        raise SearchSpaceTooLarge("some cell has no finite cap; enumeration is infinite")
    caps = caps.astype(int)

    space = 1.0
    for c in caps:
        space *= c + 1
        if space > limit:
            raise SearchSpaceTooLarge(f"search space above the {limit} guard")

    eq_members = [np.asarray(m, dtype=int) for m, _, _ in eq]
    eq_targets = [int(round(t)) for _, t, _ in eq]
    ub_members = [np.asarray(m, dtype=int) for m, _, _ in ub]
    ub_targets = [int(round(t)) for _, t, _ in ub]

    # remaining_cap[i][c]: how much constraint i can still absorb from cells >= c
    suffix_cap = []
    for members, _, _ in eq:
        marks = np.zeros(n + 1, dtype=np.int64)
        for c in members:
            marks[c] = caps[c]
        suffix_cap.append(np.flip(np.cumsum(np.flip(marks))))

    x = np.zeros(n, dtype=int)
    eq_running = [0] * len(eq)
    ub_running = [0] * len(ub)
    eq_by_cell = [[] for _ in range(n)]
    ub_by_cell = [[] for _ in range(n)]
    for i, members in enumerate(eq_members):
        for c in members:
            eq_by_cell[c].append(i)
    for i, members in enumerate(ub_members):
        for c in members:
            ub_by_cell[c].append(i)

    best_count = -1
    argmax: list[np.ndarray] = []
    n_feasible = 0
    log_fact = None  # exact integer counting below

    def realization_count(vec: np.ndarray) -> int:
        running, out = 0, 1
        for v in [int(round(f)) for f in program.fixed.values()] + list(vec):
            running += v
            out *= math.comb(running, v)
        return out

    def rec(c: int):
        nonlocal best_count, argmax, n_feasible
        if c == n:
            n_feasible += 1
            cnt = realization_count(x)
            if cnt > best_count:
                best_count = cnt
                argmax = [program.assemble(x.astype(float))]
            elif cnt == best_count:
                argmax.append(program.assemble(x.astype(float)))
            return
        hi = int(caps[c])
        for i in eq_by_cell[c]:
            hi = min(hi, eq_targets[i] - eq_running[i])
        for i in ub_by_cell[c]:
            hi = min(hi, ub_targets[i] - ub_running[i])
        if hi < 0:
            return
        for v in range(hi + 1):
            for i in eq_by_cell[c]:
                eq_running[i] += v
            for i in ub_by_cell[c]:
                ub_running[i] += v
            # an equality must still be reachable from the remaining cells
            ok = all(
                eq_running[i] + suffix_cap[i][c + 1] >= eq_targets[i]
                for i in range(len(eq))
            )
            if ok:
                x[c] = v
                rec(c + 1)
            for i in eq_by_cell[c]:
                eq_running[i] -= v
            for i in ub_by_cell[c]:
                ub_running[i] -= v
        x[c] = 0

    rec(0)
    if best_count < 0:
        raise Infeasible("no integer matrix satisfies the constraints")
    return BruteForceResult(tuple(argmax), ExactCount(best_count), n_feasible)


# ----------------------------------------------------------------------
# KKT verification
# ----------------------------------------------------------------------


def verify_kkt(solution, spec: ProblemSpec, tol: float = 1e-6) -> KktReport:
    """Check a solution against the optimality structure of its spec.

    Verifies (a) feasibility of every stated constraint, (b) the product
    form: the log of each positive free entry is a sum of one factor per
    constraint touching it, (c) reported bound multipliers lie in (0, 1],
    except that a zero bound's is exactly 0, and (d) complementary
    slackness: a slack bound carries multiplier 1.
    """
    spec = validate_spec(spec)
    program = _build_program(spec)
    X = solution.values if isinstance(solution, TensorSolution) else solution.matrix
    X = np.asarray(X, dtype=float)
    violations: list[str] = []
    max_res = 0.0

    def scale(v: float) -> float:
        return max(1.0, abs(v))

    finite = bool(np.isfinite(X).all())
    if not finite:
        violations.append("non-finite entries")
    if np.any(X < -tol):
        violations.append("negative entries")

    for cell, v in program.fixed.items():
        err = abs(X[cell] - v)
        max_res = max(max_res, err)
        if err > tol * scale(v):
            violations.append(f"fixed cell {cell}: {X[cell]} != {v}")

    achieved: dict[tuple, float] = {}
    for c, kind, val, bound in constraint_values(spec, X):
        if isinstance(c, MarginalConstraint):
            achieved[(c.axis, c.index, c.slice_index)] = val
        err = val - bound
        if kind == "equal":
            max_res = max(max_res, abs(err))
            if abs(err) > tol * scale(bound):
                violations.append(_violation(c, val, "!="))
        elif err > tol * scale(bound):
            max_res = max(max_res, err)
            violations.append(_violation(c, val, "> bound"))
    feasible = not violations

    product_form, pf_res = _product_form_ok(spec, program, X, tol)
    if not product_form:
        violations.append(f"product form residual {pf_res}")
    # max() skips a nan residual, so a non-finite entry sets it outright
    max_res = max(max_res, pf_res) if finite else math.inf

    multiplier_range, slackness = True, True
    if isinstance(solution, Solution):
        for axis, mult in (("row", solution.row_multipliers), ("col", solution.col_multipliers)):
            if mult is None:
                continue
            kinds = {c.kind for c in spec.marginals if c.axis == axis}
            if spec.symmetric and not kinds:
                kinds = {c.kind for c in spec.marginals if c.axis == "row"}
            if kinds != {"upper"}:
                continue
            bounds = (
                spec.axis_values("row") if spec.symmetric and axis == "col"
                else spec.axis_values(axis)
            )
            sums = X.sum(axis=1 if axis == "row" else 0) if spec.symmetric else None
            for i, f in enumerate(np.asarray(mult, dtype=float)):
                bound = bounds[i]
                # a zero bound pins its line at zero: its factor is exactly 0
                if not (f == 0.0 if bound == 0.0 else 0.0 < f <= 1.0 + tol):
                    multiplier_range = False
                    allowed = "{0}" if bound == 0.0 else "(0, 1]"
                    violations.append(f"{axis} {i}: multiplier {f} outside {allowed}")
                if not math.isfinite(bound):
                    continue
                key = (axis, i, None)
                real = achieved.get(key)
                if real is None and sums is not None:
                    real = float(sums[i])
                if real is None:
                    continue
                slack = bound - real
                if slack > tol * scale(bound) and abs(f - 1.0) > tol:
                    slackness = False
                    violations.append(
                        f"{axis} {i}: slack bound but multiplier {f} != 1"
                    )

    return KktReport(
        feasible=feasible,
        product_form=product_form,
        multiplier_range=multiplier_range,
        complementary_slackness=slackness,
        max_residual=max_res,
        violations=tuple(violations),
    )


def _violation(c, val: float, relation: str) -> str:
    """The message for constraint ``c`` broken at achieved value ``val``."""
    if isinstance(c, ElementBound):
        return f"element ({c.i},{c.j}) exceeds its bound"
    what = f"{c.axis} {c.index}: sum" if isinstance(c, MarginalConstraint) else "total"
    return f"{what} {val} {relation} {c.value}"


def _product_form_ok(spec, program: _Program, X: np.ndarray, tol: float):
    """Least-squares fit of log-entries on per-constraint indicators.

    The log of every positive free entry should be a sum of one factor per
    marginal and total touching it, plus one for its element cap.  A cap's
    factor touches its cell alone, so a cell at (or over, which feasibility
    reports) a finite cap fits exactly and leaves the fit; an infinite or
    slack cap has factor 1, so its cell stays in.  Each remaining cell has at
    most three features (row, column, total); the fit solves the features x
    features normal equations, whose least-squares solution takes care of
    the gauge freedom, and measures the residual cell by cell.  It reads no
    multiplier of the solver's.
    """
    shape = program.shape
    slices = shape[2] if len(shape) == 3 else 1
    # Which marginals are features, indexed (index, slice) with slice 0 in 2-D
    rows = np.zeros((shape[0], slices), dtype=bool)
    cols = np.zeros((shape[1], slices), dtype=bool)
    for c in spec.marginals:
        for axis in ("row", "col") if spec.symmetric else (c.axis,):
            (rows if axis == "row" else cols)[c.index, c.slice_index or 0] = True
    # Feature ids: row marginals, column marginals, the total; n_f means none
    has = np.concatenate([rows.ravel(), cols.ravel(), [spec.total is not None]])
    n_f = int(has.sum())
    fid = np.where(has, np.cumsum(has) - 1, n_f)
    row_id, col_id = fid[:rows.size].reshape(rows.shape), fid[rows.size:-1].reshape(cols.shape)

    values = X[tuple(program.cells.T)]
    keep = ~(values <= ZERO_REPORT)
    if not np.isfinite(values[keep]).all():
        return False, math.nan  # no finite factors make a nan or infinite entry
    if spec.element_bounds:
        i, j, ub = spec.element_caps
        at_cap = np.isfinite(ub) & (X[i, j] - ub >= -tol * np.maximum(1.0, ub))
        capped = np.zeros(shape, dtype=bool)
        capped[i[at_cap], j[at_cap]] = True
        keep &= ~capped[tuple(program.cells.T)]
    cells = program.cells[keep]
    if not len(cells):
        return True, 0.0
    sl = cells[:, 2] if len(shape) == 3 else 0
    ids = np.stack([row_id[cells[:, 0], sl], col_id[cells[:, 1], sl],
                    np.full(len(cells), fid[-1])], axis=1)
    w = n_f + 1  # id n_f collects the absent features, then is cut off
    AtA = np.bincount((ids[:, :, None] * w + ids[:, None, :]).ravel(), minlength=w * w)
    AtA = AtA.reshape(w, w)[:n_f, :n_f].astype(float)
    b = np.log(values[keep])
    Atb = np.bincount(ids.ravel(), np.repeat(b, 3), minlength=w)[:n_f]
    theta = np.append(np.linalg.lstsq(AtA, Atb, rcond=None)[0], 0.0)
    resid = float(np.max(np.abs(theta[ids].sum(axis=1) - b)))
    return resid <= max(tol, 1e-7), resid
