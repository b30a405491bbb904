"""Independent verification: numerical optimization, enumeration, KKT checks.

Nothing here reuses the closed forms.  :func:`numeric_maxent` maximizes the
entropy over the problem's linear constraints by solving the smooth dual
(:func:`_dual_solve`): two scaling sweeps over the constraint families
(rows, columns, the total, element caps) start projected-Newton steps, a
ridge keeps each Newton system solvable, and a step is taken where it
lowers the dual enough (Armijo) or lowers the residual at a dual unchanged
up to rounding.  ``iterations`` counts the Newton steps, 0 when the sweeps
converge.  When the total is unknown it climbs the entropy-difference
objective by minorize-maximize rounds of the same dual solve, each from
the last one's multipliers, with ``iterations`` summed over them.  A
program whose maximizer scales with the data is solved at a power-of-two
scale of its own, so that data near the ends of the float range solves as
well as any.  A linear program checks feasibility only after a solve
fails.
:func:`brute_force_most_likely` enumerates small integer instances outright;
:func:`verify_kkt` checks feasibility, product form, multiplier ranges, and
complementary slackness of any solution.

All three read one program, built from the validated spec in whole-array
passes: the free cells, the fixed cells as index arrays and values, one
incidence list over every constraint (equalities, then bounds, element caps
last), one array of targets, and the constraints by family.  It is built
once per spec object and kept on it, read-only, so every oracle call on
that object reads the one build.
The product-form fit runs over the program's own marginal and total rows;
it, the Newton steps and the G rounds' shift share one pivoted-Cholesky solve.

scipy is imported inside the routines that call it, so importing the
package (or starting the CLI) does not load it, a solve that the sweeps
converge loads none of it, and one that takes Newton steps loads only
``scipy.linalg.lapack``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .constraints import (
    REL_TOL,
    ProblemSpec,
    _left_sum,
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

# The Newton system's ridge, per unit of KKT residual.  The bounded-total
# programs, whose total row is the sum of the row rows, stall without it.
RIDGE = 1e-2
# The scaling sweeps over the constraint families before the Newton steps.
SWEEPS = 2
# Brute force visits at most this many nodes of its search tree, about
# 0.7 s at 2.5 us a node.
BRUTE_NODES = 2**18
# The G objective's minorize-maximize rounds stop here if the total still
# moves.
MM_ROUNDS = 100


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
    ``con[t]`` contains free cell ``cell[t]``, in order of the constraints and,
    within one, of the cells."""

    con: np.ndarray
    cell: np.ndarray
    k: int  # constraints
    n: int  # free cells

    @cached_property
    def _segments(self) -> tuple[np.ndarray, np.ndarray]:
        """The constraints with members, and where each one's run starts."""
        nonempty = np.flatnonzero(np.bincount(self.con, minlength=self.k))
        return _read_only(nonempty, np.searchsorted(self.con, nonempty))

    def rmatvec(self, theta: np.ndarray) -> np.ndarray:
        """M^T theta: per cell, the sum of its constraints' multipliers."""
        return np.bincount(self.cell, theta[self.con], minlength=self.n)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """M x: per constraint, the sum of its cells.  The sums run pairwise,
        as np.sum's do: the Newton steps' residual test needs them near exact."""
        nonempty, start = self._segments
        if nonempty.size == self.k:  # every constraint has a member
            return np.add.reduceat(x[self.cell], start)
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
        left = np.repeat(np.arange(cell.size), deg[cell])  # an entry pairs with its cell's
        right = _runs(first[cell], deg[cell])
        return _read_only(con[left] * self.k + con[right], cell[left])

    def gram(self, x: np.ndarray) -> np.ndarray:
        """M diag(x) M^T, constraints x constraints."""
        key, cell = self._pairs
        return np.bincount(key, x[cell], minlength=self.k * self.k).reshape(self.k, self.k)

    @cached_property
    def shift(self) -> np.ndarray:
        """w with M^T w = 1 as nearly as least squares gets: adding c w to
        the multipliers moves every cell's exponent by c."""
        ones = np.ones(self.n)
        return _read_only(_psd_solve(self.gram(ones), self.matvec(ones)))[0]


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each flagged read-only, so that a stray in-place write
    raises instead of corrupting the program that every later call reads."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _runs(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The positions start[r], ..., start[r] + length[r] - 1 of every run r, in order."""
    ends = np.cumsum(length)
    return np.repeat(start - (ends - length), length) + np.arange(ends[-1] if ends.size else 0)


class _Family(NamedTuple):
    """Constraints that share no cell, each with a cell, and the cells of
    their incidence entries in the incidence's order: one run per
    constraint, at ``start`` and ``count`` long."""

    cons: np.ndarray
    start: np.ndarray
    count: np.ndarray
    cell: np.ndarray


@dataclass(frozen=True)
class _Program:
    """The free cells, the fixed ones, and every constraint over the free
    cells: the equalities (``n_eq``), then the bounds, the ``n_caps``
    element caps last, one cell each.

    ``families`` splits the constraints that have a cell into rows,
    columns, the total and the element caps, those that have any, in that
    order.  A program given none runs no scaling sweep."""

    shape: tuple[int, ...]
    cells: np.ndarray  # (n, ndim) coordinates of the free cells, row-major
    fixed: tuple[np.ndarray, ...]  # the fixed cells' coordinates, one array per axis
    fixed_values: np.ndarray
    incidence: _Incidence
    targets: np.ndarray
    n_eq: int
    n_caps: int
    families: tuple[_Family, ...] = ()

    @property
    def n(self) -> int:
        return len(self.cells)

    def assemble(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.fixed] = self.fixed_values
        out[tuple(self.cells.T)] = x
        return out


def _build_program(spec: ProblemSpec) -> _Program:
    """The program of ``spec``, built on the first call and kept in that spec
    object's ``__dict__``: every oracle call on one spec object reads one
    build.  A build that raises keeps nothing."""
    program = spec.__dict__.get("_oracle_program")
    if program is None:
        program = _new_program(spec)
        M = program.incidence
        _read_only(program.cells, *program.fixed, program.fixed_values, program.targets,
                   M.con, M.cell, *(a for f in program.families for a in f))
        spec.__dict__["_oracle_program"] = program
    return program


def _new_program(spec: ProblemSpec) -> _Program:
    spec = validate_spec(spec)
    sh = spec.shape
    shape = (sh.rows, sh.cols, sh.slices) if sh.is_3d else (sh.rows, sh.cols)
    K = sh.slices or 1
    ci, cj, ub = spec.element_caps
    if sh.is_3d and ub.size:
        raise UnsupportedCase("element bounds on a 3-D spec name no cell")

    if sh.is_3d:  # the zero diagonal of every slice, whatever the blocks say
        i, k = np.divmod(np.arange(sh.rows * K), K)
        fixed, values = (i, i, k), 0.0
    else:
        c = spec.fixed_cells
        fixed, values = (c.nodes[c.rows], c.nodes[c.cols]), c.values
    grid = np.zeros(shape)
    grid[fixed] = values
    free = np.ones(shape, dtype=bool)
    free[fixed] = False
    if ub.size:
        # Zero element caps pin the cell outright; keeping them as inequality
        # constraints would push the dual to infinity.
        zero = ub == 0.0
        over = np.flatnonzero(zero & (grid[ci, cj] != 0.0))
        if over.size:
            raise Infeasible(f"cell ({ci[over[0]]},{cj[over[0]]}) is fixed above its zero cap")
        newly = zero & free[ci, cj]
        fixed = (np.concatenate([fixed[0], ci[newly]]), np.concatenate([fixed[1], cj[newly]]))
        grid[ci[zero], cj[zero]] = 0.0
        free[ci[zero], cj[zero]] = False
    fixed_values = grid[fixed]

    # The free cells, numbered row-major by ``pos``.  Each lies on three
    # lines: its row (line i K + slice), its column (line R + j K + slice) and
    # the total (line R + C); ``by_line`` lists the cells line by line.
    cells = np.argwhere(free)
    n = len(cells)
    pos = np.zeros(shape, dtype=np.intp)
    pos[free] = np.arange(n)
    cap_cell, cap = np.zeros(0, dtype=np.intp), np.zeros(0)
    if ub.size:  # the finite caps of free cells
        capped = np.isfinite(ub) & free[ci, cj]
        cap_cell, cap = pos[ci[capped], cj[capped]], ub[capped]
    R, C = sh.rows * K, sh.cols * K
    on_slice = cells[:, 2] if sh.is_3d else 0
    line_of = np.concatenate([cells[:, 0] * K + on_slice, R + cells[:, 1] * K + on_slice,
                              np.full(n, R + C)])
    by_line = np.tile(np.arange(n), 3)[np.argsort(line_of, kind="stable")]
    count = np.bincount(line_of, minlength=R + C + 1)
    # A line's pinned mass, added left to right along it (np.sum would add
    # pairwise); 0.0 + grid turns a fixed -0.0 into 0.0, as adding it to a
    # running 0.0 does.  The total's adds the fixed values in their order.
    with np.errstate(over="ignore"):  # past the float range: inf, and a line short of it
        pinned = np.concatenate([np.take(np.cumsum(0.0 + grid, axis=ax), -1, axis=ax).ravel()
                                 for ax in (1, 0)] + [[_left_sum(fixed_values)]])

    # The stated sums in spec order (columns, then rows), each followed by its
    # mirror when a symmetric spec states rows only, then the total.
    stated = (spec.col_sums, spec.row_sums)
    line = np.concatenate([base + s.index * K + s.slice for base, s in zip((R, 0), stated)])
    value = np.concatenate([s.value for s in stated])
    equal = np.concatenate([s.equal for s in stated])
    mirrored = spec.symmetric and not len(spec.col_sums)
    if mirrored:
        line = np.stack([line, line + R], axis=1).ravel()
        value, equal = np.repeat(value, 2), np.repeat(equal, 2)
    if spec.total is not None:
        line = np.append(line, R + C)
        value = np.append(value, spec.total.value)
        equal = np.append(equal, spec.total.kind == "equal")
    target = value - pinned[line]
    short = np.flatnonzero(target < -REL_TOL)
    if short.size:
        label = _label(spec, int(short[0]), mirrored)
        raise Infeasible(f"{label}: fixed values exceed the stated sum")
    bound = ~equal & (target != math.inf)  # an infinite bound bounds nothing, as an infinite cap
    order = np.concatenate([np.flatnonzero(equal), np.flatnonzero(bound)])
    line, target = line[order], np.where(target[order] < 0.0, 0.0, target[order])

    con = np.repeat(np.arange(line.size), count[line])
    cell = by_line[_runs((np.cumsum(count) - count)[line], count[line])]
    M = _Incidence(np.concatenate([con, line.size + np.arange(cap.size)]),
                   np.concatenate([cell, cap_cell]), line.size + cap.size, n)
    # Each constraint's family: rows (lines below R), columns, the total
    # (line R + C) or element caps; a constraint with no free cell has none.
    size = np.bincount(M.con, minlength=M.k)
    family = np.where(size > 0, np.concatenate([np.searchsorted([R, R + C], line, side="right"),
                                                np.full(cap.size, 3)]), -1)
    families = tuple(_Family(cons, np.cumsum(size[cons]) - size[cons], size[cons],
                             M.cell[family[M.con] == f])
                     for f in range(4) if (cons := np.flatnonzero(family == f)).size)
    return _Program(shape, cells, fixed, fixed_values, M, np.concatenate([target, cap]),
                    int(np.count_nonzero(equal)), cap.size, families)


def _label(spec: ProblemSpec, t: int, mirrored: bool) -> str:
    """The name of constraint ``t`` of the stated sums (mirrors included) and the total."""
    marginal, mirror = divmod(t, 2) if mirrored else (t, 0)
    cols = len(spec.col_sums)
    if marginal == cols + len(spec.row_sums):
        return "total"
    axis, s = ("col", spec.col_sums) if marginal < cols else ("row", spec.row_sums)
    p = marginal if marginal < cols else marginal - cols
    at = f"{s.index[p]}/{s.slice[p] if spec.shape.is_3d else None}"
    return f"col {at} (mirror)" if mirror else f"{axis} {at}"


# ----------------------------------------------------------------------
# Dual entropy maximization
# ----------------------------------------------------------------------


def _psd_solve(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A basic solution of G y = b, G positive semidefinite with a gauge null
    space: pivoted Cholesky (LAPACK's ``dpstrf``) and two triangular solves
    (LAPACK's ``dtrtrs``) on the leading rank x rank block, the pivoted-out
    entries left at 0.

    ``dtrtrs`` is called as scipy.linalg's triangular solve calls it, so the
    bits are that solve's bits: on the block itself when it is F-contiguous
    (full rank), otherwise on its transpose with ``lower`` and ``trans``
    flipped.  A zero on the diagonal raises ``LinAlgError``, as there."""
    from scipy.linalg.lapack import dpstrf, dtrtrs  # loaded on first use, not at import

    L, piv, rank, _ = dpstrf(G, lower=1, tol=-1.0)
    y = np.zeros(b.size)
    if rank == 0:
        return y
    kept, L = piv[:rank] - 1, L[:rank, :rank]
    flip = not L.flags.f_contiguous
    A = L.T if flip else L
    z = b[kept]
    for trans in (0, 1):  # L z = b, then L^T y = z
        z, info = dtrtrs(A, z, lower=not flip, trans=trans ^ flip, overwrite_b=True)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"singular matrix: resolution failed at diagonal {info - 1}")
    y[kept] = z
    return y


def _sweep(program: _Program, reward: float, theta: np.ndarray) -> np.ndarray:
    """The multipliers after ``SWEEPS`` scaling sweeps from ``theta``.

    A sweep takes the constraint families in turn and scales each family's
    constraints to their targets at once: theta_c += ln(s_c / t_c), s_c the
    constraint's cell sum (Deming & Stephan 1940).  The family's
    constraints share no cell, so each one's cells reach its target.  A
    bound multiplier is clipped at 0: a bound scales its cells down, and up
    only while its multiplier stays positive (Bregman 1967).  A step is
    clipped at +-700, as the exponents are, so a target of 0 sends its
    cells to that clip."""
    M, n_eq = program.incidence, program.n_eq
    with np.errstate(divide="ignore"):  # a target of 0 steps by +700
        log_targets = np.log(program.targets)
    theta = theta.copy()
    u = reward - 1.0 - M.rmatvec(theta)  # the cells' exponents
    for _ in range(SWEEPS):
        for cons, start, count, cell in program.families:
            # summed as M.matvec sums, so a swept constraint meets the residual test
            s = np.add.reduceat(np.exp(np.minimum(np.maximum(u[cell], -700.0), 700.0)), start)
            step = np.minimum(np.maximum(np.log(s) - log_targets[cons], -700.0), 700.0)
            new = theta[cons] + step
            new = np.where(cons >= n_eq, np.maximum(new, 0.0), new)
            u[cell] -= np.repeat(new - theta[cons], count)
            theta[cons] = new
    return theta


def _dual_solve(program: _Program, reward: float = 0.0, theta0=None, tol: float = 1e-9):
    """Maximize -sum(x ln x) + reward * sum(x) over the program's constraints
    via the dual.

    The stationary primal point is x_c = exp(reward - 1 - sum of multipliers
    over constraints containing c); the dual, sum(x) + theta . targets, is
    smooth and convex with bound constraints only (inequality multipliers
    stay nonnegative).  From ``theta0`` (default zero), :func:`_sweep`'s
    scaling sweeps start it, and projected-Newton steps minimize it to a
    KKT residual of ``tol * 1e-3``, at most 40 of them.  Each step holds
    the active bounds (multiplier 0, gradient pointing out) at 0 and solves
    the free block of M diag(x) M^T + RIDGE res I by :func:`_psd_solve`,
    res being the residual: a direction the Gram matrix does not see
    follows the gradient.  The step is halved, at most 30 times, until its
    projection onto the bounds lowers the dual by 1e-4 of the gradient
    along it (Armijo), or lowers the residual with the dual up by no more
    than rounding, 1e-12 of its terms' magnitudes; the solve stops when
    none does.

    Returns the primal vector, the multipliers, the KKT residual, and the
    number of Newton steps, 0 when the sweeps reach the residual.
    """
    M, targets, n_eq = program.incidence, program.targets, program.n_eq

    def evaluate(theta: np.ndarray):
        """The primal point, the dual gradient, the KKT residual and the dual."""
        x = np.exp(np.minimum(np.maximum(reward - 1.0 - M.rmatvec(theta), -700.0), 700.0))
        g = targets - M.matvec(x)
        res = float(np.max(np.abs(g[:n_eq]), initial=0.0))
        # A bound with a positive multiplier must be tight; one at zero may
        # only be slack.  A nan term is skipped (np.fmax), not propagated.
        g_ub = g[n_eq:]
        ub_res = np.where(theta[n_eq:] > 1e-14, np.abs(g_ub), -g_ub)
        res = max(res, float(np.fmax.reduce(ub_res, initial=0.0)))
        return x, g, res, float(x.sum() + theta @ targets)

    theta = _sweep(program, reward,
                   np.zeros(targets.size) if theta0 is None else np.asarray(theta0, float))
    x, g, res, dual = evaluate(theta)
    steps = 0
    while res > tol * 1e-3 and steps < 40:
        free = np.ones(theta.size, dtype=bool)  # all but the active bounds
        free[n_eq:] = ~((theta[n_eq:] <= 1e-14) & (g[n_eq:] >= 0))
        G = M.gram(x)
        G.flat[::M.k + 1] += RIDGE * res
        if free.all():
            step = _psd_solve(G, -g)
        else:
            step = np.zeros_like(theta)
            step[free] = _psd_solve(G[np.ix_(free, free)], -g[free])
        steps += 1
        # the dual's rounding is its terms': their sum can cancel to near 0
        rounding = 1e-12 * float(x.sum() + np.abs(theta) @ targets)
        alpha = 1.0
        for _ in range(30):
            cand = theta + alpha * step
            cand[n_eq:] = np.maximum(cand[n_eq:], 0.0)
            cand_x, cand_g, cand_res, cand_dual = evaluate(cand)
            if (dual - cand_dual >= 1e-4 * (g @ (theta - cand))  # Armijo
                    or (cand_res < res and cand_dual - dual <= rounding)):
                theta, x, g, res, dual = cand, cand_x, cand_g, cand_res, cand_dual
                break
            alpha *= 0.5
        else:  # no step length is accepted
            break
    return x, theta, res, steps


def _check_feasible(program: _Program) -> None:
    """Raise :class:`Infeasible` when no matrix meets the constraints (a
    linear program with no objective)."""
    from scipy.optimize import linprog  # loaded on first use, not at import
    from scipy.sparse import csr_array  # already loaded by scipy.optimize

    M, n_eq, targets = program.incidence, program.n_eq, program.targets

    def rows(lo: int, hi: int):
        """Constraints lo..hi-1 as a sparse 0/1 matrix over the free cells."""
        if lo == hi:
            return None
        at = (M.con >= lo) & (M.con < hi)
        data = np.ones(np.count_nonzero(at))
        return csr_array((data, (M.con[at] - lo, M.cell[at])), shape=(hi - lo, M.n))

    res = linprog(
        np.zeros(M.n),
        A_ub=rows(n_eq, M.k),
        b_ub=targets[n_eq:] if M.k > n_eq else None,
        A_eq=rows(0, n_eq),
        b_eq=targets[:n_eq] if n_eq else None,
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise Infeasible(f"no feasible matrix: {res.message}")


def numeric_maxent(spec: ProblemSpec, objective: str = "H", tol: float = 1e-9) -> OracleResult:
    """Numerically maximize H (known total) or G (unknown total) over a spec.

    G = S ln S - sum(x ln x) is maximized by minorize-maximize rounds: S ln S
    is convex, so its tangent at a total t bounds it from below, and each
    round maximizes -sum(x ln x) + (1 + ln t) S over the program's own
    constraints, a dual solve warm-started from the last round's
    multipliers, then sets t to the new S.  The first t, the sum of every
    target, is at or above any feasible total.  The rounds stop once one
    moves S by at most ``1e-3 * tol`` relative; ``iterations`` sums over
    them.  A free cell in no constraint leaves G unbounded, and when every
    free cell lies in a constraint with target 0 the zero matrix is the only
    candidate.

    When the maximizer scales with the data (G always; H when the
    equalities fix the total), the constraints are solved divided by 2^e,
    the power of two at or below the largest mean cell value one of them
    asks for, and the free cells multiplied back, which is exact.  ``tol``
    and the reported residual are then relative to 2^e, and free cells
    below ``ZERO_REPORT`` times 2^e read 0.  A solve that stops above
    ``1e3 * tol`` raises :class:`Infeasible` when a linear program finds no
    feasible matrix, and :class:`NotConverged` otherwise.
    """
    if objective not in ("H", "G"):
        raise ValueError(f"objective must be 'H' or 'G', got {objective!r}")
    program = _build_program(spec)
    e = _exponent(program) if objective == "G" or _fixes_total(spec) else 0
    scaled = _scaled(program, e)

    def result(x: np.ndarray, iters: int, residual: float) -> OracleResult:
        if residual > 1e3 * tol:
            _check_feasible(scaled)
            raise NotConverged(f"dual residual {residual} above tolerance {tol}", residual)
        X = program.assemble(np.ldexp(np.where(x < ZERO_REPORT, 0.0, x), e))
        return OracleResult(X, objective, _objective_value(objective, X, e), residual <= tol,
                            iters, residual)

    if program.n == 0:
        return result(np.zeros(0), 0, 0.0)
    if objective == "H":
        x, _, residual, iters = _dual_solve(scaled, tol=tol)
        return result(x, iters, residual)

    M, targets = scaled.incidence, scaled.targets
    if np.bincount(M.cell, minlength=M.n).min() == 0:
        raise Infeasible("the total sum is unbounded under these constraints")
    zero = np.zeros(M.n, dtype=bool)
    zero[M.cell[targets[M.con] == 0.0]] = True
    if zero.all():
        if np.any(targets[:scaled.n_eq]):
            _check_feasible(scaled)
        return result(np.zeros(M.n), 0, 0.0)
    # Adding (r' - r) w to the multipliers (w = M.shift) moves every cell's
    # exponent by r' - r: each round starts where the last one ended, and the
    # first near cells of 1.
    w = M.shift
    t, reward, theta, iters = float(targets.sum()), 1.0, np.zeros(M.k), 0
    for _ in range(MM_ROUNDS):
        last, reward = reward, 1.0 + math.log(t)
        theta = theta + (reward - last) * w
        theta[scaled.n_eq:] = np.maximum(theta[scaled.n_eq:], 0.0)
        x, theta, residual, steps = _dual_solve(scaled, reward, theta, tol)
        iters += steps
        s, t = t, float(x.sum())
        if residual > 1e3 * tol or abs(t - s) <= 1e-3 * tol * s:
            return result(x, iters, residual)
    raise NotConverged(f"the total still moves after {MM_ROUNDS} rounds", residual)


def _fixes_total(spec: ProblemSpec) -> bool:
    """Whether the equalities fix the total: a total equality, or equality
    sums on every row (or every column) of every slice."""
    if spec.total is not None and spec.total.kind == "equal":
        return True
    return spec.sums["row"].known or spec.sums["col"].known


def _exponent(program: _Program) -> int:
    """e with 2^e at or below the largest finite mean target per member
    cell, and above half of it; 0 when every target is 0.  Divided by 2^e,
    the cells the constraints ask for are near the dual's start, 1/e."""
    M = program.incidence
    means = program.targets / np.maximum(np.bincount(M.con, minlength=M.k), 1)
    largest = float(np.max(means[np.isfinite(means)], initial=0.0))
    return math.frexp(largest)[1] - 1 if largest else 0


def _scaled(program: _Program, e: int) -> _Program:
    """The program with its targets divided by 2^e; the solve reads no fixed
    value."""
    return replace(program, targets=np.ldexp(program.targets, -e)) if e else program


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
    itself, and how many feasible matrices exist.  Guarded twice: an
    estimate of the search space above ``limit`` raises before any work is
    done, and the search raises once it visits more than ``BRUTE_NODES``
    nodes of its tree.
    """
    program = _build_program(spec)
    M, n, n_eq = program.incidence, program.n, program.n_eq
    targets, fixed = np.round(program.targets), np.round(program.fixed_values)
    with np.errstate(invalid="ignore"):  # inf - inf: an infinite value is no integer either
        off_target = np.flatnonzero(~(np.abs(program.targets - targets) <= 1e-9))
        off_fixed = np.flatnonzero(~(np.abs(program.fixed_values - fixed) <= 1e-9))
    if off_target.size:
        raise LikelymatError(
            f"enumeration needs integer data (target {program.targets[off_target[0]]})")
    if off_fixed.size:
        cell = tuple(int(a[off_fixed[0]]) for a in program.fixed)
        raise LikelymatError(
            f"enumeration needs integer data (fixed {cell} = {program.fixed_values[off_fixed[0]]})")

    # A cell's cap: the least target of the constraints that contain it.
    caps = np.full(n, np.inf)
    np.minimum.at(caps, M.cell, targets[M.con])
    if np.any(np.isinf(caps)):
        raise SearchSpaceTooLarge("some cell has no finite cap; enumeration is infinite")
    if math.prod((caps + 1.0).tolist()) > limit:
        raise SearchSpaceTooLarge(f"search space above the {limit} guard")
    caps = caps.astype(np.int64)

    # room[t]: what constraint t can still take; reach[t][c]: what the cells
    # c and after can still give equality t, at their caps.
    room = list(map(int, targets.tolist()))
    eq = M.con < n_eq
    reach = np.zeros((n_eq, n + 1), dtype=np.int64)
    np.add.at(reach, (M.con[eq], M.cell[eq]), caps[M.cell[eq]])
    reach = np.flip(np.cumsum(np.flip(reach, axis=1), axis=1), axis=1).tolist()
    order = np.argsort(M.cell, kind="stable")
    cons_of = np.split(M.con[order], np.cumsum(np.bincount(M.cell, minlength=n))[:-1])
    cons_of = [c.tolist() for c in cons_of]

    x = np.zeros(n, dtype=int)
    nodes = 0
    best_count = -1
    argmax: list[np.ndarray] = []
    n_feasible = 0
    fixed = list(map(int, fixed.tolist()))

    def realization_count(vec: np.ndarray) -> int:
        cells = fixed + vec.tolist()
        return math.prod(map(math.comb, accumulate(cells), cells))

    def rec(c: int):
        nonlocal best_count, argmax, n_feasible, nodes
        nodes += 1
        if nodes > BRUTE_NODES:
            raise SearchSpaceTooLarge(f"enumeration past the {BRUTE_NODES}-node guard")
        if c == n:
            n_feasible += 1
            cnt = realization_count(x)
            if cnt > best_count:
                best_count = cnt
                argmax = [program.assemble(x.astype(float))]
            elif cnt == best_count:
                argmax.append(program.assemble(x.astype(float)))
            return
        mine = cons_of[c]  # never empty: a cell outside every constraint has no cap
        for v in range(min(room[t] for t in mine) + 1):
            for t in mine:
                room[t] -= v
            # an equality must still be reachable from the remaining cells
            if all(room[t] <= reach[t][c + 1] for t in range(n_eq)):
                x[c] = v
                rec(c + 1)
            for t in mine:
                room[t] += v
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
    program = _build_program(spec)  # on the caller's spec object, which keeps it
    spec = validate_spec(spec)
    spec = replace(spec, col_sums=spec.sums["col"])  # a symmetric spec's mirrored columns
    X = solution.values if isinstance(solution, TensorSolution) else solution.matrix
    X = np.asarray(X, dtype=float)
    violations: list[str] = []
    max_res = 0.0

    finite = bool(np.isfinite(X).all())
    if not finite:
        violations.append("non-finite entries")
    if np.any(X < -tol):
        violations.append("negative entries")

    got, want = X[program.fixed], program.fixed_values
    err = np.abs(got - want)
    max_res = float(np.max(err, initial=max_res))
    for f in np.flatnonzero(err > tol * np.maximum(1.0, np.abs(want))).tolist():
        cell = tuple(int(a[f]) for a in program.fixed)
        violations.append(f"fixed cell {cell}: {got[f]} != {want[f]}")

    equal, val, bound = constraint_values(spec, X)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is nan, as on floats
        err = np.where(equal, np.abs(val - bound), val - bound)
        broken = err > tol * np.maximum(1.0, np.abs(bound))
    # a nan residual is skipped, as max() skips it; a slack bound counts no residual
    max_res = float(np.fmax.reduce(err[equal | broken], initial=max_res))
    violations += [_violation(spec, p, float(val[p]), "!=" if equal[p] else "> bound")
                   for p in np.flatnonzero(broken).tolist()]
    feasible = not violations

    product_form, pf_res = _product_form_ok(program, X, tol)
    if not product_form:
        violations.append(f"product form residual {pf_res}")
    # max() skips a nan residual, so a non-finite entry sets it outright
    max_res = max(max_res, pf_res) if finite else math.inf

    multiplier_range, slackness = True, True
    if isinstance(solution, Solution):
        for axis, mult in (("row", solution.row_multipliers), ("col", solution.col_multipliers)):
            if mult is None or spec.sums[axis].kinds != {"upper"}:
                continue
            # a symmetric spec's column bounds are its row bounds
            f, bound = np.asarray(mult, dtype=float), spec.sums[axis].values()
            sums = X.sum(axis=1 if axis == "row" else 0)
            # a zero bound pins its line at zero: its factor is exactly 0
            outside = ~np.where(bound == 0.0, f == 0.0, (0.0 < f) & (f <= 1.0 + tol))
            with np.errstate(invalid="ignore"):  # inf - inf; an infinite bound is never slack
                slack = (np.isfinite(bound) & (bound - sums > tol * np.maximum(1.0, bound))
                         & (np.abs(f - 1.0) > tol))
            multiplier_range = multiplier_range and not outside.any()
            slackness = slackness and not slack.any()
            for i in np.flatnonzero(outside | slack).tolist():
                if outside[i]:
                    allowed = "{0}" if bound[i] == 0.0 else "(0, 1]"
                    violations.append(f"{axis} {i}: multiplier {f[i]} outside {allowed}")
                if slack[i]:
                    violations.append(f"{axis} {i}: slack bound but multiplier {f[i]} != 1")

    return KktReport(
        feasible=feasible,
        product_form=product_form,
        multiplier_range=multiplier_range,
        complementary_slackness=slackness,
        max_residual=max_res,
        violations=tuple(violations),
    )


def _violation(spec: ProblemSpec, p: int, val: float, relation: str) -> str:
    """The message for constraint ``p`` of :func:`constraint_values` broken
    at achieved value ``val``."""
    for axis, s in (("col", spec.col_sums), ("row", spec.row_sums)):
        if p < len(s):
            return f"{axis} {s.index[p]}: sum {val} {relation} {float(s.value[p])}"
        p -= len(s)
    if spec.total is not None:
        if p == 0:
            return f"total {val} {relation} {spec.total.value}"
        p -= 1
    i, j, _ = spec.element_caps
    return f"element ({i[p]},{j[p]}) exceeds its bound"


def _product_form_ok(program: _Program, X: np.ndarray, tol: float):
    """Least-squares fit of log-entries on the program's marginal and total rows.

    The log of every positive free entry should be a sum of one factor per
    marginal and total touching it, plus one for its element cap.  A cap's
    factor touches its cell alone, so a cell at (or over, which feasibility
    reports) its cap fits exactly and leaves the fit; a slack cap has factor
    1, so its cell stays in.  The fit solves the normal equations
    M_w M_w^T theta = M_w log x over those rows, with M_w the incidence
    restricted to the cells in the fit, by :func:`_psd_solve`: the system is
    consistent, so every solution fits the same values.  The residual is
    measured cell by cell.  It reads no multiplier of the solver's.
    """
    M, rows = program.incidence, program.incidence.k - program.n_caps
    values = X[tuple(program.cells.T)]
    keep = ~(values <= ZERO_REPORT)
    if not np.isfinite(values[keep]).all():
        return False, math.nan  # no finite factors make a nan or infinite entry
    cell, cap = M.cell[M.cell.size - program.n_caps:], program.targets[rows:]
    keep[cell[values[cell] - cap >= -tol * np.maximum(1.0, cap)]] = False
    if not keep.any():
        return True, 0.0
    b = np.log(values, out=np.zeros(program.n), where=keep)
    w = keep.astype(float)
    theta = np.concatenate([_psd_solve(M.gram(w)[:rows, :rows], M.matvec(w * b)[:rows]),
                            np.zeros(program.n_caps)])
    resid = float(np.max(np.abs(M.rmatvec(theta) - b)[keep]))
    return resid <= max(tol, 1e-7), resid
