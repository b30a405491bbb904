"""Dispatch a validated problem to its closed-form solver."""

from __future__ import annotations

import numpy as np

from .constraints import (
    ProblemSpec,
    SolverCase,
    classify,
    close,
    is_column_form,
    transpose,
    validate_spec,
)
from .errors import InfeasibleMarginals, UnsupportedCase
from .rect import (
    solve_bounded_total_row_bounds,
    solve_gravity_partial_cols,
    solve_row_bounds,
    solve_row_bounds_elem_bounds,
    solve_row_col_bounds,
    solve_total_row_bounds,
)
from .solution import Solution, TensorSolution

# solve_sym_fixed_diagonal is unused here (fixed diagonals dispatch to the
# block solver) but stays a module attribute: the benchmark's traced run
# (perfbench/tracing.py) wraps every solver of this module by name.
from .symmetric import (
    _total,
    half_total_reports,
    solve_sym_3d_fixed_diagonal,
    solve_sym_block_diagonal,
    solve_sym_fixed_diagonal,
    solve_sym_total_row_col_bounds,
)

__all__ = ["solve", "half_total_check"]


def solve(spec: ProblemSpec, tol: float = 1e-12) -> Solution | TensorSolution:
    """Validate, classify, and solve a problem description.

    ``tol`` is the residual tolerance of the scalar root solves; the
    closed-form cases have no other numeric knobs.  A column-form spec is
    solved as its transpose, and the solution transposed back.
    """
    spec = validate_spec(spec)
    if is_column_form(spec):
        return solve(transpose(spec), tol).transposed()
    case = classify(spec)
    handler = _HANDLERS.get(case)
    if handler is None:
        raise UnsupportedCase(
            "no closed form covers this constraint pattern; see the case table"
        )
    return handler(spec, tol)


def _solve_gravity(spec: ProblemSpec, tol: float) -> Solution:
    u, v = spec.sums["row"].values(), spec.sums["col"].values()
    return solve_gravity_partial_cols(u, v, spec.shape.cols)


def _solve_row_bounds(spec: ProblemSpec, tol: float) -> Solution:
    """Row bounds alone, or with a known or a bounded total."""
    u, m, total = spec.sums["row"].values(), spec.shape.cols, spec.total
    if total is None:
        return solve_row_bounds(u, m)
    solver = solve_total_row_bounds if total.kind == "equal" else solve_bounded_total_row_bounds
    return solver(total.value, u, m)


def _solve_row_col_bounds(spec: ProblemSpec, tol: float) -> Solution:
    return solve_row_col_bounds(spec.sums["row"].values(), spec.sums["col"].values())


def _solve_row_elem(spec: ProblemSpec, tol: float) -> Solution:
    u = spec.sums["row"].values()
    return solve_row_bounds_elem_bounds(u, spec.element_caps, spec.shape.cols)


def _solve_sym_total(spec: ProblemSpec, tol: float) -> Solution:
    return solve_sym_total_row_col_bounds(spec.total.value, spec.sums["row"].values())


def _check_block_total(spec: ProblemSpec, s: float) -> None:
    if spec.total is None:
        return
    t = spec.total
    if t.kind == "equal" and close(t.value, s):
        return
    if t.kind == "upper" and t.value >= s * (1 - 1e-12):
        return
    raise InfeasibleMarginals(
        f"total constraint {t.value} conflicts with the saturated sum total {s}"
    )


def _node_sums(spec: ProblemSpec) -> tuple[np.ndarray, float]:
    """The row sums the fixed-entry solvers read, per row and slice (n x K)
    in 3-D, and their total; every row sum is stated."""
    u = spec.sums["row"].values()
    return u, _total(u)


def half_total_check(spec: ProblemSpec) -> list:
    """The half-total check the fixed-entry solvers run on a spec with fixed
    blocks and every row sum, without solving: (slice index, report) pairs
    from :func:`~likelymat.symmetric.half_total_reports`."""
    spec = validate_spec(spec)
    u, s = _node_sums(spec)
    return half_total_reports(u, s, spec.fixed_cells)


def _solve_sym_blocks(spec: ProblemSpec, tol: float) -> Solution:
    u, s = _node_sums(spec)
    _check_block_total(spec, s)
    return solve_sym_block_diagonal(
        u, spec.fixed_cells, s, bounds_mode=(spec.sums["row"].kinds == {"upper"}), tol=tol
    )


def _solve_sym_3d(spec: ProblemSpec, tol: float) -> TensorSolution:
    u, s = _node_sums(spec)
    _check_block_total(spec, s)
    return solve_sym_3d_fixed_diagonal(u, s, tol=tol)


_HANDLERS = {
    SolverCase.GRAVITY_PARTIAL_COLS: _solve_gravity,
    SolverCase.ROW_BOUNDS: _solve_row_bounds,
    SolverCase.TOTAL_ROW_BOUNDS: _solve_row_bounds,
    SolverCase.BOUNDED_TOTAL_ROW_BOUNDS: _solve_row_bounds,
    SolverCase.ROW_COL_BOUNDS: _solve_row_col_bounds,
    SolverCase.ROW_BOUNDS_ELEM_BOUNDS: _solve_row_elem,
    SolverCase.SYM_TOTAL_ROW_COL_BOUNDS: _solve_sym_total,
    SolverCase.SYM_FIXED_DIAGONAL: _solve_sym_blocks,
    SolverCase.SYM_BLOCK_DIAGONAL: _solve_sym_blocks,
    SolverCase.SYM_3D_FIXED_DIAGONAL: _solve_sym_3d,
}
