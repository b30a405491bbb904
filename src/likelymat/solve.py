"""Dispatch a validated problem to its closed-form solver."""

from __future__ import annotations

import math

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
    solve_sym_3d_fixed_diagonal,
    solve_sym_block_diagonal,
    solve_sym_fixed_diagonal,
    solve_sym_total_row_col_bounds,
)

__all__ = ["solve"]


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
    u = np.array(spec.axis_values("row", kind="equal"))
    v = u if spec.symmetric else np.array(spec.axis_values("col", kind="equal"))
    return solve_gravity_partial_cols(u, v, spec.shape.cols)


def _solve_row_bounds(spec: ProblemSpec, tol: float) -> Solution:
    return solve_row_bounds(np.array(spec.axis_values("row")), spec.shape.cols)


def _solve_total_row_bounds(spec: ProblemSpec, tol: float) -> Solution:
    u = np.array(spec.axis_values("row"))
    return solve_total_row_bounds(spec.total.value, u, spec.shape.cols)


def _solve_bounded_total(spec: ProblemSpec, tol: float) -> Solution:
    u = np.array(spec.axis_values("row"))
    return solve_bounded_total_row_bounds(spec.total.value, u, spec.shape.cols)


def _solve_row_col_bounds(spec: ProblemSpec, tol: float) -> Solution:
    u = np.array(spec.axis_values("row"))
    v = u.copy() if spec.symmetric else np.array(spec.axis_values("col"))
    return solve_row_col_bounds(u, v)


def _solve_row_elem(spec: ProblemSpec, tol: float) -> Solution:
    n, m = spec.shape.rows, spec.shape.cols
    u = np.array(spec.axis_values("row"))
    W = np.full((n, m), math.inf)
    for e in spec.element_bounds:
        W[e.i, e.j] = min(W[e.i, e.j], e.ub)
    return solve_row_bounds_elem_bounds(u, W)


def _solve_sym_total(spec: ProblemSpec, tol: float) -> Solution:
    u = np.array(spec.axis_values("row"))
    return solve_sym_total_row_col_bounds(spec.total.value, u)


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


def _solve_sym_blocks(spec: ProblemSpec, tol: float) -> Solution:
    kinds = spec.axis_kinds("row")
    u = np.array(spec.axis_values("row", kind=next(iter(kinds))))
    s = float(u.sum())
    _check_block_total(spec, s)
    return solve_sym_block_diagonal(
        u, spec.fixed_blocks, s, bounds_mode=(kinds == {"upper"}), tol=tol
    )


def _solve_sym_3d(spec: ProblemSpec, tol: float) -> TensorSolution:
    n, K = spec.shape.rows, spec.shape.slices
    u = np.zeros((n, K))
    for c in spec.marginals:
        if c.axis == "row":
            u[c.index, c.slice_index] = c.value
    s = float(u.sum())
    if spec.total is not None and not close(spec.total.value, s):
        raise InfeasibleMarginals(
            f"total {spec.total.value} disagrees with the section-sum total {s}"
        )
    return solve_sym_3d_fixed_diagonal(u, s, tol=tol)


_HANDLERS = {
    SolverCase.GRAVITY_PARTIAL_COLS: _solve_gravity,
    SolverCase.ROW_BOUNDS: _solve_row_bounds,
    SolverCase.TOTAL_ROW_BOUNDS: _solve_total_row_bounds,
    SolverCase.BOUNDED_TOTAL_ROW_BOUNDS: _solve_bounded_total,
    SolverCase.ROW_COL_BOUNDS: _solve_row_col_bounds,
    SolverCase.ROW_BOUNDS_ELEM_BOUNDS: _solve_row_elem,
    SolverCase.SYM_TOTAL_ROW_COL_BOUNDS: _solve_sym_total,
    SolverCase.SYM_FIXED_DIAGONAL: _solve_sym_blocks,
    SolverCase.SYM_BLOCK_DIAGONAL: _solve_sym_blocks,
    SolverCase.SYM_3D_FIXED_DIAGONAL: _solve_sym_3d,
}
