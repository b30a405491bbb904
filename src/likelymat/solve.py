"""Dispatch a validated problem to its closed-form solver."""

from __future__ import annotations

from .constraints import (
    ProblemSpec,
    SolverCase,
    classify,
    is_column_form,
    transpose,
    validate_spec,
)
from .errors import UnsupportedCase
from .rect import (
    _total,
    solve_bounded_total_row_bounds,
    solve_gravity_partial_cols,
    solve_row_bounds,
    solve_row_bounds_elem_bounds,
    solve_row_col_bounds,
    solve_total_row_bounds,
)
from .solution import Solution, TensorSolution

# solve calls each solver by its name here at call time, so the benchmark's
# traced run (perfbench/tracing.py) can wrap it; so solve_sym_fixed_diagonal
# stays imported, though fixed diagonals dispatch to the block solver.
from .symmetric import (
    _half_total,
    _slice_problems,
    _slices,
    solve_sym_3d_fixed_diagonal,
    solve_sym_block_diagonal,
    solve_sym_fixed_diagonal,
    solve_sym_total_row_col_bounds,
)

__all__ = ["solve", "half_total_check"]


def solve(spec: ProblemSpec) -> Solution | TensorSolution:
    """Validate, classify, and solve a problem description.

    Each case calls its closed-form solver on the spec's arrays.  The only
    numerics left is the fixed-entry cases' scalar root, which
    :func:`~likelymat.symmetric.solve_root_lambda` bisects to floating-point
    exhaustion, so there is no tolerance to set.  A column-form spec is
    solved as its transpose, and the solution transposed back.
    """
    spec = validate_spec(spec)
    if is_column_form(spec):
        return solve(transpose(spec)).transposed()
    case = classify(spec)
    if case is SolverCase.UNSUPPORTED:
        # before any per-row array: an unsupported spec may have 10^9 rows
        raise UnsupportedCase(
            "no closed form covers this constraint pattern; see the case table"
        )
    u, m, total = spec.sums["row"].values(), spec.shape.cols, spec.total
    if case is SolverCase.GRAVITY_PARTIAL_COLS:
        return solve_gravity_partial_cols(u, spec.sums["col"].values(), m)
    if case is SolverCase.ROW_BOUNDS:
        return solve_row_bounds(u, m)
    if case is SolverCase.TOTAL_ROW_BOUNDS:
        return solve_total_row_bounds(total.value, u, m)
    if case is SolverCase.BOUNDED_TOTAL_ROW_BOUNDS:
        return solve_bounded_total_row_bounds(total.value, u, m)
    if case is SolverCase.ROW_COL_BOUNDS:
        return solve_row_col_bounds(u, spec.sums["col"].values())
    if case is SolverCase.ROW_BOUNDS_ELEM_BOUNDS:
        return solve_row_bounds_elem_bounds(u, spec.element_caps, m)
    if case is SolverCase.SYM_TOTAL_ROW_COL_BOUNDS:
        return solve_sym_total_row_col_bounds(total.value, u)
    # the fixed-entry cases: every row sum (per slice in 3-D) is stated
    s = _total(u)
    if case is SolverCase.SYM_3D_FIXED_DIAGONAL:
        return solve_sym_3d_fixed_diagonal(u, s)
    return solve_sym_block_diagonal(
        u, spec.fixed_cells, s, bounds_mode=(spec.sums["row"].kinds == {"upper"})
    )


def half_total_check(spec: ProblemSpec) -> list:
    """Without solving, the fixed-entry solvers' checks of a spec with fixed
    blocks and every row sum: each slice's half-total check as (slice index,
    report) pairs, None in 2-D; if all pass in a fixed-entry case, the later
    checks raise what ``solve`` raises (fixed values over sums, no root)."""
    spec = validate_spec(spec)
    u = spec.sums["row"].values()
    sums, c, totals, scale, unit = _slices(u, _total(u), spec.fixed_cells)
    reports = [(None if u.ndim == 1 else k, _half_total(sums[:, k], c, t, unit))
               for k, t in enumerate(totals) if t is not None]
    if all(report.ok for _, report in reports) and classify(spec) is not SolverCase.UNSUPPORTED:
        _slice_problems(sums, c, totals, scale, unit)
    return reports
