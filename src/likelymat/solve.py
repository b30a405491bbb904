"""The case table: which closed form a validated problem takes, and its solver.

:data:`CASES` holds one ordered table per form (3-D, symmetric,
rectangular), as README's table pairs what is known with the solution's
shape.  Each row is a case, its rule over a spec's :class:`Pattern`, and its
solver call.  Within a form the first row whose rule holds wins, and no
match is ``UNSUPPORTED``.  Each call looks its solver up here by name at
call time, so the benchmark's traced run (perfbench/tracing.py) can wrap it.
"""

from __future__ import annotations

from typing import NamedTuple

from .constraints import ProblemSpec, SolverCase, close, is_column_form, transpose, validate_spec
from .errors import UnsupportedCase
from .rect import (_total, solve_bounded_total_row_bounds, solve_gravity_partial_cols,
                   solve_row_bounds, solve_row_bounds_elem_bounds, solve_row_col_bounds,
                   solve_total_row_bounds)
from .solution import Solution
# solve_sym_fixed_diagonal is for the traced run: fixed diagonals take the block solver
from .symmetric import (solve_sym_3d_fixed_diagonal, solve_sym_block_diagonal,
                        solve_sym_fixed_diagonal, solve_sym_total_row_col_bounds)  # noqa: F401

__all__ = ["solve", "classify", "row_sums_only", "CASES"]

C = SolverCase
EQUAL, UPPER = frozenset({"equal"}), frozenset({"upper"})


class Pattern(NamedTuple):
    """What a row-form spec states, as the rules read it; no per-row array."""

    rows: frozenset  # the row sums' kinds: "equal", "upper", both or none
    cols: frozenset  # the column sums' kinds
    total: str | None  # the total's kind, None if unstated
    complete: bool  # every row sum stated
    known: bool  # every row sum stated and equal
    caps: bool  # some element capped
    blocks: int  # fixed blocks
    covered: int  # nodes in a fixed block
    nodes: int  # the row-form spec's rows
    zero: bool  # every fixed value is zero


def _pattern(spec: ProblemSpec) -> tuple[str, Pattern]:
    """A validated spec's form and pattern; a column-form spec's pattern is
    its transpose's (:func:`~likelymat.constraints.is_column_form`)."""
    rows, cols, nodes = spec.sums["row"], spec.sums["col"], spec.shape.rows
    if is_column_form(spec):
        rows, cols, nodes = cols, rows, spec.shape.cols
    c = spec.fixed_cells
    form = "3d" if spec.shape.is_3d else "symmetric" if spec.symmetric else "rect"
    total = None if spec.total is None else spec.total.kind
    return form, Pattern(frozenset(rows.kinds), frozenset(cols.kinds), total, rows.complete,
                         rows.known, bool(spec.element_caps[2].size), len(c), c.nodes.size,
                         nodes, not c.values.any())


def _free(p: Pattern) -> bool:  # no element caps and no fixed block
    return not p.caps and not p.blocks


def _fixed(p: Pattern) -> bool:  # fixed blocks, no caps, every row sum stated, of one kind
    return not p.caps and p.blocks > 0 and p.complete and len(p.rows) == 1


def _gravity(spec, u):
    return solve_gravity_partial_cols(u, spec.sums["col"].values(), spec.shape.cols)


def _row_col_bounds(spec, u):
    return solve_row_col_bounds(u, spec.sums["col"].values())


def _fixed_entries(spec, u):
    return solve_sym_block_diagonal(
        u, spec.fixed_cells, _total(u), bounds_mode=spec.sums["row"].kinds == {"upper"})


# form -> its rows (case, rule over the Pattern, solver call on (spec, row sums))
CASES = {
    "3d": (
        (C.SYM_3D_FIXED_DIAGONAL,  # every slice's row sums, zero diagonal or none fixed
         lambda p: not p.caps and p.known
         and (not p.blocks or p.zero and p.covered == p.blocks == p.nodes),
         lambda spec, u: solve_sym_3d_fixed_diagonal(u, _total(u))),
    ),
    "symmetric": (
        (C.SYM_FIXED_DIAGONAL,  # the diagonal (partly) fixed
         lambda p: _fixed(p) and p.covered == p.blocks, _fixed_entries),
        (C.SYM_BLOCK_DIAGONAL,  # diagonal blocks covering every node
         lambda p: _fixed(p) and p.covered == p.nodes, _fixed_entries),
        (C.SYM_TOTAL_ROW_COL_BOUNDS,
         lambda p: _free(p) and p.rows == UPPER and p.total == "equal",
         lambda spec, u: solve_sym_total_row_col_bounds(spec.total.value, u)),
        (C.GRAVITY_PARTIAL_COLS,
         lambda p: _free(p) and p.known, _gravity),
        (C.ROW_COL_BOUNDS,
         lambda p: _free(p) and p.rows == UPPER and p.total is None, _row_col_bounds),
    ),
    "rect": (
        (C.ROW_BOUNDS_ELEM_BOUNDS,
         lambda p: p.caps and not p.blocks and p.rows <= UPPER and not p.cols
         and p.total is None,
         lambda spec, u: solve_row_bounds_elem_bounds(u, spec.element_caps, spec.shape.cols)),
        (C.GRAVITY_PARTIAL_COLS,  # all row sums, some column sums
         lambda p: _free(p) and p.known and p.cols <= EQUAL, _gravity),
        (C.ROW_COL_BOUNDS,
         lambda p: _free(p) and p.rows == p.cols == UPPER and p.total is None, _row_col_bounds),
        (C.ROW_BOUNDS,
         lambda p: _free(p) and p.rows == UPPER and not p.cols and p.total is None,
         lambda spec, u: solve_row_bounds(u, spec.shape.cols)),
        (C.TOTAL_ROW_BOUNDS,
         lambda p: _free(p) and p.rows <= UPPER and not p.cols and p.total == "equal",
         lambda spec, u: solve_total_row_bounds(spec.total.value, u, spec.shape.cols)),
        (C.BOUNDED_TOTAL_ROW_BOUNDS,
         lambda p: _free(p) and p.rows <= UPPER and not p.cols and p.total == "upper",
         lambda spec, u: solve_bounded_total_row_bounds(spec.total.value, u, spec.shape.cols)),
    ),
}

# the fixed-entry cases, which also need a total that admits saturation
SATURATING = {C.SYM_FIXED_DIAGONAL, C.SYM_BLOCK_DIAGONAL, C.SYM_3D_FIXED_DIAGONAL}
_CALLS = {case: call for rows in CASES.values() for case, _, call in rows}


def _total_admits_saturation(spec: ProblemSpec) -> bool:
    """Whether a stated total admits the fixed-entry construction, which
    saturates every row sum: it must equal their sum s, or as a bound not
    fall below it."""
    t = spec.total
    if t is None:
        return True
    s = _total(spec.sums["row"].values())  # past the float range inf
    return close(t.value, s) if t.kind == "equal" else t.value >= s * (1 - 1e-12)


def classify(spec: ProblemSpec) -> SolverCase:
    """The case of the first row of the spec's form in :data:`CASES` whose
    rule holds (and, for a fixed-entry case, whose total admits
    saturation), ``UNSUPPORTED`` if none does.  A column-form spec takes its
    transpose's row-based case, and :func:`solve` solves it transposed."""
    if not spec.validated:
        spec = validate_spec(spec)
    form, p = _pattern(spec)
    return next((case for case, rule, _ in CASES[form] if rule(p)
                 and (case not in SATURATING or _total_admits_saturation(spec))),
                C.UNSUPPORTED)


def solve(spec: ProblemSpec) -> Solution:
    """Validate, classify, and solve a problem description by its case's call.

    The only numerics left is the fixed-entry cases' root per slice, which
    :func:`~likelymat.symmetric._bisect` bisects, all slices in lockstep, to
    floating-point exhaustion, so there is no tolerance to set.  A
    column-form spec is solved as its transpose, and the solution transposed
    back.
    """
    spec = validate_spec(spec)
    if is_column_form(spec):
        return solve(transpose(spec)).transposed()
    case = classify(spec)
    if case is C.UNSUPPORTED:
        # before any per-row array: an unsupported spec may have 10^9 rows
        raise UnsupportedCase("no closed form covers this constraint pattern; see the case table")
    return _CALLS[case](spec, spec.sums["row"].values())


def row_sums_only(spec: ProblemSpec) -> bool:
    """Whether a validated spec states every row sum and nothing else, on a
    rectangular 2-D form: the problems whose realizations ``count`` counts.
    It reads the rows as stated, so a column-form spec is refused, and so is
    a symmetric one, whose column sums are its row sums."""
    form, p = _pattern(spec)
    return not is_column_form(spec) and form == "rect" and _free(p) and p.complete \
        and not p.cols and p.total is None

