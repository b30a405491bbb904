"""Declarative constraint model: validation, consistency checks, classification.

A :class:`ProblemSpec` describes what is known about a nonnegative matrix (or
3-dimensional array): equality or upper-bound constraints on row sums, column
sums, the total sum, individual elements, and square blocks whose entries are
fixed outright.  :func:`validate_spec` normalizes and feasibility-checks a
spec, :func:`consistency_check_blocks` tests the strict half-total condition
that fixed blocks must satisfy, and :func:`classify` maps a validated spec to
the closed-form solver that handles it.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import (
    ConsistencyViolation,
    IndexOutOfRange,
    InfeasibleMarginals,
    NegativeValue,
    ShapeMismatch,
)

__all__ = [
    "REL_TOL",
    "Shape",
    "MarginalConstraint",
    "TotalConstraint",
    "ElementBound",
    "FixedBlock",
    "ProblemSpec",
    "constraint_values",
    "transpose",
    "SolverCase",
    "ConsistencyReport",
    "validate_spec",
    "consistency_check_blocks",
    "classify",
]

# Relative tolerance for equality checks between user-supplied sums.
# Inputs are decimal text, so exact float equality would be too strict.
REL_TOL = 1e-9

INF = math.inf


def close(a: float, b: float, rtol: float = REL_TOL) -> bool:
    """Relative closeness with an absolute floor of ``rtol`` near zero."""
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class Shape:
    """Dimensions of the unknown array: ``rows`` x ``cols`` (x ``slices``)."""

    rows: int
    cols: int
    slices: int | None = None

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ShapeMismatch(f"shape must be positive, got {self.rows}x{self.cols}")
        if self.slices is not None and self.slices < 1:
            raise ShapeMismatch(f"slice count must be positive, got {self.slices}")

    @property
    def is_3d(self) -> bool:
        return self.slices is not None


@dataclass(frozen=True)
class MarginalConstraint:
    """A constraint on one row or column sum.

    ``kind`` is ``"equal"`` (the sum is known) or ``"upper"`` (the sum is
    bounded above).  For 3-dimensional problems, ``slice_index`` selects the
    slice whose section sum is constrained.
    """

    axis: str  # "row" | "col"
    index: int
    kind: str  # "equal" | "upper"
    value: float
    slice_index: int | None = None

    def __post_init__(self):
        if self.axis not in ("row", "col"):
            raise ShapeMismatch(f"marginal axis must be 'row' or 'col', got {self.axis!r}")
        if self.kind not in ("equal", "upper"):
            raise ShapeMismatch(f"marginal kind must be 'equal' or 'upper', got {self.kind!r}")
        if not self.value >= 0:
            raise NegativeValue(f"{self.axis} {self.index}: marginal value {self.value} < 0")


@dataclass(frozen=True)
class TotalConstraint:
    """Known total sum (``equal``) or an upper bound on it (``upper``)."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("equal", "upper"):
            raise ShapeMismatch(f"total kind must be 'equal' or 'upper', got {self.kind!r}")
        if not self.value >= 0:
            raise NegativeValue(f"total value {self.value} < 0")


@dataclass(frozen=True)
class ElementBound:
    """Upper bound on a single element: x[i, j] <= ub."""

    i: int
    j: int
    ub: float

    def __post_init__(self):
        if not self.ub >= 0:
            raise NegativeValue(f"element bound at ({self.i},{self.j}) is negative")


@dataclass(frozen=True)
class FixedBlock:
    """A square submatrix pinned to given values.

    ``index_set`` lists the node indices the block covers; the submatrix of
    the unknown with rows and columns in ``index_set`` is constrained to equal
    ``matrix`` (size ``len(index_set)`` squared, stored as nested tuples).
    """

    index_set: tuple[int, ...]
    matrix: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        k = len(self.index_set)
        if k == 0:
            raise ShapeMismatch("fixed block has an empty index set")
        if len(set(self.index_set)) != k:
            raise ShapeMismatch(f"fixed block indices {self.index_set} contain duplicates")
        if len(self.matrix) != k or any(len(row) != k for row in self.matrix):
            raise ShapeMismatch(
                f"fixed block over {k} indices needs a {k}x{k} matrix, "
                f"got {len(self.matrix)} rows"
            )
        for row in self.matrix:
            for v in row:
                if not v >= 0:
                    raise NegativeValue(f"fixed block value {v} < 0")

    @property
    def value_sum(self) -> float:
        """Total of the fixed values (w_II)."""
        return sum(sum(row) for row in self.matrix)

    def row_sums(self) -> tuple[float, ...]:
        return tuple(sum(row) for row in self.matrix)

    def col_sums(self) -> tuple[float, ...]:
        return tuple(sum(row[j] for row in self.matrix) for j in range(len(self.index_set)))


class SolverCase(enum.Enum):
    """Closed-form case a validated spec routes to."""

    GRAVITY_PARTIAL_COLS = "gravity_partial_cols"
    ROW_BOUNDS = "row_bounds"
    TOTAL_ROW_BOUNDS = "total_row_bounds"
    BOUNDED_TOTAL_ROW_BOUNDS = "bounded_total_row_bounds"
    ROW_COL_BOUNDS = "row_col_bounds"
    ROW_BOUNDS_ELEM_BOUNDS = "row_bounds_elem_bounds"
    SYM_TOTAL_ROW_COL_BOUNDS = "sym_total_row_col_bounds"
    SYM_FIXED_DIAGONAL = "sym_fixed_diagonal"
    SYM_3D_FIXED_DIAGONAL = "sym_3d_fixed_diagonal"
    SYM_BLOCK_DIAGONAL = "sym_block_diagonal"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class ProblemSpec:
    """Full declarative description of shape and constraints."""

    shape: Shape
    marginals: tuple[MarginalConstraint, ...] = ()
    total: TotalConstraint | None = None
    element_bounds: tuple[ElementBound, ...] = ()
    fixed_blocks: tuple[FixedBlock, ...] = ()
    symmetric: bool = False
    validated: bool = field(default=False, compare=False)

    # -- accessors used throughout the solvers ---------------------------

    def marginal_map(self, axis: str) -> dict:
        """Map (index, slice_index) -> constraint for one axis."""
        return {
            (c.index, c.slice_index): c for c in self.marginals if c.axis == axis
        }

    def axis_values(self, axis: str, kind: str | None = None) -> list[float]:
        """Per-index values for one axis of a 2-D spec, +inf where absent.

        With ``kind`` given, constraints of the other kind raise
        :class:`ShapeMismatch` (the caller expected a homogeneous axis).
        """
        n = self.shape.rows if axis == "row" else self.shape.cols
        out = [INF] * n
        for c in self.marginals:
            if c.axis != axis:
                continue
            if kind is not None and c.kind != kind:
                raise ShapeMismatch(f"expected only {kind!r} {axis} constraints")
            out[c.index] = c.value
        return out

    def axis_kinds(self, axis: str) -> set[str]:
        return {c.kind for c in self.marginals if c.axis == axis}

    def has_axis(self, axis: str) -> bool:
        return any(c.axis == axis for c in self.marginals)

    def axis_complete(self, axis: str) -> bool:
        """True when every index (and slice, in 3-D) on the axis is constrained."""
        n = self.shape.rows if axis == "row" else self.shape.cols
        slices = range(self.shape.slices) if self.shape.is_3d else (None,)
        have = {(c.index, c.slice_index) for c in self.marginals if c.axis == axis}
        return all((i, k) in have for i in range(n) for k in slices)


def constraint_values(spec: ProblemSpec, X) -> list[tuple]:
    """``(constraint, kind, achieved, bound)`` for every stated constraint on ``X``.

    Spec order: the marginals, then the total, then the element bounds (of
    kind ``"upper"``).  Each row or column sum of ``X`` (or of one of its
    slices, in 3-D) is taken once per (axis, slice) and indexed into.
    """
    sums: dict = {}  # (axis, slice) -> that axis's sums
    out = []
    for c in spec.marginals:
        key = (c.axis, c.slice_index)
        if key not in sums:
            sheet = X if c.slice_index is None else X[:, :, c.slice_index]
            sums[key] = sheet.sum(axis=1 if c.axis == "row" else 0)
        out.append((c, c.kind, float(sums[key][c.index]), c.value))
    if spec.total is not None:
        out.append((spec.total, spec.total.kind, float(X.sum()), spec.total.value))
    for e in spec.element_bounds:
        out.append((e, "upper", float(X[e.i, e.j]), e.ub))
    return out


def transpose(spec: ProblemSpec) -> ProblemSpec:
    """The same information about the transposed matrix.

    Rows and columns swap in the shape, in every marginal and element bound,
    and in every fixed block's values.  A validated spec gives a validated
    transpose.
    """
    t = replace(
        spec,
        shape=Shape(spec.shape.cols, spec.shape.rows, spec.shape.slices),
        marginals=tuple(replace(c, axis="col" if c.axis == "row" else "row")
                        for c in spec.marginals),
        element_bounds=tuple(ElementBound(e.j, e.i, e.ub) for e in spec.element_bounds),
        fixed_blocks=tuple(FixedBlock(b.index_set, tuple(zip(*b.matrix)))
                           for b in spec.fixed_blocks),
        validated=False,
    )
    return validate_spec(t) if spec.validated else t


def is_column_form(spec: ProblemSpec) -> bool:
    """Whether a validated spec states on its columns what a case reads from rows.

    True for a non-symmetric 2-D spec without element bounds or fixed blocks
    that constrains its columns and no row, or that knows every column sum
    but not every row sum; classification and solving go through its
    transpose.  Validated marginals are unique and list the columns first,
    so one binary search counts them.
    """
    if spec.symmetric or spec.shape.is_3d or spec.element_bounds or spec.fixed_blocks:
        return False
    n_cols = bisect_left(spec.marginals, "row", key=attrgetter("axis"))
    n_rows = len(spec.marginals) - n_cols
    if n_rows == 0:
        return n_cols > 0
    return (
        n_cols == spec.shape.cols
        and n_rows < spec.shape.rows
        and spec.axis_kinds("col") == {"equal"}
    )


def _marginal_sort_key(c: MarginalConstraint):
    return (c.axis, -1 if c.slice_index is None else c.slice_index, c.index)


def validate_spec(spec: ProblemSpec) -> ProblemSpec:
    """Normalize a spec and check it for gross infeasibility.

    Returns a copy with sorted constraint tuples and ``validated=True``;
    validating an already-validated spec returns it unchanged.  Checks are
    the cheap structural and marginal ones: indices in range, no duplicate
    constraints, column sums not exceeding row sums, a known total not
    exceeding the row bounds, and row targets not exceeding row-wise element
    caps.  Block consistency is a separate check
    (:func:`consistency_check_blocks`) because it needs solver context.
    """
    if spec.validated:
        return spec

    shape = spec.shape
    n, m = shape.rows, shape.cols

    if spec.symmetric and n != m:
        raise ShapeMismatch(f"symmetric spec requires a square shape, got {n}x{m}")
    if shape.is_3d and not spec.symmetric:
        raise ShapeMismatch("3-D specs are only supported with symmetric information")
    if shape.is_3d and n != m:
        raise ShapeMismatch("3-D specs require rows == cols")

    seen: set[tuple] = set()
    for c in spec.marginals:
        limit = n if c.axis == "row" else m
        if not 0 <= c.index < limit:
            raise IndexOutOfRange(f"{c.axis} index {c.index} outside 0..{limit - 1}")
        if shape.is_3d:
            if c.slice_index is None or not 0 <= c.slice_index < shape.slices:
                raise IndexOutOfRange(
                    f"{c.axis} {c.index}: slice index {c.slice_index} outside "
                    f"0..{shape.slices - 1}"
                )
        elif c.slice_index is not None:
            raise ShapeMismatch("slice_index given for a 2-D spec")
        key = (c.axis, c.index, c.slice_index)
        if key in seen:
            raise ShapeMismatch(f"duplicate constraint for {c.axis} {c.index}")
        seen.add(key)

    seen_e: set[tuple[int, int]] = set()
    for e in spec.element_bounds:
        if not (0 <= e.i < n and 0 <= e.j < m):
            raise IndexOutOfRange(f"element bound ({e.i},{e.j}) outside shape {n}x{m}")
        if (e.i, e.j) in seen_e:
            raise ShapeMismatch(f"duplicate element bound for ({e.i},{e.j})")
        seen_e.add((e.i, e.j))

    used: set[int] = set()
    for b in spec.fixed_blocks:
        for i in b.index_set:
            if not 0 <= i < n:
                raise IndexOutOfRange(f"fixed block index {i} outside 0..{n - 1}")
            if i in used:
                raise ShapeMismatch(f"fixed blocks overlap at index {i}")
            used.add(i)

    if spec.symmetric and spec.has_axis("col"):
        # Symmetric information: column constraints, if spelled out, must
        # mirror the row constraints exactly.
        rows = spec.marginal_map("row")
        cols = spec.marginal_map("col")
        if set(rows) != set(cols) or any(
            rows[k].kind != cols[k].kind or not close(rows[k].value, cols[k].value)
            for k in rows
        ):
            raise ShapeMismatch("symmetric spec has column constraints that differ from rows")

    _check_marginal_feasibility(spec)

    normalized = replace(
        spec,
        marginals=tuple(sorted(spec.marginals, key=_marginal_sort_key)),
        element_bounds=tuple(sorted(spec.element_bounds, key=lambda e: (e.i, e.j))),
        fixed_blocks=tuple(sorted(spec.fixed_blocks, key=lambda b: b.index_set)),
        validated=True,
    )
    return normalized


def _check_marginal_feasibility(spec: ProblemSpec) -> None:
    row_kinds = spec.axis_kinds("row")
    col_kinds = spec.axis_kinds("col")
    row_vals = [c.value for c in spec.marginals if c.axis == "row"]
    col_vals = [c.value for c in spec.marginals if c.axis == "col"]
    row_total = sum(row_vals)
    col_total = sum(col_vals)

    rows_complete = row_kinds == {"equal"} and spec.axis_complete("row")
    cols_complete = col_kinds == {"equal"} and spec.axis_complete("col")

    # Known sums on one side cannot exceed the network total implied by a
    # fully specified other side.
    if rows_complete and cols_complete:
        if not close(row_total, col_total):
            raise InfeasibleMarginals(
                f"row sums total {row_total} but column sums total {col_total}"
            )
    elif rows_complete and col_kinds == {"equal"}:
        if col_total > row_total * (1 + REL_TOL):
            raise InfeasibleMarginals(
                f"column sums total {col_total} exceeds row-sum total {row_total}"
            )
    elif cols_complete and row_kinds == {"equal"}:
        if row_total > col_total * (1 + REL_TOL):
            raise InfeasibleMarginals(
                f"row sums total {row_total} exceeds column-sum total {col_total}"
            )

    if spec.total is not None:
        s = spec.total.value
        for complete, axis_total, name in (
            (rows_complete, row_total, "row"),
            (cols_complete, col_total, "column"),
        ):
            if not complete:
                continue
            if spec.total.kind == "equal" and not close(s, axis_total):
                raise InfeasibleMarginals(
                    f"total {s} disagrees with {name}-sum total {axis_total}"
                )
            if spec.total.kind == "upper" and axis_total > s * (1 + REL_TOL):
                raise InfeasibleMarginals(
                    f"{name} sums total {axis_total} exceeds the total bound {s}"
                )
        if spec.total.kind == "equal":
            for kinds, axis_total, name in (
                (row_kinds, row_total, "row"),
                (col_kinds, col_total, "column"),
            ):
                if kinds == {"upper"} and math.isfinite(axis_total) and s > axis_total * (1 + REL_TOL):
                    raise InfeasibleMarginals(
                        f"total {s} exceeds the sum of {name} bounds {axis_total}"
                    )

    # A row whose sum is pinned cannot exceed the caps of its elements.
    if spec.element_bounds and not spec.shape.is_3d:
        caps = [[INF] * spec.shape.cols for _ in range(spec.shape.rows)]
        for e in spec.element_bounds:
            caps[e.i][e.j] = min(caps[e.i][e.j], e.ub)
        for c in spec.marginals:
            if c.axis != "row" or c.kind != "equal":
                continue
            cap = sum(caps[c.index])
            if math.isfinite(cap) and c.value > cap * (1 + REL_TOL) + REL_TOL:
                raise InfeasibleMarginals(
                    f"row {c.index} sum {c.value} exceeds its element caps {cap}"
                )


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of the fixed-block half-total check."""

    ok: bool
    violations: tuple[tuple[tuple[int, ...], float, float], ...] = ()

    @property
    def first_violation(self):
        return self.violations[0] if self.violations else None


def consistency_check_blocks(
    u: Sequence[float], blocks: Iterable[FixedBlock], s: float
) -> ConsistencyReport:
    """Check that no fixed block forces a zero submatrix elsewhere.

    For each block with index set I, the traffic originating in I must be
    strictly less than half of the total plus half of the traffic that both
    starts and ends inside I:  u_I < s/2 + w_II/2.  Equality counts as a
    violation.  Returns a report listing every violated set with its value
    and limit, first violation first.
    """
    violations = []
    for b in blocks:
        u_block = sum(u[i] for i in b.index_set)
        limit = s / 2.0 + b.value_sum / 2.0
        if not u_block < limit:
            violations.append((b.index_set, u_block, limit))
    return ConsistencyReport(ok=not violations, violations=tuple(violations))


def classify(spec: ProblemSpec) -> SolverCase:
    """Deterministically map a validated spec to its closed-form case.

    Symmetry is examined first; within symmetric specs, fixed blocks take
    precedence over pure bounds.  Patterns with no matching case return
    ``UNSUPPORTED`` rather than raising.  A column-form spec (see
    :func:`is_column_form`) is classified by its transpose, so it maps to a
    row-based case, and :func:`~likelymat.solve.solve` solves it transposed.
    """
    if not spec.validated:
        spec = validate_spec(spec)

    if spec.shape.is_3d:
        return _classify_3d(spec)
    if spec.symmetric:
        return _classify_symmetric(spec)
    return _classify_rect(spec)


def _classify_3d(spec: ProblemSpec) -> SolverCase:
    if spec.element_bounds:
        return SolverCase.UNSUPPORTED
    if spec.total is not None and spec.total.kind != "equal":
        return SolverCase.UNSUPPORTED
    if spec.fixed_blocks and not _blocks_are_zero_diagonal(spec):
        return SolverCase.UNSUPPORTED
    if spec.axis_kinds("row") == {"equal"} and spec.axis_complete("row"):
        return SolverCase.SYM_3D_FIXED_DIAGONAL
    return SolverCase.UNSUPPORTED


def _blocks_are_zero_diagonal(spec: ProblemSpec) -> bool:
    idx = []
    for b in spec.fixed_blocks:
        if len(b.index_set) != 1 or b.matrix[0][0] != 0.0:
            return False
        idx.append(b.index_set[0])
    return sorted(idx) == list(range(spec.shape.rows))


def _classify_symmetric(spec: ProblemSpec) -> SolverCase:
    row_kinds = spec.axis_kinds("row")
    if spec.element_bounds:
        return SolverCase.UNSUPPORTED

    if spec.fixed_blocks:
        if not (spec.axis_complete("row") and len(row_kinds) == 1):
            return SolverCase.UNSUPPORTED
        if all(len(b.index_set) == 1 for b in spec.fixed_blocks):
            return SolverCase.SYM_FIXED_DIAGONAL
        covered = sorted(i for b in spec.fixed_blocks for i in b.index_set)
        if covered == list(range(spec.shape.rows)):
            return SolverCase.SYM_BLOCK_DIAGONAL
        return SolverCase.UNSUPPORTED

    if (
        spec.total is not None
        and spec.total.kind == "equal"
        and row_kinds == {"upper"}
    ):
        return SolverCase.SYM_TOTAL_ROW_COL_BOUNDS
    if row_kinds == {"equal"} and spec.axis_complete("row") and (
        spec.total is None or spec.total.kind == "equal"
    ):
        # Symmetric gravity: both marginals known and equal.
        return SolverCase.GRAVITY_PARTIAL_COLS
    if row_kinds == {"upper"} and spec.total is None:
        return SolverCase.ROW_COL_BOUNDS
    return SolverCase.UNSUPPORTED


def _classify_rect(spec: ProblemSpec) -> SolverCase:
    if is_column_form(spec):
        return _classify_rect(transpose(spec))
    row_kinds = spec.axis_kinds("row")
    col_kinds = spec.axis_kinds("col")
    total = spec.total

    if spec.fixed_blocks:
        # Fixed entries are only solvable under symmetric information.
        return SolverCase.UNSUPPORTED
    if spec.element_bounds:
        if col_kinds or total is not None or "equal" in row_kinds:
            return SolverCase.UNSUPPORTED
        return SolverCase.ROW_BOUNDS_ELEM_BOUNDS

    if row_kinds == {"equal"} and spec.axis_complete("row"):
        if col_kinds in (set(), {"equal"}) and (total is None or total.kind == "equal"):
            return SolverCase.GRAVITY_PARTIAL_COLS
        return SolverCase.UNSUPPORTED

    bound_axes = ("upper" in row_kinds) + ("upper" in col_kinds)
    if "equal" in row_kinds or "equal" in col_kinds:
        return SolverCase.UNSUPPORTED

    if bound_axes == 2:
        if total is not None:
            return SolverCase.UNSUPPORTED
        return SolverCase.ROW_COL_BOUNDS
    if bound_axes == 1 or (bound_axes == 0 and total is not None):
        if total is None:
            return SolverCase.ROW_BOUNDS
        if total.kind == "equal":
            return SolverCase.TOTAL_ROW_BOUNDS
        return SolverCase.BOUNDED_TOTAL_ROW_BOUNDS
    return SolverCase.UNSUPPORTED


def require_block_consistency(
    u: Sequence[float], blocks: Iterable[FixedBlock], s: float
) -> None:
    """Raise :class:`ConsistencyViolation` when the half-total check fails."""
    report = consistency_check_blocks(u, blocks, s)
    if not report.ok:
        index_set, u_block, limit = report.first_violation
        raise ConsistencyViolation(
            f"index set {index_set}: outgoing traffic {u_block} is not strictly "
            f"below {limit} (half the total plus half the intra-set traffic)"
        )
