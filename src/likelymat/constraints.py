"""Declarative constraint model: validation, consistency checks, classification.

A :class:`ProblemSpec` describes what is known about a nonnegative matrix (or
3-dimensional array): equality or upper-bound constraints on row sums, column
sums, the total sum, individual elements, and square blocks whose entries are
fixed outright.  :func:`validate_spec` normalizes and feasibility-checks a
spec, :func:`consistency_check_blocks` tests the strict half-total condition
that fixed blocks must satisfy, and :func:`classify` maps a validated spec to
the closed-form solver that handles it.

Fixed blocks are given as :class:`FixedBlock` objects and read as index
arrays, one :class:`FixedCells` per spec: validation, classification, the
consistency check, the fixed-entry solvers and the oracle all read that form.
Marginals are read the same way, one :class:`AxisSums` per axis
(:meth:`ProblemSpec.sums`), and element bounds as (row, column, cap) arrays
(:attr:`ProblemSpec.element_caps`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
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
    "FixedCells",
    "AxisSums",
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


@dataclass(frozen=True, eq=False)
class FixedCells:
    """Fixed blocks as index arrays, in block order.

    ``nodes`` lists each block's nodes in its own order and ``block`` gives
    each of them its block's position.  ``rows``, ``cols`` and ``values``
    give every fixed cell, row-major inside its block, with its row and
    column as positions in ``nodes``.  A ``np.bincount`` over them adds left
    to right, as a loop over the blocks would.
    """

    nodes: np.ndarray
    block: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, blocks) -> FixedCells:
        """The cells of :class:`FixedBlock` objects; a FixedCells passes through."""
        if isinstance(blocks, FixedCells):
            return blocks
        blocks = tuple(blocks)
        size = np.array([len(b.index_set) for b in blocks], dtype=np.intp)
        block = np.repeat(np.arange(size.size), size)
        k = size[block]  # a node's row has as many cells as its block has nodes
        rows = np.repeat(np.arange(block.size), k)
        first = np.repeat(np.cumsum(size) - size, size)  # where a node's block starts
        cols = np.arange(rows.size) - np.repeat(np.cumsum(k) - k - first, k)
        nodes = np.array([i for b in blocks for i in b.index_set], dtype=np.intp)
        values = np.array([v for b in blocks for row in b.matrix for v in row], dtype=float)
        return cls(nodes, block, rows, cols, values)

    def index_set(self, b: int) -> tuple[int, ...]:
        return tuple(self.nodes[self.block == b].tolist())

    def row_sums(self) -> np.ndarray:
        """Each covered node's fixed row sum, in ``nodes`` order."""
        return np.bincount(self.rows, self.values, minlength=self.nodes.size)


@dataclass(frozen=True, eq=False)
class AxisSums:
    """The stated sums of one axis (rows or columns) as arrays, in spec order.

    ``index``, ``slice`` (0 in 2-D), ``value`` and ``equal`` (whether the
    kind is ``"equal"``) give each stated sum; ``shape`` is the axis's
    (n,), or (n, K) in 3-D.  Nothing here is per index of the axis except
    :meth:`values`.  The counts mean what they say once the spec is
    validated, when no index repeats or lies out of range.
    """

    shape: tuple[int, ...]
    index: np.ndarray
    slice: np.ndarray
    value: np.ndarray
    equal: np.ndarray

    @classmethod
    def of(cls, marginals: Sequence[MarginalConstraint], shape: tuple[int, ...]) -> AxisSums:
        return cls(shape,
                   np.array([c.index for c in marginals], dtype=np.intp),
                   np.array([c.slice_index or 0 for c in marginals], dtype=np.intp),
                   np.array([c.value for c in marginals], dtype=float),
                   np.array([c.kind == "equal" for c in marginals], dtype=bool))

    def __len__(self) -> int:
        return self.index.size

    @property
    def kinds(self) -> set[str]:
        some = (("equal", self.equal.any()), ("upper", not self.equal.all()))
        return {kind for kind, stated in some if stated}

    @property
    def complete(self) -> bool:
        """Whether every index (and slice, in 3-D) has a stated sum."""
        return len(self) == math.prod(self.shape)

    @property
    def known(self) -> bool:
        """Whether every sum is stated and known (of kind ``"equal"``)."""
        return self.complete and bool(self.equal.all())

    def values(self) -> np.ndarray:
        """The values placed in an array of ``shape``, +inf where none is stated."""
        out = np.full(self.shape, INF)
        out[(self.index, self.slice)[: len(self.shape)]] = self.value
        return out


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

    @cached_property
    def fixed_cells(self) -> FixedCells:
        """The fixed blocks as index arrays, built once per spec."""
        return FixedCells.of(self.fixed_blocks)

    @cached_property
    def element_caps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The element bounds as arrays of rows, columns and caps, in spec order."""
        e = self.element_bounds
        return (np.array([b.i for b in e], dtype=np.intp),
                np.array([b.j for b in e], dtype=np.intp),
                np.array([b.ub for b in e], dtype=float))

    @cached_property
    def sums(self) -> dict[str, AxisSums]:
        """The stated sums of each axis, ``"row"`` and ``"col"``, as arrays,
        built once per spec.  A validated symmetric spec's column sums are
        its row sums, whether or not the columns are spelled out."""
        out = {}
        for axis, n in (("row", self.shape.rows), ("col", self.shape.cols)):
            out[axis] = AxisSums.of([c for c in self.marginals if c.axis == axis],
                                    (n,) if self.shape.slices is None else (n, self.shape.slices))
        if self.symmetric and self.validated:
            out["col"] = out["row"]
        return out


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
    transpose.
    """
    if spec.symmetric or spec.shape.is_3d or spec.element_bounds or spec.fixed_blocks:
        return False
    n_rows, cols = len(spec.sums["row"]), spec.sums["col"]
    if n_rows == 0:
        return len(cols) > 0
    return cols.known and n_rows < spec.shape.rows


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

    if spec.fixed_blocks:
        nodes = spec.fixed_cells.nodes
        outside = (nodes < 0) | (nodes >= n)
        repeat = np.ones(nodes.size, dtype=bool)
        repeat[np.unique(nodes, return_index=True)[1]] = False
        bad = np.flatnonzero(outside | repeat)
        if bad.size:
            i = int(nodes[bad[0]])
            if outside[bad[0]]:
                raise IndexOutOfRange(f"fixed block index {i} outside 0..{n - 1}")
            raise ShapeMismatch(f"fixed blocks overlap at index {i}")

    rows, cols = spec.sums["row"], spec.sums["col"]
    if spec.symmetric and len(cols):
        # Symmetric information: column constraints, if spelled out, must
        # mirror the row constraints exactly (unique indices, so sorting pairs them).
        r, c = np.lexsort((rows.index, rows.slice)), np.lexsort((cols.index, cols.slice))
        same = r.size == c.size and all(np.array_equal(a[r], b[c]) for a, b in (
            (rows.index, cols.index), (rows.slice, cols.slice), (rows.equal, cols.equal)))
        if not (same and all(map(close, rows.value[r].tolist(), cols.value[c].tolist()))):
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
    rows, cols = spec.sums["row"], spec.sums["col"]
    row_kinds, col_kinds = rows.kinds, cols.kinds
    # each side's total adds its values left to right, in spec order
    row_total = sum(rows.value.tolist())
    col_total = sum(cols.value.tolist())

    # Known sums on one side cannot exceed the network total implied by a
    # fully specified other side.
    if rows.known and cols.known:
        if not close(row_total, col_total):
            raise InfeasibleMarginals(
                f"row sums total {row_total} but column sums total {col_total}"
            )
    elif rows.known and col_kinds == {"equal"}:
        if col_total > row_total * (1 + REL_TOL):
            raise InfeasibleMarginals(
                f"column sums total {col_total} exceeds row-sum total {row_total}"
            )
    elif cols.known and row_kinds == {"equal"}:
        if row_total > col_total * (1 + REL_TOL):
            raise InfeasibleMarginals(
                f"row sums total {row_total} exceeds column-sum total {col_total}"
            )

    if spec.total is not None:
        s = spec.total.value
        for complete, axis_total, name in (
            (rows.known, row_total, "row"),
            (cols.known, col_total, "column"),
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
            # only bounds on every row (or column) cap the total: an
            # unbounded one can take any mass
            for side, axis_total, name in ((rows, row_total, "row"), (cols, col_total, "column")):
                if (side.complete and side.kinds == {"upper"} and math.isfinite(axis_total)
                        and s > axis_total * (1 + REL_TOL)):
                    raise InfeasibleMarginals(
                        f"total {s} exceeds the sum of {name} bounds {axis_total}"
                    )

    # A row whose sum is pinned cannot exceed the caps of its elements.  Its
    # caps total is finite only when every cell of the row is capped, and is
    # added left to right, in column order.
    if spec.element_bounds and not spec.shape.is_3d:
        n, m = spec.shape.rows, spec.shape.cols
        i, j, ub = spec.element_caps
        by_cell = np.lexsort((j, i))
        capped = np.bincount(i, minlength=n) == m
        cap = np.where(capped, np.bincount(i[by_cell], ub[by_cell], minlength=n), INF)
        index, value = rows.index[rows.equal], rows.value[rows.equal]
        total = cap[index]
        over = np.flatnonzero(np.isfinite(total) & (value > total * (1 + REL_TOL) + REL_TOL))
        if over.size:
            r = over[0]
            raise InfeasibleMarginals(
                f"row {int(index[r])} sum {float(value[r])} exceeds its element caps "
                f"{float(total[r])}"
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
    u: Sequence[float], blocks: Iterable[FixedBlock] | FixedCells, s: float
) -> ConsistencyReport:
    """Check that no fixed block forces a zero submatrix elsewhere.

    For each block with index set I, the traffic originating in I must be
    strictly less than half of the total plus half of the traffic that both
    starts and ends inside I:  u_I < s/2 + w_II/2.  Equality counts as a
    violation.  Returns a report listing every violated set with its value
    and limit, first violation first.
    """
    c = FixedCells.of(blocks)
    u_block = np.bincount(c.block, np.asarray(u, dtype=float)[c.nodes])
    limit = s / 2.0 + np.bincount(c.block, c.row_sums()) / 2.0
    bad = np.flatnonzero(~(u_block < limit)).tolist()
    return ConsistencyReport(ok=not bad, violations=tuple(
        (c.index_set(b), float(u_block[b]), float(limit[b])) for b in bad))


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
    if spec.sums["row"].known:
        return SolverCase.SYM_3D_FIXED_DIAGONAL
    return SolverCase.UNSUPPORTED


def _blocks_are_zero_diagonal(spec: ProblemSpec) -> bool:
    # validated blocks are disjoint and in range: n singletons cover every node
    c = spec.fixed_cells
    return c.nodes.size == len(spec.fixed_blocks) == spec.shape.rows and not c.values.any()


def _classify_symmetric(spec: ProblemSpec) -> SolverCase:
    rows = spec.sums["row"]
    row_kinds = rows.kinds
    if spec.element_bounds:
        return SolverCase.UNSUPPORTED

    if spec.fixed_blocks:
        if not (rows.complete and len(row_kinds) == 1):
            return SolverCase.UNSUPPORTED
        covered = spec.fixed_cells.nodes.size  # disjoint and in range, once validated
        if covered == len(spec.fixed_blocks):
            return SolverCase.SYM_FIXED_DIAGONAL
        if covered == spec.shape.rows:
            return SolverCase.SYM_BLOCK_DIAGONAL
        return SolverCase.UNSUPPORTED

    if (
        spec.total is not None
        and spec.total.kind == "equal"
        and row_kinds == {"upper"}
    ):
        return SolverCase.SYM_TOTAL_ROW_COL_BOUNDS
    if rows.known and (spec.total is None or spec.total.kind == "equal"):
        # Symmetric gravity: both marginals known and equal.
        return SolverCase.GRAVITY_PARTIAL_COLS
    if row_kinds == {"upper"} and spec.total is None:
        return SolverCase.ROW_COL_BOUNDS
    return SolverCase.UNSUPPORTED


def _classify_rect(spec: ProblemSpec) -> SolverCase:
    if is_column_form(spec):
        return _classify_rect(transpose(spec))
    rows = spec.sums["row"]
    row_kinds, col_kinds = rows.kinds, spec.sums["col"].kinds
    total = spec.total

    if spec.fixed_blocks:
        # Fixed entries are only solvable under symmetric information.
        return SolverCase.UNSUPPORTED
    if spec.element_bounds:
        if col_kinds or total is not None or "equal" in row_kinds:
            return SolverCase.UNSUPPORTED
        return SolverCase.ROW_BOUNDS_ELEM_BOUNDS

    if rows.known:
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
