"""Declarative constraint model: the spec, its validation and consistency checks.

A :class:`ProblemSpec` describes what is known about a nonnegative matrix (or
3-dimensional array): equality or upper-bound constraints on row sums, column
sums, the total sum, individual elements, and square blocks whose entries are
fixed outright.  :func:`validate_spec` normalizes and checks a spec, and
:func:`consistency_check_blocks` tests the strict half-total condition that
fixed blocks must satisfy.  :mod:`likelymat.solve` holds the case table.

A spec holds its constraints as arrays only: one :class:`AxisSums` per
axis, the element bounds as (row, column, cap) arrays and the fixed blocks as
one :class:`FixedCells`.  Validation, classification, the solvers, the CLI
and the oracle all read that form.  The records (:class:`MarginalConstraint`,
:class:`ElementBound`, :class:`FixedBlock`) are input to
:meth:`ProblemSpec.of` only, and blocks to :meth:`FixedCells.of`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields, replace
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
]

# Relative tolerance for equality checks between user-supplied sums.
# Inputs are decimal text, so exact float equality would be too strict.
REL_TOL = 1e-9

INF = math.inf


def close(a: float, b: float, rtol: float = REL_TOL) -> bool:
    """Relative closeness, with no absolute floor: scaling both sides by a
    power of two keeps the answer."""
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _intp(xs) -> np.ndarray:
    """Python ints as an intp array; if one lies past intp's range, an object
    array, whose indices :func:`validate_spec` refuses as out of range."""
    try:
        return np.array(xs, dtype=np.intp)
    except OverflowError:
        return np.array(xs, dtype=object)


def _same(a, b) -> bool:
    """Whether two dataclasses of one type hold equal fields, arrays (and
    tuples of arrays) included."""
    def equal(x, y) -> bool:
        if isinstance(x, tuple):
            return len(x) == len(y) and all(map(equal, x, y))
        return np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y

    return type(a) is type(b) and all(equal(getattr(a, f.name), getattr(b, f.name))
                                      for f in fields(a) if f.compare)


def _left_sum(terms, start: float = 0.0) -> float:
    """``start + terms[0] + terms[1] + ..``, added strictly left to right.

    Builtin ``sum`` adds floats left to right only up to Python 3.11; from
    3.12 it compensates (Neumaier), and np.sum adds pairwise.  Every float
    sum whose bits reach an output goes through here, so the output does not
    depend on the interpreter.  Unlike ``sum``, a sum past the float range
    warns: callers whose terms may get there ignore overflow."""
    return float(np.add.accumulate(np.concatenate(([start], terms)))[-1])


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
        check_block(self.index_set, self.matrix)


def check_block(index_set: Sequence[int], matrix: Sequence[Sequence[float]]) -> None:
    """Raise for the first fault of one fixed block: no nodes, a repeated
    node, a matrix of the wrong shape, or a negative value (row-major)."""
    k = len(index_set)
    if k == 0:
        raise ShapeMismatch("fixed block has an empty index set")
    if len(set(index_set)) != k:
        raise ShapeMismatch(f"fixed block indices {tuple(index_set)} contain duplicates")
    if len(matrix) != k or any(len(row) != k for row in matrix):
        raise ShapeMismatch(
            f"fixed block over {k} indices needs a {k}x{k} matrix, got {len(matrix)} rows"
        )
    for row in matrix:
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
    to right, as a loop over the blocks would.  ``len`` counts the blocks.
    """

    nodes: np.ndarray
    block: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    __eq__ = _same

    @classmethod
    def of(cls, blocks) -> FixedCells:
        """The cells of :class:`FixedBlock` objects; a FixedCells passes through."""
        if isinstance(blocks, FixedCells):
            return blocks
        blocks = tuple(blocks)
        return cls.packed([len(b.index_set) for b in blocks],
                          [i for b in blocks for i in b.index_set],
                          [v for b in blocks for row in b.matrix for v in row])

    @classmethod
    def packed(cls, size, nodes, values) -> FixedCells:
        """The cells of blocks of ``size`` nodes each, given by their nodes
        and their values (row-major), one block after another."""
        size = np.asarray(size, dtype=np.intp)
        block = np.repeat(np.arange(size.size), size)
        k = size[block]  # a node's row has as many cells as its block has nodes
        rows = np.repeat(np.arange(block.size), k)
        first = np.repeat(np.cumsum(size) - size, size)  # where a node's block starts
        cols = np.arange(rows.size) - np.repeat(np.cumsum(k) - k - first, k)
        return cls(_intp(nodes), block, rows, cols, np.asarray(values, dtype=float))

    def __len__(self) -> int:
        return int(self.block[-1]) + 1 if self.block.size else 0

    def index_set(self, b: int) -> tuple[int, ...]:
        return tuple(self.nodes[self.block == b].tolist())

    def row_sums(self) -> np.ndarray:
        """Each covered node's fixed row sum, in ``nodes`` order."""
        return np.bincount(self.rows, self.values, minlength=self.nodes.size)

    def transposed(self) -> FixedCells:
        """Every block's matrix transposed: each cell takes its mirror's value."""
        return replace(self, values=self.values[np.lexsort((self.rows, self.cols))])

    def by_first_node(self) -> FixedCells:
        """The blocks ordered by their first node, as sorting the index sets
        of disjoint blocks orders them."""
        order = np.argsort(self.nodes[np.flatnonzero(np.diff(self.block, prepend=-1))])
        rank = np.argsort(order)  # each block's new position
        return FixedCells.packed(np.bincount(self.block)[order],
                                 self.nodes[np.argsort(rank[self.block], kind="stable")],
                                 self.values[np.argsort(rank[self.block[self.rows]], kind="stable")])


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

    __eq__ = _same

    @classmethod
    def of(cls, shape: tuple[int, ...], index, slices, value, equal) -> AxisSums:
        """Sums as stated, with None for no slice.  A slice given in 2-D or
        missing in 3-D, or an index past intp, leaves its array of Python
        objects, for :func:`validate_spec` to refuse."""
        slices = list(slices)
        given = [k is not None for k in slices]
        if len(shape) == 1 and not any(given):
            slices = np.zeros(len(slices), dtype=np.intp)
        elif len(shape) == 2 and all(given):
            slices = _intp(slices)
        else:
            slices = np.array(slices, dtype=object)
        return cls(shape, _intp(index), slices, np.asarray(value, dtype=float),
                   np.asarray(equal, dtype=bool))

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

    def take(self, order: np.ndarray) -> AxisSums:
        """The sums in ``order``, their indices as intp."""
        return AxisSums(self.shape, self.index[order].astype(np.intp),
                        self.slice[order].astype(np.intp), self.value[order], self.equal[order])


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


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Full declarative description of shape and constraints, as arrays.

    ``row_sums`` and ``col_sums`` hold each axis's stated sums,
    ``element_caps`` the element bounds as (rows, columns, caps) and
    ``fixed_cells`` the fixed blocks, each in the order stated, or sorted
    once the spec is validated (:func:`validate_spec`).  :meth:`of` builds
    a spec from constraint records.
    """

    shape: Shape
    row_sums: AxisSums
    col_sums: AxisSums
    element_caps: tuple[np.ndarray, np.ndarray, np.ndarray]
    fixed_cells: FixedCells
    total: TotalConstraint | None = None
    symmetric: bool = False
    validated: bool = field(default=False, compare=False)

    @classmethod
    def of(cls, shape: Shape, marginals: Iterable[MarginalConstraint] = (),
           total: TotalConstraint | None = None, element_bounds: Iterable[ElementBound] = (),
           fixed_blocks: Iterable[FixedBlock] = (), symmetric: bool = False) -> ProblemSpec:
        """The spec stating the given records, each list in its own order."""
        marginals, caps = tuple(marginals), tuple(element_bounds)

        def stated(axis: str, n: int) -> AxisSums:
            cs = [c for c in marginals if c.axis == axis]
            return AxisSums.of((n,) if shape.slices is None else (n, shape.slices),
                               [c.index for c in cs], [c.slice_index for c in cs],
                               [c.value for c in cs], [c.kind == "equal" for c in cs])

        return cls(shape, stated("row", shape.rows), stated("col", shape.cols),
                   (_intp([e.i for e in caps]), _intp([e.j for e in caps]),
                    np.array([e.ub for e in caps], dtype=float)),
                   FixedCells.of(fixed_blocks), total, symmetric)

    __eq__ = _same

    @property
    def sums(self) -> dict[str, AxisSums]:
        """The stated sums of each axis, ``"row"`` and ``"col"``.  A validated
        symmetric spec's column sums are its row sums, whether or not the
        columns are spelled out."""
        mirrored = self.symmetric and self.validated
        return {"row": self.row_sums, "col": self.row_sums if mirrored else self.col_sums}


def constraint_values(spec: ProblemSpec, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(equal, achieved, bound)`` arrays over every stated constraint on ``X``.

    Spec order: the column sums, the row sums (each as stored, a symmetric
    spec's columns only if spelled out), then the total, then the element
    bounds (not equalities).  Each row or column sum of ``X`` (or of one of
    its slices, in 3-D) is taken once per (axis, slice) and indexed into.
    """
    parts = []
    for axis, s in ((0, spec.col_sums), (1, spec.row_sums)):
        achieved = np.zeros(len(s))
        for k in sorted(set(s.slice.tolist())):
            on = s.slice == k
            sheet = X if spec.shape.slices is None else X[:, :, k]
            achieved[on] = sheet.sum(axis=axis)[s.index[on]]
        parts.append((s.equal, achieved, s.value))
    if spec.total is not None:
        parts.append(([spec.total.kind == "equal"], [X.sum()], [spec.total.value]))
    i, j, ub = spec.element_caps
    if ub.size:
        parts.append((np.zeros(ub.size, dtype=bool), X[i, j], ub))
    return tuple(np.concatenate(a) for a in zip(*parts))


def transpose(spec: ProblemSpec) -> ProblemSpec:
    """The same information about the transposed matrix.

    Rows and columns swap in the shape, the stated sums and the element
    bounds, and every fixed block's matrix is transposed.  A validated spec
    gives a validated transpose.
    """
    i, j, ub = spec.element_caps
    t = replace(
        spec,
        shape=Shape(spec.shape.cols, spec.shape.rows, spec.shape.slices),
        row_sums=spec.col_sums,
        col_sums=spec.row_sums,
        element_caps=(j, i, ub),
        fixed_cells=spec.fixed_cells.transposed(),
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
    if spec.symmetric or spec.shape.is_3d or spec.element_caps[2].size or spec.fixed_cells:
        return False
    n_rows, cols = len(spec.sums["row"]), spec.sums["col"]
    if n_rows == 0:
        return len(cols) > 0
    return cols.known and n_rows < spec.shape.rows


def _first_fault(bad: np.ndarray, keys: tuple) -> tuple[int | None, bool, np.ndarray]:
    """The first entry of a list that is ``bad`` or repeats the ``keys``
    (``np.lexsort``'s) of one before it, None if none is; whether it is a
    repeat; and the order that sorts the entries by their keys."""
    q = int(np.argmax(bad)) if bad.any() else bad.size
    keys = [k[:q].astype(np.intp) for k in keys]  # all in range, so in intp
    order = np.lexsort(keys)
    same = np.logical_and.reduce([k[order][1:] == k[order][:-1] for k in keys])
    repeats = order[1:][same]
    if repeats.size:
        return int(repeats.min()), True, order
    return (q if q < bad.size else None), False, order


def _check_sums(sums: AxisSums, axis: str, n: int, slices: int | None) -> np.ndarray:
    """Raise for the first stated sum of an axis that is out of range or
    repeats one before it; return the order sorting them by slice and index."""
    index, at = sums.index, sums.slice
    if at.dtype == object:  # a slice given in 2-D or missing in 3-D, or past intp
        given = np.array([k is not None for k in at.tolist()], dtype=bool)
        k = np.where(given, at, 0)
        bad_slice = given if slices is None else ~given | (k < 0) | (k >= slices)
    else:
        bad_slice = (at < 0) | (at >= (slices or 1))
    p, repeat, order = _first_fault((index < 0) | (index >= n) | bad_slice,
                                    (index,) if slices is None else (index, at))
    if p is None:
        return order
    if repeat:
        raise ShapeMismatch(f"duplicate constraint for {axis} {index[p]}")
    if not 0 <= index[p] < n:
        raise IndexOutOfRange(f"{axis} index {index[p]} outside 0..{n - 1}")
    if slices is None:
        raise ShapeMismatch("slice_index given for a 2-D spec")
    raise IndexOutOfRange(f"{axis} {index[p]}: slice index {at[p]} outside 0..{slices - 1}")


def validate_spec(spec: ProblemSpec) -> ProblemSpec:
    """Normalize a spec and check it for gross infeasibility.

    Returns a copy with its constraints sorted (sums by slice and index,
    element bounds by cell, blocks by first node) and ``validated=True``;
    validating an already-validated spec returns it unchanged.  The checks
    are the cheap structural and marginal ones, in whole-array passes; an
    error names the first offending constraint in spec order.  Block
    consistency is a separate check (:func:`consistency_check_blocks`)
    because it needs solver context.
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

    row_order = _check_sums(spec.row_sums, "row", n, shape.slices)
    col_order = _check_sums(spec.col_sums, "col", m, shape.slices)

    i, j, ub = spec.element_caps
    p, repeat, cap_order = _first_fault((i < 0) | (i >= n) | (j < 0) | (j >= m), (j, i))
    if p is not None:
        if repeat:
            raise ShapeMismatch(f"duplicate element bound for ({i[p]},{j[p]})")
        raise IndexOutOfRange(f"element bound ({i[p]},{j[p]}) outside shape {n}x{m}")

    nodes = spec.fixed_cells.nodes
    p, repeat, _ = _first_fault((nodes < 0) | (nodes >= n), (nodes,))
    if p is not None:
        if repeat:
            raise ShapeMismatch(f"fixed blocks overlap at index {nodes[p]}")
        raise IndexOutOfRange(f"fixed block index {nodes[p]} outside 0..{n - 1}")

    _check_values(spec)

    # Symmetric information: column constraints, if spelled out, must mirror
    # the row constraints exactly, their values to REL_TOL.
    rows, cols = spec.row_sums.take(row_order), spec.col_sums.take(col_order)
    if spec.symmetric and len(cols) and not (
            _same(rows, replace(cols, value=rows.value))
            and all(map(close, rows.value.tolist(), cols.value.tolist()))):
        raise ShapeMismatch("symmetric spec has column constraints that differ from rows")

    _check_marginal_feasibility(spec)

    return replace(
        spec,
        row_sums=rows,
        col_sums=cols,
        element_caps=(i[cap_order].astype(np.intp), j[cap_order].astype(np.intp), ub[cap_order]),
        fixed_cells=spec.fixed_cells.by_first_node(),
        validated=True,
    )


def _check_values(spec: ProblemSpec) -> None:
    """Raise for the first value in spec order (row sums, column sums, the
    total, caps, fixed values) that is NaN or negative, a negative with its
    record's message, or that is an equality and not finite.  +inf is no
    bound for an upper sum, an upper total or a cap."""
    (i, j, ub), t, rows, cols = spec.element_caps, spec.total, spec.row_sums, spec.col_sums
    for value, equal, name in (
            (rows.value, rows.equal, lambda p: f"row {rows.index[p]}: marginal value {{}}"),
            (cols.value, cols.equal, lambda p: f"col {cols.index[p]}: marginal value {{}}"),
            ([t.value] if t else [], bool(t) and t.kind == "equal", lambda p: "total value {}"),
            (ub, False, lambda p: f"element bound at ({i[p]},{j[p]})"),
            (spec.fixed_cells.values, True, lambda p: "fixed block value {}")):
        value = np.asarray(value, dtype=float)
        bad = np.flatnonzero(~(value >= 0) | (np.isinf(value) & equal))
        if bad.size:
            p, v = int(bad[0]), float(value[bad[0]])
            what = name(p).format(v)
            if math.isnan(v):
                raise NegativeValue(f"{what} is not a number")
            if v < 0:  # as the records word it: a cap's message names no value
                raise NegativeValue(what + (" < 0" if "{}" in name(p) else " is negative"))
            raise InfeasibleMarginals(f"{what} is an equality and not finite")


def _check_marginal_feasibility(spec: ProblemSpec) -> None:
    rows, cols = spec.sums["row"], spec.sums["col"]
    row_kinds, col_kinds = rows.kinds, cols.kinds
    # each side's total adds its values left to right, in spec order
    with np.errstate(over="ignore"):  # a total past the float range is inf
        row_total, col_total = _left_sum(rows.value), _left_sum(cols.value)

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
    i, j, ub = spec.element_caps
    if ub.size and not spec.shape.is_3d:
        n, m = spec.shape.rows, spec.shape.cols
        by_cell = np.lexsort((j, i))
        capped = np.bincount(i, minlength=n) == m
        cap = np.where(capped, np.bincount(i[by_cell], ub[by_cell], minlength=n), INF)
        index, value = rows.index[rows.equal], rows.value[rows.equal]
        total = cap[index]
        over = np.flatnonzero(np.isfinite(total) & (value > total * (1 + REL_TOL)))
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
