"""Command-line front end: read a problem file, classify, solve, count, verify.

Problem files are JSON documents::

    {
      "shape": {"rows": 10, "cols": 10},
      "row_sums": {"kind": "upper", "values": [20, 20, 24, ...]},
      "col_sums": {"kind": "equal", "sparse": [{"index": 0, "value": 5}]},
      "total": {"kind": "equal", "value": 275},
      "element_bounds": [{"i": 0, "j": 1, "ub": 2.5}],
      "fixed_blocks": [{"indices": [0, 3], "matrix": [[0, 1], [1, 0]]}],
      "symmetric": false
    }

All keys except ``shape`` are optional; unknown keys are rejected.  A
``fixed_blocks`` object ``{"diagonal_prefix": m, "values": [...]}`` pins the
first m diagonal entries.  3-D specs give ``slices`` in the shape and nested
per-slice value lists.  Results are emitted as JSON (or CSV for the bare
matrix) with every numeric field in shortest round-trip decimal form.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

import numpy as np

from .constraints import (
    AxisSums,
    FixedCells,
    ProblemSpec,
    Shape,
    SolverCase,
    TotalConstraint,
    _intp,
    check_block,
    constraint_values,
    validate_spec,
)
from .counting import (
    count_feasible_row_bounded,
    distinct_values,
    exact_realizations,
    log10_realizations,
)
from .errors import ConsistencyViolation, CountOverflow, LikelymatError, NegativeValue
from .oracle import _fixes_total, brute_force_most_likely, numeric_maxent, verify_kkt
from .solution import Solution, TensorSolution
from .solve import SATURATING, classify, row_sums_only, solve
from .symmetric import series_approx_xi

__all__ = ["main", "load_problem"]


class UsageError(Exception):
    """Malformed input document or flags (exit code 2)."""


# ----------------------------------------------------------------------
# Problem-file parsing
# ----------------------------------------------------------------------

_TOP_KEYS = {
    "shape", "row_sums", "col_sums", "total", "element_bounds",
    "fixed_blocks", "symmetric",
}


def _require_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise UsageError(f"unknown keys {sorted(unknown)} in {where}")


def _typed(value, types):
    """``value`` if it is of the JSON ``types``; true and false are no numbers."""
    if isinstance(value, bool) != (types is bool) or not isinstance(value, types):
        raise UsageError(f"wrongly typed value {value!r} in problem document")
    return value


def _number(value) -> float:
    """A document number as a float; "1", true, NaN and +-inf are malformed input."""
    x = float(_typed(value, (int, float)))
    if not math.isfinite(x):
        raise UsageError(f"non-finite number {value!r} in problem document")
    return x


def _integer(value) -> int:
    """A document integer (shape, index); 2.5, "3" or true is malformed input."""
    i = int(_typed(value, (int, float)))
    if i != value:
        raise UsageError(f"expected an integer, got {value!r}")
    return i


def _floats(values: list, negative) -> np.ndarray:
    """Document numbers as a float array, after one type pass.  As a walk
    with :func:`_number` would, the first value in list order that is no
    finite number raises UsageError, and the first negative one raises
    NegativeValue with the message ``negative(position, value)``."""
    x = None
    if set(map(type, values)) <= {int, float}:
        with contextlib.suppress(OverflowError):  # an int past the float range
            x = np.array(values, dtype=float)
    if x is None or not np.isfinite(x).all():  # walk up to the first bad value
        x = []
        for v in values:
            x.append(_number(v))
            if x[-1] < 0:
                break
        x = np.array(x, dtype=float)
    negatives = np.flatnonzero(x < 0)
    if negatives.size:
        raise NegativeValue(negative(int(negatives[0]), float(x[negatives[0]])))
    return x


def _parse_marginals(doc, axis: str, dims: tuple[int, ...]) -> AxisSums:
    _require_keys(doc, {"kind", "values", "sparse"}, f"{axis}_sums")
    kind = doc.get("kind")
    if kind not in ("equal", "upper"):
        raise UsageError(f"{axis}_sums.kind must be 'equal' or 'upper'")

    def negative(i, v) -> str:
        return f"{axis} {i}: marginal value {v} < 0"

    index, slices, value = [], [], []

    def state(i, v: float, k) -> None:  # one stated sum, in document order
        index.append(i)
        value.append(v)
        slices.append(k)
        if v < 0:
            raise NegativeValue(negative(i, v))

    if "values" in doc:
        values = _typed(doc["values"], list)
        if len(dims) == 1:  # one type pass over the stated values
            at = np.arange(len(values))
            if None in values:
                at = np.array([i for i, v in enumerate(values) if v is not None], dtype=np.intp)
                values = [values[i] for i in at.tolist()]
            x = _floats(values, lambda p, v: negative(at[p], v))
            return AxisSums(dims, at, np.zeros_like(at), x, np.full(x.size, kind == "equal"))
        for i, per_slice in enumerate(values):
            for k, v in enumerate(_typed(per_slice, list)):
                if v is not None:
                    state(i, _number(v), k)
    elif "sparse" in doc:
        for entry in _typed(doc["sparse"], list):
            _require_keys(entry, {"index", "value", "slice"}, f"{axis}_sums.sparse")
            state(_integer(entry["index"]), _number(entry["value"]),
                  _integer(entry["slice"]) if "slice" in entry else None)
    else:
        raise UsageError(f"{axis}_sums needs 'values' or 'sparse'")
    return AxisSums.of(dims, index, slices, value, [kind == "equal"] * len(index))


def _parse_blocks(doc, rows: int) -> FixedCells:
    if isinstance(doc, dict):
        _require_keys(doc, {"diagonal_prefix", "values"}, "fixed_blocks")
        m = _integer(doc["diagonal_prefix"])
        values = doc.get("values", 0.0)
        if not isinstance(values, list):
            # validation refuses the first node past the shape: build up to it
            m = min(m, rows + 1)
            values = [values] * m
        if len(values) != m:
            raise UsageError("diagonal_prefix and values length disagree")
        w = _floats(values, lambda p, v: f"fixed block value {v} < 0")
        return FixedCells.packed(np.ones(m, dtype=np.intp), np.arange(m), w)
    size, nodes, values = [], [], []
    for entry in _typed(doc, list):
        _require_keys(entry, {"indices", "matrix"}, "fixed_blocks[]")
        index_set = [_integer(i) for i in _typed(entry["indices"], list)]
        matrix = [[_number(v) for v in _typed(row, list)]
                  for row in _typed(entry["matrix"], list)]
        check_block(index_set, matrix)
        size.append(len(index_set))
        nodes += index_set
        values += [v for row in matrix for v in row]
    return FixedCells.packed(size, nodes, values)


def load_problem(doc: dict) -> ProblemSpec:
    """Build a (validated) spec from a parsed problem document.

    A missing field, a value of the wrong type and a non-finite number are
    malformed input and raise :class:`UsageError`.
    """
    if not isinstance(doc, dict) or "shape" not in doc:
        raise UsageError("problem document must be an object with a 'shape' key")
    try:
        spec = _read_spec(doc)
    except KeyError as e:
        raise UsageError(f"missing field {e} in problem document") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise UsageError(f"malformed problem document: {e}") from e
    return validate_spec(spec)


def _read_spec(doc: dict) -> ProblemSpec:
    """The spec a document states, its lists read into arrays in document order."""
    _require_keys(doc, _TOP_KEYS, "problem document")
    sh = doc["shape"]
    _require_keys(sh, {"rows", "cols", "slices"}, "shape")
    shape = Shape(
        _integer(sh["rows"]), _integer(sh["cols"]),
        _integer(sh["slices"]) if sh.get("slices") is not None else None,
    )
    if shape.rows * shape.cols * (shape.slices or 1) > sys.maxsize:
        raise UsageError(f"shape has more than sys.maxsize = {sys.maxsize} cells")
    sums = {}
    for axis, n in (("row", shape.rows), ("col", shape.cols)):
        dims = (n,) if shape.slices is None else (n, shape.slices)
        key = f"{axis}_sums"
        sums[axis] = _parse_marginals(doc[key], axis, dims) if key in doc else \
            AxisSums.of(dims, [], [], [], [])
    total = None
    if "total" in doc:
        _require_keys(doc["total"], {"kind", "value"}, "total")
        if doc["total"].get("kind") not in ("equal", "upper"):
            raise UsageError("total.kind must be 'equal' or 'upper'")
        total = TotalConstraint(doc["total"]["kind"], _number(doc["total"]["value"]))
    rows, cols, caps = [], [], []
    for e in _typed(doc.get("element_bounds", []), list):
        _require_keys(e, {"i", "j", "ub"}, "element_bounds[]")
        rows.append(_integer(e["i"]))
        cols.append(_integer(e["j"]))
        caps.append(_number(e["ub"]))
        if caps[-1] < 0:
            raise NegativeValue(f"element bound at ({rows[-1]},{cols[-1]}) is negative")
    blocks = _parse_blocks(doc.get("fixed_blocks", []), shape.rows)
    return ProblemSpec(shape, sums["row"], sums["col"],
                       (_intp(rows), _intp(cols), np.array(caps, dtype=float)), blocks, total,
                       _typed(doc.get("symmetric", False), bool))


def _read_matrix(doc) -> np.ndarray:
    """The array of a matrix document: a bare list, ``matrix`` or ``slices``."""
    try:
        if isinstance(doc, dict):
            doc = doc["slices"] if "slices" in doc else doc["matrix"]
        cells = np.asarray(doc, dtype=object)
        if not {type(v) for v in cells.ravel().tolist()} <= {int, float}:
            raise UsageError("a matrix document's cells must be numbers")
        X = cells.astype(float)
    except KeyError as e:
        raise UsageError(f"missing field {e} in matrix document") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise UsageError(f"malformed matrix document: {e}") from e
    if not np.all(np.isfinite(X)):
        raise UsageError("non-finite number in matrix document")
    return X


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise UsageError(f"{path} is not valid JSON: {e}") from e


# ----------------------------------------------------------------------
# Result emission
# ----------------------------------------------------------------------


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _residuals(spec: ProblemSpec, X: np.ndarray) -> dict:
    """The largest relative miss of an equality and of a bound; a nan is skipped."""
    equal, val, bound = constraint_values(spec, X)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is nan, as on floats
        res = (val - bound) / np.maximum(1.0, np.abs(bound))
    eq_res, bound_res = (float(np.fmax.reduce(r, initial=0.0)) for r in (np.abs(res[equal]),
                                                                         res[~equal]))
    return {"max_equality": max(0.0, eq_res), "max_bound_violation": max(0.0, bound_res)}


def _series_payload(sol: Solution, order: int):
    if sol.root is None:
        return None
    xi0 = 9.0 / (4.0 * sol.root.sigma)
    state = series_approx_xi(sol.root, xi0, order)
    return {
        "order": order,
        "xi0": xi0,
        "delta": state.delta,
        "terms": list(state.terms[: order + 1]),
        "value": state.value,
    }


def _solution_payload(sol, spec: ProblemSpec, series_order: int | None) -> dict:
    out: dict = {"case": sol.case.value, "total": _jsonable(sol.total)}
    if isinstance(sol, TensorSolution):
        out["slices"] = np.moveaxis(sol.values, 2, 0)
        out["lambda"] = [_jsonable(v) for v in sol.lam]
        out["xi"] = [_jsonable(v) for v in sol.xi]
        X = sol.values
    else:
        out["matrix"] = sol.matrix
        out["k"] = sol.k
        out["lambda"] = _jsonable(sol.lam)
        out["xi"] = _jsonable(sol.xi)
        multipliers = {}
        if sol.row_multipliers is not None:
            multipliers["row"] = _jsonable(sol.row_multipliers)
        if sol.col_multipliers is not None:
            multipliers["col"] = _jsonable(sol.col_multipliers)
        if multipliers:
            out["multipliers"] = multipliers
        X = sol.matrix
    out["log10_realizations"] = log10_realizations(X).log10
    out["residuals"] = _residuals(spec, X)
    if sol.notes:
        out["notes"] = list(sol.notes)
    if series_order is not None and isinstance(sol, Solution):
        try:
            series = _series_payload(sol, series_order)
        except LikelymatError:
            series = None  # expansion point inadmissible; solve output stands
        if series is not None:
            out["series"] = series
    return out


_encode_scalar = json.JSONEncoder(allow_nan=False).encode
_NON_FINITE = "Out of range float values are not JSON compliant: "


def _float_cells(a: np.ndarray) -> np.ndarray:
    """``repr`` of every cell of a float64 array, as an object array of its shape.

    Closed-form solutions repeat values, so each distinct value is formatted
    once and gathered back into place.
    """
    u, inv = distinct_values(a)
    text = np.array([float.__repr__(v) for v in u.tolist()], dtype=object)
    return text[inv].reshape(a.shape)


def _join(items: list[str], indent: str, open_: str, close: str) -> str:
    if not items:
        return open_ + close
    inner = indent + "  "
    return open_ + inner + ("," + inner).join(items) + indent + close


def _join_cells(cells: np.ndarray, indent: str) -> str:
    if cells.ndim == 1:
        return _join(cells.tolist(), indent, "[", "]")
    inner = indent + "  "
    return _join([_join_cells(sub, inner) for sub in cells], indent, "[", "]")


def _dumps(o, indent: str = "\n") -> str:
    """``json.dumps(o, indent=2, sort_keys=True, allow_nan=False)``, byte for byte.

    Float64 arrays are encoded in place of their ``tolist()`` without
    building it.  Containers are laid out here, because passing ``indent``
    to :mod:`json` selects its pure-Python encoder; scalars go through the
    C encoder.  Dict keys must be strings.  NaN and +-inf raise ValueError
    with :mod:`json`'s message for the first of them.
    """
    inner = indent + "  "
    if isinstance(o, dict):
        return _join([f"{_encode_scalar(k)}: {_dumps(v, inner)}" for k, v in sorted(o.items())],
                     indent, "{", "}")
    if isinstance(o, (list, tuple)):
        return _join([_dumps(v, inner) for v in o], indent, "[", "]")
    if isinstance(o, np.ndarray):
        if o.dtype != np.float64 or o.ndim == 0:
            return _dumps(o.tolist(), indent)
        finite = np.isfinite(o)
        if not finite.all():
            raise ValueError(_NON_FINITE + repr(o[~finite][0].item()))
        return _join_cells(_float_cells(o), indent)
    if isinstance(o, float) and not math.isfinite(o):
        raise ValueError(_NON_FINITE + repr(o))
    return _encode_scalar(o)


def _emit(payload, args) -> None:
    if getattr(args, "format", "json") == "csv":
        sheets = [payload["matrix"]] if "matrix" in payload else payload["slices"]
        chunks = []
        for sheet in sheets:
            cells = _float_cells(np.asarray(sheet, dtype=np.float64))
            chunks.append("\n".join(",".join(row) for row in cells.tolist()))
        text = ("\n\n").join(chunks) + "\n"
    else:
        try:
            text = _dumps(payload) + "\n"
        except ValueError as e:  # strict JSON has no NaN or Infinity
            raise LikelymatError(f"result has a non-finite number: {e}") from e
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _cmd_solve(args) -> int:
    spec = load_problem(_read_json(args.file))
    sol = solve(spec)
    _emit(_solution_payload(sol, spec, args.series_order), args)
    return 0


def _cmd_check(args) -> int:
    spec = load_problem(_read_json(args.file))
    case = classify(spec)
    payload: dict = {"valid": True, "case": case.value}
    if case is not SolverCase.UNSUPPORTED:
        try:
            solve(spec)  # refuse what the case's solver refuses, with its message
        except ConsistencyViolation as e:  # or with the half-total check's report
            violations = [  # a value past the float range reads null
                {"indices": list(index_set), "outgoing": _finite_or_none(outgoing),
                 "limit": _finite_or_none(limit), **({"slice": k} if spec.shape.is_3d else {})}
                for k, index_set, outgoing, limit in e.violations
            ]
            payload["consistency"] = {"ok": False, "violations": violations}
            _emit(payload, args)
            first = violations[0]
            where = "" if "slice" not in first else f" of slice {first['slice']}"
            print(f"consistency violation at index set {first['indices']}{where}", file=sys.stderr)
            return 1
        if case in SATURATING:  # the solver ran the half-total check, and it passed
            payload["consistency"] = {"ok": True, "violations": []}
    _emit(payload, args)
    return 0


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _cmd_count(args) -> int:
    doc = _read_json(args.file)
    if isinstance(doc, dict) and "shape" in doc:
        spec = load_problem(doc)
        rows = spec.sums["row"]
        if row_sums_only(spec):
            u = rows.values().tolist()
            m = spec.shape.cols
            payload = {
                "feasible_saturated": count_feasible_row_bounded(u, m, True).value,
            }
            if rows.kinds == {"upper"}:
                payload["feasible_under_bounds"] = count_feasible_row_bounded(
                    u, m, False
                ).value
            _emit(payload, args)
            return 0
        raise UsageError("count on a problem file needs a row-sums-only spec")
    X = _read_matrix(doc)
    payload = {"log10_realizations": log10_realizations(X).log10, "total": float(X.sum())}
    if args.exact or np.allclose(X, np.rint(X), rtol=0, atol=1e-9):
        try:
            payload["exact"] = exact_realizations(X).value
        except CountOverflow:  # too many digits: unasked, the log10 count stands alone
            if args.exact:
                raise
    _emit(payload, args)
    return 0


def _oracle_objective(spec: ProblemSpec, case: SolverCase) -> str:
    """The objective the closed form of ``spec`` maximizes: H (entropy) when
    the equalities fix the total, else G (the entropy difference).  ``case``
    does not enter the rule."""
    return "H" if _fixes_total(spec) else "G"


def _cmd_oracle(args) -> int:
    spec = load_problem(_read_json(args.file))
    sol = solve(spec)
    objective = _oracle_objective(spec, sol.case)
    result = numeric_maxent(spec, objective)
    analytic = sol.values if isinstance(sol, TensorSolution) else sol.matrix
    gap = float(np.abs(analytic - result.matrix).max())
    payload = {
        "case": sol.case.value,
        "objective": objective,
        "linf_gap": gap,
        "oracle_objective_value": result.objective_value,
        "converged": result.converged,
        "iterations": result.iterations,
        "residual": result.residual,
    }
    if isinstance(sol, Solution):
        report = verify_kkt(sol, spec)
        payload["kkt_ok"] = report.ok
        payload["kkt_violations"] = list(report.violations)
    _emit(payload, args)
    return 0


def _cmd_brute(args) -> int:
    spec = load_problem(_read_json(args.file))
    result = brute_force_most_likely(spec)
    payload = {
        "n_feasible": result.n_feasible,
        "max_realizations": result.count.value,
        "argmax": [M.tolist() for M in result.argmax],
    }
    _emit(payload, args)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="likelymat",
        description="Most-likely matrices from sums, bounds, and fixed blocks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, fn, extra in (
        ("solve", _cmd_solve, "solve a problem file and emit the matrix"),
        ("count", _cmd_count, "realization counts for a matrix or problem file"),
        ("check", _cmd_check, "validate a problem file and run consistency checks"),
        ("oracle", _cmd_oracle, "compare the closed form against the numerical optimizer"),
        ("brute", _cmd_brute, "enumerate small integer instances exhaustively"),
    ):
        p = commands[name] = sub.add_parser(name, help=extra)
        p.add_argument("file", help="path to a JSON problem (or matrix) document")
        p.add_argument("--out", default=None, help="write the result here instead of stdout")
        p.set_defaults(fn=fn)
    commands["solve"].add_argument("--format", choices=("json", "csv"), default="json")
    commands["solve"].add_argument(
        "--series-order", type=int, choices=(0, 1, 2), default=None,
        help="also report the power-series root approximation of this order",
    )
    commands["count"].add_argument(
        "--exact", action="store_true",
        help="force exact big-integer counting where applicable",
    )
    return parser


def main(argv=None) -> int:
    # Exact counts can run to more digits than int-to-str allows by default.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except LikelymatError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # numpy raises a private subclass; name the builtin
        print(f"error: MemoryError: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
