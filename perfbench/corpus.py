"""Seeded problem documents for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and fixed sizes, so a
workload's sizes are part of its definition and only the values vary with
the seed.  Documents are the JSON problem files that ``likelymat`` reads;
the program never sees anything else of the benchmark.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# Cases as the program labels them; the checks compare against these.
GRAVITY = "gravity_partial_cols"
ROW_BOUNDS = "row_bounds"
TOTAL_ROW_BOUNDS = "total_row_bounds"
BOUNDED_TOTAL = "bounded_total_row_bounds"
ROW_COL_BOUNDS = "row_col_bounds"
ROW_ELEM = "row_bounds_elem_bounds"
SYM_TOTAL = "sym_total_row_col_bounds"
SYM_FIXED_DIAG = "sym_fixed_diagonal"
SYM_3D = "sym_3d_fixed_diagonal"
SYM_BLOCKS = "sym_block_diagonal"


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a command over one document.

    ``check`` names the output check in :mod:`checks`; ``expect_exit`` is
    the exit code the README contract prescribes for the document (0
    success, 1 infeasible data, 2 malformed input).
    """

    name: str
    command: str
    text: str
    check: str
    expect_exit: int = 0
    flags: tuple[str, ...] = ()
    case: str | None = None
    doc: dict | None = field(default=None, compare=False)


def _vals(a) -> list:
    return [round(float(v), 4) for v in a]


def _op(name, command, doc, check, case=None, flags=(), expect_exit=0) -> Op:
    return Op(name, command, json.dumps(doc), check, expect_exit, tuple(flags), case, doc)


# ----------------------------------------------------------------------
# One generator per closed-form case
# ----------------------------------------------------------------------


def gravity(rng, n, m, ell, lo=1.0):
    """All row sums, the first ``ell`` column sums (sparse form)."""
    u = rng.uniform(lo, 100.0, n)
    s = float(np.round(u, 4).sum())
    share = rng.uniform(0.3, 0.9)
    w = rng.uniform(0.5, 1.5, ell)
    v = np.floor(share * s * w / w.sum() * 1e4) / 1e4
    return {
        "shape": {"rows": n, "cols": m},
        "row_sums": {"kind": "equal", "values": _vals(u)},
        "col_sums": {"kind": "equal",
                     "sparse": [{"index": j, "value": float(v[j])} for j in range(ell)]},
    }


def row_bounds(rng, n, m, integer=False, lo=1.0):
    u = rng.integers(1, 30, n) if integer else rng.uniform(lo, 100.0, n)
    return {
        "shape": {"rows": n, "cols": m},
        "row_sums": {"kind": "upper", "values": [int(x) for x in u] if integer else _vals(u)},
    }


def total_row_bounds(rng, n, m, kind="equal", lo=1.0):
    u = np.round(rng.uniform(lo, 100.0, n), 4)
    s = round(float(u.sum()) * rng.uniform(0.4, 0.8), 4)
    return {
        "shape": {"rows": n, "cols": m},
        "row_sums": {"kind": "upper", "values": _vals(u)},
        "total": {"kind": kind, "value": s},
    }


def row_col_bounds(rng, n, m, lo=1.0):
    u = rng.uniform(lo, 100.0, n)
    v = rng.uniform(lo, 100.0, m) * rng.uniform(1.2, 2.0) * n / m
    return {
        "shape": {"rows": n, "cols": m},
        "row_sums": {"kind": "upper", "values": _vals(u)},
        "col_sums": {"kind": "upper", "values": _vals(v)},
    }


def row_elem_bounds(rng, n, m, per_row, lo=10.0):
    u = rng.uniform(lo, 100.0, n)
    bounds = []
    for i in range(n):
        for j in sorted(rng.choice(m, per_row, replace=False)):
            bounds.append({"i": i, "j": int(j), "ub": round(float(rng.uniform(0.0, 3.0)), 4)})
    return {
        "shape": {"rows": n, "cols": m},
        "row_sums": {"kind": "upper", "values": _vals(u)},
        "element_bounds": bounds,
    }


def sym_total(rng, n, lo=1.0):
    u = np.round(rng.uniform(lo, 100.0, n), 4)
    return {
        "shape": {"rows": n, "cols": n},
        "row_sums": {"kind": "upper", "values": _vals(u)},
        "total": {"kind": "equal", "value": round(float(u.sum()) * rng.uniform(0.4, 0.8), 4)},
        "symmetric": True,
    }


def sym_fixed_diag(rng, n, prefix):
    """Row sums with the first ``prefix`` diagonal entries pinned.

    Sums stay within a factor of two of each other, so every ratio sits well
    below a third of the total (the regime in which a root exists).
    """
    u = np.round(rng.uniform(50.0, 100.0, n), 4)
    w = np.round(u[:prefix] * rng.uniform(0.0, 0.2, prefix), 4)
    return {
        "shape": {"rows": n, "cols": n},
        "row_sums": {"kind": "equal", "values": _vals(u)},
        "fixed_blocks": {"diagonal_prefix": prefix, "values": _vals(w)},
        "symmetric": True,
    }


def sym_3d(rng, n, slices):
    u = rng.uniform(50.0, 100.0, (n, slices))
    return {
        "shape": {"rows": n, "cols": n, "slices": slices},
        "row_sums": {"kind": "equal", "values": [_vals(row) for row in u]},
        "fixed_blocks": {"diagonal_prefix": n, "values": 0},
        "symmetric": True,
    }


def sym_blocks(rng, n, size):
    """Row sums with the node set partitioned into fixed symmetric blocks."""
    u = np.round(rng.uniform(50.0, 100.0, n), 4)
    blocks = []
    for start in range(0, n, size):
        idx = list(range(start, min(n, start + size)))
        k = len(idx)
        A = rng.uniform(0.0, 1.0, (k, k))
        A = np.round(A + A.T, 4)
        blocks.append({"indices": idx, "matrix": [_vals(row) for row in A]})
    return {
        "shape": {"rows": n, "cols": n},
        "row_sums": {"kind": "equal", "values": _vals(u)},
        "fixed_blocks": blocks,
        "symmetric": True,
    }


def integer_matrix(rng, n, m, top):
    return {"matrix": rng.integers(0, top + 1, (n, m)).tolist()}


# ----------------------------------------------------------------------
# Fixed documents: README examples and the 2x2/3x3 enumeration instances
# ----------------------------------------------------------------------

README_TOTAL_ROW_BOUNDS = {
    "shape": {"rows": 10, "cols": 10},
    "row_sums": {"kind": "upper", "values": [20, 20, 24, 30, 30, 36, 36, 36, 36, 40]},
    "total": {"kind": "equal", "value": 275},
}

README_ZERO_DIAGONAL = {
    "shape": {"rows": 4, "cols": 4},
    "row_sums": {"kind": "equal", "values": [40, 20, 30, 40]},
    "fixed_blocks": {"diagonal_prefix": 4, "values": [0, 0, 0, 0]},
    "symmetric": True,
}


def warm_up_op() -> Op:
    """The small op that CLI workloads run once, untimed, before timing."""
    return _op("warm_up.check", "check", README_ZERO_DIAGONAL, "check", SYM_FIXED_DIAG)


def brute_2x2(rng):
    rows = [int(x) for x in rng.integers(1, 4, 2)]
    return {
        "shape": {"rows": 2, "cols": 2},
        "row_sums": {"kind": "equal", "values": rows},
        "col_sums": {"kind": "equal",
                     "sparse": [{"index": 0, "value": int(rng.integers(0, sum(rows) + 1))}]},
    }


def brute_3x3(rng):
    rows = [int(x) for x in rng.integers(1, 3, 3)]
    return {
        "shape": {"rows": 3, "cols": 3},
        "row_sums": {"kind": "upper", "values": rows},
        "total": {"kind": "equal", "value": sum(rows) - 1},
    }


# ----------------------------------------------------------------------
# Workload corpora
# ----------------------------------------------------------------------

# Failures that are known defects of the program at the commit that defined
# this benchmark: op name -> the start of the failure reason they produce
# (exit code, then the exception or the output fault that identifies them).
# The ops stay in the corpus and count as failed ops; a run is still
# "correct" when every failure it sees is listed here with its reason.
KNOWN_DEFECTS = {
    # json.dumps of an exact count above 4300 digits raises ValueError.
    "count_exact.20x20": "exit 1, expected 0: ValueError: Exceeds the limit (4300 digits)",
    # An infinite equality row sum (1e400) exits 0 and writes NaN and Infinity.
    "defect.nonfinite_row_sum": "exit 0, expected 2: output has non-standard JSON constant",
    # An element bound without "j" raises KeyError instead of exiting 2.
    "defect.element_bound_without_j": "exit 1, expected 2: KeyError: 'j'",
    # The oracle payload can hold a numpy bool ("converged"), which
    # json.dumps rejects with TypeError; whether it does depends on the data.
    "oracle.total_row_bounds":
        "exit 1, expected 0: TypeError: Object of type bool is not JSON serializable",
}


def known_defect(name: str, reason: str) -> bool:
    return name in KNOWN_DEFECTS and reason.startswith(KNOWN_DEFECTS[name])


def ten_cases(rng, sizes: dict, lo=None) -> list[tuple[str, str, dict]]:
    """(name, case, document) for all ten closed-form cases.

    ``lo`` raises the smallest marginal the rectangular cases draw.
    """
    k = {} if lo is None else {"lo": lo}
    return [
        ("gravity", GRAVITY, gravity(rng, *sizes["gravity"], **k)),
        ("row_bounds", ROW_BOUNDS, row_bounds(rng, *sizes["row_bounds"], **k)),
        ("total_row_bounds", TOTAL_ROW_BOUNDS,
         total_row_bounds(rng, *sizes["total_row_bounds"], **k)),
        ("bounded_total", BOUNDED_TOTAL,
         total_row_bounds(rng, *sizes["bounded_total"], kind="upper", **k)),
        ("row_col_bounds", ROW_COL_BOUNDS, row_col_bounds(rng, *sizes["row_col_bounds"], **k)),
        ("row_elem_bounds", ROW_ELEM, row_elem_bounds(rng, *sizes["row_elem_bounds"], **k)),
        ("sym_total", SYM_TOTAL, sym_total(rng, *sizes["sym_total"], **k)),
        ("sym_fixed_diag", SYM_FIXED_DIAG, sym_fixed_diag(rng, *sizes["sym_fixed_diag"])),
        ("sym_3d", SYM_3D, sym_3d(rng, *sizes["sym_3d"])),
        ("sym_blocks", SYM_BLOCKS, sym_blocks(rng, *sizes["sym_blocks"])),
    ]


SMALL_SIZES = {
    "gravity": (30, 25, 10),
    "row_bounds": (20, 15),
    "total_row_bounds": (30, 30),
    "bounded_total": (25, 20),
    "row_col_bounds": (30, 20),
    "row_elem_bounds": (20, 20, 2),
    "sym_total": (30,),
    "sym_fixed_diag": (30, 10),
    "sym_3d": (12, 4),
    "sym_blocks": (24, 3),
}


def cli_small(seed: int) -> list[Op]:
    """Small documents (n <= 40) over every subcommand, in seeded order.

    Twenty ops, so that two passes of about 0.6 s child processes fit in a
    run: the ten cases through ``solve`` (two of them the README examples,
    one as CSV and one with the series root), ``check``, ``count`` on a spec
    and, exactly, on two integer matrices, ``oracle``, ``brute``, malformed
    and infeasible documents, and the known defects.
    """
    rng = np.random.default_rng(seed)
    readme = {"total_row_bounds": ("readme.total_row_bounds", README_TOTAL_ROW_BOUNDS, ()),
              "sym_fixed_diag": ("readme.zero_diagonal", README_ZERO_DIAGONAL,
                                 ("--series-order", "2"))}
    ops = []
    for name, case, doc in ten_cases(rng, SMALL_SIZES):
        if name in readme:
            op_name, doc, flags = readme[name]
            ops.append(_op(op_name, "solve", doc, "solve", case, flags))
        elif name == "gravity":
            ops.append(_op("solve.gravity.csv", "solve", doc, "csv", case, ("--format", "csv")))
        else:
            ops.append(_op(f"solve.{name}", "solve", doc, "solve", case))
        if name == "sym_blocks":
            ops.append(_op("check.sym_blocks", "check", doc, "check", case))

    ops.append(_op("count.row_bounds", "count", row_bounds(rng, 10, 8, integer=True),
                   "count_spec"))
    ops.append(_op("count_exact.6x6", "count", integer_matrix(rng, 6, 6, 9),
                   "count_matrix", flags=("--exact",)))
    ops.append(_op("count_exact.20x20", "count", integer_matrix(rng, 20, 20, 50),
                   "count_matrix", flags=("--exact",)))
    ops.append(_op("oracle.total_row_bounds", "oracle", total_row_bounds(rng, 6, 6),
                   "oracle", TOTAL_ROW_BOUNDS))
    ops.append(_op("brute.3x3", "brute", brute_3x3(rng), "brute"))

    ops.append(Op("malformed.not_json", "solve", '{"shape": {"rows": 3,', "none", 2))
    infeasible = gravity(rng, 8, 6, 6)
    infeasible["col_sums"]["sparse"][0]["value"] += 1e6
    ops.append(_op("infeasible.col_total", "solve", infeasible, "none", expect_exit=1))

    rest = ", ".join(json.dumps(v) for v in _vals(rng.uniform(1.0, 100.0, 5)))
    text = ('{"shape": {"rows": 6, "cols": 5}, '
            f'"row_sums": {{"kind": "equal", "values": [1e400, {rest}]}}}}')
    ops.append(Op("defect.nonfinite_row_sum", "solve", text, "none", 2))
    no_j = row_elem_bounds(rng, 6, 6, 1)
    del no_j["element_bounds"][0]["j"]
    ops.append(_op("defect.element_bound_without_j", "solve", no_j, "none", expect_exit=2))

    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


LARGE_SIZES = {
    "gravity": (600, 500, 200),
    "total_row_bounds": (600, 500),
    "row_elem_bounds": (500, 500, 5),
    "sym_fixed_diag": (500, 500),
    "sym_blocks": (500, 5),
    "sym_3d": (250, 4),
}


def cli_large(seed: int) -> list[Op]:
    """One large ``solve --out`` per family; output emission dominates."""
    rng = np.random.default_rng(seed)
    s = LARGE_SIZES
    return [
        _op("solve.gravity", "solve", gravity(rng, *s["gravity"]), "solve", GRAVITY),
        _op("solve.total_row_bounds", "solve", total_row_bounds(rng, *s["total_row_bounds"]),
            "solve", TOTAL_ROW_BOUNDS),
        _op("solve.row_elem_bounds", "solve", row_elem_bounds(rng, *s["row_elem_bounds"]),
            "solve", ROW_ELEM),
        _op("solve.sym_fixed_diag", "solve", sym_fixed_diag(rng, *s["sym_fixed_diag"]),
            "solve", SYM_FIXED_DIAG),
        _op("solve.sym_blocks", "solve", sym_blocks(rng, *s["sym_blocks"]), "solve", SYM_BLOCKS),
        _op("solve.sym_3d", "solve", sym_3d(rng, *s["sym_3d"]), "solve", SYM_3D),
    ]


LIB_SIZES = {
    "gravity": (1000, 800, 300),
    "row_bounds": (1000, 800),
    "total_row_bounds": (2000, 1000),
    "bounded_total": (1500, 1000),
    "row_col_bounds": (1000, 1200),
    "row_elem_bounds": (600, 600, 3),
    "sym_total": (1000,),
    "sym_fixed_diag": (1500, 1500),
    "sym_3d": (300, 6),
    "sym_blocks": (1000, 4),
}

# Second instances of the root and water-filling cases, which the
# library workload weights twice.
LIB_EXTRA = (
    ("total_row_bounds.2", TOTAL_ROW_BOUNDS, total_row_bounds, (1500, 1500)),
    ("row_elem_bounds.2", ROW_ELEM, row_elem_bounds, (800, 400, 4)),
    ("sym_fixed_diag.2", SYM_FIXED_DIAG, sym_fixed_diag, (2000, 1000)),
    ("sym_blocks.2", SYM_BLOCKS, sym_blocks, (1200, 6)),
    ("sym_3d.2", SYM_3D, sym_3d, (200, 8)),
)

# Instances drawn per case, so that one seed's values do not decide a
# workload's cost.
LIB_INSTANCES = 2
VERIFY_INSTANCES = 3

# The oracle's iteration count, and so its cost, swings with the smallest
# marginal (80-130 iterations at n = 120 for sums drawn from 1..100); drawing
# them from 50..100 keeps it within a few iterations across seeds.
VERIFY_LO = 50.0


def lib_solve(seed: int) -> list[Op]:
    """Large specs for in-process ``solve``, all ten cases."""
    rng = np.random.default_rng(seed)
    ops = []
    for r in range(LIB_INSTANCES):
        cases = ten_cases(rng, LIB_SIZES)
        cases += [(name, case, gen(rng, *size)) for name, case, gen, size in LIB_EXTRA]
        ops += [_op(f"solve.{name}#{r}", "solve", doc, "solve", case)
                for name, case, doc in cases]
    return ops


VERIFY_SIZES = {
    "gravity": (40, 30, 10),
    "row_bounds": (20, 20),
    "total_row_bounds": (40, 30),
    "bounded_total": (30, 30),
    "row_col_bounds": (20, 25),
    "row_elem_bounds": (15, 15, 2),
    "sym_total": (30,),
    "sym_fixed_diag": (30, 30),
    "sym_3d": (10, 3),
    "sym_blocks": (24, 3),
}


def verify(seed: int) -> list[Op]:
    """Oracle checks of closed forms (n = 10..120) and two enumerations."""
    rng = np.random.default_rng(seed)
    ops = []
    for r in range(VERIFY_INSTANCES):
        ops += [_op(f"oracle.{name}#{r}", "oracle", doc, "oracle", case)
                for name, case, doc in ten_cases(rng, VERIFY_SIZES, lo=VERIFY_LO)]
    ops.append(_op("oracle.gravity.120", "oracle", gravity(rng, 120, 100, 20, lo=VERIFY_LO),
                   "oracle", GRAVITY))
    ops.append(_op("brute.2x2", "brute", brute_2x2(rng), "brute"))
    ops.append(_op("brute.3x3", "brute", brute_3x3(rng), "brute"))
    return ops
