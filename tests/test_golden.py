"""Golden corpus: the CLI's stdout on fixed documents, byte for byte.

Each entry runs ``main`` on a document in ``tests/golden/`` and compares its
stdout with the ``<id>.out`` file stored beside it.  The stored outputs were
written by the program before its emitter and counting were rewritten; the
four fixed-entry outputs added later were written before the fixed-entry
solvers were merged, and three of them were then rewritten on purpose.
The 12x12 element-bounds output was written before element caps were
water-filled in one batched pass over all rows.  The two gravity
documents at 1e300 were added with the fix that keeps their multipliers and
entries finite (before it, both exited 1).  The four column-form documents
(``col_*``) and ``row_col_bounds_wide`` were written before column-form
specs were solved through their transpose; of them, ``col_total_bounds``
was then rewritten on purpose (its matrix became C-ordered).  When the
bound cases moved to one multiplier gauge (achieved sum over the largest on
its side), seven outputs were rewritten on purpose: the multipliers of
``row_bounds``, ``col_bounds``, ``row_col_bounds`` and
``row_col_bounds_wide`` (old gauge u/(m s) and its kin), and the last bits of
the multipliers of ``total_row_bounds``, ``readme_total_row_bounds`` and
``sym_total`` (bound / level, was (n - k) bound / leftover).  ``sym_total``
also became the gravity matrix over its water-filled marginal: its entries
moved by at most 2.4e-16 relative, and with them its ``log10_realizations``
and ``residuals``.  A change to any output byte fails here unless the files
are deliberately rewritten and the change recorded in CHANGES.md.

Four entries pin the independent check: ``oracle`` on ``bounded_total``
(the free-total search), ``row_elem_bounds`` (element caps) and
``sym_blocks`` (fixed cells), and ``brute`` on ``brute_caps``, a small
integer document with a zero and a finite element cap.  They were written
before the oracle's program became arrays only, and that rewrite kept them
byte for byte.  When the G objective moved from a line search over the
total to minorize-maximize rounds, the two G outputs, ``bounded_total`` and
``row_elem_bounds``, were rewritten on purpose: their ``iterations`` moved,
and so did the last bits of ``row_elem_bounds``'s ``residual``.  When
every Gram system of the oracle moved to one pivoted-Cholesky solve, and its
second L-BFGS-B round and least-squares fallback went, all three oracle
outputs were rewritten on purpose: ``bounded_total``'s ``iterations`` went
from 21 to 13, the last bit of ``row_elem_bounds``'s
``oracle_objective_value`` moved, and ``sym_blocks``'s ``linf_gap`` went
from 1.4e-14 to 3.6e-15.  When L-BFGS-B's first run was capped at 8
iterations before the Newton polish, the three oracle outputs were rewritten
on purpose again: their ``iterations`` went from 13/38/11 to 11/13/10
(``bounded_total``, ``row_elem_bounds``, ``sym_blocks``), their
``residual`` rose from about 9e-16 to at most 1.5e-14 and their
``linf_gap`` to at most 6.5e-14, both inside the polish's 1e-12, and the
last bits of their ``oracle_objective_value`` moved.  When L-BFGS-B went
and projected-Newton steps from zero became the whole dual solve, the
three oracle outputs were rewritten on purpose once more: ``iterations``
went from 11/13/10 to 7/8/7 Newton steps, ``residual`` to at most 1.3e-13,
``linf_gap`` to at most 2.2e-12 (``row_elem_bounds``), and the last bits of
``oracle_objective_value`` moved.  When two scaling sweeps over the
constraint families came to start every dual solve, the three were
rewritten on purpose again: ``iterations`` went from 7/8/7 to 4/3/4
(``bounded_total``, ``row_elem_bounds``, ``sym_blocks``); for the first two,
``residual`` and ``linf_gap`` moved (at most 5.8e-15 and 8.0e-15) and so did
the last bits of ``oracle_objective_value``.

A second table, ``ERROR_CASES``, pins the exit code and the stderr bytes of
documents that fail the feasibility checks, stored as ``<id>.err``.  Their
messages print sums that depend on the order in which the checks add the
stated values (document order for marginal totals, column order for a row's
caps), so they were written before those checks moved onto array views.
The last entry, ``count --exact`` on a real-valued matrix, was written when
that error got its own class and a message naming the first non-integer
cell (it had been reported as a negative entry, with the whole matrix).
``count --exact`` on ``big_integer_matrix``, [[10^6, 10^6]], pins the
refusal of an exact count past the digit limit (it ran for a minute).

Both tables are also run with every likelymat module's ``sum`` replaced by
a compensated (Neumaier) sum, as builtin ``sum`` is for floats from Python
3.12: the bytes must not move, so no float sum that reaches them may be
builtin.
"""

import builtins
import math
import sys
from pathlib import Path

import pytest

from likelymat.cli import main

GOLDEN = Path(__file__).parent / "golden"

# id -> (document stem, [subcommand, *flags]); the document path follows the subcommand
CASES = {
    "gravity.solve": ("gravity", ["solve"]),
    "gravity.solve.csv": ("gravity", ["solve", "--format", "csv"]),
    "gravity_1e300.solve": ("gravity_1e300", ["solve"]),
    "gravity_sparse_1e300.solve": ("gravity_sparse_1e300", ["solve"]),
    "row_bounds.solve": ("row_bounds", ["solve"]),
    "total_row_bounds.solve": ("total_row_bounds", ["solve"]),
    "bounded_total.solve": ("bounded_total", ["solve"]),
    "row_col_bounds.solve": ("row_col_bounds", ["solve"]),
    "row_col_bounds_wide.solve": ("row_col_bounds_wide", ["solve"]),
    "col_bounds.solve": ("col_bounds", ["solve"]),
    "col_total_bounds.solve": ("col_total_bounds", ["solve"]),
    "col_bounded_total.solve": ("col_bounded_total", ["solve"]),
    "col_gravity.solve": ("col_gravity", ["solve"]),
    "row_elem_bounds.solve": ("row_elem_bounds", ["solve"]),
    "row_elem_bounds_12.solve": ("row_elem_bounds_12", ["solve"]),
    "sym_total.solve": ("sym_total", ["solve"]),
    "sym_fixed_diag.solve": ("sym_fixed_diag", ["solve"]),
    "sym_fixed_diag.solve.series1": ("sym_fixed_diag", ["solve", "--series-order", "1"]),
    "sym_fixed_diag_upper.solve": ("sym_fixed_diag_upper", ["solve"]),
    "sym_singleton_blocks.solve": ("sym_singleton_blocks", ["solve"]),
    "sym_singleton_blocks.solve.series2": (
        "sym_singleton_blocks", ["solve", "--series-order", "2"]),
    "sym_3d.solve": ("sym_3d", ["solve"]),
    "sym_3d.solve.csv": ("sym_3d", ["solve", "--format", "csv"]),
    "sym_blocks.solve": ("sym_blocks", ["solve"]),
    "sym_blocks.solve.series1": ("sym_blocks", ["solve", "--series-order", "1"]),
    "sym_blocks.check": ("sym_blocks", ["check"]),
    "readme_total_row_bounds.solve": ("readme_total_row_bounds", ["solve"]),
    "readme_zero_diagonal.solve.series2": (
        "readme_zero_diagonal", ["solve", "--series-order", "2"]),
    "readme_zero_diagonal.check": ("readme_zero_diagonal", ["check"]),
    "count_row_bounds.count": ("count_row_bounds", ["count"]),
    "integer_matrix.count.exact": ("integer_matrix", ["count", "--exact"]),
    "real_matrix.count": ("real_matrix", ["count"]),
    "bounded_total.oracle": ("bounded_total", ["oracle"]),
    "row_elem_bounds.oracle": ("row_elem_bounds", ["oracle"]),
    "sym_blocks.oracle": ("sym_blocks", ["oracle"]),
    "brute_caps.brute": ("brute_caps", ["brute"]),
}


# id -> (document stem, [subcommand, *flags], exit code); stdout stays empty
ERROR_CASES = {
    "err_col_total_above_rows.solve": ("err_col_total_above_rows", ["solve"], 1),
    "err_row_col_totals_differ.solve": ("err_row_col_totals_differ", ["solve"], 1),
    "err_total_disagrees.solve": ("err_total_disagrees", ["solve"], 1),
    "err_rows_above_total_bound.solve": ("err_rows_above_total_bound", ["solve"], 1),
    "err_total_above_row_bounds.solve": ("err_total_above_row_bounds", ["solve"], 1),
    "err_sym_cols_differ.solve": ("err_sym_cols_differ", ["solve"], 1),
    "err_row_above_caps.solve": ("err_row_above_caps", ["solve"], 1),
    "err_unbounded_caps_row.solve": ("err_unbounded_caps_row", ["solve"], 1),
    "real_matrix.count.exact": ("real_matrix", ["count", "--exact"], 1),
    "big_integer_matrix.count.exact": ("big_integer_matrix", ["count", "--exact"], 1),
}


def argv_of(doc: str, argv: list[str]) -> list[str]:
    return [argv[0], str(GOLDEN / f"{doc}.json"), *argv[1:]]


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_stdout_is_byte_identical(case_id, capsys):
    code = main(argv_of(*CASES[case_id]))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.encode() == (GOLDEN / f"{case_id}.out").read_bytes()


@pytest.mark.parametrize("case_id", sorted(ERROR_CASES))
def test_stderr_is_byte_identical(case_id, capsys):
    doc, argv, expected = ERROR_CASES[case_id]
    code = main(argv_of(doc, argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (expected, "")
    assert captured.err.encode() == (GOLDEN / f"{case_id}.err").read_bytes()


def test_every_stored_file_is_used():
    used = {f"{doc}.json" for doc, _ in CASES.values()} | {f"{c}.out" for c in CASES}
    used |= {f"{doc}.json" for doc, _, _ in ERROR_CASES.values()}
    used |= {f"{c}.err" for c in ERROR_CASES}
    assert {p.name for p in GOLDEN.iterdir()} == used


def _neumaier_sum(values, start=0):
    """Builtin ``sum`` as Python 3.12 has it for floats: compensated
    (Neumaier), so ``[1e16, 1.0, -1e16]`` sums to 1.0, not 0.0."""
    values = list(values)
    if not all(type(v) is float for v in values):
        return builtins.sum(values, start)
    total, carry = float(start), 0.0
    for v in values:
        t = total + v
        carry += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + carry if carry and math.isfinite(carry) else total


def test_neumaier_sum_is_not_left_to_right():
    assert _neumaier_sum([1e16, 1.0, -1e16]) == 1.0
    assert builtins.sum([1e16, 1.0, -1e16]) == (1.0 if sys.version_info >= (3, 12) else 0.0)


@pytest.fixture
def compensated_sum(monkeypatch):
    """Every likelymat module's ``sum`` replaced by :func:`_neumaier_sum`."""
    for name in list(sys.modules):
        if name == "likelymat" or name.startswith("likelymat."):
            monkeypatch.setattr(sys.modules[name], "sum", _neumaier_sum, raising=False)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_stdout_does_not_depend_on_builtin_sum(case_id, capsys, compensated_sum):
    test_stdout_is_byte_identical(case_id, capsys)


@pytest.mark.parametrize("case_id", sorted(ERROR_CASES))
def test_stderr_does_not_depend_on_builtin_sum(case_id, capsys, compensated_sum):
    test_stderr_is_byte_identical(case_id, capsys)
