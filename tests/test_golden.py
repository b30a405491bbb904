"""Golden corpus: the CLI's stdout on fixed documents, byte for byte.

Each entry runs ``main`` on a document in ``tests/golden/`` and compares its
stdout with the ``<id>.out`` file stored beside it.  The stored outputs were
written by the program before its emitter and counting were rewritten; the
four fixed-entry outputs added later were written before the fixed-entry
solvers were merged, and three of them were then rewritten on purpose.  A
change to any output byte fails here unless the files are deliberately
rewritten and the change recorded in CHANGES.md.
"""

from pathlib import Path

import pytest

from likelymat.cli import main

GOLDEN = Path(__file__).parent / "golden"

# id -> (document stem, [subcommand, *flags]); the document path follows the subcommand
CASES = {
    "gravity.solve": ("gravity", ["solve"]),
    "gravity.solve.csv": ("gravity", ["solve", "--format", "csv"]),
    "row_bounds.solve": ("row_bounds", ["solve"]),
    "total_row_bounds.solve": ("total_row_bounds", ["solve"]),
    "bounded_total.solve": ("bounded_total", ["solve"]),
    "row_col_bounds.solve": ("row_col_bounds", ["solve"]),
    "row_elem_bounds.solve": ("row_elem_bounds", ["solve"]),
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
}


def argv_of(case_id: str) -> list[str]:
    doc, argv = CASES[case_id]
    return [argv[0], str(GOLDEN / f"{doc}.json"), *argv[1:]]


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_stdout_is_byte_identical(case_id, capsys):
    code = main(argv_of(case_id))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.encode() == (GOLDEN / f"{case_id}.out").read_bytes()


def test_every_stored_file_is_used():
    used = {f"{doc}.json" for doc, _ in CASES.values()} | {f"{c}.out" for c in CASES}
    assert {p.name for p in GOLDEN.iterdir()} == used
