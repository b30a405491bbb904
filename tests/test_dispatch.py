"""End-to-end solve(): classification routing, transposes, permutations."""

import json
import sys

import numpy as np
import pytest

from likelymat import SolverCase, UnsupportedCase, classify, solve
from likelymat.cli import load_problem, main
from likelymat.solve import CASES, _pattern
from conftest import CASE_GENERATORS, make_spec, zero_diagonal_blocks

# The solver each case calls, by its name in likelymat.solve.
SOLVER_OF = {
    SolverCase.GRAVITY_PARTIAL_COLS: "solve_gravity_partial_cols",
    SolverCase.ROW_BOUNDS: "solve_row_bounds",
    SolverCase.TOTAL_ROW_BOUNDS: "solve_total_row_bounds",
    SolverCase.BOUNDED_TOTAL_ROW_BOUNDS: "solve_bounded_total_row_bounds",
    SolverCase.ROW_COL_BOUNDS: "solve_row_col_bounds",
    SolverCase.ROW_BOUNDS_ELEM_BOUNDS: "solve_row_bounds_elem_bounds",
    SolverCase.SYM_TOTAL_ROW_COL_BOUNDS: "solve_sym_total_row_col_bounds",
    SolverCase.SYM_FIXED_DIAGONAL: "solve_sym_block_diagonal",
    SolverCase.SYM_BLOCK_DIAGONAL: "solve_sym_block_diagonal",
    SolverCase.SYM_3D_FIXED_DIAGONAL: "solve_sym_3d_fixed_diagonal",
}


@pytest.mark.parametrize("case", list(SOLVER_OF), ids=lambda case: case.value)
def test_solve_calls_the_module_attribute(case, rng, monkeypatch):
    """``solve`` looks each solver up in its module at call time, so a wrapper
    put there (as the benchmark's traced run puts one) sees the call."""
    module, name = sys.modules["likelymat.solve"], SOLVER_OF[case]
    original, calls = getattr(module, name), []

    def recording(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    # a drawn block spec may hold singletons only, a fixed diagonal
    assert SOLVER_OF[solve(CASE_GENERATORS[case](rng)).case] == name
    assert calls == [name]


class TestRouting:
    def test_sparse_column_constraints_are_permuted(self):
        # the constrained column sits last; result must keep input order
        spec = make_spec(2, 3, row=("equal", [6, 4]), col=("equal", [None, None, 5]))
        sol = solve(spec)
        np.testing.assert_allclose(sol.matrix, [[1.5, 1.5, 3.0], [1.0, 1.0, 2.0]])

    def test_column_only_bounds_transpose(self):
        spec = make_spec(2, 3, col=("upper", [1.0, 2.0, 3.0]))
        sol = solve(spec)
        np.testing.assert_allclose(sol.matrix, [[0.5, 1.0, 1.5], [0.5, 1.0, 1.5]])
        assert sol.case is SolverCase.ROW_BOUNDS

    def test_column_only_equal_sums_transpose(self):
        spec = make_spec(2, 3, col=("equal", [2.0, 4.0, 6.0]))
        sol = solve(spec)
        np.testing.assert_allclose(sol.matrix, [[1, 2, 3], [1, 2, 3]])

    def test_complete_columns_with_partial_rows(self):
        # the mirror image of the usual pattern: all column sums, one row sum
        spec = make_spec(
            3, 2, row=("equal", [None, 5.0, None]), col=("equal", [6.0, 4.0])
        )
        sol = solve(spec)
        np.testing.assert_allclose(sol.matrix.sum(axis=0), [6, 4], rtol=1e-12)
        assert sol.matrix.sum(axis=1)[1] == pytest.approx(5.0, rel=1e-12)
        # unconstrained rows split the leftover identically
        np.testing.assert_allclose(sol.matrix[0], sol.matrix[2])
        direct = solve(
            make_spec(2, 3, row=("equal", [6.0, 4.0]), col=("equal", [None, 5.0, None]))
        )
        np.testing.assert_allclose(sol.matrix, direct.matrix.T, rtol=0, atol=0)

    def test_3d_with_consistent_total(self):
        u = [[6.0], [6.0], [6.0], [6.0]]
        spec = make_spec(
            4, 4, row=("equal", u), symmetric=True, slices=1, total=("equal", 24.0)
        )
        tensor = solve(spec)
        np.testing.assert_allclose(tensor.values[:, :, 0].sum(), 24.0, rtol=1e-12)

    def test_column_bounds_with_total(self):
        spec = make_spec(2, 2, col=("upper", [4.0, 8.0]), total=("equal", 9.0))
        sol = solve(spec)
        np.testing.assert_allclose(sol.matrix.sum(axis=0), [4.0, 5.0])
        assert sol.case is SolverCase.TOTAL_ROW_BOUNDS

    def test_column_form_matches_its_row_twin(self):
        bounds = [4.0, 8.0, 1.0]
        got = solve(make_spec(2, 3, col=("upper", bounds), total=("equal", 9.0)))
        twin = solve(make_spec(3, 2, row=("upper", bounds), total=("equal", 9.0)))
        assert got.permutation == twin.permutation == (2, 0, 1)
        assert (got.case, got.total, got.k) == (twin.case, twin.total, twin.k)
        np.testing.assert_array_equal(got.matrix, twin.matrix.T)
        np.testing.assert_array_equal(got.col_multipliers, twin.row_multipliers)
        assert got.row_multipliers is None and twin.col_multipliers is None

    def test_symmetric_equal_sums_are_gravity(self):
        spec = make_spec(3, 3, row=("equal", [2, 3, 5]), symmetric=True)
        sol = solve(spec)
        np.testing.assert_allclose(sol.matrix, np.outer([2, 3, 5], [2, 3, 5]) / 10.0)

    def test_symmetric_bounds_without_total(self):
        spec = make_spec(2, 2, row=("upper", [6, 4]), symmetric=True)
        sol = solve(spec)
        np.testing.assert_allclose(sol.matrix, np.outer([6, 4], [6, 4]) / 10.0)
        assert sol.case is SolverCase.ROW_COL_BOUNDS

    def test_unsupported_raises(self):
        spec = make_spec(
            2, 2, row=("upper", [2, 2]), col=("upper", [2, 2]), total=("equal", 3)
        )
        with pytest.raises(UnsupportedCase):
            solve(spec)

    def test_fixed_diagonal_scattered_indices(self):
        from likelymat import FixedBlock

        # fixing nodes 1 and 3 out of four; solver permutes internally
        u = [10.0, 8.0, 9.0, 7.0]
        spec = make_spec(
            4, 4, row=("equal", u), symmetric=True,
            blocks=(FixedBlock((1,), ((0.0,),)), FixedBlock((3,), ((0.0,),))),
        )
        sol = solve(spec)
        assert sol.matrix[1, 1] == 0.0 and sol.matrix[3, 3] == 0.0
        assert sol.matrix[0, 0] > 0.0 and sol.matrix[2, 2] > 0.0
        np.testing.assert_allclose(sol.matrix.sum(axis=1), u, rtol=1e-9)
        np.testing.assert_allclose(sol.matrix.sum(axis=0), u, rtol=1e-9)
        assert np.array_equal(sol.matrix, sol.matrix.T)

    def test_3d_dispatch(self):
        u = [[6.0, 3.0], [6.0, 3.0], [6.0, 3.0], [6.0, 3.0]]
        spec = make_spec(4, 4, row=("equal", u), symmetric=True, slices=2,
                         blocks=zero_diagonal_blocks(4))
        tensor = solve(spec)
        assert tensor.values.shape == (4, 4, 2)
        for k, scale in enumerate((6.0, 3.0)):
            np.testing.assert_allclose(
                tensor.values[:, :, k].sum(axis=1), [scale] * 4, rtol=1e-9
            )

    def test_upper_bound_fixed_diagonal_mode(self):
        # bounds instead of sums: same matrix, factors stay in (0, 1]
        from likelymat import FixedBlock

        u = [40.0, 20.0, 30.0, 40.0]
        blocks = tuple(FixedBlock((i,), ((0.0,),)) for i in range(4))
        eq = solve(make_spec(4, 4, row=("equal", u), symmetric=True, blocks=blocks))
        ub = solve(make_spec(4, 4, row=("upper", u), symmetric=True, blocks=blocks))
        np.testing.assert_allclose(eq.matrix, ub.matrix, rtol=0, atol=0)
        assert np.all(ub.row_multipliers <= 1.0)

    def test_rootless_instance_raises_bracket_failure(self):
        from likelymat import BracketFailure, FixedBlock

        # one node hogs 45% of the traffic: consistent, but beyond the
        # third-of-total regime where the factor equation still has a root
        u = [9.0, 11.0 / 3, 11.0 / 3, 11.0 / 3]
        blocks = tuple(FixedBlock((i,), ((0.0,),)) for i in range(4))
        spec = make_spec(4, 4, row=("equal", u), symmetric=True, blocks=blocks)
        with pytest.raises(BracketFailure):
            solve(spec)

    def test_case_tag_matches_classification(self):
        from likelymat import classify, validate_spec

        specs = [
            make_spec(2, 3, row=("equal", [6, 4]), col=("equal", [5, None, None])),
            make_spec(2, 2, row=("upper", [6, 4])),
            make_spec(2, 2, row=("upper", [6, 4]), total=("equal", 8.0)),
            make_spec(2, 2, row=("upper", [6, 4]), total=("upper", 8.0)),
            make_spec(2, 2, row=("upper", [6, 4]), col=("upper", [3, 3])),
            make_spec(2, 2, row=("upper", [6, 4]), elements=[(0, 0, 1.0)]),
        ]
        for spec in specs:
            assert solve(spec).case is classify(validate_spec(spec))


SLICE_SUMS = [[1, 2], [1, 2], [1, 2]]
BOUNDED_ZERO_DIAGONAL = {"shape": {"rows": 3, "cols": 3}, "symmetric": True,
                         "row_sums": {"kind": "upper", "values": [4, 4, 4]},
                         "fixed_blocks": {"diagonal_prefix": 3, "values": 0}}
# Documents that validation accepts and ``classify`` refuses, one per rule,
# among them the rules no other test reaches.
UNSUPPORTED_DOCS = {
    "3d-bounded-total": {
        "shape": {"rows": 3, "cols": 3, "slices": 2}, "symmetric": True,
        "row_sums": {"kind": "equal", "values": SLICE_SUMS},
        "total": {"kind": "upper", "value": 10}},
    "3d-blocks-off-zero-diagonal": {
        "shape": {"rows": 3, "cols": 3, "slices": 2}, "symmetric": True,
        "row_sums": {"kind": "equal", "values": SLICE_SUMS},
        "fixed_blocks": {"diagonal_prefix": 2, "values": 0}},
    "3d-bounded-sums": {
        "shape": {"rows": 3, "cols": 3, "slices": 2}, "symmetric": True,
        "row_sums": {"kind": "upper", "values": SLICE_SUMS}},
    "row-sums-with-column-bounds": {
        "shape": {"rows": 2, "cols": 2}, "row_sums": {"kind": "equal", "values": [1, 1]},
        "col_sums": {"kind": "upper", "values": [2, 2]}},
    # bounded row sums saturate in the fixed-entry construction, at a total
    # of 12 that a lower total, stated or bounded, rules out
    "fixed-entries-equal-total-below-bounds":
        {**BOUNDED_ZERO_DIAGONAL, "total": {"kind": "equal", "value": 10}},
    "fixed-entries-upper-total-below-bounds":
        {**BOUNDED_ZERO_DIAGONAL, "total": {"kind": "upper", "value": 10}},
}


class TestUnsupportedRules:
    """``check`` reports each unsupported document, and ``solve`` exits 1
    with UnsupportedCase."""

    @pytest.mark.parametrize("doc", list(UNSUPPORTED_DOCS.values()), ids=list(UNSUPPORTED_DOCS))
    def test_classify_check_and_solve_agree(self, doc, tmp_path, capsys):
        assert classify(load_problem(doc)) is SolverCase.UNSUPPORTED
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["case"] == "unsupported"
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: UnsupportedCase: ")


def square(rows, symmetric=True, **doc):
    return {"shape": {"rows": len(rows["values"]), "cols": len(rows["values"])},
            "symmetric": symmetric, "row_sums": rows, **doc}


EQUAL_ROWS = {"kind": "equal", "values": [4, 4, 4]}
UPPER_ROWS = {"kind": "upper", "values": [6, 4]}
# One document per row of each form's case table, in the table's order.
WITNESSES = {
    "3d": [{"shape": {"rows": 3, "cols": 3, "slices": 2}, "symmetric": True,
            "row_sums": {"kind": "equal", "values": SLICE_SUMS},
            "fixed_blocks": {"diagonal_prefix": 3, "values": 0}}],
    "symmetric": [
        square(EQUAL_ROWS, fixed_blocks={"diagonal_prefix": 2, "values": 0}),
        square(dict(EQUAL_ROWS, values=[4, 4, 4, 4]),
               fixed_blocks=[{"indices": [0, 1], "matrix": [[0, 1], [1, 0]]},
                             {"indices": [2, 3], "matrix": [[0, 1], [1, 0]]}]),
        square(dict(EQUAL_ROWS, kind="upper"), total={"kind": "equal", "value": 9}),
        square(EQUAL_ROWS),
        square(UPPER_ROWS),
    ],
    "rect": [
        square(UPPER_ROWS, False, element_bounds=[{"i": 0, "j": 0, "ub": 1}]),
        square(EQUAL_ROWS, False, col_sums={"kind": "equal", "values": [5, None, None]}),
        square(UPPER_ROWS, False, col_sums={"kind": "upper", "values": [3, 3]}),
        square(UPPER_ROWS, False),
        square(UPPER_ROWS, False, total={"kind": "equal", "value": 8}),
        square(UPPER_ROWS, False, total={"kind": "upper", "value": 8}),
    ],
}


class TestCaseTable:
    """Every row of ``likelymat.solve.CASES`` is reached: a row shadowed by
    an earlier one, or one whose rule can never hold, fails here."""

    @pytest.mark.parametrize("form, at", [(form, at) for form, rows in CASES.items()
                                          for at in range(len(rows))])
    def test_each_row_has_a_witness_it_wins(self, form, at):
        case, rule, _ = CASES[form][at]
        spec = load_problem(WITNESSES[form][at])
        assert _pattern(spec)[0] == form and rule(_pattern(spec)[1])
        assert classify(spec) is case
        assert solve(spec).case is case

    def test_a_witness_for_each_row_and_none_more(self):
        assert {form: len(docs) for form, docs in WITNESSES.items()} == \
            {form: len(rows) for form, rows in CASES.items()}

    def test_every_form_falls_through_to_unsupported(self):
        docs = [load_problem(doc) for doc in UNSUPPORTED_DOCS.values()]
        assert {_pattern(spec)[0] for spec in docs} == set(CASES)
        assert {classify(spec) for spec in docs} == {SolverCase.UNSUPPORTED}
