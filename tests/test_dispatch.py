"""End-to-end solve(): classification routing, transposes, permutations."""

import sys

import numpy as np
import pytest

from likelymat import SolverCase, UnsupportedCase, solve
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
