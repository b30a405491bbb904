"""Rectangular closed forms: frozen examples, structure, degenerations."""

import math

import numpy as np
import pytest

from likelymat import (
    InfeasibleMarginals,
    SolverCase,
    solve,
    solve_bounded_total_row_bounds,
    solve_gravity_partial_cols,
    solve_row_bounds,
    solve_row_bounds_elem_bounds,
    solve_row_col_bounds,
    solve_total_row_bounds,
)
from conftest import (caps_of, make_spec, random_gravity, random_row_col_bounds, random_sym_total,
                      scaled_by)

INF = math.inf
TEN_BOUNDS = [20.0, 20, 24, 30, 30, 36, 36, 36, 36, 40]

# Known-total regression grid: per-row sums and informative counts for the
# bounds above (the two 29.86/29.71 rows print rounded to two decimals).
KNOWN_TOTAL_GRID = {
    308: (10, [20, 20, 24, 30, 30, 36, 36, 36, 36, 40]),
    307: (9, [20, 20, 24, 30, 30, 36, 36, 36, 36, 39]),
    304: (9, [20, 20, 24, 30, 30, 36, 36, 36, 36, 36]),
    303: (5, [20, 20, 24, 30, 30, 35.8, 35.8, 35.8, 35.8, 35.8]),
    275: (5, [20, 20, 24, 30, 30, 30.2, 30.2, 30.2, 30.2, 30.2]),
    274: (5, [20, 20, 24, 30, 30, 30, 30, 30, 30, 30]),
    273: (3, [20, 20, 24] + [209.0 / 7] * 7),
    272: (3, [20, 20, 24] + [208.0 / 7] * 7),
}


class TestGravityPartialCols:
    def test_partial_columns(self):
        sol = solve_gravity_partial_cols([6.0, 4.0], [5.0], 3)
        np.testing.assert_allclose(sol.matrix, [[3, 1.5, 1.5], [2, 1, 1]])

    def test_all_columns(self):
        sol = solve_gravity_partial_cols([7.0, 3.0], [6.0, 4.0], 2)
        np.testing.assert_allclose(sol.matrix, [[4.2, 2.8], [1.8, 1.2]])

    def test_no_columns_is_row_uniform(self):
        sol = solve_gravity_partial_cols([6.0, 4.0], [], 2)
        np.testing.assert_allclose(sol.matrix, [[3, 3], [2, 2]])

    def test_marginals_reproduced(self, rng):
        for _ in range(50):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            ell = int(rng.integers(0, m + 1))
            u = rng.uniform(0.5, 3.0, n)
            s = float(u.sum())
            v = rng.uniform(0.5, 3.0, ell)
            if ell:
                v *= s * (1.0 if ell == m else float(rng.uniform(0.3, 0.9))) / v.sum()
            sol = solve_gravity_partial_cols(u, v, m)
            np.testing.assert_allclose(sol.matrix.sum(axis=1), u, rtol=1e-9)
            np.testing.assert_allclose(sol.matrix.sum(axis=0)[:ell], v, rtol=1e-9)

    def test_constrained_block_is_rank_one(self):
        sol = solve_gravity_partial_cols([6.0, 4.0, 2.0], [5.0, 3.0], 4)
        block = sol.matrix[:, :2]
        for i in range(3):
            for j in range(3):
                for a in range(2):
                    for b in range(2):
                        minor = block[i, a] * block[j, b] - block[i, b] * block[j, a]
                        assert abs(minor) <= 1e-9

    def test_infeasible_columns(self):
        with pytest.raises(InfeasibleMarginals):
            solve_gravity_partial_cols([1.0, 1.0], [5.0], 2)

    def test_infinite_column_sum_is_unknown(self):
        sol = solve_gravity_partial_cols([6.0, 4.0], [INF, 5.0], 3)
        np.testing.assert_allclose(sol.matrix, [[1.5, 3, 1.5], [1, 2, 1]])
        np.testing.assert_array_equal(sol.col_multipliers[[0, 2]], 1.0)
        spec = make_spec(2, 3, row=("equal", [6.0, 4.0]), col=("equal", [None, 5.0, None]))
        assert np.array_equal(solve(spec).matrix, sol.matrix)


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("u, v", [
        ([1.3e308, 1.3e308, 5e307], [1.5e308, INF, 2e307]),  # the row sums total past the range
        ([21.0, 1.7e308], [1.05e308, INF, INF, 4.0]),  # 2 x 1.05e308 overflows
    ])
    def test_past_the_float_range_solves_at_a_power_of_two(self, u, v):
        sol = solve_gravity_partial_cols(u, v, len(v))
        X, given = sol.matrix, np.isfinite(v)
        np.testing.assert_allclose(X.sum(axis=1), u, rtol=1e-12)
        np.testing.assert_allclose(X.sum(axis=0)[given], np.array(v)[given], rtol=1e-12)
        np.testing.assert_allclose(np.outer(sol.row_multipliers, sol.col_multipliers), X,
                                   rtol=1e-12)


class TestGravityNearTheFloatFloor:
    """Near the bottom of the float range u_i v_j underflows although the
    entry u_i v_j / s does not, and two bound totals tie only when they are
    near each other, not because both are below 1e-9: the solution is the
    unit-scale one, scaled."""

    @pytest.mark.parametrize("scale", [1e-170, 1e-300])
    @pytest.mark.parametrize("generator",
                             [random_gravity, random_sym_total, random_row_col_bounds])
    def test_scaled_unit_solution(self, rng, generator, scale):
        for _ in range(20):
            spec = generator(rng)
            far = scaled_by(spec, scale)
            ref = solve(spec).matrix * scale
            np.testing.assert_allclose(solve(far).matrix, ref, rtol=1e-12, atol=0)

    def test_two_by_two(self):
        X = solve_gravity_partial_cols([1e-170, 2e-170], [1e-170, 2e-170], 2).matrix
        np.testing.assert_allclose(X, np.outer([1, 2], [1, 2]) / 3 * 1e-170, rtol=1e-15)


class TestRowBounds:
    def test_ten_by_ten(self):
        sol = solve_row_bounds(TEN_BOUNDS, 10)
        np.testing.assert_allclose(sol.matrix, np.outer(TEN_BOUNDS, np.ones(10)) / 10)

    def test_single_row(self):
        np.testing.assert_allclose(solve_row_bounds([7.0], 4).matrix, [[1.75] * 4])

    def test_zero_bounds(self):
        assert not solve_row_bounds([0.0, 0.0], 3).matrix.any()


class TestTotalRowBounds:
    @pytest.mark.parametrize("s", sorted(KNOWN_TOTAL_GRID))
    def test_known_total_grid(self, s):
        k_expected, rows_expected = KNOWN_TOTAL_GRID[s]
        sol = solve_total_row_bounds(float(s), TEN_BOUNDS, 10)
        assert sol.k == k_expected
        np.testing.assert_allclose(sol.matrix.sum(axis=1), rows_expected, atol=5e-3)
        # every row is internally constant
        assert np.allclose(sol.matrix, sol.matrix[:, :1])

    def test_small_total_fully_uniform(self):
        sol = solve_total_row_bounds(100.0, TEN_BOUNDS, 10)
        np.testing.assert_allclose(sol.matrix, 1.0)
        assert sol.k == 0

    def test_saturated_total_equals_row_bounds(self):
        full = solve_row_bounds(TEN_BOUNDS, 10)
        sol = solve_total_row_bounds(308.0, TEN_BOUNDS, 10)
        np.testing.assert_allclose(sol.matrix, full.matrix, rtol=0, atol=0)

    def test_multipliers_in_unit_interval(self):
        sol = solve_total_row_bounds(275.0, TEN_BOUNDS, 10)
        assert np.all(sol.row_multipliers > 0)
        assert np.all(sol.row_multipliers <= 1.0 + 1e-12)

    def test_infeasible_total(self):
        with pytest.raises(InfeasibleMarginals):
            solve_total_row_bounds(309.0, TEN_BOUNDS, 10)


class TestBoundedTotal:
    def test_immaterial_bound(self):
        sol = solve_bounded_total_row_bounds(1000.0, TEN_BOUNDS, 10)
        np.testing.assert_allclose(sol.matrix, solve_row_bounds(TEN_BOUNDS, 10).matrix)

    def test_binding_bound(self):
        sol = solve_bounded_total_row_bounds(275.0, TEN_BOUNDS, 10)
        ref = solve_total_row_bounds(275.0, TEN_BOUNDS, 10)
        np.testing.assert_allclose(sol.matrix, ref.matrix)
        assert sol.case is SolverCase.BOUNDED_TOTAL_ROW_BOUNDS

    def test_boundary_bound(self):
        sol = solve_bounded_total_row_bounds(float(sum(TEN_BOUNDS)), TEN_BOUNDS, 10)
        np.testing.assert_allclose(sol.matrix, solve_row_bounds(TEN_BOUNDS, 10).matrix)


class TestRowColBounds:
    def test_two_informative_columns(self):
        sol = solve_row_col_bounds([3.0, 3.0], [1.0, 2.0, 10.0])
        np.testing.assert_allclose(sol.matrix, [[0.5, 1, 1.5], [0.5, 1, 1.5]])
        assert sol.k == 2

    def test_loose_columns_uninformative(self):
        sol = solve_row_col_bounds([4.0, 4.0], [10.0, 11.0, 12.0, 13.0])
        np.testing.assert_allclose(sol.matrix, 1.0)
        assert sol.k == 0

    def test_infinite_bounds_match_omitted(self):
        with_inf = solve_row_col_bounds([3.0, 3.0], [1.0, 2.0, INF])
        base = solve_row_col_bounds([3.0, 3.0], [1.0, 2.0, 10.0])  # 10 plays "no bound"
        np.testing.assert_allclose(with_inf.matrix, base.matrix)
        assert with_inf.k == base.k == 2

    def test_role_swap_when_columns_are_tighter(self):
        direct = solve_row_col_bounds([1.0, 2.0, 10.0], [3.0, 3.0])
        transposed = solve_row_col_bounds([3.0, 3.0], [1.0, 2.0, 10.0])
        np.testing.assert_allclose(direct.matrix, transposed.matrix.T)

    def test_matching_totals_go_gravity(self):
        sol = solve_row_col_bounds([6.0, 4.0], [5.0, 5.0])
        np.testing.assert_allclose(sol.matrix, np.outer([6, 4], [5, 5]) / 10.0)

    def test_saturation_pattern(self):
        sol = solve_row_col_bounds([3.0, 3.0], [1.0, 2.0, 10.0])
        np.testing.assert_allclose(sol.matrix.sum(axis=1), [3, 3], rtol=1e-12)
        cols = sol.matrix.sum(axis=0)
        assert cols[0] == pytest.approx(1.0, rel=1e-12)
        assert cols[1] == pytest.approx(2.0, rel=1e-12)
        assert cols[2] < 10.0
        np.testing.assert_allclose(sol.col_multipliers[2], 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("u, v", [
        ([1.7e308, 1.7e308], [1.7e308, 1.7e308]),  # both sides bounded, both totals overflow
        ([1.7e308, 1.7e308], [1e308, INF, 5.0]),  # the rows alone bounded
    ])
    def test_totals_past_the_float_range_solve_at_a_power_of_two(self, u, v):
        # homogeneous of degree 1: 4 times the solution at bounds / 4, bit for bit
        sol = solve(make_spec(len(u), len(v), row=("upper", u), col=("upper", v)))
        ref = solve(make_spec(len(u), len(v), row=("upper", [b / 4 for b in u]),
                              col=("upper", [b / 4 for b in v])))
        assert sol.matrix.tobytes() == (ref.matrix * 4).tobytes()
        assert sol.total == ref.total * 4 == INF
        for a, b in ((sol.row_multipliers, ref.row_multipliers),
                     (sol.col_multipliers, ref.col_multipliers)):
            assert a.tobytes() == b.tobytes()
        assert (sol.k, sol.permutation) == (ref.k, ref.permutation)


class TestRowElemBounds:
    def test_binding_sum(self):
        sol = solve_row_bounds_elem_bounds([10.0], ([0, 0, 0], [0, 1, 2], [2.0, 5.0, 9.0]), 3)
        np.testing.assert_allclose(sol.matrix, [[2, 4, 4]])

    def test_binding_caps(self):
        sol = solve_row_bounds_elem_bounds([100.0], ([0, 0, 0], [2, 1, 0], [9.0, 5.0, 2.0]), 3)
        np.testing.assert_allclose(sol.matrix, [[2, 5, 9]])

    def test_infinite_caps_degenerate_to_row_bounds(self):
        caps = ([0, 0, 1, 1], [0, 1, 0, 1], np.full(4, INF))
        sol = solve_row_bounds_elem_bounds([6.0, 4.0], caps, 2)
        np.testing.assert_allclose(sol.matrix, [[3, 3], [2, 2]])

    def test_rows_are_independent(self, rng):
        W = rng.uniform(0.5, 2.0, (3, 4))
        u = [3.0, 2.0, 100.0]
        sol = solve_row_bounds_elem_bounds(u, caps_of(W), 4)
        for i in range(3):
            alone = solve_row_bounds_elem_bounds([u[i]], caps_of(W[i : i + 1]), 4)
            np.testing.assert_allclose(sol.matrix[i], alone.matrix[0])


class TestRobustnessLadder:
    def test_dropping_columns_gives_row_uniform(self):
        full = solve(make_spec(2, 2, row=("equal", [7, 3]), col=("equal", [6, 4])))
        np.testing.assert_allclose(full.matrix, [[4.2, 2.8], [1.8, 1.2]])
        no_cols = solve(make_spec(2, 2, row=("equal", [7, 3])))
        assert np.array_equal(no_cols.matrix, [[3.5, 3.5], [1.5, 1.5]])

    def test_dropping_all_but_total_gives_constant(self):
        sol = solve(make_spec(2, 2, total=("equal", 10.0)))
        assert np.array_equal(sol.matrix, np.full((2, 2), 2.5))
