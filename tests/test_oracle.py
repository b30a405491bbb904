"""Numerical oracle, brute-force enumeration, and KKT verification."""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from likelymat import (
    FixedBlock,
    LikelymatError,
    SearchSpaceTooLarge,
    Solution,
    SolverCase,
    UnsupportedCase,
    brute_force_most_likely,
    classify,
    entropy,
    entropy_difference,
    numeric_maxent,
    solve,
    verify_kkt,
)
from likelymat.cli import _oracle_objective
from conftest import CASE_GENERATORS, _ratios_below_third, make_spec, zero_diagonal_blocks


class TestNumericMaxent:
    def test_gravity_instance(self):
        spec = make_spec(2, 2, row=("equal", [7, 3]), col=("equal", [6, 4]))
        res = numeric_maxent(spec, "H", tol=1e-10)
        np.testing.assert_allclose(res.matrix, [[4.2, 2.8], [1.8, 1.2]], atol=1e-6)
        assert res.converged is True  # a Python bool, which json can emit
        assert type(res.residual) is float

    def test_total_only_is_constant(self):
        res = numeric_maxent(make_spec(2, 2, total=("equal", 10.0)), "H", 1e-10)
        np.testing.assert_allclose(res.matrix, 2.5, atol=1e-8)

    def test_zero_diagonal_four_nodes(self):
        spec = make_spec(
            4, 4, row=("equal", [40, 20, 30, 40]), symmetric=True,
            blocks=zero_diagonal_blocks(4),
        )
        res = numeric_maxent(spec, "H", tol=1e-10)
        ref = solve(spec)
        assert float(np.abs(res.matrix - ref.matrix).max()) <= 1e-6

    def test_g_objective_row_col_bounds(self):
        spec = make_spec(2, 3, row=("upper", [3, 3]), col=("upper", [1, 2, 10]))
        res = numeric_maxent(spec, "G", tol=1e-10)
        np.testing.assert_allclose(res.matrix, [[0.5, 1, 1.5], [0.5, 1, 1.5]], atol=1e-6)

    def test_g_value_not_below_analytic(self):
        spec = make_spec(3, 3, row=("upper", [2, 3, 4]), col=("upper", [3, 3, 9]))
        res = numeric_maxent(spec, "G", tol=1e-10)
        ref = solve(spec)
        assert res.objective_value >= entropy_difference(ref.matrix) - 1e-7
        assert entropy_difference(ref.matrix) >= res.objective_value - 1e-7

    @pytest.mark.filterwarnings("error")
    def test_infinite_upper_marginal_bounds_nothing(self):
        # it once reached linprog's b_ub, which rejects +inf
        spec = make_spec(2, 3, row=("upper", [3.0, math.inf]), col=("upper", [1, 2, 10]))
        res = numeric_maxent(spec, "G", tol=1e-10)
        assert float(np.abs(res.matrix - solve(spec).matrix).max()) <= 1e-6

    def test_deterministic(self):
        spec = make_spec(3, 2, row=("upper", [2, 3, 1]), total=("equal", 4.0))
        a = numeric_maxent(spec, "H", 1e-10)
        b = numeric_maxent(spec, "H", 1e-10)
        assert np.array_equal(a.matrix, b.matrix)
        assert a.iterations == b.iterations


def power_scaled(spec, k):
    """The spec with every sum, bound and fixed value multiplied by 2^k."""
    c = 2.0**k
    return dataclasses.replace(
        spec,
        marginals=tuple(dataclasses.replace(m, value=m.value * c) for m in spec.marginals),
        total=spec.total and dataclasses.replace(spec.total, value=spec.total.value * c),
        element_bounds=tuple(dataclasses.replace(e, ub=e.ub * c) for e in spec.element_bounds),
        fixed_blocks=tuple(FixedBlock(b.index_set, tuple(tuple(v * c for v in row)
                                                         for row in b.matrix))
                           for b in spec.fixed_blocks),
    )


class TestScaleAndPolish:
    """The oracle solves a scale-equivariant program at a power-of-two scale
    of its own, and its Newton polish falls back from Cholesky to least
    squares."""

    @settings(max_examples=20)
    @given(st.sampled_from(list(CASE_GENERATORS.values())), st.integers(0, 2**32 - 1),
           st.integers(-900, 900))
    def test_power_of_two_scales_the_result(self, generator, seed, k):
        # every case's oracle objective is G or H at a fixed total, whose
        # maximizer scales with the data; a scaled spec gives the same
        # program, so the same solve, bit for bit
        spec = generator(np.random.default_rng(seed))
        objective = _oracle_objective(spec, classify(spec))
        ref = numeric_maxent(spec, objective)
        got = numeric_maxent(power_scaled(spec, k), objective)
        assert got.matrix.tobytes() == np.ldexp(ref.matrix, k).tobytes()
        assert (got.iterations, got.residual) == (ref.iterations, ref.residual)

    @pytest.mark.filterwarnings("error")
    def test_past_the_float_range(self):
        spec = make_spec(3, 3, row=("equal", [1e308] * 3), symmetric=True,
                         blocks=zero_diagonal_blocks(3))
        res = numeric_maxent(spec, "H")
        ref = solve(spec).matrix
        assert res.converged
        assert np.all(np.abs(res.matrix - ref) <= 1e-9 * ref.max())
        assert res.objective_value == -math.inf  # below -1.7e308
        assert numeric_maxent(spec, "G").objective_value == math.inf

    def test_cholesky_falls_back_to_least_squares(self, monkeypatch):
        # row bounds around a zero diagonal: a Cholesky step stalls short of
        # the tolerance, and the polish goes on by least squares
        u = [5.666043683605985, 4.404597798231686, 4.429366121464452,
             3.8147166685381144, 4.388315834329043]
        spec = make_spec(5, 5, row=("upper", u), symmetric=True, blocks=zero_diagonal_blocks(5))
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **kw: calls.append(1) or lstsq(*a, **kw))
        res = numeric_maxent(spec, "G")
        assert calls
        assert res.converged
        assert float(np.abs(res.matrix - solve(spec).matrix).max()) <= 1e-6

    def test_lbfgs_resumes_when_the_polish_stalls(self):
        # the total bound is just below the row bounds' sum: from where
        # L-BFGS-B hands off at the largest feasible total, neither Newton
        # step lowers the residual (1e-3), so L-BFGS-B has to go on
        u = [3.8794134470455095, 3.8604978654414213, 1.254301856184208, 0.7725719944428023]
        spec = make_spec(4, 5, row=("upper", u), total=("upper", 9.764407495878107))
        res = numeric_maxent(spec, "G")
        assert res.converged
        assert float(np.abs(res.matrix - solve(spec).matrix).max()) <= 1e-6


class TestBruteForce:
    def test_two_by_two_row_sums(self):
        res = brute_force_most_likely(make_spec(2, 2, row=("equal", [7, 3])))
        assert res.n_feasible == 32
        assert res.count.value == 12600
        rows = sorted(tuple(map(tuple, M)) for M in res.argmax)
        assert rows == [
            ((3.0, 4.0), (1.0, 2.0)),
            ((3.0, 4.0), (2.0, 1.0)),
            ((4.0, 3.0), (1.0, 2.0)),
            ((4.0, 3.0), (2.0, 1.0)),
        ]

    def test_single_row_even_split(self):
        res = brute_force_most_likely(make_spec(1, 2, row=("equal", [4])))
        assert res.count.value == 6
        np.testing.assert_allclose(res.argmax[0], [[2, 2]])

    def test_row_bounds_saturate(self):
        res = brute_force_most_likely(make_spec(2, 2, row=("upper", [2, 2])))
        # every argmax spends the full budget of both rows
        for M in res.argmax:
            np.testing.assert_allclose(M.sum(axis=1), [2, 2])

    def test_guard_rejects_large_spaces(self):
        with pytest.raises(SearchSpaceTooLarge):
            brute_force_most_likely(
                make_spec(4, 4, row=("equal", [40, 40, 40, 40])), limit=10_000
            )

    @pytest.mark.filterwarnings("error")
    def test_infinite_sum_is_not_integer_data(self):
        for col in (None, ("upper", [1, 2])):
            with pytest.raises(LikelymatError, match=r"integer data \(target inf\)"):
                brute_force_most_likely(make_spec(1, 2, row=("equal", [math.inf]), col=col))

    def test_matches_continuous_solution_when_integral(self):
        spec = make_spec(2, 2, row=("equal", [7, 3]), col=("equal", [6, 4]))
        res = brute_force_most_likely(spec)
        ref = solve(spec).matrix
        best = min(float(np.abs(M - ref).max()) for M in res.argmax)
        assert best <= 1.0


class TestVerifyKkt:
    def test_gravity_solution_passes(self):
        spec = make_spec(2, 3, row=("equal", [6, 4]), col=("equal", [5, None, None]))
        report = verify_kkt(solve(spec), spec)
        assert report.ok is True and not report.violations

    def test_slack_columns_carry_unit_multiplier(self):
        spec = make_spec(2, 3, row=("upper", [3, 3]), col=("upper", [1, 2, 10]))
        sol = solve(spec)
        assert sol.col_multipliers[2] == 1.0
        assert verify_kkt(sol, spec).ok

    def test_corrupted_solution_is_flagged(self):
        spec = make_spec(2, 2, row=("equal", [7, 3]), col=("equal", [6, 4]))
        sol = solve(spec)
        bad = sol.matrix.copy()
        bad[0, 0] += 0.1
        corrupted = Solution(bad, sol.case, total=sol.total)
        report = verify_kkt(corrupted, spec)
        assert report.ok is False
        assert report.violations

    def test_product_form_detects_non_factorizable(self):
        spec = make_spec(2, 2, row=("equal", [4, 4]), col=("equal", [4, 4]))
        skew = Solution(
            np.array([[3.0, 1.0], [1.0, 3.0]]), SolverCase.GRAVITY_PARTIAL_COLS, total=8.0
        )
        report = verify_kkt(skew, spec)
        assert report.feasible
        assert not report.product_form

    def test_non_finite_entry_is_infeasible(self):
        spec = make_spec(2, 2, row=("equal", [7, 3]), col=("equal", [6, 4]))
        sol = solve(spec)
        for value in (math.nan, math.inf):
            bad = sol.matrix.copy()
            bad[1, 0] = value
            report = verify_kkt(dataclasses.replace(sol, matrix=bad), spec)
            assert not report.feasible and not report.ok
            assert "non-finite entries" in report.violations
            assert report.max_residual == math.inf

    def test_upper_total_violation_counts_in_residual(self):
        spec = make_spec(3, 2, row=("upper", [1.0, 2.0, 3.0]), total=("upper", 4.0))
        sol = solve(spec)
        report = verify_kkt(dataclasses.replace(sol, matrix=sol.matrix * 1.5), spec)
        assert "total 6.0 > bound 4.0" in report.violations
        assert report.max_residual == 2.0

    def test_element_cap_violation_counts_in_residual(self):
        spec = make_spec(2, 3, row=("upper", [3.0, 4.0]), elements=[(0, 1, 1.0), (1, 2, 0.5)])
        sol = solve(spec)
        bad = sol.matrix.copy()
        bad[1] = [1.35, 1.35, 1.3]  # row sum and product form kept, cap (1, 2) broken
        report = verify_kkt(dataclasses.replace(sol, matrix=bad), spec)
        assert report.violations == ("element (1,2) exceeds its bound",)
        assert report.max_residual == pytest.approx(0.8, rel=1e-12)

    @pytest.mark.parametrize("cap", [math.inf, 5.0], ids=["infinite", "slack"])
    def test_cap_that_binds_nothing_stays_in_the_product_form(self, cap):
        # row 1 is not a product of row and column factors; a cap at (1, 1)
        # that its entry does not reach must not excuse that cell
        spec = make_spec(2, 3, row=("upper", [3.0, 4.0]), elements=[(0, 1, 1.0), (1, 1, cap)])
        sol = solve(spec)
        assert verify_kkt(sol, spec).ok
        bad = sol.matrix.copy()
        bad[1] = [1.0, 2.0, 1.0]
        report = verify_kkt(dataclasses.replace(sol, matrix=bad), spec)
        assert report.feasible and not report.product_form
        assert report.max_residual == pytest.approx(0.462098, rel=1e-5)

    def test_tensor_solutions_supported(self):
        u = [[10.0], [5.0], [7.5], [10.0]]
        spec = make_spec(4, 4, row=("equal", u), symmetric=True, slices=1,
                         blocks=zero_diagonal_blocks(4))
        report = verify_kkt(solve(spec), spec)
        assert report.feasible and report.product_form


class TestAtSolverSizes:
    """The oracle checks closed forms at the sizes the solvers are used at."""

    def test_kkt_gravity_150(self, rng):
        cols = [float(rng.uniform(1.0, 50.0)) if j % 3 == 0 else None for j in range(150)]
        spec = make_spec(150, 150, row=("equal", rng.uniform(1.0, 100.0, 150).tolist()),
                         col=("equal", cols))
        report = verify_kkt(solve(spec), spec)
        assert report.ok and not report.violations

    def test_kkt_fixed_diagonal_150(self, rng):
        u = _ratios_below_third(rng, 150) * 1000.0
        spec = make_spec(150, 150, row=("equal", u.tolist()), symmetric=True,
                         blocks=zero_diagonal_blocks(150))
        report = verify_kkt(solve(spec), spec)
        assert report.ok and not report.violations

    def test_kkt_3d_60_by_3(self, rng):
        u = np.stack([_ratios_below_third(rng, 60) * rng.uniform(10.0, 100.0)
                      for _ in range(3)], axis=1)
        spec = make_spec(60, 60, row=("equal", u.tolist()), symmetric=True, slices=3,
                         blocks=zero_diagonal_blocks(60))
        report = verify_kkt(solve(spec), spec)
        assert report.ok and not report.violations

    def test_maxent_gravity_80_by_60(self, rng):
        cols = [None] * 60
        for j in (3, 10, 11, 40):
            cols[j] = float(rng.uniform(50.0, 100.0))
        spec = make_spec(80, 60, row=("equal", rng.uniform(50.0, 100.0, 80).tolist()),
                         col=("equal", cols))
        res = numeric_maxent(spec, "H")
        assert res.converged
        assert float(np.abs(res.matrix - solve(spec).matrix).max()) <= 1e-6


    @staticmethod
    def gravity_every_third_col(rng, n):
        cols = [float(rng.uniform(1.0, 50.0)) if j % 3 == 0 else None for j in range(n)]
        return make_spec(n, n, row=("equal", rng.uniform(1.0, 100.0, n).tolist()),
                         col=("equal", cols))

    def test_kkt_gravity_300_under_a_second(self, rng):
        spec = self.gravity_every_third_col(rng, 300)
        sol = solve(spec)
        start = time.perf_counter()
        report = verify_kkt(sol, spec)
        assert time.perf_counter() - start < 1.0
        assert report.ok and not report.violations

    def test_maxent_gravity_300(self, rng):
        spec = self.gravity_every_third_col(rng, 300)
        res = numeric_maxent(spec, "H")
        assert res.converged
        assert float(np.abs(res.matrix - solve(spec).matrix).max()) <= 1e-6


class TestThreeDElementBounds:
    """An (i, j) element bound names no cell of an n x n x K spec."""

    u = [[10.0, 8.0], [5.0, 6.0], [7.5, 9.0], [10.0, 7.0]]
    spec = make_spec(4, 4, row=("equal", u), symmetric=True, slices=2,
                     blocks=zero_diagonal_blocks(4), elements=[(0, 1, 0.0)])

    def test_maxent_and_brute_force_reject(self):
        for call in (lambda: numeric_maxent(self.spec, "H"),
                     lambda: brute_force_most_likely(self.spec)):
            with pytest.raises(UnsupportedCase, match="element bounds on a 3-D spec"):
                call()

    def test_verify_kkt_rejects(self):
        sol = solve(dataclasses.replace(self.spec, element_bounds=()))
        with pytest.raises(UnsupportedCase, match="element bounds on a 3-D spec"):
            verify_kkt(sol, self.spec)

    def test_solve_rejects(self):
        with pytest.raises(UnsupportedCase):
            solve(self.spec)


class TestObjectives:
    def test_entropy_values(self):
        assert entropy([1.0, 1.0]) == 0.0
        assert entropy([0.0, 2.0]) == pytest.approx(-2 * np.log(2))

    def test_entropy_difference_is_scale_linear(self, rng):
        x = rng.uniform(0.1, 2.0, 6)
        g1 = entropy_difference(x)
        g3 = entropy_difference(3.0 * x)
        assert g3 == pytest.approx(3.0 * g1, rel=1e-12)

    def test_entropy_difference_concavity_quadratic_form(self, rng):
        # estimated curvature of the free-total objective is never positive
        for _ in range(100):
            n = int(rng.integers(2, 13))
            x = rng.uniform(0.2, 3.0, n)
            y = rng.normal(size=n)
            h = 1e-4
            q = (
                entropy_difference(x + h * y)
                - 2.0 * entropy_difference(x)
                + entropy_difference(x - h * y)
            ) / (h * h)
            assert q <= 1e-8

    def test_concavity_inequality_in_proportions(self, rng):
        # (sum y)^2 <= sum y_i^2 / p_i for any proportions p
        for _ in range(200):
            n = int(rng.integers(2, 10))
            p = rng.uniform(0.05, 1.0, n)
            p /= p.sum()
            y = rng.normal(size=n)
            assert y.sum() ** 2 <= (y * y / p).sum() + 1e-10
