"""Symmetric-information solvers: roots, series, closed-form patterns."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from likelymat import (
    BracketFailure,
    ConsistencyViolation,
    FixedBlock,
    InfeasibleMarginals,
    RootProblem,
    SeriesDomainError,
    SolverCase,
    series_approx_xi,
    solve,
    solve_root_lambda,
    solve_sym_3d_fixed_diagonal,
    solve_sym_block_diagonal,
    solve_sym_fixed_diagonal,
    solve_sym_total_row_col_bounds,
    verify_kkt,
)
from likelymat.cli import load_problem
from conftest import make_spec, random_sym_fixed_diagonal

FOUR_NODE_SUMS = [40.0, 20.0, 30.0, 40.0]
FOUR_NODE_RATIOS = (4 / 13, 2 / 13, 3 / 13, 4 / 13)

FOUR_NODE_MATRIX = [
    [0.0, 7.59, 12.59, 19.82],
    [7.59, 0.0, 4.82, 7.59],
    [12.59, 4.82, 0.0, 12.59],
    [19.82, 7.59, 12.59, 0.0],
]


class TestRootSolver:
    def test_equal_ratios_full_diagonal(self):
        for n in range(3, 11):
            p = RootProblem(r=(1.0 / n,) * n, m=n)
            lam = solve_root_lambda(p)
            assert lam == pytest.approx(math.sqrt(n / (n - 1)), abs=1e-12)

    def test_four_node_ratios(self):
        lam = solve_root_lambda(RootProblem(r=FOUR_NODE_RATIOS, m=4))
        assert 4.0 / lam**2 == pytest.approx(2.88018, abs=1e-4)
        assert lam == pytest.approx(1.17847, abs=1e-4)

    def test_single_fixed_entry_equal_ratios(self):
        for n in range(3, 11):
            p = RootProblem(r=(1.0 / n,) * n, m=1)
            lam = solve_root_lambda(p)
            assert lam == pytest.approx((n - 1) / math.sqrt(n * (n - 2)), abs=1e-12)

    def test_no_root_is_a_clean_error(self):
        # one dominant ratio forces the function positive at its branch point
        n = 4
        r = (0.5,) + (0.5 / (n - 1),) * (n - 1)
        with pytest.raises(BracketFailure):
            solve_root_lambda(RootProblem(r=r, m=n))

    def test_zero_fixed_ratios_leave_the_root_to_the_tail(self):
        # f(0+) is -inf, and f = 2 - 2 tail / lam^2 puts the root at sqrt(tail)
        lam = solve_root_lambda(RootProblem(r=(0.0, 0.0, 0.25, 0.75), m=2))
        assert lam == pytest.approx(1.0, abs=1e-15)

    def test_all_ratios_zero_is_a_clean_error(self):
        with pytest.raises(BracketFailure, match="every ratio is zero"):
            solve_root_lambda(RootProblem(r=(0.0, 0.0), m=2))

    @pytest.mark.parametrize("doc, evals", [("sym_fixed_diag", 54), ("sym_3d", 159)])
    def test_f_evaluation_counts_are_pinned(self, doc, evals, monkeypatch):
        # bisection to exhaustion: a change of its path changes these counts
        calls = []
        f = RootProblem.f
        monkeypatch.setattr(RootProblem, "f", lambda p, lam: calls.append(lam) or f(p, lam))
        golden = Path(__file__).parent / "golden" / f"{doc}.json"
        solve(load_problem(json.loads(golden.read_text())))
        assert len(calls) == evals

    def test_residual_small_at_interior_roots(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 8))
            while True:
                r = rng.uniform(0.4, 1.0, n)
                r /= r.sum()
                if r.max() < 0.32:
                    break
            p = RootProblem(r=tuple(r), m=n)
            lam = solve_root_lambda(p)
            assert abs(p.f(lam)) <= 1e-10

    def test_agrees_with_independent_root_finder(self, rng):
        from scipy.optimize import brentq

        for _ in range(100):
            n = int(rng.integers(4, 8))
            m = int(rng.integers(1, n + 1))
            while True:
                r = rng.uniform(0.4, 1.0, n)
                r /= r.sum()
                if r.max() < 0.32:
                    break
            p = RootProblem(r=tuple(r), m=m)
            lam = solve_root_lambda(p)
            lo, hi = p.bracket
            if p.f(lo) < 0.0 < p.f(hi):
                independent = brentq(p.f, lo, hi, xtol=1e-15, rtol=1e-15)
                assert abs(lam - independent) <= 1e-12


class TestSeries:
    def test_four_node_second_order(self):
        p = RootProblem(r=FOUR_NODE_RATIOS, m=4)
        state = series_approx_xi(p, 2.25, order=2)
        assert state.terms[1] == pytest.approx(0.749023, abs=2e-6)
        assert state.terms[2] == pytest.approx(-0.112889, abs=2e-6)
        assert state.value == pytest.approx(2.8861, abs=1e-3)

    def test_expansion_at_the_root_is_fixed(self):
        p = RootProblem(r=FOUR_NODE_RATIOS, m=4)
        xi_root = 4.0 / solve_root_lambda(p) ** 2
        state = series_approx_xi(p, xi_root, order=2)
        assert abs(state.delta) < 1e-12
        for order in (0, 1, 2):
            assert state.value_at(order) == pytest.approx(xi_root, abs=1e-10)

    def test_orders_improve_toward_the_root(self):
        p = RootProblem(r=FOUR_NODE_RATIOS, m=4)
        xi_root = 4.0 / solve_root_lambda(p) ** 2
        state = series_approx_xi(p, 2.25, order=2)
        errors = [abs(state.value_at(q) - xi_root) for q in (0, 1, 2)]
        assert errors[0] >= errors[1] >= errors[2]

    def test_orders_improve_on_random_instances(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 8))
            while True:
                r = rng.uniform(0.4, 1.0, n)
                r /= r.sum()
                if r.max() < 0.32:
                    break
            p = RootProblem(r=tuple(r), m=n)
            xi_root = 4.0 / solve_root_lambda(p) ** 2
            state = series_approx_xi(p, 9.0 / 4.0, order=2)
            errors = [abs(state.value_at(q) - xi_root) for q in (0, 1, 2)]
            assert errors[0] >= errors[1] - 1e-12
            assert errors[1] >= errors[2] - 1e-12

    def test_residual_below_one_on_admissible_interval(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 8))
            while True:
                r = rng.uniform(0.4, 1.0, n)
                r /= r.sum()
                if r.max() < 0.32:
                    break
            p = RootProblem(r=tuple(r), m=n)
            xi0 = float(rng.uniform(9.0 / 4.0, 1.0 / r.max()))
            state = series_approx_xi(p, xi0, order=2)
            assert state.delta < 1.0

    def test_domain_error_past_branch_point(self):
        p = RootProblem(r=(0.5, 0.25, 0.25), m=3)
        with pytest.raises(SeriesDomainError):
            series_approx_xi(p, 4.5, order=1)


class TestSymTotalRowColBounds:
    def test_loose_bounds_fully_uniform(self):
        sol = solve_sym_total_row_col_bounds(9.0, [4.0, 4.0, 4.0])
        np.testing.assert_allclose(sol.matrix, 1.0)
        assert sol.k == 0

    def test_one_informative_bound(self):
        s, u = 12.0, [1.0, 10.0, 10.0]
        sol = solve_sym_total_row_col_bounds(s, u)
        leftover = s - 1.0
        expected = np.empty((3, 3))
        expected[0, 0] = 1.0 / s
        expected[0, 1:] = leftover * 1.0 / (2 * s)
        expected[1:, 0] = leftover * 1.0 / (2 * s)
        expected[1:, 1:] = leftover**2 / (4 * s)
        np.testing.assert_allclose(sol.matrix, expected, rtol=1e-12)
        assert sol.k == 1
        np.testing.assert_allclose(sol.matrix.sum(axis=1), [1.0, 5.5, 5.5])

    def test_saturated_total_is_gravity(self):
        u = [2.0, 3.0, 5.0]
        sol = solve_sym_total_row_col_bounds(10.0, u)
        np.testing.assert_allclose(sol.matrix, np.outer(u, u) / 10.0)

    def test_symmetry_is_exact(self, rng):
        for _ in range(20):
            u = rng.uniform(0.5, 4.0, 5)
            s = float(u.sum()) * float(rng.uniform(0.3, 1.0))
            sol = solve_sym_total_row_col_bounds(s, u)
            assert np.array_equal(sol.matrix, sol.matrix.T)


class TestSymFixedDiagonal:
    def test_full_zero_diagonal_equal_sums(self):
        for n in range(3, 11):
            s = 4.0 * n
            sol = solve_sym_fixed_diagonal([4.0] * n, s, n, [0.0] * n)
            expected = np.full((n, n), s / (n * (n - 1)))
            np.fill_diagonal(expected, 0.0)
            np.testing.assert_allclose(sol.matrix, expected, rtol=0, atol=1e-12)
            assert sol.lam == pytest.approx(math.sqrt(n / (n - 1)), abs=1e-12)

    def test_single_zero_entry_equal_sums(self):
        for n in range(3, 11):
            s = 4.0 * n
            sol = solve_sym_fixed_diagonal([4.0] * n, s, 1, [0.0])
            a = s / (n * (n - 1))
            expected = np.full((n, n), a * (n - 2) / (n - 1))
            expected[0, :] = a
            expected[:, 0] = a
            expected[0, 0] = 0.0
            np.testing.assert_allclose(sol.matrix, expected, rtol=0, atol=1e-12)
            assert sol.lam == pytest.approx((n - 1) / math.sqrt(n * (n - 2)), abs=1e-12)

    def test_four_node_instance(self):
        sol = solve_sym_fixed_diagonal(FOUR_NODE_SUMS, 130.0, 4, [0.0] * 4)
        np.testing.assert_allclose(sol.matrix, FOUR_NODE_MATRIX, atol=0.01)
        np.testing.assert_allclose(sol.matrix.sum(axis=1), FOUR_NODE_SUMS, rtol=1e-12)
        assert sol.xi == pytest.approx(2.88018, abs=1e-4)

    def test_gravity_diagonal_recovers_gravity(self):
        u = np.array([4.0, 3.0, 2.0, 3.0])
        s = float(u.sum())
        sol = solve_sym_fixed_diagonal(u, s, 4, u * u / s)
        np.testing.assert_allclose(sol.matrix, np.outer(u, u) / s, atol=1e-12)

    def test_upper_bound_mode_keeps_factors_below_one(self):
        sol = solve_sym_fixed_diagonal(
            FOUR_NODE_SUMS, 130.0, 4, [0.0] * 4, bounds_mode=True
        )
        assert np.all(sol.row_multipliers <= 1.0)
        np.testing.assert_allclose(sol.matrix.sum(axis=1), FOUR_NODE_SUMS, rtol=1e-12)

    def test_half_total_violation_raises(self):
        with pytest.raises(ConsistencyViolation):
            solve_sym_fixed_diagonal([5.0, 2.0, 3.0], 10.0, 1, [0.0])

    def test_nearly_absorbed_row_keeps_relative_accuracy(self):
        u = np.full(5, 2.0)
        sol = solve_sym_fixed_diagonal(u, 10.0, 1, [2.0 - 1e-9])
        rel = np.abs(sol.matrix.sum(axis=1) - u) / u
        assert rel.max() <= 1e-12

    def test_marginals_exact(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 7))
            while True:
                r = rng.uniform(0.4, 1.0, n)
                r /= r.sum()
                if r.max() < 0.32:
                    break
            s = float(rng.uniform(5.0, 50.0))
            m_fixed = int(rng.integers(1, n + 1))
            sol = solve_sym_fixed_diagonal(r * s, s, m_fixed, [0.0] * m_fixed)
            np.testing.assert_allclose(sol.matrix.sum(axis=1), r * s, rtol=1e-9)
            np.testing.assert_allclose(sol.matrix.sum(axis=0), r * s, rtol=1e-9)
            assert np.array_equal(sol.matrix, sol.matrix.T)
            assert np.all(sol.matrix.diagonal()[:m_fixed] == 0.0)


    @pytest.mark.filterwarnings("error")
    def test_total_past_the_float_range(self):
        # 3e308 overflows, each entry does not: the problem is solved divided
        # by a power of two and multiplied back, with no numpy warning
        sol = solve_sym_fixed_diagonal([1e308] * 3, math.inf, 3, [0.0] * 3)
        unit = solve_sym_fixed_diagonal([1.0] * 3, 3.0, 3, [0.0] * 3)
        off = ~np.eye(3, dtype=bool)
        np.testing.assert_allclose(sol.matrix[off], 5e307, rtol=1e-15)
        assert np.all(sol.matrix.diagonal() == 0.0) and sol.total == math.inf
        assert (sol.lam, sol.row_multipliers.tobytes()) == (
            unit.lam, unit.row_multipliers.tobytes())


class TestSym3D:
    @pytest.mark.filterwarnings("error")
    def test_total_past_the_float_range(self):
        u = np.full((4, 2), 1.0)
        u[:, 0] = 2.0**1023
        big = solve_sym_3d_fixed_diagonal(u, math.inf)
        small = solve_sym_3d_fixed_diagonal(u / 2.0**1000, float((u / 2.0**1000).sum()))
        assert big.values.tobytes() == (small.values * 2.0**1000).tobytes()
        assert (big.lam, big.xi) == (small.lam, small.xi)

    def test_single_slice_matches_2d(self):
        u = np.array(FOUR_NODE_SUMS).reshape(4, 1)
        tensor = solve_sym_3d_fixed_diagonal(u, 130.0)
        flat = solve_sym_fixed_diagonal(FOUR_NODE_SUMS, 130.0, 4, [0.0] * 4)
        np.testing.assert_allclose(tensor.values[:, :, 0], flat.matrix, rtol=1e-12)
        assert tensor.xi[0] == pytest.approx(flat.xi, abs=1e-12)

    def test_identical_slices_identical_sheets(self):
        u = np.tile(np.array(FOUR_NODE_SUMS).reshape(4, 1) / 2.0, (1, 2))
        tensor = solve_sym_3d_fixed_diagonal(u, 130.0)
        assert np.array_equal(tensor.values[:, :, 0], tensor.values[:, :, 1])

    def test_uniform_slice(self):
        n, K = 5, 2
        u = np.full((n, K), 2.0)
        tensor = solve_sym_3d_fixed_diagonal(u, float(u.sum()))
        for k in range(K):
            sheet = tensor.values[:, :, k]
            off = sheet[~np.eye(n, dtype=bool)]
            np.testing.assert_allclose(off, off[0], rtol=1e-12)
            assert np.all(sheet.diagonal() == 0.0)

    def test_slices_independent(self, rng):
        u = np.array([[2.0, 1.0], [2.0, 1.2], [2.0, 0.9], [2.0, 1.1], [2.0, 1.0]])
        s = float(u.sum())
        base = solve_sym_3d_fixed_diagonal(u, s)
        v = u.copy()
        v[:, 1] *= 1.5
        # rescale so the grand total stays fixed; slice 0 sums unchanged
        changed = solve_sym_3d_fixed_diagonal(v, float(v.sum()))
        r_before = u[:, 0] / s
        r_after = v[:, 0] / float(v.sum())
        assert not np.allclose(r_before, r_after)
        # same slice ratios produce the same sheet: rebuild with matched total
        w = u * (float(v.sum()) / s)
        matched = solve_sym_3d_fixed_diagonal(w, float(v.sum()))
        np.testing.assert_allclose(
            matched.values[:, :, 0] / float(v.sum()),
            base.values[:, :, 0] / s,
            rtol=1e-9,
        )

    def test_section_sums_reproduced(self, rng):
        for _ in range(10):
            n, K = 5, 3
            u = rng.uniform(1.0, 2.0, (n, K))
            tensor = solve_sym_3d_fixed_diagonal(u, float(u.sum()))
            for k in range(K):
                np.testing.assert_allclose(
                    tensor.values[:, :, k].sum(axis=1), u[:, k], rtol=1e-9
                )


class TestSymBlockDiagonal:
    def test_singletons_reduce_to_fixed_diagonal(self):
        blocks = tuple(FixedBlock((i,), ((0.0,),)) for i in range(4))
        got = solve_sym_block_diagonal(FOUR_NODE_SUMS, blocks, 130.0)
        ref = solve_sym_fixed_diagonal(FOUR_NODE_SUMS, 130.0, 4, [0.0] * 4)
        np.testing.assert_allclose(got.matrix, ref.matrix, rtol=0, atol=1e-10)

    def test_equal_pairs_give_constant_cross_entries(self):
        n = 6
        blocks = tuple(
            FixedBlock((2 * j, 2 * j + 1), ((0.0, 0.0), (0.0, 0.0))) for j in range(3)
        )
        u = [5.0] * n
        sol = solve_sym_block_diagonal(u, blocks, 30.0)
        cross = []
        for j in range(3):
            for a in (2 * j, 2 * j + 1):
                for b in range(n):
                    if b // 2 != j:
                        cross.append(sol.matrix[a, b])
        np.testing.assert_allclose(cross, cross[0], rtol=1e-12)
        np.testing.assert_allclose(sol.matrix.sum(axis=1), u, rtol=1e-12)

    def test_self_absorbed_block_sends_nothing_out(self):
        # block {0,1} fixed to absorb its whole budget internally
        W = ((0.0, 4.0), (4.0, 0.0))
        blocks = (
            FixedBlock((0, 1), W),
            FixedBlock((2,), ((0.0,),)),
            FixedBlock((3,), ((0.0,),)),
            FixedBlock((4,), ((0.0,),)),
        )
        u = [4.0, 4.0, 3.0, 4.0, 3.0]
        sol = solve_sym_block_diagonal(u, blocks, 18.0)
        np.testing.assert_allclose(sol.matrix[0, 2:], 0.0, atol=1e-12)
        np.testing.assert_allclose(sol.matrix[1, 2:], 0.0, atol=1e-12)
        np.testing.assert_allclose(sol.matrix.sum(axis=1), u, rtol=1e-9)

    def test_near_absorbed_block_keeps_relative_accuracy(self):
        # a sliver of unfixed mass (ratio ~5e-10) must not wash out the
        # marginals: the factor formulas are written subtraction-free
        eps_out = 1e-8
        W = ((0.0, 4.0 - eps_out), (4.0 - eps_out, 0.0))
        blocks = (
            FixedBlock((0, 1), W),
            FixedBlock((2,), ((0.0,),)),
            FixedBlock((3,), ((0.0,),)),
            FixedBlock((4,), ((0.0,),)),
        )
        u = [4.0, 4.0, 3.0, 4.0, 3.0]
        sol = solve_sym_block_diagonal(u, blocks, sum(u))
        rel = np.abs(sol.matrix.sum(axis=1) - np.asarray(u)) / np.asarray(u)
        assert rel.max() <= 1e-12

    def test_within_block_values_kept_exactly(self):
        W = ((0.5, 1.75), (1.75, 0.5))
        blocks = (
            FixedBlock((0, 2), W),
            FixedBlock((1,), ((0.0,),)),
            FixedBlock((3,), ((0.25,),)),
        )
        u = [4.0, 4.0, 4.5, 4.25]
        sol = solve_sym_block_diagonal(u, blocks, sum(u))
        assert sol.matrix[0, 0] == 0.5
        assert sol.matrix[0, 2] == 1.75 and sol.matrix[2, 0] == 1.75
        assert sol.matrix[2, 2] == 0.5
        assert sol.matrix[3, 3] == 0.25
        np.testing.assert_allclose(sol.matrix.sum(axis=1), u, rtol=1e-9)
        np.testing.assert_allclose(sol.matrix.sum(axis=0), u, rtol=1e-9)

    def test_all_singletons_are_the_fixed_diagonal_case(self):
        blocks = tuple(FixedBlock((i,), ((0.0,),)) for i in range(4))
        sol = solve_sym_block_diagonal(FOUR_NODE_SUMS, blocks, 130.0)
        assert sol.case is SolverCase.SYM_FIXED_DIAGONAL
        mixed = (FixedBlock((0, 1), ((0.0, 0.0), (0.0, 0.0))),) + tuple(
            FixedBlock((i,), ((0.0,),)) for i in range(2, 6))
        sol = solve_sym_block_diagonal([5.0] * 6, mixed, 30.0)
        assert sol.case is SolverCase.SYM_BLOCK_DIAGONAL

    @pytest.mark.parametrize("blocks", [
        (),
        (FixedBlock((0, 1), ((0.0, 0.0), (0.0, 0.0))), FixedBlock((1,), ((0.0,),))),
        (FixedBlock((4,), ((0.0,),)),),
    ], ids=["none", "overlapping", "out_of_range"])
    def test_blocks_that_are_not_disjoint_node_sets_raise(self, blocks):
        with pytest.raises(InfeasibleMarginals, match="disjoint"):
            solve_sym_block_diagonal(FOUR_NODE_SUMS, blocks, 130.0)

    def test_fixed_row_above_a_small_row_sum_raises(self):
        # 0.002 fixed in a row summing to 0.001: a tolerance taken relative
        # to the total (1e6) instead of the row would accept it and leave
        # that row sum off by 100%
        blocks = (FixedBlock((0, 1), ((0.002, 0.0), (0.0, 0.002))),) + tuple(
            FixedBlock((i,), ((0.0,),)) for i in range(2, 5))
        u = [0.001, 0.001, 4e5, 3e5, 3e5]
        with pytest.raises(InfeasibleMarginals, match="node 0"):
            solve_sym_block_diagonal(u, blocks, sum(u))

    def test_partial_partition_meets_marginals_and_kkt(self, rng):
        for _ in range(20):
            u, blocks = _partial_partition(rng)
            sol = solve_sym_block_diagonal(u, blocks, float(u.sum()))
            assert sol.root.m == len(blocks) and len(sol.root.r) > len(blocks)
            np.testing.assert_allclose(sol.matrix.sum(axis=1), u, rtol=1e-12, atol=0)
            np.testing.assert_allclose(sol.matrix.sum(axis=0), u, rtol=1e-12, atol=0)
            spec = make_spec(u.size, u.size, row=("equal", u.tolist()), blocks=blocks,
                             symmetric=True)
            report = verify_kkt(sol, spec)
            assert report.ok, report.violations


def _partial_partition(rng):
    """Row sums and disjoint blocks, one of two or more nodes, that leave
    at least one node free; drawn until the saturation equation has a root
    (its function is negative at the branch point)."""
    while True:
        n = int(rng.integers(5, 10))
        sizes = rng.integers(1, 4, int(rng.integers(1, 4)))
        if sizes.max() < 2 or sizes.sum() >= n:
            continue
        nodes = rng.permutation(n)
        ends = np.cumsum(sizes)
        s = float(rng.uniform(10.0, 40.0))
        u = rng.uniform(0.5, 1.0, n)
        u = u / u.sum() * s
        blocks, r_group, free = [], [], set(range(n))
        for a, b in zip(ends - sizes, ends):
            idx = tuple(sorted(int(i) for i in nodes[a:b]))
            W = rng.uniform(0.0, 0.02, (len(idx), len(idx))) * s
            W = (W + W.T) / 2.0
            blocks.append(FixedBlock(idx, tuple(tuple(float(v) for v in row) for row in W)))
            r_group.append(float(sum(u[i] - W[k].sum() for k, i in enumerate(idx))) / s)
            free -= set(idx)
        root = RootProblem(r=tuple(r_group) + tuple(u[i] / s for i in sorted(free)),
                           m=len(blocks))
        if root.f_at_branch_point() < -0.02:
            return u, tuple(blocks)


class TestRootOnSolution:
    def test_root_is_the_problem_the_series_rebuilt(self, rng):
        # the spec's ratios with the fixed rows first (by index) and the
        # free rows after them, as the series payload used to rebuild them
        golden = Path(__file__).parent / "golden" / "sym_singleton_blocks.json"
        specs = [load_problem(json.loads(golden.read_text()))]
        specs += [random_sym_fixed_diagonal(rng) for _ in range(20)]
        for spec in specs:
            sol = solve(spec)
            u = np.array(spec.axis_values("row", kind=next(iter(spec.axis_kinds("row")))))
            s = float(u.sum())
            fixed = {b.index_set[0]: float(b.matrix[0][0]) for b in spec.fixed_blocks}
            r = [(u[i] - fixed[i]) / s if i in fixed else u[i] / s for i in range(u.size)]
            order = sorted(range(u.size), key=lambda i: i not in fixed)
            assert sol.root == RootProblem(r=tuple(r[i] for i in order), m=len(fixed))

    def test_rectangular_solutions_carry_no_root(self):
        sol = solve(make_spec(2, 2, row=("upper", [6.0, 4.0]), total=("equal", 8.0)))
        assert sol.root is None
