"""Water-filling vector solvers: frozen examples, edge cases, invariants."""

import math

import numpy as np
import pytest

from likelymat import (
    InfeasibleMarginals,
    exact_realizations,
    numeric_maxent,
    solve_total_row_bounds,
    waterfill_bounded_sum,
)
from likelymat.oracle import entropy
from conftest import find_k, make_spec

INF = math.inf


class TestFindK:
    def test_scan_example(self):
        # slack of the prefix: j=1 gives 10 - 2 - 2*2 = 4 >= 0,
        # j=2 gives 10 - 7 - 5 = -2 < 0
        assert find_k(10.0, [2.0, 5.0, 9.0]) == 1

    def test_saturated_target_gives_full_count(self):
        assert find_k(6.0, [1.0, 2.0, 3.0]) == 3

    def test_loose_bounds_give_zero(self):
        assert find_k(3.0, [2.0, 2.0, 2.0]) == 0

    def test_infeasible_target(self):
        # a known total above the bound total is rejected by the solver;
        # the water-fill itself saturates every bound there
        with pytest.raises(InfeasibleMarginals, match="exceeds the sum of row bounds"):
            solve_total_row_bounds(7.0, [1.0, 2.0, 3.0], 2)
        assert waterfill_bounded_sum(7.0, [1.0, 2.0, 3.0]).k == 3

    def test_infinite_bounds_never_saturate(self):
        assert find_k(100.0, [1.0, INF, INF]) == 1


class TestEqualSum:
    """At a target within the bound total the sum binds: sum(x) = a."""

    def test_clipped_then_level(self):
        res = waterfill_bounded_sum(10.0, [2.0, 5.0, 9.0])
        np.testing.assert_allclose(res.x, [2.0, 4.0, 4.0])
        assert res.k == 1
        assert res.mu == 4.0

    def test_loose_bounds_uniform(self):
        res = waterfill_bounded_sum(6.0, [10.0, 10.0, 10.0])
        np.testing.assert_allclose(res.x, [2.0, 2.0, 2.0])
        assert res.k == 0

    def test_tight_budget_returns_bounds(self):
        res = waterfill_bounded_sum(6.0, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(res.x, [1.0, 2.0, 3.0])
        assert res.k == 3

    def test_result_in_input_order(self):
        res = waterfill_bounded_sum(10.0, [9.0, 2.0, 5.0])
        np.testing.assert_allclose(res.x, [4.0, 2.0, 4.0])

    def test_sum_and_bounds_hold(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 8))
            b = rng.uniform(0.1, 5.0, n)
            a = float(rng.uniform(0.01, 1.0)) * float(b.sum())
            res = waterfill_bounded_sum(a, b)
            assert abs(res.x.sum() - a) <= 1e-9 * max(1.0, a)
            assert np.all(res.x <= b + 1e-12)


class TestBoundedSum:
    def test_binding_sum(self):
        res = waterfill_bounded_sum(10.0, [2.0, 5.0, 9.0])
        np.testing.assert_allclose(res.x, [2.0, 4.0, 4.0])

    def test_binding_bounds(self):
        res = waterfill_bounded_sum(100.0, [2.0, 5.0, 9.0])
        np.testing.assert_allclose(res.x, [2.0, 5.0, 9.0])
        assert res.k == 3

    def test_zero_target(self):
        res = waterfill_bounded_sum(0.0, [2.0, 5.0])
        np.testing.assert_allclose(res.x, [0.0, 0.0])


class TestInvariants:
    def test_permutation_equivariance(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 8))
            b = rng.uniform(0.1, 5.0, n)
            a = float(rng.uniform(0.05, 1.0)) * float(b.sum())
            base = waterfill_bounded_sum(a, b).x
            perm = rng.permutation(n)
            permuted = waterfill_bounded_sum(a, b[perm]).x
            np.testing.assert_allclose(permuted, base[perm], rtol=0, atol=1e-12)

    def test_monotone_in_target(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 8))
            b = rng.uniform(0.1, 5.0, n)
            total = float(b.sum())
            a1 = float(rng.uniform(0.05, 0.95)) * total
            a2 = float(rng.uniform(a1 / total, 1.0)) * total
            x1 = waterfill_bounded_sum(a1, b).x
            x2 = waterfill_bounded_sum(a2, b).x
            assert np.all(x2 >= x1 - 1e-9)

    def test_saturation_order(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 8))
            b = rng.uniform(0.1, 5.0, n)
            a = float(rng.uniform(0.05, 1.0)) * float(b.sum())
            x = waterfill_bounded_sum(a, b).x
            saturated = np.isclose(x, b, rtol=1e-12, atol=1e-12)
            for i in range(n):
                for j in range(n):
                    if b[i] <= b[j] and saturated[j]:
                        assert saturated[i] or np.isclose(x[i], b[j])

    def test_entropy_dominates_feasible_points(self, rng):
        res = waterfill_bounded_sum(10.0, [2.0, 5.0, 9.0])
        best = entropy(res.x)
        for _ in range(500):
            y = rng.uniform(0.0, 1.0, 3) * np.array([2.0, 5.0, 9.0])
            y *= 10.0 / y.sum()
            if np.all(y <= [2.0, 5.0, 9.0]):
                assert entropy(y) <= best + 1e-9

    def test_matches_numeric_maximizer(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            b = rng.uniform(0.3, 4.0, n)
            a = float(rng.uniform(0.2, 0.98)) * float(b.sum())
            mine = waterfill_bounded_sum(a, b).x
            spec = make_spec(
                1, n, total=("equal", a),
                elements=[(0, j, float(b[j])) for j in range(n)],
            )
            oracle = numeric_maxent(spec, "H", tol=1e-10).matrix.ravel()
            np.testing.assert_allclose(mine, oracle, rtol=0, atol=1e-6)

    def test_higher_integer_sum_is_more_likely(self, rng):
        # integer vectors under their caps: any sub-saturated sum admits a
        # strictly more likely successor, so likelihood climbs with the sum
        for _ in range(50):
            n = int(rng.integers(2, 5))
            b = rng.integers(1, 5, n)
            total = int(b.sum())
            a = int(rng.integers(1, total + 1))
            best_by_sum = {}
            def count_best(target):
                best = 0
                def rec(i, left, acc):
                    nonlocal best
                    if i == n:
                        if left == 0:
                            best = max(best, exact_realizations([acc]).value)
                        return
                    for v in range(0, min(int(b[i]), left) + 1):
                        rec(i + 1, left - v, acc + [v])
                rec(0, target, [])
                return best
            if a < total:
                assert count_best(a + 1) > count_best(a)
