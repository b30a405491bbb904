"""Exact and log-scale realization counts against known values."""

import math

import numpy as np
import pytest

from likelymat import (
    CountOverflow,
    NegativeEntry,
    NonIntegerEntry,
    count_feasible_row_bounded,
    exact_realizations,
    likelihood_ratio,
    log10_realizations,
    solve_total_row_bounds,
)
from likelymat.counting import (
    LN10,
    MAX_EXACT_DIGITS,
    _ln_factorials,
    _ln_rising_fraction,
    distinct_values,
)

EULER_GAMMA = 0.5772156649015329

TEN_BY_TEN_BOUNDS = [20, 20, 24, 30, 30, 36, 36, 36, 36, 40]


def log10_per_cell(X) -> float:
    """The per-cell lgamma loop: the reference for ``log10_realizations``."""
    A = np.asarray(X, dtype=float)
    s = float(A.sum())
    return (math.lgamma(s + 1.0) - sum(math.lgamma(v + 1.0) for v in A.ravel())) / LN10


def ratio_per_cell(X1, X2) -> float:
    """The per-cell log10 likelihood ratio: the reference for ``likelihood_ratio``."""
    A = np.asarray(X1, dtype=float)
    B = np.asarray(X2, dtype=float)
    return (
        math.lgamma(float(A.sum()) + 1.0)
        - math.lgamma(float(B.sum()) + 1.0)
        - sum(math.lgamma(v + 1.0) for v in A.ravel())
        + sum(math.lgamma(v + 1.0) for v in B.ravel())
    ) / LN10


def repeated_values(rng, shape) -> np.ndarray:
    """Random nonnegative floats drawn from a few values, -0.0 among them."""
    pool = np.array([-0.0, 0.0, 0.1, 1.0 / 3.0, 2.5, 7.0, 1e-300, 123.456])
    return rng.choice(pool, shape) * rng.choice([1.0, 1.0, 1.0 + 2**-52], shape)

# Per-row composition counts for the bounds above: C(u+10, 10) when the row
# sum may fall anywhere below its bound, C(u+9, 9) when it must hit it.
FACTORS_UNDER = {20: 30045015, 24: 131128140, 30: 847660528, 36: 4076350421, 40: 10272278170}
FACTORS_EXACT = {20: 10015005, 24: 38567100, 30: 211915132, 36: 886163135, 40: 2054455634}


class TestExactRealizations:
    @pytest.mark.parametrize(
        "matrix,expected",
        [
            ([[3, 4], [2, 1]], 12600),
            ([[2, 5], [2, 1]], 7560),
            ([[1, 6], [3, 0]], 840),
        ],
    )
    def test_two_by_two_counts(self, matrix, expected):
        assert exact_realizations(matrix).value == expected

    def test_single_cell(self):
        assert exact_realizations([[5]]).value == 1

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            exact_realizations([[1, -1]])

    def test_non_integer_rejected(self):
        # named by its own error and its first offending cell, not the whole matrix
        with pytest.raises(NonIntegerEntry, match=r"^exact counting needs integer entries; "
                                                  r"cell \(0, 0\) is 1\.5$"):
            exact_realizations([[1.5, 2.5]])

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_is_no_integer(self, value):
        with pytest.raises(NonIntegerEntry, match=r"cell \(1, 0\)"):
            exact_realizations([[1.0, 2.0], [value, 3.0]])

    def test_non_integer_row_bound_rejected(self):
        with pytest.raises(NonIntegerEntry, match="row bound 2.5 is not an integer"):
            count_feasible_row_bounded([1, 2.5], 3, equality=True)

    def test_log10_past_the_int_to_str_digit_limit(self):
        X = np.full((20, 20), 50)
        exact = exact_realizations(X)
        assert exact.value.bit_length() > 4300 * 3.33  # more than 4300 digits
        assert exact.log10 == pytest.approx(log10_realizations(X).log10, rel=1e-12)


class TestExactDigitGuard:
    """An exact count past ``MAX_EXACT_DIGITS`` digits raises before any
    big-integer work, which once ran for minutes or without end."""

    @pytest.mark.parametrize("X", [[[1e6, 1e6]], [[1e9, 1e9]], [[1e300, 1e300]], [[2e5, 2e5]]])
    def test_large_counts_raise(self, X):
        with pytest.raises(CountOverflow, match="digits, above 60000"):
            exact_realizations(X)

    def test_estimate_survives_cancellation(self):
        # lgamma(1e300 + 1 + k) - lgamma(1e300 + 1) is 0 in floats; C(1e300 + k, k)
        # has about 300 k - log10(k!) digits: 59,625 for k = 200, 61,114 for 205
        n = int(1e300)
        assert exact_realizations([[1e300, 200.0]]).value == math.comb(n + 200, 200)
        with pytest.raises(CountOverflow, match="about 6.111e"):
            exact_realizations([[1e300, 205.0]])
        assert exact_realizations([[1e300, 1.0]]).value == n + 1
        assert exact_realizations([[1.7e308, 0.0]]).value == 1  # lgamma(1.7e308) overflows
        assert MAX_EXACT_DIGITS == 60_000

    @pytest.mark.parametrize("equality", [True, False])
    def test_feasible_counts_raise(self, equality):
        with pytest.raises(CountOverflow, match="digits, above 60000"):
            count_feasible_row_bounded([10**6], 10**6, equality)
        with pytest.raises(CountOverflow):
            count_feasible_row_bounded([1e300, 3], 400, equality)
        assert count_feasible_row_bounded([1e300], 1, equality).value == (
            1 if equality else int(1e300) + 1)


class TestLogRealizations:
    def test_matches_exact_for_integers(self, rng):
        for _ in range(50):
            X = rng.integers(0, 9, (int(rng.integers(1, 4)), int(rng.integers(1, 4))))
            exact = exact_realizations(X).value
            log10 = log10_realizations(X).log10
            assert abs(log10 - exact_realizations(X).log10) <= 1e-9 * max(1.0, abs(log10))
            if exact < 10**15:
                assert abs(10.0**log10 - exact) <= 1e-9 * exact

    def test_row_saturated_ten_by_ten(self):
        X = np.tile((np.array(TEN_BY_TEN_BOUNDS) / 10.0)[:, None], (1, 10))
        assert abs(log10_realizations(X).log10 - 549.2) <= 0.1

    def test_trivial_matrix(self):
        assert log10_realizations([[5]]).log10 == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("X, expected", [
        ([[7936, 0, 1e300]], 7936 * 300 - math.lgamma(7937) / LN10),  # ln s! - ln x! lost every digit
        ([[1e20, 3, 4]], 140 - math.log10(144)),  # (1e20 + 7)! / (1e20! 3! 4!)
        ([[7.0], [2.0**60]], 7 * 60 * math.log10(2) - math.log10(5040)),
    ])
    def test_one_entry_dwarfing_the_rest(self, X, expected):
        assert log10_realizations(X).log10 == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("m, psi_plus_gamma", [
        (5.0, 137 / 60),  # H_5
        (1.0, 1.0),  # s = 1 + k rounds to 1, and ln s! = 0
        (0.5, 2.0 - 2.0 * math.log(2.0)),  # ln s! < 0
    ])
    def test_a_small_real_cell(self, m, psi_plus_gamma):
        # (m + k)! / (m! k!) at k = 1e-20: ln of it is k (psi(m + 1) + gamma) + O(k^2)
        assert log10_realizations([[m, 1e-20]]).log10 == pytest.approx(
            1e-20 * psi_plus_gamma / LN10, rel=1e-12)
        assert log10_realizations([[1e-20]]).log10 == 0.0

    def test_ln_gamma_of_one_plus_a_small_value(self):
        # ln Gamma(1 + x) = -gamma x + zeta(2) x^2 / 2 - ..; 1 + x rounds to 1 below 2^-53
        for x in (1e-300, 1e-20, 1e-10, 2.0**-27):
            (got,) = _ln_factorials([x])
            assert got == pytest.approx(-EULER_GAMMA * x + math.pi**2 / 12 * x * x, rel=1e-14)
        assert _ln_factorials([2.0**-26, 0.001]) == [math.lgamma(1 + 2.0**-26), math.lgamma(1.001)]

    @pytest.mark.parametrize("m", [0.0, 0.3, 1.0, 5.0, 15.5, 16.0, 1e5, 1e300])
    def test_rising_by_a_fraction(self, m):
        # lgamma's difference keeps its digits at k near 1/2; a tiny k takes psi
        for k in (0.25, 0.5, 0.75):
            if m > 2.0**53:  # Gamma(m + 1 + k) / Gamma(m + 1) = m^k (1 + O(1/m))
                want, tol = k * math.log(m), 1e-15
            else:
                want = math.lgamma(m + 1.0 + k) - math.lgamma(m + 1.0)
                tol = 4e-16 * (abs(math.lgamma(m + 1.0)) + 1.0) / abs(want)
            assert _ln_rising_fraction(m, k) == pytest.approx(want, rel=max(tol, 1e-14))
        if m == int(m) and m < 100:  # psi(m + 1) = H_m - gamma
            harmonic = math.fsum(1.0 / j for j in range(1, int(m) + 1))
            for k in (1e-300, 1e-20, 1e-12):
                assert _ln_rising_fraction(m, k) == pytest.approx(
                    k * (harmonic - EULER_GAMMA), rel=1e-14)

    def test_bit_identical_to_the_per_cell_loop(self, rng):
        for _ in range(50):
            shape = tuple(int(v) for v in rng.integers(1, 30, int(rng.integers(1, 4))))
            for X in (repeated_values(rng, shape), rng.uniform(0.0, 50.0, shape)):
                assert log10_realizations(X).log10 == log10_per_cell(X)
        X = np.array([[-0.0, 0.0], [2.0, -0.0]])
        assert log10_realizations(X).log10 == log10_per_cell(X)

    def test_distinct_values_keep_negative_zero(self):
        X = np.array([[0.0, -0.0, 1.5], [1.5, 0.0, -0.0]])
        u, inv = distinct_values(X)
        assert u.size == 3
        assert u[inv].view(np.int64).tolist() == X.ravel().view(np.int64).tolist()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("X", [[[1e308, 1.0]], [[5e307, 5e307], [5e307, 5e307]]])
    def test_lgamma_overflow_is_count_overflow(self, X):
        with pytest.raises(CountOverflow):
            log10_realizations(X)
        with pytest.raises(CountOverflow):
            likelihood_ratio(X, [[1.0]])


class TestFeasibleCounts:
    def test_under_bound_product(self):
        got = count_feasible_row_bounded(TEN_BY_TEN_BOUNDS, 10, equality=False)
        expected = 1
        for u in TEN_BY_TEN_BOUNDS:
            expected *= FACTORS_UNDER[u]
        assert got.value == expected
        assert abs(got.log10 - math.log10(2.41e89)) < 0.01

    def test_exact_sum_product(self):
        got = count_feasible_row_bounded(TEN_BY_TEN_BOUNDS, 10, equality=True)
        expected = 1
        for u in TEN_BY_TEN_BOUNDS:
            expected *= FACTORS_EXACT[u]
        assert got.value == expected
        assert abs(got.log10 - math.log10(2.20e83)) < 0.01

    def test_two_rows_two_cols(self):
        assert count_feasible_row_bounded([7, 3], 2, equality=True).value == 32


class TestLikelihoodRatio:
    def test_row_five_deviation(self):
        base = np.full((1, 10), 3.0)
        dev = np.array([[2, 2, 2, 2, 2, 4, 4, 4, 4, 4]], dtype=float)
        assert likelihood_ratio(base, dev) == pytest.approx(4.21, rel=5e-3)

    def test_row_eight_deviation(self):
        base = np.full((1, 10), 3.6)
        dev = np.array([[2, 2, 2, 2, 2, 2, 2, 6, 8, 8]], dtype=float)
        assert likelihood_ratio(base, dev) == pytest.approx(813.9, rel=5e-3)

    def test_finer_units_inflate_ratios(self):
        base5 = np.full((1, 10), 30.0)
        dev5 = 10.0 * np.array([[2, 2, 2, 2, 2, 4, 4, 4, 4, 4]], dtype=float)
        log_r = likelihood_ratio(base5, dev5, log_domain=True)
        assert abs(log_r - math.log10(1.8e7)) <= 0.05 * math.log10(1.8e7)

        base8 = np.full((1, 10), 36.0)
        dev8 = 10.0 * np.array([[2, 2, 2, 2, 2, 2, 2, 6, 8, 8]], dtype=float)
        log_r = likelihood_ratio(base8, dev8, log_domain=True)
        assert abs(log_r - math.log10(4.2e32)) <= 0.05 * math.log10(4.2e32)

    def test_identical_matrices(self):
        X = np.array([[1.5, 2.5], [0.5, 3.0]])
        assert likelihood_ratio(X, X) == 1.0

    def test_bit_identical_to_the_per_cell_sums(self, rng):
        for _ in range(50):
            shape = tuple(int(v) for v in rng.integers(1, 20, 2))
            A, B = repeated_values(rng, shape), repeated_values(rng, shape)
            assert likelihood_ratio(A, B, log_domain=True) == ratio_per_cell(A, B)

    def test_ratio_past_the_float_range_is_count_overflow(self):
        A, B = np.full((30, 30), 10.0), [[9000.0]]
        with pytest.raises(CountOverflow, match="log_domain=True"):
            likelihood_ratio(A, B)
        assert likelihood_ratio(A, B, log_domain=True) > 308

    def test_different_totals_use_full_formula(self):
        ratio = likelihood_ratio([[2, 2]], [[1, 1]])
        by_hand = (math.factorial(4) / 4) / (math.factorial(2) / 1)
        assert ratio == pytest.approx(by_hand, rel=1e-12)


class TestMonotonicityInTotal:
    def test_count_grows_with_total(self):
        logs = []
        for s in (272, 273, 274, 275, 303, 304, 307, 308):
            sol = solve_total_row_bounds(float(s), TEN_BY_TEN_BOUNDS, 10)
            logs.append(log10_realizations(sol.matrix).log10)
        assert all(b > a for a, b in zip(logs, logs[1:]))
