"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).  Tolerances are pinned here and nowhere
else.  Frozen numeric targets were verified against exact enumeration,
log-gamma arithmetic, and independent bisection before being written down.
"""

import math

import numpy as np
import pytest

from likelymat import (
    FixedBlock,
    RootProblem,
    brute_force_most_likely,
    count_feasible_row_bounded,
    exact_realizations,
    likelihood_ratio,
    log10_realizations,
    numeric_maxent,
    series_approx_xi,
    solve,
    solve_gravity_partial_cols,
    solve_root_lambda,
    solve_sym_block_diagonal,
    solve_sym_fixed_diagonal,
    solve_total_row_bounds,
    verify_kkt,
    waterfill_bounded_sum,
)
from likelymat.oracle import _fixes_total
from conftest import CASE_GENERATORS, make_spec, zero_diagonal_blocks

TEN_BOUNDS = [20.0, 20, 24, 30, 30, 36, 36, 36, 36, 40]
FOUR_NODE_SUMS = [40.0, 20.0, 30.0, 40.0]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_exact_feasible_counts():
    """Composition-count products for the 10x10 row-bound instance."""
    under = count_feasible_row_bounded(TEN_BOUNDS, 10, equality=False).value
    exact = count_feasible_row_bounded(TEN_BOUNDS, 10, equality=True).value
    expected_under = (
        30045015**2 * 131128140 * 847660528**2 * 4076350421**4 * 10272278170
    )
    expected_exact = (
        10015005**2 * 38567100 * 211915132**2 * 886163135**4 * 2054455634
    )
    report(
        1,
        under == expected_under and exact == expected_exact,
        "big-integer feasible-matrix counts match the factor products exactly",
    )


def test_criterion_2_known_total_regression():
    """Row structure, informative count, and log10 counts over the s grid."""
    grid = {
        308: (10, TEN_BOUNDS, 549.2),
        307: (9, TEN_BOUNDS[:9] + [39.0], 547.3),
        304: (9, TEN_BOUNDS[:9] + [36.0], 541.8),
        303: (5, TEN_BOUNDS[:5] + [35.8] * 5, 539.9),
        275: (5, TEN_BOUNDS[:5] + [30.2] * 5, 487.2),
        274: (5, TEN_BOUNDS[:5] + [30.0] * 5, 485.3),
        273: (3, TEN_BOUNDS[:3] + [209.0 / 7] * 7, 483.4),
        272: (3, TEN_BOUNDS[:3] + [208.0 / 7] * 7, 481.5),
    }
    failures = []
    for s, (k, rows, log10) in grid.items():
        sol = solve_total_row_bounds(float(s), TEN_BOUNDS, 10)
        got_rows = sol.matrix.sum(axis=1)
        got_log = log10_realizations(sol.matrix).log10
        if sol.k != k:
            failures.append(f"s={s}: k={sol.k} != {k}")
        if not np.allclose(got_rows, rows, rtol=0, atol=1e-9):
            failures.append(f"s={s}: row sums {got_rows}")
        if abs(got_log - log10) > 0.1:
            failures.append(f"s={s}: log10 {got_log} vs {log10}")
    report(2, not failures, f"8-point known-total grid; {failures or 'all rows match'}")


def test_criterion_3_likelihood_ratios():
    """Deviation ratios for the saturated 10x10 solution, both unit scales."""
    base5, dev5 = np.full((1, 10), 3.0), np.array([[2, 2, 2, 2, 2, 4, 4, 4, 4, 4]])
    base8, dev8 = np.full((1, 10), 3.6), np.array([[2, 2, 2, 2, 2, 2, 2, 6, 8, 8]])
    r5 = likelihood_ratio(base5, dev5)
    r8 = likelihood_ratio(base8, dev8)
    l5 = likelihood_ratio(10.0 * base5, 10.0 * dev5, log_domain=True)
    l8 = likelihood_ratio(10.0 * base8, 10.0 * dev8, log_domain=True)
    ok = (
        abs(r5 - 4.21) <= 0.005 * 4.21
        and abs(r8 - 813.9) <= 0.005 * 813.9
        and abs(l5 - math.log10(1.8e7)) <= 0.05 * math.log10(1.8e7)
        and abs(l8 - math.log10(4.2e32)) <= 0.05 * math.log10(4.2e32)
    )
    report(3, ok, f"ratios {r5:.3f}, {r8:.1f}; rescaled log10 {l5:.3f}, {l8:.3f}")


def test_criterion_4_four_node_zero_diagonal():
    """Root, series, and matrices for sums (40, 20, 30, 40) with zero diagonal."""
    sol = solve_sym_fixed_diagonal(FOUR_NODE_SUMS, 130.0, 4, [0.0] * 4)
    problem = RootProblem(r=(4 / 13, 2 / 13, 3 / 13, 4 / 13), m=4)
    series = series_approx_xi(problem, 9.0 / 4.0, order=2)
    printed = np.array(
        [
            [0.0, 7.59, 12.59, 19.82],
            [7.59, 0.0, 4.82, 7.59],
            [12.59, 4.82, 0.0, 12.59],
            [19.82, 7.59, 12.59, 0.0],
        ]
    )
    comparison = solve_gravity_partial_cols(FOUR_NODE_SUMS, FOUR_NODE_SUMS, 4)
    printed_comparison = np.array(
        [
            [12.31, 6.15, 9.23, 12.31],
            [6.15, 3.08, 4.62, 6.15],
            [9.23, 4.62, 6.92, 9.23],
            [12.31, 6.15, 9.23, 12.31],
        ]
    )
    ok = (
        abs(sol.xi - 2.88018) <= 1e-4
        and abs(series.value - 2.8861) <= 1e-3
        and np.allclose(sol.matrix, printed, rtol=0, atol=0.01)
        and np.allclose(comparison.matrix, printed_comparison, rtol=0, atol=0.01)
    )
    report(
        4,
        ok,
        f"xi={sol.xi:.6f}, order-2 series {series.value:.5f}, matrices within 0.01",
    )


def test_criterion_5_equal_sum_closed_forms():
    """Fully and singly fixed zero diagonals with equal sums, n = 3..10."""
    worst = 0.0
    for n in range(3, 11):
        s = 4.0 * n
        full = solve_sym_fixed_diagonal([4.0] * n, s, n, [0.0] * n)
        expected = np.full((n, n), s / (n * (n - 1)))
        np.fill_diagonal(expected, 0.0)
        worst = max(worst, float(np.abs(full.matrix - expected).max()))
        worst = max(worst, abs(full.lam - math.sqrt(n / (n - 1))))

        single = solve_sym_fixed_diagonal([4.0] * n, s, 1, [0.0])
        a = s / (n * (n - 1))
        pattern = np.full((n, n), a * (n - 2) / (n - 1))
        pattern[0, :] = a
        pattern[:, 0] = a
        pattern[0, 0] = 0.0
        worst = max(worst, float(np.abs(single.matrix - pattern).max()))
        worst = max(worst, abs(single.lam - (n - 1) / math.sqrt(n * (n - 2))))
    report(5, worst <= 1e-12, f"worst deviation {worst:.2e} over n in 3..10")


def test_criterion_6_intro_enumeration():
    """Hand-countable 2x2 instances with row sums (7, 3)."""
    counts = [
        exact_realizations([[3, 4], [2, 1]]).value,
        exact_realizations([[2, 5], [2, 1]]).value,
        exact_realizations([[1, 6], [3, 0]]).value,
    ]
    feasible = count_feasible_row_bounded([7, 3], 2, equality=True).value
    brute = brute_force_most_likely(make_spec(2, 2, row=("equal", [7, 3])))
    ok = (
        counts == [12600, 7560, 840]
        and feasible == 32
        and brute.count.value == 12600
        and brute.n_feasible == 32
    )
    report(6, ok, f"counts {counts}, feasible {feasible}, argmax count {brute.count.value}")


def test_criterion_7_oracle_equivalence():
    """100 random feasible instances per case against the numerical optimizer."""
    rng = np.random.default_rng(741)
    worst_gap, kkt_failures, checked = 0.0, [], 0
    for case, generator in CASE_GENERATORS.items():
        for _ in range(100):
            spec = generator(rng)
            sol = solve(spec)
            objective = "H" if _fixes_total(spec) else "G"  # the CLI's rule
            oracle = numeric_maxent(spec, objective, tol=1e-9)
            gap = float(np.abs(sol.matrix - oracle.matrix).max())
            worst_gap = max(worst_gap, gap)
            if gap > 1e-6:
                kkt_failures.append(f"{case.value}: gap {gap}")
            kkt = verify_kkt(sol, spec, tol=1e-6)
            if not kkt.ok:
                kkt_failures.append(f"{case.value}: kkt {kkt.violations}")
            checked += 1
    report(
        7,
        not kkt_failures,
        f"{checked} instances, worst oracle gap {worst_gap:.2e}; "
        f"{kkt_failures[:3] or 'all KKT checks passed'}",
    )


def test_criterion_8_invariant_suites():
    """Water-filling invariants, curvature, bracket signs, block reduction."""
    rng = np.random.default_rng(852)
    failures = []

    # 1000 water-filling instances: permutation equivariance and monotonicity
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        b = rng.uniform(0.1, 5.0, n)
        total = float(b.sum())
        a1 = float(rng.uniform(0.05, 0.95)) * total
        a2 = float(rng.uniform(a1 / total, 1.0)) * total
        x1 = waterfill_bounded_sum(a1, b).x
        x2 = waterfill_bounded_sum(a2, b).x
        if not np.all(x2 >= x1 - 1e-9):
            failures.append("monotonicity")
        perm = rng.permutation(n)
        xp = waterfill_bounded_sum(a1, b[perm]).x
        if not np.allclose(xp, x1[perm], rtol=0, atol=1e-12):
            failures.append("permutation equivariance")

    # curvature of the free-total objective at 100 random positive points
    from likelymat import entropy_difference

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
        if q > 1e-8:
            failures.append(f"curvature {q}")

    # bracket sign conditions on 100 admissible ratio vectors; the
    # strict below-a-third condition needs at least four ratios in play
    for _ in range(100):
        if rng.uniform() < 0.5:
            n = int(rng.integers(4, 9))
            while True:
                r = rng.uniform(0.4, 1.0, n)
                r /= r.sum()
                if r.max() < 1.0 / 3.0 - 1e-6:
                    break
            m = int(rng.integers(1, n + 1))
        else:
            m = int(rng.integers(4, 7))
            sigma = float(rng.uniform(0.5, 0.95))
            while True:
                r = rng.uniform(0.4, 1.0, m)
                r = r / r.sum() * sigma
                if r.max() < sigma / 3.0 - 1e-9:
                    break
        p = RootProblem(r=tuple(float(v) for v in r), m=m)
        lo, hi = p.bracket
        flo = p.f_at_branch_point()
        if not (flo <= 0.0 < p.f(hi)):
            failures.append(f"bracket signs at m={m}: {flo}, {p.f(hi)}")
        lam = solve_root_lambda(p)
        if not (lo <= lam <= hi and abs(p.f(lam)) < 1e-9):
            failures.append(f"root outside bracket: {lam}")

    # size-1 fixed blocks reproduce the fixed-diagonal solver
    for _ in range(50):
        n = int(rng.integers(4, 7))
        while True:
            r = rng.uniform(0.4, 1.0, n)
            r /= r.sum()
            if r.max() < 0.32:
                break
        s = float(rng.uniform(5.0, 40.0))
        w = rng.uniform(0.0, 0.03, n) * s
        sigma = 1.0 - float(w.sum()) / s
        if not np.all(r * sigma < 0.32 * sigma):
            continue
        u = r * sigma * s + w
        blocks = tuple(FixedBlock((i,), ((float(w[i]),),)) for i in range(n))
        got = solve_sym_block_diagonal(u, blocks, float(u.sum()))
        ref = solve_sym_fixed_diagonal(u, float(u.sum()), n, w)
        if float(np.abs(got.matrix - ref.matrix).max()) > 1e-10:
            failures.append("block reduction")

    report(8, not failures, f"invariant sweeps clean ({set(failures) or 'no failures'})")


def test_criterion_9_robustness_ladder():
    """Dropping constraints degrades to uniform structures, exactly."""
    full = solve(make_spec(2, 2, row=("equal", [7, 3]), col=("equal", [6, 4])))
    no_cols = solve(make_spec(2, 2, row=("equal", [7, 3])))
    only_total = solve(make_spec(2, 2, total=("equal", 10.0)))
    ok = (
        np.allclose(full.matrix, [[4.2, 2.8], [1.8, 1.2]], rtol=0, atol=1e-15)
        and np.array_equal(no_cols.matrix, [[3.5, 3.5], [1.5, 1.5]])
        and np.array_equal(only_total.matrix, np.full((2, 2), 2.5))
    )
    # structural version on a non-dyadic instance: rows constant, then flat
    u = [6.0, 4.0, 2.0]
    no_cols3 = solve(make_spec(3, 3, row=("equal", u)))
    flat3 = solve(make_spec(3, 3, total=("equal", 12.0)))
    ok = ok and all(
        np.array_equal(no_cols3.matrix[i], np.full(3, u[i] / 3.0)) for i in range(3)
    )
    ok = ok and np.array_equal(flat3.matrix, np.full((3, 3), 12.0 / 9.0))
    report(9, ok, "degenerations reproduce uniform structures exactly")
