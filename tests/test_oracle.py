"""Numerical oracle, brute-force enumeration, and KKT verification."""

import dataclasses
import math
import time

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from likelymat import (
    FixedBlock,
    Infeasible,
    InfeasibleMarginals,
    LikelymatError,
    NotConverged,
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
from likelymat import oracle
from likelymat.cli import _oracle_objective
from conftest import (
    CASE_GENERATORS,
    _ratios_below_third,
    make_spec,
    random_sym_blocks,
    random_sym_fixed_diagonal,
    random_sym_total,
    scaled_by,
    zero_diagonal_blocks,
)


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
    return scaled_by(spec, 2.0**k)


class TestScaleAndPolish:
    """The oracle solves a scale-equivariant program at a power-of-two scale
    of its own, and its Newton polish solves singular systems."""

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

    @pytest.mark.parametrize("spec, objective", [
        # a symmetric total under row bounds: the gauge null space of a
        # mirrored program, where a full step overshoots
        pytest.param(make_spec(6, 6, row=("upper", [
            2.272128045000073, 2.3173191037039906, 1.4282112487802385, 0.9522757569814193,
            0.5725586140190307, 1.8783978632328038]), total=("equal", 5.333731640846359),
            symmetric=True), "H", id="symmetric_total"),
        # a total bound below the row bounds' sum: in the second round the
        # free block is singular, the total row the sum of the row rows
        pytest.param(make_spec(4, 6, row=("upper", [
            1.5038602318064438, 2.6110185251804667, 3.221369290220626, 3.0062612036124783]),
            total=("upper", 12.570080139435818)), "G", id="bounded_total_second_round"),
        pytest.param(make_spec(5, 3, row=("upper", [
            2.8866398763697445, 2.3148435132590937, 1.9642257554497569, 2.9370919044224033,
            0.9388668101427494]), total=("upper", 11.039954344988155)), "G",
            id="bounded_total_first_round"),
        # seed 741's bounded_total_row_bounds draw 4: without the ridge the
        # Newton steps stall at a residual of 0.112
        pytest.param(make_spec(4, 3, row=("upper", [
            3.074464169345922, 3.143765682723759, 1.3253855485355395, 1.642536687113978]),
            total=("upper", 9.294114339510694)), "G", id="bounded_total_seed741_d4"),
    ])
    def test_singular_newton_systems_converge(self, spec, objective):
        # each spec once needed a least-squares fallback, a second L-BFGS-B
        # round or the ridge
        res = numeric_maxent(spec, objective)
        assert res.converged
        assert float(np.abs(res.matrix - solve(spec).matrix).max()) <= 1e-6


class TestSweeps:
    """Scaling sweeps over the constraint families start every dual solve."""

    def test_full_marginals_need_no_newton_step(self, rng):
        for _ in range(5):
            cols = rng.uniform(1.0, 9.0, 7)
            rows = cols.sum() * rng.dirichlet(np.ones(5))
            spec = make_spec(5, 7, row=("equal", rows.tolist()), col=("equal", cols.tolist()))
            res = numeric_maxent(spec, "H")
            assert (res.converged, res.iterations) == (True, 0)
            ref = solve(spec).matrix
            assert np.all(np.abs(res.matrix - ref) <= 1e-12 * np.maximum(1.0, ref))

    def test_one_row_and_one_column_sweep_are_exact(self, rng, monkeypatch):
        # every start of a full-marginal program is rank one, a_i b_j: the
        # row sweep makes it r_i b_j / sum(b), the column sweep r_i c_j / S
        monkeypatch.setattr(oracle, "SWEEPS", 1)
        spec = make_spec(4, 6, row=("equal", [3.0, 5.0, 1.0, 7.0]),
                         col=("equal", [2.0, 4.0, 1.0, 3.0, 5.0, 1.0]))
        program = oracle._build_program(spec)
        assert [len(f.cons) for f in program.families] == [4, 6]  # rows, then columns
        M = program.incidence
        theta = oracle._sweep(program, 0.0, rng.normal(0.0, 2.0, M.k))
        got = program.assemble(np.exp(-1.0 - M.rmatvec(theta)))
        np.testing.assert_allclose(got, solve(spec).matrix, rtol=1e-14)

    def test_bound_multipliers_stay_nonnegative(self, rng):
        binding = 0  # bound multipliers the sweeps left positive
        for case, generator in CASE_GENERATORS.items():
            program = oracle._build_program(generator(rng))
            k = program.incidence.k
            for theta0 in (np.zeros(k), rng.normal(0.0, 3.0, k)):
                theta = oracle._sweep(program, 1.0, theta0)[program.n_eq:]
                assert np.all(theta >= 0.0), case
                binding += np.count_nonzero(theta)
        assert binding > 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", [
        make_spec(2, 3, row=("equal", [0.0, 5.0])),
        make_spec(3, 3, row=("equal", [0.0, 4.0, 5.0]), col=("equal", [3.0, 0.0, 6.0])),
    ], ids=["row", "row_and_column"])
    def test_a_zero_target_sends_its_cells_to_the_clip(self, spec):
        # each cell of a zero sum sits at exp(-700) or below, read as 0
        for objective in ("H", "G"):
            res = numeric_maxent(spec, objective)
            assert (res.converged, res.iterations) == (True, 0)
            assert float(np.abs(res.matrix - solve(spec).matrix).max()) <= 1e-12


class TestPsdSolve:
    """Every Gram system M diag(x) M^T y = b of the oracle is solved by one
    pivoted Cholesky, which returns a basic solution."""

    @staticmethod
    def programs(rng):
        full_cols = rng.uniform(5.0, 9.0, 5)
        return [
            # symmetric: mirrored rows and columns, the total on top
            make_spec(6, 6, row=("upper", rng.uniform(1.0, 3.0, 6).tolist()),
                      total=("equal", 5.0), symmetric=True),
            random_sym_total(rng),
            # every row and column sum: the gauge shifts rows against columns
            make_spec(4, 5, row=("equal", (full_cols.sum() * rng.dirichlet(np.ones(4))).tolist()),
                      col=("equal", full_cols.tolist())),
            # fixed blocks: a symmetric program with pinned cells
            random_sym_blocks(rng, "equal"),
            random_sym_fixed_diagonal(rng, "equal"),
        ]

    def test_consistent_systems_match_least_squares(self, rng):
        for spec in self.programs(rng):
            M = oracle._build_program(spec).incidence
            G = M.gram(x := rng.uniform(0.1, 10.0, M.n))
            assert np.linalg.matrix_rank(G) < M.k  # the gauge null space
            b = M.matvec(x * rng.uniform(-1.0, 1.0, M.n))  # in the range of G
            got, want = G @ oracle._psd_solve(G, b), G @ np.linalg.lstsq(G, b, rcond=None)[0]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert np.max(np.abs(got - b)) <= 1e-12 * np.max(np.abs(b))

    def test_an_inconsistent_step_descends(self, rng):
        # a total bound with every row bound: the total row is the sum of the
        # row rows, and the gradient leaves the range of G
        spec = make_spec(4, 6, row=("upper", [1.5, 2.6, 3.2, 3.0]), total=("upper", 9.0))
        program = oracle._build_program(spec)
        M = program.incidence
        x = rng.uniform(0.1, 1.0, M.n)
        G, g = M.gram(x), program.targets - M.matvec(x)
        d = oracle._psd_solve(G, -g)
        assert np.max(np.abs(G @ np.linalg.lstsq(G, -g, rcond=None)[0] + g)) > 1e-3
        assert g @ d < 0


class TestMinorizeMaximize:
    """The G objective by rounds of H-type dual solves: no linear program
    when it converges, and the structural cases decided up front."""

    def test_no_linear_program(self, rng, monkeypatch):
        calls = []
        linprog = scipy.optimize.linprog
        monkeypatch.setattr(scipy.optimize, "linprog",
                            lambda *a, **kw: calls.append(1) or linprog(*a, **kw))
        for case, generator in CASE_GENERATORS.items():
            spec = generator(rng)
            if _oracle_objective(spec, case) == "G":
                assert numeric_maxent(spec, "G").converged
        assert not calls

    def test_later_rounds_take_few_newton_steps(self, monkeypatch):
        # on criterion 7's seeded specs, a later round's dual solve starts
        # from the last round's shifted multipliers: measured, 305 of its 368
        # later rounds took no Newton step and the rest 5-8, and no dual
        # solve took more than 12; the bounds below leave a margin
        steps = []  # per dual solve: its Newton steps
        dual_solve = oracle._dual_solve

        def counted(*a, **kw):
            out = dual_solve(*a, **kw)
            steps.append(out[3])
            return out

        monkeypatch.setattr(oracle, "_dual_solve", counted)
        rng = np.random.default_rng(741)
        first = []  # per G solve: the index of its first round's dual solve
        for case, generator in CASE_GENERATORS.items():
            for _ in range(100):
                spec = generator(rng)
                if _oracle_objective(spec, case) == "G":
                    first.append(len(steps))
                    numeric_maxent(spec, "G", tol=1e-9)
        starts = set(first)
        later = [n for i, n in enumerate(steps) if i not in starts]
        assert len(first) == 469 and len(later) == 368  # the hook is live
        assert sum(n == 0 for n in later) >= 280
        assert max(later) <= 10
        assert max(steps) <= 15

    def test_a_cell_in_no_constraint_is_unbounded(self):
        spec = make_spec(2, 3, row=("upper", [3.0, None]), col=("upper", [1.0, 2.0, None]))
        with pytest.raises(Infeasible, match="^the total sum is unbounded under these constraints$"):
            numeric_maxent(spec, "G")
        assert numeric_maxent(spec, "H").converged  # bounded: such a cell sits at 1/e

    def test_no_constraint_at_all(self):
        # no multiplier to solve for: every cell sits at 1/e under H, and G
        # is unbounded
        spec = make_spec(2, 3)
        res = numeric_maxent(spec, "H")
        assert np.array_equal(res.matrix, np.full((2, 3), math.exp(-1.0)))
        assert (res.converged, res.iterations) == (True, 0)
        with pytest.raises(Infeasible, match="^the total sum is unbounded"):
            numeric_maxent(spec, "G")

    def test_zero_bounds_give_the_zero_matrix(self):
        for spec in (make_spec(2, 3, row=("upper", [0.0, 0.0])),
                     make_spec(2, 3, row=("upper", [0.0, 0.0]), col=("upper", [1.0, 2.0, 3.0])),
                     make_spec(3, 3, total=("upper", 0.0))):
            res = numeric_maxent(spec, "G")
            assert np.array_equal(res.matrix, np.zeros((spec.shape.rows, 3)))
            assert (res.objective_value, res.converged, res.iterations) == (0.0, True, 0)

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_far_scales_against_solve(self, rng, scale):
        # against the closed form at scale 1, scaled: near 1e-300, solve's
        # gravity products u_i v_j underflow
        for case in (SolverCase.ROW_BOUNDS, SolverCase.BOUNDED_TOTAL_ROW_BOUNDS,
                     SolverCase.ROW_COL_BOUNDS, SolverCase.ROW_BOUNDS_ELEM_BOUNDS):
            spec = CASE_GENERATORS[case](rng)
            ref = solve(spec).matrix * scale
            res = numeric_maxent(scaled_by(spec, scale), "G")
            assert res.converged
            assert np.all(np.abs(res.matrix - ref) <= 1e-9 * ref.max())


# Criterion 7's generator draws on which an L-BFGS-B run and a Newton polish
# that accepted steps on the residual alone stopped with a residual of 1.8e-4
# to 1e-3: each is draw ``d`` (from 0) of its case, the draws taken in
# CASE_GENERATORS order from default_rng(seed)
STALLED = [
    pytest.param(make_spec(6, 2, row=("upper", [
        2.0171823575341055, 3.5656298238109816, 1.9988166052126415, 3.890858383973714,
        1.1201591081381066, 1.7067236267876722]), elements=[
        (0, 0, 1.1566960395855286), (0, 1, 0.8599756225941744), (1, 0, 0.5748637846741089),
        (1, 1, 1.4193962427362954), (2, 0, 1.6941326453742773), (3, 0, 0.9979591017372214),
        (3, 1, 1.4520688798272698), (4, 1, 0.8022274200087136), (5, 0, 1.5440636351051948),
        (5, 1, 1.6001256321554496)]), id="seed743_row_elem_d20"),
    pytest.param(make_spec(4, 2, row=("upper", [
        1.342067013434527, 3.1616398986213947, 3.448008139075478, 2.4382800229028954]),
        elements=[(0, 0, 0.6457750339743547), (0, 1, 1.394362540723693),
                  (1, 0, 1.991461364534424), (1, 1, 1.1706945264853816),
                  (2, 0, 1.1848930882128534), (2, 1, 0.9058800147981043),
                  (3, 0, 1.1137934043492719)]), id="seed746_row_elem_d52"),
    pytest.param(make_spec(3, 6, row=("upper", [
        2.017791053041846, 2.065700514955643, 2.54575586770738]),
        total=("upper", 6.629754249013522)), id="seed753_bounded_total_d94"),
]


class TestStalledDraws:
    """Draws on which an earlier dual solve stalled converge."""

    @pytest.mark.parametrize("spec", STALLED)
    def test_stalled_polish_converges(self, spec):
        res = numeric_maxent(spec, "G", tol=1e-9)
        assert res.converged
        assert float(np.abs(res.matrix - solve(spec).matrix).max()) <= 1e-9


class TestInfeasible:
    """A dual solve that stops above the tolerance on a program that no
    matrix meets reports Infeasible, for either objective."""

    def test_zero_diagonal_with_a_heavy_node(self):
        # row 0 needs 10 from columns 1 and 2, whose rows allow 1 each
        spec = make_spec(3, 3, row=("equal", [10.0, 1.0, 1.0]), symmetric=True,
                         blocks=zero_diagonal_blocks(3))
        for objective in ("H", "G"):
            with pytest.raises(Infeasible, match="^no feasible matrix: "):
                numeric_maxent(spec, objective)

    def test_a_feasible_program_still_reports_non_convergence(self, monkeypatch):
        spec = make_spec(2, 2, row=("equal", [7.0, 3.0]), col=("equal", [6.0, 4.0]))
        monkeypatch.setattr(oracle, "_dual_solve",
                            lambda *a, **kw: (np.ones(4), np.zeros(4), 1.0, 0))
        with pytest.raises(NotConverged, match="^dual residual 1.0 above tolerance 1e-09$"):
            numeric_maxent(spec, "H")


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
        # validation refuses an infinite equality before the enumeration sees it
        for col in (None, ("upper", [1, 2])):
            with pytest.raises(InfeasibleMarginals,
                               match=r"^row 0: marginal value inf is an equality and not finite$"):
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

    def test_symmetric_rows_only_checks_the_mirrored_columns(self):
        # rows [1, 2, 3] met, columns [0.92, 4.6, 0.46]: a spec stating the
        # rows alone bounds the columns as much as one spelling them out
        X = np.outer(np.array([1.0, 2.0, 3.0]) / 6.5, [1.0, 5.0, 0.5])
        for col in (None, ("equal", [1, 2, 3])):
            spec = make_spec(3, 3, row=("equal", [1, 2, 3]), col=col, symmetric=True)
            report = verify_kkt(dataclasses.replace(solve(spec), matrix=X), spec)
            assert not report.feasible and not report.ok
            assert [v.split(":")[0] for v in report.violations] == ["col 0", "col 1", "col 2"]

    def test_bound_messages_keep_their_order(self):
        # per row, a multiplier outside its range is named before a slack
        # bound whose multiplier is not 1; rows in order, rows before columns
        spec = make_spec(4, 2, row=("upper", [2.0, 4.0, 0.0, 6.0]),
                         col=("upper", [math.inf, 9.0]))
        sol = solve(spec)
        X = sol.matrix.copy()
        X[0] *= 0.5  # rows 0 and 3 slack, product form kept
        X[3] *= 0.5
        bad = dataclasses.replace(sol, matrix=X, row_multipliers=np.array([1.5, 0.5, 0.25, 0.9]),
                                  col_multipliers=np.array([0.0, 0.5]))
        report = verify_kkt(bad, spec)
        assert report.feasible and report.product_form
        assert (report.multiplier_range, report.complementary_slackness) == (False, False)
        assert report.violations == (
            "row 0: multiplier 1.5 outside (0, 1]",
            "row 0: slack bound but multiplier 1.5 != 1",
            "row 2: multiplier 0.25 outside {0}",
            "row 3: slack bound but multiplier 0.9 != 1",
            "col 0: multiplier 0.0 outside (0, 1]",
            "col 1: slack bound but multiplier 0.5 != 1",
        )

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
        sol = solve(make_spec(4, 4, row=("equal", self.u), symmetric=True, slices=2,
                              blocks=zero_diagonal_blocks(4)))
        with pytest.raises(UnsupportedCase, match="element bounds on a 3-D spec"):
            verify_kkt(sol, self.spec)

    def test_solve_rejects(self):
        with pytest.raises(UnsupportedCase):
            solve(self.spec)


class TestThreeDFixedValues:
    """A 3-D spec fixes every slice's diagonal to zero and nothing else: the
    oracle refuses a nonzero or off-diagonal fixed value rather than drop it."""

    @pytest.mark.parametrize("blocks", [
        tuple(FixedBlock((i,), ((1.0,),)) for i in range(3)),
        (FixedBlock((0, 1), ((0.0, 0.0), (0.0, 0.0))),),
    ], ids=["nonzero_diagonal", "off_diagonal_zeros"])
    def test_maxent_and_brute_force_reject(self, blocks):
        spec = make_spec(3, 3, row=("equal", [[3.0], [3.0], [2.0]]), symmetric=True, slices=1,
                         blocks=blocks)
        for call in (lambda: numeric_maxent(spec, "H"), lambda: brute_force_most_likely(spec)):
            with pytest.raises(UnsupportedCase, match="fixed values on a 3-D spec"):
                call()


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
