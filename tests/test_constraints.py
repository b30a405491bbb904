"""Spec validation, consistency checking, and case classification."""

import numpy as np
import pytest

from likelymat import (
    ElementBound,
    FixedBlock,
    IndexOutOfRange,
    InfeasibleMarginals,
    MarginalConstraint,
    NegativeValue,
    ProblemSpec,
    Shape,
    ShapeMismatch,
    SolverCase,
    classify,
    consistency_check_blocks,
    solve,
    validate_spec,
    verify_kkt,
)
from conftest import make_spec, zero_diagonal_blocks

EX31_BOUNDS = [20, 20, 24, 30, 30, 36, 36, 36, 36, 40]


class TestValidateSpec:
    def test_consistent_total_accepted(self):
        spec = make_spec(2, 2, row=("equal", [7, 3]), total=("equal", 10))
        assert validate_spec(spec).validated

    def test_total_disagreeing_with_row_sums(self):
        spec = make_spec(2, 2, row=("equal", [7, 3]), total=("equal", 11))
        with pytest.raises(InfeasibleMarginals):
            validate_spec(spec)

    def test_total_above_row_bound_budget(self):
        spec = make_spec(10, 10, row=("upper", EX31_BOUNDS), total=("equal", 309))
        with pytest.raises(InfeasibleMarginals):
            validate_spec(spec)

    def test_total_above_partial_row_bounds_accepted(self):
        # a row without a bound can take any mass: only bounds on every row cap the total
        spec = make_spec(10, 10, row=("upper", EX31_BOUNDS[:9] + [None]), total=("equal", 1e6))
        assert validate_spec(spec).validated

    def test_symmetric_total_over_one_row_bound_solves(self):
        spec = make_spec(3, 3, row=("upper", [1.0, None, None]), symmetric=True,
                         total=("equal", 9.0))
        sol = solve(spec)
        assert sol.case is SolverCase.SYM_TOTAL_ROW_COL_BOUNDS
        assert np.array_equal(sol.matrix, sol.matrix.T)
        assert abs(sol.matrix.sum() - 9.0) <= 1e-12 and sol.matrix[0].sum() <= 1.0 + 1e-12
        assert verify_kkt(sol, spec).ok

    def test_idempotent(self):
        spec = make_spec(3, 4, row=("equal", [1, 2, 3]), col=("equal", [2, None, 1, None]))
        once = validate_spec(spec)
        assert validate_spec(once) is once

    def test_column_sums_cannot_exceed_rows(self):
        spec = make_spec(2, 3, row=("equal", [2, 2]), col=("equal", [5, None, None]))
        with pytest.raises(InfeasibleMarginals):
            validate_spec(spec)

    def test_row_target_above_element_caps(self):
        spec = make_spec(
            1, 2, row=("equal", [10]), elements=[(0, 0, 2), (0, 1, 3)]
        )
        with pytest.raises(InfeasibleMarginals):
            validate_spec(spec)

    def test_first_row_above_its_caps_is_named_with_caps_added_in_column_order(self):
        # rows 0 and 2 are over their caps, row 1 is not fully capped; the
        # marginals and caps come out of order
        spec = ProblemSpec(
            shape=Shape(3, 3),
            marginals=tuple(MarginalConstraint("row", i, "equal", 9.0) for i in (2, 1, 0)),
            element_bounds=tuple(ElementBound(i, j, ub) for i, j, ub in (
                (2, 2, 0.3), (0, 0, 1.0), (2, 1, 0.2), (1, 0, 1.0), (0, 2, 1.0),
                (0, 1, 1.0), (2, 0, 0.1))),
        )
        # 0.1 + 0.2 + 0.3 left to right; right to left it is 0.6
        with pytest.raises(InfeasibleMarginals,
                           match=r"^row 2 sum 9.0 exceeds its element caps 0.6000000000000001$"):
            validate_spec(spec)
        at_tolerance = make_spec(1, 2, row=("equal", [5.0 * (1 + 1e-9)]),
                                 elements=[(0, 0, 2.0), (0, 1, 3.0)])
        assert validate_spec(at_tolerance).validated

    def test_index_out_of_range(self):
        spec = ProblemSpec(
            shape=Shape(2, 2),
            marginals=(MarginalConstraint("row", 5, "equal", 1.0),),
        )
        with pytest.raises(IndexOutOfRange):
            validate_spec(spec)

    def test_duplicate_marginal_rejected(self):
        spec = ProblemSpec(
            shape=Shape(2, 2),
            marginals=(
                MarginalConstraint("row", 0, "equal", 1.0),
                MarginalConstraint("row", 0, "upper", 2.0),
            ),
        )
        with pytest.raises(ShapeMismatch):
            validate_spec(spec)

    def test_negative_value_rejected_at_construction(self):
        with pytest.raises(NegativeValue):
            MarginalConstraint("row", 0, "equal", -1.0)

    def test_symmetric_requires_square(self):
        with pytest.raises(ShapeMismatch):
            validate_spec(make_spec(2, 3, row=("equal", [1, 2]), symmetric=True))

    def test_symmetric_mirrored_columns_accepted(self):
        spec = make_spec(
            2, 2, row=("equal", [3, 5]), col=("equal", [3, 5]), symmetric=True
        )
        assert validate_spec(spec).validated

    def test_symmetric_mismatched_columns_rejected(self):
        spec = make_spec(
            2, 2, row=("equal", [3, 5]), col=("equal", [5, 3]), symmetric=True
        )
        with pytest.raises(ShapeMismatch):
            validate_spec(spec)

    def test_overlapping_blocks_rejected(self):
        blocks = (
            FixedBlock((0, 1), ((0.0, 0.0), (0.0, 0.0))),
            FixedBlock((1,), ((0.0,),)),
        )
        spec = make_spec(3, 3, row=("equal", [1, 1, 1]), blocks=blocks, symmetric=True)
        with pytest.raises(ShapeMismatch):
            validate_spec(spec)


class TestConsistencyCheck:
    def test_tight_singleton_violates(self):
        # outgoing 5 against a limit of 10/2 + 0: equality counts as violation
        report = consistency_check_blocks([5, 2, 3], [FixedBlock((0,), ((0.0,),))], 10)
        assert not report.ok
        assert report.first_violation[0] == (0,)

    def test_slack_singleton_passes(self):
        report = consistency_check_blocks([4, 3, 3], [FixedBlock((0,), ((0.0,),))], 10)
        assert report.ok

    def test_uniform_zero_diagonal_passes(self):
        for n in (3, 5, 8):
            u = [1.0] * n
            report = consistency_check_blocks(u, zero_diagonal_blocks(n), float(n))
            assert report.ok

    def test_solvable_four_node_instance(self):
        report = consistency_check_blocks(
            [40, 20, 30, 40], zero_diagonal_blocks(4), 130
        )
        assert report.ok

    def test_singleton_zero_blocks_match_half_total_rule(self, rng):
        # with unit blocks and zero fixed values the check is exactly
        # u_i / s < 1/2 for every i
        for _ in range(50):
            u = rng.uniform(0.1, 5.0, 4)
            s = float(u.sum())
            report = consistency_check_blocks(u, zero_diagonal_blocks(4), s)
            assert report.ok == bool(np.all(u / s < 0.5))

    def test_intra_block_traffic_relaxes_the_limit(self):
        block = FixedBlock((0,), ((6.0,),))
        assert consistency_check_blocks([6, 2, 3], [block], 11).ok
        assert not consistency_check_blocks([9, 1, 1], [block], 11).ok


class TestClassify:
    def test_gravity_partial_cols(self):
        spec = make_spec(2, 3, row=("equal", [6, 4]), col=("equal", [5, None, None]))
        assert classify(validate_spec(spec)) is SolverCase.GRAVITY_PARTIAL_COLS

    def test_sym_fixed_diagonal(self):
        spec = make_spec(
            3, 3, row=("equal", [4, 3, 3]),
            blocks=(FixedBlock((0,), ((0.0,),)),), symmetric=True,
        )
        assert classify(validate_spec(spec)) is SolverCase.SYM_FIXED_DIAGONAL

    def test_arbitrary_fixed_element_unsupported(self):
        spec = make_spec(
            3, 3, row=("equal", [4, 3, 3]),
            blocks=(FixedBlock((1,), ((1.0,),)),), symmetric=False,
        )
        assert classify(validate_spec(spec)) is SolverCase.UNSUPPORTED

    def test_row_cases(self):
        u = [2.0, 3.0]
        assert classify(make_spec(2, 2, row=("upper", u))) is SolverCase.ROW_BOUNDS
        assert (
            classify(make_spec(2, 2, row=("upper", u), total=("equal", 4)))
            is SolverCase.TOTAL_ROW_BOUNDS
        )
        assert (
            classify(make_spec(2, 2, row=("upper", u), total=("upper", 4)))
            is SolverCase.BOUNDED_TOTAL_ROW_BOUNDS
        )
        assert (
            classify(make_spec(2, 2, row=("upper", u), col=("upper", u)))
            is SolverCase.ROW_COL_BOUNDS
        )
        assert (
            classify(make_spec(2, 2, row=("upper", u), elements=[(0, 0, 1.0)]))
            is SolverCase.ROW_BOUNDS_ELEM_BOUNDS
        )

    def test_total_only_routes_to_known_total_case(self):
        assert (
            classify(make_spec(2, 2, total=("equal", 10)))
            is SolverCase.TOTAL_ROW_BOUNDS
        )

    def test_column_only_patterns_use_row_cases(self):
        assert classify(make_spec(2, 3, col=("upper", [1, 2, 3]))) is SolverCase.ROW_BOUNDS
        assert (
            classify(make_spec(2, 3, col=("equal", [1, 2, 3])))
            is SolverCase.GRAVITY_PARTIAL_COLS
        )

    def test_symmetric_cases(self):
        u = [1.0, 2.0, 2.0]
        assert (
            classify(make_spec(3, 3, row=("upper", u), total=("equal", 4), symmetric=True))
            is SolverCase.SYM_TOTAL_ROW_COL_BOUNDS
        )
        assert (
            classify(make_spec(3, 3, row=("upper", u), symmetric=True))
            is SolverCase.ROW_COL_BOUNDS
        )
        assert (
            classify(make_spec(3, 3, row=("equal", u), symmetric=True))
            is SolverCase.GRAVITY_PARTIAL_COLS
        )
        blocks = (
            FixedBlock((0, 1), ((0.0, 1.0), (1.0, 0.0))),
            FixedBlock((2,), ((0.0,),)),
        )
        assert (
            classify(make_spec(3, 3, row=("equal", [4, 4, 3]), blocks=blocks, symmetric=True))
            is SolverCase.SYM_BLOCK_DIAGONAL
        )

    def test_3d_classification(self):
        spec = make_spec(
            4, 4, row=("equal", [[1.0], [1.0], [1.0], [1.0]]),
            symmetric=True, slices=1,
        )
        assert classify(validate_spec(spec)) is SolverCase.SYM_3D_FIXED_DIAGONAL

    def test_unsupported_patterns(self):
        mixed = make_spec(
            2, 2, row=("upper", [2, 2]), col=("upper", [2, 2]), total=("equal", 3)
        )
        assert classify(mixed) is SolverCase.UNSUPPORTED

    def test_classification_is_pure(self):
        spec = validate_spec(make_spec(2, 2, row=("upper", [1, 2])))
        assert classify(spec) is classify(spec)
