"""Spec validation, consistency checking, and case classification."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from likelymat import (
    ElementBound,
    FixedBlock,
    IndexOutOfRange,
    InfeasibleMarginals,
    LikelymatError,
    MarginalConstraint,
    NegativeValue,
    ProblemSpec,
    Shape,
    ShapeMismatch,
    SolverCase,
    TotalConstraint,
    classify,
    consistency_check_blocks,
    numeric_maxent,
    solve,
    solve_gravity_partial_cols,
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
        spec = ProblemSpec.of(
            Shape(3, 3),
            marginals=(MarginalConstraint("row", i, "equal", 9.0) for i in (2, 1, 0)),
            element_bounds=(ElementBound(i, j, ub) for i, j, ub in (
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
        spec = ProblemSpec.of(Shape(2, 2), (MarginalConstraint("row", 5, "equal", 1.0),))
        with pytest.raises(IndexOutOfRange):
            validate_spec(spec)

    def test_duplicate_marginal_rejected(self):
        spec = ProblemSpec.of(
            Shape(2, 2),
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


def put(values, p, v):
    out = np.array(values, dtype=float)
    out[p] = v
    return out


GRAVITY = make_spec(2, 3, row=("equal", [6, 4]), col=("equal", [5, None, None]))
ROW_BOUNDS = make_spec(2, 2, row=("upper", [6, 4]))
# field -> (a valid spec, the spec with one value of that field set to v,
# whether the field is an equality, and how the records name a negative v)
FIELDS = {
    "row-equal": (GRAVITY, lambda s, v: replace(s, row_sums=replace(
        s.row_sums, value=put(s.row_sums.value, 1, v))), True, "row 1: marginal value {} < 0"),
    "row-upper": (ROW_BOUNDS, lambda s, v: replace(s, row_sums=replace(
        s.row_sums, value=put(s.row_sums.value, 1, v))), False, "row 1: marginal value {} < 0"),
    "col-equal": (GRAVITY, lambda s, v: replace(s, col_sums=replace(
        s.col_sums, value=put(s.col_sums.value, 0, v))), True, "col 0: marginal value {} < 0"),
    "col-upper": (make_spec(2, 2, row=("upper", [6, 4]), col=("upper", [3, 3])),
                  lambda s, v: replace(s, col_sums=replace(
                      s.col_sums, value=put(s.col_sums.value, 1, v))),
                  False, "col 1: marginal value {} < 0"),
    "total-equal": (ROW_BOUNDS, lambda s, v: replace(s, total=TotalConstraint("equal", v)),
                    True, "total value {} < 0"),
    "total-upper": (ROW_BOUNDS, lambda s, v: replace(s, total=TotalConstraint("upper", v)),
                    False, "total value {} < 0"),
    "cap": (make_spec(2, 2, row=("upper", [6, 4]), elements=[(0, 1, 1.0)]),
            lambda s, v: replace(s, element_caps=s.element_caps[:2] + (
                put(s.element_caps[2], 0, v),)), False, "element bound at (0,1) is negative"),
    "fixed": (make_spec(3, 3, row=("equal", [4, 4, 4]), symmetric=True,
                        blocks=zero_diagonal_blocks(3)),
              lambda s, v: replace(s, fixed_cells=replace(
                  s.fixed_cells, values=put(s.fixed_cells.values, 1, v))),
              True, "fixed block value {} < 0"),
}


def ending(fn, build):
    """The result of ``fn(build())``, or the LikelymatError it raises as
    (type, message); any other exception, or a warning, fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(build())
        except LikelymatError as e:
            return type(e), str(e)


class TestValues:
    """A spec built from arrays, whatever its values: every entry point ends
    in one named error or a finite result."""

    @pytest.mark.parametrize("value", [math.nan, -1.0, math.inf], ids=["nan", "-1", "inf"])
    @pytest.mark.parametrize("field", list(FIELDS))
    def test_each_field(self, field, value):
        base, bad, equality, negative = FIELDS[field]
        outcomes = [ending(fn, lambda: bad(base, value))
                    for fn in (validate_spec, solve, lambda s: numeric_maxent(s, "G"))]
        if value == math.inf and not equality:  # no bound
            assert ending(validate_spec, lambda: bad(base, value)).validated
            for got in outcomes[1:]:
                assert isinstance(got, tuple) or np.isfinite(got.matrix).all()
            return
        where = negative.format(value).removesuffix(" < 0").removesuffix(" is negative")
        if value < 0 or field.startswith("total") and math.isnan(value):
            expected = (NegativeValue, negative.format(value))  # a TotalConstraint's own
        elif math.isnan(value):
            expected = (NegativeValue, f"{where} is not a number")
        else:
            expected = (InfeasibleMarginals, f"{where} is an equality and not finite")
        assert outcomes == [expected] * 3

    def test_the_first_bad_value_in_spec_order_is_named(self):
        # rows stated as 1, then 0: the first stated is named, not row 0
        rows = put(GRAVITY.row_sums.value, [0, 1], [-1.0, math.nan])
        spec = replace(GRAVITY, row_sums=replace(GRAVITY.row_sums, index=np.array([1, 0]),
                                                 value=rows),
                       col_sums=replace(GRAVITY.col_sums, value=np.array([math.inf])))
        with pytest.raises(NegativeValue, match=r"^row 1: marginal value -1.0 < 0$"):
            validate_spec(spec)
        with pytest.raises(NegativeValue, match=r"^row 1: marginal value nan is not a number$"):
            validate_spec(replace(spec, row_sums=replace(spec.row_sums, value=rows[::-1])))
        with pytest.raises(InfeasibleMarginals, match=r"^col 0: marginal value inf is an"):
            validate_spec(replace(spec, row_sums=GRAVITY.row_sums))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_gravity_refuses_a_row_sum_that_is_not_finite(self, value):
        with pytest.raises(InfeasibleMarginals, match="row sums must be finite"):
            solve_gravity_partial_cols([1.0, value], [], 2)


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
