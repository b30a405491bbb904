"""Most-likely (maximum-entropy) matrices from incomplete information.

Given sums or upper bounds over rows, columns, totals, individual elements,
and fixed diagonal blocks, these solvers return the nonnegative matrix (or
3-dimensional array) realizable in the greatest number of ways, in closed
form, together with exact realization counting and an independent numerical
oracle for verification.
"""

from .constraints import (
    ElementBound,
    FixedBlock,
    MarginalConstraint,
    ProblemSpec,
    Shape,
    SolverCase,
    TotalConstraint,
    consistency_check_blocks,
    validate_spec,
)
from .counting import (
    ExactCount,
    LogCount,
    count_feasible_row_bounded,
    exact_realizations,
    likelihood_ratio,
    log10_realizations,
)
from .errors import (
    BracketFailure,
    ConsistencyViolation,
    CountOverflow,
    Infeasible,
    InfeasibleMarginals,
    InfeasibleSum,
    IndexOutOfRange,
    InvariantViolation,
    LikelymatError,
    NegativeEntry,
    NegativeValue,
    NonIntegerEntry,
    NotConverged,
    SearchSpaceTooLarge,
    SeriesDomainError,
    ShapeMismatch,
    UnsupportedCase,
)
from .oracle import (
    BruteForceResult,
    KktReport,
    OracleResult,
    brute_force_most_likely,
    entropy,
    entropy_difference,
    numeric_maxent,
    verify_kkt,
)
from .rect import (
    solve_bounded_total_row_bounds,
    solve_gravity_partial_cols,
    solve_row_bounds,
    solve_row_bounds_elem_bounds,
    solve_row_col_bounds,
    solve_total_row_bounds,
)
from .solution import Solution
from .solve import classify, solve
from .symmetric import (
    RootProblem,
    SeriesState,
    series_approx_xi,
    solve_root_lambda,
    solve_sym_3d_fixed_diagonal,
    solve_sym_block_diagonal,
    solve_sym_fixed_diagonal,
    solve_sym_total_row_col_bounds,
)
from .waterfill import WaterfillResult, waterfill_bounded_sum

__version__ = "0.1.0"
