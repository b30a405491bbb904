"""The bound cases share one construction and one multiplier gauge.

Row bounds, a known or bounded total over row bounds, two-sided bounds and
the symmetric total case water-fill one side's bounds and assemble the
gravity matrix over the result.  Each bound-type side reports a bound's
achieved sum over the largest achieved sum on its side, so the factors are
continuous in the total, a zero bound's factor is exactly 0, and every
solution passes ``verify_kkt``.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from likelymat import (
    BoundedVectorProblem,
    LikelymatError,
    Solution,
    SolverCase,
    solve,
    solve_bounded_total_row_bounds,
    solve_row_bounds,
    solve_row_col_bounds,
    solve_sym_total_row_col_bounds,
    solve_total_row_bounds,
    verify_kkt,
    waterfill_equal_sum,
)
from likelymat.constraints import transpose
from conftest import make_spec
from test_transpose import SIZE, VALUE, finite_sum, orientable_specs

BOUND = VALUE | st.just(math.inf) | st.none()


@st.composite
def sym_total_bounds(draw):
    n = draw(SIZE)
    u = draw(st.lists(BOUND, min_size=n, max_size=n))
    s = finite_sum([x for x in u if x != math.inf]) * draw(st.floats(0.0, 1.0))
    return make_spec(n, n, row=("upper", u), total=("equal", s), symmetric=True)


@given(orientable_specs() | sym_total_bounds())
def test_every_solution_passes_verify_kkt(spec):
    try:
        sol = solve(spec)
    except LikelymatError:
        return  # infeasible or unsupported draws have no solution to check
    report = verify_kkt(sol, spec)
    assert report.ok, report.violations


@pytest.mark.parametrize("u", [[1.0, 2.0, 3.0], [20.0, 20, 24, 30, 30, 36, 36, 36, 36, 40]])
def test_saturated_row_cases_agree(u):
    m, total = 4, float(sum(u))
    sols = [
        solve_row_bounds(u, m),
        solve_total_row_bounds(total, u, m),
        solve_bounded_total_row_bounds(total, u, m),
        solve_bounded_total_row_bounds(2 * total, u, m),
    ]
    for sol in sols:
        assert np.array_equal(sol.matrix, sols[0].matrix)
        assert sol.k == sols[0].k == len(u)
        assert np.array_equal(sol.row_multipliers, np.array(u) / max(u))


@given(st.lists(st.just(0.0) | st.floats(1e-3, 1e3), min_size=1, max_size=40),
       st.integers(1, 5), st.just(0.0) | st.floats(0.0, 1e-9))
def test_a_total_at_the_bound_total_saturates_every_row(u, m, over):
    # The target is u.sum() itself or above it within the tolerance, never a
    # Python sum(u): that can fall an ulp short, and then k = n - 1 is right.
    u = np.array(u)
    ref = solve_row_bounds(u, m)
    sol = solve_total_row_bounds(float(u.sum()) * (1 + over), u, m)
    assert sol.k == ref.k == u.size
    assert sol.matrix.tobytes() == ref.matrix.tobytes()
    assert sol.row_multipliers.tobytes() == ref.row_multipliers.tobytes()
    assert waterfill_equal_sum(BoundedVectorProblem(float(u.sum()), tuple(u))).k == u.size


def test_factors_are_continuous_in_the_total():
    u = [1.0, 2.0, 3.0]
    want = [1 / 3, 2 / 3, 1.0]
    np.testing.assert_array_equal(solve_row_bounds(u, 2).row_multipliers, want)
    below = solve_total_row_bounds(6.0 * (1 - 1e-7), u, 2)
    assert below.k == 2 and below.row_multipliers[2] == 1.0
    np.testing.assert_allclose(below.row_multipliers, want, rtol=1e-6)


def test_slack_bounds_get_one_and_saturated_bound_over_level():
    sol = solve_total_row_bounds(12.0, [1.0, 10.0, 10.0], 2)  # level 5.5
    np.testing.assert_array_equal(sol.row_multipliers, [1.0 / 5.5, 1.0, 1.0])
    sym = solve_sym_total_row_col_bounds(12.0, [1.0, 10.0, 10.0])
    np.testing.assert_array_equal(sym.row_multipliers, [1.0 / 5.5, 1.0, 1.0])
    assert np.array_equal(sym.matrix, sym.matrix.T)


@pytest.mark.parametrize(
    "spec",
    [
        make_spec(2, 2, row=("upper", [0.0, 2.0]), col=("upper", [1.0, 1.0])),
        make_spec(2, 3, row=("upper", [0.0, 2.0])),
    ],
    ids=["row_col_bounds", "row_bounds"],
)
def test_zero_bound_has_factor_zero(spec):
    sol = solve(spec)
    assert sol.row_multipliers[0] == 0.0
    assert verify_kkt(sol, spec).ok


def _with_row_factor(sol, i, f):
    mult = sol.row_multipliers.copy()
    mult[i] = f
    return dataclasses.replace(sol, row_multipliers=mult)


@pytest.mark.parametrize(
    "i, f", [(0, 0.5), (1, 0.0)], ids=["zero_bound_at_half", "positive_bound_at_zero"]
)
def test_multiplier_range_rejects_the_wrong_zero(i, f):
    spec = make_spec(2, 3, row=("upper", [0.0, 2.0]))
    report = verify_kkt(_with_row_factor(solve(spec), i, f), spec)
    assert not report.multiplier_range and not report.ok
    assert any(v.startswith(f"row {i}: multiplier") for v in report.violations)


def test_equal_totals_report_the_same_k_either_way():
    spec = make_spec(1, 2, row=("upper", [0.0]), col=("upper", [0.0, 0.0]))
    sol, twin = solve(spec), solve(transpose(spec))
    assert isinstance(sol, Solution) and sol.case is SolverCase.ROW_COL_BOUNDS
    assert sol.k == twin.k == 2
    direct = solve_row_col_bounds([3.0, 3.0], [2.0, 2.0, 2.0])
    assert direct.k == solve_row_col_bounds([2.0, 2.0, 2.0], [3.0, 3.0]).k == 3
    np.testing.assert_array_equal(direct.row_multipliers, [1.0, 1.0])


BIG = [1e300, 2.3e300, 3.7e300, 0.9e300, 5.1e300]


@pytest.mark.parametrize(
    "spec",
    [
        make_spec(5, 5, row=("equal", BIG), symmetric=True),
        make_spec(5, 5, row=("upper", BIG), total=("equal", 9e300), symmetric=True),
    ],
    ids=["gravity", "sym_total"],
)
def test_symmetric_assembly_stays_symmetric_at_the_top_of_the_float_range(spec):
    # u_i u_j overflows here, so the larger factor is divided first
    sol = solve(spec)
    assert np.isfinite(sol.matrix).all()
    assert np.array_equal(sol.matrix, sol.matrix.T)
    assert verify_kkt(sol, spec).ok
