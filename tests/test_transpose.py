"""Transposition: a column-form spec is the row form of the same case.

Hypothesis draws non-symmetric 2-D specs of the five patterns that have a
column form (gravity, row bounds, known or bounded total with row bounds,
row and column bounds), in either orientation.  A spec and its transpose
must classify alike and solve to transposed solutions with the same k.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from likelymat import LikelymatError, Solution, SolverCase, classify, solve
from likelymat.constraints import is_column_form, transpose, validate_spec
from conftest import CASE_GENERATORS, make_spec

SIZE = st.integers(1, 6)
VALUE = st.just(0.0) | st.floats(1e-3, 1e3)


def values(k, partial=False):
    return st.lists(VALUE | st.none() if partial else VALUE, min_size=k, max_size=k)


def finite_sum(vals):
    return sum(v for v in vals if v is not None)


@st.composite
def gravity(draw):
    n, m = draw(SIZE), draw(SIZE)
    u = draw(values(n))
    s = sum(u)
    known = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    weights = [x for x, k in zip(draw(values(m)), known) if k]
    if weights and sum(weights) == 0:
        weights = [1.0] * len(weights)
    # the given column sums take a share of the total, all of it when every one is given
    share = 1.0 if all(known) else draw(st.floats(0.0, 1.0))
    col_sums = iter([x * s * share / sum(weights) for x in weights])
    cols = [next(col_sums) if k else None for k in known]
    return make_spec(n, m, row=("equal", u), col=("equal", cols))


@st.composite
def row_bounds(draw):
    n, m = draw(SIZE), draw(SIZE)
    return make_spec(n, m, row=("upper", draw(values(n, partial=True))))


@st.composite
def total_row_bounds(draw):
    n, m = draw(SIZE), draw(SIZE)
    u = draw(values(n, partial=True))
    s = finite_sum(u) * draw(st.floats(0.0, 1.0))
    return make_spec(n, m, row=("upper", u), total=("equal", s))


@st.composite
def bounded_total_row_bounds(draw):
    n, m = draw(SIZE), draw(SIZE)
    u = draw(values(n, partial=True))
    ubar = finite_sum(u) * draw(st.floats(0.0, 2.0))
    return make_spec(n, m, row=("upper", u), total=("upper", ubar))


@st.composite
def row_col_bounds(draw):
    n, m = draw(SIZE), draw(SIZE)
    u, v = draw(values(n, partial=True)), draw(values(m, partial=True))
    if draw(st.booleans()) and finite_sum(v) > 0:  # equal totals: the gravity branch
        v = [None if x is None else x * finite_sum(u) / finite_sum(v) for x in v]
    return make_spec(n, m, row=("upper", u), col=("upper", v))


@st.composite
def orientable_specs(draw):
    spec = draw(st.one_of(gravity(), row_bounds(), total_row_bounds(),
                          bounded_total_row_bounds(), row_col_bounds()))
    return transpose(spec) if draw(st.booleans()) else spec


def outcome(fn, spec):
    """``fn(spec)``, or the type of the library error it raises."""
    try:
        return fn(spec)
    except LikelymatError as e:
        return type(e)


def assert_close(a, b):
    """Equal to 1e-12 relative, elementwise (both None, or both arrays)."""
    assert (a is None) == (b is None)
    if a is not None:
        assert a.shape == b.shape
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(a), np.abs(b)))


@given(orientable_specs())
def test_transpose_classifies_alike(spec):
    assert outcome(classify, transpose(spec)) == outcome(classify, spec)


@given(orientable_specs())
def test_transpose_solves_to_the_transposed_solution(spec):
    sol, twin = outcome(solve, spec), outcome(solve, transpose(spec))
    if not isinstance(sol, Solution):
        assert twin == sol
        return
    want = sol.transposed()
    assert (twin.case, twin.k) == (want.case, want.k)
    assert twin.total == pytest.approx(want.total, rel=1e-12, abs=0.0)
    assert_close(twin.matrix, want.matrix)
    assert twin.matrix.flags.c_contiguous
    if len(spec.row_sums) or len(spec.col_sums):
        assert_close(twin.row_multipliers, want.row_multipliers)
        assert_close(twin.col_multipliers, want.col_multipliers)
    else:  # a total alone has no orientation: unit factors on the rows, either way
        for s in (sol, twin):
            assert np.all(s.row_multipliers == 1.0) and s.col_multipliers is None


@given(orientable_specs())
def test_a_spec_and_its_transpose_are_not_both_column_form(spec):
    spec = validate_spec(spec)
    assert not (is_column_form(spec) and is_column_form(transpose(spec)))
    assert transpose(transpose(spec)) == spec


def test_column_bounds_with_element_caps_stay_unsupported():
    spec = make_spec(3, 2, col=("upper", [4.0, 5.0]), elements=[(0, 1, 1.0)])
    assert classify(spec) is SolverCase.UNSUPPORTED
    assert classify(transpose(spec)) is SolverCase.ROW_BOUNDS_ELEM_BOUNDS


@pytest.mark.parametrize("case", list(CASE_GENERATORS), ids=lambda c: c.value)
def test_every_solution_matrix_is_c_contiguous(case, rng):
    for _ in range(20):
        spec = CASE_GENERATORS[case](rng)
        orientable = not (spec.symmetric or spec.element_caps[2].size)
        for s in [spec, transpose(spec)] if orientable else [spec]:
            sol = solve(s)
            if isinstance(sol, Solution):
                assert sol.matrix.flags.c_contiguous
