"""Permutation equivariance and power-of-two homogeneity of the row and
column cases and of the symmetric total.

Hypothesis draws small specs of gravity (every row sum known, some column
sums), of row bounds under a known or bounded total, of row bounds with
element caps, of row and column bounds and of symmetric row bounds under a
known total, with ties, zeros and absent bounds, and a permutation of the
rows and one of the columns (the same one for a symmetric spec).  An absent
row bound leaves its row free to take any mass, so a known total may lie
above the stated bounds.  Relabelling the rows and columns of a spec must
relabel its solution: the same entries to 1e-12 relative, the same k, or
the same error.  Scaling every sum, bound, cap and total by 2^e must scale
the solution by 2^e, bit for bit.
"""

import numpy as np
from hypothesis import example, given, strategies as st

from likelymat import LikelymatError, Solution, solve
from conftest import make_spec

SIZE = st.integers(1, 6)
VALUE = st.just(0.0) | st.sampled_from([1.0, 2.5]) | st.floats(1e-3, 1e3)


def values(k):
    return st.lists(VALUE | st.none(), min_size=k, max_size=k)


@st.composite
def row_elem_bounds(draw):
    n, m = draw(SIZE), draw(SIZE)
    caps = draw(st.lists(VALUE | st.none(), min_size=n * m, max_size=n * m))
    elements = [(i, j, c) for (i, j), c in zip(np.ndindex(n, m), caps) if c is not None]
    if not elements:
        elements = [(0, 0, 1.0)]
    return n, m, dict(row=("upper", draw(values(n))), elements=elements)


@st.composite
def row_col_bounds(draw):
    n, m = draw(SIZE), draw(SIZE)
    u, v = draw(values(n)), draw(values(m))
    total_u, total_v = (sum(x for x in w if x is not None) for w in (u, v))
    if draw(st.booleans()) and total_v > 0:  # equal totals: both sides saturate
        v = [None if x is None else x * total_u / total_v for x in v]
    return n, m, dict(row=("upper", u), col=("upper", v))


@st.composite
def gravity(draw):
    n, m = draw(SIZE), draw(SIZE)
    u, v = draw(st.lists(VALUE, min_size=n, max_size=n)), draw(values(m))
    total_u, total_v = sum(u), sum(x for x in v if x is not None)
    if total_v > 0:  # column sums within the row total, all of it when every one is known
        share = 1.0 if None not in v else draw(st.sampled_from([0.5, 1.0]))
        v = [None if x is None else x * share * total_u / total_v for x in v]
    return n, m, dict(row=("equal", u), col=("equal", v))


@st.composite
def row_bounds_total(draw):
    n, m = draw(SIZE), draw(SIZE)
    u = draw(values(n))
    scale = draw(st.sampled_from([2.0, 1.0, 0.5]))
    if scale > 1.0:  # a total above the stated bounds, which an absent one makes feasible
        u[draw(st.integers(0, n - 1))] = None
    total = scale * sum(x for x in u if x is not None) or draw(VALUE)
    return n, m, dict(row=("upper", u), total=(draw(st.sampled_from(["equal", "upper"])), total))


@st.composite
def sym_total(draw):
    n = draw(SIZE)
    u = draw(values(n))
    total = draw(st.sampled_from([1.0, 0.5, 2.0])) * sum(x for x in u if x is not None)
    return n, n, dict(row=("upper", u), total=("equal", total or draw(VALUE)), symmetric=True)


PROBLEMS = gravity() | row_bounds_total() | row_elem_bounds() | row_col_bounds() | sym_total()
POWER = st.integers(-40, 40) | st.sampled_from([-1000, 1000])


def relabelled(n, m, kw, p, q):
    """The spec whose row p[i] and column q[j] are row i and column j of kw's."""
    out = dict(kw)
    for key, perm in (("row", p), ("col", q)):
        if key in kw:
            kind, vals = kw[key]
            moved = [None] * len(vals)
            for i, x in enumerate(vals):
                moved[perm[i]] = x
            out[key] = (kind, moved)
    if "elements" in kw:
        out["elements"] = [(int(p[i]), int(q[j]), c) for i, j, c in kw["elements"]]
    return make_spec(n, m, **out)


def outcome(spec):
    try:
        return solve(spec)
    except LikelymatError as e:
        return type(e)


@given(PROBLEMS, st.randoms(use_true_random=False))
def test_relabelled_spec_relabels_the_solution(problem, random):
    n, m, kw = problem
    rng = np.random.default_rng(random.getrandbits(32))
    p, q = rng.permutation(n), rng.permutation(m)
    if kw.get("symmetric"):
        q = p
    sol = outcome(make_spec(n, m, **kw))
    twin = outcome(relabelled(n, m, kw, p, q))
    if not isinstance(sol, Solution):
        assert twin == sol
        return
    assert (twin.case, twin.k) == (sol.case, sol.k)
    want = np.empty_like(sol.matrix)
    want[np.ix_(p, q)] = sol.matrix
    assert np.all(np.abs(twin.matrix - want) <= 1e-12 * np.maximum(np.abs(twin.matrix),
                                                                   np.abs(want)))


def scaled(kw, c):
    """The spec arguments with every sum, bound, cap and total multiplied by c."""
    out = dict(kw)
    for key in ("row", "col"):
        if key in kw:
            kind, vals = kw[key]
            out[key] = (kind, [None if x is None else x * c for x in vals])
    if "total" in kw:
        out["total"] = (kw["total"][0], kw["total"][1] * c)
    if "elements" in kw:
        out["elements"] = [(i, j, ub * c) for i, j, ub in kw["elements"]]
    return out


@given(PROBLEMS, POWER)
# a known row sum over zero caps: refused as infeasible at 1e-10 as at 2^30 times it
@example((1, 2, dict(row=("equal", [1e-10]), elements=[(0, 0, 0.0), (0, 1, 0.0)])), 30)
def test_power_of_two_scales_the_solution(problem, e):
    n, m, kw = problem
    sol = outcome(make_spec(n, m, **kw))
    twin = outcome(make_spec(n, m, **scaled(kw, 2.0**e)))
    if not isinstance(sol, Solution):
        assert twin == sol
        return
    assert (twin.case, twin.k) == (sol.case, sol.k)
    assert twin.matrix.tobytes() == (sol.matrix * 2.0**e).tobytes()
