"""Shared builders and random-instance generators for the test suite."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from likelymat import (
    ElementBound,
    FixedBlock,
    MarginalConstraint,
    ProblemSpec,
    Shape,
    SolverCase,
    TotalConstraint,
)


def make_spec(
    rows,
    cols,
    row=None,
    col=None,
    total=None,
    elements=(),
    blocks=(),
    symmetric=False,
    slices=None,
):
    """Compact spec builder.

    ``row``/``col`` are (kind, values) with None entries skipped; ``total``
    is (kind, value); ``elements`` is an iterable of (i, j, ub) triples.
    For 3-D specs, ``row`` values are an n x K nested list.
    """
    marginals = []
    for axis, data in (("row", row), ("col", col)):
        if data is None:
            continue
        kind, values = data
        if slices is not None:
            for i, per_slice in enumerate(values):
                for k, v in enumerate(per_slice):
                    if v is not None:
                        marginals.append(MarginalConstraint(axis, i, kind, float(v), k))
        else:
            for i, v in enumerate(values):
                if v is not None:
                    marginals.append(MarginalConstraint(axis, i, kind, float(v)))
    return ProblemSpec(
        shape=Shape(rows, cols, slices),
        marginals=tuple(marginals),
        total=TotalConstraint(*total) if total else None,
        element_bounds=tuple(ElementBound(*e) for e in elements),
        fixed_blocks=tuple(blocks),
        symmetric=symmetric,
    )


def zero_diagonal_blocks(n):
    return tuple(FixedBlock((i,), ((0.0,),)) for i in range(n))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(autouse=True)
def int_digit_limit():
    """``cli.main`` lifts the int-to-str digit limit; keep that out of other tests."""
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    yield
    if old is not None:
        sys.set_int_max_str_digits(old)


# ----------------------------------------------------------------------
# Random feasible instances, one generator per closed-form case
# ----------------------------------------------------------------------


def _ratios_below_third(rng, n, sigma=1.0, cap=0.32):
    """n positive ratios summing to sigma, each below cap * sigma."""
    while True:
        r = rng.uniform(0.4, 1.0, n)
        r = r / r.sum() * sigma
        if r.max() < cap * sigma:
            return r


def random_gravity(rng):
    n = int(rng.integers(2, 7))
    m = int(rng.integers(2, 7))
    ell = int(rng.integers(0, m + 1))
    u = rng.uniform(0.5, 4.0, n)
    s = float(u.sum())
    if ell == m:
        v = rng.uniform(0.5, 4.0, m)
        v = v / v.sum() * s
    else:
        v = rng.uniform(0.5, 4.0, ell)
        if ell:
            v = v / v.sum() * s * float(rng.uniform(0.2, 0.9))
    cols = sorted(rng.choice(m, size=ell, replace=False).tolist())
    vals = [None] * m
    for j, idx in enumerate(cols):
        vals[idx] = float(v[j])
    if rng.uniform() < 0.25:
        # transposed flavor: every column sum known, some row sums
        return make_spec(
            m, n, row=("equal", vals) if ell else None, col=("equal", u.tolist())
        )
    return make_spec(n, m, row=("equal", u.tolist()), col=("equal", vals) if ell else None)


def random_row_bounds(rng):
    n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    u = rng.uniform(0.5, 4.0, n)
    return make_spec(n, m, row=("upper", u.tolist()))


def random_total_row_bounds(rng):
    n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    u = rng.uniform(0.5, 4.0, n)
    s = float(u.sum()) * float(rng.uniform(0.3, 1.0))
    return make_spec(n, m, row=("upper", u.tolist()), total=("equal", s))


def random_bounded_total(rng):
    n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    u = rng.uniform(0.5, 4.0, n)
    ubar = float(u.sum()) * float(rng.uniform(0.3, 1.3))
    return make_spec(n, m, row=("upper", u.tolist()), total=("upper", ubar))


def random_row_col_bounds(rng):
    n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    u = rng.uniform(0.5, 4.0, n)
    v = [
        None if rng.uniform() < 0.15 else float(rng.uniform(0.5, 4.0))
        for _ in range(m)
    ]
    return make_spec(n, m, row=("upper", u.tolist()), col=("upper", v))


def random_row_elem(rng):
    n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    u = rng.uniform(1.0, 4.0, n)
    elements = []
    for i in range(n):
        for j in range(m):
            if rng.uniform() < 0.85:
                elements.append((i, j, float(rng.uniform(0.3, 2.0))))
    return make_spec(n, m, row=("upper", u.tolist()), elements=elements)


def random_sym_total(rng):
    n = int(rng.integers(2, 7))
    u = rng.uniform(0.5, 4.0, n)
    s = float(u.sum()) * float(rng.uniform(0.3, 1.0))
    return make_spec(n, n, row=("upper", u.tolist()), total=("equal", s), symmetric=True)


def random_sym_fixed_diagonal(rng, kind=None):
    if kind is None:
        kind = "upper" if rng.uniform() < 0.3 else "equal"
    n = int(rng.integers(4, 7))
    full = rng.uniform() < 0.5
    m_fixed = n if full else int(rng.integers(1, n))
    s = float(rng.uniform(5.0, 50.0))
    if full and rng.uniform() < 0.5:
        w = rng.uniform(0.0, 0.04, n) * s
        sigma = 1.0 - float(w.sum()) / s
        r = _ratios_below_third(rng, n, sigma)
        u = r * s + w
        blocks = tuple(FixedBlock((i,), ((float(w[i]),),)) for i in range(n))
    else:
        r = _ratios_below_third(rng, n)
        u = r * s
        blocks = tuple(FixedBlock((i,), ((0.0,),)) for i in range(m_fixed))
    return make_spec(n, n, row=(kind, u.tolist()), blocks=blocks, symmetric=True)


def random_sym_blocks(rng, kind=None):
    if kind is None:
        kind = "upper" if rng.uniform() < 0.3 else "equal"
    n = int(rng.integers(4, 7))
    m_blocks = int(rng.integers(3, min(4, n) + 1))
    nodes = rng.permutation(n).tolist()
    sizes = np.ones(m_blocks, dtype=int)
    for _ in range(n - m_blocks):
        sizes[int(rng.integers(0, m_blocks))] += 1
    index_sets, start = [], 0
    for size in sizes:
        index_sets.append(tuple(sorted(nodes[start : start + size])))
        start += size

    s = float(rng.uniform(10.0, 40.0))
    blocks = []
    w_row = np.zeros(n)
    for idx in index_sets:
        size = len(idx)
        W = rng.uniform(0.0, 0.02, (size, size)) * s
        W = (W + W.T) / 2.0
        blocks.append(FixedBlock(idx, tuple(tuple(float(v) for v in row) for row in W)))
        for a, i in enumerate(idx):
            w_row[i] += float(W[a].sum())
    sigma = 1.0 - float(w_row.sum()) / s

    # Three near-equal block ratios are the only solvable shape at
    # m_blocks = 3 ("each below a third of the sum" is unsatisfiable there),
    # so reject directly on root existence: the saturation function must be
    # negative at its branch point.
    while True:
        rb = rng.uniform(0.8, 1.0, m_blocks)
        rb = rb / rb.sum() * sigma
        r_top = float(rb.max())
        f_branch = sum(
            np.sqrt(max(0.0, 1.0 - v / r_top)) for v in rb
        ) - (m_blocks - 2)
        if f_branch < -0.02:
            break
    r_node = np.zeros(n)
    for j, idx in enumerate(index_sets):
        parts = rng.uniform(0.5, 1.0, len(idx))
        parts = parts / parts.sum() * rb[j]
        for a, i in enumerate(idx):
            r_node[i] = parts[a]
    u = r_node * s + w_row
    return make_spec(n, n, row=(kind, u.tolist()), blocks=tuple(blocks), symmetric=True)


def random_sym_3d(rng):
    n = int(rng.integers(4, 6))
    K = int(rng.integers(1, 4))
    u = np.empty((n, K))
    for k in range(K):
        scale = float(rng.uniform(3.0, 20.0))
        u[:, k] = _ratios_below_third(rng, n) * scale
    return make_spec(
        n, n, row=("equal", u.tolist()), symmetric=True, slices=K,
        blocks=zero_diagonal_blocks(n),
    )


CASE_GENERATORS = {
    SolverCase.GRAVITY_PARTIAL_COLS: random_gravity,
    SolverCase.ROW_BOUNDS: random_row_bounds,
    SolverCase.TOTAL_ROW_BOUNDS: random_total_row_bounds,
    SolverCase.BOUNDED_TOTAL_ROW_BOUNDS: random_bounded_total,
    SolverCase.ROW_COL_BOUNDS: random_row_col_bounds,
    SolverCase.ROW_BOUNDS_ELEM_BOUNDS: random_row_elem,
    SolverCase.SYM_TOTAL_ROW_COL_BOUNDS: random_sym_total,
    SolverCase.SYM_FIXED_DIAGONAL: random_sym_fixed_diagonal,
    SolverCase.SYM_BLOCK_DIAGONAL: random_sym_blocks,
    SolverCase.SYM_3D_FIXED_DIAGONAL: random_sym_3d,
}
