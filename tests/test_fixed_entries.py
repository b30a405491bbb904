"""Properties of the fixed-entry construction over index arrays.

Hypothesis draws node sums with fixed diagonals, fixed symmetric blocks (all
nodes covered or only some) and 3-D zero diagonals.  The cells are read as
index arrays, so a wrong index would show as a matrix that does not follow
its nodes: relabelling the nodes, listing the blocks in another order and
shuffling each block's index set must permute the matrix, every matrix must
be symmetric bit for bit, and a power-of-two rescaling of every sum and
fixed value must rescale the matrix bit for bit, past the float range too.
"""

import numpy as np
from hypothesis import assume, given, strategies as st

from likelymat import (
    FixedBlock,
    LikelymatError,
    solve_sym_3d_fixed_diagonal,
    solve_sym_block_diagonal,
)

SUM = st.floats(1.0, 1.5)
# 2**1022 takes every total here past the float range, and no entry
POWER = st.integers(-40, 40) | st.just(1022)


@st.composite
def block_problems(draw):
    """Node sums and disjoint fixed blocks over shuffled index sets.

    Blocks hold at most a sixth of the nodes and the sums lie within a
    factor 1.5 of each other, so no block reaches a third of the total and
    the saturation equation has its root.  Half the draws fix single nodes
    only: a fixed diagonal, of some nodes or all.
    """
    n = draw(st.integers(6, 18))
    nodes = draw(st.permutations(range(n)))
    covered = draw(st.integers(1, n))
    largest = 1 if draw(st.booleans()) else max(1, n // 6)
    u = np.array(draw(st.lists(SUM, min_size=n, max_size=n)))
    blocks, start = [], 0
    while start < covered:
        idx = nodes[start:start + min(covered - start, draw(st.integers(1, largest)))]
        start += len(idx)
        A = np.array(draw(st.lists(st.floats(0.0, 0.2), min_size=len(idx) ** 2,
                                   max_size=len(idx) ** 2))).reshape(len(idx), len(idx))
        W = (A + A.T) / 2.0  # symmetric bit for bit
        u[idx] += W.sum(axis=1)
        blocks.append(FixedBlock(tuple(idx), tuple(map(tuple, W.tolist()))))
    return u, blocks


@st.composite
def slice_sums(draw):
    n = draw(st.integers(4, 12))
    K = draw(st.integers(1, 3))
    u = np.array(draw(st.lists(SUM, min_size=n * K, max_size=n * K))).reshape(n, K)
    u[:, draw(st.lists(st.booleans(), min_size=K, max_size=K))] = 0.0  # slices with total 0
    return u


def total(u):
    with np.errstate(over="ignore"):  # past the float range at 2**1022
        return float(u.sum())


def solve_blocks(u, blocks):
    return solve_sym_block_diagonal(u, blocks, total(u)).matrix


def solvable(u, blocks):
    """The matrix of a drawn problem; the rare draw without a root is skipped."""
    try:
        return solve_blocks(u, blocks)
    except LikelymatError:
        assume(False)


def solve_3d(u):
    return solve_sym_3d_fixed_diagonal(u, total(u)).matrix


def relabelled(u, blocks, perm, order, rng):
    """The same problem with node i called perm[i], the blocks listed in
    ``order`` and each block's index set shuffled."""
    v = np.empty_like(u)
    v[perm] = u
    out = []
    for b in (blocks[i] for i in order):
        p = rng.permutation(len(b.index_set))
        W = np.array(b.matrix)[np.ix_(p, p)]
        out.append(FixedBlock(tuple(int(perm[b.index_set[a]]) for a in p),
                              tuple(map(tuple, W.tolist()))))
    return v, out


def assert_permuted(Y, X, perm):
    """Y[perm[i], perm[j]] is X[i, j] within 1e-12 relative."""
    P = np.empty_like(X)
    P[np.ix_(perm, perm)] = X
    assert np.all(np.abs(Y - P) <= 1e-12 * np.abs(P))


@given(block_problems(), st.randoms(use_true_random=False))
def test_relabelled_blocks_permute_the_symmetric_matrix(problem, random):
    u, blocks = problem
    rng = np.random.default_rng(random.getrandbits(32))
    perm = rng.permutation(u.size)
    v, shuffled = relabelled(u, blocks, perm, rng.permutation(len(blocks)), rng)
    X = solvable(u, blocks)
    assert X.tobytes() == X.T.copy().tobytes()
    assert_permuted(solve_blocks(v, shuffled), X, perm)


@given(slice_sums(), st.randoms(use_true_random=False))
def test_relabelled_slices_permute_the_symmetric_array(u, random):
    perm = np.random.default_rng(random.getrandbits(32)).permutation(u.shape[0])
    v = np.empty_like(u)
    v[perm] = u
    X, Y = solve_3d(u), solve_3d(v)
    assert X.tobytes() == X.transpose(1, 0, 2).copy().tobytes()
    for k in range(u.shape[1]):
        assert_permuted(Y[:, :, k], X[:, :, k], perm)


@given(block_problems(), POWER)
def test_power_of_two_scales_the_blocks(problem, e):
    u, blocks = problem
    scaled = [FixedBlock(b.index_set, tuple(tuple(v * 2.0**e for v in row) for row in b.matrix))
              for b in blocks]
    expected = solvable(u, blocks) * 2.0**e
    assert solve_blocks(u * 2.0**e, scaled).tobytes() == expected.tobytes()


@given(slice_sums(), POWER)
def test_power_of_two_scales_the_slices(u, e):
    assert solve_3d(u * 2.0**e).tobytes() == (solve_3d(u) * 2.0**e).tobytes()
