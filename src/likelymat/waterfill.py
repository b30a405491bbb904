"""Water-filling solvers for bounded-sum vectors.

The core subproblem behind several matrix cases: distribute a sum ``a`` over
coordinates with upper bounds ``b_1..b_n`` so that entropy is maximal.  The
solution clips the k tightest bounds and levels everything else:

    sort b ascending; take the largest k with b_1+..+b_k + (n-k)*b_k <= a;
    then x_i = b_i for i <= k and x_i = (a - b_1 - .. - b_k)/(n - k) above.

``k`` counts the informative bounds: the ones tight enough to break the
uniform split that the sum constraint alone would give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSum, InvariantViolation, NegativeValue

__all__ = [
    "WaterfillResult",
    "waterfill_bounded_sum",
    "waterfill_rows",
]


@dataclass(frozen=True)
class WaterfillResult:
    """Solution vector in input order plus saturation diagnostics.

    ``k`` entries sit at their bounds (the k smallest after sorting), the
    rest share the water level ``mu``.  ``permutation`` is the stable
    ascending order of the bounds.
    """

    x: np.ndarray
    k: int
    mu: float
    permutation: tuple[int, ...]


# The batched water-fill works through its rows in blocks of about this
# many cells, so that its sort and prefix temporaries stay small.
_BLOCK_CELLS = 1 << 16


def _find_k(a: np.ndarray, bs: np.ndarray, n: int) -> np.ndarray:
    """Largest k in {0..n} with b_1+..+b_k + (n-k)*b_k <= a[i], per row.

    Each row of ``bs`` holds, ascending, the smallest bounds of a row of
    ``n`` coordinates, so the j-th has coefficient n - j whatever the width
    of ``bs``.  The slack phi(j) = a - (b_1+..+b_j) - (n-j)*b_j is
    nonincreasing in j, so a scan suffices, and a rise raises
    :class:`InvariantViolation`.  The prefix sums are a running
    ``np.cumsum``, the same additions in the same order as a scalar scan, so
    every slack and every k is the scan's.  An unbounded coordinate can
    never saturate, nor can any after it.  The targets must not exceed the
    bound totals: the caller decides saturation.
    """
    rows, w = bs.shape
    if w == 0:
        return np.zeros(rows, dtype=np.intp)
    live = np.logical_and.accumulate(np.isfinite(bs), axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        phi = a[:, None] - np.cumsum(bs, axis=1) - np.arange(n - 1, n - 1 - w, -1) * bs
        prev = np.concatenate((a[:, None], phi[:, :-1]), axis=1)  # phi(0) = a
        rising = ~(phi <= prev + 1e-12 * np.maximum(1.0, np.abs(a))[:, None])
    if np.any(rising & live):
        raise InvariantViolation("slack must be nonincreasing")
    hit = (phi >= 0) & live
    return np.where(hit.any(axis=1), w - np.argmax(hit[:, ::-1], axis=1), 0)


def _levels(a, bs, total, n):
    """Each row's k, its level mu and whether it saturates, for rows of
    ``n`` coordinates at targets ``a``, whose finite bounds sorted ascending
    are ``bs`` (padded with +inf) and whose bound totals are ``total``."""
    # A target at or above its bound total saturates every bound, decided
    # here once: the k-search never meets a target that its sorted prefix
    # sums could round past.  Below it the equal-sum solution applies.
    full = a >= total
    k = np.where(full, n, 0)
    mu = np.zeros(a.size)
    live = np.flatnonzero(~full & (a != 0.0))  # a zero target leaves its row at zero
    if live.size:
        a, bs = a[live], bs[live]
        k_live = _find_k(a, bs, n)
        k[live] = k_live
        for kv in sorted(set(k_live[k_live < n].tolist())):
            at = np.flatnonzero(k_live == kv)
            # pairwise sum of each row's k smallest bounds, as the one-row case takes it
            mu[live[at]] = (a[at] - bs[at, :kv].sum(axis=1)) / (n - kv)
    return k, mu, full


def waterfill_rows(a, caps, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bounded-sum water-fill of every row of n coordinates at its own target.

    ``caps`` holds arrays of rows, columns and bounds, each cell at most
    once; a cell without a finite bound is unbounded.  Row i is the result
    of :func:`waterfill_bounded_sum` on ``a[i]`` and that row's bounds, bit
    for bit.  Only the finite bounds are sorted and scanned, since an
    unbounded coordinate never saturates, so the cost beyond writing the
    solution grows with their number.  Returns the (rows, n) solution in
    input order, each row's k and level mu, and ``ranked``: the columns of
    each row's finite bounds in stable ascending order of bound, row after
    row.  Targets and bounds must already be valid (nonnegative, no NaN).
    """
    a = np.asarray(a, dtype=float)
    rows = a.size
    i, j, ub = (np.asarray(v, dtype=t) for v, t in zip(caps, (np.intp, np.intp, float)))
    # the finite bounds, row-major, so that ties rank in column order
    finite = np.flatnonzero(np.isfinite(ub))
    cells = finite[np.lexsort((j[finite], i[finite]))]
    row_of, col_of, bounds = i[cells], j[cells], ub[cells]
    count = np.bincount(row_of, minlength=rows)
    start = np.cumsum(count) - count
    k = np.empty(rows, dtype=np.intp)
    mu = np.empty(rows)
    full = np.empty(rows, dtype=bool)
    ranked = np.empty(bounds.size, dtype=np.intp)
    ranked_bounds = np.empty(bounds.size)
    # Every row is padded to the widest row's count with +inf and taken in
    # blocks of about _BLOCK_CELLS cells.
    w = int(count.max()) if rows else 0
    step = max(1, _BLOCK_CELLS // max(w, 1))
    for lo in range(0, rows, step):
        rs = np.arange(lo, min(lo + step, rows))
        at = start[rs, None] + np.arange(w)  # the rows' bounds in ``bounds``
        pad = np.arange(w) >= count[rs, None]
        at[pad] = 0
        C = np.where(pad, np.inf, bounds[at])
        srt = np.argsort(C, axis=1, kind="stable")
        bs = np.take_along_axis(C, srt, axis=1)
        ranked[at[~pad]] = np.take_along_axis(col_of[at], srt, axis=1)[~pad]
        ranked_bounds[at[~pad]] = bs[~pad]
        # a row of n finite bounds is summed in column order, as a dense row
        # is; past the float range the sum is inf
        with np.errstate(over="ignore"):
            total = np.where(count[rs] == n, C.sum(axis=1), np.inf)
        k[rs], mu[rs], full[rs] = _levels(a[rs], bs, total, n)
    x = np.empty((rows, n))
    x[:] = mu[:, None]
    x[full] = np.inf  # a full row takes its bounds (k = n), +inf where it has none
    saturated = np.arange(bounds.size) - start[row_of] < k[row_of]
    x[row_of[saturated], ranked[saturated]] = ranked_bounds[saturated]
    return x, k, mu, ranked


def waterfill_bounded_sum(a: float, b) -> WaterfillResult:
    """Most-likely x with sum(x) <= a and 0 <= x_i <= b_i (+inf allowed).

    When the bounds cannot absorb a, every coordinate saturates; otherwise
    the sum constraint binds and the equal-sum solution applies: for a
    within the bound total, this is the entropy-maximal x with sum(x) = a.
    The permutation is the stable order of the finite bounds, then the
    unbounded coordinates in index order.
    """
    b = np.asarray(b, dtype=float)
    if not a >= 0:
        raise NegativeValue(f"target sum {a} < 0")
    if not np.all(b >= 0):
        raise NegativeValue("upper bounds must be nonnegative")
    if b.size == 0:
        raise InfeasibleSum("empty bound vector")
    cells = np.arange(b.size)
    x, k, mu, ranked = waterfill_rows([a], (np.zeros_like(cells), cells, b), b.size)
    permutation = ranked.tolist() + np.flatnonzero(~np.isfinite(b)).tolist()
    return WaterfillResult(x[0], int(k[0]), float(mu[0]), tuple(permutation))
