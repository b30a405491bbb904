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
    "BoundedVectorProblem",
    "WaterfillResult",
    "find_k_vector",
    "waterfill_equal_sum",
    "waterfill_bounded_sum",
    "waterfill_rows",
]


@dataclass(frozen=True)
class BoundedVectorProblem:
    """Target sum ``a`` and per-coordinate upper bounds ``b`` (+inf allowed)."""

    a: float
    b: tuple[float, ...]

    def __post_init__(self):
        if not self.a >= 0:
            raise NegativeValue(f"target sum {self.a} < 0")
        if any(not v >= 0 for v in self.b):
            raise NegativeValue("upper bounds must be nonnegative")
        if len(self.b) == 0:
            raise InfeasibleSum("empty bound vector")


@dataclass(frozen=True)
class WaterfillResult:
    """Solution vector in input order plus saturation diagnostics.

    ``k`` entries sit at their bounds (the k smallest after sorting), the
    rest share the water level ``mu``.  ``permutation`` records the stable
    ascending sort applied internally.
    """

    x: np.ndarray
    k: int
    mu: float
    permutation: tuple[int, ...]


# The batched water-fill works through its rows in blocks of about this
# many cells, so that its sort and prefix temporaries stay small.
_BLOCK_CELLS = 1 << 16


def find_k_vector(a: float, b_sorted) -> int:
    """Largest k in {0..n} with b_1+..+b_k + (n-k)*b_k <= a.

    ``b_sorted`` must be ascending.  The slack phi(j) = a - (b_1+..+b_j)
    - (n-j)*b_j is monotone nonincreasing in j, so a linear scan suffices.
    """
    b = np.asarray(b_sorted, dtype=float)[None, :]
    return int(_find_k(_clamp_to_total(np.array([a], dtype=float), b.sum(axis=1)), b)[0])


def _find_k(a: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """:func:`find_k_vector` of each row of ``bs`` at its target ``a[i]``.

    The prefix sums are a running ``np.cumsum``, the same additions in the
    same order as a scalar scan, so every slack and every k is the scan's.
    An unbounded coordinate can never saturate, nor can any after it.  The
    targets must not exceed the bound totals: the caller decides saturation.
    """
    rows, n = bs.shape
    if n == 0:
        return np.zeros(rows, dtype=np.intp)
    live = np.logical_and.accumulate(np.isfinite(bs), axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        phi = a[:, None] - np.cumsum(bs, axis=1) - np.arange(n - 1, -1, -1) * bs
        prev = np.concatenate((a[:, None], phi[:, :-1]), axis=1)  # phi(0) = a
        rising = ~(phi <= prev + 1e-12 * np.maximum(1.0, np.abs(a))[:, None])
    if np.any(rising & live):
        raise InvariantViolation("slack must be nonincreasing")
    hit = (phi >= 0) & live
    return np.where(hit.any(axis=1), n - np.argmax(hit[:, ::-1], axis=1), 0)


def _clamp_to_total(a: np.ndarray, total: np.ndarray) -> np.ndarray:
    """min(a, total) per row, after rejecting a target above its bound total."""
    over = (a > total) & ~(a <= total * (1 + 1e-9))
    if over.any():
        i = int(np.argmax(over))
        raise InfeasibleSum(f"target {float(a[i])} exceeds the bound total {float(total[i])}")
    return np.minimum(a, total)


def _equal_sum_rows(a, B, order):
    """Equal-sum water-fill of each row of ``B`` (sorted by ``order``) at a
    finite ``a[i]`` below its row's bound total.

    Returns the rows in input order, each row's k and each row's level mu.
    """
    rows, n = B.shape
    x = np.zeros((rows, n))
    k = np.zeros(rows, dtype=np.intp)
    mu = np.zeros(rows)
    live = np.flatnonzero(a != 0.0)  # a zero target leaves its row at zero
    if live.size == 0:
        return x, k, mu
    a, bs, order = a[live], np.take_along_axis(B[live], order[live], axis=1), order[live]
    k_live = _find_k(a, bs)
    mu_live = np.zeros(live.size)
    for kv in np.unique(k_live[k_live < n]).tolist():
        at = np.flatnonzero(k_live == kv)
        # pairwise sum of each row's k smallest bounds, as the one-row case takes it
        mu_live[at] = (a[at] - bs[at, :kv].sum(axis=1)) / (n - kv)
    xs = np.where(np.arange(n) < k_live[:, None], bs, mu_live[:, None])
    x_live = np.empty_like(xs)
    np.put_along_axis(x_live, order, xs, axis=1)
    x[live], k[live], mu[live] = x_live, k_live, mu_live
    return x, k, mu


def waterfill_rows(a, B) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bounded-sum water-fill of every row of ``B`` at its own target ``a[i]``.

    Row i is the result of :func:`waterfill_bounded_sum` on ``a[i]`` and
    ``B[i]``, bit for bit.  Returns the (rows, m) solution in input order,
    each row's k, its level mu, and its stable ascending sort.  Targets and
    bounds must already be valid (nonnegative, no NaN).
    """
    a = np.asarray(a, dtype=float)
    B = np.ascontiguousarray(B, dtype=float)
    rows, n = B.shape
    x = np.empty((rows, n))
    k = np.empty(rows, dtype=np.intp)
    mu = np.empty(rows)
    order = np.empty((rows, n), dtype=np.intp)
    step = max(1, _BLOCK_CELLS // max(n, 1))
    for lo in range(0, rows, step):
        rs = slice(lo, lo + step)
        Bb = B[rs]
        total = Bb.sum(axis=1)
        order[rs] = np.argsort(Bb, axis=1, kind="stable")
        # A target at or above its bound total saturates every bound, decided
        # here once: the k-search never meets a target that its sorted prefix
        # sums could round past.  Below it the equal-sum solution applies.
        full = a[rs] >= total
        x[rs][full], k[rs][full], mu[rs][full] = Bb[full], n, 0.0
        part = ~full
        if part.any():
            x[rs][part], k[rs][part], mu[rs][part] = _equal_sum_rows(
                a[rs][part], Bb[part], order[rs][part]
            )
    return x, k, mu, order


def _one_row(x, k, mu, order) -> WaterfillResult:
    return WaterfillResult(x[0], int(k[0]), float(mu[0]), tuple(order[0].tolist()))


def waterfill_equal_sum(p: BoundedVectorProblem) -> WaterfillResult:
    """Entropy-maximal x with sum(x) = a and 0 <= x_i <= b_i: for a finite a
    within the bound total, the bounded-sum water-fill."""
    if not np.isfinite(p.a):
        raise InfeasibleSum("equal-sum target must be finite")
    _clamp_to_total(np.array([p.a]), np.sum([p.b], axis=1))  # rejects a above it
    return waterfill_bounded_sum(p)


def waterfill_bounded_sum(p: BoundedVectorProblem) -> WaterfillResult:
    """Most-likely x with sum(x) <= a and 0 <= x_i <= b_i.

    When the bounds cannot absorb a, every coordinate saturates; otherwise
    the sum constraint binds and the equal-sum solution applies.
    """
    return _one_row(*waterfill_rows([p.a], [p.b]))
