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

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSum, InvariantViolation, NegativeValue

__all__ = [
    "BoundedVectorProblem",
    "WaterfillResult",
    "find_k_vector",
    "waterfill_equal_sum",
    "waterfill_bounded_sum",
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


def find_k_vector(a: float, b_sorted) -> int:
    """Largest k in {0..n} with b_1+..+b_k + (n-k)*b_k <= a.

    ``b_sorted`` must be ascending.  The slack phi(j) = a - (b_1+..+b_j)
    - (n-j)*b_j is monotone nonincreasing in j, so a linear scan suffices.
    """
    b = np.asarray(b_sorted, dtype=float)
    n = b.size
    total = float(b.sum())
    if a > total and not a <= total * (1 + 1e-9):
        raise InfeasibleSum(f"target {a} exceeds the bound total {total}")
    a = min(a, total)

    k = 0
    prefix = 0.0
    prev_phi = a  # phi(0) = a with the b_0 = 0 convention
    for j in range(1, n + 1):
        bj = float(b[j - 1])
        if math.isinf(bj):
            break  # an unbounded coordinate can never saturate, nor can later ones
        prefix += bj
        phi = a - prefix - (n - j) * bj
        if not phi <= prev_phi + 1e-12 * max(1.0, abs(a)):
            raise InvariantViolation("slack must be nonincreasing")
        prev_phi = phi
        if phi >= 0:
            k = j
    return k


def waterfill_equal_sum(p: BoundedVectorProblem) -> WaterfillResult:
    """Entropy-maximal x with sum(x) = a and 0 <= x_i <= b_i."""
    b = np.asarray(p.b, dtype=float)
    n = b.size
    a = p.a
    if not math.isfinite(a):
        raise InfeasibleSum("equal-sum target must be finite")
    total = float(b.sum())
    if a > total and not a <= total * (1 + 1e-9):
        raise InfeasibleSum(f"target {a} exceeds the bound total {total}")
    a = min(a, total)

    order = np.argsort(b, kind="stable")
    bs = b[order]
    if a == 0.0:
        return WaterfillResult(np.zeros(n), 0, 0.0, tuple(int(i) for i in order))

    k = find_k_vector(a, bs)
    xs = np.empty(n)
    xs[:k] = bs[:k]
    if k < n:
        mu = (a - float(bs[:k].sum())) / (n - k)
        xs[k:] = mu
    else:
        mu = 0.0
    x = np.empty(n)
    x[order] = xs
    return WaterfillResult(x, k, mu, tuple(int(i) for i in order))


def waterfill_bounded_sum(p: BoundedVectorProblem) -> WaterfillResult:
    """Most-likely x with sum(x) <= a and 0 <= x_i <= b_i.

    When the bounds cannot absorb a, every coordinate saturates; otherwise
    the sum constraint binds and the equal-sum solution applies.
    """
    b = np.asarray(p.b, dtype=float)
    total = float(b.sum())
    if p.a > total:
        order = np.argsort(b, kind="stable")
        return WaterfillResult(b.copy(), b.size, 0.0, tuple(int(i) for i in order))
    return waterfill_equal_sum(p)
