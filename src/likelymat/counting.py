"""Exact and log-scale realization counting.

A matrix built from s indistinguishable-position placements of
distinguishable balls can be realized in s!/prod(x_ij!) ways.  These routines
compute that count exactly for integer matrices, in log10 via the gamma
function for real-valued ones (x! = Gamma(x+1)), and count how many integer
matrices satisfy row-sum constraints outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import CountOverflow, NegativeEntry, NonIntegerEntry

__all__ = [
    "ExactCount",
    "LogCount",
    "distinct_values",
    "exact_realizations",
    "log10_realizations",
    "count_feasible_row_bounded",
    "likelihood_ratio",
]

LN10 = math.log(10.0)
# An exact count past this many decimal digits raises CountOverflow before any
# big-integer work: math.comb(2x, x) near 60,000 digits takes about 0.5 s.
MAX_EXACT_DIGITS = 60_000


@dataclass(frozen=True)
class ExactCount:
    """Arbitrary-precision nonnegative integer count."""

    value: int

    def __int__(self) -> int:
        return self.value

    @property
    def log10(self) -> float:
        if self.value == 0:
            return -math.inf
        return math.log10(self.value)  # accepts ints past the float range


@dataclass(frozen=True)
class LogCount:
    """Realization count reported as log10."""

    log10: float

    def __float__(self) -> float:
        return self.log10


def _as_matrix(X) -> np.ndarray:
    A = np.asarray(X, dtype=float)
    if np.any(A < 0):
        raise NegativeEntry("matrix entries must be nonnegative")
    return A


def _as_int_matrix(X) -> np.ndarray:
    A = _as_matrix(X)
    R = np.rint(A)
    with np.errstate(invalid="ignore"):  # inf - inf: an infinite entry is no integer either
        off = np.argwhere(~(np.abs(A - R) <= 1e-9))
    if off.size:
        cell = tuple(off[0].tolist())
        raise NonIntegerEntry(f"exact counting needs integer entries; cell {cell} is {A[cell]}")
    return R


def _ln_rising(m: np.ndarray, k: np.ndarray) -> np.ndarray:
    """ln((m + 1)...(m + k)) of each pair, k > 0: lgamma's difference held
    between k ln(m + 1) and k ln(m + k), as it loses every digit once
    m >> k; past 2^53, k ln(m + 1)."""
    near = m < 2.0**53
    rise = np.full(k.size, np.nan)
    rise[near] = np.subtract(_ln_factorials((m[near] + k[near]).tolist()),
                             _ln_factorials(m[near].tolist()))
    return np.fmin(np.fmax(rise, k * np.log1p(m)), k * np.log(m + k))  # nan takes the lower


def _check_digits(a, b) -> None:
    """Raise :class:`CountOverflow` when the product of the binomials C(a + b, b)
    has more than ``MAX_EXACT_DIGITS`` digits: the sum of ln((m + 1)...(m + k))
    (:func:`_ln_rising`) minus ln k!, k = min(a, b) > 0 and m = max(a, b)."""
    k, m = np.minimum(a, b), np.maximum(a, b)
    k, m = k[k > 0], m[k > 0]  # C(m, 0) = 1
    digits = float(np.sum(_ln_rising(m, k) - _ln_factorials(k.tolist()))) / LN10
    if not digits <= MAX_EXACT_DIGITS:
        raise CountOverflow(f"the exact count has about {digits:.4g} digits, "
                            f"above {MAX_EXACT_DIGITS}; use the log10 count")


def exact_realizations(X) -> ExactCount:
    """Exact multinomial count s!/prod(x!) for an integer matrix, up to
    ``MAX_EXACT_DIGITS`` digits: the product over cells of C(running sum, x)."""
    a = _as_int_matrix(X).ravel()
    with np.errstate(over="ignore"):  # sums past the float range are inf, and raise
        _check_digits(np.concatenate([[0.0], np.cumsum(a)[:-1]]), a)  # the sum before each cell
    flat = [int(v) for v in a.tolist()]
    return ExactCount(math.prod(map(math.comb, accumulate(flat), flat)))


def distinct_values(X) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of a float array and, per cell, the index of its value.

    Values are told apart by bit pattern, so -0.0 and 0.0 stay distinct and
    ``u[inv]`` reproduces every cell of ``X.ravel()`` exactly.
    """
    A = np.ascontiguousarray(X, dtype=np.float64).ravel()
    bits, inv = np.unique(A.view(np.int64), return_inverse=True)
    return bits.view(np.float64), inv


def _ln_factorials(values) -> list[float]:
    """ln(x!) = lgamma(x + 1) of each value; a result past the float range
    raises :class:`CountOverflow`."""
    try:
        return [math.lgamma(v + 1.0) for v in values]
    except OverflowError as e:
        raise CountOverflow(f"log-factorial overflows a float ({e}); entries too large") from e


def _sum_ln_factorials(A: np.ndarray) -> float:
    """sum of ln(x!) over the cells of A, added in cell order.

    lgamma runs once per distinct value; the terms are then gathered back
    into cell order, so the sum is bit-identical to a per-cell loop.
    """
    u, inv = distinct_values(A)
    terms = np.array(_ln_factorials(u.tolist()))
    return sum(terms[inv].tolist())


def log10_realizations(X) -> LogCount:
    """log10 of s!/prod(x!), valid for nonnegative real entries.

    When ln s! is over 2^26 times the result, the difference has lost half
    its digits (one entry dwarfs the rest); the result is then
    ln((x_max + 1)...s) (:func:`_ln_rising`) minus the other cells' ln x!."""
    A = _as_matrix(X)
    with np.errstate(over="ignore"):  # a total past the float range is inf
        (ln_s,) = _ln_factorials([float(A.sum())])
    ln = ln_s - _sum_ln_factorials(A)
    if ln_s > 2.0**26 * abs(ln):
        flat = A.ravel()
        rest = np.delete(flat, np.argmax(flat))
        k = float(rest.sum())
        with np.errstate(over="ignore"):  # m + k past the float range is inf
            rise = float(_ln_rising(flat.max(keepdims=True), np.array([k]))[0]) if k > 0 else 0.0
        ln = rise - _sum_ln_factorials(rest)
    return LogCount(ln / LN10)


def count_feasible_row_bounded(u, m: int, equality: bool) -> ExactCount:
    """Number of integer matrices with m columns and row sums fixed (or capped).

    Row i alone admits C(u_i + m - 1, m - 1) compositions when its sum must
    equal u_i, and C(u_i + m, m) when the sum may be anything up to u_i; rows
    are independent, so the counts multiply, up to ``MAX_EXACT_DIGITS`` digits.
    """
    k = m - 1 if equality else m  # each row's count is C(u_i + k, k)
    rows = [int(round(float(ui))) for ui in u]
    for ui, vi in zip(u, rows):
        if abs(vi - float(ui)) > 1e-9:
            raise NonIntegerEntry(f"row bound {ui} is not an integer")
        if vi < 0:
            raise NegativeEntry(f"row bound {ui} < 0")
    _check_digits(np.array(rows, dtype=float), np.full(len(rows), float(k)))
    return ExactCount(math.prod(math.comb(vi + k, k) for vi in rows))


def likelihood_ratio(X1, X2, log_domain: bool = False) -> float:
    """Realization-count ratio #(X1)/#(X2).

    Computed in the log domain throughout; equal totals make the total-sum
    factorials cancel exactly.  With ``log_domain=True`` the log10 of the
    ratio is returned instead (the plain ratio can overflow a float).
    """
    A = _as_matrix(X1)
    B = _as_matrix(X2)
    ln_sa, ln_sb = _ln_factorials([float(A.sum()), float(B.sum())])
    log10r = (ln_sa - ln_sb - _sum_ln_factorials(A) + _sum_ln_factorials(B)) / LN10
    try:
        return log10r if log_domain else 10.0 ** log10r
    except OverflowError as e:
        raise CountOverflow(f"ratio 10^{log10r:.6g} overflows a float; use log_domain=True") from e
