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
    return R.astype(object)


def exact_realizations(X) -> ExactCount:
    """Exact multinomial count s!/prod(x!) for an integer matrix."""
    flat = [int(v) for v in _as_int_matrix(X).ravel()]
    running = 0
    out = 1
    for v in flat:
        running += v
        out *= math.comb(running, v)
    return ExactCount(out)


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
    """log10 of s!/prod(x!), valid for nonnegative real entries."""
    A = _as_matrix(X)
    with np.errstate(over="ignore"):  # a total past the float range is inf
        (ln_s,) = _ln_factorials([float(A.sum())])
    return LogCount((ln_s - _sum_ln_factorials(A)) / LN10)


def count_feasible_row_bounded(u, m: int, equality: bool) -> ExactCount:
    """Number of integer matrices with m columns and row sums fixed (or capped).

    Row i alone admits C(u_i + m - 1, m - 1) compositions when its sum must
    equal u_i, and C(u_i + m, m) when the sum may be anything up to u_i; rows
    are independent, so the counts multiply.
    """
    out = 1
    for ui in u:
        vi = int(round(float(ui)))
        if abs(vi - float(ui)) > 1e-9:
            raise NonIntegerEntry(f"row bound {ui} is not an integer")
        if vi < 0:
            raise NegativeEntry(f"row bound {ui} < 0")
        out *= math.comb(vi + m - 1, m - 1) if equality else math.comb(vi + m, m)
    return ExactCount(out)


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
    return log10r if log_domain else 10.0 ** log10r
