"""Solver output containers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .constraints import SolverCase

if TYPE_CHECKING:  # symmetric imports this module
    from .symmetric import RootProblem

__all__ = ["Solution", "TensorSolution"]


@dataclass(frozen=True)
class Solution:
    """Dense most-likely matrix plus diagnostics.

    ``k`` is the informative-constraint count where the case defines one.
    ``row_multipliers``/``col_multipliers`` are the per-constraint product
    factors in original index order (bound-type factors lie in (0, 1], with
    exactly the saturated constraints below 1).  ``lam``/``xi`` carry the
    saturation-equation root for the fixed-diagonal and block cases, and
    ``root`` the equation itself.  ``permutation`` records the ascending
    sort applied internally to the axis the case orders (rows for
    known-total water-filling, columns for two-sided bounds); the matrix
    itself is always in input order.
    """

    matrix: np.ndarray
    case: SolverCase
    total: float
    k: int | None = None
    row_multipliers: np.ndarray | None = None
    col_multipliers: np.ndarray | None = None
    lam: float | None = None
    xi: float | None = None
    permutation: tuple[int, ...] | None = None
    notes: tuple[str, ...] = ()
    root: RootProblem | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.matrix.shape


@dataclass(frozen=True)
class TensorSolution:
    """3-dimensional solution: one n x n symmetric sheet per slice."""

    values: np.ndarray  # shape (n, n, K)
    case: SolverCase
    total: float
    lam: tuple[float, ...] = ()
    xi: tuple[float, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def slice(self, k: int) -> np.ndarray:
        return self.values[:, :, k]
