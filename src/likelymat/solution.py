"""Solver output containers."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .constraints import SolverCase

if TYPE_CHECKING:  # symmetric imports this module
    from .symmetric import RootProblem

__all__ = ["Solution"]


@dataclass(frozen=True)
class Solution:
    """Dense most-likely matrix plus diagnostics.

    ``matrix`` is (n, m), or (n, n, K) for a 3-D problem: one symmetric
    sheet per slice.  ``k`` is the informative-constraint count where the
    case defines one.  ``row_multipliers``/``col_multipliers`` are the
    per-constraint product factors in original index order.  A bound's
    factor is its achieved sum over the largest on its side: 1 when slack,
    bound / level when saturated, 0 for a zero bound, b_i / max b when the
    side saturates throughout (so its largest bound gets 1).  ``lam``/``xi``
    carry the saturation-equation root for the fixed-entry cases, in 3-D a
    tuple of one per slice (NaN where a slice has none), and ``root`` the
    2-D equation itself.  ``permutation`` records the ascending
    sort of the water-filled axis; the matrix itself is always in input
    order, and C-contiguous, so that anything computed from it depends on
    its values alone.
    """

    matrix: np.ndarray
    case: SolverCase
    total: float
    k: int | None = None
    row_multipliers: np.ndarray | None = None
    col_multipliers: np.ndarray | None = None
    lam: float | tuple[float, ...] | None = None
    xi: float | tuple[float, ...] | None = None
    permutation: tuple[int, ...] | None = None
    notes: tuple[str, ...] = ()
    root: RootProblem | None = None

    def transposed(self) -> Solution:
        """The solution of the transposed problem: the matrix's first two axes
        swapped (as a C-contiguous copy) and the row and column multipliers
        swapped."""
        return replace(
            self,
            matrix=np.ascontiguousarray(np.swapaxes(self.matrix, 0, 1)),
            row_multipliers=self.col_multipliers,
            col_multipliers=self.row_multipliers,
        )
