"""Exception hierarchy for problem validation and solving."""

from __future__ import annotations

__all__ = [
    "LikelymatError",
    "SpecError",
    "NegativeValue",
    "IndexOutOfRange",
    "ShapeMismatch",
    "InfeasibleMarginals",
    "ConsistencyViolation",
    "InfeasibleSum",
    "BracketFailure",
    "InvariantViolation",
    "SeriesDomainError",
    "NegativeEntry",
    "NonIntegerEntry",
    "CountOverflow",
    "NotConverged",
    "Infeasible",
    "SearchSpaceTooLarge",
    "UnsupportedCase",
]


class LikelymatError(Exception):
    """Base class for all errors raised by this package."""


class SpecError(LikelymatError):
    """A problem description is structurally or numerically invalid."""


class NegativeValue(SpecError):
    """A sum, bound, or fixed value that must be nonnegative is negative."""


class IndexOutOfRange(SpecError):
    """A constraint references a row, column, or slice outside the shape."""


class ShapeMismatch(SpecError):
    """Dimensions, duplicate constraints, or structural fields disagree."""


class InfeasibleMarginals(SpecError):
    """The stated sums and bounds admit no nonnegative matrix."""


class ConsistencyViolation(SpecError):
    """A fixed block forces an unintended zero submatrix.

    Raised when some index set I has u_I >= u/2 + w_II/2, i.e. the traffic
    originating in I is not strictly less than half the total plus half of
    the traffic staying inside I.  ``violations`` lists every violated set
    of the slice that failed (slice 0 in 2-D), first violation first, as
    (slice, index set, outgoing, limit), the values inf past the float range.
    """

    def __init__(self, message: str, violations: tuple = ()):
        super().__init__(message)
        self.violations = violations


class InfeasibleSum(LikelymatError):
    """A vector target sum exceeds the sum of its upper bounds."""


class BracketFailure(LikelymatError):
    """No sign change found for the saturation-root equation."""


class InvariantViolation(LikelymatError):
    """A solver's internal invariant failed: a bug or floating-point breakdown.

    Examples: a bound-mode factor above 1, a non-unique informative count, or
    a water-filling slack that increases.
    """


class SeriesDomainError(LikelymatError):
    """A series expansion point lies outside the admissible interval."""


class NegativeEntry(LikelymatError):
    """A matrix passed to a counting routine has a negative entry."""


class NonIntegerEntry(LikelymatError):
    """Exact counting was asked of a matrix, or a row bound, that is not integer."""


class CountOverflow(LikelymatError):
    """A log-scale realization count needs a log-factorial past the float range."""


class NotConverged(LikelymatError):
    """The numerical optimizer failed to reach the requested residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class Infeasible(LikelymatError):
    """The numerical optimizer found the constraint set empty or unbounded."""


class SearchSpaceTooLarge(LikelymatError):
    """Brute-force enumeration would exceed the configured guard."""


class UnsupportedCase(LikelymatError):
    """The constraint pattern matches no closed-form case."""
