"""Accuracy policy and error types shared by every numerical routine."""

from __future__ import annotations

from dataclasses import dataclass


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class UnsupportedOrderError(ValueError):
    """A derivative/polygamma order beyond the supported cap was requested."""


class ComputationOverflowError(OverflowError):
    """A result exceeds the representable double-precision range.

    Operations fail loudly instead of returning infinities: a silent inf
    would corrupt the sign of an inequality slack downstream.
    """


@dataclass(frozen=True)
class AccuracyPolicy:
    """Tolerances and work budgets governing every numerical routine.

    rel_tol / abs_tol apply to final values; max_series_terms bounds the
    direct-summation block in series kernels; max_subdivisions bounds the
    panel count of the adaptive quadrature oracle.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-300
    max_series_terms: int = 1_000_000
    max_subdivisions: int = 4000

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0):
            raise ValueError("rel_tol must be > 0")
        if not (self.abs_tol >= 0):
            raise ValueError("abs_tol must be >= 0")
        if self.max_series_terms < 1:
            raise ValueError("max_series_terms must be >= 1")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        # a sweep keys every cached kernel value with its policy: hash the
        # fields once here, not on each of its ~10^5 lookups
        object.__setattr__(self, "_hash", hash((
            self.rel_tol, self.abs_tol, self.max_series_terms, self.max_subdivisions
        )))

    def __hash__(self) -> int:
        return self._hash


DEFAULT_POLICY = AccuracyPolicy()

#: Looser default for the quadrature oracle: it only needs to certify
#: closed forms at the 1e-8 level, with margin to spare.
ORACLE_POLICY = AccuracyPolicy(rel_tol=1e-10, abs_tol=1e-300)
