"""The oracle's accuracy policy, the absolute tolerance floor, and the error
types of every routine."""

from __future__ import annotations

import math
from dataclasses import dataclass


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class UnsupportedOrderError(DomainError):
    """A derivative/polygamma order beyond the supported cap was requested."""


class ComputationOverflowError(OverflowError):
    """A result exceeds the representable double-precision range.

    Operations fail loudly instead of returning infinities: a silent inf
    would corrupt the sign of an inequality slack downstream.
    """


#: Absolute floor under relative tolerances where a value can be at or near
#: zero: the Hurwitz remainder check and a relative discrepancy's
#: denominator.  It certifies no oracle value, which converges relative to
#: the integral's mass alone.
ABS_TOL = 1e-300


@dataclass(frozen=True)
class AccuracyPolicy:
    """Tolerance and work budget of the quadrature oracle.

    rel_tol, finite and positive, applies to final values;
    max_subdivisions, an integer >= 1, is the oracle's budget of integrand
    nodes per order: a halving of the step that would take an order's own
    nodes past it is not made for that order, and
    `QuadratureResult.subdivisions_used` counts the nodes evaluated, which
    the orders of one derivative call share.  The closed forms in `functions` take
    a policy too but compute to one fixed 2^-56 truncation: they accept any
    rel_tol at or above it and refuse a smaller one.
    """

    rel_tol: float = 1e-12
    max_subdivisions: int = 4000

    def __post_init__(self) -> None:
        # an infinite rel_tol would certify any value as converged
        if not 0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol!r}")
        n = self.max_subdivisions
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"max_subdivisions must be an integer >= 1, got {n!r}")


DEFAULT_POLICY = AccuracyPolicy()

#: Looser default for the quadrature oracle: it only needs to certify
#: closed forms at the 1e-8 level, with margin to spare.
ORACLE_POLICY = AccuracyPolicy(rel_tol=1e-10)
