"""Generalized gamma / polygamma / zeta functions of the k- and p-k-families.

All values are computed through closed-form reductions to the classical
kernels (never by direct integration):

    Gamma_k(x)    = k^(x/k - 1) Gamma(x/k)
    pGamma_k(x)   = p^(x/k) / k * Gamma(x/k)
    psi_k^(m)(x)  = (-1)^(m+1) m! k^-(m+1) zeta_H(m+1, x/k)
    zeta_k(x)     = zeta(x/k)

The quadrature oracle module evaluates the defining integrals independently
and is the cross-check for every reduction here.

The zeta and derivative functions take an optional `kernels.KernelCache`;
a sweep passes one so that kernel values shared between its checks are
computed once.  Without it every call goes to the kernels directly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import kernels
from .policy import (
    DEFAULT_POLICY,
    AccuracyPolicy,
    ComputationOverflowError,
    DomainError,
    UnsupportedOrderError,
)

__all__ = [
    "EvalPoint",
    "k_gamma",
    "pk_gamma",
    "k_polygamma",
    "k_polygamma_magnitude_fractional",
    "k_zeta",
    "pk_zeta",
    "k_gamma_deriv",
    "pk_gamma_deriv",
]


@dataclass(frozen=True)
class EvalPoint:
    """Argument x > 0 with scale parameter k > 0 and optional p > 0."""

    x: float
    k: float
    p: float | None = None

    def __post_init__(self) -> None:
        for name in ("x", "k"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be a finite positive real, got {v!r}")
        if self.p is not None and not (math.isfinite(self.p) and self.p > 0):
            raise DomainError(f"p must be a finite positive real, got {self.p!r}")

    def require_p(self) -> float:
        if self.p is None:
            raise DomainError("this operation requires the p parameter")
        return self.p


#: Largest log value whose exp is finite in double precision.
_LOG_MAX = math.log(sys.float_info.max)


def _finite_or_overflow(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ComputationOverflowError(f"{what} overflows double precision")
    return value


def _exp_or_overflow(log_value: float, what: str, *what_args) -> float:
    # checked before exp, which would raise a bare OverflowError; `what` is
    # formatted with `what_args` only on failure, off the common path
    if not log_value <= _LOG_MAX:
        raise ComputationOverflowError(
            f"{what.format(*what_args)} overflows double precision"
        )
    return math.exp(log_value)


def _kernels(cache: kernels.KernelCache | None):
    """Where zeta values and derivative sequences come from."""
    return kernels if cache is None else cache


def k_gamma(pt: EvalPoint, policy: AccuracyPolicy = DEFAULT_POLICY) -> float:
    """Gamma_k(x) = k^(x/k - 1) Gamma(x/k)."""
    y = pt.x / pt.k
    log_value = (y - 1.0) * math.log(pt.k) + kernels.log_gamma(y, policy)
    return _exp_or_overflow(log_value, "Gamma_k({}; k={})", pt.x, pt.k)


def pk_gamma(pt: EvalPoint, policy: AccuracyPolicy = DEFAULT_POLICY) -> float:
    """pGamma_k(x) = p^(x/k) / k * Gamma(x/k)."""
    p = pt.require_p()
    y = pt.x / pt.k
    log_value = y * math.log(p) - math.log(pt.k) + kernels.log_gamma(y, policy)
    return _exp_or_overflow(log_value, "pGamma_k({}; k={}, p={})", pt.x, pt.k, p)


def k_polygamma(
    m: int,
    pt: EvalPoint,
    policy: AccuracyPolicy = DEFAULT_POLICY,
    cache: kernels.KernelCache | None = None,
) -> float:
    """psi_k^(m)(x) for m >= 1; sign is (-1)^(m+1).

    m = 0 is excluded: the defining series diverges there and none of the
    verified inequalities needs it.
    """
    if not isinstance(m, int) or m < 1:
        raise DomainError(f"k_polygamma order must be an integer >= 1, got {m!r}")
    if m > kernels.POLYGAMMA_MAX_ORDER:
        raise UnsupportedOrderError(
            f"order {m} exceeds supported cap {kernels.POLYGAMMA_MAX_ORDER}"
        )
    sign = 1.0 if m % 2 == 1 else -1.0
    scale = math.factorial(m) * pt.k ** (-(m + 1.0))
    return sign * scale * _kernels(cache).hurwitz_zeta(m + 1.0, pt.x / pt.k, policy)


def k_polygamma_magnitude_fractional(
    s: float,
    pt: EvalPoint,
    policy: AccuracyPolicy = DEFAULT_POLICY,
    cache: kernels.KernelCache | None = None,
) -> float:
    """|psi_k^(s)(x)| for real order s >= 1, via the integral definition.

    The defining integral int_0^inf t^s e^(-xt) / (1 - e^(-kt)) dt does not
    require s to be an integer; it equals Gamma(s+1) k^-(s+1) zeta_H(s+1, x/k).
    For integer s this agrees with |k_polygamma(s, pt)|.
    """
    if not (math.isfinite(s) and s >= 1.0):
        raise DomainError(f"fractional order must satisfy s >= 1, got {s!r}")
    log_scale = kernels.log_gamma(s + 1.0, policy) - (s + 1.0) * math.log(pt.k)
    scale = _exp_or_overflow(log_scale, "psi_k^({}) scale at k={}", s, pt.k)
    return scale * _kernels(cache).hurwitz_zeta(s + 1.0, pt.x / pt.k, policy)


def k_zeta(
    x: float,
    k: float,
    policy: AccuracyPolicy = DEFAULT_POLICY,
    cache: kernels.KernelCache | None = None,
) -> float:
    """zeta_k(x) = zeta(x/k), for x/k > 1."""
    if not (math.isfinite(k) and k > 0):
        raise DomainError(f"k must be a finite positive real, got {k!r}")
    if not (math.isfinite(x) and x / k > 1.0):
        raise DomainError(f"k_zeta requires x/k > 1, got x={x!r}, k={k!r}")
    return _kernels(cache).riemann_zeta(x / k, policy)


def pk_zeta(
    x: float,
    k: float,
    p: float,
    policy: AccuracyPolicy = DEFAULT_POLICY,
    cache: kernels.KernelCache | None = None,
) -> float:
    """pzeta_k(x) for x/k > 1 and p > 0.

    Substituting u = t^k / p in the defining integral shows the p-dependence
    cancels against pGamma_k, leaving zeta(x/k) for every p.  The oracle
    module validates this independence against the actual integral.
    """
    if not (math.isfinite(p) and p > 0):
        raise DomainError(f"p must be a finite positive real, got {p!r}")
    return k_zeta(x, k, policy, cache)


def _deriv_sum(n: int, y: float, c: float, log_prefactor: float, k: float,
               policy: AccuracyPolicy, cache: kernels.KernelCache | None) -> float:
    # Leibniz expansion of d^n/dx^n [e^(c x) Gamma(x/k)] times the prefactor:
    # sum_j C(n, j) c^(n-j) k^(-j) prefactor Gamma^(j)(x/k).
    gd = _kernels(cache).gamma_deriv_sequence(n, y, policy)
    prefactor = _exp_or_overflow(log_prefactor, "derivative prefactor")
    total = 0.0
    for j in range(n + 1):
        total += math.comb(n, j) * c ** (n - j) * k ** (-float(j)) * gd[j]
    return _finite_or_overflow(prefactor * total, f"derivative of order {n}")


def k_gamma_deriv(
    n: int,
    pt: EvalPoint,
    policy: AccuracyPolicy = DEFAULT_POLICY,
    cache: kernels.KernelCache | None = None,
) -> float:
    """Gamma_k^(n)(x): the n-th derivative of Gamma_k at x, n <= 8."""
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"derivative order must be a non-negative integer, got {n!r}")
    if n > kernels.GAMMA_DERIV_MAX_ORDER:
        raise UnsupportedOrderError(
            f"order {n} exceeds supported cap {kernels.GAMMA_DERIV_MAX_ORDER}"
        )
    y = pt.x / pt.k
    log_k = math.log(pt.k)
    return _deriv_sum(n, y, log_k / pt.k, (y - 1.0) * log_k, pt.k, policy, cache)


def pk_gamma_deriv(
    n: int,
    pt: EvalPoint,
    policy: AccuracyPolicy = DEFAULT_POLICY,
    cache: kernels.KernelCache | None = None,
) -> float:
    """pGamma_k^(n)(x): the n-th derivative of pGamma_k at x, n <= 8."""
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"derivative order must be a non-negative integer, got {n!r}")
    if n > kernels.GAMMA_DERIV_MAX_ORDER:
        raise UnsupportedOrderError(
            f"order {n} exceeds supported cap {kernels.GAMMA_DERIV_MAX_ORDER}"
        )
    p = pt.require_p()
    y = pt.x / pt.k
    return _deriv_sum(
        n, y, math.log(p) / pt.k, y * math.log(p) - math.log(pt.k), pt.k, policy, cache
    )
