"""Generalized gamma / polygamma / zeta functions of the k- and p-k-families.

All values are computed through closed-form reductions to the classical
kernels (never by direct integration):

    Gamma_k(x)    = k^(x/k - 1) Gamma(x/k)
    pGamma_k(x)   = p^(x/k) / k * Gamma(x/k)
    psi_k^(m)(x)  = (-1)^(m+1) m! k^-(m+1) zeta_H(m+1, x/k)
    zeta_k(x)     = zeta(x/k)

The derivatives of G = Gamma_k and G = pGamma_k share one form.  With
y = x/k and c = k for Gamma_k, c = p for pGamma_k, the x-derivatives of
ln G are k^-j kappa_j, where kappa_1 = ln c + psi(y) and
kappa_j = psi^(j-1)(y) for j >= 2.  Hence

    G^(n)(x) = G(x) k^-n B_n(kappa_1, ..., kappa_n)

with B_n the complete Bell polynomials (Comtet, Advanced Combinatorics,
1974), built by `kernels.bell_sequence`.  This replaces a Leibniz
expansion of e^(x ln c / k) Gamma(x/k), whose alternating terms grow like
|ln k / k|^n and cancelled to 3e-3 relative error at n = 8, k = 0.01.

The quadrature oracle module evaluates the defining integrals independently
and is the cross-check for every reduction here.

The point picks the family: below the public functions one path serves
both, reading G = Gamma_k at a point without p and G = pGamma_k at a point
with p, and the caches key on (x, k, p).  The k-family functions
(`k_gamma`, `k_gamma_deriv`) refuse a point that carries p with
`DomainError` naming their p-k counterpart, instead of dropping the p.

Every value is accurate to the kernels' one contract, a Hurwitz remainder
of at most 2^-56 of the value (`kernels.HURWITZ_REL_TOL`).  Each function
still takes an `AccuracyPolicy`, and checks it once: a rel_tol at or above
2^-56 is met as it stands, and a smaller one, which double precision cannot
deliver, raises `DomainError`.

Inside a `kernels.memoised()` block, as in every `verify` sweep, values
shared between calls are computed once, each into its own table of the
block's `KernelCache` by the one function that reads it: G(x) per point
by `_gamma`, which `_gamma_at` calls only for a value not yet there; the
vector D_0..8 per point by `_derivative_vector`, read by every order, and
once per sweep row by `_gamma_derivatives`, which takes all the orders a
Turán or midpoint check needs; psi_k^(m)(x) per
(m, x, k) by `k_polygamma`; |psi_k^(s)(x)| per (s, x, k) by
`k_polygamma_magnitude_fractional`; and zeta_H(s, a) by
`kernels.hurwitz_zeta`, from which `_zeta_at` reads zeta_k(x) =
zeta_H(x/k, 1), calling `k_zeta` only for a value not yet there.  A call
that raises stores nothing.  Outside a
block every value is computed afresh, and derivatives build B only up to
the largest order asked for.
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

    def require_no_p(self, name: str, counterpart: str) -> None:
        """Refuse p where `name` would drop it; `counterpart` takes it."""
        if self.p is not None:
            raise DomainError(
                f"{name} takes a point without p, got p={self.p!r}; "
                f"{counterpart} is the p-k family"
            )


#: Largest log value whose exp is finite in double precision.
_LOG_MAX = math.log(sys.float_info.max)

#: From this y = x/k on, ln Gamma_k and ln pGamma_k are summed from
#: Stirling's series.  At small k (or p), (y - 1) ln k and ln Gamma(y) are
#: far larger than their sum, and lgamma's rounding alone cost 1e-12
#: relative at k = 0.01, x = 6.8.
_STIRLING_Y = 100.0


def _exp_or_overflow(log_value: float, what: str, *what_args) -> float:
    # checked before exp, which would raise a bare OverflowError; `what` is
    # formatted with `what_args` only on failure, off the common path
    if not log_value <= _LOG_MAX:
        raise ComputationOverflowError(
            f"{what.format(*what_args)} overflows double precision"
        )
    return math.exp(log_value)


def _finite_or_overflow(value: float, what: str, *what_args) -> float:
    # a scale that overflowed is inf, and inf times a zeta value that
    # underflowed to 0 is NaN: both are overflow, never a silent result
    if not math.isfinite(value):
        raise ComputationOverflowError(
            f"{what.format(*what_args)} overflows double precision"
        )
    return value


def _check_policy(policy: AccuracyPolicy) -> None:
    """Refuse a tolerance finer than the kernels' fixed 2^-56 contract."""
    if policy.rel_tol < kernels.HURWITZ_REL_TOL:
        raise DomainError(
            f"closed forms are accurate to 2^-56 relative; rel_tol "
            f"{policy.rel_tol!r} is below it"
        )


def _log_gamma(pt: EvalPoint) -> float:
    # ln G(x): ln Gamma_k at a point without p, ln pGamma_k at one with p.
    # Each family keeps its own rounding of the prefactor, (y - 1) ln k and
    # y ln p - ln k; one y ln c - ln k would move the last bit of ln Gamma_k
    y = pt.x / pt.k
    k, p = pt.k, pt.p
    if y < _STIRLING_Y:
        log_scale = ((y - 1.0) * math.log(k) if p is None
                     else y * math.log(p) - math.log(k))
        return log_scale + kernels.log_gamma(y)
    # (y - 1) ln k + (y - 1/2) ln y = (y - 1) ln(k y) + (ln y)/2 with k y ~ x,
    # and y ln p + (y - 1/2) ln y = y ln(p y) - (ln y)/2: the two O(y ln y)
    # terms cancel before they are rounded
    head = ((y - 1.0) * math.log(k * y) + 0.5 * math.log(y) if p is None
            else y * math.log(p * y) - 0.5 * math.log(y) - math.log(k))
    return head - y + kernels.stirling_series(y)


def _gamma_value(pt: EvalPoint) -> float:
    # G(x); str.format drops the p a Gamma_k message has no field for
    what = "Gamma_k({}; k={})" if pt.p is None else "pGamma_k({}; k={}, p={})"
    return _exp_or_overflow(_log_gamma(pt), what, pt.x, pt.k, pt.p)


def _gamma(pt: EvalPoint) -> float:
    cache = kernels.active_cache()
    if cache is None:
        return _gamma_value(pt)
    key = (pt.x, pt.k, pt.p)
    value = cache.gammas.get(key)
    if value is None:
        value = cache.gammas[key] = _gamma_value(pt)
    return value


def _gamma_at(x: float, k: float, p: float | None) -> float:
    # G at (x, k, p) for a caller without a point: one is built, checked
    # and passed to `_gamma` only when the block's table lacks the value
    cache = kernels.active_cache()
    value = None if cache is None else cache.gammas.get((x, k, p))
    return _gamma(EvalPoint(x, k, p)) if value is None else value


def k_gamma(pt: EvalPoint, policy: AccuracyPolicy = DEFAULT_POLICY) -> float:
    """Gamma_k(x) = k^(x/k - 1) Gamma(x/k), at a point without p."""
    pt.require_no_p("k_gamma", "pk_gamma")
    _check_policy(policy)
    return _gamma(pt)


def pk_gamma(pt: EvalPoint, policy: AccuracyPolicy = DEFAULT_POLICY) -> float:
    """pGamma_k(x) = p^(x/k) / k * Gamma(x/k)."""
    _check_policy(policy)
    pt.require_p()
    return _gamma(pt)


def k_polygamma(
    m: int, pt: EvalPoint, policy: AccuracyPolicy = DEFAULT_POLICY
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
    _check_policy(policy)
    # inside a block, read from or stored in the table; a raise stores nothing
    cache = kernels.active_cache()
    if cache is not None:
        value = cache.polygammas.get((m, pt.x, pt.k))
        if value is not None:
            return value
    sign = 1.0 if m % 2 == 1 else -1.0
    try:
        scale = math.factorial(m) * pt.k ** (-(m + 1.0))
    except OverflowError:  # k^-(m+1) beyond the double range
        scale = math.inf
    value = sign * scale * kernels.hurwitz_zeta(m + 1.0, pt.x / pt.k)
    value = _finite_or_overflow(value, "psi_k^({})({}; k={})", m, pt.x, pt.k)
    if cache is not None:
        cache.polygammas[(m, pt.x, pt.k)] = value
    return value


def k_polygamma_magnitude_fractional(
    s: float, pt: EvalPoint, policy: AccuracyPolicy = DEFAULT_POLICY
) -> float:
    """|psi_k^(s)(x)| for real order s >= 1, via the integral definition.

    The defining integral int_0^inf t^s e^(-xt) / (1 - e^(-kt)) dt does not
    require s to be an integer; it equals Gamma(s+1) k^-(s+1) zeta_H(s+1, x/k).
    For integer s this agrees with |k_polygamma(s, pt)|.
    """
    if not (math.isfinite(s) and s >= 1.0):
        raise DomainError(f"fractional order must satisfy s >= 1, got {s!r}")
    _check_policy(policy)
    cache = kernels.active_cache()
    if cache is not None:
        value = cache.magnitudes.get((s, pt.x, pt.k))
        if value is not None:
            return value
    log_scale = kernels.log_gamma(s + 1.0) - (s + 1.0) * math.log(pt.k)
    scale = _exp_or_overflow(log_scale, "psi_k^({}) scale at k={}", s, pt.k)
    value = scale * kernels.hurwitz_zeta(s + 1.0, pt.x / pt.k)
    value = _finite_or_overflow(value, "|psi_k^({})({}; k={})|", s, pt.x, pt.k)
    if cache is not None:
        cache.magnitudes[(s, pt.x, pt.k)] = value
    return value


def k_zeta(x: float, k: float, policy: AccuracyPolicy = DEFAULT_POLICY) -> float:
    """zeta_k(x) = zeta(x/k), for x/k > 1."""
    if not (math.isfinite(k) and k > 0):
        raise DomainError(f"k must be a finite positive real, got {k!r}")
    if not (math.isfinite(x) and x / k > 1.0):
        raise DomainError(f"k_zeta requires x/k > 1, got x={x!r}, k={k!r}")
    _check_policy(policy)
    s = x / k
    # zeta(s) rounds to 1.0 from s = 54 on, as does an s beyond the double range
    return 1.0 if s == math.inf else kernels.riemann_zeta(s)


def _zeta_at(x: float, k: float) -> float:
    # zeta_k(x) = zeta_H(x/k, 1) for a sweep row: read from the block's
    # zeta table, and only on a miss through `k_zeta`, its checks and
    # messages; a k of 0 misses before it is divided by
    cache = kernels.active_cache()
    value = None if cache is None or not k else cache.zetas.get((x / k, 1.0))
    return k_zeta(x, k) if value is None else value


def pk_zeta(
    x: float, k: float, p: float, policy: AccuracyPolicy = DEFAULT_POLICY
) -> float:
    """pzeta_k(x) for x/k > 1 and p > 0.

    Substituting u = t^k / p in the defining integral shows the p-dependence
    cancels against pGamma_k, leaving zeta(x/k) for every p.  The oracle
    module validates this independence against the actual integral.
    """
    if not (math.isfinite(p) and p > 0):
        raise DomainError(f"p must be a finite positive real, got {p!r}")
    return k_zeta(x, k, policy)


def _derivatives(n_max: int, pt: EvalPoint) -> list[float | None]:
    # [D_0, ..., D_n_max] of G, None where D_j overflows: D_j = G k^-j B_j,
    # with B_j the Bell polynomials at c = k, or c = p at a point with p
    c = pt.k if pt.p is None else pt.p
    log_value = _log_gamma(pt)
    value = math.exp(log_value) if log_value <= _LOG_MAX else math.inf
    derivs = []
    for j, b in enumerate(kernels.bell_sequence(n_max, pt.x / pt.k, c)):
        d = value * (b * pt.k ** -float(j))
        derivs.append(d if math.isfinite(d) else None)
    return derivs


def _derivative_vector(n_max: int, pt: EvalPoint) -> list[float | None]:
    # [D_0, ..., D_n_max] at least: the point's whole D_0..8 inside a block,
    # built once and read by every order, and only up to n_max outside one
    cache = kernels.active_cache()
    if cache is None:
        return _derivatives(n_max, pt)
    key = (pt.x, pt.k, pt.p)
    derivs = cache.derivatives.get(key)
    if derivs is None:
        derivs = cache.derivatives[key] = _derivatives(
            kernels.GAMMA_DERIV_MAX_ORDER, pt)
    return derivs


def _derivative_overflow(n: int, pt: EvalPoint) -> ComputationOverflowError:
    family = "Gamma_k" if pt.p is None else "pGamma_k"
    return ComputationOverflowError(f"{family}^({n}) at {pt} overflows double precision")


def _derivative(n: int, pt: EvalPoint) -> float:
    kernels.check_deriv_order(n)
    d = _derivative_vector(n, pt)[n]
    if d is None:
        raise _derivative_overflow(n, pt)
    return d


def k_gamma_deriv(
    n: int, pt: EvalPoint, policy: AccuracyPolicy = DEFAULT_POLICY
) -> float:
    """Gamma_k^(n)(x): the n-th derivative of Gamma_k at x, n <= 8, at a
    point without p."""
    pt.require_no_p("k_gamma_deriv", "pk_gamma_deriv")
    _check_policy(policy)
    return _derivative(n, pt)


def pk_gamma_deriv(
    n: int, pt: EvalPoint, policy: AccuracyPolicy = DEFAULT_POLICY
) -> float:
    """pGamma_k^(n)(x): the n-th derivative of pGamma_k at x, n <= 8."""
    _check_policy(policy)
    pt.require_p()
    return _derivative(n, pt)


def _gamma_derivatives(orders: tuple[int, ...], pt: EvalPoint) -> list[float]:
    """G^(n)(x) for each n of `orders`, a non-empty tuple, in order, with
    G = Gamma_k at a point without p and G = pGamma_k at one with p, n <= 8.

    Every order is checked first.  The values, and the error the first
    order that overflows raises, are then those of `k_gamma_deriv` or
    `pk_gamma_deriv` called order by order; the point's derivatives are
    read once for all of them.
    """
    for n in orders:
        kernels.check_deriv_order(n)
    derivs = _derivative_vector(max(orders), pt)
    values = [derivs[n] for n in orders]
    if None in values:
        raise _derivative_overflow(orders[values.index(None)], pt)
    return values
