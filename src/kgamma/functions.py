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
with p.  The k-family functions (`k_gamma`, `k_gamma_deriv`) refuse a point
that carries p with `DomainError` naming their p-k counterpart, instead of
dropping the p.

Every value is accurate to the kernels' one contract, a Hurwitz remainder
of at most 2^-56 of the value (`kernels.HURWITZ_REL_TOL`).  Each public
function still takes an `AccuracyPolicy`, and checks it once, before any
table is read: a rel_tol at or above 2^-56 is met as it stands, and a
smaller one, which double precision cannot deliver, raises `DomainError`.
The private readers below take no policy.

A `verify` sweep reads the values its rows share through private readers
of floats wrapped in `kernels.memo` (`_zeta_at`, `_gamma_at` of Gamma_k
alone, `_psi_k_at`, `_magnitude_at`, `_all_derivatives`), so inside a
`kernels.memoised()` block each is computed once.  The public functions
keep no table; the derivatives read `_all_derivatives` inside a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from .policy import (
    DEFAULT_POLICY,
    AccuracyPolicy,
    ComputationOverflowError,
    DomainError,
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


#: From this y = x/k on, ln Gamma_k and ln pGamma_k are summed from
#: Stirling's series.  At small k (or p), (y - 1) ln k and ln Gamma(y) are
#: far larger than their sum, and lgamma's rounding alone cost 1e-12
#: relative at k = 0.01, x = 6.8.
_STIRLING_Y = 100.0


def _exp_or_overflow(log_value: float, what: str, *what_args) -> float:
    # checked before exp, which would raise a bare OverflowError; `what` is
    # formatted with `what_args` only on failure, off the common path
    if not log_value <= kernels.LOG_MAX:
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


def _log_gamma(x: float, k: float, p: float | None) -> float:
    # ln G(x): ln Gamma_k without p, ln pGamma_k with p.  Each family keeps
    # its own rounding of the prefactor, (y - 1) ln k and y ln p - ln k;
    # one y ln c - ln k would move the last bit of ln Gamma_k
    y = x / k
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
    return _exp_or_overflow(_log_gamma(pt.x, pt.k, pt.p), what, pt.x, pt.k, pt.p)


@kernels.memo
def _gamma_at(x: float, k: float) -> float:
    # Gamma_k at (x, k) for a caller without a point; inside a block the
    # point is built and checked only on a miss
    return _gamma_value(EvalPoint(x, k))


def k_gamma(pt: EvalPoint, policy: AccuracyPolicy = DEFAULT_POLICY) -> float:
    """Gamma_k(x) = k^(x/k - 1) Gamma(x/k), at a point without p."""
    pt.require_no_p("k_gamma", "pk_gamma")
    _check_policy(policy)
    return _gamma_value(pt)


def pk_gamma(pt: EvalPoint, policy: AccuracyPolicy = DEFAULT_POLICY) -> float:
    """pGamma_k(x) = p^(x/k) / k * Gamma(x/k)."""
    _check_policy(policy)
    pt.require_p()
    return _gamma_value(pt)


def k_polygamma(
    m: int, pt: EvalPoint, policy: AccuracyPolicy = DEFAULT_POLICY
) -> float:
    """psi_k^(m)(x) for m >= 1; sign is (-1)^(m+1).

    m = 0 is excluded: the defining series diverges there and none of the
    verified inequalities needs it.
    """
    _check_policy(policy)
    return _psi_k(m, pt.x, pt.k)


#: From this y = x/k on, zeta_H(m+1, y) is y^-m / m to double precision at
#: every polygamma order: the next Euler-Maclaurin term is m / (2 y) of it,
#: at most 12 / 2^65.
_PSI_K_LEADING_Y = 2.0**64


def _psi_k(m: int, x: float, k: float) -> float:
    kernels.check_order(m, 1, kernels.POLYGAMMA_MAX_ORDER, "k_polygamma")
    # m! k^-(m+1) zeta_H(m+1, y) with k = f 2^e and zeta_H = z 2^c, f and z
    # in [1/2, 1): the head m! f^-(m+1) z is below 2^42 and the one power of
    # two is applied last, exactly, so the value is right however far
    # k^-(m+1) lies outside the double range, and past zeta_H only ldexp
    # can overflow.  From y = 2^64 on, where zeta_H(m+1, y) itself can
    # underflow, its leading term gives (m-1)! x^-m / k, with x = g 2^d.
    # Where y^-(m+1) is beyond the double range, or y underflowed to 0, it
    # is the whole of zeta_H(m+1, y) = y^-(m+1) + zeta_H(m+1, y+1), whose
    # second term is at most zeta(2): the value is m! x^-(m+1).
    f, e = math.frexp(k)
    g, d = math.frexp(x)
    y = x / k
    if y < _PSI_K_LEADING_Y:
        try:
            zeta = kernels.hurwitz_zeta(m + 1.0, y) if y else math.inf
        except ComputationOverflowError:
            zeta = math.inf
        if zeta < math.inf:
            z, c = math.frexp(zeta)
            head = math.factorial(m) * f ** (-(m + 1.0)) * z
            exponent = c - (m + 1) * e
        else:
            head = math.factorial(m) * g ** (-(m + 1.0))
            exponent = -(m + 1) * d
    else:
        head = math.factorial(m - 1) * g ** (-float(m)) / f
        exponent = -m * d - e
    try:
        value = math.ldexp(head, exponent)
    except OverflowError:
        raise ComputationOverflowError(
            f"psi_k^({m})({x}; k={k}) overflows double precision") from None
    return value if m % 2 == 1 else -value


def k_polygamma_magnitude_fractional(
    s: float, pt: EvalPoint, policy: AccuracyPolicy = DEFAULT_POLICY
) -> float:
    """|psi_k^(s)(x)| for real order s >= 1, via the integral definition.

    The defining integral int_0^inf t^s e^(-xt) / (1 - e^(-kt)) dt does not
    require s to be an integer; it equals Gamma(s+1) k^-(s+1) zeta_H(s+1, x/k).
    For integer s this agrees with |k_polygamma(s, pt)|.
    """
    _check_policy(policy)
    return _magnitude(s, pt.x, pt.k)


def _magnitude(s: float, x: float, k: float) -> float:
    if not (math.isfinite(s) and s >= 1.0):
        raise DomainError(f"fractional order must satisfy s >= 1, got {s!r}")
    log_scale = kernels.log_gamma(s + 1.0) - (s + 1.0) * math.log(k)
    scale = _exp_or_overflow(log_scale, "psi_k^({}) scale at k={}", s, k)
    value = scale * kernels.hurwitz_zeta(s + 1.0, x / k)
    return _finite_or_overflow(value, "|psi_k^({})({}; k={})|", s, x, k)


#: psi_k^(m)(x) and |psi_k^(s)(x)| for a sweep row, which the T1 and T7 rows
#: of a point share
_psi_k_at = kernels.memo(_psi_k)
_magnitude_at = kernels.memo(_magnitude)


def k_zeta(x: float, k: float, policy: AccuracyPolicy = DEFAULT_POLICY) -> float:
    """zeta_k(x) = zeta(x/k), for x/k > 1."""
    _check_policy(policy)
    return _zeta(x, k)


def _zeta(x: float, k: float) -> float:
    if not (math.isfinite(k) and k > 0):
        raise DomainError(f"k must be a finite positive real, got {k!r}")
    if not (math.isfinite(x) and x / k > 1.0):
        raise DomainError(f"k_zeta requires x/k > 1, got x={x!r}, k={k!r}")
    s = x / k
    # zeta(s) rounds to 1.0 from s = 54 on, as does an s beyond the double range
    return 1.0 if s == math.inf else kernels.riemann_zeta(s)


@kernels.memo
def _zeta_at(x: float, k: float) -> float:
    # zeta_k(x) for a sweep row, with the domain checks of `k_zeta` on a miss
    return _zeta(x, k)


def pk_zeta(
    x: float, k: float, p: float, policy: AccuracyPolicy = DEFAULT_POLICY
) -> float:
    """pzeta_k(x) for x/k > 1 and p > 0.

    Substituting u = t^k / p in the defining integral shows the p-dependence
    cancels against pGamma_k, leaving zeta(x/k) for every p.  The oracle
    module validates this independence against the actual integral.
    """
    _check_policy(policy)
    if not (math.isfinite(p) and p > 0):
        raise DomainError(f"p must be a finite positive real, got {p!r}")
    return _zeta(x, k)


def _derivatives(n_max: int, x: float, k: float, p: float | None) -> list[float | None]:
    # [D_0, ..., D_n_max] of G, None where D_j or its k^-j overflows:
    # D_j = G k^-j B_j, with B_j the Bell polynomials at c = k, or c = p with p
    log_value = _log_gamma(x, k, p)
    value = math.exp(log_value) if log_value <= kernels.LOG_MAX else math.inf
    derivs = []
    for j, b in enumerate(kernels.bell_sequence(n_max, x / k, k if p is None else p)):
        try:
            d = value * (b * k ** -float(j))
        except OverflowError:  # k^-j beyond the double range
            d = math.inf
        derivs.append(d if math.isfinite(d) else None)
    return derivs


@kernels.memo
def _all_derivatives(x: float, k: float, p: float | None) -> list[float | None]:
    # the point's D_0..8, which every order of a sweep reads
    return _derivatives(kernels.GAMMA_DERIV_MAX_ORDER, x, k, p)


def k_gamma_deriv(
    n: int, pt: EvalPoint, policy: AccuracyPolicy = DEFAULT_POLICY
) -> float:
    """Gamma_k^(n)(x): the n-th derivative of Gamma_k at x, n <= 8, at a
    point without p."""
    pt.require_no_p("k_gamma_deriv", "pk_gamma_deriv")
    _check_policy(policy)
    return _gamma_derivatives((n,), pt)[0]


def pk_gamma_deriv(
    n: int, pt: EvalPoint, policy: AccuracyPolicy = DEFAULT_POLICY
) -> float:
    """pGamma_k^(n)(x): the n-th derivative of pGamma_k at x, n <= 8."""
    _check_policy(policy)
    pt.require_p()
    return _gamma_derivatives((n,), pt)[0]


def _gamma_derivatives(orders: tuple[int, ...], pt: EvalPoint) -> list[float]:
    """G^(n)(x) for each n of `orders`, a non-empty tuple, in order, with
    G = Gamma_k at a point without p and G = pGamma_k at one with p, n <= 8.

    Every order is checked first.  The values, and the error the first
    order that overflows raises, are then those of `k_gamma_deriv` or
    `pk_gamma_deriv` called order by order.  Inside a `kernels.memoised()`
    block the point's whole D_0..8 is read once for every order; outside
    one D is built only up to the largest order asked for.
    """
    for n in orders:
        kernels.check_deriv_order(n)
    if kernels.active_cache() is None:
        derivs = _derivatives(max(orders), pt.x, pt.k, pt.p)
    else:
        derivs = _all_derivatives(pt.x, pt.k, pt.p)
    values = []
    for n in orders:
        if derivs[n] is None:
            family = "Gamma_k" if pt.p is None else "pGamma_k"
            raise ComputationOverflowError(
                f"{family}^({n}) at {pt} overflows double precision")
        values.append(derivs[n])
    return values
