"""Classical special-function kernels: log-gamma, polygamma, zetas, gamma derivatives.

Everything in the generalized-function layer reduces to these.  All kernels
are deterministic pure functions: same input and policy give bit-identical
output.
"""

from __future__ import annotations

import math

from .policy import (
    DEFAULT_POLICY,
    AccuracyPolicy,
    ComputationOverflowError,
    DomainError,
    UnsupportedOrderError,
)

__all__ = [
    "log_gamma",
    "polygamma",
    "riemann_zeta",
    "hurwitz_zeta",
    "gamma_deriv_sequence",
    "KernelCache",
    "POLYGAMMA_MAX_ORDER",
    "GAMMA_DERIV_MAX_ORDER",
]

POLYGAMMA_MAX_ORDER = 12
GAMMA_DERIV_MAX_ORDER = 8

# B_2, B_4, ..., B_14
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)

# Largest y with Gamma(y) finite in double precision.
_LGAMMA_OVERFLOW = 709.78


def _require_positive(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be a finite positive real, got {value!r}")


def log_gamma(y: float, policy: AccuracyPolicy = DEFAULT_POLICY) -> float:
    """ln Gamma(y) for y > 0.

    Backed by the platform lgamma, which is accurate to a few ulp on
    [1e-3, 1e3]; comfortably inside the 1e-12 relative contract.
    """
    _require_positive("y", y)
    return math.lgamma(y)


def _digamma(y: float) -> float:
    # Recurrence up to y >= 8, then the Stirling-type asymptotic series.
    # The B_14 term at y = 8 is ~1e-16 relative, below the contract.
    acc = 0.0
    while y < 8.0:
        acc -= 1.0 / y
        y += 1.0
    inv2 = 1.0 / (y * y)
    series = 0.0
    power = inv2
    for b2j, j in zip(_BERNOULLI, range(1, len(_BERNOULLI) + 1)):
        series += b2j / (2 * j) * power
        power *= inv2
    return acc + math.log(y) - 0.5 / y - series


def polygamma(m: int, y: float, policy: AccuracyPolicy = DEFAULT_POLICY) -> float:
    """psi^(m)(y): the m-th derivative of digamma's antiderivative ln Gamma.

    m = 0 is digamma; for m >= 1 the value is (-1)^(m+1) m! zeta_H(m+1, y).
    """
    if not isinstance(m, int) or m < 0:
        raise DomainError(f"polygamma order must be a non-negative integer, got {m!r}")
    if m > POLYGAMMA_MAX_ORDER:
        raise UnsupportedOrderError(
            f"polygamma order {m} exceeds supported cap {POLYGAMMA_MAX_ORDER}"
        )
    _require_positive("y", y)
    if m == 0:
        return _digamma(y)
    sign = 1.0 if m % 2 == 1 else -1.0
    return sign * math.factorial(m) * hurwitz_zeta(m + 1, y, policy)


def riemann_zeta(s: float, policy: AccuracyPolicy = DEFAULT_POLICY) -> float:
    """zeta(s) for s > 1.  No analytic continuation below s = 1."""
    if not (math.isfinite(s) and s > 1.0):
        raise DomainError(f"riemann_zeta requires s > 1, got {s!r}")
    return hurwitz_zeta(s, 1.0, policy)


def hurwitz_zeta(s: float, a: float, policy: AccuracyPolicy = DEFAULT_POLICY) -> float:
    """zeta_H(s, a) = sum_{n>=0} (n+a)^(-s), for s > 1 and a > 0.

    Direct summation of an initial block of N terms, then an
    Euler-Maclaurin tail correction through B_14.  N is grown until the
    first omitted correction term (the standard remainder bound) is below
    the policy tolerance.
    """
    if not (math.isfinite(s) and s > 1.0):
        raise DomainError(f"hurwitz_zeta requires s > 1, got {s!r}")
    _require_positive("a", a)

    # The remainder after the B_{2J} term is bounded by the magnitude of
    # the next term; (s + 2J) / (2 pi M) < ~0.1 makes it negligible.
    n_terms = max(16, int(math.ceil(2.0 * (s + 14.0) - a)) + 1)
    while True:
        n_terms = min(n_terms, policy.max_series_terms)
        big_m = n_terms + a
        head = 0.0
        for n in range(n_terms - 1, -1, -1):  # small terms first
            head += (n + a) ** (-s)

        tail = big_m ** (1.0 - s) / (s - 1.0) + 0.5 * big_m ** (-s)
        rising = s  # s (s+1) ... (s + 2j - 2)
        m_power = big_m ** (-s - 1.0)
        fact = 2.0  # (2j)!
        correction = 0.0
        last_term = 0.0
        for j, b2j in enumerate(_BERNOULLI, start=1):
            last_term = b2j / fact * rising * m_power
            correction += last_term
            rising *= (s + 2 * j - 1) * (s + 2 * j)
            m_power /= big_m * big_m
            fact *= (2 * j + 1) * (2 * j + 2)

        value = head + tail + correction
        # magnitude of the B_16 term bounds the Euler-Maclaurin remainder
        next_term = abs(3617.0 / 510.0 / fact * rising * m_power)
        if next_term <= policy.rel_tol * abs(value) + policy.abs_tol:
            return value
        if n_terms >= policy.max_series_terms:
            raise ComputationOverflowError(
                f"hurwitz_zeta({s}, {a}) did not converge within "
                f"{policy.max_series_terms} terms"
            )
        n_terms *= 2


def gamma_deriv_sequence(
    n_max: int, y: float, policy: AccuracyPolicy = DEFAULT_POLICY
) -> list[float]:
    """[Gamma(y), Gamma'(y), ..., Gamma^(n_max)(y)] by the exact recurrence.

    Gamma' = Gamma psi, so by Leibniz
    Gamma^(j+1)(y) = sum_{i<=j} C(j, i) Gamma^(i)(y) psi^(j-i)(y).
    """
    if not isinstance(n_max, int) or n_max < 0:
        raise DomainError(f"n_max must be a non-negative integer, got {n_max!r}")
    if n_max > GAMMA_DERIV_MAX_ORDER:
        raise UnsupportedOrderError(
            f"derivative order {n_max} exceeds supported cap {GAMMA_DERIV_MAX_ORDER}"
        )
    _require_positive("y", y)
    lg = log_gamma(y, policy)
    if lg > _LGAMMA_OVERFLOW:
        raise ComputationOverflowError(f"Gamma({y}) overflows double precision")
    derivs = [math.exp(lg)]
    if n_max == 0:
        return derivs
    psis = [polygamma(i, y, policy) for i in range(n_max)]
    for j in range(n_max):
        nxt = 0.0
        for i in range(j + 1):
            nxt += math.comb(j, i) * derivs[i] * psis[j - i]
        if not math.isfinite(nxt):
            raise ComputationOverflowError(
                f"Gamma^({j + 1})({y}) overflows double precision"
            )
        derivs.append(nxt)
    return derivs


class KernelCache:
    """Memoised Hurwitz/Riemann zeta values and gamma-derivative sequences.

    Stands in for this module wherever the functions layer takes a `cache`:
    the methods share the kernels' signatures and return their values bit
    for bit, since every kernel is a pure function of its arguments.  Misses
    call the module-level kernels, so profilers that wrap those see them.

    A derivative sequence is computed once per (y, policy) at
    GAMMA_DERIV_MAX_ORDER and sliced: entry j depends only on
    psi^(0..j-1)(y), so a prefix equals the lower-order sequence exactly.
    Where the full-order sequence fails, the requested order is computed
    (or fails) as if uncached.  Meant to live for one sweep.
    """

    def __init__(self) -> None:
        self._zeta: dict = {}
        self._derivs: dict = {}

    def hurwitz_zeta(
        self, s: float, a: float, policy: AccuracyPolicy = DEFAULT_POLICY
    ) -> float:
        key = (s, a, policy)
        value = self._zeta.get(key)
        if value is None:
            value = self._zeta[key] = hurwitz_zeta(s, a, policy)
        return value

    def riemann_zeta(self, s: float, policy: AccuracyPolicy = DEFAULT_POLICY) -> float:
        # riemann_zeta(s) is hurwitz_zeta(s, 1.0): both share one table
        key = (s, 1.0, policy)
        value = self._zeta.get(key)
        if value is None:
            value = self._zeta[key] = riemann_zeta(s, policy)
        return value

    def gamma_deriv_sequence(
        self, n_max: int, y: float, policy: AccuracyPolicy = DEFAULT_POLICY
    ) -> list[float]:
        key = (y, policy)
        if key not in self._derivs:
            try:
                full = gamma_deriv_sequence(GAMMA_DERIV_MAX_ORDER, y, policy)
            except (ArithmeticError, ValueError):
                full = None
            self._derivs[key] = full
        full = self._derivs[key]
        if full is None or not (
            isinstance(n_max, int) and 0 <= n_max <= GAMMA_DERIV_MAX_ORDER
        ):
            return gamma_deriv_sequence(n_max, y, policy)
        return full[: n_max + 1]
