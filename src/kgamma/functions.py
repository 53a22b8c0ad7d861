"""Generalized gamma / polygamma / zeta functions of the k- and p-k-families.

All values are computed through closed-form reductions to the classical
kernels (never by direct integration):

    Gamma_k(x)    = k^(x/k - 1) Gamma(x/k)
    pGamma_k(x)   = p^(x/k) / k * Gamma(x/k)
    psi_k^(m)(x)  = (-1)^(m+1) m! k^-(m+1) zeta_H(m+1, x/k)
    zeta_k(x)     = zeta(x/k)

One reader, `_magnitude`, gives |psi_k^(s)(x)| = Gamma(s+1) k^-(s+1)
zeta_H(s+1, x/k) at every real order s >= 1, and psi_k^(m) is its value at
s = m with the sign (-1)^(m+1).

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

One range rule serves every closed form.  A factor that is a normal double
(e^(ln G), Gamma(s+1), zeta_H, k^-n) is used as it stands, so every value
in range keeps its bits; only a factor that is not one is split into a
head in [1/2, 1) times 2^c (`_split_exp`, `math.frexp`).  The heads
are multiplied, and the one power of two is applied last by `math.ldexp`
(`_ldexp`): a value past the double range raises
`ComputationOverflowError`, and one below it is 0.0 or subnormal, however
far the factors lie outside the range.  A log beyond +-2^20, which no
factor brings back, is decided by its sign, and a NaN log is an overflow.
Gamma(t) b^-t is split as its two factors' heads (`_gamma_power`); at an
integer t <= 171, every polygamma order, Gamma(t)'s split is read from a
table formed at import (`_GAMMA_SPLITS`), bit for bit the split formed
on the call at a fractional t.

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

A `verify` sweep reads every value its rows share as one `kernels.memo`
entry: `_zeta_at`, `_gamma_at` (Gamma_k alone), `_magnitude_at` (read
at an int order m for psi_k^(m), whose sign the caller applies), and each
point's derivatives D_0..8 (`_derivative_table`), so inside a
`kernels.memoised()` block each is computed once.  The public functions keep no table.  Outside a block a
point evaluation does only the work its value needs: D is formed for the
orders read alone, and every value in range is returned from
`math.ldexp` inline, with `_ldexp` called only to raise the overflow.
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
    """Argument x > 0 with scale parameter k > 0 and optional p > 0, each
    a finite positive real (`kernels.require_positive`), kept as a float."""

    x: float
    k: float
    p: float | None = None

    def __post_init__(self) -> None:
        # kept as floats, so a numpy scalar is computed in double precision
        for name in ("x", "k") if self.p is None else ("x", "k", "p"):
            value = getattr(self, name)
            real = kernels.require_positive(name, value)
            if real is not value:
                object.__setattr__(self, name, real)

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

#: The least normal double: a value at or above it keeps all 53 bits.
_TINY = sys.float_info.min

#: The largest double: a real above it, as an int can be, is no float.
_FLOAT_MAX = sys.float_info.max

#: Past this |log|, e^log is beyond the double range by more than any
#: other factor of a closed form (at most about 2^10000 for D^(8)) can
#: bring back: `_split_exp` decides it by its sign.  Below it c ln 2 is
#: exact, since |c| < 2^21 and _LN2_HI has 32 bits.
_LOG_SIGN_ONLY = 2.0**20

# ln 2 in two parts, as fdlibm splits it
_LN2_HI = float.fromhex("0x1.62e42fee00000p-1")
_LN2_LO = 1.90821492927058770002e-10


def _split_exp(log_value: float) -> tuple[float, int]:
    """e^log_value as (h, c), h in [1/2, 1), e^log_value = h 2^c.

    Where e^log_value is a normal double, (h, c) is its `frexp`, bit for
    bit; elsewhere h is e^(log_value - c ln 2) to about an ulp, so the value
    carries the log's own rounding, |log_value| units of 2^-53.  A NaN log
    is split as one past +2^20.
    """
    if log_value <= kernels.LOG_MAX:
        value = math.exp(log_value)
        if value >= _TINY:
            return math.frexp(value)
    if not abs(log_value) < _LOG_SIGN_ONLY:
        log_value = -_LOG_SIGN_ONLY if log_value < 0.0 else _LOG_SIGN_ONLY
    c = round(log_value / _LN2_HI)
    head, shift = math.frexp(math.exp(log_value - c * _LN2_HI - c * _LN2_LO))
    return head, c + shift


def _ldexp(head: float, exponent: int, what: str, *what_args) -> float:
    """head 2^exponent, the one power of two of a closed form, applied last.

    A value past the double range, or a head that is inf or NaN, raises the
    typed overflow; `what` is formatted with `what_args` only then.
    """
    try:
        value = math.ldexp(head, exponent)
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    raise ComputationOverflowError(
        f"{what.format(*what_args)} overflows double precision")


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
    # one y ln c - ln k would move the last bit of ln Gamma_k.  Both are
    # -ln x + y (ln c - gamma) + O(y^2), which is -ln x where y is subnormal
    # or 0, and where lgamma(y) has lost y's digits or is undefined
    y = x / k
    if y < _TINY:
        return -math.log(x)
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
    # G(x): e^(ln G) where that is a normal double, else through the rule;
    # str.format drops the p a Gamma_k message has no field for
    log_value = _log_gamma(pt.x, pt.k, pt.p)
    if log_value <= kernels.LOG_MAX:
        value = math.exp(log_value)
        if value >= _TINY:
            return value
    what = "Gamma_k({}; k={})" if pt.p is None else "pGamma_k({}; k={}, p={})"
    return _ldexp(*_split_exp(log_value), what, pt.x, pt.k, pt.p)


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
    kernels.check_order(m, 1, kernels.POLYGAMMA_MAX_ORDER, "k_polygamma")
    value = _magnitude(m, pt.x, pt.k)
    return value if m % 2 else -value


def k_polygamma_magnitude_fractional(
    s: float, pt: EvalPoint, policy: AccuracyPolicy = DEFAULT_POLICY
) -> float:
    """|psi_k^(s)(x)| for real order s >= 1, from its closed form.

    The defining integral int_0^inf t^s e^(-xt) / (1 - e^(-kt)) dt does not
    require s to be an integer; it equals Gamma(s+1) k^-(s+1) zeta_H(s+1, x/k).
    For integer s this is |k_polygamma(s, pt)|, bit for bit.
    """
    _check_policy(policy)
    return _magnitude(s, pt.x, pt.k)


#: From this y = x/k on, zeta_H(s+1, y) is y^-s / s: the next
#: Euler-Maclaurin term is s / (2 y) of it, below 2^-57 up to s = 171, and
#: beyond that below the rounding of lgamma(s) in the log the value is read
#: from.
_PSI_K_LEADING_Y = 2.0**64


def _magnitude(s: float, x: float, k: float) -> float:
    # |psi_k^(s)(x)| = Gamma(o) k^-o zeta_H(o, y), o = s + 1, in one of three
    # regimes, each Gamma(t) b^-t (`_gamma_power`) times a head, with the one
    # power of two applied last: Gamma(o) k^-o zeta_H(o, y) itself; from
    # y = 2^64 on, Gamma(s) x^-s / k; and where zeta_H(o, y) overflows or y
    # underflowed to 0, Gamma(o) x^-o.  An int s is a polygamma order m, so
    # the value is |psi_k^(m)(x)| and an overflow names psi_k^(m) as
    # `k_polygamma` does
    if not 1.0 <= s <= _FLOAT_MAX:
        raise kernels.domain_error(
            "s", s, f"fractional order must satisfy s >= 1, got {kernels.shown(s)}")
    order = float(s)
    y = x / k
    if y >= _PSI_K_LEADING_Y:
        head, exponent = _gamma_power(order, x)
        f, e = math.frexp(k)
        head /= f
        exponent -= e
    else:
        # where zeta_H(o, y) overflows, or y underflowed to 0, y^-o is beyond
        # the double range and is the whole of
        # zeta_H(o, y) = y^-o + zeta_H(o, y + 1), whose second term is at
        # most zeta(2)
        zeta = None
        if y:
            try:
                zeta = kernels.hurwitz_zeta(order + 1.0, y)
            except ComputationOverflowError:
                pass
        if zeta is None:
            head, exponent = _gamma_power(order + 1.0, x)
        else:
            head, exponent = _gamma_power(order + 1.0, k)
            z, c = math.frexp(zeta)
            head *= z
            exponent += c
    # every head is finite: ldexp returns the value, 0.0 or subnormal below
    # the double range, or raises OverflowError above it
    try:
        return math.ldexp(head, exponent)
    except OverflowError:
        pass
    what = "psi_k^({})({}; k={})" if type(s) is int else "|psi_k^({})({}; k={})|"
    return _ldexp(head, exponent, what, s, x, k)


def _gamma_power(t: float, b: float) -> tuple[float, int]:
    # Gamma(t) b^-t as (h, c), h 2^c.  Up to t = 171, with Gamma(t) = g 2^c,
    # b = f 2^e and t e = n + r / den exactly (n an integer, 0 <= r < den,
    # from t's integer ratio), it is g f^-t 2^(-r/den) 2^(c - n): a head
    # below 2^172, which at t = m + 1 <= 13 or t = m is the head of m! f^-t
    # or (m-1)! f^-t, bit for bit.  An integer t reads (g, c, t) from
    # `_GAMMA_SPLITS`: there r = 0, and 2^(-0/1) = 1 moves no bit.  Past
    # t = 171 Gamma(t) leaves the double range, and the value is split from
    # one log, in which Gamma(t) and b^-t cancel before rounding
    f, e = math.frexp(b)
    split = _GAMMA_SPLITS.get(t)
    if split is not None:
        g, c, n = split
        return g * f ** -t, c - n * e
    if t > 171.0:
        return _split_exp(kernels.log_gamma(t) - t * math.log(b))
    num, den = t.as_integer_ratio()
    n, r = divmod(num * e, den)
    g, c = math.frexp(math.gamma(t))
    return g * f ** -t * 2.0 ** (-r / den), c - n


#: (g, c, t) for each integer t from 1 to 171, keyed by float(t):
#: Gamma(t) = g 2^c, split by the `math.frexp(math.gamma(t))` that
#: `_gamma_power` forms at a fractional t
_GAMMA_SPLITS = {float(t): (*math.frexp(math.gamma(t)), t) for t in range(1, 172)}


#: |psi_k^(s)(x)| for a sweep row, which the T1 and T7 rows of a point share:
#: T7 applies the sign of psi_k^(m) to the entry of its int order m
_magnitude_at = kernels.memo(_magnitude)


def k_zeta(x: float, k: float, policy: AccuracyPolicy = DEFAULT_POLICY) -> float:
    """zeta_k(x) = zeta(x/k), for x/k > 1."""
    _check_policy(policy)
    return _zeta(x, k)


def _zeta(x: float, k: float) -> float:
    k = kernels.require_positive("k", k)
    if not (0.0 < x <= _FLOAT_MAX and x / k > 1.0):
        raise kernels.domain_error(
            "x", x, f"k_zeta requires x/k > 1, got x={kernels.shown(x)}, k={k!r}")
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
    kernels.require_positive("p", p)
    return _zeta(x, k)


def _derivatives(
    x: float, k: float, p: float | None,
    orders: tuple[int, ...] | range = range(kernels.GAMMA_DERIV_MAX_ORDER + 1),
) -> list[tuple | None]:
    # D_n of G as a pair (h, c), D_n = h 2^c, at index n of the list for each
    # n of `orders` (by default every order, 0..8), None at every other
    # index up to the largest: D_n = G k^-n B_n, with B_n the Bell
    # polynomials at c = k, or c = p with p.
    # G and B_n are split by frexp, and k^-n is pow's where it is certainly
    # a normal double, else f^-n 2^(-ne) with k = f 2^e.  Every head is then
    # a product of normal doubles, rounded as G k^-n B_n is wherever that is
    # a normal double.  `bell_sequence` refuses y = 0 at every order, as
    # psi(y) is undefined there
    bells = kernels.bell_sequence(max(orders), x / k, k if p is None else p)
    g, exponent = _split_exp(_log_gamma(x, k, p))
    f, e = math.frexp(k)
    # k^-n lies in (2^-ne, 2^(n - ne)]: up to this n, times a head in
    # [1/2, 1), it is a normal double
    top = 1020 // e if e > 0 else 1023 // (1 - e)
    derivs = [None] * len(bells)
    for n in orders:
        b, c = math.frexp(bells[n])
        if n <= top:
            b *= k ** -float(n)
        else:
            b *= f ** -float(n)
            c -= n * e
        derivs[n] = (g * b, exponent + c)
    return derivs


#: the point's D_0..8 in a sweep block.  B_j depends on kappa_1..kappa_j
#: alone, so each entry has the bits of a shorter table's
_derivative_table = kernels.memo(_derivatives)


def k_gamma_deriv(
    n: int, pt: EvalPoint, policy: AccuracyPolicy = DEFAULT_POLICY
) -> float:
    """Gamma_k^(n)(x): the n-th derivative of Gamma_k at x, n <= 8, at a
    point without p."""
    pt.require_no_p("k_gamma_deriv", "pk_gamma_deriv")
    _check_policy(policy)
    kernels.check_deriv_order(n)
    return _gamma_derivatives((n,), pt)[0]


def pk_gamma_deriv(
    n: int, pt: EvalPoint, policy: AccuracyPolicy = DEFAULT_POLICY
) -> float:
    """pGamma_k^(n)(x): the n-th derivative of pGamma_k at x, n <= 8."""
    _check_policy(policy)
    pt.require_p()
    kernels.check_deriv_order(n)
    return _gamma_derivatives((n,), pt)[0]


def _gamma_derivatives(orders: tuple[int, ...], pt: EvalPoint) -> list[float]:
    """G^(n)(x) for each n of `orders`, a non-empty tuple of orders in
    0..8 that the caller has checked, with G = Gamma_k at a point without p
    and G = pGamma_k at one with p.

    The values, and the error the first order that overflows raises, are
    those of `k_gamma_deriv` or `pk_gamma_deriv` called order by order.
    Inside a `kernels.memoised()` block the point's D_0..8 are one `memo`
    entry; outside one D is built for the orders read alone, from the Bell
    polynomials up to the largest of them.
    """
    if kernels.active_cache() is None:
        derivs = _derivatives(pt.x, pt.k, pt.p, orders)
    else:
        derivs = _derivative_table(pt.x, pt.k, pt.p)
    values = []
    for n in orders:
        head, exponent = derivs[n]
        # a head may be inf or NaN (an overflowing psi^(j) or B_n), which
        # ldexp returns as it is
        try:
            value = math.ldexp(head, exponent)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            what = "Gamma_k^({}) at {}" if pt.p is None else "pGamma_k^({}) at {}"
            _ldexp(head, exponent, what, n, pt)  # raises the typed overflow
        values.append(value)
    return values
