"""Classical special-function kernels: log-gamma, polygamma, zetas, gamma derivatives.

Everything in the generalized-function layer reduces to these.  All kernels
are pure functions of their arguments, accurate to one fixed contract: the
Hurwitz sum is truncated at 2^-56 of its value (`HURWITZ_REL_TOL`), and no
kernel takes a tolerance.  The same input gives bit-identical output, so
inside a `memoised()` block a function wrapped in `memo` computes each of
its arguments once; `hurwitz_zeta` keeps its own table the same way.  Its
Euler-Maclaurin coefficients are precomputed for the integer orders of
psi^(1..12); for any other order they are formed on each call.  Its seven
correction steps are written out, not looped: the Hurwitz sum is about
half of the time of a point evaluation, and the loop's per-step overhead
was about 3% of a call at an integer order and 10% at a fractional one.
For the same reason its direct sum runs over a table of float counts
(`_COUNTS`), not over `range`: n + a with n an exact small float is the
sum an int n gives, bit for bit, without converting n on every term.

Derivatives come in Bell form.  If ln f has derivatives kappa_1, kappa_2, ...
(its cumulants), then f^(n) = f B_n(kappa_1, ..., kappa_n), where the complete
Bell polynomials B_n follow from

    B_0 = 1,   B_(j+1) = sum_(i=0..j) C(j, i) B_(j-i) kappa_(i+1)

(Comtet, Advanced Combinatorics, 1974).  `bell_sequence` runs this
recurrence on kappa_1 = ln c + psi(y), kappa_(i+1) = psi^(i)(y); with c = 1
these are the cumulants of Gamma itself, and `gamma_deriv_sequence` is
Gamma(y) B_j.  The functions layer uses c = k or c = p for the k- and
p-k-gamma families.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import numbers
import sys

from .policy import ABS_TOL, ComputationOverflowError, DomainError, UnsupportedOrderError

__all__ = [
    "log_gamma",
    "stirling_series",
    "polygamma",
    "riemann_zeta",
    "hurwitz_zeta",
    "bell_sequence",
    "gamma_deriv_sequence",
    "check_order",
    "check_deriv_order",
    "require_positive",
    "domain_error",
    "shown",
    "memo",
    "memoised",
    "active_cache",
    "HURWITZ_REL_TOL",
    "LOG_MAX",
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

# C(j, i) for j < GAMMA_DERIV_MAX_ORDER, as floats for the Bell recurrence
_BINOMIAL = tuple(
    tuple(float(math.comb(j, i)) for i in range(j + 1))
    for j in range(GAMMA_DERIV_MAX_ORDER)
)

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

_FLOAT_MAX = sys.float_info.max

#: Largest log value whose exp is finite in double precision.
LOG_MAX = math.log(_FLOAT_MAX)

#: Relative truncation of `hurwitz_zeta`: its remainder bound is at most
#: this fraction of the value, so every closed form built on it is accurate
#: to this and no tolerance can ask for more.
HURWITZ_REL_TOL = 2.0**-56

# |B_16|, the first Bernoulli number `hurwitz_zeta` leaves out, and
# ln(|B_16|/16!)
_B16_ABS = 3617.0 / 510.0
_LOG_B16_TERM = math.log(_B16_ABS / math.factorial(16))

# From this s on, `_log_k` sums the logs of the rising product.  The lgamma
# difference loses digits as s grows (1e-14 relative at 1e3), is 0 once
# s + 15 rounds to s and overflows above about 2.5e305; below 1e3 it is
# kept, so the sums sized there are unchanged.
_LOG_K_SUM_S = 1e3

# ln(1/HURWITZ_REL_TOL): `hurwitz_zeta` sizes its remainder bound to it
_LOG_INV_REL_TOL = -math.log(HURWITZ_REL_TOL)

# (B_2j/(2j)!, 2j - 1, 2j) for j = 1..8, with |B_16| at j = 8: the factors
# of the Euler-Maclaurin coefficients of `_em_row`
_EM_STEPS = tuple(
    (b2j / math.factorial(2 * j), 2 * j - 1, 2 * j)
    for j, b2j in enumerate((*_BERNOULLI, _B16_ABS), start=1)
)
_EM_FACTORS = tuple(factor for factor, _, _ in _EM_STEPS)


_TABLES = contextvars.ContextVar("kgamma_memo_tables", default=None)

#: The tables of the innermost `memoised()` block of this context, or None.
#: A new thread starts outside every block.
active_cache = _TABLES.get


def memo(compute):
    """`compute`, memoised inside a `memoised()` block.

    Inside a block each distinct tuple of positional arguments is computed
    once, into the block's table for this function; a call that raises
    stores nothing.  Outside every block `compute` is just called.  The
    kernels are pure functions, so a stored value is the one a fresh call
    returns, bit for bit; it is shared, and no caller may change it.
    Arguments that compare equal share an entry: 2 and 2.0 do, so where
    `compute` refuses 2.0, its caller refuses it before the read, as every
    caller of `check_order` refuses an order that is not an int.  `compute`
    never returns None.
    """
    @functools.wraps(compute)
    def read(*args):
        tables = active_cache()
        if tables is None:
            return compute(*args)
        table = tables.get(read)
        value = None if table is None else table.get(args)
        if value is None:
            value = compute(*args)
            tables.setdefault(read, {})[args] = value
        return value

    return read


@contextlib.contextmanager
def memoised():
    """A block in which every `memo` function computes each value once.

    Yields the block's new dict of tables, one per function that stored a
    value, keyed by that function.  Every value a sweep shares is one
    `memo` entry, a point's derivative table D_0..8 included
    (`functions._derivative_table`), except zeta_H(s, a): `hurwitz_zeta`
    keeps its own table in the block, keyed alike.  On exit, normal or by
    an exception, the enclosing block's tables (or none) are active again.
    """
    tables = {}
    token = _TABLES.set(tables)
    try:
        yield tables
    finally:
        _TABLES.reset(token)


def check_order(order: int, least: int, cap: int | None, what: str) -> None:
    """Refuse an order outside least..cap, or one that is not exactly an int.

    The one rule for every order of the package: a derivative, polygamma
    or theorem order.  A bool, a float or a numpy integer is refused with
    `DomainError`, as is an int below `least`: a `memo` table keys 2 and
    2.0, and True and 1, alike, so an order that is not an int would read
    an int order's value inside a `memoised()` block and raise outside
    one.  Every caller checks its orders before it reads a table.  An int
    above `cap` raises `UnsupportedOrderError`; a cap of None is no cap.
    The messages name the order `what`.
    """
    if type(order) is not int or order < least:
        bound = "a non-negative integer" if least == 0 else f"an integer >= {least}"
        raise DomainError(f"{what} order must be {bound}, got {shown(order)}")
    if cap is not None and order > cap:
        raise UnsupportedOrderError(
            f"{what} order {shown(order)} exceeds supported cap {cap}")


def require_positive(name: str, value: float) -> float:
    """`value` as a float, if it is a finite positive real number.

    The one rule for every positive parameter of the package: x, k and p
    of a point, the k of a zeta and every kernel argument.  An int, a bool
    or a numpy scalar is accepted and converted, so it is computed in
    double precision; anything else, NaN, an infinity or a number past the
    largest double raises `DomainError` naming `name`.
    """
    if type(value) is float:
        real = value
    elif isinstance(value, numbers.Real):
        try:
            real = float(value)
        except OverflowError:  # an int past the largest double
            real = math.inf
    else:
        real = math.nan
    if 0.0 < real <= _FLOAT_MAX:
        return real
    raise DomainError(f"{name} must be a finite positive real, got {shown(value)}")


def domain_error(name: str, value: float, refusal: str) -> DomainError:
    """The `DomainError` that refuses `value`, the argument `name` of an
    operation, with the operation's own text `refusal`.

    A real past the largest double, as an int can be, is named as one
    instead, whatever the operation's domain: no float holds it, and
    converting it raises a bare `OverflowError`.
    """
    if _FLOAT_MAX < abs(value) < math.inf:
        return DomainError(f"{name} must be within the double range, got {shown(value)}")
    return DomainError(refusal)


def shown(value) -> str:
    """`repr(value)` for a refusal's text, or, for an int too long to
    convert to a decimal string (more than 4,300 digits by default from
    Python 3.11 on, a bare `ValueError`), its sign and bit length."""
    try:
        return repr(value)
    except ValueError:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"


def log_gamma(y: float) -> float:
    """ln Gamma(y) for y > 0.

    Backed by the platform lgamma, which is accurate to a few ulp on
    [1e-3, 1e3].
    """
    if not (type(y) is float and 0.0 < y <= _FLOAT_MAX):
        # raises unless y is a real number in range
        y = require_positive("y", y)
    return math.lgamma(y)


def stirling_series(y: float) -> float:
    """ln Gamma(y) - (y - 1/2) ln y + y, for y >= 10: ln(2 pi)/2 plus the
    Bernoulli terms through B_14; the first omitted one is below 3e-17.
    """
    y = require_positive("y", y)
    inv2 = 1.0 / (y * y)
    series = 0.0
    power = 1.0 / y
    for j, b2j in enumerate(_BERNOULLI, start=1):
        series += b2j / (2 * j * (2 * j - 1)) * power
        power *= inv2
    return _HALF_LOG_2PI + series


def _digamma(y: float) -> float:
    # Recurrence up to y >= 8, then the Stirling-type asymptotic series.
    # The B_14 term at y = 8 is ~1e-16 relative.
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


def polygamma(m: int, y: float) -> float:
    """psi^(m)(y): the m-th derivative of digamma's antiderivative ln Gamma.

    m = 0 is digamma; for m >= 1 the value is (-1)^(m+1) m! zeta_H(m+1, y).
    """
    check_order(m, 0, POLYGAMMA_MAX_ORDER, "polygamma")
    return _polygamma(m, require_positive("y", y))


# (-1)^(m+1) m! for m = 0..12, exact as floats
_SIGNED_FACTORIALS = tuple(
    float((-1) ** (m + 1) * math.factorial(m)) for m in range(POLYGAMMA_MAX_ORDER + 1)
)


def _polygamma(m: int, y: float) -> float:
    if m == 0:
        return _digamma(y)
    return _SIGNED_FACTORIALS[m] * hurwitz_zeta(m + 1, y)


def riemann_zeta(s: float) -> float:
    """zeta(s) = zeta_H(s, 1) for s > 1; no analytic continuation below."""
    if not 1.0 < s <= _FLOAT_MAX:
        raise domain_error("s", s, f"riemann_zeta requires s > 1, got {shown(s)}")
    return hurwitz_zeta(s, 1.0)


def hurwitz_zeta(s: float, a: float) -> float:
    """zeta_H(s, a) = sum_{n>=0} (n+a)^(-s), for s > 1 and a > 0.

    Direct summation of N terms, then an Euler-Maclaurin tail at
    M = N + a through B_14.  (n+a)^(-s) is completely monotone, so the
    remainder lies between 0 and the first omitted term, the B_16 term
    K(s) M^(-s-15), K(s) = |B_16|/16! Gamma(s+15)/Gamma(s).  N is the
    smallest count with that bound at most 2^-56 a^-s (`_direct_terms`);
    since zeta_H(s, a) >= a^-s, the remainder is at most `HURWITZ_REL_TOL`
    of the value.  N is 1 to 11 at every s and a of the double range
    (`_direct_terms`; Johansson, Rigorous high-precision computation of the
    Hurwitz zeta function and its derivatives, Numer. Algorithms 2015), so
    the direct sum reads its counts n from the row of `_COUNTS` for N:
    floats, exact, so each n + a rounds as with an int n, which would be
    converted to a float on every term.  The bound is
    checked once; a value it does not certify, or one that overflows,
    raises `ComputationOverflowError`.  The Euler-Maclaurin coefficients
    are read from `_EM_ROWS` at the integer s of psi^(1..12) and formed on
    the call at any other s, bit for bit as `_em_row` forms them; where
    M^(-s-1) underflows to 0 they are not formed.
    Inside a `memoised()` block each (s, a) is computed once, as under
    `memo`.
    """
    # checked inline, not through `memo`: most calls run outside a block,
    # where a wrapper's extra frame is measurable
    tables = active_cache()
    if tables is not None:
        zetas = tables.get(hurwitz_zeta)
        value = None if zetas is None else zetas.get((s, a))
        if value is not None:
            return value
    if not 1.0 < s <= _FLOAT_MAX:
        raise domain_error("s", s, f"hurwitz_zeta requires s > 1, got {shown(s)}")
    if not (type(a) is float and 0.0 < a <= _FLOAT_MAX):
        # raises unless a is a real number in range
        a = require_positive("a", a)

    try:
        n_terms = _direct_terms(s, a)
        minus_s = -s
        head = 0.0
        for n in _COUNTS[n_terms]:  # small terms first
            head += (n + a) ** minus_s
    except OverflowError:
        # a^-s beyond the double range (a < 1)
        raise ComputationOverflowError(
            f"hurwitz_zeta({s}, {a}) overflows double precision"
        ) from None

    big_m = n_terms + a
    tail = big_m ** (1.0 - s) / (s - 1.0) + 0.5 * big_m ** minus_s
    m_power = big_m ** (minus_s - 1.0)
    correction = bound = 0.0
    if m_power:
        # else every correction and the bound are 0, while K(s) may be inf
        m_squared = big_m * big_m
        row = _EM_ROWS.get(s)
        if row is None:
            # the coefficients of `_em_row`, with the same operations in the
            # same order
            f1, f2, f3, f4, f5, f6, f7, f8 = _EM_FACTORS
            rising = s
            c1 = f1 * rising
            rising *= (s + 1.0) * (s + 2.0)
            c2 = f2 * rising
            rising *= (s + 3.0) * (s + 4.0)
            c3 = f3 * rising
            rising *= (s + 5.0) * (s + 6.0)
            c4 = f4 * rising
            rising *= (s + 7.0) * (s + 8.0)
            c5 = f5 * rising
            rising *= (s + 9.0) * (s + 10.0)
            c6 = f6 * rising
            rising *= (s + 11.0) * (s + 12.0)
            c7 = f7 * rising
            rising *= (s + 13.0) * (s + 14.0)
            k_s = f8 * rising
        else:
            (c1, c2, c3, c4, c5, c6, c7), k_s = row
        correction += c1 * m_power
        m_power /= m_squared
        correction += c2 * m_power
        m_power /= m_squared
        correction += c3 * m_power
        m_power /= m_squared
        correction += c4 * m_power
        m_power /= m_squared
        correction += c5 * m_power
        m_power /= m_squared
        correction += c6 * m_power
        m_power /= m_squared
        correction += c7 * m_power
        m_power /= m_squared
        bound = k_s * m_power

    value = head + tail + correction
    # the floor keeps a subnormal value from failing on rounding alone
    if not bound <= HURWITZ_REL_TOL * value + ABS_TOL < math.inf:
        raise ComputationOverflowError(
            f"hurwitz_zeta({s}, {a}): the remainder bound after {n_terms} "
            f"terms exceeds 2^-56 of the value {value}"
        )
    if tables is not None:
        tables.setdefault(hurwitz_zeta, {})[(s, a)] = value
    return value


def _em_row(s: float) -> tuple:
    # (B_2j/(2j)!) s(s+1)...(s+2j-2) for j = 1..7, the Euler-Maclaurin
    # corrections through B_14, and K(s), the same with |B_16| at j = 8
    row = []
    rising = s
    for coefficient, low, high in _EM_STEPS:
        row.append(coefficient * rising)
        rising *= (s + low) * (s + high)
    return tuple(row[:-1]), row[-1]


def _log_k(s: float) -> float:
    # ln K(s) = ln(|B_16|/16!) + ln Gamma(s+15) - ln Gamma(s), which is
    # ln(|B_16|/16!) + sum_(i<15) ln(s+i); finite where K(s) itself overflows
    if s < _LOG_K_SUM_S:
        return _LOG_B16_TERM + math.lgamma(s + 15.0) - math.lgamma(s)
    return _LOG_B16_TERM + sum(math.log(s + i) for i in range(15))


def _direct_terms(s: float, a: float) -> int:
    """Smallest N >= 1 with K(s) (N + a)^(-s-15) <= 2^-56 a^-s.

    That is ln(1 + N/a) >= d = (ln K(s) + 56 ln 2 - 15 ln a)/(s + 15), so
    N = a (e^d - 1), formed with expm1: the s ln a on both sides cancels
    before it is rounded, and d stays finite at every s.

    N is at most 11 at every s > 1 and a > 0.  With C = 2^56 K(s),
    a (e^d - 1) = C^(1/(s+15)) a^(s/(s+15)) - a peaks at
    a* = (C^(1/(s+15)) s/(s+15))^((s+15)/15), where it is 15 a*/s.  That
    peak rises with s from 9.82 at s = 1 towards
    15 e^((ln(|B_16|/16!) + 56 ln 2)/15 - 1) = 10.82, so its ceiling is
    at most 11.  `_COUNTS` holds rows up to N = 12, one past that.
    """
    log_k = _LOG_K.get(s)
    if log_k is None:
        log_k = _log_k(s)
    d = (log_k + _LOG_INV_REL_TOL - 15.0 * math.log(a)) / (s + 15.0)
    n_terms = math.ceil(a * math.expm1(d))
    return n_terms if n_terms > 1 else 1


#: The counts of `hurwitz_zeta`'s direct sum of N terms, small terms first:
#: row N is (N - 1.0, ..., 1.0, 0.0), for every N `_direct_terms` returns
_COUNTS = tuple(tuple(map(float, range(n - 1, -1, -1))) for n in range(13))


# The integer exponents of psi^(1..12): their rows and ln K(s), formed once
# exactly as `_em_row` and `_log_k` form them for any other s.
_EM_ROWS = {s: _em_row(s) for s in map(float, range(2, POLYGAMMA_MAX_ORDER + 2))}
_LOG_K = {s: _log_k(s) for s in _EM_ROWS}


def check_deriv_order(n: int) -> None:
    """Refuse a derivative order outside 0..GAMMA_DERIV_MAX_ORDER."""
    check_order(n, 0, GAMMA_DERIV_MAX_ORDER, "derivative")


@memo
def _polygammas(n_max: int, y: float) -> list[float]:
    # [psi(y), psi'(y), ..., psi^(n_max - 1)(y)], NaN where one overflows;
    # inside a block shared by every c at y, so no caller may change it
    psis = []
    for m in range(n_max):
        try:
            psis.append(_polygamma(m, y))
        except OverflowError:
            psis.append(math.nan)
    return psis


def bell_sequence(n_max: int, y: float, c: float) -> list[float]:
    """[B_0, ..., B_n_max]: complete Bell polynomials of the cumulants
    kappa_1 = log c + psi(y) and kappa_(i+1) = psi^(i)(y), for c > 0.

    B_(j+1) = sum_i C(j, i) B_(j-i) kappa_(i+1), summed in order of i.
    B_j depends on kappa_1..kappa_j alone, so a prefix equals the
    lower-order sequence exactly.  If psi^(i)(y) overflows, B_(i+1) and
    every later entry are NaN.  A y that is not a finite positive real is
    refused at every n_max, 0 included.  Inside a `memoised()` block every
    c at one (n_max, y) reads the same psi^(i)(y).
    """
    check_deriv_order(n_max)
    y = require_positive("y", y)
    log_c = math.log(c)
    kappas = []
    if n_max:
        psis = _polygammas(n_max, y)
        kappas = [log_c + psis[0], *psis[1:n_max]]  # a copy: psis is shared
    bell = [1.0]
    for j in range(n_max):
        binomial = _BINOMIAL[j]
        total = 0.0
        for i in range(j + 1):
            total += binomial[i] * bell[j - i] * kappas[i]
        bell.append(total)
    return bell


def gamma_deriv_sequence(n_max: int, y: float) -> list[float]:
    """[Gamma(y), Gamma'(y), ..., Gamma^(n_max)(y)] as Gamma(y) B_j.

    B_j are the Bell polynomials of `bell_sequence` with c = 1, that is
    kappa_1 = psi(y): the cumulants of Gamma are the derivatives of ln Gamma.
    """
    bell = bell_sequence(n_max, y, 1.0)
    lg = log_gamma(y)
    if lg > LOG_MAX:
        raise ComputationOverflowError(f"Gamma({y}) overflows double precision")
    gamma = math.exp(lg)
    derivs = []
    for j, b in enumerate(bell):
        d = gamma * b
        if not math.isfinite(d):
            raise ComputationOverflowError(f"Gamma^({j})({y}) overflows double precision")
        derivs.append(d)
    return derivs
