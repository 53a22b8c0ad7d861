"""Kernel-level tests: classical gamma / polygamma / zeta building blocks.

Expected values are either exact closed forms (pi**2/6 and friends) or
frozen from the brute-force series oracles defined at the top of this
file; mpmath provides an additional arbitrary-precision cross-check.
"""

import contextlib
import math
import random
import re
import struct
import sys
import threading

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgamma import kernels
from kgamma.policy import (
    ABS_TOL,
    ComputationOverflowError,
    DomainError,
    UnsupportedOrderError,
)

EULER_GAMMA = 0.5772156649015329
mp.mp.dps = 40


def brute_zeta(s: float, terms: int = 200_000) -> float:
    """Direct series with an integral tail bound: independent of the kernel."""
    head = sum(n ** (-s) for n in range(terms, 0, -1))
    return head + terms ** (1 - s) / (s - 1)  # tail ~ int_terms^inf t^-s dt


def brute_hurwitz(s: float, a: float, terms: int = 200_000) -> float:
    head = sum((n + a) ** (-s) for n in range(terms - 1, -1, -1))
    return head + (terms + a) ** (1 - s) / (s - 1)


def row_hurwitz(s: float, a: float) -> float:
    """`hurwitz_zeta` outside a block, with its Euler-Maclaurin coefficients
    read from the whole `_em_row(s)` row, built before the correction loop
    runs, at every s: the reference of the loop that forms them in turn.
    Like `hurwitz_zeta`, it forms no correction and no bound where M^(-s-1)
    underflows to 0."""
    corrections, k_s = kernels._EM_ROWS.get(s) or kernels._em_row(s)
    try:
        n_terms = kernels._direct_terms(s, a)
        head = 0.0
        for n in range(n_terms - 1, -1, -1):
            head += (n + a) ** (-s)
    except OverflowError:
        raise ComputationOverflowError(
            f"hurwitz_zeta({s}, {a}) overflows double precision") from None
    big_m = n_terms + a
    tail = big_m ** (1.0 - s) / (s - 1.0) + 0.5 * big_m ** (-s)
    m_power = big_m ** (-s - 1.0)
    correction = bound = 0.0
    if m_power:  # as in `hurwitz_zeta`: above s ~ 3.55e20 K(s) is inf
        m_squared = big_m * big_m
        for coefficient in corrections:
            correction += coefficient * m_power
            m_power /= m_squared
        bound = k_s * m_power
    value = head + tail + correction
    if not bound <= kernels.HURWITZ_REL_TOL * value + ABS_TOL < math.inf:
        raise ComputationOverflowError(
            f"hurwitz_zeta({s}, {a}): the remainder bound after {n_terms} "
            f"terms exceeds 2^-56 of the value {value}")
    return value


#: ln a^-s at the ends of the double range: the largest double, the
#: smallest normal, and where a^-s rounds to 0
_RANGE_LOGS = (math.log(sys.float_info.max), math.log(sys.float_info.min), -745.13)


@st.composite
def hurwitz_arguments(draw):
    """(s, a): s fractional in (1, 40], or up to 1e25 on both sides of
    1e20 and of the overflow of K(s) near 3.55e20; a log-uniform on
    [1e-3, 1e3], or within a few ulps of where a^-s leaves the double range."""
    s = draw(st.one_of(
        st.floats(min_value=1.0, max_value=40.0, exclude_min=True).filter(
            lambda s: not s.is_integer()),
        st.floats(min_value=math.log10(40.0), max_value=25.0).map(lambda e: 10.0**e),
        st.sampled_from((math.nextafter(1e20, 0.0), 1e20, 3.550703192779521e20,
                         3.5507031927795214e20, 1e25)),
    ))
    if draw(st.booleans()):
        return s, 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0))
    # below s = 1.05 the underflow edge is beyond the double range itself
    a = math.exp(min(-draw(st.sampled_from(_RANGE_LOGS)) / s, 709.0))
    steps = draw(st.integers(min_value=-4, max_value=4))
    for _ in range(abs(steps)):
        a = math.nextafter(a, math.inf if steps > 0 else 0.0)
    return s, a


def _peak_argument(s):
    # a* = (C^(1/(s+15)) s/(s+15))^((s+15)/15), C = 2^56 K(s), where
    # a (e^d - 1), the direct-term count before rounding up, peaks (see
    # `_direct_terms`), formed in logs
    log_c = kernels._log_k(s) + kernels._LOG_INV_REL_TOL
    return math.exp(log_c / 15.0 + (s + 15.0) / 15.0 * math.log1p(-15.0 / (s + 15.0)))


@st.composite
def direct_term_arguments(draw):
    """(s, a) over the whole double range: s from 1 + 1e-15 to the largest
    double, a from the least subnormal to the largest double, or within a
    factor of 8 of the peak a*(s), where the count is largest."""
    s = draw(st.one_of(
        st.floats(min_value=1.0, max_value=sys.float_info.max, exclude_min=True),
        st.floats(min_value=-15.0, max_value=308.0).map(lambda e: 1.0 + 10.0**e),
    ))
    if draw(st.booleans()):
        return s, draw(st.one_of(
            st.floats(min_value=5e-324, max_value=sys.float_info.max),
            st.floats(min_value=-323.0, max_value=308.0).map(lambda e: 10.0**e),
        ))
    factor = 2.0 ** draw(st.floats(min_value=-3.0, max_value=3.0))
    return s, min(_peak_argument(s) * factor, sys.float_info.max)


def _bits_or_error(call):
    try:
        return call().hex()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


class TestLogGamma:
    def test_at_one(self):
        assert kernels.log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_factorial(self):
        assert kernels.log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_half(self):
        assert kernels.log_gamma(0.5) == pytest.approx(
            0.5 * math.log(math.pi), rel=1e-14
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            kernels.log_gamma(bad)

    def test_recurrence(self):
        # Gamma(y+1) = y Gamma(y)
        for i in range(96):
            y = 0.5 + i * 0.1
            lhs = math.exp(kernels.log_gamma(y + 1.0))
            rhs = y * math.exp(kernels.log_gamma(y))
            assert abs(lhs - rhs) <= 1e-11 * lhs

    def test_accuracy_range(self):
        for y in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3):
            ref = float(mp.loggamma(mp.mpf(y)))
            got = kernels.log_gamma(y)
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestPolygamma:
    def test_digamma_at_one(self):
        assert kernels.polygamma(0, 1.0) == pytest.approx(-EULER_GAMMA, rel=1e-12)

    def test_trigamma_at_one(self):
        assert kernels.polygamma(1, 1.0) == pytest.approx(
            math.pi**2 / 6.0, rel=1e-12
        )

    def test_digamma_at_two(self):
        # psi(y+1) = psi(y) + 1/y
        assert kernels.polygamma(0, 2.0) == pytest.approx(
            1.0 - EULER_GAMMA, rel=1e-12
        )

    @pytest.mark.parametrize("m", range(7))
    def test_recurrence(self, m):
        # psi^(m)(y+1) - psi^(m)(y) = (-1)^m m! y^-(m+1)
        for y in (0.5, 1.0, 2.3, 5.0, 10.0):
            delta = kernels.polygamma(m, y + 1.0) - kernels.polygamma(m, y)
            expected = (-1.0) ** m * math.factorial(m) * y ** (-(m + 1))
            assert delta == pytest.approx(expected, rel=1e-11)

    @given(
        m=st.integers(min_value=1, max_value=8),
        y=st.floats(min_value=0.05, max_value=50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_sign_pattern(self, m, y):
        value = kernels.polygamma(m, y)
        assert math.copysign(1.0, value) == (-1.0) ** (m + 1)

    def test_against_mpmath(self):
        for m in range(0, 9):
            for y in (0.3, 1.0, 2.5, 7.0):
                ref = float(mp.polygamma(m, mp.mpf(y)))
                assert kernels.polygamma(m, y) == pytest.approx(ref, rel=1e-11)

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            kernels.polygamma(13, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            kernels.polygamma(1, -1.0)
        with pytest.raises(DomainError):
            kernels.polygamma(-1, 1.0)
        # True == 1, but a bool is not an order: no psi'(1) comes back
        for m in (True, False, 1.0):
            for block in (contextlib.nullcontext, kernels.memoised):
                with block(), pytest.raises(DomainError) as refused:
                    kernels.polygamma(m, 1.0)
                assert str(refused.value) == (
                    f"polygamma order must be a non-negative integer, got {m!r}")


class TestRiemannZeta:
    def test_two(self):
        assert kernels.riemann_zeta(2.0) == pytest.approx(
            math.pi**2 / 6.0, rel=1e-12
        )

    def test_four(self):
        assert kernels.riemann_zeta(4.0) == pytest.approx(
            math.pi**4 / 90.0, rel=1e-12
        )

    def test_brute_series(self):
        for s in (1.5, 2.0, 3.0, 6.5):
            assert kernels.riemann_zeta(s) == pytest.approx(
                brute_zeta(s), rel=1e-8
            )

    def test_large_argument_asymptote(self):
        # zeta(s) = 1 + 2^-s + O(3^-s)
        assert abs(kernels.riemann_zeta(40.0) - 1.0 - 2.0**-40) < 2.0 * 3.0**-40

    @pytest.mark.parametrize("bad", [1.0, 0.5, -2.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            kernels.riemann_zeta(bad)

    @pytest.mark.parametrize("big", [10**400, -10**400])
    def test_int_past_the_double_range_is_refused_by_name(self, big):
        # no float holds it: a DomainError naming s, not a bare OverflowError
        with pytest.raises(DomainError, match="^s must be within the double range, got"):
            kernels.riemann_zeta(big)


class TestHurwitzZeta:
    def test_reduces_to_riemann(self):
        for s in (2.0, 3.0, 4.0):
            assert kernels.hurwitz_zeta(s, 1.0) == pytest.approx(
                kernels.riemann_zeta(s), rel=1e-13
            )

    def test_half(self):
        # sum 1/(n + 1/2)^2 = pi^2/2
        assert kernels.hurwitz_zeta(2.0, 0.5) == pytest.approx(
            math.pi**2 / 2.0, rel=1e-12
        )

    def test_shift_identity_spot(self):
        lhs = kernels.hurwitz_zeta(3.0, 2.7)
        rhs = kernels.hurwitz_zeta(3.0, 1.7) - 1.7**-3.0
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_shift_identity_random_grid(self):
        rng = random.Random(20240823)
        for _ in range(100):
            s = rng.uniform(1.1, 10.0)
            a = rng.uniform(0.05, 20.0)
            lhs = kernels.hurwitz_zeta(s, a + 1.0)
            rhs = kernels.hurwitz_zeta(s, a) - a**-s
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-13)

    @given(
        s=st.floats(min_value=1.2, max_value=12.0),
        a=st.floats(min_value=0.1, max_value=25.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_mpmath(self, s, a):
        ref = float(mp.zeta(mp.mpf(s), mp.mpf(a)))
        assert kernels.hurwitz_zeta(s, a) == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("m", range(1, kernels.POLYGAMMA_MAX_ORDER + 1))
    @pytest.mark.parametrize("exponent", [float, int])
    def test_tabled_orders_are_the_row_bit_for_bit(self, m, exponent):
        # the integer s = m + 1 of psi^(m), as the float of `_EM_ROWS` and as
        # the int that `_polygamma` passes: the same float bits, or the same
        # error type and message, at a log-uniform a and within a few ulps
        # of where a^-s leaves the double range
        s = exponent(m + 1)
        rng = random.Random(m)
        args = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(40)]
        for log in _RANGE_LOGS:
            edge = math.exp(min(-log / s, 709.0))
            for direction in (0.0, math.inf):
                a = edge
                for _ in range(4):
                    a = math.nextafter(a, direction)
                    args.append(a)
            args.append(edge)
        outcomes = [_bits_or_error(lambda: kernels.hurwitz_zeta(s, a)) for a in args]
        assert outcomes == [_bits_or_error(lambda: row_hurwitz(s, a)) for a in args]

    @given(hurwitz_arguments())
    # about 1 (s, a) in 3,000 moves its last bit when the correction sum
    # rounds once differently, (factor * (rising * m_power)) for one: these
    # three do
    @example((2.320480111801099, 55.29331596288501))
    @example((20.300473586589675, 147.50004100882884))
    @example((35.560632309218526, 75.4089811017187))
    @settings(max_examples=1000, deadline=None)
    def test_coefficients_formed_in_the_loop_are_the_row_bit_for_bit(self, args):
        # the same float bits, or the same error type and message
        assert _bits_or_error(lambda: kernels.hurwitz_zeta(*args)) == _bits_or_error(
            lambda: row_hurwitz(*args))

    def test_brute_series(self):
        assert kernels.hurwitz_zeta(2.5, 0.8) == pytest.approx(
            brute_hurwitz(2.5, 0.8), rel=1e-7
        )

    def test_accuracy_against_50_digits(self):
        # integer s (the polygamma orders) and fractional s (k-zeta,
        # fractional polygamma), a log-uniform over six decades
        rng = random.Random(300)
        worst = 0.0
        with mp.workdps(50):
            for i in range(300):
                s = float(rng.randint(2, 14)) if i % 2 else 14.0 - 13.0 * rng.random()
                a = 10.0 ** rng.uniform(-3.0, 3.0)
                ref = mp.zeta(s, a)
                err = abs((mp.mpf(kernels.hurwitz_zeta(s, a)) - ref) / ref)
                worst = max(worst, float(err))
        assert worst <= 1e-15

    @pytest.mark.parametrize("s", [1e3, 1e6, 1e10, 1e15, 1e20, 1e25, 1e100, 1e300,
                                   3e307, 1e308])
    @pytest.mark.parametrize("a", [1e-3, 1.0, 1.5, 10.0, 1e3])
    def test_large_s_is_the_nearest_double_or_overflows(self, s, a):
        # above s ~ 3e20 K(s) overflows; the sum must still not meet inf * 0.
        # ln K(s) sizes the sum up to the largest double (it was 0 above
        # 2^53 and overflowed near 2.5e305), and one term where s ln a
        # overflows (s = 1e308, a = 10 or 1e3; s = 3e307, a = 1e3)
        with mp.workdps(50):
            ref = float(mp.zeta(mp.mpf(s), mp.mpf(a)))
        if ref == math.inf:
            name = re.escape(f"hurwitz_zeta({s}, {a})")
            with pytest.raises(ComputationOverflowError, match=name):
                kernels.hurwitz_zeta(s, a)
        else:
            assert kernels.hurwitz_zeta(s, a) == ref

    @pytest.mark.parametrize("s", [2.5, 500.0, math.nextafter(1e3, 0.0), 1e3,
                                   1e15, 1e16, 1e18, 1e308])
    def test_log_k_at_any_s(self, s):
        # ln K(s) = ln(|B_16|/16! s(s+1)...(s+14)), in 50 digits, on both
        # sides of the switch from the lgamma difference to the log sum
        with mp.workdps(50):
            rising = mp.fprod(mp.mpf(s) + i for i in range(15))
            ref = mp.log(mp.mpf(3617) / 510 / mp.factorial(16) * rising)
            assert abs(kernels._log_k(s) - ref) <= 1e-13 * abs(ref)

    def test_overflowing_power_is_typed(self):
        # 0.5^-2000 = 2^2000 is beyond the double range, and so is
        # (1e-200)^-2 with an int s, raised as the float power of a count
        with pytest.raises(ComputationOverflowError, match=r"hurwitz_zeta\(2000, 0.5\)"):
            kernels.hurwitz_zeta(2000, 0.5)
        with pytest.raises(ComputationOverflowError,
                           match=r"^hurwitz_zeta\(2, 1e-200\) overflows double precision$"):
            kernels.hurwitz_zeta(2, 1e-200)

    def test_domain(self):
        with pytest.raises(DomainError):
            kernels.hurwitz_zeta(1.0, 1.0)
        with pytest.raises(DomainError):
            kernels.hurwitz_zeta(2.0, 0.0)

    def test_uncertified_remainder_is_refused(self, monkeypatch):
        # `_direct_terms` certifies every (s, a) of the double range, but
        # the bound is still checked: after one term at a = 1e-3 the B_16
        # bound K(2) M^-17, about 7, is far above 2^-56 of the value
        monkeypatch.setattr(kernels, "_direct_terms", lambda s, a: 1)
        with pytest.raises(ComputationOverflowError,
                           match=r"^hurwitz_zeta\(2\.0, 0\.001\): the remainder bound "
                                 r"after 1 terms exceeds 2\^-56 of the value 1000002\.59"):
            kernels.hurwitz_zeta(2.0, 1e-3)

    @pytest.mark.parametrize("big", [10**400, -10**400])
    def test_int_past_the_double_range_is_refused_by_name(self, big):
        # an s no float holds: a DomainError naming s, not a bare
        # OverflowError; an in-range s <= 1 keeps its own text
        with pytest.raises(DomainError, match="^s must be within the double range, got"):
            kernels.hurwitz_zeta(big, 1.0)
        with pytest.raises(DomainError, match=r"^hurwitz_zeta requires s > 1, got -1e\+300$"):
            kernels.hurwitz_zeta(-1e300, 1.0)


class TestDirectTerms:
    """`hurwitz_zeta` sums N direct terms, the least N whose B_16 remainder
    bound K(s) (N + a)^(-s-15), K(s) = |B_16|/16! s(s+1)...(s+14), is at
    most 2^-56 a^-s."""

    @staticmethod
    def bound_ratio(s, a, n):
        # the remainder bound at n direct terms over 2^-56 a^-s, in 30 digits
        with mp.workdps(30):
            s, a = mp.mpf(s), mp.mpf(a)
            k = mp.mpf(3617) / 510 / mp.factorial(16) * mp.rf(s, 15)
            return k * (n + a) ** (-s - 15) * 2**56 * a**s

    def test_least_count_meeting_the_bound(self):
        rng = random.Random(56)
        for i in range(300):
            s = float(rng.randint(2, 40)) if i % 2 else 40.0 - 39.0 * rng.random()
            a = 10.0 ** rng.uniform(-3.0, 3.0)
            n = kernels._direct_terms(s, a)
            assert n >= 1
            assert self.bound_ratio(s, a, n) <= 1 + 1e-9
            if n > 1:
                assert self.bound_ratio(s, a, n - 1) > 1 - 1e-9

    def test_least_count_at_large_order(self):
        # from s ~ 1e15 on, E = (ln K + s ln a + 56 ln 2)/(s + 15) rounds to
        # ln a, and a count formed as e^E - a would cancel: to 2.6e10 at
        # (1e18, 1e25) and 1.3e8 at (1e17 + 1, 2.72e23), where one term is
        # enough.  Checked in the log form ln(1 + N/a), at 60 digits.
        def log_ratio(s, a, n):
            # ln of the remainder bound at n direct terms over 2^-56 a^-s
            with mp.workdps(60):
                s, a = mp.mpf(s), mp.mpf(a)
                log_k = mp.log(mp.mpf(3617) / 510 / mp.factorial(16) * mp.rf(s, 15))
                return (log_k + 56 * mp.log(2) - 15 * mp.log(n + a)
                        - s * mp.log1p(n / a))

        assert kernels._direct_terms(1e18, 1e25) == 1
        assert kernels._direct_terms(1e17 + 1, 2.72e23) == 1
        rng = random.Random(1015)
        cases = [(10.0 ** rng.uniform(1.6, 25.0), 10.0 ** rng.uniform(-3.0, 30.0))
                 for _ in range(200)]
        for s, a in cases + [(60.0, 0.5)]:
            n = kernels._direct_terms(s, a)
            assert n >= 1
            assert log_ratio(s, a, n) <= 1e-9
            if n > 1:
                assert log_ratio(s, a, n - 1) > -1e-9

    def test_count_at_the_largest_argument(self):
        # a = the largest double: zeta_H(s, a) ~ a^(1-s)/(s-1) is 0.0 from
        # s = 3 on, which the sum returns after one term; from s ~ 4e17 on,
        # a count formed from e^E, as above, would overflow
        for s in (3.0, 1e18, 1e20, 1e300):
            assert kernels._direct_terms(s, sys.float_info.max) == 1
            assert kernels.hurwitz_zeta(s, sys.float_info.max) == 0.0

    def test_at_most_twelve_terms(self):
        ss = [1.0 + 39.0 * i / 200 for i in range(1, 201)] + [1.0 + 1e-9, 1.001]
        aas = [10.0 ** (-3.0 + 6.0 * j / 300) for j in range(301)]
        assert max(kernels._direct_terms(s, a) for s in ss for a in aas) <= 12

    @given(direct_term_arguments())
    @settings(max_examples=1000, deadline=None)
    def test_at_most_eleven_terms_over_the_double_range(self, args):
        assert 1 <= kernels._direct_terms(*args) <= 11

    @pytest.mark.parametrize("s", [1.0 + 1e-15, 1.001, 1.5, 2.0, 4.0, 7.5, 13.0, 14.0,
                                   40.0, 1e6, 1e300])
    def test_eleven_terms_at_the_peak(self, s):
        # a dense scan about a*(s): N never passes 11, and from s = 2 on it
        # reaches it, so the table's largest row read is row 11
        peak = _peak_argument(s)
        counts = [kernels._direct_terms(s, peak * 2.0 ** (j / 500)) for j in range(-1000, 1001)]
        assert max(counts) == (10 if s < 2.0 else 11)

    def test_count_rows_are_the_int_counts(self):
        # row N is the floats of range(N - 1, -1, -1), for every N up to 12
        assert len(kernels._COUNTS) == 13
        for n, row in enumerate(kernels._COUNTS):
            assert row == tuple(map(float, range(n - 1, -1, -1)))
            assert all(type(count) is float for count in row)


class TestGammaDerivSequence:
    def test_zeroth(self):
        assert kernels.gamma_deriv_sequence(0, 2.5) == [
            pytest.approx(math.exp(kernels.log_gamma(2.5)))
        ]

    def test_first_at_one(self):
        seq = kernels.gamma_deriv_sequence(1, 1.0)
        assert seq[1] == pytest.approx(-EULER_GAMMA, rel=1e-12)

    def test_second_at_one(self):
        seq = kernels.gamma_deriv_sequence(2, 1.0)
        # Gamma'' = Gamma (psi^2 + psi') at y = 1
        assert seq[2] == pytest.approx(
            EULER_GAMMA**2 + math.pi**2 / 6.0, rel=1e-12
        )

    def test_finite_difference_first_derivative(self):
        h = 1e-5
        for i in range(41):
            y = 1.0 + 0.1 * i
            fd = (
                math.exp(kernels.log_gamma(y + h))
                - math.exp(kernels.log_gamma(y - h))
            ) / (2.0 * h)
            assert kernels.gamma_deriv_sequence(1, y)[1] == pytest.approx(
                fd, rel=1e-6
            )

    def test_against_mpmath_high_order(self):
        for y in (0.7, 1.0, 3.2):
            seq = kernels.gamma_deriv_sequence(6, y)
            for j in range(7):
                ref = float(mp.diff(mp.gamma, mp.mpf(y), j))
                assert seq[j] == pytest.approx(ref, rel=1e-11)

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            kernels.gamma_deriv_sequence(9, 1.0)
        for n in (True, False):
            for block in (contextlib.nullcontext, kernels.memoised):
                for refuse in (kernels.check_deriv_order,
                               lambda n: kernels.gamma_deriv_sequence(n, 1.0)):
                    with block(), pytest.raises(DomainError) as refused:
                        refuse(n)
                    assert str(refused.value) == (
                        f"derivative order must be a non-negative integer, got {n}")

    def test_overflow_fails_loudly(self):
        with pytest.raises(OverflowError):
            kernels.gamma_deriv_sequence(1, 200.0)

    def test_overflowing_derivative_is_typed(self):
        # Gamma(171) = 7.3e306 and Gamma'(171) = 3.7e307 are finite, while
        # Gamma''(171) = Gamma (psi^2 + psi'), about 26 Gamma, is not
        with pytest.raises(ComputationOverflowError,
                           match=r"^Gamma\^\(2\)\(171\.0\) overflows double precision$"):
            kernels.gamma_deriv_sequence(2, 171.0)

    def test_largest_finite_gamma(self):
        # ln Gamma(171.624) = 709.7808 is below ln(max double) = 709.7827:
        # Gamma is 1.794e308, finite, and no overflow is raised
        assert kernels.gamma_deriv_sequence(0, 171.624) == [
            pytest.approx(float(mp.gamma(171.624)), rel=1e-13)]

    @pytest.mark.parametrize("y", [0.05, 0.7, 1.0, 3.2, 17.5, 150.0])
    def test_prefix_stable(self, y):
        # the scan cache serves every order from one full-order sequence
        full = kernels.gamma_deriv_sequence(kernels.GAMMA_DERIV_MAX_ORDER, y)
        for n in range(kernels.GAMMA_DERIV_MAX_ORDER + 1):
            assert full[: n + 1] == kernels.gamma_deriv_sequence(n, y)


class TestBellSequence:
    def test_gamma_sequence_is_gamma_times_bell(self):
        # c = 1 makes u = psi(y): the cumulants of Gamma itself
        for y in (0.3, 1.0, 7.5):
            gamma = math.exp(kernels.log_gamma(y))
            bell = kernels.bell_sequence(8, y, 1.0)
            assert kernels.gamma_deriv_sequence(8, y) == [gamma * b for b in bell]

    def test_low_orders_in_closed_form(self):
        y, c = 2.5, 0.3
        u = math.log(c) + kernels.polygamma(0, y)
        p1, p2 = kernels.polygamma(1, y), kernels.polygamma(2, y)
        bell = kernels.bell_sequence(3, y, c)
        assert bell[:2] == [1.0, u]
        assert bell[2] == pytest.approx(u * u + p1, rel=1e-15)
        assert bell[3] == pytest.approx(u**3 + 3.0 * u * p1 + p2, rel=1e-15)

    @pytest.mark.parametrize("y", [0.05, 1.0, 17.5])
    def test_prefix_stable(self, y):
        full = kernels.bell_sequence(kernels.GAMMA_DERIV_MAX_ORDER, y, 2.0)
        for n in range(kernels.GAMMA_DERIV_MAX_ORDER + 1):
            assert full[: n + 1] == kernels.bell_sequence(n, y, 2.0)

    def test_polygamma_overflow_is_nan_from_its_order_on(self):
        # psi^(7)(1e-40) ~ 7! 1e320 overflows; psi^(0..6) do not
        bell = kernels.bell_sequence(8, 1e-40, 1.0)
        assert all(math.isfinite(b) for b in bell[:8]) and math.isnan(bell[8])


def _bits(values: list) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


class TestKernelCache:
    """`hurwitz_zeta` keeps its own table of the block, and `bell_sequence`
    reads the `memo` table of `_polygammas`: same bits and errors as
    outside a block, one computation per argument."""

    def test_values_identical_to_kernels(self):
        zetas = {(s, a): kernels.hurwitz_zeta(s, a)
                 for s, a in ((2.0, 0.5), (3.5, 1.0), (13.0, 7.25))}
        riemann = kernels.riemann_zeta(3.0)
        bells = {(n, c): kernels.bell_sequence(n, 2.5, c)
                 for c in (2.0, 0.5, 1.0)
                 for n in range(kernels.GAMMA_DERIV_MAX_ORDER + 1)}
        with kernels.memoised() as tables:
            for _ in range(2):  # the second pass is served from the table
                for (s, a), value in zetas.items():
                    assert kernels.hurwitz_zeta(s, a) == value
                assert kernels.riemann_zeta(3.0) == riemann
                # the Bell sequences read psi^(j)(2.5) from the zeta table
                for (n, c), bell in bells.items():
                    assert kernels.bell_sequence(n, 2.5, c) == bell
            stored = set(tables[kernels.hurwitz_zeta])
            assert stored >= {(float(s), 2.5) for s in range(2, 9)}
            # riemann_zeta(s) is zeta_H(s, 1): one entry of the same table
            assert stored >= {*zetas, (3.0, 1.0)}

    def test_errors_match_kernels(self):
        for bad_call in (
            lambda: kernels.bell_sequence(9, 1.0, 1.0),
            lambda: kernels.bell_sequence(-1, 1.0, 1.0),
            lambda: kernels.bell_sequence(2, -1.0, 1.0),
            lambda: kernels.hurwitz_zeta(1.0, 1.0),
            lambda: kernels.hurwitz_zeta(2000, 0.5),  # a^-s overflows
            lambda: kernels.riemann_zeta(math.inf),
        ):
            with pytest.raises(Exception) as direct:
                bad_call()
            with kernels.memoised() as tables:
                for _ in range(2):  # raised again: the first call stored nothing
                    with pytest.raises(type(direct.value)) as cached:
                        bad_call()
                    assert str(cached.value) == str(direct.value)
            assert tables == {}

    def test_bell_sequences_at_one_y_share_its_cumulants(self):
        # several c at one y, outside a block and inside one, bit for bit;
        # psi^(7)(1e-40) and psi^(1..7)(1e-300) overflow to NaN entries
        ys = (2.5, 1e-40, 1e-300)
        orders = (kernels.GAMMA_DERIV_MAX_ORDER, 3)
        calls = [(n, y, c) for y in ys for c in (1.0, 0.5, 2.0, 1e-3, 7.0)
                 for n in orders]
        direct = [_bits(kernels.bell_sequence(*call)) for call in calls]
        assert any(math.isnan(b) for b in kernels.bell_sequence(8, 1e-300, 2.0))
        psis = {y: [kernels.polygamma(0, y)] for y in ys}
        for y in ys:
            for m in range(1, kernels.GAMMA_DERIV_MAX_ORDER):
                try:
                    psis[y].append(kernels.polygamma(m, y))
                except OverflowError:
                    psis[y].append(math.nan)
        with kernels.memoised() as tables:
            for _ in range(2):  # the second pass reads the table
                assert [_bits(kernels.bell_sequence(*call)) for call in calls] == direct
            # one entry per (n_max, y), never moved by ln c
            assert {key: _bits(v) for key, v in tables[kernels._polygammas].items()} == {
                (n, y): _bits(psis[y][:n]) for y in ys for n in orders}

    def test_each_table_is_filled_by_its_one_reader(self):
        from kgamma import functions as fn
        from kgamma import harness

        pt, ppt = fn.EvalPoint(2.5, 0.7), fn.EvalPoint(2.5, 0.7, 1.9)
        zetas, psis = kernels.hurwitz_zeta, kernels._polygammas
        # a call, and the tables it fills; every reader but G's own reaches
        # zeta_H through `hurwitz_zeta`
        readers = [
            (lambda: kernels.hurwitz_zeta(3.0, 0.5), {zetas}),
            (lambda: kernels.bell_sequence(3, 2.5, 1.9), {psis, zetas}),
            (lambda: fn._zeta_at(3.5, 0.7), {fn._zeta_at, zetas}),
            (lambda: fn._gamma_at(3.5, 0.7), {fn._gamma_at}),
            # each point's D_0..8, shared by every order read at the point
            (lambda: (fn.k_gamma_deriv(3, pt), fn._gamma_derivatives((1, 2), ppt)),
             {fn._derivative_table, psis, zetas}),
            # |psi_k^(s)| at a real s and at T7's int orders alike
            (lambda: (fn._magnitude_at(2.5, 2.5, 0.7), fn._magnitude_at(3, 2.5, 0.7)),
             {fn._magnitude_at, zetas}),
            # a T2 row and its T3 twin share one entry of both sides
            (lambda: [harness.check_holder_zeta(1, 3, harness.HolderPair(2.0, 2.0),
                                                0.7, p) for p in (None, 1.9)],
             {harness._holder_zeta_sides, fn._zeta_at, fn._gamma_at, zetas}),
            # the public closed forms keep no table of their own
            (lambda: (fn.k_gamma(pt), fn.pk_gamma(ppt)), set()),
            (lambda: (fn.k_polygamma(3, pt),
                      fn.k_polygamma_magnitude_fractional(2.5, pt)), {zetas}),
        ]
        # every table above but zeta_H's is a `memo` table, and every `memo`
        # function of the three modules has its reader above: the wrappers
        # `memo` returns share one code object
        memo_code = kernels.memo(abs).__code__
        memos = {f for module in (kernels, fn, harness) for f in vars(module).values()
                 if getattr(f, "__code__", None) is memo_code}
        assert memos == {fn._zeta_at, fn._gamma_at, fn._magnitude_at,
                         fn._derivative_table, psis, harness._holder_zeta_sides}
        assert set().union(*(filled for _, filled in readers)) == memos | {zetas}
        for read, filled in readers:
            with kernels.memoised() as tables:
                read()
            assert set(tables) == filled and all(tables.values())


class TestMemo:
    """`kernels.memo` computes each argument tuple once inside a block."""

    @staticmethod
    def _counted():
        calls = []

        @kernels.memo
        def square(x, y=1.0):
            calls.append((x, y))
            if x < 0:
                raise DomainError(f"x must be >= 0, got {x!r}")
            return [x * x * y]

        return square, calls

    def test_once_per_distinct_argument_tuple_inside_a_block(self):
        square, calls = self._counted()
        with kernels.memoised() as tables:
            results = [square(x, y) for _ in range(3) for x, y in
                       ((2.0, 1.0), (3.0, 1.0), (2.0, 2.0))]
        assert calls == [(2.0, 1.0), (3.0, 1.0), (2.0, 2.0)]
        assert results == [[4.0], [9.0], [8.0]] * 3
        # the stored value is returned itself, not a copy
        assert results[0] is results[3] is tables[square][(2.0, 1.0)]
        assert set(tables) == {square}

    def test_every_call_computes_outside_a_block(self):
        square, calls = self._counted()
        assert [square(2.0) for _ in range(3)] == [[4.0]] * 3
        assert calls == [(2.0, 1.0)] * 3
        assert square.__name__ == "square" and square.__wrapped__ is not square

    def test_a_raise_leaves_no_entry(self):
        square, calls = self._counted()
        with kernels.memoised() as tables:
            for _ in range(2):
                with pytest.raises(DomainError, match="got -1.0"):
                    square(-1.0)
            assert tables == {}
            square(2.0)
            with pytest.raises(DomainError):
                square(-1.0)
        assert calls == [(-1.0, 1.0)] * 2 + [(2.0, 1.0), (-1.0, 1.0)]
        assert tables == {square: {(2.0,): [4.0]}}

    def test_nested_blocks_and_new_threads_start_empty(self):
        square, calls = self._counted()
        seen = []
        with kernels.memoised() as outer:
            square(2.0)
            with kernels.memoised() as inner:
                square(2.0)
                assert inner == {square: {(2.0,): [4.0]}}
            thread = threading.Thread(target=lambda: seen.append(
                (kernels.active_cache(), square(2.0))))
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            square(2.0)  # the outer table is active again
        assert seen == [(None, [4.0])]
        assert calls == [(2.0, 1.0)] * 3
        assert outer == {square: {(2.0,): [4.0]}}


class TestMemoisedScope:
    """A block's tables are active exactly inside its `memoised()` block."""

    def test_none_outside_every_block(self):
        assert kernels.active_cache() is None

    def test_none_after_an_exception_leaves_the_block(self):
        with pytest.raises(ZeroDivisionError):
            with kernels.memoised() as cache:
                assert kernels.active_cache() is cache
                1 / 0
        assert kernels.active_cache() is None

    def test_nested_block_restores_the_outer_cache(self):
        with kernels.memoised() as outer:
            with kernels.memoised() as inner:
                assert kernels.active_cache() is inner and inner is not outer
            assert kernels.active_cache() is outer
        assert kernels.active_cache() is None

    def test_thread_started_inside_a_block_sees_none(self):
        seen = []
        with kernels.memoised():
            thread = threading.Thread(target=lambda: seen.append(kernels.active_cache()))
            thread.start()
            thread.join()
        assert seen == [None]
