"""Tests of the generalized k- and p-k-family closed forms."""

import contextlib
import math
import re
import sys
from fractions import Fraction
from functools import partial

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kgamma import functions as fn
from kgamma import harness, kernels
from kgamma.functions import EvalPoint
from kgamma.policy import (
    AccuracyPolicy,
    ComputationOverflowError,
    DomainError,
    UnsupportedOrderError,
)

EULER_GAMMA = 0.5772156649015329
mp.mp.dps = 40

STANDARD_XS = (0.5, 1.0, 2.0, 5.0, 10.0)
STANDARD_KS = (0.5, 1.0, 2.0, 3.0)
STANDARD_PS = (0.5, 1.0, 2.0, 5.0)


def mp_k_gamma(x, k):
    return mp.mpf(k) ** (mp.mpf(x) / k - 1) * mp.gamma(mp.mpf(x) / k)


def mp_pk_gamma(x, k, p):
    return mp.mpf(p) ** (mp.mpf(x) / k) / k * mp.gamma(mp.mpf(x) / k)


def mp_psi_k(m, x, k):
    """psi_k^(m)(x) = (-1)^(m+1) m! k^-(m+1) zeta_H(m+1, x/k) in 80 digits;
    at 40 or 50, mpmath's zeta(13, a) is itself off by up to 1.8e-13 for
    a in the thousands."""
    with mp.workdps(80):
        x, k = mp.mpf(x), mp.mpf(k)
        return (-1) ** (m + 1) * mp.factorial(m) * k ** -(m + 1) * mp.zeta(m + 1, x / k)


def psi_k_bound(m):
    """The relative error `k_polygamma` may have at order m.  zeta_H's
    remainder is 2^-56 of it; y = x/k and, from y = 2^53 on, M = N + y in
    its tail are rounded once each, and zeta_H(m+1, y) moves by at most m+1
    times either rounding; its sum, the pow of k's mantissa and the two
    products add a few units of 2^-53 more."""
    return 2.0**-56 + (2 * (m + 1) + 4) * 2.0**-53


class TestEvalPoint:
    @pytest.mark.parametrize("bad", [(-1.0, 1.0, None), (1.0, 0.0, None),
                                     (1.0, 1.0, -2.0), (math.inf, 1.0, None)])
    def test_invariants(self, bad):
        with pytest.raises(DomainError):
            EvalPoint(*bad)

    def test_require_p(self):
        with pytest.raises(DomainError):
            EvalPoint(1.0, 1.0).require_p()


class TestKGamma:
    def test_classical_reduction(self):
        assert fn.k_gamma(EvalPoint(5.0, 1.0)) == pytest.approx(24.0, rel=1e-12)

    @pytest.mark.parametrize("k", [0.5, 2.0, 3.0])
    def test_fixed_point(self, k):
        # Gamma_k(k) = k^0 Gamma(1) = 1
        assert fn.k_gamma(EvalPoint(k, k)) == pytest.approx(1.0, rel=1e-13)

    def test_closed_form_value(self):
        assert fn.k_gamma(EvalPoint(1.0, 2.0)) == pytest.approx(
            math.sqrt(math.pi / 2.0), rel=1e-13
        )

    @pytest.mark.parametrize("x, p", [(6.8023, None), (6.8023, 0.01), (9.43, 0.005)])
    def test_small_k_within_contract(self, x, p):
        # at y = x/k ~ 700, (y - 1) ln k and ln Gamma(y) are several times
        # their sum; summed directly, lgamma's rounding alone cost 1.0e-12,
        # 1.5e-12 and 1.6e-12 relative at these points
        k = 0.01
        if p is None:
            got, ref = fn.k_gamma(EvalPoint(x, k)), mp_k_gamma(x, k)
        else:
            got, ref = fn.pk_gamma(EvalPoint(x, k, p)), mp_pk_gamma(x, k, p)
        assert abs(got - ref) <= 1e-12 * ref

    def test_overflow_fails_loudly(self):
        with pytest.raises(OverflowError):
            fn.k_gamma(EvalPoint(500.0, 1.0))

    def test_overflow_is_typed(self):
        # the log value is finite; only its exp exceeds double precision
        for call in (
            lambda: fn.k_gamma(EvalPoint(7.5, 0.01)),
            lambda: fn.pk_gamma(EvalPoint(2.0, 0.01, 0.5)),
            # Gamma(100) is finite, the prefactor k^(y - 1) = 1e5^99 is not
            lambda: fn.k_gamma_deriv(1, EvalPoint(1e7, 1e5)),
            lambda: fn.pk_gamma_deriv(1, EvalPoint(50.0, 1.0, 1e10)),
        ):
            with pytest.raises(ComputationOverflowError, match="overflows"):
                call()


class TestPkGamma:
    def test_p_equals_k_reduction(self):
        assert fn.pk_gamma(EvalPoint(2.0, 2.0, 2.0)) == pytest.approx(
            fn.k_gamma(EvalPoint(2.0, 2.0)), rel=1e-13
        )

    def test_classical(self):
        assert fn.pk_gamma(EvalPoint(1.0, 1.0, 1.0)) == pytest.approx(1.0, rel=1e-13)

    def test_closed_form_value(self):
        # p^(x/k)/k * Gamma(x/k) = 3/2 at x=2, k=2, p=3
        assert fn.pk_gamma(EvalPoint(2.0, 2.0, 3.0)) == pytest.approx(1.5, rel=1e-13)

    def test_three_way_identity_on_grid(self):
        for x in STANDARD_XS:
            for k in STANDARD_KS:
                for p in STANDARD_PS:
                    via_k_gamma = (p / k) ** (x / k) * fn.k_gamma(EvalPoint(x, k))
                    via_classical = (
                        p ** (x / k) / k * math.exp(kernels.log_gamma(x / k))
                    )
                    value = fn.pk_gamma(EvalPoint(x, k, p))
                    assert value == pytest.approx(via_k_gamma, rel=1e-12)
                    assert value == pytest.approx(via_classical, rel=1e-12)


class TestKPolygamma:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("x", [1.0, 2.5])
    def test_classical_reduction(self, m, x):
        assert fn.k_polygamma(m, EvalPoint(x, 1.0)) == pytest.approx(
            kernels.polygamma(m, x), rel=1e-12
        )

    def test_trigamma_value(self):
        assert fn.k_polygamma(1, EvalPoint(1.0, 1.0)) == pytest.approx(
            math.pi**2 / 6.0, rel=1e-12
        )

    def test_rescaled_value(self):
        # 1! 2^-2 zeta_H(2, 1) = pi^2/24
        assert fn.k_polygamma(1, EvalPoint(2.0, 2.0)) == pytest.approx(
            math.pi**2 / 24.0, rel=1e-12
        )

    @given(
        m=st.integers(min_value=1, max_value=8),
        x=st.floats(min_value=0.1, max_value=20.0),
        k=st.floats(min_value=0.2, max_value=5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_sign(self, m, x, k):
        value = fn.k_polygamma(m, EvalPoint(x, k))
        assert math.copysign(1.0, value) == (-1.0) ** (m + 1)

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("k", [0.5, 2.0])
    def test_monotonic_decay_in_x(self, m, k):
        xs = [0.3, 0.7, 1.5, 3.0, 6.0, 12.0]
        mags = [abs(fn.k_polygamma(m, EvalPoint(x, k))) for x in xs]
        assert all(a > b for a, b in zip(mags, mags[1:]))

    @pytest.mark.parametrize("m, x, k", [
        (12, 5e-24, 1e-23),  # finite scale, the product is -inf
        (11, 1e-26, 1e-23),  # finite scale, the product is +inf
        (12, 1e-25, 1e-30),  # k^-13 overflows, and so does the product
        (1, 1.0, 1e-310),  # k^-2 overflows, and so does x^-1 / k
        (12, 1e-123, 1e-100),  # k^-13 overflows, and so does the rest of the product
        (1, 1e-300, 1e300),  # x/k underflows to 0, and x^-2 overflows
    ])
    def test_overflow_is_typed(self, m, x, k):
        with pytest.raises(ComputationOverflowError,
                           match=re.escape(f"psi_k^({m})({x}; k={k}) overflows")):
            fn.k_polygamma(m, EvalPoint(x, k))

    @pytest.mark.parametrize("m, x, k", [
        (3, 1.0, 1e-120),  # 2e120: zeta_H(4, 1e120) underflows, as k^-4 overflows
        (12, 1.0, 1e-30),  # -4.0e37: zeta_H(13, 1e30) underflows
        (12, 1e-7, 1e-25),  # -4.0e116: zeta_H(13, 1e18) is 8.3e-218
        (2, 1e10, 1e-300),  # -1e280: x/k overflows
        (1, 1e150, 1e170),  # 1e-300: k^-2 underflows to 0
        (12, 1e24, 1e24),  # -4.8e-304: k^-13 is subnormal
        (12, 1e10, 1e-20),  # -4.0e-93: zeta_H(13, 1e30) underflows to 0
        (12, 1.0, 1e25),  # -12!: zeta_H(13, 1e-25) overflows
        (1, 1e145, 1e300),  # 1e-290: zeta_H(2, 1e-155) overflows
        (1, 1e-30, 1e300),  # 1e60: x/k underflows to 0
    ])
    def test_value_in_range_beyond_the_scale(self, m, x, k):
        # a factor of the closed form is beyond the double range, the value
        # is not
        assert fn.k_polygamma(m, EvalPoint(x, k)) == pytest.approx(
            float(mp_psi_k(m, x, k)), rel=1e-15, abs=0.0)

    def test_leading_term_where_zeta_h_is_beyond_range(self):
        # y^-(m+1) alone is zeta_H(m+1, y) there: m! x^-(m+1), to the bit of
        # 60-digit mpmath
        assert fn.k_polygamma(12, EvalPoint(1.0, 1e25)) == -479001600.0
        assert fn.k_polygamma(1, EvalPoint(1e145, 1e300)) == 1e-290
        assert fn.k_polygamma(1, EvalPoint(1e-30, 1e300)) == 9.999999999999998e+59
        with kernels.memoised():
            assert fn._magnitude_at(1, 1e-30, 1e300) == 9.999999999999998e+59

    @pytest.mark.parametrize("m, x, k", [
        (12, 6e-23, 1e-23),  # -4.3e297
        (11, 1e-25, 1e-23),  # 4.0e307, near the largest double
        (1, 1.0, 1.0),
        (4, 2.5, 0.5),
    ])
    def test_finite_values_are_the_plain_product(self, m, x, k):
        # a finite value is the closed form's product, to the range's edge
        want = mp_psi_k(m, x, k)
        assert abs(fn.k_polygamma(m, EvalPoint(x, k)) - want) <= (
            psi_k_bound(m) * abs(want))

    @given(
        m=st.integers(min_value=1, max_value=kernels.POLYGAMMA_MAX_ORDER),
        log_k=st.floats(min_value=-300.0, max_value=300.0),
        log_y=st.none() | st.floats(min_value=-340.0, max_value=40.0),
        log_x=st.floats(min_value=-300.0, max_value=300.0),
    )
    @example(m=1, log_k=170.0, log_y=None, log_x=150.0)
    @example(m=12, log_k=24.0, log_y=None, log_x=24.0)
    @example(m=12, log_k=-20.0, log_y=None, log_x=10.0)
    @example(m=1, log_k=300.0, log_y=None, log_x=-30.0)
    @example(m=12, log_k=25.0, log_y=None, log_x=0.0)
    @settings(max_examples=300, deadline=None)
    def test_matches_mpmath_across_the_double_range(self, m, log_k, log_y, log_x):
        # x = k 10^log_y where log_y is drawn, else x = 10^log_x.  A value is
        # never silently wrong: it is within the error model of the closed
        # form, plus the subnormal spacing below the normal range.  A refusal
        # is loud, not wrong, and is not checked here.
        k = 10.0**log_k
        x = 10.0**log_x if log_y is None else k * 10.0**log_y
        assume(0.0 < x < math.inf)
        try:
            got = fn.k_polygamma(m, EvalPoint(x, k))
        except (ComputationOverflowError, DomainError):
            return
        want = mp_psi_k(m, x, k)
        assert abs(got - want) <= psi_k_bound(m) * abs(want) + 2.0**-1074

    def test_order_bounds(self):
        with pytest.raises(DomainError):
            fn.k_polygamma(0, EvalPoint(1.0, 1.0))
        with pytest.raises(UnsupportedOrderError):
            fn.k_polygamma(13, EvalPoint(1.0, 1.0))
        for m in (True, False):
            for block in (contextlib.nullcontext, kernels.memoised):
                with block(), pytest.raises(DomainError) as refused:
                    fn.k_polygamma(m, EvalPoint(1.0, 1.0))
                assert str(refused.value) == (
                    f"k_polygamma order must be an integer >= 1, got {m}")


def magnitude_bound(s):
    """The relative error `k_polygamma_magnitude_fractional` may have at
    order s from its arithmetic: `k_polygamma`'s at order s, plus 20 units
    of 2^-53 for the 10 ulps of `math.gamma` (CPython's bound) and 4 for
    2^-phi and its product.  The rounding of s + 1 is an input error."""
    return psi_k_bound(s) + 24 * 2.0**-53


class TestFractionalMagnitude:
    @given(
        m=st.integers(min_value=1, max_value=kernels.POLYGAMMA_MAX_ORDER),
        log_k=st.floats(min_value=-300.0, max_value=300.0),
        log_y=st.none() | st.floats(min_value=-340.0, max_value=40.0),
        log_x=st.floats(min_value=-300.0, max_value=300.0),
    )
    @example(m=3, log_k=-120.0, log_y=None, log_x=0.0)
    @example(m=12, log_k=-20.0, log_y=None, log_x=10.0)
    @example(m=12, log_k=25.0, log_y=None, log_x=0.0)
    @example(m=1, log_k=300.0, log_y=None, log_x=-30.0)
    @example(m=11, log_k=-23.0, log_y=-3.0, log_x=0.0)
    @settings(max_examples=300, deadline=None)
    def test_integer_order_agreement(self, m, log_k, log_y, log_x):
        # one reader: at s = m the magnitude is |psi_k^(m)|, the same float
        # in every regime, or the same error type.  x = k 10^log_y where
        # log_y is drawn, else x = 10^log_x
        k = 10.0**log_k
        x = 10.0**log_x if log_y is None else k * 10.0**log_y
        assume(0.0 < x < math.inf)
        pt = EvalPoint(x, k)
        got = _outcome(lambda: fn.k_polygamma_magnitude_fractional(float(m), pt))
        want = _outcome(lambda: abs(fn.k_polygamma(m, pt)))
        if isinstance(want, tuple):
            assert got[0] is want[0]
        else:
            assert got == want

    @given(
        s=st.floats(min_value=1.0, max_value=12.0),
        x=st.floats(min_value=1e-3, max_value=1e3),
        k=st.floats(min_value=0.01, max_value=10.0),
    )
    @example(s=2.5, x=1.0, k=1.0)
    @example(s=7.3164, x=0.001256, k=0.1416)
    @settings(max_examples=150, deadline=None)
    def test_fractional_order_matches_mpmath(self, s, x, k):
        # against 90 digits at y = x/k <= 1e3 (50 digits are right there):
        # within the arithmetic's error model, plus the input error of the
        # order, o = s + 1 rounded, times d ln|psi_k^(s)| / do
        assume(x / k <= 1e3)
        got = fn.k_polygamma_magnitude_fractional(s, EvalPoint(x, k))
        with mp.workdps(90):
            o, x, k = mp.mpf(s) + 1, mp.mpf(x), mp.mpf(k)
            want = mp.gamma(o) * k**-o * mp.zeta(o, x / k)
            slope = mp.digamma(o) - mp.log(k) + mp.zeta(o, x / k, 1) / mp.zeta(o, x / k)
            bound = magnitude_bound(s) + abs(slope) * abs(mp.mpf(s + 1.0) - o)
            assert abs(got - want) <= bound * want

    def test_classical_values(self):
        pt = EvalPoint(1.0, 1.0)
        assert fn.k_polygamma_magnitude_fractional(2.0, pt) == pytest.approx(
            2.0 * kernels.riemann_zeta(3.0), rel=1e-12
        )
        assert fn.k_polygamma_magnitude_fractional(1.0, pt) == pytest.approx(
            math.pi**2 / 6.0, rel=1e-12
        )

    def test_half_order_value(self):
        # Gamma(2.5) zeta(2.5), both factors independently via mpmath
        ref = float(mp.gamma(mp.mpf("2.5")) * mp.zeta(mp.mpf("2.5")))
        got = fn.k_polygamma_magnitude_fractional(1.5, EvalPoint(1.0, 1.0))
        assert got == pytest.approx(ref, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            fn.k_polygamma_magnitude_fractional(0.5, EvalPoint(1.0, 1.0))

    def test_large_order_at_a_large_argument(self):
        # s = 1e17 at x/k = e * 1e23: the scale Gamma(s+1) k^-(s+1) is
        # finite, zeta_H(s+1, x/k) is 0.0 after one term, and so is the value
        pt = EvalPoint(1e40, 1e17 / math.e)
        assert fn.k_polygamma_magnitude_fractional(1e17, pt) == 0.0

    @pytest.mark.parametrize("s", [11.0, 11.5])
    def test_overflow_is_typed(self, s):
        # the scale Gamma(s+1) k^-(s+1) is finite, its product with zeta_H is not
        with pytest.raises(ComputationOverflowError, match=re.escape(f"|psi_k^({s})")):
            fn.k_polygamma_magnitude_fractional(s, EvalPoint(1e-26, 1e-23))


class TestZetas:
    def test_k_zeta_reductions(self):
        assert fn.k_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-12)
        assert fn.k_zeta(4.0, 2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-12)
        assert fn.k_zeta(6.0, 3.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-12)

    def test_k_zeta_domain(self):
        with pytest.raises(DomainError):
            fn.k_zeta(2.0, 2.0)
        for k in (0.0, math.nan):
            with pytest.raises(DomainError, match="k must be a finite positive"):
                fn.k_zeta(2.0, k)
        with pytest.raises(DomainError, match="p must be a finite positive"):
            fn.pk_zeta(2.0, 1.0, 0.0)

    def test_pk_zeta_p_independent(self):
        values = [fn.pk_zeta(4.0, 2.0, p) for p in STANDARD_PS]
        spread = max(values) - min(values)
        assert spread <= 1e-10 * max(values)
        assert values[0] == pytest.approx(fn.k_zeta(4.0, 2.0), rel=1e-13)

    def test_ratio_beyond_the_double_range_is_one(self):
        # zeta(s) rounds to 1.0 from s = 54 on; x/k = 2/1e-320 overflows to inf
        assert fn.k_zeta(54.0, 1.0) == 1.0
        assert fn.k_zeta(2.0, 1e-320) == 1.0
        assert fn.pk_zeta(2.0, 1e-320, 3.0) == 1.0
        # x/k <= 1 is still refused, and so is an infinite x
        with pytest.raises(DomainError, match="x/k > 1"):
            fn.k_zeta(1e-320, 1.0)
        with pytest.raises(DomainError, match="x/k > 1"):
            fn.k_zeta(math.inf, 1.0)

    def test_pk_zeta_classical(self):
        assert fn.pk_zeta(2.0, 1.0, 3.0) == pytest.approx(
            math.pi**2 / 6.0, rel=1e-12
        )


class TestDerivatives:
    def test_zeroth_matches_value(self):
        for x, k in ((1.0, 1.0), (2.0, 3.0), (0.5, 0.5)):
            pt = EvalPoint(x, k)
            assert fn.k_gamma_deriv(0, pt) == pytest.approx(
                fn.k_gamma(pt), rel=1e-13
            )
        ppt = EvalPoint(2.0, 2.0, 5.0)
        assert fn.pk_gamma_deriv(0, ppt) == pytest.approx(
            fn.pk_gamma(ppt), rel=1e-13
        )

    def test_classical_values_at_one(self):
        pt = EvalPoint(1.0, 1.0)
        assert fn.k_gamma_deriv(1, pt) == pytest.approx(-EULER_GAMMA, rel=1e-12)
        assert fn.k_gamma_deriv(2, pt) == pytest.approx(
            EULER_GAMMA**2 + math.pi**2 / 6.0, rel=1e-12
        )
        ppt = EvalPoint(1.0, 1.0, 1.0)
        assert fn.pk_gamma_deriv(1, ppt) == pytest.approx(-EULER_GAMMA, rel=1e-12)

    def test_p_equals_k_consistency(self):
        pt = EvalPoint(1.5, 2.0)
        ppt = EvalPoint(1.5, 2.0, 2.0)
        for n in range(5):
            assert fn.pk_gamma_deriv(n, ppt) == pytest.approx(
                fn.k_gamma_deriv(n, pt), rel=1e-12
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_against_mpmath(self, n):
        for x, k in ((1.0, 1.0), (2.0, 0.5), (5.0, 3.0), (0.5, 2.0)):
            ref = float(mp.diff(lambda t: mp_k_gamma(t, k), mp.mpf(x), n))
            assert fn.k_gamma_deriv(n, EvalPoint(x, k)) == pytest.approx(
                ref, rel=1e-11
            )

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_p_variant_against_mpmath(self, n):
        for x, k, p in ((1.0, 1.0, 2.0), (2.0, 2.0, 0.5), (5.0, 3.0, 5.0)):
            ref = float(mp.diff(lambda t: mp_pk_gamma(t, k, p), mp.mpf(x), n))
            assert fn.pk_gamma_deriv(n, EvalPoint(x, k, p)) == pytest.approx(
                ref, rel=1e-11
            )

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrderError):
            fn.k_gamma_deriv(9, EvalPoint(1.0, 1.0))

    @pytest.mark.parametrize("p", [None, 2.0])
    def test_order_eight_at_small_k(self, p):
        # the Leibniz form cancelled to 2.65e-3 relative error here
        ref = mp_derivs(1.0, 0.01, p, 8)[8]
        assert abs(_deriv(8, 1.0, 0.01, p) - ref) <= 1e-12 * abs(ref)

    @given(
        x=st.floats(min_value=0.1, max_value=10.0),
        k=st.floats(min_value=0.01, max_value=3.0),
        p=st.none() | st.floats(min_value=0.5, max_value=5.0),
        n=st.integers(min_value=0, max_value=kernels.GAMMA_DERIV_MAX_ORDER),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_mpmath(self, x, k, p, n):
        # an odd order crosses zero: its error is measured against the
        # Cauchy-Schwarz bound sqrt(|D^(n-1) D^(n+1)|) on |D^(n)|
        ref = mp_derivs(x, k, p, n + n % 2)
        scale = mp.sqrt(abs(ref[n - 1] * ref[n + 1])) if n % 2 else abs(ref[n])
        try:
            got = _deriv(n, x, k, p)
        except ComputationOverflowError:
            assert max(abs(ref[0]), abs(ref[n])) > 1e300
            return
        assert abs(got - ref[n]) <= 1e-12 * scale

    @pytest.mark.parametrize("p", [None, 1.0])
    def test_overflowed_k_power_is_typed(self, p):
        # k^-8 at k = 1e-40 is beyond the double range; k^-7 is not.  With
        # p = 1 the derivative is too: a typed overflow.  Gamma_k(1e-38) is
        # about 1e-3840 there, and Gamma_k^(8) about 3.2e-3469 underflows:
        # 0.0, since the one power of two is applied last
        if p is None:
            assert _deriv(8, 1e-38, 1e-40, p) == 0.0
            return
        with pytest.raises(ComputationOverflowError, match=re.escape(
                f"pGamma_k^(8) at {EvalPoint(1e-38, 1e-40, p)} overflows")):
            _deriv(8, 1e-38, 1e-40, p)

    def test_underflow_is_a_value_not_an_overflow(self):
        # Gamma_k(1) at k = 0.001 is 1e-433: both it and its derivative are 0
        pt = EvalPoint(1.0, 0.001)
        assert fn.k_gamma(pt) == 0.0
        assert fn.k_gamma_deriv(1, pt) == 0.0


def _deriv(n, x, k, p):
    if p is None:
        return fn.k_gamma_deriv(n, EvalPoint(x, k))
    return fn.pk_gamma_deriv(n, EvalPoint(x, k, p))


def mp_derivs(x, k, p, n_max):
    """D^(0..n_max) of Gamma_k (p None) or pGamma_k, by 50-digit mpmath."""
    with mp.workdps(50):
        x, k = mp.mpf(x), mp.mpf(k)
        if p is None:
            log_f = lambda t: (t / k - 1) * mp.log(k) + mp.loggamma(t / k)
        else:
            log_f = lambda t: t / k * mp.log(p) - mp.log(k) + mp.loggamma(t / k)
        return list(mp.diffs(lambda t: mp.exp(log_f(t)), x, n_max))


#: derivative vectors that mix values, underflow and overflow
TABLE_POINTS = (
    EvalPoint(1.0, 1.0, 2.0),
    EvalPoint(0.05, 3.0, 0.5),
    EvalPoint(170.0, 1.0, 1.0),  # D^(6..8) overflow
    EvalPoint(1.0, 0.001, 1.0),  # Gamma_k underflows, pGamma_k overflows
    EvalPoint(5.0, 0.01, 0.5),  # y = 500: Stirling's series
    EvalPoint(1e-40, 1.0, 1.0),  # D^(7) overflows, psi^(7)(1e-40) too
    EvalPoint(1e7, 1e5, 1e10),  # every order overflows
)


def _outcome(call):
    try:
        return repr(call())
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _zeta_computations(monkeypatch) -> list:
    """The (s, a) of each zeta value computed from here on.  The Hurwitz sum
    is sized by `kernels._direct_terms` once per value; a read from a
    block's zeta table skips it."""
    computed = []
    direct_terms = kernels._direct_terms

    def counting(s, a):
        computed.append((s, a))
        return direct_terms(s, a)

    monkeypatch.setattr(kernels, "_direct_terms", counting)
    return computed


class TestDerivativeTables:
    """A sweep's derivative tables must not change a bit, nor which call raises."""

    def test_cached_matches_direct(self):
        # Gamma_k at each point without p, pGamma_k at the point
        calls = [lambda deriv=deriv, n=n, pt=pt: deriv(n, pt)
                 for ppt in TABLE_POINTS
                 for deriv, pt in ((fn.k_gamma_deriv, EvalPoint(ppt.x, ppt.k)),
                                   (fn.pk_gamma_deriv, ppt))
                 for n in range(-1, kernels.GAMMA_DERIV_MAX_ORDER + 2)]
        direct = [_outcome(call) for call in calls]
        with kernels.memoised():
            for _ in range(2):  # the second pass reads the tables
                assert [_outcome(call) for call in calls] == direct
        outcomes = {o[0] if isinstance(o, tuple) else float for o in direct}
        assert outcomes == {float, ComputationOverflowError, DomainError,
                            UnsupportedOrderError}

    def test_one_zeta_call_per_distinct_argument(self, monkeypatch):
        computed = _zeta_computations(monkeypatch)
        with kernels.memoised() as tables:
            fn.k_polygamma(1, EvalPoint(1.0, 2.0))
            # every vector reads psi^(1..7)(0.5), whose zeta_H(2, 0.5)
            # k_polygamma already made
            for n in range(kernels.GAMMA_DERIV_MAX_ORDER + 1):
                fn.k_gamma_deriv(n, EvalPoint(1.0, 2.0))
                for p in (2.0, 3.0):
                    fn.pk_gamma_deriv(n, EvalPoint(1.0, 2.0, p))
        assert computed == [(s, 0.5) for s in range(2, kernels.GAMMA_DERIV_MAX_ORDER + 1)]
        assert set(tables[kernels.hurwitz_zeta]) == set(computed)
        # one derivative vector per (x, k, p): Gamma_k's and two pGamma_k's
        assert len(tables[fn._derivative_table]) == 3

    def test_one_zeta_table_for_every_reader(self, monkeypatch):
        # bell_sequence, k_polygamma, k_zeta and polygamma all reach
        # kernels.hurwitz_zeta, so each zeta_H(s, a) is computed once
        # whichever of them asks first, with the bits it has outside a block
        calls = [
            lambda: kernels.bell_sequence(3, 1.0, 2.0),  # zeta_H(2..3, 1)
            lambda: fn.k_zeta(6.0, 2.0),  # zeta(3) = zeta_H(3, 1)
            lambda: fn.k_polygamma(1, EvalPoint(2.0, 2.0)),  # zeta_H(2, 1)
            lambda: kernels.polygamma(3, 1.0),  # zeta_H(4, 1)
            lambda: fn.k_polygamma(3, EvalPoint(0.5, 0.5)),  # zeta_H(4, 1)
            lambda: kernels.bell_sequence(4, 1.0, 0.5),  # zeta_H(2..4, 1)
        ]
        direct = [call() for call in calls]
        computed = _zeta_computations(monkeypatch)
        with kernels.memoised() as tables:
            assert [call() for call in calls] == direct
        assert computed == [(2, 1.0), (3, 1.0), (4, 1.0)]
        assert set(tables[kernels.hurwitz_zeta]) == {(2.0, 1.0), (3.0, 1.0), (4.0, 1.0)}

    def test_gamma_table_is_bit_identical_and_keyed_per_family(self):
        # the table holds the one family a sweep reads this way, Gamma_k,
        # keyed by (x, k); pGamma_k has no reader of its own
        points = [EvalPoint(x, k) for x in (2.0, 3.0, 7.5) for k in (0.5, 1.3)]
        direct = {pt: fn.k_gamma(pt) for pt in points}
        with kernels.memoised() as tables:
            for _ in range(2):  # the second pass reads the table
                for pt, value in direct.items():
                    assert fn._gamma_at(pt.x, pt.k) == value
            # an overflow is raised on every call, never stored
            for _ in range(2):
                with pytest.raises(ComputationOverflowError):
                    fn._gamma_at(7.5, 0.01)
        assert set(tables[fn._gamma_at]) == {(pt.x, pt.k) for pt in direct}

    def test_gamma_at_reads_the_table_and_builds_a_missing_point(self):
        # the bits or the error of k_gamma at the point, outside a block and
        # inside one, where a stored value is read without a point; a
        # missing one is checked as a point, so a bad argument is refused
        # and nothing is stored for it
        cases = [(2.0, 0.5), (3.0, 1.3), (7.5, 0.01), (-1.0, 0.5), (2.0, math.nan)]
        direct = [_outcome(lambda: fn.k_gamma(EvalPoint(*case))) for case in cases]
        assert [_outcome(lambda: fn._gamma_at(*case)) for case in cases] == direct
        with kernels.memoised() as tables:
            for _ in range(2):  # the second pass reads the table
                assert [_outcome(lambda: fn._gamma_at(*case))
                        for case in cases] == direct
        assert set(tables[fn._gamma_at]) == {(2.0, 0.5), (3.0, 1.3)}

    def test_zeta_at_reads_the_table_and_falls_back_to_k_zeta(self, monkeypatch):
        # the bits or the error of k_zeta, outside a block and inside one,
        # where a stored zeta_k(x) is read without computing it; x/k = inf
        # is 1.0, as in k_zeta, and a refused argument stores nothing.  A
        # miss is computed with k_zeta's domain checks, and without its
        # policy check
        cases = [(4.0, 2.0), (3.0, 1.0), (6.5, 0.5), (3.0, 0.7), (2.0, 1e-320),
                 (1.0, 1.0), (2.0, 0.0), (2.0, -1.0), (-3.0, 1.0), (math.nan, 1.0),
                 (2.0, math.nan), (math.inf, 1.0), (2.0, math.inf)]
        direct = [_outcome(lambda: fn.k_zeta(*case)) for case in cases]
        assert direct[4] == repr(1.0)
        assert {o[0] for o in direct if isinstance(o, tuple)} == {DomainError}
        assert [_outcome(lambda: fn._zeta_at(*case)) for case in cases] == direct
        zeta, fallbacks = fn._zeta, []
        monkeypatch.setattr(fn, "_zeta", lambda x, k: fallbacks.append((x, k))
                            or zeta(x, k))
        monkeypatch.setattr(fn, "_check_policy", None)
        with kernels.memoised() as tables:
            for passed in (cases, cases[5:]):  # the second pass reads the table
                fallbacks.clear()
                assert [_outcome(lambda: fn._zeta_at(*case))
                        for case in cases] == direct
                # only the values the table does not hold are computed
                assert fallbacks == passed
        assert set(tables[fn._zeta_at]) == set(cases[:5])

    def test_one_order_read_is_the_batch_read(self):
        # `k_gamma_deriv`/`pk_gamma_deriv` give the bits, or the error, of
        # the batch read of their one order, outside a block and from the
        # point's table inside one.  They check the order themselves, so a
        # refused order is refused with the same text once the table holds
        # D_0..8: n = -1 never reads D_8, nor 2.0 D_2
        orders = (*range(kernels.GAMMA_DERIV_MAX_ORDER + 1), 9, -1, 2.0, True, False)
        calls = [(n, pt) for ppt in TABLE_POINTS
                 for pt in (EvalPoint(ppt.x, ppt.k), ppt) for n in orders]
        direct = [_outcome(lambda: _deriv(n, pt.x, pt.k, pt.p)) for n, pt in calls]
        checked = [(n, pt, o) for (n, pt), o in zip(calls, direct) if type(n) is int
                   and 0 <= n <= kernels.GAMMA_DERIV_MAX_ORDER]
        assert [_outcome(lambda: fn._gamma_derivatives((n,), pt)[0])
                for n, pt, _ in checked] == [o for _, _, o in checked]
        with kernels.memoised() as tables:
            for _ in range(2):  # every refused order comes after order 0's read
                assert [_outcome(lambda: _deriv(n, pt.x, pt.k, pt.p))
                        for n, pt in calls] == direct
                assert [_outcome(lambda: fn._gamma_derivatives((n,), pt)[0])
                        for n, pt, _ in checked] == [o for _, _, o in checked]
        assert {len(d) for d in tables[fn._derivative_table].values()} == {9}
        assert set(tables[fn._derivative_table]) == {(pt.x, pt.k, pt.p) for _, pt in calls}
        # keyed by repr(n), since 2 and 2.0, and 1 and True, are one dict key
        outcome = {(repr(n), pt): o for (n, pt), o in zip(calls, direct)}
        overflow = "^(6) at EvalPoint(x=170.0, k=1.0, p={}) overflows double precision"
        assert outcome["6", EvalPoint(170.0, 1.0)] == (
            ComputationOverflowError, "Gamma_k" + overflow.format(None))
        assert outcome["6", EvalPoint(170.0, 1.0, 1.0)] == (
            ComputationOverflowError, "pGamma_k" + overflow.format(1.0))
        for pt in (EvalPoint(1.0, 1.0), EvalPoint(1.0, 1.0, 2.0)):
            assert outcome["9", pt] == (
                UnsupportedOrderError, "derivative order 9 exceeds supported cap 8")
            for n in ("-1", "2.0", "True", "False"):
                assert outcome[n, pt] == (DomainError, "derivative order must be "
                                          f"a non-negative integer, got {n}")

    def test_gamma_derivatives_match_the_order_by_order_calls(self):
        # the order triples the T4 and T5 checks read, in their order, and
        # shuffled or repeated orders: the values, or the first error, of
        # one public call per order, outside a block, where only the orders
        # read are formed, and from the point's table inside one; and every
        # row or error of the checks themselves is the same inside a block
        turan = [(n - 1, n, n + 1) for n in range(1, kernels.GAMMA_DERIV_MAX_ORDER)]
        midpoint = [(n - l, n + l, n) for n in range(0, 9, 2) for l in range(0, n + 1, 2)
                    if n + l <= kernels.GAMMA_DERIV_MAX_ORDER]
        shuffled = [(6, 0, 6), (8, 3), (0, 8), (5, 2, 7, 1), (3, 3), (4,), (2, 5, 2)]
        points = [pt for ppt in TABLE_POINTS for pt in (EvalPoint(ppt.x, ppt.k), ppt)]
        cases = [(orders, pt) for pt in points for orders in turan + midpoint + shuffled]
        direct = [_outcome(lambda: [_deriv(n, pt.x, pt.k, pt.p) for n in orders])
                  for orders, pt in cases]
        checks = ([partial(harness.check_turan_gamma_deriv, n, pt)
                   for pt in points for _, n, _ in turan]
                  + [partial(harness.check_midpoint_gamma_deriv, n, (hi - lo) // 2, pt)
                     for pt in points for lo, hi, n in midpoint])
        rows = [_outcome(check) for check in checks]
        assert [_outcome(lambda: fn._gamma_derivatives(*case)) for case in cases] == direct
        with kernels.memoised() as tables:
            for _ in range(2):  # the second pass reads the tables
                assert [_outcome(lambda: fn._gamma_derivatives(*case))
                        for case in cases] == direct
                assert [_outcome(check) for check in checks] == rows
        outcomes = {o[0] if isinstance(o, tuple) else float for o in direct + rows}
        assert outcomes == {float, ComputationOverflowError}
        assert set(tables[fn._derivative_table]) == {(pt.x, pt.k, pt.p) for pt in points}
        # D^(6..8) overflow at x = 170, k = 1: the first order read names it
        outcome = dict(zip(cases, direct))
        overflow = "^({}) at EvalPoint(x=170.0, k=1.0, p={}) overflows double precision"
        for orders, n in (((6, 0, 6), 6), ((8, 3), 8), ((0, 8), 8), ((5, 2, 7, 1), 7)):
            assert outcome[orders, EvalPoint(170.0, 1.0)] == (
                ComputationOverflowError, "Gamma_k" + overflow.format(n, None))
            assert outcome[orders, EvalPoint(170.0, 1.0, 1.0)] == (
                ComputationOverflowError, "pGamma_k" + overflow.format(n, 1.0))
        assert not isinstance(outcome[(2, 5, 2), EvalPoint(170.0, 1.0)], tuple)

    def test_polygamma_tables_are_bit_identical_and_store_no_error(self):
        # one table, |psi_k^(s)| per (s, x, k), read at an int order m with
        # the sign of psi_k^(m) applied, as T7 reads it, and at a real s:
        # the bits or the error of the public function, outside a block and
        # inside one, where every error is raised again, never stored
        points = [EvalPoint(2.5, 0.7), EvalPoint(2.5, 0.7, 3.0), EvalPoint(0.05, 3.0),
                  EvalPoint(1e-26, 1e-23), EvalPoint(5e-24, 1e-23)]
        polygamma_calls = [(m, pt) for m in (1, 2, 5, 11, 12) for pt in points]
        magnitude_calls = [(s, pt) for s in (0.5, 1.0, 2.3, 11.0, 11.5, math.nan)
                           for pt in points]
        direct = ([_outcome(lambda: fn.k_polygamma(m, pt)) for m, pt in polygamma_calls]
                  + [_outcome(lambda: fn.k_polygamma_magnitude_fractional(s, pt))
                     for s, pt in magnitude_calls])
        calls = ([lambda m=m, pt=pt: (-1.0) ** (m + 1) * fn._magnitude_at(m, pt.x, pt.k)
                  for m, pt in polygamma_calls]
                 + [lambda s=s, pt=pt: fn._magnitude_at(s, pt.x, pt.k)
                    for s, pt in magnitude_calls])
        assert [_outcome(call) for call in calls] == direct
        with kernels.memoised() as tables:
            for _ in range(2):  # the second pass reads the table
                assert [_outcome(call) for call in calls] == direct
        outcomes = {o[0] if isinstance(o, tuple) else float for o in direct}
        assert outcomes == {float, ComputationOverflowError, DomainError}
        # p is no argument of psi_k: a point with p shares the entry without,
        # and an int order m the entry of the real order m
        assert set(tables) == {fn._magnitude_at, kernels.hurwitz_zeta}
        assert set(tables[fn._magnitude_at]) == {
            (s, pt.x, pt.k) for (s, pt), value in zip(polygamma_calls + magnitude_calls,
                                                      direct)
            if not isinstance(value, tuple)}
        assert all(isinstance(v, float) for v in tables[fn._magnitude_at].values())


#: every public closed form, as a call on a policy
CLOSED_FORMS = {
    "k_gamma": lambda pol: fn.k_gamma(EvalPoint(2.5, 0.7), pol),
    "pk_gamma": lambda pol: fn.pk_gamma(EvalPoint(2.5, 0.7, 1.9), pol),
    "k_polygamma": lambda pol: fn.k_polygamma(3, EvalPoint(2.5, 0.7), pol),
    "k_polygamma_magnitude_fractional": lambda pol: (
        fn.k_polygamma_magnitude_fractional(2.3, EvalPoint(2.5, 0.7), pol)),
    "k_zeta": lambda pol: fn.k_zeta(2.5, 0.7, pol),
    "pk_zeta": lambda pol: fn.pk_zeta(2.5, 0.7, 1.9, pol),
    "k_gamma_deriv": lambda pol: fn.k_gamma_deriv(5, EvalPoint(2.5, 0.7), pol),
    "pk_gamma_deriv": lambda pol: fn.pk_gamma_deriv(5, EvalPoint(2.5, 0.7, 1.9), pol),
}


class TestPolicyFloor:
    """Closed forms are accurate to the Hurwitz sum's fixed 2^-56: any
    rel_tol at or above it gives the same bits, a finer one is refused."""

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_tolerance_at_or_above_the_floor_gives_the_same_bits(self, name):
        call = CLOSED_FORMS[name]
        default = call(AccuracyPolicy())
        for rel_tol in (1e-6, 1e-12, 2.0**-56):
            policy = AccuracyPolicy(rel_tol=rel_tol)
            assert call(policy) == default
            with kernels.memoised():
                assert call(policy) == default

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_tolerance_below_the_floor_is_refused(self, name):
        policy = AccuracyPolicy(rel_tol=1e-17)
        with pytest.raises(DomainError, match="2\\^-56"):
            CLOSED_FORMS[name](policy)
        with kernels.memoised() as tables:
            with pytest.raises(DomainError, match="2\\^-56"):
                CLOSED_FORMS[name](policy)
        # refused before any work: nothing was cached
        assert tables == {}

    @pytest.mark.parametrize("call", [
        lambda pol: fn.k_zeta(0.5, 0.7, pol),
        lambda pol: fn.k_zeta(2.5, -0.7, pol),
        lambda pol: fn.pk_zeta(2.5, 0.7, -1.9, pol),
        lambda pol: fn.pk_zeta(0.5, 0.7, 1.9, pol),
        lambda pol: fn.k_polygamma(0, EvalPoint(2.5, 0.7), pol),
        lambda pol: fn.k_polygamma_magnitude_fractional(0.5, EvalPoint(2.5, 0.7), pol),
        lambda pol: fn.pk_gamma(EvalPoint(2.5, 0.7), pol),
        lambda pol: fn.pk_gamma_deriv(9, EvalPoint(2.5, 0.7, 1.9), pol),
    ])
    def test_policy_is_checked_before_the_arguments(self, call):
        # each of these arguments is refused too, but the policy first
        with pytest.raises(DomainError, match="2\\^-56"):
            call(AccuracyPolicy(rel_tol=1e-17))
        with pytest.raises(DomainError) as refused:
            call(AccuracyPolicy())
        assert "2^-56" not in str(refused.value)


class TestPointPicksTheFamily:
    """A k-family call refuses a point with p instead of dropping the p."""

    @pytest.mark.parametrize("call, counterpart", [
        (lambda pt: fn.k_gamma(pt), "pk_gamma"),
        (lambda pt: fn.k_gamma_deriv(1, pt), "pk_gamma_deriv"),
    ])
    def test_k_family_refuses_p(self, call, counterpart):
        with pytest.raises(DomainError, match=f"got p=2.0; {counterpart} is"):
            call(EvalPoint(1.0, 1.0, 2.0))


# --------------------------------------------------------------------------
# one range rule: a factor that is a normal double is used as it stands,
# any other is split into a head times 2^c, and the one power of two is
# applied last


def mp_log_gamma(x, k, p):
    """ln Gamma_k (p None) or ln pGamma_k, in the working precision."""
    x, k = mp.mpf(x), mp.mpf(k)
    y = x / k
    prefactor = (y - 1) * mp.log(k) if p is None else y * mp.log(p) - mp.log(k)
    return prefactor + mp.loggamma(y)


def mp_bell_deriv(n, x, k, p):
    """D^(n) = G k^-n B_n(kappa) in 50 digits, at any distance from the
    double range; the Bell form is exact, so this is the derivative."""
    with mp.workdps(50):
        x, k = mp.mpf(x), mp.mpf(k)
        y = x / k
        c = k if p is None else mp.mpf(p)
        kappas = [mp.log(c) + mp.psi(0, y)] + [mp.psi(j, y) for j in range(1, n)]
        bell = [mp.mpf(1)]
        for j in range(n):
            bell.append(sum(mp.binomial(j, i) * bell[j - i] * kappas[i]
                            for i in range(j + 1)))
        return mp.exp(mp_log_gamma(x, k, p)) * k ** -n * bell[n]


def mp_magnitude(s, x, k):
    with mp.workdps(50):
        s, x, k = mp.mpf(s), mp.mpf(x), mp.mpf(k)
        return mp.gamma(s + 1) * k ** -(s + 1) * mp.zeta(s + 1, x / k)


def _within_log_ulps(got, want, log_value):
    # a value read from a log L is accurate to about |L| units of 2^-52
    return abs(got - want) <= (abs(float(log_value)) + 16) * 2.0**-52 * abs(want)


class TestOneRangeRule:
    @pytest.mark.parametrize("n, x, k, p", [
        (8, 1.05e-34, 1e-35, None),  # 5.06e-32; Gamma_k is 1e-327, subnormal
        (8, 1.03e-34, 1e-35, None),  # 3.2e-25; Gamma_k underflows to 0
        (8, 9.4e-38, 1e-38, None),  # 1.7e5; B_8 k^-8 overflows
        (5, 170.0, 1.0, None),  # 1.52e308: G B_5 f^-5 would overflow
        (3, 1e-30, 1e20, 1e-30),  # G is 1e-2e21 past the range, D^(3) is not
    ])
    def test_derivative_beyond_the_scale_is_the_mpmath_value(self, n, x, k, p):
        want = mp_bell_deriv(n, x, k, p)
        assert _within_log_ulps(_deriv(n, x, k, p), want, mp_log_gamma(x, k, p))

    @pytest.mark.parametrize("x, k", [(1e-36, 1e-38), (1e-38, 1e-40)])
    def test_derivative_that_underflows_is_zero(self, x, k):
        # about 2e-3287 and 3.2e-3469: below the range, so 0.0, not an overflow
        assert mp_bell_deriv(8, x, k, None) < mp.mpf(2) ** -1075
        assert fn.k_gamma_deriv(8, EvalPoint(x, k)) == 0.0

    @pytest.mark.parametrize("x, k, p", [
        (1e-30, 1e300, None),  # y underflows to 0: 1e30
        (3e-22, 1e300, None),  # y is subnormal: lgamma(y) was 0.46% off
        (1e-15, 1e300, None),  # and 1.5e-9 off here
        (1e-30, 1e300, 2.0),
        (5e-324, 1e10, None),  # 2e323 overflows
    ])
    def test_gamma_at_a_subnormal_ratio_is_one_over_x(self, x, k, p):
        # ln G = -ln x + y (ln c - gamma) + O(y^2), which is -ln x there
        want = mp.exp(mp_log_gamma(x, k, p))
        pt = EvalPoint(x, k, p)
        call = fn.k_gamma if p is None else fn.pk_gamma
        if want > sys.float_info.max:
            with pytest.raises(ComputationOverflowError, match="overflows"):
                call(pt)
            return
        assert _within_log_ulps(call(pt), want, mp.log(want))

    def test_derivatives_at_a_zero_ratio_stay_refused(self):
        # psi(y) is undefined at y = 0: every order, inside a block or not
        for block in (contextlib.nullcontext, kernels.memoised):
            for n in (0, 1, 8):
                with block(), pytest.raises(DomainError, match="got 0.0"):
                    fn.k_gamma_deriv(n, EvalPoint(1e-30, 1e300))

    @pytest.mark.parametrize("s, x, k", [
        (3.0, 1.0, 1e-120),  # 2e120: the scale 3! k^-4 overflowed
        (3.5, 1.0, 1e-120),  # 3.3234e120
        (3.0, 1e100, 1e-10),  # 2e-290: zeta_H(4, 1e110) underflowed to 0
        (2.5, 1e-80, 1e220),  # zeta_H(3.5, 1e-300) overflows: Gamma(3.5) x^-3.5
        (1.5, 1e-30, 1e300),  # y underflows to 0
        (1.0, 1e150, 1e170),  # 1e-300: the scale's k^-2 underflows
    ])
    def test_magnitude_beyond_the_scale_is_the_mpmath_value(self, s, x, k):
        want = mp_magnitude(s, x, k)
        got = fn.k_polygamma_magnitude_fractional(s, EvalPoint(x, k))
        assert _within_log_ulps(got, want, mp.log(want))
        if s == 3.0:
            # the integer order agrees with psi_k^(3)
            assert got == pytest.approx(fn.k_polygamma(3, EvalPoint(x, k)), rel=1e-12)

    def test_magnitude_past_the_range_is_typed(self):
        with pytest.raises(ComputationOverflowError,
                           match=re.escape("|psi_k^(2.5)(1e-300; k=1.0)| overflows")):
            fn.k_polygamma_magnitude_fractional(2.5, EvalPoint(1e-300, 1.0))
        # an int order is a polygamma order, named as `k_polygamma` names it
        with pytest.raises(ComputationOverflowError,
                           match="^" + re.escape("psi_k^(3)(1e-300; k=1.0) overflows")):
            fn.k_polygamma_magnitude_fractional(3, EvalPoint(1e-300, 1.0))

    @pytest.mark.parametrize("log_value, want", [
        (1.5e28, None), (-1.5e28, 0.0), (math.inf, None), (-math.inf, 0.0),
        (math.nan, None), (2.0**20, None), (-(2.0**20), 0.0),
        (-745.0, 5e-324), (709.0, math.exp(709.0)), (-700.0, math.exp(-700.0)),
    ])
    def test_a_log_past_every_double_is_decided_by_its_sign(self, log_value, want):
        # never a bare OverflowError from round(inf), and never 0.0 for an
        # overflow; a NaN log (x/k = inf) is an overflow
        head, exponent = fn._split_exp(log_value)
        assert 0.5 <= head < 1.0
        if want is None:
            with pytest.raises(ComputationOverflowError, match="^G overflows"):
                fn._ldexp(head, exponent, "G")
        else:
            assert fn._ldexp(head, exponent, "G") == want

    def test_huge_log_gamma_is_a_typed_overflow(self):
        # ln G is about +1.5e28: ln G - c ln 2 keeps no digits there
        pt = EvalPoint(3.689642851336771, 7.597848024645953e-29)
        with pytest.raises(ComputationOverflowError, match=re.escape(
                "Gamma_k(3.689642851336771; k=7.597848024645953e-29) overflows")):
            fn.k_gamma(pt)


def _parent_log_gamma(x, k, p):
    # ln G as the closed forms summed it before the range rule, at a normal y
    y = x / k
    if y < 100.0:
        prefactor = (y - 1.0) * math.log(k) if p is None else y * math.log(p) - math.log(k)
        return prefactor + math.lgamma(y)
    head = ((y - 1.0) * math.log(k * y) + 0.5 * math.log(y) if p is None
            else y * math.log(p * y) - 0.5 * math.log(y) - math.log(k))
    return head - y + kernels.stirling_series(y)


def _normal(value):
    return sys.float_info.min <= abs(value) <= sys.float_info.max


class TestInRangeBitsAreKept:
    """Where the plain formulas give a normal double, the range rule returns
    that double bit for bit."""

    @given(
        log_x=st.floats(min_value=-300.0, max_value=300.0),
        log_k=st.floats(min_value=-300.0, max_value=300.0),
        log_p=st.none() | st.floats(min_value=-300.0, max_value=300.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_gamma(self, log_x, log_k, log_p):
        x, k = 10.0**log_x, 10.0**log_k
        p = None if log_p is None else 10.0**log_p
        assume(sys.float_info.min <= x / k < math.inf)
        log_value = _parent_log_gamma(x, k, p)
        assume(log_value <= kernels.LOG_MAX)
        want = math.exp(log_value)
        assume(_normal(want))
        call = fn.k_gamma if p is None else fn.pk_gamma
        assert call(EvalPoint(x, k, p)) == want

    @given(
        n=st.integers(min_value=0, max_value=kernels.GAMMA_DERIV_MAX_ORDER),
        log_x=st.floats(min_value=-30.0, max_value=30.0),
        log_k=st.floats(min_value=-30.0, max_value=30.0),
        p=st.none() | st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_derivative(self, n, log_x, log_k, p):
        # G k^-n B_n, with G, k^-n and the product normal doubles
        x, k = 10.0**log_x, 10.0**log_k
        log_value = _parent_log_gamma(x, k, p)
        assume(log_value <= kernels.LOG_MAX)
        gamma = math.exp(log_value)
        bell = kernels.bell_sequence(n, x / k, k if p is None else p)[n]
        want = gamma * (bell * k ** -float(n))
        assume(_normal(gamma) and _normal(want))
        assert _deriv(n, x, k, p) == want

    @given(
        m=st.integers(min_value=1, max_value=kernels.POLYGAMMA_MAX_ORDER),
        log_x=st.floats(min_value=-300.0, max_value=300.0),
        log_y=st.floats(min_value=-30.0, max_value=19.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_polygamma(self, m, log_x, log_y):
        # m! k^-(m+1) zeta_H(m+1, y), k = f 2^e, as the product m! f^-(m+1)
        # z 2^(c - (m+1) e) of the formula before the range rule
        x = 10.0**log_x
        k = x / 10.0**log_y
        assume(0.0 < k < math.inf and x / k < 2.0**64)
        try:
            zeta = kernels.hurwitz_zeta(m + 1.0, x / k)
        except ComputationOverflowError:
            return
        f, e = math.frexp(k)
        z, c = math.frexp(zeta)
        try:
            want = math.ldexp(math.factorial(m) * f ** (-(m + 1.0)) * z, c - (m + 1) * e)
        except OverflowError:
            return
        assume(_normal(want))
        assert fn.k_polygamma(m, EvalPoint(x, k)) == (-1) ** (m + 1) * want

    @given(
        s=st.floats(min_value=1.0, max_value=12.5),
        log_x=st.floats(min_value=-300.0, max_value=300.0),
        log_y=st.floats(min_value=-30.0, max_value=19.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_magnitude(self, s, log_x, log_y):
        # Gamma(o) k^-o zeta_H(o, y) at y < 2^64, o = s + 1, with k = f 2^e
        # and o e = n + phi (n an integer, phi in [0, 1)): the product
        # Gamma(o) f^-o 2^-phi zeta_H, of the mantissas of Gamma(o) and
        # zeta_H, times 2^-n and their powers of two, as `k_polygamma` forms
        # it at an integer order
        x = 10.0**log_x
        k = x / 10.0**log_y
        assume(0.0 < k < math.inf and x / k < 2.0**64)
        o = s + 1.0
        try:
            zeta = kernels.hurwitz_zeta(o, x / k)
        except ComputationOverflowError:
            return
        f, e = math.frexp(k)
        n = math.floor(Fraction(o) * e)
        phi = float(Fraction(o) * e - n)
        gamma, c = math.frexp(math.gamma(o))
        z, d = math.frexp(zeta)
        try:
            want = math.ldexp(gamma * f**-o * 2.0**-phi * z, c + d - n)
        except OverflowError:
            return
        assume(_normal(want))
        assert fn.k_polygamma_magnitude_fractional(s, EvalPoint(x, k)) == want


class TestPositiveRealRule:
    """One rule, `kernels.require_positive`, refuses every non-positive,
    non-finite or non-real parameter with one message."""

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf,
                                     10**400, "1.0", None, 1j])
    def test_every_site_refuses_alike(self, bad):
        message = re.escape(f"must be a finite positive real, got {bad!r}")
        calls = [
            ("x", lambda: EvalPoint(bad, 1.0)),
            ("k", lambda: EvalPoint(1.0, bad)),
            ("k", lambda: fn.k_zeta(2.0, bad)),
            ("p", lambda: fn.pk_zeta(2.0, 1.0, bad)),
            ("y", lambda: kernels.log_gamma(bad)),
            ("a", lambda: kernels.hurwitz_zeta(2.0, bad)),
        ]
        if bad is not None:  # a point without p carries p = None
            calls.append(("p", lambda: EvalPoint(1.0, 1.0, bad)))
        for name, call in calls:
            with pytest.raises(DomainError, match=f"^{name} {message}$"):
                call()

    def test_numpy_scalars_are_computed_in_double_precision(self):
        np = pytest.importorskip("numpy")
        x, k, p = np.float32(0.75), np.int64(2), np.float64(1.5)
        pt = EvalPoint(x, k, p)
        assert (type(pt.x), type(pt.k), type(pt.p)) == (float, float, float)
        assert pt == EvalPoint(float(x), 2.0, 1.5)
        assert fn.pk_gamma(pt) == fn.pk_gamma(EvalPoint(float(x), 2.0, 1.5))
        assert fn.k_zeta(3.0, np.float32(0.5)) == fn.k_zeta(3.0, 0.5)
        assert fn.pk_zeta(3.0, 0.5, np.float32(2.0)) == fn.k_zeta(3.0, 0.5)
        assert kernels.hurwitz_zeta(2.0, np.float32(0.5)) == kernels.hurwitz_zeta(2.0, 0.5)
        assert kernels.log_gamma(np.int64(3)) == math.lgamma(3.0)
