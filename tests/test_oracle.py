"""Quadrature-oracle tests: defining integrals vs known values and the
closed-form module (which carries its own independent accuracy contract)."""

import contextlib
import hashlib
import inspect
import math

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kgamma import cli
from kgamma import functions as fn
from kgamma import kernels, oracle
from kgamma.functions import EvalPoint
from kgamma.policy import (
    ABS_TOL,
    ORACLE_POLICY,
    AccuracyPolicy,
    ComputationOverflowError,
    DomainError,
    UnsupportedOrderError,
)

EULER_GAMMA = 0.5772156649015329


class TestKGammaIntegral:
    def test_exponential(self):
        res = oracle.integrate_k_gamma(EvalPoint(1.0, 1.0))
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-10)

    def test_gamma_two(self):
        res = oracle.integrate_k_gamma(EvalPoint(2.0, 1.0))
        assert res.value == pytest.approx(1.0, rel=1e-10)

    def test_half_gaussian(self):
        res = oracle.integrate_k_gamma(EvalPoint(1.0, 2.0))
        assert res.value == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-8)

    def test_singular_endpoint(self):
        # t^-0.5 endpoint behavior: the smooth tail e^(v/2) in v = log t
        res = oracle.integrate_k_gamma(EvalPoint(0.5, 1.0))
        assert res.converged
        assert res.value == pytest.approx(
            fn.k_gamma(EvalPoint(0.5, 1.0)), rel=1e-8
        )

    def test_point_with_p_is_refused(self):
        # the point picks the family: a p would be dropped here
        with pytest.raises(DomainError, match="integrate_pk_gamma is the p-k family"):
            oracle.integrate_k_gamma(EvalPoint(1.0, 1.0, 2.0))


class TestPkGammaIntegral:
    def test_classical(self):
        res = oracle.integrate_pk_gamma(EvalPoint(1.0, 1.0, 1.0))
        assert res.value == pytest.approx(1.0, rel=1e-10)

    def test_closed_form_value(self):
        res = oracle.integrate_pk_gamma(EvalPoint(2.0, 2.0, 3.0))
        assert res.value == pytest.approx(1.5, rel=1e-8)

    def test_fixed_point(self):
        res = oracle.integrate_pk_gamma(EvalPoint(2.0, 2.0, 2.0))
        assert res.value == pytest.approx(1.0, rel=1e-8)


class TestPolygammaIntegral:
    def test_trigamma(self):
        res = oracle.integrate_k_polygamma(1, EvalPoint(1.0, 1.0))
        assert res.value == pytest.approx(math.pi**2 / 6.0, rel=1e-8)

    def test_second_order(self):
        res = oracle.integrate_k_polygamma(2, EvalPoint(1.0, 1.0))
        # 2 zeta(3)
        assert res.value == pytest.approx(2.4041138063191885, rel=1e-8)

    def test_rescaled(self):
        res = oracle.integrate_k_polygamma(1, EvalPoint(2.0, 2.0))
        assert res.value == pytest.approx(math.pi**2 / 24.0, rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            oracle.integrate_k_polygamma(0, EvalPoint(1.0, 1.0))
        for m in (True, False, 2.0):
            for block in (contextlib.nullcontext, kernels.memoised):
                with block(), pytest.raises(DomainError) as refused:
                    oracle.integrate_k_polygamma(m, EvalPoint(1.0, 1.0))
                assert str(refused.value) == (
                    f"polygamma integral order must be an integer >= 1, got {m}")


class TestBoseIntegral:
    def test_classical_s1(self):
        res = oracle.integrate_bose(1.0, 1.0, 1.0)
        assert res.value == pytest.approx(math.pi**2 / 6.0, rel=1e-8)

    def test_classical_s3(self):
        res = oracle.integrate_bose(3.0, 1.0, 1.0)
        assert res.value == pytest.approx(math.pi**4 / 15.0, rel=1e-8)

    def test_p_variant_factorization(self):
        # integral = pzeta_k(x) pGamma_k(x) at x = s + 1
        for p in (0.5, 2.0, 5.0):
            res = oracle.integrate_bose(3.0, 2.0, p)
            closed = fn.pk_zeta(4.0, 2.0, p) * fn.pk_gamma(EvalPoint(4.0, 2.0, p))
            assert res.value == pytest.approx(closed, rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            oracle.integrate_bose(1.0, 2.5, 1.0)  # s - k <= -1
        with pytest.raises(DomainError, match="requires s >= 1"):
            oracle.integrate_bose(0.5, 1.0, 1.0)
        for k, c in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -1.0),
                     (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(DomainError, match="requires k > 0 and c > 0"):
                oracle.integrate_bose(1.0, k, c)

    def test_underflowed_kernel_near_zero(self):
        # t^k / c underflows to 0 in the panels far below v = 0, where the
        # integrand is c t^(s - k + 1) in v = log t to leading order
        k = 1.95
        res = oracle.integrate_bose(1.0, k, 1.0)
        closed = fn.pk_zeta(2.0, k, 1.0) * fn.pk_gamma(EvalPoint(2.0, k, 1.0))
        assert res.converged
        assert res.value == pytest.approx(closed, rel=1e-8)
        assert_honest(res, mp_bose(1.0, k, 1.0))


class TestDerivIntegral:
    def test_zeroth(self):
        a = oracle.integrate_k_gamma_deriv(0, EvalPoint(2.0, 2.0))
        b = oracle.integrate_k_gamma(EvalPoint(2.0, 2.0))
        assert a.value == pytest.approx(b.value, rel=1e-10)

    def test_zeroth_is_the_value_integral(self):
        # same integrand, so the same result: crosscheck reuses one for the other
        for pt in (EvalPoint(2.0, 2.0), EvalPoint(0.3, 1.7), EvalPoint(5.0, 0.5)):
            assert oracle.integrate_k_gamma_deriv(0, pt) == oracle.integrate_k_gamma(pt)
            ppt = EvalPoint(pt.x, pt.k, 0.7)
            assert (oracle.integrate_k_gamma_deriv(0, ppt)
                    == oracle.integrate_pk_gamma(ppt))

    def test_first_at_one(self):
        res = oracle.integrate_k_gamma_deriv(1, EvalPoint(1.0, 1.0))
        assert res.value == pytest.approx(-EULER_GAMMA, rel=1e-8)

    def test_second_at_one(self):
        res = oracle.integrate_k_gamma_deriv(2, EvalPoint(1.0, 1.0))
        assert res.value == pytest.approx(
            EULER_GAMMA**2 + math.pi**2 / 6.0, rel=1e-8
        )

    @pytest.mark.parametrize("n, error", [
        (-1, DomainError), (1.5, DomainError), (9, UnsupportedOrderError),
        (True, DomainError), (False, DomainError),
    ])
    def test_order_outside_0_to_8_is_refused(self, n, error):
        with pytest.raises(error, match="derivative order"):
            oracle.integrate_k_gamma_deriv(n, EvalPoint(1.0, 1.0))

    def test_p_variant(self):
        ppt = EvalPoint(2.0, 2.0, 3.0)
        res = oracle.integrate_k_gamma_deriv(3, ppt)
        assert res.value == pytest.approx(fn.pk_gamma_deriv(3, ppt), rel=1e-8)


class TestOracleContracts:
    STANDARD = [
        (x, k) for x in (0.5, 1.0, 2.0, 5.0, 10.0) for k in (0.5, 1.0, 2.0, 3.0)
    ]

    def test_error_bound_vs_closed_form(self):
        # converged results honor their own error estimate against the
        # independently-contracted closed form
        for x, k in self.STANDARD:
            pt = EvalPoint(x, k)
            res = oracle.integrate_k_gamma(pt)
            closed = fn.k_gamma(pt)
            assert res.converged
            assert abs(res.value - closed) <= res.error_estimate + 1e-10 * closed

    def test_tolerance_halving_stability(self):
        tight = AccuracyPolicy(rel_tol=0.5e-10, max_subdivisions=8000)
        for x, k in ((0.5, 0.5), (1.0, 1.0), (5.0, 2.0), (10.0, 0.5)):
            pt = EvalPoint(x, k)
            base = oracle.integrate_k_gamma(pt)
            refined = oracle.integrate_k_gamma(pt, tight)
            assert base.converged and refined.converged
            assert abs(refined.value - base.value) <= max(
                base.error_estimate, 1e-12 * abs(base.value)
            )

    def test_truncation_soundness(self):
        # a sharper tolerance extends the truncated domain; converged
        # values must not move by more than the stated tolerance
        policy = AccuracyPolicy(rel_tol=1e-8, max_subdivisions=4000)
        for x, k in ((1.0, 0.5), (10.0, 0.5), (5.0, 1.0)):
            pt = EvalPoint(x, k)
            coarse = oracle.integrate_k_gamma(pt, policy)
            fine = oracle.integrate_k_gamma(pt, ORACLE_POLICY)
            assert abs(coarse.value - fine.value) <= 1e-8 * abs(fine.value)

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": math.inf}, {"rel_tol": math.nan}, {"rel_tol": 0.0},
        {"rel_tol": -1e-10}, {"max_subdivisions": 0}, {"max_subdivisions": 10.5},
        {"max_subdivisions": math.inf}, {"max_subdivisions": True},
    ])
    def test_policy_refuses_a_meaningless_setting(self, kwargs):
        # rel_tol = inf once certified integrate_k_gamma at x = 0.05 as
        # 0.7497, converged, against Gamma(0.05) = 19.47
        with pytest.raises(ValueError):
            AccuracyPolicy(**kwargs)

    def test_policy_accepts_the_benchmark_settings(self):
        assert AccuracyPolicy() == AccuracyPolicy(1e-12, 4000)
        assert AccuracyPolicy(rel_tol=1e-10, max_subdivisions=4000) == ORACLE_POLICY

    def test_result_invariant(self):
        res = oracle.integrate_k_polygamma(3, EvalPoint(2.0, 3.0))
        if res.converged:
            assert res.error_estimate <= max(
                ABS_TOL, ORACLE_POLICY.rel_tol * abs(res.value)
            )
        assert res.subdivisions_used >= 1

    def test_no_kernel_is_evaluated(self, monkeypatch):
        # the oracle is a second route only while it shares none of the
        # closed forms' arithmetic: with every kernel but the order and
        # positive-real rules raising, all five integrals still return
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle evaluated a kernel")

        for name, attr in vars(kernels).items():
            if (inspect.isfunction(attr) and attr.__module__ == kernels.__name__
                    and name not in ("check_order", "check_deriv_order",
                                     "require_positive")):
                monkeypatch.setattr(kernels, name, refuse)
        with pytest.raises(AssertionError, match="evaluated a kernel"):
            fn.k_gamma(EvalPoint(1.5, 0.8))
        pt, ppt = EvalPoint(1.5, 0.8), EvalPoint(1.5, 0.8, 2.0)
        for res in (
            oracle.integrate_k_gamma(pt),
            oracle.integrate_pk_gamma(ppt),
            oracle.integrate_k_polygamma(2, pt),
            oracle.integrate_bose(2.0, 0.8, 2.0),
            oracle.integrate_k_gamma_deriv(3, ppt),
        ):
            assert res.converged


# --------------------------------------------------------------------------
# the log-variable scheme against 50-digit references (at 40 digits,
# mpmath's zeta_H(13, a) at a near 1,500 is itself 5e-12 off)


def mp_deriv(n, x, k, c):
    """d^n/dx^n of c^(x/k) Gamma(x/k) / k, which is the n-th derivative
    integral, at 50 digits."""
    with mp.workdps(50):
        return mp.diff(
            lambda t: mp.mpf(c) ** (t / k) * mp.gamma(t / k) / k, mp.mpf(x), n
        )


def mp_bose(s, k, c):
    """zeta((s+1)/k) pGamma_k(s+1) at p = c, the Bose integral, at 50 digits."""
    with mp.workdps(50):
        y = (mp.mpf(s) + 1) / k
        return mp.zeta(y) * mp.mpf(c) ** y * mp.gamma(y) / k


def mp_polygamma_integral(m, x, k):
    """m! k^-(m+1) zeta_H(m+1, x/k), the polygamma integral I_m, at 50 digits."""
    with mp.workdps(50):
        return mp.factorial(m) * mp.mpf(k) ** -(m + 1) * mp.zeta(m + 1, mp.mpf(x) / k)


def mp_crossing_p(n, y):
    """The p at which D^(n) of pGamma_k vanishes at x = y k, for odd n.

    D^(n) is G k^-n B_n(kappa_1, ..., kappa_n), with cumulants
    kappa_1 = ln p + psi(y) and kappa_j = psi^(j-1)(y): B_n is a monic
    polynomial of odd degree in u = kappa_1, whose real root gives p.
    """
    with mp.workdps(50):
        kappa = [mp.mpf(0)] + [mp.psi(j, y) for j in range(1, n)]
        bell = [mp.mpf(1)]  # B_j at kappa_1 = 0
        for j in range(n):
            bell.append(mp.fsum(mp.binomial(j, i) * kappa[i] * bell[j - i]
                                for i in range(j + 1)))
        roots = mp.polyroots([mp.binomial(n, j) * bell[j] for j in range(n + 1)],
                             maxsteps=200, extraprec=200)
        u = mp.re(min(roots, key=lambda r: abs(mp.im(r))))
        return float(mp.exp(u - mp.psi(0, y)))


def mp_derivs(n_max, x, k, c):
    """D^(0..n_max) of c^(x/k) Gamma(x/k) / k at 50 digits, as
    G k^-n B_n(kappa_1, ..., kappa_n) with kappa_1 = ln c + psi(x/k) and
    kappa_j = psi^(j-1)(x/k): `mp_deriv` for every order at once, without
    its numerical differentiation."""
    with mp.workdps(50):
        y = mp.mpf(x) / k
        kappa = [mp.log(c) + mp.psi(0, y)] + [mp.psi(j, y) for j in range(1, n_max)]
        bell = [mp.mpf(1)]
        for j in range(n_max):
            bell.append(mp.fsum(mp.binomial(j, i) * kappa[i] * bell[j - i]
                                for i in range(j + 1)))
        value = mp.mpf(c) ** y * mp.gamma(y) / k
        return [value * b / mp.mpf(k) ** n for n, b in enumerate(bell)]


def log_uniform(lo, hi):
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


def integrate(n, pt):
    """Order 0 through the gamma integrals, higher orders through the
    derivative integral; the p-k family when the point carries p."""
    if n > 0:
        return oracle.integrate_k_gamma_deriv(n, pt)
    if pt.p is None:
        return oracle.integrate_k_gamma(pt)
    return oracle.integrate_pk_gamma(pt)


def assert_honest(res, want):
    """A converged result lies within 10 error estimates of the reference."""
    if res.converged:
        assert abs(mp.mpf(res.value) - want) <= 10 * res.error_estimate, res


class TestLogVariable:
    # node counts: at most 457 for the gamma family (n = 4, x = 1e-3,
    # k = 20) and 161 / 185 for psi_k / Bose over the corners of these
    # domains; 441 / 161 / 185 over 20,000 / 3,333 / 3,333 random points

    @given(
        x=log_uniform(1e-3, 50.0),
        k=log_uniform(0.01, 20.0),
        p=log_uniform(1e-3, 1e3),
        n=st.integers(min_value=0, max_value=8),
        with_p=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_converged_within_ten_error_estimates(self, x, k, p, n, with_p):
        pt = EvalPoint(x, k, p if with_p else None)
        want = mp_deriv(n, x, k, p if with_p else k)
        try:
            res = integrate(n, pt)
        except ComputationOverflowError:
            # the integrand peaks beyond double range
            assert abs(want) > 1e300
            return
        assert res.subdivisions_used < 500
        assert_honest(res, want)

    @given(
        m=st.integers(min_value=1, max_value=12),
        x=log_uniform(1e-3, 50.0),
        k=log_uniform(0.01, 20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_polygamma_converged_within_ten_error_estimates(self, m, x, k):
        res = oracle.integrate_k_polygamma(m, EvalPoint(x, k))
        assert res.converged and res.subdivisions_used < 200
        assert_honest(res, mp_polygamma_integral(m, x, k))

    @given(
        s=st.floats(min_value=1.0, max_value=13.0),
        sigma=log_uniform(0.01, 14.0),
        c=log_uniform(1e-3, 1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_bose_converged_within_ten_error_estimates(self, s, sigma, c):
        # sigma = s - k + 1 down to 0.01: the tail c e^(sigma v) at the
        # integrability edge
        k = s + 1.0 - sigma
        assume(k >= 0.01)
        want = mp_bose(s, k, c)
        try:
            res = oracle.integrate_bose(s, k, c)
        except ComputationOverflowError:
            assert abs(want) > 1e300
            return
        assert res.subdivisions_used < 200
        assert_honest(res, want)

    @given(
        n=st.sampled_from([1, 3, 5, 7]),
        y=log_uniform(0.5, 300.0),
        k=log_uniform(0.01, 20.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_odd_order_at_its_zero_crossing(self, n, y, k):
        # D^(n) = 0 up to the rounding of p, against an integral of |g| of
        # the derivative's scale
        x = y * k
        assume(1e-3 <= x <= 50.0)
        p = mp_crossing_p(n, y)
        assume(1e-3 <= p <= 1e3)
        res = oracle.integrate_k_gamma_deriv(n, EvalPoint(x, k, p))
        assert res.converged
        assert_honest(res, mp_deriv(n, x, k, p))

    def test_error_estimate_covers_the_truncated_tail(self):
        # a long tail below v = -16 at k = 0.054, where an estimate from
        # the resolved part alone once missed 3e-15 of the value
        x, k = 1.9245838423527828, 0.05381096545266038
        res = oracle.integrate_k_gamma_deriv(2, EvalPoint(x, k))
        assert res.converged
        assert abs(mp.mpf(res.value) - mp_deriv(2, x, k, k)) <= res.error_estimate

    @pytest.mark.parametrize("n, x, k, c", [
        # v^4 still grows below v = -1 at sigma = 0.21: a tail bound with
        # rate sigma stopped the walk there, 5.5e4 short of the integral
        (4, 0.21150529005037613, 0.05571485210417031, 9.693086910553),
        # a steep flank on [0, 1] where K15 - G7 vanishes by accident: the
        # panel is 1% off with an estimate of 1e-6 of that
        (2, 0.09025101462634201, 19.206661829530514, 4.800936532017206),
        (2, 45.99953413178958, 9.445995048285564, 0.04113775254487631),
    ])
    def test_error_estimate_covers_tails_and_flanks(self, n, x, k, c):
        res = oracle.integrate_k_gamma_deriv(n, EvalPoint(x, k, c))
        assert res.converged
        assert_honest(res, mp_deriv(n, x, k, c))

    def test_error_estimate_covers_summation_roundoff(self):
        # next to the minimum of Gamma the first derivative is -3.9e-8,
        # while the integral of |g| is about 1: the panel sum loses about
        # 1e-14 of that, more than rel_tol of the value
        res = oracle.integrate_k_gamma_deriv(1, EvalPoint(1.4616321, 1.0))
        assert_honest(res, mp_deriv(1, 1.4616321, 1.0, 1.0))

    def test_converged_near_a_zero_of_an_odd_order(self):
        # D^(3) of pGamma_k is -2.4e-4 here, while the integral of |g| is
        # 9.34: an estimate of 1.1e-13 is converged against the latter
        x, k, p = 1.0597702202694022, 1.0978725227110262, 3.0727313410050314
        res = oracle.integrate_k_gamma_deriv(3, EvalPoint(x, k, p))
        assert res.converged and res.error_estimate < 1e-12
        assert abs(res.value) < 1e-3
        assert_honest(res, mp_deriv(3, x, k, p))

    def test_refinement_stops_at_the_roundoff_floor(self):
        # 9e-6 relative from the point above D^(3) is -1.8e-15: refining
        # toward rel_tol of that, far below the roundoff of the node sum,
        # would spend the whole budget; it takes the nodes of the point above
        x, k, p = 1.0597793777835383, 1.0978725227110262, 3.0727313410050314
        res = oracle.integrate_k_gamma_deriv(3, EvalPoint(x, k, p))
        assert res.converged and res.subdivisions_used <= 73
        assert abs(res.value) < 1e-12 and res.error_estimate < 1e-12
        assert_honest(res, mp_deriv(3, x, k, p))

    def test_panel_error_estimate_is_scale_invariant(self):
        # powers of two scale every node value exactly, and with them each
        # order's value and estimate; the walk and the levels are the same
        def g(v):
            return math.exp(-v * v)

        orders = (0, 1, 2)
        bases = oracle._integrate(g, 0.0, 1.0, 0.0, ORACLE_POLICY, orders)
        assert all(base.converged for base in bases)
        for scale in (2.0**-100, 2.0**100):
            results = oracle._integrate(lambda v: scale * g(v), 0.0, 1.0, 0.0,
                                        ORACLE_POLICY, orders)
            assert results == [oracle.QuadratureResult(
                scale * base.value, scale * base.error_estimate,
                base.subdivisions_used, True) for base in bases]

    @staticmethod
    def vanished_change(gap, stray=False):
        # node terms by tau: a at 0, b / 2 at the 2 midpoints of step 1/2 and
        # (a + b) / 4 at the 4 of step 1/4, 0 elsewhere.  The walk's first
        # negligible nodes are tau = +-1/2, confirmed by +-1, so the levels
        # refine over (-1/2, 1/2) alone.  The levels of steps 1/2, 1/4 and
        # 1/8 are a / 2, (a + b) / 4 and (a + b) / 4 again: the last change
        # vanishes, and the one before it, (b - a) / 4, is about gap / 2 of
        # the mass.  A budget of 18 nodes ends the rule there, at 11 nodes,
        # as the next level would bring 8 more.  A stray bump puts 1 at each
        # midpoint of steps 1/2 and 1/4 between the two negligible walk nodes
        a, b = 1.0, 1.0 + gap
        terms = {0.0: a, **{tau: b / 2 for tau in (-0.25, 0.25)},
                 **{(j + 0.5) / 4: (a + b) / 4 for j in range(-2, 2)}}
        if stray:
            terms.update(dict.fromkeys((-0.875, -0.75, -0.625, 0.625, 0.75, 0.875), 1.0))
        # the node of tau is v = tau + 1 - e^-tau, with the weight 1 + e^-tau
        g_at = {tau + 1.0 - math.exp(-tau): term / (1.0 + math.exp(-tau))
                for tau, term in terms.items()}
        policy = AccuracyPolicy(rel_tol=1e-10, max_subdivisions=18)
        res, = oracle._integrate(lambda v: g_at.get(v, 0.0), 0.0, 1.0, 0.0, policy)
        assert res.subdivisions_used == 11
        assert res.value == pytest.approx((a + b) / 4, rel=1e-15)
        return res

    @pytest.mark.parametrize("gap, certified", [
        (1e-5, True), (4e-5, False), (0.5, False)])
    def test_a_vanished_change_needs_the_one_before_it(self, gap, certified):
        # the level is certified only if the change before the vanished one
        # is within sqrt(rel_tol) = 1e-5 of the mass
        res = self.vanished_change(gap)
        assert res.converged is certified
        if certified:
            assert res.error_estimate <= 1e-10 * res.value
        else:
            assert res.error_estimate >= ((1.0 + gap) - 1.0) / 4  # (b - a) / 4

    def test_a_bump_between_the_negligible_walk_nodes_is_not_summed(self):
        # the levels refine only up to the first negligible walk node: a bump
        # between it and the node that confirms it is never evaluated
        assert self.vanished_change(1e-5, stray=True) == self.vanished_change(1e-5)

    @pytest.mark.parametrize("x", [2.5e-5, 0.001, 0.01])
    @pytest.mark.parametrize("with_p", [False, True])
    def test_small_x(self, x, with_p):
        # sigma = x: the tail e^(x v) reaches 1e-12 only near v = -28 / x
        res = integrate(0, EvalPoint(x, 1.0, 1.0 if with_p else None))
        want = mp_deriv(0, x, 1.0, 1.0)
        assert res.converged
        assert res.value == pytest.approx(float(want), rel=1e-10)
        assert_honest(res, want)

    @pytest.mark.parametrize("k", [1.97, 1.99])
    def test_bose_near_the_integrability_edge(self, k):
        # sigma = s - k + 1 = 0.03 and 0.01: a slow tail e^(sigma v)
        res = oracle.integrate_bose(1.0, k, 1.0)
        want = mp_bose(1.0, k, 1.0)
        assert res.converged
        assert res.value == pytest.approx(float(want), rel=1e-10)
        assert_honest(res, want)

    def test_tail_unmet_at_the_floor_is_not_converged(self):
        # sigma = 1e-6: the tail e^(sigma v) falls to 1e-20 of the peak only
        # near v = -4.6e7, past the walk's end at tau = -16 (s = 0.5, 1)
        res = oracle.integrate_bose(1.0, 1.999999, 1.0)
        assert not res.converged
        res = oracle.integrate_k_gamma(EvalPoint(1e-6, 1.0))
        assert not res.converged

    def test_mass_below_underflowed_panels(self):
        # at p = 1e-6 the integrand underflows to 0 from about v = -7 up,
        # while the mass sits near v = log(p) = -14
        res = oracle.integrate_pk_gamma(EvalPoint(1.0, 1.0, 1e-6))
        assert res.converged
        assert res.value == pytest.approx(1e-6, rel=1e-10)
        assert_honest(res, mp_deriv(0, 1.0, 1.0, 1e-6))

    def test_integrand_cut_at_its_peak_is_not_certified(self):
        # at x = 1e-150, k = 1e160 the k-polygamma integrand peaks near
        # v = -log x = 345, where u = k t is about e^714: past e^709 it is cut
        # to 0.0, where its mass is, while psi_k^(1) is 1e300.  The cut never
        # certifies the 0 it leaves
        pt = EvalPoint(1e-150, 1e160)
        assert fn.k_polygamma(1, pt) == pytest.approx(1e300)
        res = oracle.integrate_k_polygamma(1, pt)
        assert not res.converged
        assert cli.main(["eval", "oracle_k_polygamma", "--m", "1", "--x", "1e-150",
                         "--k", "1e160"]) == cli.EXIT_FAIL

    def test_value_below_the_absolute_floor_is_not_certified(self):
        # pGamma_k(1) = p.  At p = 1e-320 the node values are subnormal, with
        # a few significant bits, and the sum holds 1e-320 to about 1e-3:
        # the estimate charges each node's rounding, so nothing is certified
        res = oracle.integrate_pk_gamma(EvalPoint(1.0, 1.0, 1e-320))
        assert res.error_estimate > ORACLE_POLICY.rel_tol * abs(res.value)
        assert not res.converged
        # at p = 1e-300, the absolute floor ABS_TOL, the values are normal
        res = oracle.integrate_pk_gamma(EvalPoint(1.0, 1.0, 1e-300))
        assert res.converged
        assert res.value == pytest.approx(1e-300, rel=1e-13)
        assert_honest(res, mp_deriv(0, 1.0, 1.0, 1e-300))

    def test_subnormal_mass_stops_refining(self):
        # at p = 1e-320, rel_tol of the mass is below the subnormal charge
        # of the nodes from the first level on, and more nodes only raise
        # the charge: the rule stops once its estimate is finite, at 35
        # nodes
        res = oracle.integrate_pk_gamma(EvalPoint(1.0, 1.0, 1e-320))
        assert not res.converged and res.subdivisions_used <= 41
        assert res.error_estimate >= abs(res.value - 1e-320)
        # a mass that underflowed to 0 everywhere stops as soon
        res = oracle.integrate_bose(1.0, 0.5, 1e-200)
        assert (res.value, res.converged) == (0.0, False)
        assert res.subdivisions_used <= 41

    def test_panel_count_at_small_x(self):
        # the power-law endpoint t^(x-1) costs a longer walk, and no finer
        # step: 107 nodes, against 59 at x = 1
        res = oracle.integrate_k_gamma(EvalPoint(0.05, 1.0))
        assert res.converged and res.subdivisions_used <= 113


class TestSharedNodeSet:
    """`integrate_k_gamma_derivs` against each order's own call and against
    50-digit references, over the domains of `TestLogVariable`."""

    @staticmethod
    def check(orders, x, k, p):
        pt = EvalPoint(x, k, p)
        singles = []
        for n in orders:
            try:
                singles.append(oracle.integrate_k_gamma_deriv(n, pt))
            except ComputationOverflowError:
                # an overflow at one order is an overflow of the call
                with pytest.raises(ComputationOverflowError):
                    oracle.integrate_k_gamma_derivs(orders, pt)
                return
        shared = oracle.integrate_k_gamma_derivs(orders, pt)
        assert len(shared) == len(orders)
        want = mp_derivs(max(orders), x, k, k if p is None else p)
        for n, res, single in zip(orders, shared, singles):
            # each order sums its own nodes of the shared set: its own
            # call's result to the bit, and so well within either estimate
            assert (res.value, res.error_estimate, res.converged) == (
                single.value, single.error_estimate, single.converged), n
            assert_honest(res, want[n])

    @given(
        x=log_uniform(1e-3, 50.0),
        k=log_uniform(0.01, 20.0),
        p=log_uniform(1e-3, 1e3),
        with_p=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_all_orders_in_one_call(self, x, k, p, with_p):
        self.check(tuple(range(9)), x, k, p if with_p else None)

    @given(
        orders=st.lists(st.integers(min_value=0, max_value=8), min_size=1,
                        max_size=9, unique=True).map(tuple),
        x=log_uniform(1e-3, 50.0),
        k=log_uniform(0.01, 20.0),
        p=log_uniform(1e-3, 1e3),
        with_p=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_subset_of_orders(self, orders, x, k, p, with_p):
        self.check(orders, x, k, p if with_p else None)

    def test_overflow_at_one_order_is_an_overflow_of_the_call(self):
        # Gamma_k(18; 0.05) is 9.4e295 and its first derivative 5.4e297,
        # while the eighth is beyond double range
        pt = EvalPoint(18.0, 0.05)
        assert oracle.integrate_k_gamma_derivs((0, 1), pt)[0].converged
        with pytest.raises(ComputationOverflowError):
            oracle.integrate_k_gamma_derivs((0, 1, 8), pt)

    def test_every_order_is_checked_first(self, monkeypatch):
        monkeypatch.setattr(oracle, "_integrate", None)  # no node is evaluated
        with pytest.raises(UnsupportedOrderError):
            oracle.integrate_k_gamma_derivs((0, 9), EvalPoint(1.0, 1.0))
        with pytest.raises(DomainError):
            oracle.integrate_k_gamma_derivs((1, -1), EvalPoint(1.0, 1.0))

    def test_shared_nodes_are_counted(self):
        # each order stops at its own level, and counts the nodes the call
        # had evaluated by then: never fewer than its own call's
        pt = EvalPoint(0.5, 0.7, 2.0)
        shared = oracle.integrate_k_gamma_derivs(range(9), pt)
        singles = [oracle.integrate_k_gamma_deriv(n, pt) for n in range(9)]
        assert all(a.subdivisions_used >= b.subdivisions_used
                   for a, b in zip(shared, singles))
        assert max(a.subdivisions_used for a in shared) < sum(
            b.subdivisions_used for b in singles)


class TestTailEnds:
    """Each side of the walk ends at the first of its two negligible nodes:
    no level refines beyond it, and the second, which only confirms it, is
    evaluated once."""

    @staticmethod
    def first_negligible(g, n):
        """The walk's rule written out at v0 = 0, s = 1: the tau of the first
        of two consecutive terms g(v) v^n (1 + e^-tau) within 1e-20 of the
        largest so far, to the right and then to the left of tau = 0."""
        def size(tau):
            e = math.exp(-tau)
            v = tau + 1.0 - e
            return abs(g(v) * v**n * (1.0 + e))

        largest, firsts = size(0.0), []
        for step in (0.5, -0.5):
            quiet = j = 0
            while quiet < 2:
                j += 1
                term = size(step * j)
                largest = max(largest, term)
                quiet = quiet + 1 if term <= 1e-20 * largest else 0
            assert j < 32  # both tails met
            firsts.append(step * (j - 1))
        return firsts

    @pytest.mark.parametrize("orders", [(0,), (2,), (0, 1, 2)])
    def test_levels_stop_at_the_first_negligible_node(self, orders):
        def g(v):
            return math.exp(-v * v)

        evaluated = []

        def recorded(v):
            evaluated.append(v)
            return g(v)

        results = oracle._integrate(recorded, 0.0, 1.0, 0.0, ORACLE_POLICY, orders)
        assert all(res.converged for res in results)
        # a shared walk goes on to the widest order's tails
        ends = [self.first_negligible(g, n) for n in orders]
        hi, lo = max(end[0] for end in ends), min(end[1] for end in ends)

        def v_at(tau):
            return tau + 1.0 - math.exp(-tau)

        confirming = [v_at(hi + 0.5), v_at(lo - 0.5)]
        assert [evaluated.count(v) for v in confirming] == [1, 1]
        assert all(v_at(lo) <= v <= v_at(hi) for v in evaluated if v not in confirming)
        # the levels did refine: more nodes than the walk's
        assert len(evaluated) > 1 + 2 * (hi - lo) + 2


class TestNodeCount:
    """`subdivisions_used` is the number of times the integrand was
    evaluated: for each lone order, and in a shared call for the order that
    stops last."""

    @pytest.fixture
    def counted(self, monkeypatch):
        # each _integrate call as (evaluations of g, its results)
        calls, integrate = [], oracle._integrate

        def counting(g, *args):
            count = 0

            def g_counted(v):
                nonlocal count
                count += 1
                return g(v)

            results = integrate(g_counted, *args)
            calls.append((count, results))
            return results

        monkeypatch.setattr(oracle, "_integrate", counting)
        return calls

    # small x, where the walk runs longest, the benchmark's small-x point,
    # and wide and narrow peaks
    POINTS = [(0.001, 1.0, 1.0), (0.07, 0.83, 2.7), (0.5, 0.7, 2.0), (1.0, 1.0, 0.5),
              (5.0, 2.0, 1e-3), (9.0, 1.5, 3.0)]

    @pytest.mark.parametrize("x, k, p", POINTS)
    def test_a_lone_order_counts_its_evaluations(self, counted, x, k, p):
        oracle.integrate_k_gamma(EvalPoint(x, k))
        oracle.integrate_pk_gamma(EvalPoint(x, k, p))
        for m in (1, 2, 12):
            oracle.integrate_k_polygamma(m, EvalPoint(x, k))
        for m in (1.5, 3.0):  # integrable at 0 for every k here
            for c in (k, p):
                oracle.integrate_bose(m, k, c)
        for n in range(9):
            oracle.integrate_k_gamma_deriv(n, EvalPoint(x, k, p))
        oracle.integrate_k_gamma_deriv(4, EvalPoint(x, k, p), AccuracyPolicy(1e-14, 60))
        assert len(counted) == 2 + 3 + 4 + 9 + 1
        for count, (res,) in counted:
            assert res.subdivisions_used == count > 0

    @pytest.mark.parametrize("x, k, p", POINTS)
    def test_the_last_order_of_a_shared_call_counts_every_evaluation(
            self, counted, x, k, p):
        for orders in (range(9), (0, 1, 2, 3, 4), (0, 7)):
            oracle.integrate_k_gamma_derivs(orders, EvalPoint(x, k, p))
        for count, results in counted:
            assert max(res.subdivisions_used for res in results) == count


class TestCrosscheckDomain:
    """The integrals of a `crosscheck` point against 50-digit references,
    over the domain of the benchmark's `crosscheck` points: each converges
    to within one error estimate, where `assert_honest` allows ten."""

    @staticmethod
    def check(res, want):
        assert res.converged and abs(mp.mpf(res.value) - want) <= res.error_estimate, res

    @given(
        x=log_uniform(0.05, 10.0),
        k=st.floats(min_value=0.5, max_value=1.99),
        p=st.floats(min_value=0.5, max_value=5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_within_one_error_estimate(self, x, k, p):
        for c in (None, p):
            pt = EvalPoint(x, k, c)
            want = mp_derivs(4, x, k, k if c is None else c)
            for n, res in enumerate(oracle.integrate_k_gamma_derivs(range(5), pt)):
                self.check(res, want[n])
        for m in (1, 2):
            self.check(oracle.integrate_k_polygamma(m, EvalPoint(x, k)),
                       mp_polygamma_integral(m, x, k))
            for c in (k, p):
                self.check(oracle.integrate_bose(m, k, c), mp_bose(m, k, c))


class TestOverflow:
    def test_integral_beyond_double_range_is_typed(self):
        with pytest.raises(ComputationOverflowError):
            oracle.integrate_k_gamma_deriv(4, EvalPoint(10.0, 0.05, 2.0))

    def test_panel_sums_at_the_edge_of_range_are_typed(self):
        # the integral is about 1e308: node values are finite but the sum of
        # their deviations overflows, which would be a NaN error estimate
        with pytest.raises(ComputationOverflowError):
            oracle.integrate_bose(9.0, 0.06265002945275601, 1.4497853820016129)

    def test_cli_reports_typed_overflow(self, capsys):
        code = cli.main(["eval", "oracle_k_gamma_deriv", "--n", "4", "--x", "10",
                         "--k", "0.05", "--p", "2"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_DOMAIN
        assert "overflows double precision" in err

    def test_large_finite_integral(self):
        # Gamma_k(20) at k = 0.07 is 9e247: panel errors far above 1e205,
        # where (200 delta)^1.5 would overflow, are still estimates
        pt = EvalPoint(20.0, 0.07)
        res = oracle.integrate_k_gamma(pt)
        assert res.converged
        assert res.value == pytest.approx(fn.k_gamma(pt), rel=1e-9)


# --------------------------------------------------------------------------
# the oracle's bits: a digest of fixed calls, and its node tables


def golden_calls():
    """The oracle calls whose every field the golden digest covers: every
    integral of `crosscheck --x 0.1,1,5 --k 0.5,1,2 --p-param 0.5,2 --n 0..8
    --m 1,2,3`, the small-x points where the tail e^(x v) is longest, a p
    and a c deep in the subnormal range, a tight node budget, and a kinked
    integrand refined past the cached levels."""
    orders = tuple(range(9))
    for x in (0.1, 1.0, 5.0):
        for k in (0.5, 1.0, 2.0):
            for p in (None, 0.5, 2.0):
                pt = EvalPoint(x, k, p)
                yield from oracle.integrate_k_gamma_derivs(orders, pt)
                yield (oracle.integrate_k_gamma(pt) if p is None
                       else oracle.integrate_pk_gamma(pt))
            for m in (1, 2, 3):
                yield oracle.integrate_k_polygamma(m, EvalPoint(x, k))
    for k in (0.5, 1.0, 2.0):
        for m in (1, 2, 3):
            if m - k > -1.0:  # integrable at 0, as crosscheck requires
                for c in (k, 0.5, 2.0):
                    yield oracle.integrate_bose(m, k, c)
    for x in (0.001, 0.01):
        for k in (0.5, 1.0):
            for p in (None, 1.0):
                yield from oracle.integrate_k_gamma_derivs(orders, EvalPoint(x, k, p))
        yield oracle.integrate_k_polygamma(1, EvalPoint(x, 1.0))
    yield oracle.integrate_pk_gamma(EvalPoint(1.0, 1.0, 1e-320))
    yield oracle.integrate_bose(1.0, 0.5, 1e-200)
    yield from oracle.integrate_k_gamma_derivs(
        orders, EvalPoint(0.3, 0.7, 2.0), AccuracyPolicy(1e-14, 300))
    # a kink at v = 0.3 slows convergence to h^2: levels past the tabled ones
    yield from oracle._integrate(kinked, 0.1, 0.7, 3.0, AccuracyPolicy(1e-15, 2**15),
                                 (0, 1, 2, 3))


def kinked(v):
    return math.exp(-abs(v - 0.3) - v * v)


class TestBitIdentity:
    def test_golden_digest(self):
        # a change of any bit of any field of any call changes the digest.
        # Taken with glibc's libm, whose exp and expm1 the integrands call
        lines = "\n".join(
            repr((res.value, res.error_estimate, res.subdivisions_used, res.converged))
            for res in golden_calls())
        assert hashlib.sha256(lines.encode()).hexdigest() == (
            "e7a057de64bf85fa0629bcb9078eef02a21d11fcff7a048cc791051effd72bcc")

    def test_golden_overflow(self):
        with pytest.raises(ComputationOverflowError,
                           match="^integral overflows double precision$"):
            oracle.integrate_k_gamma_deriv(4, EvalPoint(10.0, 0.05, 2.0))


class TestNodeTables:
    """Every tabled node is the one the map gives at its tau, bit for bit,
    and no policy grows the tables past their cap."""

    @staticmethod
    def inline(tau):
        e = math.exp(-tau)
        return tau + 1.0 - e, 1.0 + e

    def test_side_nodes(self):
        assert sorted(oracle._SIDES) == [-0.5, 0.5]
        for step, table in oracle._SIDES.items():
            assert len(table) == 32
            for j, node in enumerate(table, 1):
                assert node == self.inline(step * j)
        assert oracle._CENTRE == self.inline(0.0)

    def test_cached_midpoint_nodes(self):
        list(golden_calls())  # fills the tables of every cached level
        assert sorted(oracle._MIDPOINTS) == [2.0**-j for j in range(7, 0, -1)]
        for h, table in oracle._MIDPOINTS.items():
            assert len(table) == round(32 / h) <= oracle._TABLE_CAP
            for j, node in enumerate(table):
                assert node == self.inline(-16.0 + (j + 0.5) * h)

    @pytest.mark.parametrize("depth", [1, 4, 7, 8, 13])
    def test_midpoint_slices(self, depth):
        # cached levels are sliced from their table, finer ones built alone:
        # the same nodes either way
        h = 2.0**-depth
        for lo in (-16.0, -3.5, 0.0, 12.5):
            count = min(round((16.0 - lo) / h), 300)
            nodes = oracle._midpoints(h, lo, count)
            assert nodes == [self.inline(lo + (j + 0.5) * h) for j in range(count)]

    def test_deep_call_keeps_the_cache_bounded(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MIDPOINTS", {})
        res = oracle._integrate(kinked, 0.1, 0.7, 3.0, AccuracyPolicy(1e-15, 2**15))[0]
        # levels down to h = 2^-10 evaluated, the last three beyond the cap
        assert res.subdivisions_used > 4 * oracle._TABLE_CAP
        assert max(map(len, oracle._MIDPOINTS.values())) == oracle._TABLE_CAP
        assert min(oracle._MIDPOINTS) == 2.0**-7
