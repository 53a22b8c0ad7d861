"""Quadrature-oracle tests: defining integrals vs known values and the
closed-form module (which carries its own independent accuracy contract)."""

import math

import pytest

from kgamma import functions as fn
from kgamma import oracle
from kgamma.functions import EvalPoint
from kgamma.policy import ORACLE_POLICY, AccuracyPolicy, DomainError

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
        # t^-0.5 endpoint behavior, resolved by the graded panels
        res = oracle.integrate_k_gamma(EvalPoint(0.5, 1.0))
        assert res.converged
        assert res.value == pytest.approx(
            fn.k_gamma(EvalPoint(0.5, 1.0)), rel=1e-8
        )


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

    def test_underflowed_kernel_near_zero(self):
        # t^k / c underflows to 0 in the graded panels toward t = 0, where
        # the integrand is c t^(s - k) to leading order
        k = 1.95
        res = oracle.integrate_bose(1.0, k, 1.0)
        closed = fn.pk_zeta(2.0, k, 1.0) * fn.pk_gamma(EvalPoint(2.0, k, 1.0))
        assert res.converged
        assert res.value == pytest.approx(closed, rel=1e-8)


class TestDerivIntegral:
    def test_zeroth(self):
        a = oracle.integrate_k_gamma_deriv(0, EvalPoint(2.0, 2.0))
        b = oracle.integrate_k_gamma(EvalPoint(2.0, 2.0))
        assert a.value == pytest.approx(b.value, rel=1e-10)

    def test_first_at_one(self):
        res = oracle.integrate_k_gamma_deriv(1, EvalPoint(1.0, 1.0))
        assert res.value == pytest.approx(-EULER_GAMMA, rel=1e-8)

    def test_second_at_one(self):
        res = oracle.integrate_k_gamma_deriv(2, EvalPoint(1.0, 1.0))
        assert res.value == pytest.approx(
            EULER_GAMMA**2 + math.pi**2 / 6.0, rel=1e-8
        )

    def test_p_variant(self):
        ppt = EvalPoint(2.0, 2.0, 3.0)
        res = oracle.integrate_k_gamma_deriv(3, ppt, use_p=True)
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

    def test_result_invariant(self):
        res = oracle.integrate_k_polygamma(3, EvalPoint(2.0, 3.0))
        if res.converged:
            assert res.error_estimate <= max(
                ORACLE_POLICY.abs_tol, ORACLE_POLICY.rel_tol * abs(res.value)
            )
        assert res.subdivisions_used >= 1
