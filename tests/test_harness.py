"""Inequality-harness tests: slack values, verdicts, grid sweeps."""

import contextlib
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgamma import cli, harness, kernels, oracle
from kgamma import functions as fn
from kgamma.functions import EvalPoint
from kgamma.harness import GridSpec, HolderPair
from kgamma.policy import ComputationOverflowError, DomainError, UnsupportedOrderError

EULER_GAMMA = 0.5772156649015329
ZETA3 = 1.2020569031595943


class TestHolderPair:
    def test_conjugate(self):
        hp = HolderPair.conjugate(1.5)
        assert hp.q == pytest.approx(3.0, rel=1e-15)

    # an infinite p passes the conjugacy test with q = 1 + 1e-13, but it is
    # no finite exponent
    @pytest.mark.parametrize("p,q", [(2.0, 3.0), (1.0, 1.0), (0.5, -1.0),
                                     (math.inf, 1.0 + 1e-13)])
    def test_invariant(self, p, q):
        with pytest.raises(DomainError):
            HolderPair(p, q)

    def test_exponents_are_floats(self):
        hp = HolderPair(2, 2)
        assert (repr(hp.p), repr(hp.q)) == ("2.0", "2.0")
        assert repr(HolderPair.conjugate(3).p) == "3.0"


class TestHolderPolygamma:
    def test_equality_case(self):
        for p_exp in (2.0, 3.0, 1.5):
            hp = HolderPair.conjugate(p_exp)
            check = harness.check_holder_polygamma(2, 2, hp, EvalPoint(1.5, 2.0))
            assert abs(check.slack) <= check.margin + 1e-12
            assert check.verdict == "PASS"

    def test_classical_example(self):
        # m=1, n=3, p=q=2 at x=k=1:
        # lhs = sqrt(psi'(1) |psi'''(1)|) = sqrt(pi^2/6 * pi^4/15)
        # rhs = |psi''(1)| = 2 zeta(3)
        hp = HolderPair(2.0, 2.0)
        check = harness.check_holder_polygamma(1, 3, hp, EvalPoint(1.0, 1.0))
        lhs_expect = math.sqrt((math.pi**2 / 6.0) * (math.pi**4 / 15.0))
        rhs_expect = 2.0 * ZETA3
        assert check.lhs == pytest.approx(lhs_expect, rel=1e-12)
        assert check.rhs == pytest.approx(rhs_expect, rel=1e-12)
        assert check.slack == pytest.approx(lhs_expect - rhs_expect, rel=1e-10)
        assert check.verdict == "PASS"

    def test_generalized_point(self):
        hp = HolderPair(2.0, 2.0)
        check = harness.check_holder_polygamma(1, 3, hp, EvalPoint(2.0, 2.0))
        assert check.slack > 0
        assert check.verdict == "PASS"

    def test_rounded_exponent_sum_is_one(self):
        # m = n = 1: s = 1/p + 1/q is 1 exactly, but rounds to
        # 0.9999999999999999 at p = 1.843, below the fractional order's domain
        hp = HolderPair.conjugate(1.843)
        assert 1.0 / hp.p + 1.0 / hp.q < 1.0
        check = harness.check_holder_polygamma(1, 1, hp, EvalPoint(1.0, 0.5))
        assert check.rhs == fn.k_polygamma_magnitude_fractional(
            1.0, EvalPoint(1.0, 0.5))
        assert check.verdict == "PASS"

    @pytest.mark.parametrize("m, n", [(0, 1), (1, 0)])
    def test_domain(self, m, n):
        with pytest.raises(DomainError,
                           match="^Hölder order must be an integer >= 1, got 0$"):
            harness.check_holder_polygamma(m, n, HolderPair(2.0, 2.0),
                                           EvalPoint(1.0, 1.0))

    @pytest.mark.parametrize("m, n", [(13, 1), (1, 13)])
    def test_order_past_the_polygamma_cap(self, m, n):
        # the magnitude reads any real order s >= 1; T1's integer orders stop
        # at the cap of psi_k^(m), inside a sweep block or not
        for block in (contextlib.nullcontext, kernels.memoised):
            with block(), pytest.raises(
                    UnsupportedOrderError,
                    match="^Hölder order 13 exceeds supported cap 12$"):
                harness.check_holder_polygamma(m, n, HolderPair(2.0, 2.0),
                                               EvalPoint(1.0, 1.0))

    def test_exponent_degeneracy_limit(self):
        # p -> 1+: lhs -> |psi^(m)|, s -> m, slack -> 0
        hp = HolderPair.conjugate(1.0 + 1e-6)
        check = harness.check_holder_polygamma(2, 3, hp, EvalPoint(1.0, 1.0))
        assert abs(check.slack) <= 1e-4 * abs(check.lhs)


class TestHolderZeta:
    def test_equality_case(self):
        hp = HolderPair(2.0, 2.0)
        check = harness.check_holder_zeta(3, 3, hp, 1.0)
        assert abs(check.slack) <= check.margin + 1e-12

    def test_classical_example(self):
        # lhs = sqrt(zeta(2) zeta(4)); rhs = Gamma(3)/sqrt(Gamma(2)Gamma(4)) zeta(3)
        hp = HolderPair(2.0, 2.0)
        check = harness.check_holder_zeta(1, 3, hp, 1.0)
        lhs_expect = math.sqrt((math.pi**2 / 6.0) * (math.pi**4 / 90.0))
        rhs_expect = 2.0 / math.sqrt(6.0) * ZETA3
        assert check.lhs == pytest.approx(lhs_expect, rel=1e-12)
        assert check.rhs == pytest.approx(rhs_expect, rel=1e-12)
        assert check.slack > 0

    def test_p_variant_reduces_at_p_equals_k(self):
        hp = HolderPair(2.0, 2.0)
        for k in (1.0, 2.0):
            base = harness.check_holder_zeta(2, 4, hp, k)
            pvar = harness.check_holder_zeta(2, 4, hp, k, p_param=k)
            assert pvar.slack == pytest.approx(base.slack, rel=1e-12)
            assert pvar.theorem_id == "T3"

    def test_p_variant_positive(self):
        hp = HolderPair(2.0, 2.0)
        check = harness.check_holder_zeta(1, 3, hp, 1.0, p_param=2.0)
        assert check.slack > 0

    def test_domain(self):
        hp = HolderPair(2.0, 2.0)
        # zeta argument 2/3 <= 1: refused by zeta_k before any gamma read
        with pytest.raises(DomainError) as refused:
            harness.check_holder_zeta(1, 1, hp, 3.0)
        assert str(refused.value) == "k_zeta requires x/k > 1, got x=2.0, k=3.0"
        for m, n in ((0, 1), (1, 0)):
            with pytest.raises(DomainError,
                               match="^Hölder order must be an integer >= 1, got 0$"):
                harness.check_holder_zeta(m, n, hp, 1.0)

    def test_underflowed_gamma_ratio_is_an_evaluation_error(self):
        # Gamma_k(2; k=1e-4) = k^(2/k - 1) Gamma(2/k) underflows to 0 in the
        # ratio's denominator, which once raised a bare ZeroDivisionError
        with pytest.raises(ComputationOverflowError) as underflowed:
            harness.check_holder_zeta(1, 1, HolderPair(2.0, 2.0), 1e-4)
        assert str(underflowed.value) == (
            "gamma ratio denominator of orders m=1, n=1 at k=0.0001 underflows "
            "to 0 in double precision")

    @pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf])
    def test_bad_p_is_refused(self, p):
        # p_param reads no value, but a p that no point could carry is refused
        with pytest.raises(DomainError) as refused:
            harness.check_holder_zeta(1, 3, HolderPair(2.0, 2.0), 1.0, p)
        assert str(refused.value) == f"p must be a finite positive real, got {p!r}"

    @pytest.mark.parametrize("ks", [GridSpec().ks, cli.parse_grid_axis("0.01:3:20")])
    def test_t3_is_t2(self, ks):
        # with y_j = (j + 1)/k the Hölder exponents give y_s = y_m/P + y_n/Q,
        # so (p/k)^y cancels from T3's gamma ratio, and pzeta_k = zeta_k:
        # every T3 row is its T2 twin bit for bit, down to k = 0.01, where
        # pGamma_k would overflow at 80 points that Gamma_k does not
        checks, summary = harness.scan_grid(GridSpec(ks=ks), ("T2", "T3"))
        t2 = {_twin_key(c): c for c in checks if c.theorem_id == "T2"}
        t3 = [c for c in checks if c.theorem_id == "T3"]
        assert summary.errors == []
        assert len(t3) == len(GridSpec().p_params) * len(t2)
        for check in t3:
            assert _t2_repr(check) == repr(t2[_twin_key(check)])

    @settings(max_examples=100, deadline=None)
    @given(st.floats(math.log(0.05), math.log(3.0)).map(math.exp),
           st.floats(math.log(1e-3), math.log(1e3)).map(math.exp))
    def test_t3_matches_the_pk_gamma_route(self, k, p):
        # T3 is T2 at every p, and its rhs is the ratio of pGamma_k values up
        # to their rounding.  The pGamma_k route forms ln G(x) from the terms
        # (x/k) ln p, -ln k and ln Gamma(x/k), the Gamma_k route from
        # (x/k - 1) ln k and ln Gamma(x/k).  Each term is rounded within an
        # ulp or two, which is many ulps of |ln G| where the terms cancel;
        # exp turns that absolute error into a relative one, and the powers
        # weight it by 1/P and 1/Q.  The + 1 covers exp, the powers, the
        # product and the quotient.  c = 8: over 760,000 comparisons the
        # largest error was 2.3 units.
        for hp, m, n, s in harness._holder_triples(GridSpec()):
            if not min(m + 1.0, n + 1.0, s + 1.0) / k > 1.0:
                continue
            t3 = harness.check_holder_zeta(m, n, hp, k, p)
            assert _t2_repr(t3) == repr(harness.check_holder_zeta(m, n, hp, k))
            xs, weights = (s + 1.0, m + 1.0, n + 1.0), (1.0, 1.0 / hp.p, 1.0 / hp.q)
            try:
                g = [fn.pk_gamma(EvalPoint(x, k, p)) for x in xs]
            except ComputationOverflowError:  # (p/k)^(x/k) beyond the double range
                continue
            ratio = g[0] / (g[1] ** weights[1] * g[2] ** weights[2])
            old = ratio * fn.k_zeta(s + 1.0, k)
            terms = sum(w * ((x / k) * (abs(math.log(p)) + abs(math.log(k)))
                             + 2.0 * abs(math.lgamma(x / k)))
                        for w, x in zip(weights, xs))
            assert abs(t3.rhs - old) <= 8.0 * 2.0**-52 * (terms + 1.0) * abs(old)


def _twin_key(check):
    return check.k, check.m, check.n, check.holder_p


def _t2_repr(check):
    # the T3 record as its T2 twin would print it: repr tells -0.0 from 0.0
    return repr(dataclasses.replace(check, theorem_id="T2", p_param=None))


class TestTuranGammaDeriv:
    def test_spot_value(self):
        # n=1, x=k=1: Gamma''(1) Gamma(1) - Gamma'(1)^2 = pi^2/6
        check = harness.check_turan_gamma_deriv(1, EvalPoint(1.0, 1.0))
        assert check.slack == pytest.approx(math.pi**2 / 6.0, rel=1e-9)
        assert check.verdict == "PASS"

    def test_odd_orders_hold(self):
        for n in (1, 3, 5):
            for x, k in ((0.5, 0.5), (1.0, 1.0), (2.0, 2.0), (5.0, 3.0)):
                check = harness.check_turan_gamma_deriv(n, EvalPoint(x, k))
                assert check.verdict == "PASS", (n, x, k, check.slack)

    def test_even_order_counterexample_is_genuine(self):
        # The log-power Cauchy-Schwarz factorization needs non-negative
        # integrands, which only holds for odd n; at n=2, x=k=1 the
        # inequality genuinely reverses.  Cross-check the negative slack
        # against the defining-integral oracle so FAIL means mathematics.
        check = harness.check_turan_gamma_deriv(2, EvalPoint(1.0, 1.0))
        assert check.verdict == "FAIL"
        assert check.slack == pytest.approx(-0.7700602178712809, rel=1e-9)
        pt = EvalPoint(1.0, 1.0)
        g1 = oracle.integrate_k_gamma_deriv(1, pt).value
        g2 = oracle.integrate_k_gamma_deriv(2, pt).value
        g3 = oracle.integrate_k_gamma_deriv(3, pt).value
        assert g1 * g3 - g2 * g2 == pytest.approx(check.slack, rel=1e-6)

    def test_p_variant_consistency(self):
        base = harness.check_turan_gamma_deriv(2, EvalPoint(1.0, 1.0))
        pvar = harness.check_turan_gamma_deriv(2, EvalPoint(1.0, 1.0, 1.0))
        assert pvar.slack == pytest.approx(base.slack, rel=1e-12)
        assert pvar.theorem_id == "T4PK"

    def test_point_with_p_picks_the_p_k_family(self):
        # a point with p gives the p-k record, bit for bit: pGamma_k at
        # p = 2, whose slack is not Gamma_k's -0.77 at k = 1
        check = harness.check_turan_gamma_deriv(2, EvalPoint(1, 1, 2))
        assert check == harness.InequalityCheck(
            "T4PK", 1, 1, 2, None, 2, None, None, None,
            -0.848830420198061, 11.000819725633423, -11.849650145831484,
            7.109790087498891e-10, "FAIL",
        )

    def test_order_bounds(self):
        with pytest.raises(DomainError):
            harness.check_turan_gamma_deriv(0, EvalPoint(1.0, 1.0))
        with pytest.raises(DomainError):
            harness.check_turan_gamma_deriv(8, EvalPoint(1.0, 1.0))

    def test_overflowed_products_are_evaluation_errors(self):
        # each derivative is finite, but their products overflow: inf - inf
        # would be a NaN slack and a FAIL verdict
        pt = EvalPoint(5.0, 0.05, 1.0)
        with pytest.raises(ComputationOverflowError):
            harness.check_turan_gamma_deriv(1, pt)
        checks, summary = harness.scan_grid(
            GridSpec(xs=(5.0,), ks=(0.05,), p_params=(1.0,), ns=(1,)), ("T4PK",)
        )
        assert checks == []
        assert summary.errors == [
            "T4PK: Turán products of order 1 at EvalPoint(x=5.0, k=0.05, p=1.0) "
            "overflow double precision"
        ]


class TestMidpointGammaDeriv:
    def test_l_zero_exact(self):
        check = harness.check_midpoint_gamma_deriv(2, 0, EvalPoint(2.0, 2.0))
        assert check.slack == 0.0
        assert check.verdict == "PASS"

    def test_classical_example(self):
        # [Gamma(1) + Gamma''''(1)]/2 - Gamma''(1)
        check = harness.check_midpoint_gamma_deriv(2, 2, EvalPoint(1.0, 1.0))
        assert check.slack == pytest.approx(10.302625051356872, rel=1e-10)
        assert check.verdict == "PASS"

    def test_p_variant(self):
        check = harness.check_midpoint_gamma_deriv(2, 2, EvalPoint(2.0, 2.0, 3.0))
        assert check.slack >= 0
        assert check.theorem_id == "T6"

    def test_preconditions(self):
        with pytest.raises(DomainError):
            harness.check_midpoint_gamma_deriv(3, 2, EvalPoint(1.0, 1.0))
        with pytest.raises(DomainError):
            harness.check_midpoint_gamma_deriv(2, 4, EvalPoint(1.0, 1.0))
        with pytest.raises(DomainError):
            harness.check_midpoint_gamma_deriv(6, 4, EvalPoint(1.0, 1.0))


def _raw_difference(check):
    """T7's d = psi_k^(n) - [psi_k^(n+1) + psi_k^(n-1)] / 2: the record's
    slack is d at odd n and -d at even n."""
    return check.slack if check.n % 2 else -check.slack


class TestMidpointPolygamma:
    def test_odd_order_positive(self):
        # d = psi'''(1) - [psi''''(1) + psi''(1)]/2 > 0
        check = harness.check_midpoint_polygamma(3, EvalPoint(1.0, 1.0))
        assert check.verdict == "PASS"
        d_expect = (math.pi**4 / 15.0) - 0.5 * (
            -24.0 * 1.0369277551433699 + (-2.0 * ZETA3)
        )
        assert _raw_difference(check) == pytest.approx(d_expect, rel=1e-10)
        assert _raw_difference(check) == check.lhs - check.rhs

    def test_even_order_negative(self):
        check = harness.check_midpoint_polygamma(2, EvalPoint(1.0, 1.0))
        assert check.verdict == "PASS"
        assert _raw_difference(check) < 0
        assert _raw_difference(check) == check.lhs - check.rhs

    def test_generalized_point(self):
        check = harness.check_midpoint_polygamma(2, EvalPoint(2.0, 2.0))
        assert _raw_difference(check) < 0
        assert check.verdict == "PASS"

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 1.0), st.integers(2, 11))
    def test_sign_identity(self, log_x, log_k, n):
        # psi_k^(m) has the sign (-1)^(m+1), so lhs and rhs have opposite
        # signs, the parity-oriented slack is |lhs| + |rhs|, and no row FAILs
        try:
            check = harness.check_midpoint_polygamma(
                n, EvalPoint(10.0**log_x, 10.0**log_k))
        except ComputationOverflowError:
            return
        assert check.lhs * check.rhs <= 0.0
        assert check.slack == abs(check.lhs) + abs(check.rhs)
        assert check.verdict == "PASS"

    def test_order_bounds(self):
        with pytest.raises(DomainError):
            harness.check_midpoint_polygamma(1, EvalPoint(1.0, 1.0))
        with pytest.raises(DomainError):
            harness.check_midpoint_polygamma(12, EvalPoint(1.0, 1.0))


class TestScanGrid:
    def test_empty_theorem_set(self):
        checks, summary = harness.scan_grid(GridSpec(), ())
        assert checks == []
        assert summary.per_theorem == {}

    def test_t4_small_grid(self):
        spec = GridSpec(xs=(1.0, 2.0), ks=(1.0, 2.0), ns=(1, 2))
        checks, summary = harness.scan_grid(spec, ("T4K",))
        assert len(checks) == 8
        entry = summary.per_theorem["T4K"]
        # odd orders hold; the even-order points at k <= 1 genuinely reverse
        assert entry["PASS"] == sum(1 for c in checks if c.slack >= 0)
        assert all(c.slack > 0 for c in checks if c.n == 1)

    def test_t7_all_pass_with_parity_direction(self):
        spec = GridSpec(xs=(1.0, 5.0), ks=(1.0, 3.0), ns=(2, 3, 4, 5))
        checks, summary = harness.scan_grid(spec, ("T7",))
        assert len(checks) == 16
        assert summary.per_theorem["T7"]["PASS"] == 16
        # frozen regression: smallest observed parity-oriented slack
        assert summary.per_theorem["T7"]["min_slack"] > 1e-4

    def test_summary_is_built_from_the_rows(self, monkeypatch):
        # one theorem whose rows all have slack +inf, one with NaN slacks
        def theorem(theorem_id, slacks):
            points = lambda spec: ((s, float(x)) for x, s in enumerate(slacks, 1))
            evaluate = lambda slack, x, slack_tol: harness._record(
                theorem_id, slack, 0.0, 0.0, slack_tol, x=x, k=1.0)
            return theorem_id, points, evaluate

        monkeypatch.setattr(harness, "THEOREMS", (
            theorem("T1", [math.inf, math.inf]),
            theorem("T2", [1.0, 0.0, -0.0, 2.0]),
            theorem("T3", [-0.0, 0.0]),
            theorem("T4K", [3.0, -2.0, 5.0, -2.0, -1.0]),
            theorem("T7", [1.0, math.nan, -5.0, math.nan]),
        ))
        checks, summary = harness.scan_grid(GridSpec(), ("T1", "T2", "T3", "T4K", "T7"))
        assert len(checks) == 17
        assert summary.per_theorem["T1"] == {
            "count": 2, "PASS": 2, "FAIL": 0, "not_evaluated": 0,
            "min_slack": math.inf, "min_slack_at": {"x": 1.0, "k": 1.0},
        }
        # equal least slacks, -0.0 and 0.0 among them, go to the earlier row
        least = {t: (repr(e["min_slack"]), e["min_slack_at"]["x"])
                 for t, e in summary.per_theorem.items()}
        assert least["T2"] == ("0.0", 2.0)
        assert least["T3"] == ("-0.0", 1.0)
        assert least["T4K"] == ("-2.0", 2.0)
        assert summary.per_theorem["T4K"]["PASS"] == 2
        entry = summary.per_theorem["T7"]
        assert (entry["count"], entry["PASS"], entry["FAIL"]) == (4, 1, 3)
        # a NaN slack is the worst row, and the earlier of two
        assert math.isnan(entry["min_slack"])
        assert entry["min_slack_at"] == {"x": 2.0, "k": 1.0}

    def test_determinism(self):
        spec = GridSpec()
        first, _ = harness.scan_grid(spec, ("T1", "T5", "T7"))
        second, _ = harness.scan_grid(spec, ("T1", "T5", "T7"))
        assert first == second

    def test_unknown_theorem(self):
        with pytest.raises(DomainError):
            harness.scan_grid(GridSpec(), ("T9",))

    def test_grid_invariants(self):
        with pytest.raises(DomainError):
            GridSpec(ks=(0.0, 1.0))
        with pytest.raises(DomainError):
            GridSpec(holder_ps=(1.0,))
        # an order that is not exactly an int, a bool included
        for axes, order in (({"ns": (True,)}, "True"), ({"ms": (1, 2.0)}, "2.0"),
                            ({"ls": (False, 2)}, "False"), ({"ns": (-1,)}, "-1")):
            for block in (contextlib.nullcontext, kernels.memoised):
                with block(), pytest.raises(DomainError) as refused:
                    GridSpec(**axes)
                assert str(refused.value) == (
                    f"grid order must be a non-negative integer, got {order}")

    def test_integrality_filter(self):
        spec = GridSpec(xs=(1.0,), ks=(1.0,), ms=(1, 2), ns=(1, 2),
                        holder_ps=(2.0,))
        checks, _ = harness.scan_grid(spec, ("T1",))
        # p = q = 2 keeps only m + n even
        assert {(c.m, c.n) for c in checks} == {
            (1, 1), (2, 2)
        }


def _sweep_blocks(monkeypatch) -> list:
    """The tables of every sweep block from here on, kept past the sweep."""
    blocks = []
    memoised = kernels.memoised

    @contextlib.contextmanager
    def recording():
        with memoised() as tables:
            blocks.append(tables)
            yield tables

    monkeypatch.setattr(harness, "memoised", recording)
    return blocks


class TestSharedValues:
    """A sweep computes each value its rows share once."""

    def test_t2_and_t3_read_one_entry_of_the_sides(self, monkeypatch):
        reads = []
        zeta_at = fn._zeta_at
        monkeypatch.setattr(fn, "_zeta_at", lambda x, k: reads.append((x, k))
                            or zeta_at(x, k))
        blocks = _sweep_blocks(monkeypatch)
        spec = GridSpec()
        checks, summary = harness.scan_grid(spec, ("T2", "T3"))
        t2 = [c for c in checks if c.theorem_id == "T2"]
        assert summary.errors == []
        assert len(checks) == (1 + len(spec.p_params)) * len(t2)
        # one computation per (m, n, P, Q, k), which reads zeta_k three times
        assert len(reads) == 3 * len(t2)
        assert set(blocks[0][harness._holder_zeta_sides]) == {
            (c.m, c.n, c.holder_p, c.holder_q, c.k) for c in t2}

    def test_a_failed_side_is_an_error_of_every_row(self):
        # at k = 1e-4 every Gamma_k ratio underflows or overflows: the sides
        # are stored for no point, and each T3 point reports T2's text
        spec = GridSpec(ks=(1e-4,))
        checks, summary = harness.scan_grid(spec, ("T2", "T3"))
        t2 = [e.removeprefix("T2: ") for e in summary.errors if e.startswith("T2: ")]
        t3 = [e.removeprefix("T3: ") for e in summary.errors if e.startswith("T3: ")]
        assert checks == [] and len(t2) == len(harness._holder_triples(spec))
        assert t3 == [e for _ in spec.p_params for e in t2]
        assert ("gamma ratio denominator of orders m=1, n=1 at k=0.0001 underflows "
                "to 0 in double precision") in t2

    def test_top_order_eight_is_bit_identical(self):
        # n = 7 reads D^(8): every row and error is that of the check called
        # outside a block
        spec = GridSpec(xs=(0.3, 1.0, 2.5, 170.0), ks=(0.7, 1.0), ns=(3, 7), ls=(0,))
        checks, summary = harness.scan_grid(spec, harness.THEOREM_IDS)
        direct_checks, direct_errors = _uncached_scan(spec)
        assert [repr(c) for c in checks] == [repr(c) for c in direct_checks]
        assert summary.errors == direct_errors
        assert any(c.n == 7 for c in checks)

    def test_grid_values_print_alike_in_every_row(self):
        # int grid values are floats in every row that records them, as
        # the CLI's own floats are
        spec = GridSpec(xs=(3,), ks=(1,), p_params=(2,), ns=(2,), ls=(0,),
                        holder_ps=(2,))
        checks, _ = harness.scan_grid(spec, harness.THEOREM_IDS)
        assert {c.theorem_id for c in checks} == set(harness.THEOREM_IDS)
        for column in ("x", "k", "p_param", "holder_p", "holder_q"):
            values = {getattr(c, column) for c in checks} - {None}
            assert {type(v) for v in values} == {float}, column
        text = cli._render_csv(checks, {"artifact_version": "test", "timestamp": "t"})
        rows = [line.split(",") for line in text.splitlines()[2:]]
        columns = dict(zip(cli.CSV_COLUMNS, zip(*rows)))
        assert set(columns["k"]) == {"1.0"}
        assert set(columns["p_param"]) == {"", "2.0"}
        assert set(columns["holder_p"]) == set(columns["holder_q"]) == {"", "2.0"}


def _direct_check(check, slack_tol=harness.DEFAULT_SLACK_TOL):
    """The uncached check_* call that produces `check`, rebuilt from its inputs."""
    c, tid = check, check.theorem_id
    if tid in ("T1", "T2", "T3"):
        hp = HolderPair(c.holder_p, c.holder_q)
        if tid == "T1":
            return harness.check_holder_polygamma(
                c.m, c.n, hp, EvalPoint(c.x, c.k), slack_tol
            )
        return harness.check_holder_zeta(c.m, c.n, hp, c.k, c.p_param, slack_tol)
    if tid == "T7":
        return harness.check_midpoint_polygamma(c.n, EvalPoint(c.x, c.k), slack_tol)
    # p_param is None in T4K and T5 records: the point picks the family
    pt = EvalPoint(c.x, c.k, c.p_param)
    if tid in ("T4K", "T4PK"):
        return harness.check_turan_gamma_deriv(c.n, pt, slack_tol)
    return harness.check_midpoint_gamma_deriv(c.n, c.l, pt, slack_tol)


def _uncached_scan(spec):
    """scan_grid's records and errors, every check evaluated outside any
    `kernels.memoised()` block."""
    checks, errors = [], []
    for theorem_id, points, evaluate in harness.THEOREMS:
        for point in points(spec):
            try:
                checks.append(evaluate(*point, harness.DEFAULT_SLACK_TOL))
            except (ArithmeticError, ValueError) as exc:
                errors.append(f"{theorem_id}: {exc}")
    return checks, errors


class TestScanCache:
    """A sweep's kernel cache must not change a single bit of its output."""

    def test_one_block_per_sweep(self, monkeypatch):
        seen = []
        check = harness.check_midpoint_polygamma

        def recording(*args):
            seen.append(kernels.active_cache())
            return check(*args)

        monkeypatch.setattr(harness, "check_midpoint_polygamma", recording)
        spec = GridSpec(xs=(1.0, 2.0), ks=(1.0,), ns=(2, 3))
        for _ in range(2):
            harness.scan_grid(spec, ("T7",))
            assert kernels.active_cache() is None
        # every check of a sweep shares its cache; the next sweep has its own
        first, second = seen[:4], seen[4:]
        assert len(seen) == 8 and first[0] is not None and second[0] is not first[0]
        assert all(c is first[0] for c in first) and all(c is second[0] for c in second)

    def test_default_grid_matches_direct_calls(self):
        checks, summary = harness.scan_grid(GridSpec(), harness.THEOREM_IDS)
        assert len(checks) == 1545 and summary.errors == []
        for check in checks:
            assert _direct_check(check) == check

    def test_error_grid_matches_uncached_scan(self):
        # k = 0.01 overflows Gamma, pGamma_k and high derivative orders; at
        # y = x/k = 170 orders 6..8 overflow but orders <= 5 do not
        spec = GridSpec(xs=(0.5, 1.7, 5.0, 170.0), ks=(0.01, 0.05, 1.0))
        checks, summary = harness.scan_grid(spec, harness.THEOREM_IDS)
        direct_checks, direct_errors = _uncached_scan(spec)
        # repr: exact float round trip
        assert [repr(c) for c in checks] == [repr(c) for c in direct_checks]
        assert summary.errors == direct_errors
        assert any("overflows" in e for e in summary.errors)
        # orders 3..5 are finite at y = 170; only their Turán products
        # overflow, which is an evaluation error, not a NaN slack
        assert ("T4K: Turán products of order 4 at EvalPoint(x=170.0, k=1.0, "
                "p=None) overflow double precision") in summary.errors
        assert all(c.slack == c.slack for c in checks)

    @pytest.mark.parametrize("check, orders, float_orders, message", [
        (harness.check_midpoint_polygamma, (2,), (2.0,),
         "polygamma midpoint order must be an integer >= 2, got 2.0"),
        (harness.check_holder_polygamma, (2, 2), (2, 2.0),
         "Hölder order must be an integer >= 1, got 2.0"),
        (harness.check_holder_zeta, (1, 3), (1.0, 3),
         "Hölder order must be an integer >= 1, got 1.0"),
        (harness.check_turan_gamma_deriv, (3,), (3.0,),
         "Turán order must be an integer >= 1, got 3.0"),
        (harness.check_midpoint_gamma_deriv, (2, 2), (2, 2.0),
         "midpoint order must be a non-negative integer, got 2.0"),
        # a bool is not an order either, though True == 1 and False == 0
        (harness.check_midpoint_polygamma, (2,), (True,),
         "polygamma midpoint order must be an integer >= 2, got True"),
        (harness.check_holder_polygamma, (1, 2), (True, 2),
         "Hölder order must be an integer >= 1, got True"),
        (harness.check_holder_zeta, (1, 3), (True, 3),
         "Hölder order must be an integer >= 1, got True"),
        (harness.check_turan_gamma_deriv, (1,), (True,),
         "Turán order must be an integer >= 1, got True"),
        (harness.check_midpoint_gamma_deriv, (2, 0), (2, False),
         "midpoint order must be a non-negative integer, got False"),
        # n passes the even/range test and is refused as a derivative order
        (harness.check_midpoint_gamma_deriv, (0, 0), (False, 0),
         "derivative order must be a non-negative integer, got False"),
        (harness.check_midpoint_gamma_deriv, (2, 2), (2.0, 2),
         "derivative order must be a non-negative integer, got 2.0"),
    ])
    def test_float_order_is_refused_in_and_out_of_a_block(self, check, orders,
                                                          float_orders, message):
        # a `memo` table keys 2 and 2.0, and 1 and True, alike: the check
        # refuses the float or bool before any table is read, also after the
        # int orders filled it
        hp = HolderPair.conjugate(2.0)
        rest = {harness.check_holder_polygamma: (hp, EvalPoint(1.0, 1.0)),
                harness.check_holder_zeta: (hp, 1.0)}.get(check, (EvalPoint(1.0, 1.0),))
        with pytest.raises(DomainError) as outside:
            check(*float_orders, *rest)
        assert str(outside.value) == message
        with kernels.memoised() as tables:
            check(*orders, *rest)
            assert tables
            with pytest.raises(DomainError) as inside:
                check(*float_orders, *rest)
        assert str(inside.value) == message
