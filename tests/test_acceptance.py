"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 7 asserts the gamma-derivative Turán inequality at odd n
(1 and 3), where its Cauchy-Schwarz proof applies, and certifies the
reversal at even n = 2: every slack and PASS/FAIL verdict must agree with
40-digit mpmath arithmetic, and the counterexample n = 2, x = k = 1 must
stay FAIL.  The quadrature oracle confirms the same counterexample in
tests/test_harness.py.
"""

import dataclasses
import math
import time

import mpmath as mp
import pytest

from kgamma import cli, harness, kernels, oracle
from kgamma import functions as fn
from kgamma.functions import EvalPoint
from kgamma.harness import GridSpec, HolderPair

EULER_GAMMA = 0.5772156649015329

STANDARD = GridSpec()


def report(criterion: int, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:2d}: {status} — {detail}")
    return ok


def test_criterion_1_classical_reductions():
    start = time.time()
    worst = 0.0

    def rel(got, want):
        return abs(got - want) / abs(want)

    worst = max(worst, rel(fn.k_gamma(EvalPoint(5.0, 1.0)), 24.0))
    worst = max(worst, rel(fn.k_polygamma(1, EvalPoint(1.0, 1.0)), math.pi**2 / 6))
    for m in (2, 3, 4):
        worst = max(worst, rel(
            fn.k_polygamma(m, EvalPoint(1.0, 1.0)), kernels.polygamma(m, 1.0)
        ))
    worst = max(worst, rel(fn.k_zeta(2.0, 1.0), math.pi**2 / 6))
    worst = max(worst, rel(fn.k_gamma_deriv(1, EvalPoint(1.0, 1.0)), -EULER_GAMMA))
    worst = max(worst, rel(
        fn.k_gamma_deriv(2, EvalPoint(1.0, 1.0)),
        EULER_GAMMA**2 + math.pi**2 / 6,
    ))
    for n in (3, 4):
        worst = max(worst, rel(
            fn.k_gamma_deriv(n, EvalPoint(2.0, 1.0)),
            kernels.gamma_deriv_sequence(n, 2.0)[n],
        ))
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    assert report(1, ok, f"classical reductions, worst rel err {worst:.3e}, "
                         f"{elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    start = time.time()
    # the derivative orders 0..4, as `kgamma crosscheck` compares them
    grid = dataclasses.replace(STANDARD, ns=tuple(range(5)))
    worst, uncertified, errors = cli.crosscheck_families(grid)
    elapsed = time.time() - start
    worst_overall = max(worst.values())
    ok = worst_overall <= 1e-8 and not uncertified and not errors and elapsed < 60.0
    assert report(2, ok, f"oracle equivalence, worst family discrepancy "
                         f"{worst_overall:.3e}, {elapsed:.1f}s")


def test_criterion_3_three_way_identity():
    worst = 0.0
    for x in STANDARD.xs:
        for k in STANDARD.ks:
            for p in STANDARD.p_params:
                value = fn.pk_gamma(EvalPoint(x, k, p))
                via_k = (p / k) ** (x / k) * fn.k_gamma(EvalPoint(x, k))
                via_classical = p ** (x / k) / k * math.exp(
                    kernels.log_gamma(x / k)
                )
                worst = max(worst, abs(value - via_k) / value,
                            abs(value - via_classical) / value)
    ok = worst <= 1e-12
    assert report(3, ok, f"three-way gamma identity, worst rel err {worst:.3e}")


def test_criterion_4_pk_zeta_p_independence():
    worst = 0.0
    for ratio in (2.0, 3.0, 4.0):
        for k in (1.0, 2.0):
            x = ratio * k
            expected = kernels.riemann_zeta(ratio)
            for p in (0.5, 1.0, 2.0, 5.0):
                quad = oracle.integrate_bose(x - 1.0, k, p)
                assert quad.converged
                implied = quad.value / fn.pk_gamma(EvalPoint(x, k, p))
                worst = max(worst, abs(implied - expected) / expected)
    ok = worst <= 1e-8
    assert report(4, ok, f"p-independence of the zeta integral, worst rel "
                         f"err {worst:.3e}")


def test_criterion_5_holder_polygamma():
    checks, _ = harness.scan_grid(STANDARD, ("T1",))
    ok = True
    for c in checks:
        ok = ok and c.slack >= -(c.margin + 1e-9)
        if c.m == c.n:
            ok = ok and abs(c.slack) <= c.margin + 1e-12
    min_slack = min(c.slack for c in checks)
    assert report(5, ok, f"Hölder polygamma inequality, {len(checks)} points, "
                         f"min slack {min_slack:.3e}")


def test_criterion_6_holder_zeta():
    checks, _ = harness.scan_grid(STANDARD, ("T2", "T3"))
    ok = bool(checks)
    for c in checks:
        ok = ok and c.slack >= -(c.margin + 1e-9)
        if c.m == c.n:
            ok = ok and abs(c.slack) <= c.margin + 1e-12
    # the p-variant at p = k must reproduce the plain variant bit for bit
    hp = HolderPair(2.0, 2.0)
    for k in (1.0, 2.0):
        base = harness.check_holder_zeta(2, 4, hp, k)
        pvar = harness.check_holder_zeta(2, 4, hp, k, p_param=k)
        ok = ok and repr(dataclasses.replace(pvar, theorem_id="T2",
                                             p_param=None)) == repr(base)
    min_slack = min(c.slack for c in checks)
    assert report(6, ok, f"Hölder zeta inequalities, {len(checks)} points, "
                         f"min slack {min_slack:.3e}")


def _mp_turan_slacks(x: float, k: float, c: float) -> dict[int, float]:
    """40-digit Turán slacks of c^(x/k) Gamma(x/k) / k for n = 1, 2, 3.

    With c = k this is Gamma_k, with c = p it is pGamma_k.
    """
    with mp.workdps(40):
        d = list(mp.diffs(
            lambda t: mp.mpf(c) ** (t / k) * mp.gamma(t / k) / k, mp.mpf(x), 4
        ))
        return {n: float(d[n - 1] * d[n + 1] - d[n] ** 2) for n in (1, 2, 3)}


def test_criterion_7_turan_gamma_deriv():
    # The Cauchy-Schwarz argument behind the Turán inequality needs the
    # outer orders n - 1 and n + 1 even, i.e. n odd; at even n it reverses.
    spot = harness.check_turan_gamma_deriv(1, EvalPoint(1.0, 1.0))
    ok = abs(spot.slack - math.pi**2 / 6) <= 1e-9 * (math.pi**2 / 6)
    counterexample = harness.check_turan_gamma_deriv(2, EvalPoint(1.0, 1.0))
    ok = ok and counterexample.verdict == "FAIL"
    odd_violations, disagreements, even_fails = [], [], 0
    for x in STANDARD.xs:
        for k in STANDARD.ks:
            # p = None is the k-family (T4K), any other p the p-k one (T4PK)
            for p in (None,) + STANDARD.p_params:
                pt = EvalPoint(x, k, p)
                reference = _mp_turan_slacks(x, k, k if p is None else p)
                for n, ref in reference.items():
                    c = harness.check_turan_gamma_deriv(n, pt)
                    bound = c.margin + 1e-9
                    if n % 2 and c.slack < -bound:
                        odd_violations.append((n, x, k, p, c.slack))
                    # a verdict is mathematics only if exact arithmetic
                    # gives the same sign, within the propagated margin
                    if (abs(c.slack - ref) > bound
                            or (c.verdict == "PASS") != (ref >= 0)):
                        disagreements.append((n, x, k, p, c.slack, ref))
                    even_fails += n % 2 == 0 and c.verdict == "FAIL"
    ok = ok and not odd_violations and not disagreements
    assert report(
        7, ok,
        f"Turán inequality for gamma derivatives, {len(odd_violations)} "
        f"violations at odd n; {even_fails} even-n reversals, "
        f"{len(disagreements)} slacks or verdicts contradicting "
        "40-digit arithmetic",
    ), (odd_violations[:3], disagreements[:3], counterexample.slack)


def test_criterion_8_midpoint_gamma_deriv():
    ok = True
    count = 0
    for x in STANDARD.xs:
        for k in STANDARD.ks:
            # p = None is the k-family (T5), any other p the p-k one (T6)
            for p in (None,) + STANDARD.p_params:
                pt = EvalPoint(x, k, p)
                for n in (2, 4):
                    for l in (0, 2):
                        c = harness.check_midpoint_gamma_deriv(n, l, pt)
                        count += 1
                        ok = ok and c.slack >= -(c.margin + 1e-9)
                        if l == 0:
                            ok = ok and abs(c.slack) <= c.margin
    assert report(8, ok, f"midpoint inequality for gamma derivatives, "
                         f"{count} points")


def test_criterion_9_midpoint_polygamma():
    spec = GridSpec(ns=(2, 3, 4, 5))
    checks, summary = harness.scan_grid(spec, ("T7",))
    ok = bool(checks) and not summary.errors
    flips = 0
    for c in checks:
        ok = ok and c.slack >= -(c.margin + 1e-9)
        # the raw difference d is the slack at odd n and -slack at even n
        d = c.slack if c.n % 2 == 1 else -c.slack
        predicted = "+" if c.n % 2 == 1 else "-"
        if ("+" if d >= 0.0 else "-") != predicted:
            flips += 1
    ok = ok and flips == 0
    assert report(9, ok, f"polygamma midpoint directions, {len(checks)} "
                         f"points, {flips} direction flips")


def test_criterion_10_determinism(tmp_path):
    start = time.time()
    bodies = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        cli.main(["verify", "--default-grid", "--output", str(path)])
        text = path.read_text()
        bodies.append(text.split("\n", 1)[1])  # drop the timestamp line
    elapsed = time.time() - start
    ok = bodies[0] == bodies[1] and elapsed < 60.0
    assert report(10, ok, f"byte-identical default verification runs, "
                          f"{elapsed:.1f}s for both")
