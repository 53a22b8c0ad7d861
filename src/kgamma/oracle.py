"""Independent quadrature oracle for the defining integrals.

Evaluates the generalized-gamma family directly from the integral
definitions with adaptive Gauss-Kronrod (G7/K15) quadrature, so the
closed-form reductions in `functions` can be cross-validated against a
route that shares none of their code.  This module deliberately never
calls the scalar kernels: independence is the whole point.

Improper-integral strategy: the half-line is partitioned into dyadic
panels.  Toward 0, panels are graded geometrically until the analytic
power-law tail bound (integrand ~ C t^(sigma-1), so the remaining mass
below a is ~ C a^sigma / sigma) drops below tolerance.  Toward infinity,
doubling panels are appended until the exponential decay of the kernel
makes consecutive panel contributions negligible; the kernel dominates
every polynomial or log factor there, so two successive negligible
panels certify the truncation.  Panels are then refined where the local
Gauss-Kronrod error estimate dominates.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

from .functions import EvalPoint
from .policy import ORACLE_POLICY, AccuracyPolicy, DomainError, UnsupportedOrderError

__all__ = [
    "QuadratureResult",
    "integrate_k_gamma",
    "integrate_pk_gamma",
    "integrate_k_polygamma",
    "integrate_bose",
    "integrate_k_gamma_deriv",
]

# G7/K15 nodes on [-1, 1] with Gauss and Kronrod weights.
_GK15 = (
    (+0.991455371120813, 0.0, 0.022935322010529),
    (-0.991455371120813, 0.0, 0.022935322010529),
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.864864423359769, 0.0, 0.104790010322250),
    (-0.864864423359769, 0.0, 0.104790010322250),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.586087235467691, 0.0, 0.169004726639267),
    (-0.586087235467691, 0.0, 0.169004726639267),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (+0.207784955007898, 0.0, 0.204432940075298),
    (-0.207784955007898, 0.0, 0.204432940075298),
    (0.0, 0.417959183673469, 0.209482141084728),
)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions_used: int
    converged: bool


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    gauss = 0.0
    kronrod = 0.0
    for z, wg, wk in _GK15:
        fz = f(mid + half * z)
        gauss += wg * fz
        kronrod += wk * fz
    delta = abs(kronrod - gauss) * half
    # QUADPACK-style sharpened estimate for smooth panels
    err = min(delta, (200.0 * delta) ** 1.5) if delta > 0 else 0.0
    return kronrod * half, err


def _exp_or_zero(log_value: float) -> float:
    return math.exp(log_value) if log_value > -745.0 else 0.0


def _integrate_zero_to_inf(
    f: Callable[[float], float], sigma: float, policy: AccuracyPolicy
) -> QuadratureResult:
    """Adaptive integral of f over (0, inf); f ~ C t^(sigma-1) as t -> 0."""
    panels: list[tuple[float, float, float, float]] = []  # (a, b, value, err)

    def add(a: float, b: float) -> None:
        val, err = _gk15(f, a, b)
        panels.append((a, b, val, err))

    # upward: doubling panels until two consecutive negligible contributions
    scale = 0.0
    lo, hi = 1.0, 2.0
    quiet = 0
    while True:
        add(lo, hi)
        scale = max(scale, abs(panels[-1][2]))
        if abs(panels[-1][2]) <= 0.05 * policy.rel_tol * scale:
            quiet += 1
            if quiet >= 2:
                break
        else:
            quiet = 0
        lo, hi = hi, 2.0 * hi
        if hi > 2.0**400:
            return QuadratureResult(math.nan, math.inf, len(panels), False)

    # downward: graded panels until the power-law tail bound is negligible
    # (factor 3 covers slowly varying log factors on top of the power law)
    lo, hi = 0.5, 1.0
    while True:
        add(lo, hi)
        scale = max(scale, abs(panels[-1][2]))
        tail = 3.0 * abs(f(lo)) * lo / sigma
        if tail <= 0.03 * policy.rel_tol * scale or lo < 1e-280:
            break
        lo, hi = 0.5 * lo, lo

    # refine panels where the local error estimate dominates
    heap = [(-err, a, b, val, err) for (a, b, val, err) in panels]
    heapq.heapify(heap)
    total = sum(item[3] for item in heap)
    total_err = sum(item[4] for item in heap)
    n_panels = len(heap)
    while n_panels < policy.max_subdivisions:
        target = max(policy.abs_tol, 0.5 * policy.rel_tol * abs(total))
        if total_err <= target:
            break
        _, a, b, val, err = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        lv, le = _gk15(f, a, mid)
        rv, re = _gk15(f, mid, b)
        total += lv + rv - val
        total_err += le + re - err
        heapq.heappush(heap, (-le, a, mid, lv, le))
        heapq.heappush(heap, (-re, mid, b, rv, re))
        n_panels += 1

    total = math.fsum(item[3] for item in heap)
    total_err = math.fsum(item[4] for item in heap)
    converged = total_err <= max(policy.abs_tol, policy.rel_tol * abs(total))
    return QuadratureResult(total, total_err, n_panels, converged)


def integrate_k_gamma(
    pt: EvalPoint, policy: AccuracyPolicy = ORACLE_POLICY
) -> QuadratureResult:
    """int_0^inf t^(x-1) e^(-t^k / k) dt."""
    x, k = pt.x, pt.k

    def f(t: float) -> float:
        return _exp_or_zero((x - 1.0) * math.log(t) - t**k / k)

    return _integrate_zero_to_inf(f, x, policy)


def integrate_pk_gamma(
    pt: EvalPoint, policy: AccuracyPolicy = ORACLE_POLICY
) -> QuadratureResult:
    """int_0^inf t^(x-1) e^(-t^k / p) dt."""
    x, k = pt.x, pt.k
    p = pt.require_p()

    def f(t: float) -> float:
        return _exp_or_zero((x - 1.0) * math.log(t) - t**k / p)

    return _integrate_zero_to_inf(f, x, policy)


def integrate_k_polygamma(
    m: int, pt: EvalPoint, policy: AccuracyPolicy = ORACLE_POLICY
) -> QuadratureResult:
    """I_m(x, k) = int_0^inf t^m e^(-xt) / (1 - e^(-kt)) dt, m >= 1.

    The function value is (-1)^(m+1) I_m.  The t -> 0 behavior t^(m-1)/k
    is evaluated stably through expm1; no explicit singularity handling is
    needed for m >= 1.
    """
    if not isinstance(m, int) or m < 1:
        raise DomainError(f"polygamma integral requires integer m >= 1, got {m!r}")
    x, k = pt.x, pt.k

    def f(t: float) -> float:
        num = _exp_or_zero(m * math.log(t) - x * t)
        return num / (-math.expm1(-k * t)) if num != 0.0 else 0.0

    return _integrate_zero_to_inf(f, float(m), policy)


def integrate_bose(
    s: float, k: float, c: float, policy: AccuracyPolicy = ORACLE_POLICY
) -> QuadratureResult:
    """int_0^inf t^s / (e^(t^k / c) - 1) dt.

    Near 0 the integrand behaves like c t^(s-k), integrable only for
    s - k > -1.  Equals zeta((s+1)/k) * pGamma_k(s+1) at p = c.
    """
    if not (math.isfinite(s) and s >= 1.0):
        raise DomainError(f"bose integral requires s >= 1, got {s!r}")
    if not (k > 0 and c > 0):
        raise DomainError("bose integral requires k > 0 and c > 0")
    if s - k <= -1.0:
        raise DomainError(
            f"bose integrand is non-integrable at 0 for s - k <= -1 (s={s}, k={k})"
        )

    def f(t: float) -> float:
        u = t**k / c
        if u > 700.0:  # e^u - 1 == e^u to machine precision
            return _exp_or_zero(s * math.log(t) - u)
        if u == 0.0:  # t^k / c underflowed: the leading-order behavior
            return c * t ** (s - k)
        return t**s / math.expm1(u)

    return _integrate_zero_to_inf(f, s - k + 1.0, policy)


def integrate_k_gamma_deriv(
    n: int,
    pt: EvalPoint,
    use_p: bool = False,
    policy: AccuracyPolicy = ORACLE_POLICY,
) -> QuadratureResult:
    """int_0^inf t^(x-1) e^(-t^k / c) log^n t dt, with c = p when use_p.

    The panel grid always has a breakpoint at t = 1, where log^n t changes
    sign for odd n; the graded panels toward 0 resolve the integrable
    log-power endpoint behavior.
    """
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"derivative order must be a non-negative integer, got {n!r}")
    if n > 8:
        raise UnsupportedOrderError(f"derivative order {n} exceeds supported cap 8")
    x, k = pt.x, pt.k
    c = pt.require_p() if use_p else k

    def f(t: float) -> float:
        base = _exp_or_zero((x - 1.0) * math.log(t) - t**k / c)
        return base * math.log(t) ** n

    return _integrate_zero_to_inf(f, x, policy)
