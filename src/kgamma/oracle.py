"""Independent quadrature oracle for the defining integrals.

Evaluates the generalized-gamma family directly from the integral
definitions with adaptive Gauss-Kronrod (G7/K15) quadrature, so the
closed-form reductions in `functions` can be cross-validated against a
route that shares none of their arithmetic.  This module deliberately
evaluates none of the scalar kernels, since independence is the whole
point; it shares only their derivative-order check.

Log-variable scheme: an integral of f over t in (0, inf) is taken as the
integral of g(v) = t f(t), t = e^v, over the whole line.  Each integrand
is written in v and evaluated in log space, so no power t^x is formed and
no logarithm of an underflowed t is taken.  The substitution is the
exponential one behind double-exponential quadrature: the power-law
endpoint t^(sigma-1) becomes the smooth tail C e^(sigma v) as v -> -inf,
a log^n t factor becomes the polynomial v^n, and the kernel's decay as
t -> inf becomes a double-exponential tail as v -> +inf.  No panel
grading toward t = 0 is needed.

Truncation is one geometric panel walk out of v = 0.  Upward, panels
[0, 1], [1, 2], [2, 4], ... are added until two consecutive ones are
negligible.  Downward, panels [-1, 0], [-2, -1], [-4, -2], ... are added
until a bound on the mass below the walk's edge V, 3 |g(V)| / rate, is
negligible; the rate is sigma, or the slower decay of log g over the last
panel while a v^n factor still grows.  A bound not met by |v| = 2^20
leaves the result unconverged.  Panels are then refined where the local
error estimate dominates.

Each panel's error estimate is the larger of two null rules of the K15
nodes (K15 - G7 and a degree-13 companion), sharpened QUADPACK-style
relative to the integrand's spread on the panel.  The result's estimate
adds the truncated tails and the roundoff of the panel sum.  It is
converged when the tails were met and the estimate is within the relative
tolerance of the integral of |g|, which must be positive: |value| unless g
changes sign, as log^n t does at odd n, where |value| can be far below the
integrand's scale.  An integral beyond double range raises
`ComputationOverflowError`.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from operator import mul
from typing import Callable

from . import kernels
from .functions import EvalPoint
from .policy import (
    ABS_TOL,
    ORACLE_POLICY,
    AccuracyPolicy,
    ComputationOverflowError,
    DomainError,
)

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
_NODES = tuple(z for z, _, _ in _GK15)
_GAUSS = tuple(wg for _, wg, _ in _GK15)
_KRONROD = tuple(wk for _, _, wk in _GK15)


def _null_rule() -> tuple[float, ...]:
    """The degree-13 null rule of the K15 nodes, orthogonal to K15 - G7.

    Its weights are w_i p(z_i), where p is the degree-13 member of the
    polynomials orthogonal under the Kronrod weights w (built by the
    Stieltjes recurrence); K15 - G7 is the degree-14 member up to scale.
    It is scaled to the same weighted norm as K15 - G7.
    """

    def dot(f, h) -> float:
        return sum(w * a * b for w, a, b in zip(_KRONROD, f, h))

    prev, cur, prev_norm = (0.0,) * 15, (1.0,) * 15, 1.0
    for _ in range(13):
        norm = dot(cur, cur)
        a = dot([z * c for z, c in zip(_NODES, cur)], cur) / norm
        b = norm / prev_norm
        prev, cur = cur, [(z - a) * c - b * q for z, c, q in zip(_NODES, cur, prev)]
        prev_norm = norm
    difference = [(wk - wg) / wk for wk, wg in zip(_KRONROD, _GAUSS)]
    scale = math.sqrt(dot(difference, difference) / dot(cur, cur))
    return tuple(scale * w * c for w, c in zip(_KRONROD, cur))


_NULL = _null_rule()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions_used: int
    converged: bool


#: The panel walk ends at |v| = 2^20 at the latest.  Downward, that meets
#: the tail bound for power-law rates sigma down to about 4e-5.
_V_LIMIT = 2.0**20

#: Roundoff of a panel sum relative to the integral of |g|, as in QUADPACK
_ROUNDOFF = 50.0 * sys.float_info.epsilon

#: An integrand with a kernel factor exp(-e^w) is 0.0 for w beyond this,
#: where e^w itself would soon overflow.
_LOG_CAP = 709.0


def _gk15(g: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    try:
        values = [g(mid + half * z) for z in _NODES]
    except OverflowError as exc:
        raise ComputationOverflowError(
            f"integrand on [{a}, {b}] overflows double precision"
        ) from exc
    kronrod = sum(map(mul, _KRONROD, values))
    value = kronrod * half
    # two null rules, of degrees 14 (K15 - G7) and 13: on a panel that
    # under-resolves the integrand either one alone can vanish by accident
    delta = max(
        abs(kronrod - sum(map(mul, _GAUSS, values))), abs(sum(map(mul, _NULL, values)))
    ) * half
    mean = 0.5 * kronrod
    spread = half * sum([wk * abs(gz - mean) for wk, gz in zip(_KRONROD, values)])
    if not (math.isfinite(value) and math.isfinite(delta) and math.isfinite(spread)):
        raise ComputationOverflowError(
            f"integral over [{a}, {b}] overflows double precision"
        )
    # QUADPACK's sharpened estimate for smooth panels, taken relative to
    # the integrand's spread about its panel mean so that it does not
    # depend on the integral's magnitude: min(delta, spread (200 delta /
    # spread)^1.5), which is delta from delta = 200^-3 spread up
    if delta < 1.25e-7 * spread:
        delta = spread * (200.0 * delta / spread) ** 1.5
    return value, delta


def _ratio(u: float) -> float:
    """u / (1 - e^-u), continued by its limit 1 at u = 0."""
    return u / -math.expm1(-u) if u else 1.0


def _integrate_zero_to_inf(
    g: Callable[[float], float], sigma: float, policy: AccuracyPolicy
) -> QuadratureResult:
    """Adaptive integral over v in (-inf, inf) of g(v) = t f(t), t = e^v.

    g ~ C e^(sigma v) as v -> -inf, and g decays faster than any
    exponential as v -> +inf.  g keeps one sign on each side of v = 0,
    which is a breakpoint of every panel.
    """
    panels: list[tuple[float, float, float, float]] = []  # (a, b, value, err)
    scale = 0.0

    def add(a: float, b: float) -> float:
        nonlocal scale
        val, err = _gk15(g, a, b)
        panels.append((a, b, val, err))
        scale = max(scale, abs(val))
        return val

    # upward: doubling panels until two consecutive negligible contributions;
    # g decays faster than exponentially there, so the mass above the walk
    # is below that of its last panel
    lo, hi, quiet = 0.0, 1.0, 0
    while quiet < 2 and hi <= _V_LIMIT:
        upper_tail = abs(add(lo, hi))
        quiet = quiet + 1 if upper_tail <= 0.05 * policy.rel_tol * scale else 0
        lo, hi = hi, 2.0 * hi
    tails_met = quiet == 2

    # downward: doubling panels until the exponential tail below lo, about
    # |g(lo)| / rate (x3 for slowly varying factors), is negligible.  The
    # decay rate tends to sigma, but is slower while a v^n factor still
    # grows; log g is concave there, so its secant over the last panel is
    # below the rate at lo.  A zero scale proves nothing, as every panel so
    # far may have underflowed above the mass.
    lo, hi, g_hi = -1.0, 0.0, abs(g(0.0))
    while lo >= -_V_LIMIT:
        add(lo, hi)
        g_lo = abs(g(lo))
        if g_lo == 0.0:
            lower_tail = 0.0
        else:
            # g(hi) = 0 (v^n at v = 0) shows no decay yet
            secant = (math.log(g_hi) - math.log(g_lo)) / (hi - lo) if g_hi else 0.0
            rate = min(sigma, secant)
            lower_tail = 3.0 * g_lo / rate if rate > 0.0 else math.inf
        if scale > 0.0 and lower_tail <= 0.03 * policy.rel_tol * scale:
            break
        lo, hi, g_hi = 2.0 * lo, lo, g_lo
    else:
        tails_met = False

    # refine panels where the local error estimate dominates, down to the
    # roundoff the final estimate adds anyway (scale <= the integral of |g|)
    heap = [(-err, a, b, val, err) for (a, b, val, err) in panels]
    heapq.heapify(heap)
    total = sum(item[3] for item in heap)
    total_err = sum(item[4] for item in heap)
    n_panels = len(heap)
    while n_panels < policy.max_subdivisions:
        target = max(ABS_TOL, 0.5 * policy.rel_tol * abs(total), _ROUNDOFF * scale)
        if total_err <= target:
            break
        _, a, b, val, err = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        lv, le = _gk15(g, a, mid)
        rv, re = _gk15(g, mid, b)
        total += lv + rv - val
        total_err += le + re - err
        heapq.heappush(heap, (-le, a, mid, lv, le))
        heapq.heappush(heap, (-re, mid, b, rv, re))
        n_panels += 1

    # the estimate adds the truncated tails and the roundoff of the sum: g
    # keeps one sign on every panel, so the sum of |value| is the integral
    # of |g|, of which summation can lose about 50 ulps
    try:
        total = math.fsum(item[3] for item in heap)
        mass = math.fsum(abs(item[3]) for item in heap)
        total_err = math.fsum(item[4] for item in heap) + _ROUNDOFF * mass
    except OverflowError as exc:
        raise ComputationOverflowError("integral overflows double precision") from exc
    total_err += upper_tail + lower_tail
    # relative to the mass alone: an absolute floor would certify any value
    # of an integral below it, and a zero mass (every panel underflowed)
    # certifies nothing
    converged = tails_met and 0.0 < mass and total_err <= policy.rel_tol * mass
    return QuadratureResult(total, total_err, n_panels, converged)


def _gamma_integrand(n: int, pt: EvalPoint, c: float) -> Callable[[float], float]:
    """v -> e^(x v - e^(k v) / c) v^n: t^(x-1) e^(-t^k / c) log^n t times t."""
    x, k, log_c = pt.x, pt.k, math.log(c)

    def g(v: float) -> float:
        w = k * v - log_c  # log(t^k / c)
        return math.exp(x * v - math.exp(w)) * v**n if w < _LOG_CAP else 0.0

    return g


def integrate_k_gamma(
    pt: EvalPoint, policy: AccuracyPolicy = ORACLE_POLICY
) -> QuadratureResult:
    """int_0^inf t^(x-1) e^(-t^k / k) dt, at a point without p."""
    pt.require_no_p("integrate_k_gamma", "integrate_pk_gamma")
    return _integrate_zero_to_inf(_gamma_integrand(0, pt, pt.k), pt.x, policy)


def integrate_pk_gamma(
    pt: EvalPoint, policy: AccuracyPolicy = ORACLE_POLICY
) -> QuadratureResult:
    """int_0^inf t^(x-1) e^(-t^k / p) dt."""
    return _integrate_zero_to_inf(
        _gamma_integrand(0, pt, pt.require_p()), pt.x, policy
    )


def integrate_k_polygamma(
    m: int, pt: EvalPoint, policy: AccuracyPolicy = ORACLE_POLICY
) -> QuadratureResult:
    """I_m(x, k) = int_0^inf t^m e^(-xt) / (1 - e^(-kt)) dt, m >= 1.

    The function value is (-1)^(m+1) I_m.  In v = log t, with u = k t,
    the integrand is e^(m v - x t) / k * u / (1 - e^-u), whose ratio tends
    to 1 as t -> 0, leaving the tail e^(m v) / k.
    """
    if not isinstance(m, int) or m < 1:
        raise DomainError(f"polygamma integral requires integer m >= 1, got {m!r}")
    x_k, log_k = pt.x / pt.k, math.log(pt.k)

    def g(v: float) -> float:
        w = v + log_k  # log(k t)
        if w >= _LOG_CAP:
            return 0.0
        u = math.exp(w)
        return math.exp(m * v - x_k * u - log_k) * _ratio(u)

    return _integrate_zero_to_inf(g, float(m), policy)


def integrate_bose(
    s: float, k: float, c: float, policy: AccuracyPolicy = ORACLE_POLICY
) -> QuadratureResult:
    """int_0^inf t^s / (e^(t^k / c) - 1) dt.

    Near 0 the integrand behaves like c t^(s-k), integrable only for
    s - k > -1.  Equals zeta((s+1)/k) * pGamma_k(s+1) at p = c.  In
    v = log t, with u = t^k / c, the integrand is
    e^((s-k+1) v + log c) * u / (e^u - 1), and u / (e^u - 1) is computed
    as e^-u * u / (1 - e^-u), which stays finite for every u.
    """
    if not (math.isfinite(s) and s >= 1.0):
        raise DomainError(f"bose integral requires s >= 1, got {s!r}")
    if not (0 < k < math.inf and 0 < c < math.inf):
        raise DomainError(
            f"bose integral requires k > 0 and c > 0, both finite; got {k!r}, {c!r}")
    if s - k <= -1.0:
        raise DomainError(
            f"bose integrand is non-integrable at 0 for s - k <= -1 (s={s}, k={k})"
        )
    sigma, log_c = s - k + 1.0, math.log(c)

    def g(v: float) -> float:
        w = k * v - log_c  # log(t^k / c)
        if w >= _LOG_CAP:
            return 0.0
        u = math.exp(w)
        return math.exp(sigma * v + log_c - u) * _ratio(u)

    return _integrate_zero_to_inf(g, sigma, policy)


def integrate_k_gamma_deriv(
    n: int, pt: EvalPoint, policy: AccuracyPolicy = ORACLE_POLICY
) -> QuadratureResult:
    """int_0^inf t^(x-1) e^(-t^k / c) log^n t dt, with c = pt.p if set, else k.

    This is D^(n) of pGamma_k, or of Gamma_k at a point without p.  In
    v = log t the integrand is e^(x v - e^(k v) / c) v^n.  The walk's
    breakpoint at v = 0 is where v^n changes sign for odd n.  An order
    outside 0..8 is refused by `kernels.check_deriv_order`, an argument
    check that evaluates no kernel.
    """
    kernels.check_deriv_order(n)
    c = pt.k if pt.p is None else pt.p
    return _integrate_zero_to_inf(_gamma_integrand(n, pt, c), pt.x, policy)
