"""Independent quadrature oracle for the defining integrals.

Evaluates the generalized-gamma family directly from the integral
definitions with a double-exponential trapezoid rule, so the closed-form
reductions in `functions` can be cross-validated against a route that
shares none of their arithmetic.  This module deliberately evaluates none
of the scalar kernels, since independence is the whole point; it shares
only their order rule, `kernels.check_order`, through `EvalPoint` their
positive-real rule, `kernels.require_positive`, and the texts of their
refusals, `kernels.domain_error` and `kernels.shown`: none evaluates
anything.

Log-variable scheme: an integral of f over t in (0, inf) is taken as the
integral of g(v) = t f(t), t = e^v, over the whole line.  Each integrand
is written in v and evaluated in log space, so no power t^x is formed and
no logarithm of an underflowed t is taken.  The power-law endpoint
t^(sigma-1) becomes the smooth tail C e^(sigma v) as v -> -inf, a log^n t
factor becomes the polynomial v^n, and the kernel's decay as t -> inf
becomes a double-exponential tail as v -> +inf.

The rule is the double-exponential trapezoid rule (Takahasi and Mori,
Publ. RIMS 9, 1974).  Its map is the one for integrands that decay
exponentially as t -> inf, t = exp(tau - e^-tau) (Mori and Sugihara,
J. Comput. Appl. Math. 127, 2001), shifted and scaled in v:
v = v0 + s (tau + 1 - e^-tau), with v0 near the peak of g and s about its
width.  The map is linear as tau -> inf, where g already decays
double-exponentially in v, and exponential as tau -> -inf, which makes
the tail e^(sigma v) decay double-exponentially in tau as well.  The nodes
walk out from tau = 0 at step 1/2 until two consecutive terms on each side
are below 1e-20 of the largest; a side not met by |tau| = 16 leaves the
result unconverged.  A side ends at the first of its two negligible nodes:
the second only confirms it, and is summed but never refined around.  The
step is then halved, reusing every node, until a level's change certifies
it (below); each level adds only the midpoints between the two ends.

The nodes depend on tau alone, not on the integrand, so each offset
tau + 1 - e^-tau and weight 1 + e^-tau is computed once per process and
kept in tables, as is usual for the rule (Bailey, Jeyabalan and Li,
Exp. Math. 14, 2005): the walk's 32 nodes a side in `_SIDES`, and the
midpoints of a step h over (-16, 16) in `_MIDPOINTS`, built when a level of
that step is first summed, for every h whose table holds at most 4,096
nodes (h down to 2^-7, 8,128 nodes in all).  A finer level builds only the
midpoints it sums, with the same builder, so no policy grows the tables.
Every tau is a dyadic number of at most 53 bits, so a tabled node is bit
for bit the one computed in place, and the tables change no result.

The derivative integrals of one point share their weight
e^(x v - e^(k v) / c), and with it the centre and the width, so one rule
integrates g(v) v^n for several orders n on one node set: each node's g is
evaluated once, and an order costs one product per node.  The walk goes on
until every order has met its tails, the widest order's (v^n moves mass
outwards).  Each order sums only its own walk's nodes and the midpoints
between its own ends, and is judged on its own: its level changes, edge
terms and integral of |g v^n|.
Each keeps the result of the first level at which it stops, the result a
rule for that order alone returns, except that `subdivisions_used` counts
the shared nodes.  A lone order keeps no shared nodes: it forms each term
where it evaluates the node, over its own ends, so its `subdivisions_used`
is the number of times g was evaluated.

Each halving of a converging double-exponential rule roughly squares its
error (Bailey, Jeyabalan and Li, Exp. Math. 14, 2005), so once a level
change is within the square root of the relative tolerance of the
integral of |g v^n|, the next change is about the error of the level
before it.  A level is converged when both tails were met, the change
before its own is within that square root, and its own change plus the
roundoff of the node values and the edge terms of the truncated tails is
within the relative tolerance; that sum is its error estimate.  Two
changes are still required, as one can vanish by accident.  Otherwise the
estimate takes the larger of the last two changes.  Every integrand here is
g >= 0, so at even n that integral is |value|; at odd n, where v^n changes
sign, |value| can be far below the integrand's scale and the integral of
|g v^n| is summed apart.  Refinement also stops, unconverged, once the
tolerance times that integral is below the subnormal charge of the nodes
summed, which more nodes only raise.  An integral beyond double range
raises `ComputationOverflowError` where a node value shows it.  Where the
terms of g's exponent near its peak leave the double range, its values
bound nothing, and every order stops at the first level, unconverged,
with an infinite estimate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable

from . import kernels
from .functions import EvalPoint
from .policy import (
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
    "integrate_k_gamma_derivs",
]


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions_used: int
    converged: bool


#: The walk's step in tau, its nodes on each side and its end: v - v0 =
#: -s (e^16 + 15), about -8.9e6 s, meets a tail e^(sigma v) for sigma down to
#: about 6e-6 / s, and v - v0 = 16 s a kernel factor exp(-e^(k v) / c) for
#: x / k down to about 6e-6 (s = 1 / k there).
_H0 = 0.5
_WALK = 32
_TAU_MAX = _H0 * _WALK

#: A node term below this fraction of the largest one is negligible.
_NEGLIGIBLE = 1e-20

#: Roundoff of the node sum in ulps of the integral of |g|, as in QUADPACK
_SUM_ULPS = 50.0

#: An integrand with a kernel factor exp(-e^w) is 0.0 for w beyond this,
#: where e^w itself would soon overflow.
_LOG_CAP = 709.0


def _nodes(taus: Iterable[float]) -> list[tuple[float, float]]:
    """(tau + 1 - e^-tau, 1 + e^-tau) at each tau of `taus`: a node's v - v0
    in units of s, and its weight in units of s h."""
    return [(tau + 1.0 - (e := math.exp(-tau)), 1.0 + e) for tau in taus]


#: The node at tau = 0, and the walk's nodes at tau = j step, j = 1..32
_CENTRE = _nodes([0.0])[0]
_SIDES = {step: _nodes([step * j for j in range(1, _WALK + 1)])
          for step in (_H0, -_H0)}

#: The midpoint nodes of each step h, at tau = -16 + (j + 1/2) h over
#: (-16, 16), for the h whose table has at most this many entries: seven
#: steps, 8,128 entries in all.  Filled as the steps are first summed.
_TABLE_CAP = 2**12
_MIDPOINTS: dict[float, list[tuple[float, float]]] = {}


def _midpoints(h: float, lo: float, count: int) -> list[tuple[float, float]]:
    """The nodes at tau = lo + (j + 1/2) h, j < count, for a lo in
    [-16, 16] that is a multiple of h.  Every such tau is a dyadic number
    of at most 53 bits, so it is -16 + (j' + 1/2) h exactly, and so are its
    nodes, whichever table they are read from."""
    first = round((lo + _TAU_MAX) / h)
    size = round(2.0 * _TAU_MAX / h)
    if size > _TABLE_CAP:
        return _nodes([-_TAU_MAX + (j + 0.5) * h for j in range(first, first + count)])
    table = _MIDPOINTS.get(h)
    if table is None:
        table = _MIDPOINTS[h] = _nodes([-_TAU_MAX + (j + 0.5) * h for j in range(size)])
    return table[first:first + count]


class _Order:
    """One order n of a shared rule: its own terms, ends and level changes.

    `ends` holds the tau where its walk ended to the right, then to the
    left: the first of the two negligible nodes of a met tail, the last
    node of an unmet one; `before` and `last` the last two level changes.
    Everything else a level is judged on, the integral of |g v^n| at odd n
    and the subnormal span of the weights, is formed from these.
    """

    __slots__ = ("n", "terms", "largest", "ends", "edge", "tails_met",
                 "previous", "before", "last", "result")

    def __init__(self, n: int, w: float, v: float, d: float) -> None:
        self.n, self.terms = n, [w * v**n * d]
        self.largest, self.tails_met = abs(self.terms[0]), True
        self.ends, self.edge = [], 0.0
        self.previous, self.before, self.last, self.result = None, math.inf, math.inf, None

    def walk(self, side: list | None, step: float, g: Callable[[float], float],
             v0: float, s: float) -> int:
        """Walk out from tau = 0 at `step` until two consecutive terms are
        negligible, or to |tau| = 16, over the table `_SIDES[step]`, and
        return the number of nodes evaluated.  The side ends at the first of
        the two negligible nodes, or at the last node of an unmet tail: the
        levels refine up to it, and the node that confirms it is summed but
        never refined around.  A lone order evaluates each node itself and
        keeps none; the orders of a shared rule read the nodes
        (g, v, 1 + e^-tau) of `side`, appending those not yet there."""
        n, append, largest = self.n, self.terms.append, self.largest
        table = _SIDES[step]
        floor = _NEGLIGIBLE * largest
        quiet = i = 0
        known = 0 if side is None else len(side)
        while quiet < 2 and i < _WALK:
            if i < known:
                w, v, d = side[i]
            else:
                a, d = table[i]
                w = g(v := v0 + s * a)
                if side is not None:
                    side.append((w, v, d))
            i += 1
            term = w * v**n * d if n else w * d  # v^0 = 1 exactly
            append(term)
            last = abs(term)
            if last > largest:
                largest = last
                floor = _NEGLIGIBLE * largest
            quiet = quiet + 1 if last <= floor else 0
        self.largest = largest
        self.tails_met = self.tails_met and quiet == 2
        # the second negligible node only confirms the first, the end
        self.ends.append(step * (i - 1) if quiet == 2 else step * i)
        self.edge += last
        return max(i - known, 0)

    def settle(self, s: float, h: float, nodes: int, roundoff: float,
               tol: float, root_tol: float, budget: int) -> bool:
        """Judge the level of step h, whose node weight is s h; keep its
        result and return True if this order stops there.  `tol` is the
        policy's rel_tol, `root_tol` its square root, and `budget` its
        max_subdivisions.  At odd n, where v^n changes sign, the integral
        of |g v^n| is summed apart, from the |terms|; at even n g >= 0, so
        every term is, and that integral is |value|."""
        sh = s * h
        value = sh * math.fsum(self.terms)
        mass = sh * math.fsum(map(abs, self.terms)) if self.n % 2 else abs(value)
        if not math.isfinite(mass):
            raise OverflowError  # a term or the sum of |terms| overflowed
        if self.previous is not None:
            self.before, self.last = self.last, abs(value - self.previous)
        elif not roundoff < math.inf:
            # g's exponent sums terms beyond the double range near its peak,
            # so its values carry no bounded error and no level can certify
            # one: the integral lies beyond the double range, above or below
            self.result = QuadratureResult(value, math.inf, nodes, False)
            return True
        # a halving about squares the error of a converging rule: once the
        # change before this level's is within sqrt(rel_tol) of the mass, this
        # level's change is about the error of the level before, and bounds
        # its own.  Two changes are still required, as one can vanish by
        # accident.  Relative to the mass alone, and with the subnormal
        # charge: a mass too small to hold rel_tol of itself certifies
        # nothing, nor does a zero mass (every term underflowed).  Each term
        # is rounded twice, in g and in the product, and each rounding can
        # lose half the smallest subnormal; the first is scaled by the node's
        # weight s h (1 + e^-tau), whose sum is about s times this span
        before, last = self.before, self.last
        hi, lo = self.ends
        span = s * (hi - lo + math.exp(-lo) - math.exp(-hi))
        charge = math.ldexp(len(self.terms) + span, -1075)
        charges = roundoff * mass + sh * self.edge + charge
        converged = (self.tails_met and last + charges <= tol * mass
                     and before <= root_tol * mass)
        estimate = (last if converged else max(before, last)) + charges
        # unmet tails, or a charge above rel_tol of the mass, which more nodes
        # only raise, end the refinement once the estimate is finite
        hopeless = not self.tails_met or tol * mass < charge
        if (converged or (hopeless and estimate < math.inf)
                or len(self.terms) + round((hi - lo) / h) > budget):
            self.result = QuadratureResult(value, estimate, nodes, converged)
            return True
        self.previous = value
        return False


def _integrate(
    g: Callable[[float], float], v0: float, s: float, size: float,
    policy: AccuracyPolicy, orders: tuple[int, ...] = (0,),
) -> list[QuadratureResult]:
    """Integrals over v in (-inf, inf) of g(v) v^n, one per n of `orders`,
    where g(v) = t f(t) >= 0, t = e^v, peaks near v0 with width about s.

    The trapezoid rule in tau, v = v0 + s (tau + 1 - e^-tau), on one node
    set: a node's term for order n is g(v) v^n (1 + e^-tau), and a level's
    value is s h times the sum of an order's terms.  Each order walks out
    to its own tails, over nodes the widest order's walk evaluates once.
    Its ends are the first negligible node of each side: it sums its own
    walk's nodes, the one beyond each end that confirmed it included, and
    the midpoints between its ends.  It keeps only those terms: each level
    (`_Order.settle`) forms its value, its integral of |g v^n| and its
    subnormal charge from them and from the ends.  Its result is the one a
    call for that order alone returns, except `subdivisions_used`: the
    shared nodes evaluated when the order stopped.  A lone order keeps no
    shared nodes and forms each term as its node is evaluated.  `size`
    bounds the terms that g's exponent sums near v0: each is rounded, so
    g's values carry about `size` ulps of their own, which the roundoff
    charge adds to the sum's 50; a size beyond the double range stops
    every order at its first level, unconverged, with an infinite
    estimate.  `policy.max_subdivisions` bounds every level of an order
    after the walk.
    """
    h = _H0
    tol, budget = policy.rel_tol, policy.max_subdivisions
    root_tol = math.sqrt(tol)
    try:
        a, d = _CENTRE
        v = v0 + s * a
        w = g(v)
        parts = [_Order(n, w, v, d) for n in orders]
        nodes = 1
        # a lone order keeps no shared nodes: it evaluates its own
        lone = parts[0] if len(parts) == 1 else None
        for step in (h, -h):
            side = None if lone else []
            for part in parts:
                nodes += part.walk(side, step, g, v0, s)
        roundoff = (_SUM_ULPS + size) * sys.float_info.epsilon
        pending = parts
        while pending := [part for part in pending if not part.settle(
                s, h, nodes, roundoff, tol, root_tol, budget)]:
            if lone:  # its own midpoints, each term formed as it is evaluated
                hi, lo = lone.ends
                n, mids = lone.n, _midpoints(h, lo, round((hi - lo) / h))
                new = ([g(v := v0 + s * a) * v**n * d for a, d in mids] if n
                       else [g(v0 + s * a) * d for a, d in mids])  # v^0 = 1 exactly
                lone.terms += new
            else:  # the midpoints between the widest ends; each order takes its own
                lo = min(part.ends[1] for part in pending)
                hi = max(part.ends[0] for part in pending)
                new = [(g(v := v0 + s * a), v, d)
                       for a, d in _midpoints(h, lo, round((hi - lo) / h))]
                for part in pending:
                    n, first = part.n, round((part.ends[1] - lo) / h)
                    mine = new[first:first + round((part.ends[0] - part.ends[1]) / h)]
                    part.terms += ([w * v**n * d for w, v, d in mine] if n
                                   else [w * d for w, v, d in mine])
            nodes += len(new)
            h *= 0.5
    except OverflowError as exc:
        raise ComputationOverflowError("integral overflows double precision") from exc
    return [part.result for part in parts]


def _peak(x: float, k: float, log_c: float) -> tuple[float, float, float]:
    """Centre, width and size in v of e^(x v - e^(k v - log c)).

    The centre ln(c x / k) / k is where the exponent is stationary, and the
    width the smaller of the scale 1/k of e^(k v) and (k x)^-1/2 from the
    exponent's curvature k x there.  The size adds the terms the exponent
    rounds there: x v, log c, and e^w = x / k times its argument's terms.
    """
    v0 = (log_c + math.log(x) - math.log(k)) / k
    return (v0, min(1.0 / k, 1.0 / (math.sqrt(k) * math.sqrt(x))),
            abs(x * v0) + abs(log_c) + x / k * (1.0 + abs(k * v0) + abs(log_c)))


def _gamma_integrals(
    orders: tuple[int, ...], pt: EvalPoint, c: float, policy: AccuracyPolicy
) -> list[QuadratureResult]:
    """int_0^inf t^(x-1) e^(-t^k / c) log^n t dt for each n of `orders`: in
    v = log t, the integrals of e^(x v - e^(k v) / c) v^n."""
    x, k, log_c = pt.x, pt.k, math.log(c)

    def g(v: float) -> float:
        w = k * v - log_c  # log(t^k / c)
        return math.exp(x * v - math.exp(w)) if w < _LOG_CAP else 0.0

    return _integrate(g, *_peak(x, k, log_c), policy, orders)


def integrate_k_gamma(
    pt: EvalPoint, policy: AccuracyPolicy = ORACLE_POLICY
) -> QuadratureResult:
    """int_0^inf t^(x-1) e^(-t^k / k) dt, at a point without p."""
    pt.require_no_p("integrate_k_gamma", "integrate_pk_gamma")
    return _gamma_integrals((0,), pt, pt.k, policy)[0]


def integrate_pk_gamma(
    pt: EvalPoint, policy: AccuracyPolicy = ORACLE_POLICY
) -> QuadratureResult:
    """int_0^inf t^(x-1) e^(-t^k / p) dt."""
    return _gamma_integrals((0,), pt, pt.require_p(), policy)[0]


def integrate_k_polygamma(
    m: int, pt: EvalPoint, policy: AccuracyPolicy = ORACLE_POLICY
) -> QuadratureResult:
    """I_m(x, k) = int_0^inf t^m e^(-xt) / (1 - e^(-kt)) dt, m >= 1.

    The function value is (-1)^(m+1) I_m.  In v = log t, with u = k t,
    the integrand is e^(m v - x t) / k * u / (1 - e^-u), whose ratio tends
    to 1 as t -> 0, leaving the tail e^(m v) / k.
    """
    kernels.check_order(m, 1, None, "polygamma integral")
    x_k, log_k = pt.x / pt.k, math.log(pt.k)

    def g(v: float) -> float:
        w = v + log_k  # log(k t)
        if w >= _LOG_CAP:
            return 0.0
        u = math.exp(w)  # u / (1 - e^-u) tends to 1 as u -> 0
        return math.exp(m * v - x_k * u - log_k) * (u / -math.expm1(-u) if u else 1.0)

    # up to the constant -log_k, the exponent m v - x e^v is that of _peak
    # with x -> m, k -> 1 and c -> 1 / x: it peaks at ln(m / x), width m^-1/2
    return _integrate(g, *_peak(float(m), 1.0, -math.log(pt.x)), policy)[0]


def integrate_bose(
    s: float, k: float, c: float, policy: AccuracyPolicy = ORACLE_POLICY
) -> QuadratureResult:
    """int_0^inf t^s / (e^(t^k / c) - 1) dt.

    Near 0 the integrand behaves like c t^(s-k), integrable only for
    s - k > -1.  Equals zeta((s+1)/k) * pGamma_k(s+1) at p = c.  In
    v = log t, with u = t^k / c, the integrand is
    e^((s-k+1) v + log c) * u / (e^u - 1), and u / (e^u - 1) is computed
    as e^-u * u / (1 - e^-u), which stays finite for every u.  It peaks
    about where the gamma integrand of x = s - k + 1 does.
    """
    if not 1.0 <= s <= sys.float_info.max:
        raise kernels.domain_error(
            "s", s, f"bose integral requires s >= 1, got {kernels.shown(s)}")
    for name, value in (("k", k), ("c", c)):
        if not 0 < value <= sys.float_info.max:
            raise kernels.domain_error(
                name, value, "bose integral requires k > 0 and c > 0, both finite; "
                f"got {kernels.shown(k)}, {kernels.shown(c)}")
    if s - k <= -1.0:
        raise DomainError(
            f"bose integrand is non-integrable at 0 for s - k <= -1 (s={s}, k={k})"
        )
    sigma, log_c = s - k + 1.0, math.log(c)

    def g(v: float) -> float:
        w = k * v - log_c  # log(t^k / c)
        if w >= _LOG_CAP:
            return 0.0
        u = math.exp(w)  # u / (1 - e^-u) tends to 1 as u -> 0
        return math.exp(sigma * v + log_c - u) * (u / -math.expm1(-u) if u else 1.0)

    return _integrate(g, *_peak(sigma, k, log_c), policy)[0]


def integrate_k_gamma_deriv(
    n: int, pt: EvalPoint, policy: AccuracyPolicy = ORACLE_POLICY
) -> QuadratureResult:
    """int_0^inf t^(x-1) e^(-t^k / c) log^n t dt, with c = pt.p if set, else k.

    This is D^(n) of pGamma_k, or of Gamma_k at a point without p.  In
    v = log t the integrand is e^(x v - e^(k v) / c) v^n, which changes
    sign at v = 0 for odd n.  An order outside 0..8 is refused by
    `kernels.check_deriv_order`, the order rule that evaluates no kernel.
    """
    return integrate_k_gamma_derivs((n,), pt, policy)[0]


def integrate_k_gamma_derivs(
    orders: Iterable[int], pt: EvalPoint, policy: AccuracyPolicy = ORACLE_POLICY
) -> list[QuadratureResult]:
    """`integrate_k_gamma_deriv(n, pt, policy)` for each n of `orders`, in
    order, on one node set.

    Every order is checked before any node is evaluated.  Each result is
    that of the order's own call, except that `subdivisions_used` counts
    the shared nodes; an overflow at any order raises
    `ComputationOverflowError` for the call.
    """
    orders = tuple(orders)
    for n in orders:
        kernels.check_deriv_order(n)
    return _gamma_integrals(orders, pt, pt.k if pt.p is None else pt.p, policy)
