"""Verification harness for the seven Turán/Hölder-type inequalities.

Each check computes both sides of one inequality at one parameter point,
orients the slack so the claimed direction predicts slack >= 0, and
attaches a first-order propagated error margin so that a FAIL verdict can
only mean mathematics, never roundoff.

Theorem ids:
  T1   Hölder inequality for k-polygamma magnitudes
  T2   Hölder inequality for the k-zeta / k-gamma pair
  T3   the p-k variant of T2
  T4K  Turán inequality for k-gamma derivatives (T4PK: p-k variant)
  T5   midpoint (log-convexity style) inequality for k-gamma derivatives,
       additive form (T6: p-k variant)
  T7   midpoint inequality for k-polygamma, direction depending on parity

The point picks the family: a check runs the p-k variant (T3, T4PK, T6)
exactly when it is given p, as `p_param` or as `EvalPoint.p`.

Each check returns one `InequalityCheck`, which is also one report row:
its fields are the CSV columns in order, with None for an input the
theorem does not take.

`THEOREMS` is the table a sweep runs from: per theorem, its admissible grid
points and the check that evaluates one.  `scan_grid` runs every check of
a sweep inside one `kernels.memoised()` block, and the checks read their
values through the memoised readers of `functions`, so a value that rows
share is one `kernels.memo` entry, computed once: a T2 row and its T3
twins read lhs, rhs and margin from one entry per (m, n, P, Q, k), and
the T4-T6 rows of a point read its derivatives D_0..8 from one entry.
Every row is still the record of one call of its module-level check,
which a profiler or test can wrap, and every value keeps the bits it has
outside a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from operator import attrgetter
from typing import Iterator, Sequence

from . import functions as fn
from .kernels import (GAMMA_DERIV_MAX_ORDER, POLYGAMMA_MAX_ORDER, check_deriv_order,
                      check_order, memo, memoised, require_positive, shown)
from .policy import ComputationOverflowError, DomainError

__all__ = [
    "THEOREMS",
    "THEOREM_IDS",
    "HolderPair",
    "InequalityCheck",
    "GridSpec",
    "ScanSummary",
    "check_holder_polygamma",
    "check_holder_zeta",
    "check_turan_gamma_deriv",
    "check_midpoint_gamma_deriv",
    "check_midpoint_polygamma",
    "scan_grid",
]

#: Uniform relative-accuracy contract assumed for closed-form function
#: values when propagating margins: headroom over the 2^-56 Hurwitz
#: truncation for the rounding of the scales and Bell sums built on it.
_FUNC_REL = 1e-11

#: Extra absolute tolerance granted on top of the propagated margin;
#: Hölder sides with exponents near 1 lose a few digits.
DEFAULT_SLACK_TOL = 1e-9

#: Relative contract of the j-th gamma-derivative entry, per j.
_DERIV_REL = tuple(_FUNC_REL * (j + 1) for j in range(GAMMA_DERIV_MAX_ORDER + 1))


@dataclass(frozen=True)
class HolderPair:
    """Conjugate exponents p, q > 1 with 1/p + 1/q = 1."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (self.p > 1.0 and self.q > 1.0):
            raise DomainError(
                f"Hölder exponents must both exceed 1, "
                f"got p={shown(self.p)}, q={shown(self.q)}"
            )
        try:
            gap = abs(1.0 / self.p + 1.0 / self.q - 1.0)
        except OverflowError:  # an int past the largest double, refused below by name
            gap = 0.0
        if gap > 1e-12:
            raise DomainError(f"exponents are not conjugate: {self.p}, {self.q}")
        # kept as floats, so an exponent prints alike in every row
        for name in ("p", "q"):
            object.__setattr__(self, name, require_positive(name, getattr(self, name)))

    @classmethod
    def conjugate(cls, p: float) -> "HolderPair":
        return cls(p, p / (p - 1.0))


@dataclass(slots=True)
class InequalityCheck:
    """One verification record, which is also one report row: its fields,
    in order, are the CSV columns and the JSON keys.  An input the theorem
    does not take is None; the verdict is PASS or FAIL.  Not frozen, since
    a frozen record costs several times as much to build."""

    theorem_id: str
    x: float | None
    k: float
    p_param: float | None
    m: int | None
    n: int | None
    l: int | None
    holder_p: float | None
    holder_q: float | None
    lhs: float
    rhs: float
    slack: float
    margin: float
    verdict: str


def _inputs_of(check: InequalityCheck) -> dict:
    """The input columns of `check`, x through holder_q, that are not None."""
    return {f.name: value for f in fields(check)[1:9]
            if (value := getattr(check, f.name)) is not None}


def _record(
    theorem_id: str, lhs: float, rhs: float, margin: float, slack_tol: float,
    slack: float | None = None, *, k: float, x=None, p_param=None, m=None, n=None,
    l=None, holder_p=None, holder_q=None,
) -> InequalityCheck:
    """One check's record; the slack is lhs - rhs unless given, and an input
    left out is None.  The verdict is PASS if slack >= -(margin + slack_tol),
    else FAIL, so a NaN slack is a FAIL."""
    slack = lhs - rhs if slack is None else slack
    verdict = "PASS" if slack >= -(margin + slack_tol) else "FAIL"
    return InequalityCheck(theorem_id, x, k, p_param, m, n, l, holder_p, holder_q,
                           lhs, rhs, slack, margin, verdict)


def check_holder_polygamma(
    m: int,
    n: int,
    hp: HolderPair,
    pt: fn.EvalPoint,
    slack_tol: float = DEFAULT_SLACK_TOL,
) -> InequalityCheck:
    """|psi_k^(m)|^(1/p) |psi_k^(n)|^(1/q) >= |psi_k^(m/p + n/q)|.

    Magnitudes on both sides: fractional powers of the signed values are
    undefined over the reals for even orders, and the underlying Hölder
    argument is about the positive integrals.
    """
    check_order(m, 1, POLYGAMMA_MAX_ORDER, "Hölder")
    check_order(n, 1, POLYGAMMA_MAX_ORDER, "Hölder")
    # s >= 1 exactly for m, n >= 1; the sum can round below it (to
    # 0.9999999999999999 at p = 1.843), outside the fractional order's domain
    s = max(1.0, m / hp.p + n / hp.q)
    a = fn._magnitude_at(m, pt.x, pt.k)
    b = fn._magnitude_at(n, pt.x, pt.k)
    lhs = a ** (1.0 / hp.p) * b ** (1.0 / hp.q)
    rhs = fn._magnitude_at(s, pt.x, pt.k)
    # d(a^(1/p))/a = (1/p) a^(1/p - 1): relative errors divide by p, q
    margin = abs(lhs) * (_FUNC_REL / hp.p + _FUNC_REL / hp.q) + abs(rhs) * _FUNC_REL
    return _record("T1", lhs, rhs, margin, slack_tol, x=pt.x, k=pt.k, m=m, n=n,
                   holder_p=hp.p, holder_q=hp.q)


def check_holder_zeta(
    m: int,
    n: int,
    hp: HolderPair,
    k: float,
    p_param: float | None = None,
    slack_tol: float = DEFAULT_SLACK_TOL,
) -> InequalityCheck:
    """Hölder inequality for the (p-)k-zeta / (p-)k-gamma pair.

    lhs = zeta_k(m+1)^(1/p) zeta_k(n+1)^(1/q)
    rhs = Gamma_k(s+1) / (Gamma_k(m+1)^(1/p) Gamma_k(n+1)^(1/q)) * zeta_k(s+1)
    with s = m/p + n/q.  T3 (p_param given) reads Gamma_k as T2 does, since
    pGamma_k(x) = (p_param/k)^(x/k) Gamma_k(x) and s + 1 = (m+1)/p + (n+1)/q
    cancel that factor from the ratio, and pzeta_k = zeta_k: both read one
    `kernels.memo` entry of lhs, rhs and margin per (m, n, p, q, k).  k and
    p_param are recorded as floats.
    """
    check_order(m, 1, None, "Hölder")
    check_order(n, 1, None, "Hölder")
    if p_param is not None:
        p_param = require_positive("p", p_param)
    k = require_positive("k", k)
    lhs, rhs, margin = _holder_zeta_sides(m, n, hp.p, hp.q, k)
    return _record("T2" if p_param is None else "T3", lhs, rhs, margin, slack_tol,
                   k=k, p_param=p_param, m=m, n=n, holder_p=hp.p, holder_q=hp.q)


@memo
def _holder_zeta_sides(m: int, n: int, p: float, q: float, k: float) -> tuple:
    # (lhs, rhs, margin) of T2 and of every T3 row at (m, n, p, q, k).
    # zeta_k(m+1) and zeta_k(n+1) are read first, so a point outside
    # x/k > 1 is refused before any gamma value is read: s + 1 lies between
    # m + 1 and n + 1
    s = m / p + n / q
    zeta = lambda x: fn._zeta_at(x, k)
    gamma = lambda x: fn._gamma_at(x, k)
    lhs = zeta(m + 1.0) ** (1.0 / p) * zeta(n + 1.0) ** (1.0 / q)
    numerator = gamma(s + 1.0)
    denominator = gamma(m + 1.0) ** (1.0 / p) * gamma(n + 1.0) ** (1.0 / q)
    if not denominator > 0.0:  # a bare ZeroDivisionError names no point
        raise ComputationOverflowError(
            f"gamma ratio denominator of orders m={m}, n={n} at k={k} "
            "underflows to 0 in double precision")
    rhs = numerator / denominator * zeta(s + 1.0)
    # lhs carries two damped factors, rhs four factors
    margin = abs(lhs) * _FUNC_REL + 4.0 * abs(rhs) * _FUNC_REL
    return lhs, rhs, margin


def check_turan_gamma_deriv(
    n: int, pt: fn.EvalPoint, slack_tol: float = DEFAULT_SLACK_TOL
) -> InequalityCheck:
    """Turán inequality Gamma_k^(n-1) Gamma_k^(n+1) - (Gamma_k^(n))^2 >= 0.

    The inequality is proved only for odd n, where the Cauchy-Schwarz
    factorization has the even outer orders n - 1 and n + 1; at even n it
    genuinely reverses (n = 2, x = k = 1 gives slack ~ -0.77).  Any
    1 <= n <= 7 is accepted so that the reversal can be reported.  A point
    that carries p checks pGamma_k instead (T4PK).
    """
    check_order(n, 1, GAMMA_DERIV_MAX_ORDER - 1, "Turán")  # reads order n + 1
    g_lo, g_mid, g_hi = fn._gamma_derivatives((n - 1, n, n + 1), pt)
    lhs = g_lo * g_hi
    rhs = g_mid * g_mid
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        # inf - inf would be a NaN slack, reported as a mathematical FAIL
        raise ComputationOverflowError(
            f"Turán products of order {n} at {pt} overflow double precision"
        )
    margin = abs(lhs) * (_DERIV_REL[n - 1] + _DERIV_REL[n + 1]) + abs(rhs) * (
        2.0 * _DERIV_REL[n]
    )
    return _record("T4K" if pt.p is None else "T4PK", lhs, rhs, margin, slack_tol,
                   x=pt.x, k=pt.k, p_param=pt.p, n=n)


def check_midpoint_gamma_deriv(
    n: int, l: int, pt: fn.EvalPoint, slack_tol: float = DEFAULT_SLACK_TOL
) -> InequalityCheck:
    """[Gamma_k^(n-l) + Gamma_k^(n+l)] / 2 - Gamma_k^(n) >= 0, n, l even.

    This is the additive form; the exponentiated statement follows from it
    by monotonicity of exp and would overflow immediately if asserted
    directly.  A point that carries p checks pGamma_k instead (T6).
    """
    check_order(l, 0, None, "midpoint")
    if n % 2 or l % 2 or not n >= l or n + l > GAMMA_DERIV_MAX_ORDER:
        raise DomainError("midpoint check requires even n >= l >= 0 with "
                          f"n + l <= {GAMMA_DERIV_MAX_ORDER}")
    check_deriv_order(n)  # a bool, float or numpy n can pass the test above
    g_lo, g_hi, g_mid = fn._gamma_derivatives((n - l, n + l, n), pt)
    # halved first: finite D^0 and D^8 can sum past the largest double
    lhs = 0.5 * g_lo + 0.5 * g_hi
    rhs = g_mid
    margin = 0.5 * (
        abs(g_lo) * _DERIV_REL[n - l] + abs(g_hi) * _DERIV_REL[n + l]
    ) + abs(g_mid) * _DERIV_REL[n]
    return _record("T5" if pt.p is None else "T6", lhs, rhs, margin, slack_tol,
                   x=pt.x, k=pt.k, p_param=pt.p, n=n, l=l)


def check_midpoint_polygamma(
    n: int, pt: fn.EvalPoint, slack_tol: float = DEFAULT_SLACK_TOL
) -> InequalityCheck:
    """Midpoint inequality for k-polygamma, parity-oriented.

    d = psi_k^(n) - [psi_k^(n+1) + psi_k^(n-1)] / 2; the predicted
    direction is d >= 0 for odd n, d <= 0 for even n, and the slack is d
    at odd n and -d at even n.  n >= 2: n = 1 would reference the
    undefined psi_k^(0).  psi_k^(m) has the sign (-1)^(m+1), so lhs and
    rhs have opposite signs, the slack is |lhs| + |rhs|, and every row is
    PASS by the sign pattern alone.
    """
    check_order(n, 2, POLYGAMMA_MAX_ORDER - 1, "polygamma midpoint")  # reads n + 1
    x, k = pt.x, pt.k
    sign = 1.0 if n % 2 else -1.0  # the sign of psi_k^(n), -(that of n +- 1)
    lhs = sign * fn._magnitude_at(n, x, k)
    rhs = -0.5 * sign * (fn._magnitude_at(n + 1, x, k) + fn._magnitude_at(n - 1, x, k))
    d = lhs - rhs
    margin = (abs(lhs) + abs(rhs)) * _FUNC_REL
    return _record("T7", lhs, rhs, margin, slack_tol, d if n % 2 == 1 else -d,
                   x=pt.x, k=pt.k, n=n)


# --------------------------------------------------------------------------
# grid sweeps


@dataclass(frozen=True)
class GridSpec:
    """Parameter lists defining a verification sweep.

    Theorem-specific hypotheses (zeta domain, Hölder integrality, the
    even orders of T5/T6, the order ranges of T4 and T7) are applied per
    theorem when enumerating points, so any finite positive lists are
    acceptable here, with Hölder exponents whose conjugates exceed 1.
    T4K/T4PK deliberately enumerate both parities of n: the Turán
    inequality holds only at odd n, and the even-n points are kept so that
    its reversal there is reported as FAIL.
    """

    xs: tuple[float, ...] = (0.5, 1.0, 2.0, 5.0, 10.0)
    ks: tuple[float, ...] = (0.5, 1.0, 2.0, 3.0)
    p_params: tuple[float, ...] = (0.5, 1.0, 2.0, 5.0)
    ms: tuple[int, ...] = (1, 2, 3, 4)
    ns: tuple[int, ...] = (1, 2, 3, 4)
    ls: tuple[int, ...] = (0, 2)
    holder_ps: tuple[float, ...] = (2.0, 3.0, 1.5)

    def __post_init__(self) -> None:
        for name in ("xs", "ks", "p_params", "holder_ps"):
            if any(not (0 < v < math.inf) for v in getattr(self, name)):
                raise DomainError(f"all {name} values must be finite and positive")
        if any(v <= 1.0 for v in self.holder_ps):
            raise DomainError("Hölder exponents must exceed 1")
        # each exponent needs a conjugate q > 1: p = 1e300 rounds q to 1.0
        self.holder_pairs()
        for order in self.ms + self.ns + self.ls:
            check_order(order, 0, None, "grid")

    def holder_pairs(self) -> tuple[HolderPair, ...]:
        return tuple(HolderPair.conjugate(p) for p in self.holder_ps)

    @cached_property
    def _points(self) -> tuple[fn.EvalPoint, ...]:
        # the (x, k) points, built once per grid and read by every theorem
        return tuple(fn.EvalPoint(x, k) for x in self.xs for k in self.ks)

    @cached_property
    def _pk_points(self) -> tuple[fn.EvalPoint, ...]:
        # the (x, k, p) points, likewise
        return tuple(fn.EvalPoint(x, k, p)
                     for x in self.xs for k in self.ks for p in self.p_params)


@dataclass
class ScanSummary:
    """Per selected theorem, an entry built from its rows: `count`, `PASS`,
    `FAIL`, `not_evaluated`, and the least row's (a NaN slack first)
    `min_slack` and `min_slack_at`, a dict of its input columns that are not
    None.  `errors` holds one message per point not evaluated."""

    per_theorem: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


# Admissible points per theorem, in lexicographic grid order: each yields
# the positional arguments of its check, up to the slack tolerance.


def _eval_points(spec: GridSpec, pk: bool = False) -> tuple[fn.EvalPoint, ...]:
    return spec._pk_points if pk else spec._points


def _holder_triples(spec: GridSpec) -> list[tuple[HolderPair, int, int, float]]:
    """(hp, m, n, s = m/p + n/q) with m, n >= 1 and s integral, the Hölder
    hypothesis of T1-T3; built once per theorem of a sweep, not per point."""
    triples = []
    for hp in spec.holder_pairs():
        for m in spec.ms:
            for n in spec.ns:
                s = m / hp.p + n / hp.q
                if m >= 1 and n >= 1 and abs(s - round(s)) <= 1e-9:
                    triples.append((hp, m, n, s))
    return triples


def _holder_polygamma_points(spec: GridSpec) -> Iterator[tuple]:
    triples = _holder_triples(spec)
    for pt in _eval_points(spec):
        for hp, m, n, _ in triples:
            yield m, n, hp, pt


def _holder_zeta_points(spec: GridSpec, pk: bool) -> Iterator[tuple]:
    triples = _holder_triples(spec)
    for k in spec.ks:
        for p_param in (spec.p_params if pk else (None,)):
            for hp, m, n, s in triples:
                if min(m + 1.0, n + 1.0, s + 1.0) / k > 1.0:
                    yield m, n, hp, k, p_param


def _turan_points(spec: GridSpec, pk: bool) -> Iterator[tuple]:
    return ((n, pt) for pt in _eval_points(spec, pk) for n in spec.ns
            if 1 <= n < GAMMA_DERIV_MAX_ORDER)


def _midpoint_gamma_points(spec: GridSpec, pk: bool) -> Iterator[tuple]:
    return ((n, l, pt) for pt in _eval_points(spec, pk)
            for n in spec.ns if n % 2 == 0
            for l in spec.ls
            if l % 2 == 0 and l <= n and n + l <= GAMMA_DERIV_MAX_ORDER)


def _midpoint_polygamma_points(spec: GridSpec) -> Iterator[tuple]:
    return ((n, pt) for pt in _eval_points(spec) for n in spec.ns
            if 2 <= n < POLYGAMMA_MAX_ORDER)


#: The theorem table: (theorem_id, points, evaluate) per theorem, in report
#: order.  points(spec) yields the admissible argument tuples of evaluate,
#: which is called as evaluate(*point, slack_tol).  The checks
#: are looked up when called, not when the table is built, so a profiler
#: that wraps the module's check functions sees every call.
THEOREMS = (
    ("T1", _holder_polygamma_points, lambda *a: check_holder_polygamma(*a)),
    ("T2", partial(_holder_zeta_points, pk=False), lambda *a: check_holder_zeta(*a)),
    ("T3", partial(_holder_zeta_points, pk=True), lambda *a: check_holder_zeta(*a)),
    ("T4K", partial(_turan_points, pk=False), lambda *a: check_turan_gamma_deriv(*a)),
    ("T4PK", partial(_turan_points, pk=True), lambda *a: check_turan_gamma_deriv(*a)),
    ("T5", partial(_midpoint_gamma_points, pk=False),
     lambda *a: check_midpoint_gamma_deriv(*a)),
    ("T6", partial(_midpoint_gamma_points, pk=True),
     lambda *a: check_midpoint_gamma_deriv(*a)),
    ("T7", _midpoint_polygamma_points, lambda *a: check_midpoint_polygamma(*a)),
)

THEOREM_IDS = tuple(theorem_id for theorem_id, _, _ in THEOREMS)


def scan_grid(
    spec: GridSpec,
    theorems: Sequence[str],
    slack_tol: float = DEFAULT_SLACK_TOL,
) -> tuple[list[InequalityCheck], ScanSummary]:
    """Evaluate every admissible grid point for the selected theorems.

    Output ordering is deterministic: theorems in canonical order, grid
    points in lexicographic order.  Per-point evaluation errors are
    counted in the summary instead of aborting the sweep, and every selected
    theorem has a summary entry, with or without rows.  The sweep is one
    `kernels.memoised()` block, whose tables are dropped when it returns.
    """
    unknown = set(theorems) - set(THEOREM_IDS)
    if unknown:
        raise DomainError(f"unknown theorem ids: {sorted(unknown)}")
    checks: list[InequalityCheck] = []
    summary = ScanSummary()
    with memoised():
        for theorem_id, points, evaluate in THEOREMS:
            if theorem_id not in theorems:
                continue
            first, errors = len(checks), len(summary.errors)
            for point in points(spec):
                try:
                    checks.append(evaluate(*point, slack_tol))
                except (ArithmeticError, ValueError) as exc:
                    summary.errors.append(f"{theorem_id}: {exc}")
            rows = checks[first:]
            passed = list(map(attrgetter("verdict"), rows)).count("PASS")
            least = _least_row(rows)
            summary.per_theorem[theorem_id] = {
                "count": len(rows), "PASS": passed, "FAIL": len(rows) - passed,
                "not_evaluated": len(summary.errors) - errors,
                "min_slack": math.inf if least is None else least.slack,
                "min_slack_at": None if least is None else _inputs_of(least),
            }
    return checks, summary


def _least_row(rows: list[InequalityCheck]) -> InequalityCheck | None:
    """The first row with a NaN slack, else the first with the least slack
    (of -0.0 and 0.0, the earlier row); None if there are no rows."""
    if not rows:
        return None
    slacks = list(map(attrgetter("slack"), rows))
    nans = list(map(math.isnan, slacks))
    # index finds the first row equal to the least slack, -0.0 == 0.0
    return rows[nans.index(True) if True in nans else slacks.index(min(slacks))]
