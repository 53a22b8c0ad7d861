"""References computed apart from kgamma.

* `admissible_rows`: the number of rows a `verify` sweep must print per
  theorem, counted from each theorem's hypotheses with exact fractions.
* `mp_*`: 30-digit mpmath values of the functions and of sweep slacks.
* `sp_*`: vectorised double-precision scipy values, cheap enough to check
  every value an `eval` run computes.

Derivatives of Gamma_k and pGamma_k come from the cumulant recurrence:
with D = exp(L), L' = (log c + psi(y)) / k and L^(j) = psi^(j-1)(y) / k^j
(y = x / k, c = k for Gamma_k and c = p for pGamma_k),
D^(n) = sum_{j<n} C(n-1, j) L^(j+1) D^(n-1-j).

Nothing here imports kgamma.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy import special

DPS = 30

THEOREMS = ("T1", "T2", "T3", "T4K", "T4PK", "T5", "T6", "T7")


# --------------------------------------------------------------------------
# admissible rows of a sweep


def admissible_rows(n_x, ks, n_p, ms, ns, ls, holder_ps) -> dict[str, int]:
    """Rows per theorem that `kgamma verify` owes on an (x, k, p) grid.

    T1-T3 need s = m/p + n/q to be a whole number (q = p / (p - 1)); T2
    and T3 also need m + 1, n + 1 and s + 1 to exceed k.  T4 takes
    1 <= n <= 7, T5/T6 even n >= even l with n + l <= 8, T7 2 <= n <= 11.
    """
    orders = []
    for hp in holder_ps:
        p = Fraction(hp)
        q = p / (p - 1)
        for m in ms:
            for n in ns:
                s = m / p + n / q
                if s.denominator == 1 and s >= 1:
                    orders.append((m, n, s))
    zeta_rows = sum(
        1 for k in ks for (m, n, s) in orders
        if min(m + 1, n + 1, s + 1) > Fraction(k)
    )
    points = n_x * len(ks)
    turan = sum(1 for n in ns if 1 <= n <= 7)
    midpoint = sum(
        1 for n in ns for l in ls
        if n % 2 == 0 and l % 2 == 0 and l <= n and n + l <= 8
    )
    return {
        "T1": points * len(orders),
        "T2": zeta_rows,
        "T3": zeta_rows * n_p,
        "T4K": points * turan,
        "T4PK": points * turan * n_p,
        "T5": points * midpoint,
        "T6": points * midpoint * n_p,
        "T7": points * sum(1 for n in ns if 2 <= n <= 11),
    }


# --------------------------------------------------------------------------
# 30-digit mpmath


def mp_gamma_k(x, k, p=None):
    """Gamma_k(x) = k^(x/k - 1) Gamma(x/k), or pGamma_k(x) = p^(x/k) / k Gamma(x/k)."""
    with mp.workdps(DPS):
        x, k = mp.mpf(x), mp.mpf(k)
        y = x / k
        if p is None:
            return mp.power(k, y - 1) * mp.gamma(y)
        return mp.power(mp.mpf(p), y) / k * mp.gamma(y)


def mp_gamma_k_derivs(n_max: int, x, k, p=None) -> list:
    """[D^(0), ..., D^(n_max)] of Gamma_k (p None) or pGamma_k at x."""
    with mp.workdps(DPS):
        x, k = mp.mpf(x), mp.mpf(k)
        c = k if p is None else mp.mpf(p)
        y = x / k
        cumulants = [None, (mp.log(c) + mp.psi(0, y)) / k]
        cumulants += [mp.psi(j - 1, y) / k**j for j in range(2, n_max + 1)]
        derivs = [mp_gamma_k(x, k, p)]
        for n in range(1, n_max + 1):
            derivs.append(mp.fsum(
                mp.binomial(n - 1, j) * cumulants[j + 1] * derivs[n - 1 - j]
                for j in range(n)
            ))
        return derivs


def mp_polygamma_k(m: int, x, k):
    """psi_k^(m)(x) = psi^(m)(x/k) / k^(m+1)."""
    with mp.workdps(DPS):
        k = mp.mpf(k)
        return mp.psi(m, mp.mpf(x) / k) / k ** (m + 1)


def mp_polygamma_k_abs(s, x, k):
    """|psi_k^(s)(x)| = Gamma(s+1) k^-(s+1) zeta_H(s+1, x/k), real s >= 1."""
    with mp.workdps(DPS):
        s, k = mp.mpf(s), mp.mpf(k)
        return mp.gamma(s + 1) * k ** (-(s + 1)) * mp.zeta(s + 1, mp.mpf(x) / k)


def mp_zeta_k(x, k):
    """zeta_k(x) = zeta(x/k); pzeta_k is the same for every p."""
    with mp.workdps(DPS):
        return mp.zeta(mp.mpf(x) / mp.mpf(k))


def deriv_scale(derivs, n: int):
    """Size against which the n-th derivative's error is measured.

    D^(n) = int t^(x-1) e^(-t^k/c) log^n t dt, so an even order is positive
    and by Cauchy-Schwarz an odd order is bounded by sqrt(D^(n-1) D^(n+1)),
    which also bounds the integral of the modulus.  An odd order crosses
    zero, where a purely relative test would fail on roundoff.
    """
    if n % 2 == 0:
        return abs(derivs[n])
    return (derivs[n - 1] * derivs[n + 1]) ** 0.5


def mp_sweep_slack(row: dict):
    """Oriented slack of one `verify` CSV row at 30 digits."""
    tid = row["theorem_id"]
    with mp.workdps(DPS):
        k = mp.mpf(row["k"])
        if tid in ("T1", "T2", "T3"):
            m, n = row["m"], row["n"]
            hp, hq = mp.mpf(row["holder_p"]), mp.mpf(row["holder_q"])
            s = m / hp + n / hq
            if tid == "T1":
                x = row["x"]
                lhs = (abs(mp_polygamma_k(m, x, k)) ** (1 / hp)
                       * abs(mp_polygamma_k(n, x, k)) ** (1 / hq))
                return lhs - mp_polygamma_k_abs(s, x, k)
            p = row["p_param"] if tid == "T3" else None

            def zeta(v):
                return mp.zeta(v / k)

            def gamma(v):
                return mp_gamma_k(v, k, p)

            lhs = zeta(m + 1) ** (1 / hp) * zeta(n + 1) ** (1 / hq)
            ratio = gamma(s + 1) / (gamma(m + 1) ** (1 / hp) * gamma(n + 1) ** (1 / hq))
            return lhs - ratio * zeta(s + 1)
        x, n = row["x"], row["n"]
        if tid == "T7":
            d = mp_polygamma_k(n, x, k) - (
                mp_polygamma_k(n + 1, x, k) + mp_polygamma_k(n - 1, x, k)) / 2
            return d if n % 2 else -d
        p = row["p_param"] if tid in ("T4PK", "T6") else None
        if tid in ("T4K", "T4PK"):
            d = mp_gamma_k_derivs(n + 1, x, k, p)
            return d[n - 1] * d[n + 1] - d[n] ** 2
        l = row["l"]
        d = mp_gamma_k_derivs(n + l, x, k, p)
        return (d[n - l] + d[n + l]) / 2 - d[n]


# --------------------------------------------------------------------------
# vectorised double precision (scipy)


def sp_gamma_k(x, k, p=None):
    y = x / k
    if p is None:
        log_value = (y - 1.0) * np.log(k) + special.gammaln(y)
    else:
        log_value = y * np.log(p) - np.log(k) + special.gammaln(y)
    return np.exp(log_value)


def sp_gamma_k_derivs(n_max: int, x, k, p=None) -> list:
    c = k if p is None else p
    y = x / k
    cumulants = [None, (np.log(c) + special.psi(y)) / k]
    cumulants += [special.polygamma(j - 1, y) / k**j for j in range(2, n_max + 1)]
    derivs = [sp_gamma_k(x, k, p)]
    for n in range(1, n_max + 1):
        derivs.append(sum(
            math.comb(n - 1, j) * cumulants[j + 1] * derivs[n - 1 - j]
            for j in range(n)
        ))
    return derivs


def derivative_zero_mask(x, k, p, orders=(1, 3), rel=1e-3):
    """True where an odd-order derivative of Gamma_k or pGamma_k at x lies
    within rel * deriv_scale of zero, where a relative error is unbounded."""
    mask = np.zeros(np.shape(x), dtype=bool)
    for c in (None, p):
        derivs = sp_gamma_k_derivs(max(orders) + 1, x, k, c)
        for n in orders:
            mask |= np.abs(derivs[n]) < rel * deriv_scale(derivs, n)
    return mask


def sp_polygamma_k(m: int, x, k):
    return special.polygamma(m, x / k) / k ** (m + 1.0)


def sp_polygamma_k_abs(s, x, k):
    return np.exp(special.gammaln(s + 1.0) - (s + 1.0) * np.log(k)) * special.zeta(
        s + 1.0, x / k
    )


def sp_zeta_k(x, k):
    return special.zeta(x / k, 1.0)
