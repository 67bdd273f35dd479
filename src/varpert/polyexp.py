"""Closed-form radial integral algebra over polynomial-times-exponential terms.

A radial factor f(r) = scale * sum_j c_j r^j exp(-gamma r) covers every
hydrogenic function and every integrand this package meets. Coefficients and
decay rates are exact rationals; the single float ``scale`` absorbs the
irrational normalization, so one-dimensional moments and two-dimensional
Slater kernels reduce to exact factorial sums with at most a few ulp of
rounding at the final conversion. Orthogonality integrals in particular
come out exactly zero. Each ``PolyExp`` holds its coefficients as integer
numerators over one denominator and its decay rate as an integer pair,
so every moment and Slater kernel is one exact integer sum and one
correctly rounded int / int division. A Slater integral combines two sides,
r^2 a c and r^2 b d, each kept with its one-sided moments by its first leg,
and the sigma tables that leg c keeps; its coupled sum costs O(P M + G)
big-integer operations for P and G terms with powers up to M.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

Rate = tuple[int, int]  # (numerator, denominator) of a decay rate


@dataclass(frozen=True)
class PolyExp:
    """Radial function scale * sum_j (c_j / den) r^j exp(-gamma r), r in a0.

    ``terms`` holds (integer numerator c_j, power j) pairs, powers >= 0,
    over the common denominator ``den`` > 0; ``rate`` is the decay rate
    gamma in 1/a0 as a (numerator, denominator) pair of positive ints;
    ``scale`` is a plain float multiplier.
    """

    terms: tuple[tuple[int, int], ...]
    den: int
    rate: Rate
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (self.den > 0 and self.rate[0] > 0 and self.rate[1] > 0):
            raise ValueError("den and rate must be > 0")
        for coeff, power in self.terms:
            if not isinstance(power, int) or power < 0:
                raise ValueError(f"powers must be integers >= 0, got {power}")


def _rate_sum(r: Rate, s: Rate) -> Rate:
    """r + s, reduced, for decay rates held as (numerator, denominator) pairs."""
    num, den = r[0] * s[1] + s[0] * r[1], r[1] * s[1]
    common = math.gcd(num, den)
    return num // common, den // common


def _product(f: PolyExp, g: PolyExp, extra_power: int = 0
             ) -> tuple[dict[int, int], int, Rate]:
    """f*g*r^extra_power as ({power: numerator}, common denominator, decay).

    A power whose integer coefficients cancel keeps its key, with 0.
    """
    out: dict[int, int] = {}
    for nf, pf in f.terms:
        for ng, pg in g.terms:
            p = pf + pg + extra_power
            out[p] = out.get(p, 0) + nf * ng
    return out, f.den * g.den, _rate_sum(f.rate, g.rate)


def polyexp_moment(f: PolyExp, g: PolyExp, p: int) -> float:
    """Exact integral of r^p f(r) g(r) over [0, inf).

    Termwise int r^k exp(-gamma r) dr = k!/gamma^(k+1); every combined
    power k must be >= 0 for convergence at the origin. Where the value
    leaves the normal float range, it raises ``ValueError``.
    """
    prod, den, gam = _product(f, g, p)
    for power in prod:
        if power < 0:
            raise ValueError(f"combined power {power} < 0, integral diverges")
    inv = _inverse_powers(gam, max(prod, default=0) + 1)
    return _scaled(f.scale * g.scale, _moment_sum(prod, inv), den * inv[0],
                   f"moment of r^{p}")


def _moment_sum(terms: dict[int, int], inv: list[int], shift: int = 0) -> int:
    """sum_p c_p (p+shift)! inv[p+shift+1], over ``inv``'s denominator."""
    return sum(c * math.factorial(p + shift) * inv[p + shift + 1]
               for p, c in terms.items())


def _scaled(scale: float, num: int, den: int, what: str) -> float:
    """scale * (num / den), refused where it leaves the normal float range."""
    try:
        exact = num / den
    except OverflowError:
        exact = math.inf
    # a zero, subnormal or infinite factor has lost a nonzero value
    factors = (scale, exact, scale * exact) if num else (scale,)
    if not all(sys.float_info.min <= abs(f) < math.inf for f in factors):
        raise ValueError(f"{what} leaves the float range")
    return scale * exact


def _inverse_powers(rate: Rate, top: int) -> list[int]:
    """Numerators of rate^-e over the denominator num(rate)^top, e = 0..top."""
    num, den = rate
    out = [num ** top]
    for _ in range(top):
        out.append(out[-1] // num * den)  # exact: num^(top-e+1) divides it
    return out


def _side(f: PolyExp, g: PolyExp, k: int) -> tuple:
    """r^2 f(r) g(r) as one side of the R^k kernel in ``slater_radial``.

    ``_product``'s powers and rate, the first power below k + 1 or None,
    and, unless that refuses, all that depends on the side and k alone:
    den, num(rate)^T (T = top + k + 1), the top power, the r1 pairs
    (q, c_q), W and the r2 full moment over num(rate)^T, and num(rate)^j.
    f keeps its last side for the same g and k, so a sum that pairs the same
    legs throughout forms each side once; the side lives as long as f. It
    is keyed on the values of g's terms, den and rate, and on k: legs may
    share one terms tuple, and holding g's fields instead of g makes no
    reference cycle.
    """
    key = g.terms, g.den, g.rate, k
    last = f.__dict__.get("_last_side")
    if last is not None and last[0] == key:
        return last[1]
    terms, den, rate = _product(f, g, 2)
    low = next((p for p in terms if p < k + 1), None)
    side = terms, rate, low
    if terms and low is None:
        top = max(terms)
        inv = _inverse_powers(rate, top + k + 1)
        side += (den, inv[0], top, [(p - k - 1, c) for p, c in terms.items()],
                 _moment_sum(terms, inv, -k - 1), _moment_sum(terms, inv, k),
                 [rate[0] ** j for j in range(top + k + 1)])
    f.__dict__["_last_side"] = key, side
    return side


def _sigma_tables(mu: Rate, nu: Rate, top: int) -> tuple[int, list[int]]:
    """num(sigma)^top and e!/sigma^(e+1) over it, e < top; sigma = mu + nu."""
    inv_sig = _inverse_powers(_rate_sum(mu, nu), top)
    return inv_sig[0], [math.factorial(e) * inv_sig[e + 1] for e in range(top)]


def slater_radial(k: int, a: PolyExp, b: PolyExp, c: PolyExp, d: PolyExp) -> float:
    """Slater integral R^k with legs a, c on r1 and legs b, d on r2.

    Computes the double integral of
    r1^2 r2^2 a(r1) c(r1) b(r2) d(r2) r_<^k / r_>^(k+1)
    in closed form. The inner r2 integral splits at r1 into a lower piece
    (kernel r2^k/r1^(k+1)) and an upper piece (kernel r1^k/r2^(k+1)); both
    reduce through the incomplete-factorial identity
    int_0^x t^m exp(-nu t) dt = m!/nu^(m+1)
                                - exp(-nu x) sum_i (m!/i!) x^i / nu^(m+1-i)
    to single factorial sums, so there is no quadrature anywhere.

    With mu, nu and sigma = mu + nu the decay rates of the r1 side, the r2
    side and their sum, and c_q the r1-side coefficient of r1^(q+k+1),
    the r1 integrals enter only through W = sum_q c_q q!/mu^(q+1) and
    S_j = sum_q c_q (q+j)!/sigma^(q+j+1). The exponential tails
    T_n = (n T_(n-1) + S_(n+shift)) / nu of every order follow in one pass
    over S for the lower piece (shift 0) and one over S shifted by 2k + 1
    for the upper, and an r2 term reads two of them: O(P M + G) for P and
    G terms with powers up to M. The sum runs in Python ints over one
    common denominator, and one int / int division rounds the exact value
    correctly before the four scales multiply it. Where that leaves the
    normal float range, it raises ``ValueError``. W, the r2 full moment
    and the kernel's verdict come from ``_side``, which a leg keeps; leg c
    keeps the last sigma tables, which depend only on mu, nu and the top
    powers, so one call pays only for S, the tails and the r2 tail sum.

    Symmetry: swapping (a, b) together with (c, d) relabels r1 and r2 and
    leaves the value unchanged.
    """
    if k < 0:
        raise ValueError("multipole order k must be >= 0")
    r1, r2 = _side(a, c, k), _side(b, d, k)
    for name, side in ("r1", r1), ("r2", r2):
        if side[2] is not None and r2[0]:
            raise ValueError(f"kernel power k={k} too high for "
                             f"{name}-side power {side[2]}")
    if not (r1[0] and r2[0]):
        return a.scale * b.scale * c.scale * d.scale * 0.0
    _, mu, _, lp, inv_mu, top_p, ip, w, _, _ = r1
    g_terms, nu, _, lg, inv_nu, top_g, _, _, whole, num_nu = r2
    key = mu, nu, top_p + top_g
    last = c.__dict__.get("_last_sigma")
    if last is None or last[0] != key:
        last = c.__dict__["_last_sigma"] = key, _sigma_tables(*key)
    inv_sig, fact_sig = last[1]
    # ns_j = num(nu)^j S_j. Over the r2 side's denominator num(nu)^T the
    # tail of order n is den(nu) num(nu)^(top_g+k-n-shift) t_n, where
    # t_n = n den(nu) t_(n-1) + ns_(n+shift)
    ns = [num_nu[j] * sum(cp * fact_sig[q + j] for q, cp in ip)
          for j in range(top_g + k + 1)]
    lower, upper, den_nu = [], [], nu[1]
    for t, shift in (lower, 0), (upper, 2 * k + 1):
        t_n = 0
        for n, ns_n in enumerate(ns[shift:]):
            t_n = n * den_nu * t_n + ns_n
            t.append(t_n)
    # lower piece: full moment minus the tail of order pg + k; upper
    # piece: r1^k times the tail of order pg - k - 1
    tails = sum(cg * num_nu[top_g - pg] * (upper[pg - k - 1] - lower[pg + k])
                for pg, cg in g_terms.items())
    return _scaled(a.scale * b.scale * c.scale * d.scale,
                   whole * w * inv_sig + den_nu * tails * inv_mu,
                   lp * lg * inv_mu * inv_nu * inv_sig,
                   f"Slater integral R^{k}")
