"""Closed-form radial integral algebra over polynomial-times-exponential terms.

A radial factor f(r) = scale * sum_j c_j r^j exp(-gamma r) covers every
hydrogenic function and every integrand this package meets. Coefficients and
decay rates are exact rationals; the single float ``scale`` absorbs the
irrational normalization, so one-dimensional moments and two-dimensional
Slater kernels reduce to exact factorial sums with at most a few ulp of
rounding at the final conversion. Orthogonality integrals in particular
come out exactly zero. A Slater integral is one exact integer sum over a
common denominator, turned into a float by one correctly rounded int / int
division; no ``Fraction`` arithmetic runs inside its sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class PolyExp:
    """Radial function scale * sum_j c_j r^j exp(-gamma r), r in a0.

    ``terms`` holds (coefficient, power) pairs with exact rational
    coefficients and integer powers >= 0; ``gamma`` is the exact rational
    decay rate in 1/a0; ``scale`` is a plain float multiplier.
    """

    terms: tuple[tuple[Fraction, int], ...]
    gamma: Fraction
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise ValueError("gamma must be > 0")
        for coeff, power in self.terms:
            if not isinstance(power, int) or power < 0:
                raise ValueError(f"powers must be integers >= 0, got {power}")


def _product(f: PolyExp, g: PolyExp, extra_power: int = 0) -> tuple[dict[int, Fraction], Fraction]:
    """Pointwise product f*g*r^extra_power as {power: coeff} plus decay rate."""
    out: dict[int, Fraction] = {}
    for cf, pf in f.terms:
        for cg, pg in g.terms:
            p = pf + pg + extra_power
            out[p] = out.get(p, Fraction(0)) + cf * cg
    return out, f.gamma + g.gamma


def polyexp_moment(f: PolyExp, g: PolyExp, p: int) -> float:
    """Exact integral of r^p f(r) g(r) over [0, inf).

    Termwise int r^k exp(-gamma r) dr = k!/gamma^(k+1); every combined
    power k must be >= 0 for convergence at the origin.
    """
    prod, gam = _product(f, g, p)
    total = Fraction(0)
    for power, coeff in prod.items():
        if power < 0:
            raise ValueError(f"combined power {power} < 0, integral diverges")
        total += coeff * math.factorial(power) / gam ** (power + 1)
    return f.scale * g.scale * float(total)


def _inverse_powers(rate: Fraction, top: int) -> list[int]:
    """Numerators of rate^-e over the denominator num(rate)^top, e = 0..top."""
    num, den = rate.numerator, rate.denominator
    return [den ** e * num ** (top - e) for e in range(top + 1)]


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
    side and their sum, every term is a rational with denominator dividing
    num(mu)^e_mu num(nu)^e_nu num(sigma)^e_sig lp lg, where e_* are the
    highest inverse powers that occur and lp, lg are common multiples of
    the coefficient denominators on each side. The numerator over that one
    denominator is accumulated as a Python int and converted by a single
    int / int division, which rounds correctly, so the result is the exact
    value rounded once and then multiplied by the four scales.

    Symmetry: swapping (a, b) together with (c, d) relabels r1 and r2 and
    leaves the value unchanged.
    """
    if k < 0:
        raise ValueError("multipole order k must be >= 0")
    p_terms, mu = _product(a, c, 2)
    g_terms, nu = _product(b, d, 2)
    if g_terms:
        for pp in p_terms:
            if pp < k + 1:
                raise ValueError(
                    f"kernel power k={k} too high for r1-side power {pp}")
    for pg in g_terms:
        if pg < k + 1:
            raise ValueError(
                f"kernel power k={k} too high for r2-side power {pg}")
    if not (p_terms and g_terms):
        return a.scale * b.scale * c.scale * d.scale * 0.0
    # integer coefficients over the common multiples lp and lg; lists, not
    # generators, as arguments: CPython unpacks a generator into a 10-slot
    # tuple shrunk to size, which grows its small-tuple free lists by one
    # tuple per call, up to about half a megabyte
    lp = math.lcm(*[cp.denominator for cp in p_terms.values()])
    lg = math.lcm(*[cg.denominator for cg in g_terms.values()])
    ip = [(pp - k - 1, cp.numerator * (lp // cp.denominator))
          for pp, cp in p_terms.items()]
    ig = [(pg, cg.numerator * (lg // cg.denominator))
          for pg, cg in g_terms.items()]
    # highest inverse powers of mu, nu and sigma over all terms
    top_p, top_g = max(p_terms), max(g_terms)
    e_mu, e_nu, e_sig = top_p - k, top_g + k + 1, top_p + top_g
    inv_mu = _inverse_powers(mu, e_mu)
    inv_nu = _inverse_powers(nu, e_nu)
    inv_sig = _inverse_powers(mu + nu, e_sig)
    fact = [math.factorial(i) for i in range(max(e_nu, e_sig) + 1)]
    total = 0
    for pg, cg in ig:
        m = pg + k
        mm = pg - k - 1
        acc = 0
        for q, cp in ip:
            # lower piece: full moment minus the exponential tail at r1
            whole = fact[m] * fact[q] * inv_nu[m + 1] * inv_mu[q + 1]
            tail = sum(fact[m] // fact[i] * fact[q + i]
                       * inv_nu[m + 1 - i] * inv_sig[q + i + 1]
                       for i in range(m + 1))
            # upper piece: r1^k times the exponential tail of order mm
            qk = q + 2 * k + 1
            upper = sum(fact[mm] // fact[i] * fact[qk + i]
                        * inv_nu[mm + 1 - i] * inv_sig[qk + i + 1]
                        for i in range(mm + 1))
            acc += cp * (whole * inv_sig[0] + (upper - tail) * inv_mu[0])
        total += cg * acc
    den = lp * lg * inv_mu[0] * inv_nu[0] * inv_sig[0]
    return a.scale * b.scale * c.scale * d.scale * (total / den)
