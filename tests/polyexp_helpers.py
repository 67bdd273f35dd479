"""Test-side helpers for ``varpert.polyexp.PolyExp``.

The package builds every radial factor in integer form and never evaluates
one pointwise; the tests need both, to write legs by hand with rational
coefficients and rates and to integrate them by quadrature.
"""
import math
from fractions import Fraction

import numpy as np

from varpert.polyexp import PolyExp


def build(terms, gamma, scale=1.0):
    """PolyExp from (rational coefficient, power) pairs and a rational rate,
    normalized to integer numerators over their least common denominator."""
    coeffs = [(Fraction(c), int(p)) for c, p in terms]
    den = math.lcm(*[c.denominator for c, _ in coeffs])
    rate = Fraction(gamma)
    return PolyExp(terms=tuple([(c.numerator * (den // c.denominator), p)
                                for c, p in coeffs]),
                   den=den, rate=(rate.numerator, rate.denominator),
                   scale=float(scale))


def coefficients(f):
    """f's (coefficient, power) pairs with each coefficient as a Fraction."""
    return tuple((Fraction(c, f.den), p) for c, p in f.terms)


def gamma(f):
    """f's decay rate as a Fraction."""
    return Fraction(*f.rate)


def evaluate(f, r):
    """f(r) for a scalar or numpy array r."""
    acc = sum(float(coeff) * np.power(r, power)
              for coeff, power in coefficients(f))
    return f.scale * acc * np.exp(-float(gamma(f)) * np.asarray(r, dtype=float))
