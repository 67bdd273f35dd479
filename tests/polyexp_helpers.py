"""Test-side helpers for ``varpert.polyexp.PolyExp``.

The package builds every radial factor with exact rational coefficients
and never evaluates one pointwise; the tests need both, to write legs by
hand and to integrate them by quadrature.
"""
from fractions import Fraction

import numpy as np

from varpert.polyexp import PolyExp


def build(terms, gamma, scale=1.0):
    """PolyExp from (coefficient, power) pairs, normalized to Fractions."""
    return PolyExp(terms=tuple((Fraction(c), int(p)) for c, p in terms),
                   gamma=Fraction(gamma), scale=float(scale))


def evaluate(f, r):
    """f(r) for a scalar or numpy array r."""
    acc = sum(float(coeff) * np.power(r, power) for coeff, power in f.terms)
    return f.scale * acc * np.exp(-float(f.gamma) * np.asarray(r, dtype=float))
