"""Harmonic-oscillator basis algebra.

Matrix elements, between number states |n> of a basis oscillator with
quantum u = hbar Omega, of the perturbation operator

    H' = (k - m Omega^2 / 2) x^2 + b x^4,

whose x^2 coefficient is exactly 0 in the basis u = hbar omega, and
assembly of the full Hamiltonian as a dense symmetric matrix. With
s^2 = hbar/(2 m Omega) = kappa / u, the ladder expansion
x = s (a + a^dagger) gives every element in closed form; the only nonzero
off-diagonals are |k - n| in {2} for x^2 and {2, 4} for x^4.
"""
from __future__ import annotations

import math

from .model import AnharmonicSpec, _require_positive, hbar_omega


# <m + d| x^2 |m> and <m + d| x^4 |m> in units of s^2 and s^4, for d = 0, 2
# and 4, each written once for an int m with math.sqrt and for an integer
# array of m with numpy.sqrt
def _ladder0(m, sqrt=None):
    return 2 * m + 1, 6 * m * m + 6 * m + 3


def _ladder2(m, sqrt=math.sqrt):
    root = sqrt((m + 1) * (m + 2))
    return root, (4 * m + 6) * root


def _ladder4(m, sqrt=math.sqrt):
    return 0.0, sqrt((m + 1) * (m + 2) * (m + 3) * (m + 4))


_LADDER = {0: _ladder0, 2: _ladder2, 4: _ladder4}


def _beta(spec: AnharmonicSpec, u: float, e: int = 0) -> float:
    """beta = b kappa^2 / u^2 over 2^e from the spec's mantissa and exponent
    of b kappa^2, every digit kept where it is normal; inf past the range."""
    m, e_bk2 = spec._b_kappa2
    v, e_u = math.frexp(u)
    try:
        return math.ldexp(m / (v * v), e_bk2 - 2 * e_u - e)
    except OverflowError:
        return math.inf


def _coefficients(spec: AnharmonicSpec, u: float) -> tuple[float, float]:
    """(c2, beta) of H' = c2 x^2 + b x^4 in basis u, in units of s^2 = kappa
    / u so that no power of s is formed: c2 = (hbar omega - u) ((hbar omega
    + u)/(4u)), with no 4u formed, exactly 0 at u = hbar_omega(spec), and
    beta = ``_beta``, 0 at b = 0; either reads inf past the range."""
    hw = hbar_omega(spec)
    return (hw - u) * ((hw + u) / u * 0.25), _beta(spec, u)


def _hprime(coefficients: tuple[float, float], d: int, m, sqrt=math.sqrt):
    """<m + d| H' |m> for d in ``_LADDER`` from basis u's ``_coefficients``,
    with m an int or, with ``numpy.sqrt``, an integer array; x^2 does not
    couple m + 4 to m, whatever c2 reads. nan where an int ladder factor
    has no float, from m about 5.5e153 on for d = 0 and 1e154 for d = 4,
    whose product of four factors is rooted in two halves from 1.2e77."""
    try:
        x2, x4 = _LADDER[d](m, sqrt)
        return (coefficients[0] if d < 4 else 0.0) * x2 + coefficients[1] * x4
    except OverflowError:
        if d == 4 and m < 10 ** 154:  # each half still has a float
            return coefficients[1] * (sqrt((m + 1) * (m + 2))
                                      * sqrt((m + 3) * (m + 4)))
        return math.nan


def hprime_element(spec: AnharmonicSpec, u: float, k: int, n: int) -> float:
    """Matrix element <k| H' |n> of the residual perturbation in basis u, in eV.

    H' = c2 x^2 + b x^4 where c2 = k_spec - u^2 / (4 kappa) is the
    coefficient m (omega^2 - Omega^2)/2 written without materializing m;
    pairs with |k - n| not in {0, 2, 4} give 0.0. A u not finite and > 0,
    a negative index or a result past the float range raises
    ``ValueError``.
    """
    _require_positive("u", u)
    if k < 0 or n < 0:
        raise ValueError("quantum numbers must be non-negative")
    d = abs(k - n)
    element = (_hprime(_coefficients(spec, u), d, min(k, n)) if d in _LADDER
               else 0.0)
    if not math.isfinite(element):
        raise ValueError(f"u={u!r} overflows <{k}| H' |{n}>")
    return element


def build_hamiltonian(spec: AnharmonicSpec, u: float,
                      dim: int) -> np.ndarray:
    """Assemble H = u (N + 1/2) + H' in the first ``dim`` states of basis u.

    Returns the dense symmetric (dim, dim) matrix, whose only nonzero
    entries lie on the main diagonal and 2 and 4 steps off it; requires
    dim >= 8 so that at least one complete set of x^4 couplings is present.
    """
    import numpy as np  # imported here so shooting-only runs never load it

    _require_positive("u", u)
    if dim < 8:
        raise ValueError(f"dim must be >= 8, got {dim}")
    m, coefficients = np.arange(dim), _coefficients(spec, u)
    # an element past the float range reads inf or nan, for the caller to see
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.diag(_hprime(coefficients, 0, m, np.sqrt) + u * (m + 0.5))
        for d in (2, 4):
            band = _hprime(coefficients, d, m[:-d], np.sqrt)
            np.fill_diagonal(h[d:], band)  # entries (j + d, j), then (j, j + d)
            np.fill_diagonal(h[:, d:], band)
    return h
