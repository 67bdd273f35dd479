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


# <m + d| x^2 |m> and <m + d| x^4 |m> for d = 0, 2 and 4, each written once
# for an int m with math.sqrt and for an integer array of m with numpy.sqrt
def _ladder0(s2, m, sqrt=None):
    return s2 * (2 * m + 1), s2 * s2 * (6 * m * m + 6 * m + 3)


def _ladder2(s2, m, sqrt=math.sqrt):
    root = sqrt((m + 1) * (m + 2))
    return s2 * root, s2 * s2 * (4 * m + 6) * root


def _ladder4(s2, m, sqrt=math.sqrt):
    return 0.0, s2 * s2 * sqrt((m + 1) * (m + 2) * (m + 3) * (m + 4))


_LADDER = {0: _ladder0, 2: _ladder2, 4: _ladder4}


def _hprime(spec: AnharmonicSpec, u, d: int, m, sqrt=math.sqrt):
    """<m + d| H' |m> in basis u for d in ``_LADDER``, with m an int or, with
    ``numpy.sqrt``, an integer array. The x^2 coefficient k - u^2/(4 kappa)
    is written (hbar omega - u)(hbar omega + u)/(4 kappa): exactly 0 at
    u = hbar_omega(spec), and -inf where u^2 overflows. A b = 0 spec adds
    no x^4 term, so an x^4 past the float range never forms 0 * inf."""
    hw = hbar_omega(spec)
    x2, x4 = _LADDER[d](spec.kappa / u, m, sqrt)
    x4_term = spec.quartic_b * x4 if spec.quartic_b else 0.0
    return (hw - u) * (hw + u) / (4.0 * spec.kappa) * x2 + x4_term


def hprime_element(spec: AnharmonicSpec, u: float, k: int, n: int) -> float:
    """Matrix element <k| H' |n> of the residual perturbation in basis u, in eV.

    H' = c2 x^2 + b x^4 where c2 = k_spec - u^2 / (4 kappa) is the
    coefficient m (omega^2 - Omega^2)/2 written without materializing m;
    pairs with |k - n| not in {0, 2, 4} give 0.0. A u or s2 = kappa / u
    not finite and > 0, a negative index or a result past the float range
    raises ``ValueError``.
    """
    _require_positive("u", u)
    _require_positive("s2", spec.kappa / u)
    if k < 0 or n < 0:
        raise ValueError("quantum numbers must be non-negative")
    d = abs(k - n)
    element = _hprime(spec, u, d, min(k, n)) if d in _LADDER else 0.0
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
    m = np.arange(dim)
    # an element past the float range reads inf or nan, for the caller to see
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.diag(_hprime(spec, u, 0, m, np.sqrt) + u * (m + 0.5))
        for d in (2, 4):
            band = _hprime(spec, u, d, m[:-d], np.sqrt)
            np.fill_diagonal(h[d:], band)  # entries (j + d, j), then (j, j + d)
            np.fill_diagonal(h[:, d:], band)
    return h
