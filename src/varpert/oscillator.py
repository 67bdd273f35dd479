"""Harmonic-oscillator basis algebra.

Matrix elements of x^2 and x^4 between number states |n> of a basis
oscillator with quantum u = hbar Omega, the perturbation operator

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
    u = hbar_omega(spec), and -inf where u^2 overflows."""
    hw = hbar_omega(spec)
    x2, x4 = _LADDER[d](spec.kappa / u, m, sqrt)
    return (hw - u) * (hw + u) / (4.0 * spec.kappa) * x2 + spec.quartic_b * x4


def _elements(s2: float, k: int, n: int) -> tuple[float, float]:
    """(<k| x^2 |n>, <k| x^4 |n>) after checking s2 and the indices; an x^4
    element past the float range raises ``ValueError``."""
    _require_positive("s2", s2)
    if k < 0 or n < 0:
        raise ValueError("quantum numbers must be non-negative")
    ladder = _LADDER.get(abs(k - n))
    x2, x4 = (0.0, 0.0) if ladder is None else ladder(s2, min(k, n))
    if x4 == math.inf:  # a finite x^4 element bounds the x^2 one
        raise ValueError(f"s2={s2!r} overflows <{k}| x^4 |{n}>")
    return x2, x4


def x2_element(s2: float, k: int, n: int) -> float:
    """Matrix element <k| x^2 |n> in A^2, with s2 = kappa / u in A^2.

    Diagonal s^2 (2n + 1); two steps away s^2 sqrt((m+1)(m+2)) with
    m = min(k, n); zero otherwise.
    """
    return _elements(s2, k, n)[0]


def x4_element(s2: float, k: int, n: int) -> float:
    """Matrix element <k| x^4 |n> in A^4, with s2 = kappa / u in A^2.

    Ladder algebra gives, with m = min(k, n) and s^4 = (kappa/u)^2:
    diagonal s^4 (6n^2 + 6n + 3), second off-diagonal
    s^4 (4m + 6) sqrt((m+1)(m+2)), fourth off-diagonal
    s^4 sqrt((m+1)(m+2)(m+3)(m+4)).
    """
    return _elements(s2, k, n)[1]


def hprime_element(spec: AnharmonicSpec, u: float, k: int, n: int) -> float:
    """Matrix element <k| H' |n> of the residual perturbation in basis u, in eV.

    H' = c2 x^2 + b x^4 where c2 = k_spec - u^2 / (4 kappa) is the
    coefficient m (omega^2 - Omega^2)/2 written without materializing m. A
    u that takes an x^4 element or the result past the float range raises
    ``ValueError``.
    """
    _require_positive("u", u)
    _elements(spec.kappa / u, k, n)  # checks s2, k, n and x^4
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
