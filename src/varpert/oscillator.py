"""Harmonic-oscillator basis algebra.

Matrix elements of x^2 and x^4 between number states |n> of a basis
oscillator with quantum u = hbar Omega, the perturbation operator

    H' = (k - m Omega^2 / 2) x^2 + b x^4,

and assembly of the full Hamiltonian as a dense symmetric matrix. With
s^2 = hbar/(2 m Omega) = kappa / u, the ladder expansion
x = s (a + a^dagger) gives every element in closed form; the only nonzero
off-diagonals are |k - n| in {2} for x^2 and {2, 4} for x^4.
"""
from __future__ import annotations

import math

from .model import AnharmonicSpec, _require_positive


# x2_element and x4_element unchecked, for callers that validated s2, k, n
def _x2(s2: float, k: int, n: int) -> float:
    d = abs(k - n)
    if d == 0:
        return s2 * (2 * n + 1)
    if d == 2:
        m = min(k, n)
        return s2 * math.sqrt((m + 1) * (m + 2))
    return 0.0


def _x4(s2: float, k: int, n: int) -> float:
    s4 = s2 ** 2
    d = abs(k - n)
    m = min(k, n)
    if d == 0:
        return s4 * (6 * n * n + 6 * n + 3)
    if d == 2:
        return s4 * (4 * m + 6) * math.sqrt((m + 1) * (m + 2))
    if d == 4:
        return s4 * math.sqrt((m + 1) * (m + 2) * (m + 3) * (m + 4))
    return 0.0


def x2_element(s2: float, k: int, n: int) -> float:
    """Matrix element <k| x^2 |n> in A^2, with s2 = kappa / u in A^2.

    Diagonal s^2 (2n + 1); two steps away s^2 sqrt((m+1)(m+2)) with
    m = min(k, n); zero otherwise.
    """
    _require_positive("s2", s2)
    if k < 0 or n < 0:
        raise ValueError("quantum numbers must be non-negative")
    return _x2(s2, k, n)


def x4_element(s2: float, k: int, n: int) -> float:
    """Matrix element <k| x^4 |n> in A^4, with s2 = kappa / u in A^2.

    Ladder algebra gives, with m = min(k, n) and s^4 = (kappa/u)^2:
    diagonal s^4 (6n^2 + 6n + 3), second off-diagonal
    s^4 (4m + 6) sqrt((m+1)(m+2)), fourth off-diagonal
    s^4 sqrt((m+1)(m+2)(m+3)(m+4)).
    """
    _require_positive("s2", s2)
    if k < 0 or n < 0:
        raise ValueError("quantum numbers must be non-negative")
    return _x4(s2, k, n)


def hprime_element(spec: AnharmonicSpec, u: float, k: int, n: int) -> float:
    """Matrix element <k| H' |n> of the residual perturbation in basis u, in eV.

    H' = c2 x^2 + b x^4 where c2 = k_spec - u^2 / (4 kappa) is the
    coefficient m (omega^2 - Omega^2)/2 written without materializing m.
    """
    _require_positive("u", u)
    s2 = spec.constants.kappa / u
    c2 = spec.stiffness_k - u ** 2 / (4.0 * spec.constants.kappa)
    return c2 * x2_element(s2, k, n) + spec.quartic_b * x4_element(s2, k, n)


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
    s2 = spec.constants.kappa / u
    c2 = spec.stiffness_k - u * u / (4.0 * spec.constants.kappa)
    bs4 = spec.quartic_b * s2 * s2
    ns = np.arange(dim, dtype=float)
    h = np.diag(u * (ns + 0.5) + c2 * s2 * (2.0 * ns + 1.0)
                + bs4 * (6.0 * ns * ns + 6.0 * ns + 3.0))
    root2 = np.sqrt((ns + 1.0) * (ns + 2.0))
    for d, band in ((2, (c2 * s2 + bs4 * (4.0 * ns + 6.0)) * root2),
                    (4, bs4 * root2 * np.sqrt((ns + 3.0) * (ns + 4.0)))):
        np.fill_diagonal(h[d:], band)  # entries (j + d, j), then (j, j + d)
        np.fill_diagonal(h[:, d:], band)
    return h
