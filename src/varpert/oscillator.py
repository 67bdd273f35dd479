"""Harmonic-oscillator basis algebra.

Matrix elements of x^2 and x^4 between number states |n> of a basis
oscillator with quantum hbar Omega, the perturbation operator

    H' = (k - m Omega^2 / 2) x^2 + b x^4,

and assembly of the full Hamiltonian in symmetric band storage. With
s^2 = hbar/(2 m Omega) = kappa / (hbar Omega), the ladder expansion
x = s (a + a^dagger) gives every element in closed form; the only nonzero
off-diagonals are |k - n| in {2} for x^2 and {2, 4} for x^4.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import AnharmonicSpec


@dataclass(frozen=True)
class OscBasis:
    """Number-state basis of an oscillator with quantum ``hbar_Omega``.

    ``s2`` is the squared length scale hbar/(2 m Omega) = kappa/hbar_Omega
    in A^2; it is derived, not free.
    """

    hbar_Omega: float
    kappa: float

    def __post_init__(self) -> None:
        if not self.hbar_Omega > 0.0:
            raise ValueError("hbar_Omega must be > 0")
        if not self.kappa > 0.0:
            raise ValueError("kappa must be > 0")

    @property
    def s2(self) -> float:
        return self.kappa / self.hbar_Omega


def x2_element(basis: OscBasis, k: int, n: int) -> float:
    """Matrix element <k| x^2 |n> in A^2.

    Diagonal s^2 (2n + 1); two steps away s^2 sqrt((m+1)(m+2)) with
    m = min(k, n); zero otherwise.
    """
    if k < 0 or n < 0:
        raise ValueError("quantum numbers must be non-negative")
    s2 = basis.s2
    d = abs(k - n)
    if d == 0:
        return s2 * (2 * n + 1)
    if d == 2:
        m = min(k, n)
        return s2 * math.sqrt((m + 1) * (m + 2))
    return 0.0


def x4_element(basis: OscBasis, k: int, n: int) -> float:
    """Matrix element <k| x^4 |n> in A^4.

    Ladder algebra gives, with m = min(k, n) and s^4 = (kappa/hbar Omega)^2:
    diagonal s^4 (6n^2 + 6n + 3), second off-diagonal
    s^4 (4m + 6) sqrt((m+1)(m+2)), fourth off-diagonal
    s^4 sqrt((m+1)(m+2)(m+3)(m+4)).
    """
    if k < 0 or n < 0:
        raise ValueError("quantum numbers must be non-negative")
    s4 = basis.s2 ** 2
    d = abs(k - n)
    m = min(k, n)
    if d == 0:
        return s4 * (6 * n * n + 6 * n + 3)
    if d == 2:
        return s4 * (4 * m + 6) * math.sqrt((m + 1) * (m + 2))
    if d == 4:
        return s4 * math.sqrt((m + 1) * (m + 2) * (m + 3) * (m + 4))
    return 0.0


def hprime_element(spec: AnharmonicSpec, basis: OscBasis, k: int, n: int) -> float:
    """Matrix element <k| H' |n> of the residual perturbation, in eV.

    H' = c2 x^2 + b x^4 where c2 = k_spec - (hbar Omega)^2 / (4 kappa) is the
    coefficient m (omega^2 - Omega^2)/2 written without materializing m.
    """
    c2 = spec.stiffness_k - basis.hbar_Omega ** 2 / (4.0 * basis.kappa)
    return c2 * x2_element(basis, k, n) + spec.quartic_b * x4_element(basis, k, n)


def build_hamiltonian(spec: AnharmonicSpec, basis: OscBasis,
                      dim: int) -> np.ndarray:
    """Assemble H = hbar Omega (N + 1/2) + H' in the first ``dim`` states.

    Returns the (5, dim) lower band storage of ``scipy.linalg.eig_banded``,
    bands[d, j] = H[j + d, j]; requires dim >= 8 so that at least one
    complete set of x^4 couplings is present.
    """
    import numpy as np  # imported here so shooting-only runs never load it

    if dim < 8:
        raise ValueError(f"dim must be >= 8, got {dim}")
    u = basis.hbar_Omega
    s2 = basis.s2
    c2 = spec.stiffness_k - u * u / (4.0 * basis.kappa)
    b = spec.quartic_b
    ns = np.arange(dim, dtype=float)
    bands = np.zeros((5, dim))
    bands[0] = (u * (ns + 0.5)
                + c2 * s2 * (2.0 * ns + 1.0)
                + b * s2 * s2 * (6.0 * ns * ns + 6.0 * ns + 3.0))
    root2 = np.sqrt((ns + 1.0) * (ns + 2.0))
    bands[2, : dim - 2] = (c2 * s2 * root2
                           + b * s2 * s2 * (4.0 * ns + 6.0) * root2)[: dim - 2]
    root4 = np.sqrt((ns + 1.0) * (ns + 2.0) * (ns + 3.0) * (ns + 4.0))
    bands[4, : dim - 4] = (b * s2 * s2 * root4)[: dim - 4]
    return bands
