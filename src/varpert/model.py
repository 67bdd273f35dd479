"""Shared constants, problem specifications, and result records.

Two unit systems are used throughout: (eV, Angstrom) for the one-dimensional
oscillator, where the single kinetic constant kappa = hbar^2/2m bridges
energies and lengths, and (rydberg, bohr) for the two-electron atom, where
e^2/a0 = 2 ryd.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

# CODATA-derived defaults for an electron, not fit to any published table.
KAPPA_EV_A2 = 3.8099821      # hbar^2/(2 m_e) in eV Angstrom^2


def _require_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and > 0."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class AnharmonicSpec:
    """Definition of the potential V(x) = k x^2 + b x^4.

    ``stiffness_k`` is m omega^2 / 2 in eV A^-2, ``quartic_b`` is the
    quartic coefficient in eV A^-4 and ``kappa`` is the kinetic scale
    hbar^2/2m in eV A^2, the electron value by default, so the harmonic
    quantum is hbar omega = 2 sqrt(kappa k). k and kappa must be finite
    and > 0, b finite and >= 0, and kappa k finite and > 0, so that
    hbar omega is too; anything else raises ``ValueError``.
    """

    stiffness_k: float
    quartic_b: float
    kappa: float = KAPPA_EV_A2

    def __post_init__(self) -> None:
        _require_positive("stiffness_k", self.stiffness_k)
        if not (self.quartic_b >= 0.0 and math.isfinite(self.quartic_b)):
            raise ValueError(
                f"quartic_b must be finite and >= 0, got {self.quartic_b}")
        _require_positive("kappa", self.kappa)
        _require_positive("kappa * stiffness_k", self.kappa * self.stiffness_k)


class LevelResult(NamedTuple):
    """One energy level produced by one method.

    The correction is zero for the purely variational and first-order
    results. ``hbar_omega_n`` records the basis quantum actually used (the
    optimized hbar Omega_n, or hbar omega for the conventional rows), and
    ``e_first`` is the first-order energy in that basis: the variational
    energy for ``energy_present``, the order-1 energy for
    ``energy_conventional_pt``.
    """

    n: int
    hbar_omega_n: float
    e_first: float
    e_second_corr: float

    @property
    def e_total(self) -> float:
        """Energy through the method's order, e_first + e_second_corr."""
        return self.e_first + self.e_second_corr


def make_anharmonic_spec(k: float, b: float,
                         kappa: float = KAPPA_EV_A2) -> AnharmonicSpec:
    """Build an oscillator problem definition; ``AnharmonicSpec`` checks it.

    Parameters
    ----------
    k : float
        Harmonic coefficient m omega^2/2 in eV A^-2, finite and strictly
        positive.
    b : float
        Quartic coefficient in eV A^-4, finite and non-negative.
    kappa : float, optional
        Kinetic scale hbar^2/2m in eV A^2, finite and strictly positive;
        the electron value when omitted.
    """
    return AnharmonicSpec(float(k), float(b), float(kappa))


def hbar_omega(spec: AnharmonicSpec) -> float:
    """Harmonic quantum hbar omega = 2 sqrt(kappa k) in eV."""
    return 2.0 * math.sqrt(spec.kappa * spec.stiffness_k)
