"""Shared constants, problem specifications, and result records.

Two unit systems are used throughout: (eV, Angstrom) for the one-dimensional
oscillator, where the single kinetic constant kappa = hbar^2/2m bridges
energies and lengths, and (rydberg, bohr) for the two-electron atom, where
e^2/a0 = 2 ryd.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

# CODATA-derived defaults for an electron, not fit to any published table.
KAPPA_EV_A2 = 3.8099821      # hbar^2/(2 m_e) in eV Angstrom^2

_TINY = sys.float_info.min  # the smallest normal float
_HUGE = sys.float_info.max  # the largest float


def _require_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and > 0."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _level_error(n: int) -> ValueError:
    """The error for a level outside 0 <= n <= ``_HUGE``, where n + 1/2 has
    a float; callers test the range inline, on hot paths."""
    return ValueError("n must be >= 0" if n < 0
                      else f"level n={n} lies past the float range")


@dataclass(frozen=True)
class AnharmonicSpec:
    """Definition of the potential V(x) = k x^2 + b x^4.

    ``stiffness_k`` is m omega^2 / 2 in eV A^-2, ``quartic_b`` is the
    quartic coefficient in eV A^-4 and ``kappa`` is the kinetic scale
    hbar^2/2m in eV A^2, the electron value by default, so the harmonic
    quantum is hbar omega = 2 sqrt(kappa k). k and kappa must be finite
    and > 0, b finite and >= 0, and kappa k finite and > 0, so that
    hbar omega is too; anything else raises ``ValueError``.

    A spec forms hbar omega once, keeps b kappa^2 as a (mantissa, exponent)
    pair from the mantissas of b and kappa, and keeps per level n two
    records, each formed in one pass on first touch: the optimized basis's
    root, residual and E1(hbar Omega_n), and the hbar omega basis's order-1
    energy, shift b <n|x^4|n> and second-order cubic (see ``anharmonic``).
    They live in the instance ``__dict__``; a failed Newton solve keeps
    nothing, and equality, hash, repr and pickling read only the fields.
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
        kappa_k = self.kappa * self.stiffness_k
        _require_positive("kappa * stiffness_k", kappa_k)
        if kappa_k < _TINY:  # subnormal: the product lost digits
            hw = 2.0 * math.sqrt(self.kappa) * math.sqrt(self.stiffness_k)
        else:
            hw = 2.0 * math.sqrt(kappa_k)
        m_b, e_b = math.frexp(self.quartic_b)
        m_k, e_k = math.frexp(self.kappa)
        self.__dict__.update(_hbar_omega=hw, _optimized={}, _frozen={},
                             _b_kappa2=(m_b * m_k * m_k, e_b + 2 * e_k))

    def __reduce__(self):
        return type(self), (self.stiffness_k, self.quartic_b, self.kappa)


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
    """Harmonic quantum hbar omega = 2 sqrt(kappa k) in eV, as the spec
    formed it."""
    return spec._hbar_omega
