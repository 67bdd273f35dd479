"""Shared constants, problem specifications, and result records.

Two unit systems are used throughout: (eV, Angstrom) for the one-dimensional
oscillator, where the single kinetic constant kappa = hbar^2/2m bridges
energies and lengths, and (rydberg, bohr) for the two-electron atom, where
e^2/a0 = 2 ryd.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

# CODATA-derived defaults for an electron, not fit to any published table.
KAPPA_EV_A2 = 3.8099821      # hbar^2/(2 m_e) in eV Angstrom^2


def _require_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and > 0."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class Constants:
    """Physical constants in (eV, Angstrom) units.

    Attributes
    ----------
    kappa : float
        Kinetic scale hbar^2/2m in eV A^2. The default is the electron value.
    """

    kappa: float = KAPPA_EV_A2

    def __post_init__(self) -> None:
        _require_positive("kappa", self.kappa)

    @classmethod
    def from_file(cls, path: str) -> "Constants":
        """Load overrides from a flat JSON file.

        The file holds one JSON object whose one recognized key is
        ``kappa_eV_A2``, a number; when it is missing the default holds,
        and any other key is rejected.
        """
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: constants must be a JSON object")
        unknown = set(raw) - {"kappa_eV_A2"}
        if unknown:
            raise ValueError(f"unknown constants keys: {sorted(unknown)}")
        kappa = raw.get("kappa_eV_A2", KAPPA_EV_A2)
        if type(kappa) not in (int, float):  # neither bool nor string
            raise ValueError(f"kappa_eV_A2 must be a number, got {kappa!r}")
        return cls(float(kappa))


@dataclass(frozen=True)
class AnharmonicSpec:
    """Definition of the potential V(x) = k x^2 + b x^4.

    ``stiffness_k`` is m omega^2 / 2 in eV A^-2 and ``quartic_b`` is the
    quartic coefficient in eV A^-4, so the harmonic quantum is
    hbar omega = 2 sqrt(kappa k). k must be finite and > 0, and b finite
    and >= 0; anything else raises ``ValueError``.
    """

    stiffness_k: float
    quartic_b: float
    constants: Constants = field(default_factory=Constants)

    def __post_init__(self) -> None:
        _require_positive("stiffness_k", self.stiffness_k)
        if not (self.quartic_b >= 0.0 and math.isfinite(self.quartic_b)):
            raise ValueError(
                f"quartic_b must be finite and >= 0, got {self.quartic_b}")


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
                         constants: Constants | None = None) -> AnharmonicSpec:
    """Build an oscillator problem definition; ``AnharmonicSpec`` checks it.

    Parameters
    ----------
    k : float
        Harmonic coefficient m omega^2/2 in eV A^-2, finite and strictly
        positive.
    b : float
        Quartic coefficient in eV A^-4, finite and non-negative.
    constants : Constants, optional
        Unit constants; electron defaults when omitted.
    """
    return AnharmonicSpec(float(k), float(b),
                          Constants() if constants is None else constants)


def hbar_omega(spec: AnharmonicSpec) -> float:
    """Harmonic quantum hbar omega = 2 sqrt(kappa k) in eV."""
    return 2.0 * math.sqrt(spec.constants.kappa * spec.stiffness_k)
