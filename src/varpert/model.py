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

# CODATA-derived defaults for an electron, not fit to any published table.
KAPPA_EV_A2 = 3.8099821      # hbar^2/(2 m_e) in eV Angstrom^2

METHOD_TAGS = frozenset(
    {"variational", "present", "conventional_pt1", "conventional_pt2", "exact"}
)


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
        if not (self.kappa > 0.0 and math.isfinite(self.kappa)):
            raise ValueError(f"kappa must be finite and > 0, got {self.kappa}")

    @classmethod
    def from_file(cls, path: str) -> "Constants":
        """Load overrides from a flat JSON file.

        The one recognized key is ``kappa_eV_A2``; when it is missing the
        default holds, and any other key is rejected.
        """
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        unknown = set(raw) - {"kappa_eV_A2"}
        if unknown:
            raise ValueError(f"unknown constants keys: {sorted(unknown)}")
        return cls(float(raw["kappa_eV_A2"])) if raw else cls()


@dataclass(frozen=True)
class AnharmonicSpec:
    """Definition of the potential V(x) = k x^2 + b x^4.

    ``stiffness_k`` is m omega^2 / 2 in eV A^-2 and ``quartic_b`` is the
    quartic coefficient in eV A^-4, so the harmonic quantum is
    hbar omega = 2 sqrt(kappa k).
    """

    stiffness_k: float
    quartic_b: float
    constants: Constants = field(default_factory=Constants)


@dataclass(frozen=True)
class LevelResult:
    """One energy level produced by one method.

    ``e_total = e_first + e_second_corr`` always; the correction is zero for
    the purely variational and exact tags. ``hbar_omega_n`` records the basis
    quantum actually used (the optimized hbar Omega_n, or hbar omega for the
    conventional rows, or 0.0 when no basis is involved).
    """

    n: int
    hbar_omega_n: float
    e_first: float
    e_second_corr: float
    e_total: float
    method_tag: str

    def __post_init__(self) -> None:
        if self.method_tag not in METHOD_TAGS:
            raise ValueError(f"unknown method_tag {self.method_tag!r}")
        if self.method_tag in ("variational", "exact") and self.e_second_corr != 0.0:
            raise ValueError(f"{self.method_tag} results must have zero correction")
        if not math.isclose(self.e_total, self.e_first + self.e_second_corr,
                            rel_tol=1e-12, abs_tol=1e-12):
            raise ValueError("e_total must equal e_first + e_second_corr")


def make_anharmonic_spec(k: float, b: float,
                         constants: Constants | None = None) -> AnharmonicSpec:
    """Validate and build an oscillator problem definition.

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
    if constants is None:
        constants = Constants()
    if not (k > 0.0 and math.isfinite(k)):
        raise ValueError(f"stiffness_k must be finite and > 0, got {k}")
    if not (b >= 0.0 and math.isfinite(b)):
        raise ValueError(f"quartic_b must be finite and >= 0, got {b}")
    return AnharmonicSpec(stiffness_k=float(k), quartic_b=float(b),
                          constants=constants)


def hbar_omega(spec: AnharmonicSpec) -> float:
    """Harmonic quantum hbar omega = 2 sqrt(kappa k) in eV."""
    return 2.0 * math.sqrt(spec.constants.kappa * spec.stiffness_k)
