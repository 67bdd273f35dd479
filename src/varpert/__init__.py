"""Variational-perturbation energies for quartic oscillators and helium.

The quartic anharmonic oscillator V(x) = k x^2 + b x^4 is treated by
optimizing the harmonic reference frequency separately for every level
and then applying Rayleigh-Schroedinger perturbation theory in the
optimized basis. The same machinery, with a screened nuclear charge as
the variational parameter, gives helium ground and excited state
energies. Two independent exact oracles (radial shooting and parity-block
diagonalization) validate every closed form.
"""
from .anharmonic import (OmegaSolution, energy_conventional_pt,
                         energy_first_order, energy_present,
                         energy_variational, pt_divergent,
                         second_order_closed_form, second_order_sum,
                         solve_omega)
from .exact import ConvergenceError, diag_eigenvalues, shoot_eigenvalue
from .helium import (HeliumResult, excited_triplet_energy, ground_state,
                     hydrogenic_radial, optimal_zstar_excited,
                     optimal_zstar_ground, second_order_correction,
                     variational_ground_energy)
from .model import AnharmonicSpec, LevelResult, hbar_omega, make_anharmonic_spec
from .oscillator import build_hamiltonian, hprime_element
from .polyexp import PolyExp, polyexp_moment, slater_radial
from .reports import ReportDocument, RunConfig, run_helium, run_table

__version__ = "0.1.0"

__all__ = [
    "AnharmonicSpec",
    "ConvergenceError",
    "HeliumResult",
    "LevelResult",
    "OmegaSolution",
    "PolyExp",
    "ReportDocument",
    "RunConfig",
    "build_hamiltonian",
    "diag_eigenvalues",
    "energy_conventional_pt",
    "energy_first_order",
    "energy_present",
    "energy_variational",
    "excited_triplet_energy",
    "ground_state",
    "hbar_omega",
    "hprime_element",
    "hydrogenic_radial",
    "make_anharmonic_spec",
    "optimal_zstar_excited",
    "optimal_zstar_ground",
    "polyexp_moment",
    "pt_divergent",
    "run_helium",
    "run_table",
    "second_order_closed_form",
    "second_order_correction",
    "second_order_sum",
    "shoot_eigenvalue",
    "slater_radial",
    "solve_omega",
    "variational_ground_energy",
    "__version__",
]
