"""The same variational idea on a real atom: helium in rydbergs.

For helium the adjustable parent Hamiltonian is a pair of hydrogenic
electrons at a screened charge Z*. First order reproduces the classic
Z - 5/16 variational result; second order then sums over doubly-bound
two-electron intermediate states built from orbitals at that same charge.
All radial integrals are evaluated in closed form with exact rational
coefficients, so the numbers below carry no quadrature error.

Run with: python3 demos/helium_story.py
"""
from varpert import (excited_triplet_energy, ground_state,
                     optimal_zstar_excited, optimal_zstar_ground,
                     variational_ground_energy)

EXPERIMENT_GROUND = -5.8070   # ryd
EXPERIMENT_EXCITED = -4.3504  # ryd


def ground():
    z = 2.0
    zs = optimal_zstar_ground(z)
    print("--- ground state ---")
    print(f"optimal screened charge: Z* = Z - 5/16 = {zs}")
    e_var = variational_ground_energy(zs, z)
    print(f"variational energy: {e_var:.7f} ryd "
          f"({100 * e_var / EXPERIMENT_GROUND:.2f}% of experiment)")

    result = ground_state(z=z, n_max=7)
    print("second-order shift, accumulated over intermediate states:")
    running = 0.0
    for n_prime, contribution in enumerate(result.e_second_by_n_prime, start=2):
        running += contribution
        print(f"  through n' = {n_prime}: {running:+.7f} ryd")
    print(f"total: {result.e_total:.7f} ryd "
          f"({100 * result.e_total / EXPERIMENT_GROUND:.2f}% of experiment)")
    print()
    print("The discrete sum is truncated (no continuum states), so the")
    print("second-order shift here is a partial, slowly-converging piece.")
    print()


def excited():
    z = 2.0
    print("--- first excited state (spin-symmetric 1s2s) ---")
    zs = optimal_zstar_excited(z)
    print(f"stationary screened charge: Z* = {zs:.7f}")
    e = excited_triplet_energy(zs, z)
    print(f"variational energy: {e:.7f} ryd "
          f"(experiment {EXPERIMENT_EXCITED} ryd, "
          f"{100 * e / EXPERIMENT_EXCITED:.2f}%)")
    print("At the stationary charge the expectation collapses to")
    print(f"-5 Z*^2/4 = {-1.25 * zs * zs:.7f} ryd, a useful consistency check.")


if __name__ == "__main__":
    ground()
    excited()
