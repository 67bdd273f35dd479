"""Why "exact" means two independent solvers agreeing.

Every closed-form energy in this package is judged against a numerical
eigenvalue, so the numerical route itself needs a second opinion. The
shooting solver integrates the Schroedinger equation outward with
Taylor-series steps of order 28 (the polynomial potential makes every
coefficient a five-term recurrence), brackets the level by node count and
refines on the sign change of psi at the far boundary; the
diagonalization solver truncates the Hamiltonian in a harmonic basis scaled
to the levels and diagonalizes its even and odd parity blocks with numpy.
They share no code path beyond the potential itself.

Run with: python3 demos/exact_oracles.py
"""
from varpert import (diag_eigenvalues, hbar_omega, make_anharmonic_spec,
                     shoot_eigenvalue)

K = 0.5


def cross_validate():
    print("--- shooting vs diagonalization, k = 0.5 eV/A^2 ---")
    print(f"{'b':>6} {'n':>3} {'shooting':>14} {'diagonalization':>16} {'diff':>10}")
    worst = 0.0
    for b in (0.01, 0.05, 0.25):
        spec = make_anharmonic_spec(K, b)
        diag = diag_eigenvalues(spec, dim=120, n_levels=4)
        for n in range(4):
            shot = shoot_eigenvalue(spec, n)
            diff = abs(shot - diag[n])
            worst = max(worst, diff)
            print(f"{b:>6} {n:>3} {shot:>14.9f} {diag[n]:>16.9f} {diff:>10.1e}")
    print(f"worst disagreement: {worst:.1e} eV (contract: 1e-5)")
    print()


def harmonic_sanity():
    print("--- harmonic limit b = 0: spectrum known in closed form ---")
    spec = make_anharmonic_spec(K, 0.0)
    hw = hbar_omega(spec)
    for n in range(3):
        e = shoot_eigenvalue(spec, n)
        print(f"n = {n}: {e:.10f} eV vs (n + 1/2) hbar omega = "
              f"{(n + 0.5) * hw:.10f} eV")
    print()


def tolerance_behavior():
    print("--- the energy tolerance is an honest knob ---")
    spec = make_anharmonic_spec(K, 0.25)
    reference = shoot_eigenvalue(spec, 2, energy_tol=1e-11)
    for tol in (1e-5, 1e-7, 1e-9):
        e = shoot_eigenvalue(spec, 2, energy_tol=tol)
        print(f"energy_tol = {tol:.0e}: E_2 = {e:.12f} eV "
              f"(off by {abs(e - reference):.1e})")
    print("Halving the tolerance moves the answer by less than the")
    print("tolerance itself, so the quoted digits are trustworthy.")


if __name__ == "__main__":
    cross_validate()
    harmonic_sanity()
    tolerance_behavior()
