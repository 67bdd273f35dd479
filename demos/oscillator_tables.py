"""Walk through the oscillator benchmark: one optimized basis per level.

The potential V(x) = k x^2 + b x^4 with k = 0.5 eV/A^2 has no closed-form
spectrum, but choosing a harmonic parent oscillator separately for every
level turns plain second-order perturbation theory into a few-digit
method. This script follows one level through the pipeline, then sweeps
the published b grid.

Run with: python3 demos/oscillator_tables.py
"""
import math

from varpert import (energy_conventional_pt, energy_present,
                     energy_variational, hbar_omega, make_anharmonic_spec,
                     pt_divergent, shoot_eigenvalue, solve_omega)

K = 0.5


def follow_one_level(b, n):
    spec = make_anharmonic_spec(K, b)
    hw = hbar_omega(spec)
    print(f"--- b = {b} eV/A^4, level n = {n} ---")
    print(f"bare harmonic quantum: hbar omega = 2 sqrt(kappa k) = {hw:.7f} eV")

    sol = solve_omega(spec, n)
    u = sol.hbar_Omega_n
    print(f"optimized quantum:     hbar Omega_{n} = {u:.7f} eV "
          f"(cubic residual {sol.residual:.1e})")
    print(f"effective stiffness:   1/2 m Omega^2 = {K * (u / hw) ** 2:.7f} "
          "eV/A^2")

    var = energy_variational(spec, n).e_total
    pres = energy_present(spec, n)
    exact = shoot_eigenvalue(spec, n)
    print(f"first order (variational): {var:.7f} eV")
    print(f"+ second order (present):  {pres.e_total:.7f} eV "
          f"(correction {pres.e_second_corr:+.7f})")
    print(f"exact (shooting):          {exact:.7f} eV")
    print(f"present error: {abs(pres.e_total - exact) / exact:.2%} "
          f"vs variational {abs(var - exact) / exact:.2%}")
    print()


def sweep_ground_state():
    print("--- ground state across the coupling grid ---")
    header = f"{'b':>6} {'conv PT2':>12} {'variational':>12} {'present':>12} {'exact':>12}"
    print(header)
    for b in (0.01, 0.05, 0.25):
        spec = make_anharmonic_spec(K, b)
        pt2 = energy_conventional_pt(spec, 0, 2).e_total
        var = energy_variational(spec, 0).e_total
        pres = energy_present(spec, 0).e_total
        exact = shoot_eigenvalue(spec, 0)
        note = "  <- series divergent" if pt_divergent(spec, 0) else ""
        print(f"{b:>6} {pt2:>12.7f} {var:>12.7f} {pres:>12.7f} "
              f"{exact:>12.7f}{note}")
    print()
    print("The frozen-basis series loses digits as b grows and fails outright")
    print("at b = 0.25; the per-level optimized basis stays within 0.3%.")


if __name__ == "__main__":
    follow_one_level(0.05, 0)
    follow_one_level(0.05, 1)
    sweep_ground_state()
