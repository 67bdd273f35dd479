"""Reference values computed apart from varpert.

Nothing here imports varpert. The oscillator side builds the Hamiltonian
as a dense matrix from powers of the ladder position operator and solves
it with numpy ``eigvalsh`` (varpert uses closed-form band elements and
scipy ``eig_banded``). The optimized basis quantum comes from the
trigonometric/Cardano root of the cubic (varpert uses Newton from above).
The helium side recomputes Slater integrals with sympy from its own
hydrogenic orbitals (varpert uses exact-rational factorial sums).
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

KAPPA = 3.8099821  # hbar^2/2m of the electron in eV A^2 (varpert's default)

# Pure-quartic eigenvalues of -d^2/dy^2 + y^4 (Hioe & Montroll 1975).
QUARTIC_E = (1.0603620905, 3.7996730298)

# Helium: Z = 2, screened charge Z* = Z - 5/16; 1s2s Coulomb integrals at
# unit charge, in ryd.
HELIUM_Z = 2
HELIUM_ZSTAR = Fraction(27, 16)
J_1S2S = Fraction(34, 81)
K_1S2S = Fraction(32, 729)


def hbar_omega(k: float) -> float:
    return 2.0 * math.sqrt(KAPPA * k)


def coupling(k: float, b: float) -> float:
    """Quartic strength in units of the harmonic quantum, b s^4 / hbar omega.

    With s^2 = kappa / hbar omega this is b sqrt(kappa) / (8 k^(3/2)). Every
    level of the oscillator, divided by hbar omega, depends on k and b only
    through it.
    """
    return b * math.sqrt(KAPPA) / (8.0 * k ** 1.5)


def quartic_limit(b: float, n: int) -> float:
    """Large-b limit kappa^(2/3) b^(1/3) e_n of level n, for n = 0, 1."""
    return KAPPA ** (2.0 / 3.0) * b ** (1.0 / 3.0) * QUARTIC_E[n]


def _ladder_powers(size: int) -> tuple[np.ndarray, np.ndarray]:
    """(a + a^dagger)^2 and ^4 on ``size`` number states; exact up to size-4."""
    a = np.diag(np.sqrt(np.arange(1.0, size)), 1)
    x = a + a.T
    x2 = x @ x
    return x2, x2 @ x2


def _dense_levels(k: float, b: float, u: float, n_levels: int,
                  dim: int) -> np.ndarray:
    x2, x4 = _ladder_powers(dim + 4)
    s2 = KAPPA / u
    # kinetic kappa p^2 = u (N + 1/2) - (u^2 / 4 kappa) x^2
    h = (np.diag(u * (np.arange(dim + 4) + 0.5))
         + (k - u * u / (4.0 * KAPPA)) * s2 * x2 + b * s2 * s2 * x4)
    return np.linalg.eigvalsh(h[:dim, :dim])[:n_levels]


def exact_levels(k: float, b: float, n_levels: int) -> list[float]:
    """Lowest ``n_levels`` eigenvalues of kappa p^2 + k x^2 + b x^4, in eV.

    The basis quantum is scaled to the quartic wall of the middle level so
    one basis size serves every coupling; the result is accepted only when
    a basis 60 states larger moves no level by more than 1e-11 relative.
    """
    hw = hbar_omega(k)
    u = max(hw, (24.0 * b * KAPPA * KAPPA * (n_levels // 2 + 1)) ** (1.0 / 3.0))
    dim = 4 * n_levels + 100
    lo = _dense_levels(k, b, u, n_levels, dim)
    hi = _dense_levels(k, b, u, n_levels, dim + 60)
    drift = float(np.max(np.abs(lo - hi) / np.abs(hi)))
    if drift > 1e-11:
        raise RuntimeError(f"reference eigensolver unconverged at k={k} b={b}: "
                           f"relative drift {drift:.2e}")
    return [float(e) for e in hi]


def omega_root(k: float, b: float, n: int) -> float:
    """Positive root u of u^3 - (hbar omega)^2 u - 24 b kappa^2 g(n) = 0.

    Trigonometric form when the cubic has three real roots, Cardano's when
    it has one, then two Newton steps to polish the last bits.
    """
    hw = hbar_omega(k)
    c = 24.0 * b * KAPPA * KAPPA * (2 * n * n + 2 * n + 1) / (2 * n + 1)
    p3 = hw * hw / 3.0
    disc = 0.25 * c * c - p3 ** 3
    if disc <= 0.0:
        arg = min(1.0, 0.5 * c / p3 ** 1.5)
        u = 2.0 * math.sqrt(p3) * math.cos(math.acos(arg) / 3.0)
    else:
        r = math.sqrt(disc)
        u = math.cbrt(0.5 * c + r) + math.cbrt(0.5 * c - r)
    for _ in range(2):
        df = 3.0 * u * u - hw * hw
        if df > 0.0:
            u -= (u * u * u - hw * hw * u - c) / df
    return u


def perturbative_levels(k: float, b: float, n_levels: int) -> dict[str, list]:
    """Every closed-form method of the paper, recomputed by matrix algebra.

    First order is the diagonal element of H in the basis of quantum u and
    second order the full Rayleigh-Schroedinger sum over the dense
    perturbation matrix, at u = hbar Omega_n (present scheme) and at
    u = hbar omega (conventional scheme).
    """
    hw = hbar_omega(k)
    size = n_levels + 8
    x2u, x4u = _ladder_powers(size)
    idx = np.arange(size)

    def orders(u: float, n: int) -> tuple[float, float, float]:
        s2 = KAPPA / u
        hp = (k - u * u / (4.0 * KAPPA)) * s2 * x2u + b * s2 * s2 * x4u
        e1 = u * (n + 0.5) + float(hp[n, n])
        others = idx != n
        e2 = float(np.sum(hp[others, n] ** 2 / (u * (n - idx[others]))))
        return e1, e2, b * s2 * s2 * x4u[n, n]

    out: dict[str, list] = {key: [] for key in (
        "variational", "present", "conventional_pt1", "conventional_pt2",
        "divergent", "half_m_omega2")}
    for n in range(n_levels):
        u = omega_root(k, b, n)
        e1, e2, _ = orders(u, n)
        c1, c2, quartic_shift = orders(hw, n)
        out["variational"].append(e1)
        out["present"].append(e1 + e2)
        out["conventional_pt1"].append(c1)
        out["conventional_pt2"].append(c1 + c2)
        out["divergent"].append(b > 0.0 and abs(c2) > abs(quartic_shift))
        out["half_m_omega2"].append(k * (u / hw) ** 2)
    return out


def helium_variational(z_star: Fraction = HELIUM_ZSTAR,
                       z: int = HELIUM_Z) -> Fraction:
    """<H> of 1s^2 at charge Z*, in ryd: -(4 Z* Z - 2 Z*^2 - 5 Z*/4)."""
    return -(4 * z_star * z - 2 * z_star * z_star - Fraction(5, 4) * z_star)


def helium_excited(z: int = HELIUM_Z) -> tuple[Fraction, Fraction]:
    """Stationary charge and energy of the 1s2s state, in ryd.

    <H> = (5/4) Z*^2 - (5/2) Z Z* + (J - K) Z* with J and K at unit charge.
    """
    slope = J_1S2S - K_1S2S
    zs = z - Fraction(2, 5) * slope
    return zs, Fraction(5, 4) * zs * zs - Fraction(5, 2) * z * zs + slope * zs


def slater_y_sympy(n: int, n_prime: int, l: int, z_star: Fraction) -> float:
    """Y_nn'l = R^l(R_nl R_n'l; R_10 R_10) by exact sympy integration.

    Electron 1 carries the transition density R_nl R_10 and electron 2 the
    density R_n'l R_10, coupled by r_<^l / r_>^(l+1). Orbitals come from
    ``sympy.physics.hydrogen.R_nl``; the r2 integral is split at r1 into
    its lower (r2^l / r1^(l+1)) and upper (r1^l / r2^(l+1)) pieces.
    """
    import sympy as sp
    from sympy.physics.hydrogen import R_nl

    r1, r2 = sp.symbols("r1 r2", positive=True)
    zs = sp.Rational(z_star.numerator, z_star.denominator)
    one = sp.expand(R_nl(n, l, r1, zs) * R_nl(1, 0, r1, zs) * r1 ** 2)
    two = sp.expand(R_nl(n_prime, l, r2, zs) * R_nl(1, 0, r2, zs) * r2 ** 2)
    lower = sp.integrate(two * r2 ** l, (r2, 0, r1)) / r1 ** (l + 1)
    upper = sp.integrate(two / r2 ** (l + 1), (r2, r1, sp.oo)) * r1 ** l
    total = sp.integrate(sp.expand(one * (lower + upper)), (r1, 0, sp.oo))
    return float(sp.re(sp.N(total, 30)))
