"""Variational-perturbation scheme for V(x) = k x^2 + b x^4.

Per level n, the basis oscillator quantum u = hbar Omega_n is fixed by the
stationarity condition of the first-order energy, the positive root of

    u^3 - (hbar omega)^2 u - 24 b kappa^2 g(n) = 0,
    g(n) = (2n^2 + 2n + 1)/(2n + 1).

The first-order energy in a general basis u is

    E1(u) = u (n + 1/2) - (u^2 - (hbar omega)^2)/(4u) (2n + 1)
            + 3 beta (2n^2 + 2n + 1),          beta = b kappa^2 / u^2,

and the second-order Rayleigh-Schrodinger correction is an exact four-term
sum over the states coupled by x^2 and x^4. On shell (u solving the cubic)
the sum collapses to a closed-form quintic polynomial in n. Freezing u at
hbar omega instead reproduces conventional perturbation theory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import AnharmonicSpec, LevelResult, hbar_omega
from .oscillator import OscBasis, hprime_element, x4_element

# Closed-form second-order polynomial, equal to the brute-force sum for
# every n (equivalence enforced by tests at relative 1e-10). The linear
# coefficient is -280; a commonly quoted variant with -28 disagrees with
# the sum for every n >= 1 and is not used.
P_COEFFS = (64, 160, -336, -664, -280, -24)


def _g(n: int) -> float:
    return (2 * n * n + 2 * n + 1) / (2 * n + 1)


def _beta(spec: AnharmonicSpec, u: float) -> float:
    kap = spec.constants.kappa
    return spec.quartic_b * kap * kap / (u * u)


@dataclass(frozen=True)
class OmegaSolution:
    """Optimized basis quantum for one level.

    ``residual`` is the cubic's value at the root (eV^3), a diagnostic kept
    small by construction.
    """

    n: int
    hbar_Omega_n: float
    residual: float


def solve_omega(spec: AnharmonicSpec, n: int) -> OmegaSolution:
    """Solve the per-level cubic for u = hbar Omega_n.

    Newton iteration seeded above the root; the cubic has exactly one
    positive root for b >= 0 and is convex above it, so Newton descends
    onto it monotonically. It runs on v = u / s, with s the seed rounded
    to a power of two: every scaled step is the unscaled one exactly, and
    the cube cannot overflow while 24 b kappa^2 g(n) is finite. A result
    that fails the residual check raises ``ValueError``. For b = 0 the root
    is hbar omega itself.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    hw = hbar_omega(spec)
    kap = spec.constants.kappa
    rhs = 24.0 * spec.quartic_b * kap * kap * _g(n)

    if rhs == 0.0:
        u, residual = hw, 0.0
    else:
        # seed 1.5x above both scales keeps Newton on the convex branch
        v, e = math.frexp(1.5 * max(hw, rhs ** (1.0 / 3.0)))
        w = math.ldexp(hw, -e)
        r = math.ldexp(rhs, -3 * e)

        def cubic(v: float) -> float:
            return v * v * v - w * w * v - r

        for _ in range(80):
            step = cubic(v) / (3.0 * v * v - w * w)
            v -= step
            if abs(step) <= 1e-15 * v:
                break
        u, residual = math.ldexp(v, e), math.ldexp(cubic(v), 3 * e)
        if not abs(cubic(v)) <= 1e-10 * v ** 3:
            raise ValueError(f"Newton iteration for hbar Omega_{n} failed: "
                             f"u = {u}, residual {residual}")
    return OmegaSolution(n=n, hbar_Omega_n=u, residual=residual)


def energy_first_order(spec: AnharmonicSpec, n: int, u: float) -> float:
    """First-order energy E1(u) in eV, valid for any basis quantum u > 0.

    Evaluated in the literal three-term form (not the on-shell
    simplification), so it doubles as the conventional first-order energy
    at u = hbar omega and as the objective whose stationary point defines
    hbar Omega_n.
    """
    if u <= 0.0:
        raise ValueError(f"basis quantum u must be > 0, got {u}")
    hw = hbar_omega(spec)
    beta = _beta(spec, u)
    poly = 2 * n * n + 2 * n + 1
    return (u * (n + 0.5)
            - (u * u - hw * hw) / (4.0 * u) * (2 * n + 1)
            + 3.0 * beta * poly)


def second_order_closed_form(spec: AnharmonicSpec, n: int, u: float) -> float:
    """Closed-form second-order correction, valid only on shell.

    Returns beta^2/(4u) * P(n)/(2n+1)^2 with
    P(n) = 64n^5 + 160n^4 - 336n^3 - 664n^2 - 280n - 24. The derivation
    eliminates u^2 - (hbar omega)^2 through the cubic, so u must solve the
    cubic for this n; the precondition is enforced at relative 1e-8.
    """
    if u <= 0.0:
        raise ValueError(f"basis quantum u must be > 0, got {u}")
    hw = hbar_omega(spec)
    kap = spec.constants.kappa
    rhs = 24.0 * spec.quartic_b * kap * kap * _g(n)
    residual = u * u * u - hw * hw * u - rhs
    if abs(residual) > 1e-8 * u ** 3:
        raise ValueError(
            f"u={u!r} is off shell for n={n} (residual {residual:.3e}); "
            "the closed form is invalid away from the cubic's root")
    c5, c4, c3, c2, c1, c0 = P_COEFFS
    p = ((((c5 * n + c4) * n + c3) * n + c2) * n + c1) * n + c0
    beta = _beta(spec, u)
    return beta * beta / (4.0 * u) * p / (2 * n + 1) ** 2


def second_order_sum(spec: AnharmonicSpec, n: int, u: float) -> float:
    """Brute-force second-order correction, valid for any u > 0.

    The perturbation couples |n> only to |n +- 2> and |n +- 4>, so the
    Rayleigh-Schrodinger sum is exact with four terms:
    sum_k |<k|H'|n>|^2 / (u (n - k)).
    """
    if u <= 0.0:
        raise ValueError(f"basis quantum u must be > 0, got {u}")
    basis = OscBasis(hbar_Omega=u, kappa=spec.constants.kappa)
    total = 0.0
    for k in (n - 4, n - 2, n + 2, n + 4):
        if k < 0:
            continue
        amp = hprime_element(spec, basis, k, n)
        total += amp * amp / (u * (n - k))
    return total


def energy_variational(spec: AnharmonicSpec, n: int) -> LevelResult:
    """Variational energy: first order in the optimized basis, no correction."""
    sol = solve_omega(spec, n)
    e1 = energy_first_order(spec, n, sol.hbar_Omega_n)
    return LevelResult(n=n, hbar_omega_n=sol.hbar_Omega_n, e_first=e1,
                       e_second_corr=0.0, e_total=e1, method_tag="variational")


def energy_present(spec: AnharmonicSpec, n: int) -> LevelResult:
    """Optimized-basis energy through second order."""
    sol = solve_omega(spec, n)
    u = sol.hbar_Omega_n
    e1 = energy_first_order(spec, n, u)
    e2 = second_order_closed_form(spec, n, u)
    return LevelResult(n=n, hbar_omega_n=u, e_first=e1, e_second_corr=e2,
                       e_total=e1 + e2, method_tag="present")


def energy_conventional_pt(spec: AnharmonicSpec, n: int, order: int) -> LevelResult:
    """Conventional perturbation theory with the basis frozen at hbar omega.

    Order 1 is hbar omega (n + 1/2) + b <n|x^4|n>; order 2 adds the exact
    second-order sum. Large-b divergence of the series is a property the
    caller may flag (see ``pt_divergent``), not an error: the truncated
    values are always computable.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    hw = hbar_omega(spec)
    basis = OscBasis(hbar_Omega=hw, kappa=spec.constants.kappa)
    e1 = hw * (n + 0.5) + spec.quartic_b * x4_element(basis, n, n)
    if order == 1:
        return LevelResult(n=n, hbar_omega_n=hw, e_first=e1, e_second_corr=0.0,
                           e_total=e1, method_tag="conventional_pt1")
    e2 = second_order_sum(spec, n, hw)
    return LevelResult(n=n, hbar_omega_n=hw, e_first=e1, e_second_corr=e2,
                       e_total=e1 + e2, method_tag="conventional_pt2")


def pt_divergent(spec: AnharmonicSpec, n: int) -> bool:
    """Whether conventional perturbation theory is deemed divergent here.

    Flags the level when the magnitude of the second-order correction
    exceeds the first-order quartic shift b <n|x^4|n>, the scale at which
    successive terms of the frozen-basis series stop shrinking.
    """
    if spec.quartic_b == 0.0:
        return False
    hw = hbar_omega(spec)
    basis = OscBasis(hbar_Omega=hw, kappa=spec.constants.kappa)
    first_b_term = spec.quartic_b * x4_element(basis, n, n)
    return abs(second_order_sum(spec, n, hw)) > abs(first_b_term)
