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
from typing import NamedTuple

from .model import AnharmonicSpec, LevelResult, _require_positive, hbar_omega
from .oscillator import _hprime, x4_element

# Closed-form second-order polynomial, equal to the brute-force sum for
# every n (equivalence enforced by tests at relative 1e-10). The linear
# coefficient is -280; a commonly quoted variant with -28 disagrees with
# the sum for every n >= 1 and is not used.
P_COEFFS = (64, 160, -336, -664, -280, -24)


def _cubic_term(spec: AnharmonicSpec, n: int) -> float:
    """The cubic's constant term 24 b kappa^2 g(n), for n >= 0."""
    g = (2 * n * n + 2 * n + 1) / (2 * n + 1)
    return 24.0 * spec.quartic_b * spec.kappa * spec.kappa * g


def _beta(spec: AnharmonicSpec, u: float) -> float:
    return spec.quartic_b * spec.kappa * spec.kappa / (u * u)


class OmegaSolution(NamedTuple):
    """Optimized basis quantum for one level.

    ``residual`` is the cubic's value at the root (eV^3), a diagnostic kept
    within 1e-10 u^3 by construction. Where it leaves the float range, as it
    can for a root above about 1e108 eV, ``solve_omega`` raises
    ``ValueError``; the energies, which never read it, still return.
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
    the cube cannot overflow while 24 b kappa^2 g(n) is finite. Where that
    term overflows, or a result fails the residual check, it raises
    ``ValueError``, as it does for a residual past the float range. For
    b = 0 the root is hbar omega itself.
    """
    u, cubic, e = _omega(spec, n)
    try:
        return OmegaSolution(n, u, math.ldexp(cubic, 3 * e))
    except OverflowError:
        raise ValueError(f"the residual at hbar Omega_{n} = {u!r} eV "
                         "overflows eV^3") from None


def _omega(spec: AnharmonicSpec, n: int) -> tuple[float, float, int]:
    """(hbar Omega_n, residual / 2^(3 e), e) as ``solve_omega`` describes
    them; the residual itself can leave the float range."""
    if n < 0:
        raise ValueError("n must be >= 0")
    hw = hbar_omega(spec)
    rhs = _cubic_term(spec, n)
    if rhs == math.inf:
        raise ValueError(f"quartic_b={spec.quartic_b!r} overflows the cubic "
                         f"for hbar Omega_{n}")
    if rhs == 0.0:
        return hw, 0.0, 0
    # seed 1.5x above both scales keeps Newton on the convex branch
    v, e = math.frexp(1.5 * max(hw, rhs ** (1.0 / 3.0)))
    w = math.ldexp(hw, -e)
    ww = w * w
    r = math.ldexp(rhs, -3 * e)
    for _ in range(80):
        step = (v * v * v - ww * v - r) / (3.0 * v * v - ww)
        v -= step
        if abs(step) <= 1e-15 * v:
            break
    cubic = v * v * v - ww * v - r
    u = math.ldexp(v, e)
    if not abs(cubic) <= 1e-10 * v ** 3:
        raise ValueError(f"Newton iteration for hbar Omega_{n} failed: "
                         f"u = {u}, residual {cubic / v ** 3:.3e} u^3")
    return u, cubic, e


def energy_first_order(spec: AnharmonicSpec, n: int, u: float) -> float:
    """First-order energy E1(u) in eV, valid for any basis quantum u > 0.

    Evaluated in the literal three-term form (not the on-shell
    simplification), so it doubles as the conventional first-order energy
    at u = hbar omega and as the objective whose stationary point defines
    hbar Omega_n. A u that takes u^2 or the energy past the float range
    raises ``ValueError``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _require_positive("u", u)
    hw = hbar_omega(spec)
    poly = 2 * n * n + 2 * n + 1
    try:
        e1 = (u * (n + 0.5)
              - (u * u - hw * hw) / (4.0 * u) * (2 * n + 1)
              + 3.0 * _beta(spec, u) * poly)
    except ZeroDivisionError:  # u * u underflows in beta
        e1 = math.inf
    if not math.isfinite(e1):
        raise ValueError(f"u={u!r} overflows E1 for n={n}")
    return e1


def second_order_closed_form(spec: AnharmonicSpec, n: int, u: float) -> float:
    """Closed-form second-order correction, valid only on shell.

    Returns beta^2/(4u) * P(n)/(2n+1)^2 with
    P(n) = 64n^5 + 160n^4 - 336n^3 - 664n^2 - 280n - 24. The derivation
    eliminates u^2 - (hbar omega)^2 through the cubic, so u must solve the
    cubic for this n; the precondition is enforced at relative 1e-8 on the
    cubic divided by u^3, which cannot overflow.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _require_positive("u", u)
    w = hbar_omega(spec) / u
    residual = 1.0 - w * w - _cubic_term(spec, n) / u / u / u
    if not abs(residual) <= 1e-8:
        raise ValueError(
            f"u={u!r} is off shell for n={n} (residual {residual:.3e} u^3); "
            "the closed form is invalid away from the cubic's root")
    c5, c4, c3, c2, c1, c0 = P_COEFFS
    p = ((((c5 * n + c4) * n + c3) * n + c2) * n + c1) * n + c0
    beta = _beta(spec, u)
    return beta * beta / (4.0 * u) * p / (2 * n + 1) ** 2


def second_order_sum(spec: AnharmonicSpec, n: int, u: float) -> float:
    """Brute-force second-order correction, valid for any u > 0.

    The perturbation couples |n> only to |n +- 2> and |n +- 4>, so the
    Rayleigh-Schrodinger sum is exact with four terms:
    sum_k |<k|H'|n>|^2 / (u (n - k)), each term as in ``hprime_element``.
    A u at which u^2 or (kappa/u)^2 overflows raises ``ValueError``; an
    amplitude whose square overflows, as from b = 8.3e152 in the hbar omega
    basis at k = 0.5, makes the sum -inf or nan.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _require_positive("u", u)
    s2 = spec.kappa / u
    _require_positive("s2", s2)
    if u * u == math.inf or s2 * s2 == math.inf:  # the x^2 or x^4 scale of H'
        raise ValueError(f"u={u!r} overflows u^2 or (kappa/u)^2")
    total = 0.0
    # k = n - 4, n - 2, n + 2, n + 4 in turn: m = min(k, n), d = n - k
    for m, d in ((n - 4, 4), (n - 2, 2), (n, -2), (n, -4)):
        if m >= 0:
            amp = _hprime(spec, u, abs(d), m)
            total += amp * amp / (u * d)
    return total


def energy_variational(spec: AnharmonicSpec, n: int) -> LevelResult:
    """Variational energy: first order in the optimized basis, no correction."""
    u = _omega(spec, n)[0]
    e1 = energy_first_order(spec, n, u)
    return LevelResult(n=n, hbar_omega_n=u, e_first=e1, e_second_corr=0.0)


def energy_present(spec: AnharmonicSpec, n: int) -> LevelResult:
    """Optimized-basis energy through second order; ``e_first`` is the
    variational energy, first order in the same basis."""
    u = _omega(spec, n)[0]
    e1 = energy_first_order(spec, n, u)
    e2 = second_order_closed_form(spec, n, u)
    return LevelResult(n=n, hbar_omega_n=u, e_first=e1, e_second_corr=e2)


def energy_conventional_pt(spec: AnharmonicSpec, n: int, order: int) -> LevelResult:
    """Conventional perturbation theory with the basis frozen at hbar omega.

    Order 1 is hbar omega (n + 1/2) + b <n|x^4|n>, and a b that takes it
    past the float range raises ``ValueError``; order 2 adds the exact
    second-order sum. Large-b divergence of the series is a property the
    caller may flag (see ``pt_divergent``), not an error; at huge b the
    second-order sum overflows to -inf or nan, which that flag counts too.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    hw = hbar_omega(spec)
    s2 = spec.kappa / hw
    e1 = hw * (n + 0.5) + spec.quartic_b * x4_element(s2, n, n)
    if not math.isfinite(e1):
        raise ValueError(f"quartic_b={spec.quartic_b!r} overflows E1 for n={n}")
    e2 = 0.0 if order == 1 else second_order_sum(spec, n, hw)
    return LevelResult(n=n, hbar_omega_n=hw, e_first=e1, e_second_corr=e2)


def pt_divergent(spec: AnharmonicSpec, n: int) -> bool:
    """Whether conventional perturbation theory is deemed divergent here.

    Flags the level when the magnitude of the second-order correction
    exceeds the first-order quartic shift b <n|x^4|n>, the scale at which
    successive terms of the frozen-basis series stop shrinking, or is not
    finite. At b = 0 both are exactly 0 and the level is not flagged.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    hw = hbar_omega(spec)
    first_b_term = spec.quartic_b * x4_element(spec.kappa / hw, n, n)
    return not abs(second_order_sum(spec, n, hw)) <= abs(first_b_term)
