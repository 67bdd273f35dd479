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
hbar omega instead reproduces conventional perturbation theory, where the
sum collapses to a cubic in n.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .model import (_HUGE, AnharmonicSpec, LevelResult, _level_error,
                    _require_positive, hbar_omega)
from .oscillator import _beta, _coefficients, _hprime

# Closed-form second-order polynomial, equal to the brute-force sum for
# every n (equivalence enforced by tests at relative 1e-10). The linear
# coefficient is -280; a commonly quoted variant with -28 disagrees with
# the sum for every n >= 1 and is not used.
P_COEFFS = (64, 160, -336, -664, -280, -24)


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
    the cube cannot overflow. The seed's cube root of 24 b kappa^2 g(n), an
    energy cubed, is taken in parts where that term leaves the normal float
    range, so a root above about 5.6e102 eV is solved too. A root or
    residual past the float range, or a root that fails the residual check,
    raises ``ValueError``. For b = 0 the root is hbar omega itself.
    """
    u, cubic, e, _ = _optimized(spec, n)
    try:
        return OmegaSolution(n, u, math.ldexp(cubic, 3 * e))
    except OverflowError:
        raise ValueError(f"the residual at hbar Omega_{n} = {u!r} eV "
                         "overflows eV^3") from None


def _optimized(spec: AnharmonicSpec, n: int) -> tuple[float, float, int, float]:
    """Level n's optimized-basis record, (hbar Omega_n, residual / 2^(3 e), e,
    E1(hbar Omega_n)), formed on first touch and kept by spec; the residual
    and E1 may leave the float range, for their readers to refuse."""
    if (record := spec._optimized.get(n)) is None:
        u, cubic, e = _newton(spec, n)
        e1 = u * (n + 0.5) + _hprime(_coefficients(spec, u), 0, n)
        record = spec._optimized[n] = u, cubic, e, e1
    return record


def _newton(spec: AnharmonicSpec, n: int) -> tuple[float, float, int]:
    """The first three fields of ``_optimized``'s record, solved afresh."""
    if not 0 <= n <= _HUGE:
        raise _level_error(n)
    hw = hbar_omega(spec)
    if spec.quartic_b == 0.0:
        return hw, 0.0, 0
    # the cubic's constant term 24 b kappa^2 g(n) is c 2^e_c, from mantissas
    g = (2 * n * n + 2 * n + 1) / (2 * n + 1)
    m_b, e_b = math.frexp(spec.quartic_b)
    m_kappa, e_kappa = math.frexp(spec.kappa)
    c, e_c = 24.0 * m_b * m_kappa * m_kappa * g, e_b + 2 * e_kappa
    # seed 1.5x above both scales keeps Newton on the convex branch
    if -1022 < math.frexp(c)[1] + e_c <= 1024:  # a normal term
        v, e = math.frexp(1.5 * max(hw, math.ldexp(c, e_c) ** (1.0 / 3.0)))
    else:  # its cube root in parts, e_c = 3 q + s
        q, s = divmod(e_c, 3)
        p = max(q, 0)  # a term above the float range seeds in the unit 2^q
        root = math.ldexp(math.ldexp(c, s) ** (1.0 / 3.0), q - p)
        v, e = math.frexp(1.5 * max(math.ldexp(hw, -p), root))
        e += p
    w = math.ldexp(hw, -e)
    ww = w * w
    r = math.ldexp(c, e_c - 3 * e)
    for _ in range(80):
        step = (v * v * v - ww * v - r) / (3.0 * v * v - ww)
        v -= step
        if abs(step) <= 1e-15 * v:
            break
    cubic = v * v * v - ww * v - r
    try:
        u = math.ldexp(v, e)
    except OverflowError:
        raise ValueError(f"hbar Omega_{n} overflows at quartic_b="
                         f"{spec.quartic_b!r}") from None
    if not abs(cubic) <= 1e-10 * v ** 3:
        raise ValueError(f"Newton iteration for hbar Omega_{n} failed: "
                         f"u = {u}, residual {cubic / v ** 3:.3e} u^3")
    return u, cubic, e


def energy_first_order(spec: AnharmonicSpec, n: int, u: float) -> float:
    """First-order energy E1(u) = <n| H |n> in eV at any basis quantum u > 0.

    u (n + 1/2) + <n| H' |n>, the literal form and not the on-shell
    simplification, as the objective whose stationary point defines
    hbar Omega_n; at u = hbar omega it equals ``energy_conventional_pt``'s
    order 1 bit for bit. A u that takes it past the float range raises
    ``ValueError``.
    """
    if not 0 <= n <= _HUGE:
        raise _level_error(n)
    _require_positive("u", u)
    e1 = u * (n + 0.5) + _hprime(_coefficients(spec, u), 0, n)
    if not math.isfinite(e1):
        raise ValueError(f"u={u!r} overflows E1 for n={n}")
    return e1


def second_order_closed_form(spec: AnharmonicSpec, n: int, u: float) -> float:
    """Closed-form second-order correction, valid only on shell.

    Returns beta^2/(4u) * P(n)/(2n+1)^2 with
    P(n) = 64n^5 + 160n^4 - 336n^3 - 664n^2 - 280n - 24. The derivation
    eliminates u^2 - (hbar omega)^2 through the cubic, so u must solve the
    cubic for this n; the precondition is enforced at relative 1e-8 on the
    cubic divided by u^3, 1 - (hbar omega / u)^2 - 24 g(n) beta / u, beta
    over 2^e of u = v 2^e; the correction, ``_beta_squared_over_u``, is
    within a few ulps where normal and raises ``ValueError`` past the range.
    """
    if not 0 <= n <= _HUGE:
        raise _level_error(n)
    _require_positive("u", u)
    w = hbar_omega(spec) / u
    v, e = math.frexp(u)
    g = (2 * n * n + 2 * n + 1) / (2 * n + 1)
    residual = 1.0 - w * w - 24.0 * g * _beta(spec, u, e) / v  # inf off shell
    if not abs(residual) <= 1e-8:
        raise ValueError(
            f"u={u!r} is off shell for n={n} (residual {residual:.3e} u^3); "
            "the closed form is invalid away from the cubic's root")
    c5, c4, c3, c2, c1, c0 = P_COEFFS
    p = ((((c5 * n + c4) * n + c3) * n + c2) * n + c1) * n + c0
    if math.isinf(e2 := _beta_squared_over_u(spec, u, p, 4 * (2 * n + 1) ** 2)):
        raise ValueError(f"u={u!r} overflows E2 for n={n}")
    return e2


def _beta_squared_over_u(spec: AnharmonicSpec, u: float, p: int, d: int) -> float:
    """beta^2 / u * p / d in eV, beta = b kappa^2 / u^2, for ints p and d > 0:
    from the mantissas of the spec's b kappa^2, of u = v 2^e and of p and d
    (correctly rounded int divisions by 2^bitlen), scaled by one ``ldexp``,
    so nothing under- or overflows before the result; +-inf past the range."""
    (m, e_bk), (v, e) = spec._b_kappa2, math.frexp(u)
    q = m / (v * v)  # beta = q 2^(e_bk - 2e)
    e_p, e_d = p.bit_length(), d.bit_length()
    try:
        return math.ldexp(q * q / v * (p / (1 << e_p)) / (d / (1 << e_d)),
                          2 * e_bk - 5 * e + e_p - e_d)
    except OverflowError:
        return math.inf if p > 0 else -math.inf


def second_order_sum(spec: AnharmonicSpec, n: int, u: float) -> float:
    """Brute-force second-order correction, valid for any u > 0.

    The perturbation couples |n> only to |n +- 2> and |n +- 4>, so the
    Rayleigh-Schrodinger sum is exact with four terms:
    sum_k |<k|H'|n>|^2 / (u (n - k)), each term as in ``hprime_element``.
    The tests hold both closed forms, which the energies read, to it. A u
    whose x^2 coefficient squares past the float range, as where u^2 does,
    raises ``ValueError``; at u = hbar omega that coefficient is 0. An
    amplitude whose square overflows, as from b = 8.3e152 in the hbar
    omega basis at k = 0.5, or a ladder factor with no float, from n about
    1e154 on, makes the sum -inf or nan. From n about 1.2e77 on the four
    terms cancel to rounding, so the sum is good only in absolute terms,
    to about eps times its largest term.
    """
    if not 0 <= n <= _HUGE:
        raise _level_error(n)
    _require_positive("u", u)
    coefficients = _coefficients(spec, u)
    if coefficients[0] * coefficients[0] == math.inf:
        raise ValueError(f"u={u!r} overflows the x^2 coefficient squared")
    total = 0.0
    # k = n - 4, n - 2, n + 2, n + 4 in turn: m = min(k, n), d = n - k
    for m, d in ((n - 4, 4), (n - 2, 2), (n, -2), (n, -4)):
        if m >= 0:
            amp = _hprime(coefficients, abs(d), m)
            total += amp * amp / (u * d)
    return total


def _variational(spec: AnharmonicSpec, n: int) -> tuple[float, float]:
    """(hbar Omega_n, E1(hbar Omega_n)) from the optimized-basis record."""
    u, _, _, e1 = _optimized(spec, n)
    if not math.isfinite(e1):
        raise ValueError(f"u={u!r} overflows E1 for n={n}")
    return u, e1


def energy_variational(spec: AnharmonicSpec, n: int) -> LevelResult:
    """Variational energy: first order in the optimized basis, no correction."""
    u, e1 = _variational(spec, n)
    return LevelResult(n, u, e1, 0.0)


def energy_present(spec: AnharmonicSpec, n: int) -> LevelResult:
    """Optimized-basis energy through second order; ``e_first`` is the
    variational energy, first order in the same basis."""
    u, e1 = _variational(spec, n)
    return LevelResult(n, u, e1, second_order_closed_form(spec, n, u))


def energy_conventional_pt(spec: AnharmonicSpec, n: int, order: int) -> LevelResult:
    """Conventional perturbation theory with the basis frozen at hbar omega.

    Order 1 is hbar omega (n + 1/2) + b <n|x^4|n>, and a b or n that takes
    it past the float range raises ``ValueError``. Order 2 adds
    ``second_order_sum`` at u = hbar omega in closed form, the cubic
    -2 beta^2 / (hbar omega) (34n^3 + 51n^2 + 59n + 21) of Bender and Wu
    (Phys. Rev. 184, 1231 (1969)), formed as the present quintic is, within
    a few ulps, and -inf past the float range. Divergence at large b is not
    an error; ``pt_divergent`` flags it.
    """
    e1, _, e2 = _frozen(spec, n)
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if not math.isfinite(e1):
        raise ValueError(f"quartic_b={spec.quartic_b!r} overflows E1 for n={n}")
    return LevelResult(n, hbar_omega(spec), e1, 0.0 if order == 1 else e2)


def _frozen(spec: AnharmonicSpec, n: int) -> tuple[float, float, float]:
    """Level n's hbar omega basis record, (order-1 energy, shift b <n|x^4|n>,
    second-order cubic), formed on first touch and kept by spec."""
    if (record := spec._frozen.get(n)) is None:
        if not 0 <= n <= _HUGE:
            raise _level_error(n)
        hw = hbar_omega(spec)
        shift = _hprime(_coefficients(spec, hw), 0, n)
        p = ((34 * n + 51) * n + 59) * n + 21
        e2 = 0.0 - _beta_squared_over_u(spec, hw, 2 * p, 1)  # not -0.0 at b = 0
        record = spec._frozen[n] = hw * (n + 0.5) + shift, shift, e2
    return record


def pt_divergent(spec: AnharmonicSpec, n: int) -> bool:
    """Whether conventional perturbation theory is deemed divergent here.

    Flags the level when the magnitude of the second-order correction
    exceeds the first-order quartic shift b <n|x^4|n>, the scale at which
    successive terms of the frozen-basis series stop shrinking, or either
    is not finite, as where the correction reads -inf. At b = 0 both are
    exactly 0 and the level is not flagged.
    """
    _, shift, e2 = _frozen(spec, n)
    return not abs(e2) <= shift < math.inf
