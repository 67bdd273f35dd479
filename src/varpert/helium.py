"""Helium ground and first-excited energies from a screened hydrogenic basis.

The parent Hamiltonian replaces the nuclear charge Z by a variational
effective charge Z*, leaving the residual perturbation

    H' = -(Z - Z*) e^2 (1/r1 + 1/r2) + e^2 / r12.

The ground state uses the 1s^2 singlet; second order sums discrete
doubly-bound intermediate states built from two hydrogenic orbitals at the
common charge Z*. The first excited (spin-symmetric) state is treated
variationally in the antisymmetrized 1s2s configuration. Everything is
expressed in rydbergs with lengths in a0, so e^2 = 2 ryd a0 and the
hydrogenic levels are -Z*^2/n^2 ryd.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .polyexp import PolyExp, polyexp_moment, slater_radial

E2_RYD_A0 = 2.0        # e^2 in ryd a0
INV_SQRT2 = 1.0 / math.sqrt(2.0)
Orbital = Callable[[int, int, float], PolyExp]  # (n, l, z_star) -> R_nl


@dataclass(frozen=True)
class HeliumChannel:
    """Intermediate two-electron state label (n, n', l, m).

    Channels are enumerated once per unordered orbital pair, with
    1 <= n <= n', 0 <= l <= n-1, 0 <= m <= l and (n, n') != (1, 1).
    ``A`` is the symmetrization factor: 1/2 when the two orbitals carry
    identical quantum numbers (possible only for n = n', m = 0), else
    1/sqrt(2).
    """

    n: int
    n_prime: int
    l: int
    m: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= self.n_prime:
            raise ValueError("need 1 <= n <= n_prime")
        if (self.n, self.n_prime) == (1, 1):
            raise ValueError("the (1, 1) pair is the ground state itself")
        if not 0 <= self.l <= self.n - 1:
            raise ValueError("need 0 <= l <= n - 1")
        if not 0 <= self.m <= self.l:
            raise ValueError("need 0 <= m <= l")

    @property
    def A(self) -> float:
        return 0.5 if self.n == self.n_prime and self.m == 0 else INV_SQRT2


@dataclass(frozen=True)
class HeliumResult:
    """Ground-state summary: variational energy plus second-order shift.

    ``e_second_by_n_prime`` holds the second-order contributions of
    n' = 2, 3, ..., n_max in that order; ``e_second`` is their sum.
    """

    z_star: float
    e_variational: float
    e_second: float
    e_total: float
    n_max: int
    e_second_by_n_prime: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.e_second > 0.0:
            raise ValueError("ground-state second-order shift must be <= 0")
        if not math.isclose(self.e_total, self.e_variational + self.e_second,
                            rel_tol=1e-12, abs_tol=1e-12):
            raise ValueError("e_total must equal e_variational + e_second")


def _require_z_star(z_star: float) -> None:
    if not (z_star > 0.0 and math.isfinite(z_star)):
        raise ValueError(f"z_star must be finite and > 0, got {z_star}")


def _require_z(z: float) -> None:
    if not (z >= 1.0 and math.isfinite(z)):
        raise ValueError(f"z must be finite and >= 1, got {z}")


def hydrogenic_radial(n: int, l: int, z_star: float) -> PolyExp:
    """Normalized hydrogenic R_nl at effective charge z_star, r in a0.

    R_nl(r) = N (2 z r / n)^l L^(2l+1)_(n-l-1)(2 z r / n) exp(-z r / n)
    with N^2 = (2z/n)^3 (n-l-1)! / (2n (n+l)!). The Laguerre expansion
    L^a_k(x) = sum_j (-1)^j C(k+a, k-j) x^j / j! keeps every polynomial
    coefficient an exact rational; only the square root in N is floating.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= l <= n - 1:
        raise ValueError(f"need 0 <= l <= n-1, got l={l}, n={n}")
    _require_z_star(z_star)
    zs = Fraction(z_star)
    two_g = 2 * zs / n                       # argument scale 2 z / n
    norm_sq = (two_g ** 3 * math.factorial(n - l - 1)
               / (2 * n * math.factorial(n + l)))
    k = n - l - 1
    alpha = 2 * l + 1
    terms = []
    for j in range(k + 1):
        coeff = (Fraction((-1) ** j * math.comb(k + alpha, k - j),
                          math.factorial(j)) * two_g ** (l + j))
        terms.append((coeff, l + j))
    return PolyExp(terms=tuple(terms), gamma=zs / n,
                   scale=math.sqrt(float(norm_sq)))


def x_integral(n: int, z_star: float, orbital: Orbital | None = None) -> float:
    """Radial overlap X_n = int r^2 R_n0 (1/r) R_10 dr in 1/a0 units.

    ``orbital`` builds R_n0 and R_10 as in ``y_integral``.
    """
    orbital = orbital or hydrogenic_radial
    return polyexp_moment(orbital(n, 0, z_star), orbital(1, 0, z_star), 1)


def y_integral(n: int, n_prime: int, l: int, z_star: float,
               orbital: Orbital | None = None) -> float:
    """Slater integral Y_nn'l against two 1s legs, in 1/a0 units.

    Y = R^l(R_nl, R_n'l; R_10, R_10): the multipole-l kernel between the
    excited orbital product on one side and the 1s^2 product on the other.
    ``orbital(n, l, z_star)`` builds the legs, ``hydrogenic_radial`` when
    omitted; a caller taking many Y at one charge passes a memoized one.
    """
    orbital = orbital or hydrogenic_radial
    r1s = orbital(1, 0, z_star)
    return slater_radial(l, orbital(n, l, z_star), orbital(n_prime, l, z_star),
                         r1s, r1s)


def variational_ground_energy(z_star: float, z: float) -> float:
    """Expectation of H in the 1s^2 state at charge z_star, in ryd.

    <H> = -(4 Z* Z - 2 Z*^2 - (5/4) Z*), the textbook screened-charge
    expression with the electron-electron term (5/4) Z* from Y110.
    """
    _require_z_star(z_star)
    _require_z(z)
    return -(4.0 * z_star * z - 2.0 * z_star * z_star - 1.25 * z_star)


def optimal_zstar_ground(z: float) -> float:
    """Minimizer of the ground-state expectation: Z* = Z - 5/16."""
    _require_z(z)
    return z - 5.0 / 16.0


def channel_amplitude_sq(ch: HeliumChannel, z_star: float, z: float,
                         y: float, orbital: Orbital | None = None) -> float:
    """Squared matrix element |<channel| H' |1s^2>|^2 in ryd^2.

    ``y`` is the channel's Slater integral Y_nn'l at ``z_star``
    (``y_integral(ch.n, ch.n_prime, ch.l, z_star)``), which the caller
    passes so that channels differing only in m share one evaluation.
    The two-electron Coulomb part contributes
    2 A e^2 (-1)^m Y_nn'l / (2l+1) for every channel; the one-body
    screening part -2 A (Z - Z*) e^2 X_n' contributes only in the 1s n's
    channels (n = 1, so l = m = 0), where one orbital stays 1s, and
    interferes with the Coulomb part there. ``orbital`` builds the
    orbitals of X_n' as in ``x_integral``.
    """
    amp = 2.0 * ch.A * E2_RYD_A0 * ((-1.0) ** ch.m) * y / (2 * ch.l + 1)
    if ch.n == 1:
        amp += (-2.0 * ch.A * (z - z_star) * E2_RYD_A0
                * x_integral(ch.n_prime, z_star, orbital))
    return amp * amp


def enumerate_channels(n_max: int) -> list[HeliumChannel]:
    """All channels with n' <= n_max in deterministic order."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    out = []
    for n in range(1, n_max + 1):
        for n_prime in range(n, n_max + 1):
            if (n, n_prime) == (1, 1):
                continue
            for l in range(0, n):
                for m in range(0, l + 1):
                    out.append(HeliumChannel(n, n_prime, l, m))
    return out


def _m_weight(ch: HeliumChannel, m_range: str) -> float:
    """Degeneracy weight of a channel under the chosen m-sum policy.

    ``paper`` counts each listed (n, n', l, 0 <= m <= l) channel once.
    ``full`` restores the complete magnetic degeneracy: for n != n' the
    pairings (m, -m) and (-m, m) are distinct intermediate states, so every
    m > 0 channel carries weight 2; for n = n' the two pairings coincide.
    """
    if m_range == "paper":
        return 1.0
    if m_range == "full":
        return 2.0 if (ch.m > 0 and ch.n != ch.n_prime) else 1.0
    raise ValueError(f"m_range must be 'paper' or 'full', got {m_range!r}")


def second_order_by_n_prime(z_star: float, z: float, n_max: int,
                            m_range: str = "paper") -> dict[int, float]:
    """Second-order contribution grouped by the outer quantum number n'.

    Each distinct Slater integral Y_nn'l is taken once per call and shared
    by the channels that differ only in m, and each orbital R_nl is built
    once per call; nothing is kept between calls.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    _require_z(z)
    orbital = functools.cache(hydrogenic_radial)

    @functools.cache
    def y(n: int, n_prime: int, l: int) -> float:
        return y_integral(n, n_prime, l, z_star, orbital)

    buckets = {np: 0.0 for np in range(2, n_max + 1)}
    for ch in enumerate_channels(n_max):
        denom = -z_star * z_star * (2.0 - 1.0 / ch.n ** 2 - 1.0 / ch.n_prime ** 2)
        amp_sq = channel_amplitude_sq(ch, z_star, z,
                                      y(ch.n, ch.n_prime, ch.l), orbital)
        buckets[ch.n_prime] += _m_weight(ch, m_range) * amp_sq / denom
    return buckets


def second_order_correction(z_star: float, z: float, n_max: int,
                            m_range: str = "paper") -> float:
    """Second-order energy shift in ryd, discrete states through n' = n_max.

    Every term has a negative denominator -Z*^2 (2 - 1/n^2 - 1/n'^2), so
    the result is strictly negative and decreases monotonically with n_max.
    Continuum intermediate states are outside scope, so this is the shift
    of the truncated discrete sum, not of the complete spectrum.
    """
    return math.fsum(second_order_by_n_prime(z_star, z, n_max,
                                             m_range).values())


def excited_triplet_energy(z_star: float, z: float) -> float:
    """Expectation of H in the antisymmetrized 1s2s state, in ryd.

    <H> = (5/4) Z*^2 - (5/2) Z Z* + J - K with the direct and exchange
    Coulomb integrals of the (1s, 2s) pair evaluated from Slater integrals
    at the common charge z_star.
    """
    _require_z_star(z_star)
    _require_z(z)
    j, k = _direct_exchange_1s2s(z_star)
    return 1.25 * z_star * z_star - 2.5 * z * z_star + (j - k)


def optimal_zstar_excited(z: float) -> float:
    """Stationary effective charge of the 1s2s expectation.

    J - K is linear in the charge, so the optimum is
    Z* = Z - (2/5) d(J-K)/dZ*, with the slope taken from the Slater
    integrals at unit charge.
    """
    _require_z(z)
    j1, k1 = _direct_exchange_1s2s(1.0)
    return z - 0.4 * (j1 - k1)


def _direct_exchange_1s2s(z_star: float) -> tuple[float, float]:
    """Direct and exchange Coulomb integrals of the 1s2s pair, in ryd."""
    r10 = hydrogenic_radial(1, 0, z_star)
    r20 = hydrogenic_radial(2, 0, z_star)
    j = E2_RYD_A0 * slater_radial(0, r10, r20, r10, r20)
    k = E2_RYD_A0 * slater_radial(0, r10, r20, r20, r10)
    return j, k


def ground_state(z: float = 2.0, n_max: int = 7,
                 m_range: str = "paper") -> HeliumResult:
    """Full ground-state pipeline at the optimal effective charge."""
    zs = optimal_zstar_ground(z)
    e_var = variational_ground_energy(zs, z)
    by_n_prime = tuple(second_order_by_n_prime(zs, z, n_max, m_range).values())
    e2 = math.fsum(by_n_prime)
    return HeliumResult(z_star=zs, e_variational=e_var, e_second=e2,
                        e_total=e_var + e2, n_max=n_max,
                        e_second_by_n_prime=by_n_prime)
