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
from typing import Callable

from .model import _require_positive
from .polyexp import PolyExp, polyexp_moment, slater_radial

E2_RYD_A0 = 2.0        # e^2 in ryd a0
INV_SQRT2 = 1.0 / math.sqrt(2.0)
Orbital = Callable[[int, int, float], PolyExp]  # (n, l, z_star) -> R_nl


@dataclass(frozen=True)
class HeliumResult:
    """Ground-state summary: variational energy plus second-order shift.

    ``e_second_by_n_prime`` holds the second-order contributions of
    n' = 2, 3, ..., n_max in that order; ``e_second`` is their sum.
    """

    z_star: float
    e_variational: float
    e_second: float
    n_max: int
    e_second_by_n_prime: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.e_second > 0.0:
            raise ValueError("ground-state second-order shift must be <= 0")

    @property
    def e_total(self) -> float:
        """Energy through second order, e_variational + e_second."""
        return self.e_variational + self.e_second


def _require_z(z: float) -> None:
    if not (z >= 1.0 and math.isfinite(z)):
        raise ValueError(f"z must be finite and >= 1, got {z}")


def hydrogenic_radial(n: int, l: int, z_star: float) -> PolyExp:
    """Normalized hydrogenic R_nl at effective charge z_star, r in a0.

    R_nl(r) = N (2 z r / n)^l L^(2l+1)_(n-l-1)(2 z r / n) exp(-z r / n)
    with N^2 = (2z/n)^3 (n-l-1)! / (2n (n+l)!). The Laguerre expansion
    L^a_k(x) = sum_j (-1)^j C(k+a, k-j) x^j / j! gives each coefficient as
    an integer over the common denominator k! bottom^(l+k), from powers of
    top = 2 num(z) and bottom = n den(z), and N^2 as one correctly rounded
    int / int division; only sqrt is floating.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= l <= n - 1:
        raise ValueError(f"need 0 <= l <= n-1, got l={l}, n={n}")
    _require_positive("z_star", z_star)
    z_num, z_den = z_star.as_integer_ratio()
    top, bottom = 2 * z_num, n * z_den  # 2 z / n = top/bottom
    k = n - l - 1
    # a list, not a generator, for the tuple: CPython grows its small-tuple
    # free lists by one tuple per generator unpacked, up to about half a MB
    terms = [((-1) ** j * math.comb(n + l, k - j) * top ** (l + j)
              * bottom ** (k - j) * (math.factorial(k) // math.factorial(j)),
              l + j) for j in range(k + 1)]
    try:
        scale = math.sqrt(top ** 3 * math.factorial(k)
                          / (bottom ** 3 * 2 * n * math.factorial(n + l)))
    except OverflowError:
        raise ValueError(f"z_star={z_star!r} overflows R_{n}{l}") from None
    return PolyExp(terms=tuple(terms), den=math.factorial(k) * bottom ** (l + k),
                   rate=(z_num, bottom), scale=scale)


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
    omitted; a caller taking many Y at one charge passes a memoized one,
    whose orbitals keep their transition densities r^2 R_nl R_10.
    """
    orbital = orbital or hydrogenic_radial
    r1s = orbital(1, 0, z_star)
    return slater_radial(l, orbital(n, l, z_star), orbital(n_prime, l, z_star),
                         r1s, r1s)


def variational_ground_energy(z_star: float, z: float) -> float:
    """Expectation of H in the 1s^2 state at charge z_star, in ryd.

    <H> = -(4 Z* Z - 2 Z*^2 - (5/4) Z*), the textbook screened-charge
    expression with the electron-electron term (5/4) Z* from Y110. A
    term past the float range (4 Z* Z from Z* = Z = 6.7e153) raises.
    """
    _require_positive("z_star", z_star)
    _require_z(z)
    energy = -(4.0 * z_star * z - 2.0 * z_star * z_star - 1.25 * z_star)
    if not math.isfinite(energy):
        raise ValueError(f"<H> at z_star={z_star!r} leaves the float range")
    return energy


def optimal_zstar_ground(z: float) -> float:
    """Minimizer of the ground-state expectation: Z* = Z - 5/16."""
    _require_z(z)
    return z - 5.0 / 16.0


def second_order_by_n_prime(z_star: float, z: float, n_max: int,
                            m_range: str = "paper") -> dict[int, float]:
    """Second-order contribution grouped by the outer quantum number n'.

    The intermediate states are the channels (n, n', l, m), one per
    unordered orbital pair: 1 <= n <= n' <= n_max with (n, n') != (1, 1),
    0 <= l <= n-1 and 0 <= m <= l, at the energy denominator
    -Z*^2 (2 - 1/n^2 - 1/n'^2). The Coulomb part of H' couples each to
    1s^2 with amplitude 2 A e^2 (-1)^m Y_nn'l / (2l+1), where the
    symmetrization factor A is 1/2 for identical orbitals (n = n', m = 0)
    and 1/sqrt(2) otherwise. For n = 1 (so l = m = 0), where one orbital
    stays 1s, the screening part adds -2 A (Z - Z*) e^2 X_n'.

    ``paper`` counts each channel once. ``full`` restores the complete
    magnetic degeneracy: for n != n' the pairings (m, -m) and (-m, m) are
    distinct intermediate states, so every m > 0 channel carries weight 2;
    for n = n' the two pairings coincide.

    Each Y_nn'l is taken once per call, shared by the channels that differ
    only in m. Each orbital R_nl, its Slater side r^2 R_nl R_10 with that
    side's moments, and the sigma tables of each (n, n') (kept on R_10)
    are formed once per call; nothing is kept between calls. A sum past
    the float range (Z = 1e160 at Z* = 1) raises ``ValueError``.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    _require_z(z)
    if m_range not in ("paper", "full"):
        raise ValueError(f"m_range must be 'paper' or 'full', got {m_range!r}")
    full = m_range == "full"
    orbital = functools.cache(hydrogenic_radial)

    buckets = {np: 0.0 for np in range(2, n_max + 1)}
    for n in range(1, n_max + 1):
        for n_prime in range(max(n, 2), n_max + 1):
            denom = -z_star * z_star * (2.0 - 1.0 / n ** 2 - 1.0 / n_prime ** 2)
            for l in range(n):
                y = y_integral(n, n_prime, l, z_star, orbital)
                for m in range(l + 1):
                    a = 0.5 if n == n_prime and m == 0 else INV_SQRT2
                    amp = 2.0 * a * E2_RYD_A0 * ((-1.0) ** m) * y / (2 * l + 1)
                    if n == 1:
                        amp += (-2.0 * a * (z - z_star) * E2_RYD_A0
                                * x_integral(n_prime, z_star, orbital))
                    weight = 2.0 if full and m > 0 and n != n_prime else 1.0
                    buckets[n_prime] += weight * (amp * amp) / denom
    try:  # every term is <= 0, so fsum overflows only where the total does
        if math.isfinite(math.fsum(buckets.values())):
            return buckets
    except OverflowError:
        pass
    raise ValueError(f"second order at z_star={z_star!r}, z={z!r} overflows")


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
    at the common charge z_star. A term past the float range (2.5 Z Z*
    from Z* = 1, Z = 1.7e308) raises ``ValueError``.
    """
    _require_positive("z_star", z_star)
    _require_z(z)
    j, k = _direct_exchange_1s2s(z_star)
    energy = 1.25 * z_star * z_star - 2.5 * z * z_star + (j - k)
    if not math.isfinite(energy):
        raise ValueError(f"<H> at z_star={z_star!r} leaves the float range")
    return energy


def optimal_zstar_excited(z: float) -> float:
    """Stationary effective charge of the 1s2s expectation.

    J - K is linear in the charge, so the optimum is
    Z* = Z - (2/5) d(J-K)/dZ*, with the slope taken from the Slater
    integrals at unit charge, formed once per process.
    """
    _require_z(z)
    j1, k1 = _unit_direct_exchange()
    return z - 0.4 * (j1 - k1)


@functools.cache
def _unit_direct_exchange() -> tuple[float, float]:
    """``_direct_exchange_1s2s(1.0)``, kept for the process."""
    return _direct_exchange_1s2s(1.0)


def _direct_exchange_1s2s(z_star: float) -> tuple[float, float]:
    """Direct and exchange Coulomb integrals of the 1s2s pair, in ryd."""
    r10 = hydrogenic_radial(1, 0, z_star)
    r20 = hydrogenic_radial(2, 0, z_star)
    j = E2_RYD_A0 * slater_radial(0, r10, r20, r10, r20)
    k = E2_RYD_A0 * slater_radial(0, r10, r20, r20, r10)
    return j, k


def ground_state(z: float = 2.0, n_max: int = 7,
                 m_range: str = "paper") -> HeliumResult:
    """Full ground-state pipeline at the optimal effective charge.

    Returns a finite result with e_second < 0 or raises ``ValueError``: from
    Z = 2.0e51 "Slater integral R^0 leaves the float range", as the product
    of the four orbital scales overflows, and from Z = 3.6e102
    ``hydrogenic_radial`` refuses first.
    """
    zs = optimal_zstar_ground(z)
    e_var = variational_ground_energy(zs, z)
    by_n_prime = tuple(second_order_by_n_prime(zs, z, n_max, m_range).values())
    e2 = math.fsum(by_n_prime)
    return HeliumResult(z_star=zs, e_variational=e_var, e_second=e2,
                        n_max=n_max, e_second_by_n_prime=by_n_prime)
