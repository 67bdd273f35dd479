"""Independent eigenvalue oracles for -kappa psi'' + (k x^2 + b x^4) psi = E psi.

Two deliberately different routes: adaptive Runge-Kutta-Fehlberg shooting on
the half line with parity initial conditions, and truncated-basis
diagonalization of the band Hamiltonian. Agreement between them is the
package's definition of "exact" for this potential.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import AnharmonicSpec, hbar_omega
from .oscillator import OscBasis, build_hamiltonian


class ConvergenceError(RuntimeError):
    """Eigenvalue search failed; carries search diagnostics."""

    def __init__(self, message: str, **diagnostics: object) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class ShootingConfig:
    """Numerical knobs of the shooting search.

    ``x_max`` overrides the integration half-width when positive; by default
    the width is sized per energy so that the potential wall both exceeds
    E by 25 harmonic quanta and accumulates 25 WKB decay constants beyond
    the turning point, keeping boundary contamination of the eigenvalue
    below 1e-10. ``abs_tol`` is the local ODE error tolerance (at most
    1e-6), ``energy_tol`` the final width of the energy bracket, and
    ``max_iter`` the combined budget of bracket-growth and search steps.
    """

    x_max: float = 0.0
    abs_tol: float = 1e-10
    energy_tol: float = 1e-9
    max_iter: int = 240

    def __post_init__(self) -> None:
        if not 0.0 < self.abs_tol <= 1e-6:
            raise ValueError("abs_tol must lie in (0, 1e-6]")
        if not (self.energy_tol > 0.0 and math.isfinite(self.energy_tol)):
            raise ValueError("energy_tol must be finite and > 0")
        if not math.isfinite(self.x_max):
            raise ValueError("x_max must be finite")
        if self.max_iter < 8:
            raise ValueError("max_iter must be >= 8")


def _integrate(spec: AnharmonicSpec, energy: float, parity: int,
               x_max: float, abs_tol: float) -> tuple[float, int]:
    """March psi from 0 to x_max; return (psi(x_max), node count).

    Adaptive Runge-Kutta-Fehlberg 4(5) on psi' = p, p' = q(x) psi with
    q(x) = (k x^2 + b x^4 - E) / kappa, advancing with the 5th-order
    combination. Each stage is written out: u, v are the stage values of
    psi and p, and w = q u is the stage slope of p.
    """
    inv_kappa = 1.0 / spec.constants.kappa
    c2 = spec.stiffness_k * inv_kappa
    c4 = spec.quartic_b * inv_kappa
    ce = energy * inv_kappa

    y0, y1 = (1.0, 0.0) if parity == 0 else (0.0, 1.0)
    x = 0.0
    h = min(1e-3, 0.01 * x_max)
    nodes = 0
    last_sign = 1.0  # psi first moves positive for either parity
    while x < x_max:
        if x + h > x_max:
            h = x_max - x
        s = x * x
        w1 = ((c2 + c4 * s) * s - ce) * y0
        u2 = y0 + h * (1.0 / 4.0) * y1
        v2 = y1 + h * (1.0 / 4.0) * w1
        t = x + (1.0 / 4.0) * h
        s = t * t
        w2 = ((c2 + c4 * s) * s - ce) * u2
        u3 = y0 + h * (3.0 / 32.0 * y1 + 9.0 / 32.0 * v2)
        v3 = y1 + h * (3.0 / 32.0 * w1 + 9.0 / 32.0 * w2)
        t = x + (3.0 / 8.0) * h
        s = t * t
        w3 = ((c2 + c4 * s) * s - ce) * u3
        u4 = y0 + h * (1932.0 / 2197.0 * y1 - 7200.0 / 2197.0 * v2
                       + 7296.0 / 2197.0 * v3)
        v4 = y1 + h * (1932.0 / 2197.0 * w1 - 7200.0 / 2197.0 * w2
                       + 7296.0 / 2197.0 * w3)
        t = x + (12.0 / 13.0) * h
        s = t * t
        w4 = ((c2 + c4 * s) * s - ce) * u4
        u5 = y0 + h * (439.0 / 216.0 * y1 - 8.0 * v2 + 3680.0 / 513.0 * v3
                       - 845.0 / 4104.0 * v4)
        v5 = y1 + h * (439.0 / 216.0 * w1 - 8.0 * w2 + 3680.0 / 513.0 * w3
                       - 845.0 / 4104.0 * w4)
        t = x + h
        s = t * t
        w5 = ((c2 + c4 * s) * s - ce) * u5
        u6 = y0 + h * (-8.0 / 27.0 * y1 + 2.0 * v2 - 3544.0 / 2565.0 * v3
                       + 1859.0 / 4104.0 * v4 - 11.0 / 40.0 * v5)
        v6 = y1 + h * (-8.0 / 27.0 * w1 + 2.0 * w2 - 3544.0 / 2565.0 * w3
                       + 1859.0 / 4104.0 * w4 - 11.0 / 40.0 * w5)
        t = x + (1.0 / 2.0) * h
        s = t * t
        w6 = ((c2 + c4 * s) * s - ce) * u6
        n0 = y0 + h * (16.0 / 135.0 * y1 + 6656.0 / 12825.0 * v3
                       + 28561.0 / 56430.0 * v4 - 9.0 / 50.0 * v5
                       + 2.0 / 55.0 * v6)
        n1 = y1 + h * (16.0 / 135.0 * w1 + 6656.0 / 12825.0 * w3
                       + 28561.0 / 56430.0 * w4 - 9.0 / 50.0 * w5
                       + 2.0 / 55.0 * w6)
        e0 = h * (1.0 / 360.0 * y1 - 128.0 / 4275.0 * v3
                  - 2197.0 / 75240.0 * v4 + 1.0 / 50.0 * v5 + 2.0 / 55.0 * v6)
        e1 = h * (1.0 / 360.0 * w1 - 128.0 / 4275.0 * w3
                  - 2197.0 / 75240.0 * w4 + 1.0 / 50.0 * w5 + 2.0 / 55.0 * w6)
        err = max(abs(e0), abs(e1))
        tol = abs_tol * max(1.0, abs(n0), abs(n1))
        if err <= tol or h <= 1e-12:
            x += h
            y0, y1 = n0, n1
            if y0 != 0.0:
                if (y0 < 0.0) != (last_sign < 0.0):
                    nodes += 1
                last_sign = y0
        if err > 0.0:
            h *= min(4.0, max(0.1, 0.9 * (tol / err) ** 0.2))
        else:
            h *= 4.0
    return y0, nodes


def _default_x_max(spec: AnharmonicSpec, energy: float) -> float:
    """Half-width combining the energy-margin and WKB-decay criteria."""
    k = spec.stiffness_k
    b = spec.quartic_b
    kappa = spec.constants.kappa
    hw = hbar_omega(spec)

    def wall(v: float) -> float:
        # outer solution of k x^2 + b x^4 = v
        if b == 0.0:
            return math.sqrt(v / k)
        x2 = (-k + math.sqrt(k * k + 4.0 * b * v)) / (2.0 * b)
        return math.sqrt(x2)

    x_margin = wall(energy + 25.0 * hw)
    # march the decay integral int sqrt((V-E)/kappa) dx to 25
    x = wall(max(energy, 1e-12))
    dx = 0.01 * max(x, 1.0)
    s = 0.0
    f_here = 0.0
    while s < 25.0:
        x_next = x + dx
        v_next = k * x_next * x_next + b * x_next ** 4 - energy
        f_next = math.sqrt(max(v_next, 0.0) / kappa)
        s += 0.5 * (f_here + f_next) * dx
        x, f_here = x_next, f_next
    return max(x, x_margin)


def shoot_eigenvalue(spec: AnharmonicSpec, n: int,
                     cfg: ShootingConfig = ShootingConfig()) -> float:
    """n-th eigenvalue by parity shooting: node-count bracket, then refine.

    Even n integrates with psi(0)=1, psi'(0)=0, odd n with psi(0)=0,
    psi'(0)=1, so only [0, x_max] is traversed and the target node count on
    the open half line is floor(n/2). The eigenvalue is where a node enters
    through the far boundary. Node counting keeps the search on level n:
    the energy is bisected on the count until the bracket [lo, hi] holds a
    single count change, nodes(lo) = n//2 and nodes(hi) = n//2 + 1. Inside
    that bracket psi(x_max), whose sign is (-1)^nodes, crosses zero once,
    and Illinois regula falsi on it (x_max held fixed) picks the next
    trial. Every trial still moves lo or hi by its node count, a trial that
    lands outside the two counts sends the next step back to bisection,
    and the midpoint is returned once hi - lo <= ``energy_tol``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    parity = n % 2
    target = n // 2
    hw = hbar_omega(spec)
    budget = cfg.max_iter

    e_lo = 0.0
    e_hi = hw * (n + 1.5)
    x_max = cfg.x_max if cfg.x_max > 0.0 else _default_x_max(spec, e_hi)

    def shoot(e: float) -> tuple[float, int]:
        return _integrate(spec, e, parity, x_max, cfg.abs_tol)

    psi_hi, nodes_hi = shoot(e_hi)
    psi_lo, nodes_lo = 0.0, -1  # E = 0 is not integrated: bisect first
    while nodes_hi <= target:
        budget -= 1
        if budget <= 0:
            raise ConvergenceError(
                f"no bracket for level n={n} within iteration budget",
                n=n, e_hi=e_hi, nodes=nodes_hi, target=target)
        e_lo = e_hi
        e_hi *= 1.4
        if cfg.x_max <= 0.0:
            x_max = _default_x_max(spec, e_hi)
        psi_hi, nodes_hi = shoot(e_hi)
    if e_lo > 0.0:
        # the grown bracket's lower end, integrated on the final x_max
        psi_lo, nodes_lo = shoot(e_lo)

    lo, hi = e_lo, e_hi
    # regula falsi trials stay pad clear of both ends, so the far end also
    # moves once the near one has converged
    pad = 0.5 * cfg.energy_tol
    kept = 0  # +1 / -1 while trials keep replacing hi / lo
    while hi - lo > cfg.energy_tol:
        budget -= 1
        if budget <= 0:
            raise ConvergenceError(
                f"search budget exhausted for level n={n}",
                n=n, e_lo=lo, e_hi=hi, width=hi - lo,
                energy_tol=cfg.energy_tol)
        trial = 0.5 * (lo + hi)
        if nodes_lo == target and nodes_hi == target + 1:
            # the counts differ by one, so psi_lo and psi_hi differ in sign
            trial = min(max(lo - psi_lo * (hi - lo) / (psi_hi - psi_lo),
                            lo + pad), hi - pad)
        psi, nodes = shoot(trial)
        if nodes > target:
            hi, psi_hi, nodes_hi = trial, psi, nodes
            if kept > 0:
                psi_lo *= 0.5  # Illinois: halve the end kept twice
            kept = 1
        else:
            lo, psi_lo, nodes_lo = trial, psi, nodes
            if kept < 0:
                psi_hi *= 0.5
            kept = -1
    return 0.5 * (lo + hi)


def diag_eigenvalues(spec: AnharmonicSpec, dim: int = 120,
                     basis_u: float | None = None,
                     n_levels: int = 4) -> Sequence[float]:
    """Lowest eigenvalues from band diagonalization, ascending.

    ``basis_u`` selects the basis quantum (hbar omega when omitted); results
    are basis independent once ``dim`` is converged. Requires
    dim >= n_levels + 20 so the top of the truncated spectrum cannot
    contaminate the requested levels.
    """
    from scipy.linalg import eig_banded  # costs ~0.3 s; only this oracle needs it

    if dim < n_levels + 20:
        raise ValueError(f"dim must be >= n_levels + 20, got {dim}")
    u = hbar_omega(spec) if basis_u is None else basis_u
    basis = OscBasis(hbar_Omega=u, kappa=spec.constants.kappa)
    ham = build_hamiltonian(spec, basis, dim)
    try:
        w = eig_banded(ham.bands, lower=True, eigvals_only=True,
                       select="i", select_range=(0, n_levels - 1))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"band eigensolver failed: {exc}",
                               dim=dim, basis_u=u) from exc
    return [float(v) for v in w]
