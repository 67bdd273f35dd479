"""Independent eigenvalue oracles for -kappa psi'' + (k x^2 + b x^4) psi = E psi.

Two deliberately different routes: Taylor-series shooting on the half line
with parity initial conditions, and truncated-basis diagonalization of the
band Hamiltonian. Agreement between them is the package's definition of
"exact" for this potential. Shooting uses neither numpy nor scipy; both
load only when the diagonalization runs.
"""
from __future__ import annotations

import math
import sys
from typing import Sequence

from .model import AnharmonicSpec, hbar_omega
from .oscillator import OscBasis, build_hamiltonian


ORDER = 28  # degree of the Taylor polynomial taken per shooting step
_RECURRENCE = tuple(1.0 / ((j + 1) * (j + 2)) for j in range(ORDER - 1))
_ROOT_PREV, _ROOT_LAST = 1.0 / (ORDER - 1), 1.0 / ORDER
_SAFETY = 0.5  # shrinks the last terms by a further 2^-ORDER or so
_TINY = sys.float_info.min
ABS_TOL = 1e-10  # truncation bound per Taylor step, relative to max(1, |psi|)
MAX_ITER = 240  # combined budget of bracket-growth and search steps


class ConvergenceError(RuntimeError):
    """Eigenvalue search failed; carries search diagnostics."""

    def __init__(self, message: str, **diagnostics: object) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


def _integrate(spec: AnharmonicSpec, energy: float, parity: int,
               x_max: float) -> tuple[float, int]:
    """March psi from 0 to x_max; return (psi(x_max), node count).

    Taylor-series steps of fixed order ``ORDER`` on psi'' = q(x) psi with
    q(x) = (k x^2 + b x^4 - E) / kappa. Around each x0, q is re-expanded
    in powers of t = (x - x0) / H, H = pi / (2 sqrt(E / kappa)), and the
    series coefficients a_j of psi(x0 + H t) obey the five-term recurrence
    (j+1)(j+2) a_{j+2} = sum_{i<=4} q_i a_{j-i}. The step t <= 1 keeps the
    last two terms within ``ABS_TOL`` max(1, |psi|), so no step is ever
    rejected. As V >= 0, zeros of psi lie at least 2H apart (Sturm
    comparison with the free wave at energy E), so a step of at most H
    holds at most one of them and a sign change counts it exactly.
    """
    inv_kappa = 1.0 / spec.constants.kappa
    c2 = spec.stiffness_k * inv_kappa
    c4 = spec.quartic_b * inv_kappa
    ce = energy * inv_kappa
    big_h = 0.5 * math.pi / math.sqrt(ce)
    h2 = big_h * big_h
    h4 = h2 * h2

    y0, y1 = (1.0, 0.0) if parity == 0 else (0.0, 1.0)
    x = 0.0
    nodes = 0
    last_sign = 1.0  # psi first moves positive for either parity
    while x < x_max:
        # H^2 q(x + H t) = q0 + q1 t + ... + q4 t^4
        s = x * x
        q0 = ((c4 * s + c2) * s - ce) * h2
        q1 = (4.0 * c4 * s + 2.0 * c2) * x * h2 * big_h
        q2 = (6.0 * c4 * s + c2) * h4
        q3 = 4.0 * c4 * x * h4 * big_h
        q4 = c4 * h4 * h2
        a = [0.0, 0.0, 0.0, 0.0, y0, y1 * big_h]
        for j, inv in enumerate(_RECURRENCE):
            a.append((q0 * a[j + 4] + q1 * a[j + 3] + q2 * a[j + 2]
                      + q3 * a[j + 1] + q4 * a[j]) * inv)
        tol = ABS_TOL * max(1.0, abs(y0))
        t = min(1.0, (x_max - x) / big_h,
                _SAFETY * (tol / max(abs(a[-2]), _TINY)) ** _ROOT_PREV,
                _SAFETY * (tol / max(abs(a[-1]), _TINY)) ** _ROOT_LAST)
        # Horner's rule for psi and d psi / dt at t
        u, v = a[-1], 0.0
        for c in reversed(a[4:-1]):
            v = v * t + u
            u = u * t + c
        x += t * big_h
        y0, y1 = u, v / big_h
        if y0 != 0.0:
            if (y0 < 0.0) != (last_sign < 0.0):
                nodes += 1
            last_sign = y0
    return y0, nodes


def _default_x_max(spec: AnharmonicSpec, energy: float) -> float:
    """Box half-width: the wall clears E by 25 quanta and 25 decay lengths."""
    k = spec.stiffness_k
    b = spec.quartic_b
    kappa = spec.constants.kappa
    hw = hbar_omega(spec)

    def wall(v: float) -> float:
        # outer root of k x^2 + b x^4 = v, in a form that needs no b = 0
        # branch and cannot overflow at huge b
        root = math.hypot(k, 2.0 * math.sqrt(b) * math.sqrt(v))
        return math.sqrt(2.0 * v / (k + root))

    x_margin = wall(energy + 25.0 * hw)
    # march the decay integral int sqrt((V-E)/kappa) dx to 25
    x = wall(energy)
    dx = 0.01 * x  # sized by the turning point, whatever its scale
    s = 0.0
    f_here = 0.0
    while s < 25.0:
        x_next = x + dx
        v_next = (k + b * x_next * x_next) * x_next * x_next - energy
        f_next = math.sqrt(max(v_next, 0.0) / kappa)
        s += 0.5 * (f_here + f_next) * dx
        x, f_here = x_next, f_next
    return max(x, x_margin)


def shoot_eigenvalue(spec: AnharmonicSpec, n: int,
                     energy_tol: float = 1e-9) -> float:
    """n-th eigenvalue by parity shooting: node-count bracket, then refine.

    Even n integrates with psi(0)=1, psi'(0)=0, odd n with psi(0)=0,
    psi'(0)=1, so only [0, x_max] is traversed and the target node count on
    the open half line is floor(n/2). The eigenvalue is where a node enters
    through the far boundary. The first upper end is the larger of
    hbar omega (n + 3/2) and the pure-quartic scale
    kappa^(2/3) b^(1/3) (n + 1)^(4/3), grown by 1.4x until it holds more
    than floor(n/2) nodes. Node counting keeps the search on level n:
    the energy is bisected on the count until the bracket [lo, hi] holds a
    single count change, nodes(lo) = n//2 and nodes(hi) = n//2 + 1. Inside
    that bracket psi(x_max), whose sign is (-1)^nodes, crosses zero once,
    and Illinois regula falsi on it (x_max held fixed) picks the next
    trial. Every trial still moves lo or hi by its node count, a trial that
    lands outside the two counts sends the next step back to bisection,
    and the midpoint is returned once hi - lo <= max(``energy_tol``,
    8 eps hi), as no narrower bracket can be split: a width, not an
    accuracy bound. ``MAX_ITER`` trials bound growth and search together.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not (energy_tol > 0.0 and math.isfinite(energy_tol)):
        raise ValueError("energy_tol must be finite and > 0")
    parity = n % 2
    target = n // 2
    hw = hbar_omega(spec)
    budget = MAX_ITER

    e_lo = 0.0
    # the pure-quartic scale keeps bracket growth short at huge b
    e_hi = max(hw * (n + 1.5), spec.constants.kappa ** (2.0 / 3.0)
               * spec.quartic_b ** (1.0 / 3.0) * (n + 1) ** (4.0 / 3.0))
    x_max = _default_x_max(spec, e_hi)

    def shoot(e: float) -> tuple[float, int]:
        return _integrate(spec, e, parity, x_max)

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
        x_max = _default_x_max(spec, e_hi)
        psi_hi, nodes_hi = shoot(e_hi)
    if e_lo > 0.0:
        # the grown bracket's lower end, integrated on the final x_max
        psi_lo, nodes_lo = shoot(e_lo)

    lo, hi = e_lo, e_hi
    # a bracket narrower than a few ulps of E cannot be split
    width = max(energy_tol, 8.0 * sys.float_info.epsilon * hi)
    # regula falsi trials stay pad clear of both ends, so the far end also
    # moves once the near one has converged
    pad = 0.5 * width
    kept = 0  # +1 / -1 while trials keep replacing hi / lo
    while hi - lo > width:
        budget -= 1
        if budget <= 0:
            raise ConvergenceError(
                f"search budget exhausted for level n={n}",
                n=n, e_lo=lo, e_hi=hi, width=hi - lo,
                energy_tol=energy_tol)
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
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    if dim < n_levels + 20:
        raise ValueError(f"dim must be >= n_levels + 20, got {dim}")
    import numpy as np  # only this oracle needs numpy and scipy (~0.3 s)
    from scipy.linalg import eig_banded

    u = hbar_omega(spec) if basis_u is None else basis_u
    basis = OscBasis(hbar_Omega=u, kappa=spec.constants.kappa)
    bands = build_hamiltonian(spec, basis, dim)
    try:
        w = eig_banded(bands, lower=True, eigvals_only=True,
                       select="i", select_range=(0, n_levels - 1))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"band eigensolver failed: {exc}",
                               dim=dim, basis_u=u) from exc
    return [float(v) for v in w]
