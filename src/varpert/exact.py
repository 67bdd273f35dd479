"""Independent eigenvalue oracles for -kappa psi'' + (k x^2 + b x^4) psi = E psi.

Two deliberately different routes: Taylor-series shooting on the half line
with parity initial conditions, and truncated-basis diagonalization of the
Hamiltonian's two parity blocks. Agreement between them is the package's
definition of "exact" for this potential. Shooting is pure Python; numpy
loads only when the diagonalization runs.
"""
from __future__ import annotations

import math
import sys
from typing import Sequence

from .anharmonic import _omega
from .model import AnharmonicSpec, _require_positive, hbar_omega
from .oscillator import build_hamiltonian


ORDER = 28  # degree of the Taylor polynomial taken per shooting step
_RECURRENCE = tuple(1.0 / ((j + 1) * (j + 2)) for j in range(ORDER - 1))
_ROOT_PREV, _ROOT_LAST = 1.0 / (ORDER - 1), 1.0 / ORDER
_SAFETY = 0.5  # shrinks the last terms by a further 2^-ORDER or so
_TINY = sys.float_info.min
ABS_TOL = 1e-10  # truncation bound per Taylor step, relative to psi's scale
REL_WIDTH = 1e-9  # widest final bracket relative to its first upper end
MAX_ITER = 240  # combined budget of bracket-growth and search steps
GUESS_WIDTH = 0.02  # half-width of a guided first bracket, relative to guess
# most weight a level may keep on the top 10 states of its parity block in
# any diagonalization basis: converged levels measure 1e-28 or less, and a
# far-off basis 1e-5 or more
TAIL_WEIGHT = 1e-20


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
    last two terms within ``ABS_TOL`` max(s, |psi|), so no step is ever
    rejected; psi's scale s is 1 for even parity and, as psi'(0) = 1, H
    for odd. As V >= 0, zeros of psi lie at least 2H apart (Sturm
    comparison with the free wave at energy E), so a step of at most H
    holds at most one of them and a sign change counts it exactly.
    """
    inv_kappa = 1.0 / spec.kappa
    c2 = spec.stiffness_k * inv_kappa
    c4 = spec.quartic_b * inv_kappa
    ce = energy * inv_kappa
    big_h = 0.5 * math.pi / math.sqrt(ce)
    h2 = big_h * big_h
    h4 = h2 * h2
    if h4 == math.inf:  # q2 to q4 would be inf, or nan at b = 0 or x = 0
        raise ValueError(f"energy={energy!r} eV is too small to shoot: the "
                         f"step scale H^4 = (pi/2)^4 (kappa/E)^2 overflows")

    y0, y1, scale = (1.0, 0.0, 1.0) if parity == 0 else (0.0, 1.0, big_h)
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
        # a_j ... a_{j-4} and a_{j+1} slide through locals; a keeps
        # a_0 ... a_{ORDER-1} and a_ORDER ends in a_next
        a_j, a_next = y0, y1 * big_h
        a_1 = a_2 = a_3 = a_4 = 0.0
        a = [a_j]
        for inv in _RECURRENCE:
            a_new = (q0 * a_j + q1 * a_1 + q2 * a_2 + q3 * a_3 + q4 * a_4) * inv
            # two three-name swaps build no tuple, unlike one six-name swap
            a_4, a_3, a_2 = a_3, a_2, a_1
            a_1, a_j, a_next = a_j, a_next, a_new
            a.append(a_j)
        tol = ABS_TOL * max(scale, abs(y0))
        t = min(1.0, (x_max - x) / big_h,
                _SAFETY * (tol / max(abs(a_j), _TINY)) ** _ROOT_PREV,
                _SAFETY * (tol / max(abs(a_next), _TINY)) ** _ROOT_LAST)
        # Horner's rule for psi and d psi / dt at t
        u, v = a_next, 0.0
        for c in reversed(a):
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
    """Box half-width: the wall clears E by 25 decay lengths."""
    k = spec.stiffness_k
    b = spec.quartic_b
    kappa = spec.kappa
    # the turning point, the outer root of k x^2 + b x^4 = E, in a form that
    # needs no b = 0 branch and cannot overflow at huge b
    root = math.hypot(k, 2.0 * math.sqrt(b) * math.sqrt(energy))
    x = math.sqrt(2.0 * energy / (k + root))
    # march the decay integral int sqrt((V-E)/kappa) dx to 25
    dx = 0.01 * x  # sized by the turning point, whatever its scale
    s = 0.0
    f_here = 0.0
    while s < 25.0:
        x_next = x + dx
        v_next = (k + b * x_next * x_next) * x_next * x_next - energy
        f_next = math.sqrt(max(v_next, 0.0) / kappa)
        s += 0.5 * (f_here + f_next) * dx
        x, f_here = x_next, f_next
    return x


def shoot_eigenvalue(spec: AnharmonicSpec, n: int, energy_tol: float = 1e-9,
                     *, guess: float | None = None) -> float:
    """n-th eigenvalue by parity shooting: node-count bracket, then refine.

    Even n integrates with psi(0)=1, psi'(0)=0, odd n with psi(0)=0,
    psi'(0)=1, so only [0, x_max] is traversed and the target node count on
    the open half line is floor(n/2). The eigenvalue is where a node enters
    through the far boundary. The first bracket is [0, hi], hi the larger
    of hbar omega (n + 3/2) and the pure-quartic scale
    kappa^(2/3) b^(1/3) (n + 1)^(4/3). A ``guess`` of E_n (finite and > 0,
    or ``ValueError``), such as the present-scheme energy, is held within
    [hi / 4, 4 hi] and makes the first bracket guess (1 -+ ``GUESS_WIDTH``).
    The upper end grows by 1.4x, its old value becoming the lower end,
    until it holds more than floor(n/2) nodes; a lower end holding more
    becomes the upper end over a lower end of 0. A guess thus only places
    the first bracket, and a wrong one costs integrations only. Node
    counting keeps the search on level n:
    the energy is bisected on the count until the bracket [lo, hi] holds a
    single count change, nodes(lo) = n//2 and nodes(hi) = n//2 + 1. Inside
    that bracket psi(x_max), whose sign is (-1)^nodes, crosses zero once,
    and Illinois regula falsi on it (x_max held fixed) picks the next
    trial. Every trial still moves lo or hi by its node count, a trial that
    lands outside the two counts sends the next step back to bisection,
    and the midpoint is returned once hi - lo <= max(min(``energy_tol``,
    ``REL_WIDTH`` hi), 8 eps hi), hi the upper end the search starts from,
    as a level far below ``energy_tol`` still needs splitting and no
    narrower bracket can be split: a width, not an accuracy bound, so a
    guided result can differ from the unguided one within it. ``MAX_ITER``
    trials bound growth and search together. A trial energy whose step
    scale H^4 = (pi/2)^4 (kappa/E)^2 overflows (E below 7.0e-154 eV at the
    electron kappa) raises ``ValueError``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _require_positive("energy_tol", energy_tol)
    parity = n % 2
    target = n // 2
    hw = hbar_omega(spec)
    budget = MAX_ITER

    e_lo = 0.0
    # the pure-quartic scale keeps bracket growth short at huge b
    e_hi = max(hw * (n + 1.5), spec.kappa ** (2.0 / 3.0)
               * spec.quartic_b ** (1.0 / 3.0) * (n + 1) ** (4.0 / 3.0))
    if guess is not None:
        _require_positive("guess", guess)
        # E_n / e_hi measures 1/3 (b = 0) to 2.2, and a guess far outside
        # would size an endless box or step count
        guess = min(max(guess, 0.25 * e_hi), 4.0 * e_hi)
        e_lo, e_hi = guess * (1.0 - GUESS_WIDTH), guess * (1.0 + GUESS_WIDTH)
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
        # the guided or grown bracket's lower end, on the final x_max
        psi_lo, nodes_lo = shoot(e_lo)
        if nodes_lo > target:
            # the lower end lies above level n, as a too-high guess's does
            e_hi, psi_hi, nodes_hi = e_lo, psi_lo, nodes_lo
            e_lo, psi_lo, nodes_lo = 0.0, 0.0, -1

    lo, hi = e_lo, e_hi
    # a bracket narrower than a few ulps of E cannot be split
    width = max(min(energy_tol, REL_WIDTH * hi),
                8.0 * sys.float_info.epsilon * hi)
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


def diag_eigenvalues(spec: AnharmonicSpec, dim: int = 100,
                     basis_u: float | None = None,
                     n_levels: int = 4) -> Sequence[float]:
    """Lowest eigenvalues from diagonalization in an oscillator basis.

    ``basis_u`` selects the basis quantum, hbar Omega_n of the middle level
    n = n_levels // 2 by default; results are basis independent once ``dim``
    is converged. Level n is index n // 2 of parity block n % 2, each block
    diagonalized by ``numpy.linalg.eigvalsh``. ``dim``, 100 by default,
    must be at least n_levels + 20. Every basis, default or explicit, is
    checked: the top requested level of each block, which keeps the
    block's largest weight on its top 10 states, must keep at most
    ``TAIL_WEIGHT`` there, or ``ConvergenceError`` is raised.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    if dim < n_levels + 20:
        raise ValueError(f"dim must be >= n_levels + 20, got {dim}")
    import numpy as np  # only this oracle needs numpy

    u = _omega(spec, n_levels // 2)[0] if basis_u is None else basis_u
    # an infinite or extreme basis_u (or b) overflows the x^2 and x^4 terms
    if not (math.isfinite(u)
            and np.isfinite(h := build_hamiltonian(spec, u, dim)).all()):
        raise ValueError(f"basis_u={u!r} gives a non-finite Hamiltonian")
    blocks = [h[p::2, p::2] for p in (0, 1)]
    try:
        levels = [np.linalg.eigvalsh(block) for block in blocks]
        # the top requested level of each block keeps the block's largest
        # weight on its top states: one inverse-iteration step from its
        # eigenvalue lam gives its vector, whose size the right side lam
        # holds near 1 / (64 eps)
        for n in range(max(n_levels - 2, 0), n_levels):
            lam = levels[n % 2][n // 2] * (1.0 + 64.0 * sys.float_info.epsilon)
            a = blocks[n % 2] - lam * np.eye(len(blocks[n % 2]))
            x = np.linalg.solve(a, np.full(len(a), lam))
            if not (tail := float(x[-10:] @ x[-10:] / (x @ x))) <= TAIL_WEIGHT:
                raise ConvergenceError(
                    f"level n={n} keeps {tail:.1e} of its weight on the top "
                    f"10 basis states; basis_u={u!r} is not converged at "
                    f"dim={dim}", n=n, tail_weight=tail, dim=dim, basis_u=u)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}",
                               dim=dim, basis_u=u) from exc
    return [float(levels[n % 2][n // 2]) for n in range(n_levels)]
