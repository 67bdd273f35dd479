"""Independent eigenvalue oracles for -kappa psi'' + (k x^2 + b x^4) psi = E psi.

Two deliberately different routes: Taylor-series shooting on the half line
with parity initial conditions, and truncated-basis diagonalization of the
Hamiltonian's two parity blocks. Agreement between them is the package's
definition of "exact" for this potential. Shooting is pure Python; numpy
loads only when the diagonalization runs.
"""
from __future__ import annotations

import math
import operator
import sys
from typing import Sequence

from .anharmonic import _optimized, energy_present
from .model import (_TINY, AnharmonicSpec, _level_error, _require_positive,
                    hbar_omega)
from .oscillator import _parity_blocks


ORDER_MAX = 44  # most Taylor terms a shooting step forms
_RECURRENCE = tuple(1.0 / ((j + 1) * (j + 2)) for j in range(ORDER_MAX - 1))
# truncation bound on each Taylor step's last two terms, relative to psi's
# scale, at the search's 8-ulp floor (looser above it, see shoot_eigenvalue):
# 1e-10 with the margin 2^-28 that fixed 28-term steps at half length gave
ABS_TOL = 1e-10 * 2.0 ** -28
BOX_DECAY = 20.0  # decay lengths from the turning point to the floor's wall
REL_WIDTH = 1e-9  # widest final bracket relative to its first upper end
MAX_ITER = 240  # combined budget of bracket-growth and search steps
GUESS_WIDTH = 0.02  # the second trial's offset, relative to the first
# most weight a level may keep on the top 10 states of its parity block in
# any diagonalization basis: converged levels measure 1e-28 or less, and a
# far-off basis 1e-5 or more
TAIL_WEIGHT = 1e-20
# shooting refuses a level whose scale reaches this: the box's potential in
# eV reaches 365 times the energy the box is sized for, and must not overflow
_TOP = 2.0 ** 1014
# shooting refuses a level from 2^18 on: a first integration takes about n
# Taylor steps, and psi(x_max) overflowed in it at every (k, b) measured
_LEVEL_TOP = 2 ** 18


class ConvergenceError(RuntimeError):
    """Eigenvalue search failed; carries search diagnostics."""

    def __init__(self, message: str, **diagnostics: object) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


def _integrate(spec: AnharmonicSpec, energy: float, parity: int,
               x_max: float, abs_tol: float | None = None
               ) -> tuple[float, int]:
    """March psi from 0 to x_max; return (psi(x_max), node count).

    Taylor-series steps of variable order on psi'' = q(x) psi with
    q(x) = (k x^2 + b x^4 - E) / kappa. Around each x0, q is re-expanded
    in powers of t = (x - x0) / h, h = min(H, x_max - x0) and
    H = pi / (2 sqrt(E / kappa)), and the series coefficients a_j of
    psi(x0 + h t) obey the five-term recurrence
    (j+1)(j+2) a_{j+2} = sum_{i<=4} q_i a_{j-i}. Terms are formed until
    the last two lie within ``abs_tol`` max(s, |psi|), ``ABS_TOL`` by
    default, and the step is the whole h; if ``ORDER_MAX`` terms come
    first, t shrinks until the last two do. No step is ever rejected.
    psi's scale s is 1 for even parity and, as psi'(0) = 1, H for odd. A
    looser ``abs_tol`` moves a level by at most about 22 ``abs_tol``
    relative. As V >= 0, zeros of psi lie at least 2H apart (Sturm
    comparison with the free wave at energy E), so a step of at most H
    holds at most one of them and a sign change counts it exactly. Where
    psi oscillates a step is the whole H, so an integration takes about
    x_t / H steps up to the turning point x_t,
    (4 / pi)(n + 1/2) at b = 0 and likewise growing like n at b > 0, and a
    few dozen past it; at n = 20 to 1000 a step averages 22-26 terms at
    ``ABS_TOL``.
    """
    inv_kappa = 1.0 / spec.kappa
    c2 = spec.stiffness_k * inv_kappa
    c4 = spec.quartic_b * inv_kappa
    ce = energy * inv_kappa
    big_h = 0.5 * math.pi / math.sqrt(ce)
    abs_tol = abs_tol or ABS_TOL

    y0, y1, scale = (1.0, 0.0, 1.0) if parity == 0 else (0.0, 1.0, big_h)
    x = 0.0
    nodes = 0
    last_sign = 1.0  # psi first moves positive for either parity
    while x < x_max:
        h = min(big_h, x_max - x)
        h2 = h * h
        h4 = h2 * h2
        # h^2 q(x + h t) = q0 + q1 t + ... + q4 t^4
        s = x * x
        q0 = ((c4 * s + c2) * s - ce) * h2
        q1 = (4.0 * c4 * s + 2.0 * c2) * x * h2 * h
        q2 = (6.0 * c4 * s + c2) * h4
        q3 = 4.0 * c4 * x * h4 * h
        q4 = c4 * h4 * h2
        # a_j ... a_{j-4} and a_{j+1} slide through locals; a keeps
        # a_0 ... a_j and a_{j+1} ends in a_next
        a_j, a_next = y0, y1 * h
        a_1 = a_2 = a_3 = a_4 = 0.0
        a = [a_j]
        tol = abs_tol * max(scale, abs(y0))
        t = 1.0
        for inv in _RECURRENCE:
            if abs(a_next) <= tol and abs(a_j) <= tol:
                break
            a_new = (q0 * a_j + q1 * a_1 + q2 * a_2 + q3 * a_3 + q4 * a_4) * inv
            # two three-name swaps build no tuple, unlike one six-name swap
            a_4, a_3, a_2 = a_3, a_2, a_1
            a_1, a_j, a_next = a_j, a_next, a_new
            a.append(a_j)
        else:  # ORDER_MAX terms: shorten the step to meet tol
            t = min(1.0,
                    (tol / max(abs(a_j), _TINY)) ** (1.0 / (ORDER_MAX - 1)),
                    (tol / max(abs(a_next), _TINY)) ** (1.0 / ORDER_MAX))
        # Horner's rule for psi and d psi / dt at t
        u, v = a_next, 0.0
        for c in reversed(a):
            v = v * t + u
            u = u * t + c
        x += t * h
        y0, y1 = u, v / h
        if y0 != 0.0:
            if (y0 < 0.0) != (last_sign < 0.0):
                nodes += 1
            last_sign = y0
    if not math.isfinite(y0):  # a Taylor coefficient overflowed
        raise ValueError(f"psi(x_max) overflows at energy={energy!r} eV")
    return y0, nodes


def _default_x_max(spec: AnharmonicSpec, energy: float,
                   depth: float | None = None) -> float:
    """Box half-width: the wall clears E by ``depth`` decay lengths.

    That wall shifts a level by at most 0.6 e^(-2 depth) relative (2.0e-11
    at 12 for harmonic n = 0, the worst case); the default ``BOX_DECAY``,
    20, gives eps / 50, under the 8-ulp floor of the search's bracket.
    """
    depth = depth or BOX_DECAY
    k = spec.stiffness_k
    b = spec.quartic_b
    kappa = spec.kappa
    # the turning point, the outer root of k x^2 + b x^4 = E, in a form that
    # needs no b = 0 branch and cannot overflow at huge b
    root = math.hypot(k, 2.0 * math.sqrt(b) * math.sqrt(energy))
    x = math.sqrt(2.0 * energy / (k + root))
    # march the decay integral int f dx, f = sqrt((V-E)/kappa), to depth by
    # the trapezoid rule; the step, sized by the turning point whatever
    # its scale, doubles but never exceeds the local decay length 1 / f
    dx = 0.01 * x
    s = 0.0
    f_here = 0.0
    while s < depth:
        x_next = x + dx
        v_next = (k + b * x_next * x_next) * x_next * x_next - energy
        f_next = math.sqrt(max(v_next, 0.0) / kappa)
        s += 0.5 * (f_here + f_next) * dx
        x, f_here = x_next, f_next
        dx = 2.0 * dx if f_here * dx < 0.5 else 1.0 / f_here
    return x


def shoot_eigenvalue(spec: AnharmonicSpec, n: int,
                     energy_tol: float = 1e-9) -> float:
    """n-th eigenvalue by parity shooting: node-count bracket, then refine.

    Even n starts from psi(0)=1, psi'(0)=0 and odd n from psi(0)=0,
    psi'(0)=1 on [0, x_max]; level n is where node floor(n/2) + 1 of the
    open half line enters through the far boundary. The present energy E
    and E (1 -+ ``GUESS_WIDTH``) on the side its node count names are the
    first trials; a wrong one costs integrations only. The upper end grows
    by 1.4x until it holds more than floor(n/2) nodes, and bisection on the
    count narrows the bracket to one count change. Then psi(x_max) crosses
    zero once, and each trial is the inverse quadratic interpolation of
    psi(x_max) through both ends and the end the last trial displaced
    (Brent's ratio form), or regula falsi; a trial outside the two counts,
    or two trials that together fail to halve the bracket, send the next
    back to bisection. The midpoint is returned once
    hi - lo <= max(min(``energy_tol``, ``REL_WIDTH`` hi), 8 eps hi), hi the
    first upper end: within ``REL_WIDTH`` relative of the checked
    diagonalization for k from 1e-4 to 1e3, the electron kappa, b = 0 or
    1e-6 to 1e8 and n up to 20. ``MAX_ITER`` trials bound growth and search.

    The box is min(``BOX_DECAY``, ln(1e3 / w) / 2) decay lengths deep and
    each step meets max(``ABS_TOL``, 1e-4 w), w = max(min(``energy_tol`` /
    E, ``REL_WIDTH``), 8 eps) the relative width the search stops at, E
    the first trial: together they move a level by under 1e-2 w (2.6e-3 w
    measured), and at the floor they are the two constants.

    The level is shot in the length unit 2^j Angstrom, 4^j within a factor
    4 of kappa / s, s the larger of hbar omega (n + 3/2) and kappa^(2/3)
    b^(1/3) (n + 1)^(4/3): (k, b, kappa) becomes (k 4^j, b 16^j,
    kappa 4^-j). Every scale of the integration then reads about 1 and
    moves by an exact power of two, so the level keeps its bits. A k this
    takes below the float range moves the level by under 1e-150 relative,
    and is held at the smallest float. A level whose s reaches 2^1014 eV,
    where the box's potential would overflow, raises ``ValueError``, as do
    a psi(x_max) that is not finite and, before any integration, n >= 2^18.
    """
    if not 0 <= n < _LEVEL_TOP:
        raise _level_error(
            n, f"shooting's reach, n < 2^{_LEVEL_TOP.bit_length() - 1}")
    _require_positive("energy_tol", energy_tol)
    parity = n % 2
    target = n // 2
    budget = MAX_ITER

    # the harmonic or pure-quartic scale of the level, whichever is larger
    scale = max(hbar_omega(spec) * (n + 1.5), spec.kappa ** (2.0 / 3.0)
                * spec.quartic_b ** (1.0 / 3.0) * (n + 1) ** (4.0 / 3.0))
    if not scale < _TOP:
        raise ValueError(f"level n={n} lies too near the top of the float "
                         f"range: its scale reads {scale!r} eV")
    guess = energy_present(spec, n).e_total
    w = max(min(energy_tol / guess, REL_WIDTH), 8.0 * sys.float_info.epsilon)
    depth = min(BOX_DECAY, 0.5 * math.log(1e3 / w))
    abs_tol = max(ABS_TOL, 1e-4 * w)
    j = (math.frexp(spec.kappa)[1] - math.frexp(scale)[1]) // 2
    spec = AnharmonicSpec(max(math.ldexp(spec.stiffness_k, 2 * j), 5e-324),
                          math.ldexp(spec.quartic_b, 4 * j),
                          math.ldexp(spec.kappa, -2 * j))
    e_hi = guess * (1.0 + GUESS_WIDTH)
    x_max = _default_x_max(spec, e_hi, depth)

    def shoot(e: float) -> tuple[float, int]:
        return _integrate(spec, e, parity, x_max, abs_tol)

    e_lo, psi_lo, nodes_lo = 0.0, 0.0, -1  # E = 0 is not integrated
    psi, nodes = shoot(guess)
    if nodes > target:
        e_hi, psi_hi, nodes_hi = guess, psi, nodes
        e = guess * (1.0 - GUESS_WIDTH)
        psi, nodes = shoot(e)
        if nodes > target:  # level n lies below both trials
            e_hi, psi_hi, nodes_hi = e, psi, nodes
        else:
            e_lo, psi_lo, nodes_lo = e, psi, nodes
    else:
        e_lo, psi_lo, nodes_lo = guess, psi, nodes
        psi_hi, nodes_hi = shoot(e_hi)
    while nodes_hi <= target:
        budget -= 1
        if budget <= 0:
            raise ConvergenceError(
                f"no bracket for level n={n} within iteration budget",
                n=n, e_hi=e_hi, nodes=nodes_hi, target=target)
        e_lo, nodes_lo = e_hi, -1  # integrated below, on the final x_max
        e_hi *= 1.4
        x_max = _default_x_max(spec, e_hi, depth)
        psi_hi, nodes_hi = shoot(e_hi)
    if nodes_lo < 0 < e_lo:
        # the grown bracket's lower end; its first box already cleared its
        # own energy by depth decay lengths, so the wider one adds a node
        # only where E rests on a level to within rounding
        psi_lo, nodes_lo = shoot(e_lo)

    lo, hi = e_lo, e_hi
    # a bracket narrower than a few ulps of E cannot be split
    width = max(min(energy_tol, REL_WIDTH * hi),
                8.0 * sys.float_info.epsilon * hi)
    # interpolated trials stay pad clear of both ends, so the far end also
    # moves once the near one has converged
    pad = 0.5 * width
    # the end the last trial displaced, while it lay on the one-crossing
    # branch: the third point of the quadratic
    e_old, psi_old = 0.0, None
    # the width before each of the last two trials: unless those two have
    # halved the bracket, as steps creeping along one end do not, bisect
    width_2 = width_1 = math.inf
    while hi - lo > width:
        budget -= 1
        if budget <= 0:
            raise ConvergenceError(
                f"search budget exhausted for level n={n}",
                n=n, e_lo=lo, e_hi=hi, width=hi - lo,
                energy_tol=energy_tol)
        trial = 0.5 * (lo + hi)
        if (nodes_lo == target and nodes_hi == target + 1
                and hi - lo <= 0.5 * width_2):
            # the counts differ by one, so psi_lo and psi_hi differ in sign
            trial = lo + (hi - lo) * (psi_lo / (psi_lo - psi_hi))
            if psi_old is not None and psi_old not in (psi_lo, psi_hi):
                # Brent's b = hi, c = lo and a = old, with r = f_b / f_c,
                # s = f_b / f_a and t = f_a / f_c (an old psi equal to an
                # end's would divide by zero); an overflowing ratio gives
                # inf or nan, which fails the range test
                r, s, t = psi_hi / psi_lo, psi_hi / psi_old, psi_old / psi_lo
                quad = hi - s * (t * (t - r) * (lo - hi)
                                 - (r - 1.0) * (hi - e_old)) / (
                    (t - 1.0) * (r - 1.0) * (s - 1.0))
                if lo < quad < hi:
                    trial = quad
            trial = min(max(trial, lo + pad), hi - pad)
        width_2, width_1 = width_1, hi - lo
        psi, nodes = shoot(trial)
        if nodes > target:
            e_old, psi_old = hi, psi_hi if nodes_hi == target + 1 else None
            hi, psi_hi, nodes_hi = trial, psi, nodes
        else:
            e_old, psi_old = lo, psi_lo if nodes_lo == target else None
            lo, psi_lo, nodes_lo = trial, psi, nodes
    return 0.5 * (lo + hi)


def diag_eigenvalues(spec: AnharmonicSpec, dim: int = 100,
                     basis_u: float | None = None,
                     n_levels: int = 4) -> Sequence[float]:
    """Lowest eigenvalues from diagonalization in an oscillator basis.

    ``basis_u`` selects the basis quantum, hbar Omega_n of the middle level
    n = n_levels // 2 by default; results are basis independent once ``dim``
    is converged. Level n is index n // 2 of parity block n % 2, each block
    built on its own and diagonalized by ``numpy.linalg.eigvalsh``.
    ``dim``, 100 by default, must be an integer (else ``TypeError``) and at
    least n_levels + 20. Every basis, default or explicit, is checked: the
    top requested level of each block, which keeps the block's largest
    weight on its top 10 states, must keep at most ``TAIL_WEIGHT`` there,
    or ``ConvergenceError`` is raised. A basis that gives a non-finite
    block raises ``ValueError``.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    if operator.index(dim) < n_levels + 20:
        raise ValueError(f"dim must be >= n_levels + 20, got {dim}")
    import numpy as np  # only this oracle needs numpy

    u = _optimized(spec, n_levels // 2)[0] if basis_u is None else basis_u
    # an infinite or extreme basis_u (or b) overflows the x^2 and x^4 terms
    if math.isfinite(u):
        _require_positive("u", u)
    blocks = math.isfinite(u) and _parity_blocks(spec, u, dim)
    if not (blocks and all(np.isfinite(block).all() for block in blocks)):
        raise ValueError(f"basis_u={u!r} gives a non-finite Hamiltonian")
    try:
        levels = [np.linalg.eigvalsh(block) for block in blocks]
        # the top requested level of each block keeps the block's largest
        # weight on its top states: one inverse-iteration step from its
        # eigenvalue lam gives its vector, sized near 1 / (64 eps) by the
        # right side lam; in lam's unit 2^e, exact, LAPACK cannot overflow
        for n in range(max(n_levels - 2, 0), n_levels):
            lam = levels[n % 2][n // 2] * (1.0 + 64.0 * sys.float_info.epsilon)
            a = blocks[n % 2].copy()
            a.reshape(-1)[::len(a) + 1] -= lam  # on the diagonal of a copy
            unit = math.ldexp(1.0, -math.frexp(lam)[1])
            x = np.linalg.solve(a * unit, np.full(len(a), lam * unit))
            if not (tail := float(x[-10:] @ x[-10:] / (x @ x))) <= TAIL_WEIGHT:
                raise ConvergenceError(
                    f"level n={n} keeps {tail:.1e} of its weight on the top "
                    f"10 basis states; basis_u={u!r} is not converged at "
                    f"dim={dim}", n=n, tail_weight=tail, dim=dim, basis_u=u)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}",
                               dim=dim, basis_u=u) from exc
    return [float(levels[n % 2][n // 2]) for n in range(n_levels)]
