"""Harmonic-oscillator basis algebra.

Matrix elements, between number states |n> of a basis oscillator with
quantum u = hbar Omega, of the perturbation operator

    H' = (k - m Omega^2 / 2) x^2 + b x^4,

whose x^2 coefficient is exactly 0 in the basis u = hbar omega, and
assembly of the Hamiltonian's two parity blocks as dense symmetric
matrices. With s^2 = hbar/(2 m Omega) = kappa / u, the ladder expansion
x = s (a + a^dagger) gives every element in closed form; the only nonzero
off-diagonals are |k - n| in {2} for x^2 and {2, 4} for x^4.
"""
from __future__ import annotations

import functools
import math
import operator

from .model import AnharmonicSpec, _require_positive, hbar_omega


def _beta(spec: AnharmonicSpec, u: float, e: int = 0) -> float:
    """beta = b kappa^2 / u^2 over 2^e from the spec's mantissa and exponent
    of b kappa^2, every digit kept where it is normal; inf past the range."""
    m, e_bk2 = spec._b_kappa2
    v, e_u = math.frexp(u)
    try:
        return math.ldexp(m / (v * v), e_bk2 - 2 * e_u - e)
    except OverflowError:
        return math.inf


def _coefficients(spec: AnharmonicSpec, u: float) -> tuple[float, float]:
    """(c2, beta) of H' = c2 x^2 + b x^4 in basis u, in units of s^2 = kappa
    / u so that no power of s is formed: c2 = (hbar omega - u) ((hbar omega
    + u)/(4u)), with no 4u formed, exactly 0 at u = hbar_omega(spec), and
    beta = ``_beta``, 0 at b = 0; either reads inf past the range."""
    hw = hbar_omega(spec)
    return (hw - u) * ((hw + u) / u * 0.25), _beta(spec, u)


def _hprime(coefficients: tuple[float, float], d: int, m, sqrt=math.sqrt):
    """<m + d| H' |m> for d in 0, 2 and 4 from basis u's ``_coefficients``,
    each ladder factor written once, with m an int or, with ``numpy.sqrt``,
    an integer array; x^2 does not couple m + 4 to m, whatever c2 reads.
    nan where an int ladder factor has no float, from m about 5.5e153 on
    for d = 0 and 1e154 for d = 4, whose product of four factors is rooted
    in two halves from 1.2e77."""
    c2, beta = coefficients
    try:
        if d == 0:
            return c2 * (2 * m + 1) + beta * (6 * m * m + 6 * m + 3)
        if d == 2:
            root = sqrt((m + 1) * (m + 2))
            return c2 * root + beta * ((4 * m + 6) * root)
        return beta * sqrt((m + 1) * (m + 2) * (m + 3) * (m + 4))
    except OverflowError:
        if d == 4 and m < 10 ** 154:  # each half still has a float
            return beta * (sqrt((m + 1) * (m + 2)) * sqrt((m + 3) * (m + 4)))
        return math.nan


def hprime_element(spec: AnharmonicSpec, u: float, k: int, n: int) -> float:
    """Matrix element <k| H' |n> of the residual perturbation in basis u, in eV.

    H' = c2 x^2 + b x^4 where c2 = k_spec - u^2 / (4 kappa) is the
    coefficient m (omega^2 - Omega^2)/2 written without materializing m;
    pairs with |k - n| not in {0, 2, 4} give 0.0. A u not finite and > 0,
    a negative index or a result past the float range raises
    ``ValueError``.
    """
    _require_positive("u", u)
    if k < 0 or n < 0:
        raise ValueError("quantum numbers must be non-negative")
    d = abs(k - n)
    element = (_hprime(_coefficients(spec, u), d, min(k, n)) if d in (0, 2, 4)
               else 0.0)
    if not math.isfinite(element):
        raise ValueError(f"u={u!r} overflows <{k}| H' |{n}>")
    return element


@functools.lru_cache(maxsize=4)
def _ladder_table(dim: int) -> tuple:
    """Per parity p, block p's ladder factors as float arrays over its
    states m = p, p + 2, ... below ``dim``: x^2 and x^4 on the diagonal,
    m + 1/2, x^2 and x^4 two states apart and x^4 four apart, each
    ``_hprime`` at unit coefficients. Kept for a few dims, 5 KB at 100."""
    import numpy as np

    x2, x4 = (1.0, 0.0), (0.0, 1.0)
    return tuple((_hprime(x2, 0, m, np.sqrt), _hprime(x4, 0, m, np.sqrt),
                  m + 0.5, _hprime(x2, 2, m[:-1], np.sqrt),
                  _hprime(x4, 2, m[:-1], np.sqrt), _hprime(x4, 4, m[:-2], np.sqrt))
                 for m in (np.arange(0, dim, 2), np.arange(1, dim, 2)))


def _parity_blocks(spec: AnharmonicSpec, u: float, dim: int) -> list:
    """The even and odd blocks of ``build_hamiltonian(spec, u, dim)``, each
    built on its own, for a u finite and > 0; an element past the float
    range reads inf or nan."""
    import numpy as np

    c2, beta = _coefficients(spec, u)
    blocks = []
    with np.errstate(over="ignore", invalid="ignore"):
        for x2, x4, half, y2, y4, z4 in _ladder_table(dim):
            size = len(x2)
            block = np.zeros((size, size))
            flat = block.reshape(-1)  # a view, entry (i, j) at i size + j
            for j, band in ((0, c2 * x2 + beta * x4 + u * half),
                            (1, c2 * y2 + beta * y4), (2, beta * z4)):
                flat[j:(size - j) * size:size + 1] = band  # (i, i + j)
                flat[j * size::size + 1] = band  # (i + j, i)
            blocks.append(block)
    return blocks


def build_hamiltonian(spec: AnharmonicSpec, u: float,
                      dim: int) -> np.ndarray:
    """Assemble H = u (N + 1/2) + H' in the first ``dim`` states of basis u.

    Returns the dense symmetric (dim, dim) matrix, whose only nonzero
    entries lie on the main diagonal and 2 and 4 steps off it: the parity
    blocks ``exact.diag_eigenvalues`` diagonalizes, interleaved. ``dim``
    must be an integer (else ``TypeError``), at least 8 so that at least
    one complete set of x^4 couplings is present, and u finite and > 0.
    """
    import numpy as np  # imported here so shooting-only runs never load it

    _require_positive("u", u)
    if operator.index(dim) < 8:
        raise ValueError(f"dim must be >= 8, got {dim}")
    h = np.zeros((dim, dim))
    for p, block in enumerate(_parity_blocks(spec, u, dim)):
        h[p::2, p::2] = block
    return h
