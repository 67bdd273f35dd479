"""Ladder matrix elements checked against matrix powers and quadrature."""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_hermite

from varpert.model import make_anharmonic_spec
from varpert.oscillator import (build_hamiltonian, hprime_element, x2_element,
                                x4_element)

S2 = 3.8099821 / 2.76  # kappa / u in A^2
SPEC = make_anharmonic_spec(0.5, 0.05)


def position_matrix(s2, dim):
    """Dense x in the number basis: the ladder tridiagonal s (a + a^dag)."""
    s = math.sqrt(s2)
    x = np.zeros((dim, dim))
    for i in range(dim - 1):
        x[i, i + 1] = x[i + 1, i] = s * math.sqrt(i + 1)
    return x


def test_basis_validation():
    # u and s2 alike must be finite and > 0; nan and inf are no exception
    calls = [lambda v: x2_element(v, 0, 0), lambda v: x4_element(v, 0, 0),
             lambda v: hprime_element(SPEC, v, 0, 2),
             lambda v: build_hamiltonian(SPEC, v, 16)]
    for call in calls:
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite and > 0"):
                call(bad)


def test_s2_is_kappa_over_quantum():
    # at b = 0 the only H' element on the diagonal is c2 <0|x^2|0> = c2 s^2
    spec = make_anharmonic_spec(0.5, 0.0)
    c2 = 0.5 - 2.76 ** 2 / (4.0 * 3.8099821)
    assert hprime_element(spec, 2.76, 0, 0) == pytest.approx(
        c2 * 3.8099821 / 2.76, rel=1e-15)


@pytest.mark.parametrize("element, allowed", [(x2_element, {0, 2}),
                                              (x4_element, {0, 2, 4})])
def test_selection_rules(element, allowed):
    for k in range(10):
        for n in range(10):
            v = element(S2, k, n)
            if abs(k - n) in allowed:
                assert v > 0.0
            else:
                assert v == 0.0


def test_elements_symmetric():
    for k in range(8):
        for n in range(8):
            assert x2_element(S2, k, n) == x2_element(S2, n, k)
            assert x4_element(S2, k, n) == x4_element(S2, n, k)


def test_elements_reject_negative_indices():
    with pytest.raises(ValueError):
        x2_element(S2, -1, 0)
    with pytest.raises(ValueError):
        x4_element(S2, 0, -2)


def test_against_matrix_powers():
    # truncation cannot corrupt elements more than 4 rows from the edge
    dim = 40
    x = position_matrix(S2, dim)
    x2 = x @ x
    x4 = x2 @ x2
    for k in range(21):
        for n in range(21):
            assert x2_element(S2, k, n) == pytest.approx(
                x2[k, n], rel=1e-12, abs=1e-15)
            assert x4_element(S2, k, n) == pytest.approx(
                x4[k, n], rel=1e-12, abs=1e-15)


def test_x4_is_x2_resolved():
    # sum_j <k|x^2|j><j|x^2|n> = <k|x^4|n>, exact once j covers k, n +- 2
    for k in range(12):
        for n in range(12):
            acc = sum(x2_element(S2, k, j) * x2_element(S2, j, n)
                      for j in range(max(0, min(k, n) - 2), max(k, n) + 3))
            assert acc == pytest.approx(x4_element(S2, k, n),
                                        rel=1e-13, abs=1e-15)


def psi(n, x, ell):
    # Hermite-function length ell = sqrt(hbar/m Omega) = sqrt(2) * s
    norm = 1.0 / math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi) * ell)
    return norm * eval_hermite(n, x / ell) * np.exp(-x * x / (2.0 * ell * ell))


@pytest.mark.parametrize("k, n, power", [(0, 0, 2), (2, 0, 2), (0, 0, 4),
                                         (2, 0, 4), (4, 0, 4), (3, 1, 2)])
def test_against_quadrature(k, n, power):
    ell = math.sqrt(2.0 * S2)
    val, err = quad(lambda x: psi(k, x, ell) * x ** power * psi(n, x, ell),
                    -14.0 * ell, 14.0 * ell, limit=200)
    element = x2_element if power == 2 else x4_element
    assert element(S2, k, n) == pytest.approx(val, rel=1e-9)


def test_hprime_element_composition():
    spec = make_anharmonic_spec(0.5, 0.05)
    s2 = spec.kappa / 3.5
    c2 = 0.5 - 3.5 ** 2 / (4.0 * spec.kappa)
    for k in range(6):
        for n in range(6):
            expected = (c2 * x2_element(s2, k, n)
                        + 0.05 * x4_element(s2, k, n))
            assert hprime_element(spec, 3.5, k, n) == pytest.approx(
                expected, rel=1e-14, abs=1e-18)


def test_hamiltonian_matches_elements():
    # one copy of the ladder formulas serves both, so every entry is exact
    spec = make_anharmonic_spec(0.5, 0.05)
    h = build_hamiltonian(spec, 3.2, 16)
    assert h.shape == (16, 16)
    assert (h == h.T).all()
    for k in range(16):
        for n in range(16):
            expected = hprime_element(spec, 3.2, k, n)
            if k == n:
                expected += 3.2 * (n + 0.5)
            assert h[k, n] == expected


def test_hamiltonian_minimum_dim():
    with pytest.raises(ValueError, match="dim"):
        build_hamiltonian(SPEC, 3.2, 7)

