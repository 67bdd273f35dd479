"""Ladder matrix elements checked against matrix powers and quadrature."""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_hermite

from varpert.model import make_anharmonic_spec
from varpert.oscillator import (OscBasis, build_hamiltonian, hprime_element,
                                x2_element, x4_element)

BASIS = OscBasis(hbar_Omega=2.76, kappa=3.8099821)


def position_matrix(basis, dim):
    """Dense x in the number basis: the ladder tridiagonal s (a + a^dag)."""
    s = math.sqrt(basis.s2)
    x = np.zeros((dim, dim))
    for i in range(dim - 1):
        x[i, i + 1] = x[i + 1, i] = s * math.sqrt(i + 1)
    return x


def test_basis_validation():
    with pytest.raises(ValueError):
        OscBasis(hbar_Omega=0.0, kappa=1.0)
    with pytest.raises(ValueError):
        OscBasis(hbar_Omega=1.0, kappa=-1.0)


def test_s2_is_kappa_over_quantum():
    assert BASIS.s2 == pytest.approx(3.8099821 / 2.76, rel=1e-15)


@pytest.mark.parametrize("element, allowed", [(x2_element, {0, 2}),
                                              (x4_element, {0, 2, 4})])
def test_selection_rules(element, allowed):
    for k in range(10):
        for n in range(10):
            v = element(BASIS, k, n)
            if abs(k - n) in allowed:
                assert v > 0.0
            else:
                assert v == 0.0


def test_elements_symmetric():
    for k in range(8):
        for n in range(8):
            assert x2_element(BASIS, k, n) == x2_element(BASIS, n, k)
            assert x4_element(BASIS, k, n) == x4_element(BASIS, n, k)


def test_elements_reject_negative_indices():
    with pytest.raises(ValueError):
        x2_element(BASIS, -1, 0)
    with pytest.raises(ValueError):
        x4_element(BASIS, 0, -2)


def test_against_matrix_powers():
    # truncation cannot corrupt elements more than 4 rows from the edge
    dim = 40
    x = position_matrix(BASIS, dim)
    x2 = x @ x
    x4 = x2 @ x2
    for k in range(21):
        for n in range(21):
            assert x2_element(BASIS, k, n) == pytest.approx(
                x2[k, n], rel=1e-12, abs=1e-15)
            assert x4_element(BASIS, k, n) == pytest.approx(
                x4[k, n], rel=1e-12, abs=1e-15)


def test_x4_is_x2_resolved():
    # sum_j <k|x^2|j><j|x^2|n> = <k|x^4|n>, exact once j covers k, n +- 2
    for k in range(12):
        for n in range(12):
            acc = sum(x2_element(BASIS, k, j) * x2_element(BASIS, j, n)
                      for j in range(max(0, min(k, n) - 2), max(k, n) + 3))
            assert acc == pytest.approx(x4_element(BASIS, k, n),
                                        rel=1e-13, abs=1e-15)


def psi(n, x, ell):
    # Hermite-function length ell = sqrt(hbar/m Omega) = sqrt(2) * s
    norm = 1.0 / math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi) * ell)
    return norm * eval_hermite(n, x / ell) * np.exp(-x * x / (2.0 * ell * ell))


@pytest.mark.parametrize("k, n, power", [(0, 0, 2), (2, 0, 2), (0, 0, 4),
                                         (2, 0, 4), (4, 0, 4), (3, 1, 2)])
def test_against_quadrature(k, n, power):
    ell = math.sqrt(2.0 * BASIS.s2)
    val, err = quad(lambda x: psi(k, x, ell) * x ** power * psi(n, x, ell),
                    -14.0 * ell, 14.0 * ell, limit=200)
    element = x2_element if power == 2 else x4_element
    assert element(BASIS, k, n) == pytest.approx(val, rel=1e-9)


def test_hprime_element_composition():
    spec = make_anharmonic_spec(0.5, 0.05)
    basis = OscBasis(hbar_Omega=3.5, kappa=spec.constants.kappa)
    c2 = 0.5 - 3.5 ** 2 / (4.0 * spec.constants.kappa)
    for k in range(6):
        for n in range(6):
            expected = (c2 * x2_element(basis, k, n)
                        + 0.05 * x4_element(basis, k, n))
            assert hprime_element(spec, basis, k, n) == pytest.approx(
                expected, rel=1e-14, abs=1e-18)


def test_hamiltonian_matches_elements():
    spec = make_anharmonic_spec(0.5, 0.05)
    basis = OscBasis(hbar_Omega=3.2, kappa=spec.constants.kappa)
    bands = build_hamiltonian(spec, basis, 16)
    # lower band storage: bands[d, j] is entry (j + d, j), d <= 4
    assert bands.shape == (5, 16)
    for k in range(16):
        for n in range(16):
            expected = hprime_element(spec, basis, k, n)
            if k == n:
                expected += 3.2 * (n + 0.5)
            d = abs(k - n)
            got = bands[d, min(k, n)] if d <= 4 else 0.0
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_hamiltonian_minimum_dim():
    spec = make_anharmonic_spec(0.5, 0.05)
    basis = OscBasis(hbar_Omega=3.2, kappa=spec.constants.kappa)
    with pytest.raises(ValueError, match="dim"):
        build_hamiltonian(spec, basis, 7)

