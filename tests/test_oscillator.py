"""Ladder matrix elements checked against matrix powers and quadrature."""
import math
import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_hermite

import varpert.anharmonic as anharmonic
import varpert.oscillator as oscillator
from varpert.anharmonic import second_order_sum
from varpert.model import KAPPA_EV_A2, hbar_omega, make_anharmonic_spec
from varpert.oscillator import build_hamiltonian, hprime_element

SPEC = make_anharmonic_spec(0.5, 0.05)
# at u = hbar omega with b = 1, H' is x^4 exactly; a b = 0 spec with
# k' = k + 1 gives H' = c2 x^2 in the same basis, with c2 = 1 to rounding
X4_SPEC = make_anharmonic_spec(0.5, 1.0)
X2_SPEC = make_anharmonic_spec(1.5, 0.0)
U = hbar_omega(X4_SPEC)
S2 = SPEC.kappa / U  # s^2 = kappa / u in A^2
C2 = 1.5 - U * U / (4.0 * SPEC.kappa)


def x2_element(k, n):
    """<k| x^2 |n> in A^2 in basis U, read through ``hprime_element``."""
    return hprime_element(X2_SPEC, U, k, n) / C2


def x4_element(k, n):
    """<k| x^4 |n> in A^4 in basis U, read through ``hprime_element``."""
    return hprime_element(X4_SPEC, U, k, n)


def position_matrix(s2, dim):
    """Dense x in the number basis: the ladder tridiagonal s (a + a^dag)."""
    s = math.sqrt(s2)
    x = np.zeros((dim, dim))
    for i in range(dim - 1):
        x[i, i + 1] = x[i + 1, i] = s * math.sqrt(i + 1)
    return x


def test_basis_validation():
    # u must be finite and > 0; nan and inf are no exception
    calls = [lambda v: hprime_element(SPEC, v, 0, 2),
             lambda v: hprime_element(SPEC, v, 0, 7),
             lambda v: build_hamiltonian(SPEC, v, 16)]
    for call in calls:
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite and > 0"):
                call(bad)


@pytest.mark.parametrize("k, kappa, u", [(1e-10, 1e-300, 1e100),
                                         (0.5, KAPPA_EV_A2, 1e-320)])
def test_elements_answer_where_s2_leaves_the_float_range(k, kappa, u):
    # s2 = kappa / u underflows to 0 at the first point and overflows at the
    # second, and both were refused; no power of s is formed now, so
    # <0| H' |0> is returned where it is a float and refused past the range
    spec = make_anharmonic_spec(k, 0.05, kappa)
    with mpmath.workdps(50):
        mk, mb, mkappa, mu = map(mpmath.mpf, (k, 0.05, kappa, u))
        s2 = mkappa / mu
        expected = (mk - mu * mu / (4 * mkappa)) * s2 + 3 * mb * s2 * s2
        if abs(expected) < sys.float_info.max:
            assert abs(hprime_element(spec, u, 0, 0) / expected - 1) <= (
                2 * sys.float_info.epsilon)
        else:
            with pytest.raises(ValueError, match="overflows"):
                hprime_element(spec, u, 0, 0)


def test_x4_only_coupling_stays_zero_where_the_x2_coefficient_overflows():
    # at b = 0 and u = 1e-305 the x^2 coefficient times s^2 overflows, but
    # <4| H' |0> has no x^2 term; inf * 0 made it nan, which was refused
    spec = make_anharmonic_spec(1e10, 0.0)
    assert hprime_element(spec, 1e-305, 4, 0) == 0.0
    with pytest.raises(ValueError, match="overflows"):
        hprime_element(spec, 1e-305, 2, 0)


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
            v = element(k, n)
            if abs(k - n) in allowed:
                assert v > 0.0
            else:
                assert v == 0.0


def test_elements_symmetric():
    for k in range(8):
        for n in range(8):
            assert x2_element(k, n) == x2_element(n, k)
            assert x4_element(k, n) == x4_element(n, k)
            assert (hprime_element(SPEC, 3.5, k, n)
                    == hprime_element(SPEC, 3.5, n, k))


def test_elements_reject_negative_indices():
    for k, n in ((-1, 0), (0, -2), (-3, -3), (-1, 1)):
        with pytest.raises(ValueError, match="non-negative"):
            hprime_element(SPEC, 3.5, k, n)


def test_against_matrix_powers():
    # truncation cannot corrupt elements more than 4 rows from the edge
    dim = 40
    x = position_matrix(S2, dim)
    x2 = x @ x
    x4 = x2 @ x2
    for k in range(21):
        for n in range(21):
            assert x2_element(k, n) == pytest.approx(
                x2[k, n], rel=1e-12, abs=1e-15)
            assert x4_element(k, n) == pytest.approx(
                x4[k, n], rel=1e-12, abs=1e-15)


def test_x4_is_x2_resolved():
    # sum_j <k|x^2|j><j|x^2|n> = <k|x^4|n>, exact once j covers k, n +- 2
    for k in range(12):
        for n in range(12):
            acc = sum(x2_element(k, j) * x2_element(j, n)
                      for j in range(max(0, min(k, n) - 2), max(k, n) + 3))
            assert acc == pytest.approx(x4_element(k, n),
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
    assert element(k, n) == pytest.approx(val, rel=1e-9)


def test_hprime_element_composition():
    # H' = c2 x^2 + b x^4 in the basis U, built from the two readers
    spec = make_anharmonic_spec(2.0, 0.05)
    c2 = 2.0 - U * U / (4.0 * spec.kappa)
    for k in range(6):
        for n in range(6):
            expected = c2 * x2_element(k, n) + 0.05 * x4_element(k, n)
            assert hprime_element(spec, U, k, n) == pytest.approx(
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


def test_each_call_forms_its_basis_coefficients_once(monkeypatch):
    # the sum's four amplitudes and the Hamiltonian's three bands each read
    # one (c2, beta) pair
    bases = []

    def counted(spec, u, _call=oscillator._coefficients):
        bases.append(u)
        return _call(spec, u)

    monkeypatch.setattr(anharmonic, "_coefficients", counted)
    monkeypatch.setattr(oscillator, "_coefficients", counted)
    second_order_sum(SPEC, 6, 1.5)
    build_hamiltonian(SPEC, 2.0, 40)
    assert bases == [1.5, 2.0]


def _scalar_hamiltonian(spec, u, dim):
    """H entry by entry from the scalar ``_hprime``, the reference for the
    assembled bands; inf and nan where an entry leaves the float range."""
    coefficients = oscillator._coefficients(spec, u)
    h = np.zeros((dim, dim))
    for m in range(dim):
        h[m, m] = oscillator._hprime(coefficients, 0, m) + u * (m + 0.5)
        for d in (2, 4):
            if m + d < dim:
                h[m, m + d] = h[m + d, m] = oscillator._hprime(coefficients,
                                                               d, m)
    return h


@pytest.mark.parametrize("dim", [8, 9, 24, 61])
def test_hamiltonian_interleaves_the_parity_blocks(dim):
    # the two blocks, each built on its own, interleaved, to the bit and to
    # the place of each inf and nan: at b = 1e308 x^4 overflows, and at
    # u = 1e308 so do x^2 and u (m + 1/2), whose sum reads nan
    seen = set()
    for b, u in ((0.05, 3.2), (0.05, 1e-3), (1e308, hbar_omega(SPEC)),
                 (1e308, 1e308), (1e308, 1e-300)):
        spec = make_anharmonic_spec(0.5, b)
        h = build_hamiltonian(spec, u, dim)
        np.testing.assert_array_equal(h, _scalar_hamiltonian(spec, u, dim))
        for p, block in enumerate(oscillator._parity_blocks(spec, u, dim)):
            np.testing.assert_array_equal(h[p::2, p::2], block)
            assert not h[p::2, 1 - p::2].any()
        seen |= {"inf" for x in h.flat if math.isinf(x)}
        seen |= {"nan" for x in h.flat if math.isnan(x)}
    assert seen == {"inf", "nan"}


@pytest.mark.parametrize("dim", [10.5, 40.0, "40", None])
def test_hamiltonian_requires_an_integer_dim(dim):
    # 10.5 was rounded up to an 11 x 11 matrix
    with pytest.raises(TypeError, match="integer"):
        build_hamiltonian(SPEC, 2.0, dim)
    assert build_hamiltonian(SPEC, 2.0, np.int64(10)).shape == (10, 10)


def test_hamiltonian_minimum_dim():
    with pytest.raises(ValueError, match="dim"):
        build_hamiltonian(SPEC, 3.2, 7)

