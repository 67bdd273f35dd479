"""Exact radial-integral algebra against factorials and quadrature."""
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from varpert.helium import _direct_exchange_1s2s, hydrogenic_radial
from varpert.polyexp import PolyExp, _product, polyexp_moment, slater_radial

ONE_S = PolyExp.build([(2, 0)], 1)            # 2 e^-r, the unit-charge 1s radial
BARE = PolyExp.build([(1, 0)], 1)


def test_build_normalizes_to_fractions():
    f = PolyExp.build([(0.5, 1), (Fraction(1, 3), 0)], Fraction(3, 2), scale=2.0)
    assert f.terms == ((Fraction(1, 2), 1), (Fraction(1, 3), 0))
    assert f.gamma == Fraction(3, 2)
    assert f.scale == 2.0


def test_build_validation():
    with pytest.raises(ValueError, match="gamma"):
        PolyExp.build([(1, 0)], 0)
    with pytest.raises(ValueError, match="powers"):
        PolyExp.build([(1, -1)], 1)


def test_pointwise_evaluation():
    f = PolyExp.build([(1, 0), (-2, 1)], 2, scale=3.0)
    r = np.array([0.0, 0.5, 1.0])
    expected = 3.0 * (1.0 - 2.0 * r) * np.exp(-2.0 * r)
    assert np.allclose(f(r), expected, rtol=1e-14)


@pytest.mark.parametrize("p, expected", [(0, 0.5), (1, 0.25), (2, 0.25),
                                         (3, 0.375)])
def test_moment_pure_exponential(p, expected):
    # int r^p exp(-2r) dr = p! / 2^(p+1)
    assert polyexp_moment(BARE, BARE, p) == expected


def test_moment_against_quadrature():
    f = PolyExp.build([(1, 0), (-1, 2)], Fraction(4, 3), scale=1.7)
    g = PolyExp.build([(3, 1)], Fraction(1, 2), scale=0.4)
    val, _ = quad(lambda r: r ** 2 * f(r) * g(r), 0.0, 60.0, limit=200)
    assert polyexp_moment(f, g, 2) == pytest.approx(val, rel=1e-10)


def test_moment_rejects_divergent_power():
    with pytest.raises(ValueError, match="diverges"):
        polyexp_moment(BARE, BARE, -1)


def test_one_s_norm_is_unity():
    assert polyexp_moment(ONE_S, ONE_S, 2) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_slater_against_quadrature(k):
    # arbitrary non-hydrogenic legs keep this oracle independent; the
    # domain is split at r1 = r2 so each piece is smooth
    a = PolyExp.build([(1, 0)], 1)
    b = PolyExp.build([(1, 1)], Fraction(3, 2))
    c = PolyExp.build([(2, k), (-1, k + 1)], 1)
    d = PolyExp.build([(1, k)], 2)

    def f(r1):
        return r1 * r1 * a(r1) * c(r1)

    def g(r2):
        return r2 * r2 * b(r2) * d(r2)

    lower, _ = dblquad(lambda r2, r1: f(r1) * g(r2) * r2 ** k / r1 ** (k + 1),
                       0.0, 30.0, 0.0, lambda r1: r1, epsrel=1e-11)
    upper, _ = dblquad(lambda r2, r1: f(r1) * g(r2) * r1 ** k / r2 ** (k + 1),
                       0.0, 30.0, lambda r1: r1, 30.0, epsrel=1e-11)
    assert slater_radial(k, a, b, c, d) == pytest.approx(lower + upper,
                                                         rel=1e-9)


def test_slater_swap_symmetry():
    a = PolyExp.build([(1, 1)], 1)
    b = PolyExp.build([(1, 0), (1, 1)], Fraction(5, 4))
    c = PolyExp.build([(2, 1)], Fraction(3, 4))
    d = PolyExp.build([(1, 1)], 2)
    assert slater_radial(1, a, b, c, d) == pytest.approx(
        slater_radial(1, b, a, d, c), rel=1e-13)


def test_slater_monopole_one_s():
    # R^0(1s,1s;1s,1s) = 5/8 at unit charge
    assert slater_radial(0, ONE_S, ONE_S, ONE_S, ONE_S) == pytest.approx(
        0.625, rel=1e-13)


def test_slater_rejects_negative_multipole():
    with pytest.raises(ValueError, match=r"^multipole order k must be >= 0$"):
        slater_radial(-1, ONE_S, ONE_S, ONE_S, ONE_S)


def test_slater_rejects_singular_kernel():
    # s-type legs cannot support a k = 2 kernel at the origin
    with pytest.raises(ValueError,
                       match=r"^kernel power k=2 too high for r1-side power 2$"):
        slater_radial(2, BARE, BARE, BARE, BARE)
    p_leg = PolyExp.build([(1, 1)], 1)
    with pytest.raises(ValueError,
                       match=r"^kernel power k=2 too high for r2-side power 2$"):
        slater_radial(2, p_leg, BARE, p_leg, BARE)


def test_scale_factors_multiply_through():
    scaled = PolyExp.build([(1, 0)], 1, scale=3.0)
    assert polyexp_moment(scaled, BARE, 2) == pytest.approx(
        3.0 * polyexp_moment(BARE, BARE, 2), rel=1e-15)
    assert slater_radial(0, scaled, ONE_S, ONE_S, ONE_S) == pytest.approx(
        3.0 * slater_radial(0, BARE, ONE_S, ONE_S, ONE_S), rel=1e-15)


def _fraction_lower_tail(m, nu):
    fact_m = math.factorial(m)
    return [(Fraction(fact_m, math.factorial(i)) / nu ** (m + 1 - i), i)
            for i in range(m + 1)]


def _fraction_slater_radial(k, a, b, c, d):
    """Reference: the same closed form summed term by term in Fractions."""
    if k < 0:
        raise ValueError("multipole order k must be >= 0")
    p_terms, mu = _product(a, c, 2)
    g_terms, nu = _product(b, d, 2)
    total = Fraction(0)
    for pg, cg in g_terms.items():
        m = pg + k
        whole = Fraction(math.factorial(m)) / nu ** (m + 1)
        tail = _fraction_lower_tail(m, nu)
        for pp, cp in p_terms.items():
            q = pp - (k + 1)
            if q < 0:
                raise ValueError(
                    f"kernel power k={k} too high for r1-side power {pp}")
            total += cp * cg * whole * math.factorial(q) / mu ** (q + 1)
            for coef, i in tail:
                qi = q + i
                total -= (cp * cg * coef
                          * math.factorial(qi) / (mu + nu) ** (qi + 1))
        mm = pg - k - 1
        if mm < 0:
            raise ValueError(
                f"kernel power k={k} too high for r2-side power {pg}")
        for coef, i in _fraction_lower_tail(mm, nu):
            for pp, cp in p_terms.items():
                qi = pp + k + i
                total += (cp * cg * coef
                          * math.factorial(qi) / (mu + nu) ** (qi + 1))
    return a.scale * b.scale * c.scale * d.scale * float(total)


def _y_legs(n, n_prime, l, z_star):
    r1s = hydrogenic_radial(1, 0, z_star)
    return (l, hydrogenic_radial(n, l, z_star),
            hydrogenic_radial(n_prime, l, z_star), r1s, r1s)


@pytest.mark.parametrize("n_prime", range(1, 11))
def test_slater_bit_equal_to_fraction_sum_for_every_y(n_prime):
    # the integer sum and the Fraction sum hold the same exact rational and
    # both round it once, so every Y_nn'l with n' <= 10 agrees to the bit
    for n in range(1, n_prime + 1):
        for l in range(n):
            legs = _y_legs(n, n_prime, l, 1.6875)
            assert slater_radial(*legs) == _fraction_slater_radial(*legs)


@pytest.mark.parametrize("z_star", [1.0, 1.6875, 2.3])
def test_slater_bit_equal_to_fraction_sum_for_j_and_k(z_star):
    r10 = hydrogenic_radial(1, 0, z_star)
    r20 = hydrogenic_radial(2, 0, z_star)
    j_ref = 2.0 * _fraction_slater_radial(0, r10, r20, r10, r20)
    k_ref = 2.0 * _fraction_slater_radial(0, r10, r20, r20, r10)
    assert _direct_exchange_1s2s(z_star) == (j_ref, k_ref)


def _generic_slater_cases():
    cases = []
    for k in (0, 1, 2):
        cases.append((k, PolyExp.build([(1, 0)], 1),
                      PolyExp.build([(1, 1)], Fraction(3, 2)),
                      PolyExp.build([(2, k), (-1, k + 1)], 1),
                      PolyExp.build([(1, k)], 2)))
    a = PolyExp.build([(1, 1)], 1)
    b = PolyExp.build([(1, 0), (1, 1)], Fraction(5, 4))
    c = PolyExp.build([(2, 1)], Fraction(3, 4))
    d = PolyExp.build([(1, 1)], 2)
    cases += [(1, a, b, c, d), (1, b, a, d, c),
              (0, ONE_S, ONE_S, ONE_S, ONE_S),
              (0, PolyExp.build([(1, 0)], 1, scale=3.0), ONE_S, ONE_S, ONE_S),
              (1, PolyExp.build([(Fraction(-7, 3), 1), (Fraction(5, 9), 3)],
                                Fraction(11, 7), scale=0.3),
               PolyExp.build([(Fraction(2, 5), 2), (1, 0), (-3, 4)],
                             Fraction(13, 6), scale=-1.9),
               PolyExp.build([(Fraction(1, 6), 0), (4, 2)], Fraction(2, 9)),
               PolyExp.build([(Fraction(-3, 8), 1)], Fraction(17, 5),
                             scale=2.5))]
    return cases


@pytest.mark.parametrize("case", _generic_slater_cases())
def test_slater_bit_equal_to_fraction_sum_generic(case):
    assert slater_radial(*case) == _fraction_slater_radial(*case)

