"""Exact radial-integral algebra against factorials and quadrature."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from varpert.helium import _direct_exchange_1s2s, hydrogenic_radial
from varpert.polyexp import PolyExp, polyexp_moment, slater_radial

from polyexp_helpers import build, coefficients, evaluate, gamma

ONE_S = build([(2, 0)], 1)  # 2 e^-r, the unit-charge 1s radial
BARE = build([(1, 0)], 1)
# 1 - 1 + r^2: the r^0 terms cancel, but the product keeps their power
CANCELLED = build([(1, 0), (-1, 0), (1, 2)], 1)


def test_build_normalizes_to_fractions():
    # rational coefficients become integers over one denominator, and the
    # rate a reduced integer pair, with the same values as rationals
    f = build([(0.5, 1), (Fraction(1, 3), 0)], Fraction(6, 4), scale=2.0)
    assert (f.terms, f.den, f.rate) == (((3, 1), (2, 0)), 6, (3, 2))
    assert coefficients(f) == ((Fraction(1, 2), 1), (Fraction(1, 3), 0))
    assert gamma(f) == Fraction(3, 2)
    assert f.scale == 2.0


def test_build_validation():
    with pytest.raises(ValueError, match="rate"):
        build([(1, 0)], 0)
    with pytest.raises(ValueError, match="den"):
        PolyExp(((1, 0),), 0, (1, 1))
    with pytest.raises(ValueError, match="powers"):
        build([(1, -1)], 1)


def test_pointwise_evaluation():
    f = build([(1, 0), (-2, 1)], 2, scale=3.0)
    r = np.array([0.0, 0.5, 1.0])
    expected = 3.0 * (1.0 - 2.0 * r) * np.exp(-2.0 * r)
    assert np.allclose(evaluate(f, r), expected, rtol=1e-14)


@pytest.mark.parametrize("p, expected", [(0, 0.5), (1, 0.25), (2, 0.25),
                                         (3, 0.375)])
def test_moment_pure_exponential(p, expected):
    # int r^p exp(-2r) dr = p! / 2^(p+1)
    assert polyexp_moment(BARE, BARE, p) == expected


def test_moment_against_quadrature():
    f = build([(1, 0), (-1, 2)], Fraction(4, 3), scale=1.7)
    g = build([(3, 1)], Fraction(1, 2), scale=0.4)
    val, _ = quad(lambda r: r ** 2 * evaluate(f, r) * evaluate(g, r),
                  0.0, 60.0, limit=200)
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
    a = build([(1, 0)], 1)
    b = build([(1, 1)], Fraction(3, 2))
    c = build([(2, k), (-1, k + 1)], 1)
    d = build([(1, k)], 2)

    def f(r1):
        return r1 * r1 * evaluate(a, r1) * evaluate(c, r1)

    def g(r2):
        return r2 * r2 * evaluate(b, r2) * evaluate(d, r2)

    lower, _ = dblquad(lambda r2, r1: f(r1) * g(r2) * r2 ** k / r1 ** (k + 1),
                       0.0, 30.0, 0.0, lambda r1: r1, epsrel=1e-11)
    upper, _ = dblquad(lambda r2, r1: f(r1) * g(r2) * r1 ** k / r2 ** (k + 1),
                       0.0, 30.0, lambda r1: r1, 30.0, epsrel=1e-11)
    assert slater_radial(k, a, b, c, d) == pytest.approx(lower + upper,
                                                         rel=1e-9)


def test_slater_swap_symmetry():
    a = build([(1, 1)], 1)
    b = build([(1, 0), (1, 1)], Fraction(5, 4))
    c = build([(2, 1)], Fraction(3, 4))
    d = build([(1, 1)], 2)
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
    p_leg = build([(1, 1)], 1)
    with pytest.raises(ValueError,
                       match=r"^kernel power k=2 too high for r2-side power 2$"):
        slater_radial(2, p_leg, BARE, p_leg, BARE)
    # a power whose coefficient cancels to 0 still counts
    with pytest.raises(ValueError,
                       match=r"^kernel power k=2 too high for r1-side power 2$"):
        slater_radial(2, CANCELLED, p_leg, BARE, p_leg)


def test_slater_with_an_empty_leg_is_zero():
    # no terms on either side leaves nothing to integrate
    empty = build((), 1)
    assert slater_radial(0, empty, ONE_S, ONE_S, ONE_S) == 0.0
    assert slater_radial(3, ONE_S, empty, ONE_S, BARE) == 0.0


def test_scale_factors_multiply_through():
    scaled = build([(1, 0)], 1, scale=3.0)
    assert polyexp_moment(scaled, BARE, 2) == pytest.approx(
        3.0 * polyexp_moment(BARE, BARE, 2), rel=1e-15)
    assert slater_radial(0, scaled, ONE_S, ONE_S, ONE_S) == pytest.approx(
        3.0 * slater_radial(0, BARE, ONE_S, ONE_S, ONE_S), rel=1e-15)


def test_side_memo_tells_apart_legs_that_share_terms():
    # a first leg keeps its last side, keyed on its partner; partners that
    # share one terms tuple but not the rate or the denominator have other
    # sides, and each gives the bits of a fresh pair of legs
    shared = ((2, 1), (-1, 2))

    def first():
        return build([(1, 0), (1, 1)], Fraction(5, 4), scale=0.7)

    kept = first()
    values = []
    for den, rate in ((1, (1, 1)), (1, (3, 1)), (7, (1, 1)), (1, (1, 1))):
        partner = PolyExp(shared, den, rate)
        fresh = PolyExp(tuple([*shared]), den, rate)
        values.append(slater_radial(1, kept, ONE_S, partner, ONE_S))
        assert values[-1] == slater_radial(1, first(), ONE_S, fresh, ONE_S)
    assert len(set(values)) == 3


def _fraction_lower_tail(m, nu):
    fact_m = math.factorial(m)
    return [(Fraction(fact_m, math.factorial(i)) / nu ** (m + 1 - i), i)
            for i in range(m + 1)]


def _fraction_product(f, g, extra_power):
    """{power: Fraction} of f*g*r^extra_power; a cancelled power keeps its key."""
    out = {}
    for cf, pf in coefficients(f):
        for cg, pg in coefficients(g):
            p = pf + pg + extra_power
            out[p] = out.get(p, Fraction(0)) + cf * cg
    return out


def _fraction_moment(f, g, p):
    """Reference: the moment summed term by term in Fractions."""
    gam = gamma(f) + gamma(g)
    total = Fraction(0)
    for power, coeff in _fraction_product(f, g, p).items():
        if power < 0:
            raise ValueError(f"combined power {power} < 0, integral diverges")
        total += coeff * math.factorial(power) / gam ** (power + 1)
    return f.scale * g.scale * float(total)


def _fraction_slater_radial(k, a, b, c, d):
    """Reference: the same closed form summed term by term in Fractions."""
    if k < 0:
        raise ValueError("multipole order k must be >= 0")
    p_terms, mu = _fraction_product(a, c, 2), gamma(a) + gamma(c)
    g_terms, nu = _fraction_product(b, d, 2), gamma(b) + gamma(d)
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


def _outcome(fn, *args):
    """fn's value, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def _generic_slater_cases():
    cases = []
    for k in (0, 1, 2):
        cases.append((k, build([(1, 0)], 1),
                      build([(1, 1)], Fraction(3, 2)),
                      build([(2, k), (-1, k + 1)], 1),
                      build([(1, k)], 2)))
    a = build([(1, 1)], 1)
    b = build([(1, 0), (1, 1)], Fraction(5, 4))
    c = build([(2, 1)], Fraction(3, 4))
    d = build([(1, 1)], 2)
    cases += [(1, a, b, c, d), (1, b, a, d, c),
              (0, ONE_S, ONE_S, ONE_S, ONE_S),
              (0, build([(1, 0)], 1, scale=3.0), ONE_S, ONE_S, ONE_S),
              (1, build([(Fraction(-7, 3), 1), (Fraction(5, 9), 3)],
                        Fraction(11, 7), scale=0.3),
               build([(Fraction(2, 5), 2), (1, 0), (-3, 4)],
                     Fraction(13, 6), scale=-1.9),
               build([(Fraction(1, 6), 0), (4, 2)], Fraction(2, 9)),
               build([(Fraction(-3, 8), 1)], Fraction(17, 5),
                     scale=2.5))]
    # kernel orders through 2l + 2, the last one too high for the legs,
    # each with the legs swapped between r1 and r2
    for l in (1, 2):
        a = build([(1, l), (Fraction(-2, 3), l + 1)], Fraction(3, 2))
        b = build([(Fraction(1, 4), l), (1, l + 2)], Fraction(5, 7))
        c = build([(2, l)], 1)
        d = build([(Fraction(-3, 5), l), (1, l + 1)], Fraction(9, 4))
        for k in range(2 * l + 3):
            cases += [(k, a, b, c, d), (k, b, a, d, c)]
    # extreme charges, in both leg orders
    for z_star in (0.1, 1e5):
        for n, n_prime, l in ((2, 4, 1), (3, 5, 2)):
            k, a, b, c, d = _y_legs(n, n_prime, l, z_star)
            cases += [(k, a, b, c, d), (k, b, a, d, c)]
    # a power whose coefficient cancels to 0 below k + 1, on either side
    p2 = build([(1, 2)], 1)
    cases += [(2, CANCELLED, p2, BARE, p2), (2, p2, CANCELLED, p2, BARE),
              (1, CANCELLED, p2, BARE, p2)]
    return cases


@pytest.mark.parametrize("case", _generic_slater_cases())
def test_slater_bit_equal_to_fraction_sum_generic(case):
    assert (_outcome(slater_radial, *case)
            == _outcome(_fraction_slater_radial, *case))


@pytest.mark.parametrize("p", [-3, -1, 0, 1, 2, 5])
def test_moment_bit_equal_to_fraction_sum(p):
    legs = [build([(Fraction(-7, 3), 1), (Fraction(5, 9), 3)],
                  Fraction(11, 7), scale=0.3),
            build([(Fraction(2, 5), 2), (1, 0), (-3, 4)], Fraction(13, 6)),
            CANCELLED, ONE_S]
    legs += [hydrogenic_radial(n, l, z_star) for z_star in (0.1, 1.6875, 1e5)
             for n, l in ((1, 0), (3, 1), (6, 2))]
    for f in legs:
        for g in legs:
            assert (_outcome(polyexp_moment, f, g, p)
                    == _outcome(_fraction_moment, f, g, p))


RATIONAL = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30))
LEG = st.builds(build,
                st.lists(st.tuples(RATIONAL, st.integers(0, 8)),
                         min_size=1, max_size=5),
                st.builds(Fraction, st.integers(1, 60), st.integers(1, 60)),
                st.sampled_from([1.0, -0.3, 2.5e-3, 7e4]))


@settings(max_examples=150)
@given(k=st.integers(0, 5), legs=st.tuples(LEG, LEG, LEG, LEG),
       p=st.integers(-3, 5))
def test_random_legs_bit_equal_to_fraction_sums(k, legs, p):
    # the same exact rational, rounded once: equal floats, or the same
    # refusal, on legs no hydrogenic orbital has
    assert (_outcome(slater_radial, k, *legs)
            == _outcome(_fraction_slater_radial, k, *legs))
    assert (_outcome(polyexp_moment, legs[0], legs[1], p)
            == _outcome(_fraction_moment, legs[0], legs[1], p))
