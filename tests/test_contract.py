"""Return-or-raise contract of the oscillator entry points over the whole
float domain: finite k, kappa > 0, finite b >= 0, n from 0 to 100 (0 to 20
for shooting) and, for the functions that take one, any basis quantum u > 0.

Every entry point either returns finite numbers, with hbar omega > 0, or
raises ``ValueError``; ``diag_eigenvalues`` and ``shoot_eigenvalue`` may
also raise ``ConvergenceError``. The one documented exception is the
second-order sum, which may read -inf or nan where its amplitudes' squares
overflow; in the hbar omega basis ``pt_divergent`` must then flag the level.
Past n = 100 the entry points are held to that at four huge levels, where
the ladder factors and then n itself leave the float range.
"""
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varpert.anharmonic import (energy_conventional_pt, energy_first_order,
                                energy_present, energy_variational,
                                pt_divergent, second_order_closed_form,
                                second_order_sum, solve_omega)
from varpert.exact import (REL_WIDTH, ConvergenceError, diag_eigenvalues,
                           shoot_eigenvalue)
from varpert.model import KAPPA_EV_A2, hbar_omega, make_anharmonic_spec
from varpert.oscillator import hprime_element

# log-uniform over every positive float, subnormals included
POSITIVE = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
                     st.integers(-1074, 1023))


def _unless_refused(call, *args):
    """The call's result, or None where it raises ``ValueError``."""
    try:
        return call(*args)
    except ValueError:
        return None


@given(k=POSITIVE, b=st.one_of(st.just(0.0), POSITIVE),
       kappa=st.one_of(st.just(KAPPA_EV_A2), POSITIVE),
       n=st.integers(0, 100))
def test_closed_forms_return_finite_numbers_or_refuse(k, b, kappa, n):
    spec = _unless_refused(make_anharmonic_spec, k, b, kappa)
    if spec is None:  # k, b and kappa are in range, so only kappa k is not
        assert not 0.0 < kappa * k < math.inf
        return
    hw = hbar_omega(spec)
    assert 0.0 < hw < math.inf
    sol = _unless_refused(solve_omega, spec, n)
    if sol is not None:
        assert 0.0 < sol.hbar_Omega_n < math.inf
        assert math.isfinite(sol.residual)
    for energy, args in ((energy_variational, ()), (energy_present, ()),
                         (energy_conventional_pt, (1,))):
        level = _unless_refused(energy, spec, n, *args)
        if level is not None:
            assert 0.0 < level.hbar_omega_n < math.inf
            assert math.isfinite(level.e_first)
            assert math.isfinite(level.e_second_corr)
            assert math.isfinite(level.e_total)
    divergent = _unless_refused(pt_divergent, spec, n)
    second = _unless_refused(energy_conventional_pt, spec, n, 2)
    if second is not None:
        assert 0.0 < second.hbar_omega_n < math.inf
        assert math.isfinite(second.e_first)
        if not math.isfinite(second.e_second_corr):
            assert divergent is True


@given(k=POSITIVE, b=st.one_of(st.just(0.0), POSITIVE),
       kappa=st.one_of(st.just(KAPPA_EV_A2), POSITIVE), u=POSITIVE,
       n=st.integers(0, 100), step=st.integers(-6, 6),
       n_levels=st.integers(1, 21), explicit_basis=st.booleans())
def test_basis_functions_return_finite_numbers_or_refuse(
        k, b, kappa, u, n, step, n_levels, explicit_basis):
    spec = _unless_refused(make_anharmonic_spec, k, b, kappa)
    if spec is None:
        return
    # a row n + step below 0 must be refused, any other pair answered
    element = _unless_refused(hprime_element, spec, u, n + step, n)
    if element is not None:
        assert math.isfinite(element)
    e1 = _unless_refused(energy_first_order, spec, n, u)
    if e1 is not None:
        assert math.isfinite(e1)
    e2 = _unless_refused(second_order_sum, spec, n, u)
    if e2 is not None:  # -inf or nan where an amplitude's square overflows
        assert e2 < math.inf or math.isnan(e2)
    # the diagonalization, in basis u or in its default basis
    try:
        levels = diag_eigenvalues(spec, basis_u=u if explicit_basis else None,
                                  n_levels=n_levels)
    except (ValueError, ConvergenceError):
        return
    assert len(levels) == n_levels
    assert all(math.isfinite(e) for e in levels)
    assert all(lo < hi for lo, hi in zip(levels, levels[1:]))


# a shooting call takes about 3 ms, so fewer draws than the profile's
@settings(max_examples=300)
@given(k=POSITIVE, b=st.one_of(st.just(0.0), POSITIVE),
       kappa=st.one_of(st.just(KAPPA_EV_A2), POSITIVE), n=st.integers(0, 20))
def test_shooting_returns_a_finite_level_or_refuses(k, b, kappa, n,
                                                    time_limit):
    spec = _unless_refused(make_anharmonic_spec, k, b, kappa)
    if spec is None:
        return
    try:
        with time_limit(1.0):  # some draws once never returned
            level = shoot_eigenvalue(spec, n)
    except (ValueError, ConvergenceError):
        return
    assert 0.0 < level < math.inf


# a shooting call takes about 3 ms, so fewer draws than the profile's
@settings(max_examples=300)
@given(k=POSITIVE, b=st.one_of(st.just(0.0), POSITIVE),
       kappa=st.one_of(st.just(KAPPA_EV_A2), POSITIVE), n=st.integers(0, 20))
# 24 b kappa^2 g(n) underflows at both, where the closed forms read the
# harmonic values, about 100 % off
@example(k=3.676154475869434e-109, b=1.3589139772582226e-05,
         kappa=1.3604505654092432e-200, n=8)
@example(k=8.299028088935892e-167, b=3.646035425221061e-107,
         kappa=2.894324583748875e-118, n=6)
def test_closed_forms_stay_within_their_stated_bounds_of_shooting(k, b, kappa,
                                                                  n):
    # the README's Limitations bounds: present within 0.8225 % of the
    # level, variational from -0.9929 % to +2.0111 %, and the variational
    # energy above the lowest level of each parity, to within shooting's
    # final bracket
    spec = _unless_refused(make_anharmonic_spec, k, b, kappa)
    if spec is None:
        return
    present = _unless_refused(energy_present, spec, n)
    if present is None:
        return
    try:
        exact = shoot_eigenvalue(spec, n)
    except (ValueError, ConvergenceError):
        return
    assert abs(present.e_total / exact - 1.0) <= 0.0083
    variational = present.e_first
    assert -0.010 <= variational / exact - 1.0 <= 0.0202
    if n < 2:
        assert variational >= exact * (1.0 - REL_WIDTH)


def _hprime_from(d):
    """<n + d| H' |n> in the hbar omega basis, as a call (spec, n)."""
    return lambda spec, n: hprime_element(spec, hbar_omega(spec), n + d, n)


# every oscillator entry point that takes a level, as a call (spec, n)
LEVEL_CALLS = {
    "conventional_pt1": lambda spec, n: energy_conventional_pt(spec, n, 1),
    "conventional_pt2": lambda spec, n: energy_conventional_pt(spec, n, 2),
    "pt_divergent": pt_divergent,
    "second_order_sum": lambda spec, n: second_order_sum(spec, n,
                                                         hbar_omega(spec)),
    "solve_omega": solve_omega,
    "energy_variational": energy_variational,
    "energy_present": energy_present,
    "energy_first_order": lambda spec, n: energy_first_order(spec, n,
                                                             hbar_omega(spec)),
    "second_order_closed_form": lambda spec, n: second_order_closed_form(
        spec, n, solve_omega(spec, n).hbar_Omega_n),
    "shoot_eigenvalue": shoot_eigenvalue,
    "hprime_element_d0": _hprime_from(0),
    "hprime_element_d2": _hprime_from(2),
    "hprime_element_d4": _hprime_from(4),
}


@pytest.mark.parametrize("n", [2 * 10**77, 6 * 10**153, 10**200, 10**400],
                         ids=["2e77", "6e153", "1e200", "1e400"])
@pytest.mark.parametrize("name", list(LEVEL_CALLS))
def test_huge_levels_return_or_refuse_naming_the_level(name, n, time_limit):
    # each raised a bare OverflowError from one of these levels on: the
    # ladder factors' ints, then n + 1/2 itself, have no float
    spec = make_anharmonic_spec(0.5, 0.05)
    with time_limit(5.0):
        try:
            LEVEL_CALLS[name](spec, n)
        except ValueError as exc:
            assert str(n) in str(exc)


def test_conventional_order_1_answers_where_its_order_2_sum_has_no_float():
    # the frozen record forms order 2 for order 1 too; from n = 1.2e77 on
    # the four-term sum's d = 2 amplitude squares past the float range and
    # read nan, while the closed-form cubic answers; the level stays flagged
    spec = make_anharmonic_spec(0.5, 0.05)
    n = 2 * 10**77
    hw = hbar_omega(spec)
    beta = spec.quartic_b * spec.kappa ** 2 / hw ** 2
    expected = hw * (n + 0.5) + beta * (6 * n * n + 6 * n + 3)
    assert energy_conventional_pt(spec, n, 1).e_total == pytest.approx(
        expected, rel=1e-15)
    cubic = -2.0 * beta * beta / hw * (34 * n**3 + 51 * n * n + 59 * n + 21)
    assert energy_conventional_pt(spec, n, 2).e_second_corr == pytest.approx(
        cubic, rel=1e-14)
    assert pt_divergent(spec, n) is True


def test_conventional_order_2_answers_where_its_ladder_product_has_no_float():
    # from n = 1.2e77 the d = 4 ladder product has no float, and the sum
    # read nan and flagged the level; its root taken in two halves answers,
    # with the four terms cancelling to rounding of the largest
    spec = make_anharmonic_spec(0.5, 1e-300)
    n = 2 * 10**77
    hw = hbar_omega(spec)
    beta = spec.quartic_b * spec.kappa ** 2 / hw ** 2
    largest = (beta * (4 * n + 6) * math.sqrt((n + 1) * (n + 2))) ** 2 / (
        2.0 * hw)
    e2 = energy_conventional_pt(spec, n, 2).e_second_corr
    assert abs(e2) <= 8.0 * sys.float_info.epsilon * largest
    assert pt_divergent(spec, n) is False
