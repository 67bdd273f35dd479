"""Optimized-basis perturbation scheme: cubic root, energies, equivalence."""
import math
import random
import re

import pytest

from varpert.anharmonic import (P_COEFFS, energy_conventional_pt,
                                energy_first_order, energy_present,
                                energy_variational, pt_divergent,
                                second_order_closed_form, second_order_sum,
                                solve_omega)
from varpert.exact import diag_eigenvalues
from varpert.model import hbar_omega, make_anharmonic_spec
from varpert.oscillator import hprime_element, x2_element, x4_element

B_GRID = (0.001, 0.01, 0.05, 0.25, 1.0)


def spec_at(b):
    return make_anharmonic_spec(0.5, b)


@pytest.mark.parametrize("b", B_GRID)
@pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
def test_cubic_root_residual_and_stationarity(b, n):
    spec = spec_at(b)
    sol = solve_omega(spec, n)
    hw = hbar_omega(spec)
    assert sol.hbar_Omega_n >= hw  # quartic term can only stiffen the basis
    assert abs(sol.residual) <= 1e-10 * sol.hbar_Omega_n ** 3
    # dE1/du vanishes at the root: central difference with step 1e-6 u
    u, h = sol.hbar_Omega_n, 1e-6 * sol.hbar_Omega_n
    slope = (energy_first_order(spec, n, u + h)
             - energy_first_order(spec, n, u - h)) / (2.0 * h)
    assert abs(slope) <= 1e-7


@pytest.mark.parametrize("b", [1e306, 1e307, 1e308])
def test_solve_omega_refuses_overflowing_cubic(b):
    # 24 b kappa^2 overflows; this used to return inf, then to fail the
    # Newton residual check on u = nan
    message = f"quartic_b={b!r} overflows the cubic for hbar Omega_0"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve_omega(spec_at(b), 0)


def test_solve_omega_root_past_cube_overflow_of_the_seed():
    # the cube of the unscaled Newton seed overflows from b of about 1.5e305
    spec = spec_at(3e305)
    sol = solve_omega(spec, 0)
    u = sol.hbar_Omega_n
    assert u == pytest.approx(4.71e102, rel=1e-3)
    # the residual check, scaled by the power of two nearest u
    e = math.frexp(u)[1]
    v = math.ldexp(u, -e)
    w = math.ldexp(hbar_omega(spec), -e)
    kap = spec.kappa
    r = math.ldexp(24.0 * 3e305 * kap * kap, -3 * e)
    assert abs(v ** 3 - w * w * v - r) <= 1e-10 * v ** 3
    assert math.isfinite(sol.residual)


@pytest.mark.parametrize("k, b, n", [
    (5.620243426657635e235, 9.167071783033064e-258, 38),
    (8.421505865854919e265, 6.805663057718813e181, 27)])
def test_residual_past_the_float_range_refuses_only_solve_omega(k, b, n):
    # the residual in eV^3 used to raise a bare OverflowError from every
    # caller of the cubic, though only solve_omega reports it
    spec = make_anharmonic_spec(k, b)
    with pytest.raises(ValueError, match=f"^the residual at hbar Omega_{n} "
                                         r"= .* eV overflows eV\^3$"):
        solve_omega(spec, n)
    variational = energy_variational(spec, n)
    present = energy_present(spec, n)
    assert variational.hbar_omega_n == present.hbar_omega_n
    assert math.isfinite(variational.e_total)
    assert math.isfinite(present.e_total)
    level = diag_eigenvalues(spec, n_levels=n + 1)[n]
    assert level == pytest.approx(present.e_total, rel=1e-12)


def test_harmonic_limit_root_is_bare_quantum():
    spec = spec_at(0.0)
    sol = solve_omega(spec, 3)
    assert sol.hbar_Omega_n == hbar_omega(spec)


@pytest.mark.parametrize("b, n, expected", [
    (0.01, 0, 2.96558867868734),
    (0.05, 0, 3.5410660115512904),
    (0.25, 0, 5.0029011018072245),
    (0.05, 1, 3.8849550971894713),
])
def test_cubic_root_frozen_values(b, n, expected):
    # frozen from a converged run of this solver, cross-checked by the
    # residual and stationarity invariants above
    assert solve_omega(spec_at(b), n).hbar_Omega_n == pytest.approx(
        expected, rel=1e-12)


def test_root_is_a_minimum_of_first_order_energy():
    spec = spec_at(0.05)
    for n in (0, 1, 4):
        u = solve_omega(spec, n).hbar_Omega_n
        e0 = energy_first_order(spec, n, u)
        for delta in (-1e-3 * u, 1e-3 * u):
            assert energy_first_order(spec, n, u + delta) > e0


def test_first_order_at_bare_quantum_is_conventional_pt1():
    # with u = hbar omega the x^2 counterterm vanishes and the literal
    # form reduces to hbar omega (n + 1/2) + b <n|x^4|n>
    spec = spec_at(0.05)
    hw = hbar_omega(spec)
    for n in range(4):
        assert energy_first_order(spec, n, hw) == pytest.approx(
            energy_conventional_pt(spec, n, 1).e_total, rel=1e-13)


def test_first_order_rejects_nonpositive_u():
    with pytest.raises(ValueError):
        energy_first_order(spec_at(0.05), 0, 0.0)


@pytest.mark.parametrize("func", [energy_first_order, second_order_closed_form,
                                  second_order_sum])
@pytest.mark.parametrize("u", [0.0, -1.0, math.nan, math.inf])
def test_basis_quantum_must_be_finite_and_positive(func, u):
    # nan used to pass the u <= 0 test and come back as a nan energy
    with pytest.raises(ValueError, match=r"^u must be finite and > 0"):
        func(spec_at(0.05), 0, u)


@pytest.mark.parametrize("call", [
    lambda: x4_element(1e155, 0, 0), lambda: x2_element(1e155, 0, 0),
    lambda: hprime_element(spec_at(0.05), 1e-160, 0, 0),
    lambda: hprime_element(spec_at(0.05), 1e200, 0, 0),
    lambda: hprime_element(spec_at(1e300), 1e-10, 0, 0),
    lambda: energy_conventional_pt(make_anharmonic_spec(1e-310, 0.0), 0, 1),
    lambda: second_order_sum(spec_at(0.05), 0, 1e200),
    lambda: second_order_sum(spec_at(0.05), 0, 1e-200),
    lambda: second_order_closed_form(spec_at(0.05), 0, 1e200),
    lambda: energy_first_order(spec_at(0.05), 0, 1e-200),
    lambda: energy_first_order(spec_at(0.05), 0, 1e200)],
    ids=["x4", "x2", "hprime_1e-160", "hprime_1e200", "hprime_b1e300",
         "conventional_pt", "sum_1e200", "sum_1e-200",
         "closed_form_1e200", "first_order_1e-200", "first_order_1e200"])
def test_extreme_basis_raises_value_error_or_returns_finite(call):
    # finite u > 0 whose u^2 or (kappa/u)^2 leaves the float range: these
    # raised OverflowError or ZeroDivisionError, or returned inf or -inf
    try:
        value = call()
    except ValueError:
        return
    assert math.isfinite(value)


@pytest.mark.parametrize("func", [energy_first_order, second_order_closed_form,
                                  second_order_sum])
@pytest.mark.parametrize("n", [-1, -3, -5, -9])
def test_negative_level_is_refused(func, n):
    # these returned -3.78 eV (first order at n = -3), 0.0 (the sum at
    # n <= -5) or an "off shell" error
    spec = spec_at(0.05)
    u = solve_omega(spec, 0).hbar_Omega_n
    with pytest.raises(ValueError, match=r"^n must be >= 0$"):
        func(spec, n, u)


@pytest.mark.parametrize("call", [
    solve_omega, energy_variational, energy_present, pt_divergent,
    lambda spec, n: energy_conventional_pt(spec, n, 1),
    lambda spec, n: energy_conventional_pt(spec, n, 2)],
    ids=["solve_omega", "variational", "present", "pt_divergent",
         "conventional_pt1", "conventional_pt2"])
@pytest.mark.parametrize("n", [-1, -2, -5])
def test_negative_level_is_refused_by_every_level_function(call, n):
    # the conventional pair raised "quantum numbers must be non-negative"
    with pytest.raises(ValueError, match=r"^n must be >= 0$"):
        call(spec_at(0.05), n)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [7, 20])
def test_conventional_pt_refuses_an_overflowing_first_order(order, n):
    # b <n|x^4|n> overflows from n = 7 at this b; this returned inf (order
    # 1) or a nan correction (order 2), while pt_divergent flags the level
    spec = make_anharmonic_spec(0.5, 3e305)
    with pytest.raises(ValueError, match=rf"overflows E1 for n={n}$"):
        energy_conventional_pt(spec, n, order)
    assert pt_divergent(spec, n)


@pytest.mark.parametrize("b", B_GRID)
def test_closed_form_matches_sum_on_shell(b):
    spec = spec_at(b)
    for n in range(13):
        u = solve_omega(spec, n).hbar_Omega_n
        closed = second_order_closed_form(spec, n, u)
        brute = second_order_sum(spec, n, u)
        assert closed == pytest.approx(brute, rel=1e-10)


def test_quintic_polynomial_coefficients():
    assert P_COEFFS == (64, 160, -336, -664, -280, -24)


def test_variant_linear_coefficient_disagrees_with_sum():
    # replacing -280 n by -28 n breaks the identity at every n >= 1
    spec = spec_at(0.05)
    for n in (1, 2, 3):
        sol = solve_omega(spec, n)
        u = sol.hbar_Omega_n
        brute = second_order_sum(spec, n, u)
        good = second_order_closed_form(spec, n, u)
        variant = good + (spec.quartic_b * spec.kappa ** 2 / u ** 2) ** 2 \
            / (4.0 * u) * (280 - 28) * n / (2 * n + 1) ** 2
        assert abs(variant - brute) > 0.05 * abs(brute)


@pytest.mark.parametrize("k", [1e300, 1e306])
def test_present_scheme_at_huge_k_is_the_variational_energy(k):
    # u^3 overflowed in the on-shell check, which then called the exact
    # root u = hbar omega "off shell (residual nan)"
    spec = make_anharmonic_spec(k, 0.0)
    present = energy_present(spec, 0)
    assert math.isfinite(present.e_total)
    assert present.e_total == energy_variational(spec, 0).e_total


def test_closed_form_rejects_off_shell_u():
    spec = spec_at(0.05)
    u = solve_omega(spec, 0).hbar_Omega_n
    with pytest.raises(ValueError, match="off shell"):
        second_order_closed_form(spec, 0, 1.1 * u)


def test_second_order_sum_ground_state_closed_form():
    # at u = hbar omega only x^4 couples, giving -42 b^2 s^8 / hbar omega
    spec = spec_at(0.05)
    hw = hbar_omega(spec)
    s2 = spec.kappa / hw
    expected = -42.0 * spec.quartic_b ** 2 * s2 ** 4 / hw
    assert second_order_sum(spec, 0, hw) == pytest.approx(expected, rel=1e-12)


def test_second_order_correction_sign_low_levels():
    spec = spec_at(0.05)
    for n in (0, 1, 2):
        assert energy_present(spec, n).e_second_corr < 0.0
    # the quintic turns positive from n = 3 on
    assert energy_present(spec, 3).e_second_corr > 0.0


@pytest.mark.parametrize("b, n, var, present, pt2", [
    (0.01, 0, 1.4332783688889226, 1.4327271952781662, 1.4318423427438134),
    (0.05, 0, 1.596885286341832, 1.5912083648787847, 1.5279247720952203),
    (0.25, 0, 2.066476550813565, 2.0412641954349375, None),
    (0.05, 1, 5.106100765470004, 5.0882431697435555, 4.484801261337422),
])
def test_energy_frozen_values(b, n, var, present, pt2):
    # frozen from this implementation after the closed forms were verified
    # against the brute-force sum and both exact oracles
    spec = spec_at(b)
    assert energy_variational(spec, n).e_total == pytest.approx(var, rel=1e-12)
    assert energy_present(spec, n).e_total == pytest.approx(present, rel=1e-12)
    if pt2 is not None:
        assert energy_conventional_pt(spec, n, 2).e_total == pytest.approx(
            pt2, rel=1e-12)


def test_level_results_are_monotone():
    spec = spec_at(0.05)
    for builder in (energy_variational, energy_present):
        energies = []
        for n in range(6):
            r = builder(spec, n)
            assert r.n == n
            assert r.hbar_omega_n == solve_omega(spec, n).hbar_Omega_n
            energies.append(r.e_total)
        assert energies == sorted(energies)


@pytest.mark.parametrize("b", B_GRID)
def test_total_is_first_plus_correction(b):
    spec = spec_at(b)
    for n in range(4):
        var = energy_variational(spec, n)
        pt1 = energy_conventional_pt(spec, n, 1)
        assert var.e_second_corr == pt1.e_second_corr == 0.0
        for r in (var, energy_present(spec, n), pt1,
                  energy_conventional_pt(spec, n, 2)):
            assert r.e_total == r.e_first + r.e_second_corr


def test_conventional_pt_orders():
    spec = spec_at(0.05)
    r1 = energy_conventional_pt(spec, 0, 1)
    r2 = energy_conventional_pt(spec, 0, 2)
    assert r1.hbar_omega_n == hbar_omega(spec)
    assert r2.e_first == r1.e_total
    assert r2.e_second_corr < 0.0
    with pytest.raises(ValueError, match="order"):
        energy_conventional_pt(spec, 0, 3)


def test_pt_divergence_flag():
    assert not pt_divergent(spec_at(0.0), 0)
    assert not pt_divergent(spec_at(0.01), 0)
    assert not pt_divergent(spec_at(0.05), 0)
    assert pt_divergent(spec_at(0.25), 0)


@pytest.mark.parametrize("k", [1e-4, 0.09467647314591257, 0.5, 3.7, 1e3])
def test_conventional_second_order_is_zero_at_b_zero(k):
    # k - u^2/(4 kappa) at u = hbar omega was rounding noise, not 0
    spec = make_anharmonic_spec(k, 0.0)
    for n in range(21):
        assert energy_conventional_pt(spec, n, 2).e_second_corr == 0.0
        assert not pt_divergent(spec, n)


def test_pt_divergence_flag_is_off_at_tiny_b():
    # that noise, squared, outgrew b <n|x^4|n> and flagged n = 0 at 57 of
    # the 200 seeded points; b = 1e-40 at k = 0.5 read e2 = -2.1e-33
    rng = random.Random(18)
    points = [(0.5, 1e-40)] + [(10.0 ** rng.uniform(-4.0, 3.0),
                                10.0 ** rng.uniform(-60.0, -20.0))
                               for _ in range(200)]
    for k, b in points:
        spec = make_anharmonic_spec(k, b)
        assert not any(pt_divergent(spec, n) for n in range(21)), (k, b)


def test_divergence_threshold_is_first_order_term():
    # the flag trips exactly when |E2| outgrows b <n|x^4|n>
    spec = spec_at(0.25)
    hw = hbar_omega(spec)
    first = spec.quartic_b * x4_element(spec.kappa / hw, 0, 0)
    second = second_order_sum(spec, 0, hw)
    assert abs(second) > first
    spec_small = spec_at(0.01)
    hw_small = hbar_omega(spec_small)
    assert abs(second_order_sum(spec_small, 0, hw_small)) < \
        spec_small.quartic_b * x4_element(spec.kappa / hw_small, 0, 0)
