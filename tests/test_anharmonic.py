"""Optimized-basis perturbation scheme: cubic root, energies, equivalence."""
import collections
import math
import pickle
import random
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import varpert.anharmonic as anharmonic
import varpert.reference as ref
from varpert.anharmonic import (P_COEFFS, _optimized, energy_conventional_pt,
                                energy_first_order, energy_present,
                                energy_variational, pt_divergent,
                                second_order_closed_form, second_order_sum,
                                solve_omega)
from varpert.exact import ConvergenceError, diag_eigenvalues, shoot_eigenvalue
from varpert.model import KAPPA_EV_A2, hbar_omega, make_anharmonic_spec
from varpert.oscillator import _coefficients, hprime_element

from domain_draws import rescaled_level

B_GRID = (0.001, 0.01, 0.05, 0.25, 1.0)
# log-uniform over every positive float, subnormals included
POSITIVE = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
                     st.integers(-1074, 1023))


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
def test_solve_omega_carries_a_cubic_term_past_the_float_range(b):
    # 24 b kappa^2 overflows; this used to return inf, then to fail the
    # Newton residual check on u = nan, and was then refused. The seed's
    # cube root, taken in parts, carries the root past it: hbar omega is
    # negligible, so u^3 = 24 b kappa^2, and the present energy keeps its
    # bound on the level
    spec = spec_at(b)
    root = math.exp((math.log(24.0) + math.log(b)
                     + 2.0 * math.log(spec.kappa)) / 3.0)
    assert solve_omega(spec, 0).hbar_Omega_n == pytest.approx(root, rel=1e-13)
    present = energy_present(spec, 0).e_total
    assert abs(present / shoot_eigenvalue(spec, 0) - 1.0) <= 0.0083


def test_solve_omega_refuses_a_root_past_the_float_range():
    # u^3 = 24 b kappa^2 reads 2.4e925 eV^3, so u is about 2.9e308 eV
    spec = make_anharmonic_spec(1.0, 1e308, 1e308)
    for call in (solve_omega, energy_present):
        with pytest.raises(ValueError, match=r"^hbar Omega_0 overflows at "
                                             r"quartic_b=1e\+308$"):
            call(spec, 0)


def test_second_order_closed_form_refuses_a_correction_past_the_float_range():
    # the root 2.9e304 eV is finite, and E2, about u n / 144, is not; this
    # raised OverflowError
    spec = make_anharmonic_spec(1.0, 1e300, 1e300)
    n = 10 ** 12
    u = _optimized(spec, n)[0]
    with pytest.raises(ValueError, match=r"overflows E2 for n=10{12}$"):
        second_order_closed_form(spec, n, u)


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
    refusal = f"^the residual at hbar Omega_{n} = .* eV overflows eV\\^3$"
    with pytest.raises(ValueError, match=refusal) as first:
        solve_omega(spec, n)
    variational = energy_variational(spec, n)
    present = energy_present(spec, n)
    assert variational.hbar_omega_n == present.hbar_omega_n
    assert math.isfinite(variational.e_total)
    assert math.isfinite(present.e_total)
    level = diag_eigenvalues(spec, n_levels=n + 1)[n]
    assert level == pytest.approx(present.e_total, rel=1e-12)
    # the spec now keeps the root, and the level still refuses alike
    with pytest.raises(ValueError, match=refusal) as second:
        solve_omega(spec, n)
    assert str(second.value) == str(first.value)


def test_first_order_past_the_float_range_refuses_both_optimized_energies():
    # the root 2.9e304 eV is finite, while E1 = u (n + 1/2) + <n|H'|n> is
    # not: the level's record keeps the root, and each energy that reads
    # E1 refuses, on every call
    spec = make_anharmonic_spec(1.0, 1e300, 1e300)
    n = 10 ** 12
    assert _optimized(spec, n)[0] == pytest.approx(2.8844991406152974e304,
                                                   rel=1e-14)
    for _ in range(2):
        for energy in (energy_variational, energy_present):
            with pytest.raises(ValueError, match=r"^u=2\.88.*e\+304 "
                               r"overflows E1 for n=10{12}$"):
                energy(spec, n)


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
        assert energy_first_order(spec, n, hw) == energy_conventional_pt(
            spec, n, 1).e_total


def _unless_refused(call):
    """The call's result, or None where it raises ``ValueError``."""
    try:
        return call()
    except ValueError:
        return None


@given(k=POSITIVE, b=st.one_of(st.just(0.0), POSITIVE),
       kappa=st.one_of(st.just(KAPPA_EV_A2), POSITIVE), n=st.integers(0, 100))
def test_first_order_at_bare_quantum_is_conventional_order_1_bit_for_bit(
        k, b, kappa, n):
    # both are u (n + 1/2) + <n| H' |n> from the one kernel, and both refuse
    # where it leaves the float range
    spec = _unless_refused(lambda: make_anharmonic_spec(k, b, kappa))
    if spec is None:
        return
    e1 = _unless_refused(
        lambda: energy_first_order(spec, n, hbar_omega(spec)))
    order_1 = _unless_refused(
        lambda: energy_conventional_pt(spec, n, 1).e_first)
    assert e1 == order_1


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
    # s2 = 1e155: <0|x^4|0> overflows at b > 0 and is not formed at b = 0
    lambda: hprime_element(spec_at(1.0), KAPPA_EV_A2 / 1e155, 0, 0),
    lambda: hprime_element(spec_at(0.0), KAPPA_EV_A2 / 1e155, 0, 0),
    lambda: hprime_element(spec_at(0.05), 1e-160, 0, 0),
    lambda: hprime_element(spec_at(0.05), 1e200, 0, 0),
    lambda: hprime_element(spec_at(1e300), 1e-10, 0, 0),
    lambda: energy_conventional_pt(make_anharmonic_spec(1e-310, 0.0), 0,
                                   1).e_total,
    lambda: second_order_sum(spec_at(0.05), 0, 1e200),
    lambda: second_order_sum(spec_at(0.05), 0, 1e-200),
    lambda: second_order_closed_form(spec_at(0.05), 0, 1e200),
    lambda: second_order_closed_form(spec_at(0.05), 0, 1e-200),
    lambda: energy_first_order(spec_at(0.05), 0, 1e-200),
    lambda: energy_first_order(spec_at(0.05), 0, 1e200)],
    ids=["x4", "x2", "hprime_1e-160", "hprime_1e200", "hprime_b1e300",
         "conventional_pt", "sum_1e200", "sum_1e-200",
         "closed_form_1e200", "closed_form_1e-200", "first_order_1e-200",
         "first_order_1e200"])
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


def test_conventional_cubic_matches_the_sum():
    # the hbar omega basis's closed form, against the four-term sum, whose
    # terms cancel: within 8 eps of its largest term for n <= 1000
    rng = random.Random(39)
    for _ in range(300):
        spec = make_anharmonic_spec(10.0 ** rng.uniform(-4.0, 3.0),
                                    10.0 ** rng.uniform(-8.0, 6.0))
        n = rng.choice([rng.randrange(21), rng.randrange(1001)])
        hw = hbar_omega(spec)
        largest = max(hprime_element(spec, hw, k, n) ** 2 / (hw * abs(n - k))
                      for k in (n - 4, n - 2, n + 2, n + 4) if k >= 0)
        cubic = energy_conventional_pt(spec, n, 2).e_second_corr
        assert abs(cubic - second_order_sum(spec, n, hw)) <= (
            8.0 * sys.float_info.epsilon * largest)


def cubic_reference(spec, n):
    """-2 beta^2 / (hbar omega) (34n^3 + 51n^2 + 59n + 21) to 50 digits from
    the spec's b, kappa and hbar omega."""
    hw = hbar_omega(spec)
    with mpmath.workdps(50):
        beta = mpmath.mpf(spec.quartic_b) * mpmath.mpf(spec.kappa) ** 2 / mpmath.mpf(hw) ** 2
        return -2 * beta ** 2 / hw * (34 * mpmath.mpf(n) ** 3
                                      + 51 * mpmath.mpf(n) ** 2 + 59 * n + 21)


@pytest.mark.parametrize("b", [1e-300, 0.05, 1e8, 1e300])
def test_conventional_cubic_is_within_a_few_ulps(b):
    # within 4 ulps of 50 digits wherever the reference is a normal float,
    # -inf where it overflows. At b = 1e-300, n = 1e150 beta^2 alone
    # underflows; the sum read nan or lost every digit from n = 1.2e77 on
    spec = spec_at(b)
    for n in (0, 20, 10**6, 2 * 10**77, 10**150):
        want = cubic_reference(spec, n)
        got = anharmonic._frozen(spec, n)[2]  # order 1 may overflow
        if -want > sys.float_info.max:
            assert got == -math.inf
        elif -want >= sys.float_info.min:
            assert abs(got - want) <= 4 * math.ulp(float(want))


def test_conventional_cubic_error_bound_over_random_draws():
    # eight roundings before the exact ldexp (two in b kappa^2's mantissa,
    # v^2, m / v^2, q^2, / v, the polynomial's mantissa and its product)
    # bound the error by 8 ulps wherever the value is a normal float;
    # 20,000 such draws measured at most 5.6
    rng = random.Random(39)
    for _ in range(300):
        spec = make_anharmonic_spec(10 ** rng.uniform(-4, 3),
                                    10 ** rng.uniform(-300, 300))
        n = rng.choice([rng.randrange(30), rng.randrange(10**6),
                        10 ** rng.randrange(200)])
        want = cubic_reference(spec, n)
        if sys.float_info.min <= -want <= sys.float_info.max:
            got = anharmonic._frozen(spec, n)[2]
            assert abs(got - want) <= 8 * math.ulp(float(want))


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


def test_variant_linear_coefficient_gives_the_published_excited_cell():
    # criterion 3's explanation: with -28 n in place of -280 n, the present
    # energy at n = 1, b = 0.05 is 5.0924099 eV, 2.1e-6 eV from the
    # printed 5.092412 and inside the criterion's 2e-4 eV
    spec = spec_at(0.05)
    level = energy_present(spec, 1)
    u = level.hbar_omega_n
    variant = level.e_total + (spec.quartic_b * spec.kappa ** 2 / u ** 2) ** 2 \
        / (4.0 * u) * (280 - 28) * 1 / 3 ** 2
    assert variant == pytest.approx(5.0924099, rel=0.0, abs=5e-8)
    gap = ref.TABLE3["present"] - variant
    assert gap == pytest.approx(2.1e-6, rel=0.0, abs=5e-8)
    assert gap < ref.TOL_TABLE_EV


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


@pytest.mark.parametrize("k", [1e-310, 5e-309, 6e-309, 1e-308, 1.5e-308])
def test_harmonic_limit_answers_where_s4_overflows(k):
    # <0|x^4|0> = 3 s^4 overflows while s^4 does not; b = 0 then formed
    # 0 * inf and every call raised. Below k = 5.3e-309 s^4 itself
    # overflows, and the second-order sum refused that too
    spec = make_anharmonic_spec(k, 0.0)
    hw = hbar_omega(spec)
    assert hprime_element(spec, hw, 0, 0) == 0.0
    assert second_order_sum(spec, 0, hw) == 0.0
    for order in (1, 2):
        level = energy_conventional_pt(spec, 0, order)
        assert (level.e_first, level.e_second_corr) == (hw / 2.0, 0.0)
    assert pt_divergent(spec, 0) is False


def _hprime_reference(spec, u, d, n):
    """<n + d| H' |n> for d in {0, 4} in 50-digit arithmetic from the
    definitions: c2 = k - u^2 / (4 kappa), s^2 = kappa / u."""
    with mpmath.workdps(50):
        k, b, kappa, u = map(mpmath.mpf, (spec.stiffness_k, spec.quartic_b,
                                          spec.kappa, u))
        s2 = kappa / u
        if d == 0:
            return (k - u * u / (4 * kappa)) * s2 * (2 * n + 1) + b * s2 * s2 * (
                6 * n * n + 6 * n + 3)
        return b * s2 * s2 * mpmath.sqrt((n + 1) * (n + 2) * (n + 3) * (n + 4))


def test_conventional_order_1_answers_where_s4_overflows():
    # in the hbar omega basis <0|x^4|0> = 3 s^4 overflows, while
    # beta = b kappa^2 / u^2 = 9.5e7 eV does not; this was refused
    spec = make_anharmonic_spec(1e-308, 1e-300)
    hw = hbar_omega(spec)
    with mpmath.workdps(50):
        expected = mpmath.mpf(hw) / 2 + _hprime_reference(spec, hw, 0, 0)
        e1 = energy_conventional_pt(spec, 0, 1).e_first
        assert e1 == pytest.approx(2.857486575e8, rel=1e-9)
        assert abs(e1 / expected - 1) <= 2 * sys.float_info.epsilon
        element = hprime_element(spec, hw, 4, 0)
        assert abs(element / _hprime_reference(spec, hw, 4, 0) - 1) <= (
            2 * sys.float_info.epsilon)


def test_conventional_order_2_answers_where_kappa_over_u_squared_overflows():
    # (kappa / u)^2 = 9.6e309 in the hbar omega basis, which no H' element
    # forms; order 1 answered while order 2 and the flag were refused
    spec = make_anharmonic_spec(1e-310, 1e-300)
    hw = hbar_omega(spec)
    level = energy_conventional_pt(spec, 0, 2)
    assert level.e_first == pytest.approx(2.857486575e10, rel=1e-9)
    assert level.e_total == pytest.approx(-9.760761812427622e175, rel=1e-15)
    with mpmath.workdps(50):
        # -42 beta^2 / u at n = 0, from the amplitudes to |2> and |4>
        beta = mpmath.mpf(spec.quartic_b) * (mpmath.mpf(spec.kappa) / hw) ** 2
        expected = -42 * beta * beta / hw
        assert abs(level.e_second_corr / expected - 1) <= (
            2 * sys.float_info.epsilon)
    assert pt_divergent(spec, 0) is True


@pytest.mark.parametrize("k, b", [(1e-310, 1.0)])
def test_overflowing_s4_at_b_above_zero_still_refuses(k, b):
    # beta = b kappa^2 / u^2 itself overflows here
    spec = make_anharmonic_spec(k, b)
    hw = hbar_omega(spec)
    with pytest.raises(ValueError, match="overflows"):
        hprime_element(spec, hw, 0, 0)
    with pytest.raises(ValueError, match="overflows"):
        energy_conventional_pt(spec, 0, 1)
    with pytest.raises(ValueError, match="gives a non-finite Hamiltonian$"):
        diag_eigenvalues(spec, basis_u=hw)


@pytest.mark.parametrize("k, b", [(0.5, 1e308), (9.5e-309, 1.0)])
def test_pt_divergence_flag_is_on_where_the_first_order_overflows(k, b):
    # b <0|x^4|0> and the sum both overflow: inf <= inf read "convergent"
    # at (0.5, 1e308), and (9.5e-309, 1.0) would too once b = 0 is answered
    spec = make_anharmonic_spec(k, b)
    assert second_order_sum(spec, 0, hbar_omega(spec)) == -math.inf
    assert pt_divergent(spec, 0) is True


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
    first = hprime_element(spec, hw, 0, 0)  # b <0|x^4|0> at u = hw
    second = second_order_sum(spec, 0, hw)
    assert abs(second) > first
    spec_small = spec_at(0.01)
    hw_small = hbar_omega(spec_small)
    assert abs(second_order_sum(spec_small, 0, hw_small)) < \
        hprime_element(spec_small, hw_small, 0, 0)


# Hioe & Montroll, J. Math. Phys. 16, 1945 (1975): E_n / (kappa^(2/3) b^(1/3))
# tends to e_n as b -> inf
HIOE_MONTROLL = (1.0603620905, 3.7996730298)


def _quartic_limits(n):
    """(variational, present) E_n / (kappa^(2/3) b^(1/3)) as b -> inf.

    There hbar omega / u -> 0, the cubic gives u^3 = 24 b kappa^2 g(n), and
    E1 = (3/8)(2n + 1) u, beta = u / (24 g(n)) and E2 = u P(n) / (2304
    g(n)^2 (2n + 1)^2).
    """
    g = (2 * n * n + 2 * n + 1) / (2 * n + 1)
    root = (24.0 * g) ** (1.0 / 3.0)
    c5, c4, c3, c2, c1, c0 = P_COEFFS
    p = ((((c5 * n + c4) * n + c3) * n + c2) * n + c1) * n + c0
    variational = 0.375 * (2 * n + 1) * root
    return variational, variational + p * root / (2304.0 * g * g
                                                   * (2 * n + 1) ** 2)


@pytest.mark.parametrize("n", range(21))
def test_energies_reach_their_pure_quartic_limits(n):
    limits = _quartic_limits(n)
    gaps = []
    for b in (1e2, 1e8, 1e14, 1e24):
        spec = make_anharmonic_spec(0.5, b)
        scale = spec.kappa ** (2.0 / 3.0) * b ** (1.0 / 3.0)
        energies = (energy_variational(spec, n).e_total,
                    energy_present(spec, n).e_total)
        gaps.append(max(abs(e / scale / limit - 1.0)
                        for e, limit in zip(energies, limits)))
    # the gap closes as (hbar omega / u)^2, about b^(-2/3), down to rounding
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    assert gaps[3] <= 1e-14


# the README's "Limitations" table: n -> variational and present limits,
# exact e_n, and the two errors in percent
LIMITATIONS = {0: (1.081687, 1.051640, 1.060362, 2.0111, -0.8225),
               1: (3.847446, 3.783322, 3.799673, 1.2573, -0.4303),
               2: (7.436972, 7.423526, 7.455698, -0.2512, -0.4315),
               5: (21.060730, 21.203644, 21.238373, -0.8364, -0.1635),
               10: (49.778901, 50.205522, 50.256255, -0.9498, -0.1009),
               20: (121.401183, 122.503234, 122.604639, -0.9816, -0.0827)}


def test_quartic_limits_are_the_scheme_limitations():
    errors = [tuple(round(100.0 * (limit / e_n - 1.0), 4)
                    for limit in _quartic_limits(n))
              for n, e_n in enumerate(HIOE_MONTROLL)]
    assert errors == [(2.0111, -0.8225), (1.2573, -0.4303)]
    # the diagonalization at b = 1e20 stands in for e_n through n = 20
    spec = make_anharmonic_spec(0.5, 1e20, kappa=1.0)
    exact = [e / 1e20 ** (1.0 / 3.0)
             for e in diag_eigenvalues(spec, n_levels=21)]
    assert exact[:2] == pytest.approx(HIOE_MONTROLL, rel=1e-9)
    errors = [[100.0 * (limit / e_n - 1.0) for limit in _quartic_limits(n)]
              for n, e_n in enumerate(exact)]
    for n, row in LIMITATIONS.items():
        assert tuple(round(x, 6) for x in (*_quartic_limits(n), exact[n])) \
            + tuple(round(x, 4) for x in errors[n]) == row
    # both errors are largest at n = 0, and the second order cuts the
    # error at every n but 2
    for method in 0, 1:
        assert max(range(21), key=lambda n: abs(errors[n][method])) == 0
    assert [n for n, (v, p) in enumerate(errors) if abs(p) >= abs(v)] == [2]


def test_quartic_limits_fall_short_of_the_wkb_constant_at_large_n():
    # WKB (Bender & Orszag, ch. 10): E_n -> C (n + 1/2)^(4/3) kappa^(2/3)
    # b^(1/3) as n -> inf, C = (pi / int_-1^1 sqrt(1 - t^4) dt)^(4/3); the
    # limits above tend to (3/4) 24^(1/3) and (109/144) 24^(1/3) times that
    c = float((mpmath.pi / mpmath.quad(lambda t: mpmath.sqrt(1 - t ** 4),
                                       [-1, 1])) ** (mpmath.mpf(4) / 3))
    assert round(c, 6) == 2.185069
    scaled = [x * 24.0 ** (1.0 / 3.0) for x in (0.75, 109.0 / 144.0)]
    assert [round(x, 6) for x in scaled] == [2.163374, 2.183406]
    limits = [100.0 * (x / c - 1.0) for x in scaled]
    assert [round(x, 4) for x in limits] == [-0.9929, -0.0761]
    spec = make_anharmonic_spec(0.5, 1e24, kappa=1.0)
    errors = []
    for n in (10, 100, 1000, 10 ** 4, 10 ** 5):
        scale = 1e24 ** (1.0 / 3.0) * (n + 0.5) ** (4.0 / 3.0)
        errors.append([100.0 * (energy(spec, n).e_total / scale / c - 1.0)
                       for energy in (energy_variational, energy_present)])
    assert [round(x, 4) for x in errors[0] + errors[1]] == [
        -0.9181, -0.0689, -0.9921, -0.0761]
    # each error closes on its limit from above, monotonically in n
    for method, limit in enumerate(limits):
        gaps = [row[method] - limit for row in errors]
        assert all(a > b > 0.0 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-8


def test_present_error_grows_with_b_towards_its_limit():
    # against the diagonalization, one b per decade from 1e-4 to 1e8 at
    # k = 0.5: the error magnitude grows at every step for n = 0-5, and at
    # 1e8 it reads the b -> inf limitation above
    errors = []
    for b in (10.0 ** e for e in range(-4, 9)):
        spec = make_anharmonic_spec(0.5, b)
        exact = diag_eigenvalues(spec, n_levels=6)
        errors.append([abs(energy_present(spec, n).e_total / exact[n] - 1.0)
                       for n in range(6)])
    assert f"{errors[0][0]:.1e}" == "7.0e-11"
    for n in range(6):
        column = [row[n] for row in errors]
        assert all(a < b for a, b in zip(column, column[1:]))
    assert [round(-100.0 * errors[-1][n], 4) for n in (0, 1, 2, 5)] == [
        LIMITATIONS[n][4] for n in (0, 1, 2, 5)]


def test_conventional_series_has_no_quartic_limit():
    # beside those limits: with the basis frozen at hbar omega, order 2
    # over kappa^(2/3) b^(1/3) falls without bound, about as b^(5/3), and
    # every level is flagged divergent
    for n in range(21):
        ratios = []
        for b in (1.0, 1e2, 1e4):
            spec = make_anharmonic_spec(0.5, b)
            assert pt_divergent(spec, n)
            ratios.append(energy_conventional_pt(spec, n, 2).e_total
                          / (spec.kappa ** (2.0 / 3.0) * b ** (1.0 / 3.0)))
        assert ratios[0] < 0.0
        assert ratios[1] < 1e3 * ratios[0] and ratios[2] < 1e3 * ratios[1]
    # the ground state at b = 1 against the present scheme and exact
    spec = make_anharmonic_spec(0.5, 1.0)
    scaled = [e / spec.kappa ** (2.0 / 3.0) for e in (
        energy_conventional_pt(spec, 0, 2).e_total,
        energy_present(spec, 0).e_total,
        diag_eigenvalues(spec, n_levels=1)[0])]
    assert [round(x, 4) for x in scaled] == [-19.7262, 1.1665, 1.1729]


@pytest.mark.parametrize("k, b, kappa, n, level", [
    (3.676154475869434e-109, 1.3589139772582226e-05, 1.3604505654092432e-200,
     8, 5.157e-134),
    (8.299028088935892e-167, 3.646035425221061e-107, 2.894324583748875e-118,
     6, 3.849e-113)], ids=["n8", "n6"])
def test_closed_forms_keep_a_cubic_term_below_the_float_range(k, b, kappa, n,
                                                              level):
    # 24 b kappa^2 g(n) underflows to 0, and the closed forms read the
    # harmonic values: the present energy was 1.20e-153 eV at n = 8, where
    # shooting and the rescaled diagonalization agree on 5.157e-134 eV
    spec = make_anharmonic_spec(k, b, kappa)
    assert 24.0 * b * kappa * kappa == 0.0
    exact = shoot_eigenvalue(spec, n)
    assert exact == pytest.approx(rescaled_level(k, b, kappa, n), rel=1e-9)
    assert exact == pytest.approx(level, rel=1e-3)
    assert solve_omega(spec, n).hbar_Omega_n > 1e15 * hbar_omega(spec)
    # the Limitations bounds
    assert abs(energy_present(spec, n).e_total / exact - 1.0) <= 0.0083
    assert -0.010 <= energy_variational(spec, n).e_total / exact - 1.0 <= 0.0202


def _closed_form_calls(n):
    """(name, call) for every closed form at level n, and the default-basis
    diagonalization whose basis is hbar Omega_n."""
    return [
        ("solve_omega", lambda spec: solve_omega(spec, n)),
        ("variational", lambda spec: energy_variational(spec, n)),
        ("present", lambda spec: energy_present(spec, n)),
        ("conventional_pt1", lambda spec: energy_conventional_pt(spec, n, 1)),
        ("conventional_pt2", lambda spec: energy_conventional_pt(spec, n, 2)),
        ("pt_divergent", lambda spec: pt_divergent(spec, n)),
        ("diag", lambda spec: diag_eigenvalues(spec, n_levels=2 * n + 1))]


def _outcome(call, spec):
    """The call's result as its repr, which tells every bit of a float, or
    the type and message of the typed error it raised."""
    try:
        return repr(call(spec))
    except (ValueError, ConvergenceError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_closed_forms_solve_each_level_once(monkeypatch):
    # the parameter-scan traffic at one (spec, n), then the default
    # diagonalization, whose basis for 4 levels is hbar Omega_2: one Newton
    # solve, one frozen record, the H' coefficients formed once in each
    # basis, and each element read once: E1's diagonal in the optimized
    # basis, and in the hbar omega basis the shift b <n|x^4|n>; the order-2
    # correction there is the closed-form cubic, which reads no element
    counts = collections.Counter()

    def newton(*args, _call=anharmonic._newton):
        counts["_newton"] += 1
        return _call(*args)

    def coefficients(spec, u, _call=anharmonic._coefficients):
        counts["basis", u] += 1
        return _call(spec, u)

    def hprime(coefficients, d, m, _call=anharmonic._hprime):
        counts["element", coefficients, d] += 1
        return _call(coefficients, d, m)

    monkeypatch.setattr(anharmonic, "_newton", newton)
    monkeypatch.setattr(anharmonic, "_coefficients", coefficients)
    monkeypatch.setattr(anharmonic, "_hprime", hprime)
    spec = spec_at(0.05)
    for _, call in _closed_form_calls(2)[:-1]:
        call(spec)
    diag_eigenvalues(spec)
    u, hw = solve_omega(spec, 2).hbar_Omega_n, hbar_omega(spec)
    optimized, frozen = _coefficients(spec, u), _coefficients(spec, hw)
    assert counts == {"_newton": 1, ("basis", u): 1, ("basis", hw): 1,
                      ("element", optimized, 0): 1, ("element", frozen, 0): 1}


# the diagonalization takes about 1 ms a call, so fewer draws than the
# profile's
@settings(max_examples=150)
@given(k=st.one_of(st.floats(1e-4, 1e3), POSITIVE),
       b=st.one_of(st.just(0.0), st.floats(1e-6, 1e8), POSITIVE),
       kappa=st.one_of(st.just(KAPPA_EV_A2), POSITIVE),
       queries=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 20)),
                        min_size=1, max_size=12))
# solve_omega refuses the residual, and the other calls answer
@example(k=5.620243426657635e235, b=9.167071783033064e-258, kappa=KAPPA_EV_A2,
         queries=[(i, 38) for i in range(7)])
def test_records_leave_every_closed_form_bit_unchanged(k, b, kappa, queries):
    # one spec asked (closed form, level) pairs in a drawn order, then again
    # in the same order, so that the second pass reads only what the first
    # kept; each answer is the one a fresh, equal spec gives, to the bit or
    # to the message
    if not 0.0 < kappa * k < math.inf:  # the spec itself refuses
        return
    spec = make_anharmonic_spec(k, b, kappa)
    for _ in range(2):
        for i, n in queries:
            name, call = _closed_form_calls(n)[i]
            assert _outcome(call, spec) == _outcome(
                call, make_anharmonic_spec(k, b, kappa)), (name, n)


def test_a_queried_spec_equals_a_fresh_one():
    spec = spec_at(0.05)
    for n in range(4):
        for _, call in _closed_form_calls(n):
            call(spec)
    fresh = spec_at(0.05)
    assert spec == fresh and hash(spec) == hash(fresh)
    assert repr(spec) == repr(fresh)
    assert pickle.dumps(spec) == pickle.dumps(fresh)
    restored = pickle.loads(pickle.dumps(spec))
    assert restored == fresh and hash(restored) == hash(fresh)
    assert repr(restored) == repr(fresh)
    assert hbar_omega(restored) == hbar_omega(fresh)
    assert repr(energy_present(restored, 3)) == repr(energy_present(fresh, 3))
