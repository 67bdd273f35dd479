"""Helium: hydrogenic algebra, channel bookkeeping, energies."""
import math

import pytest
from scipy.integrate import quad

from varpert import helium, reports
from varpert.helium import (HeliumChannel, HeliumResult, channel_amplitude_sq,
                            enumerate_channels, excited_triplet_energy,
                            ground_state, hydrogenic_radial,
                            optimal_zstar_excited, optimal_zstar_ground,
                            second_order_by_n_prime, second_order_correction,
                            variational_ground_energy, x_integral, y_integral)
from varpert.polyexp import polyexp_moment

from polyexp_helpers import evaluate

ZS = 1.6875  # optimal ground-state effective charge at Z = 2


def test_radial_normalization():
    for n in range(1, 8):
        for l in range(n):
            r = hydrogenic_radial(n, l, ZS)
            assert polyexp_moment(r, r, 2) == pytest.approx(1.0, abs=1e-12)


def test_radial_orthogonality_is_exact():
    # same-l overlaps cancel as rationals, so the float result is 0.0
    for l in (0, 1, 2):
        for n in range(l + 1, 8):
            for n2 in range(n + 1, 8):
                overlap = polyexp_moment(hydrogenic_radial(n, l, ZS),
                                         hydrogenic_radial(n2, l, ZS), 2)
                assert overlap == 0.0


def test_radial_validation():
    with pytest.raises(ValueError):
        hydrogenic_radial(0, 0, ZS)
    with pytest.raises(ValueError):
        hydrogenic_radial(2, 2, ZS)
    with pytest.raises(ValueError):
        hydrogenic_radial(2, 0, 0.0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        x_integral(0, ZS)


NON_FINITE = [float("inf"), float("nan")]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_radial_rejects_non_finite_charge(bad):
    with pytest.raises(ValueError, match="z_star must be finite and > 0"):
        hydrogenic_radial(1, 0, bad)
    with pytest.raises(ValueError, match="z_star must be finite and > 0"):
        y_integral(1, 2, 0, bad)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_energies_reject_non_finite_charge(bad):
    with pytest.raises(ValueError, match="z_star must be finite and > 0"):
        variational_ground_energy(bad, 2.0)
    with pytest.raises(ValueError, match="z_star must be finite and > 0"):
        excited_triplet_energy(bad, 2.0)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_optimal_charges_reject_non_finite_z(bad):
    with pytest.raises(ValueError, match=f"z must be finite and >= 1, got {bad}"):
        optimal_zstar_ground(bad)
    with pytest.raises(ValueError, match=f"z must be finite and >= 1, got {bad}"):
        optimal_zstar_excited(bad)
    with pytest.raises(ValueError, match=f"z must be finite and >= 1, got {bad}"):
        ground_state(bad, n_max=2)


@pytest.mark.parametrize("bad", [-3.0, *NON_FINITE])
def test_energies_reject_bad_nuclear_charge(bad):
    # variational_ground_energy(1.6875, -3.0) used to return +28.05 ryd
    calls = [lambda: variational_ground_energy(ZS, bad),
             lambda: excited_triplet_energy(ZS, bad),
             lambda: second_order_by_n_prime(ZS, bad, 3),
             lambda: second_order_correction(ZS, bad, 3)]
    for call in calls:
        with pytest.raises(ValueError,
                           match=f"^z must be finite and >= 1, got {bad}$"):
            call()


def test_radial_against_quadrature():
    r32 = hydrogenic_radial(3, 2, ZS)
    val, _ = quad(lambda r: r * r * evaluate(r32, r) ** 2, 0.0, 80.0,
                  limit=300)
    assert val == pytest.approx(1.0, rel=1e-9)


def test_x_integrals_closed_forms():
    # <ns|1/r|1s>: Z* for n = 1, sqrt(2)/4 (charge-independent times Z*)
    assert x_integral(1, ZS) == pytest.approx(ZS, rel=1e-13)
    assert x_integral(2, ZS) == pytest.approx(math.sqrt(2.0) / 4.0, rel=1e-13)


def test_y_integrals_closed_forms():
    assert y_integral(1, 1, 0, ZS) == pytest.approx(5.0 * ZS / 8.0, rel=1e-13)
    assert y_integral(2, 2, 1, ZS) == pytest.approx(7.0 / 81.0, rel=1e-13)
    # frozen from this algebra after cross-checking against quadrature
    assert y_integral(1, 2, 0, ZS) == pytest.approx(0.1507866188952571,
                                                    rel=1e-12)


@pytest.mark.parametrize("maker", [x_integral,
                                   lambda n, z: y_integral(1, n, 0, z)])
def test_integrals_linear_in_charge(maker):
    a = maker(2, 1.0)
    b = maker(2, 1.6875)
    assert b == pytest.approx(1.6875 * a, rel=1e-12)


def test_variational_ground_energy_closed_form():
    assert variational_ground_energy(ZS, 2.0) == pytest.approx(-5.6953125,
                                                               rel=1e-14)
    # generic charge: -(4 Z* Z - 2 Z*^2 - 5 Z*/4)
    assert variational_ground_energy(1.0, 2.0) == pytest.approx(-4.75,
                                                                rel=1e-14)


def test_optimal_zstar_ground_is_stationary():
    assert optimal_zstar_ground(2.0) == 1.6875
    e0 = variational_ground_energy(1.6875, 2.0)
    for dz in (-1e-3, 1e-3):
        assert variational_ground_energy(1.6875 + dz, 2.0) > e0
    with pytest.raises(ValueError):
        optimal_zstar_ground(0.5)


def test_channel_construction_and_symmetry_factor():
    ch = HeliumChannel(1, 2, 0, 0)
    assert ch.A == pytest.approx(1.0 / math.sqrt(2.0))
    assert HeliumChannel(2, 2, 0, 0).A == 0.5            # identical orbitals
    assert HeliumChannel(2, 2, 1, 1).A == pytest.approx(
        1.0 / math.sqrt(2.0))                            # m breaks identity


@pytest.mark.parametrize("args", [(2, 1, 0, 0), (1, 1, 0, 0), (2, 3, 2, 0),
                                  (2, 3, 1, 2)])
def test_channel_validation(args):
    with pytest.raises(ValueError):
        HeliumChannel(*args)


def test_enumerate_channels():
    chans = enumerate_channels(7)
    assert len(chans) == 209
    assert chans[0] == HeliumChannel(1, 2, 0, 0)
    assert all(ch.n_prime <= 7 for ch in chans)
    assert len(set(chans)) == len(chans)
    # the count grows with the cutoff and starts at the single (1,2) channel
    assert len(enumerate_channels(2)) == 4


def test_amplitude_composition_s_channel():
    # the 1s ns amplitude interferes the Coulomb and screening parts:
    # sqrt(2) (e^2 Y_1n0 - (Z - Z*) e^2 X_n), squared
    ch = HeliumChannel(1, 2, 0, 0)
    y = y_integral(1, 2, 0, ZS)
    x = x_integral(2, ZS)
    expected = 2.0 * (2.0 * y - (2.0 - ZS) * 2.0 * x) ** 2
    assert channel_amplitude_sq(ch, ZS, 2.0, y) == pytest.approx(expected,
                                                                 rel=1e-13)


def test_amplitude_composition_higher_l():
    # no screening term away from l = 0; the (2l+1) and (-1)^m factors
    # come from the multipole expansion
    ch = HeliumChannel(2, 2, 1, 1)
    y = y_integral(2, 2, 1, ZS)
    expected = (2.0 * (1.0 / math.sqrt(2.0)) * 2.0 * (-1.0) * y / 3.0) ** 2
    assert channel_amplitude_sq(ch, ZS, 2.0, y) == pytest.approx(expected,
                                                                 rel=1e-13)


def test_second_order_buckets_sum_to_total():
    buckets = second_order_by_n_prime(ZS, 2.0, 5)
    total = second_order_correction(ZS, 2.0, 5)
    assert sum(buckets.values()) == pytest.approx(total, rel=1e-12)
    assert all(v < 0.0 for v in buckets.values())


def test_second_order_monotone_in_cutoff():
    previous = 0.0
    for n_max in (2, 3, 4, 5):
        current = second_order_correction(ZS, 2.0, n_max)
        assert current < previous
        previous = current


def test_second_order_frozen_values():
    # frozen from this implementation; every radial integral it consumes
    # is checked against closed forms or quadrature elsewhere
    assert second_order_correction(ZS, 2.0, 7) == pytest.approx(
        -0.014186537365140552, rel=1e-10)
    assert second_order_correction(ZS, 2.0, 7, m_range="full") == pytest.approx(
        -0.014936870718008873, rel=1e-10)


def test_full_m_range_only_adds_negative_terms():
    paper = second_order_correction(ZS, 2.0, 4)
    full = second_order_correction(ZS, 2.0, 4, m_range="full")
    assert full < paper


def test_second_order_rejects_bad_arguments():
    with pytest.raises(ValueError):
        second_order_correction(ZS, 2.0, 1)
    with pytest.raises(ValueError):
        second_order_correction(ZS, 2.0, 3, m_range="half")


def test_ground_state_pipeline():
    r = ground_state()
    assert r.z_star == 1.6875
    assert r.e_variational == pytest.approx(-5.6953125, rel=1e-13)
    assert r.e_total == pytest.approx(r.e_variational + r.e_second, rel=1e-13)
    assert r.n_max == 7


def test_helium_result_validation():
    with pytest.raises(ValueError, match="second-order"):
        HeliumResult(z_star=ZS, e_variational=-5.7, e_second=0.1,
                     e_total=-5.6, n_max=7)
    with pytest.raises(ValueError, match="e_total"):
        HeliumResult(z_star=ZS, e_variational=-5.7, e_second=-0.01,
                     e_total=-5.7, n_max=7)


def test_direct_exchange_closed_forms():
    # J = 34 zeta / 81 ryd and K = 32 zeta / 729 ryd for the 1s2s pair
    from varpert.helium import _direct_exchange_1s2s
    for zeta in (1.0, 1.8496570644718793):
        j, k = _direct_exchange_1s2s(zeta)
        assert j == pytest.approx(34.0 * zeta / 81.0, rel=1e-12)
        assert k == pytest.approx(32.0 * zeta / 729.0, rel=1e-12)
        assert 0.0 < k < j


def test_excited_zstar_closed_form():
    # Z* = Z - (2/5) d(J-K)/dzeta with slope 274/729
    zs = optimal_zstar_excited(2.0)
    assert zs == pytest.approx(2.0 - 0.4 * 274.0 / 729.0, rel=1e-12)
    assert zs == pytest.approx(1.8496570644718793, rel=1e-12)


def test_excited_energy_stationarity_identity():
    # at the stationary charge the expectation collapses to -5 Z*^2 / 4
    zs = optimal_zstar_excited(2.0)
    e = excited_triplet_energy(zs, 2.0)
    assert e == pytest.approx(-1.25 * zs * zs, rel=1e-12)
    assert e == pytest.approx(-4.276539070188412, rel=1e-12)
    for dz in (-1e-4, 1e-4):
        assert excited_triplet_energy(zs + dz, 2.0) > e


def test_excited_numeric_minimizer_agrees():
    # golden-section search over the expectation lands on the closed form
    lo, hi = 1.2, 2.4
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    for _ in range(80):
        if excited_triplet_energy(c, 2.0) < excited_triplet_energy(d, 2.0):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    # function-value comparisons go flat within ~sqrt(eps) of a quadratic
    # minimum, so 1e-8 is the best locatable width
    assert 0.5 * (a + b) == pytest.approx(optimal_zstar_excited(2.0),
                                          abs=5e-8)


def test_second_order_takes_each_slater_integral_once_per_call(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return y_integral(*args)

    monkeypatch.setattr(helium, "y_integral", counted)
    first = second_order_by_n_prime(ZS, 2.0, 4)
    # one call per distinct (n, n', l) among the 28 channels through n' = 4
    distinct = {(ch.n, ch.n_prime, ch.l) for ch in enumerate_channels(4)}
    assert len(calls) == len(distinct) == 19
    assert len(set(calls)) == 19
    # no memo outlives the call: an identical call recomputes all of them
    assert second_order_by_n_prime(ZS, 2.0, 4) == first
    assert len(calls) == 38


def test_second_order_builds_each_orbital_once_per_call(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return hydrogenic_radial(*args)

    monkeypatch.setattr(helium, "hydrogenic_radial", counted)
    second_order_by_n_prime(ZS, 2.0, 4)
    # the Y legs need the 10 orbitals R_nl with n <= 4, and the X_n'
    # overlaps take R_n'0 and R_10 from the same memo
    assert len(set(calls)) == 10
    assert len(calls) == 10


def test_run_helium_sums_the_channels_once(monkeypatch):
    sums = []

    def counted(*args):
        sums.append(args)
        return second_order_by_n_prime(*args)

    monkeypatch.setattr(helium, "second_order_by_n_prime", counted)
    doc = reports.run_helium(reports.RunConfig("helium", n_max_helium=4))
    assert len(sums) == 1
    assert "| 4 |" in doc.text


def test_ground_state_matches_unmemoized_channel_sum():
    # the same per-n' sums in channel order, every Y taken afresh
    n_max = 4
    zs = optimal_zstar_ground(2.0)
    by_n_prime = dict.fromkeys(range(2, n_max + 1), 0.0)
    for ch in enumerate_channels(n_max):
        denom = -zs * zs * (2.0 - 1.0 / ch.n ** 2 - 1.0 / ch.n_prime ** 2)
        y = y_integral(ch.n, ch.n_prime, ch.l, zs)
        by_n_prime[ch.n_prime] += channel_amplitude_sq(ch, zs, 2.0, y) / denom
    result = ground_state(n_max=n_max)
    assert result.e_second_by_n_prime == tuple(by_n_prime.values())
    assert result.e_second == math.fsum(by_n_prime.values())
