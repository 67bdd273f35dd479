"""Helium: hydrogenic algebra, channel bookkeeping, energies."""
import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import varpert.reference as ref
from varpert import helium, polyexp, reports
from varpert.helium import (HeliumResult, excited_triplet_energy,
                            ground_state, hydrogenic_radial,
                            optimal_zstar_excited, optimal_zstar_ground,
                            second_order_by_n_prime, second_order_correction,
                            variational_ground_energy, x_integral, y_integral)
from varpert.polyexp import polyexp_moment

from polyexp_helpers import coefficients, evaluate, gamma

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


def _fraction_hydrogenic_radial(n, l, z_star):
    """Reference: (terms, gamma, scale) of R_nl from Fraction products."""
    zs = Fraction(z_star)
    two_g = 2 * zs / n
    norm_sq = (two_g ** 3 * math.factorial(n - l - 1)
               / (2 * n * math.factorial(n + l)))
    k = n - l - 1
    terms = tuple((Fraction((-1) ** j * math.comb(n + l, k - j),
                            math.factorial(j)) * two_g ** (l + j), l + j)
                  for j in range(k + 1))
    try:
        scale = math.sqrt(float(norm_sq))
    except OverflowError:
        raise ValueError(f"z_star={z_star!r} overflows R_{n}{l}") from None
    return terms, zs / n, scale


@pytest.mark.parametrize("z_star", [1e-3, 0.1, 1.0, 27 / 16, 2.3, 3.7e5,
                                    1e103, 1e300])
def test_radial_equal_to_fraction_formula(z_star):
    # every coefficient and the normalization exactly as Fraction algebra
    # gives them, and the same refusal where N^2 overflows (from 1e103)
    for n in range(1, 13):
        for l in range(n):
            try:
                expected = _fraction_hydrogenic_radial(n, l, z_star)
            except ValueError as exc:
                message = re.escape(str(exc))
                with pytest.raises(ValueError, match=f"^{message}$"):
                    hydrogenic_radial(n, l, z_star)
                continue
            r = hydrogenic_radial(n, l, z_star)
            assert (coefficients(r), gamma(r), r.scale) == expected


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


@pytest.mark.parametrize("z_star", [1e-100, 1e-60, 1e60, 1e100, 1e300])
def test_y_integral_refuses_charges_out_of_float_range(z_star):
    # 5 z/8 itself is a normal float, but the product of the four leg
    # scales (each about z^1.5) or the exact ratio (about z^-5) is not
    with pytest.raises(ValueError):
        y_integral(1, 1, 0, z_star)


def test_x_integral_refuses_charges_out_of_float_range():
    # X_2 = 4 sqrt(2) z / 27 holds at 1e-100; further down the product of
    # the two leg scales (about z^3) underflows, and 0.0 used to come back
    assert x_integral(2, 1e-100) == pytest.approx(
        4.0 * math.sqrt(2.0) / 27.0 * 1e-100, rel=1e-13, abs=0.0)
    for z_star in (1e-110, 1e-150):
        with pytest.raises(ValueError, match=r"^moment of r\^1 leaves the "
                                             r"float range$"):
            x_integral(2, z_star)


def test_excited_energy_refuses_charge_out_of_float_range():
    with pytest.raises(ValueError, match="float range"):
        excited_triplet_energy(1e-60, 2.0)


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


@pytest.mark.parametrize("z", [1e200, 1e155])
def test_variational_ground_energy_refuses_an_overflowing_term(z):
    # 4 Z* Z - 2 Z*^2 read inf - inf, and the energy nan
    with pytest.raises(ValueError, match="leaves the float range"):
        variational_ground_energy(z, z)


def test_optimal_zstar_ground_is_stationary():
    assert optimal_zstar_ground(2.0) == 1.6875
    e0 = variational_ground_energy(1.6875, 2.0)
    for dz in (-1e-3, 1e-3):
        assert variational_ground_energy(1.6875 + dz, 2.0) > e0
    with pytest.raises(ValueError):
        optimal_zstar_ground(0.5)


@pytest.mark.parametrize("m_range", ["paper", "full"])
def test_amplitude_composition_by_hand(m_range):
    # the four channels through n' = 2, expanded from Y and X: the 1s 2s
    # amplitude interferes the Coulomb and screening parts, A is 1/2 only
    # for identical orbitals, and (-1)^m and 2l+1 enter with Y_221
    y120, y220, y221 = (y_integral(n, 2, l, ZS)
                        for n, l in ((1, 0), (2, 0), (2, 1)))
    x2 = x_integral(2, ZS)
    e2, r = 2.0, 1.0 / math.sqrt(2.0)
    channels = [  # (amplitude, 2 - 1/n^2 - 1/n'^2)
        (2.0 * r * e2 * y120 - 2.0 * r * (2.0 - ZS) * e2 * x2, 0.75),  # 1200
        (2.0 * 0.5 * e2 * y220, 1.5),                                 # 2200
        (2.0 * 0.5 * e2 * y221 / 3.0, 1.5),                           # 2210
        (2.0 * r * e2 * (-1.0) * y221 / 3.0, 1.5),                    # 2211
    ]
    expected = sum(amp * amp / (-ZS * ZS * gap) for amp, gap in channels)
    # n = n' for the only m > 0 channel, so ``full`` weighs it once too
    buckets = second_order_by_n_prime(ZS, 2.0, 2, m_range=m_range)
    assert list(buckets) == [2]
    assert buckets[2] == pytest.approx(expected, rel=1e-13)


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


def test_doubled_channels_come_within_tolerance_of_the_published_sum():
    # criterion 4's explanation: every n != n' channel through n' = 7
    # counted twice gives -0.0244974 ryd, 4.0e-4 from the printed -0.0249:
    # inside the criterion's 1e-3 ryd, but not the printed digits
    zs = optimal_zstar_ground(2.0)
    total = 0.0
    for n in range(1, 8):
        for n_prime in range(max(n, 2), 8):
            for l in range(n):
                y = y_integral(n, n_prime, l, zs)
                for m in range(l + 1):
                    a = 0.5 if n == n_prime and m == 0 else 1.0 / math.sqrt(2.0)
                    amp = 2.0 * a * 2.0 * ((-1.0) ** m) * y / (2 * l + 1)
                    if n == 1:
                        amp += -2.0 * a * (2.0 - zs) * 2.0 * x_integral(
                            n_prime, zs)
                    weight = 1.0 if n == n_prime else 2.0
                    total += weight * amp * amp / (
                        -zs * zs * (2.0 - 1.0 / n ** 2 - 1.0 / n_prime ** 2))
    assert total == pytest.approx(-0.0244974, rel=0.0, abs=5e-8)
    gap = total - ref.HELIUM["e_second"]
    assert gap == pytest.approx(4.0e-4, rel=0.0, abs=5e-6)
    assert gap < ref.TOL_HELIUM_SECOND
    assert round(total, 4) != ref.HELIUM["e_second"]


def test_full_m_range_only_adds_negative_terms():
    paper = second_order_correction(ZS, 2.0, 4)
    full = second_order_correction(ZS, 2.0, 4, m_range="full")
    assert full < paper


def test_second_order_rejects_bad_arguments():
    with pytest.raises(ValueError):
        second_order_correction(ZS, 2.0, 1)
    with pytest.raises(ValueError):
        second_order_correction(ZS, 2.0, 3, m_range="half")


def test_second_order_checks_m_range_before_any_work(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("orbital built")

    monkeypatch.setattr(helium, "hydrogenic_radial", unbuilt)
    with pytest.raises(ValueError, match=r"^m_range must be 'paper' or "
                                         r"'full', got 'half'$"):
        second_order_by_n_prime(ZS, 2.0, 3, m_range="half")


def test_ground_state_pipeline():
    r = ground_state()
    assert r.z_star == 1.6875
    assert r.e_variational == pytest.approx(-5.6953125, rel=1e-13)
    assert r.e_total == pytest.approx(r.e_variational + r.e_second, rel=1e-13)
    assert r.n_max == 7


def test_helium_result_validation():
    with pytest.raises(ValueError, match="second-order"):
        HeliumResult(z_star=ZS, e_variational=-5.7, e_second=0.1, n_max=7)


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


def test_optimal_zstar_excited_forms_the_unit_charge_pair_once(monkeypatch):
    # J and K at unit charge depend on no input: the first call forms them,
    # later calls at any Z reuse the same bits
    from varpert.helium import _direct_exchange_1s2s
    calls = []

    def counted(z_star):
        calls.append(z_star)
        return _direct_exchange_1s2s(z_star)

    monkeypatch.setattr(helium, "_direct_exchange_1s2s", counted)
    helium._unit_direct_exchange.cache_clear()
    charges = [optimal_zstar_excited(z) for z in (2.0, 3.0, 2.0)]
    assert calls == [1.0]
    j1, k1 = _direct_exchange_1s2s(1.0)
    assert helium._unit_direct_exchange() == (j1, k1)
    assert charges == [2.0 - 0.4 * (j1 - k1), 3.0 - 0.4 * (j1 - k1),
                       charges[0]]
    # the energy at a given charge still takes its own pair
    excited_triplet_energy(charges[0], 2.0)
    assert calls == [1.0, charges[0]]


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
    distinct = {(n, n_prime, l) for n in range(1, 5)
                for n_prime in range(max(n, 2), 5) for l in range(n)}
    assert {args[:3] for args in calls} == distinct
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


def test_second_order_forms_each_transition_density_once_per_call(
        monkeypatch):
    names, formed = {}, []
    product = polyexp._product

    def named(*args):
        f = hydrogenic_radial(*args)
        names[id(f)] = args[:2]
        return f

    def counted(f, g, extra_power=0):
        if extra_power == 2:  # a Slater side; the X_n' moments take r^1
            formed.append((names[id(f)], names[id(g)]))
        return product(f, g, extra_power)

    monkeypatch.setattr(helium, "hydrogenic_radial", named)
    monkeypatch.setattr(polyexp, "_product", counted)
    # the 19 Y through n' = 4 read r^2 R_nl R_10 for the 10 orbitals with
    # n <= 4, each formed once; an identical call forms them afresh
    densities = sorted(((n, l), (1, 0)) for n in range(1, 5)
                       for l in range(n))
    for _ in range(2):
        formed.clear()
        second_order_by_n_prime(ZS, 2.0, 4)
        assert sorted(formed) == densities


def test_second_order_forms_the_sigma_tables_once_per_orbital_pair(
        monkeypatch):
    # the 119 Y through n' = 8 read sigma = mu + nu, which depends on
    # (n, n') alone, so the l of one (n, n') share the tables: 35 forms,
    # one per distinct (n, n'), and an identical call forms them afresh
    formed = []
    tables = polyexp._sigma_tables

    def counted(*args):
        formed.append(args)
        return tables(*args)

    monkeypatch.setattr(polyexp, "_sigma_tables", counted)
    for _ in range(2):
        formed.clear()
        second_order_by_n_prime(ZS, 2.0, 8)
        assert len(formed) == len(set(formed)) == 35


def test_second_order_forms_each_side_moment_once_per_call(monkeypatch):
    # each Slater side r^2 R_nl R_10 at k = l forms its r1 moment W
    # (shift -l-1) and its r2 full moment (shift l) once, and each X_n'
    # its one moment of r^1; an identical call forms them afresh
    names, products, moments = {}, {}, []
    product, moment_sum = polyexp._product, polyexp._moment_sum

    def named(*args):
        f = hydrogenic_radial(*args)
        names[id(f)] = args[:2]
        return f

    def kept(f, g, extra_power=0):
        out = product(f, g, extra_power)
        # holding the dict keeps its id unique for the whole call
        products[id(out[0])] = out[0], (names[id(f)], names[id(g)],
                                        extra_power)
        return out

    def counted(terms, inv, shift=0):
        moments.append((products[id(terms)][1], shift))
        return moment_sum(terms, inv, shift)

    monkeypatch.setattr(helium, "hydrogenic_radial", named)
    monkeypatch.setattr(polyexp, "_product", kept)
    monkeypatch.setattr(polyexp, "_moment_sum", counted)
    expected = [(((n, l), (1, 0), 2), shift) for n in range(1, 9)
                for l in range(n) for shift in (-l - 1, l)]
    expected += [(((n_prime, 0), (1, 0), 1), 0) for n_prime in range(2, 9)]
    for _ in range(2):
        moments.clear()
        second_order_by_n_prime(ZS, 2.0, 8)
        assert sorted(moments) == sorted(expected)
        assert len(moments) == 2 * 36 + 7


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
    # an independent reference: every (n, n', l, m) through n' = 7 filtered
    # down to the channels, in the same order, with every Y and X (and
    # their orbitals) taken afresh
    n_max = 7
    zs = optimal_zstar_ground(2.0)
    channels = [(n, n_prime, l, m)
                for n, n_prime, l, m in itertools.product(range(n_max + 1),
                                                          repeat=4)
                if 1 <= n <= n_prime and (n, n_prime) != (1, 1)
                and l < n and m <= l]
    assert len(channels) == 209
    by_n_prime = dict.fromkeys(range(2, n_max + 1), 0.0)
    for n, n_prime, l, m in channels:
        a = 0.5 if n == n_prime and m == 0 else 1.0 / math.sqrt(2.0)
        y = y_integral(n, n_prime, l, zs)
        amp = 2.0 * a * 2.0 * ((-1.0) ** m) * y / (2 * l + 1)
        if n == 1:
            amp += -2.0 * a * (2.0 - zs) * 2.0 * x_integral(n_prime, zs)
        denom = -zs * zs * (2.0 - 1.0 / n ** 2 - 1.0 / n_prime ** 2)
        by_n_prime[n_prime] += amp * amp / denom
    result = ground_state(n_max=n_max)
    assert result.e_second_by_n_prime == tuple(by_n_prime.values())
    assert result.e_second == math.fsum(by_n_prime.values())


def test_full_ground_state_matches_fresh_channel_sum_at_n_max_10():
    # the reference above through n' = 10, with every m > 0 channel with
    # n != n' counted twice: the transition densities one call shares give
    # the bits of every Y and X taken afresh
    n_max = 10
    zs = optimal_zstar_ground(2.0)
    channels = [(n, n_prime, l, m)
                for n, n_prime, l, m in itertools.product(range(n_max + 1),
                                                          repeat=4)
                if 1 <= n <= n_prime and (n, n_prime) != (1, 1)
                and l < n and m <= l]
    assert len(channels) == 714
    by_n_prime = dict.fromkeys(range(2, n_max + 1), 0.0)
    for n, n_prime, l, m in channels:
        a = 0.5 if n == n_prime and m == 0 else 1.0 / math.sqrt(2.0)
        y = y_integral(n, n_prime, l, zs)
        amp = 2.0 * a * 2.0 * ((-1.0) ** m) * y / (2 * l + 1)
        if n == 1:
            amp += -2.0 * a * (2.0 - zs) * 2.0 * x_integral(n_prime, zs)
        denom = -zs * zs * (2.0 - 1.0 / n ** 2 - 1.0 / n_prime ** 2)
        weight = 2.0 if m > 0 and n != n_prime else 1.0
        by_n_prime[n_prime] += weight * (amp * amp) / denom
    result = ground_state(n_max=n_max, m_range="full")
    assert result.e_second_by_n_prime == tuple(by_n_prime.values())
    assert result.e_second == math.fsum(by_n_prime.values())


def _unless_refused(call, *args):
    """The call's result, or None where it raises ``ValueError``."""
    try:
        return call(*args)
    except ValueError:
        return None


@settings(max_examples=200)
@given(z=st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
                   st.integers(0, 1022)),
       n_max=st.integers(2, 6), m_range=st.sampled_from(["paper", "full"]),
       orbitals=st.tuples(st.integers(1, 6), st.integers(1, 6),
                          st.integers(0, 5)),
       p=st.integers(-2, 3))
def test_helium_entry_points_return_finite_numbers_or_refuse(
        z, n_max, m_range, orbitals, p):
    # Z log-uniform from 1 to 9e307: the ground state answers below
    # Z = 2.0e51 and refuses from there, hydrogenic_radial from 3.6e102
    zs = optimal_zstar_ground(z)
    n, n_prime, l = orbitals
    l = min(l, n - 1, n_prime - 1)
    legs = [_unless_refused(hydrogenic_radial, m, l, zs) for m in (n, n_prime)]
    for leg in legs:
        if leg is not None:
            assert 0.0 < leg.scale < math.inf
    if None not in legs:
        moment = _unless_refused(polyexp_moment, *legs, p)
        assert moment is None or math.isfinite(moment)
    y = _unless_refused(y_integral, n, n_prime, l, zs)
    assert y is None or math.isfinite(y)
    result = _unless_refused(ground_state, z, n_max, m_range)
    if result is not None:
        assert math.isfinite(result.e_variational)
        assert -math.inf < result.e_second < 0.0
        assert all(math.isfinite(e) for e in result.e_second_by_n_prime)
        assert math.isfinite(result.e_total)
    excited = _unless_refused(
        lambda: excited_triplet_energy(optimal_zstar_excited(z), z))
    assert excited is None or math.isfinite(excited)


@settings(max_examples=200)
@given(z_star=st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
                        st.integers(-1074, 1023)),
       z=st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
                   st.integers(0, 1023)),
       n_max=st.integers(2, 4), m_range=st.sampled_from(["paper", "full"]))
@example(z_star=1.0, z=1.7e308, n_max=2, m_range="paper")
@example(z_star=1.363878186425836e29, z=5.16199449518035e292, n_max=2,
         m_range="paper")
@example(z_star=1.0, z=1e160, n_max=3, m_range="paper")
# every bucket finite, but math.fsum of the two overflowed
@example(z_star=1.0, z=1.78e154, n_max=3, m_range="paper")
def test_helium_energies_at_independent_charges_return_finite_or_refuse(
        z_star, z, n_max, m_range):
    # Z* and Z each log-uniform over the positive floats (Z >= 1): 2.5 Z Z*
    # or the screening amplitude (Z - Z*) X_n' squared can overflow where
    # the Slater integrals at Z* still answer
    ground = _unless_refused(variational_ground_energy, z_star, z)
    assert ground is None or math.isfinite(ground)
    excited = _unless_refused(excited_triplet_energy, z_star, z)
    assert excited is None or math.isfinite(excited)
    second = _unless_refused(second_order_correction, z_star, z, n_max,
                             m_range)
    assert second is None or -math.inf < second < 0.0
