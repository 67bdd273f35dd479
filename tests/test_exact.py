"""Shooting and diagonalization oracles: agreement, limits, failure modes."""
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import varpert.exact as exact
import varpert.reference as ref
from varpert.anharmonic import (energy_conventional_pt, energy_present,
                                energy_variational, solve_omega)
from varpert.exact import (REL_WIDTH, ConvergenceError, diag_eigenvalues,
                           shoot_eigenvalue)
from varpert.model import (KAPPA_EV_A2, LevelResult, hbar_omega,
                           make_anharmonic_spec)
from varpert.oscillator import build_hamiltonian

from domain_draws import rescaled_level

# the (level, b) points of the published Tables 1 and 3
TABLE_POINTS = [(0, b) for b in ref.TABLE1] + [(1, 0.05)]


def spec_at(b):
    return make_anharmonic_spec(0.5, b)


def test_harmonic_limit_shooting():
    spec = spec_at(0.0)
    hw = hbar_omega(spec)
    for n in range(4):
        e = shoot_eigenvalue(spec, n)
        assert e == pytest.approx((n + 0.5) * hw, abs=5e-9)


@pytest.mark.parametrize("k", [1e-306, 1e-305, 1e-300, 1e-100, 1e-12])
def test_shooting_resolves_levels_far_below_energy_tol(k):
    # hbar omega is 4e-150 eV at k = 1e-300, far below the 1e-9 eV
    # energy_tol, and the bracket must still narrow past its first midpoint
    spec = make_anharmonic_spec(k, 0.0)
    hw = hbar_omega(spec)
    for n in (0, 1):
        assert shoot_eigenvalue(spec, n) == pytest.approx((n + 0.5) * hw,
                                                          rel=2e-9, abs=0.0)


def _reference(spec, n):
    """E_n independent of shooting: (n + 1/2) hbar omega at b = 0, else the
    diagonalization of the problem rescaled to kappa = 1."""
    if spec.quartic_b == 0.0:
        return (n + 0.5) * hbar_omega(spec)
    return rescaled_level(spec.stiffness_k, spec.quartic_b, spec.kappa, n)


@pytest.mark.parametrize("k", [1e-307, 1e-308, 2e-308, 1e-309, 1e-310])
def test_shooting_answers_ground_states_whose_old_step_scale_overflowed(k):
    # in Angstrom the step scale (pi/2)^4 (kappa/E)^2 of these ground states
    # overflows: they returned nan, or 7.01e-154 eV for 6.2e-155 eV, and
    # were then refused; in the length unit fitted to the level it reads
    # about 1, and they answer
    spec = make_anharmonic_spec(k, 0.0)
    assert shoot_eigenvalue(spec, 0) == pytest.approx(_reference(spec, 0),
                                                      rel=1e-9, abs=0.0)


def test_shooting_answers_the_ground_state_below_the_old_floor_at_k_1e_307():
    # E_0 = hbar omega / 2 = 6.17e-154 eV, whose H^4 overflows in Angstrom,
    # lay below the 7.0e-154 eV floor that set; with no floor, n = 0
    # answers like n = 1
    spec = make_anharmonic_spec(1e-307, 0.0)
    hw = hbar_omega(spec)
    assert 0.5 * hw == pytest.approx(6.1725e-154, rel=1e-4)
    h2 = (0.5 * math.pi) ** 2 / (0.5 * hw * (1.0 / spec.kappa))
    assert h2 * h2 == math.inf
    for n in (0, 1):
        assert shoot_eigenvalue(spec, n) == pytest.approx(
            (n + 0.5) * hw, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("k, b, kappa, n", [
    (1.4776236254218124e308, 0.0, 1.5e-323, 0),
    (1.7395055034303971e308, 1.2594458873987282e308, 4.802729503191272e-152,
     13),
    (5.294289233796205e182, 0.0, 2.4871989182686016e-131, 8),
    (1.0, 1.0, 2.0 ** -1022, 0),
    (1.1611607223371208, 0.0, 1e-323, 0),
    (5.013766922619659e-172, 1.0551593513654309e-261, 4.8043388479490205e+135,
     13),
    (1e-310, 0.0, 1.0, 10),
], ids=["zero_turning_point", "zero_turning_point_huge_b",
        "overflowing_k_over_kappa", "overflowing_psi", "zero_step",
        "underflowing_b_over_kappa", "subnormal_k_over_kappa"])
def test_shooting_answers_past_the_old_float_range_edges(
        k, b, kappa, n, time_limit):
    # in Angstrom a scale of each leaves the float range, as the ids say:
    # these never returned (a zero box step, or a bracket grown without end
    # on a nan psi that counts no node), raised ZeroDivisionError, or, where
    # b / kappa underflows, returned 6.41e4 eV for the 2.04e5 eV level, and
    # were then refused; in the length unit fitted to the level they answer
    spec = make_anharmonic_spec(k, b, kappa)
    with time_limit(1.0):
        level = shoot_eigenvalue(spec, n)
    assert level == pytest.approx(_reference(spec, n), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("k, b, kappa, n", [
    (1.0, 1.5 * 2.0 ** 1020, 1.5 * 2.0 ** 1020, 4),
    (1.0, 2.0 ** 1002, 2.0 ** 1023, 17)])
def test_shooting_refuses_levels_at_the_top_of_the_float_range(
        k, b, kappa, n, time_limit):
    # the box march overflowed to x_max = inf, and the integration never
    # ended
    with time_limit(1.0), pytest.raises(ValueError,
                                        match="top of the float range"):
        shoot_eigenvalue(make_anharmonic_spec(k, b, kappa), n)


def test_shooting_holds_a_negligible_k_at_the_smallest_float():
    # in the length unit fitted to this level k 4^j underflows to 0, which
    # AnharmonicSpec refuses; k moves the level by under 1e-300 relative,
    # so it is the pure-quartic kappa^(2/3) b^(1/3) e_0 (Hioe & Montroll)
    spec = make_anharmonic_spec(1.8e-293, 3.7e307)
    scale = spec.kappa ** (2.0 / 3.0) * spec.quartic_b ** (1.0 / 3.0)
    assert shoot_eigenvalue(spec, 0) == pytest.approx(1.060362090484 * scale,
                                                      rel=1e-9, abs=0.0)


def test_shooting_refuses_where_psi_overflows(monkeypatch, time_limit):
    # level 4000 at b = 0 was refused here, as the search started from the
    # level's scale, far from the level; from the present energy it answers
    spec = spec_at(0.0)
    with time_limit(5.0):
        level = shoot_eigenvalue(spec, 4000)
    assert level == pytest.approx(4000.5 * hbar_omega(spec), rel=1e-13)
    # plain levels first reach the refusal between n = 100,000 and 200,000,
    # after seconds; a first trial at 10x level 200 sizes a box that psi at
    # level 200 cannot cross within the float range
    _first_trial_at(monkeypatch, lambda spec, n: 10.0 * 200.5
                    * hbar_omega(spec))
    with time_limit(1.0), pytest.raises(ValueError,
                                        match=r"psi\(x_max\) overflows"):
        shoot_eigenvalue(spec, 200)


def test_shooting_answers_just_below_the_top_of_the_float_range():
    # the first upper end 2^1013 eV lies below 2^1014 eV and 2^1015 eV
    # above it; at 2^1018 eV the box's potential overflowed, the box was
    # cut short and the ground state came 7.9e-7 off
    scale = 2.0 ** 1013
    spec = make_anharmonic_spec(1.0, scale, scale)
    # pure-quartic limit E_0 = kappa^(2/3) b^(1/3) e_0 (Hioe & Montroll)
    assert shoot_eigenvalue(spec, 0) == pytest.approx(1.060362090484 * scale,
                                                      rel=1e-9, abs=0.0)
    with pytest.raises(ValueError, match="top of the float range"):
        shoot_eigenvalue(make_anharmonic_spec(1.0, 4.0 * scale, 4.0 * scale),
                         0)


def test_shooting_near_1e300_ev_matches_the_pure_quartic_level(time_limit):
    # regula falsi multiplied psi by an energy difference, which overflowed,
    # and the search ran out of budget; k is negligible here, so the level
    # is kappa^(2/3) b^(1/3) e_8, e_8 = 37.923001027 at k = 1e-12, b = 1
    spec = make_anharmonic_spec(1.0090526088006836e-159, 6.18778683844839e305,
                                8.910919830770367e295)
    with time_limit(1.0):
        level = shoot_eigenvalue(spec, 8)
    assert level == pytest.approx(6.447076698796116e300, rel=1e-9, abs=0.0)


def test_shooting_answers_where_a_lost_b_cannot_move_the_level(time_limit):
    # b / kappa reads 0.0 here, but b moves E_18 by under 1e-300 relative:
    # this was refused as "too small to shoot"
    spec = make_anharmonic_spec(1.0337335808049247e183,
                                1.0936469807757944e-267,
                                2.0777176777135259e77)
    assert spec.quartic_b / spec.kappa == 0.0
    with time_limit(1.0):
        level = shoot_eigenvalue(spec, 18)
    reference = diag_eigenvalues(spec, n_levels=19)[18]
    assert reference == pytest.approx(5.42249679230599e131, rel=1e-14)
    assert level == pytest.approx(reference, rel=1e-9, abs=0.0)


def test_harmonic_limit_diagonalization():
    spec = spec_at(0.0)
    hw = hbar_omega(spec)
    for n, e in enumerate(diag_eigenvalues(spec, dim=60, n_levels=5)):
        assert e == pytest.approx((n + 0.5) * hw, rel=1e-12)


@pytest.mark.parametrize("k", [1e-305, 1e-307, 1e-308, 1e-310])
def test_harmonic_limit_diagonalization_where_s4_overflows(k):
    # the x^4 entries of the default basis overflow; at b = 0 they formed
    # 0 * inf and the Hamiltonian was refused as non-finite
    spec = make_anharmonic_spec(k, 0.0)
    hw = hbar_omega(spec)
    for n, e in enumerate(diag_eigenvalues(spec)):
        assert e == pytest.approx((n + 0.5) * hw, rel=1e-12)


@pytest.mark.parametrize("b", [0.01, 0.05, 0.25])
def test_oracles_agree(b):
    spec = spec_at(b)
    diag = diag_eigenvalues(spec, dim=120, n_levels=4)
    for n in range(4):
        shot = shoot_eigenvalue(spec, n)
        assert abs(shot - diag[n]) <= 1e-5  # the cross-oracle contract
        assert abs(shot - diag[n]) <= 1e-7  # and the observed headroom


def test_diag_basis_independence():
    spec = spec_at(0.25)
    hw = hbar_omega(spec)
    a = diag_eigenvalues(spec, dim=120, n_levels=4)
    b = diag_eigenvalues(spec, dim=120, basis_u=1.7 * hw, n_levels=4)
    for x, y in zip(a, b):
        assert x == pytest.approx(y, abs=1e-8)


def test_diag_eigenvalues_sorted_and_sized():
    spec = spec_at(0.05)
    vals = diag_eigenvalues(spec, dim=80, n_levels=6)
    assert len(vals) == 6
    assert list(vals) == sorted(vals)


def test_diag_dimension_guard():
    with pytest.raises(ValueError, match="dim"):
        diag_eigenvalues(spec_at(0.05), dim=23, n_levels=4)
    # the default dim 100 admits up to 80 levels, and at b = 0.05 the check
    # refuses 80 (level 78 keeps 0.6 of its weight on the top 10 states)
    with pytest.raises(ConvergenceError):
        diag_eigenvalues(spec_at(0.05), n_levels=80)
    with pytest.raises(ValueError, match="^dim must be >= n_levels"):
        diag_eigenvalues(spec_at(0.05), n_levels=81)


def _sliced_diag(spec, dim, u, n_levels):
    """``diag_eigenvalues``'s levels, or the (n, tail weight) it refuses,
    from parity blocks sliced out of ``build_hamiltonian`` and a tail check
    whose matrix is formed with ``numpy.eye``."""
    import numpy as np

    h = build_hamiltonian(spec, u, dim)
    blocks = [h[p::2, p::2] for p in (0, 1)]
    levels = [np.linalg.eigvalsh(block) for block in blocks]
    for n in range(max(n_levels - 2, 0), n_levels):
        lam = levels[n % 2][n // 2] * (1.0 + 64.0 * sys.float_info.epsilon)
        a = blocks[n % 2] - lam * np.eye(len(blocks[n % 2]))
        unit = math.ldexp(1.0, -math.frexp(lam)[1])
        x = np.linalg.solve(a * unit, np.full(len(a), lam * unit))
        if not (tail := float(x[-10:] @ x[-10:] / (x @ x))) <= exact.TAIL_WEIGHT:
            return n, tail
    return [float(levels[n % 2][n // 2]) for n in range(n_levels)]


@pytest.mark.parametrize("dim", [24, 61, 100, 120])
def test_diag_is_eigvalsh_of_the_hamiltonians_parity_blocks(dim):
    # each block built on its own gives, to the bit, the levels and the
    # refusals of the same block sliced from the full Hamiltonian, in the
    # default basis and in explicit ones; at dim 24 every basis is refused
    import numpy as np

    rng = random.Random(dim)
    answered = 0
    for _ in range(6):
        k = 10.0 ** rng.uniform(-3.0, 3.0)
        spec = make_anharmonic_spec(k, k ** 1.5 * 10.0 ** rng.uniform(-6.0, 0.0))
        for basis_u in (None, hbar_omega(spec), solve_omega(spec, 1).hbar_Omega_n,
                        1e300, 1e-300):
            u = solve_omega(spec, 2).hbar_Omega_n if basis_u is None else basis_u
            try:
                got = diag_eigenvalues(spec, dim, basis_u)
                answered += 1
            except ConvergenceError as exc:
                got = exc.diagnostics["n"], exc.diagnostics["tail_weight"]
            except ValueError:  # a non-finite Hamiltonian
                assert not np.isfinite(build_hamiltonian(spec, u, dim)).all()
                continue
            assert repr(got) == repr(_sliced_diag(spec, dim, u, 4))
    assert answered >= (0 if dim == 24 else 12)


@pytest.mark.parametrize("dim", [100.5, 100.0, "100"])
def test_diag_requires_an_integer_dim(dim, monkeypatch):
    # 100.5 answered from 101 states
    def unbuilt(*args):
        raise AssertionError("Hamiltonian built")

    monkeypatch.setattr(exact, "_parity_blocks", unbuilt)
    with pytest.raises(TypeError, match="integer"):
        diag_eigenvalues(spec_at(0.05), dim=dim)


@pytest.mark.parametrize("n_levels", [0, -1])
def test_diag_rejects_fewer_than_one_level(n_levels, monkeypatch):
    # refused before the parity blocks are built, not inside the eigensolver
    def unbuilt(*args):
        raise AssertionError("Hamiltonian built")

    monkeypatch.setattr(exact, "_parity_blocks", unbuilt)
    with pytest.raises(ValueError, match=r"^n_levels must be >= 1$"):
        diag_eigenvalues(spec_at(0.05), n_levels=n_levels)


@pytest.mark.parametrize("b, basis_u", [
    (0.05, 1e-300), (0.05, float("inf")),
    pytest.param(1e308, hbar_omega(spec_at(0.0)), id="1e+308-hbar_omega")])
def test_diag_rejects_non_finite_hamiltonian(b, basis_u):
    # refused by name, not inside the eigensolver on an array the caller
    # never passed; at b = 1e308 the hbar omega basis overflows the x^4 terms
    with pytest.raises(ValueError, match=r"^basis_u=.* gives a non-finite "
                                         r"Hamiltonian$"):
        diag_eigenvalues(spec_at(b), basis_u=basis_u)


def test_diag_default_basis_solves_an_overflowing_cubic_term():
    # 24 b kappa^2 g(2) overflows, and the default basis quantum
    # hbar Omega_2 was refused; it is now solved past the float range
    spec = spec_at(1e308)
    levels = diag_eigenvalues(spec)
    assert levels[0] == pytest.approx(1.2006123771289545e103, rel=1e-14)
    for n, level in enumerate(levels):
        assert level == pytest.approx(shoot_eigenvalue(spec, n), rel=1e-9)


def test_diag_flags_a_far_off_basis_whose_hamiltonian_is_finite():
    # the x^2 terms at basis_u = 1e300, about -u/4 times the ladder, are
    # finite now that no u^2 is formed, so the tail check refuses the basis
    # where the finiteness check did
    with pytest.raises(ConvergenceError, match="top 10 basis states"):
        diag_eigenvalues(spec_at(0.05), basis_u=1e300)


# near the top of the float range the tail check's solve overflowed inside
# LAPACK, and both points raised "keeps nan of its weight", a weight never
# measured: the first now answers, the second is refused with its weight
@pytest.mark.parametrize("k, b, kappa, basis_u, n_levels", [
    (1.856805017648802e-204, 7.589867408878385e299, 3.3346807214317095e299,
     None, 21),
    (0.5, 0.05, KAPPA_EV_A2, 1e300, 4)], ids=["default_basis", "basis_1e300"])
def test_diag_tail_check_measures_its_weight_near_the_top_of_the_range(
        k, b, kappa, basis_u, n_levels):
    spec = make_anharmonic_spec(k, b, kappa)
    if basis_u is not None:
        with pytest.raises(ConvergenceError, match="keeps 1.9e-02 of") as exc:
            diag_eigenvalues(spec, basis_u=basis_u, n_levels=n_levels)
        assert math.isfinite(exc.value.diagnostics["tail_weight"])
        return
    levels = diag_eigenvalues(spec, n_levels=n_levels)
    assert levels[-1] == pytest.approx(5.378004217446654e301, rel=1e-12)
    for n in (0, 10, n_levels - 1):
        assert levels[n] == pytest.approx(rescaled_level(k, b, kappa, n),
                                          rel=1e-12)


# k, b and kappa of the default basis hbar Omega_4 = 6.46e-9 eV, where
# (kappa / u)^2 = 2.2e-316 is subnormal: b (kappa / u)^2 kept about 25 of
# its 53 bits and level 7 read 4.3352177777017816e-08 eV, 3.45e-9 relative
# off, until the x^4 coefficient became beta = b kappa^2 / u^2
SUBNORMAL_S4_POINT = (2.8991512248816125e116, 2.665802358012565e305,
                      9.613318086755938e-167)


@pytest.mark.parametrize("dim", [100, 160, 240])
def test_diag_answers_where_the_quartic_scale_was_subnormal(dim):
    spec = make_anharmonic_spec(*SUBNORMAL_S4_POINT)
    level = rescaled_level(*SUBNORMAL_S4_POINT, 7)
    assert level == pytest.approx(4.33521776276058e-08, rel=1e-12)
    assert diag_eigenvalues(spec, dim=dim, n_levels=8)[7] == pytest.approx(
        level, rel=1e-12)
    if dim == 100:
        assert shoot_eigenvalue(spec, 7) == pytest.approx(level,
                                                          rel=REL_WIDTH)


# log-uniform over every positive float, subnormals included
POSITIVE = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
                     st.integers(-1074, 1023))


# two diagonalizations a draw, about 3 ms
@settings(max_examples=150)
@given(k=POSITIVE, b=st.one_of(st.just(0.0), POSITIVE),
       kappa=st.one_of(st.just(KAPPA_EV_A2), POSITIVE), n=st.integers(0, 20))
@example(k=2.8991512248816125e116, b=2.665802358012565e305,
         kappa=9.613318086755938e-167, n=7)
def test_diag_default_basis_matches_the_rescaled_level_over_the_whole_domain(
        k, b, kappa, n):
    # the reference forms its units through exp(log), which costs up to
    # about 700 eps, 8e-14 relative; 1,232 draws of tests/domain_draws.py
    # seed 31 measured 1.0e-13 at worst
    try:
        spec = make_anharmonic_spec(k, b, kappa)
        reference = rescaled_level(k, b, kappa, n)
    except (ValueError, ConvergenceError):
        return
    try:
        level = diag_eigenvalues(spec, n_levels=n + 1)[n]
    except (ValueError, ConvergenceError):
        assert (k, b, kappa) != SUBNORMAL_S4_POINT
        return
    assert level == pytest.approx(reference, rel=1e-12)


# strongly anharmonic points where the hbar omega basis at dim 120 returned
# wrong levels without an error: 68.65 eV for 55.74 eV at (0.5, 1e4)
FORMER_FAULT_POINTS = [(0.5, 1e4), (1e-6, 1.0), (1e-4, 1e8), (1e3, 1e8)]


@pytest.mark.parametrize("k, b", FORMER_FAULT_POINTS)
def test_diag_default_basis_matches_shooting_at_strong_coupling(k, b):
    spec = make_anharmonic_spec(k, b)
    diag = diag_eigenvalues(spec, n_levels=21)
    for n in (0, 1, 10, 20):
        assert diag[n] == pytest.approx(shoot_eigenvalue(spec, n), rel=1e-8)


@pytest.mark.parametrize("b, basis_u", [(0.05, 1e150),
                                        (1e4, hbar_omega(spec_at(0.0)))])
def test_diag_refuses_far_off_explicit_basis(b, basis_u):
    # these returned 5.1e147 eV for the 1.59 eV ground state and 68.65 eV
    # for 55.74 eV without an error
    with pytest.raises(ConvergenceError, match="top 10 basis states") as info:
        diag_eigenvalues(spec_at(b), basis_u=basis_u)
    assert info.value.diagnostics["tail_weight"] > exact.TAIL_WEIGHT


@pytest.mark.parametrize("basis_u", [0.0, -1.0, math.nan])
def test_diag_rejects_bad_basis_u(basis_u):
    with pytest.raises(ValueError):
        diag_eigenvalues(spec_at(0.05), basis_u=basis_u)


def _eigh_refuses(spec, dim, basis_u, n_levels):
    """The per-level rule the diagonalization check stands for: whether some
    requested level keeps more than TAIL_WEIGHT of its weight on the top 10
    states of its parity block, read off numpy.linalg.eigh's eigenvectors.
    A ``basis_u`` of None is the default hbar Omega_{n_levels // 2}."""
    import numpy as np

    if basis_u is None:
        basis_u = solve_omega(spec, n_levels // 2).hbar_Omega_n
    h = build_hamiltonian(spec, basis_u, dim)
    for p in (0, 1):
        vectors = np.linalg.eigh(h[p::2, p::2]).eigenvectors
        tails = (vectors[-10:, :(n_levels - p + 1) // 2] ** 2).sum(axis=0)
        if (tails > exact.TAIL_WEIGHT).any():
            return True
    return False


def _explicit_basis_points(count, seed):
    """(k, b, basis_u, n_levels, dim): both former silent faults, two
    points where only level n_levels - 2 keeps more than TAIL_WEIGHT
    (1.06e-20 and 1.24e-20 against 7.0e-21 and 9.5e-21 for n_levels - 1),
    then seeded points, every third at the dim = n_levels + 20 floor."""
    points = [(0.5, 0.05, 1e150, 4, 120),
              (0.5, 1e4, hbar_omega(spec_at(0.0)), 4, 120),
              (685.2376120510112, 1351.475975531256, 417.324846999666, 41, 115),
              (27.265695663482365, 0.17043129051236738, 26.698421906521833,
               30, 78)]
    rng = random.Random(seed)
    for i in range(count):
        k = 10.0 ** rng.uniform(-4.0, 3.0)
        b = 0.0 if i % 5 == 0 else 10.0 ** rng.uniform(-3.0, 8.0)
        n_levels = rng.randint(1, 60)
        dim = n_levels + 20 + (0 if i % 3 == 0 else rng.randint(1, 200))
        u = solve_omega(make_anharmonic_spec(k, b), n_levels // 2).hbar_Omega_n
        points.append((k, b, u * 10.0 ** rng.uniform(-0.3, 0.3), n_levels,
                       dim))
    return points


def _default_basis_points(count, seed):
    """(k, b, None, n_levels, dim): seeded points in the default basis with
    up to 100 levels, every third at the dim = n_levels + 20 floor."""
    rng = random.Random(seed)
    points = []
    for i in range(count):
        k = 10.0 ** rng.uniform(-4.0, 3.0)
        b = 0.0 if i % 5 == 0 else 10.0 ** rng.uniform(-3.0, 8.0)
        n_levels = rng.randint(1, 100)
        dim = n_levels + 20 + (0 if i % 3 == 0 else rng.randint(1, 200))
        points.append((k, b, None, n_levels, dim))
    return points


def _check_outcomes(points):
    """Whether diag_eigenvalues refused each point, asserting that it did
    exactly where _eigh_refuses does."""
    outcomes = []
    for k, b, basis_u, n_levels, dim in points:
        spec = make_anharmonic_spec(k, b)
        try:
            diag_eigenvalues(spec, dim=dim, basis_u=basis_u, n_levels=n_levels)
            refused = False
        except ConvergenceError:
            refused = True
        outcomes.append(refused)
        assert refused == _eigh_refuses(spec, dim, basis_u, n_levels), (
            k, b, basis_u, n_levels, dim)
    return outcomes


def test_explicit_basis_check_refuses_where_eigh_tails_exceed_bound():
    outcomes = _check_outcomes(_explicit_basis_points(200, seed=16))
    assert outcomes[:4] == [True] * 4
    assert 20 <= sum(outcomes) <= len(outcomes) - 20  # both sides sampled
    # the default basis runs the same check
    outcomes = _check_outcomes(_default_basis_points(150, seed=17))
    assert 20 <= sum(outcomes) <= len(outcomes) - 20


@pytest.mark.parametrize("k", [1e-4, 0.5, 1e3])
def test_default_dim_holds_21_levels_at_any_coupling(k):
    # the coupling b sqrt(kappa) / (8 k^1.5) from 1e-7 to 1e15 by half
    # decades: dim 100 is never refused, and matches dim 200
    for j in range(-14, 31):
        b = 10.0 ** (j / 2) * 8.0 * k ** 1.5 / math.sqrt(KAPPA_EV_A2)
        spec = make_anharmonic_spec(k, b)
        levels = diag_eigenvalues(spec, n_levels=21)
        wider = diag_eigenvalues(spec, dim=200, n_levels=21)
        assert levels == pytest.approx(wider, rel=1e-14, abs=0.0), b


def test_default_basis_refuses_or_matches_unconverged_level():
    spec = spec_at(0.05)
    reference = diag_eigenvalues(spec, dim=600, n_levels=100)[99]
    try:
        level = diag_eigenvalues(spec, dim=120, n_levels=100)[99]
    except ConvergenceError:
        return
    assert level == pytest.approx(reference, rel=1e-9)


def test_shooting_tolerance_halving():
    # both below the 1e-9 relative cap, so each sets its own width
    spec = spec_at(0.05)
    tol = 2e-9
    e_coarse = shoot_eigenvalue(spec, 1, energy_tol=tol)
    e_fine = shoot_eigenvalue(spec, 1, energy_tol=tol / 2.0)
    assert abs(e_coarse - e_fine) <= tol


def test_shooting_explicit_box_matches_default(monkeypatch):
    spec = spec_at(0.05)
    e_auto = shoot_eigenvalue(spec, 0)
    # one fixed box for every trial energy, wider than the 8.5 A one
    # sized per energy here, in the length unit the level is shot in: the
    # given kappa over its kappa is the square of that unit in Angstrom
    monkeypatch.setattr(exact, "_default_x_max", lambda scaled, energy, depth:
                        9.0 * math.sqrt(scaled.kappa / spec.kappa))
    e_wide = shoot_eigenvalue(spec, 0)
    assert e_auto == pytest.approx(e_wide, abs=1e-8)


def test_shooting_config_validation():
    # energy_tol is the one setting of the search
    for bad in (0.0, -1e-9):
        with pytest.raises(ValueError, match="energy_tol must be finite"):
            shoot_eigenvalue(spec_at(0.05), 0, energy_tol=bad)


def test_shooting_config_rejects_non_finite_values():
    # an infinite tolerance used to skip refinement altogether
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="energy_tol must be finite"):
            shoot_eigenvalue(spec_at(0.05), 0, energy_tol=bad)


def test_shooting_rejects_negative_level():
    with pytest.raises(ValueError):
        shoot_eigenvalue(spec_at(0.05), -1)


def test_shooting_budget_exhaustion_raises(monkeypatch):
    # from the present energy this search takes 5 of the budget
    spec = spec_at(0.05)
    monkeypatch.setattr(exact, "MAX_ITER", 4)
    with pytest.raises(ConvergenceError) as err:
        shoot_eigenvalue(spec, 0, energy_tol=1e-13)
    assert err.value.diagnostics["n"] == 0
    assert "energy_tol" in err.value.diagnostics


def test_convergence_error_carries_diagnostics():
    e = ConvergenceError("nope", n=3, width=0.25)
    assert isinstance(e, RuntimeError)
    assert e.diagnostics == {"n": 3, "width": 0.25}


def test_deep_quartic_levels():
    # strongly anharmonic point, where a frozen-basis series is useless
    spec = spec_at(1.0)
    diag = diag_eigenvalues(spec, dim=140, n_levels=3)
    for n in range(3):
        assert shoot_eigenvalue(spec, n) == pytest.approx(diag[n], abs=1e-6)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_search_bisects_where_psi_near_the_level_is_noise(n, monkeypatch):
    # psi(x_max) just below the level reads 1e6 times too large, as rounding
    # noise in psi does near a high level: the interpolated trials then
    # crept along the upper end, and the search ran out of its 240 trials;
    # at k = 0.5, b = 0.05, n = 10^4 the noise itself cost 42 integrations
    # where 27 now do
    spec = spec_at(0.05)
    level = shoot_eigenvalue(spec, n)
    integrate = exact._integrate
    calls = []

    def noisy(spec, energy, parity, x_max, abs_tol):
        calls.append(energy)
        psi, nodes = integrate(spec, energy, parity, x_max, abs_tol)
        if nodes == n // 2 and abs(energy / level - 1.0) < 0.05:
            psi *= 1e6
        return psi, nodes

    monkeypatch.setattr(exact, "_integrate", noisy)
    assert shoot_eigenvalue(spec, n) == pytest.approx(level, rel=REL_WIDTH)
    assert len(calls) <= 40


def test_shooting_cost_per_level(monkeypatch):
    calls = []
    boxes = []
    integrate = exact._integrate
    box = exact._default_x_max

    def counting(*args):
        calls.append(args)
        return integrate(*args)

    def sized(spec, energy, depth):
        x_max = box(spec, energy, depth)
        boxes.append((x_max, box(spec, energy)))
        return x_max

    monkeypatch.setattr(exact, "_integrate", counting)
    monkeypatch.setattr(exact, "_default_x_max", sized)
    for n, b in TABLE_POINTS:
        shoot_eigenvalue(spec_at(b), n)
    # node-count bisection to 1e-9 eV alone takes about 33 per level, and
    # from the level's scale the inverse quadratic search took 9.25; a
    # first trial at the present energy, 2 % from the second, measures 5.5
    assert len(calls) / len(TABLE_POINTS) <= 6
    # the default tolerance's box is shorter than the floor bracket's
    assert boxes and all(x_max < floor for x_max, floor in boxes)


def _first_trial_at(monkeypatch, trial):
    """Make ``trial(spec, n)`` in eV shooting's first trial, in place of
    the present energy."""
    monkeypatch.setattr(exact, "energy_present", lambda spec, n:
                        LevelResult(n, 1.0, trial(spec, n), 0.0))


def _scale(spec, n):
    """The level's scale, the larger of hbar omega (n + 3/2) and
    kappa^(2/3) b^(1/3) (n + 1)^(4/3): the search's first upper end before
    it started from the present energy."""
    return max(hbar_omega(spec) * (n + 1.5), spec.kappa ** (2.0 / 3.0)
               * spec.quartic_b ** (1.0 / 3.0) * (n + 1) ** (4.0 / 3.0))


# TABLE_POINTS hold levels 0 and 1 only, with no E_{n-2} to start from
GUESS_POINTS = TABLE_POINTS + [(2, 0.05), (3, 1e4)]


@pytest.mark.parametrize("n, b", GUESS_POINTS)
def test_wrong_guess_still_finds_level_n(n, b, monkeypatch):
    # node counts, not the first trial, pick the level: one off by 10x or
    # on a neighbouring level only costs integrations. 0.1x runs the
    # bracket growth and the re-shot lower end, and 10x the branch for a
    # level below the first two trials
    spec = spec_at(b)
    levels = {m: shoot_eigenvalue(spec, m) for m in range(max(0, n - 2), n + 3)}
    trials = [0.1 * levels[n], 10.0 * levels[n]]
    trials += [levels[m] for m in levels if m != n]
    for trial in trials:
        _first_trial_at(monkeypatch, lambda spec, m: trial)
        assert abs(shoot_eigenvalue(spec, n) - levels[n]) <= 1e-9


@pytest.mark.parametrize("n, b", TABLE_POINTS)
def test_shooting_matches_omega_basis_diagonalization(n, b, monkeypatch):
    # from a first trial at the level's scale, not the present energy
    spec = spec_at(b)
    u = solve_omega(spec, n).hbar_Omega_n
    diag = diag_eigenvalues(spec, dim=160, basis_u=u, n_levels=n + 1)[n]
    _first_trial_at(monkeypatch, _scale)
    assert abs(shoot_eigenvalue(spec, n) - diag) <= 1e-9


@pytest.mark.parametrize("b", [0.05, 1e4, 1e8])
def test_shooting_levels_ascend_strictly(b):
    spec = spec_at(b)
    levels = [shoot_eigenvalue(spec, n) for n in range(21)]
    assert all(lo < hi for lo, hi in zip(levels, levels[1:]))


def _run_fresh(code):
    src = str(Path(exact.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


def test_import_and_table_leave_scipy_linalg_unloaded():
    # scipy is a test dependency only: not even the diagonalization loads it
    _run_fresh(
        "import contextlib, io, sys\n"
        "import varpert\n"
        "assert 'scipy.linalg' not in sys.modules, 'loaded by import'\n"
        "from varpert.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['table1']) == 0\n"
        "assert 'scipy.linalg' not in sys.modules, 'loaded by table1'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['table1', '--check']) == 0\n"
        "assert 'numpy' in sys.modules, 'no diagonalization ran'\n"
        "varpert.diag_eigenvalues(varpert.make_anharmonic_spec(0.5, 0.05))\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
    )


def test_import_table_and_helium_leave_numpy_unloaded():
    # shooting and the closed forms are pure Python; only diagonalization
    # needs numpy
    _run_fresh(
        "import contextlib, io, sys\n"
        "import varpert\n"
        "assert 'numpy' not in sys.modules, 'loaded by import'\n"
        "from varpert.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['table1']) == 0\n"
        "    assert 'numpy' not in sys.modules, 'loaded by table1'\n"
        "    assert main(['helium']) == 0\n"
        "assert 'numpy' not in sys.modules, 'loaded by helium'\n"
    )


def _hermite(n, xi):
    h0, h1 = 1.0, 2.0 * xi
    for m in range(1, n):
        h0, h1 = h1, 2.0 * xi * h1 - 2.0 * m * h0
    return h0 if n == 0 else h1


@pytest.mark.parametrize("n", range(7))
def test_integrate_reproduces_hermite_gaussian(n):
    # at b = 0 and E = hbar omega (n + 1/2) the parity solution is
    # H_n(xi) exp(-xi^2 / 2) with xi = sqrt(alpha) x, alpha = sqrt(k / kappa),
    # scaled to psi(0) = 1 (even n) or psi'(0) = 1 (odd n)
    spec = spec_at(0.0)
    root_alpha = (spec.stiffness_k / spec.kappa) ** 0.25
    if n % 2 == 0:
        norm = _hermite(n, 0.0)
    else:
        norm = root_alpha * 2.0 * n * _hermite(n - 1, 0.0)
    # 1.5x the turning point: every node inside, psi still well above the
    # error the growing solution picks up
    x_max = 1.5 * math.sqrt(2 * n + 1) / root_alpha
    xi = root_alpha * x_max
    expected = _hermite(n, xi) * math.exp(-0.5 * xi * xi) / norm
    psi, nodes = exact._integrate(spec, (n + 0.5) * hbar_omega(spec), n % 2,
                                  x_max)
    assert nodes == n // 2
    assert psi == pytest.approx(expected, rel=1e-9)


def _random_points(count, seed):
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        k = 10.0 ** rng.uniform(-4.0, 3.0)
        b = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-3.0, 8.0)
        points.append((k, b, rng.randint(0, 20)))
    return points


@pytest.mark.parametrize("k, b, n", _random_points(20, seed=20261018))
def test_shooting_matches_omega_basis_diagonalization_at_random_points(
        k, b, n, monkeypatch):
    # from a first trial at the level's scale, not the present energy
    spec = make_anharmonic_spec(k, b)
    u = solve_omega(spec, n).hbar_Omega_n
    diag = diag_eigenvalues(spec, dim=200, basis_u=u, n_levels=n + 1)[n]
    _first_trial_at(monkeypatch, _scale)
    assert abs(shoot_eigenvalue(spec, n) - diag) <= max(1e-9, 1e-12 * diag)


@pytest.mark.parametrize("k, b, n", [(0.5, b, n) for n, b in TABLE_POINTS]
                         + _random_points(20, seed=20261018))
def test_guided_shooting_matches_omega_basis_diagonalization(k, b, n):
    spec = make_anharmonic_spec(k, b)
    u = solve_omega(spec, n).hbar_Omega_n
    diag = diag_eigenvalues(spec, dim=200, basis_u=u, n_levels=n + 1)[n]
    guided = shoot_eigenvalue(spec, n)
    assert abs(guided - diag) <= max(1e-9, 1e-12 * diag)


LOG_UNIFORM_K = st.floats(-4.0, 3.0).map(lambda x: 10.0 ** x)
LOG_UNIFORM_B = st.floats(-6.0, 8.0).map(lambda x: 10.0 ** x)


# a draw shoots two levels and diagonalizes once, about 3 ms, so fewer
# draws than the profile's
@settings(max_examples=200)
@given(k=LOG_UNIFORM_K, b=st.one_of(st.just(0.0), LOG_UNIFORM_B),
       n=st.integers(0, 20))
def test_oracles_agree_within_rel_width_and_levels_ascend(k, b, n):
    # the accuracy bound shoot_eigenvalue's docstring and the README state,
    # at the electron kappa: the two oracles agree within REL_WIDTH, each
    # puts level n + 1 above level n, and at b = 0 every method gives
    # (n + 1/2) hbar omega to the bit
    spec = make_anharmonic_spec(k, b)
    diag = diag_eigenvalues(spec, n_levels=n + 2)
    shot = [shoot_eigenvalue(spec, m) for m in (n, n + 1)]
    for level, reference in zip(shot, diag[n:]):
        assert abs(level / reference - 1.0) <= exact.REL_WIDTH
    assert all(lo < hi for lo, hi in zip(diag, diag[1:]))
    assert shot[0] < shot[1]
    if b == 0.0:
        level = (n + 0.5) * hbar_omega(spec)
        assert diag[n] == level
        assert energy_variational(spec, n).e_total == level
        assert energy_present(spec, n).e_total == level
        for order in (1, 2):
            assert energy_conventional_pt(spec, n, order).e_total == level


def _fine_x_max(spec, energy):
    """The box at a fixed step of 0.01 x_t: the reference march, to the
    same ``BOX_DECAY`` decay lengths."""
    k, b, kappa = spec.stiffness_k, spec.quartic_b, spec.kappa
    x = math.sqrt(2.0 * energy / (k + math.sqrt(k * k + 4.0 * b * energy)))
    dx = 0.01 * x
    s = f_here = 0.0
    while s < exact.BOX_DECAY:
        x += dx
        f_next = math.sqrt(max((k + b * x * x) * x * x - energy, 0.0) / kappa)
        s += 0.5 * (f_here + f_next) * dx
        f_here = f_next
    return x


def test_box_march_by_decay_lengths_matches_a_fine_march():
    # steps that double up to one decay length take 22-25 of them here,
    # where the fine march takes 48-557, and land within -0.5 % to +1.5 %
    for k, b, n in _random_points(200, seed=20261019):
        spec = make_anharmonic_spec(k, b)
        energy = energy_present(spec, n).e_total
        fine = _fine_x_max(spec, energy)
        assert exact._default_x_max(spec, energy) == pytest.approx(fine,
                                                                   rel=0.02)


@pytest.mark.parametrize("b", [1e20, 1e40, 1e100])
def test_huge_b_shooting_ends_quickly(b):
    # one ulp of these energies exceeds 1e-9 eV, and they lie up to 1e33
    # hbar omega above the ground state of the harmonic part
    spec = spec_at(b)
    start = time.perf_counter()
    levels = [shoot_eigenvalue(spec, n) for n in range(4)]
    assert time.perf_counter() - start < 10.0
    assert all(lo < hi for lo, hi in zip(levels, levels[1:]))
    # pure-quartic limit E_0 = kappa^(2/3) b^(1/3) e_0 (Hioe & Montroll)
    scale = spec.kappa ** (2.0 / 3.0) * b ** (1.0 / 3.0)
    assert levels[0] / scale == pytest.approx(1.0603620905, rel=1e-8)


@pytest.mark.parametrize("b", [1e30, 1e40])
def test_odd_level_at_tiny_length_scale_matches_diagonalization(b):
    # psi'(0) = 1 keeps the odd solution of order the step H << 1 here, so
    # a tolerance floored at 1 instead of H let n = 1 drift by 3.8e-12
    # relative at b = 1e40
    spec = spec_at(b)
    diag = diag_eigenvalues(spec)[1]
    assert abs(shoot_eigenvalue(spec, 1) - diag) <= 1e-14 * diag


@pytest.mark.parametrize("n, b", TABLE_POINTS
                         + [(0, b) for b in (1e4, 1e20, 1e100, 2e269)])
def test_box_wall_is_invisible_at_the_floor_bracket(n, b, monkeypatch):
    # a wall BOX_DECAY decay lengths out shifts a level by about
    # e^(-2 BOX_DECAY), eps / 50 at 20; a wall 25 out gives the same level
    # within the final bracket of 8 ulps of E
    spec = spec_at(b)
    level = shoot_eigenvalue(spec, n, energy_tol=1e-300)
    monkeypatch.setattr(exact, "BOX_DECAY", 25.0)
    wider = shoot_eigenvalue(spec, n, energy_tol=1e-300)
    assert abs(level - wider) <= 8.0 * sys.float_info.epsilon * wider


def _relative_width(spec, n, energy_tol=1e-9):
    """The relative width w the search stops at, from its first trial."""
    guess = energy_present(spec, n).e_total
    return max(min(energy_tol / guess, REL_WIDTH),
               8.0 * sys.float_info.epsilon)


@pytest.mark.parametrize("depth", [12.0, 14.0, 16.0, 25.0])
def test_box_wall_shifts_a_level_by_at_most_its_law(depth, monkeypatch):
    # a wall depth decay lengths out moves a level by at most
    # 0.6 e^(-2 depth) relative; the harmonic ground state, the worst case,
    # reads 0.53 of that at 12 and 0.46 at 16. Past the floor's 20 (a
    # patched BOX_DECAY of 25 is capped at 20.4 by the sizing) the levels
    # stay within the 8-ulp floor bracket
    points = TABLE_POINTS + [(0, b) for b in (0.0, 1e4, 1e20, 1e100, 2e269)]
    floor = [shoot_eigenvalue(spec_at(b), n, energy_tol=1e-300)
             for n, b in points]
    box = exact._default_x_max
    monkeypatch.setattr(exact, "_default_x_max",
                        lambda spec, energy, _: box(spec, energy, depth))
    for (n, b), level in zip(points, floor):
        walled = shoot_eigenvalue(spec_at(b), n, energy_tol=1e-300)
        assert abs(walled / level - 1.0) <= (0.6 * math.exp(-2.0 * depth)
                                             + 8.0 * sys.float_info.epsilon)


@pytest.mark.parametrize("abs_tol", [1e-13, 1e-12])
def test_looser_steps_shift_a_level_by_at_most_22_times_their_bound(
        abs_tol, monkeypatch):
    # 1e-13 is the loosest bound a search uses, at w = REL_WIDTH; these
    # points measure at most 8.4 times the bound
    points = ([(0.5, b, n) for n, b in TABLE_POINTS]
              + _random_points(30, seed=20261021))
    floor = [shoot_eigenvalue(make_anharmonic_spec(k, b), n,
                              energy_tol=1e-300) for k, b, n in points]
    integrate = exact._integrate
    monkeypatch.setattr(
        exact, "_integrate", lambda spec, energy, parity, x_max, _:
        integrate(spec, energy, parity, x_max, abs_tol))
    for (k, b, n), level in zip(points, floor):
        loose = shoot_eigenvalue(make_anharmonic_spec(k, b), n,
                                 energy_tol=1e-300)
        assert abs(loose / level - 1.0) <= (22.0 * abs_tol
                                            + 8.0 * sys.float_info.epsilon)


def test_search_sizes_its_box_and_steps_to_its_bracket(monkeypatch):
    depths, tols = [], []
    box, integrate = exact._default_x_max, exact._integrate

    def spy_box(spec, energy, depth):
        depths.append(depth)
        return box(spec, energy, depth)

    def spy_integrate(spec, energy, parity, x_max, abs_tol):
        tols.append(abs_tol)
        return integrate(spec, energy, parity, x_max, abs_tol)

    monkeypatch.setattr(exact, "_default_x_max", spy_box)
    monkeypatch.setattr(exact, "_integrate", spy_integrate)
    spec = spec_at(0.05)
    # at the floor both stay the constants, bit for bit
    shoot_eigenvalue(spec, 1, energy_tol=1e-300)
    assert set(depths) == {exact.BOX_DECAY}
    assert set(tols) == {exact.ABS_TOL}
    depths.clear()
    tols.clear()
    shoot_eigenvalue(spec, 1)
    w = _relative_width(spec, 1)
    assert set(depths) == {0.5 * math.log(1e3 / w)}
    assert set(tols) == {1e-4 * w}
    assert depths[0] < exact.BOX_DECAY and tols[0] > exact.ABS_TOL


def test_sized_box_and_steps_move_levels_by_under_a_hundredth_of_w(
        monkeypatch):
    # shot at the floor bracket, the box and steps that the default
    # tolerance sizes move a level by at most 2.6e-3 w here; the budget is
    # 1e-2 w, so the returned midpoint stays within 0.51 w of the level.
    # Below w = 1e3 eps the bracket's own 8 ulps pass 1e-2 w
    seen, forced = {}, {}
    box, integrate = exact._default_x_max, exact._integrate

    def sized_box(spec, energy, depth):
        seen["depth"] = depth
        return box(spec, energy, forced.get("depth", depth))

    def sized_integrate(spec, energy, parity, x_max, abs_tol):
        seen["abs_tol"] = abs_tol
        return integrate(spec, energy, parity, x_max,
                         forced.get("abs_tol", abs_tol))

    monkeypatch.setattr(exact, "_default_x_max", sized_box)
    monkeypatch.setattr(exact, "_integrate", sized_integrate)
    checked = 0
    for k, b, n in _random_points(150, seed=7):
        spec = make_anharmonic_spec(k, b)
        w = _relative_width(spec, n)
        if w < 1e3 * sys.float_info.epsilon:
            continue
        forced.clear()
        shoot_eigenvalue(spec, n)
        sizing = dict(seen)
        floor = shoot_eigenvalue(spec, n, energy_tol=1e-300)
        forced.update(sizing)
        level = shoot_eigenvalue(spec, n, energy_tol=1e-300)
        assert abs(level / floor - 1.0) <= 1e-2 * w, (k, b, n)
        checked += 1
    assert checked >= 110


def test_energy_tol_below_float_resolution_stops_at_the_floor():
    # no bracket narrower than 8 ulps of E can be split, so the search
    # stops there instead of running out of budget
    spec = spec_at(0.05)
    e = shoot_eigenvalue(spec, 0, energy_tol=1e-300)
    assert e == pytest.approx(shoot_eigenvalue(spec, 0), abs=1e-9)
