"""Shooting and diagonalization oracles: agreement, limits, failure modes."""
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import varpert.exact as exact
import varpert.reference as ref
from varpert.anharmonic import energy_present, solve_omega
from varpert.exact import ConvergenceError, diag_eigenvalues, shoot_eigenvalue
from varpert.model import KAPPA_EV_A2, hbar_omega, make_anharmonic_spec
from varpert.oscillator import build_hamiltonian

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


@pytest.mark.parametrize("k", [1e-307, 1e-308, 2e-308, 1e-309, 1e-310])
def test_shooting_refuses_energies_whose_step_scale_overflows(k):
    # (pi/2)^4 (kappa/E)^2 overflows on the way to the ground state: these
    # returned nan, or 7.01e-154 eV for 6.2e-155 and 1.95e-155 eV
    with pytest.raises(ValueError, match="too small to shoot"):
        shoot_eigenvalue(make_anharmonic_spec(k, 0.0), 0)


def test_harmonic_limit_diagonalization():
    spec = spec_at(0.0)
    hw = hbar_omega(spec)
    for n, e in enumerate(diag_eigenvalues(spec, dim=60, n_levels=5)):
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


@pytest.mark.parametrize("n_levels", [0, -1])
def test_diag_rejects_fewer_than_one_level(n_levels, monkeypatch):
    # refused before the Hamiltonian is built, not inside the eigensolver
    def unbuilt(*args):
        raise AssertionError("Hamiltonian built")

    monkeypatch.setattr(exact, "build_hamiltonian", unbuilt)
    with pytest.raises(ValueError, match=r"^n_levels must be >= 1$"):
        diag_eigenvalues(spec_at(0.05), n_levels=n_levels)


@pytest.mark.parametrize("b, basis_u", [
    (0.05, 1e300), (0.05, 1e-300), (0.05, float("inf")),
    pytest.param(1e308, hbar_omega(spec_at(0.0)), id="1e+308-hbar_omega")])
def test_diag_rejects_non_finite_hamiltonian(b, basis_u):
    # refused by name, not inside the eigensolver on an array the caller
    # never passed; at b = 1e308 the hbar omega basis overflows the x^4 terms
    with pytest.raises(ValueError, match=r"^basis_u=.* gives a non-finite "
                                         r"Hamiltonian$"):
        diag_eigenvalues(spec_at(b), basis_u=basis_u)


def test_diag_default_basis_refuses_overflowing_cubic():
    # the default basis quantum hbar Omega_2 cannot be solved for at all
    with pytest.raises(ValueError, match=r"^quartic_b=1e\+308 overflows the "
                                         r"cubic for hbar Omega_2$"):
        diag_eigenvalues(spec_at(1e308))


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
    # sized per energy here
    monkeypatch.setattr(exact, "_default_x_max", lambda spec, energy: 9.0)
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
    spec = spec_at(0.05)
    monkeypatch.setattr(exact, "MAX_ITER", 8)
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


def test_shooting_cost_per_level(monkeypatch):
    calls = []
    integrate = exact._integrate

    def counting(*args):
        calls.append(args)
        return integrate(*args)

    monkeypatch.setattr(exact, "_integrate", counting)
    for n, b in TABLE_POINTS:
        shoot_eigenvalue(spec_at(b), n)
    # node-count bisection to 1e-9 eV alone takes about 33 per level
    assert len(calls) / len(TABLE_POINTS) <= 16


def test_guided_shooting_cost_per_level(monkeypatch):
    calls = []
    integrate = exact._integrate

    def counting(*args):
        calls.append(args)
        return integrate(*args)

    monkeypatch.setattr(exact, "_integrate", counting)
    for n, b in TABLE_POINTS:
        spec = spec_at(b)
        shoot_eigenvalue(spec, n, guess=energy_present(spec, n).e_total)
    # a 4 % first bracket around the present energy measures 7.25
    assert len(calls) / len(TABLE_POINTS) <= 8


# TABLE_POINTS hold levels 0 and 1 only, with no E_{n-2} to guess
GUESS_POINTS = TABLE_POINTS + [(2, 0.05), (3, 1e4)]


@pytest.mark.parametrize("n, b", GUESS_POINTS)
def test_wrong_guess_still_finds_level_n(n, b):
    # node counts, not the guess, pick the level: a guess off by 10x or on
    # a neighbouring level only costs integrations; one off by 1e300x,
    # which unclamped would size an endless box or step count, a few more
    spec = spec_at(b)
    levels = {m: shoot_eigenvalue(spec, m) for m in range(max(0, n - 2), n + 3)}
    guesses = [0.1 * levels[n], 10.0 * levels[n], 1e-300, 1e300]
    guesses += [levels[m] for m in levels if m != n]
    for guess in guesses:
        assert abs(shoot_eigenvalue(spec, n, guess=guess) - levels[n]) <= 1e-9


@pytest.mark.parametrize("guess", [math.nan, math.inf, 0.0, -1.0])
def test_shooting_rejects_bad_guess(guess):
    with pytest.raises(ValueError, match="guess must be finite and > 0"):
        shoot_eigenvalue(spec_at(0.05), 0, guess=guess)


@pytest.mark.parametrize("n, b", TABLE_POINTS)
def test_shooting_matches_omega_basis_diagonalization(n, b):
    spec = spec_at(b)
    u = solve_omega(spec, n).hbar_Omega_n
    diag = diag_eigenvalues(spec, dim=160, basis_u=u, n_levels=n + 1)[n]
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
def test_shooting_matches_omega_basis_diagonalization_at_random_points(k, b, n):
    spec = make_anharmonic_spec(k, b)
    u = solve_omega(spec, n).hbar_Omega_n
    diag = diag_eigenvalues(spec, dim=200, basis_u=u, n_levels=n + 1)[n]
    assert abs(shoot_eigenvalue(spec, n) - diag) <= max(1e-9, 1e-12 * diag)


@pytest.mark.parametrize("k, b, n", [(0.5, b, n) for n, b in TABLE_POINTS]
                         + _random_points(20, seed=20261018))
def test_guided_shooting_matches_omega_basis_diagonalization(k, b, n):
    spec = make_anharmonic_spec(k, b)
    u = solve_omega(spec, n).hbar_Omega_n
    diag = diag_eigenvalues(spec, dim=200, basis_u=u, n_levels=n + 1)[n]
    guided = shoot_eigenvalue(spec, n, guess=energy_present(spec, n).e_total)
    assert abs(guided - diag) <= max(1e-9, 1e-12 * diag)


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


def test_energy_tol_below_float_resolution_stops_at_the_floor():
    # no bracket narrower than 8 ulps of E can be split, so the search
    # stops there instead of running out of budget
    spec = spec_at(0.05)
    e = shoot_eigenvalue(spec, 0, energy_tol=1e-300)
    assert e == pytest.approx(shoot_eigenvalue(spec, 0), abs=1e-9)
