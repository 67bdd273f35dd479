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
from varpert.anharmonic import solve_omega
from varpert.exact import ConvergenceError, diag_eigenvalues, shoot_eigenvalue
from varpert.model import hbar_omega, make_anharmonic_spec

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


@pytest.mark.parametrize("n_levels", [0, -1])
def test_diag_rejects_fewer_than_one_level(n_levels, monkeypatch):
    # refused before the Hamiltonian is built, not inside the eigensolver
    def unbuilt(*args):
        raise AssertionError("Hamiltonian built")

    monkeypatch.setattr(exact, "build_hamiltonian", unbuilt)
    with pytest.raises(ValueError, match=r"^n_levels must be >= 1$"):
        diag_eigenvalues(spec_at(0.05), n_levels=n_levels)


def test_shooting_tolerance_halving():
    spec = spec_at(0.05)
    tol = 1e-7
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
    _run_fresh(
        "import contextlib, io, sys\n"
        "import varpert\n"
        "assert 'scipy.linalg' not in sys.modules, 'loaded by import'\n"
        "from varpert.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['table1']) == 0\n"
        "assert 'scipy.linalg' not in sys.modules, 'loaded by table1'\n"
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
    root_alpha = (spec.stiffness_k / spec.constants.kappa) ** 0.25
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
    scale = spec.constants.kappa ** (2.0 / 3.0) * b ** (1.0 / 3.0)
    assert levels[0] / scale == pytest.approx(1.0603620905, rel=1e-8)


def test_energy_tol_below_float_resolution_stops_at_the_floor():
    # no bracket narrower than 8 ulps of E can be split, so the search
    # stops there instead of running out of budget
    spec = spec_at(0.05)
    e = shoot_eigenvalue(spec, 0, energy_tol=1e-300)
    assert e == pytest.approx(shoot_eigenvalue(spec, 0), abs=1e-9)
