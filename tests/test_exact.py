"""Shooting and diagonalization oracles: agreement, limits, failure modes."""
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import varpert.exact as exact
import varpert.reference as ref
from varpert.anharmonic import solve_omega
from varpert.exact import (ConvergenceError, ShootingConfig, diag_eigenvalues,
                           shoot_eigenvalue)
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


def test_shooting_tolerance_halving():
    spec = spec_at(0.05)
    tol = 1e-7
    e_coarse = shoot_eigenvalue(spec, 1, ShootingConfig(energy_tol=tol))
    e_fine = shoot_eigenvalue(spec, 1, ShootingConfig(energy_tol=tol / 2.0))
    assert abs(e_coarse - e_fine) <= tol


def test_shooting_explicit_box_matches_default():
    spec = spec_at(0.05)
    e_auto = shoot_eigenvalue(spec, 0)
    e_wide = shoot_eigenvalue(spec, 0, ShootingConfig(x_max=9.0))
    assert e_auto == pytest.approx(e_wide, abs=1e-8)


def test_shooting_config_validation():
    with pytest.raises(ValueError, match="abs_tol"):
        ShootingConfig(abs_tol=1e-5)  # looser than the 1e-6 ceiling
    with pytest.raises(ValueError, match="abs_tol"):
        ShootingConfig(abs_tol=0.0)
    with pytest.raises(ValueError, match="energy_tol"):
        ShootingConfig(energy_tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        ShootingConfig(max_iter=4)


def test_shooting_config_rejects_non_finite_values():
    # an infinite width used to hang the search, an infinite tolerance to
    # skip refinement altogether
    with pytest.raises(ValueError, match="energy_tol"):
        ShootingConfig(energy_tol=math.inf)
    with pytest.raises(ValueError, match="x_max"):
        ShootingConfig(x_max=math.inf)


def test_shooting_rejects_negative_level():
    with pytest.raises(ValueError):
        shoot_eigenvalue(spec_at(0.05), -1)


def test_shooting_budget_exhaustion_raises():
    spec = spec_at(0.05)
    with pytest.raises(ConvergenceError) as err:
        shoot_eigenvalue(spec, 0, ShootingConfig(energy_tol=1e-13,
                                                 max_iter=8))
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


@pytest.mark.parametrize("b", [0.05, 1e4])
def test_shooting_levels_ascend_strictly(b):
    spec = spec_at(b)
    levels = [shoot_eigenvalue(spec, n) for n in range(8)]
    assert all(lo < hi for lo, hi in zip(levels, levels[1:]))


def test_import_and_table_leave_scipy_linalg_unloaded():
    code = (
        "import contextlib, io, sys\n"
        "import varpert\n"
        "assert 'scipy.linalg' not in sys.modules, 'loaded by import'\n"
        "from varpert.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['table1']) == 0\n"
        "assert 'scipy.linalg' not in sys.modules, 'loaded by table1'\n"
    )
    src = str(Path(exact.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
