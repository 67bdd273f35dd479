"""Acceptance gate: published-table reproduction and property checks.

One test per criterion, executed at the stated tolerance, each printing a
single PASS or FAIL line even when the run is otherwise quiet. Failures
are real disagreements and are reported with their diagnosis; nothing is
loosened to force a green run.
"""
import math

import pytest

import varpert.reference as ref
from varpert.anharmonic import (energy_conventional_pt, energy_present,
                                energy_variational, pt_divergent,
                                second_order_closed_form, second_order_sum,
                                solve_omega)
from varpert.exact import diag_eigenvalues, shoot_eigenvalue
from varpert.helium import (ground_state, hydrogenic_radial,
                            optimal_zstar_excited, excited_triplet_energy,
                            second_order_correction, x_integral, y_integral)
from varpert.model import hbar_omega, make_anharmonic_spec
from varpert.polyexp import polyexp_moment
from varpert.reports import RunConfig, run_table

K = 0.5


def announce(capsys, ok, number, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    if not ok:
        pytest.fail(detail, pytrace=False)


def method_value(spec, n, method):
    if method == "conventional_pt1":
        return energy_conventional_pt(spec, n, 1).e_total
    if method == "conventional_pt2":
        return energy_conventional_pt(spec, n, 2).e_total
    if method == "variational":
        return energy_variational(spec, n).e_total
    if method == "present":
        return energy_present(spec, n).e_total
    if method == "exact":
        return shoot_eigenvalue(spec, n)
    if method == "half_m_omega2":
        sol = solve_omega(spec, n)
        return K * (sol.hbar_Omega_n / hbar_omega(spec)) ** 2
    raise AssertionError(method)


def compare_cells(n, table):
    bad = []
    count = 0
    for b, refs in table.items():
        spec = make_anharmonic_spec(K, b)
        for method, expected in refs.items():
            got = method_value(spec, n, method)
            count += 1
            if abs(got - expected) > ref.TOL_TABLE_EV:
                bad.append(f"{method}(n={n}, b={b}) = {got:.7g} vs published "
                           f"{expected:.7g} (|diff| = {abs(got - expected):.2g}"
                           f" > {ref.TOL_TABLE_EV:g})")
    return count, bad


def test_criterion_1_ground_state_table(capsys):
    count, bad = compare_cells(0, ref.TABLE1)
    flag_ok = pt_divergent(make_anharmonic_spec(K, 0.25), 0)
    if not flag_ok:
        bad.append("order-2 series not flagged divergent at b = 0.25")
    detail = (f"{count} ground-state cells within {ref.TOL_TABLE_EV:g} eV; "
              "order-2 series flagged divergent at b = 0.25"
              if not bad else "; ".join(bad))
    announce(capsys, not bad, 1, detail)


def test_criterion_2_order_by_order_table(capsys):
    count, bad = compare_cells(0, {0.05: ref.TABLE2})
    detail = (f"{count} first/second-order cells at b = 0.05 within "
              f"{ref.TOL_TABLE_EV:g} eV" if not bad else "; ".join(bad))
    announce(capsys, not bad, 2, detail)


def test_criterion_3_excited_state_table(capsys):
    count, bad = compare_cells(1, {0.05: ref.TABLE3})
    detail = f"{count} excited-state cells within {ref.TOL_TABLE_EV:g} eV"
    if bad:
        spec = make_anharmonic_spec(K, 0.05)
        u = solve_omega(spec, 1).hbar_Omega_n
        detail = ("; ".join(bad)
                  + f"; the brute-force ladder sum gives "
                    f"{second_order_sum(spec, 1, u):.7g} eV, matching the "
                    f"closed form with linear coefficient -280 n, while a "
                    f"-28 n variant gives 5.0924099, 2.1e-6 from the "
                    f"published 5.092412; "
                    f"{count - len(bad)} of {count} cells pass")
    announce(capsys, not bad, 3, detail)


def test_criterion_4_helium(capsys):
    result = ground_state(n_max=7, m_range="paper")
    zs_exc = optimal_zstar_excited(2.0)
    e_exc = excited_triplet_energy(zs_exc, 2.0)
    checks = [
        ("Z*", result.z_star, ref.HELIUM["z_star"], 0.0),
        ("variational", result.e_variational, ref.HELIUM["e_variational"],
         ref.TOL_HELIUM_VARIATIONAL),
        ("second-order", result.e_second, ref.HELIUM["e_second"],
         ref.TOL_HELIUM_SECOND),
        ("total", result.e_total, ref.HELIUM["e_total"],
         ref.TOL_HELIUM_SECOND),
        ("excited Z*", zs_exc, ref.HELIUM["z_star_excited"],
         ref.TOL_HELIUM_ZSTAR),
        ("excited energy", e_exc, ref.HELIUM["e_excited"],
         ref.TOL_HELIUM_VARIATIONAL),
    ]
    bad = [f"{name} = {got:.7g} vs published {expected:.7g} "
           f"(tol {tol:g})"
           for name, got, expected, tol in checks
           if abs(got - expected) > tol]
    detail = f"all {len(checks)} helium cells within tolerance"
    if bad:
        full = second_order_correction(result.z_star, 2.0, 7, m_range="full")
        detail = ("; ".join(bad)
                  + f"; the unordered channel sum through n' = 7 gives "
                    f"{result.e_second:.7g} ryd ({full:.7g} with full "
                    f"magnetic degeneracy); doubling every n != n' channel "
                    f"gives -0.0244974, 4.0e-4 from the published -0.0249, "
                    f"but that counts each unordered pair twice; "
                    f"{len(checks) - len(bad)} of {len(checks)} cells pass")
    announce(capsys, not bad, 4, detail)


def test_criterion_5_property_suite(capsys):
    bad = []
    # closed-form second order == brute-force sum, n <= 12, 5-point b grid
    for b in (0.001, 0.01, 0.05, 0.25, 1.0):
        spec = make_anharmonic_spec(K, b)
        for n in range(13):
            u = solve_omega(spec, n).hbar_Omega_n
            closed = second_order_closed_form(spec, n, u)
            brute = second_order_sum(spec, n, u)
            if abs(closed - brute) > 1e-10 * abs(brute):
                bad.append(f"closed form vs sum at n={n}, b={b}")
    # the two exact oracles agree to 1e-5 eV
    for b in (0.01, 0.05, 0.25):
        spec = make_anharmonic_spec(K, b)
        diag = diag_eigenvalues(spec, dim=120, n_levels=4)
        for n in range(4):
            if abs(shoot_eigenvalue(spec, n) - diag[n]) > 1e-5:
                bad.append(f"oracle disagreement at n={n}, b={b}")
    # variational bounds from above, present undershoots, for the paper b grid
    for b in (0.01, 0.05, 0.25):
        spec = make_anharmonic_spec(K, b)
        exact = shoot_eigenvalue(spec, 0)
        if energy_variational(spec, 0).e_total <= exact:
            bad.append(f"variational not an upper bound at b={b}")
        if energy_present(spec, 0).e_total >= exact:
            bad.append(f"present does not undershoot at b={b}")
    # hydrogenic orthonormality and analytic Slater identities
    zs = 1.6875
    for n in range(1, 8):
        r = hydrogenic_radial(n, 0, zs)
        if abs(polyexp_moment(r, r, 2) - 1.0) > 1e-10:
            bad.append(f"norm of level {n}")
        if n > 1 and abs(polyexp_moment(r, hydrogenic_radial(1, 0, zs), 2)) > 1e-10:
            bad.append(f"orthogonality of levels 1, {n}")
    if abs(x_integral(1, zs) - zs) > 1e-10:
        bad.append("X1 != Z*")
    if abs(y_integral(1, 1, 0, zs) - 5.0 * zs / 8.0) > 1e-10:
        bad.append("Y110 != 5 Z*/8")
    slope = (2.0 - optimal_zstar_excited(2.0)) / 0.4
    if abs(slope - 274.0 / 729.0) > 1e-10:
        bad.append("J-K slope != 274/729")
    detail = ("closed-form equivalence, oracle agreement, bound ordering, "
              "and radial identities all hold" if not bad else "; ".join(bad))
    announce(capsys, not bad, 5, detail)


def test_criterion_6_determinism(capsys):
    cfg = RunConfig("table1", output_format="csv")
    first = run_table(cfg).text
    second = run_table(cfg).text
    ok = first == second
    detail = ("two table1 csv runs are byte-identical "
              f"({len(first)} bytes)" if ok else "csv runs differ")
    announce(capsys, ok, 6, detail)
