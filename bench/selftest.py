"""Checks of the benchmark's own parts: oracle, parsers and tracer.

    python3 bench/selftest.py

The file name keeps pytest from collecting it with the package's tests.
Exits 1 on the first failure.
"""
from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest failed: {what}")


def test_oracle() -> None:
    hw = oracle.hbar_omega(0.5)
    levels = oracle.exact_levels(0.5, 0.0, 5)
    check(all(abs(e - hw * (n + 0.5)) < 1e-12 * e for n, e in enumerate(levels)),
          "harmonic levels")
    lam = oracle.coupling(0.5, 1e6)
    for n, e in enumerate(oracle.exact_levels(0.5, 1e6, 2)):
        check(abs(e / oracle.quartic_limit(1e6, n) - 1.0) < lam ** (-2 / 3),
              f"quartic limit n={n}")
    check(math.isclose(oracle.omega_root(0.5, 0.0, 3), hw, rel_tol=1e-15),
          "root at b = 0")
    for b in (1e-9, 0.05, 1e8):
        u = oracle.omega_root(0.5, b, 2)
        c = 24.0 * b * oracle.KAPPA ** 2 * 13 / 5
        check(abs(u ** 3 - hw * hw * u - c) < 1e-12 * u ** 3, f"cubic at b={b}")
    pert = oracle.perturbative_levels(0.5, 0.0, 3)
    check(all(math.isclose(pert[m][n], hw * (n + 0.5), rel_tol=1e-14)
              for m in ("variational", "present", "conventional_pt2")
              for n in range(3)), "every order is harmonic at b = 0")


def test_parsers() -> None:
    for command in workloads.TABLE_COMMANDS:
        parsed = [workloads.parse_table(command, fmt, workloads._run_cli(
            [command, "--b", "0.25", "--levels", "2", "--format", fmt])[1])
            for fmt in workloads.FORMATS]
        for key in set(parsed[0]) & set(parsed[1]):
            values = [p[key][0] for p in parsed if key in p]
            check(all(math.isclose(v, values[-1], rel_tol=1e-6) for v in values),
                  f"{command} {key} across formats")
    parsed = [workloads.parse_helium(fmt, workloads._run_cli(
        ["helium", "--n-max", "3", "--format", fmt])[1])
        for fmt in workloads.FORMATS]
    for key in ("z_star", "e_var", "e_second", "e_total", "zs_exc", "e_exc"):
        check(all(math.isclose(p[key], parsed[2][key], rel_tol=1e-6)
                  for p in parsed), f"helium {key} across formats")
    check(all(sorted(p["partials"]) == [2, 3] for p in parsed), "partial sums")


def test_tracer() -> None:
    import varpert
    from varpert import helium

    original = helium.y_integral
    tracer = Tracer()
    tracer.install(varpert)
    try:
        helium.second_order_correction(1.6875, 2.0, 3)
    finally:
        tracer.uninstall()
    check(helium.y_integral is original, "uninstall restores functions")
    rows = tracer.summary()
    check(rows["helium.second_order_by_n_prime"]["calls"] == 1,
          "call seen through the name helium looks up")
    check(rows["polyexp.slater_radial"]["calls"]
          == rows["helium.y_integral"]["calls"]
          == len(tracer.args["helium.y_integral"]) > 0, "nested calls counted")
    top = rows["helium.second_order_correction"]
    check(0.0 < top["self_s"] < top["total_s"], "self time excludes children")

    tracer = Tracer()
    tracer.names = ["outer", "inner"]
    tracer.spans = [[0, 0.0, 10.0, -1], [1, 1.0, 4.0, 0], [1, 5.0, 6.0, 0]]
    rows = tracer.summary()
    check(rows["outer"]["self_s"] == 6.0 and rows["inner"]["calls"] == 2,
          "self time arithmetic")


if __name__ == "__main__":
    test_oracle()
    test_parsers()
    test_tracer()
    print("selftest passed")
