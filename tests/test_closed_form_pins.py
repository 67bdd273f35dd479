"""The oscillator closed forms pinned bit for bit at seeded points.

``closed_form_pins.json`` holds the ``repr`` of every closed-form output
(the ``solve_omega`` root and residual, the variational, present and
conventional energies and the divergence flag) for 21 levels at 32 seeded
(k, b) points, or the error a call raised. A change that only reorganises
the code, such as a performance change, must leave every entry equal.
Regenerate the file, only where a change of values is intended and
recorded, with ``PYTHONPATH=src python tests/test_closed_form_pins.py``;
before writing it prints, per column, how many entries change and the
largest relative move, for the record.
"""
import json
import math
import random
from pathlib import Path

import pytest

from varpert.anharmonic import (energy_conventional_pt, energy_present,
                                energy_variational, pt_divergent,
                                second_order_sum, solve_omega)
from varpert.model import KAPPA_EV_A2, make_anharmonic_spec
from varpert.oscillator import hprime_element

PINS = Path(__file__).resolve().parent / "closed_form_pins.json"
LEVELS = 21
COLUMNS = ("solve_omega", "residual", "variational", "present_e1",
           "present_e2", "conventional_pt1", "conventional_pt2_e2",
           "pt_divergent")


def pin_points():
    """32 (k, b) points: 6 at b = 0, 20 spread over the coupling, 6 extreme."""
    rng = random.Random(2013)
    points = []
    for i in range(26):
        k = 10.0 ** rng.uniform(-4.0, 3.0)
        # the coupling b sqrt(kappa) / (8 k^1.5) log-uniform on [1e-7, 1e3]
        scale = 8.0 / KAPPA_EV_A2 ** 0.5 * k ** 1.5
        b = 0.0 if i % 5 == 0 else scale * 10.0 ** rng.uniform(-7.0, 3.0)
        points.append((k, b))
    return points + [(0.5, 1e10), (0.5, 1e30), (1e-6, 1e200), (0.5, 3e305),
                     (0.5, 1e-40), (1e300, 0.0)]


def _call(fn):
    try:
        return repr(fn())
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def closed_form_row(spec, n):
    """The repr of each closed-form output at level n, or of its error."""
    return [_call(lambda: solve_omega(spec, n).hbar_Omega_n),
            _call(lambda: solve_omega(spec, n).residual),
            _call(lambda: energy_variational(spec, n).e_total),
            _call(lambda: energy_present(spec, n).e_first),
            _call(lambda: energy_present(spec, n).e_second_corr),
            _call(lambda: energy_conventional_pt(spec, n, 1).e_total),
            _call(lambda: energy_conventional_pt(spec, n, 2).e_second_corr),
            _call(lambda: pt_divergent(spec, n))]


def pin_table():
    return {f"{k!r} {b!r}": [closed_form_row(make_anharmonic_spec(k, b), n)
                             for n in range(LEVELS)]
            for k, b in pin_points()}


def pin_changes(old, new):
    """Per column of ``COLUMNS``, over the points both tables hold: how many
    entries differ, and the largest relative move among them between
    nonzero finite numbers."""
    changed = dict.fromkeys(COLUMNS, 0)
    moved = dict.fromkeys(COLUMNS, 0.0)
    for key in old.keys() & new.keys():
        for was, row in zip(old[key], new[key]):
            for name, a, b in zip(COLUMNS, was, row):
                if a == b:
                    continue
                changed[name] += 1
                try:
                    x, y = float(a), float(b)
                except ValueError:  # an error message or a flag
                    continue
                if x * y != 0.0 and math.isfinite(x * y):
                    moved[name] = max(moved[name], abs(y / x - 1.0))
    return {name: (changed[name], moved[name]) for name in COLUMNS}


def test_pin_changes_counts_and_measures():
    old = {"p": [["1.0", "0.5", "True"]], "q": [["2.0", "0.0", "False"]]}
    new = {"p": [["1.0", "0.5000001", "True"]],
           "q": [["2.0", "1e-30", "True"]], "r": [["3.0", "0.0", "False"]]}
    changes = pin_changes(old, new)
    assert changes["solve_omega"] == (0, 0.0)
    # 0.0 -> 1e-30 counts, but only the 0.5 entry has a relative move
    assert changes["residual"][0] == 2
    assert changes["residual"][1] == pytest.approx(2e-7)
    assert changes["variational"] == (1, 0.0)


def test_closed_forms_match_the_pinned_reprs():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    assert list(pinned) == [f"{k!r} {b!r}" for k, b in pin_points()]
    assert pin_table() == pinned


def test_second_order_sum_is_the_hprime_sum_exactly():
    # the reference loop: four checked hprime_element calls, summed in order
    rng = random.Random(7)
    for _ in range(200):
        spec = make_anharmonic_spec(10.0 ** rng.uniform(-4.0, 3.0),
                                    10.0 ** rng.uniform(-6.0, 6.0))
        u = 10.0 ** rng.uniform(-2.0, 3.0)
        n = rng.randrange(LEVELS)
        total = 0.0
        for k in (n - 4, n - 2, n + 2, n + 4):
            if k >= 0:
                amp = hprime_element(spec, u, k, n)
                total += amp * amp / (u * (n - k))
        assert second_order_sum(spec, n, u) == total


@pytest.mark.parametrize("k, b", [(0.5, 0.0), (0.5, 0.05), (2e-3, 7.0),
                                  (0.5, 1e30)])
def test_variational_basis_is_the_solve_omega_root(k, b):
    spec = make_anharmonic_spec(k, b)
    for n in range(LEVELS):
        root = solve_omega(spec, n).hbar_Omega_n
        assert energy_variational(spec, n).hbar_omega_n == root
        assert energy_present(spec, n).hbar_omega_n == root


if __name__ == "__main__":
    table = pin_table()
    pinned = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    print(f"new points: {[key for key in table if key not in pinned]}")
    for name, (count, move) in pin_changes(pinned, table).items():
        print(f"{name}: {count} entries change, largest relative move {move:.3g}")
    PINS.write_text(json.dumps(table, indent=0) + "\n", encoding="utf-8")
