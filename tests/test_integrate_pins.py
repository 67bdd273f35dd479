"""The shooting integrator pinned bit for bit at seeded points.

``integrate_pins.json`` holds, for 50 seeded points, the inputs of one
``exact._integrate`` call (k, b, energy, parity, x_max) and the
(psi(x_max), node count) it returned. Energies lie within 10 % of a
present-scheme level n = 0-20, so the node counts vary, and x_max is
50-100 % of the default box. A change that only reorganises the
arithmetic, such as a performance change, must leave every entry equal.
A second test holds the entries to a tighter integration, so they record
accuracy and not only bits.
Regenerate the file, only where a change of values is intended and
recorded, with ``PYTHONPATH=src python tests/test_integrate_pins.py``.
"""
import json
import random
from pathlib import Path

import pytest

import varpert.exact as exact
from varpert.anharmonic import energy_present
from varpert.exact import _default_x_max, _integrate
from varpert.model import make_anharmonic_spec

PINS = Path(__file__).resolve().parent / "integrate_pins.json"


def pin_table():
    rng = random.Random(20261018)
    rows = []
    for _ in range(50):
        k = 10.0 ** rng.uniform(-4.0, 3.0)
        b = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-3.0, 8.0)
        n = rng.randint(0, 20)
        spec = make_anharmonic_spec(k, b)
        energy = energy_present(spec, n).e_total * rng.uniform(0.9, 1.1)
        parity = rng.randint(0, 1)
        x_max = _default_x_max(spec, energy) * rng.uniform(0.5, 1.0)
        psi, nodes = _integrate(spec, energy, parity, x_max)
        rows.append({"k": k, "b": b, "energy": energy, "parity": parity,
                     "x_max": x_max, "psi": psi, "nodes": nodes})
    return rows


def test_integrate_matches_the_pinned_results():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    assert len(pinned) == 50
    for row in pinned:
        spec = make_anharmonic_spec(row["k"], row["b"])
        got = _integrate(spec, row["energy"], row["parity"], row["x_max"])
        assert got == (row["psi"], row["nodes"]), row


def test_integrate_converges_to_a_tighter_integration(monkeypatch):
    # a per-step bound 1e-10 smaller, with room for 60 terms a step, keeps
    # every node count and moves psi(x_max) by under 1e-12 relative (4.0e-15
    # measured); this holds the pins to accuracy, not to stored bits
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    order = 60
    monkeypatch.setattr(exact, "ABS_TOL", exact.ABS_TOL * 1e-10)
    monkeypatch.setattr(exact, "ORDER_MAX", order)
    monkeypatch.setattr(exact, "_RECURRENCE", tuple(
        1.0 / ((j + 1) * (j + 2)) for j in range(order - 1)))
    for row in pinned:
        spec = make_anharmonic_spec(row["k"], row["b"])
        psi, nodes = _integrate(spec, row["energy"], row["parity"],
                                row["x_max"])
        assert nodes == row["nodes"], row
        assert psi == pytest.approx(row["psi"], rel=1e-12, abs=0.0), row


if __name__ == "__main__":
    PINS.write_text(json.dumps(pin_table(), indent=0) + "\n", encoding="utf-8")
