"""Every command and format against the committed golden outputs.

The goldens in ``tests/goldens`` hold stdout of ``varpert <command>`` at
default settings, plus ``--levels 2`` and ``--b 0`` for the four table
commands and ``--n-max 10`` under both m ranges for helium, in markdown
(``.md``), CSV and JSON. Markdown and CSV must match
byte for byte, helium JSON exactly. Oscillator JSON must match exactly
except the ``exact`` value cells, which carry the shooting solver's full
precision and may move within its 1e-9 eV energy tolerance.
"""
import json
from pathlib import Path

import pytest

from varpert.cli import main

GOLDENS = Path(__file__).resolve().parent / "goldens"
FORMATS = {".md": "markdown", ".csv": "csv", ".json": "json"}
VARIANTS = {"": [], "levels2": ["--levels", "2"], "b0": ["--b", "0"]}
HELIUM_VARIANTS = {"": [], "nmax10": ["--n-max", "10"],
                   "nmax10full": ["--n-max", "10", "--m-range", "full"]}
EXACT_TOL_EV = 1e-9


def golden_names():
    names = []
    for fmt in FORMATS:
        for variant in HELIUM_VARIANTS:
            stem = f"helium_{variant}" if variant else "helium"
            names.append(f"{stem}{fmt}")
        for command in ("table1", "table2", "table3", "sweep"):
            for variant in VARIANTS:
                stem = f"{command}_{variant}" if variant else command
                names.append(f"{stem}{fmt}")
    return names


def argv_for(name):
    path = Path(name)
    command, _, variant = path.stem.partition("_")
    extra = HELIUM_VARIANTS if command == "helium" else VARIANTS
    return [command, *extra[variant], "--format", FORMATS[path.suffix]]


def split_exact_values(payload):
    """Pop every exact value cell out of an oscillator report."""
    values = []
    for block in payload["report"]["blocks"]:
        for column in block["columns"]:
            values.append(column["cells"]["exact"].pop("value"))
    return values


def test_goldens_cover_every_file():
    on_disk = sorted(p.name for p in GOLDENS.iterdir())
    assert on_disk == sorted(golden_names())
    assert len(on_disk) == 45


@pytest.mark.parametrize("name", golden_names())
def test_output_matches_golden(name, capsys):
    assert main(argv_for(name)) == 0
    got = capsys.readouterr().out
    expected = (GOLDENS / name).read_text(encoding="utf-8")
    if not name.endswith(".json") or name.startswith("helium"):
        assert got == expected
        return
    got_doc, expected_doc = json.loads(got), json.loads(expected)
    got_exact = split_exact_values(got_doc)
    expected_exact = split_exact_values(expected_doc)
    assert got_doc == expected_doc
    assert len(got_exact) == len(expected_exact)
    for g, e in zip(got_exact, expected_exact):
        assert abs(g - e) <= EXACT_TOL_EV
