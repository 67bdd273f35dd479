"""Every command and format against the committed golden outputs.

The goldens in ``tests/goldens`` hold stdout of ``varpert <command>`` at
default settings, plus ``--levels 2`` and ``--b 0`` for the four table
commands and ``--n-max 10`` under both m ranges for helium, in markdown
(``.md``), CSV and JSON. Markdown and CSV must match
byte for byte, helium JSON exactly. Oscillator JSON must match exactly
except the ``exact`` value cells, which carry the shooting solver's full
precision and may move within its 1e-9 eV energy tolerance.

Regenerate the goldens, only where a change of output is intended and
recorded, with ``PYTHONPATH=src python tests/test_goldens.py``; before
writing it prints, per file that changes, each cell that moves and the
largest relative move, for the record.
"""
import contextlib
import csv
import io
import json
import math
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


def golden_cells(name, text):
    """Each cell of a golden's text by its place: JSON leaves by their
    path, CSV and markdown fields by line and column."""
    if name.endswith(".json"):
        cells = {}

        def walk(node, path):
            if isinstance(node, (dict, list)):
                pairs = node.items() if isinstance(node, dict) else enumerate(node)
                for key, child in pairs:
                    walk(child, f"{path}/{key}")
            else:
                cells[path] = repr(node)

        walk(json.loads(text), "")
        return cells
    lines = text.splitlines()
    rows = (csv.reader(lines) if name.endswith(".csv")
            else (line.split("|") for line in lines))
    return {f"{i}:{j}": cell.strip()
            for i, row in enumerate(rows) for j, cell in enumerate(row)}


def golden_changes(name, old, new):
    """The places of the cells that differ between two texts of golden
    ``name`` (a cell in only one counts), and the largest relative move
    among them between nonzero finite numbers."""
    was, now = golden_cells(name, old), golden_cells(name, new)
    moved = sorted(key for key in was.keys() | now.keys()
                   if was.get(key) != now.get(key))
    largest = 0.0
    for key in moved:
        try:
            x, y = float(was[key]), float(now[key])
        except (KeyError, ValueError):  # a cell in one text, or not a number
            continue
        if x * y != 0.0 and math.isfinite(x * y):
            largest = max(largest, abs(y / x - 1.0))
    return moved, largest


def test_golden_changes_counts_and_measures():
    old = '{"a": [1.0, 0.5, "x"], "b": 2.0}'
    new = '{"a": [1.0, 0.5000001, "y"], "c": 0.0}'
    moved, largest = golden_changes("t.json", old, new)
    assert moved == ["/a/1", "/a/2", "/b", "/c"]
    assert largest == pytest.approx(2e-7)
    csv_old = "method,value\nexact,1.25\n"
    csv_new = "method,value\nexact,1.5\npresent,2.0\n"
    moved, largest = golden_changes("t.csv", csv_old, csv_new)
    assert moved == ["1:1", "2:0", "2:1"]
    assert largest == pytest.approx(0.2)
    moved, _ = golden_changes("t.md", "| a | 1 |\n", "| a | 2 |\n")
    assert moved == ["0:2"]


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


if __name__ == "__main__":
    outputs = {}
    for name in golden_names():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            if main(argv_for(name)) != 0:
                raise SystemExit(f"{name}: varpert {argv_for(name)} failed")
        outputs[name] = out.getvalue()
    for name, text in outputs.items():
        path = GOLDENS / name
        old = path.read_text(encoding="utf-8") if path.exists() else ""
        if text != old:
            moved, largest = golden_changes(name, old, text)
            print(f"{name}: {len(moved)} cells move, largest relative move "
                  f"{largest:.3g}")
            for key in moved:
                print(f"  {key}")
    for name, text in outputs.items():
        (GOLDENS / name).write_text(text, encoding="utf-8")
