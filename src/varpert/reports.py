"""Report assembly for the command-line front end.

Builds a flat list of cells for each oscillator table and a summary dict
for helium, renders them as markdown, CSV, or JSON, and optionally checks
every cell against the embedded reference constants. All rendering is
order-fixed and timestamp-free so identical configurations produce byte
identical output.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field, replace

from . import reference as ref
from .anharmonic import (energy_conventional_pt, energy_present,
                         energy_variational, pt_divergent, solve_omega)
from .exact import ConvergenceError, diag_eigenvalues, shoot_eigenvalue
from .helium import excited_triplet_energy, ground_state, optimal_zstar_excited
from .model import Constants, hbar_omega, make_anharmonic_spec

COMMANDS = ("table1", "table2", "table3", "helium", "sweep")
FORMATS = ("markdown", "csv", "json")
DEFAULT_B = {"table1": (0.01, 0.05, 0.25), "sweep": (0.01, 0.05, 0.25),
             "table2": (0.05,), "table3": (0.05,)}
STIFFNESS_K = 0.5  # eV/A^2, the benchmark oscillator family


@dataclass(frozen=True)
class RunConfig:
    """Validated CLI run description; defaults regenerate the reference tables."""

    command: str
    b_values: tuple[float, ...] = ()
    n_levels: int = 1
    n_max_helium: int = 7
    m_range: str = "paper"
    exact_dim: int = 120
    exact_tol: float = 1e-9
    output_format: str = "markdown"
    constants_path: str | None = None
    check: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "b_values", tuple(self.b_values))
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.output_format not in FORMATS:
            raise ValueError(f"unknown format {self.output_format!r}")
        if self.m_range not in ("paper", "full"):
            raise ValueError(f"unknown m_range {self.m_range!r}")
        if self.n_levels < 1:
            raise ValueError("n_levels must be >= 1")
        if self.n_max_helium < 2:
            raise ValueError("n_max_helium must be >= 2")
        if self.exact_dim < 24:
            raise ValueError("exact_dim must be >= 24")
        if not (self.exact_tol > 0.0 and math.isfinite(self.exact_tol)):
            raise ValueError(f"exact_tol must be finite and > 0, got {self.exact_tol}")
        bad = [b for b in self.b_values if not (b >= 0.0 and math.isfinite(b))]
        if bad:
            raise ValueError(f"b values must be finite and >= 0, got {bad[0]}")

    def with_default_b(self) -> "RunConfig":
        if self.b_values or self.command == "helium":
            return self
        return replace(self, b_values=DEFAULT_B[self.command])


@dataclass(frozen=True)
class Cell:
    """One table entry: a method's value at one (level, b) point.

    ``percent`` is the value as a percent of the exact energy, printed to
    three decimals, or "" where there is none; ``note`` is "divergent",
    "unconverged: ..." or "".
    """

    level: int
    b: float
    method: str
    value: float
    percent: str
    note: str


@dataclass
class ReportDocument:
    """Rendered report plus check/convergence outcomes."""

    text: str
    violations: list[str] = field(default_factory=list)
    convergence_failed: bool = False


def _fmt(v: float) -> str:
    return f"{v:.7g}"


def _cell_txt(cell: Cell) -> str:
    """Markdown table cell: value, then (percent of exact) and [note] if set."""
    txt = _fmt(cell.value)
    if cell.percent:
        txt += f" ({cell.percent}%)"
    if cell.note:
        txt += f" [{cell.note}]"
    return txt


def _oscillator_cells(cfg: RunConfig, constants: Constants, n: int,
                      b: float) -> list[Cell]:
    """The column of cells for one (level, b) point, conventional_pt1 first.

    The closed forms run before shooting, so that a point they reject
    fails fast. A shooting convergence failure turns the exact cell into
    an annotation instead of aborting the table; the other cells then
    carry no percent.
    """
    spec = make_anharmonic_spec(STIFFNESS_K, b, constants)
    # stiffness of the optimized parent oscillator, k (Omega_n/omega)^2
    stiffness = STIFFNESS_K * (solve_omega(spec, n).hbar_Omega_n / hbar_omega(spec)) ** 2
    estimates = [
        ("conventional_pt1", energy_conventional_pt(spec, n, 1).e_total, ""),
        ("conventional_pt2", energy_conventional_pt(spec, n, 2).e_total,
         "divergent" if pt_divergent(spec, n) else ""),
        ("variational", energy_variational(spec, n).e_total, ""),
        ("present", energy_present(spec, n).e_total, ""),
    ]
    try:
        exact = shoot_eigenvalue(spec, n, energy_tol=cfg.exact_tol)
        exact_note = ""
    except ConvergenceError as exc:
        exact, exact_note = math.nan, f"unconverged: {exc}"
    return [Cell(n, b, method, value,
                 f"{100.0 * value / exact:.3f}" if math.isfinite(exact) else "", note)
            for method, value, note in estimates] + [
        Cell(n, b, "exact", exact, "", exact_note),
        Cell(n, b, "half_m_omega2", stiffness, "", ""),
    ]


def _check_oscillator(cfg: RunConfig, constants: Constants, n: int, b: float,
                      cells: dict[str, Cell], violations: list[str]) -> None:
    """Compare one column against the embedded reference constants."""
    refs: dict[str, float] = {}
    if n == 0 and b in ref.TABLE1:
        refs = dict(ref.TABLE1[b])
        if b == 0.05:
            refs["conventional_pt1"] = ref.TABLE2["conventional_pt1"]
    elif n == 1 and b in (0.05,):
        refs = dict(ref.TABLE3)
    for method, expected in refs.items():
        got = cells[method].value
        if not math.isfinite(got) or abs(got - expected) > ref.TOL_TABLE_EV:
            violations.append(
                f"n={n} b={b} {method}: {_fmt(got)} vs reference "
                f"{_fmt(expected)} (tol {ref.TOL_TABLE_EV:g})")
    if n == 0 and b in ref.PT_DIVERGENT_B and cells["conventional_pt2"].note != "divergent":
        violations.append(
            f"n={n} b={b}: order-2 perturbation theory should be flagged divergent")
    if n == 0 and b in ref.TABLE1 and "conventional_pt2" in refs \
            and cells["conventional_pt2"].note == "divergent":
        violations.append(
            f"n={n} b={b}: order-2 perturbation theory unexpectedly flagged divergent")
    # cross-validate the two exact oracles in every column, referenced or not
    spec = make_anharmonic_spec(STIFFNESS_K, b, constants)
    try:
        shoot = cells["exact"].value
        diag = diag_eigenvalues(spec, dim=cfg.exact_dim, n_levels=n + 1)[n]
        if abs(shoot - diag) > ref.TOL_CROSS_ORACLE_EV:
            violations.append(
                f"n={n} b={b}: shooting {_fmt(shoot)} vs diagonalization "
                f"{_fmt(diag)} beyond {ref.TOL_CROSS_ORACLE_EV:g} eV")
    except ConvergenceError as exc:
        violations.append(f"n={n} b={b}: diagonalization oracle failed: {exc}")


def run_table(cfg: RunConfig) -> ReportDocument:
    """Build the report for table1, table2, table3, or sweep."""
    cfg = cfg.with_default_b()
    constants = (Constants() if cfg.constants_path is None
                 else Constants.from_file(cfg.constants_path))
    first = 1 if cfg.command == "table3" else 0
    cells: list[Cell] = []
    violations: list[str] = []
    for n in range(first, first + cfg.n_levels):
        for b in cfg.b_values:
            column = _oscillator_cells(cfg, constants, n, b)
            if cfg.check:
                _check_oscillator(cfg, constants, n, b,
                                  {c.method: c for c in column}, violations)
            cells += column
    render = {"markdown": _table_markdown, "csv": _table_csv,
              "json": _table_json}[cfg.output_format]
    return ReportDocument(
        text=render(cfg, constants.kappa, cells), violations=violations,
        convergence_failed=any(c.note.startswith("unconverged") for c in cells))


# table2's first/second-order grid; its CSV labels each row "scheme,order"
TABLE2_GRID = {"conventional_pt1": "conventional,1",
               "conventional_pt2": "conventional,2",
               "variational": "present,1", "present": "present,2"}


def _row_label(command: str, method: str) -> str | None:
    """CSV row label of a method, or None where the markdown and CSV
    reports leave it out (JSON carries every cell)."""
    if command == "table2":
        return TABLE2_GRID.get(method)
    if method == "conventional_pt1" and command != "sweep":
        return None
    return method


def _blocks(cells: list[Cell]) -> list[tuple[int, list[dict[str, Cell]]]]:
    """Group the flat cell list into levels of (level, b) columns. Columns
    are split by position, so that repeated b values stay separate."""
    columns: list[dict[str, Cell]] = []
    for cell in cells:
        if cell.method == cells[0].method:
            columns.append({})
        columns[-1][cell.method] = cell
    return [(level, list(cols)) for level, cols in itertools.groupby(
        columns, key=lambda col: col["exact"].level)]


def _table_csv(cfg: RunConfig, kappa: float, cells: list[Cell]) -> str:
    head = "scheme,order" if cfg.command == "table2" else "method"
    lines = [f"command,level,b,{head},value,percent_of_exact,note"]
    for c in cells:
        label = _row_label(cfg.command, c.method)
        if label is not None:
            lines.append(f"{cfg.command},{c.level},{_fmt(c.b)},{label},"
                         f"{_fmt(c.value)},{c.percent},{c.note}")
    return "\n".join(lines) + "\n"


def _md_table(heading: str, header: list[str],
              rows: list[list[str]]) -> list[str]:
    """Markdown lines: heading, blank, a table whose trailing empty cells
    print as bare bars, blank."""
    return [heading, "", *(("| " + " | ".join(row)).rstrip() + " |"
                           for row in [header, ["---"] * len(header), *rows]), ""]


def _table_markdown(cfg: RunConfig, kappa: float, cells: list[Cell]) -> str:
    k = f"k = {_fmt(STIFFNESS_K)} eV/A^2"
    if cfg.command != "table2":
        out = [f"# {cfg.command}: V(x) = k x^2 + b x^4 at {k} "
               f"(kappa = {_fmt(kappa)} eV A^2)", ""]
        for level, columns in _blocks(cells):
            out += _md_table(
                f"## level n = {level} (energies in eV, stiffness row in eV/A^2)",
                ["method", *(f"b={_fmt(col['exact'].b)}" for col in columns)],
                [[m, *(_cell_txt(col[m]) for col in columns)]
                 for m in columns[0] if _row_label(cfg.command, m) is not None])
        return "\n".join(out)
    out = [f"# table2: order-by-order comparison at {k}", ""]
    for level, columns in _blocks(cells):
        for col in columns:
            txt = {m: _cell_txt(cell) for m, cell in col.items()}
            out += _md_table(
                f"## level n = {level}, b = {_fmt(col['exact'].b)} (energies in eV)",
                ["scheme", "first order", "second order"],
                [["conventional", txt["conventional_pt1"], txt["conventional_pt2"]],
                 ["present", txt["variational"], txt["present"]],
                 ["exact", txt["exact"], ""]])
    return "\n".join(out)


def _table_json(cfg: RunConfig, kappa: float, cells: list[Cell]) -> str:
    blocks = [{"level": level, "columns": [
        {"b": col["exact"].b,
         "cells": {m: {"value": c.value, "percent": c.percent, "note": c.note}
                   for m, c in col.items()}} for col in columns]}
        for level, columns in _blocks(cells)]
    return _as_json(cfg, {"command": cfg.command, "stiffness_k": STIFFNESS_K,
                          "kappa": kappa, "m_range": None, "blocks": blocks})


def run_helium(cfg: RunConfig) -> ReportDocument:
    """Build the helium ground and excited state report."""
    z = 2.0
    result = ground_state(z=z, n_max=cfg.n_max_helium, m_range=cfg.m_range)
    partials = [{"n_prime_max": np, "correction": running}
                for np, running in enumerate(
                    itertools.accumulate(result.e_second_by_n_prime), start=2)]
    zs_exc = optimal_zstar_excited(z)
    e_exc = excited_triplet_energy(zs_exc, z)
    doc = {
        "command": "helium",
        "z": z,
        "m_range": cfg.m_range,
        "n_max": cfg.n_max_helium,
        "z_star": result.z_star,
        "e_variational": result.e_variational,
        "e_second": result.e_second,
        "e_total": result.e_total,
        "partial_sums": partials,
        "percent_variational": 100.0 * result.e_variational / ref.EXPERIMENTAL_GROUND_RYD,
        "percent_total": 100.0 * result.e_total / ref.EXPERIMENTAL_GROUND_RYD,
        "experimental_ground": ref.EXPERIMENTAL_GROUND_RYD,
        "excited": {
            "z_star": zs_exc,
            "e_total": e_exc,
            "experimental": ref.EXPERIMENTAL_EXCITED_RYD,
        },
    }
    return ReportDocument(text=_render_helium(cfg, doc),
                          violations=_check_helium(doc) if cfg.check else [])


def _check_helium(doc: dict) -> list[str]:
    pairs = [
        ("z_star", doc["z_star"], ref.HELIUM["z_star"], 0.0),
        ("e_variational", doc["e_variational"], ref.HELIUM["e_variational"],
         ref.TOL_HELIUM_VARIATIONAL),
        ("e_second", doc["e_second"], ref.HELIUM["e_second"],
         ref.TOL_HELIUM_SECOND),
        ("e_total", doc["e_total"], ref.HELIUM["e_total"],
         ref.TOL_HELIUM_SECOND),
        ("z_star_excited", doc["excited"]["z_star"],
         ref.HELIUM["z_star_excited"], ref.TOL_HELIUM_ZSTAR),
        ("e_excited", doc["excited"]["e_total"], ref.HELIUM["e_excited"],
         ref.TOL_HELIUM_VARIATIONAL),
    ]
    return [f"helium {name}: {got!r} vs reference {expected!r} (tol {tol:g})"
            for name, got, expected, tol in pairs if abs(got - expected) > tol]


def _render_helium(cfg: RunConfig, doc: dict) -> str:
    if cfg.output_format == "json":
        return _as_json(cfg, doc)
    tag = " (investigative)" if doc["m_range"] == "full" else ""
    if cfg.output_format == "csv":
        note = f"m_range={doc['m_range']}{tag}"
        rows = [("ground", "z_star", doc["z_star"], ""),
                ("ground", "e_variational_ryd", doc["e_variational"], "")]
        rows += [("ground", f"e_second_nprime_le_{p['n_prime_max']}",
                  p["correction"], note) for p in doc["partial_sums"]]
        rows += [("ground", "e_second_ryd", doc["e_second"], note),
                 ("ground", "e_total_ryd", doc["e_total"], ""),
                 ("ground", "percent_of_experimental", doc["percent_total"], ""),
                 ("excited", "z_star", doc["excited"]["z_star"], ""),
                 ("excited", "e_total_ryd", doc["excited"]["e_total"], ""),
                 ("excited", "experimental_ryd", doc["excited"]["experimental"], "")]
        lines = ["command,section,key,value,note"] + [
            f"helium,{section},{key},{_fmt(value)},{n}"
            for section, key, value, n in rows]
        return "\n".join(lines) + "\n"
    out = [f"# helium: screened variational basis plus second order (Z = "
           f"{_fmt(doc['z'])})", ""]
    out.append(f"- effective charge Z* = {_fmt(doc['z_star'])}")
    out.append(f"- variational energy = {_fmt(doc['e_variational'])} ryd "
               f"({doc['percent_variational']:.3f}% of experimental "
               f"{_fmt(doc['experimental_ground'])} ryd)")
    out += _md_table(f"- second-order sum over discrete states, m_range = "
                     f"{doc['m_range']}{tag}:", ["n' up to", "correction (ryd)"],
                     [[str(p["n_prime_max"]), _fmt(p["correction"])]
                      for p in doc["partial_sums"]])
    out.append(f"- second-order correction = {_fmt(doc['e_second'])} ryd")
    out.append(f"- total = {_fmt(doc['e_total'])} ryd "
               f"({doc['percent_total']:.3f}% of experimental)")
    out.append("")
    out.append("## first excited state (spin symmetric 1s2s)")
    out.append("")
    out.append(f"- effective charge Z* = {_fmt(doc['excited']['z_star'])}")
    out.append(f"- variational energy = {_fmt(doc['excited']['e_total'])} ryd "
               f"(experimental {_fmt(doc['excited']['experimental'])} ryd)")
    return "\n".join(out) + "\n"


def _as_json(cfg: RunConfig, doc: dict) -> str:
    config = {k: v for k, v in asdict(cfg).items()
              if k not in ("output_format", "constants_path", "check")}
    return json.dumps({"config": config, "report": doc},
                      sort_keys=True, indent=2) + "\n"
