"""Report assembly for the command-line front end.

Builds structured documents for the oscillator tables and the helium
summary, renders them as markdown, CSV, or JSON, and optionally checks
every cell against the embedded reference constants. All rendering is
order-fixed and timestamp-free so identical configurations produce byte
identical output.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace

from . import reference as ref
from .anharmonic import (energy_conventional_pt, energy_present,
                         energy_variational, pt_divergent, solve_omega)
from .exact import ConvergenceError, ShootingConfig, diag_eigenvalues, shoot_eigenvalue
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


@dataclass
class ReportDocument:
    """Rendered report plus check/convergence outcomes."""

    text: str
    violations: list[str] = field(default_factory=list)
    convergence_failed: bool = False


def _fmt(v: float) -> str:
    return f"{v:.7g}"


def _percent(v: float, exact: float) -> str:
    return f"{100.0 * v / exact:.3f}"


def _cell_txt(cell: dict[str, object]) -> str:
    """Markdown table cell: value, then (percent of exact) and [note] if set."""
    txt = _fmt(float(cell["value"]))
    if cell["percent"]:
        txt += f" ({cell['percent']}%)"
    if cell["note"]:
        txt += f" [{cell['note']}]"
    return txt


def _constants(cfg: RunConfig) -> Constants:
    if cfg.constants_path is None:
        return Constants()
    return Constants.from_file(cfg.constants_path)


def _levels(cfg: RunConfig) -> list[int]:
    first = 1 if cfg.command == "table3" else 0
    return list(range(first, first + cfg.n_levels))


def _oscillator_cells(cfg: RunConfig, constants: Constants, n: int,
                      b: float) -> dict[str, dict[str, object]]:
    """All method values for one (level, b) point.

    Returns method -> {value, note}; a shooting convergence failure turns
    the exact cell into an annotation instead of aborting the table.
    """
    spec = make_anharmonic_spec(STIFFNESS_K, b, constants)
    hw = hbar_omega(spec)
    sol = solve_omega(spec, n)
    cells: dict[str, dict[str, object]] = {}
    pt1 = energy_conventional_pt(spec, n, 1)
    pt2 = energy_conventional_pt(spec, n, 2)
    divergent = pt_divergent(spec, n)
    cells["conventional_pt1"] = {"value": pt1.e_total, "note": ""}
    cells["conventional_pt2"] = {"value": pt2.e_total,
                                 "note": "divergent" if divergent else ""}
    cells["variational"] = {"value": energy_variational(spec, n).e_total,
                            "note": ""}
    cells["present"] = {"value": energy_present(spec, n).e_total, "note": ""}
    try:
        exact = shoot_eigenvalue(spec, n,
                                 ShootingConfig(energy_tol=cfg.exact_tol))
        cells["exact"] = {"value": exact, "note": ""}
    except ConvergenceError as exc:
        cells["exact"] = {"value": math.nan, "note": f"unconverged: {exc}"}
    # stiffness of the optimized parent oscillator, k (Omega_n/omega)^2
    cells["half_m_omega2"] = {
        "value": STIFFNESS_K * (sol.hbar_Omega_n / hw) ** 2, "note": ""}
    return cells


def _attach_percents(cells: dict[str, dict[str, object]]) -> None:
    exact = cells["exact"]["value"]
    for method in ("conventional_pt1", "conventional_pt2", "variational",
                   "present"):
        cell = cells[method]
        if isinstance(exact, float) and math.isfinite(exact):
            cell["percent"] = _percent(float(cell["value"]), exact)
        else:
            cell["percent"] = ""
    cells["exact"]["percent"] = ""
    cells["half_m_omega2"]["percent"] = ""


def _check_oscillator(cfg: RunConfig, constants: Constants, n: int, b: float,
                      cells: dict[str, dict[str, object]],
                      violations: list[str]) -> None:
    """Compare one column against the embedded reference constants."""
    refs: dict[str, float] = {}
    if n == 0 and b in ref.TABLE1:
        refs = dict(ref.TABLE1[b])
        if b == 0.05:
            refs["conventional_pt1"] = ref.TABLE2["conventional_pt1"]
    elif n == 1 and b in (0.05,):
        refs = dict(ref.TABLE3)
    for method, expected in refs.items():
        got = float(cells[method]["value"])
        if not math.isfinite(got) or abs(got - expected) > ref.TOL_TABLE_EV:
            violations.append(
                f"n={n} b={b} {method}: {_fmt(got)} vs reference "
                f"{_fmt(expected)} (tol {ref.TOL_TABLE_EV:g})")
    if n == 0 and b in ref.PT_DIVERGENT_B and cells["conventional_pt2"]["note"] != "divergent":
        violations.append(
            f"n={n} b={b}: order-2 perturbation theory should be flagged divergent")
    if n == 0 and b in ref.TABLE1 and "conventional_pt2" in refs \
            and cells["conventional_pt2"]["note"] == "divergent":
        violations.append(
            f"n={n} b={b}: order-2 perturbation theory unexpectedly flagged divergent")
    # cross-validate the two exact oracles in every column, referenced or not
    spec = make_anharmonic_spec(STIFFNESS_K, b, constants)
    try:
        shoot = float(cells["exact"]["value"])
        diag = diag_eigenvalues(spec, dim=cfg.exact_dim, n_levels=n + 1)[n]
        if abs(shoot - diag) > ref.TOL_CROSS_ORACLE_EV:
            violations.append(
                f"n={n} b={b}: shooting {_fmt(shoot)} vs diagonalization "
                f"{_fmt(diag)} beyond {ref.TOL_CROSS_ORACLE_EV:g} eV")
    except ConvergenceError as exc:
        violations.append(f"n={n} b={b}: diagonalization oracle failed: {exc}")


TABLE_ROWS = ("conventional_pt2", "variational", "present", "exact",
              "half_m_omega2")
SWEEP_ROWS = ("conventional_pt1",) + TABLE_ROWS


def run_table(cfg: RunConfig) -> ReportDocument:
    """Build the report for table1, table2, table3, or sweep."""
    cfg = cfg.with_default_b()
    constants = _constants(cfg)
    violations: list[str] = []
    blocks = []
    convergence_failed = False
    for n in _levels(cfg):
        columns = []
        for b in cfg.b_values:
            cells = _oscillator_cells(cfg, constants, n, b)
            _attach_percents(cells)
            if "unconverged" in str(cells["exact"]["note"]):
                convergence_failed = True
            if cfg.check:
                _check_oscillator(cfg, constants, n, b, cells, violations)
            columns.append({"b": b, "cells": cells})
        blocks.append({"level": n, "columns": columns})
    doc = {
        "command": cfg.command,
        "stiffness_k": STIFFNESS_K,
        "kappa": constants.kappa,
        "m_range": None,
        "blocks": blocks,
    }
    if cfg.command == "table2":
        text = _render_table2(cfg, doc)
    else:
        text = _render_table(cfg, doc)
    return ReportDocument(text=text, violations=violations,
                          convergence_failed=convergence_failed)


def _render_table(cfg: RunConfig, doc: dict) -> str:
    rows = SWEEP_ROWS if cfg.command == "sweep" else TABLE_ROWS
    if cfg.output_format == "json":
        return _as_json(cfg, doc)
    if cfg.output_format == "csv":
        lines = ["command,level,b,method,value,percent_of_exact,note"]
        for block in doc["blocks"]:
            for col in block["columns"]:
                for method in rows:
                    cell = col["cells"][method]
                    lines.append(
                        f"{cfg.command},{block['level']},{_fmt(col['b'])},"
                        f"{method},{_fmt(float(cell['value']))},"
                        f"{cell['percent']},{cell['note']}")
        return "\n".join(lines) + "\n"
    # markdown
    out = [f"# {cfg.command}: V(x) = k x^2 + b x^4 at k = "
           f"{_fmt(doc['stiffness_k'])} eV/A^2 "
           f"(kappa = {_fmt(doc['kappa'])} eV A^2)", ""]
    for block in doc["blocks"]:
        out.append(f"## level n = {block['level']} (energies in eV, "
                   "stiffness row in eV/A^2)")
        out.append("")
        header = "| method | " + " | ".join(
            f"b={_fmt(col['b'])}" for col in block["columns"]) + " |"
        out.append(header)
        out.append("|" + " --- |" * (len(block["columns"]) + 1))
        for method in rows:
            cells = [_cell_txt(col["cells"][method]) for col in block["columns"]]
            out.append(f"| {method} | " + " | ".join(cells) + " |")
        out.append("")
    return "\n".join(out)


def _render_table2(cfg: RunConfig, doc: dict) -> str:
    """First-order/second-order grid for the conventional and present schemes."""
    if cfg.output_format == "json":
        return _as_json(cfg, doc)
    if cfg.output_format == "csv":
        lines = ["command,level,b,scheme,order,value,percent_of_exact,note"]
        for block in doc["blocks"]:
            for col in block["columns"]:
                c = col["cells"]
                grid = [("conventional", 1, c["conventional_pt1"]),
                        ("conventional", 2, c["conventional_pt2"]),
                        ("present", 1, c["variational"]),
                        ("present", 2, c["present"])]
                for scheme, order, cell in grid:
                    lines.append(
                        f"{cfg.command},{block['level']},{_fmt(col['b'])},"
                        f"{scheme},{order},{_fmt(float(cell['value']))},"
                        f"{cell['percent']},{cell['note']}")
        return "\n".join(lines) + "\n"
    out = [f"# {cfg.command}: order-by-order comparison at k = "
           f"{_fmt(doc['stiffness_k'])} eV/A^2", ""]
    for block in doc["blocks"]:
        for col in block["columns"]:
            c = col["cells"]
            out.append(f"## level n = {block['level']}, b = {_fmt(col['b'])} "
                       "(energies in eV)")
            out.append("")
            out.append("| scheme | first order | second order |")
            out.append("| --- | --- | --- |")
            out.append("| conventional | " + _cell_txt(c["conventional_pt1"])
                       + " | " + _cell_txt(c["conventional_pt2"]) + " |")
            out.append("| present | " + _cell_txt(c["variational"])
                       + " | " + _cell_txt(c["present"]) + " |")
            out.append(f"| exact | {_fmt(float(c['exact']['value']))} | |")
            out.append("")
    return "\n".join(out)


def run_helium(cfg: RunConfig) -> ReportDocument:
    """Build the helium ground and excited state report."""
    violations: list[str] = []
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
    if cfg.check:
        _check_helium(cfg, doc, violations)
    return ReportDocument(text=_render_helium(cfg, doc), violations=violations)


def _check_helium(cfg: RunConfig, doc: dict, violations: list[str]) -> None:
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
    for name, got, expected, tol in pairs:
        if abs(got - expected) > tol:
            violations.append(
                f"helium {name}: {got!r} vs reference {expected!r} (tol {tol:g})")


def _render_helium(cfg: RunConfig, doc: dict) -> str:
    if cfg.output_format == "json":
        return _as_json(cfg, doc)
    tag = " (investigative)" if doc["m_range"] == "full" else ""
    if cfg.output_format == "csv":
        lines = ["command,section,key,value,note"]

        def row(section: str, key: str, value: float, note: str = "") -> None:
            lines.append(f"helium,{section},{key},{_fmt(value)},{note}")

        row("ground", "z_star", doc["z_star"])
        row("ground", "e_variational_ryd", doc["e_variational"])
        for p in doc["partial_sums"]:
            row("ground", f"e_second_nprime_le_{p['n_prime_max']}",
                p["correction"], f"m_range={doc['m_range']}{tag}")
        row("ground", "e_second_ryd", doc["e_second"],
            f"m_range={doc['m_range']}{tag}")
        row("ground", "e_total_ryd", doc["e_total"])
        row("ground", "percent_of_experimental", doc["percent_total"])
        row("excited", "z_star", doc["excited"]["z_star"])
        row("excited", "e_total_ryd", doc["excited"]["e_total"])
        row("excited", "experimental_ryd", doc["excited"]["experimental"])
        return "\n".join(lines) + "\n"
    out = [f"# helium: screened variational basis plus second order (Z = "
           f"{_fmt(doc['z'])})", ""]
    out.append(f"- effective charge Z* = {_fmt(doc['z_star'])}")
    out.append(f"- variational energy = {_fmt(doc['e_variational'])} ryd "
               f"({doc['percent_variational']:.3f}% of experimental "
               f"{_fmt(doc['experimental_ground'])} ryd)")
    out.append(f"- second-order sum over discrete states, m_range = "
               f"{doc['m_range']}{tag}:")
    out.append("")
    out.append("| n' up to | correction (ryd) |")
    out.append("| --- | --- |")
    for p in doc["partial_sums"]:
        out.append(f"| {p['n_prime_max']} | {_fmt(p['correction'])} |")
    out.append("")
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
    payload = {"config": {
        "command": cfg.command,
        "b_values": list(cfg.b_values),
        "n_levels": cfg.n_levels,
        "n_max_helium": cfg.n_max_helium,
        "m_range": cfg.m_range,
        "exact_dim": cfg.exact_dim,
        "exact_tol": cfg.exact_tol,
    }, "report": doc}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
