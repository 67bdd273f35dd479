"""Report assembly for the command-line front end.

Builds each report once as the document its JSON output prints: for the
oscillator tables, levels of (level, b) columns whose cells map each
method to its value, percent of exact and note; for helium, a summary
dict. Markdown and CSV are read off that document, and --check compares
it with the embedded reference constants. All rendering is order-fixed
and timestamp-free so identical configurations produce byte identical
output.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field

from . import reference as ref
from .anharmonic import energy_conventional_pt, energy_present, pt_divergent
from .exact import ConvergenceError, diag_eigenvalues, shoot_eigenvalue
from .helium import excited_triplet_energy, ground_state, optimal_zstar_excited
from .model import (KAPPA_EV_A2, AnharmonicSpec, _require_positive,
                    hbar_omega, make_anharmonic_spec)

COMMANDS = ("table1", "table2", "table3", "helium", "sweep")
FORMATS = ("markdown", "csv", "json")
DEFAULT_B = {"table1": (0.01, 0.05, 0.25), "sweep": (0.01, 0.05, 0.25),
             "table2": (0.05,), "table3": (0.05,)}
STIFFNESS_K = 0.5  # eV/A^2, the benchmark oscillator family


@dataclass(frozen=True)
class RunConfig:
    """Validated CLI run description; defaults regenerate the reference tables."""

    command: str
    b_values: tuple[float, ...] = ()  # a table command's () is DEFAULT_B[command]
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
        object.__setattr__(self, "b_values", tuple(self.b_values)
                           or DEFAULT_B.get(self.command, ()))
        if self.output_format not in FORMATS:
            raise ValueError(f"unknown format {self.output_format!r}")
        if self.m_range not in ("paper", "full"):
            raise ValueError(f"unknown m_range {self.m_range!r}")
        if self.n_levels < 1:
            raise ValueError("n_levels must be >= 1")
        if self.n_max_helium < 2:
            raise ValueError("n_max_helium must be >= 2")
        # the diagonalization oracle needs 20 states above the deepest level
        need = max(24, self.n_levels + (21 if self.command == "table3" else 20))
        if self.exact_dim < need:
            raise ValueError(f"exact_dim must be >= {need} for "
                             f"{self.n_levels} levels, got {self.exact_dim}")
        _require_positive("exact_tol", self.exact_tol)
        bad = [b for b in self.b_values if not (b >= 0.0 and math.isfinite(b))]
        if bad:
            raise ValueError(f"b values must be finite and >= 0, got {bad[0]}")


@dataclass
class ReportDocument:
    """Rendered report plus check/convergence outcomes."""

    text: str
    violations: list[str] = field(default_factory=list)
    convergence_failed: bool = False


def _fmt(v: float) -> str:
    return f"{v:.7g}"


def _percent(p: float) -> str:
    """A percent to three decimals below 1e12; from there up those would
    run past float precision into noise digits, so %.7g as for values."""
    return f"{p:.3f}" if abs(p) < 1e12 else _fmt(p)


def _cell_txt(cell: dict) -> str:
    """Markdown table cell: value, then (percent of exact) and [note] if set."""
    txt = _fmt(cell["value"])
    if cell["percent"]:
        txt += f" ({cell['percent']}%)"
    if cell["note"]:
        txt += f" [{cell['note']}]"
    return txt


def _oscillator_cells(cfg: RunConfig, spec: AnharmonicSpec,
                      n: int) -> dict[str, dict]:
    """One (level, b) column: each method's value, percent of exact (see
    ``_percent``, or "") and note ("divergent", "unconverged: ..." or "").

    The two closed-form calls run before shooting, so that a point they
    reject fails fast, and the present energy places shooting's first
    bracket. A shooting convergence failure turns the exact cell
    into an annotation instead of aborting the table; the other cells then
    carry no percent.
    """
    present = energy_present(spec, n)
    conventional = energy_conventional_pt(spec, n, 2)
    estimates = {
        "conventional_pt1": (conventional.e_first, ""),
        "conventional_pt2": (conventional.e_total,
                             "divergent" if pt_divergent(spec, n) else ""),
        "variational": (present.e_first, ""),
        "present": (present.e_total, ""),
    }
    try:
        exact = shoot_eigenvalue(spec, n, energy_tol=cfg.exact_tol,
                                 guess=present.e_total)
        exact_note = ""
    except ConvergenceError as exc:
        exact, exact_note = math.nan, f"unconverged: {exc}"
    cells = {method: {"value": value, "note": note,
                      "percent": _percent(100.0 * value / exact)
                      if math.isfinite(exact) else ""}
             for method, (value, note) in estimates.items()}
    # stiffness of the optimized parent oscillator, k (Omega_n/omega)^2
    stiffness = STIFFNESS_K * (present.hbar_omega_n / hbar_omega(spec)) ** 2
    cells["exact"] = {"value": exact, "percent": "", "note": exact_note}
    cells["half_m_omega2"] = {"value": stiffness, "percent": "", "note": ""}
    return cells


def _check_oscillator(cfg: RunConfig, spec: AnharmonicSpec, n: int,
                      cells: dict[str, dict], violations: list[str]) -> None:
    """Compare one column against the embedded reference constants."""
    b = spec.quartic_b
    refs: dict[str, float] = {}
    if n == 0 and b in ref.TABLE1:
        refs = dict(ref.TABLE1[b])
        if b == 0.05:
            refs["conventional_pt1"] = ref.TABLE2["conventional_pt1"]
    elif n == 1 and b in (0.05,):
        refs = dict(ref.TABLE3)
    for method, expected in refs.items():
        got = cells[method]["value"]
        if not math.isfinite(got) or abs(got - expected) > ref.TOL_TABLE_EV:
            violations.append(
                f"n={n} b={b} {method}: {_fmt(got)} vs reference "
                f"{_fmt(expected)} (tol {ref.TOL_TABLE_EV:g})")
    divergent = cells["conventional_pt2"]["note"] == "divergent"
    if n == 0 and b in ref.PT_DIVERGENT_B and not divergent:
        violations.append(
            f"n={n} b={b}: order-2 perturbation theory should be flagged divergent")
    if n == 0 and b in ref.TABLE1 and "conventional_pt2" in refs and divergent:
        violations.append(
            f"n={n} b={b}: order-2 perturbation theory unexpectedly flagged divergent")
    # cross-validate the two exact oracles in every column, referenced or not
    try:
        shoot = cells["exact"]["value"]
        diag = diag_eigenvalues(spec, dim=cfg.exact_dim, n_levels=n + 1)[n]
        tol = max(ref.TOL_CROSS_ORACLE_EV,
                  ref.TOL_CROSS_ORACLE_REL * abs(shoot))
        if abs(shoot - diag) > tol:
            violations.append(
                f"n={n} b={b}: shooting {_fmt(shoot)} vs diagonalization "
                f"{_fmt(diag)} beyond {tol:g} eV")
    except ConvergenceError as exc:
        violations.append(f"n={n} b={b}: diagonalization oracle failed: {exc}")


def _load_kappa(path: str) -> float:
    """kappa in eV A^2 from a flat JSON constants file.

    The file holds one JSON object whose one recognized key is
    ``kappa_eV_A2``, a number; when it is missing the default holds, and
    any other key is rejected.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: constants must be a JSON object")
    unknown = set(raw) - {"kappa_eV_A2"}
    if unknown:
        raise ValueError(f"unknown constants keys: {sorted(unknown)}")
    kappa = raw.get("kappa_eV_A2", KAPPA_EV_A2)
    if type(kappa) not in (int, float):  # neither bool nor string
        raise ValueError(f"kappa_eV_A2 must be a number, got {kappa!r}")
    return float(kappa)


def run_table(cfg: RunConfig) -> ReportDocument:
    """Build the report for table1, table2, table3, or sweep."""
    kappa = (KAPPA_EV_A2 if cfg.constants_path is None
             else _load_kappa(cfg.constants_path))
    first = 1 if cfg.command == "table3" else 0
    blocks = []
    violations: list[str] = []
    for n in range(first, first + cfg.n_levels):
        columns = []
        for b in cfg.b_values:
            spec = make_anharmonic_spec(STIFFNESS_K, b, kappa)
            cells = _oscillator_cells(cfg, spec, n)
            if cfg.check:
                _check_oscillator(cfg, spec, n, cells, violations)
            columns.append({"b": b, "cells": cells})
        blocks.append({"level": n, "columns": columns})
    doc = {"command": cfg.command, "stiffness_k": STIFFNESS_K,
           "kappa": kappa, "m_range": None, "blocks": blocks}
    render = {"markdown": _table_markdown, "csv": _table_csv,
              "json": _as_json}[cfg.output_format]
    return ReportDocument(
        text=render(cfg, doc), violations=violations,
        convergence_failed=any(col["cells"]["exact"]["note"]
                               for block in blocks for col in block["columns"]))


# table2's first/second-order grid; its CSV labels each row "scheme,order"
TABLE2_GRID = {"conventional_pt1": "conventional,1",
               "conventional_pt2": "conventional,2",
               "variational": "present,1", "present": "present,2"}


def _row_label(command: str, method: str, note: str = "") -> str | None:
    """CSV row label of a method, or None where the markdown and CSV
    reports leave it out (JSON carries every cell). table2's CSV keeps the
    exact cell only when its note says why the percents are empty."""
    if command == "table2":
        return "exact," if method == "exact" and note else TABLE2_GRID.get(method)
    if method == "conventional_pt1" and command != "sweep":
        return None
    return method


def _table_csv(cfg: RunConfig, doc: dict) -> str:
    head = "scheme,order" if cfg.command == "table2" else "method"
    lines = [f"command,level,b,{head},value,percent_of_exact,note"]
    for block in doc["blocks"]:
        for col in block["columns"]:
            for method, c in col["cells"].items():
                label = _row_label(cfg.command, method, c["note"])
                if label is not None:
                    lines.append(
                        f"{cfg.command},{block['level']},{_fmt(col['b'])},"
                        f"{label},{_fmt(c['value'])},{c['percent']},{c['note']}")
    return "\n".join(lines) + "\n"


def _md_table(heading: str, header: list[str],
              rows: list[list[str]]) -> list[str]:
    """Markdown lines: heading, blank, a table whose trailing empty cells
    print as bare bars, blank."""
    return [heading, "", *(("| " + " | ".join(row)).rstrip() + " |"
                           for row in [header, ["---"] * len(header), *rows]), ""]


def _table_markdown(cfg: RunConfig, doc: dict) -> str:
    k = f"k = {_fmt(STIFFNESS_K)} eV/A^2"
    if cfg.command != "table2":
        out = [f"# {cfg.command}: V(x) = k x^2 + b x^4 at {k} "
               f"(kappa = {_fmt(doc['kappa'])} eV A^2)", ""]
        for block in doc["blocks"]:
            columns = block["columns"]
            out += _md_table(
                f"## level n = {block['level']} (energies in eV, stiffness "
                "row in eV/A^2)",
                ["method", *(f"b={_fmt(col['b'])}" for col in columns)],
                [[m, *(_cell_txt(col["cells"][m]) for col in columns)]
                 for m in columns[0]["cells"] if _row_label(cfg.command, m)])
        return "\n".join(out)
    out = [f"# table2: order-by-order comparison at {k}", ""]
    for block in doc["blocks"]:
        for col in block["columns"]:
            txt = {m: _cell_txt(cell) for m, cell in col["cells"].items()}
            out += _md_table(
                f"## level n = {block['level']}, b = {_fmt(col['b'])} (energies in eV)",
                ["scheme", "first order", "second order"],
                [["conventional", txt["conventional_pt1"], txt["conventional_pt2"]],
                 ["present", txt["variational"], txt["present"]],
                 ["exact", txt["exact"], ""]])
    return "\n".join(out)


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
