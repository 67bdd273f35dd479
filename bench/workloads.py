"""The three benchmark workloads: inputs, one timed operation, and checks.

Each workload builds a fixed list of operations from its seed. ``run``
performs one operation through varpert's public entry points and returns
its output; ``check`` compares the outputs of one round against
``oracle`` and the methods' own properties, outside every timed region.
It returns the indices of operations hit by the known default-basis
fault of ``diag_eigenvalues`` and a list of any other disagreement.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re

import oracle

FORMATS = ("markdown", "csv", "json")
# Shooting bisects to 1e-9 eV; the reference solver is good to ~1e-12.
TOL_SHOOT = 1e-9
# Cells printed with %.7g carry at most 5e-7 relative rounding.
TOL_PRINTED = 1e-6
TOL_CLOSED_FORM = 1e-9


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    from varpert import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------- oscillator

STIFFNESS_K = 0.5  # the CLI's oscillator family
TABLE_COMMANDS = ("table1", "table2", "table3", "sweep")
# the published columns: Table 1's divergent b = 0.25, Tables 2 and 3 at
# b = 0.05, and the smallest anharmonicity 0.01 for the sweep
PAPER_B_BY_COMMAND = (0.25, 0.05, 0.05, 0.01)
OSC_LEVELS = 2
TABLE_ROWS = ("conventional_pt2", "variational", "present", "exact",
              "half_m_omega2")
TABLE2_GRID = {("conventional", "1"): "conventional_pt1",
               ("conventional", "2"): "conventional_pt2",
               ("present", "1"): "variational",
               ("present", "2"): "present"}
_CELL = re.compile(r"^(\S+)(?: \((-?[\d.]+)%\))?(?: \[(.*)\])?$")


def _parse_cell(txt: str) -> tuple[float, str, str]:
    m = _CELL.match(txt.strip())
    if m is None:
        raise ValueError(f"unparsable cell {txt!r}")
    return float(m.group(1)), m.group(2) or "", m.group(3) or ""


def parse_table(command: str, fmt: str, text: str) -> dict:
    """{(level, method): (value, percent, note)} for a one-b table report."""
    cells = {}
    if fmt == "json":
        for block in json.loads(text)["report"]["blocks"]:
            (column,) = block["columns"]
            for method, c in column["cells"].items():
                cells[block["level"], method] = (c["value"], c["percent"],
                                                 c["note"])
        return cells
    if fmt == "csv":
        header, *rows = text.splitlines()
        width = header.count(",") + 1
        for row in rows:
            f = row.split(",", width - 1)
            if command == "table2":
                method = TABLE2_GRID[f[3], f[4]]
                cells[int(f[1]), method] = (float(f[5]), f[6], f[7])
            else:
                cells[int(f[1]), f[3]] = (float(f[4]), f[5], f[6])
        return cells
    level = None
    for line in text.splitlines():
        if line.startswith("## level n = "):
            level = int(re.match(r"## level n = (\d+)", line).group(1))
        elif line.startswith("| ") and not line.startswith(
                ("| method", "| scheme", "| ---")):
            f = [x.strip() for x in line.strip("|").split("|")]
            if command != "table2":
                cells[level, f[0]] = _parse_cell(f[1])
            elif f[0] == "exact":
                cells[level, "exact"] = _parse_cell(f[1])
            else:
                for order, txt in (("1", f[1]), ("2", f[2])):
                    cells[level, TABLE2_GRID[f[0], order]] = _parse_cell(txt)
    return cells


def _expected_methods(command: str, fmt: str) -> set[str]:
    if command == "table2":
        methods = set(TABLE2_GRID.values())
        if fmt == "markdown":
            return methods | {"exact"}
        return methods if fmt == "csv" else methods | {"exact", "half_m_omega2"}
    if command == "sweep" or fmt == "json":
        return set(TABLE_ROWS) | {"conventional_pt1"}
    return set(TABLE_ROWS)


class OscillatorTable:
    """In-process ``varpert.cli.main`` calls: table1-3 and sweep, one b each.

    Each command runs once at one of the paper's b values and once at a
    seeded b, with two levels. The seeded b values are log-uniform within
    the four equal quarters of [1e-3, 1e4] (shooting costs about twice as
    much at 1e4 as at 1), one quarter per command in seeded order, so the
    cost of a round hardly depends on the seed. The calls cycle through
    the three output formats and none uses --check.
    """

    name = "oscillator-table"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        quarters = list(range(4))
        rng.shuffle(quarters)
        self.ops = []
        for command, q, b in zip(TABLE_COMMANDS, quarters, PAPER_B_BY_COMMAND):
            seeded = 10.0 ** (-3.0 + 1.75 * (q + rng.random()))
            for b_value in (b, seeded):
                fmt = FORMATS[len(self.ops) % len(FORMATS)]
                self.ops.append((command, b_value, fmt))
        self.warmup = self.ops[0]

    def run(self, op):
        command, b, fmt = op
        return _run_cli([command, "--b", repr(b), "--levels", str(OSC_LEVELS),
                         "--format", fmt])

    def check(self, outputs: list) -> tuple[set[int], list[str]]:
        problems: list[str] = []
        refs = {}
        for (command, b, fmt), out in zip(self.ops, outputs):
            if out is None:
                continue
            code, text = out
            where = f"{command} b={b!r} {fmt}"
            if code != 0:
                problems.append(f"{where}: exit status {code}")
                continue
            if b not in refs:
                refs[b] = (oracle.exact_levels(STIFFNESS_K, b, OSC_LEVELS + 1),
                           oracle.perturbative_levels(STIFFNESS_K, b,
                                                      OSC_LEVELS + 1))
            exact, pert = refs[b]
            problems += [f"{where}: {p}" for p in
                         self._check_report(command, fmt, b, text, exact, pert)]
        return set(), problems

    @staticmethod
    def _check_report(command, fmt, b, text, exact, pert) -> list[str]:
        problems = []
        cells = parse_table(command, fmt, text)
        first = 1 if command == "table3" else 0
        levels = list(range(first, first + OSC_LEVELS))
        want = {(n, m) for n in levels for m in _expected_methods(command, fmt)}
        if set(cells) != want:
            return [f"cells {sorted(set(cells) ^ want)} missing or extra"]
        full = fmt == "json"
        for (n, method), (value, percent, note) in sorted(cells.items()):
            if method == "exact":
                ref, tol = exact[n], TOL_SHOOT if full else TOL_PRINTED
            else:
                ref = pert[method][n]
                tol = TOL_CLOSED_FORM if full else TOL_PRINTED
            if not _close(value, ref, tol):
                problems.append(f"n={n} {method} = {value!r}, reference {ref!r}")
            want_note = ("divergent" if method == "conventional_pt2"
                         and pert["divergent"][n] else "")
            if note != want_note:
                problems.append(f"n={n} {method} note {note!r}, "
                                f"expected {want_note!r}")
            if method in ("conventional_pt1", "conventional_pt2",
                          "variational", "present"):
                # printed to 3 decimals, from a shooting value good to 1e-9
                want_pct = 100.0 * ref / exact[n]
                if not percent or abs(float(percent) - want_pct) > \
                        5.1e-4 + 1e-8 * abs(want_pct):
                    problems.append(f"n={n} {method} percent {percent!r}, "
                                    f"expected {want_pct:.4f}")
        if (levels[0], "exact") not in cells:
            return problems
        got = [cells[n, "exact"][0] for n in levels]
        if any(lo >= hi for lo, hi in zip(got, got[1:])):
            problems.append(f"exact levels do not ascend: {got}")
        slack = 1.0 - (0.0 if full else TOL_PRINTED)
        for n in (0, 1):
            if (n, "variational") in cells and (n, "exact") in cells and \
                    cells[n, "variational"][0] < slack * cells[n, "exact"][0]:
                problems.append(f"n={n} variational below exact")
        lam = oracle.coupling(STIFFNESS_K, b)
        for n in (0, 1):
            if lam >= 100.0 and (n, "exact") in cells:
                gap = cells[n, "exact"][0] / oracle.quartic_limit(b, n) - 1.0
                if abs(gap) > lam ** (-2.0 / 3.0):
                    problems.append(f"n={n} exact misses the quartic limit "
                                    f"by {gap:.2e} at coupling {lam:.3g}")
        return problems


# -------------------------------------------------------------------- helium

HELIUM_N_MAX = range(2, 9)
M_RANGES = ("paper", "full")
# (n, n', l) spot checks of the Slater integrals against sympy
Y_SPOT = ((1, 2, 0), (2, 3, 1), (3, 3, 2))


def parse_helium(fmt: str, text: str) -> dict:
    """Ground/excited figures and partial sums from one helium report."""
    if fmt == "json":
        r = json.loads(text)["report"]
        return {"z_star": r["z_star"], "e_var": r["e_variational"],
                "e_second": r["e_second"], "e_total": r["e_total"],
                "partials": {p["n_prime_max"]: p["correction"]
                             for p in r["partial_sums"]},
                "zs_exc": r["excited"]["z_star"],
                "e_exc": r["excited"]["e_total"]}
    out = {"partials": {}}
    if fmt == "csv":
        for row in text.splitlines()[1:]:
            _, section, key, value, _ = row.split(",", 4)
            m = re.fullmatch(r"e_second_nprime_le_(\d+)", key)
            if m:
                out["partials"][int(m.group(1))] = float(value)
            else:
                name = {("ground", "z_star"): "z_star",
                        ("ground", "e_variational_ryd"): "e_var",
                        ("ground", "e_second_ryd"): "e_second",
                        ("ground", "e_total_ryd"): "e_total",
                        ("excited", "z_star"): "zs_exc",
                        ("excited", "e_total_ryd"): "e_exc"}.get((section, key))
                if name:
                    out[name] = float(value)
        return out
    num = r"(-?[\d.]+(?:e[-+]?\d+)?)"
    charges = re.findall(rf"- effective charge Z\* = {num}", text)
    energies = re.findall(rf"- variational energy = {num} ryd", text)
    out["z_star"], out["zs_exc"] = map(float, charges)
    out["e_var"], out["e_exc"] = map(float, energies)
    out["e_second"] = float(re.search(
        rf"- second-order correction = {num} ryd", text).group(1))
    out["e_total"] = float(re.search(rf"- total = {num} ryd", text).group(1))
    for np_, value in re.findall(rf"^\| (\d+) \| {num} \|$", text, re.M):
        out["partials"][int(np_)] = float(value)
    return out


class HeliumSeries:
    """In-process ``varpert helium`` runs for n_max = 2..8 under both m ranges.

    The seed fixes the order of the runs; the calls cycle through the
    three output formats. No run uses --check (it exits 2 by design on
    the published misprint) or --cache.
    """

    name = "helium-series"

    def __init__(self, seed: int) -> None:
        pairs = [(n, m) for n in HELIUM_N_MAX for m in M_RANGES]
        random.Random(seed).shuffle(pairs)
        self.ops = [(n, m, FORMATS[i % len(FORMATS)])
                    for i, (n, m) in enumerate(pairs)]
        self.warmup = (2, "paper", "markdown")

    def run(self, op):
        n_max, m_range, fmt = op
        return _run_cli(["helium", "--n-max", str(n_max), "--m-range", m_range,
                         "--format", fmt])

    def check(self, outputs: list) -> tuple[set[int], list[str]]:
        problems: list[str] = []
        e_var = float(oracle.helium_variational())
        zs_exc, e_exc = map(float, oracle.helium_excited())
        seconds: dict[tuple[int, str], tuple[float, float]] = {}
        partials: dict[tuple[str, int], list[tuple[float, float]]] = {}
        for (n_max, m_range, fmt), out in zip(self.ops, outputs):
            if out is None:
                continue
            code, text = out
            where = f"helium n_max={n_max} {m_range} {fmt}"
            if code != 0:
                problems.append(f"{where}: exit status {code}")
                continue
            tol = 1e-12 if fmt == "json" else TOL_PRINTED
            slack = 0.0 if fmt == "json" else TOL_PRINTED
            r = parse_helium(fmt, text)
            for key, want in (("z_star", float(oracle.HELIUM_ZSTAR)),
                              ("e_var", e_var), ("zs_exc", zs_exc),
                              ("e_exc", e_exc),
                              ("e_total", e_var + r["e_second"]),
                              ("e_second", r["partials"].get(n_max, math.nan))):
                if not _close(r[key], want, tol):
                    problems.append(f"{where}: {key} = {r[key]!r}, expected {want!r}")
            sums = [r["partials"].get(n) for n in range(2, n_max + 1)]
            if list(r["partials"]) != list(range(2, n_max + 1)):
                problems.append(f"{where}: partial sums for n' = "
                                f"{list(r['partials'])}")
            elif not all(s < 0.0 for s in sums):
                problems.append(f"{where}: partial sums not negative: {sums}")
            elif any(hi >= lo + slack * abs(lo)
                     for lo, hi in zip(sums, sums[1:])):
                problems.append(f"{where}: partial sums rise with n': {sums}")
            seconds[n_max, m_range] = (r["e_second"], tol)
            for n, s in r["partials"].items():
                partials.setdefault((m_range, n), []).append((s, tol))
        for n_max in HELIUM_N_MAX:
            if (n_max, "full") in seconds and (n_max, "paper") in seconds:
                (full, t1), (paper, t2) = seconds[n_max, "full"], seconds[n_max, "paper"]
                if full > paper + (t1 + t2) * abs(paper):
                    problems.append(f"n_max={n_max}: full sum {full!r} above "
                                    f"paper sum {paper!r}")
        for (m_range, n), values in partials.items():
            ref, _ = min(values, key=lambda v: v[1])
            if any(not _close(v, ref, t + 1e-12) for v, t in values):
                problems.append(f"{m_range} partial sum to n'={n} differs "
                                f"between runs: {values}")
        return set(), problems + self._check_integrals()

    @staticmethod
    def _check_integrals() -> list[str]:
        """Slater integrals: J, K at unit charge, sympy spot checks, linearity."""
        from varpert import helium, polyexp

        problems = []
        r10 = helium.hydrogenic_radial(1, 0, 1.0)
        r20 = helium.hydrogenic_radial(2, 0, 1.0)
        j = 2.0 * polyexp.slater_radial(0, r10, r20, r10, r20)
        k = 2.0 * polyexp.slater_radial(0, r10, r20, r20, r10)
        for name, got, want in (("J", j, oracle.J_1S2S), ("K", k, oracle.K_1S2S)):
            if not _close(got, float(want), 1e-13):
                problems.append(f"1s2s {name} at unit charge = {got!r}, "
                                f"expected {want}")
        zs = float(oracle.HELIUM_ZSTAR)
        for n, n_prime, l in Y_SPOT:
            got = helium.y_integral(n, n_prime, l, zs)
            want = oracle.slater_y_sympy(n, n_prime, l, oracle.HELIUM_ZSTAR)
            if not _close(got, want, 1e-12):
                problems.append(f"Y{n}{n_prime}{l} = {got!r}, sympy {want!r}")
            slopes = [helium.y_integral(n, n_prime, l, z) / z
                      for z in (1.0, zs, 2.3)]
            if not all(_close(s, slopes[0], 1e-12) for s in slopes):
                problems.append(f"Y{n}{n_prime}{l} not linear in Z*: {slopes}")
        return problems


# ---------------------------------------------------------- parameter scan

SCAN_LEVELS = 21
SCAN_POINTS = 200
# Largest seeded coupling b sqrt(kappa) / (8 k^1.5): up to here the default
# hbar-omega basis of diag_eigenvalues (dim 120) holds all 21 levels to
# ~3e-10 relative; at 0.3 it is already off by 7e-5.
SCAN_MAX_COUPLING = 0.1
# Fixed points where the default basis returns wrong levels without an
# error; they are attempted in every round and counted as failed.
FAULT_POINTS = ((0.5, 1e4), (1e-6, 1.0), (1e-4, 1e8), (1e3, 1e8))
TOL_DIAG = 1e-7


class ParameterScan:
    """Closed forms for n = 0..20 plus one diag_eigenvalues call per (k, b).

    k is log-uniform on [1e-4, 1e3]. Every fourth seeded point has b = 0;
    the others draw the coupling b sqrt(kappa) / (8 k^1.5) log-uniform on
    [1e-7, ``SCAN_MAX_COUPLING``], so b spans about 4e-13 to 1.3e4. The
    ``FAULT_POINTS`` reach b = 1e8 and end every round.
    """

    name = "parameter-scan"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        scale = 8.0 / math.sqrt(oracle.KAPPA) * SCAN_MAX_COUPLING
        self.ops = []
        for i in range(SCAN_POINTS):
            k = 10.0 ** rng.uniform(-4.0, 3.0)
            b = 0.0 if i % 4 == 0 else \
                scale * k ** 1.5 * 10.0 ** rng.uniform(-6.0, 0.0)
            self.ops.append((k, b))
        self.ops += FAULT_POINTS
        self.warmup = (0.5, 0.05)

    def run(self, op):
        from varpert import anharmonic, exact, model

        spec = model.make_anharmonic_spec(*op)
        rows = []
        for n in range(SCAN_LEVELS):
            rows.append((
                anharmonic.solve_omega(spec, n).hbar_Omega_n,
                anharmonic.energy_variational(spec, n).e_total,
                anharmonic.energy_present(spec, n).e_total,
                anharmonic.energy_conventional_pt(spec, n, 1).e_total,
                anharmonic.energy_conventional_pt(spec, n, 2).e_total,
                anharmonic.pt_divergent(spec, n)))
        return rows, exact.diag_eigenvalues(spec, n_levels=SCAN_LEVELS)

    def check(self, outputs: list) -> tuple[set[int], list[str]]:
        faulty: set[int] = set()
        problems: list[str] = []
        for i, ((k, b), out) in enumerate(zip(self.ops, outputs)):
            if out is None:
                continue
            rows, diag = out
            exact = oracle.exact_levels(k, b, SCAN_LEVELS)
            where = f"k={k!r} b={b!r}"
            problems += [f"{where}: {p}" for p in
                         self._check_closed_forms(k, b, rows, exact)]
            if self._diag_wrong(k, b, diag, exact):
                faulty.add(i)
        return faulty, problems

    @staticmethod
    def _check_closed_forms(k, b, rows, exact) -> list[str]:
        problems = []
        pert = oracle.perturbative_levels(k, b, SCAN_LEVELS)
        hw = oracle.hbar_omega(k)
        names = ("variational", "present", "conventional_pt1",
                 "conventional_pt2")
        for n, (u, *energies, divergent) in enumerate(rows):
            if not _close(u, oracle.omega_root(k, b, n), TOL_CLOSED_FORM):
                problems.append(f"n={n} hbar Omega_n = {u!r}")
            for name, got in zip(names, energies):
                if not _close(got, pert[name][n], TOL_CLOSED_FORM):
                    problems.append(f"n={n} {name} = {got!r}, "
                                    f"reference {pert[name][n]!r}")
                if b == 0.0 and not _close(got, hw * (n + 0.5), 1e-12):
                    problems.append(f"n={n} {name} = {got!r} at b = 0")
            if divergent != pert["divergent"][n]:
                problems.append(f"n={n} divergence flag {divergent}")
        for n in (0, 1):
            if rows[n][1] < exact[n] * (1.0 - 1e-12):
                problems.append(f"n={n} variational below exact {exact[n]!r}")
        for col, name in ((1, "variational"), (2, "present")):
            got = [row[col] for row in rows]
            if any(lo >= hi for lo, hi in zip(got, got[1:])):
                problems.append(f"{name} levels do not ascend")
        return problems

    @staticmethod
    def _diag_wrong(k, b, diag, exact) -> bool:
        """Whether diag_eigenvalues missed the reference levels (the fault)."""
        if len(diag) != SCAN_LEVELS:
            return True
        if any(not _close(d, e, TOL_DIAG) for d, e in zip(diag, exact)):
            return True
        if b == 0.0 and any(not _close(d, oracle.hbar_omega(k) * (n + 0.5), 1e-12)
                            for n, d in enumerate(diag)):
            return True
        lam = oracle.coupling(k, b)
        return lam >= 100.0 and any(
            abs(diag[n] / oracle.quartic_limit(b, n) - 1.0) > lam ** (-2.0 / 3.0)
            for n in (0, 1))


WORKLOADS = {w.name: w for w in (OscillatorTable, HeliumSeries, ParameterScan)}

