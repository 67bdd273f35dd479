"""One benchmark process: set up a workload, time it, check it, report JSON.

Run by ``run.py`` in a fresh interpreter, never imported. ``--started``
is the CLOCK_MONOTONIC reading taken just before this interpreter was
spawned, so ``setup_s`` covers interpreter start, ``import varpert``,
input generation and one warm-up operation. With ``--setup-only`` the
process stops there. Otherwise it attempts whole rounds of the
workload's operations until ``--seconds`` have passed, records its peak
resident set size, and only then checks the outputs. Times are scaled to
a reference machine speed measured by ``_reference_loop`` between
operations (see README.md). With ``--trace``
it times one plain round, then one round with every varpert function
wrapped by ``tracing.Tracer``, and reports the per-layer figures.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def _import_varpert():
    src = ROOT / "src"
    if not (src / "varpert" / "__init__.py").is_file():
        sys.exit(f"bench: no varpert sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import varpert
    elapsed = time.perf_counter() - start
    if Path(varpert.__file__).resolve().parent != src / "varpert":
        sys.exit(f"bench: imported varpert from {varpert.__file__}, not {src}")
    return varpert, elapsed


# Nominal time of ``_reference_loop``: times are reported at the machine
# speed where the loop takes this long. The loop runs again once at least
# ``PROBE_EVERY_S`` of operations have passed since it last ran.
REFERENCE_LOOP_S = 5e-3
PROBE_EVERY_S = 0.05


def _reference_loop() -> float:
    """Wall time of a fixed pure-Python loop, a probe of the machine's speed."""
    start = time.perf_counter()
    x = 0
    for j in range(100_000):
        x += j * j
    return time.perf_counter() - start


def _round(workload) -> tuple[list[float], list[float], list]:
    """One pass over every operation: wall times, speed factors, outputs.

    Each operation's speed factor is ``REFERENCE_LOOP_S`` over the mean of
    the reference loops run just before and just after it. An operation
    that raises has the output None and counts as failed.
    """
    times, speeds, outputs = [], [], []
    clock = time.perf_counter
    last_probe, since_probe = _reference_loop(), 0.0
    for i, op in enumerate(workload.ops):
        t0 = clock()
        try:
            out = workload.run(op)
        except Exception as exc:
            out = None
            print(f"bench: {op!r} raised {exc!r}", file=sys.stderr)
        times.append(clock() - t0)
        outputs.append(out)
        since_probe += times[-1]
        if since_probe >= PROBE_EVERY_S or i == len(workload.ops) - 1:
            probe = _reference_loop()
            factor = 2.0 * REFERENCE_LOOP_S / (last_probe + probe)
            speeds += [factor] * (len(times) - len(speeds))
            last_probe, since_probe = probe, 0.0
    return times, speeds, outputs


class Outcomes:
    """What the checks need from every round, without keeping every output.

    Rounds repeat the same inputs, so the first round's outputs are kept
    for checking and every later round must reproduce them exactly.
    """

    def __init__(self) -> None:
        self.first: list | None = None
        self.raised: list[set[int]] = []
        self.differs = False

    def add(self, outputs: list) -> None:
        if self.first is None:
            self.first = outputs
        elif outputs != self.first:
            self.differs = True
        self.raised.append({i for i, out in enumerate(outputs) if out is None})

    def check(self, workload) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) over every round."""
        faulty, problems = workload.check(self.first)
        if self.differs:
            problems.append("outputs differ between rounds of the same inputs")
        failed = sum(len(raised | faulty) for raised in self.raised)
        return len(self.raised) * len(workload.ops), failed, problems


def _layer_metrics(tracer, varpert_import_s: float, scipy_loaded: bool,
                   overhead_s: float) -> dict[str, float]:
    rows = tracer.summary()

    def mean(name: str, field: str, scale: float) -> float:
        row = rows.get(name)
        return scale * row[field] / row["calls"] if row and row["calls"] else 0.0

    def calls(name: str) -> int:
        return rows[name]["calls"] if name in rows else 0

    y_calls = calls("helium.y_integral")
    y_distinct = len(set(tracer.args.get("helium.y_integral", ())))
    shoots = calls("exact.shoot_eigenvalue")
    return {
        "import.varpert_s": varpert_import_s,
        "import.scipy_linalg_loaded": int(scipy_loaded),
        "cli.main_self_ms": mean("cli.main", "self_s", 1e3),
        "reports.run_table_self_ms": mean("reports.run_table", "self_s", 1e3),
        "reports.run_helium_self_ms": mean("reports.run_helium", "self_s", 1e3),
        "exact.shoot_eigenvalue_ms": mean("exact.shoot_eigenvalue", "total_s", 1e3),
        "exact.shoot_eigenvalue_calls": shoots,
        "exact.integrate_ms": mean("exact._integrate", "total_s", 1e3),
        "exact.integrations_per_level":
            calls("exact._integrate") / shoots if shoots else 0.0,
        "exact.diag_eigenvalues_ms": mean("exact.diag_eigenvalues", "total_s", 1e3),
        "exact.diag_eigenvalues_calls": calls("exact.diag_eigenvalues"),
        "anharmonic.solve_omega_us": mean("anharmonic.solve_omega", "total_s", 1e6),
        "anharmonic.solve_omega_calls": calls("anharmonic.solve_omega"),
        "anharmonic.energy_variational_us":
            mean("anharmonic.energy_variational", "total_s", 1e6),
        "anharmonic.energy_present_us":
            mean("anharmonic.energy_present", "total_s", 1e6),
        "anharmonic.energy_conventional_pt_us":
            mean("anharmonic.energy_conventional_pt", "total_s", 1e6),
        "anharmonic.pt_divergent_us": mean("anharmonic.pt_divergent", "total_s", 1e6),
        "anharmonic.second_order_sum_calls": calls("anharmonic.second_order_sum"),
        "oscillator.build_hamiltonian_us":
            mean("oscillator.build_hamiltonian", "total_s", 1e6),
        "oscillator.hprime_element_calls": calls("oscillator.hprime_element"),
        "model.make_anharmonic_spec_us":
            mean("model.make_anharmonic_spec", "total_s", 1e6),
        "polyexp.slater_radial_ms": mean("polyexp.slater_radial", "total_s", 1e3),
        "polyexp.slater_radial_calls": calls("polyexp.slater_radial"),
        "polyexp.polyexp_moment_us": mean("polyexp.polyexp_moment", "total_s", 1e6),
        "helium.hydrogenic_radial_calls": calls("helium.hydrogenic_radial"),
        "helium.y_integral_calls": y_calls,
        "helium.y_integral_distinct": y_distinct,
        "helium.y_integral_useful_ratio": y_distinct / y_calls if y_calls else 0.0,
        "helium.second_order_by_n_prime_calls":
            calls("helium.second_order_by_n_prime"),
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": overhead_s,
    }


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--started", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    varpert, import_s = _import_varpert()
    scipy_loaded = "scipy.linalg" in sys.modules
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.run(workload.warmup)
    setup_wall_s = time.monotonic() - args.started
    speed = REFERENCE_LOOP_S / statistics.median(
        _reference_loop() for _ in range(3))
    result: dict[str, object] = {"setup_wall_s": setup_wall_s,
                                 "setup_s": setup_wall_s * speed}
    if args.setup_only:
        print(json.dumps(result))
        return

    outcomes = Outcomes()
    if args.trace:
        from tracing import Tracer

        times, speeds, outputs = _round(workload)
        plain_s = sum(t * f for t, f in zip(times, speeds))
        outcomes.add(outputs)
        tracer = Tracer()
        tracer.install(varpert)
        try:
            times, speeds, outputs = _round(workload)
        finally:
            tracer.uninstall()
        outcomes.add(outputs)
        traced_s = sum(t * f for t, f in zip(times, speeds))
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.json")
        result["layers"] = _layer_metrics(tracer, import_s, scipy_loaded,
                                          traced_s - plain_s)
    else:
        wall, scaled = [], []
        start = time.perf_counter()
        while not wall or time.perf_counter() - start < args.seconds:
            times, speeds, outputs = _round(workload)
            wall.append(times)
            scaled.append([t * f for t, f in zip(times, speeds)])
            outcomes.add(outputs)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update({
            # each operation's median over the rounds, summed
            "run_s": sum(statistics.median(x) for x in zip(*scaled)),
            "op_p50_ms": 1e3 * statistics.median(
                t for times in scaled for t in times),
            "peak_rss_mb": peak_kb / 1024.0,
            "rounds": len(wall),
            "wall_run_s": sum(statistics.median(x) for x in zip(*wall)),
        })
    attempted, failed, problems = outcomes.check(workload)
    result.update({"correct": not problems, "problems": problems[:20],
                   "attempted": attempted, "failed": failed})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
