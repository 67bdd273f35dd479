"""Benchmark varpert on one named workload.

    python3 bench/run.py --workload oscillator-table --seed 1 --seconds 25 --trace 0

Run from the repository root. Every measurement happens in fresh Python
processes running ``worker.py``, one at a time, each with one BLAS
thread. ``--trace 0`` starts ``SETUP_RUNS - 1`` processes that only set
up, then one that sets up and times whole rounds of the workload for
``--seconds``; it reports the end-to-end metrics, with ``setup_s`` the
median over all ``SETUP_RUNS`` processes. ``--trace 1`` starts one
process that times a plain and a traced round and reports the per-layer
metrics. The last line of standard output is the JSON result; the raw
worker results go to ``bench/out/``. The exit status is 0 only when
every process ran to its end.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 150
END_TO_END = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms",
              "peak_rss_mb": "MB"}


def _worker(args: argparse.Namespace, *flags: str) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--started", repr(started), *flags],
        stdout=subprocess.PIPE, env=env, timeout=WORKER_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench: worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("oscillator-table", "helium-series",
                            "parameter-scan"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if args.trace:
        raw = _worker(args, "--trace")
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in raw["layers"].items()}
    else:
        setups = [_worker(args, "--setup-only")["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        raw = _worker(args)
        raw["setup_runs_s"] = setups + [raw["setup_s"]]
        raw["setup_s"] = statistics.median(raw["setup_runs_s"])
        metrics = {name: {"value": raw[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    out = HERE / "out" / f"run-{args.workload}-{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    for problem in raw["problems"]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


def _layer_unit(name: str) -> str:
    suffix = name.rsplit("_", 1)[-1]
    return {"s": "s", "ms": "ms", "us": "us", "ratio": "ratio"}.get(suffix,
                                                                    "count")


if __name__ == "__main__":
    main()
