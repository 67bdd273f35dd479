"""Run the benchmark on two commits in ABBA pairs and write ``BENCH_<pr>.json``.

A tool, not a test: pytest does not collect it. Run it from the repository
root, once per workload; each run adds its workload to the file:

    python tests/bench_pairs.py PARENT CHANGE --workload W --seed S
        --pairs N --pr PR [--seconds 25] [--workdir DIR]

PARENT and CHANGE are any commits ``git archive`` accepts. Each is exported
once into DIR/parent and DIR/change, which must not exist yet (DIR is a
fresh temporary directory by default, removed at the end).
Before every run, every ``__pycache__`` and ``bench/out`` in both copies is
removed; then ``bench/run.py --trace 0`` runs inside one copy, one run at a
time. Pair i runs the parent first when i % 4 is 0 or 3 and the change
first otherwise (ABBA), so neither side keeps the first slot. Each run is
the last line of ``bench/run.py``'s standard output; a run that exits
non-zero stops the script. Per end-to-end metric the file holds both
sides' medians and quartiles (``statistics.quantiles(n=4,
method='inclusive')``), the pairs where the change read lower, the ratio of
the medians, and the same medians for the pairs of each order. Nothing under
``bench/`` is written in this checkout.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "python3 bench/run.py --workload {w} --seed {seed} --seconds {s} --trace 0"
SIDES = ("parent", "change")


def export(commit: str, dest: Path) -> None:
    """The committed files of ``commit`` under ``dest``, by ``git archive``."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"bench_pairs: git archive {commit} failed")


def clean(copy: Path) -> None:
    """Remove every ``__pycache__`` and ``bench/out`` under ``copy``."""
    for cache in list(copy.rglob("__pycache__")):
        shutil.rmtree(cache)
    shutil.rmtree(copy / "bench" / "out", ignore_errors=True)


def bench(copy: Path, args: argparse.Namespace) -> dict:
    """One ``bench/run.py`` result, run inside ``copy``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"],
        cwd=copy, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: bench/run.py exited {proc.returncode} in {copy}")
    return json.loads(proc.stdout.splitlines()[-1])


def order(i: int) -> tuple[str, str]:
    """The sides of pair i in run order: ABBA, parent first at i % 4 in 0, 3."""
    return SIDES if i % 4 in (0, 3) else SIDES[::-1]


def quartiles(xs: list[float]) -> list[float]:
    """The lower and upper quartiles of ``xs``."""
    if len(xs) == 1:
        return [xs[0], xs[0]]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, q3]


def summary(pairs: list[dict]) -> dict:
    """Per metric: both sides' medians and quartiles over all pairs, the
    pairs where the change read lower, the ratio of the medians, and the
    medians over the pairs run in each order."""
    def value(pair, side, name):
        return pair[side]["metrics"][name]["value"]

    def medians(subset, name):
        parent, change = (statistics.median(value(p, s, name) for p in subset)
                          for s in SIDES)
        return {"parent_median": parent, "change_median": change,
                "change_over_parent": change / parent, "pairs": len(subset)}

    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        parent = [value(p, "parent", name) for p in pairs]
        change = [value(p, "change", name) for p in pairs]
        row = {"parent_median": statistics.median(parent),
               "parent_quartiles": quartiles(parent),
               "change_median": statistics.median(change),
               "change_quartiles": quartiles(change),
               "change_better_pairs": sum(c < p for p, c in zip(parent, change)),
               "pairs": len(pairs)}
        row["change_over_parent"] = row["change_median"] / row["parent_median"]
        for first in SIDES:
            subset = [p for p in pairs if p["first"] == first]
            if subset:
                row[f"{first}_first"] = medians(subset, name)
        out[name] = row
    return out


def versions() -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "platform": platform.platform(),
            "cpu": f"{os.cpu_count()} vCPUs"}


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--pr", required=True, help="writes BENCH_<pr>.json")
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--workdir", type=Path,
                   help="where both commits are exported (kept afterwards)")
    args = p.parse_args(argv)

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    copies = {side: workdir / side for side in SIDES}
    for side, commit in zip(SIDES, (args.parent, args.change)):
        export(commit, copies[side])
    pairs = []
    try:
        for i in range(args.pairs):
            pair = {"first": order(i)[0]}
            for side in order(i):
                for copy in copies.values():
                    clean(copy)
                pair[side] = bench(copies[side], args)
                print(f"pair {i} {side}: {json.dumps(pair[side])}", flush=True)
            pairs.append(pair)
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir)

    path = ROOT / f"BENCH_{args.pr}.json"
    doc = (json.loads(path.read_text(encoding="utf-8")) if path.exists() else
           {"description": (
               "bench/run.py outputs at the parent commit and at this change, "
               "written by tests/bench_pairs.py: each side runs from a fresh "
               "git archive copy of its committed files, with every "
               "__pycache__ and bench/out removed before each run, one run at "
               "a time, pairs in ABBA order (pair i runs the parent first "
               "when i % 4 is 0 or 3). Each run is the last stdout line of "
               "bench/run.py; quartiles are statistics.quantiles(n=4, "
               "method='inclusive'); parent_first and change_first hold the "
               "medians over the pairs run in that order."),
            "command": COMMAND, "versions": versions(), "runs": {}})
    run = doc["runs"].setdefault(f"seed {args.seed}",
                                 {"seed": args.seed, "workloads": {}})
    run["workloads"][args.workload] = {
        "parent": args.parent, "change": args.change, "seconds": args.seconds,
        "pairs": pairs, "summary": summary(pairs)}
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, row in run["workloads"][args.workload]["summary"].items():
        print(f"{args.workload} {name}: {row['parent_median']:.6g} -> "
              f"{row['change_median']:.6g} ({row['change_over_parent'] - 1:+.1%}"
              f", change lower in {row['change_better_pairs']} of "
              f"{row['pairs']})")


if __name__ == "__main__":
    main()
