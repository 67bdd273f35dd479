"""Command-line front end.

Subcommands regenerate the published benchmark tables from first
principles. Exit status: 0 on success, 2 when --check finds a
disagreement with the embedded reference values, 3 when an exact-solver
fails to converge.
"""
from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .reports import (COMMANDS, DEFAULT_B, FORMATS, RunConfig, run_helium,
                      run_table)

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_NO_CONVERGENCE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varpert",
        description="Variational-perturbation energies for the quartic "
                    "anharmonic oscillator and the helium atom.")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "table1": "ground-state energy vs b for every approximation",
        "table2": "order-by-order comparison of both perturbation schemes",
        "table3": "first excited state vs b for every approximation",
        "helium": "helium ground and first excited state in rydbergs",
        "sweep": "long-format dump of all methods over levels and b values",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=descriptions[name])
        if name != "helium":
            p.add_argument("--b", type=float, nargs="+", default=None,
                           metavar="B",
                           help="quartic coefficients in eV/A^4 "
                                f"(default {list(DEFAULT_B[name])})")
            p.add_argument("--levels", type=int, default=1,
                           help="number of levels to report (default 1)")
            p.add_argument("--exact-tol", type=float, default=1e-9,
                           help="energy tolerance for the shooting solver "
                                "in eV (default 1e-9)")
        else:
            p.add_argument("--n-max", type=int, default=7,
                           help="largest principal quantum number in the "
                                "second-order sum (default 7)")
            p.add_argument("--m-range", choices=("paper", "full"),
                           default="paper",
                           help="magnetic sublevels: nonnegative m only "
                                "(paper) or degeneracy-weighted (full)")
        p.add_argument("--exact-dim", type=int, default=120,
                       help="basis size for the diagonalization oracle "
                            "(default 120)")
        p.add_argument("--format", choices=FORMATS, default="markdown",
                       dest="output_format", help="output format")
        p.add_argument("--constants", default=None, metavar="PATH",
                       help="JSON file overriding physical constants")
        p.add_argument("--check", action="store_true",
                       help="compare results against embedded reference "
                            "values and exit 2 on disagreement")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    common = dict(command=args.command, exact_dim=args.exact_dim,
                  output_format=args.output_format,
                  constants_path=args.constants, check=args.check)
    if args.command == "helium":
        return RunConfig(n_max_helium=args.n_max, m_range=args.m_range,
                         **common)
    b_values = tuple(args.b) if args.b is not None else ()
    return RunConfig(b_values=b_values, n_levels=args.levels,
                     exact_tol=args.exact_tol, **common)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        doc = run_helium(cfg) if cfg.command == "helium" else run_table(cfg)
    except (ValueError, OSError) as exc:
        print(f"varpert: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    sys.stdout.write(doc.text)
    for line in doc.violations:
        print(f"check failed: {line}", file=sys.stderr)
    if doc.convergence_failed:
        return EXIT_NO_CONVERGENCE
    if doc.violations:
        return EXIT_CHECK_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
