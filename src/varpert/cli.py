"""Command-line front end.

Subcommands regenerate the published benchmark tables from first
principles. Exit status: 0 on success, 2 on bad input or when --check
finds a disagreement with the embedded reference values, 3 when some
table cell has no value because its method refused or did not converge
(the cell's note says which).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from collections.abc import Sequence

from .reports import (COMMANDS, DEFAULT_B, FORMATS, RunConfig, run_helium,
                      run_table)

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_NO_CONVERGENCE = 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The varpert parser, built once; parsing does not change it.

    Every option's dest is a ``RunConfig`` field and an option left unset
    is absent from the namespace, so ``RunConfig`` holds the only defaults.
    """
    default = {f.name: f.default for f in dataclasses.fields(RunConfig)}
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
        p = sub.add_parser(name, help=descriptions[name],
                           argument_default=argparse.SUPPRESS)
        if name != "helium":
            p.add_argument("--b", type=float, nargs="+", dest="b_values",
                           metavar="B",
                           help="quartic coefficients in eV/A^4 "
                                f"(default {list(DEFAULT_B[name])})")
            p.add_argument("--levels", type=int, dest="n_levels",
                           metavar="LEVELS",
                           help="number of levels to report "
                                f"(default {default['n_levels']})")
            p.add_argument("--exact-tol", type=float,
                           help="energy tolerance for the shooting solver "
                                f"in eV (default {default['exact_tol']}); "
                                "it can only tighten the search below its "
                                "1e-9 E cap, and a tighter one also deepens "
                                "the box and tightens the steps")
            p.add_argument("--exact-dim", type=int,
                           help="basis size for the diagonalization oracle "
                                f"(default {default['exact_dim']})")
            p.add_argument("--kappa", type=float,
                           help="kinetic scale hbar^2/2m in eV A^2 "
                                f"(default {default['kappa']})")
        else:
            p.add_argument("--n-max", type=int, dest="n_max_helium",
                           metavar="N_MAX",
                           help="largest principal quantum number in the "
                                "second-order sum "
                                f"(default {default['n_max_helium']})")
            p.add_argument("--m-range", choices=("paper", "full"),
                           help="magnetic sublevels: nonnegative m only "
                                "(paper) or degeneracy-weighted (full)")
        p.add_argument("--format", choices=FORMATS, dest="output_format",
                       help="output format")
        p.add_argument("--check", action="store_true",
                       help="compare results against embedded reference "
                            "values and exit 2 on disagreement")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(**vars(args))
        doc = run_helium(cfg) if cfg.command == "helium" else run_table(cfg)
    except ValueError as exc:
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
