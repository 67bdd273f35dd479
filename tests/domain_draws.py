"""Shoot random levels drawn over the whole float domain and tally the outcomes.

A tool, not a test: pytest does not collect it. Each draw takes k, b and
kappa log-uniform over every positive float (b = 0 and kappa at the
electron value 30 % of the time each) and n from 0 to 20. Each
``shoot_eigenvalue`` call runs under a 2 s alarm. The script prints how
many levels were answered, refused (grouped by message, numbers blanked)
or timed out, and the worst relative gap to a diagonalization of the same
problem rescaled to kappa = 1 and k = 1 or b = 1, the other coupling at
most 1. It also tallies the present-scheme energy against that reference,
and the mean number of integrations (``exact._integrate`` calls) shooting
took per answered level. ``--energy-tol`` sets every search's
``energy_tol``, 1e-9 eV by default as in ``shoot_eigenvalue``; 1e-300 shoots
at the 8-ulp floor, with the deepest box and tightest steps.
Run it from the repository root:

    PYTHONPATH=src python tests/domain_draws.py SEED [--count N] [--list]
        [--energy-tol TOL]

``--list`` also prints one line per draw, the shooting result as its
``repr``, so that two checkouts can be compared draw by draw.
"""
from __future__ import annotations

import argparse
import collections
import math
import random
import re
import signal

import varpert.exact as exact
from varpert.anharmonic import energy_present
from varpert.exact import ConvergenceError, diag_eigenvalues, shoot_eigenvalue
from varpert.model import KAPPA_EV_A2, make_anharmonic_spec

ALARM_S = 2.0
# the README's Limitations bound on |present / exact - 1|
PRESENT_BOUND = 0.0083


class Timeout(Exception):
    pass


def _expire(signum, frame):
    raise Timeout


def positive(rng: random.Random) -> float:
    """Log-uniform over every positive float, subnormals included."""
    return math.ldexp(rng.uniform(1.0, 2.0), rng.randint(-1074, 1023))


def draws(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        k = positive(rng)
        b = 0.0 if rng.random() < 0.3 else positive(rng)
        kappa = KAPPA_EV_A2 if rng.random() < 0.3 else positive(rng)
        yield k, b, kappa, rng.randint(0, 20)


def rescaled_level(k: float, b: float, kappa: float, n: int) -> float:
    """E_n from ``diag_eigenvalues`` at dim 160 in the length and energy
    units where kappa = 1 and k = 1 (b' = b kappa^1/2 / k^3/2 <= 1) or
    b = 1 (k' < 1), formed in logarithms so that no scale overflows."""
    log_b = math.log(b) if b else -math.inf
    coupling = log_b + 0.5 * math.log(kappa) - 1.5 * math.log(k)
    if coupling <= 0.0:
        k1, b1 = 1.0, math.exp(coupling)
        log_unit = 0.5 * (math.log(kappa) + math.log(k))
    else:  # a k' below 1e-200 moves the level by under 1e-200
        k1, b1 = max(math.exp(-2.0 * coupling / 3.0), 1e-200), 1.0
        log_unit = (2.0 * math.log(kappa) + log_b) / 3.0
    level = diag_eigenvalues(make_anharmonic_spec(k1, b1, 1.0), dim=160,
                             n_levels=n + 1)[n]
    return math.exp(log_unit) * level


def blanked(message: str) -> str:
    return re.sub(r"-?\d[\d.]*(e[-+]?\d+)?", "#", message)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed", type=int)
    parser.add_argument("--count", type=int, default=1500)
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--energy-tol", type=float, default=1e-9)
    args = parser.parse_args(argv)

    outcomes = collections.Counter()
    refusals = collections.Counter()
    worst = (0.0, None)
    present_worst = (0.0, None)
    present_outside = 0
    integrations = answered_integrations = 0
    integrate = exact._integrate

    def counting(*args):
        nonlocal integrations
        integrations += 1
        return integrate(*args)

    exact._integrate = counting
    signal.signal(signal.SIGALRM, _expire)
    for k, b, kappa, n in draws(args.seed, args.count):
        point = (k, b, kappa, n)
        try:
            spec = make_anharmonic_spec(k, b, kappa)
        except ValueError:
            outcomes["spec refused"] += 1
            continue
        integrations = 0
        signal.setitimer(signal.ITIMER_REAL, ALARM_S)
        try:
            level = shoot_eigenvalue(spec, n, energy_tol=args.energy_tol)
            result = repr(level)
        except Timeout:
            level, result = None, "timeout"
        except (ValueError, ConvergenceError) as exc:
            level, result = None, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        if args.list:
            print(*map(repr, point), result)
        if result == "timeout":
            outcomes["timed out"] += 1
            continue
        if level is None:
            outcomes["refused"] += 1
            refusals[blanked(result)] += 1
            continue
        outcomes["answered"] += 1
        answered_integrations += integrations
        reference = rescaled_level(k, b, kappa, n)
        gap = abs(level / reference - 1.0)
        worst = max(worst, (gap, point))
        try:
            present = energy_present(spec, n).e_total
        except ValueError:
            outcomes["present refused"] += 1
            continue
        gap = abs(present / reference - 1.0)
        present_outside += not gap <= PRESENT_BOUND
        present_worst = max(present_worst, (gap, point))

    print(f"seed {args.seed}: {args.count} draws, energy_tol "
          f"{args.energy_tol:g} eV")
    for name in ("spec refused", "answered", "refused", "timed out",
                 "present refused"):
        print(f"  {name}: {outcomes[name]}")
    for message, count in refusals.most_common():
        print(f"    {count:5d}  {message}")
    print(f"integrations per answered level: "
          f"{answered_integrations / max(outcomes['answered'], 1):.2f}")
    print(f"worst shooting gap to the rescaled diagonalization: "
          f"{worst[0]:.2e} at {worst[1]}")
    print(f"present scheme: {present_outside} answered levels beyond "
          f"{PRESENT_BOUND:.2%}, worst {present_worst[0]:.2e} at "
          f"{present_worst[1]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
