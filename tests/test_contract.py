"""Return-or-raise contract of the oscillator closed forms over the whole
float domain: finite k, kappa > 0, finite b >= 0 and n from 0 to 100.

Every entry point either returns finite numbers, with hbar omega > 0, or
raises ``ValueError``. The one documented exception is the conventional
second-order sum, which may read -inf or nan where its amplitudes' squares
overflow; ``pt_divergent`` must then flag the level.
"""
import math

from hypothesis import given
from hypothesis import strategies as st

from varpert.anharmonic import (energy_conventional_pt, energy_present,
                                energy_variational, pt_divergent, solve_omega)
from varpert.model import KAPPA_EV_A2, hbar_omega, make_anharmonic_spec

# log-uniform over every positive float, subnormals included
POSITIVE = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
                     st.integers(-1074, 1023))


def _unless_refused(call, *args):
    """The call's result, or None where it raises ``ValueError``."""
    try:
        return call(*args)
    except ValueError:
        return None


@given(k=POSITIVE, b=st.one_of(st.just(0.0), POSITIVE),
       kappa=st.one_of(st.just(KAPPA_EV_A2), POSITIVE),
       n=st.integers(0, 100))
def test_closed_forms_return_finite_numbers_or_refuse(k, b, kappa, n):
    spec = _unless_refused(make_anharmonic_spec, k, b, kappa)
    if spec is None:  # k, b and kappa are in range, so only kappa k is not
        assert not 0.0 < kappa * k < math.inf
        return
    hw = hbar_omega(spec)
    assert 0.0 < hw < math.inf
    sol = _unless_refused(solve_omega, spec, n)
    if sol is not None:
        assert 0.0 < sol.hbar_Omega_n < math.inf
        assert math.isfinite(sol.residual)
    for energy, args in ((energy_variational, ()), (energy_present, ()),
                         (energy_conventional_pt, (1,))):
        level = _unless_refused(energy, spec, n, *args)
        if level is not None:
            assert 0.0 < level.hbar_omega_n < math.inf
            assert math.isfinite(level.e_first)
            assert math.isfinite(level.e_second_corr)
            assert math.isfinite(level.e_total)
    divergent = _unless_refused(pt_divergent, spec, n)
    second = _unless_refused(energy_conventional_pt, spec, n, 2)
    if second is not None:
        assert 0.0 < second.hbar_omega_n < math.inf
        assert math.isfinite(second.e_first)
        if not math.isfinite(second.e_second_corr):
            assert divergent is True
