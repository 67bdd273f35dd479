"""Problem specs, the kinetic constant, and result-record validation."""
import math
import re

import pytest

from varpert.anharmonic import OmegaSolution
from varpert.model import (KAPPA_EV_A2, AnharmonicSpec, LevelResult,
                           hbar_omega, make_anharmonic_spec)


def test_default_constants():
    assert KAPPA_EV_A2 == pytest.approx(3.8099821, abs=1e-7)
    assert AnharmonicSpec(0.5, 0.05).kappa == KAPPA_EV_A2
    assert make_anharmonic_spec(0.5, 0.05).kappa == KAPPA_EV_A2


@pytest.mark.parametrize("field", ["kappa"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_constants_must_be_positive(field, bad):
    for build in (AnharmonicSpec, make_anharmonic_spec):
        with pytest.raises(ValueError,
                           match=f"^{field} must be finite and > 0, got {bad}$"):
            build(0.5, 0.05, **{field: bad})


def test_make_spec_validates_signs():
    with pytest.raises(ValueError, match="stiffness_k"):
        make_anharmonic_spec(0.0, 0.1)
    with pytest.raises(ValueError, match="stiffness_k"):
        make_anharmonic_spec(-0.5, 0.1)
    with pytest.raises(ValueError, match="quartic_b"):
        make_anharmonic_spec(0.5, -0.01)
    # b = 0 is the harmonic limit and must be accepted
    assert make_anharmonic_spec(0.5, 0.0).quartic_b == 0.0


@pytest.mark.parametrize("k, b, message", [
    (0.5, math.nan, "quartic_b must be finite and >= 0, got nan"),
    (0.0, 0.05, "stiffness_k must be finite and > 0, got 0.0"),
], ids=["nan_b", "zero_k"])
def test_spec_built_directly_is_validated(k, b, message):
    # these used to give a nan e_total and a ZeroDivisionError downstream
    with pytest.raises(ValueError, match=f"^{message}$"):
        AnharmonicSpec(k, b)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_make_spec_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="stiffness_k must be finite"):
        make_anharmonic_spec(bad, 0.1)
    with pytest.raises(ValueError, match="quartic_b must be finite"):
        make_anharmonic_spec(0.5, bad)


@pytest.mark.parametrize("k, kappa, product", [
    (4.8e307, KAPPA_EV_A2, "inf"),
    (4.506569500031525e-209, 2.89641838206859e-194, "0.0")],
    ids=["overflow", "underflow"])
def test_spec_refuses_kappa_k_outside_the_float_range(k, kappa, product):
    # hbar omega = 2 sqrt(kappa k) used to read inf (solve_omega returned it,
    # and shooting blamed the bracket), or 0, which every energy divided by
    message = f"kappa * stiffness_k must be finite and > 0, got {product}"
    for build in (AnharmonicSpec, make_anharmonic_spec):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(k, 0.05, kappa)


def test_hbar_omega_closed_form():
    spec = make_anharmonic_spec(0.5, 0.05)
    expected = 2.0 * math.sqrt(spec.kappa * 0.5)
    assert hbar_omega(spec) == expected
    assert hbar_omega(spec) == pytest.approx(2.7604282638750095, rel=1e-12)


def test_hbar_omega_keeps_its_digits_where_kappa_k_is_subnormal():
    # 2 sqrt(kappa k) read 8.8e-4 relative off here, kappa k = 3.4e-322
    spec = make_anharmonic_spec(7.299775682539862e-48, 0.0,
                                4.6618569434247915e-275)
    assert spec.kappa * spec.stiffness_k < 1e-321
    expected = 2.0 * math.sqrt(spec.kappa) * math.sqrt(spec.stiffness_k)
    assert abs(hbar_omega(spec) - expected) <= 4.0 * math.ulp(expected)


def test_hbar_omega_scales_with_sqrt_k():
    for kappa in (KAPPA_EV_A2, 7.62):
        e1 = hbar_omega(make_anharmonic_spec(0.5, 0.0, kappa))
        e4 = hbar_omega(make_anharmonic_spec(2.0, 0.0, kappa))
        assert e4 == pytest.approx(2.0 * e1, rel=1e-14)


def test_level_result_consistency():
    r = LevelResult(n=0, hbar_omega_n=3.0, e_first=1.5, e_second_corr=-0.01)
    assert r.e_total == 1.5 + -0.01


@pytest.mark.parametrize("record", [
    LevelResult(n=0, hbar_omega_n=3.0, e_first=1.5, e_second_corr=-0.01),
    OmegaSolution(n=1, hbar_Omega_n=3.2, residual=0.0)])
def test_records_are_immutable_hashable_tuples(record):
    with pytest.raises(AttributeError):
        record.n = 2
    assert hash(record) == hash(tuple(record))
    assert record == tuple(record)
    assert record._fields[0] == "n"


def test_package_exports_resolve():
    import varpert

    missing = [name for name in varpert.__all__ if not hasattr(varpert, name)]
    assert missing == []
