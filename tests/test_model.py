"""Problem specs, the constants file, and result-record validation."""
import json
import math
import re

import pytest

from varpert.anharmonic import OmegaSolution
from varpert.cli import main
from varpert.model import (KAPPA_EV_A2, AnharmonicSpec, LevelResult,
                           hbar_omega, make_anharmonic_spec)
from varpert.reports import _load_kappa


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


def test_constants_from_file(tmp_path):
    path = tmp_path / "const.json"
    path.write_text(json.dumps({"kappa_eV_A2": 3.81}))
    assert _load_kappa(str(path)) == 3.81
    path.write_text('{"kappa_eV_A2": 4}')  # a JSON integer is a number too
    kappa = _load_kappa(str(path))
    assert kappa == 4.0 and type(kappa) is float
    path.write_text("{}")
    assert _load_kappa(str(path)) == KAPPA_EV_A2  # untouched default


def test_constants_from_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "const.json"
    # rydberg_eV and bohr_A were accepted once but never read
    for key in ("planck", "rydberg_eV", "bohr_A"):
        path.write_text(json.dumps({"kappa_eV_A2": 3.81, key: 1.0}))
        with pytest.raises(ValueError, match=key):
            _load_kappa(str(path))


@pytest.mark.parametrize("text, message", [
    ("5", "constants must be a JSON object"),
    ('{"kappa_eV_A2": null}', "kappa_eV_A2 must be a number, got None"),
    ('{"kappa_eV_A2": true}', "kappa_eV_A2 must be a number, got True"),
    ('{"kappa_eV_A2": "3.81"}', "kappa_eV_A2 must be a number, got '3.81'"),
])
def test_malformed_constants_file_exits_2(tmp_path, capsys, text, message):
    # these used to raise a bare TypeError, or (true) run with kappa = 1
    path = tmp_path / "const.json"
    path.write_text(text)
    assert main(["table1", "--b", "0.05", "--constants", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("varpert: ") and message in captured.err
    assert captured.out == ""


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
