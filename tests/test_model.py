"""Constants, problem specs, and result-record validation."""
import json
import math

import pytest

from varpert.cli import main
from varpert.model import (Constants, LevelResult, hbar_omega,
                           make_anharmonic_spec)


def test_default_constants():
    c = Constants()
    assert c.kappa == pytest.approx(3.8099821, abs=1e-7)


@pytest.mark.parametrize("field", ["kappa"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_constants_must_be_positive(field, bad):
    with pytest.raises(ValueError,
                       match=f"^{field} must be finite and > 0, got {bad}$"):
        Constants(**{field: bad})


def test_constants_from_file(tmp_path):
    path = tmp_path / "const.json"
    path.write_text(json.dumps({"kappa_eV_A2": 3.81}))
    assert Constants.from_file(str(path)).kappa == 3.81
    path.write_text('{"kappa_eV_A2": 4}')  # a JSON integer is a number too
    assert Constants.from_file(str(path)).kappa == 4.0
    path.write_text("{}")
    assert Constants.from_file(str(path)) == Constants()  # untouched default


def test_constants_from_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "const.json"
    # rydberg_eV and bohr_A were accepted once but never read
    for key in ("planck", "rydberg_eV", "bohr_A"):
        path.write_text(json.dumps({"kappa_eV_A2": 3.81, key: 1.0}))
        with pytest.raises(ValueError, match=key):
            Constants.from_file(str(path))


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_make_spec_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="stiffness_k must be finite"):
        make_anharmonic_spec(bad, 0.1)
    with pytest.raises(ValueError, match="quartic_b must be finite"):
        make_anharmonic_spec(0.5, bad)


def test_hbar_omega_closed_form():
    spec = make_anharmonic_spec(0.5, 0.05)
    expected = 2.0 * math.sqrt(spec.constants.kappa * 0.5)
    assert hbar_omega(spec) == expected
    assert hbar_omega(spec) == pytest.approx(2.7604282638750095, rel=1e-12)


def test_hbar_omega_scales_with_sqrt_k():
    c = Constants()
    e1 = hbar_omega(make_anharmonic_spec(0.5, 0.0, c))
    e4 = hbar_omega(make_anharmonic_spec(2.0, 0.0, c))
    assert e4 == pytest.approx(2.0 * e1, rel=1e-14)


def test_level_result_consistency():
    r = LevelResult(n=0, hbar_omega_n=3.0, e_first=1.5, e_second_corr=-0.01,
                    e_total=1.49, method_tag="present")
    assert r.e_total == pytest.approx(r.e_first + r.e_second_corr)


def test_level_result_rejects_unknown_tag():
    with pytest.raises(ValueError, match="method_tag"):
        LevelResult(n=0, hbar_omega_n=3.0, e_first=1.5, e_second_corr=0.0,
                    e_total=1.5, method_tag="magic")


@pytest.mark.parametrize("tag", ["variational", "exact"])
def test_level_result_first_order_tags_forbid_correction(tag):
    with pytest.raises(ValueError, match="zero correction"):
        LevelResult(n=0, hbar_omega_n=3.0, e_first=1.5, e_second_corr=-0.1,
                    e_total=1.4, method_tag=tag)


def test_level_result_total_must_add_up():
    with pytest.raises(ValueError, match="e_total"):
        LevelResult(n=0, hbar_omega_n=3.0, e_first=1.5, e_second_corr=-0.01,
                    e_total=1.5, method_tag="present")
