"""Report assembly and the command-line interface."""
import json

import pytest

import varpert.reports as reports
from varpert.cli import main
from varpert.exact import ConvergenceError
from varpert.reports import RunConfig, run_helium, run_table


def test_run_config_defaults_per_command():
    assert RunConfig("table1").with_default_b().b_values == (0.01, 0.05, 0.25)
    assert RunConfig("table2").with_default_b().b_values == (0.05,)
    assert RunConfig("table3").with_default_b().b_values == (0.05,)
    explicit = RunConfig("table1", b_values=(0.1,)).with_default_b()
    assert explicit.b_values == (0.1,)


@pytest.mark.parametrize("kwargs", [
    {"command": "table9"},
    {"command": "table1", "output_format": "yaml"},
    {"command": "helium", "m_range": "none"},
    {"command": "table1", "n_levels": 0},
    {"command": "helium", "n_max_helium": 1},
    {"command": "table1", "exact_dim": 10},
    {"command": "table1", "exact_tol": 0.0},
    {"command": "table1", "b_values": (-0.01,)},
])
def test_run_config_validation(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


def test_table1_check_is_clean():
    doc = run_table(RunConfig("table1", check=True))
    assert doc.violations == []
    assert not doc.convergence_failed
    assert "divergent" in doc.text


def test_table3_check_flags_only_the_known_cell():
    doc = run_table(RunConfig("table3", check=True))
    assert len(doc.violations) == 1
    assert "present" in doc.violations[0]


def test_helium_check_flags_only_second_order():
    doc = run_helium(RunConfig("helium", check=True))
    assert len(doc.violations) == 2
    assert any("e_second" in v for v in doc.violations)
    assert any("e_total" in v for v in doc.violations)


def test_harmonic_column_all_methods_equal():
    doc = run_table(RunConfig("table1", b_values=(0.0,),
                              output_format="json"))
    cells = json.loads(doc.text)["report"]["blocks"][0]["columns"][0]["cells"]
    values = {m: cells[m]["value"] for m in cells}
    e0 = values["exact"]
    for method in ("conventional_pt1", "conventional_pt2", "variational",
                   "present"):
        assert values[method] == pytest.approx(e0, abs=5e-9)
    assert values["half_m_omega2"] == 0.5


def test_csv_output_is_deterministic():
    cfg = RunConfig("table1", output_format="csv")
    assert run_table(cfg).text == run_table(cfg).text


def test_csv_schema():
    doc = run_table(RunConfig("table1", output_format="csv"))
    lines = doc.text.strip().split("\n")
    assert lines[0] == "command,level,b,method,value,percent_of_exact,note"
    assert len(lines) == 1 + 3 * 5  # header + 3 columns x 5 methods
    assert lines[1].startswith("table1,0,0.01,conventional_pt2,")


def test_table2_grid_layout():
    doc = run_table(RunConfig("table2", output_format="csv"))
    lines = doc.text.strip().split("\n")
    assert lines[0] == "command,level,b,scheme,order,value,percent_of_exact,note"
    assert len(lines) == 5
    assert [l.split(",")[3:5] for l in lines[1:]] == [
        ["conventional", "1"], ["conventional", "2"],
        ["present", "1"], ["present", "2"]]


def test_sweep_includes_first_order_row():
    doc = run_table(RunConfig("sweep", b_values=(0.05,), n_levels=2))
    assert "conventional_pt1" in doc.text
    assert "## level n = 1" in doc.text


def test_json_round_trip():
    doc = run_table(RunConfig("table1", b_values=(0.05,),
                              output_format="json"))
    payload = json.loads(doc.text)
    assert payload["config"]["command"] == "table1"
    cells = payload["report"]["blocks"][0]["columns"][0]["cells"]
    assert cells["present"]["value"] == pytest.approx(1.5912084, abs=1e-6)


def test_helium_report_content():
    doc = run_helium(RunConfig("helium"))
    assert "Z* = 1.6875" in doc.text
    assert "-5.695312" in doc.text
    assert "| 7 |" in doc.text  # partial-sum table reaches the cutoff
    assert "investigative" not in doc.text
    full = run_helium(RunConfig("helium", m_range="full"))
    assert "investigative" in full.text


def test_helium_csv_layout():
    doc = run_helium(RunConfig("helium", output_format="csv",
                               n_max_helium=3))
    lines = doc.text.strip().split("\n")
    assert lines[0] == "command,section,key,value,note"
    keys = [l.split(",")[2] for l in lines[1:]]
    assert "e_second_nprime_le_2" in keys
    assert "z_star" in keys


def test_cli_table1_check_passes(capsys):
    assert main(["table1", "--check"]) == 0
    out = capsys.readouterr().out
    assert "# table1" in out


def test_cli_table3_check_fails(capsys):
    assert main(["table3", "--check"]) == 2
    assert "check failed" in capsys.readouterr().err


def test_cli_helium_check_fails_on_second_order(capsys):
    assert main(["helium", "--check"]) == 2
    err = capsys.readouterr().err
    assert "e_second" in err


def test_cli_determinism(capsys):
    assert main(["table1", "--format", "csv"]) == 0
    first = capsys.readouterr().out
    assert main(["table1", "--format", "csv"]) == 0
    assert capsys.readouterr().out == first


def test_cli_constants_override(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"kappa_eV_A2": 4.0}))
    assert main(["table1", "--b", "0.05", "--constants", str(path)]) == 0
    assert "kappa = 4" in capsys.readouterr().out


def test_cli_rejects_bad_constants_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"speed_of_light": 3e8}))
    assert main(["table1", "--constants", str(path)]) == 2
    assert "speed_of_light" in capsys.readouterr().err


def test_cli_rejects_negative_b(capsys):
    assert main(["table1", "--b", "-0.05"]) == 2
    assert "varpert" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cli_rejects_non_finite_b(bad, capsys):
    with pytest.raises(ValueError, match="b values must be finite"):
        RunConfig("table1", b_values=(0.05, float(bad)))
    assert main(["table1", f"--b={bad}"]) == 2
    err = capsys.readouterr().err
    assert f"b values must be finite and >= 0, got {bad}" in err
    assert "e_total" not in err


def test_cli_check_cross_checks_unreferenced_columns(capsys):
    # no published cell at b = 1e4, but the two oracles are still compared;
    # the hbar-omega-basis diagonalization is 23 % off there
    assert main(["table1", "--b", "10000", "--check"]) == 2
    err = capsys.readouterr().err
    assert "vs diagonalization" in err
    assert "b=10000.0" in err


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_cli_rejects_non_finite_exact_tol(bad, capsys):
    # an infinite tolerance used to return the first bracket's midpoint
    assert main(["table1", "--b", "0.05", "--exact-tol", bad]) == 2
    assert f"exact_tol must be finite and > 0, got {bad}" in capsys.readouterr().err


def test_cli_helium_rejects_cache_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["helium", "--cache", "x"])
    assert exc.value.code == 2
    assert "--cache" in capsys.readouterr().err


def test_cli_convergence_failure_exit_code(monkeypatch, capsys):
    def explode(spec, n, cfg):
        raise ConvergenceError("forced failure", n=n)

    monkeypatch.setattr(reports, "shoot_eigenvalue", explode)
    assert main(["table1", "--b", "0.05"]) == 3
    assert "unconverged" in capsys.readouterr().out


def test_cli_levels_flag(capsys):
    assert main(["table3", "--b", "0.05", "--levels", "2"]) == 0
    out = capsys.readouterr().out
    assert "## level n = 1" in out and "## level n = 2" in out
