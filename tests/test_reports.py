"""Report assembly and the command-line interface."""
import json
import math
import re
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import varpert.anharmonic as anharmonic
import varpert.reports as reports
from varpert.anharmonic import (energy_conventional_pt, energy_present,
                                energy_variational)
from varpert.cli import build_parser, main
from varpert.exact import ConvergenceError, diag_eigenvalues
from varpert.model import make_anharmonic_spec
from varpert.reports import RunConfig, run_helium, run_table


def test_run_config_defaults_per_command():
    assert RunConfig("table1").b_values == (0.01, 0.05, 0.25)
    assert RunConfig("table2").b_values == (0.05,)
    assert RunConfig("table3").b_values == (0.05,)
    assert RunConfig("table1", b_values=(0.1,)).b_values == (0.1,)
    assert RunConfig("helium").b_values == ()


@pytest.mark.parametrize("kwargs", [
    {"command": "table9"},
    {"command": "table1", "output_format": "yaml"},
    {"command": "helium", "m_range": "none"},
    {"command": "table1", "n_levels": 0},
    {"command": "helium", "n_max_helium": 1},
    {"command": "table1", "exact_dim": 10},
    {"command": "table1", "exact_tol": 0.0},
    {"command": "table1", "b_values": (-0.01,)},
    {"command": "table1", "n_levels": 8, "exact_dim": 27},
    {"command": "table3", "n_levels": 4, "exact_dim": 24},
])
def test_run_config_validation(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


def test_run_config_exact_dim_covers_the_deepest_level():
    # diag_eigenvalues needs dim >= n_levels + 20 for levels 0..deepest
    assert RunConfig("table1", n_levels=8, exact_dim=28).exact_dim == 28
    assert RunConfig("table3", n_levels=4, exact_dim=25).exact_dim == 25


def test_cli_refuses_small_exact_dim_before_solving(monkeypatch, capsys):
    def solve(*args, **kwargs):
        raise AssertionError("the table was solved before the refusal")

    monkeypatch.setattr(reports, "energy_present", solve)
    monkeypatch.setattr(reports, "shoot_eigenvalue", solve)
    assert main(["table1", "--levels", "8", "--exact-dim", "24", "--check"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "varpert: exact_dim must be >= 28 for 8 levels, got 24\n"


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


def test_table_cells_equal_the_closed_form_totals():
    # each column reads all four estimates off energy_present and
    # energy_conventional_pt(..., 2); their e_first equals the order-1 totals
    b_values = (0.0, 1e-6, 0.05, 0.25, 1e4, 1e30)
    doc = run_table(RunConfig("sweep", b_values=b_values, n_levels=4,
                              output_format="json"))
    blocks = json.loads(doc.text)["report"]["blocks"]
    assert [block["level"] for block in blocks] == [0, 1, 2, 3]
    for block in blocks:
        n = block["level"]
        assert [col["b"] for col in block["columns"]] == list(b_values)
        for col in block["columns"]:
            spec = make_anharmonic_spec(reports.STIFFNESS_K, col["b"])
            cells = {m: c["value"] for m, c in col["cells"].items()}
            assert cells["variational"] == energy_variational(spec, n).e_total
            assert cells["present"] == energy_present(spec, n).e_total
            assert cells["conventional_pt1"] == energy_conventional_pt(
                spec, n, 1).e_total
            assert cells["conventional_pt2"] == energy_conventional_pt(
                spec, n, 2).e_total


def test_table1_solves_each_cubic_once(monkeypatch, capsys):
    calls = []
    newton = anharmonic._newton

    def counted(spec, n):
        calls.append((spec.quartic_b, n))
        return newton(spec, n)

    monkeypatch.setattr(anharmonic, "_newton", counted)
    assert main(["table1"]) == 0
    # one Newton solve per column: shooting takes its first trial from the
    # present energy, whose root the column's spec already keeps
    assert sorted(calls) == [(0.01, 0), (0.05, 0), (0.25, 0)]


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


@pytest.mark.parametrize("argv", [
    ["table1", "--b", "1e10"], ["table1", "--b", "1e30"],
    ["table1", "--b", "1e300"], ["sweep", "--levels", "7", "--b", "2e269"]])
def test_cli_check_passes_at_huge_b(argv, capsys):
    # the oracles agree to a few ulps of E here, more than 1e-5 eV: the
    # absolute bound alone failed these from b = 1e30 on, and 8 ulps failed
    # level 6 at 2e269 (17.2 ulps)
    assert main([*argv, "--check"]) == 0
    assert capsys.readouterr().err == ""


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


def test_cli_constants_override(capsys):
    assert main(["table1", "--b", "0.05", "--kappa", "4"]) == 0
    assert "kappa = 4" in capsys.readouterr().out


def test_cli_rejects_infinite_constant(monkeypatch, capsys):
    # refused by AnharmonicSpec before anything is solved
    def unsolved(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(reports, "energy_present", unsolved)
    assert main(["table1", "--b", "0.05", "--kappa", "inf"]) == 2
    err = capsys.readouterr().err
    assert "kappa must be finite and > 0, got inf" in err
    assert "e_total" not in err


def test_cli_answers_promptly_where_shooting_left_the_float_range(
        capsys, time_limit):
    # b / kappa overflows in Angstrom: this never exited, and was then
    # refused; in the length unit fitted to the level it answers the
    # pure-quartic ground state kappa^(2/3) b^(1/3) e_0 (Hioe & Montroll)
    with time_limit(1.0):
        assert main(["table1", "--b", "1e300", "--kappa", "1e-9",
                     "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    level = report["blocks"][0]["columns"][0]["cells"]["exact"]["value"]
    assert level == pytest.approx(1.060362090484e94, rel=1e-9, abs=0.0)


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


def test_cli_check_cross_checks_unreferenced_columns(monkeypatch, capsys):
    # no published cell at b = 1e4, but the two oracles are still compared;
    # a diagonalization 1e-4 eV off is caught there
    diag = reports.diag_eigenvalues

    def shifted(*args, **kwargs):
        return [e + 1e-4 for e in diag(*args, **kwargs)]

    monkeypatch.setattr(reports, "diag_eigenvalues", shifted)
    assert main(["table1", "--b", "10000", "--check"]) == 2
    err = capsys.readouterr().err
    assert "vs diagonalization" in err
    assert "b=10000.0" in err


def test_cli_check_names_each_wrong_divergence_flag(monkeypatch, capsys):
    # with every flag flipped, b = 0.25 loses the flag it must carry and
    # the two referenced order-2 columns gain one they must not carry
    flag = reports.pt_divergent
    monkeypatch.setattr(reports, "pt_divergent",
                        lambda spec, n: not flag(spec, n))
    assert main(["table1", "--check"]) == 2
    err = capsys.readouterr().err
    assert ("n=0 b=0.25: order-2 perturbation theory should be flagged "
            "divergent") in err
    for b in (0.01, 0.05):
        assert (f"n=0 b={b}: order-2 perturbation theory unexpectedly "
                "flagged divergent") in err
    # Table 3's order-2 cell is held to the same flag
    assert main(["table3", "--check"]) == 2
    assert ("n=1 b=0.05: order-2 perturbation theory unexpectedly flagged "
            "divergent") in capsys.readouterr().err


def test_cli_check_names_an_unconverged_diagonalization(capsys):
    # 24 states hold the hbar Omega_0 basis at b = 1e4 to a tail weight of
    # 1.4e-3: the check now refuses it, where this used to exit 0
    argv = ["table1", "--levels", "1", "--exact-dim", "24", "--b", "1e4"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main([*argv, "--check"]) == 2
    out, err = capsys.readouterr()
    assert out == plain
    lines = err.splitlines()
    assert len(lines) == 1
    assert "diagonalization oracle failed: level n=0 keeps" in lines[0]


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
    def explode(spec, n, energy_tol):
        raise ConvergenceError("forced failure", n=n)

    monkeypatch.setattr(reports, "shoot_eigenvalue", explode)
    assert main(["table1", "--b", "0.05"]) == 3
    assert "unconverged" in capsys.readouterr().out


def test_cli_table1_at_huge_b_finishes(capsys):
    # E_0 is the pure-quartic limit kappa^(2/3) b^(1/3) e_0
    assert main(["table1", "--b", "1e40"]) == 0
    assert "| exact | 5.572749e+13 |" in capsys.readouterr().out


def test_cli_levels_flag(capsys):
    assert main(["table3", "--b", "0.05", "--levels", "2"]) == 0
    out = capsys.readouterr().out
    assert "## level n = 1" in out and "## level n = 2" in out


def test_table2_markdown_shows_unconverged_note(monkeypatch, capsys):
    # the bracket stops at 8 ulps of E whatever the tolerance, so no
    # --exact-tol exhausts the budget and the failure is forced
    def exhausted(spec, n, energy_tol):
        raise ConvergenceError(f"search budget exhausted for level n={n}", n=n)

    monkeypatch.setattr(reports, "shoot_eigenvalue", exhausted)
    assert main(["table2", "--b", "0.05"]) == 3
    out = capsys.readouterr().out
    assert ("| exact | nan [unconverged: search budget exhausted for level "
            "n=0] | |") in out


def test_table2_csv_shows_unconverged_note(monkeypatch, capsys):
    # an exact row carries the note that explains the empty percents
    def exhausted(spec, n, energy_tol):
        raise ConvergenceError(f"search budget exhausted for level n={n}", n=n)

    monkeypatch.setattr(reports, "shoot_eigenvalue", exhausted)
    assert main(["table2", "--b", "0.05", "--format", "csv"]) == 3
    out = capsys.readouterr().out
    assert ("\ntable2,0,0.05,exact,,nan,,unconverged: search budget exhausted "
            "for level n=0\n") in out


@pytest.mark.parametrize("flag", [["--kappa", "4"],
                                  ["--exact-dim", "9999"]])
def test_cli_helium_rejects_table_only_flags(flag, capsys):
    # helium reads neither option, so argparse refuses them
    with pytest.raises(SystemExit) as exc:
        main(["helium", *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_parser_is_built_once_and_leaves_defaults_to_run_config():
    assert build_parser() is build_parser()
    assert vars(build_parser().parse_args(["table1"])) == {"command": "table1"}
    args = build_parser().parse_args(["helium", "--n-max", "3", "--check"])
    assert RunConfig(**vars(args)) == RunConfig("helium", n_max_helium=3,
                                                check=True)


# every method a (level, b) column holds, and the rows each command shows
METHODS = {"conventional_pt1", "conventional_pt2", "variational", "present",
           "exact", "half_m_omega2"}
TABLE2_GRID = {("conventional", "1"): "conventional_pt1",
               ("conventional", "2"): "conventional_pt2",
               ("present", "1"): "variational", ("present", "2"): "present"}
SHOWN_IN_CSV = {"table1": METHODS - {"conventional_pt1"},
                "table3": METHODS - {"conventional_pt1"},
                "sweep": METHODS, "table2": set(TABLE2_GRID.values())}
MD_CELL = re.compile(r"^(\S+)(?: \((-?[\d.]+)%\))?(?: \[(.*)\])?$")


def _json_cells(text):
    return Counter(
        (block["level"], f"{col['b']:.7g}", method, f"{c['value']:.7g}",
         c["percent"], c["note"])
        for block in json.loads(text)["report"]["blocks"]
        for col in block["columns"] for method, c in col["cells"].items())


def _csv_cells(command, text):
    cells = Counter()
    for row in text.splitlines()[1:]:
        if command == "table2":
            name, level, b, scheme, order, value, percent, note = row.split(",", 7)
            method = TABLE2_GRID[scheme, order]
        else:
            name, level, b, method, value, percent, note = row.split(",", 6)
        assert name == command
        cells[int(level), b, method, value, percent, note] += 1
    return cells


def _markdown_cells(command, text):
    cells = Counter()
    for line in text.splitlines():
        if line.startswith("## level n = "):
            m = re.match(r"## level n = (\d+)(?:, b = (\S+))? ", line)
            level, b = int(m[1]), m[2]
        elif line.startswith("| method |"):
            bs = [h.strip().removeprefix("b=") for h in line.split("|")[2:-1]]
        elif line.startswith("| ") and not line.startswith(("| scheme", "| ---")):
            name, *texts = [f.strip() for f in line.split("|")[1:-1]]
            if command != "table2":
                entries = [(name, col_b, t) for col_b, t in zip(bs, texts)]
            elif name == "exact":
                entries = [("exact", b, texts[0])]
            else:
                entries = [(TABLE2_GRID[name, order], b, t)
                           for order, t in zip("12", texts)]
            for method, col_b, txt in entries:
                value, percent, note = MD_CELL.match(txt).groups()
                cells[level, col_b, method, value, percent or "",
                      note or ""] += 1
    return cells


@pytest.mark.parametrize("extra, status, n_columns", [
    # one level at the default b values; two levels of two columns each;
    # one column whose conventional cells are refused
    ([], 0, None), (["--b", "0.05", "0.05", "--levels", "2"], 0, 2 * 2),
    (["--b", "4e307"], 3, 1)], ids=["defaults", "repeated_b", "refused_b"])
@pytest.mark.parametrize("command", ["table1", "table2", "table3", "sweep"])
def test_formats_carry_the_same_cells(command, extra, status, n_columns,
                                      capsys):
    outputs = {}
    for fmt in ("markdown", "csv", "json"):
        assert main([command, *extra, "--format", fmt]) == status
        outputs[fmt] = capsys.readouterr().out
    every = _json_cells(outputs["json"])
    n_columns = n_columns or len(reports.DEFAULT_B[command])
    assert sum(every.values()) == n_columns * len(METHODS)

    def shown(methods):
        return Counter({k: v for k, v in every.items() if k[2] in methods})

    csv_methods = SHOWN_IN_CSV[command]
    md_methods = csv_methods | {"exact"}
    assert _csv_cells(command, outputs["csv"]) == shown(csv_methods)
    assert _markdown_cells(command, outputs["markdown"]) == shown(md_methods)


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
def test_huge_percent_prints_without_noise_digits(fmt, capsys):
    # the divergent conventional_pt2 cell at b = 1e100 is -9.9e169 % of
    # exact, which three decimals printed as 175 characters
    assert main(["table1", "--b", "1e100", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert "-9.908074e+169" in out
    assert "99.177" in out and "102.011" in out
    assert not re.search(r"\d{18}", out)


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
@pytest.mark.parametrize("argv, flagged", [
    (["table1", "--b", "1e-40", "0"], 0),
    (["sweep", "--levels", "3", "--b", "2e269"], 3)])
def test_divergence_notes_follow_the_second_order_sum(argv, flagged, fmt,
                                                     capsys):
    # rounding noise in the x^2 coefficient flagged n = 0 at b = 1e-40, and
    # the nan sum at n = 2 for b = 2e269 went unflagged
    assert main([*argv, "--format", fmt]) == 0
    assert capsys.readouterr().out.count("divergent") == flagged


def test_percent_keeps_three_decimals_below_1e12():
    # the oscillator-table benchmark prints percents up to about 4.1e10
    # and parses them as -?[\d.]+
    assert reports._percent(4.1e10) == "41000000000.000"
    assert reports._percent(-999999999999.0) == "-999999999999.000"
    assert reports._percent(1e12) == "1e+12"
    assert reports._percent(-2.5e15) == "-2.5e+15"


@pytest.mark.parametrize("command, answers", [
    ("table1", (9.024095e102, 8.773425e102, 8.846188e102)),
    ("table2", (9.024095e102, 8.773425e102, 8.846188e102)),
    ("table3", (3.209774e103, 3.156278e103, 3.169919e103)),
    ("sweep", (9.024095e102, 8.773425e102, 8.846188e102))])
def test_a_refused_method_annotates_only_its_own_cells(command, answers,
                                                      capsys):
    # conventional order 1 overflows at b = 4e307, which exited 2 with no
    # table; the variational, present and exact cells answer there (the
    # other formats carry the same cells: test_formats_carry_the_same_cells)
    assert main([command, "--b", "4e307", "--format", "json"]) == 3
    block = json.loads(capsys.readouterr().out)["report"]["blocks"][0]
    cells = block["columns"][0]["cells"]
    note = f"refused: quartic_b=4e+307 overflows E1 for n={block['level']}"
    for method in ("conventional_pt1", "conventional_pt2"):
        assert math.isnan(cells[method]["value"])
        assert (cells[method]["percent"], cells[method]["note"]) == ("", note)
    for method, value in zip(("variational", "present", "exact"), answers):
        assert cells[method]["value"] == pytest.approx(value, rel=1e-6)
    assert all(c["note"] == "" for m, c in cells.items()
               if not m.startswith("conventional"))


def test_table2_carries_the_refusal_to_both_conventional_cells(capsys):
    note = "refused: quartic_b=4e+307 overflows E1 for n=0"
    assert main(["table2", "--b", "4e307"]) == 3
    assert f"| conventional | nan [{note}] | nan [{note}] |" in (
        capsys.readouterr().out)
    assert main(["table2", "--b", "4e307", "--format", "csv"]) == 3
    csv = capsys.readouterr().out
    for order in (1, 2):
        assert f"\ntable2,0,4e+307,conventional,{order},nan,,{note}\n" in csv


def test_a_refused_cell_makes_main_exit_3(monkeypatch, capsys):
    def refuse(spec, n):
        raise ValueError(f"forced refusal at n={n}")

    monkeypatch.setattr(reports, "energy_present", refuse)
    assert main(["table1", "--b", "0.05", "--format", "json"]) == 3
    cells = json.loads(capsys.readouterr().out)["report"]["blocks"][0][
        "columns"][0]["cells"]
    assert math.isnan(cells["present"]["value"])
    assert cells["present"]["note"] == "refused: forced refusal at n=0"
    # shooting reads the present energy through its own module, and answers
    assert cells["exact"]["value"] == pytest.approx(1.5922191, abs=1e-7)
    assert cells["variational"]["percent"] == "100.293"


def test_check_reports_a_refused_exact_cell_against_diagonalization(
        monkeypatch, capsys):
    # abs(nan - diag) > tol is False, so a refused shot read as agreement
    def refuse(spec, n, energy_tol):
        raise ValueError(f"forced refusal at n={n}")

    monkeypatch.setattr(reports, "shoot_eigenvalue", refuse)
    assert main(["table1", "--b", "1e4", "--check"]) == 3
    err = capsys.readouterr().err
    diag = diag_eigenvalues(make_anharmonic_spec(0.5, 1e4),
                            dim=RunConfig("table1").exact_dim, n_levels=1)[0]
    assert (f"check failed: n=0 b=10000.0: shooting nan vs diagonalization "
            f"{diag:.7g} beyond ") in err


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
@pytest.mark.parametrize("argv, level, value", [
    (["table1", "--b", "1e300"], 0, "-inf"),
    # the id keeps "nan", what this cell read while order 2 was the
    # four-term sum (inf - inf); the closed-form cubic reads -inf
    pytest.param(["table3", "--levels", "3", "--b", "1e300"], 2, "-inf",
                 id="argv1-2-nan")])
def test_a_non_finite_value_carries_no_percent(argv, level, value, fmt,
                                               capsys):
    # these printed "-inf" and "nan" as percents of exact
    assert main([*argv, "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        [block] = [b for b in json.loads(out)["report"]["blocks"]
                   if b["level"] == level]
        cell = block["columns"][0]["cells"]["conventional_pt2"]
        assert (cell["percent"], cell["note"]) == ("", "divergent")
    elif fmt == "csv":
        assert (f"\n{argv[0]},{level},1e+300,conventional_pt2,{value},,"
                "divergent\n") in out
    else:
        assert f"| conventional_pt2 | {value} [divergent] |" in out


# a sweep of four levels takes about 3 ms, so fewer draws than the profile's
@settings(max_examples=300)
@given(b=st.floats(0.0, sys.float_info.max))
@example(b=3.15e307)
@example(b=4e307)
@example(b=sys.float_info.max)
def test_every_cell_answers_or_says_why(b):
    # levels 0-3 at any b the float range holds, the conventional orders
    # refusing from b = 3.15e307 on
    doc = run_table(RunConfig("sweep", b_values=(b,), n_levels=4,
                              output_format="json"))
    blocks = json.loads(doc.text)["report"]["blocks"]
    cells = [c for block in blocks for col in block["columns"]
             for c in col["cells"].values()]
    assert len(cells) == 4 * len(METHODS)
    assert all(math.isfinite(c["value"]) or c["note"] for c in cells)
    assert all(c["percent"] == "" or math.isfinite(c["value"]) for c in cells)
    assert doc.convergence_failed == any(
        c["note"].startswith(("refused: ", "unconverged: ")) for c in cells)
