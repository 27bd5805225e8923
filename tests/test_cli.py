"""CLI: exit codes, report schema, determinism, figure data files."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import jsonschema
except ImportError:  # optional: without it only report_of's schema check is left out
    jsonschema = None

from conftest import FIXTURE_DIR

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "src/hostcap/report_schema.json").read_text()
)


def run_cli(*args, env=None, text=True):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "hostcap.cli", *args],
        capture_output=True,
        text=text,
        env=full_env,
        cwd=str(FIXTURE_DIR.parent),
    )


def report_of(proc):
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    if jsonschema is not None:
        jsonschema.validate(rep, SCHEMA)
    return rep


def test_solve_three_bus():
    rep = report_of(run_cli("solve", "fixtures/3bus.case"))
    assert rep["result"]["hc_total"] == pytest.approx(0.0625, abs=1e-9)
    assert rep["result"]["magnitudes"] == pytest.approx([1.0, 1.05, 0.95])
    assert rep["command"] == "solve"


def test_solve_degenerate_box():
    rep = report_of(run_cli("solve", "--vmax", "1.0", "--vmin", "1.0", "fixtures/3bus.case"))
    assert rep["result"]["hc_total"] == pytest.approx(0.0, abs=1e-12)


def test_solve_with_eta_and_cut_reports_pf_stage_and_partition():
    rep = report_of(
        run_cli("solve", "--eta", "0.95", "--cut", "4", "--timings", "fixtures/8bus_pf.case")
    )
    assert any(s["stage"] == "pf_adjusted" for s in rep["stages"])
    assert rep["partition"]["cuts"] == [4]
    assert rep["partition"]["hc_distributed"] == pytest.approx(
        rep["partition"]["hc_monolithic"], abs=1e-8
    )
    assert "monolithic_ms" in rep["timings"] and "distributed_ms" in rep["timings"]


def test_missing_file_is_input_error():
    proc = run_cli("solve", "no_such.case")
    assert proc.returncode == 1
    assert "error" in proc.stderr


def test_malformed_case_is_input_error(tmp_path):
    bad = tmp_path / "bad.case"
    bad.write_text("BASE 1 1\nBUS zero slack 0 0 0\n")
    proc = run_cli("solve", str(bad))
    assert proc.returncode == 1


def test_reports_are_byte_identical():
    a = run_cli("solve", "--workers", "1", "fixtures/8bus.case")
    b = run_cli("solve", "--workers", "1", "fixtures/8bus.case")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_hc_identical_across_worker_counts():
    values = []
    for w in ("1", "2", "4", "8"):
        rep = report_of(run_cli("solve", "--cut", "16,73", "--workers", w, "fixtures/123bus.case"))
        values.append(rep["result"]["hc_total"])
    assert len(set(values)) == 1  # exactly identical, not merely close


def test_oracle_three_bus(tmp_path):
    rep = report_of(
        run_cli(
            "oracle",
            "fixtures/3bus.case",
            "--grid-steps",
            "101",
            "--outdir",
            str(tmp_path),
        )
    )
    osec = rep["oracle"]
    assert osec["agreement"] is True
    assert abs(osec["hc_oracle"] - osec["hc_solver"]) <= osec["epsilon_grid"]
    pairs = list(csv.DictReader(open(tmp_path / "pairs.csv")))
    max_rows = [r for r in pairs if r["is_max"] == "1"]
    assert len(max_rows) == 1
    assert float(max_rows[0]["p1_pu"]) == pytest.approx(0.1575, abs=1e-9)
    assert float(max_rows[0]["p2_pu"]) == pytest.approx(-0.095, abs=1e-9)
    surface = list(csv.DictReader(open(tmp_path / "surface.csv")))
    smax = [r for r in surface if r["is_max"] == "1"][0]
    assert float(smax["v1_pu"]) == pytest.approx(1.05)
    assert float(smax["v2_pu"]) == pytest.approx(0.95)


def test_oracle_needs_two_free_buses(tmp_path):
    proc = run_cli("oracle", "fixtures/4bus.case", "--outdir", str(tmp_path))
    assert proc.returncode == 1
    assert "two free buses" in proc.stderr


@pytest.mark.parametrize(
    "fixture,method",
    [
        ("8bus_balanced.case3", "HC model"),
        ("8bus_unbalanced_load.case3", "sequence load current"),
        ("8bus_untransposed.case3", "sequence line model"),
    ],
)
def test_unbalanced_method_labels(fixture, method):
    rep = report_of(run_cli("unbalanced", f"fixtures/{fixture}"))
    assert rep["unbalanced"]["method"] == method


def test_unbalanced_decoupling_failure_exits_two(tmp_path):
    case = tmp_path / "coupled.case3"
    case.write_text(
        "BASE 1 1\n"
        "BUS3 0 slack 0 0 0 0 0 0 0\n"
        "BUS3 1 gen 0 0 0 0 0 0 1\n"
        "BRANCH3 0 1 "
        "0.06 0.012 0.0 0.0 0.05 0.01 "
        "0.0 0.0 0.06 0.012 0.01 0.002 "
        "0.05 0.01 0.01 0.002 0.06 0.012\n"
    )
    proc = run_cli("unbalanced", str(case))
    assert proc.returncode == 2
    assert "coupling" in proc.stderr


def test_screen_json_and_csv():
    rep = report_of(run_cli("screen", "fixtures/3bus.case", "--step", "0.01"))
    assert {row["bus"] for row in rep["screening"]} == {1, 2}
    proc = run_cli("screen", "fixtures/3bus.case", "--step", "0.01", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("bus,hc_pu")
    assert len(lines) == 3


def test_screen_csv_output_file_gets_the_stdout_bytes(tmp_path):
    out = tmp_path / "screen.csv"
    proc = run_cli(
        "screen", "fixtures/3bus.case", "--step", "0.01", "--format", "csv", "--output", str(out),
        text=False,
    )
    assert proc.returncode == 0
    assert out.read_bytes() == proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--vmax", "abc", "fixtures/3bus.case"),
        ("partition-bench", "fixtures/123bus.case", "--cut", "16,73"),
        ("unbalanced", "fixtures/8bus_balanced.case3", "--timings"),
    ],
)
def test_usage_error_is_input_error(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage: hostcap")
    assert "error:" in proc.stderr


def test_log_env_controls_stderr():
    proc = run_cli(
        "solve", "--cut", "3,4", "fixtures/8bus.case", env={"HOSTCAP_LOG": "WARNING"}
    )
    # cut-adjacent thermal limits force the logged monolithic fallback
    assert proc.returncode == 0
    assert "fell back" in proc.stderr


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "hostcap" in proc.stdout


def test_infeasible_solve_exits_two(tmp_path):
    case = tmp_path / "tight.case"
    case.write_text(
        "BASE 1 1\n"
        "BUS 0 slack 0 0 0\n"
        "BUS 1 gen 0 0 1\n"
        "BUS 2 gen 0 0 1\n"
        "BRANCH 0 1 0.05 0.02\n"
        "BRANCH 1 2 0.05 0.02 1e-6\n"
    )
    proc = run_cli("solve", "--theta-max", "0.1", str(case))
    assert proc.returncode == 2
    assert "infeasible" in proc.stderr


def test_limits_record_supplies_defaults_and_flags_override(tmp_path):
    case = tmp_path / "lim.case"
    case.write_text(
        "BASE 1 1\n"
        "LIMITS 0.97 1.03\n"
        "BUS 0 slack 0 0 0\n"
        "BUS 1 gen 0 0 1\n"
        "BUS 2 gen 0 0 1\n"
        "BRANCH 0 1 1 0\n"
        "BRANCH 1 2 1 0\n"
    )
    rep = report_of(run_cli("solve", str(case)))
    assert rep["constraints"]["v_max"] == 1.03
    rep = report_of(run_cli("solve", "--vmax", "1.05", str(case)))
    assert rep["constraints"]["v_max"] == 1.05


def test_case3_limits_record_supplies_defaults_and_flags_override(tmp_path):
    case = tmp_path / "lim.case3"
    case.write_text("LIMITS 0.95 1.05 0.01\n" + (FIXTURE_DIR / "8bus_balanced.case3").read_text())
    rep = report_of(run_cli("unbalanced", str(case)))
    assert rep["constraints"]["theta_max"] == 0.01
    rep = report_of(run_cli("unbalanced", "--theta-max", "0", str(case)))
    assert rep["constraints"]["theta_max"] == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "4bus_thermal.case", "--cut", "1"],
        ["oracle", "3bus.case", "--grid-steps", "5"],
        ["unbalanced", "8bus_balanced.case3"],
        ["screen", "3bus.case", "--step", "0.1"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_command_reads_the_case_text_once(tmp_path, monkeypatch, capsys, argv):
    import hostcap.cli
    import hostcap.netmodel

    reads = []
    tokens = hostcap.netmodel._tokens

    def counting(text):
        reads.append(None)
        return tokens(text)

    monkeypatch.setattr(hostcap.netmodel, "_tokens", counting)
    case = tmp_path / argv[1]
    case.write_text("LIMITS 0.96 1.04\n" + (FIXTURE_DIR / argv[1]).read_text())
    outdir = ["--outdir", str(tmp_path)] if argv[0] == "oracle" else []
    assert hostcap.cli.main([argv[0], str(case), *argv[2:], *outdir]) == 0
    assert len(reads) == 1
    assert json.loads(capsys.readouterr().out)["constraints"]["v_max"] == 1.04


def test_oracle_refuses_before_the_grid_search(tmp_path, monkeypatch, capsys):
    import hostcap.cli

    def no_grid(*args, **kwargs):
        raise AssertionError("the grid search ran on a case the surface refuses")

    monkeypatch.setattr(hostcap.cli, "grid_search_hc", no_grid)
    outdir = tmp_path / "out"
    code = hostcap.cli.main(["oracle", str(FIXTURE_DIR / "4bus.case"), "--outdir", str(outdir)])
    assert code == 1
    assert "error: surface sampling needs exactly two free buses, got 3" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "cut,message",
    [("0", "cut on slack bus"), ("2", "cut bus 2 is a leaf and splits nothing"), ("9", "unknown cut bus 9")],
    ids=["slack", "leaf", "unknown"],
)
def test_invalid_cut_is_an_input_error_before_any_solve(tmp_path, monkeypatch, capsys, cut, message):
    # the case of test_infeasible_solve_exits_two: a solve would report "infeasible" first
    import hostcap.cli

    case = tmp_path / "tight.case"
    case.write_text(
        "BASE 1 1\n"
        "BUS 0 slack 0 0 0\n"
        "BUS 1 gen 0 0 1\n"
        "BUS 2 gen 0 0 1\n"
        "BRANCH 0 1 0.05 0.02\n"
        "BRANCH 1 2 0.05 0.02 1e-6\n"
    )
    solves = []
    solve = hostcap.cli.solve_hc_stages
    monkeypatch.setattr(hostcap.cli, "solve_hc_stages", lambda *a: solves.append(a) or solve(*a))
    code = hostcap.cli.main(["solve", "--theta-max", "0.1", str(case), "--cut", cut])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert solves == []


THREE_BUS = (FIXTURE_DIR / "3bus.case").read_text()


@pytest.mark.parametrize(
    "command,text,flags",
    [
        ("solve", THREE_BUS, ["--theta-max", "nan"]),
        ("solve", THREE_BUS, ["--vmax", "inf"]),
        ("solve", THREE_BUS.replace("BRANCH 1 2 1.0 0.0", "BRANCH 1 2 nan 0.01"), []),
        ("solve", THREE_BUS.replace("BUS 2 gen   0.0 0.0 1.0", "BUS 2 gen   0.0 0.0 nan"), []),
        ("solve", THREE_BUS.replace("BRANCH 1 2 1.0 0.0", "BRANCH 1 2 1.0 0.0 inf"), []),
        ("solve", THREE_BUS.replace("BASE 1.0 12.47", "BASE inf 12.47"), []),
        ("solve", "LIMITS 0.95 1.05 nan\n" + THREE_BUS, []),
        ("solve", THREE_BUS + "SHUNT 2 nan 0\n", []),
        ("unbalanced", (FIXTURE_DIR / "8bus_balanced.case3").read_text().replace(" 0.0 1.0\n", " 0.0 nan\n", 1), []),
    ],
    ids=["theta_nan", "vmax_inf", "branch_r_nan", "lambda_nan", "thermal_inf",
         "base_inf", "limits_nan", "shunt_nan", "case3_lambda_nan"],
)
def test_non_finite_input_is_an_input_error(tmp_path, capsys, command, text, flags):
    import hostcap.cli

    case = tmp_path / ("in.case3" if command == "unbalanced" else "in.case")
    case.write_text(text)
    code = hostcap.cli.main([command, str(case), *flags])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_screen_refuses_a_non_finite_step(capsys, step):
    import hostcap.cli

    code = hostcap.cli.main(["screen", "--step", step, str(FIXTURE_DIR / "3bus.case")])
    assert code == 1
    assert capsys.readouterr() == ("", "error: step must be positive and finite\n")


def test_output_in_a_missing_directory_is_an_input_error(tmp_path, capsys):
    import hostcap.cli

    out = tmp_path / "missing" / "r.json"
    code = hostcap.cli.main(["solve", str(FIXTURE_DIR / "3bus.case"), "--output", str(out)])
    assert code == 1
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith("error: ") and str(out) in stderr and stderr.count("\n") == 1


def test_outdir_below_a_regular_file_is_an_input_error(tmp_path, capsys):
    import hostcap.cli

    (tmp_path / "file").write_text("")
    outdir = tmp_path / "file" / "figures"
    code = hostcap.cli.main(["oracle", str(FIXTURE_DIR / "3bus.case"), "--outdir", str(outdir)])
    assert code == 1
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith("error: ") and str(outdir) in stderr and stderr.count("\n") == 1
