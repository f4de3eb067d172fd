"""Command-line front-end tests: exit codes, CSV/JSON schema, determinism."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ergoflux as ef
import ergoflux.cli as cli


def run(*argv):
    return cli.run(list(argv))


def test_scenario_pinned_row(capsys):
    assert run("scenario", "--case", "ii", "--p", "0", "--theta", "1.5708") == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "# units: energies in hbar*omega0, times in 1/gamma"
    assert lines[1] == "theta,p,work,yield,tau_opt,flag"
    assert lines[2] == "1.5708,0,0.249999999997,0.499998163397,nan,0"


def test_module_entry_point_runs_the_cli():
    # a source checkout without the console script runs the CLI as a module
    src = str(Path(ef.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ergoflux.cli", "scenario", "--case", "ii", "--theta", "1.5708"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "1.5708,0,0.249999999997,0.499998163397,nan,0"


@pytest.mark.parametrize("ndot", ["0.015624999999999993", "0.015625000000000007"])
def test_scenario_next_to_critical_damping(ndot, capsys):
    # ndot = 1/64 puts the drive at gamma = 4 rabi; its neighbours must agree with it
    assert run("scenario", "--case", "i", "--theta", "2", "--ndot", ndot) == 0
    row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
    assert row[2] == "0.295042653595"


def test_scenario_csv_roundtrip(tmp_path):
    out = tmp_path / "row.csv"
    assert run("scenario", "--case", "i", "--theta", "2.0", "--ndot", "4.0", "--out", str(out)) == 0
    d = np.genfromtxt(out, delimiter=",", names=True, comments="#", skip_header=1)
    res = ef.scenario_continuous(ef.Preparation(p=0.0, theta=2.0), 4.0)
    assert float(d["work"]) == pytest.approx(res.work, rel=1e-10)
    assert float(d["tau_opt"]) == pytest.approx(res.tau_opt, rel=1e-10)
    assert float(d["ndot"]) == 4.0
    assert float(d["flag"]) == 0.0


def test_scenario_validation_failures(capsys):
    assert run("scenario", "--case", "ii", "--theta", "4.0") == 1  # theta out of range
    assert run("scenario", "--case", "nope", "--theta", "1.0") == 1  # bad choice
    assert run("scenario", "--theta", "1.0") == 1  # missing case
    assert run("scenario", "--case", "i", "--theta", "1.0") == 1  # missing ndot
    assert run("scenario", "--case", "ii", "--theta", "1.0", "--bogus", "2") == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--case", "i", "--ndot", "nan"], "photon_rate_ratio"),
        (["--case", "i", "--ndot", "inf"], "photon_rate_ratio"),
        (["--case", "iii", "--nbar", "nan", "--tau", "1"], "n_bar"),
        (["--case", "iii", "--nbar", "1", "--tau", "nan"], "tau"),
        (["--case", "iii", "--nbar", "inf", "--tau", "1"], "n_bar"),
    ],
)
def test_scenario_rejects_non_finite_parameters(flags, name, capsys):
    assert run("scenario", "--theta", "2", *flags) == 1
    assert f"error: {name} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec",
    [
        ["--case", "iii", "--nbar-log", "-1", "1", "2", "--tau", "nan"],
        ["--case", "i", "--ndot-log", "300", "400", "2"],  # 1e300 and an overflow to inf
    ],
)
def test_sweep_flags_non_finite_cells(spec, tmp_path):
    out = tmp_path / "x.csv"
    assert run("sweep", "--theta", "0.5", "3", "2", *spec, "--out", str(out)) == 0
    d = np.genfromtxt(out, delimiter=",", names=True, comments="#", skip_header=1)
    assert len(d) == 4
    assert (d["flag"] == 1).all() and np.isnan(d["work"]).all()


def test_config_file_fills_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "ii", "p": 0.25, "theta": math.pi / 2.0}))
    assert run("scenario", "--config", str(cfg)) == 0
    row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
    assert float(row[2]) == pytest.approx(0.0625, abs=1e-9)

    # explicit flag beats the config value
    assert run("scenario", "--config", str(cfg), "--p", "0.0") == 0
    row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
    assert float(row[2]) == pytest.approx(0.25, abs=1e-9)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "ii", "theta": 1.0, "frobnicate": 1}))
    assert run("scenario", "--config", str(cfg)) == 1
    assert run("scenario", "--case", "ii", "--theta", "1", "--config", str(tmp_path / "no.json")) == 1
    capsys.readouterr()


def test_sweep_deterministic_and_well_formed(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = (
        "sweep", "--case", "iii",
        "--theta", "0.5", "2.5", "4",
        "--nbar-log", "-1", "1", "3",
        "--tau", "1.0",
        "--out",
    )
    assert run(*args, str(a)) == 0
    assert run(*args, str(b)) == 0
    assert a.read_bytes() == b.read_bytes()

    d = np.genfromtxt(a, delimiter=",", names=True, comments="#", skip_header=1)
    assert d.dtype.names == ("theta", "nbar", "work", "yield", "tau_opt", "flag")
    assert len(d) == 12
    # theta-major ordering with the log axis inside
    assert np.allclose(d["theta"][:3], 0.5)
    assert np.allclose(d["nbar"][:3], np.logspace(-1, 1, 3))
    res = ef.scenario_pulsed(ef.Preparation(p=0.0, theta=0.5), 0.1, 1.0)
    assert float(d["work"][0]) == pytest.approx(res.work, rel=1e-10)


def test_sweep_axis_validation(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    # only one axis
    assert run("sweep", "--case", "ii", "--theta", "0", "3", "5", "--out", out) == 1
    # three axes
    assert (
        run(
            "sweep", "--case", "iii",
            "--theta", "0", "3", "4",
            "--nbar", "0.1", "1", "3",
            "--tau", "0.5", "2", "3",
            "--out", out,
        )
        == 1
    )
    # linear and log spec for the same axis
    assert (
        run(
            "sweep", "--case", "iii",
            "--theta", "0", "3", "4",
            "--nbar", "1.0",
            "--nbar-log", "-1", "1", "3",
            "--tau", "1.0",
            "--out", out,
        )
        == 1
    )
    # sweeps are file-only
    assert run("sweep", "--case", "ii", "--theta", "0", "3", "4", "--p", "0", "0.5", "3") == 1
    # the continuous case has no photon rate to run at
    assert run("sweep", "--case", "i", "--theta", "0.5", "3", "3", "--p", "0", "0.2", "2", "--out", out) == 1
    assert not os.path.exists(out)
    capsys.readouterr()


def test_optimize_summary_and_waveform(tmp_path, capsys):
    out = tmp_path / "pulse.csv"
    code = run(
        "optimize", "--p", "0", "--theta", "2.0", "--nbar", "0.3",
        "--horizon", "5", "--nodes", "48", "--starts", "1", "--seed", "1",
        "--out", str(out),
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["charge"] == pytest.approx(0.3, rel=1e-9)
    assert 0.0 < summary["work"] <= ef.ergotropy(ef.Preparation(p=0.0, theta=2.0)) + 1e-9
    assert isinstance(summary["converged"], bool)
    assert isinstance(summary["message"], str) and summary["message"]
    assert len(summary["start_objectives"]) == 1

    d = np.genfromtxt(out, delimiter=",", names=True, comments="#", skip_header=1)
    assert d.dtype.names == ("time", "rabi")
    assert len(d) == 48
    assert d["time"][0] == 0.0 and d["time"][-1] == 5.0
    assert (d["rabi"] >= 0.0).all()


def test_optimize_csv_is_byte_reproducible(tmp_path, capsys):
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        assert run(
            "optimize", "--theta", "2.0", "--nbar", "0.3", "--horizon", "5",
            "--nodes", "48", "--starts", "2", "--out", str(out),
        ) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    capsys.readouterr()


def test_optimize_numerical_failure_exit_code(monkeypatch, capsys):
    def boom(*a, **k):
        raise ef.IntegrationAccuracyError("unstable")

    monkeypatch.setattr(cli, "solve_optimal_control", boom)
    assert run("optimize", "--theta", "2.0", "--nbar", "1.0") == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--starts", "0"], "n_starts"),
        (["--starts", "-3"], "n_starts"),
        (["--nbar", "nan"], "n_bar"),
        (["--nbar", "inf"], "n_bar"),
        (["--horizon", "inf"], "horizon"),
    ],
)
def test_optimize_bad_input_names_the_parameter(flags, name, capsys):
    argv = {"--theta": "2.0", "--nbar": "1.0"}
    argv.update(zip(flags[::2], flags[1::2]))
    assert run("optimize", *[v for kv in argv.items() for v in kv]) == 1
    assert capsys.readouterr().err.startswith(f"error: {name} must be")


def test_husimi_grid_matches_library(capsys):
    assert run("husimi", "--theta", "1.5708", "--re", "-1", "1", "3", "--im", "0", "1", "2") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("#")
    header = lines[1].split(",")
    assert header[0] == "q"
    assert [float(v) for v in header[1:]] == [-1.0, 0.0, 1.0]
    grid = ef.husimi(ef.output_state(1.5708), np.linspace(-1, 1, 3), np.linspace(0, 1, 2))
    row1 = [float(v) for v in lines[3].split(",")]
    assert row1[0] == 1.0
    assert row1[1:] == pytest.approx(list(grid.q[1]), rel=1e-10)


def test_verify_scale_suite(capsys):
    assert run("verify", "--suite", "scale-invariance") == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["suite"] == "scale-invariance"
    assert rep["passed"] is True
    assert rep["max_work_deviation"] <= rep["tolerance"]


def test_verify_failure_exit_code(monkeypatch, capsys):
    fake = SimpleNamespace(
        factors=np.array([0.1]),
        max_work_deviation=1.0,
        max_stopping_deviation=1.0,
        tolerance=1e-9,
        passed=False,
    )
    monkeypatch.setattr(cli, "scale_invariance_check", lambda *a, **k: fake)
    assert run("verify", "--suite", "scale-invariance") == 3
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is False


def test_verify_unknown_suite(capsys):
    assert run("verify", "--suite", "astrology") == 1
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert run("--help") == 0
    assert "ergoflux" in capsys.readouterr().out
