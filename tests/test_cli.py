"""Command-line front-end tests: exit codes, CSV/JSON schema, determinism."""
import json
import math
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
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


def _fresh_python(*args):
    """Run a new interpreter that imports ergoflux from this source tree."""
    src = str(Path(ef.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def test_module_entry_point_runs_the_cli():
    # a source checkout without the console script runs the CLI as a module
    proc = _fresh_python("-m", "ergoflux.cli", "scenario", "--case", "ii", "--theta", "1.5708")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "1.5708,0,0.249999999997,0.499998163397,nan,0"


def _readme_commands():
    """The ``ergoflux`` lines of the README's "Command line" block, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = (line.strip() for line in block.replace("\\\n", " ").splitlines())
    return [shlex.split(line)[1:] for line in lines if line.startswith("ergoflux ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_lines_run_clean(argv, tmp_path, capsys):
    path = None
    if "--out" in argv:
        i = argv.index("--out") + 1
        path = tmp_path / argv[i]
        argv = [*argv[:i], str(path), *argv[i + 1 :]]
    assert cli.run(argv) == 0
    text = path.read_text() if path else capsys.readouterr().out
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    if rows and rows[0][-1] == "flag":
        assert len(rows) > 1 and all(row[-1] == "0" for row in rows[1:])


_IMPORT_PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {}
import ergoflux
loaded["import ergoflux"] = scipy_modules()
import ergoflux.cli as cli
loaded["import ergoflux.cli"] = scipy_modules()
for argv in json.loads(sys.argv[1]):
    assert cli.run(argv) == 0, argv
    loaded[argv[0]] = scipy_modules()
print(json.dumps(loaded))
"""


def test_only_the_pulse_shaper_imports_scipy(tmp_path):
    # a fresh interpreter: other tests import scipy into this one
    out = str(tmp_path / "out.csv")
    commands = [
        ["scenario", "--case", "i", "--theta", "2", "--ndot", "4", "--out", out],
        ["sweep", "--case", "i", "--theta", "0.5", "2.5", "3", "--ndot-log", "-1", "1", "3", "--out", out],
        ["husimi", "--theta", "1", "--re", "-1", "1", "3", "--im", "-1", "1", "3", "--out", out],
        ["verify", "--suite", "scale-invariance", "--out", str(tmp_path / "v.json")],
        # the RK4 path of the audit: evolve_numeric and accumulate
        ["verify", "--suite", "conservation", "--cases", "2", "--out", str(tmp_path / "v.json")],
        ["verify", "--suite", "bound-scan", "--resolution", "20", "--out", str(tmp_path / "v.json")],
        ["optimize", "--theta", "1.5708", "--nbar", "0.1", "--nodes", "32", "--horizon", "5", "--out", out],
    ]
    proc = _fresh_python("-c", _IMPORT_PROBE, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    optimize = loaded.pop("optimize")
    assert loaded == dict.fromkeys(
        ["import ergoflux", "import ergoflux.cli", "scenario", "sweep", "husimi", "verify"], []
    )
    assert "scipy.optimize" in optimize


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


def test_scenario_pulsed_row(capsys):
    assert run("scenario", "--case", "iii", "--theta", "2", "--nbar", "1.64", "--tau", "1") == 0
    res = ef.scenario_pulsed(ef.Preparation(p=0.0, theta=2.0), n_bar=1.64, tau=1.0)
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["theta,nbar,work,yield,tau_opt,flag", f"2,1.64,{_g(res.work)},{_g(res.eta)},1,0"]


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("scenario", [{"case": "ii", "theta": 1.0}], "config file must hold a JSON object"),
        ("scenario", {"case": "iv", "theta": 1.0}, "unknown case 'iv'; pick i, ii, or iii"),
        ("verify", {"suite": "bogus"},
         "unknown suite 'bogus'; pick from ['bound-scan', 'conservation', 'scale-invariance'] or 'all'"),
    ],
)
def test_config_of_the_wrong_shape_or_name_exits_1(command, config, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(command, "--config", str(cfg)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_scenario_pulsed_drive_past_the_float_range_exits_2(capsys):
    assert run("scenario", "--case", "iii", "--theta", "1", "--nbar", "1e308", "--tau", "1e-308") == 2
    err = capsys.readouterr().err
    assert "numerical failure: pulsed work is not finite" in err
    assert "Rabi frequency 2*sqrt(gamma*n_bar/tau) = inf" in err


def test_optimize_charge_past_the_float_range_exits_1(capsys):
    # the exponential scan's shortest pulses would need an infinite amplitude
    assert run("optimize", "--theta", "1", "--nbar", "1e308") == 1
    assert "needs an amplitude past the float range" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "text, message",
    [('{"case": "ii", "theta": 1.0', "error: Expecting ',' delimiter"), (None, "error: [Errno 2] No such file")],
    ids=["malformed", "missing"],
)
def test_unreadable_config_exits_1(text, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    assert run("scenario", "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "ii", "theta": 1.0, "frobnicate": 1}))
    assert run("scenario", "--config", str(cfg)) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("scenario", {"case": "ii", "theta": [1, 2]}, "'theta' must be a number, got [1, 2]"),
        ("scenario", {"case": ["ii"], "theta": 1.0}, "'case' must be a string, got [\"ii\"]"),
        ("husimi", {"theta": 1.0, "re": 5}, "'re' must be a list of numbers, got 5"),
        ("husimi", {"theta": True}, "'theta' must be a number, got true"),
        ("sweep", {"case": "i", "theta": [0.5, "2.5", 3], "ndot": 1.0, "out": "-"},
         "'theta' must be a number or a list of numbers, got [0.5, \"2.5\", 3]"),
        ("optimize", {"theta": 1.0, "nbar": 0.1, "nodes": 32.0}, "'nodes' must be an integer, got 32.0"),
        ("verify", {"suite": "scale-invariance", "out": None}, "'out' must be a string, got null"),
    ],
)
def test_config_value_of_wrong_type_names_the_key(command, config, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(command, "--config", str(cfg)) == 1
    assert capsys.readouterr().err == f"error: config key {message}\n"


def test_sweep_config_takes_axes_and_fixed_values(tmp_path):
    by_flags, by_config = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("sweep", "--case", "iii", "--theta", "0.5", "2.5", "3", "--nbar-log", "-1", "0", "3",
               "--tau", "1", "--out", str(by_flags)) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "iii", "theta": [0.5, 2.5, 3], "nbar_log": [-1, 0, 3],
                               "tau": 1, "out": str(by_config)}))
    assert run("sweep", "--config", str(cfg)) == 0
    assert by_config.read_bytes() == by_flags.read_bytes()


_SWEEP_III = ["sweep", "--case", "iii", "--nbar-log", "-1", "1", "2", "--tau", "1", "--out", "-"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (_SWEEP_III + ["--theta", "0", "3", "2.7"], "--theta NUM must be a whole number, got 2.7"),
        (_SWEEP_III + ["--theta", "0", "3", "nan"], "--theta NUM must be a whole number, got nan"),
        (_SWEEP_III + ["--theta", "0", "3", "inf"], "--theta NUM must be a whole number, got inf"),
        (_SWEEP_III + ["--theta", "0", "3", "1e30"], "--theta asks for 1e+30 points, more than an array can hold"),
        (["sweep", "--case", "i", "--theta", "0", "3", "3", "--ndot-log", "-1", "1", "4.5", "--out", "-"],
         "--ndot-log NUM must be a whole number, got 4.5"),
        (["husimi", "--theta", "1", "--re", "-1", "1", "2.9"], "--re NUM must be a whole number, got 2.9"),
        (["husimi", "--theta", "1", "--im", "-1", "1", "nan"], "--im NUM must be a whole number, got nan"),
        (["husimi", "--theta", "1", "--im", "-1", "1", "1e19"], "--im asks for 1e+19 points, more than an array can hold"),
        (["husimi", "--theta", "1", "--re", "-1", "1", "0"], "--re needs at least 1 point"),
    ],
)
def test_point_count_must_be_whole_and_names_the_flag(argv, message, capsys):
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("sweep", {"case": "iii", "theta": [0, 3, 2.7], "nbar_log": [-1, 1, 2], "tau": 1, "out": "-"},
         "config key 'theta' NUM must be a whole number, got 2.7"),
        ("sweep", {"case": "iii", "theta": [0, 3, 3], "nbar_log": [-1, 1, 1e30], "tau": 1, "out": "-"},
         "config key 'nbar_log' asks for 1e+30 points, more than an array can hold"),
        ("husimi", {"theta": 1.0, "im": [-1, 1, 2.5]}, "config key 'im' NUM must be a whole number, got 2.5"),
    ],
)
def test_point_count_from_config_names_the_key(command, config, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(command, "--config", str(cfg)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_request_too_large_for_memory_exits_1(capsys):
    # 1e15 points pass the count check, but numpy refuses the 7.11 PiB axis at once
    assert run("husimi", "--theta", "1", "--re", "-1", "1", "1e15") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate 7.11 PiB")
    assert err.count("\n") == 1


def test_whole_float_point_counts_are_taken(tmp_path, capsys):
    # a config count written as 3.0 is the count 3, as a flag always is
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": 1.0, "re": [-1, 1, 3.0], "im": [0, 1, 2]}))
    assert run("husimi", "--config", str(cfg)) == 0
    by_config = capsys.readouterr().out
    assert run("husimi", "--theta", "1", "--re", "-1", "1", "3", "--im", "0", "1", "2") == 0
    assert capsys.readouterr().out == by_config


_HUGE = 10**400


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("scenario", {"case": "ii", "theta": _HUGE}, "theta"),
        ("scenario", {"case": "ii", "theta": 1.0, "p": -_HUGE}, "p"),
        ("sweep", {"case": "i", "theta": [0, 1, _HUGE], "ndot": 1.0, "out": "-"}, "theta"),
        ("sweep", {"case": "i", "theta": [0, 1, 3], "ndot_log": [-1, _HUGE, 2], "out": "-"}, "ndot_log"),
        ("husimi", {"theta": 1.0, "re": [-1, 1, _HUGE]}, "re"),
        ("optimize", {"theta": 1.0, "nbar": 0.1, "nodes": _HUGE}, "nodes"),
        ("verify", {"suite": "scale-invariance", "epsilon": _HUGE}, "epsilon"),
    ],
)
def test_config_integer_past_the_float_range_names_the_key(command, config, key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(command, "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key!r} must be ")
    assert err.count("\n") == 1


def _g(x) -> str:
    """One value as the CLI's CSV writes it."""
    return f"{float(x):.12g}"


def _per_value_csv(head, rows):
    return "\n".join(head + [",".join(_g(v) for v in row) for row in rows]) + "\n"


def test_rows_format_like_fmt():
    table = np.array([[math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 1e-300, 123456789.123456789]])
    assert cli._rows(table) == [",".join(_g(v) for v in table[0])]
    assert cli._rows(table) == ["nan,inf,-inf,-0,0,1,1e-300,123456789.123"]


with np.errstate(over="ignore", invalid="ignore"):
    _CSV_CASES = [
        # cells flagged for theta past pi and a negative rate, NaN yields of passive cells, -0.0
        ({"case": "i", "theta": [3.5, -0.0, 5], "ndot": [-1, 100, 4], "p": 0.5},
         ("theta", np.linspace(3.5, -0.0, 5)), ("ndot", np.linspace(-1, 100, 4)), {"p": 0.5},
         ["\n-0,", ",nan,", ",1\n", ",0\n"]),
        ({"case": "i", "theta": [0.0, 3.0, 4], "ndot_log": [-2, 2, 5]},
         ("theta", np.linspace(0.0, 3.0, 4)), ("ndot", np.logspace(-2, 2, 5)), {}, [",0\n"]),
        # axes past the float range: NaN, -inf and inf values
        ({"case": "iii", "theta": [1.0, -math.inf, 3], "nbar_log": [300, 310, 3], "tau": 1.0},
         ("theta", np.linspace(1.0, -math.inf, 3)), ("nbar", np.logspace(300, 310, 3)), {"tau": 1.0},
         ["\nnan,", "\n-inf,", ",inf,"]),
        ({"case": "ii", "theta": [-1e308, 1e308, 3], "p": [0.0, 0.5, 3]},
         ("theta", np.linspace(-1e308, 1e308, 3)), ("p", np.linspace(0.0, 0.5, 3)), {},
         ["\nnan,", "\ninf,", "\n1e+308,"]),
    ]


@pytest.mark.parametrize("config, axis1, axis2, fixed, marks", _CSV_CASES)
def test_sweep_csv_is_per_value_formatting(config, axis1, axis2, fixed, marks, tmp_path):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps({**config, "out": str(out)}))
    assert run("sweep", "--config", str(cfg)) == 0
    grid = ef.SweepGrid(scenario=config["case"], axis1=ef.SweepAxis(*axis1), axis2=ef.SweepAxis(*axis2),
                        fixed=fixed)
    res = ef.sweep(grid)
    rows = [
        (v1, v2, res.work[i, j], res.eta[i, j], res.tau_opt[i, j], res.flag[i, j])
        for i, v1 in enumerate(axis1[1])
        for j, v2 in enumerate(axis2[1])
    ]
    head = [cli._UNITS_COMMENT, f"{axis1[0]},{axis2[0]},work,yield,tau_opt,flag"]
    text = out.read_text(encoding="utf-8")
    assert text == _per_value_csv(head, rows)
    assert all(mark in text for mark in marks)


def test_husimi_csv_is_per_value_formatting(tmp_path):
    # -0.0 ends the Im axis, and overlaps far from the origin underflow to 0
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps({"theta": 2.0, "re": [-30.0, 30.0, 5], "im": [1.0, -0.0, 4], "out": str(out)}))
    assert run("husimi", "--config", str(cfg)) == 0
    grid = ef.husimi(ef.output_state(2.0), np.linspace(-30.0, 30.0, 5), np.linspace(1.0, -0.0, 4))
    head = ["# husimi overlap <alpha|rho|alpha>; rows: Im(alpha); columns: Re(alpha)",
            ",".join(["q"] + [_g(x) for x in grid.re])]
    text = out.read_text(encoding="utf-8")
    assert text == _per_value_csv(head, [[y, *grid.q[i]] for i, y in enumerate(grid.im)])
    assert "\n-0," in text and ",0," in text


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
        "--horizon", "5", "--nodes", "48", "--out", str(out),
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert sorted(summary) == ["charge", "converged", "gradient_norm", "iterations", "message", "work", "yield"]
    assert summary["charge"] == pytest.approx(0.3, rel=1e-9)
    assert 0.0 < summary["work"] <= ef.ergotropy(ef.Preparation(p=0.0, theta=2.0)) + 1e-9
    assert isinstance(summary["converged"], bool)
    assert isinstance(summary["message"], str) and summary["message"]

    d = np.genfromtxt(out, delimiter=",", names=True, comments="#", skip_header=1)
    assert d.dtype.names == ("time", "rabi")
    assert len(d) == 48
    assert d["time"][0] == 0.0 and d["time"][-1] == 5.0
    assert (d["rabi"] >= 0.0).all()
    # one start from the exponential ansatz: optimize takes no start count or seed
    for flag in ("--starts", "--seed"):
        assert run("optimize", "--theta", "2.0", "--nbar", "0.3", flag, "1") == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_optimize_csv_is_byte_reproducible(tmp_path, capsys):
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        assert run(
            "optimize", "--theta", "2.0", "--nbar", "0.3", "--horizon", "5",
            "--nodes", "48", "--out", str(out),
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
        (["--nbar", "0"], "n_bar"),
        (["--nbar", "-1"], "n_bar"),
        (["--nbar", "nan"], "n_bar"),
        (["--nbar", "inf"], "n_bar"),
        (["--horizon", "inf"], "horizon"),
        (["--horizon", "1e308"], "horizon"),
        (["--horizon", "nan"], "horizon"),
        (["--horizon", "0"], "horizon"),
        (["--horizon", "-1"], "horizon"),
    ],
)
def test_optimize_bad_input_names_the_parameter(flags, name, capsys):
    argv = {"--theta": "2.0", "--nbar": "1.0"}
    argv.update(zip(flags[::2], flags[1::2]))
    assert run("optimize", *[v for kv in argv.items() for v in kv]) == 1
    assert capsys.readouterr().err.startswith(f"error: {name} must be")


def test_optimize_past_the_fine_step_limit_exits_1_before_allocating(capsys):
    # 1e7 over 400 nodes would take about 2.5e8 RK4 steps, 2 GB per float64
    # array; start 0's step counts are checked, as floats, before any is built
    import scipy.linalg.lapack  # noqa: F401  the functional's lazy import, outside the measurement

    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        code = run("optimize", "--theta", "2.0", "--nbar", "1.0", "--horizon", "1e7")
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err.startswith("error: horizon must be")
    assert peak <= 20_000_000 and elapsed <= 5.0


def test_optimize_past_the_scan_step_limit_exits_1_before_allocating(capsys):
    # the ansatz scan at n_bar = 1e6 would take 2.3e7 RK4 steps over its 25
    # drives, past the cap on its total steps; its counts are checked first
    tracemalloc.start()
    try:
        code = run("optimize", "--theta", "3.14159", "--nbar", "1e6")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err.startswith("error: n_bar must be smaller")
    assert peak <= 5_000_000


def test_optimize_past_the_fine_step_limit_by_nodes_exits_1_before_allocating(capsys):
    # 5e6 nodes take at least two RK4 steps on each interval, 1e7 in all:
    # the problem is rejected before the control grid is laid out
    tracemalloc.start()
    try:
        code = run("optimize", "--theta", "2", "--nbar", "1", "--nodes", "5000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err.startswith("error: n_nodes must be smaller")
    assert peak <= 1_000_000


def test_optimize_with_too_few_nodes_exits_1_naming_the_count(capsys):
    assert run("optimize", "--theta", "2", "--nbar", "1", "--nodes", "8") == 1
    assert capsys.readouterr().err == "error: n_nodes must be at least 32, got 8\n"


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


@pytest.mark.parametrize("axis", [["--re", "nan", "1", "3"], ["--im", "-1", "inf", "3"]])
def test_husimi_non_finite_point_exits_1(axis, capsys):
    assert run("husimi", "--theta", "1", *axis) == 1
    assert capsys.readouterr().err == f"error: {axis[0][2:]} must be finite\n"


def test_husimi_overflowing_point_is_zero(capsys):
    assert run("husimi", "--theta", "1", "--re", "0", "1e200", "2", "--im", "0", "0", "1") == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0,0.770151152934,0"


def test_verify_scale_suite(capsys):
    assert run("verify", "--suite", "scale-invariance") == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["suite"] == "scale-invariance"
    assert rep["passed"] is True
    assert rep["max_work_deviation"] <= rep["tolerance"]


@pytest.mark.parametrize("epsilon", ["1e-300", "nan", "1e200"])  # 4 eps^2 underflows, is NaN, overflows
def test_verify_scale_rejects_epsilon_out_of_range(epsilon, capsys):
    assert run("verify", "--suite", "scale-invariance", "--epsilon", epsilon) == 1
    assert "error: epsilon must be" in capsys.readouterr().err


def test_verify_negative_seed_names_it(capsys):
    assert run("verify", "--suite", "conservation", "--seed", "-5") == 1
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -5\n"


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


def test_cached_parser_gives_a_fresh_parsers_help_and_exit_codes(capsys):
    # run builds its parser once per process; parsing, errors and help leave it unchanged
    helps = [[], *([command] for command in cli._COMMANDS)]

    def help_texts():
        texts = []
        for argv in helps:
            assert run(*argv, "--help") == 0
            texts.append(capsys.readouterr().out)
        return texts

    fresh = []
    for argv in helps:
        cli._build_parser.cache_clear()
        assert run(*argv, "--help") == 0
        fresh.append(capsys.readouterr().out)
    assert cli._build_parser() is cli._build_parser()
    for _ in range(2):
        assert run("scenario", "--case", "ii", "--theta", "1.0") == 0
        assert run("scenario", "--case", "nope", "--theta", "1.0") == 1
        assert run("sweep", "--bogus") == 1
        assert run("verify", "--suite", "astrology") == 1
        capsys.readouterr()
        assert help_texts() == fresh
