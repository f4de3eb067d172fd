"""Command-line front end: scenarios, sweeps, pulse shaping, Husimi grids, audits.

Output conventions (shared by every subcommand):

* energies in units of hbar*omega0, times in 1/gamma, stated in a leading
  ``#`` comment line of each CSV,
* CSV is UTF-8 with LF line endings, ``%.12g`` numeric formatting, and the
  literal ``nan`` for undefined values (e.g. the yield of a passive state),
* identical flags/config and seed produce byte-identical output; sweeps
  and the bound scan run as batched numpy array code in one process.

Exit codes: 0 success, 1 validation error, 2 numerical failure,
3 verification failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .dynamics import IntegrationAccuracyError, Preparation
from .emitted_field import husimi, output_state
from .optimizer import ControlProblem, solve_optimal_control
from .scenarios import (
    SCENARIO_ALIASES,
    SweepAxis,
    SweepGrid,
    scenario_continuous,
    scenario_pulsed,
    scenario_spontaneous,
    sweep,
)
from .verification import (
    conservation_suite,
    ergotropy_bound_scan,
    scale_invariance_check,
)

_UNITS_COMMENT = "# units: energies in hbar*omega0, times in 1/gamma"


class _CliError(Exception):
    """Validation failure surfaced to the user; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _fmt(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    return f"{float(x):.12g}"


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# JSON type a config value must have, as its flag takes it
_KINDS = {
    "a number": _is_number,
    "an integer": lambda x: _is_number(x) and isinstance(x, int),
    "a string": lambda x: isinstance(x, str),
    "a list of numbers": lambda x: isinstance(x, list) and all(map(_is_number, x)),
    "a number or a list of numbers": lambda x: _is_number(x) or _KINDS["a list of numbers"](x),
}
# config keys that do not take a number
_CONFIG_KINDS = {
    **dict.fromkeys(("case", "suite", "out"), "a string"),
    **dict.fromkeys(("nodes", "starts", "seed", "resolution", "cases"), "an integer"),
    **dict.fromkeys(("re", "im", "ndot_log", "nbar_log"), "a list of numbers"),
}


def _merge(args: argparse.Namespace, defaults: dict, axes=()) -> dict:
    """Fold config-file values under explicit flags; flags win, defaults last.

    Each config value must have the JSON type its flag takes; the keys in
    ``axes`` are sweep axes, which take a number or a list of numbers.
    """
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise _CliError("config file must hold a JSON object")
        unknown = set(cfg) - set(defaults)
        if unknown:
            raise _CliError(f"unknown config keys: {sorted(unknown)}")
        for key, value in cfg.items():
            kind = "a number or a list of numbers" if key in axes else _CONFIG_KINDS.get(key, "a number")
            if not _KINDS[kind](value):
                raise _CliError(f"config key {key!r} must be {kind}, got {json.dumps(value)}")
    out = {}
    for key, default in defaults.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            out[key] = flag_value
        elif key in cfg:
            out[key] = cfg[key]
        else:
            out[key] = default
    return out


def _require(params: dict, keys: list[str], context: str) -> None:
    missing = [k for k in keys if params[k] is None]
    if missing:
        raise _CliError(f"{context} requires --{' --'.join(missing)}")


# --------------------------- scenario ---------------------------

_SCENARIO_DEFAULTS = {
    "case": None,
    "p": 0.0,
    "theta": None,
    "ndot": None,
    "nbar": None,
    "tau": None,
    "out": None,
}


def _cmd_scenario(args) -> int:
    par = _merge(args, _SCENARIO_DEFAULTS)
    _require(par, ["case", "theta"], "scenario")
    case = SCENARIO_ALIASES.get(par["case"], par["case"])
    prep = Preparation(p=float(par["p"]), theta=float(par["theta"]))

    if case == "continuous":
        _require(par, ["ndot"], "scenario --case i")
        result = scenario_continuous(prep, float(par["ndot"]))
        second = ("ndot", par["ndot"])
    elif case == "spontaneous":
        result = scenario_spontaneous(prep)
        second = ("p", par["p"])
    elif case == "pulsed":
        _require(par, ["nbar", "tau"], "scenario --case iii")
        result = scenario_pulsed(prep, n_bar=float(par["nbar"]), tau=float(par["tau"]))
        second = ("nbar", par["nbar"])
    else:
        raise _CliError(f"unknown case {par['case']!r}; pick i, ii, or iii")

    lines = [
        _UNITS_COMMENT,
        f"theta,{second[0]},work,yield,tau_opt,flag",
        ",".join(
            [
                _fmt(prep.theta),
                _fmt(second[1]),
                _fmt(result.work),
                _fmt(result.eta),
                _fmt(result.tau_opt if result.tau_opt is not None else math.nan),
                "0",
            ]
        ),
    ]
    _write_lines(par["out"], lines)
    return 0


# --------------------------- sweep ---------------------------

_SWEEP_DEFAULTS = {
    "case": None,
    "theta": None,
    "p": None,
    "ndot": None,
    "ndot_log": None,
    "nbar": None,
    "nbar_log": None,
    "tau": None,
    "out": None,
}

# axis1 in the CSV is the earliest swept name in this order
_AXIS_PRIORITY = ("theta", "p", "ndot", "nbar", "tau")


def _axis_or_fixed(name: str, spec, log: bool):
    """A 3-number spec is an axis (min max num); a single number is fixed."""
    if spec is None:
        return None, None
    vals = list(spec) if isinstance(spec, (list, tuple)) else [spec]
    if len(vals) == 1:
        if log:
            raise _CliError(f"--{name}-log needs exactly 3 values: min max num")
        return None, float(vals[0])
    if len(vals) != 3:
        raise _CliError(f"--{name} takes 1 value (fixed) or 3 (min max num)")
    lo, hi, num = float(vals[0]), float(vals[1]), int(vals[2])
    if num < 2:
        raise _CliError(f"--{name} axis needs at least 2 points")
    with np.errstate(over="ignore"):  # values past the float range become inf; sweep flags them
        grid = np.logspace(lo, hi, num) if log else np.linspace(lo, hi, num)
    return SweepAxis(name=name, values=grid), None


def _cmd_sweep(args) -> int:
    par = _merge(args, _SWEEP_DEFAULTS, axes=_AXIS_PRIORITY)
    _require(par, ["case", "out"], "sweep")
    case = SCENARIO_ALIASES.get(par["case"], par["case"])

    axes: dict[str, SweepAxis] = {}
    fixed: dict[str, float] = {}
    for name in _AXIS_PRIORITY:
        lin = par.get(name)
        log = par.get(f"{name}_log")
        if lin is not None and log is not None:
            raise _CliError(f"--{name} and --{name}-log are mutually exclusive")
        spec, is_log = (log, True) if log is not None else (lin, False)
        axis, value = _axis_or_fixed(name, spec, is_log)
        if axis is not None:
            axes[name] = axis
        elif value is not None:
            fixed[name] = value

    if len(axes) != 2:
        raise _CliError(f"sweep needs exactly 2 axes (3-number specs), got {len(axes)}")
    names = [n for n in _AXIS_PRIORITY if n in axes]
    grid = SweepGrid(scenario=case, axis1=axes[names[0]], axis2=axes[names[1]], fixed=fixed)
    result = sweep(grid)

    lines = [_UNITS_COMMENT, f"{names[0]},{names[1]},work,yield,tau_opt,flag"]
    for i, v1 in enumerate(grid.axis1.values):
        for j, v2 in enumerate(grid.axis2.values):
            lines.append(
                ",".join(
                    [
                        _fmt(v1),
                        _fmt(v2),
                        _fmt(result.work[i, j]),
                        _fmt(result.eta[i, j]),
                        _fmt(result.tau_opt[i, j]),
                        _fmt(result.flag[i, j]),
                    ]
                )
            )
    _write_lines(par["out"], lines)
    return 0


# --------------------------- optimize ---------------------------

_OPTIMIZE_DEFAULTS = {
    "p": 0.0,
    "theta": None,
    "nbar": None,
    "horizon": 10.0,
    "nodes": 400,
    "starts": 4,
    "seed": 0,
    "out": None,
}


def _cmd_optimize(args) -> int:
    par = _merge(args, _OPTIMIZE_DEFAULTS)
    _require(par, ["theta", "nbar"], "optimize")
    problem = ControlProblem(
        prep=Preparation(p=float(par["p"]), theta=float(par["theta"])),
        n_bar=float(par["nbar"]),
        horizon=float(par["horizon"]),
        n_nodes=int(par["nodes"]),
    )
    result = solve_optimal_control(
        problem, n_starts=int(par["starts"]), seed=int(par["seed"])
    )

    lines = [_UNITS_COMMENT, "time,rabi"]
    for t, om in zip(result.times, result.controls):
        lines.append(f"{_fmt(t)},{_fmt(om)}")
    _write_lines(par["out"], lines)

    summary = {
        "work": float(result.work),
        "yield": None if math.isnan(result.eta) else float(result.eta),
        "objective": float(result.objective),
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "gradient_norm": float(result.gradient_norm),
        "message": result.message,
        "charge": float(result.pulse.charge()),
        "start_objectives": [float(v) for v in result.start_objectives],
    }
    if par["out"] is not None:
        sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


# --------------------------- husimi ---------------------------

_HUSIMI_DEFAULTS = {
    "theta": None,
    "re": [-2.5, 2.5, 101],
    "im": [-2.5, 2.5, 101],
    "out": None,
}


def _cmd_husimi(args) -> int:
    par = _merge(args, _HUSIMI_DEFAULTS)
    _require(par, ["theta"], "husimi")
    for name in ("re", "im"):
        if len(par[name]) != 3:
            raise _CliError(f"--{name} takes 3 values: min max num")
    re = np.linspace(float(par["re"][0]), float(par["re"][1]), int(par["re"][2]))
    im = np.linspace(float(par["im"][0]), float(par["im"][1]), int(par["im"][2]))
    grid = husimi(output_state(float(par["theta"])), re, im)

    lines = [
        "# husimi overlap <alpha|rho|alpha>; rows: Im(alpha); columns: Re(alpha)",
        ",".join(["q"] + [_fmt(x) for x in grid.re]),
    ]
    for i, y in enumerate(grid.im):
        lines.append(",".join([_fmt(y)] + [_fmt(v) for v in grid.q[i]]))
    _write_lines(par["out"], lines)
    return 0


# --------------------------- verify ---------------------------

_VERIFY_DEFAULTS = {
    "suite": "all",
    "resolution": 50,
    "cases": 20,
    "seed": 0,
    "p": 0.0,
    "theta": math.pi / 2.0,
    "epsilon": 1.0,
    "out": None,
}


def _verify_bound_scan(par) -> dict:
    rep = ergotropy_bound_scan(resolution=int(par["resolution"]))
    eps, p, theta = rep.argmin
    return {
        "resolution": int(par["resolution"]),
        "min_gap": rep.min_gap,
        "argmin": {"epsilon": eps, "p": p, "theta": theta},
        "n_violations": rep.n_violations,
        "tolerance": rep.tolerance,
        "passed": rep.passed,
    }


def _verify_conservation(par) -> dict:
    rep = conservation_suite(n_cases=int(par["cases"]), seed=int(par["seed"]))
    return {
        "n_cases": rep.n_cases,
        "max_rate_residual": rep.max_rate_residual,
        "max_flux_residual": rep.max_flux_residual,
        "max_integral_residual": rep.max_integral_residual,
        "min_heat_rate": rep.min_heat_rate,
        "tolerance": rep.tolerance,
        "passed": rep.passed,
    }


def _verify_scale(par) -> dict:
    prep = Preparation(p=float(par["p"]), theta=float(par["theta"]))
    rep = scale_invariance_check(prep, epsilon=float(par["epsilon"]))
    return {
        "factors": [float(k) for k in rep.factors],
        "max_work_deviation": rep.max_work_deviation,
        "max_stopping_deviation": rep.max_stopping_deviation,
        "tolerance": rep.tolerance,
        "passed": rep.passed,
    }


_SUITES = {
    "bound-scan": _verify_bound_scan,
    "conservation": _verify_conservation,
    "scale-invariance": _verify_scale,
}


def _cmd_verify(args) -> int:
    par = _merge(args, _VERIFY_DEFAULTS)
    suite = par["suite"]
    if suite == "all":
        report = {name: fn(par) for name, fn in _SUITES.items()}
        passed = all(r["passed"] for r in report.values())
        report = {"suites": report, "passed": passed}
    elif suite in _SUITES:
        report = {"suite": suite, **_SUITES[suite](par)}
        passed = report["passed"]
    else:
        raise _CliError(f"unknown suite {suite!r}; pick from {sorted(_SUITES)} or 'all'")

    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if par["out"] is None or par["out"] == "-":
        sys.stdout.write(text)
    else:
        with open(par["out"], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 0 if passed else 3


# --------------------------- wiring ---------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ergoflux",
        description="Work extraction from a driven qubit into a waveguide battery.",
        epilog="Sweeps and scans run as batched numpy array code in one process.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scenario", help="run one extraction protocol")
    sc.add_argument("--case", choices=["i", "ii", "iii"])
    sc.add_argument("--p", type=float)
    sc.add_argument("--theta", type=float)
    sc.add_argument("--ndot", type=float, help="photon rate over gamma (case i)")
    sc.add_argument("--nbar", type=float, help="wave-packet charge (case iii)")
    sc.add_argument("--tau", type=float, help="wave-packet duration (case iii)")
    sc.add_argument("--out")
    sc.add_argument("--config")
    sc.set_defaults(fn=_cmd_scenario)

    sw = sub.add_parser("sweep", help="map a protocol over a 2-D grid")
    sw.add_argument("--case", choices=["i", "ii", "iii"])
    for name in ("theta", "p", "ndot", "nbar", "tau"):
        sw.add_argument(f"--{name}", type=float, nargs="+", metavar="V")
    sw.add_argument("--ndot-log", type=float, nargs=3, metavar=("E0", "E1", "NUM"))
    sw.add_argument("--nbar-log", type=float, nargs=3, metavar=("E0", "E1", "NUM"))
    sw.add_argument("--out")
    sw.add_argument("--config")
    sw.set_defaults(fn=_cmd_sweep)

    op = sub.add_parser("optimize", help="shape the work-maximizing pulse")
    op.add_argument("--p", type=float)
    op.add_argument("--theta", type=float)
    op.add_argument("--nbar", type=float)
    op.add_argument("--horizon", type=float)
    op.add_argument("--nodes", type=int)
    op.add_argument("--starts", type=int)
    op.add_argument("--seed", type=int)
    op.add_argument("--out")
    op.add_argument("--config")
    op.set_defaults(fn=_cmd_optimize)

    hu = sub.add_parser("husimi", help="phase-space grid of the emitted field")
    hu.add_argument("--theta", type=float)
    hu.add_argument("--re", type=float, nargs=3, metavar=("MIN", "MAX", "NUM"))
    hu.add_argument("--im", type=float, nargs=3, metavar=("MIN", "MAX", "NUM"))
    hu.add_argument("--out")
    hu.add_argument("--config")
    hu.set_defaults(fn=_cmd_husimi)

    ve = sub.add_parser("verify", help="run the self-check suites")
    ve.add_argument("--suite", choices=[*sorted(_SUITES), "all"])
    ve.add_argument("--resolution", type=int)
    ve.add_argument("--cases", type=int)
    ve.add_argument("--seed", type=int)
    ve.add_argument("--p", type=float)
    ve.add_argument("--theta", type=float)
    ve.add_argument("--epsilon", type=float)
    ve.add_argument("--out")
    ve.add_argument("--config")
    ve.set_defaults(fn=_cmd_verify)

    return parser


def run(argv=None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IntegrationAccuracyError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry()
