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
import dataclasses
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
    return f"{float(x):.12g}"


def _rows(table: np.ndarray) -> list[str]:
    """The rows of a 2-D float table as CSV lines, each value formatted as `_fmt` does."""
    row = ",".join(["%.12g"] * table.shape[1])
    return [row % tuple(values) for values in table.tolist()]


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _is_number(x) -> bool:
    """A JSON number that converts to a float; an integer past the float range does not."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return isinstance(x, float) or abs(x) <= sys.float_info.max


# JSON type a config value must have, as its flag takes it
_KINDS = {
    "a number": _is_number,
    "an integer": lambda x: _is_number(x) and isinstance(x, int),
    "a string": lambda x: isinstance(x, str),
    "a list of numbers": lambda x: isinstance(x, list) and all(map(_is_number, x)),
    "a number or a list of numbers": lambda x: _is_number(x) or _KINDS["a list of numbers"](x),
}


def _kind(spec: dict) -> str:
    """The JSON type a config value must have, as the flag of argparse settings ``spec`` takes it."""
    if spec.get("nargs") == "+":
        return "a number or a list of numbers"
    if "nargs" in spec:
        return "a list of numbers"
    return {int: "an integer", float: "a number"}.get(spec.get("type"), "a string")


def _flags(command: str) -> dict:
    """The flags of a command as key -> (argparse settings, default), with the --out every command takes."""
    return {**_COMMANDS[command][2], "out": ({}, None)}


def _merge(args: argparse.Namespace) -> dict:
    """Fold config-file values under explicit flags; flags win, defaults last.

    Each config value must have the JSON type its flag takes (`_kind`).
    """
    flags = _flags(args.command)
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise _CliError("config file must hold a JSON object")
        unknown = set(cfg) - set(flags)
        if unknown:
            raise _CliError(f"unknown config keys: {sorted(unknown)}")
        for key, value in cfg.items():
            kind = _kind(flags[key][0])
            if not _KINDS[kind](value):
                raise _CliError(f"config key {key!r} must be {kind}, got {json.dumps(value)}")
    out = {}
    for key, (_, default) in flags.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            out[key] = flag_value
        elif key in cfg:
            out[key] = cfg[key]
        else:
            out[key] = default
    return out


def _named(args: argparse.Namespace, key: str) -> str:
    """A parameter as an error names it: its flag if one was given, else its config key."""
    if getattr(args, key, None) is not None:
        return "--" + key.replace("_", "-")
    return f"config key {key!r}"


# the most float64 values one array can hold
_MAX_POINTS = sys.maxsize // 8


def _point_count(num, name: str, least: int) -> int:
    """The point count NUM of a (min max num) spec: a whole number from ``least`` on."""
    if not (math.isfinite(num) and num == math.floor(num)):
        raise _CliError(f"{name} NUM must be a whole number, got {num}")
    if num < least:
        raise _CliError(f"{name} needs at least {least} point{'s' if least > 1 else ''}")
    if num > _MAX_POINTS:
        raise _CliError(f"{name} asks for {num:g} points, more than an array can hold")
    return int(num)


def _require(params: dict, keys: list[str], context: str) -> None:
    missing = [k for k in keys if params[k] is None]
    if missing:
        raise _CliError(f"{context} requires --{' --'.join(missing)}")


# --------------------------- scenario ---------------------------


def _cmd_scenario(args) -> int:
    par = _merge(args)
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

# axis1 in the CSV is the earliest swept name in this order
_AXIS_PRIORITY = ("theta", "p", "ndot", "nbar", "tau")


def _axis_or_fixed(name: str, spec, log: bool, label: str):
    """A 3-number spec is an axis (min max num); a single number is fixed.

    ``label`` names the spec in errors.
    """
    if spec is None:
        return None, None
    vals = list(spec) if isinstance(spec, (list, tuple)) else [spec]
    if len(vals) == 1:
        if log:
            raise _CliError(f"{label} needs exactly 3 values: min max num")
        return None, float(vals[0])
    if len(vals) != 3:
        raise _CliError(f"{label} takes 1 value (fixed) or 3 (min max num)")
    lo, hi, num = float(vals[0]), float(vals[1]), _point_count(vals[2], label, 2)
    # values past the float range become inf or NaN; sweep flags them
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.logspace(lo, hi, num) if log else np.linspace(lo, hi, num)
    return SweepAxis(name=name, values=grid), None


def _cmd_sweep(args) -> int:
    par = _merge(args)
    _require(par, ["case", "out"], "sweep")
    case = SCENARIO_ALIASES.get(par["case"], par["case"])

    axes: dict[str, SweepAxis] = {}
    fixed: dict[str, float] = {}
    for name in _AXIS_PRIORITY:
        lin = par.get(name)
        log = par.get(f"{name}_log")
        if lin is not None and log is not None:
            raise _CliError(f"--{name} and --{name}-log are mutually exclusive")
        key = f"{name}_log" if log is not None else name
        axis, value = _axis_or_fixed(name, par[key], log is not None, _named(args, key))
        if axis is not None:
            axes[name] = axis
        elif value is not None:
            fixed[name] = value

    if len(axes) != 2:
        raise _CliError(f"sweep needs exactly 2 axes (3-number specs), got {len(axes)}")
    names = [n for n in _AXIS_PRIORITY if n in axes]
    grid = SweepGrid(scenario=case, axis1=axes[names[0]], axis2=axes[names[1]], fixed=fixed)
    result = sweep(grid)

    v1, v2 = np.meshgrid(grid.axis1.values, grid.axis2.values, indexing="ij")
    cols = (v1, v2, result.work, result.eta, result.tau_opt, result.flag)
    lines = [_UNITS_COMMENT, f"{names[0]},{names[1]},work,yield,tau_opt,flag"]
    lines += _rows(np.column_stack([c.ravel() for c in cols]))
    _write_lines(par["out"], lines)
    return 0


# --------------------------- optimize ---------------------------


def _cmd_optimize(args) -> int:
    par = _merge(args)
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


def _cmd_husimi(args) -> int:
    par = _merge(args)
    _require(par, ["theta"], "husimi")
    axes = []
    for name in ("re", "im"):
        label = _named(args, name)
        if len(par[name]) != 3:
            raise _CliError(f"{label} takes 3 values: min max num")
        lo, hi, num = par[name]
        with np.errstate(invalid="ignore"):  # a non-finite end gives NaN points, which husimi rejects
            axes.append(np.linspace(float(lo), float(hi), _point_count(num, label, 1)))
    grid = husimi(output_state(float(par["theta"])), *axes)

    lines = [
        "# husimi overlap <alpha|rho|alpha>; rows: Im(alpha); columns: Re(alpha)",
        "q," + _rows(grid.re[None, :])[0],
    ]
    lines += _rows(np.column_stack([grid.im, grid.q]))
    _write_lines(par["out"], lines)
    return 0


# --------------------------- verify ---------------------------


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
    return {**dataclasses.asdict(rep), "passed": rep.passed}


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
    par = _merge(args)
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

    _write_lines(par["out"], [json.dumps(report, indent=2, sort_keys=True)])
    return 0 if passed else 3


# --------------------------- wiring ---------------------------


# Each command's help, handler and flags.  A flag maps its key to its argparse
# settings and its default; `_flags` adds the --out every command takes.
_FLOAT = {"type": float}
_COMMANDS = {
    "scenario": ("run one extraction protocol", _cmd_scenario, {
        "case": ({"choices": ["i", "ii", "iii"]}, None),
        "p": (_FLOAT, 0.0),
        "theta": (_FLOAT, None),
        "ndot": ({"type": float, "help": "photon rate over gamma (case i)"}, None),
        "nbar": ({"type": float, "help": "wave-packet charge (case iii)"}, None),
        "tau": ({"type": float, "help": "wave-packet duration (case iii)"}, None),
    }),
    "sweep": ("map a protocol over a 2-D grid", _cmd_sweep, {
        "case": ({"choices": ["i", "ii", "iii"]}, None),
        **dict.fromkeys(_AXIS_PRIORITY, ({"type": float, "nargs": "+", "metavar": "V"}, None)),
        "ndot_log": ({"type": float, "nargs": 3, "metavar": ("E0", "E1", "NUM")}, None),
        "nbar_log": ({"type": float, "nargs": 3, "metavar": ("E0", "E1", "NUM")}, None),
    }),
    "optimize": ("shape the work-maximizing pulse", _cmd_optimize, {
        "p": (_FLOAT, 0.0),
        "theta": (_FLOAT, None),
        "nbar": (_FLOAT, None),
        "horizon": (_FLOAT, 10.0),
        "nodes": ({"type": int}, 400),
        "starts": ({
            "type": int,
            "help": "L-BFGS-B starts (default 1): start 0 is the best exponential; "
            "seeded perturbations of it never gained more than 1e-12 in W from n_bar = 1e-4 to 80",
        }, 1),
        "seed": ({"type": int}, 0),
    }),
    "husimi": ("phase-space grid of the emitted field", _cmd_husimi, {
        "theta": (_FLOAT, None),
        "re": ({"type": float, "nargs": 3, "metavar": ("MIN", "MAX", "NUM")}, [-2.5, 2.5, 101]),
        "im": ({"type": float, "nargs": 3, "metavar": ("MIN", "MAX", "NUM")}, [-2.5, 2.5, 101]),
    }),
    "verify": ("run the self-check suites", _cmd_verify, {
        "suite": ({"choices": [*sorted(_SUITES), "all"]}, "all"),
        "resolution": ({"type": int}, 50),
        "cases": ({"type": int}, 20),
        "seed": ({"type": int}, 0),
        "p": (_FLOAT, 0.0),
        "theta": (_FLOAT, math.pi / 2.0),
        "epsilon": (_FLOAT, 1.0),
    }),
}


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ergoflux",
        description="Work extraction from a driven qubit into a waveguide battery.",
        epilog="Sweeps and scans run as batched numpy array code in one process.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, fn, _) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        for key, (spec, _) in _flags(command).items():
            sp.add_argument("--" + key.replace("_", "-"), **spec)
        sp.add_argument("--config")
        sp.set_defaults(fn=fn)
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
    except MemoryError as exc:  # a request too large to hold
        print(f"error: out of memory: {exc}", file=sys.stderr)
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
