"""Inputs, passes and answer checks of the three benchmark workloads.

A workload turns a seeded random generator into a list of ``ergoflux`` CLI
invocations (one *pass*), runs them in this process through
``ergoflux.cli.run`` one after another, and checks the files they wrote.
Checks compare by tolerance, never by bytes, and use only tolerances the
repository states:

* ``W <= ergotropy + 1e-6``: the bound ``ScenarioResult`` enforces;
* ``W(theta=pi, ndot=1e4) = 0.988255993106428 +- 1e-6``: acceptance criterion 01;
* charge = n_bar to 1e-9 relative: the CLI test of ``optimize``;
* ``W >= ansatz work - 1e-4``: the solver-beats-ansatz test.

The seed moves the inputs but never the problem size.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BOUND_TOL = 1e-6
PINNED_WORK = 0.988255993106428  # criterion 01: theta = pi, ndot = 1e4
PINNED_TOL = 1e-6
CHARGE_RTOL = 1e-9
ANSATZ_TOL = 1e-4
HUSIMI_TOL = 1e-9  # 12 significant digits in the CSV

# problem sizes; the toy ones keep the self-test short
FULL = {"theta": 61, "ndot": 61, "nbar": 41, "nodes": None, "horizon": None, "resolution": None}
TOY = {"theta": 5, "ndot": 5, "nbar": 5, "nodes": 32, "horizon": 5.0, "resolution": 20}

# the two pulse-shaping points of acceptance criterion 05
PULSE_POINTS = ((0.1, math.pi / 2.0), (1.64, 0.75 * math.pi))


@dataclass
class Call:
    """One CLI invocation of a pass and what its check needs to know."""

    kind: str
    argv: list[str]
    out: Path
    meta: dict = field(default_factory=dict)
    config: tuple[Path, dict] | None = None  # file to write before the call
    exit_code: int | None = None
    stdout: str = ""


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def add(self, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.note(why)

    def note(self, why: str) -> None:
        if len(self.reasons) < 20:
            self.reasons.append(why)


def ergotropy_pure(theta: float) -> float:
    """Ergotropy of the pure preparation (p = 0) at Bloch angle theta."""
    return math.sin(0.5 * theta) ** 2


# --------------------------- plans ---------------------------


def plan_maps(rng: np.random.Generator, workdir: Path, size: dict) -> list[Call]:
    """Case i and case iii maps plus the Husimi portrait, as in the README figures.

    The lower ends of the theta and rate axes move by less than one grid step;
    the upper ends stay at theta = pi and ndot = 1e4, so the criterion-01 cell
    is always on the grid.
    """
    nt, nd, nn = size["theta"], size["ndot"], size["nbar"]
    theta_lo = rng.uniform(0.0, 0.5) * math.pi / (nt - 1)
    ndot_lo = -2.0 - rng.uniform(0.0, 1.0) * 6.0 / (nd - 1)
    nbar_lo = -2.0 - rng.uniform(0.0, 1.0) * 4.0 / (nn - 1)
    husimi_theta = rng.uniform(0.0, math.pi)
    theta_axis = ["--theta", str(theta_lo), str(math.pi), str(nt)]
    return [
        Call(
            "sweep_i",
            ["sweep", "--case", "i", *theta_axis, "--ndot-log", str(ndot_lo), "4", str(nd),
             "--out", str(workdir / "map_i.csv")],
            workdir / "map_i.csv",
            {"cells": nt * nd},
        ),
        Call(
            "sweep_iii",
            ["sweep", "--case", "iii", *theta_axis, "--nbar-log", str(nbar_lo), "2", str(nn),
             "--tau", "1.0", "--out", str(workdir / "map_iii.csv")],
            workdir / "map_iii.csv",
            {"cells": nt * nn},
        ),
        Call(
            "husimi",
            ["husimi", "--theta", str(husimi_theta), "--out", str(workdir / "husimi.csv")],
            workdir / "husimi.csv",
            {"theta": husimi_theta, "points": 101 * 101},
        ),
    ]


def plan_pulse_shaping(rng: np.random.Generator, workdir: Path, size: dict) -> list[Call]:
    """``optimize`` with default flags at the two criterion-05 points.

    The ascent's iteration count jumps with any change of its inputs (122 to
    214 gradient calls at the n_bar = 1.64 point across start seeds or theta
    shifts of 0.01), so the physics is pinned and the seed only picks the
    order of the two solves and whether each reads flags or a config file.
    """
    calls = []
    for k in rng.permutation(len(PULSE_POINTS)):
        n_bar, theta = PULSE_POINTS[k]
        out = workdir / f"pulse_{k}.csv"
        params = {"theta": theta, "nbar": n_bar, "out": str(out)}
        if size["nodes"] is not None:
            params.update(nodes=size["nodes"], horizon=size["horizon"])
        meta = {"theta": theta, "nbar": n_bar}
        if rng.uniform() < 0.5:
            argv = [str(item) for key, value in params.items() for item in (f"--{key}", value)]
            calls.append(Call("optimize", ["optimize", *argv], out, meta))
        else:
            cfg = workdir / f"pulse_{k}.json"
            calls.append(Call("optimize", ["optimize", "--config", str(cfg)], out, meta, config=(cfg, params)))
    return calls


def plan_audit(rng: np.random.Generator, workdir: Path, size: dict) -> list[Call]:
    """``verify --suite all`` at defaults with a seeded conservation suite."""
    seed = int(rng.integers(0, 2**31 - 1))
    argv = ["verify", "--suite", "all", "--seed", str(seed), "--out", str(workdir / "audit.json")]
    if size["resolution"] is not None:
        argv += ["--resolution", str(size["resolution"])]
    return [Call("verify", argv, workdir / "audit.json", {"seed": seed, "resolution": size["resolution"] or 50})]


PLANS = {"maps": plan_maps, "pulse_shaping": plan_pulse_shaping, "audit": plan_audit}


# --------------------------- running ---------------------------


def prepare(calls: list[Call]) -> None:
    """Write config files and clear old outputs; runs outside the timed region."""
    for call in calls:
        call.out.parent.mkdir(parents=True, exist_ok=True)
        call.out.unlink(missing_ok=True)
        if call.config is not None:
            path, params = call.config
            path.write_text(json.dumps(params), encoding="utf-8")


def run_call(cli, call: Call) -> None:
    """One closed-loop CLI call; the JSON summary ``optimize`` prints is kept."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        call.exit_code = cli.run(call.argv)
    call.stdout = buf.getvalue()


# --------------------------- checks ---------------------------


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)


def _check_map(call: Call, tally: Tally, pinned: bool) -> dict:
    expected = call.meta["cells"]
    try:
        rows = _read_csv(call.out)
    except (OSError, ValueError) as exc:
        rows = np.empty((0, 6))
        tally.add(False, f"{call.kind}: unreadable output ({exc})")
    else:
        tally.add(call.exit_code == 0 and rows.shape == (expected, 6), f"{call.kind}: exit {call.exit_code}, shape {rows.shape}")
    if rows.shape[1:] != (6,):
        rows = np.empty((0, 6))
    theta, work, flag = rows[:, 0], rows[:, 2], rows[:, 5]
    bound = np.sin(0.5 * theta) ** 2 + BOUND_TOL
    ok = np.isfinite(work) & (flag == 0) & (work <= bound)
    answers = {}
    if pinned and len(rows) == expected:
        last = rows[-1]
        hit = abs(last[0] - math.pi) < 1e-9 and last[1] == 1e4
        ok[-1] &= hit and abs(last[2] - PINNED_WORK) <= PINNED_TOL
        answers["pinned_work"] = float(last[2])
    for i in np.flatnonzero(~ok)[:5]:
        tally.note(f"{call.kind}: cell (theta, axis2, work, yield, tau_opt, flag) = {rows[i].tolist()}")
    tally.attempted += expected
    tally.failed += expected - int(ok.sum())
    return answers


def _check_husimi(call: Call, tally: Tally) -> None:
    try:
        table = np.loadtxt(call.out, delimiter=",", skiprows=1, ndmin=2, dtype=str)
        re = table[0, 1:].astype(float)
        im = table[1:, 0].astype(float)
        q = table[1:, 1:].astype(float)
    except (OSError, ValueError, IndexError) as exc:
        tally.add(False, f"husimi: unreadable output ({exc})")
        return
    theta = call.meta["theta"]
    alpha = re[None, :] + 1j * im[:, None]
    exact = np.exp(-np.abs(alpha) ** 2) * np.abs(math.cos(0.5 * theta) + math.sin(0.5 * theta) * np.conj(alpha)) ** 2
    error = float(np.abs(q - exact).max())
    ok = (
        call.exit_code == 0
        and q.size == call.meta["points"]
        and bool(np.all((q >= 0.0) & (q <= 1.0)))
        and error <= HUSIMI_TOL
    )
    tally.add(ok, f"husimi: exit {call.exit_code}, {q.size} points, max error {error:.3e}")


def _charge(times: np.ndarray, rabi: np.ndarray) -> float:
    v0, v1 = rabi[:-1], rabi[1:]
    return float(np.sum(np.diff(times) * (v0 * v0 + v0 * v1 + v1 * v1) / 3.0) / 4.0)


def _check_optimize(call: Call, tally: Tally, ansatz_work: float) -> dict:
    n_bar, theta = call.meta["nbar"], call.meta["theta"]
    try:
        summary = json.loads(call.stdout)
        wave = _read_csv(call.out)
    except (OSError, ValueError) as exc:
        tally.add(False, f"optimize n_bar={n_bar}: unreadable output ({exc}), exit {call.exit_code}")
        return {}
    work = summary.get("work", math.nan)
    checks = {
        "exit 0": call.exit_code == 0,
        "converged": summary.get("converged") is True,
        "summary charge": abs(summary.get("charge", math.nan) / n_bar - 1.0) <= CHARGE_RTOL,
        "waveform charge": wave.shape[1:] == (2,) and abs(_charge(wave[:, 0], wave[:, 1]) / n_bar - 1.0) <= CHARGE_RTOL,
        "W <= ergotropy": work <= ergotropy_pure(theta) + BOUND_TOL,
        "W >= ansatz": work >= ansatz_work - ANSATZ_TOL,
    }
    why = [name for name, ok in checks.items() if not ok]
    tally.add(not why, f"optimize n_bar={n_bar}: failed {why}, W={work!r}, ansatz {ansatz_work!r}")
    return {"n_bar": n_bar, "theta": theta, "work": work, "ansatz_work": ansatz_work,
            "iterations": summary.get("iterations")}


_SUITES = ("bound-scan", "conservation", "scale-invariance")


def _check_verify(call: Call, tally: Tally) -> dict:
    try:
        report = json.loads(call.out.read_text(encoding="utf-8"))
        suites = report["suites"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        tally.add(False, f"verify: unreadable report ({exc}), exit {call.exit_code}")
        for name in _SUITES:
            tally.add(False, f"verify: {name} missing")
        return {}
    tally.add(call.exit_code == 0 and report.get("passed") is True, f"verify: exit {call.exit_code}")
    for name in _SUITES:
        suite = suites.get(name, {})
        ok = suite.get("passed") is True
        if name == "bound-scan":
            ok = ok and suite.get("resolution") == call.meta["resolution"] and suite.get("n_violations") == 0
        tally.add(ok, f"verify: suite {name} {suite}")
    return {"min_gap": suites.get("bound-scan", {}).get("min_gap"),
            "max_integral_residual": suites.get("conservation", {}).get("max_integral_residual")}


class Checker:
    """Checks each pass's outputs; remembers the ansatz work per pulse point."""

    def __init__(self, ergoflux):
        self.ef = ergoflux
        self.tally = Tally()
        self.answers: list[dict] = []
        self._ansatz: dict[tuple, float] = {}

    def ansatz_work(self, n_bar: float, theta: float) -> float:
        key = (n_bar, theta)
        if key not in self._ansatz:
            prep = self.ef.Preparation(p=0.0, theta=theta)
            self._ansatz[key] = float(self.ef.optimize_exponential_tau(prep, n_bar=n_bar).work)
        return self._ansatz[key]

    def check(self, calls: list[Call]) -> None:
        for call in calls:
            answer = None
            if call.kind in ("sweep_i", "sweep_iii"):
                answer = _check_map(call, self.tally, pinned=call.kind == "sweep_i")
            elif call.kind == "husimi":
                _check_husimi(call, self.tally)
            elif call.kind == "optimize":
                ansatz = self.ansatz_work(call.meta["nbar"], call.meta["theta"])
                answer = _check_optimize(call, self.tally, ansatz)
            elif call.kind == "verify":
                answer = _check_verify(call, self.tally)
            if answer:
                self.answers.append(answer)
