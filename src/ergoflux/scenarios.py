"""Work-extraction protocols for the driven qubit battery.

Three drive schedules are covered:

* `scenario_continuous` (case i): constant drive set by the photon rate,
  stopped at the work-maximizing time with the coupling switched off there,
* `scenario_spontaneous` (case ii): no drive at all; work comes from the
  coherent part of the decaying dipole's emission,
* `scenario_pulsed` (case iii): a square wave packet of fixed photon content
  and duration, followed by free decay with the coupling left on.

Each returns a `ScenarioResult`; `sweep` maps any of them over a parameter
grid with optional process-level parallelism.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize as _sopt

from .dynamics import (
    CouplingSchedule,
    IntegrationAccuracyError,
    Preparation,
    SquarePulse,
    SquarePulseSolution,
    Trajectory,
    _transient_basis,
    free_decay_trajectory,
    prepare_initial,
)
from .energetics import (
    EnergeticsTrace,
    accumulate,
    ergotropy,
    extraction_yield,
    square_drive_work_fn,
    suggested_grid_step,
)

# work may exceed ergotropy only by numerical noise
_BOUND_TOL = 1e-6

SCENARIO_NAMES = ("continuous", "spontaneous", "pulsed")
SCENARIO_ALIASES = {"i": "continuous", "ii": "spontaneous", "iii": "pulsed"}


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """Outcome of one extraction run.

    ``eta`` is NaN for passive preparations (zero ergotropy, yield
    undefined); ``tau_opt`` is None where no stopping time is involved.
    """

    prep: Preparation
    work: float
    eta: float
    tau_opt: float | None = None
    n_interacted: float | None = None
    trace: EnergeticsTrace | None = None

    def __post_init__(self):
        if self.work > ergotropy(self.prep) + _BOUND_TOL:
            raise IntegrationAccuracyError(
                f"work {self.work} exceeds the ergotropy "
                f"{ergotropy(self.prep)} of the preparation"
            )


# --------------------------- stopping-time search ---------------------------


def _scalar_coherence(sol: SquarePulseSolution):
    """Closed-form dipole as a fast scalar function (for root refinement)."""
    co = sol.coefficients
    q, decay, cf, sf, _, _ = _transient_basis(co.k, sol.alpha, math)
    a, bq, c = co.a, co.b / q, co.c

    def f(t):
        return math.exp(-decay * t) * (a * cf(q * t) + bq * sf(q * t)) + c

    return f


def _dipole_extrema(sol: SquarePulseSolution, t_max: float) -> list[float]:
    """Interior times where the constant-drive dipole has zero slope.

    The slope is exp(-alpha t) * (pc * C + ps * S), so its zeros solve
    S / C = -pc / ps on each branch of the basis.
    """
    q, _, _, _, arc, period = _transient_basis(sol.coefficients.k, sol.alpha, math)
    pc, ps = sol.pc, sol.ps
    if pc == 0.0 and ps == 0.0:
        return []
    r = -pc / ps if ps != 0.0 else math.copysign(math.inf, -pc)  # C = 0
    t = arc(q * r) / q
    if not t > 1e-15:
        t += period
    out: list[float] = []
    while t < t_max:
        out.append(t)
        t += period
    return out


def _crossing_horizon(sol: SquarePulseSolution, cap: float) -> float:
    """Upper bound on times where the dipole can still cross zero.

    For every k, exp(-gamma t / 4) bounds |C| by 1 and |S| by 1 / w with
    w = max(sqrt|k|, gamma / 2) (sqrt|k| < gamma / 4 when k < 0), so the
    transient stays below (|a| + |b| / w) * exp(-gamma t / 2).  The settled
    value c is strictly negative, so crossings die once that envelope drops
    below |c|.
    """
    co, gamma = sol.coefficients, sol.gamma
    if gamma <= 0.0 or co.c == 0.0:
        return cap
    amp = abs(co.a) + abs(co.b) / max(math.sqrt(abs(co.k)), 0.5 * gamma)
    if amp <= abs(co.c):
        return 0.0
    # pad so the end knot lies strictly inside the settled region
    return min(cap, 2.0 / gamma * math.log(amp / abs(co.c)) + 1.0 / gamma)


def _zero_candidates(prep: Preparation, rabi: float, gamma: float, t_max: float) -> list[float]:
    """Times where the driven dipole crosses zero downwards, bracketed between its extrema.

    These are the interior maxima of the extracted work: the work rate is
    s*(rabi + gamma*s), and the second factor stays positive because s
    starts nonnegative and never falls below -rabi/gamma.  An upward
    crossing is a local minimum of the work, so a downward one (or tau = 0)
    before it always does better.
    """
    sol = SquarePulseSolution(prep, rabi, gamma)
    f = _scalar_coherence(sol)
    horizon = _crossing_horizon(sol, t_max)
    if horizon <= 0.0:
        return []

    knots = [0.0] + _dipole_extrema(sol, horizon) + [horizon]
    zeros: list[float] = []
    for lo, hi in zip(knots[:-1], knots[1:]):
        if f(lo) > 0.0 > f(hi):
            zeros.append(float(_sopt.brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16)))
    return zeros


def optimal_square_work(
    prep: Preparation, rabi: float, gamma: float = 1.0, polish: bool = True
) -> tuple[float, float]:
    """Best stopping time and work for a constant drive with coupling cut at stop.

    Candidates are tau = 0 (extract nothing) and the downward zero crossings
    of the dipole on (0, 20/gamma]; the dipole settles to a strictly negative value,
    so the work decreases at late times and the window suffices.  ``polish``
    runs a bounded scalar refinement around the best candidate.
    """
    work_fn = square_drive_work_fn(prep, rabi, gamma)
    t_max = 20.0 / gamma if gamma > 0.0 else 8.0 * math.pi / rabi

    best_tau = 0.0
    best_w = 0.0
    for tau in _zero_candidates(prep, rabi, gamma, t_max):
        w = work_fn(tau)
        if w > best_w:
            best_w = w
            best_tau = tau

    if polish and best_tau > 0.0:
        span = min(0.25 * best_tau, 2.0 / (0.75 * gamma + rabi))
        lo = max(best_tau - span, 0.0)
        hi = best_tau + span
        res = _sopt.minimize_scalar(
            lambda t: -work_fn(t), bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-12},
        )
        # The crossings are exact stationary points, so only adopt the refined
        # stopping time on a real improvement; near the flat optimum the
        # scalar search wanders by ~sqrt(eps) and would spoil reproducibility.
        if -res.fun > best_w + 1e-12 * max(1.0, abs(best_w)):
            best_w = float(-res.fun)
            best_tau = float(res.x)
    return best_tau, best_w


# --------------------------- the three protocols ---------------------------


def _square_trace(
    prep: Preparation, rabi: float, gamma: float, tau: float, coupling: CouplingSchedule
) -> EnergeticsTrace:
    sol = SquarePulseSolution(prep, rabi, gamma)
    h = suggested_grid_step(rabi, gamma, tau)
    num = max(2, int(math.ceil(tau / h)) + 1)
    times = np.linspace(0.0, tau, num)
    s = np.atleast_1d(sol.coherence(times))
    p = np.atleast_1d(sol.excited_population(times))
    traj = Trajectory(
        times=times,
        p_e=p,
        s_bar=s.astype(complex),
        drive=SquarePulse(amplitude=rabi, duration=tau),
        coupling=coupling,
        gamma=gamma,
    )
    return accumulate(traj, include_tail=False)


def scenario_continuous(
    prep: Preparation,
    photon_rate_ratio: float,
    gamma: float = 1.0,
    polish: bool = True,
    with_trace: bool = False,
) -> ScenarioResult:
    """Case (i): constant drive at photon rate ``photon_rate_ratio * gamma``.

    The Rabi frequency is 2*sqrt(gamma * photon_rate); the drive runs until
    the work-maximizing stopping time, where the coupling is switched off so
    no decay tail reaches the channel.  ``n_interacted`` counts the photons
    that arrived during the interaction.
    """
    if photon_rate_ratio <= 0.0:
        raise ValueError("photon_rate_ratio must be positive")
    rabi = 2.0 * gamma * math.sqrt(photon_rate_ratio)
    tau, work = optimal_square_work(prep, rabi, gamma, polish=polish)
    trace = None
    if with_trace and tau > 0.0:
        trace = _square_trace(
            prep, rabi, gamma, tau, CouplingSchedule(gamma_off_time=tau)
        )
    return ScenarioResult(
        prep=prep,
        work=work,
        eta=extraction_yield(work, prep),
        tau_opt=tau,
        n_interacted=photon_rate_ratio * gamma * tau,
        trace=trace,
    )


def scenario_spontaneous(
    prep: Preparation, gamma: float = 1.0, with_trace: bool = False
) -> ScenarioResult:
    """Case (ii): no drive; the full decay deposits s(0)^2 of work into the channel."""
    state0 = prepare_initial(prep)
    work = abs(state0.s_bar) ** 2
    trace = None
    if with_trace:
        traj = free_decay_trajectory(state0, gamma, t_end=40.0 / gamma, num=16001)
        trace = accumulate(traj, include_tail=True)
    return ScenarioResult(
        prep=prep,
        work=work,
        eta=extraction_yield(work, prep),
        tau_opt=None,
        n_interacted=0.0,
        trace=trace,
    )


def scenario_pulsed(
    prep: Preparation,
    n_bar: float,
    tau: float,
    gamma: float = 1.0,
    with_trace: bool = False,
) -> ScenarioResult:
    """Case (iii): square wave packet of charge ``n_bar`` and duration ``tau``.

    The coupling stays on throughout, so the free-decay tail after the pulse
    also counts.  ``n_bar = 0`` reduces exactly to the spontaneous protocol.
    """
    if n_bar < 0.0:
        raise ValueError("n_bar must be nonnegative")
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if n_bar == 0.0:
        return scenario_spontaneous(prep, gamma=gamma, with_trace=with_trace)

    rabi = 2.0 * math.sqrt(gamma * n_bar / tau)
    work_fn = square_drive_work_fn(prep, rabi, gamma)
    sol = SquarePulseSolution(prep, rabi, gamma)
    s_end = float(sol.coherence(tau))
    work = work_fn(tau) + s_end * s_end  # exact tail of the free decay

    trace = None
    if with_trace:
        pulse_part = _square_trace(prep, rabi, gamma, tau, CouplingSchedule())
        state_end = sol.state(tau)
        decay = free_decay_trajectory(state_end, gamma, t_end=40.0 / gamma, num=16001)
        decay_trace = accumulate(decay, include_tail=True)
        # splice the two traces on a common clock
        times = np.concatenate([pulse_part.times, tau + decay_trace.times[1:]])
        trace = EnergeticsTrace(
            times=times,
            energy=np.concatenate([pulse_part.energy, decay_trace.energy[1:]]),
            work_flux=np.concatenate([pulse_part.work_flux, decay_trace.work_flux[1:]]),
            heat_flux=np.concatenate([pulse_part.heat_flux, decay_trace.heat_flux[1:]]),
            input_flux=np.concatenate([pulse_part.input_flux, decay_trace.input_flux[1:]]),
            output_flux=np.concatenate([pulse_part.output_flux, decay_trace.output_flux[1:]]),
            work=np.concatenate([pulse_part.work, pulse_part.work[-1] + decay_trace.work[1:]]),
            heat=np.concatenate([pulse_part.heat, pulse_part.heat[-1] + decay_trace.heat[1:]]),
            work_tail=decay_trace.work_tail,
            heat_tail=decay_trace.heat_tail,
        )

    return ScenarioResult(
        prep=prep,
        work=work,
        eta=extraction_yield(work, prep),
        tau_opt=tau,
        n_interacted=n_bar,
        trace=trace,
    )


# --------------------------- parameter sweeps ---------------------------


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: name plus the grid of values."""

    name: str
    values: np.ndarray = field(default_factory=lambda: np.array([]))

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or len(self.values) < 2:
            raise ValueError("values must be a 1-D array with at least 2 entries")


# scenario parameters addressable by sweeps and fixed values
_AXIS_NAMES = {"theta", "p", "ndot", "nbar", "tau"}
# parameters without a default, per scenario
_REQUIRED = {
    "continuous": ("theta", "ndot"),
    "spontaneous": ("theta",),
    "pulsed": ("theta", "nbar", "tau"),
}


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Cartesian sweep specification for one scenario.

    ``fixed`` supplies every scenario parameter not covered by the two axes
    (p defaults to 0): ``ndot`` for the continuous case, ``nbar`` and ``tau``
    for the pulsed one.
    """

    scenario: str
    axis1: SweepAxis
    axis2: SweepAxis
    fixed: dict = field(default_factory=dict)
    gamma: float = 1.0

    def __post_init__(self):
        name = SCENARIO_ALIASES.get(self.scenario, self.scenario)
        object.__setattr__(self, "scenario", name)
        if name not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario {self.scenario!r}; pick from {SCENARIO_NAMES}")
        for ax in (self.axis1, self.axis2):
            if ax.name not in _AXIS_NAMES:
                raise ValueError(f"unknown axis {ax.name!r}; pick from {sorted(_AXIS_NAMES)}")
        if self.axis1.name == self.axis2.name:
            raise ValueError("the two axes must differ")
        for key in self.fixed:
            if key not in _AXIS_NAMES:
                raise ValueError(f"unknown fixed parameter {key!r}")
        given = {self.axis1.name, self.axis2.name, *self.fixed}
        missing = [key for key in _REQUIRED[name] if key not in given]
        if missing:
            raise ValueError(f"the {name} sweep needs a value for {', '.join(missing)}")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Work, yield, and stopping time over the grid; ``flag`` marks failed cells."""

    grid: SweepGrid
    work: np.ndarray
    eta: np.ndarray
    tau_opt: np.ndarray
    flag: np.ndarray


def _run_cell(args) -> tuple[float, float, float, bool]:
    scenario, params, gamma = args
    try:
        prep = Preparation(p=params.pop("p", 0.0), theta=params.pop("theta"))
        if scenario == "continuous":
            r = scenario_continuous(prep, params["ndot"], gamma=gamma, polish=False)
        elif scenario == "spontaneous":
            r = scenario_spontaneous(prep, gamma=gamma)
        else:
            r = scenario_pulsed(prep, n_bar=params["nbar"], tau=params["tau"], gamma=gamma)
        tau = r.tau_opt if r.tau_opt is not None else math.nan
        return r.work, r.eta, tau, False
    except (ValueError, IntegrationAccuracyError):
        return math.nan, math.nan, math.nan, True


def _worker_count() -> int:
    env = os.environ.get("ERGOFLUX_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return min(os.cpu_count() or 1, 8)


def sweep(grid: SweepGrid, parallel: bool | None = None) -> SweepResult:
    """Evaluate a scenario over the grid; cells that error are flagged, not fatal.

    Results are assembled in index order regardless of worker scheduling, so
    repeated runs are identical.  ``parallel=None`` enables processes when the
    grid is large enough to amortize the pool.
    """
    n1, n2 = len(grid.axis1.values), len(grid.axis2.values)
    jobs = []
    for v1 in grid.axis1.values:
        for v2 in grid.axis2.values:
            params = dict(grid.fixed)
            params[grid.axis1.name] = float(v1)
            params[grid.axis2.name] = float(v2)
            jobs.append((grid.scenario, params, grid.gamma))

    if parallel is None:
        parallel = len(jobs) >= 512
    workers = _worker_count()
    if parallel and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, jobs, chunksize=max(1, len(jobs) // (8 * workers))))
    else:
        rows = [_run_cell(j) for j in jobs]

    out = np.array(rows, dtype=float).reshape(n1, n2, 4)
    return SweepResult(
        grid=grid,
        work=out[:, :, 0],
        eta=out[:, :, 1],
        tau_opt=out[:, :, 2],
        flag=out[:, :, 3].astype(bool),
    )
