"""Pulse shaping for work extraction at a fixed photon budget.

Two layers:

* `optimize_exponential_tau` restricts the drive to a decaying exponential
  and finds the time constant that maximizes the extracted work (pulse plus
  free-decay tail, coupling always on) on a log grid refined by a bounded
  scalar search,
* `solve_optimal_control` optimizes a free piecewise-linear waveform under
  the same photon budget by L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) over a
  free vector v >= 0 whose rescaling onto the budget is the waveform, so
  the budget holds by construction; the gradient is the exact discrete
  adjoint of the RK4-discretized work functional, so it can be checked
  against finite differences of the same objective.

The work functional runs the RK4 steps as affine maps through one forward
`dynamics._drive_scan` and integrates the work flux on the same fine grid,
over each control interval by composite Simpson closed by a 3/8 panel when
the interval's step count is odd, so quadrature and integrator are both
fourth order.  Its adjoint is the same
scan transposed and run backwards, and the sensitivity of each step to its
three drive samples is evaluated elementwise from the adjoint after the
step and the state before it.  The exponential scan runs the same
functional over each drive's own window, with h * max(gamma, amplitude,
1/tau) <= `_STEP_BOUND`, and all time constants of the grid share one
forward scan: a restart map between two drives puts the state back at the
preparation.

The solver reports the converged waveform together with the work recomputed
through the strict integration pipeline (`dynamics` RK4 trajectory plus
`energetics.accumulate`), so numbers are comparable with the scenario runs;
that trajectory steps each control interval by the interval's own peak.

scipy is imported inside the two functions that call it, the refine step of
`_scan_exponential_tau` and `_shape`, so importing the package loads numpy
alone.
"""
from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    ExponentialPulse,
    IntegrationAccuracyError,
    Preparation,
    TabulatedPulse,
    _RK4_BOUND,
    _affine_scan,
    _clamped_samples,
    _drive_scan,
    _integrate,
    _rhs,
    evolve_numeric,
    prepare_initial,
)
from .energetics import _TRAPEZOID_BUDGET, accumulate, extraction_yield, suggested_grid_step

__all__ = [
    "ExponentialTauResult",
    "optimize_exponential_tau",
    "ControlProblem",
    "control_work_and_gradient",
    "control_work",
    "project_to_budget",
    "solve_optimal_control",
    "OptimalPulse",
]


# --------------------------- exponential ansatz ---------------------------


@dataclass(frozen=True, eq=False)
class ExponentialTauResult:
    """Best exponential drive at fixed photon number."""

    tau_opt: float
    work: float
    eta: float
    pulse: ExponentialPulse
    at_boundary: bool
    taus: np.ndarray
    works: np.ndarray


def _exponential_works(prep: Preparation, n_bar: float, taus, gamma: float) -> np.ndarray:
    """Work of the exponential drive, pulse plus free-decay tail, at each time constant.

    The same RK4/Simpson functional as `control_work`: each drive runs over
    its `ExponentialPulse.support_end` window in n steps with
    h * max(gamma, amplitude, 1/tau) <= `_STEP_BOUND`, its work flux is
    integrated by `_quadrature_weights` on that grid, and the tail adds the
    exact s(end)^2.  All drives share one `_drive_scan`: the step after each
    drive's last node is a restart map (M = 0, offset x0) that puts the state
    back at the preparation for the next drive.
    """
    on, om, hs, wq = [], [], [], []
    for tau in taus:
        pulse = ExponentialPulse(n_bar=n_bar, tau=float(tau), gamma=gamma)
        window = pulse.support_end()
        n = math.ceil(window * max(gamma, pulse.amplitude, 1.0 / pulse.tau) / _STEP_BOUND)
        h = window / n
        t = np.linspace(0.0, window, n + 1)
        on.append(pulse.rabi(t))
        om.append(np.append(pulse.rabi(t[:-1] + 0.5 * h), 0.0))  # last slot: the restart step
        hs.append(np.full(n + 1, h))
        wq.append(h * _quadrature_weights(n))
    ends = np.cumsum([len(a) for a in on]) - 1  # last node of each drive
    on, om, hs, wq = (np.concatenate(a) for a in (on, om, hs, wq))

    state0 = prepare_initial(prep)
    x = _drive_scan(on, om, hs, gamma, (state0.p_e, state0.s_bar), restarts=ends[:-1])
    _clamped_samples(*x)  # raises past BLOCH_TOL
    s = x[1]
    flux = wq * (on * s + gamma * s * s)
    return np.add.reduceat(flux, np.append(0, ends[:-1] + 1)) + s[ends] ** 2


# the exponential scan: _N_GRID time constants log-spaced over _TAU_RANGE / gamma
_TAU_RANGE = (1e-3, 10.0)
_N_GRID = 25


def _scan_exponential_tau(prep, n_bar, gamma):
    """The scan and refinement of `optimize_exponential_tau` without its strict
    evaluation: returns (tau_star, at_boundary, taus, works)."""
    if not (math.isfinite(n_bar) and n_bar > 0.0):
        raise ValueError(f"n_bar must be positive and finite, got {n_bar}")
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    lo, hi = _TAU_RANGE
    taus = np.geomspace(lo / gamma, hi / gamma, _N_GRID)
    works = _exponential_works(prep, n_bar, taus, gamma)

    best = int(np.argmax(works))
    at_boundary = best in (0, len(taus) - 1)
    tau_star = float(taus[best])
    if not at_boundary:
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(
            lambda lt: -_exponential_works(prep, n_bar, [math.exp(lt)], gamma)[0],
            bounds=(math.log(taus[best - 1]), math.log(taus[best + 1])),
            method="bounded",
            options={"xatol": 1e-4},
        )
        tau_star = float(math.exp(res.x))
    return tau_star, at_boundary, taus, works


def optimize_exponential_tau(prep: Preparation, n_bar: float, gamma: float = 1.0) -> ExponentialTauResult:
    """Scan the pulse time constant on a log grid, then refine around the best point.

    The grid holds `_N_GRID` time constants over `_TAU_RANGE` in units of
    1/gamma.  ``at_boundary`` flags a maximum at an edge of that fixed
    range, where the best time constant may lie outside it.
    ``works`` are the RK4/Simpson functional of the scan; ``work`` is
    recomputed at the refined time constant through the strict pipeline,
    on a step that also resolves the pulse's decay (at most tau/64).
    """
    tau_star, at_boundary, taus, works = _scan_exponential_tau(prep, n_bar, gamma)
    pulse = ExponentialPulse(n_bar=n_bar, tau=tau_star, gamma=gamma)
    window = pulse.support_end()
    # the step resolves the pulse's decay as well as its Rabi and decay rates
    dt = min(suggested_grid_step(pulse.amplitude, gamma, window), tau_star / 64.0)
    traj = evolve_numeric(prepare_initial(prep), pulse, t_end=window, dt=dt, gamma=gamma)
    work = accumulate(traj).total_work
    return ExponentialTauResult(
        tau_opt=tau_star,
        work=work,
        eta=extraction_yield(work, prep),
        pulse=pulse,
        at_boundary=at_boundary,
        taus=taus,
        works=works,
    )


# --------------------------- free-form control ---------------------------


@dataclass(frozen=True)
class ControlProblem:
    """Waveform optimization setup: preparation, photon budget, horizon, grid size.

    The horizon must leave a few lifetimes after the pulse (>= 5/gamma) so the
    free-decay tail term is meaningful, and the control grid must resolve the
    dynamics (>= 32 nodes).
    """

    prep: Preparation
    n_bar: float
    horizon: float = 10.0
    n_nodes: int = 400
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("n_bar", "horizon", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n_bar <= 0.0:
            raise ValueError("n_bar must be positive")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.horizon < 5.0 / self.gamma:
            raise ValueError("horizon must be at least 5/gamma")
        if self.n_nodes < 32:
            raise ValueError("need at least 32 control nodes")


def _check_grid(controls: np.ndarray, times: np.ndarray) -> float:
    if controls.shape != times.shape or controls.ndim != 1 or len(controls) < 2:
        raise ValueError("controls and times must be 1-D arrays of equal length >= 2")
    if not np.isfinite(controls).all():
        raise ValueError("controls must be finite")
    steps = np.diff(times)
    delta = float(steps[0])
    if delta <= 0.0 or not np.allclose(steps, delta, rtol=1e-12, atol=0.0):
        raise ValueError("control grid must be uniform")
    return delta


def _quadrature_weights(n: int) -> np.ndarray:
    """Unit-step weights of n + 1 equally spaced samples, fourth order for n >= 2.

    Composite Simpson, closed by a 3/8 panel on the last three steps when
    n is odd; a single step is the trapezoid.
    """
    if n == 1:
        return np.full(2, 0.5)
    w = np.zeros(n + 1)
    e = n - 3 * (n % 2)  # steps covered by Simpson panels [k, k + 1, k + 2]
    w[0:e:2] += 1.0 / 3.0
    w[1:e:2] += 4.0 / 3.0
    w[2 : e + 1 : 2] += 1.0 / 3.0
    if e < n:
        w[e:] += (3.0 / 8.0, 9.0 / 8.0, 9.0 / 8.0, 3.0 / 8.0)
    return w


@functools.lru_cache(maxsize=8)
def _gather_tables(m: int, n_sub: int):
    """Interpolation indices/weights of the fine RK4 grid into the control nodes,
    and the unit-step quadrature weights of the fine grid.

    Cached per (m, n_sub), so the arrays are read-only.
    """
    n = (m - 1) * n_sub
    k = np.arange(n + 1)
    jn = np.minimum(k // n_sub, m - 2)
    un = k / n_sub - jn
    km = np.arange(n)
    jm = np.minimum(km // n_sub, m - 2)
    um = (km + 0.5) / n_sub - jm
    # per control interval, so no panel straddles a kink of the drive
    u = _quadrature_weights(n_sub)
    w = np.append(np.tile(u[:-1], m - 1), 0.0)
    w[n_sub::n_sub] += u[-1]
    for a in (jn, un, jm, um, w):
        a.setflags(write=False)
    return n, jn, un, jm, um, w


# bound on h * max(gamma, drive scale) for the default fine step and the exponential scan
_STEP_BOUND = 0.04


def _default_n_sub(delta: float, gamma: float, peak: float) -> int:
    """RK4 steps per control interval for controls of the given peak.

    The drive scale is 1.5 times the peak, a margin for L-BFGS-B to raise
    the peak above that of its start.
    """
    return max(2, math.ceil(delta * max(gamma, 1.5 * peak, 1e-12) / _STEP_BOUND))


def _forward(controls, times, prep, gamma, n_sub, keep_maps=False):
    """One forward scan of the RK4/Simpson work functional.

    Returns the work, the fine-grid drive at nodes and midpoints, the step
    maps as a (2, 3, n) array if ``keep_maps`` (else None), the node states
    (2, n + 1), the fine step and the gather tables.  The maps are built
    block by block; only the gradient keeps them, for its reverse scan,
    because storing them costs more than rebuilding a block.
    """
    c = np.asarray(controls, dtype=float)
    delta = _check_grid(c, np.asarray(times, dtype=float))
    if n_sub is None:
        n_sub = _default_n_sub(delta, gamma, float(np.abs(c).max()))
    elif isinstance(n_sub, bool) or not isinstance(n_sub, numbers.Integral) or n_sub < 1:
        raise ValueError(f"n_sub must be a positive integer, got {n_sub!r}")
    tables = n, jn, un, jm, um, w = _gather_tables(len(c), n_sub)
    h = delta / n_sub
    on = (1.0 - un) * c[jn] + un * c[jn + 1]
    om = (1.0 - um) * c[jm] + um * c[jm + 1]

    kept = np.empty((2, 3, n)) if keep_maps else None
    state0 = prepare_initial(prep)
    x = _drive_scan(on, om, h, gamma, (state0.p_e, state0.s_bar), kept=kept)
    s = x[1]
    with np.errstate(over="ignore", invalid="ignore"):  # huge states are reported below
        wv = on * s + gamma * s * s
        work = float(h * (w * wv).sum() + s[-1] ** 2)
    if not math.isfinite(work):
        raise IntegrationAccuracyError(
            "forward pass produced a non-finite work; shrink the step or the controls"
        )
    return work, on, om, kept, x, h, tables


def control_work(
    controls,
    times,
    prep: Preparation,
    gamma: float = 1.0,
    n_sub: int | None = None,
) -> float:
    """Work functional of a piecewise-linear waveform (RK4 + Simpson + exact tail)."""
    return _forward(controls, times, prep, gamma, n_sub)[0]


def control_work_and_gradient(
    controls,
    times,
    prep: Preparation,
    gamma: float = 1.0,
    n_sub: int | None = None,
) -> tuple[float, np.ndarray]:
    """Work functional and its exact gradient with respect to the control nodes.

    The gradient is the discrete adjoint of the same RK4/Simpson scheme
    `control_work` uses, so central finite differences of that function match
    it to roundoff.  Pass an explicit ``n_sub`` when comparing against finite
    differences, because the default substep count depends on the control
    amplitude.
    """
    work, on, om, maps, x, h, (n, jn, un, jm, um, w) = _forward(
        controls, times, prep, gamma, n_sub, keep_maps=True
    )
    g = gamma
    p, s = x
    wq = h * w

    # adjoint lam_k = dJ/dx_k = M_k^T lam_{k+1} + (0, d_k): the transposed scan
    d = wq * (on + 2.0 * g * s)
    d[-1] += 2.0 * s[-1]
    maps[0, 2] = 0.0
    maps[1, 2] = d[:-1]
    lp, ls = _affine_scan(lambda lo, hi: maps[..., lo:hi], n, (0.0, d[-1]), reverse=True)[:, 1:]

    # stage states of every step k from x_k ...
    p0, s0 = p[:-1], s[:-1]
    oa, oc = on[:-1], on[1:]
    k1p, k1s = _rhs(p0, s0, oa, g)
    p1, s1 = p0 + 0.5 * h * k1p, s0 + 0.5 * h * k1s
    k2p, k2s = _rhs(p1, s1, om, g)
    p2, s2 = p0 + 0.5 * h * k2p, s0 + 0.5 * h * k2s
    k3p, k3s = _rhs(p2, s2, om, g)
    p3, s3 = p0 + h * k3p, s0 + h * k3s
    # ... and the cotangents of its stage slopes from lam_{k+1}; A(rabi)^T = A(-rabi)
    u4p, u4s = h / 6.0 * lp, h / 6.0 * ls
    ap, as_ = _rhs(u4p, u4s, -oc, g, 0.0)
    u3p, u3s = h / 3.0 * lp + h * ap, h / 3.0 * ls + h * as_
    ap, as_ = _rhs(u3p, u3s, -om, g, 0.0)
    u2p, u2s = h / 3.0 * lp + 0.5 * h * ap, h / 3.0 * ls + 0.5 * h * as_
    ap, as_ = _rhs(u2p, u2s, -om, g, 0.0)
    u1p, u1s = h / 6.0 * lp + 0.5 * h * ap, h / 6.0 * ls + 0.5 * h * as_

    # a stage's slope moves with its drive sample by (-s, p - 1/2)
    gn = wq * s
    gn[:-1] += u1s * (p0 - 0.5) - u1p * s0
    gn[1:] += u4s * (p3 - 0.5) - u4p * s3
    gm = u2s * (p1 - 0.5) - u2p * s1 + u3s * (p2 - 0.5) - u3p * s2

    m = len(controls)
    return work, (
        np.bincount(jn, (1.0 - un) * gn, m)
        + np.bincount(jn + 1, un * gn, m)
        + np.bincount(jm, (1.0 - um) * gm, m)
        + np.bincount(jm + 1, um * gm, m)
    )


# --------------------------- budget geometry ---------------------------


def _budget_quadratic(c: np.ndarray, delta: float) -> float:
    """Exact integral of the squared piecewise-linear waveform."""
    v0 = c[:-1]
    v1 = c[1:]
    return float(delta / 3.0 * np.sum(v0 * v0 + v0 * v1 + v1 * v1))


def _budget_gradient(c: np.ndarray, delta: float) -> np.ndarray:
    g = np.zeros_like(c)
    g[:-1] += delta / 3.0 * (2.0 * c[:-1] + c[1:])
    g[1:] += delta / 3.0 * (2.0 * c[1:] + c[:-1])
    return g


def project_to_budget(controls, times, n_bar: float, gamma: float = 1.0) -> np.ndarray:
    """Clamp the waveform nonnegative and rescale its photon content to ``n_bar``."""
    c = np.clip(np.asarray(controls, dtype=float), 0.0, None)
    t = np.asarray(times, dtype=float)
    delta = _check_grid(c, t)
    target = 4.0 * gamma * n_bar
    q = _budget_quadratic(c, delta)
    if q <= 0.0:
        c = np.full_like(c, math.sqrt(target / (delta * (len(c) - 1))))
        return c
    return c * math.sqrt(target / q)


# --------------------------- the solver ---------------------------


@dataclass(frozen=True, eq=False)
class OptimalPulse:
    """Converged waveform with its internally and strictly evaluated work.

    ``work`` comes from the strict trajectory pipeline: an RK4 trajectory
    that steps each control interval uniformly by that interval's own peak,
    under one trapezoid error budget spread over the horizon, then
    `accumulate` with its first-law check; at n_bar = 0.1 to 20 it lies
    within 5e-8 of the converged functional.  ``objective`` is the internal discrete value the
    solver maximized.  ``converged``,
    ``iterations``, ``gradient_norm`` and ``message`` are L-BFGS-B's
    ``success``, ``nit``, projected-gradient infinity norm (in the free
    coordinates) and stop message for the best start.
    """

    problem: ControlProblem
    times: np.ndarray
    controls: np.ndarray
    pulse: TabulatedPulse
    work: float
    eta: float
    objective: float
    converged: bool
    iterations: int
    gradient_norm: float
    message: str
    start_objectives: tuple


def _shape(c0, times, prep, gamma, n_bar, n_sub):
    """L-BFGS-B from one start over v >= 0, with the waveform c(v) = a*v on the budget.

    a = sqrt(4*gamma*n_bar / q(v)) with q the exact integral of the squared
    waveform, so every evaluation meets the photon budget and the work is
    invariant along v; its v-gradient is a*g - a*(g.v)/(2q)*grad q.
    Returns (controls, objective, scipy result).
    """
    from scipy.optimize import Bounds, minimize

    delta = float(times[1] - times[0])
    target = 4.0 * gamma * n_bar

    def negative_work(v):
        q = _budget_quadratic(v, delta)
        a = math.sqrt(target / q)
        work, g = control_work_and_gradient(v * a, times, prep, gamma, n_sub)
        grad = a * g - (a * float(g @ v) / (2.0 * q)) * _budget_gradient(v, delta)
        return -work, -grad

    res = minimize(
        negative_work,
        project_to_budget(c0, times, n_bar, gamma),
        jac=True,
        method="L-BFGS-B",
        bounds=Bounds(0.0, np.inf),
        options={"maxiter": _MAX_ITER, "ftol": 1e-12, "gtol": 1e-9},
    )
    return project_to_budget(res.x, times, n_bar, gamma), -float(res.fun), res


def _strict_work(pulse: TabulatedPulse, prep: Preparation, gamma: float) -> float:
    """Work of a waveform on the control grid through the strict pipeline.

    The trajectory steps each control interval k uniformly, by its own peak
    r_k = max(c_k, c_{k+1}), which is exact for a piecewise-linear drive.
    With rate = hypot(r_k, gamma), the step keeps h * rate <= 0.01 (RK4) and
    h^2 * rate^3 * horizon / 12 <= `_TRAPEZOID_BUDGET`: the trapezoid error
    budget of `suggested_grid_step`, spread over the horizon, so that
    interval k adds at most budget * delta / horizon.  `accumulate` then
    books the work and the exact free-decay tail, and checks the first law.
    """
    t, c = pulse.times, pulse.values
    delta, horizon = float(t[1] - t[0]), float(t[-1])
    rate = np.hypot(np.maximum(c[:-1], c[1:]), gamma)
    step = np.minimum(np.sqrt(12.0 * _TRAPEZOID_BUDGET / (rate**3 * horizon)), _RK4_BOUND / rate)
    n = np.ceil(delta / step * (1.0 - 1e-12)).astype(np.intp)
    h = np.repeat(delta / n, n)
    k = np.arange(len(h)) - np.repeat(np.cumsum(n) - n, n)  # step within its interval
    fine = np.append(np.repeat(t[:-1], n) + k * h, horizon)
    return accumulate(_integrate(prepare_initial(prep), pulse, fine, h, gamma)).total_work


# L-BFGS-B iterations per start
_MAX_ITER = 5000
# fine RK4 steps of the work functional: past them its float64 arrays cannot be indexed
_MAX_FINE_STEPS = sys.maxsize // 8


def solve_optimal_control(problem: ControlProblem, n_starts: int = 1, seed: int = 0) -> OptimalPulse:
    """Maximize the extracted work over nonnegative waveforms at fixed photon number.

    Start 0 is the best exponential ansatz sampled on the control grid; the
    remaining starts are seeded multiplicative perturbations of it.  Each
    start is one L-BFGS-B run of at most `_MAX_ITER` iterations.  One start
    is the default: from n_bar = 1e-4 to 80, no extra start gained more than
    1e-12 over start 0, far below the functional's discretisation error
    (about 1e-8).  The returned ``work`` is recomputed through the
    strict trajectory pipeline, stepped per control interval by that
    interval's peak (`_strict_work`); ``objective`` is the internal discrete
    value the solver maximized.  The RK4 steps per control interval come
    from start 0 alone, so the functional does not depend on ``n_starts``
    or ``seed``.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    times = np.linspace(0.0, problem.horizon, problem.n_nodes)
    prep, gamma, n_bar = problem.prep, problem.gamma, problem.n_bar

    # start 0 needs only the ansatz's time constant, not its strict work
    tau = _scan_exponential_tau(prep, n_bar, gamma)[0]
    init = np.asarray(ExponentialPulse(n_bar=n_bar, tau=tau, gamma=gamma).rabi(times), dtype=float)
    peak = float(np.abs(project_to_budget(init, times, n_bar, gamma)).max())
    n_sub = _default_n_sub(float(times[1] - times[0]), gamma, peak)
    if (problem.n_nodes - 1) * n_sub >= _MAX_FINE_STEPS:
        raise ValueError(
            f"horizon must be shorter: {problem.horizon:g} over {problem.n_nodes} nodes "
            "needs more RK4 steps than an array can hold"
        )

    rng = np.random.default_rng(seed)
    starts = [init]
    for _ in range(n_starts - 1):
        starts.append(init * (1.0 + 0.25 * rng.standard_normal(len(init))))

    results = [_shape(s, times, prep, gamma, n_bar, n_sub) for s in starts]
    objs = tuple(r[1] for r in results)
    c_best, j_best, res = max(results, key=lambda r: r[1])
    pgrad = res.x - np.clip(res.x - res.jac, 0.0, None)

    pulse = TabulatedPulse(times=times, values=c_best)
    work = _strict_work(pulse, prep, gamma)

    return OptimalPulse(
        problem=problem,
        times=times,
        controls=c_best,
        pulse=pulse,
        work=work,
        eta=extraction_yield(work, prep),
        objective=j_best,
        converged=bool(res.success),
        iterations=int(res.nit),
        gradient_norm=float(np.abs(pgrad).max()),
        message=str(res.message),
        start_objectives=objs,
    )
