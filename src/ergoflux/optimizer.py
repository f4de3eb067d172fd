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
`dynamics._affine_scan` and integrates the work flux on the same fine grid,
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
through the strict integration pipeline, so numbers are comparable with the
scenario runs.

scipy is imported inside the two functions that call it, the refine step of
`_scan_exponential_tau` and `_shape`, so importing the package loads numpy
alone.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    ExponentialPulse,
    IntegrationAccuracyError,
    Preparation,
    TabulatedPulse,
    _affine_scan,
    _clamped_samples,
    _rhs,
    _rk4_maps,
    evolve_numeric,
    prepare_initial,
)
from .energetics import accumulate, extraction_yield, suggested_grid_step

__all__ = [
    "exponential_drive",
    "ExponentialTauResult",
    "optimize_exponential_tau",
    "ControlProblem",
    "control_times",
    "control_work_and_gradient",
    "control_work",
    "project_to_budget",
    "solve_optimal_control",
    "OptimalPulse",
    "pulse_distance",
]


def exponential_drive(n_bar: float, tau: float, gamma: float = 1.0) -> ExponentialPulse:
    """Decaying-exponential waveform carrying exactly ``n_bar`` photons."""
    return ExponentialPulse(n_bar=n_bar, tau=tau, gamma=gamma)


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
    exact s(end)^2.  All drives share one `_affine_scan`: the step after each
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
    x0 = (state0.p_e, state0.s_bar)
    restart = np.array([[0.0, 0.0, x0[0]], [0.0, 0.0, x0[1]]])[..., None]

    def maps(lo, hi):
        m = _rk4_maps(on[lo:hi], om[lo:hi], on[lo + 1 : hi + 1], gamma, gamma, gamma, hs[lo:hi])
        m[..., ends[(ends >= lo) & (ends < hi)] - lo] = restart
        return m

    x = _affine_scan(maps, len(on) - 1, x0)
    _clamped_samples(*x)  # raises past BLOCH_TOL
    s = x[1]
    flux = wq * (on * s + gamma * s * s)
    return np.add.reduceat(flux, np.append(0, ends[:-1] + 1)) + s[ends] ** 2


def _scan_exponential_tau(prep, n_bar, gamma, tau_range=(1e-3, 10.0), n_grid=25):
    """The scan and refinement of `optimize_exponential_tau` without its strict
    evaluation: returns (tau_star, at_boundary, taus, works)."""
    if not (math.isfinite(n_bar) and n_bar > 0.0):
        raise ValueError(f"n_bar must be positive and finite, got {n_bar}")
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    lo, hi = tau_range
    if not 0.0 < lo < hi < math.inf:
        raise ValueError(f"tau_range must satisfy 0 < lo < hi < inf, got {tau_range}")
    if n_grid < 5:
        raise ValueError("n_grid must be at least 5")
    taus = np.geomspace(lo / gamma, hi / gamma, n_grid)
    works = _exponential_works(prep, n_bar, taus, gamma)

    best = int(np.argmax(works))
    at_boundary = best in (0, n_grid - 1)
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


def optimize_exponential_tau(
    prep: Preparation,
    n_bar: float,
    gamma: float = 1.0,
    tau_range: tuple[float, float] = (1e-3, 10.0),
    n_grid: int = 25,
) -> ExponentialTauResult:
    """Scan the pulse time constant on a log grid, then refine around the best point.

    ``tau_range`` is in units of 1/gamma.  ``at_boundary`` flags a maximum
    pinned to the scan edge, in which case the range should be widened.
    ``works`` are the RK4/Simpson functional of the scan; ``work`` is
    recomputed at the refined time constant through the strict pipeline,
    on a step that also resolves the pulse's decay (at most tau/64).
    """
    tau_star, at_boundary, taus, works = _scan_exponential_tau(prep, n_bar, gamma, tau_range, n_grid)
    pulse = ExponentialPulse(n_bar=n_bar, tau=tau_star, gamma=gamma)
    window = pulse.support_end()
    # the step resolves the pulse's decay as well as its Rabi and decay rates
    dt = min(suggested_grid_step(pulse.amplitude, gamma, window), tau_star / 64.0)
    traj = evolve_numeric(prepare_initial(prep), pulse, t_end=window, dt=dt, gamma=gamma)
    work = accumulate(traj, include_tail=True).total_work
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


def control_times(horizon: float, n_nodes: int) -> np.ndarray:
    """Uniform control grid on [0, horizon]."""
    return np.linspace(0.0, horizon, n_nodes)


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

    The drive scale is 1.5 times the peak, a margin for the ascent to raise
    the peak of its start.
    """
    return max(2, math.ceil(delta * max(gamma, 1.5 * peak, 1e-12) / _STEP_BOUND))


def _check_n_sub(n_sub) -> None:
    if isinstance(n_sub, bool) or not isinstance(n_sub, numbers.Integral) or n_sub < 1:
        raise ValueError(f"n_sub must be a positive integer, got {n_sub!r}")


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
    else:
        _check_n_sub(n_sub)
    tables = n, jn, un, jm, um, w = _gather_tables(len(c), n_sub)
    h = delta / n_sub
    on = (1.0 - un) * c[jn] + un * c[jn + 1]
    om = (1.0 - um) * c[jm] + um * c[jm + 1]

    kept = np.empty((2, 3, n)) if keep_maps else None

    def maps(lo, hi):
        m = _rk4_maps(on[lo:hi], om[lo:hi], on[lo + 1 : hi + 1], gamma, gamma, gamma, h)
        if keep_maps:
            kept[..., lo:hi] = m
        return m

    state0 = prepare_initial(prep)
    x = _affine_scan(maps, n, (state0.p_e, state0.s_bar))
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

    ``work`` comes from the strict trajectory pipeline; ``objective`` is the
    internal discrete value the solver maximized.  ``converged``,
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


def _shape(c0, times, prep, gamma, n_bar, n_sub, max_iter):
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
        options={"maxiter": max_iter, "ftol": 1e-12, "gtol": 1e-9},
    )
    return project_to_budget(res.x, times, n_bar, gamma), -float(res.fun), res


def solve_optimal_control(
    problem: ControlProblem,
    n_starts: int = 4,
    seed: int = 0,
    max_iter: int = 5000,
    n_sub: int | None = None,
    init: np.ndarray | None = None,
) -> OptimalPulse:
    """Maximize the extracted work over nonnegative waveforms at fixed photon number.

    Start 0 is the best exponential ansatz sampled on the control grid; the
    remaining starts are seeded multiplicative perturbations of it.  Each
    start is one L-BFGS-B run of at most ``max_iter`` iterations.  The
    returned ``work`` is recomputed through the strict trajectory pipeline;
    ``objective`` is the internal discrete value the solver maximized.  The
    default ``n_sub`` (RK4 steps per control interval) comes from start 0
    alone, so the functional does not depend on ``n_starts`` or ``seed``.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if n_sub is not None:
        _check_n_sub(n_sub)
    times = control_times(problem.horizon, problem.n_nodes)
    delta = float(times[1] - times[0])
    prep, gamma, n_bar = problem.prep, problem.gamma, problem.n_bar

    if init is None:
        # start 0 needs only the ansatz's time constant, not its strict work
        tau = _scan_exponential_tau(prep, n_bar, gamma)[0]
        init = np.asarray(ExponentialPulse(n_bar=n_bar, tau=tau, gamma=gamma).rabi(times), dtype=float)
    else:
        init = np.asarray(init, dtype=float)
        if init.shape != times.shape:
            raise ValueError("init must match the control grid")

    if n_sub is None:
        peak = float(np.abs(project_to_budget(init, times, n_bar, gamma)).max())
        n_sub = _default_n_sub(delta, gamma, peak)

    rng = np.random.default_rng(seed)
    starts = [init]
    for _ in range(n_starts - 1):
        starts.append(init * (1.0 + 0.25 * rng.standard_normal(len(init))))

    results = [_shape(s, times, prep, gamma, n_bar, n_sub, max_iter) for s in starts]
    objs = tuple(r[1] for r in results)
    c_best, j_best, res = max(results, key=lambda r: r[1])
    pgrad = res.x - np.clip(res.x - res.jac, 0.0, None)

    pulse = TabulatedPulse(times=times, values=c_best)
    dt = suggested_grid_step(float(c_best.max()), gamma, problem.horizon)
    traj = evolve_numeric(prepare_initial(prep), pulse, t_end=problem.horizon, dt=dt, gamma=gamma)
    work = accumulate(traj, include_tail=True).total_work

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


def pulse_distance(drive_a, drive_b, t_end: float | None = None, num: int = 4001) -> float:
    """Relative L2 distance between two waveforms (normalized by the second)."""
    if t_end is None:
        t_end = max(drive_a.support_end(), drive_b.support_end())
    t = np.linspace(0.0, t_end, num)
    a = np.asarray(drive_a.rabi(t), dtype=float)
    b = np.asarray(drive_b.rabi(t), dtype=float)
    num2 = float(np.sum((a - b) ** 2))
    den2 = float(np.sum(b * b))
    if den2 == 0.0:
        return math.inf if num2 > 0.0 else 0.0
    return math.sqrt(num2 / den2)
