"""Pulse shaping for work extraction at a fixed photon budget.

Two layers:

* `optimize_exponential_tau` restricts the drive to a decaying exponential
  and finds the time constant that maximizes the extracted work (pulse plus
  free-decay tail, coupling always on) on a log grid refined by a bounded
  scalar search,
* `solve_optimal_control` optimizes a free piecewise-linear waveform under
  the same photon budget by L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) over a
  free vector v >= 0 whose rescaling onto the budget is the waveform, so
  the budget holds by construction.  Its one functional entry point,
  `control_work_and_gradient`, returns the RK4-discretized work and its
  exact discrete adjoint gradient, so the gradient can be checked against
  finite differences of the returned work.

A control grid is any strictly increasing array of node times from t = 0,
and interval j takes its own count n_j of RK4 steps of dt_j / n_j, by
default from the interval's own peak, so quiet intervals take two.  The work
functional, `_work_functional`, runs the RK4 steps of one drive as affine
maps through one forward `dynamics._drive_scan` and integrates the work flux
on the same fine grid, over each control interval by composite Simpson
closed by a 3/8 panel when the interval's step count is odd, so quadrature
and integrator are both fourth order; the exact free-decay tail after the
last node makes any horizon valid.  The forward pass solves each block of
steps as one banded lower-triangular system (`_band_block`, LAPACK's
`dtbtrs`), and the adjoint is the transposed solve of the same band, block
by block from the last step.  The sensitivity of each step to its three drive samples is
evaluated elementwise from the adjoint after the step and the state before
it.  The exponential scan runs the same functional over each drive's own
window, with h * max(gamma, amplitude, 1/tau) <= `_STEP_BOUND`, one time
constant after another.  Both layers report the work of this functional at
their optimum, the value they maximised.

scipy is imported inside the functions that call it: `scipy.linalg.lapack`
in `_band_block`, so `control_work_and_gradient` loads scipy at its first
call, and `scipy.optimize` in the refine step of
`optimize_exponential_tau` and in `_shape`.  Importing the package loads
numpy alone, and `evolve_numeric` and `accumulate` never load scipy.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    ExponentialPulse,
    IntegrationAccuracyError,
    Preparation,
    TabulatedPulse,
    _affine_scan,
    _check_counts,
    _check_nodes,
    _check_params,
    _checked_violation,
    _drive_scan,
    _rhs,
    _squared_area,
    prepare_initial,
)
from .energetics import extraction_yield

__all__ = [
    "ExponentialTauResult",
    "optimize_exponential_tau",
    "ControlProblem",
    "control_work_and_gradient",
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


def _band_block(maps, x, trans="N"):
    """One block of x_{k+1} = M_k x_k + v_k as a banded triangular solve, for `_affine_scan`.

    The block's m steps are one unit lower-triangular system of bandwidth 3
    in the interleaved unknowns (p_0, s_0, ..., p_m, s_m): x_0 = ``x`` and
    x_{k+1} - M_k x_k = v_k.  LAPACK's `dtbtrs` (Anderson et al., LAPACK
    Users' Guide, 3rd ed., 1999) solves it from its (4, 2m + 2)
    Fortran-order band, -M_k below a unit diagonal.  With ``trans`` "N" it
    returns x_1..x_m.  With "T" the same band solves the transposed
    recurrence y_k = M_k^T y_{k+1} + v_k from y_m = ``x`` and returns
    y_{m-1}..y_0 in the order they are reached, so that blocks taken from
    the last step backwards scan the adjoint.
    """
    from scipy.linalg.lapack import dtbtrs

    m = maps.shape[-1]
    band = np.zeros((m + 1, 2, 4))  # band[k, i]: column 2k + i, from the diagonal down
    band[:m, 0, 2:] = -maps[:, 0].T
    band[:m, 1, 1:3] = -maps[:, 1].T
    rhs = np.empty((m + 1, 2))
    if trans == "N":
        rhs[0], rhs[1:] = x, maps[:, 2].T
    else:
        rhs[:m], rhs[m] = maps[:, 2].T, x
    z, info = dtbtrs(
        band.reshape(-1, 4).T, rhs.reshape(-1, 1), uplo="L", trans=trans, diag="U", overwrite_b=1
    )
    if info != 0:
        raise IntegrationAccuracyError(f"banded RK4 solve failed: LAPACK dtbtrs info {info}")
    z = z.reshape(m + 1, 2).T
    return z[:, 1:] if trans == "N" else z[:, m - 1 :: -1]


_band_adjoint = functools.partial(_band_block, trans="T")


def _blocks_from_the_end(maps):
    """``maps(lo, hi)`` for `_affine_scan` with `_band_adjoint`: the kept
    (2, 3, n) maps of steps n - hi..n - lo - 1, in step order."""
    n = maps.shape[-1]
    return lambda lo, hi: maps[..., n - hi : n - lo]


def _work_functional(on, om, h, wq, gamma, prep, kept=None):
    """Work of one drive on a fine RK4 grid from the preparation, and its node states.

    ``on``, ``om``, ``h`` and ``kept`` are as in `_drive_scan`, whose blocks
    `_band_block` solves.  The work is the flux on * s + gamma * s^2 against
    the quadrature weights ``wq``, plus the exact free-decay tail s(end)^2.
    The flux is summed by `np.add.reduceat`, whose order of addition the
    shaped waveforms' digits follow.
    """
    state0 = prepare_initial(prep)
    x = _drive_scan(on, om, h, gamma, (state0.p_e, state0.s_bar), kept=kept, solve=_band_block)
    s = x[1]
    with np.errstate(over="ignore", invalid="ignore"):  # huge states are the callers' to report
        flux = wq * (on * s + gamma * s * s)
        return float(np.add.reduceat(flux, [0])[0] + s[-1] ** 2), x


def _exponential_works(prep: Preparation, n_bar: float, taus, gamma: float) -> np.ndarray:
    """Work of the exponential drive, pulse plus free-decay tail, at each time constant.

    Each drive is one `_work_functional` over its
    `ExponentialPulse.support_end` window in n steps with
    h * max(gamma, amplitude, 1/tau) <= `_STEP_BOUND`, its flux weighted by
    `_quadrature_weights`, and its states are checked against the Bloch
    ball.  The steps grow as sqrt(n_bar * tau); past `_MAX_FINE_STEPS` over
    all drives the call is rejected, naming ``n_bar``, before any array is
    built.  That bounds the run time; the memory is one drive's.
    """
    pulses = [ExponentialPulse(n_bar=n_bar, tau=float(tau), gamma=gamma) for tau in taus]
    steps = [p.support_end() * max(gamma, p.amplitude, 1.0 / p.tau) / _STEP_BOUND for p in pulses]
    works = []
    for pulse, n in zip(pulses, _substeps(np.ceil(steps), "n_bar").tolist()):
        window = pulse.support_end()
        h = window / n
        t = np.linspace(0.0, window, n + 1)
        on, om = pulse.rabi(t), pulse.rabi(t[:-1] + 0.5 * h)
        work, x = _work_functional(on, om, h, h * _quadrature_weights(n), gamma, prep)
        _checked_violation(*x)
        works.append(work)
    return np.array(works)


# the exponential scan: _N_GRID time constants log-spaced over _TAU_RANGE / gamma
_TAU_RANGE = (1e-3, 10.0)
_N_GRID = 25


def _scan_exponential_tau(prep, n_bar, gamma):
    """The exponential scan: (taus, works, index of the best work)."""
    _check_params("positive", n_bar=n_bar, gamma=gamma)
    lo, hi = _TAU_RANGE
    taus = np.geomspace(lo / gamma, hi / gamma, _N_GRID)
    works = _exponential_works(prep, n_bar, taus, gamma)
    return taus, works, int(np.argmax(works))


def _start_zero(prep, n_bar, gamma, times) -> np.ndarray:
    """Start 0 of `solve_optimal_control`: the exponential drive sampled at ``times``.

    Its time constant is the vertex of the parabola in log tau through the
    scan's best grid point and its two neighbours; at an edge of
    `_TAU_RANGE`, or where the three works are equal, it is the grid point.
    """
    taus, works, best = _scan_exponential_tau(prep, n_bar, gamma)
    tau = float(taus[best])
    if 0 < best < len(taus) - 1:
        w0, w1, w2 = works[best - 1 : best + 2].tolist()
        curve = w0 - 2.0 * w1 + w2  # <= 0 at the best point
        if curve < 0.0:
            tau *= math.exp(0.25 * (w0 - w2) / curve * math.log(taus[best + 1] / taus[best - 1]))
    return np.asarray(ExponentialPulse(n_bar=n_bar, tau=tau, gamma=gamma).rabi(times), dtype=float)


def optimize_exponential_tau(prep: Preparation, n_bar: float, gamma: float = 1.0) -> ExponentialTauResult:
    """Scan the pulse time constant on a log grid, then refine around the best point.

    The grid holds `_N_GRID` time constants over `_TAU_RANGE` in units of
    1/gamma.  ``at_boundary`` flags a maximum at an edge of that fixed
    range, where the best time constant may lie outside it.
    ``works`` are the RK4/Simpson functional of the scan, and ``work`` is
    that functional at ``tau_opt``: the bounded Brent refine's maximum, or
    the grid point's work at an edge.  It lies within 3e-8 of the functional
    converged in the step at n_bar = 1e-3, 0.1, 1.64, 5 and 20.  The refine
    is kept over the parabola vertex of `_start_zero`, which would move
    tau_opt at (n_bar, theta) = (1.64, 3 pi / 4) from 0.2036 to 0.2088, and
    |tau_opt gamma - 2/3| / sqrt(n_bar) at n_bar = 1e-6 from 0.94 to 0.71.
    """
    taus, works, best = _scan_exponential_tau(prep, n_bar, gamma)
    at_boundary = best in (0, len(taus) - 1)
    tau_star, work = float(taus[best]), float(works[best])
    if not at_boundary:
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(
            lambda lt: -_exponential_works(prep, n_bar, [math.exp(lt)], gamma)[0],
            bounds=(math.log(taus[best - 1]), math.log(taus[best + 1])),
            method="bounded",
            options={"xatol": 1e-4},
        )
        tau_star, work = float(math.exp(res.x)), -float(res.fun)
    return ExponentialTauResult(
        tau_opt=tau_star,
        work=work,
        eta=extraction_yield(work, prep),
        pulse=ExponentialPulse(n_bar=n_bar, tau=tau_star, gamma=gamma),
        at_boundary=at_boundary,
        taus=taus,
        works=works,
    )


# --------------------------- free-form control ---------------------------


@dataclass(frozen=True)
class ControlProblem:
    """Waveform optimization setup: preparation, photon budget, horizon, grid size.

    The solver lays ``n_nodes`` nodes uniformly over [0, horizon].  Any
    positive horizon is valid: the functional books the exact free-decay
    tail after the last node, where the tabulated drive is zero.  The control
    grid must resolve the dynamics (>= 32 nodes), and its floor of two RK4
    steps per interval must stay within `_MAX_FINE_STEPS`.
    """

    prep: Preparation
    n_bar: float
    horizon: float = 10.0
    n_nodes: int = 400
    gamma: float = 1.0

    def __post_init__(self):
        _check_params("positive", n_bar=self.n_bar, horizon=self.horizon, gamma=self.gamma)
        _check_counts("positive", n_nodes=self.n_nodes)
        if self.n_nodes < 32:
            raise ValueError(f"n_nodes must be at least 32, got {self.n_nodes}")
        _check_total_steps(2.0 * (self.n_nodes - 1), "n_nodes")


def _check_grid(controls: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Interval lengths of a control grid: a node table (`_check_nodes`) whose times start at t = 0."""
    dt = _check_nodes(times, controls, "controls")
    if times[0] != 0.0:
        raise ValueError(f"times must start at t = 0, got {times[0]}")
    return dt


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
def _fine_grid(times: bytes, counts: bytes):
    """RK4 steps over the intervals of the control nodes ``times`` (float64
    bytes): ``counts[j]`` (intp bytes) equal steps over interval j.

    Returns the step count n, the interval and position in it of each fine
    node and midpoint, the step lengths and the quadrature weights; each
    interval has its own `_quadrature_weights`, so no panel straddles a kink
    of the drive.  Equal counts give the grid of one count for all intervals
    bit for bit.  Cached per grid, so the arrays are read-only.
    """
    dt = np.diff(np.frombuffer(times))
    c = np.frombuffer(counts, dtype=np.intp)
    n = int(c.sum())
    jm = np.repeat(np.arange(len(dt)), c)  # the midpoint of step k lies in the interval of node k
    jn = np.append(jm, len(dt) - 1)
    k = np.arange(n + 1)
    cn, first = c[jn], (np.cumsum(c) - c)[jn]
    un = k / cn - first / cn
    um = (k[:-1] + 0.5) / cn[:-1] - first[:-1] / cn[:-1]
    hj = dt / c
    h = np.repeat(hj, c)
    # each interval's weights with its own end node, laid end to end; that end
    # node is the next interval's start
    unit = {size: _quadrature_weights(size) for size in set(c.tolist())}
    panels = np.concatenate([unit[size] for size in c.tolist()])
    node = np.arange(n + len(c)) - np.repeat(np.arange(len(c)), c + 1)
    wq = np.bincount(node, np.repeat(hj, c + 1) * panels)
    for a in (jn, un, jm, um, h, wq):
        a.setflags(write=False)
    return n, jn, un, jm, um, h, wq


# bound on h * max(gamma, drive scale) for the default fine step and the exponential scan
_STEP_BOUND = 0.04
# drive scale over the local peak: room for L-BFGS-B to raise a peak above that of its start
_MARGIN = 3.0
# RK4 steps of one work-functional call (about 1 GB across the shaper's work
# arrays) and of one exponential scan over all its drives
_MAX_FINE_STEPS = 2**23


def _default_n_sub(dt, gamma, peak):
    """RK4 steps per control interval of length ``dt`` whose controls peak at
    ``peak``, as floats, so that a count past any int can still be checked.

    h * max(gamma, `_MARGIN` * peak) <= `_STEP_BOUND`, and at least two
    steps, one Simpson panel.  Quiet intervals take two steps, whatever the
    peak elsewhere.
    """
    with np.errstate(over="ignore"):  # an infinite count is `_substeps`'s to reject
        return np.maximum(np.ceil(dt * np.maximum(gamma, _MARGIN * peak) / _STEP_BOUND), 2.0)


def _local_peaks(controls: np.ndarray) -> np.ndarray:
    """Largest |control| at either end of each control interval."""
    a = np.abs(controls)
    return np.maximum(a[:-1], a[1:])


def _check_total_steps(total: float, name: str) -> None:
    """Reject ``total`` RK4 steps past `_MAX_FINE_STEPS`; ``name`` is the parameter to shrink."""
    if not total <= _MAX_FINE_STEPS:
        raise ValueError(
            f"{name} must be smaller: the work functional would take {total:.3g} RK4 steps, "
            f"past its limit of {_MAX_FINE_STEPS}"
        )


def _substeps(counts: np.ndarray, name: str) -> np.ndarray:
    """Per-interval RK4 step counts as intp, once their float sum passes
    `_check_total_steps`; ``name`` is the parameter to shrink."""
    with np.errstate(over="ignore"):
        total = float(np.sum(counts))
    _check_total_steps(total, name)
    return counts.astype(np.intp)


def control_work_and_gradient(
    controls,
    times,
    prep: Preparation,
    gamma: float = 1.0,
    n_sub: int | None = None,
    *,
    steps: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Work of a piecewise-linear waveform (RK4 + Simpson + exact tail) and
    its exact discrete adjoint gradient with respect to the control nodes.

    Control interval j takes ``steps[j]`` RK4 steps, or ``n_sub``, or by
    default `_default_n_sub` of its own peak: the functional
    `solve_optimal_control` maximizes.  Past `_MAX_FINE_STEPS` steps in all
    the call is rejected, naming the parameter that set the counts.  Fix
    the counts when comparing with finite differences of the work: the
    default counts follow the controls.
    """
    c = np.asarray(controls, dtype=float)
    t = np.asarray(times, dtype=float)
    dt = _check_grid(c, t)
    _check_params("nonnegative", gamma=gamma)
    if steps is not None:
        if n_sub is not None:
            raise ValueError("pass n_sub or steps, not both")
        k = np.asarray(steps)
        if k.shape != dt.shape or k.dtype.kind not in "iu" or not (k >= 1).all():
            raise ValueError("steps must be one positive integer per control interval")
        counts = _substeps(k.astype(float), "steps")
    elif n_sub is None:
        counts = _substeps(_default_n_sub(dt, gamma, _local_peaks(c)), "controls")
    else:
        _check_counts("positive", n_sub=n_sub)
        counts = _substeps(np.full(len(dt), float(n_sub)), "n_sub")
    n, jn, un, jm, um, h, wq = _fine_grid(t.tobytes(), counts.tobytes())
    on = (1.0 - un) * c[jn] + un * c[jn + 1]
    om = (1.0 - um) * c[jm] + um * c[jm + 1]

    maps = np.empty((2, 3, n))  # the forward scan's step maps, kept for the reverse scan
    work, x = _work_functional(on, om, h, wq, gamma, prep, maps)
    if not math.isfinite(work):
        raise IntegrationAccuracyError(
            "forward pass produced a non-finite work; shrink the step or the controls"
        )

    g = gamma
    p, s = x
    h2, h3, h6 = 0.5 * h, h / 3.0, h / 6.0

    # adjoint lam_k = dJ/dx_k = M_k^T lam_{k+1} + (0, d_k): the transposed
    # solve, over blocks taken from the last step backwards
    d = wq * (on + 2.0 * g * s)
    d[-1] += 2.0 * s[-1]
    maps[0, 2] = 0.0
    maps[1, 2] = d[:-1]
    back = _affine_scan(_blocks_from_the_end(maps), n, (0.0, d[-1]), _band_adjoint)
    lp, ls = back[:, -2::-1]  # lam_{k+1} of every step k

    # stage states of every step k from x_k ...
    p0, s0 = p[:-1], s[:-1]
    oa, oc = on[:-1], on[1:]
    k1p, k1s = _rhs(p0, s0, oa, g)
    p1, s1 = p0 + h2 * k1p, s0 + h2 * k1s
    k2p, k2s = _rhs(p1, s1, om, g)
    p2, s2 = p0 + h2 * k2p, s0 + h2 * k2s
    k3p, k3s = _rhs(p2, s2, om, g)
    p3, s3 = p0 + h * k3p, s0 + h * k3s
    # ... and the cotangents of its stage slopes from lam_{k+1}; A(rabi)^T = A(-rabi)
    u4p, u4s = h6 * lp, h6 * ls
    ap, as_ = _rhs(u4p, u4s, -oc, g, 0.0)
    l3p, l3s, om_t = h3 * lp, h3 * ls, -om  # shared by stages 3 and 2
    u3p, u3s = l3p + h * ap, l3s + h * as_
    ap, as_ = _rhs(u3p, u3s, om_t, g, 0.0)
    u2p, u2s = l3p + h2 * ap, l3s + h2 * as_
    ap, as_ = _rhs(u2p, u2s, om_t, g, 0.0)
    u1p, u1s = u4p + h2 * ap, u4s + h2 * as_

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


def _budget_gradient(c: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Gradient of `dynamics._squared_area` with respect to the node values."""
    a = dt / 3.0
    g = np.zeros_like(c)
    g[:-1] += a * (2.0 * c[:-1] + c[1:])
    g[1:] += a * (2.0 * c[1:] + c[:-1])
    return g


def project_to_budget(controls, times, n_bar: float, gamma: float = 1.0) -> np.ndarray:
    """Clamp the waveform nonnegative and rescale its photon content to ``n_bar``."""
    c = np.clip(np.asarray(controls, dtype=float), 0.0, None)
    t = np.asarray(times, dtype=float)
    dt = _check_grid(c, t)
    _check_params("nonnegative", n_bar=n_bar, gamma=gamma)
    target = 4.0 * gamma * n_bar
    q = _squared_area(dt, c)
    if q <= 0.0:
        return np.full_like(c, math.sqrt(target / t[-1]))
    return c * math.sqrt(target / q)


# --------------------------- the solver ---------------------------


@dataclass(frozen=True, eq=False)
class OptimalPulse:
    """Converged waveform and the work it extracts.

    ``work`` is the RK4/Simpson functional the solver maximised, at the best
    start: ``max(start_objectives)``.  From n_bar = 1e-3 to 80 it lies
    within 1e-8 of the functional converged in the step (``n_sub=512``).
    ``converged``, ``iterations``, ``gradient_norm`` and ``message`` are
    L-BFGS-B's ``success``, ``nit``, projected-gradient infinity norm (in
    the free coordinates) and stop message for the best start.
    """

    problem: ControlProblem
    times: np.ndarray
    controls: np.ndarray
    pulse: TabulatedPulse
    work: float
    eta: float
    converged: bool
    iterations: int
    gradient_norm: float
    message: str
    start_objectives: tuple


def _shape(c0, times, prep, gamma, n_bar, counts):
    """L-BFGS-B from one start over v >= 0, with the waveform c(v) = a*v on the budget.

    a = sqrt(4*gamma*n_bar / q(v)) with q the exact integral of the squared
    waveform, so every evaluation meets the photon budget and the work is
    invariant along v; its v-gradient is a*g - a*(g.v)/(2q)*grad q.  Control
    interval j takes ``counts[j]`` RK4 steps.  If the converged waveform
    breaks h * max(gamma, local peak) <= `_STEP_BOUND` on some interval, the
    counts are taken again from it and the start continues once.
    Returns (controls, objective, scipy result, iterations of both runs).
    """
    from scipy.optimize import Bounds, minimize

    dt = np.diff(times)
    target = 4.0 * gamma * n_bar

    def negative_work(v, counts):
        q = _squared_area(dt, v)
        a = math.sqrt(target / q)
        work, g = control_work_and_gradient(v * a, times, prep, gamma, steps=counts)
        grad = a * g - (a * float(g @ v) / (2.0 * q)) * _budget_gradient(v, dt)
        return -work, -grad

    def ascend(v, counts):
        res = minimize(
            negative_work,
            v,
            args=(counts,),
            jac=True,
            method="L-BFGS-B",
            bounds=Bounds(0.0, np.inf),
            options={"maxiter": _MAX_ITER, "ftol": 1e-12, "gtol": 1e-9},
        )
        return project_to_budget(res.x, times, n_bar, gamma), res

    c, res = ascend(project_to_budget(c0, times, n_bar, gamma), counts)
    iterations = res.nit
    peaks = _local_peaks(c)
    if (dt * np.maximum(gamma, peaks) > counts * _STEP_BOUND).any():
        c, res = ascend(res.x, _substeps(_default_n_sub(dt, gamma, peaks), "horizon"))
        iterations += res.nit
    return c, -float(res.fun), res, iterations


# L-BFGS-B iterations per start
_MAX_ITER = 5000


def solve_optimal_control(problem: ControlProblem, n_starts: int = 1) -> OptimalPulse:
    """Maximize the extracted work over nonnegative waveforms at fixed photon number.

    Start 0 is the exponential ansatz at the scan's best time constant,
    sharpened by a parabola through the grid (`_start_zero`); the other
    starts are multiplicative perturbations of it from
    ``np.random.default_rng(0)``.  Each start is one L-BFGS-B run of at most
    `_MAX_ITER` iterations.  One start is the default: from n_bar = 1e-4 to
    80, no extra start gained more than 1e-12 over start 0, far below the
    functional's discretisation error (about 1e-8).  ``work`` is the
    functional at the best start's converged controls, the value it
    maximised.  Every evaluation is a `control_work_and_gradient` call with
    start 0's default step counts as ``steps``, so the functional does not
    depend on ``n_starts``.  A start whose converged controls break h *
    max(gamma, local peak) <= `_STEP_BOUND` on some interval takes the
    counts again from them and continues once (`_shape`); ``iterations``
    counts both runs.  Counts past `_MAX_FINE_STEPS` in all are rejected,
    naming the horizon, before any array is built.
    """
    _check_counts("positive", n_starts=n_starts)
    times = np.linspace(0.0, problem.horizon, problem.n_nodes)
    prep, gamma, n_bar = problem.prep, problem.gamma, problem.n_bar

    init = _start_zero(prep, n_bar, gamma, times)
    peaks = _local_peaks(project_to_budget(init, times, n_bar, gamma))
    counts = _substeps(_default_n_sub(np.diff(times), gamma, peaks), "horizon")

    rng = np.random.default_rng(0)
    starts = [init]
    for _ in range(n_starts - 1):
        starts.append(init * (1.0 + 0.25 * rng.standard_normal(len(init))))

    results = [_shape(s, times, prep, gamma, n_bar, counts) for s in starts]
    objs = tuple(r[1] for r in results)
    c_best, work, res, iterations = max(results, key=lambda r: r[1])
    pgrad = res.x - np.clip(res.x - res.jac, 0.0, None)

    return OptimalPulse(
        problem=problem,
        times=times,
        controls=c_best,
        pulse=TabulatedPulse(times=times, values=c_best),
        work=work,
        eta=extraction_yield(work, prep),
        converged=bool(res.success),
        iterations=int(iterations),
        gradient_norm=float(np.abs(pgrad).max()),
        message=str(res.message),
        start_objectives=objs,
    )
