"""Pulse-shaping tests: budget geometry, adjoint gradient, solver, ansatz scan."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import ergoflux as ef
from ergoflux import optimizer
from ergoflux.optimizer import (
    _exponential_works,
    _fine_grid,
    _quadrature_weights,
    _start_zero,
)
from oracles import pulse_distance

# agreement asked of the strict pipeline (`evolve_numeric` plus `accumulate`)
# and of the step-converged functional with the work the solvers report
STRICT_TOL = 3e-7


def _charge(controls, times, gamma=1.0):
    return ef.TabulatedPulse(times, controls).charge(gamma)


# --------------------------------------------------------- budget projection


@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=60)
def test_projection_hits_budget_exactly(seed, n_bar):
    rng = np.random.default_rng(seed)
    times = np.append(0.0, np.cumsum(rng.uniform(0.01, 1.0, 39)))  # any increasing grid from 0
    raw = rng.standard_normal(40) * rng.uniform(0.1, 20.0)
    c = ef.project_to_budget(raw, times, n_bar)
    assert (c >= 0.0).all()
    assert _charge(c, times) == pytest.approx(n_bar, rel=1e-12)


def test_projection_of_dead_waveform_is_uniform():
    times = np.linspace(0.0, 5.0, 32)
    c = ef.project_to_budget(np.full(32, -3.0), times, n_bar=2.0)
    assert np.all(c == c[0])
    assert c[0] > 0.0
    assert _charge(c, times) == pytest.approx(2.0, rel=1e-12)


def test_projection_clamps_then_rescales():
    times = np.linspace(0.0, 5.0, 32)
    raw = np.linspace(-1.0, 1.0, 32)
    c = ef.project_to_budget(raw, times, n_bar=1.0)
    assert (c[: 16] == 0.0).all()
    assert c[-1] > 0.0


# --------------------------------------------------------- objective + adjoint


def test_control_work_matches_strict_pipeline():
    times = np.linspace(0.0, 8.0, 200)
    controls = ef.project_to_budget(4.0 * np.exp(-times / 0.4), times, n_bar=1.64)
    prep = ef.Preparation(p=0.0, theta=0.75 * math.pi)
    w = ef.control_work_and_gradient(controls, times, prep)[0]

    pulse = ef.TabulatedPulse(times=times, values=controls)
    dt = ef.suggested_grid_step(float(controls.max()), 1.0, 8.0)
    traj = ef.evolve_numeric(ef.prepare_initial(prep), pulse, t_end=8.0, dt=dt)
    strict = ef.accumulate(traj).total_work
    assert abs(w - strict) <= STRICT_TOL


def test_gradient_matches_finite_differences():
    # tiny grids, fixed substeps, so FD probes exactly the same discrete map;
    # the second has 17 * 7 = 119 fine steps, not a multiple of the scan's
    # chunk length, and a node clamped at zero by the projection
    for m, n_sub, zero in ((16, 64, None), (18, 7, 5)):
        times = np.linspace(0.0, 5.0, m)
        rng = np.random.default_rng(7)
        raw = rng.uniform(0.5, 3.0, m)
        if zero is not None:
            raw[zero] = -1.0
        controls = ef.project_to_budget(raw, times, n_bar=1.0)
        prep = ef.Preparation(p=0.1, theta=2.0)

        work, grad = ef.control_work_and_gradient(controls, times, prep, n_sub=n_sub)

        eps = 1e-6
        fd = np.zeros(m)
        for j in range(m):
            cp = controls.copy()
            cp[j] += eps
            cm = controls.copy()
            cm[j] -= eps
            fd[j] = (
                ef.control_work_and_gradient(cp, times, prep, n_sub=n_sub)[0]
                - ef.control_work_and_gradient(cm, times, prep, n_sub=n_sub)[0]
            ) / (2.0 * eps)
        scale = max(1.0, float(np.abs(grad).max()))
        assert float(np.abs(grad - fd).max()) / scale < 1e-6
        if zero is not None:
            assert controls[zero] == 0.0 and grad[zero] != 0.0


def test_unstable_forward_pass_raises():
    times = np.linspace(0.0, 5.0, 8)
    controls = np.full(8, 1e6)
    with pytest.raises(ef.IntegrationAccuracyError):
        ef.control_work_and_gradient(controls, times, ef.Preparation(p=0.0, theta=1.0), n_sub=2)


def test_grid_validation():
    prep = ef.Preparation(p=0.0, theta=1.0)
    calls = (
        lambda c, t: ef.control_work_and_gradient(c, t, prep),
        lambda c, t: ef.project_to_budget(c, t, n_bar=1.0),
    )
    for call in calls:
        with pytest.raises(ValueError, match="times must be strictly increasing"):
            call(np.ones(4), np.array([0.0, 1.0, 1.0, 3.0]))
        # a grid from t = 1 would be a drive after 1/gamma of free decay
        with pytest.raises(ValueError, match="times must start at t = 0"):
            call(np.ones(8), np.linspace(0.0, 5.0, 8) + 1.0)
    with pytest.raises(ValueError):
        ef.control_work_and_gradient(np.ones(3), np.linspace(0, 1, 4), prep)
    for bad in (math.nan, math.inf):
        controls = np.ones(8)
        controls[3] = bad
        with pytest.raises(ValueError, match="controls must be finite"):
            ef.control_work_and_gradient(controls, np.linspace(0.0, 5.0, 8), prep, n_sub=2)


@pytest.mark.parametrize(
    "call, kwargs, name",
    [
        ("control_work_and_gradient", dict(gamma=-1.0), "gamma"),
        ("control_work_and_gradient", dict(gamma=math.nan), "gamma"),
        ("control_work_and_gradient", dict(gamma=math.inf), "gamma"),
        ("project_to_budget", dict(n_bar=math.nan), "n_bar"),
        ("project_to_budget", dict(n_bar=math.inf), "n_bar"),
        ("project_to_budget", dict(n_bar=-1.0), "n_bar"),
        ("project_to_budget", dict(gamma=math.nan), "gamma"),
        ("project_to_budget", dict(gamma=-1.0), "gamma"),
    ],
)
def test_bad_rate_or_budget_is_rejected_by_name(call, kwargs, name):
    times = np.linspace(0.0, 5.0, 8)
    if call == "project_to_budget":
        args = dict(controls=np.ones(8), times=times, n_bar=1.0) | kwargs
    else:
        args = dict(controls=np.ones(8), times=times, prep=ef.Preparation(p=0.0, theta=2.0), n_sub=2) | kwargs
    with pytest.raises(ValueError, match=f"^{name} must be"):
        getattr(ef, call)(**args)


# 2**22 steps on each of 7 intervals: past the work functional's 2**23 in all
@pytest.mark.parametrize("n_sub", [0, -2, 2.5, True, 2**22])
@pytest.mark.parametrize("call", ["control_work_and_gradient"])
def test_bad_substep_count_is_rejected_by_name(call, n_sub):
    prep = ef.Preparation(p=0.0, theta=2.0)
    with pytest.raises(ValueError, match="n_sub"):
        getattr(ef, call)(np.ones(8), np.linspace(0.0, 5.0, 8), prep, n_sub=n_sub)


@pytest.mark.parametrize(
    "controls, kwargs, message",
    [
        # the default counts follow the controls' amplitude
        (np.full(8, 1e9), {}, "^controls must be smaller"),
        (np.ones(8), dict(steps=[2] * 6), "^steps must be one positive integer"),
        (np.ones(8), dict(steps=[2, 2, 2, 0, 2, 2, 2]), "^steps must be one positive integer"),
        (np.ones(8), dict(steps=[2.0] * 7), "^steps must be one positive integer"),
        (np.ones(8), dict(steps=[True] * 7), "^steps must be one positive integer"),
        (np.ones(8), dict(steps=[2**22] * 7), "^steps must be smaller"),
        # an integer sum would wrap round to a small count
        (np.ones(8), dict(steps=[2**62] * 7), "^steps must be smaller"),
        (np.ones(8), dict(steps=[2] * 7, n_sub=2), "^pass n_sub or steps"),
    ],
)
@pytest.mark.parametrize("call", ["control_work_and_gradient"])
def test_bad_step_counts_are_rejected_by_name(call, controls, kwargs, message):
    prep = ef.Preparation(p=0.0, theta=2.0)
    with pytest.raises(ValueError, match=message):
        getattr(ef, call)(controls, np.linspace(0.0, 5.0, 8), prep, **kwargs)


# ------------------------------------------------------------- quadrature


def _cubic(x):
    return 1.0 + 2.0 * x - 3.0 * x * x + 0.5 * x**3


def _cubic_integral(b):
    """Integral of `_cubic` over [0, b]."""
    return b + b * b - b**3 + 0.125 * b**4


@pytest.mark.parametrize("n", range(2, 10))
def test_quadrature_weights_integrate_cubics_exactly(n):
    w = _quadrature_weights(n)
    x = np.arange(n + 1.0)
    assert float((w * _cubic(x)).sum()) == pytest.approx(_cubic_integral(n), rel=1e-13)


def _grid(times, counts):
    return _fine_grid(times.tobytes(), np.asarray(counts, dtype=np.intp).tobytes())


@pytest.mark.parametrize(
    "counts", [(2,) * 4, (3,) * 4, (4,) * 4, (5,) * 4, (2, 3, 5, 8)], ids=["2", "3", "4", "5", "mixed"]
)
def test_fine_grid_weights_are_exact_across_drive_kinks(counts):
    # the work flux has kinks at the control nodes, where the drive does; a
    # continuous piecewise cubic with a kink at every node is integrated
    # exactly, so no panel straddles a node, on intervals of unequal length
    # and of unequal step counts
    times = np.array([0.0, 0.3, 1.5, 1.7, 4.0])
    dt = np.diff(times)
    n, jn, un, _, _, h, w = _grid(times, counts)
    assert n == sum(counts)
    assert np.allclose(np.append(0.0, np.cumsum(h)), times[jn] + un * dt[jn], rtol=0.0, atol=1e-15)
    starts = np.cumsum((0,) + counts[:-1])  # the fine nodes on control nodes 0 .. m - 2
    assert (jn[starts] == np.arange(len(dt))).all() and (un[starts] == 0.0).all()
    f = (jn + 1.0) * un * (1.0 - un) * (1.0 + 2.0 * un)  # 0 at every node
    exact = float(((np.arange(len(dt)) + 1.0) * dt).sum()) / 3.0
    assert float((w * f).sum()) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("n_sub", [1, 2, 3, 8])
def test_fine_grid_of_equal_counts_is_the_uniform_grid(n_sub):
    # one count for every interval gives, bit for bit, the grid of n_sub equal
    # steps per interval that the functional had before counts per interval
    times = np.append(0.0, np.cumsum(np.random.default_rng(5).uniform(0.01, 1.0, 39)))
    dt = np.diff(times)
    m = len(times)
    n = (m - 1) * n_sub
    k = np.arange(n + 1)
    jn = np.minimum(k // n_sub, m - 2)
    jm = jn[:-1]
    hj, u = dt / n_sub, _quadrature_weights(n_sub)
    wq = np.zeros(n + 1)
    wq[:-1] = np.outer(hj, u[:-1]).ravel()
    wq[n_sub::n_sub] += hj * u[-1]
    uniform = (jn, k / n_sub - jn, jm, (k[:-1] + 0.5) / n_sub - jm, np.repeat(hj, n_sub), wq)
    grid = _grid(times, np.full(m - 1, n_sub))
    assert grid[0] == n
    assert all(np.array_equal(a, b) for a, b in zip(grid[1:], uniform))


# the weak-charge, criterion-05 and strong-charge points
ANSATZ_POINTS = [
    (1e-3, 0.5 * math.pi),
    (0.1, 0.5 * math.pi),
    (1.64, 0.75 * math.pi),
    (5.0, math.pi),
    (20.0, math.pi),
]

CRITERION_05_POINTS = [(0.1, 0.5 * math.pi), (1.64, 0.75 * math.pi)]


def _strict_work(prep, pulse, dt):
    """Work of a drive through `evolve_numeric` and `accumulate`, over its support."""
    traj = ef.evolve_numeric(ef.prepare_initial(prep), pulse, t_end=pulse.support_end(), dt=dt)
    return ef.accumulate(traj).total_work


def _ansatz_controls(n_bar, theta, times):
    """Start 0 of the solver on the control grid, on the budget."""
    prep = ef.Preparation(p=0.0, theta=theta)
    return prep, ef.project_to_budget(_start_zero(prep, n_bar, 1.0, times), times, n_bar)


@pytest.mark.parametrize("n_bar, theta", ANSATZ_POINTS)
def test_default_substeps_reach_the_converged_functional(n_bar, theta):
    times = np.linspace(0.0, 10.0, 400)
    prep, controls = _ansatz_controls(n_bar, theta, times)
    converged = ef.control_work_and_gradient(controls, times, prep, n_sub=512)[0]
    assert abs(ef.control_work_and_gradient(controls, times, prep)[0] - converged) <= 1e-8


class _FirstStart(Exception):
    """Stops the solver at its first ascent, carrying the step counts it got."""


# RK4 steps per evaluation at start 0: a third and a tenth of those that one
# count for all 399 intervals, from the waveform's global peak, took
STEP_PINS = {1.64: 3192 / 3, 20.0: 20748 / 10}


@pytest.mark.parametrize("n_bar, theta", ANSATZ_POINTS)
def test_default_substeps_at_start_zero_are_the_solvers(n_bar, theta, monkeypatch):
    # the functional's default steps at start 0's controls are those the
    # solver maximises with, each interval's step count from its own peak
    def first_start(c0, times, prep, gamma, n_bar, counts):
        raise _FirstStart(counts)

    times = np.linspace(0.0, 10.0, 400)
    prep, controls = _ansatz_controls(n_bar, theta, times)
    monkeypatch.setattr(optimizer, "_shape", first_start)
    with pytest.raises(_FirstStart) as stop:
        ef.solve_optimal_control(ef.ControlProblem(prep=prep, n_bar=n_bar), n_starts=1)
    counts = stop.value.args[0]
    work = ef.control_work_and_gradient(controls, times, prep)[0]
    assert work == ef.control_work_and_gradient(controls, times, prep, steps=counts)[0]
    assert counts.min() == 2 and counts.sum() <= STEP_PINS.get(n_bar, math.inf)


@pytest.mark.parametrize("n_sub", [3, 4])
def test_functional_is_fourth_order_in_the_fine_step(n_sub):
    times = np.linspace(0.0, 10.0, 400)
    prep, controls = _ansatz_controls(1.64, 0.75 * math.pi, times)
    converged = ef.control_work_and_gradient(controls, times, prep, n_sub=512)[0]
    coarse = ef.control_work_and_gradient(controls, times, prep, n_sub=n_sub)[0] - converged
    fine = ef.control_work_and_gradient(controls, times, prep, n_sub=2 * n_sub)[0] - converged
    assert abs(fine) * 10.0 <= abs(coarse)


def test_start_zero_does_not_depend_on_the_start_count():
    # the default substep count comes from start 0 alone, so the extra
    # starts leave the functional, and start 0's ascent, unchanged
    prep = ef.Preparation(p=0.0, theta=0.75 * math.pi)
    problem = ef.ControlProblem(prep=prep, n_bar=1.64)
    one = ef.solve_optimal_control(problem, n_starts=1)
    four = ef.solve_optimal_control(problem, n_starts=4)
    assert one.start_objectives[0] == four.start_objectives[0]


# ------------------------------------------------------------- ansatz scan


def test_exponential_tau_benchmark():
    prep = ef.Preparation(p=0.0, theta=0.75 * math.pi)
    res = ef.optimize_exponential_tau(prep, n_bar=1.64)
    assert not res.at_boundary
    assert res.tau_opt == pytest.approx(0.2036, abs=5e-3)
    assert res.work == pytest.approx(0.6980, abs=2e-3)
    assert res.eta == pytest.approx(res.work / ef.ergotropy(prep), rel=1e-12)
    assert len(res.taus) == len(res.works) == 25
    assert res.pulse.charge() == pytest.approx(1.64, rel=1e-12)


TAUS = np.geomspace(1e-3, 10.0, 25)


def _scan_works(n_bar, theta, monkeypatch, shrink=1.0):
    """The 25-point ansatz scan at p = 0 with the step bound divided by ``shrink``."""
    with monkeypatch.context() as m:
        m.setattr(optimizer, "_STEP_BOUND", optimizer._STEP_BOUND / shrink)
        return _exponential_works(ef.Preparation(p=0.0, theta=theta), n_bar, TAUS, 1.0)


def test_scan_is_fourth_order_in_the_step_bound(monkeypatch):
    converged = _scan_works(1.64, 0.75 * math.pi, monkeypatch, 8.0)
    coarse = np.abs(_scan_works(1.64, 0.75 * math.pi, monkeypatch) - converged).max()
    fine = np.abs(_scan_works(1.64, 0.75 * math.pi, monkeypatch, 2.0) - converged).max()
    assert fine * 10.0 <= coarse


@pytest.mark.parametrize("n_bar, theta", ANSATZ_POINTS)
def test_scan_reaches_the_converged_functional(n_bar, theta, monkeypatch):
    converged = _scan_works(n_bar, theta, monkeypatch, 8.0)
    assert float(np.abs(_scan_works(n_bar, theta, monkeypatch) - converged).max()) <= 1e-6


@pytest.mark.parametrize("n_bar, theta", ANSATZ_POINTS)
def test_ansatz_work_is_the_converged_functional(n_bar, theta, monkeypatch):
    prep = ef.Preparation(p=0.0, theta=theta)
    res = ef.optimize_exponential_tau(prep, n_bar=n_bar)
    monkeypatch.setattr(optimizer, "_STEP_BOUND", optimizer._STEP_BOUND / 16.0)
    assert abs(res.work - _exponential_works(prep, n_bar, [res.tau_opt], 1.0)[0]) <= 5e-8


@pytest.mark.parametrize("n_bar, theta", CRITERION_05_POINTS)
def test_ansatz_work_matches_the_strict_pipeline(n_bar, theta):
    # the step also resolves the pulse's decay: at most tau / 64
    prep = ef.Preparation(p=0.0, theta=theta)
    res = ef.optimize_exponential_tau(prep, n_bar=n_bar)
    pulse = res.pulse
    dt = min(ef.suggested_grid_step(pulse.amplitude, 1.0, pulse.support_end()), res.tau_opt / 64.0)
    assert abs(res.work - _strict_work(prep, pulse, dt)) <= STRICT_TOL


@pytest.mark.parametrize("p, theta", [(0.0, 0.0), (0.5, 1.0), (0.5, math.pi / 2)])
@pytest.mark.parametrize("n_bar", [1e-6, 1e-2, 1.64, 80.0])
def test_scan_extracts_no_work_from_passive_states(p, theta, n_bar):
    # W <= ergotropy = 0 for every drive
    works = _exponential_works(ef.Preparation(p=p, theta=theta), n_bar, TAUS, 1.0)
    assert float(works.max()) <= 1e-12


def test_scan_rejects_states_outside_the_bloch_ball(monkeypatch):
    # a step far past the RK4 bound keeps the states finite but leaves the ball
    monkeypatch.setattr(optimizer, "_STEP_BOUND", 5.0)
    with pytest.raises(ef.IntegrationAccuracyError, match="Bloch-ball"):
        _exponential_works(ef.Preparation(p=0.0, theta=2.0), 1.64, [0.2], 1.0)


def test_scan_past_the_fine_step_limit_is_rejected_by_n_bar():
    # 2.3e7 RK4 steps over the 25 drives at n_bar = 1e6, past the cap on the
    # scan's total steps: the counts are checked, as floats, before any array
    # is built
    prep = ef.Preparation(p=0.0, theta=math.pi)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="n_bar must be smaller"):
            _exponential_works(prep, 1e6, TAUS, 1.0)
        with pytest.raises(ValueError, match="n_bar must be smaller"):
            ef.optimize_exponential_tau(prep, n_bar=1e6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


def test_exponential_tau_flags_boundary(monkeypatch):
    monkeypatch.setattr(optimizer, "_TAU_RANGE", (1e-3, 1e-2))
    prep = ef.Preparation(p=0.0, theta=0.75 * math.pi)
    res = ef.optimize_exponential_tau(prep, n_bar=1.64)
    assert res.at_boundary
    assert res.tau_opt == pytest.approx(1e-2)


def test_exponential_tau_validation():
    prep = ef.Preparation(p=0.0, theta=1.0)
    with pytest.raises(ValueError):
        ef.optimize_exponential_tau(prep, n_bar=0.0)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        (dict(n_bar=math.nan), "n_bar"),
        (dict(n_bar=math.inf), "n_bar"),
        (dict(gamma=0.0), "gamma"),
        (dict(gamma=-1.0), "gamma"),
        (dict(gamma=math.nan), "gamma"),
    ],
)
def test_exponential_tau_rejects_bad_input_by_name(kwargs, name):
    args = dict(prep=ef.Preparation(p=0.0, theta=1.0), n_bar=1.0) | kwargs
    with pytest.raises(ValueError, match=f"^{name} "):
        ef.optimize_exponential_tau(**args)


# ------------------------------------------------------------- full solver


def test_control_problem_validation():
    prep = ef.Preparation(p=0.0, theta=1.0)
    with pytest.raises(ValueError):
        ef.ControlProblem(prep=prep, n_bar=-1.0)
    with pytest.raises(ValueError, match="^n_nodes must be at least 32, got 8$"):
        ef.ControlProblem(prep=prep, n_bar=1.0, n_nodes=8)
    with pytest.raises(ValueError):
        ef.ControlProblem(prep=prep, n_bar=1.0, gamma=0.0)
    for name in ("n_bar", "horizon", "gamma"):
        for bad, rule in ((math.nan, "finite"), (math.inf, "finite"), (0.0, "positive"), (-1.0, "positive")):
            kwargs = dict(prep=prep, n_bar=1.0, horizon=10.0, gamma=1.0)
            kwargs[name] = bad
            with pytest.raises(ValueError, match=f"^{name} must be {rule}"):
                ef.ControlProblem(**kwargs)

    # any positive horizon is valid: the functional books the exact free-decay
    # tail after the last node, where the tabulated drive is zero
    sol = ef.solve_optimal_control(ef.ControlProblem(prep=prep, n_bar=1.0, horizon=2.0, n_nodes=32))
    assert sol.converged, sol.message
    assert sol.work <= ef.ergotropy(prep)
    converged = ef.control_work_and_gradient(sol.controls, sol.times, prep, n_sub=512)[0]
    assert abs(sol.work - converged) <= STRICT_TOL


@pytest.mark.parametrize("n_starts", [0, -3])
def test_solver_rejects_start_count_below_one(n_starts):
    prep = ef.Preparation(p=0.0, theta=2.0)
    problem = ef.ControlProblem(prep=prep, n_bar=1.0, horizon=6.0, n_nodes=64)
    with pytest.raises(ValueError, match="n_starts"):
        ef.solve_optimal_control(problem, n_starts=n_starts)


def test_solver_beats_exponential_ansatz():
    prep = ef.Preparation(p=0.0, theta=0.75 * math.pi)
    problem = ef.ControlProblem(prep=prep, n_bar=0.5, horizon=6.0, n_nodes=64)
    sol = ef.solve_optimal_control(problem, n_starts=2)
    ansatz = ef.optimize_exponential_tau(prep, n_bar=0.5, gamma=1.0)

    assert sol.work >= ansatz.work - 1e-4
    assert sol.work <= ef.ergotropy(prep) + 1e-9
    # budget is conserved through the solve, to roundoff
    assert _charge(sol.controls, sol.times) == pytest.approx(0.5, rel=1e-10)
    assert sol.pulse.charge() == pytest.approx(0.5, rel=1e-10)
    assert (sol.controls >= 0.0).all()
    # the reported work is the best start's objective
    assert sol.work == max(sol.start_objectives)
    # both starts reach the same optimum
    assert max(sol.start_objectives) - min(sol.start_objectives) <= 1e-9
    assert sol.converged and sol.iterations >= 1 and sol.message


@pytest.mark.parametrize(
    "n_bar, theta",
    [(0.1, 0.5 * math.pi), (1.64, 0.75 * math.pi), (5.0, math.pi), (20.0, math.pi)],
)
def test_reported_work_is_the_converged_functional(n_bar, theta):
    # the maximised functional itself, at its default steps
    prep = ef.Preparation(p=0.0, theta=theta)
    sol = ef.solve_optimal_control(ef.ControlProblem(prep=prep, n_bar=n_bar))
    converged = ef.control_work_and_gradient(sol.controls, sol.times, prep, n_sub=512)[0]
    assert abs(sol.work - converged) <= 1e-8


@pytest.mark.parametrize("n_bar, theta", CRITERION_05_POINTS)
def test_reported_work_matches_the_strict_pipeline(n_bar, theta):
    # an independent reference: RK4 trajectory and the endpoint-corrected
    # ledger at the suggested step; measured 2.0e-7 and 7.0e-8 off
    prep = ef.Preparation(p=0.0, theta=theta)
    sol = ef.solve_optimal_control(ef.ControlProblem(prep=prep, n_bar=n_bar))
    dt = ef.suggested_grid_step(float(sol.controls.max()), 1.0, sol.times[-1])
    assert abs(sol.work - _strict_work(prep, sol.pulse, dt)) <= STRICT_TOL


def test_converged_controls_meet_the_step_bound_after_a_recount(monkeypatch):
    # with no margin over start 0's peaks the ascent raises some interval past
    # the step bound; its counts are taken again from the converged controls
    # and the start continues once
    counts = []
    default_n_sub = optimizer._default_n_sub

    def spy(dt, gamma, peak):
        counts.append(default_n_sub(dt, gamma, peak))
        return counts[-1]

    monkeypatch.setattr(optimizer, "_MARGIN", 1.0)
    monkeypatch.setattr(optimizer, "_default_n_sub", spy)
    prep = ef.Preparation(p=0.0, theta=0.75 * math.pi)
    sol = ef.solve_optimal_control(ef.ControlProblem(prep=prep, n_bar=1.64))
    assert len(counts) == 2  # start 0, then the recount
    rate = np.maximum(1.0, np.maximum(sol.controls[:-1], sol.controls[1:]))
    assert (np.diff(sol.times) * rate <= counts[-1] * optimizer._STEP_BOUND).all()
    assert sol.converged, sol.message


# ------------------------------------------------------------- pulse metric


def test_pulse_distance_properties():
    a = ef.ExponentialPulse(1.64, 0.4)
    b = ef.ExponentialPulse(1.64, 0.8)
    assert pulse_distance(a, a) == 0.0
    assert pulse_distance(a, b) > 0.0
    assert pulse_distance(ef.OffDrive(), a) == pytest.approx(1.0, rel=1e-12)
    assert math.isinf(pulse_distance(a, ef.OffDrive()))
