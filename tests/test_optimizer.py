"""Pulse-shaping tests: budget geometry, adjoint gradient, solver, ansatz scan."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import ergoflux as ef
from ergoflux import optimizer
from ergoflux.optimizer import (
    _budget_quadratic,
    _exponential_works,
    _gather_tables,
    _quadrature_weights,
    _scan_exponential_tau,
)
from oracles import pulse_distance


def _charge(controls, times, gamma=1.0):
    delta = float(times[1] - times[0])
    return _budget_quadratic(np.asarray(controls, float), delta) / (4.0 * gamma)


# --------------------------------------------------------- budget projection


@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=60)
def test_projection_hits_budget_exactly(seed, n_bar):
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 6.0, 40)
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
    w = ef.control_work(controls, times, prep)

    pulse = ef.TabulatedPulse(times=times, values=controls)
    dt = ef.suggested_grid_step(float(controls.max()), 1.0, 8.0)
    traj = ef.evolve_numeric(ef.prepare_initial(prep), pulse, t_end=8.0, dt=dt)
    strict = ef.accumulate(traj).total_work
    assert w == pytest.approx(strict, rel=1e-4)


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
        assert work == pytest.approx(ef.control_work(controls, times, prep, n_sub=n_sub), abs=1e-14)

        eps = 1e-6
        fd = np.zeros(m)
        for j in range(m):
            cp = controls.copy()
            cp[j] += eps
            cm = controls.copy()
            cm[j] -= eps
            fd[j] = (
                ef.control_work(cp, times, prep, n_sub=n_sub)
                - ef.control_work(cm, times, prep, n_sub=n_sub)
            ) / (2.0 * eps)
        scale = max(1.0, float(np.abs(grad).max()))
        assert float(np.abs(grad - fd).max()) / scale < 1e-6
        if zero is not None:
            assert controls[zero] == 0.0 and grad[zero] != 0.0


def test_unstable_forward_pass_raises():
    times = np.linspace(0.0, 5.0, 8)
    controls = np.full(8, 1e6)
    with pytest.raises(ef.IntegrationAccuracyError):
        ef.control_work(controls, times, ef.Preparation(p=0.0, theta=1.0), n_sub=2)


def test_grid_validation():
    prep = ef.Preparation(p=0.0, theta=1.0)
    with pytest.raises(ValueError):
        ef.control_work(np.ones(4), np.array([0.0, 1.0, 2.5, 3.0]), prep)
    with pytest.raises(ValueError):
        ef.control_work(np.ones(3), np.linspace(0, 1, 4), prep)
    for bad in (math.nan, math.inf):
        controls = np.ones(8)
        controls[3] = bad
        with pytest.raises(ValueError, match="controls must be finite"):
            ef.control_work(controls, np.linspace(0.0, 5.0, 8), prep, n_sub=2)
        with pytest.raises(ValueError, match="controls must be finite"):
            ef.control_work_and_gradient(controls, np.linspace(0.0, 5.0, 8), prep, n_sub=2)


@pytest.mark.parametrize("n_sub", [0, -2, 2.5, True])
@pytest.mark.parametrize("call", ["control_work", "control_work_and_gradient"])
def test_bad_substep_count_is_rejected_by_name(call, n_sub):
    prep = ef.Preparation(p=0.0, theta=2.0)
    with pytest.raises(ValueError, match="n_sub"):
        getattr(ef, call)(np.ones(8), np.linspace(0.0, 5.0, 8), prep, n_sub=n_sub)


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


@pytest.mark.parametrize("n_sub", [2, 3, 4, 5])
def test_fine_grid_weights_are_exact_across_drive_kinks(n_sub):
    # the work flux has kinks at the control nodes, where the drive does; a
    # continuous piecewise cubic with a kink at every node is integrated
    # exactly, so no panel straddles a node
    m = 5
    w = _gather_tables(m, n_sub)[-1]
    x = np.arange((m - 1) * n_sub + 1.0) / n_sub  # in control steps
    j = np.minimum(x.astype(int), m - 2)
    u = x - j
    f = (j + 1.0) * u * (1.0 - u) * (1.0 + 2.0 * u)  # 0 at every node
    exact = sum(k + 1.0 for k in range(m - 1)) / 3.0
    assert float((w * f).sum()) / n_sub == pytest.approx(exact, rel=1e-13)


# the weak-charge, criterion-05 and strong-charge points
ANSATZ_POINTS = [
    (1e-3, 0.5 * math.pi),
    (0.1, 0.5 * math.pi),
    (1.64, 0.75 * math.pi),
    (5.0, math.pi),
    (20.0, math.pi),
]


def _ansatz_controls(n_bar, theta, times):
    """Start 0 of the solver: the best exponential on the control grid, on the budget."""
    prep = ef.Preparation(p=0.0, theta=theta)
    tau = _scan_exponential_tau(prep, n_bar, 1.0)[0]
    drive = ef.ExponentialPulse(n_bar=n_bar, tau=tau)
    return prep, ef.project_to_budget(drive.rabi(times), times, n_bar)


@pytest.mark.parametrize("n_bar, theta", ANSATZ_POINTS)
def test_default_substeps_reach_the_converged_functional(n_bar, theta):
    times = np.linspace(0.0, 10.0, 400)
    prep, controls = _ansatz_controls(n_bar, theta, times)
    converged = ef.control_work(controls, times, prep, n_sub=512)
    assert abs(ef.control_work(controls, times, prep) - converged) <= 1e-8


class _FirstStart(Exception):
    """Stops the solver at its first ascent, carrying the substep count it got."""


@pytest.mark.parametrize("n_bar, theta", ANSATZ_POINTS)
def test_default_substeps_at_start_zero_are_the_solvers(n_bar, theta, monkeypatch):
    # control_work's default at start 0's controls is the functional the solver maximises
    def first_start(c0, times, prep, gamma, n_bar, n_sub):
        raise _FirstStart(n_sub)

    times = np.linspace(0.0, 10.0, 400)
    prep, controls = _ansatz_controls(n_bar, theta, times)
    monkeypatch.setattr(optimizer, "_shape", first_start)
    with pytest.raises(_FirstStart) as stop:
        ef.solve_optimal_control(ef.ControlProblem(prep=prep, n_bar=n_bar), n_starts=1)
    n_sub = stop.value.args[0]
    assert ef.control_work(controls, times, prep) == ef.control_work(controls, times, prep, n_sub=n_sub)


@pytest.mark.parametrize("n_sub", [3, 4])
def test_functional_is_fourth_order_in_the_fine_step(n_sub):
    times = np.linspace(0.0, 10.0, 400)
    prep, controls = _ansatz_controls(1.64, 0.75 * math.pi, times)
    converged = ef.control_work(controls, times, prep, n_sub=512)
    coarse = ef.control_work(controls, times, prep, n_sub=n_sub) - converged
    fine = ef.control_work(controls, times, prep, n_sub=2 * n_sub) - converged
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


@pytest.mark.parametrize("order", [1, -1])
def test_batched_scan_matches_one_drive_at_a_time(order):
    prep = ef.Preparation(p=0.0, theta=0.75 * math.pi)
    one = np.array([_exponential_works(prep, 1.64, [t], 1.0)[0] for t in TAUS])
    batched = _exponential_works(prep, 1.64, TAUS[::order], 1.0)[::order]
    assert float(np.abs(batched - one).max()) <= 1e-14


def test_scan_is_fourth_order_in_the_step_bound(monkeypatch):
    converged = _scan_works(1.64, 0.75 * math.pi, monkeypatch, 8.0)
    coarse = np.abs(_scan_works(1.64, 0.75 * math.pi, monkeypatch) - converged).max()
    fine = np.abs(_scan_works(1.64, 0.75 * math.pi, monkeypatch, 2.0) - converged).max()
    assert fine * 10.0 <= coarse


@pytest.mark.parametrize("n_bar, theta", ANSATZ_POINTS)
def test_scan_reaches_the_converged_functional(n_bar, theta, monkeypatch):
    converged = _scan_works(n_bar, theta, monkeypatch, 8.0)
    assert float(np.abs(_scan_works(n_bar, theta, monkeypatch) - converged).max()) <= 1e-6


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


@pytest.mark.parametrize("n_bar", [1e-3, 1e-4])
def test_strict_work_resolves_short_pulses(n_bar, monkeypatch):
    # the strict step must resolve a 1e-3 pulse's decay, or the first-law check fails
    monkeypatch.setattr(optimizer, "_TAU_RANGE", (1e-3, 1e-2))
    prep = ef.Preparation(p=0.0, theta=0.5 * math.pi)
    res = ef.optimize_exponential_tau(prep, n_bar=n_bar)
    assert res.at_boundary and res.tau_opt == pytest.approx(1e-2)
    assert res.work == pytest.approx(res.works[-1], abs=1e-6)


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
    with pytest.raises(ValueError):
        ef.ControlProblem(prep=prep, n_bar=1.0, horizon=2.0)
    with pytest.raises(ValueError):
        ef.ControlProblem(prep=prep, n_bar=1.0, n_nodes=8)
    with pytest.raises(ValueError):
        ef.ControlProblem(prep=prep, n_bar=1.0, gamma=0.0)
    for name in ("n_bar", "horizon", "gamma"):
        for bad in (math.nan, math.inf):
            kwargs = dict(prep=prep, n_bar=1.0, horizon=10.0, gamma=1.0)
            kwargs[name] = bad
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                ef.ControlProblem(**kwargs)


@pytest.mark.parametrize("n_starts", [0, -3])
def test_solver_rejects_start_count_below_one(n_starts):
    prep = ef.Preparation(p=0.0, theta=2.0)
    problem = ef.ControlProblem(prep=prep, n_bar=1.0, horizon=6.0, n_nodes=64)
    with pytest.raises(ValueError, match="n_starts"):
        ef.solve_optimal_control(problem, n_starts=n_starts)


def test_solver_beats_exponential_ansatz():
    prep = ef.Preparation(p=0.0, theta=0.75 * math.pi)
    problem = ef.ControlProblem(prep=prep, n_bar=0.5, horizon=6.0, n_nodes=64)
    sol = ef.solve_optimal_control(problem, n_starts=2, seed=0)
    ansatz = ef.optimize_exponential_tau(prep, n_bar=0.5, gamma=1.0)

    assert sol.work >= ansatz.work - 1e-4
    assert sol.work <= ef.ergotropy(prep) + 1e-9
    # budget is conserved through the solve, to roundoff
    assert _charge(sol.controls, sol.times) == pytest.approx(0.5, rel=1e-10)
    assert sol.pulse.charge() == pytest.approx(0.5, rel=1e-10)
    assert (sol.controls >= 0.0).all()
    # strict re-evaluation sits close to the internal objective
    assert sol.work == pytest.approx(sol.objective, abs=5e-4)
    assert sol.objective == pytest.approx(max(sol.start_objectives), abs=1e-15)
    # both starts reach the same optimum
    assert max(sol.start_objectives) - min(sol.start_objectives) <= 1e-9
    assert sol.converged and sol.iterations >= 1 and sol.message


@pytest.mark.parametrize(
    "n_bar, theta",
    [(0.1, 0.5 * math.pi), (1.64, 0.75 * math.pi), (5.0, math.pi), (20.0, math.pi)],
)
def test_strict_work_matches_the_converged_functional(n_bar, theta):
    # the strict pipeline steps each control interval by its own peak; one
    # step over the whole horizon was 1.1e-7 off at n_bar = 0.1
    prep = ef.Preparation(p=0.0, theta=theta)
    sol = ef.solve_optimal_control(ef.ControlProblem(prep=prep, n_bar=n_bar))
    converged = ef.control_work(sol.controls, sol.times, prep, n_sub=512)
    assert abs(sol.work - converged) <= 5e-8


# ------------------------------------------------------------- pulse metric


def test_pulse_distance_properties():
    a = ef.ExponentialPulse(1.64, 0.4)
    b = ef.ExponentialPulse(1.64, 0.8)
    assert pulse_distance(a, a) == 0.0
    assert pulse_distance(a, b) > 0.0
    assert pulse_distance(ef.OffDrive(), a) == pytest.approx(1.0, rel=1e-12)
    assert math.isinf(pulse_distance(a, ef.OffDrive()))
