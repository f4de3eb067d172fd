"""Pulse-shaping tests: budget geometry, adjoint gradient, ascent, ansatz scan."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import ergoflux as ef
from ergoflux.optimizer import _budget_quadratic


def _charge(controls, times, gamma=1.0):
    delta = float(times[1] - times[0])
    return _budget_quadratic(np.asarray(controls, float), delta) / (4.0 * gamma)


# --------------------------------------------------------- budget projection


@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=60)
def test_projection_hits_budget_exactly(seed, n_bar):
    rng = np.random.default_rng(seed)
    times = ef.control_times(6.0, 40)
    raw = rng.standard_normal(40) * rng.uniform(0.1, 20.0)
    c = ef.project_to_budget(raw, times, n_bar)
    assert (c >= 0.0).all()
    assert _charge(c, times) == pytest.approx(n_bar, rel=1e-12)


def test_projection_of_dead_waveform_is_uniform():
    times = ef.control_times(5.0, 32)
    c = ef.project_to_budget(np.full(32, -3.0), times, n_bar=2.0)
    assert np.all(c == c[0])
    assert c[0] > 0.0
    assert _charge(c, times) == pytest.approx(2.0, rel=1e-12)


def test_projection_clamps_then_rescales():
    times = ef.control_times(5.0, 32)
    raw = np.linspace(-1.0, 1.0, 32)
    c = ef.project_to_budget(raw, times, n_bar=1.0)
    assert (c[: 16] == 0.0).all()
    assert c[-1] > 0.0


# --------------------------------------------------------- objective + adjoint


def test_control_work_matches_strict_pipeline():
    times = ef.control_times(8.0, 200)
    controls = ef.project_to_budget(4.0 * np.exp(-times / 0.4), times, n_bar=1.64)
    prep = ef.Preparation(p=0.0, theta=0.75 * math.pi)
    w = ef.control_work(controls, times, prep)

    pulse = ef.TabulatedPulse(times=times, values=controls)
    dt = ef.suggested_grid_step(float(controls.max()), 1.0, 8.0)
    traj = ef.evolve_numeric(ef.prepare_initial(prep), pulse, t_end=8.0, dt=dt)
    strict = ef.accumulate(traj, include_tail=True).total_work
    assert w == pytest.approx(strict, rel=1e-4)


def test_gradient_matches_finite_differences():
    # tiny grids, fixed substeps, so FD probes exactly the same discrete map;
    # the second has 17 * 7 = 119 fine steps, not a multiple of the scan's
    # chunk length, and a node clamped at zero by the projection
    for m, n_sub, zero in ((16, 64, None), (18, 7, 5)):
        times = ef.control_times(5.0, m)
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
    times = ef.control_times(5.0, 8)
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
            ef.control_work(controls, ef.control_times(5.0, 8), prep, n_sub=2)
        with pytest.raises(ValueError, match="controls must be finite"):
            ef.control_work_and_gradient(controls, ef.control_times(5.0, 8), prep, n_sub=2)
    t = ef.control_times(7.0, 50)
    assert t[0] == 0.0 and t[-1] == 7.0
    assert np.allclose(np.diff(t), t[1] - t[0])


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


def test_exponential_tau_flags_boundary():
    prep = ef.Preparation(p=0.0, theta=0.75 * math.pi)
    res = ef.optimize_exponential_tau(prep, n_bar=1.64, tau_range=(1e-3, 1e-2))
    assert res.at_boundary
    assert res.tau_opt == pytest.approx(1e-2)


def test_exponential_tau_validation():
    prep = ef.Preparation(p=0.0, theta=1.0)
    with pytest.raises(ValueError):
        ef.optimize_exponential_tau(prep, n_bar=0.0)
    with pytest.raises(ValueError):
        ef.optimize_exponential_tau(prep, n_bar=1.0, n_grid=3)


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
    sol = ef.solve_optimal_control(problem, n_starts=2, seed=0, max_iter=400)
    ansatz = ef.optimize_exponential_tau(prep, n_bar=0.5, gamma=1.0)

    assert sol.work >= ansatz.work - 1e-4
    assert sol.work <= ef.ergotropy(prep) + 1e-9
    # budget is conserved through the ascent, to roundoff
    assert _charge(sol.controls, sol.times) == pytest.approx(0.5, rel=1e-10)
    assert sol.pulse.charge() == pytest.approx(0.5, rel=1e-10)
    assert (sol.controls >= 0.0).all()
    # strict re-evaluation sits close to the internal objective
    assert sol.work == pytest.approx(sol.objective, abs=5e-4)
    assert sol.objective == pytest.approx(max(sol.start_objectives), abs=1e-15)
    assert sol.iterations >= 1


def test_solver_rejects_mismatched_init():
    prep = ef.Preparation(p=0.0, theta=2.0)
    problem = ef.ControlProblem(prep=prep, n_bar=1.0, horizon=6.0, n_nodes=64)
    with pytest.raises(ValueError):
        ef.solve_optimal_control(problem, init=np.ones(10))


# ------------------------------------------------------------- pulse metric


def test_pulse_distance_properties():
    a = ef.exponential_drive(1.64, 0.4)
    b = ef.exponential_drive(1.64, 0.8)
    assert ef.pulse_distance(a, a) == 0.0
    assert ef.pulse_distance(a, b) > 0.0
    assert ef.pulse_distance(ef.OffDrive(), a) == pytest.approx(1.0, rel=1e-12)
    assert math.isinf(ef.pulse_distance(a, ef.OffDrive(), t_end=3.0))
