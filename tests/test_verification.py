"""Tests of the self-check layer itself (audits, bound scan, rate rescaling)."""
import math

import numpy as np
import pytest

import ergoflux as ef
from ergoflux import verification


def _driven_trajectory(rabi=1.3, t_end=3.0):
    prep = ef.Preparation(p=0.1, theta=2.0)
    drive = ef.TabulatedPulse(times=[0.0, t_end], values=[rabi, rabi])
    dt = ef.suggested_grid_step(rabi, 1.0, t_end)
    return ef.evolve_numeric(ef.prepare_initial(prep), drive, t_end=t_end, dt=dt)


def test_audit_passes_on_a_clean_trajectory():
    rep = ef.conservation_audit(_driven_trajectory())
    assert rep.passed
    assert rep.n_cases == 1
    assert rep.max_rate_residual < 1e-8
    assert rep.max_integral_residual < 1e-6
    assert rep.min_heat_rate >= -1e-12


def test_audit_ground_state_off_drive_is_exact():
    state0 = ef.prepare_initial(ef.Preparation(p=0.0, theta=0.0))
    traj = ef.evolve_numeric(state0, ef.OffDrive(), t_end=2.0, dt=0.01)
    rep = ef.conservation_audit(traj)
    assert rep.max_rate_residual == 0.0
    assert rep.max_integral_residual == 0.0


def test_audit_catches_corrupted_bookkeeping():
    traj = _driven_trajectory()
    bad = ef.Trajectory(
        times=traj.times,
        p_e=traj.p_e * 1.001,  # breaks -dE/dt = work flux + heat flux
        s_bar=traj.s_bar,
        drive=traj.drive,
        gamma=traj.gamma,
    )
    assert not ef.conservation_audit(bad).passed


def test_audit_rejects_bad_grids():
    traj = _driven_trajectory()
    squeezed = ef.Trajectory(
        times=traj.times[:4],
        p_e=traj.p_e[:4],
        s_bar=traj.s_bar[:4],
        drive=traj.drive,
        gamma=traj.gamma,
    )
    with pytest.raises(ValueError):
        ef.conservation_audit(squeezed)
    warped = ef.Trajectory(
        times=traj.times**1.01,
        p_e=traj.p_e,
        s_bar=traj.s_bar,
        drive=traj.drive,
        gamma=traj.gamma,
    )
    with pytest.raises(ValueError):
        ef.conservation_audit(warped)


def test_audit_rejects_a_trace_without_decay():
    # gamma = 0: no channel, so no power balance
    state0 = ef.prepare_initial(ef.Preparation(p=0.0, theta=1.0))
    drive = ef.TabulatedPulse(times=[0.0, 3.0], values=[1.0, 1.0])
    traj = ef.evolve_numeric(state0, drive, t_end=3.0, dt=1e-3, gamma=0.0)
    with pytest.raises(ValueError, match="gamma"):
        ef.conservation_audit(traj)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_suite_of_one_case_is_the_audit_of_that_case(seed):
    traj = verification._random_trajectory(np.random.default_rng(seed))
    assert ef.conservation_suite(n_cases=1, seed=seed) == ef.conservation_audit(traj)


def test_suite_over_random_drives():
    rep = ef.conservation_suite(n_cases=8, seed=3)
    assert rep.passed
    assert rep.n_cases == 8
    assert rep.max_rate_residual < 1e-6
    assert rep.min_heat_rate >= -1e-12
    with pytest.raises(ValueError):
        ef.conservation_suite(n_cases=0)


def test_bound_scan_small_grid():
    rep = ef.ergotropy_bound_scan(resolution=20)
    assert rep.passed
    assert rep.n_violations == 0
    assert rep.gap.shape == (20, 20, 20)
    # passive corner theta = 0: no work, gap equals the (zero) ergotropy
    assert rep.gap[:, :, 0] == pytest.approx(0.0, abs=1e-12)
    assert rep.min_gap >= -1e-12
    eps, p, th = rep.argmin
    assert 0.05 <= eps <= 50.0 and 0.0 <= p <= 0.5 and 0.0 <= th <= math.pi


def test_bound_scan_rejects_coarse_grids():
    with pytest.raises(ValueError, match="^resolution must be at least 20 per axis, got 10$"):
        ef.ergotropy_bound_scan(resolution=10)


def test_scale_invariance_trivial_factor(monkeypatch):
    monkeypatch.setattr(verification, "_SCALE_FACTORS", (1.0,))
    prep = ef.Preparation(p=0.0, theta=2.0)
    rep = ef.scale_invariance_check(prep, epsilon=1.0)
    assert rep.max_work_deviation == 0.0
    assert rep.max_stopping_deviation == 0.0


def test_scale_invariance_across_decades():
    prep = ef.Preparation(p=0.0, theta=math.pi / 2.0)
    for eps in (1.0, 8.0):  # oscillatory and overdamped
        rep = ef.scale_invariance_check(prep, epsilon=eps)
        assert rep.passed, (eps, rep.max_work_deviation, rep.max_stopping_deviation)
        assert rep.max_work_deviation <= 1e-9
        assert rep.max_stopping_deviation <= 1e-9
    with pytest.raises(ValueError):
        ef.scale_invariance_check(prep, epsilon=0.0)


def test_report_pass_logic():
    rep = ef.ConservationReport(
        n_cases=1,
        max_rate_residual=1e-9,
        max_integral_residual=2e-6,
        min_heat_rate=0.0,
        tolerance=1e-6,
    )
    assert not rep.passed
    rep = ef.ConservationReport(
        n_cases=1,
        max_rate_residual=0.0,
        max_integral_residual=0.0,
        min_heat_rate=-1.0,
        tolerance=1e-6,
    )
    assert not rep.passed
