"""Energy bookkeeping tests: rates, cumulative work/heat, ergotropy, work channels.

`test_square_drive_work_matches_quadrature` is the independent oracle for the
closed-form work integral: scipy.integrate.quad on the analytic flux.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st
from scipy.integrate import quad

import ergoflux as ef
from ergoflux import energetics
from ergoflux.energetics import RESIDUAL_TOL
from oracles import evolve_square_analytic, free_decay_trajectory

preparations = st.builds(
    ef.Preparation,
    p=st.floats(min_value=0.0, max_value=0.5),
    theta=st.floats(min_value=0.0, max_value=math.pi),
)

ball_states = st.builds(
    lambda pe, r: ef.QubitState(p_e=pe, s_bar=r * math.sqrt(pe * (1.0 - pe))),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
)


# ------------------------------------------------------------ frozen oracles


def test_rates_hand_computed_point():
    state = ef.QubitState(p_e=0.5, s_bar=0.5)
    # W' = g*s^2 + O*s = 0.25 + 0.5 ; Q' = g*(p - s^2) = 0.25
    assert ef.work_rate(state, rabi=1.0, gamma=1.0) == pytest.approx(0.75)
    assert ef.heat_rate(state, gamma=1.0) == pytest.approx(0.25)


@pytest.mark.parametrize(
    "eps,tau,p,theta",
    [
        (0.3, 2.0, 0.0, math.pi / 2),
        (1.0, 5.0, 0.1, 2.5),
        (4.0, 3.0, 0.25, 1.0),  # exactly critical
        (9.0, 7.0, 0.0, 0.5),
        (0.05, 1.0, 0.4, 3.0),
        (30.0, 10.0, 0.2, math.pi),
        # a hair either side of critical damping, where 1/sqrt|gamma^2 - 16 rabi^2| blows up
        *[(4.0 * (1.0 + sign * rel), 3.0, 0.0, 2.0) for rel in (1e-15, 1e-10, 1e-8) for sign in (1, -1)],
    ],
)
def test_square_drive_work_matches_quadrature(eps, tau, p, theta):
    gamma = 1.0
    rabi = gamma / eps
    prep = ef.Preparation(p=p, theta=theta)

    def flux(t):
        s = evolve_square_analytic(prep, rabi, gamma, t).s_bar
        return gamma * s * s + rabi * s

    expected, err = quad(flux, 0.0, tau, limit=2000, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-9
    got = ef.square_drive_work(prep, rabi, gamma, tau)
    assert got == pytest.approx(expected, abs=1e-9)


def test_square_drive_work_on_an_array_is_elementwise():
    prep = ef.Preparation(p=0.1, theta=2.0)
    for rabi in (0.1, 0.25, 1.7):  # k < 0, k = 0 and k > 0
        taus = np.array([0.0, 1e-9, 0.3, 2.0, 7.5, 40.0])
        got = ef.square_drive_work(prep, rabi, 1.0, taus)
        assert got.dtype == np.float64 and got.shape == taus.shape
        for tau, w in zip(taus.tolist(), got.tolist()):
            assert w == ef.square_drive_work(prep, rabi, 1.0, tau)
    with pytest.raises(ValueError, match="tau must be nonnegative"):
        ef.square_drive_work(prep, 1.0, 1.0, np.array([0.5, -1e-12, 2.0]))


def test_square_drive_work_without_damping():
    # gamma = 0: pure rotation, W(tau) = (1/2-p)(cos(theta - O*tau) - cos(theta))
    prep = ef.Preparation(p=0.1, theta=2.0)
    rabi, tau = 3.0, 0.7
    got = ef.square_drive_work(prep, rabi, 0.0, tau)
    assert got == pytest.approx(0.4 * (math.cos(2.0 - rabi * tau) - math.cos(2.0)), abs=1e-12)


# ------------------------------------------------------------- simple scalars


def test_ergotropy_closed_form():
    assert ef.ergotropy(ef.Preparation(p=0.0, theta=math.pi)) == pytest.approx(1.0)
    assert ef.ergotropy(ef.Preparation(p=0.5, theta=1.0)) == pytest.approx(0.0, abs=1e-15)
    p, th = 0.2, 2.0
    assert ef.ergotropy(ef.Preparation(p=p, theta=th)) == pytest.approx(
        (1 - 2 * p) * math.sin(th / 2) ** 2
    )


def test_yield_of_passive_state_is_nan():
    assert math.isnan(ef.extraction_yield(0.0, ef.Preparation(p=0.5, theta=2.0)))
    assert math.isnan(ef.extraction_yield(0.0, ef.Preparation(p=0.0, theta=0.0)))
    assert ef.extraction_yield(0.125, ef.Preparation(p=0.0, theta=math.pi / 2)) == pytest.approx(0.25)


@given(ball_states)
# on the surface, r = 1 rounds |s|^2 one ulp above a subnormal-scale p_e
@example(state=ef.QubitState(p_e=3.953990319981108e-285, s_bar=6.288076271787031e-143))
def test_heat_rate_is_nonnegative_on_the_ball(state):
    assert ef.heat_rate(state, gamma=1.0) >= 0.0


# --------------------------------------------------------------- accumulate


def test_accumulate_excited_state_free_decay():
    # pure |e>: no coherence, so no work; all energy leaves as heat
    st0 = ef.prepare_initial(ef.Preparation(p=0.0, theta=math.pi))
    traj = free_decay_trajectory(st0, gamma=1.0, t_end=40.0, num=16001)
    tr = ef.accumulate(traj)
    assert tr.total_work == pytest.approx(0.0, abs=1e-12)
    assert tr.total_heat == pytest.approx(1.0, abs=1e-6)


def test_accumulate_spontaneous_half_coherence():
    st0 = ef.prepare_initial(ef.Preparation(p=0.0, theta=math.pi / 2))
    traj = free_decay_trajectory(st0, gamma=1.0, t_end=40.0, num=16001)
    tr = ef.accumulate(traj)
    assert tr.total_work == pytest.approx(0.25, abs=1e-6)
    assert tr.total_heat == pytest.approx(0.25, abs=1e-6)


def test_accumulate_ground_state_is_null():
    st0 = ef.prepare_initial(ef.Preparation(p=0.0, theta=0.0))
    traj = free_decay_trajectory(st0, gamma=1.0, t_end=10.0, num=101)
    tr = ef.accumulate(traj)
    assert tr.total_work == 0.0
    assert tr.total_heat == 0.0


def test_accumulate_power_balance_columns():
    prep = ef.Preparation(p=0.0, theta=2.0)
    rabi = 2.0
    traj = ef.evolve_numeric(
        ef.prepare_initial(prep),
        ef.SquarePulse(amplitude=rabi, duration=4.0),
        t_end=4.0,
        dt=0.002,
    )
    tr = ef.accumulate(traj)
    assert np.allclose(tr.output_flux - tr.input_flux, tr.work_flux + tr.heat_flux, atol=1e-12)
    assert np.all(tr.input_flux == rabi**2 / 4.0)
    assert tr.heat_flux.min() >= -1e-12


def test_first_law_residual_guard_trips_on_corrupted_population():
    prep = ef.Preparation(p=0.0, theta=2.0)
    traj = ef.evolve_numeric(
        ef.prepare_initial(prep),
        ef.SquarePulse(amplitude=1.0, duration=3.0),
        t_end=3.0,
        dt=ef.suggested_grid_step(1.0, 1.0, 3.0),  # fine enough for the clean trace to pass
    )
    bad = ef.Trajectory(
        times=traj.times,
        p_e=traj.p_e * (1.0 + 1e-3),
        s_bar=traj.s_bar,
        drive=traj.drive,
        gamma=traj.gamma,
    )
    with pytest.raises(ef.IntegrationAccuracyError):
        ef.accumulate(bad)
    # the same trace passes with the check disabled and records the residual the check saw
    assert ef.accumulate(bad, check_residual=False).residual > RESIDUAL_TOL
    # the clean trace records the same residual with the check on or off, inside the tolerance
    assert ef.accumulate(traj).residual == ef.accumulate(traj, check_residual=False).residual <= RESIDUAL_TOL


_KINKED = ef.TabulatedPulse(times=[0.0, 0.5, 1.0], values=[0.0, 2.0, 0.0])  # kinks on grid nodes


@pytest.mark.parametrize(
    "t_end, booked",
    [
        (0.5, False),  # the drive is still on: the trace stands for a cut coupling
        (1.0, True),  # ends with the drive
        (1.5, True),  # ends in the free decay
    ],
)
def test_tail_is_booked_after_the_drive_only(t_end, booked):
    state = ef.prepare_initial(ef.Preparation(p=0.0, theta=math.pi / 2))
    traj = ef.evolve_numeric(state, _KINKED, t_end=t_end, dt=0.001)
    tr = ef.accumulate(traj)
    s_end, p_end = traj.s_bar[-1], traj.p_e[-1]
    if booked:
        assert tr.work_tail == pytest.approx(s_end**2, abs=1e-12)
        assert tr.heat_tail == pytest.approx(p_end - s_end**2, abs=1e-12)
        assert tr.work_tail > 1e-4 and tr.heat_tail > 1e-4
    else:
        assert tr.work_tail == 0.0 and tr.heat_tail == 0.0
    assert tr.stimulated_work + tr.spontaneous_work == pytest.approx(tr.total_work, abs=1e-9)


def test_no_tail_without_decay():
    # gamma = 0: the coherence left at the end never leaves, so no spontaneous work is booked
    state = ef.prepare_initial(ef.Preparation(p=0.0, theta=math.pi / 2))
    traj = ef.evolve_numeric(state, _KINKED, t_end=1.5, dt=0.001, gamma=0.0)
    assert abs(traj.s_bar[-1]) > 0.1
    assert ef.accumulate(traj).spontaneous_work == 0.0


def test_accumulate_without_decay_books_the_drive_alone():
    # gamma = 0: the input flux is its gamma -> 0 limit, and no heat leaves
    state = ef.prepare_initial(ef.Preparation(p=0.0, theta=math.pi / 2))
    traj = ef.evolve_numeric(state, _KINKED, t_end=1.5, dt=0.001, gamma=0.0)
    tr = ef.accumulate(traj)
    on = _KINKED.rabi(traj.times) > 0.0
    assert np.isinf(tr.input_flux[on]).all() and (tr.input_flux[~on] == 0.0).all()
    assert (tr.heat == 0.0).all() and tr.work_tail == 0.0 and tr.heat_tail == 0.0
    assert tr.total_work == pytest.approx(tr.stimulated_work + tr.spontaneous_work, abs=1e-15)
    assert abs(tr.total_work) > 1e-3


def test_accumulated_work_matches_closed_form():
    prep = ef.Preparation(p=0.1, theta=1.8)
    rabi, gamma, tau = 1.3, 1.0, 4.0
    traj = ef.analytic_square_trajectory(prep, rabi, gamma, t_end=tau, num=40001)
    tr = ef.accumulate(traj)
    assert tr.work[-1] == pytest.approx(ef.square_drive_work(prep, rabi, gamma, tau), abs=2e-8)


def test_suggested_grid_step_budget_scaling(monkeypatch):
    h1 = ef.suggested_grid_step(1.0, 1.0, 10.0)
    monkeypatch.setattr(energetics, "_TRAPEZOID_BUDGET", energetics._TRAPEZOID_BUDGET / 100.0)
    h2 = ef.suggested_grid_step(1.0, 1.0, 10.0)
    assert h2 == pytest.approx(h1 / 10.0, rel=1e-12)
    # never coarser than 0.01 of the fastest rate
    assert ef.suggested_grid_step(100.0, 1.0, 1e-6) <= 0.01 / 100.0


# --------------------------------------------------------------- work channels


def test_split_sums_to_total_work():
    prep = ef.Preparation(p=0.0, theta=math.pi / 2)
    traj = ef.evolve_numeric(
        ef.prepare_initial(prep),
        ef.SquarePulse(amplitude=1.0, duration=1.0),
        t_end=1.0,
        dt=0.001,
    )
    tr = ef.accumulate(traj)
    # total_work already folds in the free-decay tail, as does the spontaneous part
    assert tr.stimulated_work + tr.spontaneous_work == pytest.approx(tr.total_work, abs=1e-9)


def test_split_off_drive_has_no_stimulated_part():
    st0 = ef.prepare_initial(ef.Preparation(p=0.0, theta=1.0))
    traj = free_decay_trajectory(st0, gamma=1.0, t_end=30.0, num=8001)
    tr = ef.accumulate(traj)
    assert tr.stimulated_work == 0.0
    assert tr.spontaneous_work == pytest.approx(st0.s_bar**2, abs=1e-6)


def _split_limit_deviation(eps, p, theta, angle):
    """Relative deviation of the split from its Omega >> gamma closed forms."""
    gamma = 1.0
    rabi = gamma / eps
    tau = angle / rabi
    prep = ef.Preparation(p=p, theta=theta)
    traj = ef.analytic_square_trajectory(prep, rabi, gamma, t_end=tau, num=8001)
    tr = ef.accumulate(traj)
    a = theta - angle
    w_stim = (0.5 - p) * (math.cos(a) - math.cos(theta))
    w_sp = (0.5 - p) ** 2 * math.sin(a) ** 2
    return abs(tr.stimulated_work - w_stim) / abs(w_stim), abs(tr.spontaneous_work - w_sp) / abs(w_sp)


def test_stimulated_limit_closed_forms():
    # gentle rotation at eps = 0.01 sits inside the limit's domain of validity
    d_stim, d_sp = _split_limit_deviation(0.01, 0.0, math.pi / 2, 0.3)
    assert d_stim < 1e-3 and d_sp < 1e-3
    # a generic preparation and a large rotation need a smaller eps for the
    # same budget (the correction is O(eps * angle))
    d_stim, d_sp = _split_limit_deviation(1e-4, 0.1, 2.4, 1.3)
    assert d_stim < 1e-3 and d_sp < 1e-3


def test_stimulated_limit_correction_is_first_order():
    d1 = _split_limit_deviation(1e-2, 0.1, 2.4, 1.3)
    d2 = _split_limit_deviation(1e-3, 0.1, 2.4, 1.3)
    for a, b in zip(d1, d2):
        assert a / b == pytest.approx(10.0, rel=0.05)


def test_stimulated_limit_pi_pulse_extracts_ergotropy():
    gamma = 1.0
    rabi = 100.0 * gamma
    prep = ef.Preparation(p=0.0, theta=math.pi)
    tau = math.pi / rabi
    traj = ef.analytic_square_trajectory(prep, rabi, gamma, t_end=tau, num=4001)
    tr = ef.accumulate(traj)
    assert tr.stimulated_work == pytest.approx(1.0, abs=0.03)
    assert abs(tr.spontaneous_work) < 5e-3


@given(preparations, st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=25)
def test_split_consistency_property(prep, rabi):
    tau = 2.0
    h = ef.suggested_grid_step(rabi, 1.0, tau)
    traj = ef.analytic_square_trajectory(prep, rabi, 1.0, t_end=tau, num=int(tau / h) + 2)
    tr = ef.accumulate(traj)
    assert tr.stimulated_work + tr.spontaneous_work == pytest.approx(tr.total_work, abs=1e-9)
