"""State, drive, and Bloch-equation solver tests.

The frozen numbers at the top were derived by hand from the closed-form
equations of motion and serve as independent oracles for the solvers.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import ergoflux as ef
from ergoflux.dynamics import BLOCH_TOL, HBAR

# ---------------------------------------------------------------- strategies

preparations = st.builds(
    ef.Preparation,
    p=st.floats(min_value=0.0, max_value=0.5),
    theta=st.floats(min_value=0.0, max_value=math.pi),
)

# damping ratio gamma/rabi spanning oscillatory through overdamped
epsilons = st.floats(min_value=0.05, max_value=50.0)


# ------------------------------------------------------------ frozen oracles


def test_bloch_rhs_hand_computed_point():
    # dp = -g*p - O*Re(s) = -1/2 - 1/2 = -1 ; ds = -g/2*s + O*(p-1/2) = -1/4
    state = ef.QubitState(p_e=0.5, s_bar=0.5 + 0.0j)
    dp, ds = ef.bloch_rhs(state, rabi=1.0, gamma=1.0)
    assert dp == pytest.approx(-1.0, abs=1e-15)
    assert ds.real == pytest.approx(-0.25, abs=1e-15)
    assert ds.imag == 0.0


def test_steady_coherence_at_equal_rates():
    # C = -g*O/(2O^2+g^2) = -1/3 when gamma == rabi
    prep = ef.Preparation(p=0.0, theta=math.pi / 2)
    co = ef.square_pulse_coefficients(prep, rabi=1.0, gamma=1.0)
    assert co.c == pytest.approx(-1.0 / 3.0, abs=1e-15)


def test_free_decay_hand_computed_point():
    state = ef.QubitState(p_e=0.5, s_bar=0.5 + 0.0j)
    out = ef.free_decay(state, gamma=1.0, dt=1.0)
    assert out.s_bar.real == pytest.approx(0.5 * math.exp(-0.5), abs=1e-15)
    assert out.p_e == pytest.approx(0.5 * math.exp(-1.0), abs=1e-15)


def test_pi_pulse_without_damping():
    # gamma=0, theta=pi (excited): after t = pi/rabi the qubit reaches ground
    prep = ef.Preparation(p=0.0, theta=math.pi)
    state = ef.evolve_square_analytic(prep, rabi=2.0, gamma=0.0, t=math.pi / 2.0)
    assert abs(state.s_bar) < 1e-12
    assert state.p_e < 1e-12


# ------------------------------------------------------------- constructions


def test_prepare_initial_components():
    prep = ef.Preparation(p=0.1, theta=1.0)
    state = ef.prepare_initial(prep)
    assert state.p_e == pytest.approx(0.5 - 0.4 * math.cos(1.0))
    assert state.s_bar.real == pytest.approx(0.4 * math.sin(1.0))
    assert state.s_bar.imag == 0.0


@pytest.mark.parametrize("p,theta", [(-0.01, 1.0), (0.51, 1.0), (0.0, -0.1), (0.0, 3.2)])
def test_preparation_rejects_out_of_range(p, theta):
    with pytest.raises(ValueError):
        ef.Preparation(p=p, theta=theta)


def test_qubit_state_rejects_points_outside_ball():
    with pytest.raises(ValueError):
        ef.QubitState(p_e=0.5, s_bar=0.6 + 0.0j)
    with pytest.raises(ValueError):
        ef.QubitState(p_e=1.2, s_bar=0.0j)


@given(preparations)
def test_prepared_states_sit_inside_the_ball(prep):
    state = ef.prepare_initial(prep)
    assert state.bloch_violation <= 1e-15


def test_units_roundtrip():
    u = ef.Units(gamma=2.0e6, omega0=2 * math.pi * 5e9)
    assert u.time_dimensionless(u.time_seconds(3.5)) == pytest.approx(3.5)
    assert u.energy_joules(1.0) == pytest.approx(1.0545718176461565e-34 * 2 * math.pi * 5e9, rel=1e-9)
    assert u.power_watts(1.0) == pytest.approx(1.0545718176461565e-34 * 2 * math.pi * 5e9 * 2.0e6, rel=1e-9)
    with pytest.raises(ValueError):
        ef.Units(gamma=0.0, omega0=1.0)


def test_hbar_is_the_si_value():
    from scipy import constants

    assert HBAR == constants.hbar


# ------------------------------------------------------------------- drives


def test_square_pulse_closed_support():
    d = ef.SquarePulse(amplitude=2.0, duration=3.0)
    assert d.rabi(0.0) == 2.0
    assert d.rabi(3.0) == 2.0
    assert d.rabi(3.0000001) == 0.0
    assert d.support_end() == 3.0
    assert d.charge(gamma=1.0) == pytest.approx(4.0 * 3.0 / 4.0)


def test_exponential_pulse_charge_is_the_budget():
    d = ef.ExponentialPulse(n_bar=1.64, tau=0.5, gamma=1.0)
    assert d.charge(gamma=1.0) == pytest.approx(1.64, rel=1e-12)
    assert d.amplitude == pytest.approx(2.0 * math.sqrt(2.0 * 1.64 / 0.5))
    # numerically integrate rabi^2/(4 gamma) as a cross-check
    t = np.linspace(0.0, d.support_end(), 200001)
    q = np.trapezoid(d.rabi(t) ** 2, t) / 4.0
    assert q == pytest.approx(1.64, rel=1e-6)


def test_tabulated_pulse_charge_matches_quadrature():
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 4.0, 33)
    vals = np.abs(rng.normal(1.0, 0.5, size=33))
    d = ef.TabulatedPulse(times=times, values=vals)
    fine = np.linspace(0.0, 4.0, 400001)
    q = np.trapezoid(d.rabi(fine) ** 2, fine) / 4.0
    assert d.charge(gamma=1.0) == pytest.approx(q, rel=1e-8)
    assert d.rabi(-0.1) == 0.0 and d.rabi(4.1) == 0.0


def test_off_drive_is_null():
    d = ef.OffDrive()
    assert d.rabi(1.23) == 0.0
    assert d.charge() == 0.0
    assert d.photon_rate(0.5) == 0.0


def test_photon_rate_relation():
    d = ef.SquarePulse(amplitude=3.0, duration=1.0)
    assert d.photon_rate(0.5, gamma=2.0) == pytest.approx(9.0 / 8.0)


def test_coupling_schedule_validation_and_gating():
    with pytest.raises(ValueError):
        ef.CouplingSchedule(gamma_off_time=0.0)
    with pytest.raises(ValueError):
        ef.CouplingSchedule(gamma_off_time=-1.0)
    cut = ef.CouplingSchedule(gamma_off_time=2.0)
    assert cut.is_on(2.0) and not cut.is_on(2.0000001)
    assert ef.ALWAYS_ON.is_on(1e9)


# ------------------------------------------------------- numeric integration


def test_dt_guard_rejects_coarse_steps():
    state = ef.prepare_initial(ef.Preparation(p=0.0, theta=1.0))
    drive = ef.SquarePulse(amplitude=30.0, duration=1.0)
    with pytest.raises(ValueError):
        ef.evolve_numeric(state, drive, t_end=1.0, dt=0.01)  # needs 0.01/30


def test_numeric_grid_is_uniform_and_starts_at_zero():
    state = ef.prepare_initial(ef.Preparation(p=0.0, theta=1.0))
    traj = ef.evolve_numeric(state, ef.OffDrive(), t_end=1.0, dt=0.01)
    assert traj.times[0] == 0.0
    assert np.allclose(np.diff(traj.times), traj.times[1] - traj.times[0])
    assert len(traj) == traj.times.size
    st0 = traj.state(0)
    assert st0.p_e == pytest.approx(state.p_e)


def test_coupling_cut_freezes_the_state():
    prep = ef.Preparation(p=0.0, theta=2.0)
    state = ef.prepare_initial(prep)
    cut = ef.CouplingSchedule(gamma_off_time=0.5)
    traj = ef.evolve_numeric(state, ef.OffDrive(), t_end=2.0, dt=0.005, coupling=cut)
    # the step straddling the cut still sees the on-value at its left node,
    # so the state is frozen from the next grid point onward
    k = int(np.searchsorted(traj.times, 0.5)) + 1
    late_p = traj.p_e[k:]
    assert np.allclose(late_p, late_p[0], atol=1e-12)
    early = traj.p_e[traj.times <= 0.5]
    assert early[-1] < early[0]  # it really did decay while coupled


@given(preparations, epsilons)
@settings(max_examples=40)
def test_analytic_matches_numeric_everywhere(prep, eps):
    gamma = 1.0
    rabi = gamma / eps
    t_end = 10.0 / gamma
    dt = min(0.01 / max(gamma, rabi), t_end / 64.0)
    traj = ef.evolve_numeric(
        ef.prepare_initial(prep),
        ef.SquarePulse(amplitude=rabi, duration=t_end),
        t_end=t_end,
        dt=dt,
        gamma=gamma,
    )
    sol = ef.SquarePulseSolution(prep, rabi, gamma)
    assert np.abs(sol.excited_population(traj.times) - traj.p_e).max() <= 1e-7
    assert np.abs(sol.coherence(traj.times) - traj.s_bar.real).max() <= 1e-7


@given(preparations, epsilons)
@settings(max_examples=40)
def test_numeric_preserves_ball_and_reality(prep, eps):
    rabi = 1.0 / eps
    traj = ef.evolve_numeric(
        ef.prepare_initial(prep),
        ef.SquarePulse(amplitude=rabi, duration=5.0),
        t_end=5.0,
        dt=0.01 / max(1.0, rabi),
    )
    ball = traj.s_bar.real**2 + traj.s_bar.imag**2 - traj.p_e * (1.0 - traj.p_e)
    assert ball.max() <= BLOCH_TOL
    assert np.abs(traj.s_bar.imag).max() <= 1e-12


# -------------------------------------------------------- analytic structure


@given(preparations, epsilons)
def test_coefficients_reproduce_initial_conditions(prep, eps):
    gamma, rabi = 1.0, 1.0 / eps
    co = ef.square_pulse_coefficients(prep, rabi, gamma)
    state0 = ef.prepare_initial(prep)
    # value at t=0
    assert co.a + co.c == pytest.approx(state0.s_bar.real, abs=1e-12)
    # slope at t=0 from the equation of motion
    slope = -0.5 * gamma * state0.s_bar.real + rabi * (state0.p_e - 0.5)
    # C'(0) = 0 and S'(0) = 1 for every damping, so b is the transient's initial slope
    got = -0.75 * gamma * co.a + co.b
    assert got == pytest.approx(slope, abs=1e-9 * max(1.0, rabi))


@given(preparations)
@settings(max_examples=30)
def test_solution_branches_meet_at_criticality(prep):
    # straddle the regime boundary narrowly enough that the smooth parameter
    # drift (~0.05 per unit epsilon) stays below the continuity budget
    t = np.linspace(0.0, 10.0, 2001)
    lo = ef.SquarePulseSolution(prep, 1.0 / (4.0 * (1.0 - 1e-6)), 1.0)
    hi = ef.SquarePulseSolution(prep, 1.0 / (4.0 * (1.0 + 1e-6)), 1.0)
    assert np.abs(lo.coherence(t) - hi.coherence(t)).max() < 1e-6
    assert np.abs(lo.excited_population(t) - hi.excited_population(t)).max() < 1e-6


def test_exactly_critical_parameters_use_secular_branch():
    prep = ef.Preparation(p=0.1, theta=2.0)
    co = ef.square_pulse_coefficients(prep, rabi=0.25, gamma=1.0)
    assert co.k == 0.0  # gamma = 4 rabi exactly: C = 1 and S = t
    # and the degenerate solution still matches the integrator
    sol = ef.SquarePulseSolution(prep, 0.25, 1.0)
    traj = ef.evolve_numeric(
        ef.prepare_initial(prep),
        ef.SquarePulse(amplitude=0.25, duration=8.0),
        t_end=8.0,
        dt=0.005,
    )
    assert np.abs(sol.coherence(traj.times) - traj.s_bar.real).max() <= 1e-7
    assert np.abs(sol.excited_population(traj.times) - traj.p_e).max() <= 1e-7


def test_long_overdamped_drive_settles_without_overflow():
    # gamma > 4 rabi: cosh and sinh of sqrt(-k) t alone overflow past t ~ 2800
    rabi = 0.01
    sol = ef.SquarePulseSolution(ef.Preparation(p=0.0, theta=2.0), rabi, 1.0)
    t = np.array([3000.0, 1e5])
    denom = 2.0 * rabi * rabi + 1.0
    assert np.abs(sol.coherence(t) + rabi / denom).max() <= 1e-15
    assert np.abs(sol.excited_population(t) - rabi * rabi / denom).max() <= 1e-15


def test_analytic_solution_starts_at_preparation():
    prep = ef.Preparation(p=0.3, theta=0.7)
    state0 = ef.prepare_initial(prep)
    got = ef.evolve_square_analytic(prep, rabi=1.7, gamma=1.0, t=0.0)
    assert got.p_e == pytest.approx(state0.p_e, abs=1e-12)
    assert got.s_bar.real == pytest.approx(state0.s_bar.real, abs=1e-12)


# ----------------------------------------------------------------- free decay


@given(
    preparations,
    st.floats(min_value=0.01, max_value=3.0),
    st.floats(min_value=0.01, max_value=3.0),
)
def test_free_decay_semigroup(prep, t1, t2):
    x = ef.prepare_initial(prep)
    once = ef.free_decay(ef.free_decay(x, 1.0, t1), 1.0, t2)
    direct = ef.free_decay(x, 1.0, t1 + t2)
    assert once.p_e == pytest.approx(direct.p_e, abs=5e-16, rel=1e-12)
    assert once.s_bar == pytest.approx(direct.s_bar, abs=5e-16, rel=1e-12)


def test_free_decay_trajectory_matches_pointwise():
    state = ef.prepare_initial(ef.Preparation(p=0.0, theta=1.2))
    traj = ef.free_decay_trajectory(state, gamma=1.0, t_end=6.0, num=301)
    expect = np.exp(-0.5 * traj.times) * state.s_bar.real
    assert np.abs(traj.s_bar.real - expect).max() < 1e-14
    assert np.abs(traj.p_e - state.p_e * np.exp(-traj.times)).max() < 1e-14


def test_trajectory_validation():
    with pytest.raises(ValueError):
        ef.Trajectory(
            times=np.array([0.5, 1.0]),
            p_e=np.zeros(2),
            s_bar=np.zeros(2, dtype=complex),
            drive=ef.OffDrive(),
            coupling=ef.ALWAYS_ON,
            gamma=1.0,
        )
