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
from ergoflux.dynamics import BLOCH_TOL, _rhs
from oracles import evolve_square_analytic, free_decay_trajectory

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
    # dp = -g*p - O*s = -1/2 - 1/2 = -1 ; ds = -g/2*s + O*(p-1/2) = -1/4
    dp, ds = _rhs(0.5, 0.5, rabi=1.0, gamma=1.0)
    assert dp == pytest.approx(-1.0, abs=1e-15)
    assert ds == pytest.approx(-0.25, abs=1e-15)


def test_steady_coherence_at_equal_rates():
    # C = -g*O/(2O^2+g^2) = -1/3 when gamma == rabi
    prep = ef.Preparation(p=0.0, theta=math.pi / 2)
    co = ef.square_pulse_coefficients(prep, rabi=1.0, gamma=1.0)
    assert co.c == pytest.approx(-1.0 / 3.0, abs=1e-15)


def _free_decay(state, gamma, dt):
    """The end state of an exact free decay over ``dt``."""
    return free_decay_trajectory(state, gamma, t_end=dt, num=2).state(-1)


def test_free_decay_hand_computed_point():
    state = ef.QubitState(p_e=0.5, s_bar=0.5)
    out = _free_decay(state, gamma=1.0, dt=1.0)
    assert out.s_bar == pytest.approx(0.5 * math.exp(-0.5), abs=1e-15)
    assert out.p_e == pytest.approx(0.5 * math.exp(-1.0), abs=1e-15)


def test_pi_pulse_without_damping():
    # gamma=0, theta=pi (excited): after t = pi/rabi the qubit reaches ground
    prep = ef.Preparation(p=0.0, theta=math.pi)
    state = evolve_square_analytic(prep, rabi=2.0, gamma=0.0, t=math.pi / 2.0)
    assert abs(state.s_bar) < 1e-12
    assert state.p_e < 1e-12


# ------------------------------------------------------------- constructions


def test_prepare_initial_components():
    prep = ef.Preparation(p=0.1, theta=1.0)
    state = ef.prepare_initial(prep)
    assert state.p_e == pytest.approx(0.5 - 0.4 * math.cos(1.0))
    assert state.s_bar == pytest.approx(0.4 * math.sin(1.0))
    assert type(state.s_bar) is float


@pytest.mark.parametrize("p,theta", [(-0.01, 1.0), (0.51, 1.0), (0.0, -0.1), (0.0, 3.2)])
def test_preparation_rejects_out_of_range(p, theta):
    with pytest.raises(ValueError):
        ef.Preparation(p=p, theta=theta)


def test_qubit_state_rejects_points_outside_ball():
    with pytest.raises(ValueError):
        ef.QubitState(p_e=0.5, s_bar=0.6)
    with pytest.raises(ValueError):
        ef.QubitState(p_e=1.2, s_bar=0.0)


def test_qubit_state_dipole_is_real():
    assert type(ef.QubitState(p_e=0.5, s_bar=np.float64(0.25)).s_bar) is float
    with pytest.raises(TypeError, match="complex"):
        ef.QubitState(p_e=0.5, s_bar=0.1 + 0.2j)


@given(preparations)
def test_prepared_states_sit_inside_the_ball(prep):
    state = ef.prepare_initial(prep)
    assert state.bloch_violation <= 1e-15


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


@pytest.mark.parametrize(
    "drive, args, name",
    [
        ("SquarePulse", (math.nan, 1.0), "amplitude"),
        ("SquarePulse", (1.0, math.inf), "duration"),
        ("ExponentialPulse", (math.nan, 1.0), "n_bar"),
        ("ExponentialPulse", (1.0, math.nan), "tau"),
        ("ExponentialPulse", (1.0, 1.0, math.inf), "gamma"),
        ("TabulatedPulse", ([0.0, 1.0], [math.nan, 1.0]), "values"),
        ("TabulatedPulse", ([0.0, math.inf], [1.0, 1.0]), "times"),
    ],
)
def test_drives_reject_non_finite_input_by_name(drive, args, name):
    # a NaN drive would otherwise fail later, inside the integrator, as a numerical failure
    with pytest.raises(ValueError, match=f"^{name} must be"):
        getattr(ef, drive)(*args)


def test_exponential_pulse_rejects_an_amplitude_past_the_float_range():
    # finite n_bar and tau whose amplitude 2 sqrt(2 gamma n_bar / tau) overflows
    with pytest.raises(ValueError, match="^n_bar 1e[+]300 in tau 1e-300 needs an amplitude"):
        ef.ExponentialPulse(1e300, 1e-300)


def test_off_drive_is_null():
    d = ef.OffDrive()
    assert d.rabi(1.23) == 0.0
    assert d.charge() == 0.0
    assert d.photon_rate(0.5) == 0.0


def test_photon_rate_relation():
    d = ef.SquarePulse(amplitude=3.0, duration=1.0)
    assert d.photon_rate(0.5, gamma=2.0) == pytest.approx(9.0 / 8.0)
    # gamma -> 0: infinite where the drive is on, zero where it is off
    assert d.photon_rate(0.5, gamma=0.0) == math.inf
    assert d.photon_rate(2.0, gamma=0.0) == 0.0
    assert ef.OffDrive().photon_rate(np.linspace(0.0, 1.0, 3), gamma=0.0).tolist() == [0.0] * 3


# ------------------------------------------------------- numeric integration


_STATE = ef.QubitState(p_e=0.5, s_bar=0.3)


def _evolve(t_end=1.0, gamma=1.0, dt=0.001):
    return ef.evolve_numeric(_STATE, ef.OffDrive(), t_end=t_end, dt=dt, gamma=gamma)


def _decay(t_end=1.0, gamma=1.0):
    return free_decay_trajectory(_STATE, gamma=gamma, t_end=t_end, num=11)


def _square(t_end=1.0, gamma=1.0):
    return ef.analytic_square_trajectory(ef.Preparation(p=0.0, theta=1.0), 1.0, gamma, t_end, 11)


@pytest.mark.parametrize(
    "build", [_evolve, _decay, _square], ids=["evolve", "free_decay", "analytic_square"]
)
@pytest.mark.parametrize(
    "name, value",
    [
        ("t_end", math.inf),
        ("t_end", math.nan),
        ("gamma", math.nan),
        ("gamma", math.inf),
        ("gamma", -1.0),
    ],
)
def test_trajectory_builders_reject_bad_spans_and_rates(build, name, value):
    with pytest.raises(ValueError, match=f"{name} must be"):
        build(**{name: value})


@pytest.mark.parametrize("dt", [math.inf, math.nan])
def test_evolve_numeric_rejects_non_finite_step(dt):
    with pytest.raises(ValueError, match="dt must be"):
        _evolve(dt=dt)


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
    ana = ef.analytic_square_trajectory(prep, rabi, gamma, t_end, len(traj.times))
    assert np.abs(ana.p_e - traj.p_e).max() <= 1e-7
    assert np.abs(ana.s_bar - traj.s_bar).max() <= 1e-7


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
    ball = traj.s_bar**2 - traj.p_e * (1.0 - traj.p_e)
    assert ball.max() <= BLOCH_TOL
    assert traj.s_bar.dtype == np.float64


# -------------------------------------------------------- analytic structure


@given(preparations, epsilons)
def test_coefficients_reproduce_initial_conditions(prep, eps):
    gamma, rabi = 1.0, 1.0 / eps
    co = ef.square_pulse_coefficients(prep, rabi, gamma)
    state0 = ef.prepare_initial(prep)
    # value at t=0
    assert co.a + co.c == pytest.approx(state0.s_bar, abs=1e-12)
    # slope at t=0 from the equation of motion
    slope = -0.5 * gamma * state0.s_bar + rabi * (state0.p_e - 0.5)
    # C'(0) = 0 and S'(0) = 1 for every damping, so b is the transient's initial slope
    got = -0.75 * gamma * co.a + co.b
    assert got == pytest.approx(slope, abs=1e-9 * max(1.0, rabi))


@given(preparations)
@settings(max_examples=30)
def test_solution_branches_meet_at_criticality(prep):
    # straddle the regime boundary narrowly enough that the smooth parameter
    # drift (~0.05 per unit epsilon) stays below the continuity budget
    lo = ef.analytic_square_trajectory(prep, 1.0 / (4.0 * (1.0 - 1e-6)), 1.0, 10.0, 2001)
    hi = ef.analytic_square_trajectory(prep, 1.0 / (4.0 * (1.0 + 1e-6)), 1.0, 10.0, 2001)
    assert np.abs(lo.s_bar - hi.s_bar).max() < 1e-6
    assert np.abs(lo.p_e - hi.p_e).max() < 1e-6


def test_exactly_critical_parameters_use_secular_branch():
    prep = ef.Preparation(p=0.1, theta=2.0)
    co = ef.square_pulse_coefficients(prep, rabi=0.25, gamma=1.0)
    assert co.k == 0.0  # gamma = 4 rabi exactly: C = 1 and S = t
    # and the degenerate solution still matches the integrator
    traj = ef.evolve_numeric(
        ef.prepare_initial(prep),
        ef.SquarePulse(amplitude=0.25, duration=8.0),
        t_end=8.0,
        dt=0.005,
    )
    ana = ef.analytic_square_trajectory(prep, 0.25, 1.0, 8.0, len(traj.times))
    assert np.abs(ana.s_bar - traj.s_bar).max() <= 1e-7
    assert np.abs(ana.p_e - traj.p_e).max() <= 1e-7


def test_long_overdamped_drive_settles_without_overflow():
    # gamma > 4 rabi: cosh and sinh of sqrt(-k) t alone overflow past t ~ 2800
    rabi = 0.01
    denom = 2.0 * rabi * rabi + 1.0
    for t in (3000.0, 1e5):
        state = evolve_square_analytic(ef.Preparation(p=0.0, theta=2.0), rabi, 1.0, t)
        assert abs(state.s_bar + rabi / denom) <= 1e-15
        assert abs(state.p_e - rabi * rabi / denom) <= 1e-15


def test_analytic_solution_starts_at_preparation():
    prep = ef.Preparation(p=0.3, theta=0.7)
    state0 = ef.prepare_initial(prep)
    got = evolve_square_analytic(prep, rabi=1.7, gamma=1.0, t=0.0)
    assert got.p_e == pytest.approx(state0.p_e, abs=1e-12)
    assert got.s_bar == pytest.approx(state0.s_bar, abs=1e-12)


# ----------------------------------------------------------------- free decay


@given(
    preparations,
    st.floats(min_value=0.01, max_value=3.0),
    st.floats(min_value=0.01, max_value=3.0),
)
def test_free_decay_semigroup(prep, t1, t2):
    x = ef.prepare_initial(prep)
    once = _free_decay(_free_decay(x, 1.0, t1), 1.0, t2)
    direct = _free_decay(x, 1.0, t1 + t2)
    assert once.p_e == pytest.approx(direct.p_e, abs=5e-16, rel=1e-12)
    assert once.s_bar == pytest.approx(direct.s_bar, abs=5e-16, rel=1e-12)


def test_free_decay_trajectory_matches_pointwise():
    state = ef.prepare_initial(ef.Preparation(p=0.0, theta=1.2))
    traj = free_decay_trajectory(state, gamma=1.0, t_end=6.0, num=301)
    expect = np.exp(-0.5 * traj.times) * state.s_bar
    assert np.abs(traj.s_bar - expect).max() < 1e-14
    assert np.abs(traj.p_e - state.p_e * np.exp(-traj.times)).max() < 1e-14


def test_trajectory_validation():
    with pytest.raises(ValueError):
        ef.Trajectory(
            times=np.array([0.5, 1.0]),
            p_e=np.zeros(2),
            s_bar=np.zeros(2),
            drive=ef.OffDrive(),
            gamma=1.0,
        )
