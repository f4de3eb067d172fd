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
        ef.TabulatedPulse(times=[0.0, 4.0], values=[rabi, rabi]),
        t_end=4.0,
        dt=0.002,
    )
    tr = ef.accumulate(traj)
    # work and heat flux sum to the net emission gamma p_e + rabi s
    assert np.allclose(tr.work_flux + tr.heat_flux, traj.p_e + rabi * traj.s_bar, atol=1e-12)
    assert tr.heat_flux.min() >= -1e-12


def test_first_law_residual_guard_trips_on_corrupted_population():
    prep = ef.Preparation(p=0.0, theta=2.0)
    traj = ef.evolve_numeric(
        ef.prepare_initial(prep),
        ef.TabulatedPulse(times=[0.0, 3.0], values=[1.0, 1.0]),
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


def test_accumulated_work_matches_closed_form():
    prep = ef.Preparation(p=0.1, theta=1.8)
    rabi, gamma, tau = 1.3, 1.0, 4.0
    traj = ef.analytic_square_trajectory(prep, rabi, gamma, t_end=tau, num=40001)
    tr = ef.accumulate(traj)
    assert tr.work[-1] == pytest.approx(ef.square_drive_work(prep, rabi, gamma, tau), abs=2e-8)


@pytest.mark.parametrize(
    "args, name",
    [
        ((math.nan, 1.0, 1.0), "rabi_peak"),
        ((math.inf, 1.0, 1.0), "rabi_peak"),
        ((-1.0, 1.0, 1.0), "rabi_peak"),
        ((1.0, math.nan, 1.0), "gamma"),
        ((1.0, math.inf, 1.0), "gamma"),
        ((1.0, -1.0, 1.0), "gamma"),
        ((1.0, 1.0, math.nan), "window"),
        ((1.0, 1.0, math.inf), "window"),
        ((1.0, 1.0, -2.0), "window"),
        ((1.0, 1.0, 0.0), "window"),
    ],
)
def test_suggested_grid_step_rejects_bad_input_by_name(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        ef.suggested_grid_step(*args)


def test_suggested_grid_step_is_the_rk4_bound_at_its_extremes():
    # the RK4 bound 0.01 / hypot(rabi, gamma), capped at the window
    assert ef.suggested_grid_step(3.0, 4.0, 10.0) == 0.01 / 5.0
    assert ef.suggested_grid_step(0.0, 2.0, 10.0) == 0.005  # rabi -> 0
    assert ef.suggested_grid_step(1e-300, 2.0, 10.0) == 0.005
    assert ef.suggested_grid_step(0.0, 2.0, 1e-3) == 1e-3
    assert ef.suggested_grid_step(4.0, 1e-300, 10.0) == 0.0025  # gamma -> 0
    # a very strong drive: the step passes evolve_numeric's own check
    rabi, t_end = 1e4, 2e-3
    state = ef.prepare_initial(ef.Preparation(p=0.0, theta=2.0))
    for gamma in (1.0, 0.5):
        h = ef.suggested_grid_step(rabi, gamma, t_end)
        assert h == pytest.approx(1e-6, rel=1e-8)
        drive = ef.TabulatedPulse(times=[0.0, t_end], values=[rabi, rabi])
        traj = ef.evolve_numeric(state, drive, t_end=t_end, dt=h, gamma=gamma)
        assert np.diff(traj.times).max() <= h * (1.0 + 1e-9)
        assert ef.accumulate(traj).residual <= RESIDUAL_TOL


def _fourth_order_ratio(errors):
    """Ratios of successive errors as the step halves; 16 for a fourth-order rule."""
    return [a / b for a, b in zip(errors, errors[1:])]


def test_ledger_work_is_fourth_order_on_a_square_drive():
    # exact samples, so the ledger's quadrature is the only error
    prep = ef.Preparation(p=0.1, theta=1.8)
    rabi, tau = 3.0, 3.0
    exact = ef.square_drive_work(prep, rabi, 1.0, tau)
    errors = [
        abs(ef.accumulate(ef.analytic_square_trajectory(prep, rabi, 1.0, t_end=tau, num=n + 1)).work[-1] - exact)
        for n in (100, 200, 400)
    ]
    assert errors[0] > 1e-8
    for ratio in _fourth_order_ratio(errors):
        assert ratio == pytest.approx(16.0, rel=0.05)


# a zigzag with nodes at multiples of 0.05, which a grid of 0.00125 steps meets only up to rounding
_ZIGZAG = ef.TabulatedPulse(times=np.linspace(0.0, 2.0, 41), values=np.resize([0.0, 8.0], 41))


@pytest.mark.parametrize(
    "drive, t_end, dt",
    [
        (ef.ExponentialPulse(n_bar=1.0, tau=0.5), 3.0, ef.suggested_grid_step(4.0, 1.0, 3.0)),
        (_ZIGZAG, 2.0, 0.00125),  # grid nodes on the table's nodes: kinks fall on nodes
    ],
    ids=["exponential", "tabulated on nodes"],
)
def test_first_law_residual_is_fourth_order(drive, t_end, dt):
    # RK4 and the endpoint-corrected ledger are both fourth order; slopes
    # one-sided at the table's kinks keep them so when the kinks fall on nodes
    state = ef.prepare_initial(ef.Preparation(p=0.0, theta=2.0))
    residuals = [
        ef.accumulate(ef.evolve_numeric(state, drive, t_end=t_end, dt=dt / k)).residual for k in (1, 2)
    ]
    assert residuals[0] > 1e-12
    assert _fourth_order_ratio(residuals)[0] == pytest.approx(16.0, rel=0.1)


def test_first_law_holds_on_a_tabulated_drive_off_its_nodes():
    # a shaper-like waveform on 200 nodes, kinked at every node, at a
    # suggested step that does not divide the table's intervals: the grid
    # runs through every node anyway, so no kink falls inside a step, where
    # it would cost O(h^2).  Measured 2.9e-11
    times = np.linspace(0.0, 8.0, 200)
    controls = ef.project_to_budget(4.0 * np.exp(-times / 0.2), times, n_bar=1.64)
    pulse = ef.TabulatedPulse(times=times, values=controls)
    state = ef.prepare_initial(ef.Preparation(p=0.0, theta=0.75 * math.pi))
    dt = ef.suggested_grid_step(float(controls.max()), 1.0, 8.0)
    traj = ef.evolve_numeric(state, pulse, t_end=8.0, dt=dt)
    assert np.isin(times, traj.times).all()
    assert np.diff(traj.times).max() <= dt
    assert ef.accumulate(traj).residual <= 1e-9


def test_first_law_holds_on_random_kinked_tables():
    # 100 continuous tables, kinks anywhere in [0, 3], run to 4 at the
    # suggested step; a kink inside a step would cost O(h^2), past
    # RESIDUAL_TOL on 5 of them.  Measured 6.2e-11
    rng = np.random.default_rng(0)
    state = ef.prepare_initial(ef.Preparation(p=0.1, theta=2.0))
    worst = 0.0
    for _ in range(100):
        times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 3.0, 3)), [3.0]))
        values = rng.uniform(0.0, 25.0, 5)
        values[-1] = 0.0
        dt = ef.suggested_grid_step(float(values.max()), 1.0, 4.0)
        traj = ef.evolve_numeric(state, ef.TabulatedPulse(times=times, values=values), t_end=4.0, dt=dt)
        worst = max(worst, ef.accumulate(traj, check_residual=False).residual)
    assert worst <= RESIDUAL_TOL


# --------------------------------------------------------------- work channels


def test_split_sums_to_total_work():
    prep = ef.Preparation(p=0.0, theta=math.pi / 2)
    traj = ef.evolve_numeric(
        ef.prepare_initial(prep),
        ef.TabulatedPulse(times=[0.0, 1.0], values=[1.0, 1.0]),
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
