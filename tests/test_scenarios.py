"""Extraction-protocol tests: continuous drive, spontaneous decay, wave packet."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import ergoflux as ef
from ergoflux.scenarios import SCENARIO_ALIASES

preparations = st.builds(
    ef.Preparation,
    p=st.floats(min_value=0.0, max_value=0.5),
    theta=st.floats(min_value=0.0, max_value=math.pi),
)

active_preparations = st.builds(
    ef.Preparation,
    p=st.floats(min_value=0.0, max_value=0.45),
    theta=st.floats(min_value=0.05, max_value=math.pi),
)

rate_ratios = st.floats(min_value=1e-3, max_value=1e4)


# ----------------------------------------------------------- continuous drive


def test_continuous_pi_pulse_limit():
    # huge photon rate: the optimal stop is a pi-pulse and the work approaches
    # the ergotropy with a known first-order damping correction 3*pi*g/(4*O)
    prep = ef.Preparation(p=0.0, theta=math.pi)
    res = ef.scenario_continuous(prep, photon_rate_ratio=1e4)
    rabi = 2.0 * math.sqrt(1e4)
    assert res.tau_opt * rabi == pytest.approx(math.pi, rel=5e-3)
    assert res.work == pytest.approx(1.0 - 0.75 * math.pi / rabi, abs=1e-4)
    assert res.n_interacted == pytest.approx(1e4 * res.tau_opt)


def test_continuous_matches_brute_force_scan():
    from ergoflux.energetics import square_drive_work_fn

    cases = [
        (0.25, 0.0, 2.0),
        (4.0, 0.2, 1.2),
        (0.02, 0.0, math.pi / 2),
        (0.5, 0.3, math.pi),  # the first interior maximum sits between two dipole extrema
    ]
    for ratio, p, theta in cases:
        prep = ef.Preparation(p=p, theta=theta)
        res = ef.scenario_continuous(prep, ratio)
        rabi = 2.0 * math.sqrt(ratio)
        fn = square_drive_work_fn(prep, rabi, 1.0)
        taus = np.linspace(0.0, 20.0, 400001)
        brute = max(fn(t) for t in taus[1:])
        brute = max(brute, 0.0)
        assert res.work == pytest.approx(brute, abs=1e-8)


def test_continuous_is_continuous_across_critical_damping():
    # ratio 1/64 puts the drive at gamma = 4 rabi, where the damping changes kind
    rng = np.random.default_rng(64)
    preps = [
        ef.Preparation(p=float(rng.uniform(0.0, 0.5)), theta=float(rng.uniform(0.0, math.pi)))
        for _ in range(25)
    ]
    deltas = [sign * 10.0**e for e in range(-16, -5) for sign in (1.0, -1.0)]
    for prep in preps:
        ref = ef.scenario_continuous(prep, 1.0 / 64.0)
        for delta in deltas:
            res = ef.scenario_continuous(prep, (1.0 + delta) / 64.0)
            assert res.work <= ef.ergotropy(prep)
            assert abs(res.work - ref.work) <= abs(delta) + 1e-12
            assert abs(res.tau_opt - ref.tau_opt) <= abs(delta) + 1e-10


@given(active_preparations, rate_ratios)
@settings(max_examples=60)
def test_continuous_stop_certificate(prep, ratio):
    # the optimal stop sits on a dipole zero (or at tau=0 for passive states)
    res = ef.scenario_continuous(prep, ratio)
    if res.tau_opt > 0.0:
        rabi = 2.0 * math.sqrt(ratio)
        state = ef.evolve_square_analytic(prep, rabi, 1.0, res.tau_opt)
        assert abs(state.s_bar) <= 1e-6


@given(preparations, rate_ratios)
@settings(max_examples=60)
def test_continuous_work_bounded_by_ergotropy(prep, ratio):
    res = ef.scenario_continuous(prep, ratio)
    assert res.work >= 0.0
    assert res.work <= ef.ergotropy(prep) + 1e-9


def test_continuous_passive_states_extract_nothing():
    for prep in (ef.Preparation(p=0.5, theta=2.0), ef.Preparation(p=0.0, theta=0.0)):
        res = ef.scenario_continuous(prep, 3.0)
        assert res.work == 0.0
        assert res.tau_opt == 0.0
        assert math.isnan(res.eta)


def test_continuous_trace_reproduces_reported_work():
    prep = ef.Preparation(p=0.0, theta=2.4)
    res = ef.scenario_continuous(prep, 1.5, with_trace=True)
    assert res.trace is not None
    assert res.trace.total_work == pytest.approx(res.work, abs=1e-6)
    # coupling is cut at the stop, so no tail is booked
    assert res.trace.work_tail == 0.0


def test_continuous_yield_increases_with_rate():
    prep = ef.Preparation(p=0.0, theta=math.pi / 2)
    etas = [ef.scenario_continuous(prep, r).eta for r in (0.01, 1.0, 100.0, 1e4)]
    assert all(b > a for a, b in zip(etas, etas[1:]))
    assert etas[-1] > 0.98


# --------------------------------------------------------- spontaneous decay


@given(preparations)
def test_spontaneous_work_is_squared_coherence(prep):
    res = ef.scenario_spontaneous(prep)
    expect = (0.5 - prep.p) ** 2 * math.sin(prep.theta) ** 2
    assert res.work == pytest.approx(expect, abs=1e-12)


def test_spontaneous_yield_closed_form():
    for th in (0.3, 1.0, math.pi / 2, 2.5, math.pi):
        res = ef.scenario_spontaneous(ef.Preparation(p=0.0, theta=th))
        assert res.eta == pytest.approx(math.cos(th / 2.0) ** 2, abs=1e-12)


def test_spontaneous_trace_matches_closed_form():
    prep = ef.Preparation(p=0.25, theta=2.0)
    res = ef.scenario_spontaneous(prep, with_trace=True)
    assert res.trace.total_work == pytest.approx(res.work, abs=1e-6)
    assert res.trace.total_heat + res.trace.total_work == pytest.approx(
        ef.mean_energy(ef.prepare_initial(prep)), abs=1e-6
    )


# ------------------------------------------------------------- pulsed charge


def test_pulsed_without_charge_is_spontaneous():
    prep = ef.Preparation(p=0.1, theta=2.2)
    a = ef.scenario_pulsed(prep, n_bar=0.0, tau=1.0)
    b = ef.scenario_spontaneous(prep)
    assert a.work == pytest.approx(b.work, abs=1e-12)


def test_pulsed_work_formula():
    # driven window [0, tau] then free decay: W = W_drive(tau) + s(tau)^2
    prep = ef.Preparation(p=0.0, theta=2.0)
    n_bar, tau = 1.64, 1.0
    rabi = 2.0 * math.sqrt(n_bar / tau)
    res = ef.scenario_pulsed(prep, n_bar, tau)
    s_end = ef.evolve_square_analytic(prep, rabi, 1.0, tau).s_bar.real
    expect = ef.square_drive_work(prep, rabi, 1.0, tau) + s_end**2
    assert res.work == pytest.approx(expect, abs=1e-12)
    assert res.n_interacted == pytest.approx(n_bar)
    assert res.tau_opt == tau


def test_pulsed_long_weak_drive_stays_finite():
    prep = ef.Preparation(p=0.0, theta=2.0)
    res = ef.scenario_pulsed(prep, n_bar=1e-3, tau=5000.0)
    assert math.isfinite(res.work)
    assert 0.0 < res.work <= ef.ergotropy(prep)


def test_pulsed_ground_state_absorbs_energy():
    res = ef.scenario_pulsed(ef.Preparation(p=0.0, theta=0.0), n_bar=10.0, tau=1.0)
    assert res.work < 0.0


def test_pulsed_trace_splices_the_pulse_edge():
    prep = ef.Preparation(p=0.0, theta=2.356)
    res = ef.scenario_pulsed(prep, n_bar=1.64, tau=1.0, with_trace=True)
    tr = res.trace
    assert tr.total_work == pytest.approx(res.work, abs=1e-6)
    # the grid contains the pulse edge exactly once and flux drops there
    k = np.searchsorted(tr.times, 1.0)
    assert tr.times[k] == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(np.isclose(tr.times, 1.0)) == 1


@given(
    st.floats(min_value=1e-3, max_value=100.0),
    st.floats(min_value=0.05, max_value=5.0),
    active_preparations,
)
@settings(max_examples=40)
def test_pulsed_work_bounded_by_ergotropy(n_bar, tau, prep):
    res = ef.scenario_pulsed(prep, n_bar, tau)
    assert res.work <= ef.ergotropy(prep) + 1e-9


def test_scenario_result_rejects_bound_violation():
    prep = ef.Preparation(p=0.0, theta=math.pi / 2)
    # a breach can only come from the numerics, so it is not a validation error
    with pytest.raises(ef.IntegrationAccuracyError):
        ef.ScenarioResult(prep=prep, work=0.9, eta=1.8)


# -------------------------------------------------------------------- sweeps


def test_aliases_cover_roman_numerals():
    assert SCENARIO_ALIASES == {"i": "continuous", "ii": "spontaneous", "iii": "pulsed"}


def _small_grid():
    return ef.SweepGrid(
        scenario="pulsed",
        axis1=ef.SweepAxis(name="theta", values=np.linspace(0.0, math.pi, 5)),
        axis2=ef.SweepAxis(name="nbar", values=np.logspace(-1, 1, 4)),
        fixed={"tau": 1.0},
    )


def test_sweep_shapes_and_values():
    grid = _small_grid()
    out = ef.sweep(grid, parallel=False)
    assert out.work.shape == (5, 4)
    assert not out.flag.any()
    # spot-check one cell against the scalar API
    res = ef.scenario_pulsed(ef.Preparation(p=0.0, theta=grid.axis1.values[2]), grid.axis2.values[1], 1.0)
    assert out.work[2, 1] == pytest.approx(res.work, abs=1e-12)
    # eta is nan on the passive theta=0 row
    assert np.isnan(out.eta[0, :]).all()


def test_sweep_accepts_roman_alias_and_fixed_p():
    grid = ef.SweepGrid(
        scenario="ii",
        axis1=ef.SweepAxis(name="theta", values=np.linspace(0.1, 3.0, 4)),
        axis2=ef.SweepAxis(name="p", values=np.array([0.0, 0.25])),
    )
    out = ef.sweep(grid, parallel=False)
    expect = (0.5 - 0.25) ** 2 * math.sin(grid.axis1.values[1]) ** 2
    assert out.work[1, 1] == pytest.approx(expect, abs=1e-12)


def test_sweep_flags_failing_cells():
    grid = ef.SweepGrid(
        scenario="pulsed",
        axis1=ef.SweepAxis(name="tau", values=np.array([0.0, 1.0])),
        axis2=ef.SweepAxis(name="nbar", values=np.array([0.5, 1.0])),
        fixed={"theta": 2.0},
    )
    out = ef.sweep(grid, parallel=False)
    assert out.flag[0, :].all()  # tau = 0 cannot carry a finite charge
    assert np.isnan(out.work[0, :]).all()
    assert not out.flag[1, :].any()


def test_sweep_parallel_path_matches_serial():
    grid = _small_grid()
    serial = ef.sweep(grid, parallel=False)
    parallel = ef.sweep(grid, parallel=True)
    assert np.array_equal(serial.work, parallel.work, equal_nan=True)
    assert np.array_equal(serial.tau_opt, parallel.tau_opt, equal_nan=True)


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        ef.SweepAxis(name="theta", values=np.array([1.0]))  # too short
    with pytest.raises(ValueError):
        ef.SweepGrid(
            scenario="continuous",
            axis1=ef.SweepAxis(name="bogus", values=np.linspace(0, 1, 3)),
            axis2=ef.SweepAxis(name="theta", values=np.linspace(0, 1, 3)),
        )
    with pytest.raises(ValueError):
        ef.SweepGrid(
            scenario="nope",
            axis1=ef.SweepAxis(name="theta", values=np.linspace(0, 1, 3)),
            axis2=ef.SweepAxis(name="p", values=np.linspace(0, 0.5, 3)),
        )
    with pytest.raises(ValueError):  # same name on both axes
        ef.SweepGrid(
            scenario="spontaneous",
            axis1=ef.SweepAxis(name="theta", values=np.linspace(0, 1, 3)),
            axis2=ef.SweepAxis(name="theta", values=np.linspace(0, 1, 3)),
        )
    # a required parameter left unset, on neither axis nor fixed
    for scenario, names, fixed in [
        ("continuous", ("theta", "p"), {}),  # no ndot
        ("continuous", ("ndot", "p"), {}),  # no theta
        ("spontaneous", ("p", "tau"), {}),  # no theta
        ("pulsed", ("theta", "nbar"), {}),  # no tau
        ("pulsed", ("theta", "p"), {"tau": 1.0}),  # no nbar
    ]:
        axes = [ef.SweepAxis(name=n, values=np.linspace(0.1, 0.4, 3)) for n in names]
        with pytest.raises(ValueError):
            ef.SweepGrid(scenario=scenario, axis1=axes[0], axis2=axes[1], fixed=fixed)
