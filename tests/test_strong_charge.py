"""The strong-charge edge (n_bar -> infinity) of the pulsed protocol as an oracle.

From the excited state (theta = pi, p = 0, ergotropy 1), a square pi-pulse
of charge n_bar = rabi^2 tau / (4 gamma) has rabi = 4 gamma n_bar / pi and
tau = pi / rabi.  To first order in gamma / rabi it radiates
3 pi gamma / (4 rabi) as heat, so W = 1 - 3 pi^2 / (16 n_bar) + O(1 / n_bar^2):
the bound W <= ergotropy is saturated for a large enough charge.
"""
import math
import tracemalloc

import ergoflux as ef
from ergoflux.optimizer import _scan_exponential_tau, _strict_work

EXCITED = ef.Preparation(p=0.0, theta=math.pi)
STRONG = (80.0, 320.0, 1280.0, 5120.0)


def _pi_pulse_work(n_bar):
    rabi = 4.0 * n_bar / math.pi
    return ef.scenario_pulsed(EXCITED, n_bar, math.pi / rabi).work


def test_pi_pulse_deficit_matches_first_order_prediction():
    works = [_pi_pulse_work(n_bar) for n_bar in STRONG]
    assert all(w <= ef.ergotropy(EXCITED) for w in works)
    assert works == sorted(works)
    for n_bar, w in zip(STRONG, works):
        # the next order measures about 0.9 / n_bar
        assert abs(n_bar * (1.0 - w) - 3.0 * math.pi**2 / 16.0) <= 1.0 / n_bar, (n_bar, w)


def test_shaped_pulse_beats_the_pi_pulse_and_the_exponential():
    # W = 0.7846 against 0.6680 and 0.7837 at n_bar = 5, 0.9397 against 0.9098 and 0.9390 at 20
    for n_bar in (5.0, 20.0):
        sol = ef.solve_optimal_control(ef.ControlProblem(prep=EXCITED, n_bar=n_bar), n_starts=1)
        assert sol.converged, (n_bar, sol.message)
        assert sol.work <= ef.ergotropy(EXCITED), n_bar
        assert sol.work >= _pi_pulse_work(n_bar), n_bar
        assert sol.work >= ef.optimize_exponential_tau(EXCITED, n_bar).work, n_bar


def test_strict_work_memory_stays_bounded_at_strong_charge():
    # the n_bar = 20 ansatz peaks at 55: one step over the whole horizon at
    # that peak would take 2.5 M RK4 steps, the per-interval steps take 49 k
    n_bar = 20.0
    times = ef.control_times(10.0, 400)
    tau = _scan_exponential_tau(EXCITED, n_bar, 1.0)[0]
    controls = ef.project_to_budget(ef.ExponentialPulse(n_bar=n_bar, tau=tau).rabi(times), times, n_bar)
    pulse = ef.TabulatedPulse(times=times, values=controls)
    tracemalloc.start()
    try:
        work = _strict_work(pulse, EXCITED, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20_000_000
    assert abs(work - ef.control_work(controls, times, EXCITED, n_sub=512)) <= 5e-8
