"""The strong-charge edge (n_bar -> infinity) of the pulsed protocol as an oracle.

From the excited state (theta = pi, p = 0, ergotropy 1), a square pi-pulse
of charge n_bar = rabi^2 tau / (4 gamma) has rabi = 4 gamma n_bar / pi and
tau = pi / rabi.  To first order in gamma / rabi it radiates
3 pi gamma / (4 rabi) as heat, so W = 1 - 3 pi^2 / (16 n_bar) + O(1 / n_bar^2):
the bound W <= ergotropy is saturated for a large enough charge.
"""
import math

import ergoflux as ef

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
    n_bar = 5.0
    sol = ef.solve_optimal_control(ef.ControlProblem(prep=EXCITED, n_bar=n_bar), n_starts=1)
    assert sol.converged, sol.message
    assert sol.work <= ef.ergotropy(EXCITED)
    assert sol.work >= _pi_pulse_work(n_bar)  # 0.7846 against 0.6680
    assert sol.work >= ef.optimize_exponential_tau(EXCITED, n_bar).work
