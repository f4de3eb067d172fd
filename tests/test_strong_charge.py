"""The strong-charge edge (n_bar -> infinity) of the pulsed protocol as an oracle.

From the excited state (theta = pi, p = 0, ergotropy 1), a square pi-pulse
of charge n_bar = rabi^2 tau / (4 gamma) has rabi = 4 gamma n_bar / pi and
tau = pi / rabi.  To first order in gamma / rabi it radiates
3 pi gamma / (4 rabi) as heat, so W = 1 - 3 pi^2 / (16 n_bar) + O(1 / n_bar^2):
the bound W <= ergotropy is saturated for a large enough charge.

The same first-order functional has an optimum (README, "Strong-charge
oracle"): from a pure state at theta, the Lorentzian
rabi(t) = c / (1 + (tan(a/2) + c t/2)^2), a = pi - theta,
c = 8 gamma n_bar / (theta - sin theta), leaves the deficit
n_bar (ergotropy - W) -> (theta - sin theta)^2 / 8, and the area-pi
exponential (tau = pi^2 / (8 gamma n_bar)) leaves 1.28165.
"""
import math
import tracemalloc

import numpy as np
import pytest

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


def _deficit(prep, pulse, peak, n_bar):
    """n_bar (ergotropy - W) of a drive, through `evolve_numeric` and `accumulate`.

    The step is 0.002 / peak: halving it moves the deficit by less than 2e-4.
    """
    traj = ef.evolve_numeric(ef.prepare_initial(prep), pulse, t_end=pulse.support_end(), dt=0.002 / peak)
    return n_bar * (ef.ergotropy(prep) - ef.accumulate(traj).total_work)


def _lorentzian(theta, n_bar, nodes=2001):
    """The first-order optimal drive from theta at gamma = 1, tabulated; and its peak.

    Its rotation angle is 2 arctan(tan(a/2) + c t/2) - a.  The nodes are
    uniform in that angle, and the table stops where the rotation left is
    1e-2; the values are then rescaled onto the charge n_bar.
    """
    a = math.pi - theta
    c = 8.0 * n_bar / (theta - math.sin(theta))
    x0, x1 = math.tan(0.5 * a), 1.0 / math.tan(0.5e-2)
    x = np.tan(np.linspace(math.atan(x0), math.atan(x1), nodes))
    times, values = 2.0 * (x - x0) / c, c / (1.0 + x * x)
    scale = math.sqrt(n_bar / ef.TabulatedPulse(times, values).charge())
    return ef.TabulatedPulse(times, scale * values), scale * c


@pytest.mark.parametrize("theta, n_bar", [(math.pi, 80.0), (math.pi, 320.0), (2.0, 320.0)])
def test_lorentzian_deficit_matches_first_order_prediction(theta, n_bar):
    # measured 1.22870, 1.23273 (pi^2 / 8 = 1.23370) and 0.14855 ((2 - sin 2)^2 / 8 = 0.14870)
    prep = ef.Preparation(p=0.0, theta=theta)
    deficit = _deficit(prep, *_lorentzian(theta, n_bar), n_bar)
    assert abs(deficit - (theta - math.sin(theta)) ** 2 / 8.0) <= 1.0 / n_bar, deficit


@pytest.mark.parametrize("n_bar", [80.0, 320.0])
def test_area_pi_exponential_deficit_matches_first_order_prediction(n_bar):
    # n_bar (1 - W) -> (pi^2 / 4) int_0^1 sin^4(pi u / 2) / u du = 1.28165;
    # measured 1.27572 and 1.28020
    pulse = ef.ExponentialPulse(n_bar=n_bar, tau=math.pi**2 / (8.0 * n_bar))
    assert abs(_deficit(EXCITED, pulse, pulse.amplitude, n_bar) - 1.28165) <= 1.0 / n_bar


def test_shaped_pulse_beats_the_pi_pulse_and_the_exponential():
    # W = 0.7846 against 0.6680 and 0.7837 at n_bar = 5, 0.9397 against 0.9098 and 0.9390 at 20
    for n_bar in (5.0, 20.0):
        sol = ef.solve_optimal_control(ef.ControlProblem(prep=EXCITED, n_bar=n_bar), n_starts=1)
        assert sol.converged, (n_bar, sol.message)
        assert sol.work <= ef.ergotropy(EXCITED), n_bar
        assert sol.work >= _pi_pulse_work(n_bar), n_bar
        assert sol.work >= ef.optimize_exponential_tau(EXCITED, n_bar).work, n_bar


def test_solve_memory_stays_bounded_at_strong_charge():
    # the ansatz scan, the largest part at strong charge, runs its 25 drives
    # one at a time, so the solve holds one drive's arrays (11.4 MB measured)
    import scipy.linalg.lapack  # noqa: F401  the solver's lazy imports, outside the measurement
    import scipy.optimize  # noqa: F401

    problem = ef.ControlProblem(prep=EXCITED, n_bar=1280.0)
    tracemalloc.start()
    try:
        ef.solve_optimal_control(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20_000_000
