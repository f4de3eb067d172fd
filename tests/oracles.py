"""Reference functions that only the tests call.

Each is an exact or independent value the tests hold the package's
solvers against; none is part of the package's API.
"""
import math

import numpy as np

import ergoflux as ef
from ergoflux.dynamics import _check_span, _clamped_samples, _square_states


def evolve_square_analytic(prep: ef.Preparation, rabi: float, gamma: float, t: float) -> ef.QubitState:
    """State at time ``t`` under a constant drive switched on at t = 0.

    The closed form of `ergoflux.analytic_square_trajectory` at one time,
    clamped into the Bloch ball.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    p, s = _clamped_samples(*_square_states(prep, rabi, gamma, float(t)))
    return ef.QubitState(p_e=float(p), s_bar=float(s))


def free_decay_trajectory(state0: ef.QubitState, gamma: float, t_end: float, num: int) -> ef.Trajectory:
    """Undriven decay sampled exactly on a uniform grid."""
    _check_span(t_end, gamma)
    if num < 2:
        raise ValueError("num must be at least 2")
    times = np.linspace(0.0, t_end, num)
    p = state0.p_e * np.exp(-gamma * times)
    s = state0.s_bar * np.exp(-0.5 * gamma * times)
    return ef.Trajectory(times=times, p_e=p, s_bar=s, drive=ef.OffDrive(), gamma=gamma)


# samples of `pulse_distance`
_DISTANCE_SAMPLES = 4001


def pulse_distance(drive_a, drive_b) -> float:
    """Relative L2 distance between two waveforms (normalized by the second).

    Both are sampled at `_DISTANCE_SAMPLES` points from 0 to the larger of
    their two `support_end` times.
    """
    t_end = max(drive_a.support_end(), drive_b.support_end())
    t = np.linspace(0.0, t_end, _DISTANCE_SAMPLES)
    a = np.asarray(drive_a.rabi(t), dtype=float)
    b = np.asarray(drive_b.rabi(t), dtype=float)
    num2 = float(np.sum((a - b) ** 2))
    den2 = float(np.sum(b * b))
    if den2 == 0.0:
        return math.inf if num2 > 0.0 else 0.0
    return math.sqrt(num2 / den2)
