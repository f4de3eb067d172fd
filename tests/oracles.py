"""Reference functions that only the tests call.

Each is an exact or independent value the tests hold the package's
solvers against; none is part of the package's API.
"""
import math

import numpy as np
from scipy.linalg import expm

import ergoflux as ef
from ergoflux.dynamics import _check_params, _clamped_samples, _square_states


def evolve_square_analytic(prep: ef.Preparation, rabi: float, gamma: float, t: float) -> ef.QubitState:
    """State at time ``t`` under a constant drive switched on at t = 0.

    The closed form of `ergoflux.analytic_square_trajectory` at one time,
    clamped into the Bloch ball.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    p, s = _clamped_samples(*_square_states(prep, rabi, gamma, float(t)))
    return ef.QubitState(p_e=float(p), s_bar=float(s))


def square_states_by_expm(prep: ef.Preparation, rabi: float, gamma: float, times) -> np.ndarray:
    """States (p_e, s) at the ``times`` of a constant drive from t = 0, as a (2, n) array.

    Each is the matrix exponential of the affine Bloch generator applied to
    (p_e(0), s(0), 1), independent of the package's closed form.
    """
    state = ef.prepare_initial(prep)
    generator = np.array([[-gamma, -rabi, 0.0], [rabi, -0.5 * gamma, -0.5 * rabi], [0.0, 0.0, 0.0]])
    x0 = np.array([state.p_e, state.s_bar, 1.0])
    return np.array([expm(generator * t) @ x0 for t in times])[:, :2].T


def free_decay_trajectory(state0: ef.QubitState, gamma: float, t_end: float, num: int) -> ef.Trajectory:
    """Undriven decay sampled exactly on a uniform grid."""
    _check_params("positive", t_end=t_end, gamma=gamma)
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


def _weak_charge_eigenvalue(p_e0: float, gamma: float, t_end: float, n: int) -> float:
    """4 gamma lambda_max / dt of the second-order work form on an n-point midpoint grid.

    With s0 = 0 the first-order dipole is s1 = G rabi, G[i, j] =
    exp(-gamma (t_i - t_j) / 2) (p0(t_j) - 1/2) dt for t_j < t_i and half
    that on the diagonal, p0(t) = p_e0 exp(-gamma t).  The work
    <rabi, s1> + gamma <s1, s1> + s1(T)^2 is the quadratic form of
    K = dt sym(G) + gamma dt G^T G + g_T g_T^T in the node values, and the
    budget sum(rabi^2) dt = 4 gamma n_bar caps it at 4 gamma lambda_max(K) / dt
    per photon (Courant-Fischer).
    """
    dt = t_end / n
    t = (np.arange(n) + 0.5) * dt
    source = (p_e0 * np.exp(-gamma * t) - 0.5) * dt
    g = np.tril(np.exp(-0.5 * gamma * (t[:, None] - t[None, :])), -1) * source + np.diag(0.5 * source)
    g_end = np.exp(-0.5 * gamma * (t_end - t)) * source
    k = dt * 0.5 * (g + g.T) + gamma * dt * g.T @ g + np.outer(g_end, g_end)
    return 4.0 * gamma * float(np.linalg.eigvalsh(k)[-1]) / dt


def weak_charge_work_per_photon(p_e0: float, gamma: float = 1.0) -> float:
    """Best work per photon, W / n_bar as n_bar -> 0, of a state without coherence.

    The top eigenvalue of `_weak_charge_eigenvalue` over T = 10 / gamma,
    Richardson-extrapolated from N = 400 and 800 (the midpoint grid is second
    order).  It agrees with N = 1600 and 3200 to 1e-8 for p_e0 in
    {0.6, 0.75, 1}.  For p_e0 <= 1/2 the supremum is 0 and is not attained.
    """
    t_end = 10.0 / gamma
    coarse, fine = (_weak_charge_eigenvalue(p_e0, gamma, t_end, n) for n in (400, 800))
    return (4.0 * fine - coarse) / 3.0
