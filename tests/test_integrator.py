"""The scan-based RK4 integrator against a plain sequential RK4 reference.

`evolve_numeric`, `control_work` and `control_work_and_gradient` compose
each RK4 step as an affine map and scan them in chunks and blocks; these
tests pin them to a step-by-step loop at the chunk and block edges, across
a coupling cut, without decay and with a complex initial dipole.  The
gradient reference is the complex-step derivative of the same loop.
"""
import tracemalloc

import numpy as np
import pytest

import ergoflux as ef
from ergoflux.dynamics import _BLOCK, _CHUNK

STEP_COUNTS = [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, _BLOCK + 1]
TOL = 1e-13


def _rk4_reference(p, s, on, om, gn, gm, h):
    """Sequential RK4 of the real Bloch channel; returns the node states.

    ``on``/``gn`` are the drive and decay at the nodes, ``om``/``gm`` at the
    step midpoints.  Every operation is analytic, so complex drives give
    complex-step derivatives.
    """

    def f(p, s, o, g):
        return -g * p - o * s, o * (p - 0.5) - 0.5 * g * s

    on, om, gn, gm = (np.asarray(a).tolist() for a in (on, om, gn, gm))
    ps, ss = [p], [s]
    for k in range(len(om)):
        k1p, k1s = f(p, s, on[k], gn[k])
        k2p, k2s = f(p + 0.5 * h * k1p, s + 0.5 * h * k1s, om[k], gm[k])
        k3p, k3s = f(p + 0.5 * h * k2p, s + 0.5 * h * k2s, om[k], gm[k])
        k4p, k4s = f(p + h * k3p, s + h * k3s, on[k + 1], gn[k + 1])
        p = p + h / 6.0 * (k1p + 2.0 * (k2p + k3p) + k4p)
        s = s + h / 6.0 * (k1s + 2.0 * (k2s + k3s) + k4s)
        ps.append(p)
        ss.append(s)
    return np.array(ps), np.array(ss)


def _reference_work(controls, times, prep, n_sub, gamma):
    """RK4/trapezoid work of a piecewise-linear waveform, step by step."""
    c = np.asarray(controls)
    m = len(c)
    x = np.arange(2 * (m - 1) * n_sub + 1) / (2 * n_sub)  # nodes and midpoints, in control steps
    j = np.minimum(x.astype(int), m - 2)
    drive = (1.0 - (x - j)) * c[j] + (x - j) * c[j + 1]
    on, om = drive[::2], drive[1::2]
    h = (times[1] - times[0]) / n_sub
    state0 = ef.prepare_initial(prep)
    g = np.full(len(on), gamma)
    _, s = _rk4_reference(state0.p_e, state0.s_bar.real, on, om, g, g[1:], h)
    w = on * s + gamma * s * s
    return h * (w.sum() - 0.5 * (w[0] + w[-1])) + s[-1] ** 2


def _complex_step_gradient(controls, times, prep, n_sub, gamma):
    grad = np.empty(len(controls))
    for j in range(len(controls)):
        c = np.asarray(controls, dtype=complex)
        c[j] += 1e-30j
        grad[j] = _reference_work(c, times, prep, n_sub, gamma).imag / 1e-30
    return grad


# ------------------------------------------------------------ evolve_numeric


EVOLVE_CASES = {
    # varying drive that stops before the end, coupling cut mid-run
    "cut": dict(state=ef.QubitState(p_e=0.8, s_bar=complex(0.3, 0.0)), gamma=1.0, cut=0.55),
    "no decay": dict(state=ef.QubitState(p_e=0.3, s_bar=complex(-0.4, 0.0)), gamma=0.0, cut=None),
    "complex dipole": dict(state=ef.QubitState(p_e=0.4, s_bar=complex(0.3, 0.2)), gamma=1.0, cut=0.7),
}


@pytest.mark.parametrize("n", STEP_COUNTS)
@pytest.mark.parametrize("case", sorted(EVOLVE_CASES))
def test_evolve_numeric_matches_sequential_rk4(n, case):
    spec = EVOLVE_CASES[case]
    gamma, state = spec["gamma"], spec["state"]
    h = 0.004
    t_end = n * h
    drive = ef.TabulatedPulse(times=[0.0, 0.4 * t_end, 0.8 * t_end], values=[0.5, 2.0, 1.0])
    cut = ef.ALWAYS_ON if spec["cut"] is None else ef.CouplingSchedule(spec["cut"] * t_end)
    traj = ef.evolve_numeric(state, drive, t_end=t_end, dt=h, coupling=cut, gamma=gamma)
    assert len(traj.times) == n + 1

    t = traj.times
    mids = t[:-1] + 0.5 * (t[1] - t[0])
    on_g, on_m = cut.on_mask(t), cut.on_mask(mids)
    om_g = np.where(on_g, drive.rabi(t), 0.0)
    om_m = np.where(on_m, drive.rabi(mids), 0.0)
    h = t[1] - t[0]
    p, s = _rk4_reference(state.p_e, state.s_bar.real, om_g, om_m, gamma * on_g, gamma * on_m, h)
    zero_g, zero_m = np.zeros(n + 1), np.zeros(n)
    _, si = _rk4_reference(0.0, state.s_bar.imag, zero_g, zero_m, gamma * on_g, gamma * on_m, h)
    assert np.abs(traj.p_e - p).max() <= TOL
    assert np.abs(traj.s_bar.real - s).max() <= TOL
    assert np.abs(traj.s_bar.imag - si).max() <= TOL


def test_evolve_numeric_memory_stays_bounded():
    # 2e5 steps, the size of the conservation suite's largest trajectory; the
    # scan works block by block, so only the outputs grow with the step count
    state = ef.prepare_initial(ef.Preparation(p=0.0, theta=2.0))
    drive = ef.SquarePulse(amplitude=20.0, duration=4.0)
    tracemalloc.start()
    try:
        traj = ef.evolve_numeric(state, drive, t_end=4.0, dt=2e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.times) == 200_001
    returned = traj.times.nbytes + traj.p_e.nbytes + traj.s_bar.nbytes
    assert peak <= 2 * returned + 4_000_000


# ------------------------------------------------------- control functional


@pytest.mark.parametrize("gamma", [1.0, 0.0])
@pytest.mark.parametrize("m,n_sub", [(2, n) for n in STEP_COUNTS] + [(5, 4), (4, 11)])
def test_control_work_and_gradient_match_sequential_rk4(m, n_sub, gamma):
    times = ef.control_times(0.001 * (m - 1) * n_sub, m)  # fine step 0.001, as in `optimize`
    controls = 1.0 + 0.8 * np.sin(np.arange(m) + 0.5)
    prep = ef.Preparation(p=0.1, theta=2.0)

    work = ef.control_work(controls, times, prep, gamma=gamma, n_sub=n_sub)
    work_g, grad = ef.control_work_and_gradient(controls, times, prep, gamma=gamma, n_sub=n_sub)
    ref = _reference_work(controls, times, prep, n_sub, gamma)
    assert abs(work - ref) <= TOL
    assert abs(work_g - ref) <= TOL
    ref_grad = _complex_step_gradient(controls, times, prep, n_sub, gamma)
    assert np.abs(grad - ref_grad).max() <= TOL
