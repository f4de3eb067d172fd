"""The scan-based RK4 integrator against a plain sequential RK4 reference.

`evolve_numeric`, `control_work` and `control_work_and_gradient` compose
each RK4 step as an affine map and scan them in chunks and blocks; these
tests pin them to a step-by-step loop at the chunk and block edges, for a
drive that stops before the end of the run and without decay.  The kernel
under all three, `_drive_scan`, is pinned to the same loop with restart
maps at those edges and with one step length per step.  The gradient
reference is the complex-step derivative of the same loop.
"""
import tracemalloc

import numpy as np
import pytest

import ergoflux as ef
from ergoflux.dynamics import _BLOCK, _CHUNK, _drive_scan, _integrate

STEP_COUNTS = [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, _BLOCK + 1]
TOL = 1e-13


def _rk4_reference(p, s, on, om, gamma, h, restarts=()):
    """Sequential RK4 of the real Bloch channel; returns the node states.

    ``on`` is the drive at the nodes and ``om`` at the step midpoints; ``h``
    is one step length or one per step.  Each step index in ``restarts``
    puts the state back at the first node instead of stepping.  Every
    operation is analytic, so complex drives give complex-step derivatives.
    """

    def f(p, s, o):
        return -gamma * p - o * s, o * (p - 0.5) - 0.5 * gamma * s

    on, om = np.asarray(on).tolist(), np.asarray(om).tolist()
    hs = np.broadcast_to(h, len(om)).tolist()
    ps, ss = [p], [s]
    for k, h in enumerate(hs):
        if k in restarts:
            p, s = ps[0], ss[0]
        else:
            k1p, k1s = f(p, s, on[k])
            k2p, k2s = f(p + 0.5 * h * k1p, s + 0.5 * h * k1s, om[k])
            k3p, k3s = f(p + 0.5 * h * k2p, s + 0.5 * h * k2s, om[k])
            k4p, k4s = f(p + h * k3p, s + h * k3s, on[k + 1])
            p = p + h / 6.0 * (k1p + 2.0 * (k2p + k3p) + k4p)
            s = s + h / 6.0 * (k1s + 2.0 * (k2s + k3s) + k4s)
        ps.append(p)
        ss.append(s)
    return np.array(ps), np.array(ss)


def _panel_integral(f, h):
    """Integral of equally spaced samples ``f``: composite Simpson, with a 3/8
    panel on the last three steps for an odd step count and the trapezoid for
    a single step."""
    n = len(f) - 1
    if n == 1:
        return 0.5 * h * (f[0] + f[1])
    e = n - 3 if n % 2 else n
    total = h / 3.0 * (f[0:e:2] + 4.0 * f[1:e:2] + f[2 : e + 1 : 2]).sum()
    if e < n:
        total += 3.0 * h / 8.0 * (f[e] + 3.0 * f[e + 1] + 3.0 * f[e + 2] + f[e + 3])
    return total


def _reference_work(controls, times, prep, n_sub, gamma):
    """RK4/Simpson work of a piecewise-linear waveform, step by step; the flux
    is integrated over each control interval separately."""
    c = np.asarray(controls)
    m = len(c)
    x = np.arange(2 * (m - 1) * n_sub + 1) / (2 * n_sub)  # nodes and midpoints, in control steps
    j = np.minimum(x.astype(int), m - 2)
    drive = (1.0 - (x - j)) * c[j] + (x - j) * c[j + 1]
    on, om = drive[::2], drive[1::2]
    h = (times[1] - times[0]) / n_sub
    state0 = ef.prepare_initial(prep)
    _, s = _rk4_reference(state0.p_e, state0.s_bar, on, om, gamma, h)
    w = on * s + gamma * s * s
    flux = sum(_panel_integral(w[j * n_sub : (j + 1) * n_sub + 1], h) for j in range(m - 1))
    return flux + s[-1] ** 2


def _complex_step_gradient(controls, times, prep, n_sub, gamma):
    grad = np.empty(len(controls))
    for j in range(len(controls)):
        c = np.asarray(controls, dtype=complex)
        c[j] += 1e-30j
        grad[j] = _reference_work(c, times, prep, n_sub, gamma).imag / 1e-30
    return grad


# ------------------------------------------------------------ evolve_numeric


EVOLVE_CASES = {
    # the varying drive is cut at 0.8 t_end; the decay goes on to the end
    "cut": dict(state=ef.QubitState(p_e=0.8, s_bar=0.3), gamma=1.0),
    "no decay": dict(state=ef.QubitState(p_e=0.3, s_bar=-0.4), gamma=0.0),
}


@pytest.mark.parametrize("n", STEP_COUNTS)
@pytest.mark.parametrize("case", sorted(EVOLVE_CASES))
def test_evolve_numeric_matches_sequential_rk4(n, case):
    spec = EVOLVE_CASES[case]
    gamma, state = spec["gamma"], spec["state"]
    h = 0.004
    t_end = n * h
    drive = ef.TabulatedPulse(times=[0.0, 0.4 * t_end, 0.8 * t_end], values=[0.5, 2.0, 1.0])
    traj = ef.evolve_numeric(state, drive, t_end=t_end, dt=h, gamma=gamma)
    assert len(traj.times) == n + 1

    t = traj.times
    h = t[1] - t[0]
    on, om = drive.rabi(t), drive.rabi(t[:-1] + 0.5 * h)
    p, s = _rk4_reference(state.p_e, state.s_bar, on, om, gamma, h)
    assert np.abs(traj.p_e - p).max() <= TOL
    assert np.abs(traj.s_bar - s).max() <= TOL
    assert traj.s_bar.dtype == np.float64


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


def test_drive_scan_restarts_at_chunk_and_block_edges():
    # restart maps on both sides of a chunk edge and of a block edge, under a
    # step length that changes from step to step, as in the exponential scan
    n = _BLOCK + 8
    k = np.arange(2 * n + 1)
    drive = 1.0 + 0.5 * np.sin(0.003 * k)
    on, om = drive[::2], drive[1::2]
    h = 0.002 + 0.001 * np.cos(0.01 * np.arange(n))
    x0 = (0.7, -0.2)
    restarts = [_CHUNK - 1, _CHUNK, _BLOCK - 1, _BLOCK]
    p, s = _drive_scan(on, om, h, 1.0, x0, restarts=restarts)
    ref_p, ref_s = _rk4_reference(*x0, on, om, 1.0, h, restarts)
    assert np.abs(p - ref_p).max() <= TOL
    assert np.abs(s - ref_s).max() <= TOL
    assert (p[[r + 1 for r in restarts]] == x0[0]).all()


def test_integrate_with_one_step_length_per_step():
    # the strict re-evaluation of a shaped pulse steps each control interval
    # by its own length; the grid crosses a block edge
    times = np.array([0.0, 0.01, 0.2, 9.0, 16.0])
    drive = ef.TabulatedPulse(times=times, values=[0.5, 2.0, 1.5, 0.3, 0.0])
    counts = np.array([3, 40, 4400, 3900])
    h = np.repeat(np.diff(times) / counts, counts)
    within = np.arange(len(h)) - np.repeat(np.cumsum(counts) - counts, counts)  # step in its interval
    fine = np.append(np.repeat(times[:-1], counts) + within * h, times[-1])
    assert len(h) > _BLOCK
    state = ef.QubitState(p_e=0.8, s_bar=0.3)
    traj = _integrate(state, drive, fine, h, 1.0)
    ref_p, ref_s = _rk4_reference(
        state.p_e, state.s_bar, drive.rabi(fine), drive.rabi(fine[:-1] + 0.5 * h), 1.0, h
    )
    assert np.abs(traj.p_e - ref_p).max() <= TOL
    assert np.abs(traj.s_bar - ref_s).max() <= TOL


# ------------------------------------------------------- control functional


@pytest.mark.parametrize("gamma", [1.0, 0.0])
@pytest.mark.parametrize("m,n_sub", [(2, n) for n in STEP_COUNTS] + [(5, 4), (4, 11)])
def test_control_work_and_gradient_match_sequential_rk4(m, n_sub, gamma):
    times = np.linspace(0.0, 0.001 * (m - 1) * n_sub, m)  # fine step 0.001, as in `optimize`
    controls = 1.0 + 0.8 * np.sin(np.arange(m) + 0.5)
    prep = ef.Preparation(p=0.1, theta=2.0)

    work = ef.control_work(controls, times, prep, gamma=gamma, n_sub=n_sub)
    work_g, grad = ef.control_work_and_gradient(controls, times, prep, gamma=gamma, n_sub=n_sub)
    ref = _reference_work(controls, times, prep, n_sub, gamma)
    assert abs(work - ref) <= TOL
    assert abs(work_g - ref) <= TOL
    ref_grad = _complex_step_gradient(controls, times, prep, n_sub, gamma)
    assert np.abs(grad - ref_grad).max() <= TOL
