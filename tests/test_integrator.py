"""The scan-based RK4 integrator against a plain sequential RK4 reference.

`evolve_numeric` and `control_work_and_gradient` compose each RK4 step as
an affine map and scan them in chunks and blocks; these tests pin them to a
step-by-step loop at the chunk and block edges, for a drive that stops
before the end of the run and without decay.  The kernel under both, `_drive_scan`, is pinned to the same loop across those
edges with one step length per step, and the control functional also on a
grid of unequal intervals and with one step count per interval.  The
gradient reference is the complex-step derivative of the same loop.  The
work functional solves its blocks as banded triangular systems
(`optimizer._band_block`), forward and transposed; both are pinned to the
numpy scan and to the adjoint loop.
"""
import tracemalloc

import numpy as np
import pytest

import ergoflux as ef
from ergoflux.dynamics import _BLOCK, _CHUNK, _affine_scan, _drive_scan
from ergoflux.optimizer import _band_adjoint, _band_block, _blocks_from_the_end

STEP_COUNTS = [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, _BLOCK + 1]
TOL = 1e-13


def _rk4_reference(p, s, on, om, gamma, h):
    """Sequential RK4 of the real Bloch channel; returns the node states.

    ``on`` is the drive at the nodes and ``om`` at the step midpoints; ``h``
    is one step length or one per step.  Every operation is analytic, so
    complex drives give complex-step derivatives.
    """

    def f(p, s, o):
        return -gamma * p - o * s, o * (p - 0.5) - 0.5 * gamma * s

    on, om = np.asarray(on).tolist(), np.asarray(om).tolist()
    hs = np.broadcast_to(h, len(om)).tolist()
    ps, ss = [p], [s]
    for k, h in enumerate(hs):
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
    """RK4/Simpson work of a piecewise-linear waveform, step by step; control
    interval j takes n_j steps of its own length / n_j, with ``n_sub`` one
    count for all intervals or one per interval, and the flux is integrated
    over each control interval separately."""
    c = np.asarray(controls)
    counts = np.broadcast_to(n_sub, len(c) - 1)
    # nodes and midpoints, in control intervals
    x = np.append(np.concatenate([j + np.arange(2 * k) / (2 * k) for j, k in enumerate(counts)]), len(counts))
    j = np.minimum(x.astype(int), len(c) - 2)
    drive = (1.0 - (x - j)) * c[j] + (x - j) * c[j + 1]
    on, om = drive[::2], drive[1::2]
    h = np.diff(times) / counts
    state0 = ef.prepare_initial(prep)
    _, s = _rk4_reference(state0.p_e, state0.s_bar, on, om, gamma, np.repeat(h, counts))
    w = on * s + gamma * s * s
    first = np.cumsum(counts) - counts
    flux = sum(_panel_integral(w[a : a + k + 1], hj) for a, k, hj in zip(first, counts, h))
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
    # a ramp still on at t_end, where the run is cut; the decay acts in one case
    "cut": dict(state=ef.QubitState(p_e=0.8, s_bar=0.3), gamma=1.0),
    "no decay": dict(state=ef.QubitState(p_e=0.3, s_bar=-0.4), gamma=0.0),
}


def _check_evolve_against_reference(state, drive, t_end, dt, gamma):
    """`evolve_numeric` against sequential RK4 on its own grid; returns the grid."""
    traj = ef.evolve_numeric(state, drive, t_end=t_end, dt=dt, gamma=gamma)
    t = traj.times
    h = np.diff(t)
    on, om = drive.rabi(t), drive.rabi(t[:-1] + 0.5 * h)
    p, s = _rk4_reference(state.p_e, state.s_bar, on, om, gamma, h)
    assert np.abs(traj.p_e - p).max() <= TOL
    assert np.abs(traj.s_bar - s).max() <= TOL
    assert traj.s_bar.dtype == np.float64
    return t


@pytest.mark.parametrize("n", STEP_COUNTS)
@pytest.mark.parametrize("case", sorted(EVOLVE_CASES))
def test_evolve_numeric_matches_sequential_rk4(n, case):
    # no table node inside the run: one uniform grid of n steps
    spec = EVOLVE_CASES[case]
    h = 0.004
    t_end = n * h
    drive = ef.TabulatedPulse(times=[0.0, 1.25 * t_end], values=[0.5, 2.0])
    t = _check_evolve_against_reference(spec["state"], drive, t_end, h, spec["gamma"])
    assert len(t) == n + 1
    assert np.array_equal(t, np.linspace(0.0, t_end, n + 1))


@pytest.mark.parametrize("n", STEP_COUNTS)
def test_evolve_numeric_steps_through_a_tables_nodes(n):
    # kinks at 0.4 t_end and a cut at 0.8 t_end, between the nodes of a
    # uniform grid of n steps: each becomes a grid node, and the segments
    # between them are stepped uniformly, no step longer than dt
    h = 0.004
    t_end = n * h
    nodes = [0.0, 0.4 * t_end, 0.8 * t_end]
    drive = ef.TabulatedPulse(times=nodes, values=[0.5, 2.0, 1.0])
    t = _check_evolve_against_reference(ef.QubitState(p_e=0.8, s_bar=0.3), drive, t_end, h, 1.0)
    assert np.isin(nodes, t).all() and t[-1] == t_end
    assert np.diff(t).max() <= h * (1.0 + 1e-12)


def test_evolve_numeric_memory_stays_bounded():
    # 2e5 steps, the size of the conservation suite's largest trajectory; the
    # scan works block by block, so only the outputs grow with the step count
    state = ef.prepare_initial(ef.Preparation(p=0.0, theta=2.0))
    drive = ef.TabulatedPulse(times=[0.0, 4.0], values=[20.0, 20.0])
    tracemalloc.start()
    try:
        traj = ef.evolve_numeric(state, drive, t_end=4.0, dt=2e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.times) == 200_001
    returned = traj.times.nbytes + traj.p_e.nbytes + traj.s_bar.nbytes
    assert peak <= 2 * returned + 4_000_000


def test_drive_scan_steps_one_length_per_step_across_chunk_and_block_edges():
    # a step length that changes from step to step, as on the shaper's grid of
    # per-interval step counts, over many chunks and past a block edge
    n = _BLOCK + 8
    k = np.arange(2 * n + 1)
    drive = 1.0 + 0.5 * np.sin(0.003 * k)
    on, om = drive[::2], drive[1::2]
    h = 0.002 + 0.001 * np.cos(0.01 * np.arange(n))
    x0 = (0.7, -0.2)
    p, s = _drive_scan(on, om, h, 1.0, x0)
    ref_p, ref_s = _rk4_reference(*x0, on, om, 1.0, h)
    assert np.abs(p - ref_p).max() <= TOL
    assert np.abs(s - ref_s).max() <= TOL


# ------------------------------------------------------------- banded solve

BAND_STEPS = [1, _CHUNK - 1, _CHUNK + 1, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 5]
BAND_TOL = 1e-14


def _rk4_maps(n):
    """RK4 maps of n steps under a varying drive and step length, and their
    numpy scan."""
    k = np.arange(2 * n + 1)
    drive = 1.0 + 0.5 * np.sin(0.003 * k)
    h = 0.002 + 0.001 * np.cos(0.01 * np.arange(n))
    maps = np.empty((2, 3, n))
    x = _drive_scan(drive[::2], drive[1::2], h, 1.0, (0.7, -0.2), kept=maps)
    return maps, x


@pytest.mark.parametrize("n", BAND_STEPS)
def test_banded_solve_matches_the_numpy_scan(n):
    maps, x = _rk4_maps(n)
    band = _affine_scan(lambda lo, hi: maps[..., lo:hi], n, (0.7, -0.2), _band_block)
    assert np.abs(band - x).max() <= BAND_TOL * np.abs(x).max()


@pytest.mark.parametrize("n", BAND_STEPS)
def test_transposed_banded_solve_matches_the_adjoint_loop(n):
    # y_n given, y_k = M_k^T y_{k+1} + v_k, over blocks taken from the last step
    maps, _ = _rk4_maps(n)
    y = [np.array([0.3, -0.5])]
    for k in range(n - 1, -1, -1):
        y.append(maps[:, :2, k].T @ y[-1] + maps[:, 2, k])
    ref = np.array(y[::-1]).T
    back = _affine_scan(_blocks_from_the_end(maps), n, (0.3, -0.5), _band_adjoint)
    assert np.abs(back[:, ::-1] - ref).max() <= BAND_TOL * np.abs(ref).max()


@pytest.mark.parametrize("solve", [_band_block, _band_adjoint], ids=["forward", "adjoint"])
def test_overflowing_banded_block_raises(solve):
    # each step multiplies the state by 1e200: infinite from the second step on
    n = 5
    maps = np.zeros((2, 3, n))
    maps[0, 0] = maps[1, 1] = 1e200
    with pytest.raises(ef.IntegrationAccuracyError, match="non-finite"):
        _affine_scan(lambda lo, hi: maps[..., lo:hi], n, (1.0, 1.0), solve)


# ------------------------------------------------------- control functional


def _check_against_reference(times, n_sub, gamma):
    m = len(times)
    controls = 1.0 + 0.8 * np.sin(np.arange(m) + 0.5)
    prep = ef.Preparation(p=0.1, theta=2.0)
    count = dict(n_sub=n_sub) if np.ndim(n_sub) == 0 else dict(steps=n_sub)

    work, grad = ef.control_work_and_gradient(controls, times, prep, gamma=gamma, **count)
    ref = _reference_work(controls, times, prep, n_sub, gamma)
    assert abs(work - ref) <= TOL
    ref_grad = _complex_step_gradient(controls, times, prep, n_sub, gamma)
    assert np.abs(grad - ref_grad).max() <= TOL


@pytest.mark.parametrize("gamma", [1.0, 0.0])
@pytest.mark.parametrize("m,n_sub", [(2, n) for n in STEP_COUNTS] + [(5, 4), (4, 11)])
def test_control_work_and_gradient_match_sequential_rk4(m, n_sub, gamma):
    times = np.linspace(0.0, 0.001 * (m - 1) * n_sub, m)  # fine step 0.001, as in `optimize`
    _check_against_reference(times, n_sub, gamma)


@pytest.mark.parametrize("gamma", [1.0, 0.0])
def test_control_work_and_gradient_match_sequential_rk4_on_an_uneven_grid(gamma):
    # each control interval steps by its own length / n_sub: here 0.0005 to 0.002
    n_sub = 3
    times = np.append(0.0, np.cumsum(np.random.default_rng(3).uniform(0.5, 2.0, 8))) * 0.001 * n_sub
    _check_against_reference(times, n_sub, gamma)


@pytest.mark.parametrize("gamma", [1.0, 0.0])
def test_control_work_and_gradient_match_sequential_rk4_with_one_count_per_interval(gamma):
    # the solver's layout: each control interval its own RK4 step count,
    # a single trapezoid step and odd counts (3/8 panel) among them
    counts = [2, 3, 5, 8, 1, _CHUNK + 1]
    times = np.append(0.0, np.cumsum(np.random.default_rng(5).uniform(0.5, 2.0, 6) * 0.001 * np.array(counts)))
    _check_against_reference(times, counts, gamma)
