"""Release checklist: the quantitative claims the package must reproduce.

Each test covers one numbered claim, prints a single summary line

    criterion NN: PASS|FAIL -- measured values vs. stated tolerance

and then asserts the tolerance, so `pytest -v` doubles as the results table.

Criterion 01 is asserted as the limit the paper states ("saturated for a
large enough battery's charge").  During the optimal pi-pulse the qubit
radiates heat, so the deficit is 1 - W = 3*pi*gamma/(4*Omega) to first order,
with Omega = 2*sqrt(gamma*Ndot).  At a photon rate ratio Ndot/gamma = 1e4 that
is 0.0118, more than the 1% margin: the model's optimum there is
W = 0.98826, pinned to 1e-6 and cross-checked by direct integration.  The
1% target holds from a ratio of about 1.39e4 on, so it is asserted at 1e5;
the deficit is asserted to fall as 3*pi*gamma/(4*Omega) over 1e4..1e6, with
W never above the ergotropy.
"""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import ergoflux as ef
from oracles import free_decay_trajectory, pulse_distance


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} -- {detail}")


def _continuous_pi_work(ratio: float, tau: float) -> float:
    """W(tau) from scipy on the README's Bloch equations, with W as a third state."""
    rabi = 2.0 * math.sqrt(ratio)

    def rhs(_t, y):
        p_e, s, _w = y
        return [-p_e - rabi * s, -0.5 * s + rabi * (p_e - 0.5), s * s + rabi * s]

    sol = solve_ivp(rhs, (0.0, tau), [1.0, 0.0, 0.0], method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    return float(sol.y[2, -1])


def test_criterion_01_strong_drive_saturates_ergotropy():
    prep = ef.Preparation(p=0.0, theta=math.pi)
    w_max = ef.ergotropy(prep)

    # at ratio 1e4: a pi-pulse, the pinned optimum, and an independent integration
    res = ef.scenario_continuous(prep, 1e4)
    area = res.tau_opt * 2.0 * math.sqrt(1e4)
    area_ok = abs(area / math.pi - 1.0) <= 0.01
    pin_ok = res.work == pytest.approx(0.988255993106428, abs=1e-6)
    ode_dev = abs(_continuous_pi_work(1e4, res.tau_opt) - res.work)
    ode_ok = ode_dev <= 1e-9

    # saturation as a limit: W <= ergotropy, the deficit falls as 3*pi*gamma/(4*Omega)
    ratios = (1e4, 1e5, 1e6)
    works = [res.work] + [ef.scenario_continuous(prep, r).work for r in ratios[1:]]
    deficits = [1.0 - w / w_max for w in works]
    scaled = [(1.0 - w) * 2.0 * math.sqrt(r) / (0.75 * math.pi) for w, r in zip(works, ratios)]
    bound_ok = all(w <= w_max for w in works)
    falling_ok = all(a > b for a, b in zip(deficits, deficits[1:]))
    law_ok = all(abs(x - 1.0) <= 0.01 for x in scaled)
    work_ok = abs(works[1] - w_max) <= 0.01  # first decade where the 1% target holds

    ok = area_ok and pin_ok and ode_ok and bound_ok and falling_ok and law_ok and work_ok
    _report(
        1,
        ok,
        f"stop area={area:.6f} (pi +- 1%); W(1e4)={res.work:.9f} (pin +- 1e-6, "
        f"ODE dev {ode_dev:.1e} <= 1e-9); W(1e5)={works[1]:.6f} (ergotropy +- 0.01); "
        f"(1-W)*Omega/(3pi/4 gamma) at 1e4..1e6 = "
        + ", ".join(f"{x:.4f}" for x in scaled)
        + " (1 +- 1%)",
    )
    assert area_ok, f"stopping time is not a pi-pulse: area={area}"
    assert pin_ok, f"W(1e4)={res.work!r} moved from the pinned 0.988255993106428 +- 1e-6"
    assert ode_ok, f"closed form and direct integration differ by {ode_dev:.3e}"
    assert bound_ok, f"W exceeds the ergotropy {w_max}: {works}"
    assert falling_ok, f"deficit 1 - W/ergotropy does not fall with the drive: {deficits}"
    assert law_ok, f"deficit does not follow 3*pi*gamma/(4*Omega): {scaled}"
    assert work_ok, f"W={works[1]:.6f} at ratio 1e5 is not within 0.01 of the ergotropy"


def test_criterion_02_spontaneous_work_closed_form():
    thetas = np.linspace(0.0, math.pi, 201)
    worst = 0.0
    w_grid = np.empty((3, len(thetas)))
    for i, p in enumerate((0.0, 0.25, 0.5)):
        for j, th in enumerate(thetas):
            prep = ef.Preparation(p=p, theta=float(th))
            traj = free_decay_trajectory(ef.prepare_initial(prep), 1.0, t_end=16.0, num=16001)
            w = ef.accumulate(traj).total_work
            w_grid[i, j] = w
            worst = max(worst, abs(w - (0.5 - p) ** 2 * math.sin(th) ** 2))
    i_max, j_max = np.unravel_index(int(w_grid.argmax()), w_grid.shape)
    peak_ok = i_max == 0 and thetas[j_max] == pytest.approx(math.pi / 2, abs=0.01)
    ok = worst <= 1e-6 and peak_ok and abs(w_grid[0, -1]) <= 1e-6
    _report(
        2,
        ok,
        f"max|W - (1/2-p)^2 sin^2(theta)| = {worst:.3e} (tol 1e-6), "
        f"peak W={w_grid.max():.6f} at p=0, theta={thetas[j_max]:.4f}",
    )
    assert worst <= 1e-6
    assert w_grid.max() == pytest.approx(0.25, abs=1e-6)
    assert peak_ok
    assert w_grid[0, -1] == pytest.approx(0.0, abs=1e-6)  # theta = pi radiates only heat


def test_criterion_03_spontaneous_yield():
    thetas = np.linspace(0.0, math.pi, 201)[1:]
    devs = [
        abs(ef.scenario_spontaneous(ef.Preparation(p=0.0, theta=float(th))).eta - math.cos(0.5 * th) ** 2)
        for th in thetas
    ]
    eta_small = ef.scenario_spontaneous(ef.Preparation(p=0.0, theta=1e-3)).eta
    ok = max(devs) <= 1e-6 and abs(eta_small - 1.0) <= 1e-6
    _report(
        3,
        ok,
        f"max|eta - cos^2(theta/2)| = {max(devs):.3e} (tol 1e-6), eta(theta->0) = {eta_small:.8f}",
    )
    assert max(devs) <= 1e-6
    assert abs(eta_small - 1.0) <= 1e-6


def test_criterion_04_pulsed_optimum_over_theta():
    thetas = np.linspace(0.0, math.pi, 201)
    works = [
        ef.scenario_pulsed(ef.Preparation(p=0.0, theta=float(th)), 1.64, 1.0).work for th in thetas
    ]
    w_max = max(works)
    ok = abs(w_max - 0.57) <= 0.02
    _report(
        4,
        ok,
        f"max_theta W = {w_max:.5f} at theta = {thetas[int(np.argmax(works))]:.4f} (target 0.57 +- 0.02)",
    )
    assert ok


def test_criterion_05_pulse_shaping():
    # (a), (b): best exponential time constants at the two benchmark points
    res_a = ef.optimize_exponential_tau(ef.Preparation(p=0.0, theta=math.pi / 2), n_bar=0.1)
    res_b = ef.optimize_exponential_tau(ef.Preparation(p=0.0, theta=0.75 * math.pi), n_bar=1.64)
    tau_a_ok = abs(res_a.tau_opt - 0.41) <= 0.02
    tau_b_ok = abs(res_b.tau_opt - 0.20) <= 0.02

    # (c): the free-form optimum stays close to the exponential ansatz
    prob_a = ef.ControlProblem(prep=ef.Preparation(p=0.0, theta=math.pi / 2), n_bar=0.1)
    sol_a = ef.solve_optimal_control(prob_a, n_starts=4)
    l2 = pulse_distance(sol_a.pulse, res_a.pulse)
    l2_ok = l2 <= 0.05

    # (d): maximize over theta at n_bar = 1.64 (exponential scan locates the
    # peak, one free-form solve evaluates it)
    thetas = np.linspace(0.3, math.pi, 25)
    surrogate = [
        ef.optimize_exponential_tau(ef.Preparation(p=0.0, theta=float(th)), n_bar=1.64).work
        for th in thetas
    ]
    theta_star = float(thetas[int(np.argmax(surrogate))])
    prob_d = ef.ControlProblem(prep=ef.Preparation(p=0.0, theta=theta_star), n_bar=1.64)
    sol_d = ef.solve_optimal_control(prob_d, n_starts=4)
    w_ok = abs(sol_d.work - 0.7) <= 0.03

    ok = tau_a_ok and tau_b_ok and l2_ok and w_ok
    _report(
        5,
        ok,
        f"tau_opt = {res_a.tau_opt:.4f} (0.41 +- 0.02), {res_b.tau_opt:.4f} (0.20 +- 0.02); "
        f"waveform L2 = {l2:.4f} (<= 0.05); max_theta W = {sol_d.work:.5f} "
        f"at theta = {theta_star:.4f} (0.7 +- 0.03)",
    )
    assert tau_a_ok and not res_a.at_boundary
    assert tau_b_ok and not res_b.at_boundary
    assert l2_ok
    assert w_ok
    assert sol_a.converged and sol_d.converged, (sol_a.message, sol_d.message)


def test_criterion_06_ergotropy_bound_scan():
    rep = ef.ergotropy_bound_scan(resolution=50)
    ok = rep.min_gap >= -1e-6
    _report(
        6,
        ok,
        f"min(W(0) - W_opt) = {rep.min_gap:.3e} at (eps, p, theta) = "
        f"({rep.argmin[0]:.3g}, {rep.argmin[1]:.3g}, {rep.argmin[2]:.3g}), "
        f"violations = {rep.n_violations} of 50^3",
    )
    assert ok
    assert rep.passed


def test_criterion_07_first_law_and_power_balance():
    rep = ef.conservation_suite(n_cases=20, seed=0)
    ok = rep.passed
    _report(
        7,
        ok,
        f"worst residuals over 20 random drives: rate {rep.max_rate_residual:.2e}, "
        f"integral {rep.max_integral_residual:.2e} "
        f"(tol 1e-6), min heat rate {rep.min_heat_rate:.2e}",
    )
    assert rep.max_rate_residual <= 1e-6
    assert rep.max_integral_residual <= 1e-6
    assert rep.tolerance == 1e-6
    assert rep.min_heat_rate >= -1e-6


def test_criterion_08_heat_positivity():
    rng = np.random.default_rng(2024)
    n = 100_000
    pe = rng.uniform(0.0, 1.0, n)
    radius = np.sqrt(pe * (1.0 - pe)) * np.sqrt(rng.uniform(0.0, 1.0, n))
    # the heat rate depends on s^2 alone, so a random sign covers the real dipole
    sign = rng.choice([-1.0, 1.0], n)
    q_min = min(
        ef.heat_rate(ef.QubitState(p_e=float(pe[k]), s_bar=float(radius[k] * sign[k])), 1.0)
        for k in range(n)
    )
    ok = q_min >= 0.0
    _report(8, ok, f"min heat rate over 1e5 Bloch-ball states = {q_min:.3e} (must be >= 0)")
    assert ok


def test_criterion_09_analytic_numeric_equivalence():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        prep = ef.Preparation(p=float(rng.uniform(0, 0.5)), theta=float(rng.uniform(0, math.pi)))
        eps = float(np.exp(rng.uniform(math.log(0.05), math.log(50.0))))
        worst = max(worst, _square_pulse_deviation(prep, 1.0 / eps))

    # a pair of drives straddling the critical ratio within 1e-4 of it
    prep = ef.Preparation(p=0.1, theta=2.0)
    near = []
    ks = []
    for eps in (4.0 * (1.0 - 1e-4), 4.0 * (1.0 + 1e-4)):
        rabi = 1.0 / eps
        ks.append(ef.square_pulse_coefficients(prep, rabi, 1.0).k)
        near.append(_square_pulse_deviation(prep, rabi))

    # k = rabi^2 - gamma^2/16 changes sign across critical damping
    straddles = ks[0] > 0.0 > ks[1]
    ok = worst <= 1e-7 and max(near) <= 1e-7 and straddles
    _report(
        9,
        ok,
        f"worst pointwise deviation = {worst:.3e} over 100 random drives, "
        f"{max(near):.3e} at eps = 4(1 +- 1e-4) with k = {ks[0]:.2e} -> {ks[1]:.2e} "
        "(tol 1e-7)",
    )
    assert worst <= 1e-7
    assert max(near) <= 1e-7
    assert straddles


def _square_pulse_deviation(prep, rabi, t_end=10.0):
    dt = min(0.01 / max(1.0, rabi), t_end / 64.0)
    drive = ef.TabulatedPulse(times=[0.0, t_end], values=[rabi, rabi])
    traj = ef.evolve_numeric(ef.prepare_initial(prep), drive, t_end=t_end, dt=dt)
    ana = ef.analytic_square_trajectory(prep, rabi, 1.0, t_end, num=len(traj.times))
    return max(
        float(np.abs(ana.p_e - traj.p_e).max()),
        float(np.abs(ana.s_bar - traj.s_bar).max()),
    )


def test_criterion_10_scale_invariance():
    rep = ef.scale_invariance_check(ef.Preparation(p=0.0, theta=math.pi / 2), epsilon=1.0)
    ok = rep.passed
    _report(
        10,
        ok,
        f"rate rescaling k in {{0.1, 10}}: max |dW| = {rep.max_work_deviation:.3e}, "
        f"max |d(gamma tau)| = {rep.max_stopping_deviation:.3e} (tol 1e-9)",
    )
    assert rep.max_work_deviation <= 1e-9
    assert rep.max_stopping_deviation <= 1e-9
    assert rep.tolerance == 1e-9


def _adjoint_error(times, n_sub):
    """Relative deviation of the adjoint gradient from central differences."""
    m = len(times)
    rng = np.random.default_rng(7)
    controls = ef.project_to_budget(rng.uniform(0.5, 3.0, m), times, n_bar=1.0)
    prep = ef.Preparation(p=0.1, theta=2.0)
    _, grad = ef.control_work_and_gradient(controls, times, prep, n_sub=n_sub)

    eps = 1e-6
    fd = np.zeros(m)
    for j in range(m):
        cp = controls.copy()
        cp[j] += eps
        cm = controls.copy()
        cm[j] -= eps
        fd[j] = (
            ef.control_work_and_gradient(cp, times, prep, n_sub=n_sub)[0]
            - ef.control_work_and_gradient(cm, times, prep, n_sub=n_sub)[0]
        ) / (2.0 * eps)
    return float(np.abs(grad - fd).max() / max(1.0, np.abs(grad).max()))


def test_criterion_11_adjoint_gradient():
    uniform = _adjoint_error(np.linspace(0.0, 5.0, 16), 64)
    # the same 16 nodes over [0, 5], unequally spaced: intervals grow from 0.022 to 0.64
    uneven = _adjoint_error(5.0 * np.linspace(0.0, 1.0, 16) ** 2, 64)
    ok = max(uniform, uneven) <= 1e-4
    _report(
        11,
        ok,
        f"adjoint vs central differences on 16 nodes: rel error = {uniform:.3e} uniform, "
        f"{uneven:.3e} uneven (tol 1e-4)",
    )
    assert ok


def test_criterion_12_emitted_field_bookkeeping():
    thetas = np.linspace(0.0, math.pi, 101)
    dev_w = 0.0
    dev_e = 0.0
    for th in thetas:
        prep = ef.Preparation(p=0.0, theta=float(th))
        state = ef.output_state(float(th))
        dev_w = max(
            dev_w,
            abs(abs(ef.coherent_amplitude(state)) ** 2 - ef.scenario_spontaneous(prep).work),
        )
        dev_e = max(
            dev_e,
            abs(ef.mean_photon_number(state) - ef.prepare_initial(prep).p_e),
        )

    axis = np.linspace(-2.5, 2.5, 51)
    q_bounds_ok = True
    for th in (0.0, math.pi / 2, math.pi):
        q = ef.husimi(ef.output_state(th), axis, axis).q
        q_bounds_ok = q_bounds_ok and bool((q >= 0.0).all() and (q <= 1.0 + 1e-12).all())
    q_vac = float(ef.husimi(ef.output_state(0.0), [0.0], [0.0]).q[0, 0])
    q_one = float(ef.husimi(ef.output_state(math.pi), [0.0], [0.0]).q[0, 0])

    ok = dev_w <= 1e-12 and dev_e <= 1e-12 and q_bounds_ok and abs(q_vac - 1.0) <= 1e-12 and q_one <= 1e-12
    _report(
        12,
        ok,
        f"max||beta|^2 - W| = {dev_w:.2e}, max|<n> - E(0)| = {dev_e:.2e} (tol 1e-12); "
        f"Q in [0,1], Q(0) = {q_vac:.3g} for vacuum, {q_one:.3g} for |1>",
    )
    assert dev_w <= 1e-12
    assert dev_e <= 1e-12
    assert q_bounds_ok
    assert abs(q_vac - 1.0) <= 1e-12
    assert q_one <= 1e-12
