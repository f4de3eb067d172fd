"""Energy bookkeeping for the driven qubit and its photonic channel.

All quantities are in units of (hbar * omega0) for energies and
(hbar * omega0 * gamma) for powers.  The channel splits the outgoing flux into

* work: the coherent part of the emission (stimulated + the interference of
  spontaneous emission with itself through the real dipole s), rate
  gamma*s^2 + rabi*s,
* heat: the incoherent remainder, rate gamma*(p_e - s^2), nonnegative for
  any physical state.

Their sum matches the energy the qubit loses, which `accumulate` checks on
every trace it integrates.  Under a constant drive the work needs no trace:
`square_drive_work` gets it exactly from the end states of the drive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    AnalyticCoefficients,
    IntegrationAccuracyError,
    Preparation,
    QubitState,
    Trajectory,
    _RK4_BOUND,
    _check_params,
    _drive_state,
    _rhs,
    _transient_basis,
    square_pulse_coefficients,
)

# grid-level residual allowed between the integrated fluxes and the energy drop
RESIDUAL_TOL = 1e-6


def work_rate(state: QubitState, rabi: float, gamma: float) -> float:
    """Coherent (work-like) output power."""
    s = state.s_bar
    return gamma * s * s + rabi * s


def heat_rate(state: QubitState, gamma: float) -> float:
    """Incoherent (heat-like) output power; >= 0 inside the Bloch ball.

    A state within BLOCH_TOL outside the ball is rounding noise (see
    `QubitState`), so its negative excess counts as zero heat.
    """
    return gamma * max(state.p_e - state.s_bar * state.s_bar, 0.0)


def ergotropy(prep: Preparation) -> float:
    """Maximum unitarily extractable energy of the prepared state."""
    return _ergotropy(prep.p, prep.theta, math)


def _ergotropy(p, theta, xp=np):
    return (1.0 - 2.0 * p) * xp.sin(0.5 * theta) ** 2


def extraction_yield(work: float, prep: Preparation) -> float:
    """Extracted work over ergotropy; NaN for passive states (zero ergotropy)."""
    return float(_yield(work, ergotropy(prep)))


def _yield(work, w_max):
    """Work over the ergotropy ``w_max`` (floats or arrays); NaN where the ergotropy is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(w_max == 0.0, np.nan, np.divide(work, w_max))


# --------------------------- trace integration ---------------------------


def _corrected_steps(f, right, left, h):
    """Integrals of ``f`` over the steps ``h`` by the endpoint-corrected trapezoid.

    h (f_0 + f_1) / 2 + h^2 (f_0' - f_1') / 12 is fourth order (Euler-Maclaurin; Davis &
    Rabinowitz 1984); the slopes f' are ``right`` at a step's start and ``left`` at its end.
    """
    return h * (0.5 * (f[:-1] + f[1:]) + h * (right[:-1] - left[1:]) / 12.0)


@dataclass(frozen=True, eq=False)
class EnergeticsTrace:
    """Instantaneous and cumulative energy flows along a trajectory.

    ``work_tail``/``heat_tail`` hold the exact free-decay contributions after
    the final grid point (zero when no tail applies, see `accumulate`);
    ``total_work`` and ``total_heat`` include them.  The work splits into
    its two channels: ``stimulated_work`` = int rabi*s dt and
    ``spontaneous_work`` = int gamma*s^2 dt + ``work_tail``.  ``residual`` is
    the grid first-law residual max |E(0) - E - (work + heat)|.
    """

    times: np.ndarray
    energy: np.ndarray
    work_flux: np.ndarray
    heat_flux: np.ndarray
    work: np.ndarray
    heat: np.ndarray
    work_tail: float
    heat_tail: float
    stimulated_work: float
    spontaneous_work: float
    residual: float

    @property
    def total_work(self) -> float:
        return float(self.work[-1]) + self.work_tail

    @property
    def total_heat(self) -> float:
        return float(self.heat[-1]) + self.heat_tail


def accumulate(traj: Trajectory, check_residual: bool = True) -> EnergeticsTrace:
    """Integrate the energy flows of a trajectory.

    Each flux is integrated step by step with the endpoint-corrected
    trapezoid, fourth order like RK4, so the grid of `suggested_grid_step`
    serves both.  The flux slopes at the nodes come from the Bloch equations
    and the drive's own slope, taken one-sided at a tabulated drive's kinks,
    which `evolve_numeric` puts on grid nodes, where they cost nothing.

    When the last sample is at or past the drive's `support_end` and
    gamma > 0, the exact free-decay tail after it is booked: work s_end^2
    and heat p_end - s_end^2.  A trace that ends while the drive is still on
    books none; it stands for a run whose coupling is cut at its end, which
    freezes the state.  The grid-level first-law residual
    |energy drop - (work + heat)| is always recorded, and checked against
    RESIDUAL_TOL unless ``check_residual`` is False.
    """
    t = traj.times
    p = np.asarray(traj.p_e, dtype=float)
    s = traj.s_bar
    m2 = s * s
    h = np.diff(t)

    ga = traj.gamma
    rabi = np.asarray(traj.drive.rabi(t), dtype=float)
    dp, ds = _rhs(p, s, rabi, ga)
    right, left = traj.drive._slopes(t)
    stim = rabi * s
    stim_steps = _corrected_steps(stim, right * s + rabi * ds, left * s + rabi * ds, h)
    spont_slope = 2.0 * ga * s * ds
    spont_steps = _corrected_steps(ga * m2, spont_slope, spont_slope, h)
    w_flux = ga * m2 + stim
    q_flux = ga * (p - m2)
    q_slope = ga * (dp - 2.0 * s * ds)

    # running sums in order, so every machine gets the same digits
    stimulated = np.cumsum(np.append(0.0, stim_steps))
    spontaneous = np.cumsum(np.append(0.0, spont_steps))
    work = stimulated + spontaneous
    heat = np.cumsum(np.append(0.0, _corrected_steps(q_flux, q_slope, q_slope, h)))

    if t[-1] >= traj.drive.support_end() and ga > 0.0:
        w_tail = float(m2[-1])
        q_tail = float(p[-1] - m2[-1])
    else:
        w_tail = 0.0
        q_tail = 0.0

    worst = float(np.abs((p[0] - p) - (work + heat)).max())
    if check_residual and worst > RESIDUAL_TOL:
        raise IntegrationAccuracyError(
            f"first-law residual {worst:.3e} exceeds {RESIDUAL_TOL:.0e}; "
            "refine the grid or split the trace at drive discontinuities"
        )

    return EnergeticsTrace(
        times=t,
        energy=p,
        work_flux=w_flux,
        heat_flux=q_flux,
        work=work,
        heat=heat,
        work_tail=w_tail,
        heat_tail=q_tail,
        stimulated_work=float(stimulated[-1]),
        spontaneous_work=float(spontaneous[-1]) + w_tail,
        residual=worst,
    )


def suggested_grid_step(rabi_peak: float, gamma: float, window: float) -> float:
    """RK4's step bound over the fastest rate, `_RK4_BOUND` / hypot(rabi_peak, gamma), capped at ``window``.

    The step passes `evolve_numeric`'s check for any drive peaking at
    ``rabi_peak``, and the same grid serves `accumulate`, whose ledger is
    fourth order like RK4 itself.  Without a drive or a decay it is
    ``window``.  `evolve_numeric` shortens the steps as needed to put a
    tabulated drive's nodes on the grid.  ``rabi_peak`` and ``gamma`` must be
    nonnegative and ``window`` positive, all finite.
    """
    _check_params("nonnegative", rabi_peak=rabi_peak, gamma=gamma)
    _check_params("positive", window=window)
    rate = math.hypot(rabi_peak, gamma)
    return min(_RK4_BOUND / rate, window) if rate > 0.0 else window


# --------------------------- constant-drive closed-form work ---------------------------


def _drive_work(tau, rabi, gamma: float, co: AnalyticCoefficients, basis, at=None):
    """Closed-form work W(tau) of a constant drive and the dipole s(tau) it ends on.

    ``co`` and ``basis`` come from `dynamics._coefficients` and
    `dynamics._transient_basis`; ``tau``, ``rabi`` and the coefficients are
    floats, or arrays with one entry per cell.  The states at both ends are
    the linear forms of `dynamics._drive_state`, so W is exact down to a
    vanishing Rabi frequency.  ``at`` is ``basis.at(tau)``, which a caller
    that holds it already passes in.  See `square_drive_work`.
    """
    p0, s0 = co.pop_a + co.pop_c, co.a + co.c  # the damped basis is (1, 0) at t = 0
    p, s = _drive_state(*(basis.at(tau) if at is None else at), co)
    det = rabi * rabi + 0.5 * gamma * gamma  # det A
    r2 = 2.0 * rabi * rabi
    d1 = p - p0
    d2 = s - s0 + 0.5 * rabi * tau  # h = (0, -rabi/2)
    m1 = (rabi * d2 - 0.5 * gamma * d1) / det
    m2 = -(rabi * d1 + gamma * d2) / det
    q11 = p * p - p0 * p0
    q12 = p * s - p0 * s0 + 0.5 * rabi * m1
    q22 = s * s - s0 * s0 + rabi * m2
    gamma_s2 = -(r2 * q11 + 4.0 * gamma * rabi * q12 + (r2 + 3.0 * gamma * gamma) * q22) / (6.0 * det)
    return rabi * m2 + gamma_s2, s


def square_drive_work(prep: Preparation, rabi: float, gamma: float, tau):
    """Work emitted during a constant drive of duration ``tau`` (a float or an array).

    Returns W(tau) = rabi * int_0^tau s dt + gamma * int_0^tau s^2 dt,
    exact in both integrals; no free-decay tail is included.

    Both integrals follow from the end states alone (Van Loan 1978, IEEE TAC
    23:395).  With y = (p_e, s) the Bloch equations read y' = A y + h, so
    m = int y solves A m = y(tau) - y(0) - h tau, and the second moments
    P = int y y^T solve the Lyapunov equation A P + P A^T = R with
    R = [y y^T]_0^tau - h m^T - m h^T.  Its s-s entry is solved in closed form
    in `_drive_work`; it is finite for every damping, gamma = 0 included.
    """
    tau = np.asarray(tau, dtype=float)
    if not np.all(tau >= 0.0):
        raise ValueError("tau must be nonnegative")
    co = square_pulse_coefficients(prep, rabi, gamma)
    work = _drive_work(tau, rabi, gamma, co, _transient_basis(co.k, 0.75 * gamma))[0]
    return float(work) if work.ndim == 0 else work
