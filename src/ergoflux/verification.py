"""Self-checks tying the package's pieces together.

Three independent audits:

* `conservation_audit` differentiates a numerically integrated trajectory
  and checks, pointwise, that the energy the qubit loses equals work flux
  plus heat flux, and that the channel's output power balances input plus
  the qubit's energy loss; `conservation_suite` runs it over randomized
  trajectories,
* `ergotropy_bound_scan` verifies on a dense (p, theta, gamma/rabi) grid
  that the constant-drive protocol never extracts more than the ergotropy,
* `scale_invariance_check` reruns the same physics at different absolute
  decay rates and confirms the dimensionless results are unchanged.

Each returns a small report object with the worst deviations found.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    ExponentialPulse,
    IntegrationAccuracyError,
    OffDrive,
    Preparation,
    SquarePulse,
    Trajectory,
    evolve_numeric,
    prepare_initial,
)
from .energetics import _ergotropy, accumulate, suggested_grid_step
from .scenarios import optimal_square_work, scenario_continuous


# --------------------------- conservation audit ---------------------------

# worst residual either conservation report passes
_CONSERVATION_TOL = 1e-6


@dataclass(frozen=True)
class ConservationReport:
    """Worst energy-balance residuals over ``n_cases`` trajectories.

    ``max_rate_residual`` is max |−dE/dt − (work flux + heat flux)| with the
    derivative taken by fourth-order centered differences on the interior;
    ``max_flux_residual`` is max |output − input + dE/dt|;
    ``max_integral_residual`` is the cumulative first-law mismatch on the
    grid, `EnergeticsTrace.residual`.
    """

    n_cases: int
    max_rate_residual: float
    max_flux_residual: float
    max_integral_residual: float
    min_heat_rate: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (
            self.max_rate_residual <= self.tolerance
            and self.max_flux_residual <= self.tolerance
            and self.max_integral_residual <= self.tolerance
            and self.min_heat_rate >= -self.tolerance
        )


def conservation_audit(traj: Trajectory) -> ConservationReport:
    """Derivative-level check of the energy bookkeeping on one trajectory,
    against `_CONSERVATION_TOL`.

    The trajectory grid must be uniform (as produced by `evolve_numeric`)
    and the drive smooth inside the window, otherwise the centered
    differences see the kinks rather than the physics.  The decay rate must
    be positive: without a channel there is no power balance to audit.
    """
    if not traj.gamma > 0.0:
        raise ValueError(f"conservation audit needs a positive decay rate, got gamma {traj.gamma}")
    if len(traj) < 5:
        raise ValueError("need at least 5 grid points to audit")
    steps = np.diff(traj.times)
    h = float(steps[0])
    if not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise ValueError("conservation audit requires a uniform time grid")

    trace = accumulate(traj, check_residual=False)
    e = trace.energy
    de = (-e[4:] + 8.0 * e[3:-1] - 8.0 * e[1:-3] + e[:-4]) / (12.0 * h)
    sl = slice(2, -2)
    return ConservationReport(
        n_cases=1,
        max_rate_residual=float(np.abs(-de - (trace.work_flux[sl] + trace.heat_flux[sl])).max()),
        max_flux_residual=float(np.abs(trace.output_flux[sl] - trace.input_flux[sl] + de).max()),
        max_integral_residual=trace.residual,
        min_heat_rate=float(trace.heat_flux.min()),
        tolerance=_CONSERVATION_TOL,
    )


def _random_trajectory(rng: np.random.Generator) -> Trajectory:
    prep = Preparation(p=float(rng.uniform(0.0, 0.5)), theta=float(rng.uniform(0.0, math.pi)))
    gamma = 1.0
    kind = int(rng.integers(0, 3))
    t_end = float(rng.uniform(2.0, 4.0))
    if kind == 0:
        drive = OffDrive()
        rabi_peak = 0.0
    elif kind == 1:
        # epsilon = gamma/rabi log-uniform over [0.05, 50]
        eps = float(np.exp(rng.uniform(math.log(0.05), math.log(50.0))))
        rabi_peak = gamma / eps
        drive = SquarePulse(amplitude=rabi_peak, duration=t_end)
    else:
        tau = float(np.exp(rng.uniform(math.log(0.2), math.log(2.0))))
        drive = ExponentialPulse(n_bar=float(rng.uniform(0.2, 4.0)), tau=tau, gamma=gamma)
        rabi_peak = drive.amplitude
        t_end = min(t_end, drive.support_end())
    dt = suggested_grid_step(rabi_peak, gamma, t_end)
    return evolve_numeric(prepare_initial(prep), drive, t_end=t_end, dt=dt, gamma=gamma)


def conservation_suite(n_cases: int = 20, seed: int = 0) -> ConservationReport:
    """Run `conservation_audit` over randomized drives and preparations."""
    if n_cases < 1:
        raise ValueError("n_cases must be positive")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    reps = [conservation_audit(_random_trajectory(rng)) for _ in range(n_cases)]
    return ConservationReport(
        n_cases=n_cases,
        max_rate_residual=max(rep.max_rate_residual for rep in reps),
        max_flux_residual=max(rep.max_flux_residual for rep in reps),
        max_integral_residual=max(rep.max_integral_residual for rep in reps),
        min_heat_rate=min(rep.min_heat_rate for rep in reps),
        tolerance=_CONSERVATION_TOL,
    )


# --------------------------- ergotropy bound scan ---------------------------

# the scanned range of epsilon = gamma/rabi, and the gap below zero a cell may reach
_EPSILON_RANGE = (0.05, 50.0)
_BOUND_SCAN_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class BoundScanReport:
    """Gap between ergotropy and extracted work over the scanned grid.

    ``gap[i, j, k]`` corresponds to (epsilon[i], p[j], theta[k]); all entries
    should be nonnegative up to the tolerance.
    """

    epsilon_values: np.ndarray
    p_values: np.ndarray
    theta_values: np.ndarray
    gap: np.ndarray
    tolerance: float

    @property
    def min_gap(self) -> float:
        return float(self.gap.min())

    @property
    def argmin(self) -> tuple[float, float, float]:
        i, j, k = np.unravel_index(int(self.gap.argmin()), self.gap.shape)
        return (
            float(self.epsilon_values[i]),
            float(self.p_values[j]),
            float(self.theta_values[k]),
        )

    @property
    def n_violations(self) -> int:
        return int(np.count_nonzero(self.gap < -self.tolerance))

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


def ergotropy_bound_scan(resolution: int = 50) -> BoundScanReport:
    """Scan preparations and drive strengths for ergotropy-bound violations.

    ``epsilon`` is the ratio gamma/rabi, scanned logarithmically over
    `_EPSILON_RANGE` across both damping regimes; p and theta cover their
    full ranges linearly, all three axes at ``resolution`` points.  Work
    comes from the closed-form stopping-time search at gamma = 1, run on
    all cells as one batch.  A gap below -`_BOUND_SCAN_TOL` is a violation.
    """
    if resolution < 20:
        raise ValueError("resolution must be at least 20 per axis")
    p_values = np.linspace(0.0, 0.5, resolution)
    theta_values = np.linspace(0.0, math.pi, resolution)
    epsilon_values = np.geomspace(*_EPSILON_RANGE, resolution)

    eps, p, theta = np.meshgrid(epsilon_values, p_values, theta_values, indexing="ij")
    _, work = optimal_square_work(p, theta, 1.0 / eps, 1.0)
    if np.isnan(work).any():
        raise IntegrationAccuracyError(f"stopping-time search failed on {np.isnan(work).sum()} cells")

    return BoundScanReport(
        epsilon_values=epsilon_values,
        p_values=p_values,
        theta_values=theta_values,
        gap=_ergotropy(p, theta) - work,
        tolerance=_BOUND_SCAN_TOL,
    )


# --------------------------- scale invariance ---------------------------

# the rate factors rerun, and the deviation they may reach
_SCALE_FACTORS = (0.1, 10.0)
_SCALE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ScaleInvarianceReport:
    """Deviation of dimensionless results when all rates are rescaled."""

    factors: np.ndarray
    work_deviation: np.ndarray
    stopping_deviation: np.ndarray
    tolerance: float

    @property
    def max_work_deviation(self) -> float:
        return float(self.work_deviation.max())

    @property
    def max_stopping_deviation(self) -> float:
        return float(self.stopping_deviation.max())

    @property
    def passed(self) -> bool:
        return (
            self.max_work_deviation <= self.tolerance
            and self.max_stopping_deviation <= self.tolerance
        )


def scale_invariance_check(prep: Preparation, epsilon: float) -> ScaleInvarianceReport:
    """Rerun the continuous protocol with all rates scaled by each of `_SCALE_FACTORS`.

    ``epsilon`` = gamma/rabi fixes the dimensionless drive strength, i.e. a
    photon rate ratio of 1/(4 epsilon^2); scaling gamma and rabi together
    must leave the work and gamma*tau_opt unchanged.
    """
    ratio = 1.0 / (4.0 * epsilon * epsilon) if epsilon * epsilon > 0.0 else math.inf
    if not (0.0 < epsilon < math.inf and 0.0 < ratio < math.inf):
        raise ValueError(f"epsilon must be positive with 1/(4 epsilon^2) positive and finite, got {epsilon}")
    base = scenario_continuous(prep, ratio, gamma=1.0)
    factors = np.asarray(_SCALE_FACTORS, dtype=float)
    dw = np.empty_like(factors)
    ds = np.empty_like(factors)
    for i, k in enumerate(factors):
        r = scenario_continuous(prep, ratio, gamma=float(k))
        dw[i] = abs(r.work - base.work)
        ds[i] = abs(k * r.tau_opt - base.tau_opt)
    return ScaleInvarianceReport(
        factors=factors,
        work_deviation=dw,
        stopping_deviation=ds,
        tolerance=_SCALE_TOL,
    )
