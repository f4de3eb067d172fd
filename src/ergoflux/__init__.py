"""Work extraction from a driven dissipative qubit into a waveguide battery.

The package simulates a two-level emitter coupled to a one-dimensional
waveguide, splits the emitted energy into work-like (coherent) and heat-like
(incoherent) parts, and provides optimizers and self-verification suites for
the extraction protocols studied here.
"""

from .dynamics import (
    AnalyticCoefficients,
    DriveProfile,
    ExponentialPulse,
    IntegrationAccuracyError,
    OffDrive,
    Preparation,
    QubitState,
    TabulatedPulse,
    Trajectory,
    analytic_square_trajectory,
    evolve_numeric,
    prepare_initial,
    square_pulse_coefficients,
)
from .energetics import (
    EnergeticsTrace,
    accumulate,
    ergotropy,
    extraction_yield,
    heat_rate,
    square_drive_work,
    suggested_grid_step,
    work_rate,
)
from .scenarios import (
    ScenarioResult,
    SweepAxis,
    SweepGrid,
    SweepResult,
    optimal_square_work,
    scenario_continuous,
    scenario_pulsed,
    scenario_spontaneous,
    sweep,
)
from .optimizer import (
    ControlProblem,
    ExponentialTauResult,
    OptimalPulse,
    control_work_and_gradient,
    optimize_exponential_tau,
    project_to_budget,
    solve_optimal_control,
)
from .emitted_field import (
    HusimiGrid,
    OutputFieldState,
    coherent_amplitude,
    husimi,
    mean_photon_number,
    output_state,
)
from .verification import (
    BoundScanReport,
    ConservationReport,
    ScaleInvarianceReport,
    conservation_audit,
    conservation_suite,
    ergotropy_bound_scan,
    scale_invariance_check,
)

__all__ = [
    "AnalyticCoefficients",
    "BoundScanReport",
    "ConservationReport",
    "ControlProblem",
    "DriveProfile",
    "EnergeticsTrace",
    "ExponentialPulse",
    "ExponentialTauResult",
    "HusimiGrid",
    "IntegrationAccuracyError",
    "OffDrive",
    "OptimalPulse",
    "OutputFieldState",
    "Preparation",
    "QubitState",
    "ScaleInvarianceReport",
    "ScenarioResult",
    "SweepAxis",
    "SweepGrid",
    "SweepResult",
    "TabulatedPulse",
    "Trajectory",
    "accumulate",
    "analytic_square_trajectory",
    "coherent_amplitude",
    "conservation_audit",
    "conservation_suite",
    "control_work_and_gradient",
    "ergotropy",
    "ergotropy_bound_scan",
    "evolve_numeric",
    "extraction_yield",
    "heat_rate",
    "husimi",
    "mean_photon_number",
    "optimal_square_work",
    "optimize_exponential_tau",
    "output_state",
    "prepare_initial",
    "project_to_budget",
    "scale_invariance_check",
    "scenario_continuous",
    "scenario_pulsed",
    "scenario_spontaneous",
    "solve_optimal_control",
    "square_drive_work",
    "square_pulse_coefficients",
    "suggested_grid_step",
    "sweep",
    "work_rate",
]

__version__ = "0.1.0"
