"""Frequency estimation of a harmonic mode through a pulsed qubit probe.

The qubit dephases through a longitudinal coupling to the oscillator;
a periodic echo sequence turns the accumulated phase-space displacement
into an interference pattern whose fringes are spaced by the inverse
total time. `model` builds the displacement and the outcome statistics,
`information` provides the Fisher-information bounds and the comparison
against free evolution, `estimation` holds the gridded Bayesian update,
`protocol` implements the two-stage adaptive schedule, and `simkit` and
`cli` wrap the lot in ensemble runners and a command-line interface.
"""

from .estimation import (Estimate, Posterior, bayes_update, gaussian_prior, mass_beyond, mle,
                         regrid, uncertainty)
from .information import (
    ComparisonReport,
    cfi_binary,
    compare_control,
    dalpha_abs_domega,
    g_finite,
    g_rms,
    g_sq_mean,
    g_universal,
    lambda_tilde_cpmg,
    qfi_complex,
    qfi_real,
)
from .model import (
    ControlSchedule,
    Coupling,
    PulseSequence,
    ThermalState,
    alpha_cpmg,
    alpha_single_unit,
    coherence_thermal,
    cpmg_displacement_abs,
    interference_factor,
    outcome_probability,
    total_displacement,
    total_displacement_direct,
    zeta,
)
from .protocol import (
    AdaptiveConfig,
    StepPlan,
    StepRecord,
    Trajectory,
    nint,
    run_adaptive,
    stage1_plan,
    stage2_plan,
    stage_transition,
)
from .runconfig import ConfigError, load_adaptive_config, load_compare_config
from .simkit import (
    AggregateResult,
    fit_loglog_slope,
    fringe_scan,
    gsq_scan,
    run_repetitions,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "AggregateResult",
    "ComparisonReport",
    "ConfigError",
    "ControlSchedule",
    "Coupling",
    "Estimate",
    "Posterior",
    "PulseSequence",
    "StepPlan",
    "StepRecord",
    "ThermalState",
    "Trajectory",
    "alpha_cpmg",
    "alpha_single_unit",
    "bayes_update",
    "cfi_binary",
    "coherence_thermal",
    "compare_control",
    "cpmg_displacement_abs",
    "dalpha_abs_domega",
    "fit_loglog_slope",
    "fringe_scan",
    "g_finite",
    "g_rms",
    "g_sq_mean",
    "g_universal",
    "gaussian_prior",
    "gsq_scan",
    "interference_factor",
    "lambda_tilde_cpmg",
    "load_adaptive_config",
    "load_compare_config",
    "mass_beyond",
    "mle",
    "nint",
    "outcome_probability",
    "qfi_complex",
    "qfi_real",
    "regrid",
    "run_adaptive",
    "run_repetitions",
    "stage1_plan",
    "stage2_plan",
    "stage_transition",
    "total_displacement",
    "total_displacement_direct",
    "uncertainty",
    "zeta",
]
