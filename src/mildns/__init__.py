"""Pseudo-spectral Navier-Stokes on the periodic 3-torus.

Unit-viscosity, mean-zero incompressible flow in Fourier space, built around
the mild (Duhamel) form of the equation: exact heat semigroup, exactly
dealiased quadratic flux, integrating-factor RK4 marching, a Picard
fixed-point solver on the subcritical local horizon, energy-identity and
compactness diagnostics, and empirical norm-growth envelopes.
"""

__version__ = "0.1.0"

from .spectral_field import (
    GridSpec,
    SpectralField,
    divergence_linf,
    hs_norm,
    leray_project,
    load_nsf1,
    named_flow,
    nonlinear_term,
    random_divfree,
    sample_on_grid,
    save_nsf1,
    single_mode_field,
)
from .semigroup_flow import (
    BlowupError,
    NormSeries,
    Trajectory,
    heat_propagate,
    march,
    norms_from_csv,
    norms_to_csv,
    simulate,
    smoothing_ratio,
)
from .picard_wellposedness import (
    PicardReport,
    TrajectoryX,
    heat_trajectory,
    local_time,
    phi_map,
    picard_solve,
    xt_norm,
)
from .apriori_diagnostics import (
    CompactnessReport,
    compactness_experiment,
    energy_identity_residual,
    poincare_violation,
)
from .explorer_cli import (
    ConfigError,
    EnsembleSummary,
    ExperimentConfig,
    cli_main,
    estimate_F,
    monotone_envelope,
    run_verify,
)
