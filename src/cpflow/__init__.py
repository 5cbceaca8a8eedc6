"""Spectral toolkit for Couette-Poiseuille channel flow.

Solves the forced Orr-Sommerfeld mode problem, the linearized and
nonlinear perturbation problems on a periodic channel cell, computes
stability spectra with a neutral-point search, and exhibits the loss of
injectivity of the linearization at flow-reversal profiles.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelField,
    EnergyReport,
    ForceField,
    LinearizedChannelSolver,
    PressureGradient,
    check_symmetry_cancellation,
    field_h_norm,
    gamma_energy,
    random_field,
    recover_pressure_gradient,
    symmetry_project,
    x_norm,
)
from .errors import (
    BallEscapeError,
    BracketError,
    ConfigError,
    CpflowError,
    DomainError,
    InadmissibleProfileError,
    NearSingularSystemError,
    NeutralToleranceError,
    NonContractionError,
    ResolutionError,
)
from .nonlinear import (
    NonlinearChannelSolver,
    PicardConfig,
    PicardTrace,
    contraction_ball_radius,
    forcing_headroom,
    measure_c1,
    measure_contraction,
    measure_kappa0,
    nonlinear_residual,
    picard_solve,
    uniqueness_probe,
)
from .os_solver import (
    ModeSolution,
    OSModeOperator,
    SigmaDiagnostics,
    apriori_ratio,
    os_rhs_from_force,
    sigma_diagnostics,
    solve_os_mode,
    solve_os_zero_mode,
)
from .profiles import (
    AdmissibilityReport,
    Profile,
    base_pressure_gradient,
    check_admissibility,
    constant_flow,
    couette,
    eval_profile,
    flux,
    poiseuille_for_flux,
)
from .spectral import (
    GridFunction,
    SpectralGrid,
    build_grid,
    h_minus1_norm,
    poincare_ratio,
    sobolev_norm,
)
from .spectrum import (
    NeutralPoint,
    SpectrumResult,
    kernel_witness,
    leading_eigenvalue,
    neutral_search,
    os_spectrum,
    small_at_certificate,
    verify_energy_identity,
)
