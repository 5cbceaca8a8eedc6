"""Spectral toolkit for Couette-Poiseuille channel flow.

Solves the forced Orr-Sommerfeld mode problem, the linearized and
nonlinear perturbation problems on a periodic channel cell, computes
stability spectra with a neutral-point search, and exhibits the loss of
injectivity of the linearization at flow-reversal profiles.

The package namespace re-exports the names the demos use; everything
else is imported from its submodule.
"""

__version__ = "0.1.0"

from .channel import (
    ForceField,
    LinearizedChannelSolver,
    field_h_norm,
    field_norms,
    gamma_energy,
    random_field,
    recover_pressure_gradient,
)
from .nonlinear import (
    PicardConfig,
    contraction_ball_radius,
    measure_c1,
    measure_contraction,
    measure_kappa0,
    picard_solve,
    uniqueness_probe,
)
from .os_solver import apriori_ratio, sigma_diagnostics, solve_os_mode
from .profiles import (
    Profile,
    base_pressure_gradient,
    check_admissibility,
    couette,
    eval_profile,
    poiseuille_for_flux,
)
from .spectral import GridFunction, build_grid
from .spectrum import kernel_witness, neutral_search, os_spectrum, verify_energy_identity
