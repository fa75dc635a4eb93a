"""Solvers for mean-field control of diffusions killed at a state-dependent
intensity: forward population densities, backward value fields on a
half-plane, feedback synthesis, a particle Monte Carlo oracle, and a
coefficient-regularization toolbox."""

from .backward import (
    BSPDESolution,
    energy_report,
    solve_backward_1d,
    solve_backward_1d_galerkin,
    solve_backward_2d,
)
from .controls import FeedbackControl
from .errors import *  # noqa: F401,F403
from .forward import (
    CommonNoisePath,
    ForwardTrajectory1D,
    ForwardTrajectory2D,
    solve_forward_1d,
    solve_forward_2d,
)
from .hamiltonians import f_nu, minimize_hamiltonian
from .measures import (
    Density2D,
    SubProb1D,
    discretize_measure,
    metric_d0,
    metric_dp,
    s_map,
    truncate_measure,
)
from .mfc import (
    CostReport,
    MFCResult,
    evaluate_cost,
    gateaux_derivative,
    separability_gap,
    separable_lift,
    smp_residual,
    solve_mfc,
    solve_mfc_2d,
)
from .model import Grid, ModelSpec, NuHandle, build_grid, make_model, validate_model
from .particles import (
    ParticleEnsemble,
    empirical_subprob,
    estimate_cost_mc,
    simulate_particles,
)
from .regularize import ApproxFamily, build_approx_family, inf_convolution, mollify
from .steps import shift_density

__version__ = "0.1.0"
