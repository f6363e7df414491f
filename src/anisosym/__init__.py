"""Sliced solver and symmetrization comparison toolkit.

Solves -div_x(a(|grad_x u|) grad_x u) - u_yy = f with homogeneous
Dirichlet data on product domains by discretizing the y direction into
slices, provides Schwarz/Steiner rearrangement machinery for the solved
slices, and certifies numerically that the slice mass functions of the
original solution sit below those of the symmetrized problem.
"""

__version__ = "0.1.0"

from .grids import (CellGrid, RadialGrid, SliceStack, cell_gradients,
                    make_ball_grid, make_disk_grid, make_interval_grid,
                    make_radial_grid, make_square_grid, perimeter_factor,
                    sample_slices, symmetrized_grid)
from .nonlinearity import (Nonlinearity, RegularizedNonlinearity,
                           ValidationReport, from_beta_table,
                           hypothesis_samples, make_p_laplacian,
                           moreau_yosida, shifted_p, validate_hypotheses)
from .rearrange import ScalarField, schwarz_rearrangement, steiner_rearrangement
from .solver import (DiscreteProblem, DiscreteSolution, SolverError,
                     radial_order_violation, solve_stack, solve_symmetrized)
from .mass_ode import (AccretivityReport, MassOperator, ResolventError,
                       mass_functions_from_stack, random_mass_functions,
                       solve_mass_system, subsolution_slack,
                       t_accretivity_check)
from .compare import (ComparisonError, ComparisonReport, PipelineError,
                      SweepReport, epsilon_tau_sweep, h_refinement_study,
                      mollify_stack, verify_lq_consequence,
                      verify_mass_comparison)
from .config import ConfigError, ExperimentConfig, compile_expression, parse_config
