"""Quadratic n-particle systems: continuous and discrete variational solvers.

The package solves the equations of motion for particles coupled through a
quadratic Lagrangian, both in continuous time (quadratic eigenvalue problems)
and on uniform grids under windowed scale-derivative operators
(transcendental eigenvalue problems).  On top of the solvers it classifies
periodicity, constructs choreographic solutions, and measures how the discrete spectra
(in the Hausdorff metric) and solutions (`window_errors`) converge as the grid delay
shrinks.  The batched stages behind the public functions are exported too; `numkernel`
states their contract.
"""

from .model import LagrangianSpec, ParticleState, construct_j4, energy, \
    transform_affine, validate_spec, assemble_blocks
from .numkernel import Polynomial, RootSet, cond, det_as_polynomial, kernel_vector, \
    merge_failures, per_item, polynomial_roots, solve_square, solve_stack
from .scaleop import GridFunction, ScaleOperator, box_apply, adjoint_box_apply, \
    central_difference, check_operator_conditions, chi, k_family, symbol_sigma1, \
    symbol_theta
from .pencil import ClassicalPencil, Spectra, TranscendentalPencil, check_assumptions, \
    check_cel_assumptions, check_del_assumptions, classical_eval, classical_pencil, \
    classical_spectrum, constant_systems, spectra, transcendental_eval, \
    transcendental_pencil, transcendental_spectrum
from .celsolve import Core, ModeExpansion, SystemSolution, dirichlet_cel, \
    general_solution_cel, grid_values, residual_cel
from .delsolve import DelSolution, TrajectoryGrid, boundary_problem, dirichlet_del, \
    general_solution_del, recurrence_march, residual_del, residuals
from .periodic import Choreography, CommensurabilityReport, \
    build_choreography_cel, build_choreography_del, commensurability, \
    is_periodic_cel, is_periodic_del, verify_choreography
from .convergence import SweepResult, epsilon_sweep, equation_classes, filter_to_window, \
    hausdorff_distance, node_values, window_errors, window_reference

__version__ = "0.1.0"
