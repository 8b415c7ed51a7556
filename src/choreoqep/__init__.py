"""Quadratic n-particle systems: continuous and discrete variational solvers.

The package solves the equations of motion for particles coupled through a
quadratic Lagrangian, both in continuous time (quadratic eigenvalue problems)
and on uniform grids under windowed scale-derivative operators
(transcendental eigenvalue problems).  On top of the solvers it classifies
periodicity, constructs choreographic solutions, and measures how the discrete spectra
(in the Hausdorff metric) and solutions (`window_errors`) converge as the grid delay
shrinks.  The batched stages behind the public functions are exported too; `numkernel`
states their contract.

Importing the package loads none of its modules: each name below is resolved on first
access (PEP 562), importing only the module that defines it, so a command-line run loads
what its command computes with.
"""
import importlib

_EXPORTS = {name: module for module, names in {
    "model": "LagrangianSpec construct_j4 energy validate_spec",
    "numkernel": "Polynomial RootSet cond det_as_polynomial kernel_vector merge_failures "
                 "per_item polynomial_roots solve_square solve_stack",
    "scaleop": "ScaleOperator box_apply adjoint_box_apply central_difference "
               "check_operator_conditions chi k_family",
    "pencil": "ClassicalPencil Spectra check_cel_assumptions check_del_assumptions "
              "classical_eval classical_pencil classical_spectrum constant_systems spectra "
              "transcendental_eval transcendental_spectrum",
    "celsolve": "Core ModeExpansion SystemSolution dirichlet_cel general_solution_cel "
                "grid_values residual_cel",
    "delsolve": "DelSolution TrajectoryGrid boundary_problem dirichlet_del "
                "general_solution_del recurrence_march residual_del residuals",
    "periodic": "Choreography CommensurabilityReport build_choreography_cel "
                "build_choreography_del commensurability verify_choreography",
    "convergence": "SweepResult epsilon_sweep equation_classes filter_to_window "
                   "node_values window_errors window_reference",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
