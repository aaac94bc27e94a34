"""Optimal trajectory tracking for nonholonomic mechanical systems.

Two solver routes for the same tracking problem: indirect shooting on the
maximum-principle boundary value problem (`pmp`) and a constrained midpoint
variational integrator solving the discrete Euler-Lagrange system (`varint`).
Benchmarks: a nonholonomic particle and the Chaplygin sleigh (`systems`).
"""

from .geometry import (
    AdmissibleState,
    SystemModel,
    admissibility_velocity,
    christoffel_from_structure,
    constraint_residual,
    dynamics_rhs,
    restricted_energy,
    state_difference,
    wrap_angle,
)
from .ode import IntegrationError, TimeGrid, integrate, rk4_step
from .pmp import (
    AnalyticReference,
    ConvergenceReport,
    Costate,
    FlowDivergedError,
    RolloutReference,
    ShootingSettings,
    ShootingTrajectory,
    SingularJacobianError,
    TrackingProblem,
    abnormal_diagnostic,
    hamiltonian,
    optimal_control,
    optimal_hamiltonian,
    pmp_rhs,
    running_cost,
    shooting_residual,
    solve_shooting,
    trajectory_cost,
)
from .systems import (
    SleighParams,
    available_systems,
    particle_model,
    resolve_system,
    sleigh_model,
)

__all__ = [
    "AdmissibleState",
    "AnalyticReference",
    "ConvergenceReport",
    "Costate",
    "DelSettings",
    "DiagnosticSeries",
    "DiscreteTrajectory",
    "FlowDivergedError",
    "IntegrationError",
    "RegularityError",
    "RegularityReport",
    "RolloutReference",
    "ShootingSettings",
    "ShootingTrajectory",
    "SingularJacobianError",
    "SleighParams",
    "SystemModel",
    "TimeGrid",
    "TrackingProblem",
    "abnormal_diagnostic",
    "admissibility_velocity",
    "available_systems",
    "christoffel_from_structure",
    "constraint_residual",
    "continuous_optimality_residual",
    "del_residual",
    "diagnostics",
    "discrete_constraint",
    "discrete_lagrangian",
    "dynamics_rhs",
    "hamiltonian",
    "integrate",
    "ocp_lagrangian",
    "optimal_control",
    "optimal_hamiltonian",
    "particle_model",
    "pmp_rhs",
    "reconstructed_control",
    "regularity_check",
    "resolve_system",
    "restricted_energy",
    "rk4_step",
    "running_cost",
    "shooting_residual",
    "sleigh_model",
    "solve_del",
    "solve_shooting",
    "state_difference",
    "trajectory_cost",
    "wrap_angle",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # the names of __all__ not imported above are varint's: the route loads
    # on the first read of one of them (PEP 562), so shooting never loads it
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import varint

    return getattr(varint, name)
