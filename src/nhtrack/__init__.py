"""Optimal trajectory tracking for nonholonomic mechanical systems.

Two solver routes for the same tracking problem (`problem`): indirect
shooting on the maximum-principle boundary value problem (`pmp`) and a
constrained midpoint variational integrator solving the discrete
Euler-Lagrange system (`varint`).  Benchmarks: a nonholonomic particle and
the Chaplygin sleigh (`systems`).  Importing the package loads neither
route: each route's names are served on their first read (PEP 562).
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
from .problem import (
    AnalyticReference,
    ConvergenceReport,
    RolloutReference,
    TrackingProblem,
    running_cost,
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


# the names that live in one solver route, each with the module of its route;
# the route loads on the first read of one of them, here through __getattr__
# and in cli through its own, so a process loads only the route it runs
_ROUTES = dict.fromkeys((
    "Costate", "FlowDivergedError", "ShootingSettings", "ShootingTrajectory",
    "SingularJacobianError", "abnormal_diagnostic", "check_shooting",
    "hamiltonian", "optimal_control", "optimal_hamiltonian", "pmp_rhs",
    "shooting_residual", "solve_shooting", "trajectory_cost",
), "pmp") | dict.fromkeys((
    "DelSettings", "DiagnosticSeries", "DiscreteTrajectory", "RegularityError",
    "RegularityReport", "check_del", "continuous_optimality_residual",
    "del_residual", "diagnostics", "discrete_constraint", "discrete_lagrangian",
    "ocp_lagrangian", "reconstructed_control", "regularity_check", "solve_del",
), "varint")


def _from_route(name: str):
    """name as its route defines it, importing the route on first use by an
    import statement, which `python -X importtime` lists (importlib's
    import_module bypasses that log)."""
    if _ROUTES[name] == "pmp":
        from . import pmp as route
    else:
        from . import varint as route
    return getattr(route, name)


def __getattr__(name: str):  # PEP 562: the names of __all__ not imported above
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return _from_route(name)
