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

__version__ = "0.1.0"

# the names that live in one solver route, each with the module of its route;
# the route loads on the first read of one of them, here through __getattr__
# and in cli through its own, so a process loads only the route it runs
_ROUTES = dict.fromkeys((
    "Costate", "FlowDivergedError", "ShootingSettings", "ShootingTrajectory",
    "SingularJacobianError", "abnormal_diagnostic", "hamiltonian",
    "optimal_control", "optimal_hamiltonian", "pmp_rhs", "shooting_residual",
    "solve_shooting", "trajectory_cost",
), "pmp") | dict.fromkeys((
    "DelSettings", "DiagnosticSeries", "DiscreteTrajectory", "RegularityError",
    "RegularityReport", "continuous_optimality_residual", "del_residual",
    "diagnostics", "discrete_constraint", "discrete_lagrangian",
    "ocp_lagrangian", "reconstructed_control", "regularity_check", "solve_del",
), "varint")

# the public names: those imported above (the submodules they come from are
# not callable) and the route names
__all__ = sorted(
    [name for name, value in globals().items()
     if callable(value) and not name.startswith("_")] + list(_ROUTES)
)
# the routes' entry checks, for cli only
_ROUTES |= {"check_shooting": "pmp", "check_del": "varint"}


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
