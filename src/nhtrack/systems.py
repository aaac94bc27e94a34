"""Built-in benchmark systems: the nonholonomic particle and the Chaplygin
sleigh, both expressed in adapted coordinates."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SystemModel, christoffel_from_structure

Array = np.ndarray


def _zeros(*shape: int):
    """A model callable that returns zeros of this shape after q's leading
    axes."""
    return lambda q: np.zeros(q.shape[:-1] + shape)


@dataclass(frozen=True)
class SleighParams:
    """Physical parameters of the Chaplygin sleigh.

    mass_m: body mass (kg), inertia_J: moment of inertia about the contact
    point axis (kg m^2), offset_a: distance from the contact point to the
    center of mass (m).  The quadratic coupling coefficient is
    eta = a sqrt(m) / (J + m a^2).
    """

    mass_m: float = 1.0
    inertia_J: float = 4.0
    offset_a: float = 0.2

    def __post_init__(self) -> None:
        for name in ("mass_m", "inertia_J", "offset_a"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mass_m <= 0:
            raise ValueError(f"mass_m must be positive, got {self.mass_m}")
        if self.inertia_J <= 0:
            raise ValueError(f"inertia_J must be positive, got {self.inertia_J}")
        if self.offset_a < 0:
            raise ValueError(f"offset_a must be nonnegative, got {self.offset_a}")

    @property
    def eta(self) -> float:
        return (
            self.offset_a
            * math.sqrt(self.mass_m)
            / (self.inertia_J + self.mass_m * self.offset_a**2)
        )


def particle_model() -> SystemModel:
    """Particle in R^3 subject to the nonholonomic constraint xdot + y zdot = 0.

    Adapted basis Y_1 = d/dy, Y_2 = -y d/dx + d/dz, so q = (x, y, z) and
    v = (v1, v2) with xdot = -y v2, ydot = v1, zdot = v2.  The constrained
    metric is diag(1, 1 + y^2); its only nonzero connection coefficient is
    Gamma^2_{12} = y / (1 + y^2), giving

        v1dot = u1,    v2dot = -(y / (1 + y^2)) v1 v2 + u2.

    Note the basis is orthogonal but not orthonormal (Y_2 has squared length
    1 + y^2), so the stored Gamma is the metric one, not the output of
    christoffel_from_structure on this frame's structure constants.
    """

    def rho(q: Array) -> Array:
        out = np.zeros(q.shape[:-1] + (3, 2))
        out[..., 0, 1] = -q[..., 1]
        out[..., 1, 0] = 1.0
        out[..., 2, 1] = 1.0
        return out

    def rho_jac(q: Array) -> Array:
        jac = np.zeros(q.shape[:-1] + (3, 2, 3))
        jac[..., 0, 1, 1] = -1.0
        return jac

    def christoffel(q: Array) -> Array:
        y = q[..., 1]
        gamma = np.zeros(q.shape[:-1] + (2, 2, 2))
        gamma[..., 1, 0, 1] = y / (1.0 + y * y)
        return gamma

    def christoffel_jac(q: Array) -> Array:
        y = q[..., 1]
        jac = np.zeros(q.shape[:-1] + (2, 2, 2, 3))
        jac[..., 1, 0, 1, 1] = (1.0 - y * y) / (1.0 + y * y) ** 2
        return jac

    def metric_d(q: Array) -> Array:
        y = q[..., 1]
        g = np.zeros(q.shape[:-1] + (2, 2))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = 1.0 + y * y
        return g

    def annihilator(q: Array) -> Array:
        mu = np.zeros(q.shape[:-1] + (1, 3))
        mu[..., 0, 0] = 1.0
        mu[..., 0, 2] = q[..., 1]
        return mu

    return SystemModel(
        n=3,
        corank=1,
        rho=rho,
        rho_jac=rho_jac,
        christoffel=christoffel,
        metric_d=metric_d,
        potential_grad=_zeros(2),
        potential_grad_jac=_zeros(2, 3),
        annihilator=annihilator,
        angle_indices=frozenset(),
        name="particle",
        christoffel_jac=christoffel_jac,
    )


def particle_structure_constants(q: Array) -> Array:
    """Bracket structure constants of the particle's adapted frame:
    [Y_1, Y_2] = (y / (1 + y^2)) Y_2, layout C[c, a, b] = C^c_{ab}."""
    y = np.asarray(q, dtype=float)[1]
    c = np.zeros((2, 2, 2))
    c[1, 0, 1] = y / (1.0 + y * y)
    c[1, 1, 0] = -c[1, 0, 1]
    return c


def sleigh_model(params: SleighParams = SleighParams()) -> SystemModel:
    """Chaplygin sleigh in its orthonormal adapted frame.

    q = (x1, x2, theta); the knife-edge constraint is
    sin(theta) x1dot - cos(theta) x2dot = 0.  With s = sqrt(J + m a^2) the
    frame columns are e_1 = (0, 0, 1/s) and
    e_2 = (cos theta / sqrt(m), sin theta / sqrt(m), 0); the constrained
    metric in this frame is the identity and the dynamics read

        v1dot = -eta v1 v2 + u1,    v2dot = eta (v1)^2 + u2.

    Gamma is christoffel_from_structure of sleigh_structure_constants, the
    orthonormal-frame formula (Gamma^1_{12} = eta, Gamma^2_{11} = -eta),
    which contracts to exactly these equations.
    """
    inv_s = 1.0 / math.sqrt(params.inertia_J + params.mass_m * params.offset_a**2)
    inv_sm = 1.0 / math.sqrt(params.mass_m)

    def rho(q: Array) -> Array:
        th = q[..., 2]
        out = np.zeros(q.shape[:-1] + (3, 2))
        out[..., 0, 1] = np.cos(th) * inv_sm
        out[..., 1, 1] = np.sin(th) * inv_sm
        out[..., 2, 0] = inv_s
        return out

    def rho_jac(q: Array) -> Array:
        th = q[..., 2]
        jac = np.zeros(q.shape[:-1] + (3, 2, 3))
        jac[..., 0, 1, 2] = -np.sin(th) * inv_sm
        jac[..., 1, 1, 2] = np.cos(th) * inv_sm
        return jac

    gamma_const = christoffel_from_structure(sleigh_structure_constants(params))

    def christoffel(q: Array) -> Array:
        return np.zeros(q.shape[:-1] + (2, 2, 2)) + gamma_const

    def metric_d(q: Array) -> Array:
        return np.zeros(q.shape[:-1] + (2, 2)) + np.eye(2)

    def annihilator(q: Array) -> Array:
        th = q[..., 2]
        mu = np.zeros(q.shape[:-1] + (1, 3))
        mu[..., 0, 0] = np.sin(th)
        mu[..., 0, 1] = -np.cos(th)
        return mu

    return SystemModel(
        n=3,
        corank=1,
        rho=rho,
        rho_jac=rho_jac,
        christoffel=christoffel,
        metric_d=metric_d,
        potential_grad=_zeros(2),
        potential_grad_jac=_zeros(2, 3),
        annihilator=annihilator,
        angle_indices=frozenset({2}),
        name="sleigh",
        christoffel_jac=_zeros(2, 2, 2, 3),
    )


def sleigh_structure_constants(params: SleighParams) -> Array:
    """Structure constants of the sleigh frame: [e_1, e_2] = eta e_1,
    layout C[c, a, b] = C^c_{ab}.  Constant in q (the frame is of constant
    bracket type)."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = params.eta
    c[0, 1, 0] = -params.eta
    return c


SLEIGH_PRESETS: dict[str, SleighParams] = {
    "paper-5.1": SleighParams(mass_m=1.0, inertia_J=4.0, offset_a=0.2),
}


def available_systems() -> list[str]:
    """Preset names accepted by resolve_system, for CLI listings."""
    names = ["particle"]
    names.extend(f"sleigh:{key}" for key in sorted(SLEIGH_PRESETS))
    names.append("sleigh:custom")
    return names


def resolve_system(
    name: str,
    *,
    mass_m: float | None = None,
    inertia_J: float | None = None,
    offset_a: float | None = None,
) -> SystemModel:
    """Resolve a system preset name into a SystemModel.

    Accepted names: "particle", "sleigh" (default parameters),
    "sleigh:<preset>" for a named parameter set, or "sleigh:custom" with all
    of mass_m, inertia_J, offset_a supplied; any other preset carries its
    own parameters and refuses these.
    """
    params = {"mass_m": mass_m, "inertia_J": inertia_J, "offset_a": offset_a}
    if name == "sleigh:custom":
        missing = [field for field, value in params.items() if value is None]
        if missing:
            raise ValueError(f"sleigh:custom requires parameters {', '.join(missing)}")
        return sleigh_model(SleighParams(**params))
    if name == "particle":
        model = particle_model()
    elif name == "sleigh":
        model = sleigh_model()
    elif name.startswith("sleigh:"):
        key = name.split(":", 1)[1]
        if key not in SLEIGH_PRESETS:
            raise ValueError(
                f"unknown sleigh preset {key!r}; known: {sorted(SLEIGH_PRESETS)}"
            )
        model = sleigh_model(SLEIGH_PRESETS[key])
    else:
        raise ValueError(f"unknown system {name!r}; known: {available_systems()}")
    if set(params.values()) != {None}:
        raise ValueError(
            "mass_m/inertia_J/offset_a apply to preset sleigh:custom only; "
            f"preset {name!r} carries its own parameters"
        )
    return model
