"""Nonholonomic system models in adapted coordinates.

A system lives on a configuration space Q of dimension n with a rank n - m
constraint distribution D.  Admissible velocities are parameterized by
quasi-velocities v relative to a basis of vector fields spanning D, collected
in the n x (n-m) matrix rho(q):

    qdot^i = rho^i_A(q) v^A
    vdot^A = -Gamma^A_{BC}(q) v^B v^C - potential_grad^A(q) + u^A

The annihilator rows mu^a_i(q) span the constraint one-forms, so a velocity is
admissible iff annihilator(q) . qdot = 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class SystemModel:
    """Immutable description of a nonholonomic system in adapted coordinates.

    All callables are pure functions of the configuration q and safe to call
    concurrently.  Each one takes q of shape (..., n) and returns its array
    with the same leading axes, row by row equal to the single-point result:
    for q of shape (N, n), rho(q) has shape (N, n, n-m) and rho(q)[i] equals
    rho(q[i]).  The solvers rely on this to evaluate a whole grid of nodes,
    or a stack of probe flows, in one call; `nhtrack check` verifies it.
    Index conventions (single point, the leading axes omitted); the three
    Jacobians are required and exact, and each is read by the one geometry
    function named after it alone (and by `nhtrack check`, which tests it):

    - rho(q)[i, A] = rho^i_A
    - rho_jac(q)[i, A, j] = d rho^i_A / d q^j (frame_derivative)
    - christoffel(q)[A, B, C] = Gamma^A_{BC}, contracted as
      Gamma^A_{BC} v^B v^C in the dynamics
    - metric_d(q)[A, B] = (G_D)_{AB}, symmetric positive definite
    - potential_grad(q)[A] = (G_D)^{AB} rho^i_B dV/dq^i (zero for the
      built-in models, which carry no potential)
    - potential_grad_jac(q)[A, j] = d potential_grad^A / d q^j (drift)
    - annihilator(q)[a, i] = mu^a_i
    - christoffel_jac(q)[A, B, C, j] = d Gamma^A_{BC} / d q^j (drift)
    """

    n: int
    corank: int
    rho: Callable[[Array], Array]
    rho_jac: Callable[[Array], Array]
    christoffel: Callable[[Array], Array]
    christoffel_jac: Callable[[Array], Array]
    metric_d: Callable[[Array], Array]
    potential_grad: Callable[[Array], Array]
    potential_grad_jac: Callable[[Array], Array]
    annihilator: Callable[[Array], Array]
    angle_indices: frozenset[int] = field(default_factory=frozenset)
    name: str = "unnamed"

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"SystemModel.n must be positive, got {self.n}")
        if not 0 < self.corank < self.n:
            raise ValueError(
                f"SystemModel.corank must lie in (0, n), got {self.corank}"
            )
        bad = [i for i in self.angle_indices if not 0 <= i < self.n]
        if bad:
            raise ValueError(f"SystemModel.angle_indices out of range: {bad}")

    @property
    def rank(self) -> int:
        """Rank of the distribution, n - m."""
        return self.n - self.corank


@dataclass(frozen=True)
class AdmissibleState:
    """A point of the constraint distribution: configuration q plus
    quasi-velocities v.  The induced configuration velocity is rho(q) v by
    construction, so every AdmissibleState lies on D."""

    q: Array
    v: Array

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))

    def as_vector(self) -> Array:
        return np.concatenate([self.q, self.v])

    @staticmethod
    def from_vector(y: Array, n: int) -> "AdmissibleState":
        y = np.asarray(y, dtype=float)
        return AdmissibleState(q=y[:n].copy(), v=y[n:].copy())


def _check_state(model: SystemModel, state: AdmissibleState) -> None:
    """Accepts one point, q (n,) and v (n-m,), or a stack of them with
    matching leading axes."""
    if state.q.shape[-1:] != (model.n,):
        raise ValueError(
            f"state.q has shape {state.q.shape}, expected (..., {model.n})"
        )
    if state.v.shape != state.q.shape[:-1] + (model.rank,):
        raise ValueError(
            f"state.v has shape {state.v.shape}, expected "
            f"{state.q.shape[:-1] + (model.rank,)}"
        )


def _outer(x: Array, y: Array) -> Array:
    """x^i y^j for x (..., a) and y (..., b), with leading axes broadcast:
    one product per entry, taken as a matmul of one-wide cores, which on a
    stack of rows costs less than the broadcast product."""
    return x[..., :, None] @ y[..., None, :]


def admissibility_velocity(model: SystemModel, state: AdmissibleState) -> Array:
    """Configuration velocity qdot = rho(q) v induced by a point of D."""
    _check_state(model, state)
    return np.matvec(model.rho(state.q), state.v)


def _rates(model: SystemModel, q: Array, v: Array, u: Array) -> tuple[Array, Array]:
    """(qdot, vdot) of the controlled dynamics, unchecked; q, v and u may
    carry leading axes that broadcast."""
    return np.matvec(model.rho(q), v), u - drift(model, q, v)[0]


def dynamics_rhs(
    model: SystemModel,
    state: AdmissibleState,
    u: Array,
) -> tuple[Array, Array]:
    """Controlled equations of motion in adapted coordinates.

    Returns (qdot, vdot) with qdot = rho(q) v and
    vdot^A = -Gamma^A_{BC} v^B v^C - potential_grad^A + u^A.  The state may
    be a stack of points (leading axes on q and v); u is broadcast over it.
    """
    _check_state(model, state)
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (model.rank,):
        raise ValueError(f"u has shape {u.shape}, expected (..., {model.rank})")
    return _rates(model, state.q, state.v, u)


def _state_field(model: SystemModel, u: Array) -> Callable[[float, Array], Array]:
    """Vector field f(t, y) of the controlled dynamics at the fixed control
    u, on packed states y = (q, v) of shape (..., n + k); a stack of states
    advances row by row in one call."""
    n, u = model.n, np.asarray(u, dtype=float)

    def field(t: float, y: Array) -> Array:
        qdot, vdot = _rates(model, y[..., :n], y[..., n:], u)
        return np.concatenate([qdot, vdot], axis=-1)

    return field


def drift(
    model: SystemModel, q: Array, v: Array
) -> tuple[Array, Callable[[Array], tuple[Array, Array]]]:
    """Drift a = Gamma(q) v v + potential_grad(q) of vdot = u - a, with the
    pullback of its derivatives along a covector.

    Returns (a, pullback).  pullback(w), for a covector w on the
    quasi-velocities, returns (w a_q, w a_v): (w a_q)_j = w_A d a^A / d q^j
    from the exact Christoffel and potential-gradient Jacobians, and
    (w a_v)_A = w_B d a^B / d v^A = w_B (Gamma^B_{AC} + Gamma^B_{CA}) v^C.
    These are vector-Jacobian products (Griewank & Walther, Evaluating
    Derivatives, 2nd ed., 2008, ch. 3), so a_q and a_v are never formed, and
    the model's Jacobians are read only when pullback is called.  q (..., n),
    v and w (..., n-m) carry matching leading axes (q and v may broadcast
    when only a is read); so do the results.
    """
    gam = model.christoffel(q)
    a = np.matvec(np.matvec(gam, v[..., None, :]), v) + model.potential_grad(q)

    def pullback(w: Array) -> tuple[Array, Array]:
        # each term is one contraction per row of a flattened outer product
        # of w and v, (w v)[B, C] and (w v v)[A, B, C], with a flattened
        # view of a model array
        k, lead = v.shape[-1], v.shape[:-1]
        wv = _outer(w, v).reshape(lead + (k * k,))
        wvv = _outer(wv, v).reshape(lead + (k**3,))
        jac = model.christoffel_jac(q).reshape(lead + (k**3, -1))
        w_aq = np.vecmat(wvv, jac) + np.vecmat(w, model.potential_grad_jac(q))
        # Gamma + Gamma^T is symmetric in its last two slots, so its view
        # with rows (B, C) and column A holds Gamma^B_{AC} + Gamma^B_{CA}
        sym = (gam + gam.swapaxes(-1, -2)).reshape(lead + (k * k, k))
        return w_aq, np.vecmat(wv, sym)

    return a, pullback


def frame_derivative(
    model: SystemModel, q: Array, v: Array, w: Array | None = None
) -> Array:
    """Frame derivative R = d(rho v)/dq, R[j, i] = sum_A d rho^j_A/dq^i v^A,
    of shape (..., n, n), from the exact rho_jac; given a covector w (..., n),
    its pullback w R instead, one contraction of the flattened w v against
    rho_jac viewed as (n k, n).  q, v and w carry matching leading axes."""
    n, lead = model.n, v.shape[:-1]
    jac = model.rho_jac(q)
    if w is None:
        jac = jac.swapaxes(-2, -3).reshape(lead + (-1, n * n))
        return np.vecmat(v, jac).reshape(lead + (n, n))
    wv = _outer(w, v).reshape(lead + (-1,))
    return np.vecmat(wv, jac.reshape(wv.shape + (n,)))


def constraint_residual(model: SystemModel, q: Array, qdot: Array) -> Array:
    """Constraint one-forms evaluated on a velocity: annihilator(q) . qdot.

    Zero exactly when qdot lies in the distribution at q.  q (..., n) and
    qdot (..., n) may carry matching leading axes; the result, of shape
    (..., m), then holds one residual per row.
    """
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    return np.matvec(model.annihilator(q), qdot)


def christoffel_from_structure(structure: Array) -> Array:
    """Connection coefficients from bracket structure constants.

    For a frame whose brackets have constant-coefficient expansion
    [e_A, e_B] = C^C_{AB} e_C with C antisymmetric in the lower indices,
    returns

        Gamma^C_{AB} = (C^B_{CA} + C^A_{CB} + C^C_{AB}) / 2.

    Input and output layout: array[X, Y, Z] = (.)^X_{YZ}.  The formula is the
    orthonormal-frame specialization; frames that are orthogonal but not
    orthonormal in the constrained metric fall outside its domain and must
    supply their Christoffel symbols directly.
    """
    s = np.asarray(structure, dtype=float)
    if s.ndim != 3 or len(set(s.shape)) != 1:
        raise ValueError(f"structure must be a cubic 3-d array, got {s.shape}")
    if not np.allclose(s, -np.transpose(s, (0, 2, 1)), atol=1e-12):
        raise ValueError("structure constants must satisfy C^C_AB = -C^C_BA")
    term_b_ca = np.einsum("bca->cab", s)
    term_a_cb = np.einsum("acb->cab", s)
    return 0.5 * (term_b_ca + term_a_cb + s)


def restricted_energy(model: SystemModel, state: AdmissibleState) -> float | Array:
    """Kinetic energy of the constrained metric, (1/2) v^T G_D(q) v.

    The built-in models carry no potential, so this is the conserved energy
    of their uncontrolled flow.  One point gives a scalar; a stack of points
    (leading axes on q and v) gives an array of those axes, one energy per
    row.
    """
    _check_state(model, state)
    g = model.metric_d(state.q)
    return 0.5 * np.vecdot(np.vecmat(state.v, g), state.v)


def wrap_angle(x: Array | float) -> Array | float:
    """Wrap angle differences into (-pi, pi]."""
    return -np.mod(-np.asarray(x) + np.pi, 2.0 * np.pi) + np.pi


def state_difference(
    model: SystemModel, state: AdmissibleState, other: AdmissibleState
) -> tuple[Array, Array]:
    """Componentwise (q - q', v - v') with angle components wrapped
    into (-pi, pi]."""
    dq = state.q - other.q
    for i in model.angle_indices:
        dq[..., i] = wrap_angle(dq[..., i])
    return dq, state.v - other.v
