"""Structure-preserving direct solver for the tracking problem.

The running cost is pulled back to second-order data: with the control
eliminated through the dynamics, u^A = vdot^A + Gamma^A_{CB} v^C v^B +
potential_grad^A, the cost becomes a Lagrangian

    L(t, q, v, vdot) = lambda0/2 (||q - q_r||^2 + ||v - v_r||^2 + eps ||u||^2)

on positions, quasi-velocities, and their accelerations.  Admissibility
qdot = rho(q) v is enforced with multipliers lambda(t); the optimality
conditions used throughout this module pair the multiplier as
Ltilde = L + lambda . (qdot - rho v), i.e.

    lambdadot_i = dL/dq^i - lambda_j (drho^j_A/dq^i) v^A,
    d/dt(dL/dvdot^A) = dL/dv^A - rho^i_A lambda_i,

(a sign convention; the mirrored pairing is the same system under
lambda -> -lambda).

The discrete side applies the midpoint rule on a uniform grid: L_d =
h L(t_{k+1/2}, midpoint q, midpoint v, difference-quotient vdot), the
interval constraint Psi_d = (q_{k+1} - q_k)/h - rho(midpoint q) (midpoint v),
and the constrained discrete Euler-Lagrange system over interior nodes with
multipliers lambda^k for k = 1 .. N-1 (the first interval is unconstrained by
default because the initial state is prescribed admissible).  solve_del is a
damped Newton iteration on that system; its Jacobian is block-tridiagonal in
the node index and is factored block-row by block-row.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    AdmissibleState,
    SystemModel,
    drift,
    restricted_energy,
    state_difference,
)
from .ode import TimeGrid
from .pmp import (
    ConvergenceReport,
    NewtonSettings,
    TrackingProblem,
    damped_newton,
    running_cost,
)

Array = np.ndarray

PSI_VARIANTS = ("midpoint", "difference-quotient")
GUESS_MODES = ("linear-interpolation", "reference-samples")

# condition-estimate ceiling for calling the one-step matrix nonsingular
REGULARITY_COND_LIMIT = 1e12


class RegularityError(RuntimeError):
    """The constrained Newton system lost rank.

    Raised when a block factorization of the discrete Euler-Lagrange
    Jacobian fails; see regularity_check for the one-step solvability
    test (the M-matrix) at a single node pair.
    """


@dataclass(frozen=True)
class DelSettings(NewtonSettings):
    """Newton and discretization settings for the variational solve.

    psi_variant selects the velocity slot of the interval constraint:
    "midpoint" uses the average (v_k + v_{k+1})/2 (the default, consistent
    with qdot = rho v dimensionally), "difference-quotient" the literal
    (v_{k+1} - v_k)/h variant kept for comparison.  enforce_first_interval
    appends Psi_d = 0 on interval 0 with its own multiplier lambda^0
    (default false: the initial state is given admissible).
    """

    newton_tol: float = 1e-10
    max_iters: int = 100
    initial_guess_mode: str = "linear-interpolation"
    enforce_first_interval: bool = False
    psi_variant: str = "midpoint"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.initial_guess_mode not in GUESS_MODES:
            raise ValueError(
                f"initial_guess_mode must be one of {GUESS_MODES}, "
                f"got {self.initial_guess_mode!r}"
            )
        if self.psi_variant not in PSI_VARIANTS:
            raise ValueError(
                f"psi_variant must be one of {PSI_VARIANTS}, "
                f"got {self.psi_variant!r}"
            )


@dataclass(frozen=True)
class DiscreteTrajectory:
    """Solution data of the discrete Euler-Lagrange system.

    nodes k = 0 .. N carry (q_k, v_k); multipliers holds lambda^k for
    k = 1 .. N-1 (row k-1); lambda_zero is the first-interval multiplier
    when it was enforced, else None; controls holds the per-interval
    recovered inputs u_k for k = 0 .. N-1.
    """

    h: float
    times: Array
    q: Array
    v: Array
    multipliers: Array
    controls: Array
    lambda_zero: Array | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(
            self, "multipliers", np.asarray(self.multipliers, dtype=float)
        )
        object.__setattr__(self, "controls", np.asarray(self.controls, dtype=float))
        if self.h <= 0:
            raise ValueError(f"h must be positive, got {self.h}")
        nodes = len(self.times)
        if nodes < 3:
            raise ValueError("a discrete trajectory needs at least 3 nodes")
        if self.q.shape[0] != nodes or self.v.shape[0] != nodes:
            raise ValueError("node count mismatch between times, q, and v")
        if self.multipliers.shape[0] != nodes - 2:
            raise ValueError(
                f"expected {nodes - 2} interior multipliers, "
                f"got {self.multipliers.shape[0]}"
            )
        if self.controls.shape[0] != nodes - 1:
            raise ValueError(
                f"expected {nodes - 1} interval controls, "
                f"got {self.controls.shape[0]}"
            )

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    def node(self, k: int) -> AdmissibleState:
        return AdmissibleState(q=self.q[k].copy(), v=self.v[k].copy())


@dataclass(frozen=True)
class RegularityReport:
    condition: float
    nonsingular: bool


@dataclass(frozen=True)
class DiagnosticSeries:
    """Per-node series emitted for CSV: running cost (control from the
    interval starting at the node, last node reuses the final interval),
    cumulative action, restricted energy, and the interval constraint
    residual max-norm (again indexed by the interval's left node)."""

    times: Array
    cost: Array
    action: Array
    energy: Array
    constraint_residual: Array


# ---------------------------------------------------------------------------
# continuous second-order Lagrangian


def reconstructed_control(model: SystemModel, q: Array, v: Array, vdot: Array) -> Array:
    """Control that produces the acceleration vdot at (q, v):
    u = vdot + Gamma(q) v v + potential_grad(q)."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    vdot = np.asarray(vdot, dtype=float)
    return vdot + (model.christoffel(q) @ v) @ v + model.potential_grad(q)


def ocp_lagrangian(
    model: SystemModel,
    problem: TrackingProblem,
    t: float,
    q: Array,
    v: Array,
    vdot: Array,
) -> float:
    """Tracking cost as a function of second-order data (control
    eliminated through the dynamics)."""
    u = reconstructed_control(model, q, v, vdot)
    state = AdmissibleState(q=q, v=v)
    return problem.lambda0 * running_cost(model, problem, t, state, u)


def _lagrangian_gradients(
    model: SystemModel,
    problem: TrackingProblem,
    t: float,
    q: Array,
    v: Array,
    vdot: Array,
) -> tuple[Array, Array, Array]:
    """(dL/dq, dL/dv, dL/dvdot) of ocp_lagrangian, exact through the
    drift derivatives u = vdot + a(q, v)."""
    lam0 = problem.lambda0
    eps = problem.epsilon
    sw = problem.state_weight
    ref = problem.reference(t)
    dq, dv = state_difference(model, AdmissibleState(q=q, v=v), ref)
    a, du_dq, du_dv = drift(model, q, v)
    u = vdot + a

    grad_q = lam0 * (sw * dq + eps * (u @ du_dq))
    grad_v = lam0 * (sw * dv + eps * (du_dv.T @ u))
    grad_vdot = lam0 * eps * u
    return grad_q, grad_v, grad_vdot


def continuous_optimality_residual(
    model: SystemModel,
    problem: TrackingProblem,
    times: Array,
    q_series: Array,
    v_series: Array,
    lam_series: Array,
) -> Array:
    """Residual of the continuous optimality system along a sampled arc.

    Per interior sample (ends are used only for differencing) the rows are,
    in order:

        lambdadot_i - dL/dq^i + lambda_j (drho^j_A/dq^i) v^A      (n rows)
        qdot^i - rho^i_A v^A                                      (n rows)
        d/dt(dL/dvdot_A) - dL/dv^A + rho^i_A lambda_i             (n-m rows)

    with all time derivatives (including the vdot fed to L) taken by
    second-order differences of the samples.  Returns the samples stacked
    into one flat vector.
    """
    times = np.asarray(times, dtype=float)
    q_series = np.asarray(q_series, dtype=float)
    v_series = np.asarray(v_series, dtype=float)
    lam_series = np.asarray(lam_series, dtype=float)
    if len(times) < 3:
        raise ValueError("need at least 3 samples to difference the arc")
    n, k = model.n, model.rank
    if q_series.shape != (len(times), n) or v_series.shape != (len(times), k):
        raise ValueError("sample shape mismatch against the model dimensions")
    if lam_series.shape != (len(times), n):
        raise ValueError("multiplier samples must be n-vectors per time")

    qdot = np.gradient(q_series, times, axis=0, edge_order=2)
    vdot = np.gradient(v_series, times, axis=0, edge_order=2)
    lamdot = np.gradient(lam_series, times, axis=0, edge_order=2)

    p = np.empty_like(v_series)
    grad_q = np.empty_like(q_series)
    grad_v = np.empty_like(v_series)
    for idx, t in enumerate(times):
        gq, gv, gvd = _lagrangian_gradients(
            model, problem, t, q_series[idx], v_series[idx], vdot[idx]
        )
        grad_q[idx] = gq
        grad_v[idx] = gv
        p[idx] = gvd
    pdot = np.gradient(p, times, axis=0, edge_order=2)

    rows = []
    for idx in range(1, len(times) - 1):
        q = q_series[idx]
        v = v_series[idx]
        lam = lam_series[idx]
        rjac = model.rho_jac(q)
        pull = (lam @ rjac.reshape(n, -1)).reshape(k, n)
        res_q = lamdot[idx] - grad_q[idx] + v @ pull
        res_adm = qdot[idx] - model.rho(q) @ v
        res_v = pdot[idx] - grad_v[idx] + model.rho(q).T @ lam
        rows.append(np.concatenate([res_q, res_adm, res_v]))
    return np.concatenate(rows)


# ---------------------------------------------------------------------------
# midpoint discretization


def _interval_data(
    node_k: AdmissibleState, node_k1: AdmissibleState, h: float
) -> tuple[Array, Array, Array]:
    q_mid = 0.5 * (node_k.q + node_k1.q)
    v_mid = 0.5 * (node_k.v + node_k1.v)
    v_dq = (node_k1.v - node_k.v) / h
    return q_mid, v_mid, v_dq


def discrete_constraint(
    model: SystemModel,
    node_k: AdmissibleState,
    node_k1: AdmissibleState,
    h: float,
    psi_variant: str = "midpoint",
) -> Array:
    """Interval admissibility residual
    Psi_d = (q_{k+1} - q_k)/h - rho(midpoint q) . (velocity slot)."""
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    if psi_variant not in PSI_VARIANTS:
        raise ValueError(f"psi_variant must be one of {PSI_VARIANTS}")
    q_mid, v_mid, v_dq = _interval_data(node_k, node_k1, h)
    v_slot = v_mid if psi_variant == "midpoint" else v_dq
    return (node_k1.q - node_k.q) / h - model.rho(q_mid) @ v_slot


def discrete_lagrangian(
    model: SystemModel,
    problem: TrackingProblem,
    node_k: AdmissibleState,
    node_k1: AdmissibleState,
    t_k: float,
    h: float,
) -> float:
    """Midpoint quadrature of the second-order Lagrangian over one interval:
    |h| L(t_k + h/2, midpoint q, midpoint v, difference-quotient vdot).
    The unsigned weight makes the value independent of traversal direction,
    so exchanging the nodes while negating h reproduces it exactly."""
    if h == 0:
        raise ValueError("h must be nonzero")
    q_mid, v_mid, v_dq = _interval_data(node_k, node_k1, h)
    return abs(h) * ocp_lagrangian(
        model, problem, t_k + 0.5 * h, q_mid, v_mid, v_dq
    )


def _lagrangian_slots(
    model: SystemModel,
    problem: TrackingProblem,
    node_k: AdmissibleState,
    node_k1: AdmissibleState,
    t_k: float,
    h: float,
) -> tuple[Array, Array, Array, Array]:
    """(D1, D2, D3, D4) of the discrete Lagrangian: derivatives with
    respect to q_k, v_k, q_{k+1}, v_{k+1} through the midpoint arguments."""
    q_mid, v_mid, v_dq = _interval_data(node_k, node_k1, h)
    gq, gv, gvd = _lagrangian_gradients(
        model, problem, t_k + 0.5 * h, q_mid, v_mid, v_dq
    )
    d1 = 0.5 * h * gq
    d3 = d1.copy()
    d2 = 0.5 * h * gv - gvd
    d4 = 0.5 * h * gv + gvd
    return d1, d2, d3, d4


def _constraint_slots(
    model: SystemModel,
    node_k: AdmissibleState,
    node_k1: AdmissibleState,
    h: float,
    psi_variant: str,
) -> tuple[Array, Array, Array, Array]:
    """(D1, D2, D3, D4) of Psi_d, exact: D1/D3 are (n, n), D2/D4 (n, n-m)."""
    n = model.n
    q_mid, v_mid, v_dq = _interval_data(node_k, node_k1, h)
    v_slot = v_mid if psi_variant == "midpoint" else v_dq
    rho = model.rho(q_mid)
    # R[j, i] = sum_A drho^j_A/dq^i (at the midpoint) v_slot^A
    r_mat = np.tensordot(model.rho_jac(q_mid), v_slot, axes=([1], [0]))
    eye_h = np.eye(n) / h
    d1 = -eye_h - 0.5 * r_mat
    d3 = eye_h - 0.5 * r_mat
    if psi_variant == "midpoint":
        d2 = -0.5 * rho
        d4 = -0.5 * rho
    else:
        d2 = rho / h
        d4 = -rho / h
    return d1, d2, d3, d4


# ---------------------------------------------------------------------------
# discrete Euler-Lagrange residual


def _interval_gradients(
    model: SystemModel,
    problem: TrackingProblem,
    node_k: AdmissibleState,
    node_k1: AdmissibleState,
    lam: Array,
    t_k: float,
    h: float,
    psi_variant: str,
) -> tuple[Array, Array, Array, Array]:
    """Slot gradients of the augmented interval term L_d + lam . Psi_d."""
    l1, l2, l3, l4 = _lagrangian_slots(model, problem, node_k, node_k1, t_k, h)
    p1, p2, p3, p4 = _constraint_slots(model, node_k, node_k1, h, psi_variant)
    return l1 + lam @ p1, l2 + lam @ p2, l3 + lam @ p3, l4 + lam @ p4


def _interval_hessian(
    model: SystemModel,
    problem: TrackingProblem,
    node_k: AdmissibleState,
    node_k1: AdmissibleState,
    lam: Array,
    t_k: float,
    h: float,
    psi_variant: str,
    step: float,
) -> Array:
    """Hessian of L_d + lam . Psi_d over (q_k, v_k, q_{k+1}, v_{k+1}), by
    central differences of step `step` of the exact slot gradients,
    symmetrized."""
    n, nv = model.n, model.n + model.rank

    def grad(x: Array) -> Array:
        nk = AdmissibleState(q=x[:n], v=x[n:nv])
        nk1 = AdmissibleState(q=x[nv : nv + n], v=x[nv + n :])
        g = _interval_gradients(model, problem, nk, nk1, lam, t_k, h, psi_variant)
        return np.concatenate(g)

    x0 = np.concatenate([node_k.q, node_k.v, node_k1.q, node_k1.v])
    hess = np.empty((2 * nv, 2 * nv))
    for c in range(2 * nv):
        xp = x0.copy()
        xp[c] += step
        xm = x0.copy()
        xm[c] -= step
        hess[:, c] = (grad(xp) - grad(xm)) / (2 * step)
    return 0.5 * (hess + hess.T)


def del_residual(
    model: SystemModel,
    problem: TrackingProblem,
    traj: DiscreteTrajectory,
    settings: DelSettings = DelSettings(),
    boundary: tuple[AdmissibleState, AdmissibleState] | None = None,
) -> Array:
    """Stacked discrete Euler-Lagrange system at the trajectory's nodes.

    Per interior node k = 1 .. N-1, in order: the q-stationarity rows
    D1(L_d + lam^k Psi)(k) + D3(L_d + lam^{k-1} Psi)(k-1), the
    v-stationarity rows D2(...)(k) + D4(...)(k-1), and the interval
    constraint Psi_d(k).  lambda^0 is zero unless
    settings.enforce_first_interval, in which case traj.lambda_zero is used
    and the Psi_d(0) rows are prepended.  This vector is exactly the
    gradient of the extended discrete action (action sum plus the
    multiplier-weighted constraints) with respect to the interior unknowns
    in the same order.
    """
    n, kr = model.n, model.rank
    steps = traj.steps
    h = traj.h
    if boundary is not None:
        node_first, node_last = boundary
    else:
        node_first, node_last = traj.node(0), traj.node(steps)

    def node_at(k: int) -> AdmissibleState:
        if k == 0:
            return node_first
        if k == steps:
            return node_last
        return traj.node(k)

    if settings.enforce_first_interval:
        if traj.lambda_zero is None:
            raise ValueError(
                "enforce_first_interval requires traj.lambda_zero to be set"
            )
        lam0_vec = np.asarray(traj.lambda_zero, dtype=float)
    else:
        lam0_vec = np.zeros(n)

    def lam_at(j: int) -> Array:
        return lam0_vec if j == 0 else traj.multipliers[j - 1]

    pieces = []
    if settings.enforce_first_interval:
        pieces.append(
            discrete_constraint(model, node_at(0), node_at(1), h, settings.psi_variant)
        )
    # slot gradients of interval k-1 (reused as the loop advances)
    prev = _interval_gradients(
        model, problem, node_at(0), node_at(1), lam_at(0),
        traj.times[0], h, settings.psi_variant,
    )
    for k in range(1, steps):
        cur = _interval_gradients(
            model, problem, node_at(k), node_at(k + 1), lam_at(k),
            traj.times[k], h, settings.psi_variant,
        )
        pieces.append(cur[0] + prev[2])
        pieces.append(cur[1] + prev[3])
        pieces.append(
            discrete_constraint(
                model, node_at(k), node_at(k + 1), h, settings.psi_variant
            )
        )
        prev = cur
    out = np.concatenate(pieces)
    if not np.all(np.isfinite(out)):
        raise ArithmeticError("non-finite discrete Euler-Lagrange residual")
    return out


# ---------------------------------------------------------------------------
# block-tridiagonal Newton solve


def _solve_block_tridiagonal(
    lower: list[Array | None],
    diag: list[Array],
    upper: list[Array | None],
    rhs: list[Array],
) -> Array:
    """Block Thomas elimination; rhs blocks may carry multiple columns.

    Returns the stacked solution with the same column count as the rhs.
    """
    count = len(diag)
    diag = [d.copy() for d in diag]
    rhs = [np.atleast_2d(r.T).T.copy() for r in rhs]
    try:
        for i in range(1, count):
            if lower[i] is None:
                continue
            factor = np.linalg.solve(diag[i - 1].T, lower[i].T).T
            diag[i] -= factor @ upper[i - 1]
            rhs[i] -= factor @ rhs[i - 1]
        sol: list[Array] = [np.empty(0)] * count
        sol[count - 1] = np.linalg.solve(diag[count - 1], rhs[count - 1])
        for i in range(count - 2, -1, -1):
            acc = rhs[i]
            if upper[i] is not None:
                acc = acc - upper[i] @ sol[i + 1]
            sol[i] = np.linalg.solve(diag[i], acc)
    except np.linalg.LinAlgError as exc:
        raise RegularityError(
            "singular block in the discrete Euler-Lagrange Jacobian; "
            "the constrained system fails the one-step solvability "
            "(M-matrix) condition at some node pair -- see regularity_check"
        ) from exc
    return np.vstack(sol)


class _DelWorkspace:
    """Flat-vector view of the unknowns for the Newton iteration.

    The vector holds one block (q_k, v_k, lambda^k) per interior node
    k = 1 .. N-1, followed by lambda^0 when the first interval is enforced;
    the boundary nodes are pinned and not part of it.
    """

    def __init__(
        self,
        model: SystemModel,
        problem: TrackingProblem,
        grid: TimeGrid,
        settings: DelSettings,
        node_first: AdmissibleState,
        node_last: AdmissibleState,
    ) -> None:
        self.model = model
        self.problem = problem
        self.settings = settings
        self.node_first = node_first
        self.node_last = node_last
        self.n = model.n
        self.kr = model.rank
        self.steps = grid.steps
        self.times = grid.times()
        self.h = grid.h

    def initial_guess(self) -> Array:
        n, kr, steps = self.n, self.kr, self.steps
        q = np.empty((steps + 1, n))
        v = np.empty((steps + 1, kr))
        if self.settings.initial_guess_mode == "linear-interpolation":
            for i, s in enumerate(np.linspace(0.0, 1.0, steps + 1)):
                q[i] = (1 - s) * self.node_first.q + s * self.node_last.q
                v[i] = (1 - s) * self.node_first.v + s * self.node_last.v
        else:
            for i, t in enumerate(self.times):
                ref = self.problem.reference(float(t))
                q[i] = ref.q
                v[i] = ref.v
        lam = np.zeros((steps - 1, n))
        lam0 = np.zeros(n) if self.settings.enforce_first_interval else None
        return self.pack(q, v, lam, lam0)

    def pack(self, q: Array, v: Array, lam: Array, lam0: Array | None) -> Array:
        blocks = np.concatenate([q[1:-1], v[1:-1], lam], axis=1).ravel()
        return blocks if lam0 is None else np.concatenate([blocks, lam0])

    def unpack(self, x: Array) -> tuple[Array, Array, Array, Array | None]:
        n, kr, steps = self.n, self.kr, self.steps
        size = (steps - 1) * (2 * n + kr)
        blocks = x[:size].reshape(steps - 1, 2 * n + kr)
        q = np.empty((steps + 1, n))
        v = np.empty((steps + 1, kr))
        q[0], v[0] = self.node_first.q, self.node_first.v
        q[-1], v[-1] = self.node_last.q, self.node_last.v
        q[1:-1] = blocks[:, :n]
        v[1:-1] = blocks[:, n : n + kr]
        lam = blocks[:, n + kr :].copy()
        lam0 = x[size:].copy() if self.settings.enforce_first_interval else None
        return q, v, lam, lam0

    def trajectory(self, x: Array) -> DiscreteTrajectory:
        q, v, lam, lam0 = self.unpack(x)
        controls = np.empty((self.steps, self.kr))
        for j in range(self.steps):
            nk = AdmissibleState(q=q[j], v=v[j])
            nk1 = AdmissibleState(q=q[j + 1], v=v[j + 1])
            q_mid, v_mid, v_dq = _interval_data(nk, nk1, self.h)
            controls[j] = reconstructed_control(self.model, q_mid, v_mid, v_dq)
        return DiscreteTrajectory(
            h=self.h,
            times=self.times.copy(),
            q=q,
            v=v,
            multipliers=lam,
            controls=controls,
            lambda_zero=lam0,
        )

    def evaluate(self, x: Array) -> tuple[Array, None]:
        q, v, lam, lam0 = self.unpack(x)
        traj = DiscreteTrajectory(
            h=self.h,
            times=self.times,
            q=q,
            v=v,
            multipliers=lam,
            controls=np.zeros((self.steps, self.kr)),
            lambda_zero=lam0,
        )
        r = del_residual(
            self.model,
            self.problem,
            traj,
            self.settings,
            boundary=(self.node_first, self.node_last),
        )
        return r, None

    def correction(self, x: Array, r: Array) -> Array:
        """Newton step: the block-tridiagonal solve, bordered by the
        lambda^0 column and Psi(0) rows when the first interval is
        enforced."""
        lower, diag, upper, border = self.jacobian_blocks(*self.unpack(x))
        n, block = self.n, 2 * self.n + self.kr
        off = 0 if border is None else n  # the Psi(0) rows come first
        segs = r[off:].reshape(self.steps - 1, block)
        if border is None:
            rhs = [-seg for seg in segs]
            return _solve_block_tridiagonal(lower, diag, upper, rhs)[:, 0]
        # bordered system: the lambda^0 column and Psi(0) row couple only
        # to block 1, with a zero corner; eliminate through the n x n Schur
        # complement of the tridiagonal part
        col, row = border
        rhs = []
        for i, seg in enumerate(segs):
            stack = np.empty((seg.size, 1 + n))
            stack[:, 0] = -seg
            stack[:, 1:] = col if i == 0 else 0.0
            rhs.append(stack)
        sol = _solve_block_tridiagonal(lower, diag, upper, rhs)
        x_r = sol[:, 0]
        x_b = sol[:, 1:]
        try:
            dlam0 = np.linalg.solve(row @ x_b[:block], row @ x_r[:block] + r[:off])
        except np.linalg.LinAlgError as exc:
            raise RegularityError(
                "singular first-interval Schur complement; the "
                "enforced Psi(0) rows are degenerate at this iterate"
            ) from exc
        return np.concatenate([x_r - x_b @ dlam0, dlam0])

    def jacobian_blocks(
        self, q: Array, v: Array, lam: Array, lam0: Array | None
    ) -> tuple[
        list[Array | None],
        list[Array],
        list[Array | None],
        tuple[Array, Array] | None,
    ]:
        """Assemble the block-tridiagonal Jacobian.

        Unknown block k = 1 .. N-1 is (q_k, v_k, lambda^k); the equation
        rows of block k are (q-rows, v-rows, Psi(k)).  When the first
        interval is enforced, the extra unknown lambda^0 and the extra
        Psi(0) rows are returned as a border (column, row) pair coupling
        only to block 1: the border column holds dPsi(0)-transposed
        multiplier terms in the stationarity rows, the border row holds
        dPsi(0) over (q_1, v_1); the corner block is zero.
        """
        model, problem, settings = self.model, self.problem, self.settings
        n, kr, steps, h = self.n, self.kr, self.steps, self.h
        nv = n + kr
        block = 2 * n + kr

        def lam_at(j: int) -> Array:
            if j == 0:
                return lam0 if lam0 is not None else np.zeros(n)
            return lam[j - 1]

        def node(j: int) -> AdmissibleState:
            if j == 0:
                return self.node_first
            if j == steps:
                return self.node_last
            return AdmissibleState(q=q[j], v=v[j])

        hess = []
        psi_slots = []
        for j in range(steps):
            nk, nk1 = node(j), node(j + 1)
            hess.append(
                _interval_hessian(
                    model, problem, nk, nk1, lam_at(j), self.times[j], h,
                    settings.psi_variant, settings.fd_step,
                )
            )
            psi_slots.append(
                _constraint_slots(model, nk, nk1, h, settings.psi_variant)
            )

        lower: list[Array | None] = []
        diag: list[Array] = []
        upper: list[Array | None] = []
        for k in range(1, steps):
            d = np.zeros((block, block))
            hk = hess[k]
            hk_prev = hess[k - 1]
            p1, p2, p3, p4 = psi_slots[k]
            pp1, pp2, pp3, pp4 = psi_slots[k - 1]

            # rows per block: q (0:n), v (n:nv), Psi(k) (nv:block);
            # columns: q_k (0:n), v_k (n:nv), lambda^k (nv:block)
            d[:nv, :nv] = hk[:nv, :nv] + hk_prev[nv:, nv:]
            d[:n, nv:block] = p1.T
            d[n:nv, nv:block] = p2.T
            d[nv:block, :n] = p1
            d[nv:block, n:nv] = p2
            diag.append(d)

            if k == 1:
                lower.append(None)
            else:
                le = np.zeros((block, block))
                le[:nv, :nv] = hk_prev[nv:, :nv]
                le[:n, nv:block] = pp3.T
                le[n:nv, nv:block] = pp4.T
                lower.append(le)

            if k == steps - 1:
                upper.append(None)
            else:
                ue = np.zeros((block, block))
                ue[:nv, :nv] = hk[:nv, nv:]
                ue[nv:block, :n] = p3
                ue[nv:block, n:nv] = p4
                upper.append(ue)

        border = None
        if lam0 is not None:
            pp1, pp2, pp3, pp4 = psi_slots[0]
            col = np.zeros((block, n))
            col[:n, :] = pp3.T
            col[n:nv, :] = pp4.T
            row = np.zeros((n, block))
            row[:, :n] = pp3
            row[:, n:nv] = pp4
            border = (col, row)
        return lower, diag, upper, border


def check_del(problem: TrackingProblem, grid: TimeGrid) -> None:
    """Entry checks of solve_del: ValueError on a problem/grid it cannot run."""
    if problem.terminal_mode != "hard":
        raise ValueError(
            "the variational route pins the terminal node to the reference; "
            "pose the problem with terminal_mode='hard'"
        )
    if grid.steps < 2:
        raise ValueError(
            "need at least 2 intervals for an interior node, "
            f"got grid.steps = {grid.steps}"
        )
    if abs(grid.t0) > 1e-12 or abs(grid.tf - problem.horizon_T) > 1e-9:
        raise ValueError(
            f"grid must span [0, {problem.horizon_T}], got [{grid.t0}, {grid.tf}]"
        )


def solve_del(
    model: SystemModel,
    problem: TrackingProblem,
    grid: TimeGrid,
    settings: DelSettings = DelSettings(),
) -> tuple[DiscreteTrajectory, ConvergenceReport]:
    """Damped Newton on the discrete Euler-Lagrange system.

    Boundary nodes are pinned: node 0 to problem.initial_state and node N to
    the reference at the horizon (the terminal state is matched exactly, so
    the problem must be posed with terminal_mode="hard").  The Newton
    correction solves the block-tridiagonal saddle system directly;
    backtracking halves the step until the residual max-norm decreases, and
    a trial step whose residual fails numerically (ArithmeticError) counts
    as a rejected step.
    Nonconvergence is reported, not raised.
    """
    check_del(problem, grid)
    node_first = problem.initial_state
    node_last = problem.reference(problem.horizon_T)
    ws = _DelWorkspace(model, problem, grid, settings, node_first, node_last)
    x, _, report = damped_newton(
        ws.initial_guess(), ws.evaluate, ws.correction,
        lambda r: float(np.max(np.abs(r))), "residual max-norm",
        settings, ArithmeticError,
    )
    return ws.trajectory(x), report


# ---------------------------------------------------------------------------
# regularity and diagnostics


def regularity_check(
    model: SystemModel,
    problem: TrackingProblem,
    node_k: AdmissibleState,
    node_k1: AdmissibleState,
    h: float,
    t_k: float = 0.0,
    lam: Array | None = None,
    fd_step: float = 1e-6,
) -> RegularityReport:
    """One-step solvability test at a node pair.

    Assembles the Jacobian of the interval's stationarity-plus-constraint
    rows with respect to the forward unknowns (q_{k+1}, v_{k+1}, lambda^k):

        M = [[D13 Lt, D14 Lt, (D1 Psi)^T],
             [D23 Lt, D24 Lt, (D2 Psi)^T],
             [D3 Psi, D4 Psi, 0]],

    Lt = L_d + lam . Psi_d (lam defaults to zero).  Returns the condition
    estimate and whether it stays below the nonsingularity ceiling.  The
    estimate depends on the probe step h: the singular eps -> 0 limit is
    visible only for small h (the constraint rows scale as 1/h), so sweeps
    should fix a fine probe step rather than the solver's own coarse one.
    """
    n, kr = model.n, model.rank
    if lam is None:
        lam = np.zeros(n)
    lam = np.asarray(lam, dtype=float)
    nv = n + kr

    hess = _interval_hessian(
        model, problem, node_k, node_k1, lam, t_k, h, "midpoint", fd_step
    )

    p1, p2, p3, p4 = _constraint_slots(model, node_k, node_k1, h, "midpoint")
    m = np.zeros((nv + n, nv + n))
    m[:nv, :nv] = hess[:nv, nv:]
    m[:n, nv:] = p1.T
    m[n:nv, nv:] = p2.T
    m[nv:, :n] = p3
    m[nv:, n:nv] = p4
    cond = float(np.linalg.cond(m))
    return RegularityReport(
        condition=cond,
        nonsingular=bool(np.isfinite(cond) and cond < REGULARITY_COND_LIMIT),
    )


def diagnostics(
    model: SystemModel,
    problem: TrackingProblem,
    traj: DiscreteTrajectory,
    psi_variant: str = "midpoint",
) -> DiagnosticSeries:
    """Per-node cost/action/energy/constraint series of a solved trajectory.

    psi_variant must match the one the trajectory was solved with for the
    constraint column to reflect the enforced residuals.
    """
    steps = traj.steps
    cost = np.empty(steps + 1)
    action = np.empty(steps + 1)
    energy = np.empty(steps + 1)
    psi = np.empty(steps + 1)

    action[0] = 0.0
    for j in range(steps):
        action[j + 1] = action[j] + discrete_lagrangian(
            model, problem, traj.node(j), traj.node(j + 1), float(traj.times[j]), traj.h
        )
    for k in range(steps + 1):
        j = min(k, steps - 1)
        state = traj.node(k)
        cost[k] = running_cost(
            model, problem, float(traj.times[k]), state, traj.controls[j]
        )
        energy[k] = restricted_energy(model, state)
        psi[k] = float(
            np.max(
                np.abs(
                    discrete_constraint(
                        model, traj.node(j), traj.node(j + 1), traj.h, psi_variant
                    )
                )
            )
        )
    return DiagnosticSeries(
        times=traj.times.copy(),
        cost=cost,
        action=action,
        energy=energy,
        constraint_residual=psi,
    )
