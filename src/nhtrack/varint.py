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
default because the initial state is prescribed admissible).  Psi_d and its
slot derivatives come from one function, _psi, and the slot gradients of
L_d + lambda . Psi_d from _interval, which calls it; both evaluate all N
intervals of a grid at once on stacked node arrays: the residual is one
_interval call (with one reference sample per interval midpoint, taken in
one call).  The interval Hessians have exact velocity-velocity blocks, and
their position columns come from n central differences, each moving one
position coordinate at both ends of all N intervals together, so a Jacobian
costs 2n _interval calls and one _psi call whatever N is.  solve_del is a
damped Newton iteration on that system.  Its Jacobian is the Hessian of the
extended discrete action (the action sum plus the multiplier-weighted
constraints), so it is symmetric; it is block-tridiagonal in the node index
and is solved by block cyclic reduction, one stacked solve per level over
log2(N) levels.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    AdmissibleState,
    SystemModel,
    drift,
    frame_derivative,
    restricted_energy,
    state_difference,
)
from .ode import TimeGrid
from .problem import (
    FD_STEP,
    ConvergenceReport,
    NewtonSettings,
    TrackingProblem,
    _check_span,
    damped_newton,
    running_cost,
)

Array = np.ndarray
# the unpacked Newton unknowns (q, v, lambda, lambda^0) of _DelWorkspace
Nodes = tuple[Array, Array, Array, Array | None]

# condition-estimate ceiling for calling the one-step matrix nonsingular
REGULARITY_COND_LIMIT = 1e12
# the Psi_d forms of DelSettings.psi_variant
PSI_VARIANTS = ("midpoint", "difference-quotient")


class RegularityError(ArithmeticError):
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
    enforce_first_interval: bool = False
    psi_variant: str = "midpoint"

    def __post_init__(self) -> None:
        super().__post_init__()
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
        for name in ("times", "q", "v", "multipliers", "controls"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
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


class RegularityReport(NamedTuple):
    condition: float
    nonsingular: bool


class DiagnosticSeries(NamedTuple):
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
    u = vdot + Gamma(q) v v + potential_grad(q).  The arguments may carry
    matching leading axes (one row per point)."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    vdot = np.asarray(vdot, dtype=float)
    return vdot + drift(model, q, v)[0]


def ocp_lagrangian(
    model: SystemModel,
    problem: TrackingProblem,
    t: float | Array,
    q: Array,
    v: Array,
    vdot: Array,
) -> float | Array:
    """Tracking cost as a function of second-order data (control
    eliminated through the dynamics).  Like running_cost, an array of times
    with matching leading axes on q, v and vdot gives one value per row."""
    u = reconstructed_control(model, q, v, vdot)
    state = AdmissibleState(q=q, v=v)
    return running_cost(model, problem, t, state, u)


def _lagrangian_gradients(
    model: SystemModel,
    problem: TrackingProblem,
    ref: AdmissibleState,
    q: Array,
    v: Array,
    vdot: Array,
) -> tuple[Array, Array, Array]:
    """(dL/dq, dL/dv, dL/dvdot) of ocp_lagrangian, exact through the
    drift derivatives u = vdot + a(q, v); ref is the reference sampled at
    the time of (q, v, vdot).  All arguments may carry matching leading
    axes, one row per point."""
    lam0 = problem.lambda0
    eps = problem.epsilon
    sw = problem.state_weight
    dq, dv = state_difference(model, AdmissibleState(q=q, v=v), ref)
    a, pullback = drift(model, q, v)
    u = vdot + a
    u_aq, u_av = pullback(u)

    grad_q = lam0 * (sw * dq + eps * u_aq)
    grad_v = lam0 * (sw * dv + eps * u_av)
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

    grad_q, grad_v, p = _lagrangian_gradients(
        model, problem, problem.reference(times), q_series, v_series, vdot
    )
    pdot = np.gradient(p, times, axis=0, edge_order=2)

    inner = slice(1, -1)
    q, v, lam = q_series[inner], v_series[inner], lam_series[inner]
    rho = model.rho(q)
    res_q = lamdot[inner] - grad_q[inner] + frame_derivative(model, q, v, lam)
    res_adm = qdot[inner] - np.matvec(rho, v)
    res_v = pdot[inner] - grad_v[inner] + np.vecmat(lam, rho)
    return np.concatenate([res_q, res_adm, res_v], axis=1).ravel()


# ---------------------------------------------------------------------------
# midpoint discretization


def _midpoint(q_k: Array, v_k: Array, q_k1: Array, v_k1: Array, h: float) -> tuple:
    """(midpoint q, midpoint v, difference-quotient v) of an interval's end
    nodes, or of stacked intervals, one per row."""
    return 0.5 * (q_k + q_k1), 0.5 * (v_k + v_k1), (v_k1 - v_k) / h


def _psi(
    model: SystemModel, q_k: Array, v_k: Array, q_k1: Array, v_k1: Array,
    h: float, psi_variant: str,
) -> tuple[Array, tuple[Array, Array, Array, Array]]:
    """Psi_d of stacked intervals and its slot derivatives (D1, D2, D3, D4)
    in q_k, v_k, q_{k+1}, v_{k+1}: D1/D3 (n, n), D2/D4 (n, n-m), per row."""
    q_mid, v_mid, v_dq = _midpoint(q_k, v_k, q_k1, v_k1, h)
    v_slot = v_mid if psi_variant == "midpoint" else v_dq
    rho = model.rho(q_mid)
    psi = (q_k1 - q_k) / h - np.matvec(rho, v_slot)
    r_mat = frame_derivative(model, q_mid, v_slot)
    eye_h = np.eye(model.n) / h
    if psi_variant == "midpoint":
        p2 = p4 = -0.5 * rho
    else:
        p2, p4 = rho / h, -rho / h
    return psi, (-eye_h - 0.5 * r_mat, p2, eye_h - 0.5 * r_mat, p4)


def discrete_constraint(
    model: SystemModel,
    node_k: AdmissibleState,
    node_k1: AdmissibleState,
    h: float,
    psi_variant: str = "midpoint",
) -> Array:
    """Interval admissibility residual
    Psi_d = (q_{k+1} - q_k)/h - rho(midpoint q) . (velocity slot).

    The nodes may be stacks (matching leading axes on q and v), one interval
    per row; the result then holds one residual of shape (n,) per row."""
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    if psi_variant not in PSI_VARIANTS:
        raise ValueError(f"psi_variant must be one of {PSI_VARIANTS}")
    ends = node_k.q, node_k.v, node_k1.q, node_k1.v
    return _psi(model, *ends, h, psi_variant)[0]


def discrete_lagrangian(
    model: SystemModel,
    problem: TrackingProblem,
    node_k: AdmissibleState,
    node_k1: AdmissibleState,
    t_k: float | Array,
    h: float,
) -> float | Array:
    """Midpoint quadrature of the second-order Lagrangian over one interval:
    |h| L(t_k + h/2, midpoint q, midpoint v, difference-quotient vdot).
    The unsigned weight makes the value independent of traversal direction,
    so exchanging the nodes while negating h reproduces it exactly.  Stacked
    nodes with an array of left times t_k give one value per interval, with
    the reference sampled once, at the array of midpoints."""
    if h == 0:
        raise ValueError("h must be nonzero")
    mid = _midpoint(node_k.q, node_k.v, node_k1.q, node_k1.v, h)
    return abs(h) * ocp_lagrangian(model, problem, t_k + 0.5 * h, *mid)


# ---------------------------------------------------------------------------
# discrete Euler-Lagrange residual


def _interval(
    model: SystemModel,
    problem: TrackingProblem,
    q_k: Array,
    v_k: Array,
    q_k1: Array,
    v_k1: Array,
    lam: Array,
    ref: AdmissibleState,
    h: float,
    psi_variant: str,
) -> tuple[Array, tuple[Array, Array, Array, Array], tuple[Array, ...]]:
    """Intervals of the extended discrete action L_d + lam . Psi_d.

    The node arguments are one interval's end nodes, or the stacked end
    nodes of many intervals (q_k of shape (N, n), and so on, with lam
    (N, n) and ref sampled at the N midpoint times); every result then
    carries the same leading axes.  ref is the reference at the interval
    midpoint t_k + h/2.  Returns (Psi_d, its slot derivatives (D1, D2, D3,
    D4) from _psi, the slot gradients of L_d + lam . Psi_d).
    """
    psi, slots = _psi(model, q_k, v_k, q_k1, v_k1, h, psi_variant)
    mid = _midpoint(q_k, v_k, q_k1, v_k1, h)
    gq, gv, gvd = _lagrangian_gradients(model, problem, ref, *mid)
    l13 = 0.5 * h * gq
    grads = (
        l13 + np.vecmat(lam, slots[0]),
        0.5 * h * gv - gvd + np.vecmat(lam, slots[1]),
        l13 + np.vecmat(lam, slots[2]),
        0.5 * h * gv + gvd + np.vecmat(lam, slots[3]),
    )
    return psi, slots, grads


def _interval_hessian(
    model: SystemModel,
    problem: TrackingProblem,
    x0: Array,
    lam: Array,
    ref: AdmissibleState,
    h: float,
    psi_variant: str,
) -> tuple[tuple[Array, Array, Array, Array], Array]:
    """Slot derivatives of Psi_d at x0 = (q_k, v_k, q_{k+1}, v_{k+1}) and
    the Hessian of L_d + lam . Psi_d there.

    Psi_d's (q_{k+1} - q_k)/h term is linear and every other term sees the
    nodes only through (midpoint q, midpoint v, difference-quotient v), so
    the q_k and q_{k+1} columns are equal: one central difference of step
    FD_STEP of the exact slot gradients, moving q_k[j] and q_{k+1}[j]
    together, gives both, and their v rows give the q-v blocks.  The v-v
    blocks are exact, Psi_d being linear in its velocity slot:

        h lambda0 (eps J^T J + P^T (sw I + eps sum_A u_A (Gamma^A + Gamma^A^T)) P)

    with u = vdot + a the control from reconstructed_control, J =
    du/d(v_k, v_{k+1}) = [a_v/2 - I/h, a_v/2 + I/h] with a_v = da/dv, and
    P = [I/2, I/2] the midpoint map; a_v and the sum over A both come from
    Gamma + Gamma^T of one christoffel call, with no model Jacobian.  x0
    may stack many intervals, shape (N, 2(n + k)) with lam and ref to
    match; a probe then moves all of them at once, so a whole grid takes
    2n _interval calls, and one _psi call for the slots at x0."""
    n, kr = model.n, model.rank
    nv = n + kr
    # the q_k, q_{k+1} and the v_k, v_{k+1} slot indices
    qs = np.r_[0:n, nv : nv + n]
    vs = np.r_[n:nv, nv + n : 2 * nv]

    def ends(x: Array) -> tuple[Array, Array, Array, Array]:
        return x[..., :n], x[..., n:nv], x[..., nv : nv + n], x[..., nv + n :]

    def grads(x: Array) -> Array:
        g = _interval(model, problem, *ends(x), lam, ref, h, psi_variant)[2]
        return np.concatenate(g, axis=-1)

    hess = np.empty(x0.shape + (2 * nv,))
    for j in range(n):
        xp = x0.copy()
        xp[..., [j, nv + j]] += FD_STEP
        xm = x0.copy()
        xm[..., [j, nv + j]] -= FD_STEP
        hess[..., j] = hess[..., nv + j] = (grads(xp) - grads(xm)) / (4 * FD_STEP)
    hess[..., qs[:, None], vs] = hess[..., vs[:, None], qs].swapaxes(-1, -2)

    q_mid, v_mid, v_dq = _midpoint(*ends(x0), h)
    u = reconstructed_control(model, q_mid, v_mid, v_dq)
    lead = u.shape[:-1]
    gam = model.christoffel(q_mid)
    # sym[A, B, C] = Gamma^A_{BC} + Gamma^A_{CB}: its (A B, C) view times v
    # is a_v[A, B] = d a^A / d v^B, and u times its (A, B C) view is
    # gu[B, C] = sum_A u_A sym[A, B, C]
    sym = gam + gam.swapaxes(-1, -2)
    a_v = np.matvec(sym.reshape(lead + (kr * kr, kr)), v_mid).reshape(lead + (kr, kr))
    gu = np.vecmat(u, sym.reshape(lead + (kr, kr * kr))).reshape(lead + (kr, kr))
    eye, eps = np.eye(kr), problem.epsilon
    jac_u = np.concatenate([0.5 * a_v - eye / h, 0.5 * a_v + eye / h], axis=-1)
    mid = problem.state_weight * eye + eps * gu
    hess[..., vs[:, None], vs] = h * problem.lambda0 * (
        eps * jac_u.swapaxes(-1, -2) @ jac_u + np.tile(0.25 * mid, (2, 2))
    )
    slots = _psi(model, *ends(x0), h, psi_variant)[1]
    return slots, 0.5 * (hess + hess.swapaxes(-1, -2))


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
    constraint Psi_d(k).  They follow a border of w rows, Psi_d(0)[:w],
    with w = n and lambda^0 = traj.lambda_zero when
    settings.enforce_first_interval, else w = 0 and lambda^0 = 0.  This is
    exactly the gradient of the extended discrete action (action sum plus the
    multiplier-weighted constraints) with respect to the interior unknowns
    in the same order.  All intervals are evaluated in one _interval call,
    with the reference sampled once, at the array of midpoint times.
    """
    q, v = traj.q, traj.v
    if boundary is not None:
        q, v = q.copy(), v.copy()
        q[0], v[0] = boundary[0].q, boundary[0].v
        q[-1], v[-1] = boundary[1].q, boundary[1].v
    w = model.n if settings.enforce_first_interval else 0
    if w and traj.lambda_zero is None:
        raise ValueError("enforce_first_interval requires traj.lambda_zero to be set")
    lam = np.vstack([traj.lambda_zero if w else np.zeros(model.n), traj.multipliers])
    ref = problem.reference(traj.times[:-1] + 0.5 * traj.h)
    psi, _, (g1, g2, g3, g4) = _interval(
        model, problem, q[:-1], v[:-1], q[1:], v[1:], lam, ref, traj.h,
        settings.psi_variant,
    )
    # interior node k takes D1, D2 of interval k and D3, D4 of interval k-1,
    # after the w rows of Psi_d(0)
    interior = np.concatenate([g1[1:] + g3[:-1], g2[1:] + g4[:-1], psi[1:]], axis=1)
    out = np.concatenate([psi[0, :w], interior.ravel()])
    if not np.all(np.isfinite(out)):
        raise ArithmeticError("non-finite discrete Euler-Lagrange residual")
    return out


# ---------------------------------------------------------------------------
# block-tridiagonal Newton solve


def _solve_block_tridiagonal(diag: Array, upper: Array, rhs: Array) -> Array:
    """Block cyclic reduction of a block-tridiagonal system whose lower
    blocks are the transposes of its upper ones.

    diag (m, b, b) holds the diagonal blocks and upper (m-1, b, b) the
    blocks right of them; the block left of diagonal block i is
    upper[i-1].T.  rhs (m, b, c) holds c right-hand sides per block row.
    Returns the solution stacked as (m b, c).

    Each level eliminates the even blocks with one stacked solve and leaves
    a block-tridiagonal system on the odd blocks, so m blocks take
    ceil(log2(m + 1)) levels; the even blocks are then recovered level by
    level on the way back.  The reduced systems are not symmetric unless
    the diagonal blocks are, so the lower blocks are carried on their own
    (Heller, SIAM J. Numer. Anal. 13, 1976).
    """
    b = diag.shape[-1]
    lower = upper.swapaxes(1, 2)  # lower[i] is the block left of diagonal i + 1
    panels = []
    try:
        while True:
            m = len(diag)
            # the first `right` of the `odd` odd blocks have an even right
            # neighbour; panel j solves x[2j] = y[j] - a[j] x[2j-1] - g[j] x[2j+1]
            odd, right = m // 2, (m - 1) // 2
            panel = np.zeros((m - odd, b, 2 * b + rhs.shape[-1]))
            panel[1:, :, :b] = lower[1::2]
            panel[:odd, :, b : 2 * b] = upper[0::2]
            panel[:, :, 2 * b :] = rhs[0::2]
            panel = np.linalg.solve(diag[0::2], panel)
            panels.append(panel)
            if m == 1:
                break
            a, g, y = panel[..., :b], panel[..., b : 2 * b], panel[..., 2 * b :]
            lo, up = lower[0::2], upper[1::2]
            diag = diag[1::2] - lo @ g[:odd]
            diag[:right] -= up @ a[1:]
            rhs = rhs[1::2] - lo @ y[:odd]
            rhs[:right] -= up @ y[1:]
            lower, upper = -(lo[1:] @ a[1:odd]), -(up[: odd - 1] @ g[1:odd])
    except np.linalg.LinAlgError as exc:
        raise RegularityError(
            "singular block in the discrete Euler-Lagrange Jacobian; "
            "the constrained system fails the one-step solvability "
            "(M-matrix) condition at some node pair -- see regularity_check"
        ) from exc
    x = panels.pop()[..., 2 * b :]
    for panel in reversed(panels):
        a, g, y = panel[..., :b], panel[..., b : 2 * b], panel[..., 2 * b :]
        odd = len(x)
        x_odd, x = x, np.empty((len(y) + odd,) + x.shape[1:])
        x[1::2] = x_odd
        x[0::2] = y
        x[2::2] -= a[1:] @ x_odd[: len(y) - 1]
        x[0 : 2 * odd : 2] -= g[:odd] @ x_odd
    return x.reshape(-1, rhs.shape[-1])


def _interpolate(t: Array, t_rows: Array, rows: Array) -> Array:
    """rows (one per time of t_rows), interpolated linearly at the times t,
    column by column; held constant outside [t_rows[0], t_rows[-1]]."""
    return np.stack([np.interp(t, t_rows, col) for col in rows.T], axis=1)


class _DelWorkspace:
    """Flat-vector view of the unknowns for the Newton iteration.

    The vector holds one block (q_k, v_k, lambda^k) per interior node
    k = 1 .. N-1, followed by lambda^0 when the first interval is enforced.
    The boundary nodes are pinned and not part of it: node 0 to
    problem.initial_state and node N to the reference at the horizon.
    """

    def __init__(
        self,
        model: SystemModel,
        problem: TrackingProblem,
        grid: TimeGrid,
        settings: DelSettings,
    ) -> None:
        self.model = model
        self.problem = problem
        self.settings = settings
        self.node_first = problem.initial_state
        self.node_last = problem.reference(problem.horizon_T)
        self.n = model.n
        self.kr = model.rank
        self.steps = grid.steps
        self.times = grid.times()
        self.h = grid.h
        # the reference at the interval midpoints, which the Jacobian reuses
        self.ref_mid = problem.reference(self.times[:-1] + 0.5 * self.h)

    def initial_guess(self, coarse: DiscreteTrajectory | None = None) -> Array:
        """The straight line between the pinned end nodes with zero
        multipliers, or the prolongation of coarse, a solution on half as
        many intervals: its nodes, their midpoints in between, and its
        interval multipliers interpolated in interval-midpoint time and
        scaled by h / coarse.h (a free coarse first interval has none)."""
        n, steps = self.n, self.steps
        if coarse is None:
            s = np.linspace(0.0, 1.0, steps + 1)[1:-1, None]
            q = (1 - s) * self.node_first.q + s * self.node_last.q
            v = (1 - s) * self.node_first.v + s * self.node_last.v
            lams = np.zeros((steps, n))
        else:
            q, v = (_interpolate(self.times[1:-1], coarse.times, y)
                    for y in (coarse.q, coarse.v))
            free = coarse.lambda_zero is None
            lams = (self.h / coarse.h) * _interpolate(
                self.times[:-1] + 0.5 * self.h,
                coarse.times[free:-1] + 0.5 * coarse.h,
                np.vstack([coarse.lambda_zero, coarse.multipliers][free:]),
            )
        blocks = np.concatenate([q, v, lams[1:]], axis=1).ravel()
        if self.settings.enforce_first_interval:
            return np.concatenate([blocks, lams[0]])
        return blocks

    def unpack(self, x: Array) -> Nodes:
        n, kr, steps = self.n, self.kr, self.steps
        size = (steps - 1) * (2 * n + kr)
        blocks = x[:size].reshape(steps - 1, 2 * n + kr)
        first, last = self.node_first, self.node_last
        q = np.vstack([first.q, blocks[:, :n], last.q])
        v = np.vstack([first.v, blocks[:, n : n + kr], last.v])
        lam = blocks[:, n + kr :].copy()
        lam0 = x[size:].copy() if self.settings.enforce_first_interval else None
        return q, v, lam, lam0

    def trajectory(self, x: Array) -> DiscreteTrajectory:
        q, v, lam, lam0 = self.unpack(x)
        mid = _midpoint(q[:-1], v[:-1], q[1:], v[1:], self.h)
        return DiscreteTrajectory(
            h=self.h, times=self.times.copy(), q=q, v=v, multipliers=lam,
            controls=reconstructed_control(self.model, *mid), lambda_zero=lam0,
        )

    def evaluate(self, x: Array) -> tuple[Array, Nodes]:
        """The residual at x and the unpacked unknowns (q, v, lam, lam0),
        which the correction from x assembles its Jacobian on."""
        # unpack pins the boundary nodes, so no boundary override is needed
        nodes = self.unpack(x)
        q, v, lam, lam0 = nodes
        traj = DiscreteTrajectory(
            h=self.h, times=self.times, q=q, v=v, multipliers=lam,
            controls=np.zeros((self.steps, self.kr)), lambda_zero=lam0,
        )
        return del_residual(self.model, self.problem, traj, self.settings), nodes

    def correction(self, x: Array, r: Array, nodes: Nodes) -> Array:
        """Newton step: the block-tridiagonal solve bordered by the w
        lambda^0 columns and Psi(0) rows (w = n when the first interval is
        enforced, else 0).  The border couples only to block 1, with a zero
        corner, so it is eliminated through the w x w Schur complement of
        the tridiagonal part; with w = 0 that is an empty solve.  nodes are
        the unpacked unknowns that evaluate returned at x.  A Jacobian that
        overflows raises ArithmeticError, as del_residual does."""
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = self.jacobian_blocks(*nodes)
        if not all(np.all(np.isfinite(b)) for b in blocks):
            raise ArithmeticError("non-finite discrete Euler-Lagrange Jacobian")
        diag, upper, col = blocks
        block, w = col.shape  # the Psi(0) rows come first
        rhs = np.zeros((self.steps - 1, block, 1 + w))
        rhs[:, :, 0] = -r[w:].reshape(self.steps - 1, block)
        rhs[0, :, 1:] = col
        sol = _solve_block_tridiagonal(diag, upper, rhs)
        x_r = sol[:, 0]
        x_b = sol[:, 1:]
        try:
            dlam0 = np.linalg.solve(
                col.T @ x_b[:block], col.T @ x_r[:block] + r[:w]
            )
        except np.linalg.LinAlgError as exc:
            raise RegularityError(
                "singular first-interval Schur complement; the "
                "enforced Psi(0) rows are degenerate at this iterate"
            ) from exc
        return np.concatenate([x_r - x_b @ dlam0, dlam0])

    def jacobian_blocks(
        self, q: Array, v: Array, lam: Array, lam0: Array | None
    ) -> tuple[Array, Array, Array]:
        """Assemble the bordered block-tridiagonal Jacobian.

        The Jacobian is the Hessian of the extended discrete action (the
        action sum plus the multiplier-weighted constraints), so it is
        symmetric and only the diagonal and upper blocks are built.
        Unknown block k = 1 .. N-1 is (q_k, v_k, lambda^k); the equation
        rows of block k are (q-rows, v-rows, Psi(k)).  Returns (diag
        (N-1, b, b), upper (N-2, b, b), col (b, w)): the lower blocks are
        the transposes of the upper ones, and col is the border coupling
        the unknown lambda^0 to the stationarity rows of block 1 (the
        dPsi(0)-transposed multiplier terms).  Its transpose is the Psi(0)
        rows over (q_1, v_1), and the corner block is zero.  w is n when
        the first interval is enforced (lam0 given) and 0 otherwise.
        """
        model, problem, settings = self.model, self.problem, self.settings
        n, steps, h = self.n, self.steps, self.h
        nv = n + self.kr
        block = nv + n
        lams = np.vstack([np.zeros(n) if lam0 is None else lam0, lam])

        # row j of each stacked array belongs to interval j
        ends = np.concatenate([q[:-1], v[:-1], q[1:], v[1:]], axis=1)
        (p1, p2, p3, p4), hess = _interval_hessian(
            model, problem, ends, lams, self.ref_mid, h, settings.psi_variant
        )

        # rows per block: q (0:n), v (n:nv), Psi(k) (nv:block);
        # columns: q_k (0:n), v_k (n:nv), lambda^k (nv:block)
        diag = np.zeros((steps - 1, block, block))
        diag[:, :nv, :nv] = hess[1:, :nv, :nv] + hess[:-1, nv:, nv:]
        diag[:, nv:, :n] = p1[1:]
        diag[:, nv:, n:nv] = p2[1:]
        diag[:, :nv, nv:] = diag[:, nv:, :nv].swapaxes(1, 2)
        upper = np.zeros((steps - 2, block, block))
        upper[:, :nv, :nv] = hess[1:-1, :nv, nv:]
        upper[:, nv:, :n] = p3[1:-1]
        upper[:, nv:, n:nv] = p4[1:-1]
        w = 0 if lam0 is None else n
        col = np.concatenate([p3[0].T, p4[0].T, np.zeros((n, n))])[:, :w]
        return diag, upper, col


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
    _check_span(grid, problem, "grid")


def solve_del(
    model: SystemModel,
    problem: TrackingProblem,
    grid: TimeGrid,
    settings: DelSettings = DelSettings(),
    coarse: DiscreteTrajectory | None = None,
) -> tuple[DiscreteTrajectory, ConvergenceReport]:
    """Damped Newton on the discrete Euler-Lagrange system.

    Boundary nodes are pinned: node 0 to problem.initial_state and node N to
    the reference at the horizon (the terminal state is matched exactly, so
    the problem must be posed with terminal_mode="hard").  Newton starts
    from the straight line between the pinned nodes with zero multipliers,
    or, when coarse is given, from its prolongation (mesh sequencing: Betts,
    Practical Methods for Optimal Control Using Nonlinear Programming, 2nd
    ed., 4.7).  coarse must be a solution on grid.steps / 2 intervals of the
    same horizon, else ValueError; see _DelWorkspace.initial_guess.
    The correction solves the block-tridiagonal saddle system directly, by
    block cyclic reduction with the first-interval border eliminated
    through its Schur complement; backtracking halves the step until the
    residual max-norm decreases, at most MAX_HALVINGS times, else the solve
    stalls, and a trial whose residual fails numerically (ArithmeticError)
    counts as rejected.  Nonconvergence is reported, not raised.
    """
    check_del(problem, grid)
    if coarse is not None and (
        2 * coarse.steps != grid.steps
        or not np.allclose(coarse.times[[0, -1]], [grid.t0, grid.tf])
    ):
        raise ValueError(
            f"coarse must span [{grid.t0}, {grid.tf}] on {grid.steps / 2} intervals"
        )
    ws = _DelWorkspace(model, problem, grid, settings)
    x, _, report = damped_newton(
        ws.initial_guess(coarse), ws.evaluate, ws.correction,
        lambda r: float(np.max(np.abs(r))), "residual max-norm", settings,
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
) -> RegularityReport:
    """One-step solvability test at a node pair.

    Assembles the Jacobian of the interval's stationarity-plus-constraint
    rows with respect to the forward unknowns (q_{k+1}, v_{k+1}, lambda^k):

        M = [[D13 Lt, D14 Lt, (D1 Psi)^T],
             [D23 Lt, D24 Lt, (D2 Psi)^T],
             [D3 Psi, D4 Psi, 0]],

    Lt = L_d + lam . Psi_d (lam defaults to zero).  Returns the condition
    estimate and whether it stays below the nonsingularity ceiling; an M
    that overflows raises ArithmeticError.  The estimate depends on the
    probe step h: the singular eps -> 0 limit is visible only for small h
    (the constraint rows scale as 1/h), so sweeps should fix a fine probe
    step rather than the solver's own coarse one.
    """
    n, nv = model.n, model.n + model.rank
    lam = np.zeros(n) if lam is None else np.asarray(lam, dtype=float)
    ends = np.concatenate([node_k.q, node_k.v, node_k1.q, node_k1.v])
    with np.errstate(over="ignore", invalid="ignore"):
        (p1, p2, p3, p4), hess = _interval_hessian(
            model, problem, ends, lam, problem.reference(t_k + 0.5 * h), h, "midpoint"
        )
    m = np.zeros((nv + n, nv + n))
    m[:nv, :nv] = hess[:nv, nv:]
    m[:n, nv:] = p1.T
    m[n:nv, nv:] = p2.T
    m[nv:, :n] = p3
    m[nv:, n:nv] = p4
    if not np.all(np.isfinite(m)):
        raise ArithmeticError("non-finite one-step matrix: its Hessian overflowed")
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
    constraint column to reflect the enforced residuals.  Each series comes
    from one stacked call over all nodes or intervals, so the reference is
    sampled twice whatever the grid size.
    """
    nodes = AdmissibleState(q=traj.q, v=traj.v)
    lefts = AdmissibleState(q=traj.q[:-1], v=traj.v[:-1])
    rights = AdmissibleState(q=traj.q[1:], v=traj.v[1:])
    lagr = discrete_lagrangian(model, problem, lefts, rights, traj.times[:-1], traj.h)
    action = np.concatenate(([0.0], np.cumsum(lagr)))
    psi = np.max(np.abs(
        discrete_constraint(model, lefts, rights, traj.h, psi_variant)
    ), axis=-1)
    # the last node reuses the final interval's control and constraint
    last = np.minimum(np.arange(traj.steps + 1), traj.steps - 1)
    cost = running_cost(model, problem, traj.times, nodes, traj.controls[last])
    energy = restricted_energy(model, nodes)
    return DiagnosticSeries(
        times=traj.times.copy(),
        cost=cost,
        action=action,
        energy=energy,
        constraint_residual=psi[last],
    )
