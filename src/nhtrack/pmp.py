"""Indirect optimal-control solver for trajectory tracking.

The tracking cost is

    J = int_0^T 1/2 (||q - q_r||^2 + ||v - v_r||^2 + eps ||u||^2) dt
        + omega * Phi(gamma(T))

minimized over admissible controlled trajectories of a SystemModel.  The
maximum principle turns this into a two-point boundary value problem for the
state (q, v) and costate (lambda, mu):

    H = lambda0 C(t, q, v, u) + lambda . (rho(q) v) + mu . vdot(q, v, u)

with u eliminated pointwise through the stationarity condition
lambda0 eps u + mu = 0.  solve_shooting root-finds the terminal residual over
the unknown initial costate alpha = (lambda(0), mu(0)) by damped Newton with
finite-difference Jacobians.

Sign conventions: the adjoint flow is -lambdadot = dH*/dq, -mudot = dH*/dv.
The transversality residual in "mayer" mode is

    (lambda(T) - omega (q(T) - q_r(T)),  mu(T) - omega (v(T) - v_r(T))),

the exact stationarity condition for the terminal cost
Phi = 1/2 ||gamma(T) - gamma_r(T)||^2 on the full state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from .geometry import (
    AdmissibleState,
    ControlVector,
    SystemModel,
    _as_control,
    drift,
    dynamics_rhs,
    state_difference,
    wrap_angle,
)
from .ode import IntegrationError, TimeGrid, integrate, rk4_step

Array = np.ndarray


class FlowDivergedError(RuntimeError):
    """The coupled state-costate flow left the finite range."""

    def __init__(self, t: float) -> None:
        super().__init__(
            f"state-costate flow diverged near t = {t:.6g}; "
            "the shooting guess is outside the basin"
        )
        self.t = t


class SingularJacobianError(RuntimeError):
    """Shooting Jacobian numerically singular."""

    def __init__(self, cond: float) -> None:
        super().__init__(
            f"shooting Jacobian condition estimate {cond:.3e} exceeds 1e14; "
            "try a larger control regularization epsilon or rescale the "
            "terminal weight omega"
        )
        self.cond = cond


# ---------------------------------------------------------------------------
# reference trajectories


@dataclass(frozen=True)
class AnalyticReference:
    """Affine-in-time reference gamma_r(t) = (q0 + t dq, v0 + t dv)."""

    q_base: Array
    q_slope: Array
    v_base: Array
    v_slope: Array

    def __post_init__(self) -> None:
        for name in ("q_base", "q_slope", "v_base", "v_slope"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), float))

    def __call__(self, t: float) -> AdmissibleState:
        return AdmissibleState(
            q=self.q_base + t * self.q_slope, v=self.v_base + t * self.v_slope
        )


class RolloutReference:
    """Uncontrolled rollout of a model from a start state, sampled anywhere
    on [0, horizon].

    The rollout is integrated once on a dense internal grid; off-node times
    are evaluated by cubic Hermite interpolation using the exact vector-field
    slopes, which preserves the integrator's order.  Samples at t <= 0 and
    t >= horizon return the stored endpoint values unchanged, so repeated
    queries at the horizon are bit-identical.
    """

    def __init__(
        self,
        model: SystemModel,
        start: AdmissibleState,
        horizon: float,
        step: float = 1e-3,
    ) -> None:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if step <= 0:
            raise ValueError(f"step must be positive, got {step}")
        self.model = model
        self.start = start
        self.horizon = float(horizon)
        n, k = model.n, model.rank
        zero_u = np.zeros(k)

        def f(t: float, y: Array) -> Array:
            state = AdmissibleState(q=y[:n], v=y[n:])
            qdot, vdot = dynamics_rhs(model, state, zero_u)
            return np.concatenate([qdot, vdot])

        steps = max(1, math.ceil(self.horizon / step))
        grid = TimeGrid(0.0, self.horizon, steps)
        self._times, self._ys = integrate(f, start.as_vector(), grid)
        self._slopes = np.array(
            [f(t, y) for t, y in zip(self._times, self._ys)]
        )
        self._h = grid.h
        self._n = n

    def __call__(self, t: float) -> AdmissibleState:
        if t < -1e-9 or t > self.horizon + 1e-9:
            raise ValueError(
                f"sample time {t} outside the rollout horizon [0, {self.horizon}]"
            )
        if t <= 0.0:
            y = self._ys[0]
        elif t >= self.horizon:
            y = self._ys[-1]
        else:
            j = min(int(t / self._h), len(self._times) - 2)
            t0 = self._times[j]
            s = (t - t0) / self._h
            if s < 0.0:  # guard against floor/roundoff disagreement
                j -= 1
                t0 = self._times[j]
                s = (t - t0) / self._h
            y0, y1 = self._ys[j], self._ys[j + 1]
            m0, m1 = self._slopes[j], self._slopes[j + 1]
            s2, s3 = s * s, s * s * s
            y = (
                (2 * s3 - 3 * s2 + 1) * y0
                + (s3 - 2 * s2 + s) * self._h * m0
                + (-2 * s3 + 3 * s2) * y1
                + (s3 - s2) * self._h * m1
            )
        return AdmissibleState(q=y[: self._n].copy(), v=y[self._n :].copy())


ReferenceSampler = Callable[[float], AdmissibleState]


# ---------------------------------------------------------------------------
# problem and solver settings


@dataclass(frozen=True)
class TrackingProblem:
    """One tracking optimal-control instance on a fixed horizon.

    terminal_mode selects the boundary treatment at t = T: "mayer" adds the
    weighted terminal cost omega * 1/2 ||q(T) - q_r(T)||^2, "hard" enforces
    gamma(T) = gamma_r(T) exactly.  state_weight scales the running q/v
    tracking terms (1.0 for the standard cost; 0.0 isolates the pure
    control-effort problem, useful for conservation checks).
    """

    reference: ReferenceSampler
    horizon_T: float
    epsilon: float
    omega: float
    initial_state: AdmissibleState
    lambda0: float = 1.0
    terminal_mode: str = "mayer"
    state_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError(
                "epsilon must be positive: the epsilon = 0 problem is a "
                "singular optimal control problem and is out of scope"
            )
        if self.lambda0 <= 0:
            raise ValueError(f"lambda0 must be positive, got {self.lambda0}")
        if self.horizon_T <= 0:
            raise ValueError(f"horizon_T must be positive, got {self.horizon_T}")
        if self.omega < 0:
            raise ValueError(f"omega must be nonnegative, got {self.omega}")
        if self.terminal_mode not in ("mayer", "hard"):
            raise ValueError(
                f"terminal_mode must be 'mayer' or 'hard', got {self.terminal_mode!r}"
            )
        if self.state_weight < 0:
            raise ValueError(f"state_weight must be nonnegative, got {self.state_weight}")


@dataclass(frozen=True)
class Costate:
    """Adjoint variables (lambda conjugate to q, mu conjugate to v)."""

    lam: Array
    mu: Array

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        if not (np.all(np.isfinite(self.lam)) and np.all(np.isfinite(self.mu))):
            raise ValueError("costate entries must be finite")

    def as_vector(self) -> Array:
        return np.concatenate([self.lam, self.mu])

    @staticmethod
    def zero(model: SystemModel) -> "Costate":
        return Costate(lam=np.zeros(model.n), mu=np.zeros(model.rank))


@dataclass(frozen=True)
class NewtonSettings:
    """Damped-Newton settings shared by the shooting and variational solves.

    newton_tol bounds the residual norm at convergence, max_iters the Newton
    steps; fd_step is the finite-difference step of the route's Jacobian;
    a rejected trial step is scaled by damping (in (0, 1)) at most
    max_halvings times.
    """

    newton_tol: float = 1e-8
    max_iters: int = 50
    fd_step: float = 1e-6
    damping: float = 0.5
    max_halvings: int = 30

    def __post_init__(self) -> None:
        label = type(self).__name__
        for name in ("newton_tol", "fd_step", "damping", "max_iters", "max_halvings"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{label}.{name} must be positive")
        if self.damping >= 1:
            raise ValueError(f"{label}.damping must shrink the step (< 1)")


CONTINUATIONS = ("none", "horizon", "terminal-weight")


@dataclass(frozen=True)
class ShootingSettings(NewtonSettings):
    """Newton and flow settings for the shooting solve.

    continuation = "horizon" globalizes hard instances: the problem is solved
    on growing horizons T j/s (j = 1..continuation_stages), each stage
    warm-started from the previous stage's costate.  The final stage is the
    original problem and supplies the reported iteration log.  "none" runs a
    single damped-Newton solve from alpha0.

    continuation = "terminal-weight" applies to terminal_mode = "hard" only.
    The pinned-endpoint problem is approached through its soft relaxations:
    first a Mayer solve at the problem's omega (itself globalized by the
    horizon ladder), then omega is scaled up by 10 per stage, and the exact
    hard solve runs last from the final soft costate.  Useful when the hard
    residual has too small a Newton basin to reach from alpha0 directly.
    """

    inner_grid: TimeGrid | None = None
    continuation: str = "none"
    continuation_stages: int = 4

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.continuation not in CONTINUATIONS:
            raise ValueError(
                f"continuation must be one of {CONTINUATIONS}, "
                f"got {self.continuation!r}"
            )
        if self.continuation_stages <= 0:
            raise ValueError("continuation_stages must be positive")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    residual_norm: float
    damping: float


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    iterations: int
    residual_norm: float
    records: tuple[IterationRecord, ...]
    message: str


def damped_newton(
    x: Array,
    evaluate: Callable[[Array], tuple[Array, Any]],
    correction: Callable[[Array, Array], Array],
    norm: Callable[[Array], float],
    norm_name: str,
    settings: NewtonSettings,
    rejected: type[Exception] | tuple[type[Exception], ...],
) -> tuple[Array, Any, ConvergenceReport]:
    """Damped Newton with backtracking on a flat vector of unknowns.

    evaluate(x) returns the residual at x and any data the caller wants back
    for the final iterate; correction(x, r) returns the full Newton step
    delta.  Each iteration tries x + beta delta for beta = 1, damping,
    damping^2, ... and accepts the first trial whose residual norm
    decreases; a trial whose evaluation raises one of the rejected errors
    counts as no decrease.  After max_halvings rejections the smallest step
    is taken anyway; if that one fails to evaluate as well, the solve stops
    unconverged at the current iterate.  Returns (x, data, report).
    """
    x = x.copy()
    r, data = evaluate(x)
    r_norm = norm(r)
    records: list[IterationRecord] = []

    def result(
        converged: bool, iterations: int, message: str
    ) -> tuple[Array, Any, ConvergenceReport]:
        # the current iterate, its data and the log so far
        report = ConvergenceReport(
            converged, iterations, r_norm, tuple(records), message
        )
        return x, data, report

    if r_norm <= settings.newton_tol:
        return result(True, 0, "initial guess already within tolerance")

    for iteration in range(1, settings.max_iters + 1):
        delta = correction(x, r)
        beta = 1.0
        for _ in range(settings.max_halvings + 1):
            cand = x + beta * delta
            try:
                r_c, data_c = evaluate(cand)
            except rejected:
                beta *= settings.damping
                continue
            if norm(r_c) < r_norm:
                break
            beta *= settings.damping
        else:
            # no decrease found; take the smallest damped step
            cand = x + beta * delta
            try:
                r_c, data_c = evaluate(cand)
            except rejected as exc:
                return result(
                    False, iteration - 1,
                    f"no step could be evaluated at iteration {iteration}: "
                    f"{exc} ({norm_name} {r_norm:.3e})",
                )

        x, r, data = cand, r_c, data_c
        r_norm = norm(r)
        records.append(IterationRecord(iteration, r_norm, beta))
        if r_norm <= settings.newton_tol:
            return result(True, iteration, "converged")

    return result(
        False, settings.max_iters,
        f"no convergence in {settings.max_iters} iterations "
        f"({norm_name} {r_norm:.3e})",
    )


@dataclass(frozen=True)
class ShootingTrajectory:
    """State, costate, and control series of one shooting flow."""

    times: Array
    q: Array
    v: Array
    u: Array
    lam: Array
    mu: Array


# ---------------------------------------------------------------------------
# pointwise quantities


def _check_time(problem: TrackingProblem, t: float) -> None:
    if t < -1e-9 or t > problem.horizon_T + 1e-9:
        raise ValueError(
            f"t = {t} outside the problem horizon [0, {problem.horizon_T}]"
        )


def running_cost(
    model: SystemModel,
    problem: TrackingProblem,
    t: float,
    state: AdmissibleState,
    u: ControlVector | Array,
) -> float:
    """Running cost 1/2 (||q - q_r||^2 + ||v - v_r||^2 + eps ||u||^2), with
    angle components differenced into (-pi, pi]."""
    _check_time(problem, t)
    ref = problem.reference(t)
    dq, dv = state_difference(model, state, ref)
    uu = _as_control(u)
    sw = problem.state_weight
    return 0.5 * (
        sw * float(dq @ dq) + sw * float(dv @ dv) + problem.epsilon * float(uu @ uu)
    )


def optimal_control(mu: Array, epsilon: float, lambda0: float) -> ControlVector:
    """Pointwise Hamiltonian minimizer u = -mu / (lambda0 eps)."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if lambda0 <= 0:
        raise ValueError(f"lambda0 must be positive, got {lambda0}")
    return ControlVector(u=-np.asarray(mu, dtype=float) / (lambda0 * epsilon))


def hamiltonian(
    model: SystemModel,
    problem: TrackingProblem,
    t: float,
    state: AdmissibleState,
    costate: Costate,
    u: ControlVector | Array,
) -> float:
    """Control Hamiltonian lambda0 C + lambda . qdot + mu . vdot."""
    qdot, vdot = dynamics_rhs(model, state, u)
    return (
        problem.lambda0 * running_cost(model, problem, t, state, u)
        + float(costate.lam @ qdot)
        + float(costate.mu @ vdot)
    )


def optimal_hamiltonian(
    model: SystemModel,
    problem: TrackingProblem,
    t: float,
    state: AdmissibleState,
    costate: Costate,
) -> float:
    """Hamiltonian evaluated at the minimizing control."""
    u = optimal_control(costate.mu, problem.epsilon, problem.lambda0)
    return hamiltonian(model, problem, t, state, costate, u)


# ---------------------------------------------------------------------------
# state-costate flow


def _make_packed_rhs(
    model: SystemModel, problem: TrackingProblem
) -> Callable[[float, Array], Array]:
    """RHS of the coupled flow on packed vectors y = (q, v, lambda, mu).

    The adjoint rows are -lambdadot = dH*/dq and -mudot = dH*/dv, with the
    drift derivatives taken exactly from geometry.drift.
    """
    n, k = model.n, model.rank
    rho_f, rho_jac_f = model.rho, model.rho_jac
    reference = problem.reference
    lam0 = problem.lambda0
    inv_le = 1.0 / (lam0 * problem.epsilon)
    track = lam0 * problem.state_weight
    angle_idx = sorted(model.angle_indices)

    def rhs(t: float, y: Array) -> Array:
        q = y[:n]
        v = y[n : n + k]
        lam = y[n + k : 2 * n + k]
        mu = y[2 * n + k :]
        ref = reference(t)
        dq = q - ref.q
        for i in angle_idx:
            dq[i] = wrap_angle(dq[i])
        dv = v - ref.v

        rho = rho_f(q)
        rjac = rho_jac_f(q)
        a, a_q, a_v = drift(model, q, v)
        u = -inv_le * mu

        qdot = rho @ v
        vdot = u - a

        # sum_{j,A} lambda_j drho^j_A/dq^i v^A
        pull = (lam @ rjac.reshape(n, -1)).reshape(k, n)
        lamdot = -(track * dq + v @ pull - a_q.T @ mu)
        mudot = -(track * dv + rho.T @ lam - a_v.T @ mu)
        return np.concatenate([qdot, vdot, lamdot, mudot])

    return rhs


def pmp_rhs(
    model: SystemModel,
    problem: TrackingProblem,
    t: float,
    state: AdmissibleState,
    costate: Costate,
) -> tuple[tuple[Array, Array], tuple[Array, Array]]:
    """Coupled state-costate derivatives at one point.

    The state part is the controlled dynamics at the minimizing control; the
    costate part is the adjoint flow -lambdadot = dH*/dq, -mudot = dH*/dv
    with exact drift derivatives.  Returns ((qdot, vdot), (lambdadot, mudot)).
    """
    rhs = _make_packed_rhs(model, problem)
    y = np.concatenate([state.q, state.v, costate.lam, costate.mu])
    out = rhs(t, y)
    if not np.all(np.isfinite(out)):
        raise ArithmeticError(
            f"non-finite state-costate derivatives at t = {t:.6g}"
        )
    n, k = model.n, model.rank
    return (
        (out[:n], out[n : n + k]),
        (out[n + k : 2 * n + k], out[2 * n + k :]),
    )


def _default_grid(problem: TrackingProblem) -> TimeGrid:
    steps = max(1, round(problem.horizon_T / 0.01))
    return TimeGrid(0.0, problem.horizon_T, steps)


def _resolve_grid(problem: TrackingProblem, settings: ShootingSettings) -> TimeGrid:
    grid = settings.inner_grid or _default_grid(problem)
    if abs(grid.t0) > 1e-12 or abs(grid.tf - problem.horizon_T) > 1e-9:
        raise ValueError(
            f"inner_grid must span [0, {problem.horizon_T}], "
            f"got [{grid.t0}, {grid.tf}]"
        )
    return grid


def check_shooting(problem: TrackingProblem, settings: ShootingSettings) -> TimeGrid:
    """Entry checks of solve_shooting (ValueError); returns the flows' grid."""
    grid = _resolve_grid(problem, settings)
    if settings.continuation == "terminal-weight" and problem.terminal_mode != "hard":
        raise ValueError(
            "terminal-weight continuation relaxes a pinned endpoint; it "
            "applies to terminal_mode='hard' problems only"
        )
    return grid


def _flow(
    rhs: Callable[[float, Array], Array], y0: Array, grid: TimeGrid
) -> tuple[Array, Array]:
    """Integrate the packed flow, failing fast (and quietly) on blow-up."""
    times = grid.times()
    ys = np.empty((grid.steps + 1, y0.size))
    ys[0] = y0
    h = grid.h
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.steps):
            try:
                y_next = rk4_step(rhs, times[k], ys[k], h)
            except IntegrationError as exc:
                raise FlowDivergedError(exc.t) from exc
            if not np.all(np.isfinite(y_next)) or np.max(np.abs(y_next)) > 1e12:
                raise FlowDivergedError(times[k + 1])
            ys[k + 1] = y_next
    return times, ys


def _terminal_residual(
    model: SystemModel, problem: TrackingProblem, y_final: Array
) -> Array:
    n, k = model.n, model.rank
    state_T = AdmissibleState(q=y_final[:n], v=y_final[n : n + k])
    ref_T = problem.reference(problem.horizon_T)
    dq, dv = state_difference(model, state_T, ref_T)
    if problem.terminal_mode == "hard":
        return np.concatenate([dq, dv])
    lam_T = y_final[n + k : 2 * n + k]
    mu_T = y_final[2 * n + k :]
    return np.concatenate(
        [lam_T - problem.omega * dq, mu_T - problem.omega * dv]
    )


def shooting_residual(
    model: SystemModel,
    problem: TrackingProblem,
    alpha: Costate,
    settings: ShootingSettings = ShootingSettings(),
) -> Array:
    """Terminal residual of the flow started at (gamma(0), alpha).

    mayer mode: (lambda(T) - omega (q(T) - q_r(T)), mu(T) - omega (v(T) -
    v_r(T))); hard mode: gamma(T) - gamma_r(T) componentwise.  Angle
    components are wrapped into (-pi, pi].  Always 2n - m values.
    """
    grid = _resolve_grid(problem, settings)
    rhs = _make_packed_rhs(model, problem)
    y0 = np.concatenate([problem.initial_state.as_vector(), alpha.as_vector()])
    _, ys = _flow(rhs, y0, grid)
    return _terminal_residual(model, problem, ys[-1])


def _trajectory_from_series(
    model: SystemModel, problem: TrackingProblem, times: Array, ys: Array
) -> ShootingTrajectory:
    n, k = model.n, model.rank
    mu = ys[:, 2 * n + k :]
    return ShootingTrajectory(
        times=times,
        q=ys[:, :n],
        v=ys[:, n : n + k],
        u=-mu / (problem.lambda0 * problem.epsilon),
        lam=ys[:, n + k : 2 * n + k],
        mu=mu,
    )


def _newton_shoot(
    model: SystemModel,
    problem: TrackingProblem,
    alpha_vec: Array,
    settings: ShootingSettings,
    grid: TimeGrid,
) -> tuple[Array, tuple[Array, Array], ConvergenceReport]:
    """One damped-Newton solve of the shooting system on a fixed grid.

    Returns the final costate vector, the (times, ys) series of its flow,
    and the report.
    """
    rhs = _make_packed_rhs(model, problem)
    y_state = problem.initial_state.as_vector()

    def flow(vec: Array) -> tuple[Array, tuple[Array, Array]]:
        times, ys = _flow(rhs, np.concatenate([y_state, vec]), grid)
        return _terminal_residual(model, problem, ys[-1]), (times, ys)

    def correction(vec: Array, r: Array) -> Array:
        jac = np.empty((r.size, vec.size))
        for j in range(vec.size):
            step = settings.fd_step * max(1.0, abs(vec[j]))
            probe = vec.copy()
            probe[j] += step
            jac[:, j] = (flow(probe)[0] - r) / step
        cond = np.linalg.cond(jac)
        if not np.isfinite(cond) or cond > 1e14:
            raise SingularJacobianError(cond)
        return np.linalg.solve(jac, -r)

    return damped_newton(
        alpha_vec, flow, correction, lambda r: float(np.linalg.norm(r)),
        "residual norm", settings, FlowDivergedError,
    )


def _horizon_warmup(
    model: SystemModel,
    problem: TrackingProblem,
    alpha_vec: Array,
    settings: ShootingSettings,
    grid: TimeGrid,
) -> Array:
    stages = settings.continuation_stages
    for j in range(1, stages):
        t_stage = problem.horizon_T * j / stages
        steps = max(1, round(grid.steps * j / stages))
        stage_problem = replace(problem, horizon_T=t_stage)
        stage_grid = TimeGrid(0.0, t_stage, steps)
        # a failed stage still leaves the best costate found so far
        alpha_vec, _, _ = _newton_shoot(
            model, stage_problem, alpha_vec, settings, stage_grid
        )
    return alpha_vec


def solve_shooting(
    model: SystemModel,
    problem: TrackingProblem,
    alpha0: Costate | None = None,
    settings: ShootingSettings = ShootingSettings(),
) -> tuple[Costate, ShootingTrajectory, ConvergenceReport]:
    """Damped-Newton shooting on the terminal residual.

    Newton steps use forward-difference Jacobians (per-component step
    fd_step * max(1, |alpha_j|)) and a backtracking line search halving the
    step until the residual 2-norm decreases (at most max_halvings times);
    a trial step whose flow diverges counts as a rejected step.
    With settings.continuation = "horizon" the unknown initial costate is
    first tracked through a family of shortened-horizon problems before the
    full-horizon solve runs; "terminal-weight" instead tracks it through
    soft-terminal (Mayer) solves of growing weight before the hard solve.
    Nonconvergence is reported, not raised: the returned report carries the
    converged flag, the final residual norm, and the per-iteration log of
    the final-stage solve.
    """
    if alpha0 is None:
        alpha0 = Costate.zero(model)
    grid = check_shooting(problem, settings)
    alpha_vec = alpha0.as_vector().copy()

    if settings.continuation == "horizon" and settings.continuation_stages > 1:
        alpha_vec = _horizon_warmup(model, problem, alpha_vec, settings, grid)
    elif settings.continuation == "terminal-weight":
        for j in range(settings.continuation_stages):
            soft = replace(
                problem, terminal_mode="mayer", omega=problem.omega * 10.0**j
            )
            if j == 0 and settings.continuation_stages > 1:
                alpha_vec = _horizon_warmup(model, soft, alpha_vec, settings, grid)
            alpha_vec, _, _ = _newton_shoot(model, soft, alpha_vec, settings, grid)

    alpha_vec, (times, ys), report = _newton_shoot(
        model, problem, alpha_vec, settings, grid
    )
    n = model.n
    alpha = Costate(lam=alpha_vec[:n], mu=alpha_vec[n:])
    trajectory = _trajectory_from_series(model, problem, times, ys)
    return alpha, trajectory, report


def trajectory_cost(
    model: SystemModel, problem: TrackingProblem, trajectory: ShootingTrajectory
) -> float:
    """Total cost lambda0 * integral of the running cost along a stored
    trajectory, by composite Simpson over the (uniform) sample grid; a
    trailing odd interval is closed with the trapezoid rule."""
    ts = np.asarray(trajectory.times, dtype=float)
    if ts.size < 2:
        raise ValueError("need at least 2 samples to integrate a cost")
    vals = np.array(
        [
            problem.lambda0
            * running_cost(
                model,
                problem,
                float(t),
                AdmissibleState(q=trajectory.q[i], v=trajectory.v[i]),
                trajectory.u[i],
            )
            for i, t in enumerate(ts)
        ]
    )
    h = ts[1] - ts[0]
    pairs = (ts.size - 1) // 2
    total = 0.0
    if pairs:
        end = 2 * pairs
        total += h / 3.0 * (
            vals[0]
            + vals[end]
            + 4.0 * vals[1:end:2].sum()
            + 2.0 * vals[2 : end - 1 : 2].sum()
        )
    if (ts.size - 1) % 2:
        total += 0.5 * h * (vals[-2] + vals[-1])
    return float(total)


# ---------------------------------------------------------------------------
# abnormal-extremal diagnostic


@dataclass(frozen=True)
class AbnormalReport:
    """Whether the zero-cost adjoint system lambda . rho(q(t)) = 0 admits a
    nonzero solution along a trajectory (smallest/largest singular value of
    the stacked, transported constraint matrix)."""

    nontrivial_solution: bool
    singular_value_ratio: float


def abnormal_diagnostic(
    model: SystemModel,
    times: Array,
    q_series: Array,
    v_series: Array,
    tol: float = 1e-10,
) -> AbnormalReport:
    """Diagnose abnormal-extremal candidates along a state trajectory.

    With zero cost multiplier the stationarity condition forces mu = 0, so
    lambda must solve the linear flow lambdadot_i = -lambda_j
    (drho^j_A/dq^i) v^A while annihilating rho(q(t)) for all t.  The
    diagnostic transports a fundamental matrix along the sampled trajectory
    (linear interpolation between samples) and reports whether the stacked
    constraints rho(q_k)^T Phi(t_k) have a common null vector.
    """
    n = model.n
    times = np.asarray(times, dtype=float)
    q_series = np.asarray(q_series, dtype=float)
    v_series = np.asarray(v_series, dtype=float)

    def a_matrix(q: Array, v: Array) -> Array:
        # lambdadot = A lambda with A_ij = -sum_A rho_jac[j, A, i] v^A
        r = np.tensordot(model.rho_jac(q), v, axes=([1], [0]))  # (n, n): [j, i]
        return -r.T

    blocks = [model.rho(q_series[0]).T]  # Phi(0) = I
    phi = np.eye(n)
    for idx in range(len(times) - 1):
        h = times[idx + 1] - times[idx]
        q0, q1 = q_series[idx], q_series[idx + 1]
        v0, v1 = v_series[idx], v_series[idx + 1]

        def f(t: float, y: Array, t0=times[idx], h_loc=h, q0=q0, q1=q1, v0=v0, v1=v1):
            s = 0.0 if h_loc == 0 else (t - t0) / h_loc
            q = (1 - s) * q0 + s * q1
            v = (1 - s) * v0 + s * v1
            return (a_matrix(q, v) @ y.reshape(n, n)).ravel()

        phi = rk4_step(f, times[idx], phi.ravel(), h).reshape(n, n)
        blocks.append(model.rho(q_series[idx + 1]).T @ phi)

    stacked = np.vstack(blocks)
    sv = np.linalg.svd(stacked, compute_uv=False)
    ratio = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    return AbnormalReport(nontrivial_solution=ratio < tol, singular_value_ratio=ratio)
