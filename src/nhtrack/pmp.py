"""Indirect optimal-control solver for trajectory tracking.

The tracking cost is

    J = int_0^T lambda0/2 (||q - q_r||^2 + ||v - v_r||^2 + eps ||u||^2) dt
        + omega * Phi(gamma(T))

minimized over admissible controlled trajectories of a SystemModel.  The
maximum principle turns this into a two-point boundary value problem for the
state (q, v) and costate (lambda, mu):

    H = lambda0 C(t, q, v, u) + lambda . (rho(q) v) + mu . vdot(q, v, u)

with u eliminated pointwise through the stationarity condition
lambda0 eps u + mu = 0.  solve_shooting root-finds the terminal residual over
the unknown initial costate alpha = (lambda(0), mu(0)) by damped Newton with
finite-difference Jacobians, by multiple shooting: the grid is cut into
time segments PROBE_STRIDE grid steps long whose flows advance side by
side, the packed node (q, v, lambda, mu) at each later segment start joins
alpha as an unknown, and the continuity gaps between segments (angle
components wrapped into (-pi, pi], as in state_difference) join the
terminal residual.  Each Newton step solves that whole block-bidiagonal
system by structured-QR cyclic reduction, batched across the segments
(_segmented_solve), so no product of segment Jacobians carries the
costate's growth over the horizon back into the step.  The segment flows
at the accepted point, laid end to end, are the returned trajectory, and
the 2-norm of the gaps and terminal residual together is the reported
residual.

Sign conventions: the adjoint flow is -lambdadot = dH*/dq, -mudot = dH*/dv.
The transversality residual in "mayer" mode is

    (lambda(T) - omega (q(T) - q_r(T)),  mu(T) - omega (v(T) - v_r(T))),

the exact stationarity condition for the terminal cost
Phi = 1/2 ||gamma(T) - gamma_r(T)||^2 on the full state.

The problem itself (TrackingProblem, its references, running_cost) and the
damped-Newton driver live in problem, which the variational route shares;
this module holds the shooting route and the maximum-principle formulas.
"""
from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, replace
from typing import Any, Callable, NamedTuple

import numpy as np

from .geometry import (
    AdmissibleState,
    SystemModel,
    drift,
    dynamics_rhs,
    frame_derivative,
    state_difference,
)
from .ode import MAX_STEPS, IntegrationError, TimeGrid, rk4_step
from .problem import (
    FD_STEP,
    ConvergenceReport,
    NewtonSettings,
    TrackingProblem,
    _check_count,
    _check_span,
    damped_newton,
    running_cost,
)
# re-exported: importers of pmp read these from it
from .problem import MAX_HALVINGS, AnalyticReference, RolloutReference  # noqa: F401

Array = np.ndarray


class FlowDivergedError(ArithmeticError):
    """The coupled state-costate flow left the finite range."""

    def __init__(self, t: float) -> None:
        super().__init__(
            f"state-costate flow diverged near t = {t:.6g}; "
            "the shooting guess is outside the basin"
        )
        self.t = t


class SingularJacobianError(ArithmeticError):
    """Shooting Newton system singular: a solve of its block elimination
    met an exactly zero pivot."""

    def __init__(self) -> None:
        super().__init__(
            "shooting Jacobian is singular; try a larger control "
            "regularization epsilon or rescale the terminal weight omega"
        )


# ---------------------------------------------------------------------------
# costate and shooting settings


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


# the globalizations of ShootingSettings.continuation
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
        _check_count(self, "continuation_stages")


# FD_STEP also bounds the error of the coarse probe flow, one RK4 step
# per shooting segment, which is PROBE_STRIDE grid steps long
PROBE_STRIDE = 4


class ShootingTrajectory(NamedTuple):
    """State, costate, and control series of one shooting flow."""

    times: Array
    q: Array
    v: Array
    u: Array
    lam: Array
    mu: Array


# ---------------------------------------------------------------------------
# pointwise quantities


def optimal_control(mu: Array, epsilon: float, lambda0: float) -> Array:
    """Pointwise Hamiltonian minimizer u = -mu / (lambda0 eps)."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if lambda0 <= 0:
        raise ValueError(f"lambda0 must be positive, got {lambda0}")
    return -np.asarray(mu, dtype=float) / (lambda0 * epsilon)


def hamiltonian(
    model: SystemModel,
    problem: TrackingProblem,
    t: float,
    state: AdmissibleState,
    costate: Costate,
    u: Array,
) -> float:
    """Control Hamiltonian lambda0 C + lambda . qdot + mu . vdot."""
    qdot, vdot = dynamics_rhs(model, state, u)
    return (
        running_cost(model, problem, t, state, u)
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

    y may be one vector of length 2(n + k) or a stack of them, shape
    (m, 2(n + k)), which advances m flows (for example a Newton point with
    the probes of its finite-difference Jacobian) in one evaluation.  The
    adjoint rows are -lambdadot = dH*/dq and -mudot = dH*/dv.  Their terms
    mu da/dq, mu da/dv and lambda d(rho v)/dq are exact covector pullbacks
    from geometry.drift's pullback(mu) and geometry.frame_derivative, which
    form no Jacobian, and the tracking difference (angles wrapped) comes from
    geometry.state_difference.
    """
    n, k = model.n, model.rank
    reference = problem.reference
    lam0 = problem.lambda0
    inv_le = 1.0 / (lam0 * problem.epsilon)
    track = lam0 * problem.state_weight

    def rhs(t: float, y: Array) -> Array:
        q, v, lam, mu = _split(y, n, k)
        dq, dv = state_difference(model, AdmissibleState(q, v), reference(t))
        rho = model.rho(q)
        a, pullback = drift(model, q, v)
        mu_aq, mu_av = pullback(mu)

        out = np.empty(y.shape)
        qdot, vdot, lamdot, mudot = _split(out, n, k)
        qdot[...] = np.matvec(rho, v)
        vdot[...] = -inv_le * mu - a
        lamdot[...] = mu_aq - track * dq - frame_derivative(model, q, v, lam)
        mudot[...] = mu_av - track * dv - np.vecmat(lam, rho)
        return out

    return rhs


def _split(y: Array, n: int, k: int) -> tuple[Array, Array, Array, Array]:
    """The (q, v, lambda, mu) views of a packed vector or stack of them."""
    return y[..., :n], y[..., n : n + k], y[..., n + k : 2 * n + k], y[..., 2 * n + k :]


def _costate_vector(model: SystemModel, costate: Costate) -> Array:
    """The packed (lambda, mu) of a costate; ValueError unless lambda has
    shape (n,) and mu shape (k,)."""
    n, k = model.n, model.rank
    if costate.lam.shape != (n,) or costate.mu.shape != (k,):
        raise ValueError(
            f"costate must have lam of shape ({n},) and mu of shape ({k},), "
            f"got {costate.lam.shape} and {costate.mu.shape}"
        )
    return costate.as_vector()


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
    y = np.concatenate([state.q, state.v, _costate_vector(model, costate)])
    out = rhs(t, y)
    if not np.all(np.isfinite(out)):
        raise ArithmeticError(
            f"non-finite state-costate derivatives at t = {t:.6g}"
        )
    qdot, vdot, lamdot, mudot = _split(out, model.n, model.rank)
    return (qdot, vdot), (lamdot, mudot)


def _resolve_grid(problem: TrackingProblem, settings: ShootingSettings) -> TimeGrid:
    grid = settings.inner_grid
    if grid is None:  # default: h of about 0.01
        if (steps := problem.horizon_T / 0.01) > MAX_STEPS:  # inf included
            raise ValueError(f"horizon_T = {problem.horizon_T:g} needs {steps:.6g} "
                             f"steps on the default grid, more than {MAX_STEPS}")
        grid = TimeGrid(0.0, problem.horizon_T, max(1, round(steps)))
    _check_span(grid, problem, "inner_grid")
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
    rhs: Callable[[Any, Array], Array],
    y0: Array,
    starts: float | Array,
    h: float | Array,
    steps: int,
) -> Array:
    """Integrate the packed flow by `steps` RK4 steps of size h, failing
    fast (and quietly) on blow-up.

    y0 is one packed vector or a stack of them (..., 2(n + k)), and each
    flow runs on its own clock from starts: one start time, or an array of
    them that broadcasts against y0.shape[:-1] (the segments of a grid:
    shape (M, 1) against (M, rows)).  h is one step, or an array of steps
    shaped like starts (each segment its own step).  rk4_step steps a
    scalar local time from 0.0 in units of steps, on the field scaled by
    h, and rhs sees the absolute times.
    The series has shape (steps + 1,) + y0.shape.  Any one diverging row
    fails the whole stacked flow with a FlowDivergedError at the earliest
    absolute time at which a row went non-finite or past 1e12.
    """
    ys = np.empty((steps + 1,) + y0.shape)
    ys[0] = y0
    scale = np.expand_dims(h, -1)

    def field(s: float, y: Array) -> Array:
        return scale * rhs(starts + s * h, y)

    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(steps):
            try:
                y_next = rk4_step(field, float(j), ys[j], 1.0)
            except IntegrationError as exc:
                raise FlowDivergedError(_earliest(starts + j * h, exc.rows)) from exc
            bounded = np.abs(y_next) <= 1e12  # False on inf and nan too
            if not np.all(bounded):
                raise FlowDivergedError(
                    _earliest(starts + (j + 1) * h, ~np.all(bounded, axis=-1))
                )
            ys[j + 1] = y_next
    return ys


def _earliest(times: float | Array, rows: Array) -> float:
    """The earliest of the times (one, or one per row of a stack) over the
    rows the mask marks."""
    return float(np.min(np.broadcast_to(times, rows.shape)[rows]))


def _terminal_residual(
    model: SystemModel, problem: TrackingProblem, y_final: Array
) -> Array:
    """Terminal residual of one packed final state, or one row per state of
    a stack."""
    q_T, v_T, lam_T, mu_T = _split(y_final, model.n, model.rank)
    ref_T = problem.reference(problem.horizon_T)
    dq, dv = state_difference(model, AdmissibleState(q_T, v_T), ref_T)
    if problem.terminal_mode == "hard":
        return np.concatenate([dq, dv], axis=-1)
    return np.concatenate(
        [lam_T - problem.omega * dq, mu_T - problem.omega * dv], axis=-1
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
    y0 = np.concatenate(
        [problem.initial_state.as_vector(), _costate_vector(model, alpha)]
    )
    ys = _flow(_make_packed_rhs(model, problem), y0, grid.t0, grid.h, grid.steps)
    return _terminal_residual(model, problem, ys[-1])


def _segmented_solve(jumps: Array, terminal: Array, b: Array) -> Array:
    """The solution x of a multiple-shooting Newton system J x = b.

    The nodes are z_0 .. z_K, each of width w; x is all of them but the
    first p = w / 2 entries of z_0 (the fixed initial state, held at zero).
    The rows are the K gaps G_i z_i - z_{i+1} = b_i, jumps[i] = G_i of
    shape (w, w), then the p terminal rows T z_K = b_T, terminal = T of
    shape (p, w).  Structured-QR cyclic reduction (S. J. Wright, SIAM J.
    Sci. Stat. Comput. 13, 1992): each level takes the equations in pairs
    and makes one stacked complete QR of the (2w, w) column of each pair's
    shared node z_m.  Q^T turns the pair into R z_m + E z_l + F z_r = d,
    kept for the way back, and one equation between z_l and z_r for the
    next level; an odd count carries its last equation up.  The equation
    left over between z_0 and z_K, with the p fixed-state rows and the
    terminal rows, is one 2w-square solve with partial pivoting; stacked
    solves on the kept R recover the eliminated nodes level by level.  No
    product of the G_i is formed.  LinAlgError when any solve meets an
    exactly zero pivot.
    """
    k, p = len(jumps), len(terminal)
    w = 2 * p
    fixed = np.eye(p, w)  # the rows [I_p 0] that pin the state part of z_0
    if k == 0:  # one segment: the terminal rows act on z_0 itself
        square = np.vstack([fixed, terminal])
        return np.linalg.solve(square, np.r_[np.zeros(p), b])[p:]
    left, right = jumps, np.broadcast_to(-np.eye(w), jumps.shape)
    rhs, nodes = b[:-p].reshape(k, w), np.arange(k + 1)
    levels = []
    while len(left) > 1:  # equation e links z at nodes[e] and at nodes[e + 1]
        e = len(left) // 2 * 2
        q, r = np.linalg.qr(
            np.concatenate([right[:e:2], left[1:e:2]], axis=1), mode="complete"
        )
        qt = q.mT
        outer_l, outer_r = qt[..., :w] @ left[:e:2], qt[..., w:] @ right[1:e:2]
        d = np.matvec(qt, np.concatenate([rhs[:e:2], rhs[1:e:2]], axis=1))
        levels.append((nodes[1:e:2], nodes[:e:2], nodes[2 : e + 1 : 2],
                       r[:, :w], outer_l[:, :w], outer_r[:, :w], d[:, :w]))
        left = np.concatenate([outer_l[:, w:], left[e:]])
        right = np.concatenate([outer_r[:, w:], right[e:]])
        rhs = np.concatenate([d[:, w:], rhs[e:]])
        nodes = np.concatenate([nodes[: e + 1 : 2], nodes[e + 1 :]])
    final = np.block([
        [left[0], right[0]], [fixed, np.zeros((p, w))], [np.zeros((p, w)), terminal]
    ])
    pair = np.linalg.solve(final, np.r_[rhs[0], np.zeros(p), b[-p:]])
    z = np.empty((k + 1, w))
    z[0], z[-1] = pair[:w], pair[w:]
    for mid, lo, hi, r, e_l, e_r, d in reversed(levels):
        known = d - np.matvec(e_l, z[lo]) - np.matvec(e_r, z[hi])
        z[mid] = np.linalg.solve(r, known[..., None])[..., 0]
    return z.ravel()[p:]


def _newton_shoot(
    model: SystemModel,
    problem: TrackingProblem,
    alpha_vec: Array,
    settings: ShootingSettings,
    grid: TimeGrid,
    segments: int,
    guide: tuple[Array, Array] | None,
) -> tuple[Array, tuple[Array, Array], ConvergenceReport]:
    """One damped-Newton solve of the shooting system on a fixed grid cut
    into M = min(segments, grid.steps) time segments; M = 1 is single
    shooting.

    Segment i runs over the grid steps floor(i s / M) .. floor((i + 1) s /
    M) of the s = grid.steps steps, so the lengths differ by at most one
    and the last segment is a longest.  The unknowns are the costate at
    t = 0 and the packed node (q, v, lambda, mu) at each later segment
    start.  A node starts on the guide, an earlier flow's (times, ys), at
    its nearest sample where the guide reaches, else at the reference state
    with a zero costate.  The residual is the M - 1 continuity gaps (end of
    segment i minus start of segment i + 1, angle components wrapped as in
    state_difference), then the terminal residual.  Each evaluated point
    flows its segment starts alone, shape (M, 1, 2(n + k)), by ceil(s / M)
    grid steps, each segment read at its own end (a shorter one flows one
    step past it).  Only a correction, which a converged point never
    reaches, flows the forward-difference probes: the stack (M, 1 + 2(n +
    k), 2(n + k)), row 0 of segment i its start and row 1 + j its probe in
    entry j.  It flows them by P = ceil(span / PROBE_STRIDE) RK4 steps of
    length_i h / P on segment i, so each segment ends at its own end, and
    keeps that coarse flow when its start rows land within the probe steps
    of the grid-step ends, entry by entry.  Otherwise, or when the coarse
    flow diverges, that correction and every later one flow the probe rows
    alone at the grid step (a coarse flow that missed once has not been
    seen to fit again), row 0 being the evaluation's own ends, which gives
    the grid-step Jacobian.  The root is the grid-step residual's either
    way (an inexact Jacobian only changes the convergence).  The correction
    hands the segment Jacobians G_i and the terminal rows to
    _segmented_solve, a block elimination batched across the segments
    (SingularJacobianError when one of its solves is exactly singular).  A
    trial whose flow diverges is rejected; at the start point, and in a
    grid-step probe flow, FlowDivergedError propagates.
    Returns the costate at t = 0, the (times, ys) series of the segment
    flows laid end to end, and the report.
    """
    n, k = model.n, model.rank
    p, w = n + k, 2 * (n + k)
    segments = min(segments, grid.steps)
    bounds = np.arange(segments + 1) * grid.steps // segments
    lengths = np.diff(bounds)
    span, at_ends = lengths[-1], (lengths, np.arange(segments))
    coarse = -(-span // PROBE_STRIDE)  # the RK4 steps of a coarse probe flow
    coarse_fits = True  # until a correction falls back
    starts = grid.t0 + grid.h * bounds[:-1, None]
    rhs = _make_packed_rhs(model, problem)
    y_state = problem.initial_state.as_vector()
    node_times = starts[1:, 0]
    ref = problem.reference(node_times)
    nodes = np.concatenate([ref.q, ref.v, np.zeros((segments - 1, p))], axis=1)
    if guide is not None:
        # the nearest sample of the guide's flow, at the nodes it reaches;
        # the lift of an angle does not matter, since the gaps are wrapped
        guide_times, guide_ys = guide
        inside = node_times <= guide_times[-1]
        nearest = np.abs(guide_times[:, None] - node_times[inside]).argmin(axis=0)
        nodes[inside] = guide_ys[nearest]

    def segment_starts(x: Array) -> Array:
        return np.vstack([np.concatenate([y_state, x[:p]]), x[p:].reshape(-1, w)])

    def fd_steps(z: Array) -> Array:
        # probe j of the start z[i] moves entry j by fd_steps(z)[i, j]
        return FD_STEP * np.maximum(1.0, np.abs(z))

    def probe_ends(z: Array, fine: Array) -> Array:
        # the probe stack's segment ends, from the coarse flow where its
        # start rows land within the probe steps of the grid-step ends
        nonlocal coarse_fits
        stack = np.concatenate(
            [z[:, None], z[:, None] + fd_steps(z)[:, :, None] * np.eye(w)], axis=1
        )
        if coarse_fits:
            with suppress(FlowDivergedError):
                h = grid.h * lengths[:, None] / coarse
                ends = _flow(rhs, stack, starts, h, coarse)[-1]
                if np.all(np.abs(ends[:, 0] - fine) <= fd_steps(fine)):
                    return ends
            coarse_fits = False
        # the start rows' grid-step ends are fine already: flow the probes
        probes = _flow(rhs, stack[:, 1:], starts, grid.h, span)[at_ends]
        return np.concatenate([fine[:, None], probes], axis=1)

    def evaluate(x: Array) -> tuple[Array, Array]:
        z = segment_starts(x)
        ys = _flow(rhs, z[:, None], starts, grid.h, span)[:, :, 0]
        ends = ys[at_ends]
        res_T = _terminal_residual(model, problem, ends[-1])
        # the gaps between the starts' flows' ends and the next starts
        dq, dv = state_difference(
            model,
            AdmissibleState(q=ends[:-1, :n], v=ends[:-1, n:p]),
            AdmissibleState(q=z[1:, :n], v=z[1:, n:p]),
        )
        gaps = np.concatenate([dq, dv, ends[:-1, p:] - z[1:, p:]], axis=1)
        return np.concatenate([gaps.ravel(), res_T]), ys

    def correction(x: Array, r: Array, ys: Array) -> Array:
        z = segment_starts(x)
        ends = probe_ends(z, ys[at_ends])
        # G_i = d end_i / d z_i by forward differences, column j from probe
        # j, and the terminal rows' columns likewise from the last segment
        steps = fd_steps(z)
        jumps = ((ends[:-1, 1:] - ends[:-1, :1]) / steps[:-1, :, None]).mT
        res_T = _terminal_residual(model, problem, ends[-1])
        terminal = ((res_T[1:] - res_T[0]) / steps[-1][:, None]).T
        try:
            return _segmented_solve(jumps, terminal, -r)
        except np.linalg.LinAlgError:
            raise SingularJacobianError() from None

    x, starts_series, report = damped_newton(
        np.concatenate([alpha_vec, nodes.ravel()]), evaluate, correction,
        np.linalg.norm, "residual norm", settings,
    )
    # each segment's series up to its end, which is the next one's start
    series = np.concatenate(
        [starts_series[:m, i] for i, m in enumerate(lengths)]
        + [starts_series[span:, -1]]
    )
    return x[:p], (grid.times(), series), report


def _stages(
    problem: TrackingProblem, settings: ShootingSettings, grid: TimeGrid
) -> list[tuple[TrackingProblem, TimeGrid]]:
    """(problem, grid) of each Newton solve of solve_shooting, in order.

    "horizon" puts the shortened horizons T j/s (j = 1 .. s-1) before the
    problem; "terminal-weight" puts the same ladder on the Mayer relaxation,
    then the relaxation at omega 10^j (j = 0 .. s-1) on the full grid, before
    the hard problem.  The last entry is always the problem on its grid.
    """
    s, mode = settings.continuation_stages, settings.continuation
    relaxed = problem
    if mode == "terminal-weight":
        relaxed = replace(problem, terminal_mode="mayer")
    stages = []
    if mode != "none":
        for j in range(1, s):
            t_j = problem.horizon_T * j / s
            grid_j = TimeGrid(0.0, t_j, max(1, round(grid.steps * j / s)))
            stages.append((replace(relaxed, horizon_T=t_j), grid_j))
    if mode == "terminal-weight":
        stages += [
            (replace(relaxed, omega=problem.omega * 10.0**j), grid) for j in range(s)
        ]
    return stages + [(problem, grid)]


def solve_shooting(
    model: SystemModel,
    problem: TrackingProblem,
    alpha0: Costate | None = None,
    settings: ShootingSettings = ShootingSettings(),
) -> tuple[Costate, ShootingTrajectory, ConvergenceReport]:
    """Damped-Newton shooting on the terminal residual, by segments.

    Each Newton solve is _newton_shoot on M = ceil(s / PROBE_STRIDE)
    segments, s the steps of the solve's grid, so that a segment spans
    PROBE_STRIDE grid steps (some one fewer where s is not a multiple of
    it).  Forward-difference Jacobians (step FD_STEP * max(1,
    |entry|)) come from one probe flow per Newton step, at one RK4 step per
    segment while that flow lands within the probe steps of the grid-step
    one, else at the grid step.  Each Newton step solves the whole
    segmented system (gaps and terminal residual over the initial costate
    and every node) by a block elimination batched across the segments,
    and a backtracking line search halves the step until the residual
    2-norm decreases, at most MAX_HALVINGS times, else the stage stalls.
    A trial whose flow diverges counts as rejected; a stage whose start
    point or grid-step probe flow so diverges raises FlowDivergedError.
    With settings.continuation = "horizon" the initial costate is first
    tracked through shortened horizons; "terminal-weight" tracks it through
    soft-terminal (Mayer) solves of growing weight before the hard solve.
    _stages lists the solves, and one loop runs them, each warm-started
    from the costate and guided by the flow of the one before.  A given
    alpha0 only sets the first solve's initial costate; its nodes start at
    the reference state with a zero costate either way.  The answer is
    always the last stage's accepted point: its segment flows laid end to
    end are the returned trajectory, and its segmented residual norm
    (continuity gaps and terminal residual together, so it bounds every
    gap) is the reported one.  The solve is converged when the last stage
    converged.  Numerical failures raise ArithmeticErrors (FlowDivergedError;
    SingularJacobianError when that system is exactly singular);
    nonconvergence is reported, not raised: the report carries the
    converged flag, the final residual norm and the log of the last stage,
    with that stage's message.  Each earlier stage that did not converge
    appends "ladder stage j of s (T = ...) did not converge: <its message>"
    to the message.
    """
    grid = check_shooting(problem, settings)
    stages = _stages(problem, settings, grid)
    series = None
    alpha_vec = _costate_vector(model, Costate.zero(model) if alpha0 is None else alpha0)
    missed_stages = []
    for j, (stage_problem, stage_grid) in enumerate(stages, start=1):
        # a failed stage still leaves the best costate and flow found so far
        segments = -(-stage_grid.steps // PROBE_STRIDE)
        alpha_vec, series, report = _newton_shoot(
            model, stage_problem, alpha_vec, settings, stage_grid, segments, series
        )
        if not report.converged and j < len(stages):
            missed_stages.append(
                f"ladder stage {j} of {len(stages)} "
                f"(T = {stage_problem.horizon_T:g}) did not converge: {report.message}"
            )
    report = report._replace(message="; ".join([report.message, *missed_stages]))
    alpha = Costate(lam=alpha_vec[: model.n], mu=alpha_vec[model.n :])
    times, ys = series
    q, v, lam, mu = _split(ys, model.n, model.rank)
    u = optimal_control(mu, problem.epsilon, problem.lambda0)
    return alpha, ShootingTrajectory(times=times, q=q, v=v, u=u, lam=lam, mu=mu), report


def trajectory_cost(
    model: SystemModel, problem: TrackingProblem, trajectory: ShootingTrajectory
) -> float:
    """Integral of the running cost along a stored trajectory, by
    composite Simpson over the (uniform) sample grid; a trailing odd
    interval is closed with the trapezoid rule."""
    ts = np.asarray(trajectory.times, dtype=float)
    if ts.size < 2:
        raise ValueError("need at least 2 samples to integrate a cost")
    states = AdmissibleState(q=trajectory.q, v=trajectory.v)
    vals = running_cost(model, problem, ts, states, trajectory.u)
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


class AbnormalReport(NamedTuple):
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
            return (-frame_derivative(model, q, v).T @ y.reshape(n, n)).ravel()

        phi = rk4_step(f, times[idx], phi.ravel(), h).reshape(n, n)
        blocks.append(model.rho(q_series[idx + 1]).T @ phi)

    stacked = np.vstack(blocks)
    sv = np.linalg.svd(stacked, compute_uv=False)
    ratio = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    return AbnormalReport(nontrivial_solution=ratio < tol, singular_value_ratio=ratio)
