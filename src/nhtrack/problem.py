"""The tracking problem and the Newton driver that both solver routes share.

A TrackingProblem is one instance of the tracking cost

    J = int_0^T lambda0/2 (||q - q_r||^2 + ||v - v_r||^2 + eps ||u||^2) dt
        + omega * Phi(gamma(T))

on a fixed horizon, around a reference gamma_r sampled from an
AnalyticReference or a RolloutReference; running_cost is its integrand.
damped_newton, with NewtonSettings and its ConvergenceReport, drives the
Newton solve of either route: PMP shooting (pmp) and the constrained
midpoint variational integrator (varint).  Nothing here imports either
route, so a process loads only the one it runs.
"""
from __future__ import annotations

import math
import operator
from contextlib import suppress
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from .geometry import AdmissibleState, SystemModel, _state_field, state_difference
from .ode import TimeGrid, integrate

Array = np.ndarray


# ---------------------------------------------------------------------------
# reference trajectories

# RK4 step of the rollout reference's internal grid.  Step doubling (Hairer,
# Norsett & Wanner, Solving ODEs I, II.4): on the bundled sleigh rollout a
# build at this step and one at half of it agree within 1e-12 at every node
# and interval midpoint (tests/test_cli.py checks this).
ROLLOUT_STEP = 1e-2


@dataclass(frozen=True)
class AnalyticReference:
    """Affine-in-time reference gamma_r(t) = (q0 + t dq, v0 + t dv).

    t may be an array of times; the sample then carries its shape as
    leading axes of q and v.
    """

    q_base: Array
    q_slope: Array
    v_base: Array
    v_slope: Array

    def __post_init__(self) -> None:
        for name in ("q_base", "q_slope", "v_base", "v_slope"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), float))

    def __call__(self, t: float | Array) -> AdmissibleState:
        t = np.asarray(t, dtype=float)[..., None]
        return AdmissibleState(
            q=self.q_base + t * self.q_slope, v=self.v_base + t * self.v_slope
        )


def _check_time(t: Array, horizon: float, name: str) -> None:
    """ValueError, naming the first offending time and the name of the
    horizon, unless every sample time lies in [0, horizon]."""
    outside = ~((t >= -1e-9) & (t <= horizon + 1e-9))  # NaN is outside
    if np.any(outside):
        raise ValueError(
            f"t = {t[outside].flat[0]} outside the {name} horizon [0, {horizon}]"
        )


class RolloutReference:
    """Uncontrolled rollout of a model from a start state, sampled anywhere
    on [0, horizon].

    The rollout is integrated once on a dense internal grid; off-node times
    are evaluated by cubic Hermite interpolation using the exact vector-field
    slopes, which preserves the integrator's order.  Samples at t <= 0 and
    t >= horizon return the stored endpoint values unchanged, so repeated
    queries at the horizon are bit-identical.  t may be an array of times;
    each entry is sampled exactly as a scalar t would be, and the shape of t
    leads the axes of q and v.
    """

    def __init__(
        self,
        model: SystemModel,
        start: AdmissibleState,
        horizon: float,
        step: float = ROLLOUT_STEP,
    ) -> None:
        for name, value in (("horizon", horizon), ("step", step)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        self.model = model
        self.start = start
        self.horizon = float(horizon)
        f = _state_field(model, np.zeros(model.rank))
        steps = max(1, math.ceil(self.horizon / step))
        grid = TimeGrid(0.0, self.horizon, steps)
        self._times, self._ys = integrate(f, start.as_vector(), grid)
        # the field is autonomous: the slopes of all nodes in one call
        self._slopes = f(0.0, self._ys)
        self._h = grid.h
        self._n = model.n

    def __call__(self, t: float | Array) -> AdmissibleState:
        t = np.asarray(t, dtype=float)
        _check_time(t, self.horizon, "rollout")
        j = np.clip((t / self._h).astype(int), 0, len(self._times) - 2)
        s = (t - self._times[j]) / self._h
        # guard against floor/roundoff disagreement
        j = np.where(s < 0.0, np.maximum(j - 1, 0), j)
        s = ((t - self._times[j]) / self._h)[..., None]
        y0, y1 = self._ys[j], self._ys[j + 1]
        m0, m1 = self._slopes[j], self._slopes[j + 1]
        s2, s3 = s * s, s * s * s
        y = (
            (2 * s3 - 3 * s2 + 1) * y0
            + (s3 - 2 * s2 + s) * self._h * m0
            + (-2 * s3 + 3 * s2) * y1
            + (s3 - s2) * self._h * m1
        )
        # the endpoints exactly as stored
        y = np.where((t <= 0.0)[..., None], self._ys[0], y)
        y = np.where((t >= self.horizon)[..., None], self._ys[-1], y)
        return AdmissibleState(q=y[..., : self._n], v=y[..., self._n :])


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
        for name in ("epsilon", "horizon_T", "omega", "lambda0", "state_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
class NewtonSettings:
    """Damped-Newton settings shared by the shooting and variational solves:
    newton_tol bounds the residual norm at convergence, max_iters the Newton
    steps, fewer if the solve stalls (damped_newton).  The line search and
    finite-difference constants are DAMPING, MAX_HALVINGS and FD_STEP."""

    newton_tol: float = 1e-8
    max_iters: int = 50

    def __post_init__(self) -> None:
        label = type(self).__name__
        if not (math.isfinite(self.newton_tol) and self.newton_tol > 0):
            raise ValueError(f"{label}.newton_tol must be positive and finite")
        _check_count(self, "max_iters")


def _check_count(settings: NewtonSettings, name: str) -> None:
    """ValueError naming the field unless it is a positive integer; as for
    TimeGrid.steps, operator.index decides what is an integer, so a
    fractional count fails here and not inside the solve."""
    value = getattr(settings, name)
    with suppress(TypeError):
        if operator.index(value) > 0:
            return
    raise ValueError(
        f"{type(settings).__name__}.{name} must be a positive integer, got {value!r}"
    )


# the shooting route's globalizations (pmp.ShootingSettings.continuation)
CONTINUATIONS = ("none", "horizon", "terminal-weight")
# the variational route's Psi_d forms (varint.DelSettings.psi_variant)
PSI_VARIANTS = ("midpoint", "difference-quotient")


class IterationRecord(NamedTuple):
    iteration: int
    residual_norm: float
    damping: float


class ConvergenceReport(NamedTuple):
    converged: bool
    iterations: int
    residual_norm: float
    records: tuple[IterationRecord, ...]
    message: str


# a rejected trial step is scaled by DAMPING, at most MAX_HALVINGS times
# (2^-20, about 1e-6), else the solve has stalled; FD_STEP is the
# finite-difference step of both routes' Jacobians
DAMPING = 0.5
MAX_HALVINGS = 20
FD_STEP = 1e-6


def damped_newton(
    x: Array,
    evaluate: Callable[[Array], tuple[Array, Any]],
    correction: Callable[[Array, Array, Any], Array],
    norm: Callable[[Array], float],
    norm_name: str,
    settings: NewtonSettings,
) -> tuple[Array, Any, ConvergenceReport]:
    """Damped Newton with backtracking on a flat vector of unknowns.

    evaluate(x) returns the residual at x and any data the caller wants
    from that evaluation; correction(x, r, data) returns the full Newton
    step delta at the last accepted iterate x, given the residual r and the
    data that evaluate returned there (so an evaluation can carry the
    Jacobian of its point, or the unpacked unknowns, to the step that
    follows it).  Each iteration tries x + beta delta for beta =
    DAMPING^halving, halving = 0 .. MAX_HALVINGS, and accepts the first
    trial whose residual norm decreases; a trial whose evaluation fails
    numerically (ArithmeticError) counts as no decrease.  When none
    decreases it, the solve stops unconverged at the current iterate as
    "stalled at iteration k: ...", naming the smallest scale tried, the
    norm and any failed trial's error (Nocedal & Wright, 2nd ed., 3.1).
    An error raised by evaluate at the start point or by correction
    propagates.  Returns (x, data, report).
    """
    x = x.copy()
    r, data = evaluate(x)
    r_norm = norm(r)
    records: list[IterationRecord] = []

    def result(
        converged: bool, iterations: int, message: str
    ) -> tuple[Array, Any, ConvergenceReport]:
        # the current iterate, its data and the log so far
        report = ConvergenceReport(converged, iterations, r_norm, tuple(records), message)
        return x, data, report

    if r_norm <= settings.newton_tol:
        return result(True, 0, "initial guess already within tolerance")

    for iteration in range(1, settings.max_iters + 1):
        delta = correction(x, r, data)
        failure = ""
        for halving in range(MAX_HALVINGS + 1):
            beta = DAMPING**halving
            cand = x + beta * delta
            try:
                r_c, data_c = evaluate(cand)
            except ArithmeticError as exc:
                failure = f"; last failed trial: {exc}"
                continue
            if (c_norm := norm(r_c)) < r_norm:
                break
        else:
            return result(
                False, iteration - 1,
                f"stalled at iteration {iteration}: no step scale down to "
                f"{beta:.3e} decreased the {norm_name} {r_norm:.3e}{failure}",
            )
        x, r, data, r_norm = cand, r_c, data_c, c_norm
        records.append(IterationRecord(iteration, r_norm, beta))
        if r_norm <= settings.newton_tol:
            return result(True, iteration, "converged")

    return result(
        False, settings.max_iters,
        f"no convergence in {settings.max_iters} iterations "
        f"({norm_name} {r_norm:.3e})",
    )


# ---------------------------------------------------------------------------
# pointwise quantities


def running_cost(
    model: SystemModel,
    problem: TrackingProblem,
    t: float | Array,
    state: AdmissibleState,
    u: Array,
) -> float | Array:
    """Running cost lambda0/2 (||q - q_r||^2 + ||v - v_r||^2 + eps ||u||^2),
    with angle components differenced into (-pi, pi].

    One time and one point give a scalar.  An array of times with a stack
    of points and controls (leading axes of the shape of t on q, v and u)
    gives one cost per row, each equal to its single-point value; the
    reference is sampled once, at the array of times.
    """
    t = np.asarray(t, dtype=float)
    _check_time(t, problem.horizon_T, "problem")
    dq, dv = state_difference(model, state, problem.reference(t))
    u = np.asarray(u, dtype=float)
    sw = problem.state_weight
    return problem.lambda0 * (0.5 * (
        sw * np.vecdot(dq, dq) + sw * np.vecdot(dv, dv)
        + problem.epsilon * np.vecdot(u, u)
    ))


def _check_span(grid: TimeGrid, problem: TrackingProblem, name: str) -> None:
    """ValueError, naming the grid, unless it spans [0, problem.horizon_T]."""
    if abs(grid.t0) > 1e-12 or abs(grid.tf - problem.horizon_T) > 1e-9:
        raise ValueError(
            f"{name} must span [0, {problem.horizon_T}], "
            f"got [{grid.t0}, {grid.tf}]"
        )
