"""Fixed-step explicit Runge-Kutta integration.

Fixed step (not adaptive) on purpose: the shooting solver differentiates the
flow map by finite differences, and adaptive step-size switching would make
that map piecewise in its arguments.

Each step is checked for finiteness once, on its update; the stages are
scanned only when that check fails or a stage raises, and the error still
names the first non-finite stage.  A flow therefore runs its step loop under
one np.errstate(over="ignore", invalid="ignore"), since the stages after a
non-finite one see non-finite input.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray
VectorField = Callable[[float, Array], Array]

# the most steps of a TimeGrid, so of any flow or solve on one
MAX_STEPS = 10**6


class IntegrationError(ArithmeticError):
    """A stage evaluation produced a non-finite value.

    rows marks, over the leading axes of a stack of flows, the rows whose
    stage value is non-finite (by default a 0-d mask: one failing flow), so
    a caller that runs stacked flows on their own clocks can name the earliest.
    """

    def __init__(self, stage: int, t: float, rows: Array = np.True_) -> None:
        super().__init__(
            f"non-finite value in RK4 stage {stage} at t = {t:.6g}"
        )
        self.stage = stage
        self.t = t
        self.rows = rows


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of `steps` intervals on [t0, tf]."""

    t0: float
    tf: float
    steps: int

    def __post_init__(self) -> None:
        for name in ("t0", "tf"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"TimeGrid.{name} must be finite, got {getattr(self, name)}"
                )
        try:
            object.__setattr__(self, "steps", operator.index(self.steps))
        except TypeError:
            raise ValueError(
                f"TimeGrid.steps must be an integer, got {self.steps!r}"
            ) from None
        if not 0 < self.steps <= MAX_STEPS:
            raise ValueError(f"TimeGrid.steps must be in 1..{MAX_STEPS}, got {self.steps}")
        if not self.tf > self.t0:
            raise ValueError(
                f"TimeGrid requires tf > t0, got t0={self.t0}, tf={self.tf}"
            )

    @property
    def h(self) -> float:
        return (self.tf - self.t0) / self.steps

    def times(self) -> Array:
        return self.t0 + self.h * np.arange(self.steps + 1)


def rk4_step(f: VectorField, t: float, y: Array, h: float) -> Array:
    """One classical Runge-Kutta 4 update from (t, y) with step h; raises
    IntegrationError naming the first non-finite stage, checked once as the
    module docstring states."""
    y = np.asarray(y, dtype=float)
    stages: list[Array] = []
    try:
        k1 = np.asarray(f(t, y), dtype=float)
        stages.append(k1)
        k2 = np.asarray(f(t + 0.5 * h, y + 0.5 * h * k1), dtype=float)
        stages.append(k2)
        k3 = np.asarray(f(t + 0.5 * h, y + 0.5 * h * k2), dtype=float)
        stages.append(k3)
        k4 = np.asarray(f(t + h, y + h * k3), dtype=float)
        stages.append(k4)
        out = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    except Exception as exc:
        _raise_first_nonfinite(stages, t, exc)
        raise
    if not np.isfinite(out).all():
        _raise_first_nonfinite(stages, t, None)
    return out


def _raise_first_nonfinite(
    stages: list[Array], t: float, cause: Exception | None
) -> None:
    """Raise IntegrationError for the first non-finite stage, with cause as
    its __cause__; return when every stage is finite (a finite step whose
    update overflows returns inf)."""
    for stage, k in enumerate(stages, start=1):
        rows = ~np.all(np.isfinite(k), axis=-1)
        if rows.any():
            raise IntegrationError(stage, t, rows) from cause


def integrate(f: VectorField, y0: Array, grid: TimeGrid) -> tuple[Array, Array]:
    """Integrate y' = f(t, y) over the grid.

    Returns (times, states) with times of length N+1 and states of shape
    (N+1, dim); states[0] is y0.
    """
    y0 = np.asarray(y0, dtype=float)
    times = grid.times()
    out = np.empty((grid.steps + 1, y0.size))
    out[0] = y0
    h = grid.h
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.steps):
            out[k + 1] = rk4_step(f, times[k], out[k], h)
    return times, out
