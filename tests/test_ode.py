"""Fixed-step RK4: tableau value, convergence order, error reporting."""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from nhtrack.ode import IntegrationError, TimeGrid, integrate, rk4_step


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(2.0, 1.0, 10)


@pytest.mark.parametrize("field", ["t0", "tf"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_grid_rejects_a_nonfinite_end(field, value):
    """TimeGrid(0.0, inf, 10) had h = inf."""
    ends = {"t0": 0.0, "tf": 1.0, field: value}
    with pytest.raises(ValueError, match=f"TimeGrid.{field} must be finite"):
        TimeGrid(ends["t0"], ends["tf"], 10)


@pytest.mark.parametrize("steps", [2.5, 2.0, "2"])
def test_grid_rejects_a_steps_count_that_is_no_integer(steps):
    """TimeGrid(0.0, 1.0, 2.5).times() ran past tf, to 1.2."""
    with pytest.raises(ValueError, match="TimeGrid.steps must be an integer"):
        TimeGrid(0.0, 1.0, steps)


def test_grid_takes_a_numpy_integer_steps_count_as_an_int():
    grid = TimeGrid(0.0, 1.0, np.int64(4))
    assert type(grid.steps) is int and grid.steps == 4
    np.testing.assert_array_equal(grid.times(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_times():
    grid = TimeGrid(1.0, 3.0, 4)
    assert grid.h == pytest.approx(0.5)
    np.testing.assert_allclose(grid.times(), [1.0, 1.5, 2.0, 2.5, 3.0])


def test_rk4_zero_field():
    y = np.array([1.0, -2.0, 3.0])
    out = rk4_step(lambda t, x: np.zeros(3), 0.0, y, 0.1)
    np.testing.assert_array_equal(out, y)


def test_rk4_exponential_tableau_value():
    # hand evaluation for f = y, y0 = 1, h = 0.1:
    # k1 = 1, k2 = 1.05, k3 = 1.0525, k4 = 1.10525
    # y1 = 1 + (0.1/6)(k1 + 2 k2 + 2 k3 + k4)
    h = 0.1
    k1 = 1.0
    k2 = 1.0 + 0.5 * h * k1
    k3 = 1.0 + 0.5 * h * k2
    k4 = 1.0 + h * k3
    expected = 1.0 + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    out = rk4_step(lambda t, y: y, 0.0, np.array([1.0]), h)
    assert out[0] == pytest.approx(expected, abs=0)
    assert out[0] == pytest.approx(1.1051708333333332, abs=1e-15)


def test_rk4_linear_field_sixteenfold_error_reduction():
    def endpoint_error(steps):
        _, ys = integrate(lambda t, y: y, np.array([1.0]), TimeGrid(0.0, 1.0, steps))
        return abs(ys[-1, 0] - np.e)

    ratio = endpoint_error(50) / endpoint_error(100)
    assert 12.0 <= ratio <= 20.0


def test_rk4_observed_order_on_smooth_field():
    # nonlinear scalar field with known solution: y' = y^2, y(0) = 0.5,
    # y(t) = 1/(2 - t)
    def err(steps):
        _, ys = integrate(
            lambda t, y: y**2, np.array([0.5]), TimeGrid(0.0, 1.0, steps)
        )
        return abs(ys[-1, 0] - 1.0)

    order = np.log2(err(64) / err(128))
    assert abs(order - 4.0) <= 0.2


def test_rk4_nonfinite_stage_reports_index():
    with pytest.raises(IntegrationError) as info:
        rk4_step(lambda t, y: y * np.nan, 0.0, np.array([1.0]), 0.1)
    assert info.value.stage == 1

    def blows_up_off_node(t, y):
        # finite at the step start, NaN at the half step: stage 2 trips
        return y * (np.nan if t > 0.0 else 1.0)

    with pytest.raises(IntegrationError) as info:
        rk4_step(blows_up_off_node, 0.0, np.array([1.0]), 0.1)
    assert info.value.stage == 2
    assert "stage 2" in str(info.value)


def test_rk4_nonfinite_stage_marks_the_rows_of_a_stack():
    """On a stack of flows the error marks the rows whose stage value is
    non-finite (over the leading axes), a 0-d mask for a single flow."""
    def nan_in_row_1(t, y):
        out = np.ones_like(y)
        out[..., 1, 0] = np.nan
        return out

    with pytest.raises(IntegrationError) as info:
        rk4_step(nan_in_row_1, 0.25, np.zeros((2, 3, 2)), 0.1)
    assert info.value.t == 0.25
    np.testing.assert_array_equal(info.value.rows, [[False, True, False]] * 2)

    with pytest.raises(IntegrationError) as info:
        rk4_step(lambda t, y: y * np.nan, 0.0, np.array([1.0, 2.0]), 0.1)
    assert info.value.rows.shape == () and info.value.rows


def test_rk4_stage_raising_after_a_nonfinite_stage_reports_that_stage():
    """A stage that raises on the non-finite input an earlier stage left
    still ends in the IntegrationError of the first non-finite stage, with
    the stage's exception as its cause."""
    def strict(t, y):
        if not np.isfinite(y).all():
            raise ValueError("non-finite input")
        return y * (np.nan if t > 0.0 else 1.0)

    with np.errstate(invalid="ignore"):
        with pytest.raises(IntegrationError) as info:
            rk4_step(strict, 0.0, np.array([1.0]), 0.1)
    assert info.value.stage == 2
    assert info.value.t == 0.0
    assert "stage 2" in str(info.value)
    assert isinstance(info.value.__cause__, ValueError)


def test_rk4_stage_raising_on_finite_stages_propagates_unchanged():
    def broken(t, y):
        if t > 0.0:
            raise ValueError("off the grid")
        return y

    with pytest.raises(ValueError, match="off the grid"):
        rk4_step(broken, 0.0, np.array([1.0]), 0.1)


def test_rk4_finite_stages_with_overflowing_update_return_inf():
    """Only a non-finite stage is an integration error: finite stages whose
    weighted sum overflows give an inf update, returned as is."""
    with np.errstate(over="ignore"):
        out = rk4_step(lambda t, y: np.full_like(y, 1e308), 0.0, np.array([0.0]), 6.0)
    assert out.shape == (1,)
    assert np.isposinf(out[0])


def test_integrate_fails_quietly_on_blow_up():
    # y' = y^2 from y = 1 blows up at t = 1; RK4's stages overflow soon after
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError):
            integrate(lambda t, y: y**2, np.array([1.0]), TimeGrid(0.0, 2.0, 100))


def test_integrate_shapes_and_initial_sample():
    times, ys = integrate(lambda t, y: np.zeros(2), np.array([3.0, -1.0]), TimeGrid(0.5, 1.5, 10))
    assert times.shape == (11,)
    assert ys.shape == (11, 2)
    assert times[0] == 0.5
    np.testing.assert_array_equal(ys[0], [3.0, -1.0])
    # zero field: constant sequence
    assert np.all(ys == ys[0])
