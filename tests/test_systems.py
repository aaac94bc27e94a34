"""Benchmark models: parameter handling, tabulated values, first integrals,
and preset resolution."""
from __future__ import annotations

import numpy as np
import pytest

from nhtrack.geometry import (
    AdmissibleState,
    admissibility_velocity,
    dynamics_rhs,
    restricted_energy,
)
from nhtrack.ode import TimeGrid, integrate
from nhtrack.systems import (
    SleighParams,
    available_systems,
    particle_model,
    resolve_system,
    sleigh_model,
)


def test_sleigh_params_eta():
    p = SleighParams(mass_m=1.0, inertia_J=4.0, offset_a=0.2)
    assert p.eta == pytest.approx(0.2 / 4.04, rel=1e-15)
    assert p.eta == pytest.approx(0.0495049505, abs=1e-10)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mass_m": 0.0},
        {"mass_m": -1.0},
        {"inertia_J": 0.0},
        {"offset_a": -0.1},
    ],
)
def test_sleigh_params_validation(kwargs):
    with pytest.raises(ValueError):
        SleighParams(**kwargs)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["mass_m", "inertia_J", "offset_a"])
def test_sleigh_params_reject_a_nonfinite_parameter(field, value):
    """NaN passes every `<= 0` check and made eta NaN; an infinite inertia
    made it 0."""
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SleighParams(**{field: value})


def test_particle_restricted_energy_value():
    model = particle_model()
    state = AdmissibleState(q=[0.0, 1.0, 0.0], v=[1.0, 1.0])
    assert restricted_energy(model, state) == pytest.approx(1.5, abs=1e-15)


def test_particle_metric_identity_at_y_zero():
    model = particle_model()
    np.testing.assert_array_equal(
        model.metric_d(np.array([3.0, 0.0, -1.0])), np.eye(2)
    )


def test_sleigh_sideways_at_theta_half_pi():
    model = sleigh_model(SleighParams(mass_m=1.0, inertia_J=4.0, offset_a=0.2))
    state = AdmissibleState(q=[0.0, 0.0, np.pi / 2], v=[0.0, 1.0])
    np.testing.assert_allclose(
        admissibility_velocity(model, state), [0.0, 1.0, 0.0], atol=1e-15
    )


def _free_flow(model):
    def f(t, y):
        state = AdmissibleState.from_vector(y, model.n)
        qdot, vdot = dynamics_rhs(model, state, np.zeros(model.rank))
        return np.concatenate([qdot, vdot])

    return f


def test_sleigh_speed_invariant_conserved():
    # d/dt[(v1)^2 + (v2)^2] = 2 v1 (-eta v1 v2) + 2 v2 (eta v1^2) = 0
    model = sleigh_model()
    y0 = np.array([0.0, 0.5, 0.0, 1.0 / 3.0, 1.0])
    _, ys = integrate(_free_flow(model), y0, TimeGrid(0.0, 5.0, 5000))
    speed2 = ys[:, 3] ** 2 + ys[:, 4] ** 2
    assert np.max(np.abs(speed2 - 10.0 / 9.0)) <= 1e-8


def test_sleigh_speed_invariant_drift_halves_at_fourth_order():
    model = sleigh_model()
    y0 = np.array([0.0, 0.5, 0.0, 1.0 / 3.0, 1.0])

    def drift(steps):
        _, ys = integrate(_free_flow(model), y0, TimeGrid(0.0, 5.0, steps))
        speed2 = ys[:, 3] ** 2 + ys[:, 4] ** 2
        return np.max(np.abs(speed2 - 10.0 / 9.0))

    assert drift(100) / drift(200) >= 8.0


def test_particle_v1_constant_in_rhs():
    model = particle_model()
    rng = np.random.default_rng(3)
    for _ in range(50):
        state = AdmissibleState(q=rng.normal(size=3), v=rng.normal(size=2))
        _, vdot = dynamics_rhs(model, state, np.zeros(2))
        assert vdot[0] == 0.0


# ---------------------------------------------------------------------------
# preset resolution


def test_resolve_particle():
    assert resolve_system("particle").name == "particle"


def test_resolve_sleigh_named_preset():
    model = resolve_system("sleigh:paper-5.1")
    assert model.name == "sleigh"
    # eta of the preset parameters shows up in the quadratic term
    state = AdmissibleState(q=[0.0, 0.0, 0.0], v=[1.0, 0.0])
    _, vdot = dynamics_rhs(model, state, np.zeros(2))
    assert vdot[1] == pytest.approx(0.2 / 4.04)


def test_resolve_sleigh_custom():
    model = resolve_system(
        "sleigh:custom", mass_m=2.0, inertia_J=1.0, offset_a=0.5
    )
    state = AdmissibleState(q=[0.0, 0.0, 0.0], v=[1.0, 0.0])
    _, vdot = dynamics_rhs(model, state, np.zeros(2))
    expected_eta = 0.5 * np.sqrt(2.0) / (1.0 + 2.0 * 0.25)
    assert vdot[1] == pytest.approx(expected_eta, rel=1e-14)


def test_resolve_sleigh_custom_missing_params():
    with pytest.raises(ValueError, match="inertia_J"):
        resolve_system("sleigh:custom", mass_m=1.0, offset_a=0.1)


@pytest.mark.parametrize("name", ["particle", "sleigh", "sleigh:paper-5.1"])
def test_resolve_fixed_preset_refuses_parameters(name):
    """A preset that carries its own parameters refuses any, rather than
    silently returning its own model."""
    with pytest.raises(ValueError, match="apply to preset sleigh:custom only"):
        resolve_system(name, inertia_J=9.0)


def test_resolve_unknown_names():
    with pytest.raises(ValueError, match="unknown system"):
        resolve_system("pendulum")
    with pytest.raises(ValueError, match="unknown sleigh preset"):
        resolve_system("sleigh:nope")


def test_available_systems_lists_presets():
    names = available_systems()
    assert "particle" in names
    assert "sleigh:paper-5.1" in names
    assert "sleigh:custom" in names


# ---------------------------------------------------------------------------
# stacked configurations


def _single_point_shapes(model):
    n, m, k = model.n, model.corank, model.rank
    return {
        "rho": (n, k), "rho_jac": (n, k, n), "christoffel": (k, k, k),
        "christoffel_jac": (k, k, k, n), "metric_d": (k, k),
        "potential_grad": (k,), "potential_grad_jac": (k, n),
        "annihilator": (m, n),
    }


@pytest.mark.parametrize("lead", [(), (6,), (2, 3)], ids=["1-D", "N", "2x3"])
@pytest.mark.parametrize("system", ["particle", "sleigh:paper-5.1"])
def test_callables_on_stacked_q_equal_their_rows(system, lead):
    """Every callable takes q of shape (..., n): the result carries the
    leading axes, and each row equals the single-point call on that row."""
    model = resolve_system(system)
    qs = np.random.default_rng(11).normal(size=lead + (model.n,))
    for name, shape in _single_point_shapes(model).items():
        fn = getattr(model, name)
        batch = fn(qs)
        assert batch.shape == lead + shape, name
        for idx in np.ndindex(*lead):
            np.testing.assert_allclose(
                batch[idx], fn(qs[idx].copy()), rtol=1e-15, atol=0, err_msg=name
            )
