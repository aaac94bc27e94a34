"""Geometry layer: admissibility maps, controlled dynamics, constraint
residuals, and the structure-constant Christoffel helper."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nhtrack.geometry import (
    AdmissibleState,
    SystemModel,
    admissibility_velocity,
    christoffel_from_structure,
    constraint_residual,
    drift,
    dynamics_rhs,
    restricted_energy,
    state_difference,
    wrap_angle,
)
from nhtrack.ode import TimeGrid, integrate
from nhtrack.systems import (
    SleighParams,
    particle_model,
    particle_structure_constants,
    sleigh_model,
    sleigh_structure_constants,
)

ALL_MODELS = [particle_model(), sleigh_model()]


def _random_states(model, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield AdmissibleState(
            q=rng.uniform(-2.0, 2.0, size=model.n),
            v=rng.uniform(-2.0, 2.0, size=model.rank),
        )


# ---------------------------------------------------------------------------
# admissibility_velocity


def test_admissibility_zero_velocity():
    model = particle_model()
    state = AdmissibleState(q=[0.0, 0.0, 0.0], v=[0.0, 0.0])
    assert np.array_equal(admissibility_velocity(model, state), np.zeros(3))


def test_admissibility_particle_table():
    # x and z are cyclic for rho, only y enters
    model = particle_model()
    for x, z in [(0.0, 0.0), (5.0, -3.0)]:
        state = AdmissibleState(q=[x, 2.0, z], v=[1.0, 3.0])
        np.testing.assert_allclose(
            admissibility_velocity(model, state), [-6.0, 1.0, 3.0], atol=0
        )


def test_admissibility_sleigh_theta_zero():
    model = sleigh_model(SleighParams(mass_m=1.0, inertia_J=4.0, offset_a=0.2))
    state = AdmissibleState(q=[0.0, 0.0, 0.0], v=[0.0, 1.0])
    np.testing.assert_allclose(
        admissibility_velocity(model, state), [1.0, 0.0, 0.0], atol=1e-15
    )


def test_admissibility_dimension_error_names_field():
    model = particle_model()
    bad = AdmissibleState(q=[0.0, 0.0, 0.0], v=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="state.v"):
        admissibility_velocity(model, bad)
    bad_q = AdmissibleState(q=[0.0, 0.0], v=[1.0, 2.0])
    with pytest.raises(ValueError, match="state.q"):
        admissibility_velocity(model, bad_q)


# ---------------------------------------------------------------------------
# dynamics_rhs


def test_particle_v1dot_is_zero():
    model = particle_model()
    rng = np.random.default_rng(7)
    for _ in range(20):
        state = AdmissibleState(
            q=rng.normal(size=3), v=rng.normal(size=2)
        )
        _, vdot = dynamics_rhs(model, state, np.zeros(2))
        assert vdot[0] == 0.0


def test_particle_v2dot_value():
    model = particle_model()
    state = AdmissibleState(q=[0.0, 1.0, 0.0], v=[2.0, 3.0])
    _, vdot = dynamics_rhs(model, state, np.zeros(2))
    assert vdot[1] == pytest.approx(-3.0, abs=1e-14)


def test_sleigh_forward_push():
    model = sleigh_model(SleighParams(mass_m=1.0, inertia_J=4.0, offset_a=0.2))
    state = AdmissibleState(q=[0.0, 0.0, 0.3], v=[1.0, 0.0])
    _, vdot = dynamics_rhs(model, state, np.zeros(2))
    eta = 0.2 / 4.04
    np.testing.assert_allclose(vdot, [0.0, eta], atol=1e-15)


def test_dynamics_control_enters_additively():
    model = sleigh_model()
    state = AdmissibleState(q=[0.1, -0.2, 1.0], v=[0.4, -0.7])
    u = np.array([0.3, -1.1])
    _, vdot0 = dynamics_rhs(model, state, np.zeros(2))
    _, vdotu = dynamics_rhs(model, state, u)
    np.testing.assert_allclose(vdotu - vdot0, u, atol=1e-15)


def test_dynamics_dimension_error():
    model = particle_model()
    state = AdmissibleState(q=[0.0, 0.0, 0.0], v=[0.0, 0.0])
    with pytest.raises(ValueError, match="u"):
        dynamics_rhs(model, state, np.zeros(3))


# ---------------------------------------------------------------------------
# constraint_residual


def test_constraint_zero_velocity():
    for model in ALL_MODELS:
        res = constraint_residual(model, np.zeros(model.n), np.zeros(model.n))
        assert np.array_equal(res, np.zeros(model.corank))


def test_constraint_annihilates_basis_velocities():
    model = particle_model()
    y, b, c = 1.7, 0.3, -0.9
    qdot = np.array([-y * c, b, c])
    res = constraint_residual(model, np.array([0.0, y, 0.0]), qdot)
    np.testing.assert_allclose(res, [0.0], atol=1e-15)


def test_constraint_detects_violation():
    model = particle_model()
    res = constraint_residual(model, np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(res, [1.0], atol=0)


# ---------------------------------------------------------------------------
# christoffel_from_structure


def test_structure_formula_zero_input():
    out = christoffel_from_structure(np.zeros((2, 2, 2)))
    assert np.array_equal(out, np.zeros((2, 2, 2)))


def test_structure_formula_particle_frame():
    # The particle frame has bracket [Y1, Y2] = c Y2 with c = y/(1+y^2).
    # Element-wise evaluation of the formula on that input gives the
    # one-sided pair {Gamma^1_22 = c, Gamma^2_21 = -c}: the frame is
    # orthogonal but not orthonormal, so this does NOT equal the metric
    # Christoffel symbol Gamma^2_12 stored by particle_model (that mismatch
    # is exactly why SystemModel stores Gamma directly).
    q = np.array([0.0, 1.3, 0.0])
    c = 1.3 / (1.0 + 1.3**2)
    out = christoffel_from_structure(particle_structure_constants(q))
    expected = np.zeros((2, 2, 2))
    expected[0, 1, 1] = c
    expected[1, 1, 0] = -c
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_structure_formula_sleigh_frame_matches_stored_gamma():
    params = SleighParams(mass_m=1.0, inertia_J=4.0, offset_a=0.2)
    model = sleigh_model(params)
    out = christoffel_from_structure(sleigh_structure_constants(params))
    # orthonormal frame: formula output and stored tensor agree exactly
    assert np.array_equal(out, model.christoffel(np.zeros(3)))


def _brute_force_formula(s):
    k = s.shape[0]
    out = np.zeros_like(s)
    for c in range(k):
        for a in range(k):
            for b in range(k):
                out[c, a, b] = 0.5 * (s[b, c, a] + s[a, c, b] + s[c, a, b])
    return out


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        (3, 3, 3),
        elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
)
def test_structure_formula_matches_brute_force(raw):
    s = 0.5 * (raw - np.transpose(raw, (0, 2, 1)))  # antisymmetrize
    np.testing.assert_allclose(
        christoffel_from_structure(s), _brute_force_formula(s), atol=1e-12
    )


def test_structure_formula_rejects_nonantisymmetric():
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="antisym|[-]C"):
        christoffel_from_structure(bad)


def test_structure_formula_rejects_noncubic():
    with pytest.raises(ValueError):
        christoffel_from_structure(np.zeros((2, 2, 3)))


# ---------------------------------------------------------------------------
# model invariants


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_annihilator_kills_admissible_velocities(model):
    for state in _random_states(model, 100, seed=11):
        qdot = admissibility_velocity(model, state)
        res = constraint_residual(model, state.q, qdot)
        assert np.max(np.abs(res)) <= 1e-12


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_annihilator_times_rho_is_zero(model):
    for state in _random_states(model, 100, seed=13):
        prod = model.annihilator(state.q) @ model.rho(state.q)
        assert np.max(np.abs(prod)) <= 1e-12


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_rho_full_column_rank(model):
    for state in _random_states(model, 100, seed=17):
        assert np.linalg.matrix_rank(model.rho(state.q)) == model.rank


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_metric_symmetric_positive_definite(model):
    for state in _random_states(model, 100, seed=19):
        g = model.metric_d(state.q)
        assert np.max(np.abs(g - g.T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(g)) > 0


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_rho_jac_matches_finite_differences(model):
    delta = 1e-6
    for state in _random_states(model, 100, seed=23):
        jac = model.rho_jac(state.q)
        for j in range(model.n):
            e = np.zeros(model.n)
            e[j] = delta
            fd = (model.rho(state.q + e) - model.rho(state.q - e)) / (2 * delta)
            np.testing.assert_allclose(jac[:, :, j], fd, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_christoffel_jac_matches_finite_differences(model):
    delta = 1e-6
    for state in _random_states(model, 25, seed=29):
        jac = model.christoffel_jac(state.q)
        for j in range(model.n):
            e = np.zeros(model.n)
            e[j] = delta
            fd = (
                model.christoffel(state.q + e) - model.christoffel(state.q - e)
            ) / (2 * delta)
            np.testing.assert_allclose(jac[:, :, :, j], fd, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("missing", ["christoffel_jac", "potential_grad_jac"])
def test_model_jacobian_is_required(missing):
    model = particle_model()
    kwargs = dict(
        n=3, corank=1, rho=model.rho, rho_jac=model.rho_jac,
        christoffel=model.christoffel, christoffel_jac=model.christoffel_jac,
        metric_d=model.metric_d, potential_grad=model.potential_grad,
        potential_grad_jac=model.potential_grad_jac, annihilator=model.annihilator,
    )
    del kwargs[missing]
    with pytest.raises(TypeError, match=missing):
        SystemModel(**kwargs)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_drift_matches_dynamics_and_finite_differences(model):
    delta = 1e-6
    for state in _random_states(model, 25, seed=31):
        q, v = state.q, state.v
        a, a_q, a_v = drift(model, q, v)
        _, vdot = dynamics_rhs(model, state, np.zeros(model.rank))
        np.testing.assert_allclose(a, -vdot, rtol=1e-14, atol=1e-14)
        for j in range(model.n):
            e = np.zeros(model.n)
            e[j] = delta
            fd = (drift(model, q + e, v)[0] - drift(model, q - e, v)[0]) / (2 * delta)
            np.testing.assert_allclose(a_q[:, j], fd, rtol=1e-6, atol=1e-9)
        for j in range(model.rank):
            e = np.zeros(model.rank)
            e[j] = delta
            fd = (drift(model, q, v + e)[0] - drift(model, q, v - e)[0]) / (2 * delta)
            np.testing.assert_allclose(a_v[:, j], fd, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_uncontrolled_energy_drift_is_fourth_order(model):
    # With u = 0 the restricted energy is conserved; RK4 drift must drop
    # by >= 8x (ideally ~16x) when h halves.
    def f(t, y):
        state = AdmissibleState.from_vector(y, model.n)
        qdot, vdot = dynamics_rhs(model, state, np.zeros(model.rank))
        return np.concatenate([qdot, vdot])

    # energetic enough that the coarse drift sits far above float noise
    y0 = np.array([0.0, 0.5, 0.0, 2.0, 3.0])
    e0 = restricted_energy(model, AdmissibleState.from_vector(y0, model.n))

    def max_drift(steps):
        _, ys = integrate(f, y0, TimeGrid(0.0, 5.0, steps))
        energies = [
            restricted_energy(model, AdmissibleState.from_vector(y, model.n))
            for y in ys
        ]
        return np.max(np.abs(np.asarray(energies) - e0))

    coarse = max_drift(20)
    fine = max_drift(40)
    assert coarse / fine >= 8.0, f"drift ratio {coarse / fine:.2f}"


# ---------------------------------------------------------------------------
# angle wrapping


def test_wrap_angle_principal_interval():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(0.1) == pytest.approx(0.1)
    assert wrap_angle(2 * np.pi + 0.3) == pytest.approx(0.3)
    assert wrap_angle(-0.2) == pytest.approx(-0.2)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_wrap_angle_in_half_open_interval(x):
    w = float(wrap_angle(x))
    assert -np.pi < w <= np.pi
    # wrapped value differs from the input by a multiple of 2 pi
    assert abs((x - w) / (2 * np.pi) - round((x - w) / (2 * np.pi))) < 1e-9


def test_state_difference_wraps_angle_components():
    model = sleigh_model()
    a = AdmissibleState(q=[1.0, 2.0, 0.1], v=[0.0, 0.0])
    b = AdmissibleState(q=[0.0, 0.0, 2 * np.pi - 0.1], v=[0.0, 0.0])
    dq, _ = state_difference(model, a, b)
    np.testing.assert_allclose(dq, [1.0, 2.0, 0.2], atol=1e-12)
