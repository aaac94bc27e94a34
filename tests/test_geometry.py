"""Geometry layer: admissibility maps, controlled dynamics, constraint
residuals, and the structure-constant Christoffel helper."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nhtrack.geometry import (
    AdmissibleState,
    SystemModel,
    _rates,
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
from nhtrack.varint import reconstructed_control

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


@pytest.mark.parametrize("params", [
    SleighParams(mass_m=1.0, inertia_J=4.0, offset_a=0.2),  # paper-5.1
    SleighParams(mass_m=2.5, inertia_J=0.7, offset_a=1.3),
], ids=["paper-5.1", "custom"])
def test_structure_formula_sleigh_frame_matches_stored_gamma(params):
    """Orthonormal frame: formula output and stored tensor agree bitwise,
    at every q of a stack, and hold Gamma^1_12 = eta, Gamma^2_11 = -eta."""
    model = sleigh_model(params)
    out = christoffel_from_structure(sleigh_structure_constants(params))
    qs = np.random.default_rng(5).normal(size=(4, 3))
    assert np.array_equal(model.christoffel(qs), np.broadcast_to(out, (4, 2, 2, 2)))
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 1] = params.eta
    expected[1, 0, 0] = -params.eta
    assert np.array_equal(out, expected)


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


@pytest.mark.parametrize(
    "change, match",
    [
        (dict(n=0), "n must be positive"),
        (dict(corank=0), r"corank must lie in \(0, n\)"),
        (dict(corank=3), r"corank must lie in \(0, n\)"),
        (dict(angle_indices=frozenset({3})), r"angle_indices out of range: \[3\]"),
    ],
)
def test_model_rejects_bad_dimensions(change, match):
    model = particle_model()
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(model, **change)


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
    """a is minus the zero-control acceleration, and pullback(e_A) is row A
    of a_q and of a_v, each entry checked against central differences."""
    delta = 1e-6
    for state in _random_states(model, 25, seed=31):
        q, v = state.q, state.v
        a, pullback = drift(model, q, v)
        _, vdot = dynamics_rhs(model, state, np.zeros(model.rank))
        np.testing.assert_allclose(a, -vdot, rtol=1e-14, atol=1e-14)
        rows = [pullback(e_a) for e_a in np.eye(model.rank)]
        a_q = np.array([row[0] for row in rows])
        a_v = np.array([row[1] for row in rows])
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


@pytest.mark.parametrize("lead", [(), (6,), (2, 3)], ids=["1-D", "N", "2x3"])
@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_drift_on_stacked_points_equals_rows(model, lead):
    """drift on q (..., n), v (..., k) returns per row what the contraction
    formulas give at that single point, and so does its pullback along a
    covector w (..., k)."""
    rng = np.random.default_rng(17)
    q = rng.uniform(-2.0, 2.0, size=lead + (model.n,))
    v = rng.uniform(-2.0, 2.0, size=lead + (model.rank,))
    w = rng.uniform(-2.0, 2.0, size=lead + (model.rank,))
    a, pullback = drift(model, q, v)
    w_aq, w_av = pullback(w)
    assert a.shape == lead + (model.rank,)
    assert w_aq.shape == lead + (model.n,)
    assert w_av.shape == lead + (model.rank,)
    for idx in np.ndindex(*lead):
        qi, vi, wi = q[idx], v[idx], w[idx]
        gam = model.christoffel(qi)
        expected = (
            np.einsum("abc,b,c->a", gam, vi, vi) + model.potential_grad(qi),
            np.einsum("a,abcj,b,c->j", wi, model.christoffel_jac(qi), vi, vi)
            + wi @ model.potential_grad_jac(qi),
            np.einsum("b,bac,c->a", wi, gam + gam.transpose(0, 2, 1), vi),
        )
        for got, want in zip((a[idx], w_aq[idx], w_av[idx]), expected):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


def _potential_model(seed=5):
    """Tests-only model, n = 4 and corank 1: a dense random constant Gamma
    and the potential V(q) = c . cos(q) in the frame rho = [I; 0], so
    potential_grad = -c sin(q_1..3) is nonzero and depends on q."""
    rng = np.random.default_rng(seed)
    n, k = 4, 3
    gamma = rng.normal(size=(k, k, k))
    c = rng.uniform(0.5, 2.0, size=k)

    def const(value):
        return lambda q: np.broadcast_to(value, q.shape[:-1] + value.shape).copy()

    return SystemModel(
        n=n, corank=1,
        rho=const(np.eye(n, k)),
        rho_jac=const(np.zeros((n, k, n))),
        christoffel=const(gamma),
        christoffel_jac=const(np.zeros((k, k, k, n))),
        metric_d=const(np.eye(k)),
        potential_grad=lambda q: -c * np.sin(q[..., :k]),
        potential_grad_jac=lambda q: (
            np.eye(k, n) * (-c * np.cos(q[..., :k]))[..., None]
        ),
        annihilator=const(np.eye(n)[k:]),
        name="dense-gamma-potential",
    )


def test_drift_rates_and_reconstructed_control_share_one_contraction():
    """The drift, minus the zero-control acceleration and the control that
    gives zero acceleration are one Gamma v v + potential_grad, bit for bit,
    on a dense Gamma with a nonzero, q-dependent potential gradient."""
    model = _potential_model()
    rng = np.random.default_rng(11)
    q = rng.uniform(-2.0, 2.0, size=(7, model.n))
    v = rng.uniform(-2.0, 2.0, size=(7, model.rank))
    pot = model.potential_grad(q)
    assert np.all(pot != 0.0) and not np.allclose(pot, pot[0])
    a = drift(model, q, v)[0]
    gamma = model.christoffel(q)
    np.testing.assert_allclose(
        a, np.einsum("...abc,...b,...c->...a", gamma, v, v) + pot, rtol=1e-13
    )
    assert np.array_equal(a, -_rates(model, q, v, 0)[1])
    assert np.array_equal(a, reconstructed_control(model, q, v, 0))


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
