"""Stacked evaluation of the pointwise formulas: the packed state field, the
drift and its pullback, the running cost, the restricted energy, the
constraint residual and the discrete interval terms each take a stack of
points and return, row by row, exactly (bitwise) what one point at a time
returns.  The pullback and the packed state-costate field are also checked
against the forms built from the drift's full Jacobians."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from nhtrack.geometry import (
    AdmissibleState,
    _state_field,
    constraint_residual,
    drift,
    dynamics_rhs,
    restricted_energy,
    state_difference,
)
from nhtrack.pmp import (
    AnalyticReference,
    ShootingTrajectory,
    TrackingProblem,
    _make_packed_rhs,
    _split,
    running_cost,
    trajectory_cost,
)
from nhtrack.systems import particle_model, sleigh_model
from nhtrack.varint import (
    DiscreteTrajectory,
    diagnostics,
    discrete_constraint,
    discrete_lagrangian,
)

MODELS = [particle_model(), sleigh_model()]
LEADS = [(), (7,), (2, 3)]
HORIZON = 2.0


def _problem(model):
    """A tracking problem whose reference angle stays near 0, so that the
    sleigh's sampled angles (within +-8) differ from it by more than pi."""
    n, k = model.n, model.rank
    reference = AnalyticReference(
        q_base=np.linspace(-0.3, 0.4, n), q_slope=np.linspace(0.2, -0.1, n),
        v_base=np.linspace(0.5, -0.2, k), v_slope=np.full(k, 0.1),
    )
    return TrackingProblem(
        reference=reference, horizon_T=HORIZON, epsilon=0.7, omega=1.0,
        initial_state=reference(0.0), lambda0=1.3, state_weight=0.9,
    )


def _points(model, lead, seed):
    rng = np.random.default_rng(seed)
    q = rng.uniform(-8.0, 8.0, size=lead + (model.n,))
    v = rng.uniform(-2.0, 2.0, size=lead + (model.rank,))
    return q, v


def _assert_rows(stacked, lead, one_point):
    """stacked has the leading axes lead, and each row equals one_point at
    that row's index bitwise."""
    stacked = np.asarray(stacked)
    assert stacked.shape[: len(lead)] == lead
    for idx in np.ndindex(*lead):
        assert np.array_equal(stacked[idx], one_point(idx)), idx


ids = {"ids": lambda m: m.name}
lead_ids = {"ids": ["1-D", "N", "2x3"]}


@pytest.mark.parametrize("lead", LEADS, **lead_ids)
@pytest.mark.parametrize("model", MODELS, **ids)
def test_packed_field_equals_dynamics_rhs_rows(model, lead):
    q, v = _points(model, lead, 1)
    u = np.linspace(0.4, -1.1, model.rank)
    out = _state_field(model, u)(0.0, np.concatenate([q, v], axis=-1))
    assert out.shape == lead + (model.n + model.rank,)
    _assert_rows(out, lead, lambda idx: np.concatenate(
        dynamics_rhs(model, AdmissibleState(q=q[idx], v=v[idx]), u)
    ))


@pytest.mark.parametrize("lead", LEADS + [(25, 11)], ids=lead_ids["ids"] + ["25x11"])
@pytest.mark.parametrize("model", MODELS, **ids)
def test_contraction_helpers_equal_the_matmul_forms(model, lead):
    """np.matvec and np.vecmat give bitwise the matmul forms
    they replace, on dense random arrays of the shapes the built-ins'
    callables return and the stack shapes the two routes use (25 x 11 is a
    segmented shooting stack), so artifacts do not move with them."""
    def matvec(mat, vec):
        return (mat @ vec[..., None])[..., 0]

    def vecmat(vec, mat):
        return (vec[..., None, :] @ mat)[..., 0, :]

    q, v = _points(model, lead, 10)
    rng = np.random.default_rng(11)
    lam = rng.normal(size=lead + (model.n,))
    rho, gamma, rho_jac, gamma_jac = (
        rng.normal(size=np.shape(fn(q)))
        for fn in (model.rho, model.christoffel, model.rho_jac, model.christoffel_jac)
    )
    n, k = model.n, model.rank
    pairs = [
        (np.matvec(rho, v), matvec(rho, v)),
        (np.vecmat(lam, rho), vecmat(lam, rho)),
        (np.matvec(gamma, v[..., None, :]), matvec(gamma, v[..., None, :])),
        (np.vecmat(v[..., None, None, :], gamma_jac),
         vecmat(v[..., None, None, :], gamma_jac)),
        (np.vecmat(lam, rho_jac.reshape(lead + (n, k * n))),
         vecmat(lam, rho_jac.reshape(lead + (n, k * n)))),
    ]
    for new, old in pairs:
        assert new.shape == old.shape
        assert np.array_equal(new, old)


def _dense_model(n, k, seed):
    """A particle_model with dense random, q-dependent Christoffel symbols
    and potential gradient (and their exact Jacobians) on n coordinates and
    k quasi-velocities: every sum in the drift has k nonzero terms, where
    the built-ins' have one."""
    rng = np.random.default_rng(seed)
    g0, g1 = rng.normal(size=(k, k, k)), rng.normal(size=(k, k, k, n))
    p0, p1 = rng.normal(size=k), rng.normal(size=(k, n))
    return dataclasses.replace(
        particle_model(), n=n, corank=n - k, name=f"dense{k}x{n}",
        christoffel=lambda q: g0 + (g1 * np.sin(q)[..., None, None, None, :]).sum(-1),
        christoffel_jac=lambda q: g1 * np.cos(q)[..., None, None, None, :],
        potential_grad=lambda q: p0 + (p1 * np.sin(q)[..., None, :]).sum(-1),
        potential_grad_jac=lambda q: p1 * np.cos(q)[..., None, :],
    )


DENSE_MODELS = [_dense_model(3, 2, 20), _dense_model(5, 3, 21)]


def _drift_per_slice(model, q, v):
    """The drift with its full Jacobians a_q and a_v, one contraction per
    Christoffel slice: the reference form for geometry.drift's a and the
    covector pullback that replaces the Jacobians."""
    gam = model.christoffel(q)
    gam_v = np.matvec(gam, v[..., None, :])
    a = np.matvec(gam_v, v) + model.potential_grad(q)
    jac_v = np.vecmat(v[..., None, None, :], model.christoffel_jac(q))
    a_q = np.vecmat(v[..., None, :], jac_v) + model.potential_grad_jac(q)
    a_v = np.matvec(gam + gam.swapaxes(-1, -2), v[..., None, :])
    return a, a_q, a_v


def _drift_and_pullback(model, q, v, seed):
    """geometry.drift's a and its pullback along a random covector w, with
    the w a_q and w a_v of the per-slice Jacobians."""
    w = np.random.default_rng(seed).normal(size=v.shape)
    a, pullback = drift(model, q, v)
    old_a, a_q, a_v = _drift_per_slice(model, q, v)
    return (a, *pullback(w)), (old_a, np.vecmat(w, a_q), np.vecmat(w, a_v))


@pytest.mark.parametrize("lead", [(7,), (25, 11)], ids=["N", "25x11"])
@pytest.mark.parametrize("model", DENSE_MODELS, **ids)
def test_drift_on_stacks_equals_rows(model, lead):
    """Segmented shooting flows a stack of rows and needs each row bitwise
    equal to the same row alone, for any model."""
    q, v = _points(model, lead, 12)
    a = drift(model, q, v)[0]
    _assert_rows(a, lead, lambda idx: drift(model, q[idx], v[idx])[0])


@pytest.mark.parametrize("lead", [(), (7,), (25, 11)], ids=["1-D", "N", "25x11"])
@pytest.mark.parametrize("model", DENSE_MODELS, **ids)
def test_drift_matches_the_per_slice_forms(model, lead):
    q, v = _points(model, lead, 13)
    new, old = drift(model, q, v)[0], _drift_per_slice(model, q, v)[0]
    assert new.shape == old.shape
    assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old))


@pytest.mark.parametrize("lead", LEADS + [(25, 11)], ids=lead_ids["ids"] + ["25x11"])
@pytest.mark.parametrize("model", MODELS, **ids)
def test_drift_of_the_builtins_equals_the_per_slice_forms(model, lead):
    """Every Christoffel sum of the built-ins has a single nonzero term, so
    the drift a keeps its bits, and the artifacts, unchanged.  The pullback
    sums over the covector's slots in another order than w a_q and w a_v of
    the per-slice Jacobians, so it is held to 1e-15 of their largest entry
    (measured: at most 1.8e-16)."""
    q, v = _points(model, lead, 14)
    (a, *new), (old_a, *old) = _drift_and_pullback(model, q, v, 19)
    assert a.shape == old_a.shape
    assert np.array_equal(a, old_a)
    for got, want in zip(new, old):
        assert got.shape == want.shape
        err = np.max(np.abs(got - want))
        assert err <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("lead", [(), (7,), (25, 11)], ids=["1-D", "N", "25x11"])
@pytest.mark.parametrize("model", DENSE_MODELS, **ids)
def test_drift_pullback_equals_the_covector_times_the_drift_jacobians(model, lead):
    """pullback(w) returns w a_q and w a_v of the per-slice Jacobians."""
    q, v = _points(model, lead, 15)
    (_, *new), (_, *old) = _drift_and_pullback(model, q, v, 16)
    for got, want in zip(new, old):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("lead", [(7,), (25, 11)], ids=["N", "25x11"])
@pytest.mark.parametrize("model", DENSE_MODELS + MODELS, **ids)
def test_drift_pullback_on_stacks_equals_rows(model, lead):
    """The packed shooting field pulls back a stack of rows and needs each
    row bitwise equal to the same row alone."""
    q, v = _points(model, lead, 17)
    w = np.random.default_rng(18).normal(size=v.shape)
    stacked = drift(model, q, v)[1](w)
    for i, part in enumerate(stacked):
        _assert_rows(
            part, lead, lambda idx: drift(model, q[idx], v[idx])[1](w[idx])[i]
        )


def _packed_rhs_by_jacobians(model, problem):
    """A reference form of the packed state-costate field: the drift's full
    Jacobians from _drift_per_slice, each contracted with mu, the rho_jac
    pull taken one slot at a time, and the four blocks concatenated."""
    n, k = model.n, model.rank
    inv_le = 1.0 / (problem.lambda0 * problem.epsilon)
    track = problem.lambda0 * problem.state_weight

    def rhs(t, y):
        q, v, lam, mu = _split(y, n, k)
        dq, dv = state_difference(
            model, AdmissibleState(q, v), problem.reference(t)
        )
        rho, rjac = model.rho(q), model.rho_jac(q)
        a, a_q, a_v = _drift_per_slice(model, q, v)
        pull = np.vecmat(lam, rjac.reshape(rjac.shape[:-3] + (n, k * n)))
        pull = pull.reshape(pull.shape[:-1] + (k, n))
        lamdot = -(track * dq + np.vecmat(v, pull) - np.vecmat(mu, a_q))
        mudot = -(track * dv + np.vecmat(lam, rho) - np.vecmat(mu, a_v))
        return np.concatenate(
            [np.matvec(rho, v), -inv_le * mu - a, lamdot, mudot], axis=-1
        )

    return rhs


def _dense_field_model(n, k, seed):
    """_dense_model with a dense random, q-dependent rho too, so every sum
    of the lambda pull has n k nonzero terms."""
    rng = np.random.default_rng(seed)
    r0, r1 = rng.normal(size=(n, k)), rng.normal(size=(n, k, n))
    return dataclasses.replace(
        _dense_model(n, k, seed),
        rho=lambda q: r0 + (r1 * np.sin(q)[..., None, None, :]).sum(-1),
        rho_jac=lambda q: r1 * np.cos(q)[..., None, None, :],
    )


@pytest.mark.parametrize("lead", [(), (25, 11)], ids=["1-D", "25x11"])
@pytest.mark.parametrize(
    "model", [_dense_field_model(3, 2, 22), _dense_field_model(5, 3, 23)] + MODELS,
    **ids,
)
def test_packed_field_matches_the_jacobian_form(model, lead):
    """The pullback field equals the one built from the drift's Jacobians
    within 1e-13 relative, each block apart, on segmented stacks whose
    rows run on their segment's clock."""
    problem = _problem(model)
    n, k = model.n, model.rank
    rng = np.random.default_rng(24)
    q, v = _points(model, lead, 25)
    lam, mu = rng.normal(size=lead + (n,)), rng.normal(size=lead + (k,))
    y = np.concatenate([q, v, lam, mu], axis=-1)
    t = rng.uniform(0.0, HORIZON, size=lead[:1] + (1,) if lead else ())
    new = _make_packed_rhs(model, problem)(t, y)
    old = _packed_rhs_by_jacobians(model, problem)(t, y)
    assert new.shape == old.shape == y.shape
    for block_new, block_old in zip(_split(new, n, k), _split(old, n, k)):
        scale = np.max(np.abs(block_old))
        assert np.max(np.abs(block_new - block_old)) <= 1e-13 * scale


@pytest.mark.parametrize("lead", LEADS, **lead_ids)
@pytest.mark.parametrize("model", MODELS, **ids)
def test_running_cost_on_stacks_equals_rows(model, lead):
    problem = _problem(model)
    q, v = _points(model, lead, 2)
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, HORIZON, size=lead)
    u = rng.normal(size=lead + (model.rank,))
    out = running_cost(model, problem, t, AdmissibleState(q=q, v=v), u)
    assert np.shape(out) == lead
    _assert_rows(out, lead, lambda idx: running_cost(
        model, problem, float(t[idx]), AdmissibleState(q=q[idx], v=v[idx]), u[idx]
    ))


def test_running_cost_names_a_time_outside_the_horizon():
    model = particle_model()
    problem = _problem(model)
    q, v = _points(model, (3,), 4)
    with pytest.raises(ValueError, match=r"t = 2\.5 outside the problem horizon"):
        running_cost(
            model, problem, np.array([0.1, 2.5, 1.0]),
            AdmissibleState(q=q, v=v), np.zeros((3, model.rank)),
        )


@pytest.mark.parametrize("lead", LEADS, **lead_ids)
@pytest.mark.parametrize("model", MODELS, **ids)
def test_energy_and_constraint_on_stacks_equal_rows(model, lead):
    q, v = _points(model, lead, 5)
    qdot = np.random.default_rng(6).normal(size=lead + (model.n,))
    energy = restricted_energy(model, AdmissibleState(q=q, v=v))
    assert np.shape(energy) == lead
    _assert_rows(energy, lead, lambda idx: restricted_energy(
        model, AdmissibleState(q=q[idx], v=v[idx])
    ))
    residual = constraint_residual(model, q, qdot)
    assert residual.shape == lead + (model.corank,)
    _assert_rows(residual, lead, lambda idx: constraint_residual(
        model, q[idx], qdot[idx]
    ))


@pytest.mark.parametrize("psi_variant", ["midpoint", "difference-quotient"])
@pytest.mark.parametrize("lead", LEADS, **lead_ids)
@pytest.mark.parametrize("model", MODELS, **ids)
def test_discrete_terms_on_stacks_equal_rows(model, lead, psi_variant):
    problem = _problem(model)
    h = 0.1
    q_k, v_k = _points(model, lead, 7)
    q_k1, v_k1 = _points(model, lead, 8)
    t_k = np.random.default_rng(9).uniform(0.0, HORIZON - h, size=lead)
    node_k = AdmissibleState(q=q_k, v=v_k)
    node_k1 = AdmissibleState(q=q_k1, v=v_k1)

    def nodes(idx):
        return (AdmissibleState(q=q_k[idx], v=v_k[idx]),
                AdmissibleState(q=q_k1[idx], v=v_k1[idx]))

    lagr = discrete_lagrangian(model, problem, node_k, node_k1, t_k, h)
    assert np.shape(lagr) == lead
    _assert_rows(lagr, lead, lambda idx: discrete_lagrangian(
        model, problem, *nodes(idx), float(t_k[idx]), h
    ))
    psi = discrete_constraint(model, node_k, node_k1, h, psi_variant)
    assert psi.shape == lead + (model.n,)
    _assert_rows(psi, lead, lambda idx: discrete_constraint(
        model, *nodes(idx), h, psi_variant
    ))


def _diagnostics_on_grid(model, problem, steps, rng):
    times = np.linspace(0.0, HORIZON, steps + 1)
    traj = DiscreteTrajectory(
        h=HORIZON / steps, times=times,
        q=rng.normal(size=(steps + 1, model.n)),
        v=rng.normal(size=(steps + 1, model.rank)),
        multipliers=rng.normal(size=(steps - 1, model.n)),
        controls=rng.normal(size=(steps, model.rank)),
    )
    diagnostics(model, problem, traj)


def _trajectory_cost_on_grid(model, problem, steps, rng):
    traj = ShootingTrajectory(
        times=np.linspace(0.0, HORIZON, steps + 1),
        q=rng.normal(size=(steps + 1, model.n)),
        v=rng.normal(size=(steps + 1, model.rank)),
        u=rng.normal(size=(steps + 1, model.rank)),
        lam=rng.normal(size=(steps + 1, model.n)),
        mu=rng.normal(size=(steps + 1, model.rank)),
    )
    trajectory_cost(model, problem, traj)


@pytest.mark.parametrize(
    "evaluate", [_diagnostics_on_grid, _trajectory_cost_on_grid],
    ids=["diagnostics", "trajectory_cost"],
)
def test_reference_calls_do_not_grow_with_the_grid(evaluate):
    """The series of a whole grid come from stacked calls: the reference is
    sampled as often at N = 16 as at N = 8."""
    model = sleigh_model()
    base = _problem(model)
    calls = []
    for steps in (8, 16):
        count = [0]

        def reference(t, count=count):
            count[0] += 1
            return base.reference(t)

        problem = dataclasses.replace(base, reference=reference)
        evaluate(model, problem, steps, np.random.default_rng(steps))
        calls.append(count[0])
    assert calls[0] == calls[1] > 0
