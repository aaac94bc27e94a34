"""Indirect solver: pointwise Hamiltonian quantities, the coupled
state-costate flow against hand-coded adjoint systems, shooting residual
regression, Newton solve behavior, and the reference samplers."""
from __future__ import annotations

import re
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nhtrack.cli import build_model, build_problem, parse_config
from nhtrack.geometry import (
    AdmissibleState,
    constraint_residual,
    wrap_angle,
)
from nhtrack.ode import IntegrationError, TimeGrid, integrate
from nhtrack.pmp import (
    AnalyticReference,
    Costate,
    FlowDivergedError,
    NewtonSettings,
    RolloutReference,
    ShootingSettings,
    SingularJacobianError,
    TrackingProblem,
    abnormal_diagnostic,
    damped_newton,
    hamiltonian,
    optimal_control,
    optimal_hamiltonian,
    pmp_rhs,
    running_cost,
    shooting_residual,
    solve_shooting,
)
from nhtrack.systems import SleighParams, particle_model, sleigh_model
from nhtrack.varint import DelSettings, RegularityError

BUNDLED = Path(__file__).resolve().parents[1] / "src" / "nhtrack" / "configs"
SLEIGH_PARAMS = SleighParams(mass_m=1.0, inertia_J=4.0, offset_a=0.2)


def case2_reference():
    return AnalyticReference(
        q_base=[1.0, 0.0, 1.0], q_slope=[0.0, 0.0, 1.0],
        v_base=[0.0, 1.0], v_slope=[0.0, 0.0],
    )


def case2_problem(**overrides):
    kwargs = dict(
        reference=case2_reference(),
        horizon_T=4.0,
        epsilon=7.0,
        omega=1.0,
        initial_state=AdmissibleState(q=[0.5, 0.2, 0.7], v=[0.5, 0.4]),
    )
    kwargs.update(overrides)
    return TrackingProblem(**kwargs)


def hand_particle_rhs(problem):
    """Independently hand-coded coupled flow for the flat particle.

    State equations plus the adjoint system written out componentwise from
    the optimal Hamiltonian (c = y / (1 + y^2)):

        lamdot_1 = -lam0 (x - x_r)
        lamdot_2 =  l1 v2 - lam0 (y - y_r) + m2 v1 v2 (1 - y^2)/(1 + y^2)^2
        lamdot_3 = -lam0 (z - z_r)
        mudot_1  = -l2 - lam0 (v1 - v1_r) + m2 c v2
        mudot_2  = -l3 + l1 y - lam0 (v2 - v2_r) + m2 c v1
    """
    lam0, eps = problem.lambda0, problem.epsilon
    ref = problem.reference

    def rhs(t, y):
        x, yy, z, v1, v2, l1, l2, l3, m1, m2 = y
        r = ref(t)
        xr, yr, zr = r.q
        v1r, v2r = r.v
        c = yy / (1.0 + yy * yy)
        u1 = -m1 / (lam0 * eps)
        u2 = -m2 / (lam0 * eps)
        return np.array([
            -yy * v2,
            v1,
            v2,
            u1,
            -c * v1 * v2 + u2,
            -lam0 * (x - xr),
            l1 * v2 - lam0 * (yy - yr)
            + m2 * v1 * v2 * (1.0 - yy * yy) / (1.0 + yy * yy) ** 2,
            -lam0 * (z - zr),
            -l2 - lam0 * (v1 - v1r) + m2 * c * v2,
            -l3 + l1 * yy - lam0 * (v2 - v2r) + m2 * c * v1,
        ])

    return rhs


def hand_sleigh_rhs(problem, params):
    """Hand-coded coupled flow for the sleigh (eta = a sqrt(m)/(J + m a^2),
    s = sqrt(J + m a^2), sm = sqrt(m)); the theta tracking error is wrapped."""
    lam0, eps = problem.lambda0, problem.epsilon
    ref = problem.reference
    eta = params.eta
    s = np.sqrt(params.inertia_J + params.mass_m * params.offset_a**2)
    sm = np.sqrt(params.mass_m)

    def rhs(t, y):
        x1, x2, th, v1, v2, l1, l2, l3, m1, m2 = y
        r = ref(t)
        u1 = -m1 / (lam0 * eps)
        u2 = -m2 / (lam0 * eps)
        return np.array([
            np.cos(th) / sm * v2,
            np.sin(th) / sm * v2,
            v1 / s,
            -eta * v1 * v2 + u1,
            eta * v1 * v1 + u2,
            -lam0 * (x1 - r.q[0]),
            -lam0 * (x2 - r.q[1]),
            -lam0 * wrap_angle(th - r.q[2])
            + v2 * (l1 * np.sin(th) - l2 * np.cos(th)) / sm,
            -lam0 * (v1 - r.v[0]) - l3 / s + eta * m1 * v2 - 2.0 * eta * m2 * v1,
            -lam0 * (v2 - r.v[1]) - (l1 * np.cos(th) + l2 * np.sin(th)) / sm
            + eta * m1 * v1,
        ])

    return rhs


# ---------------------------------------------------------------------------
# running cost


def test_running_cost_zero_on_reference():
    model = particle_model()
    prob = case2_problem()
    state = prob.reference(1.7)
    assert running_cost(model, prob, 1.7, state, np.zeros(2)) == 0.0


def test_running_cost_arithmetic():
    # |dq|^2 = 4, |dv|^2 = 1, eps = 9, |u|^2 = 2 -> (4 + 1 + 18)/2 = 11.5
    model = particle_model()
    prob = case2_problem(epsilon=9.0)
    ref = prob.reference(0.0)
    state = AdmissibleState(q=ref.q + [2.0, 0.0, 0.0], v=ref.v + [1.0, 0.0])
    u = np.array([1.0, 1.0])
    assert running_cost(model, prob, 0.0, state, u) == pytest.approx(
        11.5, abs=1e-14
    )


def test_running_cost_control_term_scaling():
    model = particle_model()
    prob = case2_problem()
    state = AdmissibleState(q=[0.3, -0.4, 2.0], v=[1.0, -2.0])
    u = np.array([0.7, -1.1])
    base = running_cost(model, prob, 1.0, state, np.zeros(2))
    single = running_cost(model, prob, 1.0, state, u)
    double = running_cost(model, prob, 1.0, state, 2.0 * u)
    assert double - base == pytest.approx(4.0 * (single - base), rel=1e-12)


def test_running_cost_accepts_control_vector():
    model = particle_model()
    prob = case2_problem()
    state = AdmissibleState(q=[0.3, -0.4, 2.0], v=[1.0, -2.0])
    u = np.array([0.7, -1.1])
    assert running_cost(model, prob, 1.0, state, u.tolist()) == (
        running_cost(model, prob, 1.0, state, u)
    )


def test_running_cost_wraps_angle_error():
    model = sleigh_model(SLEIGH_PARAMS)
    ref = AnalyticReference(
        q_base=[0.0, 0.0, 0.5], q_slope=np.zeros(3),
        v_base=[0.0, 0.0], v_slope=np.zeros(2),
    )
    prob = TrackingProblem(
        reference=ref, horizon_T=1.0, epsilon=1.0, omega=1.0,
        initial_state=ref(0.0),
    )
    state = AdmissibleState(q=[0.0, 0.0, 0.5 + 2.0 * np.pi], v=[0.0, 0.0])
    assert running_cost(model, prob, 0.0, state, np.zeros(2)) == pytest.approx(
        0.0, abs=1e-25
    )


def test_running_cost_rejects_time_outside_horizon():
    model = particle_model()
    prob = case2_problem()
    with pytest.raises(ValueError, match="horizon"):
        running_cost(model, prob, -1.0, prob.reference(0.0), np.zeros(2))
    with pytest.raises(ValueError, match="horizon"):
        running_cost(model, prob, 4.5, prob.reference(0.0), np.zeros(2))


# ---------------------------------------------------------------------------
# pointwise control and Hamiltonian


def test_optimal_control_zero_mu():
    u = optimal_control(np.zeros(2), epsilon=7.0, lambda0=1.0)
    np.testing.assert_array_equal(u, np.zeros(2))


def test_optimal_control_arithmetic():
    u = optimal_control(np.array([2.0, -3.0]), epsilon=9.0, lambda0=1.0)
    np.testing.assert_allclose(u, [-2.0 / 9.0, 1.0 / 3.0], rtol=1e-15)


def test_optimal_control_stationarity():
    # dH/du = lam0 eps u + mu vanishes identically at the minimizer
    rng = np.random.default_rng(7)
    for _ in range(50):
        mu = rng.uniform(-5, 5, size=2)
        eps = rng.uniform(0.1, 10)
        lam0 = rng.uniform(0.1, 2)
        u = optimal_control(mu, eps, lam0)
        np.testing.assert_allclose(lam0 * eps * u + mu, 0.0, atol=1e-12)


@pytest.mark.parametrize("eps,lam0", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_optimal_control_rejects_nonpositive_parameters(eps, lam0):
    with pytest.raises(ValueError):
        optimal_control(np.zeros(2), eps, lam0)


def test_hamiltonian_trivial_zero():
    model = particle_model()
    prob = case2_problem()
    state = prob.reference(2.0)
    assert hamiltonian(
        model, prob, 2.0, state, Costate.zero(model), np.zeros(2)
    ) == 0.0


def test_hamiltonian_minimized_at_optimal_control():
    model = particle_model()
    prob = case2_problem()
    rng = np.random.default_rng(11)
    for _ in range(10):
        t = rng.uniform(0, 4)
        state = AdmissibleState(q=rng.uniform(-2, 2, 3), v=rng.uniform(-2, 2, 2))
        costate = Costate(lam=rng.uniform(-2, 2, 3), mu=rng.uniform(-2, 2, 2))
        h_star = optimal_hamiltonian(model, prob, t, state, costate)
        for _ in range(100):
            u = rng.uniform(-10, 10, 2)
            assert h_star <= hamiltonian(model, prob, t, state, costate, u) + 1e-12


def test_optimal_hamiltonian_is_hamiltonian_at_minimizer():
    model = particle_model()
    prob = case2_problem()
    state = AdmissibleState(q=[0.1, 0.6, -0.3], v=[1.2, -0.8])
    costate = Costate(lam=[0.5, -1.0, 2.0], mu=[0.3, -0.7])
    u = optimal_control(costate.mu, prob.epsilon, prob.lambda0)
    assert optimal_hamiltonian(model, prob, 1.0, state, costate) == (
        hamiltonian(model, prob, 1.0, state, costate, u)
    )


def test_optimal_hamiltonian_particle_flat_plane_termwise():
    # at y = 0 the constraint plane is flat and H* collapses to
    #   tracking/2 + lam2 v1 + lam3 v2 - |mu|^2 / (2 eps)      (lam0 = 1)
    model = particle_model()
    prob = case2_problem(epsilon=7.0)
    t = 0.0
    state = AdmissibleState(q=[0.8, 0.0, 0.4], v=[1.5, -0.6])
    costate = Costate(lam=[0.9, -1.3, 0.5], mu=[2.0, -3.0])
    ref = prob.reference(t)
    tracking = np.sum((state.q - ref.q) ** 2) + np.sum((state.v - ref.v) ** 2)
    expected = (
        0.5 * tracking
        + (-1.3) * 1.5
        + 0.5 * (-0.6)
        - (2.0**2 + 3.0**2) / (2.0 * 7.0)
    )
    assert optimal_hamiltonian(model, prob, t, state, costate) == pytest.approx(
        expected, rel=1e-14
    )


# ---------------------------------------------------------------------------
# coupled state-costate flow


def test_pmp_rhs_matches_hand_coded_particle_adjoints():
    model = particle_model()
    prob = case2_problem()
    hand = hand_particle_rhs(prob)
    rng = np.random.default_rng(3)
    for _ in range(100):
        t = rng.uniform(0, 4)
        state = AdmissibleState(q=rng.uniform(-2, 2, 3), v=rng.uniform(-2, 2, 2))
        costate = Costate(lam=rng.uniform(-2, 2, 3), mu=rng.uniform(-2, 2, 2))
        (qd, vd), (ld, md) = pmp_rhs(model, prob, t, state, costate)
        got = np.concatenate([qd, vd, ld, md])
        want = hand(t, np.concatenate([state.q, state.v, costate.lam, costate.mu]))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_pmp_rhs_matches_hand_coded_sleigh_adjoints():
    model = sleigh_model(SLEIGH_PARAMS)
    ref = AnalyticReference(
        q_base=[0.0, 0.5, 0.1], q_slope=[0.1, 0.0, 0.2],
        v_base=[0.3, 1.0], v_slope=np.zeros(2),
    )
    prob = TrackingProblem(
        reference=ref, horizon_T=5.0, epsilon=1.0, omega=1.0,
        initial_state=AdmissibleState(q=np.zeros(3), v=[1.0, 1.0]),
    )
    hand = hand_sleigh_rhs(prob, SLEIGH_PARAMS)
    rng = np.random.default_rng(4)
    for _ in range(100):
        t = rng.uniform(0, 5)
        q, v = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 2)
        costate = Costate(lam=rng.uniform(-2, 2, 3), mu=rng.uniform(-2, 2, 2))
        # theta shifted by a full turn puts theta - theta_r past pi, so the
        # tracking term's angle wrap acts
        for turn in (0.0, 2.0 * np.pi, -2.0 * np.pi):
            state = AdmissibleState(q=q + [0.0, 0.0, turn], v=v)
            (qd, vd), (ld, md) = pmp_rhs(model, prob, t, state, costate)
            got = np.concatenate([qd, vd, ld, md])
            want = hand(t, np.concatenate([state.q, state.v, costate.lam, costate.mu]))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_pmp_rhs_zero_costate_on_reference():
    # on the reference with zero costate every tracking and coupling term
    # vanishes, so the costate derivatives are exactly zero
    model = particle_model()
    prob = case2_problem()
    state = prob.reference(1.3)
    (qd, vd), (ld, md) = pmp_rhs(model, prob, 1.3, state, Costate.zero(model))
    np.testing.assert_array_equal(ld, np.zeros(3))
    np.testing.assert_array_equal(md, np.zeros(2))


@pytest.mark.parametrize("system", ["particle", "sleigh"])
def test_costate_rhs_is_minus_gradient_of_optimal_hamiltonian(system):
    if system == "particle":
        model = particle_model()
        prob = case2_problem()
        t_hi = 4.0
    else:
        model = sleigh_model(SLEIGH_PARAMS)
        prob = TrackingProblem(
            reference=AnalyticReference(
                q_base=[0.0, 0.5, 0.1], q_slope=[0.1, 0.0, 0.2],
                v_base=[0.3, 1.0], v_slope=np.zeros(2),
            ),
            horizon_T=5.0, epsilon=1.0, omega=1.0,
            initial_state=AdmissibleState(q=np.zeros(3), v=[1.0, 1.0]),
        )
        t_hi = 5.0

    rng = np.random.default_rng(5)
    step = 1e-6
    for _ in range(100):
        t = rng.uniform(0, t_hi)
        q = rng.uniform(-2, 2, 3)
        v = rng.uniform(-2, 2, 2)
        costate = Costate(lam=rng.uniform(-2, 2, 3), mu=rng.uniform(-2, 2, 2))
        _, (ld, md) = pmp_rhs(
            model, prob, t, AdmissibleState(q=q, v=v), costate
        )

        grad_q = np.empty(3)
        for i in range(3):
            qp, qm = q.copy(), q.copy()
            qp[i] += step
            qm[i] -= step
            grad_q[i] = (
                optimal_hamiltonian(model, prob, t, AdmissibleState(q=qp, v=v), costate)
                - optimal_hamiltonian(model, prob, t, AdmissibleState(q=qm, v=v), costate)
            ) / (2.0 * step)
        grad_v = np.empty(2)
        for a in range(2):
            vp, vm = v.copy(), v.copy()
            vp[a] += step
            vm[a] -= step
            grad_v[a] = (
                optimal_hamiltonian(model, prob, t, AdmissibleState(q=q, v=vp), costate)
                - optimal_hamiltonian(model, prob, t, AdmissibleState(q=q, v=vm), costate)
            ) / (2.0 * step)

        np.testing.assert_allclose(ld, -grad_q, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(md, -grad_v, rtol=1e-5, atol=1e-5)


def test_pmp_rhs_raises_on_nonfinite_derivatives():
    model = particle_model()
    prob = case2_problem()
    state = AdmissibleState(q=[0.0, 1.0, 0.0], v=[1e308, 1e308])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ArithmeticError, match="non-finite"):
            pmp_rhs(model, prob, 0.0, state, Costate.zero(model))


def test_optimal_hamiltonian_conserved_for_time_independent_reference():
    # the reference enters H* only through gamma_r(t); freezing it makes the
    # flow autonomous, so H* is a first integral of the exact extremal flow
    model = particle_model()
    ref = AnalyticReference(
        q_base=[1.0, 0.0, 1.0], q_slope=np.zeros(3),
        v_base=[0.0, 1.0], v_slope=np.zeros(2),
    )
    prob = TrackingProblem(
        reference=ref, horizon_T=2.0, epsilon=7.0, omega=1.0,
        initial_state=AdmissibleState(q=[0.5, 0.2, 0.7], v=[0.5, 0.4]),
    )
    alpha = Costate(lam=[0.4, -0.3, 0.8], mu=[0.6, -0.2])

    def f(t, y):
        state = AdmissibleState.from_vector(y[:5], 3)
        costate = Costate(lam=y[5:8], mu=y[8:])
        (qd, vd), (ld, md) = pmp_rhs(model, prob, t, state, costate)
        return np.concatenate([qd, vd, ld, md])

    y0 = np.concatenate([prob.initial_state.as_vector(), alpha.as_vector()])
    times, ys = integrate(f, y0, TimeGrid(0.0, 2.0, 200))
    values = [
        optimal_hamiltonian(
            model, prob, t,
            AdmissibleState.from_vector(y[:5], 3),
            Costate(lam=y[5:8], mu=y[8:]),
        )
        for t, y in zip(times, ys)
    ]
    drift = np.max(np.abs(np.asarray(values) - values[0]))
    assert drift <= 1e-4


# ---------------------------------------------------------------------------
# shooting residual


def test_shooting_residual_short_horizon_limit():
    # as T -> 0 the flow is the identity and the mayer residual collapses to
    # (alpha_lam - omega dq(0), alpha_mu - omega dv(0))
    model = particle_model()
    prob = case2_problem(horizon_T=1e-9)
    alpha = Costate(lam=[0.3, -0.8, 1.2], mu=[0.5, -0.4])
    settings = ShootingSettings(inner_grid=TimeGrid(0.0, 1e-9, 1))
    r = shooting_residual(model, prob, alpha, settings)
    dq0 = prob.initial_state.q - prob.reference(0.0).q
    dv0 = prob.initial_state.v - prob.reference(0.0).v
    expected = np.concatenate([alpha.lam - dq0, alpha.mu - dv0])
    np.testing.assert_allclose(r, expected, atol=1e-6)


# regression oracle: particle Case 2 at alpha = 0 on the h = 1e-3 flow,
# frozen from the hand-coded adjoint system integrated by plain RK4
CASE2_ALPHA0_RESIDUAL = np.array([
    2.6558832129454113,
    -7.8681938862746774,
    11.752460419935462,
    4.2218168770702134,
    5.461233482467085,
])


def test_shooting_residual_case2_regression():
    model = particle_model()
    prob = case2_problem()
    grid = TimeGrid(0.0, 4.0, 4000)
    r = shooting_residual(
        model, prob, Costate.zero(model), ShootingSettings(inner_grid=grid)
    )
    np.testing.assert_allclose(r, CASE2_ALPHA0_RESIDUAL, atol=1e-9)

    # recompute the oracle in place from the independent hand-coded flow
    _, ys = integrate(hand_particle_rhs(prob), np.concatenate(
        [prob.initial_state.as_vector(), np.zeros(5)]
    ), grid)
    ref_T = prob.reference(4.0)
    hand = np.concatenate([
        ys[-1, 5:8] - prob.omega * (ys[-1, :3] - ref_T.q),
        ys[-1, 8:] - prob.omega * (ys[-1, 3:5] - ref_T.v),
    ])
    np.testing.assert_allclose(r, hand, atol=1e-9)


def test_shooting_residual_hard_mode_is_terminal_mismatch():
    model = particle_model()
    prob = case2_problem(terminal_mode="hard", horizon_T=0.5)
    grid = TimeGrid(0.0, 0.5, 500)
    alpha = Costate(lam=[0.1, 0.2, -0.3], mu=[0.4, -0.5])
    r = shooting_residual(model, prob, alpha, ShootingSettings(inner_grid=grid))

    def f(t, y):
        state = AdmissibleState.from_vector(y[:5], 3)
        costate = Costate(lam=y[5:8], mu=y[8:])
        (qd, vd), (ld, md) = pmp_rhs(model, prob, t, state, costate)
        return np.concatenate([qd, vd, ld, md])

    _, ys = integrate(
        f, np.concatenate([prob.initial_state.as_vector(), alpha.as_vector()]), grid
    )
    ref_T = prob.reference(0.5)
    expected = np.concatenate([ys[-1, :3] - ref_T.q, ys[-1, 3:5] - ref_T.v])
    np.testing.assert_allclose(r, expected, atol=1e-7)


def test_shooting_residual_diverged_flow_reports_blowup_time():
    model = particle_model()
    prob = case2_problem()
    alpha = Costate(lam=np.zeros(3), mu=[1e14, 1e14])
    with pytest.raises(FlowDivergedError) as info:
        shooting_residual(model, prob, alpha)
    assert 0.0 <= info.value.t <= 4.0


def test_shooting_residual_rejects_mismatched_grid():
    model = particle_model()
    prob = case2_problem()
    settings = ShootingSettings(inner_grid=TimeGrid(0.0, 3.0, 100))
    with pytest.raises(ValueError, match="inner_grid"):
        shooting_residual(model, prob, Costate.zero(model), settings)


@pytest.mark.parametrize(
    "entry",
    [
        lambda m, p, c: pmp_rhs(m, p, 0.0, p.initial_state, c),
        lambda m, p, c: shooting_residual(m, p, c),
        lambda m, p, c: solve_shooting(m, p, c),
    ],
    ids=["pmp_rhs", "shooting_residual", "solve_shooting"],
)
def test_a_costate_of_the_wrong_shapes_is_refused(entry):
    """A costate whose lambda and mu do not have shapes (n,) and (k,) is a
    ValueError naming both, not a re-split of its entries (4 + 1 against
    the particle's 3 + 2) or numpy's broadcast error (2 + 2)."""
    model, problem = particle_model(), short_case2_problem()
    named = r"lam of shape \(3,\) and mu of shape \(2,\)"
    for lam, mu in [([0.1, 0.2, 0.3, 0.4], [0.5]), ([0.1, 0.2], [0.3, 0.4])]:
        with pytest.raises(ValueError, match=named):
            entry(model, problem, Costate(lam=lam, mu=mu))


# ---------------------------------------------------------------------------
# shooting solve


def short_case2_problem():
    return case2_problem(horizon_T=1.0)


def test_solve_shooting_short_horizon_converges_and_reports():
    model = particle_model()
    prob = short_case2_problem()
    settings = ShootingSettings(inner_grid=TimeGrid(0.0, 1.0, 50))
    alpha, traj, report = solve_shooting(model, prob, settings=settings)

    assert report.converged
    assert report.residual_norm <= settings.newton_tol
    assert report.message == "converged"
    assert len(report.records) == report.iterations
    assert report.records[-1].residual_norm <= settings.newton_tol

    # the reported norm is the segmented one at the accepted point
    assert report.residual_norm == report.records[-1].residual_norm

    # trajectory series shapes and the stationarity of the reported controls
    assert traj.times.shape == (51,)
    assert traj.q.shape == (51, 3)
    assert traj.v.shape == (51, 2)
    assert traj.u.shape == (51, 2)
    assert traj.lam.shape == (51, 3)
    assert traj.mu.shape == (51, 2)
    np.testing.assert_allclose(
        prob.lambda0 * prob.epsilon * traj.u + traj.mu, 0.0, atol=1e-14
    )
    np.testing.assert_array_equal(traj.q[0], prob.initial_state.q)
    np.testing.assert_array_equal(traj.v[0], prob.initial_state.v)


def _single_shooting(monkeypatch):
    """Make every Newton solve of solve_shooting single shooting: the
    real _newton_shoot on one segment, whatever M the solve asks for."""
    import nhtrack.pmp as pmp

    real_shoot = pmp._newton_shoot

    def shoot(model, problem, alpha_vec, settings, grid, segments, guide):
        return real_shoot(model, problem, alpha_vec, settings, grid, 1, guide)

    monkeypatch.setattr(pmp, "_newton_shoot", shoot)


def test_solve_shooting_already_converged_returns_zero_iterations(monkeypatch):
    """By single shooting the initial costate is the only unknown, so a
    root given as alpha0 is a start within tolerance; with nodes, alpha0
    sets only the initial costate."""
    _single_shooting(monkeypatch)
    model = particle_model()
    prob = short_case2_problem()
    settings = ShootingSettings(inner_grid=TimeGrid(0.0, 1.0, 50))
    alpha, _, first = solve_shooting(model, prob, settings=settings)
    assert first.converged

    again, _, report = solve_shooting(model, prob, alpha0=alpha, settings=settings)
    assert report.converged
    assert report.iterations == 0
    assert report.records == ()
    assert "already within tolerance" in report.message
    np.testing.assert_array_equal(again.as_vector(), alpha.as_vector())


def test_solve_shooting_nonconvergence_is_reported_not_raised():
    model = particle_model()
    prob = case2_problem()  # full T = 4 from cold start stalls quickly
    settings = ShootingSettings(
        inner_grid=TimeGrid(0.0, 4.0, 100), max_iters=2
    )
    _, _, report = solve_shooting(model, prob, settings=settings)
    assert not report.converged
    assert report.iterations == 2
    assert len(report.records) == 2
    assert "no convergence" in report.message
    assert np.isfinite(report.residual_norm)


def test_solve_shooting_horizon_continuation_reaches_full_horizon():
    # continuation warm-starts through shortened horizons; the returned log
    # covers only the final full-horizon solve
    model = particle_model()
    prob = case2_problem()
    settings = ShootingSettings(
        inner_grid=TimeGrid(0.0, 4.0, 200),
        continuation="horizon",
        continuation_stages=4,
    )
    alpha, traj, report = solve_shooting(model, prob, settings=settings)
    assert report.converged
    assert report.message == "converged"  # no stage missed
    assert traj.times[-1] == pytest.approx(4.0, abs=1e-12)
    r = shooting_residual(model, prob, alpha, settings)
    assert np.linalg.norm(r) <= settings.newton_tol


@pytest.mark.parametrize("first_stage, missed_message", [
    ("capped", r"no convergence in 1 iterations \(residual norm \S+\)"),
    ("stalled", r"stalled at iteration 1: no step scale down to 9\.537e-07 "
                r"decreased the residual norm \S+"),
], ids=["capped", "stalled"])
def test_solve_shooting_names_each_ladder_stage_that_did_not_converge(
    monkeypatch, first_stage, missed_message
):
    """Stage 1 of a two-stage horizon ladder ends unconverged, either at
    max_iters = 1 or stalled by a zero Newton step that no trial improves;
    either way its costate starts stage 2 and its message is named."""
    import nhtrack.pmp as pmp

    model = particle_model()
    p = model.n + model.rank
    starts, ends = [], []

    def logged(x, evaluate, correction, *args):
        if first_stage == "stalled" and not starts:
            def correction(x, r, data):
                return np.zeros_like(x)
        starts.append(x[:p].copy())
        result = damped_newton(x, evaluate, correction, *args)
        ends.append(result[0][:p].copy())
        return result

    monkeypatch.setattr(pmp, "damped_newton", logged)
    settings = ShootingSettings(
        inner_grid=TimeGrid(0.0, 4.0, 100), max_iters=1,
        continuation="horizon", continuation_stages=2,
    )
    _, _, report = solve_shooting(model, case2_problem(), settings=settings)
    assert not report.converged
    last, missed = report.message.split("; ")
    assert re.fullmatch(r"no convergence in 1 iterations \(residual norm \S+\)", last)
    assert re.fullmatch(
        r"ladder stage 1 of 2 \(T = 2\) did not converge: " + missed_message, missed
    )
    assert len(starts) == 2 and np.array_equal(starts[1], ends[0])
    assert np.array_equal(ends[0], starts[0]) == (first_stage == "stalled")


@pytest.mark.parametrize(
    "continuation, stages, mode, expected",
    [
        ("none", 4, "mayer", [(4.0, 1.0, "mayer", 400, 100)]),
        ("horizon", 1, "mayer", [(4.0, 1.0, "mayer", 400, 100)]),
        (
            "horizon", 4, "mayer",
            [(1.0, 1.0, "mayer", 100, 25), (2.0, 1.0, "mayer", 200, 50),
             (3.0, 1.0, "mayer", 300, 75), (4.0, 1.0, "mayer", 400, 100)],
        ),
        (
            "terminal-weight", 3, "hard",
            [(4.0 / 3.0, 1.0, "mayer", 133, 34), (8.0 / 3.0, 1.0, "mayer", 267, 67),
             (4.0, 1.0, "mayer", 400, 100), (4.0, 10.0, "mayer", 400, 100),
             (4.0, 100.0, "mayer", 400, 100), (4.0, 1.0, "hard", 400, 100)],
        ),
        (
            "terminal-weight", 1, "hard",
            [(4.0, 1.0, "mayer", 400, 100), (4.0, 1.0, "hard", 400, 100)],
        ),
    ],
)
def test_solve_shooting_runs_the_continuation_stages_in_order(
    monkeypatch, continuation, stages, mode, expected
):
    """The horizon ladder T j/s, the Mayer relaxation with omega scaled by
    10 per stage, then the problem itself: (horizon_T, omega, terminal_mode,
    grid.steps, segments) of every Newton solve on a 400-step grid, with
    segments = ceil(steps / PROBE_STRIDE), one per four grid steps.  Each
    stub solve returns its costate plus one, so the starts show the
    warm-start chain; each stage is guided by the flow of the stage before
    it."""
    import nhtrack.pmp as pmp

    calls, starts, guides, flows = [], [], [], []

    def newton_shoot(model, stage, alpha_vec, settings, grid, segments, guide):
        calls.append(
            (stage.horizon_T, stage.omega, stage.terminal_mode, grid.steps, segments)
        )
        starts.append(alpha_vec[0])
        guides.append(guide)
        ys = np.zeros((grid.steps + 1, 2 * model.n + model.rank))
        flows.append((grid.times(), ys))
        report = pmp.ConvergenceReport(True, 0, 0.0, (), "stub")
        return alpha_vec + 1.0, flows[-1], report

    monkeypatch.setattr(pmp, "_newton_shoot", newton_shoot)
    settings = ShootingSettings(
        inner_grid=TimeGrid(0.0, 4.0, 400),
        continuation=continuation,
        continuation_stages=stages,
    )
    problem = case2_problem(terminal_mode=mode)
    alpha, _, _ = solve_shooting(particle_model(), problem, settings=settings)
    assert calls == expected
    assert starts == list(range(len(calls)))
    assert alpha.lam[0] == len(calls)
    expected_guides = [None] + flows[: len(expected) - 1]
    assert len(guides) == len(expected_guides)
    assert all(g is e for g, e in zip(guides, expected_guides))


def test_a_given_costate_sets_only_the_initial_costate(monkeypatch):
    """With alpha0 given, the first stage starts from alpha0 with no guide,
    so its nodes start at the reference state with a zero costate, as
    without alpha0; the next stage is guided by the first one's series.  A
    root given as alpha0 leads the segmented solve back to that root."""
    import nhtrack.pmp as pmp

    calls = []
    real_shoot = pmp._newton_shoot

    def shoot(model, stage, alpha_vec, settings, grid, segments, guide):
        result = real_shoot(model, stage, alpha_vec, settings, grid, segments, guide)
        calls.append((alpha_vec.copy(), guide, result))
        return result

    monkeypatch.setattr(pmp, "_newton_shoot", shoot)
    model, problem = particle_model(), short_case2_problem()
    settings = ShootingSettings(
        inner_grid=TimeGrid(0.0, 1.0, 50), continuation="horizon",
        continuation_stages=2,
    )
    alpha0 = Costate(lam=np.full(3, 0.1), mu=np.full(2, -0.1))
    alpha, _, report = solve_shooting(model, problem, alpha0, settings)
    assert report.converged
    [(start, guide, first), (_, second_guide, _)] = calls
    np.testing.assert_array_equal(start, alpha0.as_vector())
    assert guide is None
    assert second_guide is first[1]

    calls.clear()
    again, traj, report = solve_shooting(
        model, problem, alpha, ShootingSettings(inner_grid=TimeGrid(0.0, 1.0, 50))
    )
    [(start, guide, (vec, (times, ys), _))] = calls
    np.testing.assert_array_equal(start, alpha.as_vector())
    assert guide is None
    assert report.converged
    np.testing.assert_allclose(again.as_vector(), alpha.as_vector(), atol=1e-8)
    np.testing.assert_array_equal(again.as_vector(), vec)
    np.testing.assert_array_equal(traj.times, times)
    np.testing.assert_array_equal(
        np.concatenate([traj.q, traj.v, traj.lam, traj.mu], axis=1), ys
    )


def test_constraint_residual_of_flow_refines_at_integrator_order():
    # differentiate the discrete q-series by 4th-order central differences;
    # the annihilator applied to it must shrink at the flow's order
    model = particle_model()
    prob = short_case2_problem()
    alpha = Costate(lam=[0.1, -0.2, 0.3], mu=[0.2, 0.1])

    def f(t, y):
        state = AdmissibleState.from_vector(y[:5], 3)
        costate = Costate(lam=y[5:8], mu=y[8:])
        (qd, vd), (ld, md) = pmp_rhs(model, prob, t, state, costate)
        return np.concatenate([qd, vd, ld, md])

    y0 = np.concatenate([prob.initial_state.as_vector(), alpha.as_vector()])

    def worst_residual(steps):
        grid = TimeGrid(0.0, 1.0, steps)
        _, ys = integrate(f, y0, grid)
        q = ys[:, :3]
        h = grid.h
        worst = 0.0
        for j in range(2, steps - 1):
            qdot = (q[j - 2] - 8 * q[j - 1] + 8 * q[j + 1] - q[j + 2]) / (12 * h)
            worst = max(worst, abs(constraint_residual(model, q[j], qdot)[0]))
        return worst

    coarse, fine = worst_residual(100), worst_residual(200)
    assert coarse / fine >= 8.0


# ---------------------------------------------------------------------------
# abnormal-extremal diagnostic


def test_abnormal_diagnostic_static_arc_admits_nontrivial_costate():
    model = particle_model()
    times = np.linspace(0.0, 2.0, 81)
    q = np.tile([0.3, 0.7, -0.2], (81, 1))
    v = np.zeros((81, 2))
    report = abnormal_diagnostic(model, times, q, v)
    assert report.nontrivial_solution
    assert report.singular_value_ratio < 1e-10


def test_abnormal_diagnostic_moving_arc_does_not():
    from nhtrack.geometry import dynamics_rhs

    model = particle_model()

    def f(t, y):
        state = AdmissibleState.from_vector(y, 3)
        qd, vd = dynamics_rhs(model, state, np.array([0.1 * np.sin(t), 0.2]))
        return np.concatenate([qd, vd])

    times, ys = integrate(f, np.array([0.0, 0.5, 0.0, 0.4, 0.8]), TimeGrid(0.0, 2.0, 80))
    report = abnormal_diagnostic(model, times, ys[:, :3], ys[:, 3:])
    assert not report.nontrivial_solution
    assert report.singular_value_ratio > 1e-3


# ---------------------------------------------------------------------------
# validation and error surfaces


def test_tracking_problem_epsilon_zero_names_singular_exclusion():
    with pytest.raises(ValueError, match="singular"):
        case2_problem(epsilon=0.0)


@pytest.mark.parametrize(
    "overrides",
    [
        {"epsilon": -1.0},
        {"lambda0": 0.0},
        {"lambda0": -1.0},
        {"horizon_T": 0.0},
        {"omega": -0.5},
        {"terminal_mode": "soft"},
        {"state_weight": -1.0},
    ],
)
def test_tracking_problem_validation(overrides):
    with pytest.raises(ValueError):
        case2_problem(**overrides)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize(
    "field", ["epsilon", "horizon_T", "omega", "lambda0", "state_weight"]
)
def test_tracking_problem_rejects_a_nonfinite_parameter(field, value):
    """NaN passes every `<= 0` check, so each parameter is checked finite
    first."""
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        case2_problem(**{field: value})


def test_costate_rejects_nonfinite_entries():
    with pytest.raises(ValueError, match="finite"):
        Costate(lam=[np.nan, 0.0, 0.0], mu=[0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        Costate(lam=np.zeros(3), mu=[np.inf, 0.0])


def test_costate_vector_roundtrip():
    model = particle_model()
    z = Costate.zero(model)
    assert z.lam.shape == (3,)
    assert z.mu.shape == (2,)
    c = Costate(lam=[1.0, 2.0, 3.0], mu=[4.0, 5.0])
    np.testing.assert_array_equal(c.as_vector(), [1.0, 2.0, 3.0, 4.0, 5.0])


@pytest.mark.parametrize(
    "kwargs",
    [
        {"newton_tol": 0.0},
        {"newton_tol": -1e-6},
        {"max_iters": -3},
        {"max_iters": 0},
        {"continuation": "Horizon"},
        {"continuation": "omega"},
        {"continuation_stages": 0},
        {"continuation_stages": -1},
    ],
)
def test_shooting_settings_validation(kwargs):
    with pytest.raises(ValueError):
        ShootingSettings(**kwargs)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("settings", [NewtonSettings, ShootingSettings, DelSettings])
def test_newton_settings_reject_a_nonfinite_newton_tol(settings, value):
    """A NaN newton_tol would pass a `<= 0` check, and a solve with it could
    never converge."""
    with pytest.raises(ValueError, match="newton_tol must be positive and finite"):
        settings(newton_tol=value)


@pytest.mark.parametrize(
    "settings, field, extra",
    [
        (ShootingSettings, "max_iters", {}),
        (ShootingSettings, "continuation_stages", {"continuation": "horizon"}),
        (DelSettings, "max_iters", {}),
    ],
)
def test_settings_reject_a_fractional_count(settings, field, extra):
    """A fractional count passed the positivity check, and the solve then
    died in range() with a TypeError."""
    match = rf"{settings.__name__}\.{field} must be a positive integer, got 2\.5"
    with pytest.raises(ValueError, match=match):
        settings(**{field: 2.5}, **extra)


# ---------------------------------------------------------------------------
# trajectory cost quadrature


@pytest.mark.parametrize("steps", [7, 8])
def test_trajectory_cost_is_composite_simpson_closed_by_a_trapezoid(steps):
    """Simpson over the first 2 floor(steps/2) intervals; an odd step count
    adds the trapezoid rule on the last interval.  The expected sum is
    built here from one running_cost call per sample."""
    from nhtrack.pmp import ShootingTrajectory, trajectory_cost

    model = particle_model()
    problem = case2_problem(horizon_T=1.0, lambda0=2.0)
    rng = np.random.default_rng(steps)
    times = np.linspace(0.0, 1.0, steps + 1)
    traj = ShootingTrajectory(
        times=times,
        q=rng.normal(size=(steps + 1, 3)),
        v=rng.normal(size=(steps + 1, 2)),
        u=rng.normal(size=(steps + 1, 2)),
        lam=np.zeros((steps + 1, 3)),
        mu=np.zeros((steps + 1, 2)),
    )
    vals = [
        2.0 * running_cost(model, problem, t, AdmissibleState(q=q, v=v), u)
        for t, q, v, u in zip(times, traj.q, traj.v, traj.u)
    ]
    h = 1.0 / steps
    expected = sum(
        h / 3.0 * (vals[j] + 4.0 * vals[j + 1] + vals[j + 2])
        for j in range(0, steps - 1, 2)
    )
    if steps % 2:
        expected += 0.5 * h * (vals[-2] + vals[-1])
    assert trajectory_cost(model, problem, traj) == pytest.approx(
        expected, rel=1e-12
    )


def test_trajectory_cost_needs_two_samples():
    from nhtrack.pmp import ShootingTrajectory, trajectory_cost

    one = ShootingTrajectory(
        times=np.zeros(1), q=np.zeros((1, 3)), v=np.zeros((1, 2)),
        u=np.zeros((1, 2)), lam=np.zeros((1, 3)), mu=np.zeros((1, 2)),
    )
    with pytest.raises(ValueError, match="at least 2 samples"):
        trajectory_cost(particle_model(), case2_problem(horizon_T=1.0), one)


# ---------------------------------------------------------------------------
# damped-Newton driver on a toy scalar residual r(x) = x^2 - 4


def _square_root_problem(fails, error=ArithmeticError):
    """evaluate/correction for r(x) = x^2 - 4; evaluate raises error
    wherever fails(x) holds."""

    def evaluate(x):
        if fails(x[0]):
            raise error(f"cannot evaluate at x = {x[0]}")
        return np.array([x[0] ** 2 - 4.0]), x[0]

    def correction(x, r, data):
        return -r / (2.0 * x)

    return evaluate, correction


def _abs_norm(r):
    return float(abs(r[0]))


def test_damped_newton_backtracks_past_a_trial_that_fails_to_evaluate():
    evaluate, correction = _square_root_problem(lambda x: x > 2.2)
    x, data, report = damped_newton(
        np.array([1.0]), evaluate, correction, _abs_norm, "residual norm",
        NewtonSettings(newton_tol=1e-12),
    )
    # the full first step lands at 2.5 and fails; the halved one is taken
    assert report.records[0].damping == 0.5
    assert report.converged
    assert x[0] == pytest.approx(2.0, abs=1e-12)
    assert data == x[0]


def _counted(evaluate):
    """evaluate, logging each point it is called at."""
    calls = []

    def counted(x):
        calls.append(x[0])
        return evaluate(x)

    return counted, calls


def _assert_stalled_at_the_start(x, data, report, calls):
    """One evaluation at the start, then MAX_HALVINGS + 1 trials, beta = 1
    .. DAMPING^MAX_HALVINGS, none taken: the solve ends at its start."""
    from nhtrack.pmp import MAX_HALVINGS

    assert len(calls) == 1 + (MAX_HALVINGS + 1) == 22
    assert x[0] == 1.0 and data == 1.0
    assert not report.converged
    assert report.iterations == 0
    assert report.records == ()
    assert report.residual_norm == 3.0
    assert report.message.startswith("stalled at iteration 1: ")
    assert "residual norm 3.000e+00" in report.message


def test_damped_newton_stalls_when_no_trial_step_evaluates():
    evaluate, correction = _square_root_problem(lambda x: x != 1.0)
    counted, calls = _counted(evaluate)
    x, data, report = damped_newton(
        np.array([1.0]), counted, correction, _abs_norm, "residual norm",
        NewtonSettings(),
    )
    _assert_stalled_at_the_start(x, data, report, calls)
    assert f"cannot evaluate at x = {calls[-1]}" in report.message


def test_damped_newton_stalls_when_no_trial_decreases():
    """An ascent direction: every trial evaluates, none decreases |r|, so
    no step is taken, not even the smallest."""
    evaluate, _ = _square_root_problem(lambda x: False)
    counted, calls = _counted(evaluate)

    def ascent(x, r, data):
        return r / (2.0 * x)

    x, data, report = damped_newton(
        np.array([1.0]), counted, ascent, _abs_norm, "residual norm",
        NewtonSettings(),
    )
    _assert_stalled_at_the_start(x, data, report, calls)
    assert "9.537e-07" in report.message
    assert "failed" not in report.message


def test_damped_newton_lets_an_error_of_the_correction_propagate():
    """An ArithmeticError raised while computing the step is not a rejected
    trial: it leaves the solve, which has no step to back off from."""
    evaluate, _ = _square_root_problem(lambda x: False)

    def correction(x, r, data):
        if x[0] > 2.2:
            raise FlowDivergedError(0.75)
        return -r / (2.0 * x)

    # the first step lands at 2.5, where the next correction diverges
    with pytest.raises(FlowDivergedError) as info:
        damped_newton(
            np.array([1.0]), evaluate, correction, _abs_norm, "residual norm",
            NewtonSettings(),
        )
    assert info.value.t == 0.75


def test_stacked_flow_with_one_diverging_probe_ends_the_solve():
    """One diverging row fails a stacked flow with FlowDivergedError; raised
    from a Jacobian's probe flow, it ends damped_newton by propagating."""
    from nhtrack.pmp import _flow

    def rhs(t, y):  # y' = y^2 leaves every bound before t = 1 / y(0)
        return y * y

    def flow(y0):  # 200 steps over [0, 1]
        return _flow(rhs, y0, 0.0, 1.0 / 200, 200)

    stacked = np.array([[0.1], [5.0], [0.2]])
    with pytest.raises(FlowDivergedError):
        flow(stacked)
    ys = flow(stacked[[0, 2]])
    assert ys.shape == (201, 2, 1)

    def evaluate(x):
        return flow(x)[-1] - 10.0, None

    def correction(x, r, data):
        # forward differences of the end state, both probes in one flow
        step = 0.2
        probes = flow(x + np.diag([step, step]))[-1]
        jac = ((probes - 10.0 - r) / step).T
        return np.linalg.solve(jac, -r)

    # y(1) = y(0) / (1 - y(0)): the probe (0.85 + 0.2, 0.3) diverges, the
    # probe (0.85, 0.3 + 0.2) and the base flow do not
    with pytest.raises(FlowDivergedError, match="flow diverged"):
        damped_newton(
            np.array([0.85, 0.3]), evaluate, correction,
            lambda r: float(np.max(np.abs(r))), "residual norm", NewtonSettings(),
        )


def test_damped_newton_lets_other_errors_through():
    evaluate, correction = _square_root_problem(lambda x: x > 2.2, ValueError)
    with pytest.raises(ValueError):
        damped_newton(
            np.array([1.0]), evaluate, correction, _abs_norm, "residual norm",
            NewtonSettings(),
        )


@pytest.mark.parametrize(
    "error",
    [IntegrationError, FlowDivergedError, SingularJacobianError, RegularityError],
)
def test_numerical_failures_are_arithmetic_errors(error):
    """Every numerical failure of a solve shares one base class, which the
    Newton driver rejects a trial on and the CLI maps to exit code 2."""
    assert issubclass(error, ArithmeticError)


# ---------------------------------------------------------------------------
# one stacked flow per evaluated shooting point


def _sleigh_problem():
    ref = AnalyticReference(
        q_base=[0.0, 0.5, 0.1], q_slope=[0.1, 0.0, 0.2],
        v_base=[0.3, 1.0], v_slope=np.zeros(2),
    )
    return TrackingProblem(
        reference=ref, horizon_T=1.0, epsilon=1.0, omega=1.0,
        initial_state=AdmissibleState(q=np.zeros(3), v=[1.0, 1.0]),
    )


@pytest.mark.parametrize("system", ["particle", "sleigh"])
def test_stacked_shooting_flow_rows_equal_the_separate_flows(system):
    """Row 0 of segment i of the (M, 1 + 2(n + k))-row stack of a Newton
    point equals, bitwise over the whole series, the flow of that segment
    start alone on the segment's own clock, and the probe rows equal the
    flow of the segment's probes alone: integrating the segments side by
    side, each with its probes, changes no arithmetic.  So do the start
    rows flowed without their probes, shape (M, 1, 2(n + k))."""
    from nhtrack.pmp import FD_STEP, _flow, _make_packed_rhs

    if system == "particle":
        model, problem = particle_model(), short_case2_problem()
    else:
        model, problem = sleigh_model(SLEIGH_PARAMS), _sleigh_problem()
    rhs = _make_packed_rhs(model, problem)
    segments, span, h = 4, 25, 0.01
    width = 2 * (model.n + model.rank)
    z = np.random.default_rng(11).uniform(-0.5, 0.5, (segments, width))
    z[0, : model.n + model.rank] = problem.initial_state.as_vector()
    steps = FD_STEP * np.maximum(1.0, np.abs(z))
    stack = np.concatenate(
        [z[:, None], z[:, None] + steps[:, :, None] * np.eye(width)], axis=1
    )
    starts = h * span * np.arange(segments)[:, None]

    ys = _flow(rhs, stack, starts, h, span)
    assert ys.shape == (span + 1, segments, 1 + width, width)
    for i in range(segments):
        alone = _flow(rhs, stack[i, 0], float(starts[i, 0]), h, span)
        probes = _flow(rhs, stack[i, 1:], float(starts[i, 0]), h, span)
        assert np.array_equal(ys[:, i, 0], alone)
        assert np.array_equal(ys[:, i, 1:], probes)
    assert np.array_equal(_flow(rhs, stack[:, :1], starts, h, span), ys[:, :, :1])


def _rejected_trials(report):
    # an accepted step scaled by DAMPING^h followed h rejected trials
    return sum(round(-np.log2(rec.damping)) for rec in report.records)


def _logged_flows(monkeypatch):
    """Log each pmp._flow call, in order, as (shape, steps, coarse): coarse
    marks a flow whose segments take steps of their own length, the coarse
    probe flow."""
    import nhtrack.pmp as pmp

    events = []
    real_flow = pmp._flow

    def logged_flow(rhs, y0, starts, h, steps):
        events.append((y0.shape, steps, np.ndim(h) > 0))
        return real_flow(rhs, y0, starts, h, steps)

    monkeypatch.setattr(pmp, "_flow", logged_flow)
    return events


def _letters(events):
    """One letter per logged flow: b for the segment starts alone, c for a
    coarse probe flow, f for a grid-step probe flow.  A correction's flows
    read c where it keeps the coarse flow, cf where it falls back, and f
    once an earlier correction of its solve fell back."""
    return "".join(
        "c" if coarse else "b" if shape[-2] == 1 else "f"
        for shape, _, coarse in events
    )


def _force_grid_step_probes(monkeypatch):
    """Make every coarse probe flow diverge, so that each correction flows
    its probes at the grid step."""
    import nhtrack.pmp as pmp

    real_flow = pmp._flow

    def coarse_diverges(rhs, y0, starts, h, steps):
        if np.ndim(h):
            raise FlowDivergedError(0.0)
        return real_flow(rhs, y0, starts, h, steps)

    monkeypatch.setattr(pmp, "_flow", coarse_diverges)


def _recorded_shoot(monkeypatch, model, problem, grid, segments):
    """_newton_shoot from a zero costate, and its _logged_flows."""
    import nhtrack.pmp as pmp

    events = _logged_flows(monkeypatch)
    start = Costate.zero(model).as_vector()
    result = pmp._newton_shoot(
        model, problem, start, ShootingSettings(), grid, segments, None
    )
    return result, events


@pytest.mark.parametrize("segments, steps", [(1, 100), (4, 100), (25, 101)])
def test_newton_shoot_runs_one_flow_per_evaluated_point(monkeypatch, segments, steps):
    """The start and every trial step are one flow of the segment starts
    alone, (M, 1, 2(n + k)) by ceil(steps / M) grid steps.  Each correction
    follows the flow of the point it serves with one coarse flow of the
    probe stack, (M, 1 + 2(n + k), 2(n + k)) by ceil(span / PROBE_STRIDE)
    steps, and keeps it here: uneven segments too end their coarse flows
    at their own ends.  The converged last point flows no probes.  The
    segment series laid end to end, uneven segments included, is the
    single flow of the returned costate."""
    import nhtrack.pmp as pmp

    model, problem = particle_model(), short_case2_problem()
    grid = TimeGrid(0.0, 1.0, steps)
    (vec, (times, ys), report), events = _recorded_shoot(
        monkeypatch, model, problem, grid, segments
    )
    assert report.converged and report.iterations >= 2
    width = 2 * (model.n + model.rank)
    span = -(-steps // segments)
    bare = ((segments, 1, width), span, False)
    coarse = ((segments, 1 + width, width), -(-span // pmp.PROBE_STRIDE), True)
    assert set(events) <= {bare, coarse}
    letters = _letters(events)
    assert re.fullmatch("b(cb+)*", letters), letters
    assert letters.count("b") == 1 + report.iterations + _rejected_trials(report)
    assert letters.count("c") == report.iterations
    np.testing.assert_array_equal(times, grid.times())
    assert ys.shape == (steps + 1, width)
    settings = ShootingSettings(inner_grid=grid)
    np.testing.assert_allclose(
        shooting_residual(model, problem, Costate(lam=vec[:3], mu=vec[3:]), settings),
        0.0, atol=settings.newton_tol,
    )
    y0 = np.concatenate([problem.initial_state.as_vector(), vec])
    np.testing.assert_allclose(ys, pmp._flow(pmp._make_packed_rhs(model, problem),
                                             y0, 0.0, grid.h, steps), atol=1e-9)


@pytest.mark.parametrize("system", ["particle", "sleigh"])
@pytest.mark.parametrize("segments", [1, 4])
def test_the_coarse_probe_flow_moves_the_path_not_the_root(
    monkeypatch, system, segments,
):
    """Every correction keeps its coarse probe flow here; forced to the
    grid-step probes instead (each coarse flow diverging), the solve takes
    as many iterations to the same root of the grid-step residual: the
    costates and the segment series agree within 1e-10 (measured: 2.0e-12
    at most)."""
    import nhtrack.pmp as pmp

    model, problem = _segmented_instance(system)
    grid = TimeGrid(0.0, 1.0, 100)
    (vec, (_, ys), report), events = _recorded_shoot(
        monkeypatch, model, problem, grid, segments
    )
    assert report.converged and "f" not in _letters(events)
    _force_grid_step_probes(monkeypatch)
    start = Costate.zero(model).as_vector()
    f_vec, (_, f_ys), f_report = pmp._newton_shoot(
        model, problem, start, ShootingSettings(), grid, segments, None
    )
    assert f_report.converged and f_report.iterations == report.iterations
    np.testing.assert_allclose(f_vec, vec, rtol=0, atol=1e-10)
    np.testing.assert_allclose(f_ys, ys, rtol=0, atol=1e-10)


def _bundled_particle_solve(monkeypatch, steps=None, **overrides):
    """The bundled particle config's shooting solve, its problem fields and
    grid steps overridden where given, and its _logged_flows."""
    events = _logged_flows(monkeypatch)
    cfg = parse_config(BUNDLED / "particle-case2.cfg")
    model = build_model(cfg)
    settings = ShootingSettings(
        inner_grid=TimeGrid(0.0, cfg.problem.horizon_T, steps or cfg.solver.steps),
        newton_tol=cfg.solver.newton_tol, max_iters=cfg.solver.max_iters,
    )
    problem = replace(build_problem(cfg, model), **overrides)
    _, _, report = solve_shooting(model, problem, None, settings)
    return report, events


def test_the_bundled_particle_keeps_the_coarse_probe_flow_at_every_correction(
    monkeypatch,
):
    """The bundled particle's solve evaluates five points, each a flow of
    its 100 segment starts alone by 4 grid steps; each of its four
    corrections keeps its coarse probe flow of 1 step, and the last point,
    converged, flows no probes."""
    report, events = _bundled_particle_solve(monkeypatch)
    assert (report.converged, report.iterations) == (True, 4)
    bare, coarse = ((100, 1, 10), 4, False), ((100, 11, 10), 1, True)
    assert events == [bare, coarse] * 4 + [bare]


def test_the_bundled_particle_at_a_small_epsilon_falls_back_at_every_correction(
    monkeypatch,
):
    """At epsilon = 0.001 on 100 steps, the first coarse probe flow of the
    bundled particle lands outside the probe steps of the grid-step flow,
    so that correction and every later one flow their probes at the grid
    step, the 2(n + k) probe rows alone (the starts' ends are the
    evaluation's), and the solve keeps the log of grid-step Jacobians bit
    for bit: 10 iterations with the same step lengths, to the residual of
    the solve whose every correction is forced to the grid-step probes.
    That last residual is rounding noise of the linear algebra:
    8.829578e-11 with one OpenBLAS thread and with two."""
    report, events = _bundled_particle_solve(monkeypatch, steps=100, epsilon=0.001)
    events = list(events)  # the forced solve below logs into the same list
    _force_grid_step_probes(monkeypatch)
    f_report, _ = _bundled_particle_solve(monkeypatch, steps=100, epsilon=0.001)
    assert (report.converged, report.iterations) == (True, 10)
    assert f_report == report
    assert [rec.damping for rec in report.records] == [
        0.125, 1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0
    ]
    assert set(events) == {
        ((25, 1, 10), 4, False), ((25, 11, 10), 1, True), ((25, 10, 10), 4, False)
    }
    letters = _letters(events)
    assert re.fullmatch("bcfb+(fb+)*", letters), letters
    assert letters.count("f") == 10


def _blowup_field(column, center, rate=4.0):
    """A _make_packed_rhs stand-in: y' = rate (y - center)^2 in one column of
    the packed vector, every other column constant.  A row starting at
    center + z diverges after a time 1 / (rate z) when z > 0 and stays
    finite when z < 0."""

    def make(model, problem):
        def rhs(t, y):
            dy = np.zeros_like(y)
            dy[..., column] = rate * (y[..., column] - center) ** 2
            return dy

        return rhs

    return make


def _terminal_target(model, problem):
    # the costate at which the Mayer residual of a constant flow vanishes
    ref_T = problem.reference(problem.horizon_T)
    state = problem.initial_state
    dq, dv = state.q - ref_T.q, state.v - ref_T.v
    return problem.omega * np.concatenate([dq, dv])


@pytest.mark.parametrize("segments", [1, 4])
def test_newton_shoot_stops_when_a_probe_of_a_finite_point_diverges(
    monkeypatch, segments,
):
    """Probe 1 of the start diverges inside the first segment (at t =
    1 / (2M)) while the start itself stays finite: the start's flow is
    accepted, but its correction's probe flow diverges at the coarse step
    and then at the grid step, so the solve raises FlowDivergedError naming
    the time of the blow-up, as it does for a start whose point diverges.
    The guide puts every later segment start on the start's own packed
    value, so each of them, too, stays finite while its probe diverges."""
    import nhtrack.pmp as pmp

    model, problem = particle_model(), short_case2_problem()
    n, k = model.n, model.rank
    grid = TimeGrid(0.0, 1.0, 100)
    start = _terminal_target(model, problem)
    start[1] = 1e6  # its probe step is 1e-6 * 1e6 = 1
    packed = np.concatenate([problem.initial_state.as_vector(), start])
    guide = (grid.times(), np.tile(packed, (101, 1)))
    field = _blowup_field(n + k + 1, center=1e6 + 0.5, rate=4.0 * segments)
    monkeypatch.setattr(pmp, "_make_packed_rhs", field)
    # the start alone flows finite to the end
    ys = pmp._flow(field(model, problem), packed, 0.0, grid.h, grid.steps)
    assert np.all(np.isfinite(ys)) and ys[-1, n + k + 1] < 1e6 + 0.5
    with pytest.raises(FlowDivergedError) as info:
        pmp._newton_shoot(
            model, problem, start, ShootingSettings(), grid, segments, guide,
        )
    assert abs(info.value.t - 0.5 / segments) <= 0.02  # two steps of the grid
    assert f"near t = {info.value.t:.6g}" in str(info.value)


def test_newton_shoot_falls_back_when_the_coarse_probe_flow_diverges(monkeypatch):
    """A row d = 1.1 below the field's center decays toward it, and its
    grid steps (u = rate h d = 0.825) stay stable, while a coarse step of
    4 h (u = 3.3) overshoots past the center and blows up.  The first
    correction's coarse probe flow diverges, so it and every later
    correction flow their probe rows alone at the grid step, and the solve
    converges.  A trial is rejected only when its own flow diverges, so
    none is rejected here."""
    import nhtrack.pmp as pmp

    model, problem = particle_model(), short_case2_problem()
    n, k = model.n, model.rank
    grid = TimeGrid(0.0, 1.0, 100)
    start = _terminal_target(model, problem)
    center = start[1] + 1.0 / 76.0  # the flow from 1 below it ends 1 / 76 below
    start[1] = center - 1.1
    monkeypatch.setattr(
        pmp, "_make_packed_rhs", _blowup_field(n + k + 1, center=center, rate=75.0)
    )
    real_flow, diverged = pmp._flow, []

    def recording_flow(rhs, y0, starts, h, steps):
        try:
            return real_flow(rhs, y0, starts, h, steps)
        except FlowDivergedError:
            diverged.append((y0.shape, np.ndim(h) > 0))
            raise

    monkeypatch.setattr(pmp, "_flow", recording_flow)
    events = _logged_flows(monkeypatch)
    _, _, report = pmp._newton_shoot(
        model, problem, start, ShootingSettings(), grid, 1, None,
    )
    assert report.converged and report.iterations >= 2
    assert _rejected_trials(report) == 0
    coarse, fine = ((1, 11, 10), 25, True), ((1, 10, 10), 100, False)
    assert diverged == [((1, 11, 10), True)]
    probes = [e for e in events if e[0] != (1, 1, 10)]
    assert probes == [coarse] + [fine] * report.iterations


@pytest.mark.parametrize("segments", [1, 4])
def test_newton_shoot_backtracks_past_a_trial_whose_point_diverges(
    monkeypatch, segments,
):
    """The full Newton step and two halvings of it start past the blow-up
    of the field, so their flows diverge row 0 included; the solve rejects
    them, takes the eighth step and converges.  The field's rate grows with
    M, so that a segment start blows up inside its own segment."""
    import nhtrack.pmp as pmp

    model, problem = particle_model(), short_case2_problem()
    n, k = model.n, model.rank
    start = _terminal_target(model, problem)
    start[1] = -0.5  # for M = 1 the root of entry 1 is 0.2 / 1.8, the blow-up 0.25
    monkeypatch.setattr(
        pmp, "_make_packed_rhs",
        _blowup_field(n + k + 1, center=0.0, rate=4.0 * segments),
    )
    _, _, report = pmp._newton_shoot(
        model, problem, start, ShootingSettings(), TimeGrid(0.0, 1.0, 100),
        segments, None,
    )
    assert report.records[0].damping == 0.125
    assert report.converged


def test_singular_jacobian_error_suggests_regularization():
    err = SingularJacobianError()
    assert "epsilon" in str(err)
    assert "condition" not in str(err)
    assert not hasattr(err, "cond")


@pytest.mark.parametrize("segments", [1, 4, 25])
def test_a_system_blind_to_the_costate_raises_singular_jacobian(
    monkeypatch, segments
):
    """Under a zero field the hard terminal rows ignore every costate
    column, so the Newton system is singular and the solve raises, with
    one segment and with several, the block elimination running five
    levels at M = 25."""
    import nhtrack.pmp as pmp

    monkeypatch.setattr(
        pmp, "_make_packed_rhs", lambda model, problem: lambda t, y: np.zeros_like(y)
    )
    model = particle_model()
    problem = replace(short_case2_problem(), terminal_mode="hard")
    with pytest.raises(SingularJacobianError) as info:
        pmp._newton_shoot(
            model, problem, Costate.zero(model).as_vector(), ShootingSettings(),
            TimeGrid(0.0, 1.0, 100), segments, None,
        )
    assert "singular" in str(info.value)


# ---------------------------------------------------------------------------
# segmented shooting: gaps, the whole-system Jacobian and the segment count


def test_flow_names_the_earliest_absolute_time_a_row_blew_up():
    """Stacked flows on their own clocks stop at the first local step at
    which a row fails, and the error names the earliest absolute time among
    the rows that failed there: both for a value past the bound and for a
    non-finite stage value (a field that turns NaN)."""
    from nhtrack.pmp import _flow

    def squared(t, y):  # y' = y^2 from y(0) = 2.5 blows up after 0.4
        return y * y

    starts = np.array([[0.5], [0.0]])
    with pytest.raises(FlowDivergedError) as info:
        _flow(squared, np.full((2, 1, 1), 2.5), starts, 0.01, 50)
    assert 0.4 <= info.value.t <= 0.42
    assert "near t = 0.4" in str(info.value)

    def turns_nan(t, y):  # NaN from absolute time 0.302 on
        return np.where(t[..., None] >= 0.302, np.nan, 0.0) + 0.0 * y

    with pytest.raises(FlowDivergedError) as info:
        _flow(turns_nan, np.zeros((2, 1, 1)), np.array([[0.25], [0.0]]), 0.01, 50)
    # the first row's stage 2 of local step 5 reaches it: the step starts at
    # local time 0.05, absolute 0.3
    assert info.value.t == pytest.approx(0.3)


def test_a_flow_with_a_step_per_segment_runs_each_on_its_own_clock(monkeypatch):
    """With one step per segment, segment i takes the given number of RK4
    steps of its own length from its own start: y' = t, which RK4
    integrates exactly, ends each segment at its own end time, and a row
    that blows up names its absolute time.  rk4_step sees a scalar local
    time from 0.0 either way."""
    import nhtrack.pmp as pmp

    local_times, real_step = [], pmp.rk4_step

    def recording_step(f, t, y, h):
        local_times.append(t)
        return real_step(f, t, y, h)

    monkeypatch.setattr(pmp, "rk4_step", recording_step)

    def clock(t, y):
        return np.broadcast_to(t[..., None], y.shape)

    starts, h = np.array([[0.0], [0.3]]), np.array([[0.1], [0.125]])
    ys = pmp._flow(clock, np.zeros((2, 3, 1)), starts, h, 4)
    assert ys.shape == (5, 2, 3, 1)
    np.testing.assert_allclose(ys[-1, :, :, 0], [[0.08] * 3, [0.275] * 3], rtol=1e-14)
    assert local_times[0] == 0.0 and len(local_times) == 4
    assert all(type(t) is float for t in local_times)

    def squared(t, y):  # y' = y^2 from y(0) = 2.5 blows up after 0.4
        return y * y

    with pytest.raises(FlowDivergedError) as info:
        pmp._flow(squared, np.array([[[2.5]], [[0.0]]]), np.array([[0.5], [0.0]]),
                  np.array([[0.01], [0.02]]), 50)
    assert 0.9 <= info.value.t <= 0.92


def _captured_system(monkeypatch, model, problem, segments):
    """The evaluate and correction of one _newton_shoot on a 100-step grid
    over [0, 1], and its start point, caught at the Newton driver."""
    import nhtrack.pmp as pmp

    captured = {}

    def capture(x, evaluate, correction, *args):
        captured.update(x=x.copy(), evaluate=evaluate, correction=correction)
        report = pmp.ConvergenceReport(False, 0, 0.0, (), "captured")
        return x, evaluate(x)[1], report

    monkeypatch.setattr(pmp, "damped_newton", capture)
    start = Costate.zero(model).as_vector()
    pmp._newton_shoot(
        model, problem, start, ShootingSettings(), TimeGrid(0.0, 1.0, 100),
        segments, None,
    )
    return captured


def _segmented_instance(system):
    if system == "particle":
        return particle_model(), short_case2_problem()
    return sleigh_model(SLEIGH_PARAMS), _sleigh_problem()


def _assembled(jumps, terminal):
    """The dense square matrix of _segmented_solve's system: row block i
    has G_i on z_i and -I on z_{i+1}, the terminal rows fill the first p
    rows of the last block on z_K, and the last block's other p rows and
    the fixed-state columns of z_0 are dropped."""
    k, p = len(jumps), len(terminal)
    w, m = 2 * p, k + 1
    jac = np.zeros((m, w, m, w))
    i = np.arange(k)
    jac[i, :, i] = jumps
    jac[i, :, i + 1] = -np.eye(w)
    jac[-1, :p, -1] = terminal
    return jac.reshape(m * w, m * w)[:-p, p:]


def _recorded_segmented_solves(monkeypatch):
    """Log the (jumps, terminal, b) of every pmp._segmented_solve call."""
    import nhtrack.pmp as pmp

    systems, real_solve = [], pmp._segmented_solve

    def recording_solve(jumps, terminal, b):
        systems.append((jumps.copy(), terminal.copy(), b.copy()))
        return real_solve(jumps, terminal, b)

    monkeypatch.setattr(pmp, "_segmented_solve", recording_solve)
    return systems


def _relative_gap(x, reference):
    return np.max(np.abs(x - reference)) / np.max(np.abs(reference))


@pytest.mark.parametrize("gaps", [0, 1, 2, 3, 24, 99])
def test_segmented_solve_matches_the_dense_solve(gaps):
    """On random systems with K gap equations, odd and even K, the block
    elimination solves what np.linalg.solve of the assembled matrix does,
    within 1e-12 relative, at a normwise backward error within 1e-15.  The
    G_i are I + 0.2 N(0, 1): a segment a few grid steps long moves its
    start little (the assembled matrices' condition numbers reach 1e5)."""
    from nhtrack.pmp import _segmented_solve

    rng = np.random.default_rng(gaps)
    p, w = 5, 10
    jumps = np.eye(w) + 0.2 * rng.normal(size=(gaps, w, w))
    terminal = rng.normal(size=(p, w))
    b = rng.normal(size=gaps * w + p)
    x = _segmented_solve(jumps, terminal, b)
    dense = _assembled(jumps, terminal)
    assert x.shape == b.shape
    assert _relative_gap(x, np.linalg.solve(dense, b)) <= 1e-12
    backward = np.linalg.norm(dense @ x - b) / (
        np.linalg.norm(dense, 2) * np.linalg.norm(x) + np.linalg.norm(b)
    )
    assert backward <= 1e-15


@pytest.mark.parametrize("system", ["particle", "sleigh"])
def test_segmented_solve_matches_the_dense_solve_on_real_newton_systems(
    monkeypatch, system
):
    """Every Newton system of a real solve (the bundled particle on 100
    segments; the short sleigh instance on 25) solves as np.linalg.solve of
    the assembled matrix does, within 1e-12 relative."""
    from nhtrack.pmp import _segmented_solve

    systems = _recorded_segmented_solves(monkeypatch)
    if system == "particle":
        report, _ = _bundled_particle_solve(monkeypatch)
        assert len(systems[0][0]) == 99
    else:
        model, problem = _segmented_instance(system)
        settings = ShootingSettings(inner_grid=TimeGrid(0.0, 1.0, 100))
        _, _, report = solve_shooting(model, problem, settings=settings)
        assert len(systems[0][0]) == 24
    assert report.converged and len(systems) == report.iterations
    for jumps, terminal, b in systems:
        dense = np.linalg.solve(_assembled(jumps, terminal), b)
        assert _relative_gap(_segmented_solve(jumps, terminal, b), dense) <= 1e-12


@pytest.mark.parametrize("system", ["particle", "sleigh"])
def test_assembled_jacobian_matches_central_differences(monkeypatch, system):
    """The square matrix the grid-step probes assemble is the Jacobian of
    the segmented residual (wrapped gaps included): central differences of
    the residual over every unknown agree to the forward-difference error.
    The coarse probe flow, which the correction keeps here, assembles a
    Jacobian within 1e-8 of the grid-step one, relative to its largest
    entry (measured: 4.1e-9 on the particle, 3.8e-9 on the sleigh), well
    inside that forward-difference error (3e-8 and 1e-7)."""
    model, problem = _segmented_instance(system)
    captured = _captured_system(monkeypatch, model, problem, 4)
    evaluate, correction = captured["evaluate"], captured["correction"]
    x0 = captured["x"]
    x = x0 + 0.1 * np.random.default_rng(53).normal(size=x0.size)
    r, ys = evaluate(x)
    systems = _recorded_segmented_solves(monkeypatch)
    events = _logged_flows(monkeypatch)
    correction(x, r, ys)
    assert _letters(events) == "c"
    _force_grid_step_probes(monkeypatch)
    correction(x, r, ys)
    coarse, dense = (_assembled(jumps, terminal) for jumps, terminal, _ in systems)
    assert dense.shape == (x.size, x.size)
    step = 1e-5
    central = np.column_stack([
        (evaluate(x + step * e)[0] - evaluate(x - step * e)[0]) / (2 * step)
        for e in np.eye(x.size)
    ])
    scale = max(1.0, np.max(np.abs(dense)))
    assert np.max(np.abs(dense - central)) <= 1e-5 * scale
    assert np.max(np.abs(coarse - dense)) <= 1e-8 * scale


def test_single_shooting_finds_the_segmented_root(monkeypatch):
    """Forced to one segment every solve is single shooting; on the same
    grid it lands on the root of the segmented solve."""
    model, problem = particle_model(), short_case2_problem()
    settings = ShootingSettings(inner_grid=TimeGrid(0.0, 1.0, 100))
    segmented, _, report = solve_shooting(model, problem, settings=settings)
    assert report.converged
    _single_shooting(monkeypatch)
    single, _, report = solve_shooting(model, problem, settings=settings)
    assert report.converged
    np.testing.assert_allclose(single.as_vector(), segmented.as_vector(), atol=1e-8)


def test_a_prime_step_count_solves_by_uneven_segments(monkeypatch):
    """101 steps are prime: the solve runs ceil(101 / PROBE_STRIDE) = 26
    segments of 3 and 4 steps, and it lands on the root that single
    shooting alone finds on that grid."""
    import nhtrack.pmp as pmp

    calls = []
    real_shoot = pmp._newton_shoot

    def shoot(*args):
        calls.append(args[5])
        return real_shoot(*args)

    monkeypatch.setattr(pmp, "_newton_shoot", shoot)
    model, problem = particle_model(), short_case2_problem()
    settings = ShootingSettings(inner_grid=TimeGrid(0.0, 1.0, 101))
    alpha, traj, report = solve_shooting(model, problem, settings=settings)
    assert calls == [26]
    assert report.converged
    assert traj.times.shape == (102,)
    assert report.residual_norm == report.records[-1].residual_norm

    _single_shooting(monkeypatch)
    single, _, report = solve_shooting(model, problem, settings=settings)
    assert report.converged
    np.testing.assert_allclose(alpha.as_vector(), single.as_vector(), atol=1e-8)


def test_a_failed_solve_reports_its_segment_flows(monkeypatch):
    """A last stage that does not converge returns its last accepted
    point: the segment flows laid end to end and the segmented residual
    norm, the last record's, which the single flow of its costate does not
    reproduce."""
    import nhtrack.pmp as pmp

    shots = []
    real_shoot = pmp._newton_shoot

    def shoot(*args):
        shots.append(real_shoot(*args))
        return shots[-1]

    monkeypatch.setattr(pmp, "_newton_shoot", shoot)
    model = particle_model()
    prob = case2_problem()
    settings = ShootingSettings(inner_grid=TimeGrid(0.0, 4.0, 100), max_iters=2)
    alpha, traj, report = solve_shooting(model, prob, settings=settings)

    assert not report.converged
    [(vec, (times, ys), shot_report)] = shots
    assert report == shot_report
    assert report.residual_norm == report.records[-1].residual_norm
    np.testing.assert_array_equal(alpha.as_vector(), vec)
    np.testing.assert_array_equal(traj.times, times)
    np.testing.assert_array_equal(traj.q, ys[:, : model.n])
    np.testing.assert_array_equal(traj.mu, ys[:, 2 * model.n + model.rank :])
    r = shooting_residual(model, prob, alpha, settings)
    assert report.residual_norm != np.linalg.norm(r)


def _converges_within(horizon, budget, max_iters=None):
    """The bundled particle at the given horizon, from a zero costate,
    converges within newton_tol in under budget seconds (max_iters the
    config's unless given); returns the report."""
    cfg = parse_config(BUNDLED / "particle-case2.cfg")
    model = build_model(cfg)
    problem = replace(build_problem(cfg, model), horizon_T=horizon)
    settings = ShootingSettings(
        newton_tol=cfg.solver.newton_tol,
        max_iters=max_iters or cfg.solver.max_iters,
    )
    t0 = time.perf_counter()
    _, _, report = solve_shooting(model, problem, settings=settings)
    elapsed = time.perf_counter() - t0
    assert report.converged, report.message
    assert report.residual_norm <= settings.newton_tol
    assert elapsed < budget, f"T = {horizon:g} solve took {elapsed:.2f} s"
    return report


def test_the_bundled_particle_converges_at_a_long_horizon():
    """At T = 24 a single flow of the segmented root's costate misses
    newton_tol by rounding growth alone; the solve reports the accepted
    point instead, converged, inside a time budget."""
    _converges_within(24.0, 5.0)


def test_the_bundled_particle_converges_at_horizon_64():
    """At T = 64 a step condensed through the product of all segment
    Jacobians stalls the solve; the step of the whole segmented system
    converges, inside a time budget."""
    _converges_within(64.0, 15.0, max_iters=12)


def test_the_bundled_particle_converges_at_horizon_128(monkeypatch):
    """At T = 128, 25 segments would each span 5.1 time units, and from a
    zero costate that solve fails; with a segment per four grid steps (3200
    of them) it converges, inside a time budget, and every correction keeps
    its coarse probe flow."""
    events = _logged_flows(monkeypatch)
    report = _converges_within(128.0, 15.0)
    assert _letters(events).count("c") == report.iterations
    assert "f" not in _letters(events)


def test_a_shooting_solve_that_cannot_progress_stalls():
    """The bundled particle with a pinned endpoint at epsilon = 1e-5 has no
    step that decreases the residual after a few iterations: the solve
    ends stalled, well before max_iters and inside a time budget, instead
    of crawling at the smallest step scale to its last iteration."""
    cfg = parse_config(BUNDLED / "particle-case2.cfg")
    cfg = cfg._replace(
        problem=cfg.problem._replace(terminal_mode="hard", epsilon=1e-5),
        solver=cfg.solver._replace(max_iters=30),
    )
    model = build_model(cfg)
    problem = build_problem(cfg, model)
    settings = ShootingSettings(
        newton_tol=cfg.solver.newton_tol, max_iters=cfg.solver.max_iters,
        inner_grid=TimeGrid(0.0, problem.horizon_T, cfg.solver.steps),
    )
    t0 = time.perf_counter()
    _, _, report = solve_shooting(model, problem, settings=settings)
    elapsed = time.perf_counter() - t0
    assert not report.converged
    assert report.message.startswith("stalled at iteration "), report.message
    assert report.iterations < settings.max_iters
    assert elapsed < 15.0, f"the stalled solve took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# reference samplers


def test_analytic_reference_is_affine_in_time():
    ref = case2_reference()
    s = ref(2.5)
    np.testing.assert_allclose(s.q, [1.0, 0.0, 3.5], rtol=1e-15)
    np.testing.assert_allclose(s.v, [0.0, 1.0], rtol=1e-15)


def test_rollout_reference_matches_direct_integration_at_nodes():
    from nhtrack.geometry import dynamics_rhs

    model = particle_model()
    start = AdmissibleState(q=[0.0, 0.5, 0.0], v=[0.4, 0.8])
    ref = RolloutReference(model, start, horizon=1.0, step=1e-3)

    def f(t, y):
        state = AdmissibleState.from_vector(y, 3)
        qd, vd = dynamics_rhs(model, state, np.zeros(2))
        return np.concatenate([qd, vd])

    _, ys = integrate(f, start.as_vector(), TimeGrid(0.0, 0.25, 250))
    node = ref(0.25)
    np.testing.assert_allclose(node.as_vector(), ys[-1], atol=1e-13)


def test_rollout_reference_endpoints_are_bit_identical():
    model = particle_model()
    start = AdmissibleState(q=[0.0, 0.5, 0.0], v=[0.4, 0.8])
    ref = RolloutReference(model, start, horizon=1.0, step=1e-3)

    np.testing.assert_array_equal(ref(0.0).as_vector(), start.as_vector())
    np.testing.assert_array_equal(ref(-1e-10).as_vector(), start.as_vector())
    end_a = ref(1.0).as_vector()
    end_b = ref(1.0).as_vector()
    end_c = ref(1.0 + 1e-10).as_vector()
    np.testing.assert_array_equal(end_a, end_b)
    np.testing.assert_array_equal(end_a, end_c)


def test_rollout_reference_interpolates_between_nodes():
    from nhtrack.geometry import dynamics_rhs

    model = particle_model()
    start = AdmissibleState(q=[0.0, 0.5, 0.0], v=[0.4, 0.8])
    ref = RolloutReference(model, start, horizon=1.0, step=1e-3)

    def f(t, y):
        state = AdmissibleState.from_vector(y, 3)
        qd, vd = dynamics_rhs(model, state, np.zeros(2))
        return np.concatenate([qd, vd])

    t = 0.2505
    _, ys = integrate(f, start.as_vector(), TimeGrid(0.0, t, 5010))
    np.testing.assert_allclose(ref(t).as_vector(), ys[-1], atol=1e-10)


@pytest.mark.parametrize("kind", ["analytic", "rollout"])
def test_reference_sampled_at_an_array_of_times_equals_scalar_samples(kind):
    """An array of times gives the scalar samples, stacked along its shape;
    the rollout's endpoint samples stay the stored endpoints bit for bit."""
    start = AdmissibleState(q=[0.0, 0.5, 0.0], v=[0.4, 0.8])
    if kind == "analytic":
        ref = case2_reference()
    else:
        ref = RolloutReference(particle_model(), start, horizon=1.0, step=1e-3)
    times = np.array([
        [0.0, -1e-10, 1e-3, 0.2505, 0.5],
        [0.7000001, 0.999, 1.0, 1.0 + 1e-10, 0.3333],
    ])
    batch = ref(times)
    assert batch.q.shape == (2, 5, 3)
    assert batch.v.shape == (2, 5, 2)
    for idx in np.ndindex(*times.shape):
        single = ref(float(times[idx]))
        np.testing.assert_array_equal(batch.q[idx], single.q)
        np.testing.assert_array_equal(batch.v[idx], single.v)
    if kind == "rollout":
        end = ref(1.0).as_vector()
        for idx in ((0, 0), (0, 1)):
            np.testing.assert_array_equal(
                np.concatenate([batch.q[idx], batch.v[idx]]), start.as_vector()
            )
        for idx in ((1, 2), (1, 3)):
            np.testing.assert_array_equal(
                np.concatenate([batch.q[idx], batch.v[idx]]), end
            )


def test_rollout_reference_rejects_out_of_range_times():
    model = particle_model()
    start = AdmissibleState(q=[0.0, 0.5, 0.0], v=[0.4, 0.8])
    ref = RolloutReference(model, start, horizon=1.0, step=1e-2)
    with pytest.raises(ValueError, match="horizon"):
        ref(-0.1)
    with pytest.raises(ValueError, match="horizon"):
        ref(1.1)


@pytest.mark.parametrize(
    "t", [np.nan, np.array([0.1, np.nan, 0.3])], ids=["scalar", "array"]
)
def test_a_nan_time_is_outside_every_horizon(t):
    """A NaN time fails both `t < 0` and `t > horizon`, so a check for
    times outside the range let it through: the rollout reference cast it
    to an int (a RuntimeWarning) and running_cost returned nan."""
    model = particle_model()
    start = AdmissibleState(q=[0.0, 0.5, 0.0], v=[0.4, 0.8])
    ref = RolloutReference(model, start, horizon=1.0, step=1e-2)
    with pytest.raises(ValueError, match="t = nan outside the rollout horizon"):
        ref(t)
    prob = case2_problem()
    lead = np.shape(t)
    state = prob.reference(np.zeros(lead))
    with pytest.raises(ValueError, match="t = nan outside the problem horizon"):
        running_cost(model, prob, t, state, np.zeros(lead + (2,)))


@pytest.mark.parametrize("kwargs", [{"horizon": 0.0}, {"horizon": -1.0}, {"step": 0.0}])
def test_rollout_reference_validation(kwargs):
    model = particle_model()
    start = AdmissibleState(q=[0.0, 0.5, 0.0], v=[0.4, 0.8])
    full = {"horizon": 1.0, "step": 1e-2}
    full.update(kwargs)
    with pytest.raises(ValueError):
        RolloutReference(model, start, **full)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("field", ["horizon", "step"])
def test_rollout_reference_rejects_a_nonfinite_parameter(field, value):
    """An infinite horizon raised OverflowError, an ArithmeticError, which
    the package reads as a numerical failure; it is a bad argument."""
    model = particle_model()
    start = AdmissibleState(q=[0.0, 0.5, 0.0], v=[0.4, 0.8])
    full = {"horizon": 1.0, "step": 1e-2, field: value}
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        RolloutReference(model, start, **full)
