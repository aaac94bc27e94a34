"""Variational route: the second-order tracking Lagrangian, the continuous
optimality system it generates, the midpoint-discretized constraint and
Lagrangian, the discrete Euler-Lagrange residual as an exact action gradient,
the block-tridiagonal Newton solve, regularity probing, and diagnostics."""
from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial as Poly

from nhtrack.cli import build_model, build_problem, parse_config
from nhtrack.geometry import AdmissibleState, restricted_energy
from nhtrack.ode import TimeGrid
from nhtrack.pmp import FD_STEP, AnalyticReference, RolloutReference, TrackingProblem
from nhtrack.systems import SleighParams, particle_model, sleigh_model
from nhtrack.varint import (
    PSI_VARIANTS,
    DelSettings,
    DiscreteTrajectory,
    RegularityError,
    _DelWorkspace,
    _interval,
    _interval_hessian,
    _solve_block_tridiagonal,
    continuous_optimality_residual,
    del_residual,
    diagnostics,
    discrete_constraint,
    discrete_lagrangian,
    ocp_lagrangian,
    reconstructed_control,
    regularity_check,
    solve_del,
)

SLEIGH_PARAMS = SleighParams(mass_m=1.0, inertia_J=4.0, offset_a=0.2)
ETA = 0.2 * 1.0 / (4.0 + 1.0 * 0.04)
S_ROT = np.sqrt(4.0 + 1.0 * 0.04)
S_M = 1.0


def particle_case2_problem(horizon=4.0, **overrides):
    reference = AnalyticReference(
        q_base=[1.0, 0.0, 1.0], q_slope=[0.0, 0.0, 1.0],
        v_base=[0.0, 1.0], v_slope=[0.0, 0.0],
    )
    kwargs = dict(
        reference=reference, horizon_T=horizon, epsilon=7.0, omega=1.0,
        initial_state=AdmissibleState(q=[0.5, 0.2, 0.7], v=[0.5, 0.4]),
        terminal_mode="hard",
    )
    kwargs.update(overrides)
    return TrackingProblem(**kwargs)


def sleigh_tracking_problem(sleigh, horizon=5.0, **overrides):
    reference = RolloutReference(
        model=sleigh,
        start=AdmissibleState(q=[0.0, 0.5, 0.0], v=[1.0 / 3.0, 1.0]),
        horizon=horizon,
    )
    kwargs = dict(
        reference=reference, horizon_T=horizon, epsilon=1.0, omega=1.0,
        initial_state=AdmissibleState(q=[0.0, 0.0, 4 * np.pi / 3], v=[0.25, 1.0]),
        terminal_mode="hard",
    )
    kwargs.update(overrides)
    return TrackingProblem(**kwargs)


def mild_sleigh_problem(sleigh, horizon=1.0):
    """Seam-free sleigh instance: initial state close to the reference arc."""
    reference = RolloutReference(
        model=sleigh,
        start=AdmissibleState(q=[0.0, 0.5, 0.0], v=[1.0 / 3.0, 1.0]),
        horizon=horizon,
    )
    return TrackingProblem(
        reference=reference, horizon_T=horizon, epsilon=1.0, omega=1.0,
        initial_state=AdmissibleState(q=[0.1, 0.4, 0.25], v=[0.3, 0.9]),
        terminal_mode="hard",
    )


# ---------------------------------------------------------------------------
# ocp_lagrangian


class TestOcpLagrangian:
    def test_zero_on_reference_with_uncontrolled_acceleration(self):
        for model, q, v in (
            (particle_model(), np.array([0.3, -0.8, 1.2]), np.array([0.6, -0.4])),
            (
                sleigh_model(SLEIGH_PARAMS),
                np.array([0.1, 0.2, 0.9]),
                np.array([0.5, 0.3]),
            ),
        ):
            reference = AnalyticReference(
                q_base=q, q_slope=np.zeros(3), v_base=v, v_slope=np.zeros(2)
            )
            problem = TrackingProblem(
                reference=reference, horizon_T=1.0, epsilon=3.0, omega=1.0,
                initial_state=AdmissibleState(q=q, v=v), terminal_mode="hard",
            )
            vdot = -(model.christoffel(q) @ v) @ v - model.potential_grad(q)
            value = ocp_lagrangian(model, problem, 0.4, q, v, vdot)
            assert value == pytest.approx(0.0, abs=1e-15)

    def test_particle_matches_explicit_expansion(self):
        """The eliminated-control form expands to the tracking terms plus
        eps*(vdot1)^2 + eps*((vdot2)^2 + y^2 (v1 v2)^2/(1+y^2)^2
        + 2 y v1 v2 vdot2 / (1+y^2)), all under lambda0/2."""
        model = particle_model()
        problem = particle_case2_problem()
        lam0, eps = problem.lambda0, problem.epsilon
        rng = np.random.default_rng(42)
        for _ in range(100):
            t = rng.uniform(0.0, 4.0)
            q = rng.normal(size=3)
            v = rng.normal(size=2)
            vdot = rng.normal(size=2)
            x, y, z = q
            v1, v2 = v
            vd1, vd2 = vdot
            ref = problem.reference(t)
            dq = q - ref.q
            dv = v - ref.v
            w = 1.0 + y * y
            hand = 0.5 * lam0 * (
                dq @ dq
                + dv @ dv
                + eps * vd1**2
                + eps * (
                    vd2**2
                    + y * y * (v1 * v2) ** 2 / w**2
                    + 2.0 * y * v1 * v2 * vd2 / w
                )
            )
            value = ocp_lagrangian(model, problem, t, q, v, vdot)
            assert value == pytest.approx(hand, rel=1e-10)

    def test_sleigh_matches_reconstructed_control_form(self):
        """u1 = vdot1 + eta v1 v2 and u2 = vdot2 - eta (v1)^2 under the
        common lambda0/2 factor (tracking + eps ||u||^2)."""
        sleigh = sleigh_model(SLEIGH_PARAMS)
        reference = AnalyticReference(
            q_base=[0.2, -0.1, 0.3], q_slope=[0.1, 0.0, 0.2],
            v_base=[0.3, 0.5], v_slope=[0.0, 0.0],
        )
        problem = TrackingProblem(
            reference=reference, horizon_T=4.0, epsilon=2.0, omega=1.0,
            initial_state=AdmissibleState(q=[0.2, -0.1, 0.3], v=[0.3, 0.5]),
            terminal_mode="hard",
        )
        lam0, eps = problem.lambda0, problem.epsilon
        rng = np.random.default_rng(3)
        for _ in range(50):
            t = rng.uniform(0.0, 4.0)
            q = rng.normal(size=3)
            v = rng.normal(size=2)
            vdot = rng.normal(size=2)
            v1, v2 = v
            u1 = vdot[0] + ETA * v1 * v2
            u2 = vdot[1] - ETA * v1 * v1
            ref = problem.reference(t)
            dq = q - ref.q
            dv = v - ref.v
            hand = 0.5 * lam0 * (dq @ dq + dv @ dv + eps * (u1**2 + u2**2))
            value = ocp_lagrangian(sleigh, problem, t, q, v, vdot)
            assert value == pytest.approx(hand, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-5.0, 5.0), min_size=8, max_size=8),
        st.floats(0.0, 4.0),
    )
    def test_nonnegative(self, values, t):
        model = particle_model()
        problem = particle_case2_problem()
        q = np.array(values[:3])
        v = np.array(values[3:5])
        vdot = np.array(values[5:7])
        assert ocp_lagrangian(model, problem, t, q, v, vdot) >= 0.0


def test_reconstructed_control_hand_value():
    model = particle_model()
    q = np.array([0.0, 2.0, 0.0])
    v = np.array([0.5, -1.5])
    vdot = np.array([0.1, 0.2])
    c = 2.0 / 5.0
    hand = np.array([0.1, 0.2 + c * 0.5 * (-1.5)])
    assert np.allclose(reconstructed_control(model, q, v, vdot), hand, atol=1e-14)
    # uncontrolled acceleration maps back to zero control
    free = -(model.christoffel(q) @ v) @ v - model.potential_grad(q)
    assert np.all(reconstructed_control(model, q, v, free) == 0.0)


# ---------------------------------------------------------------------------
# continuous_optimality_residual


class TestContinuousOptimality:
    def test_particle_reduces_to_componentwise_system(self):
        """On an admissible polynomial arc (qdot = rho(q) v holds along it),
        the stacked rows reduce termwise to the componentwise first-order
        system for the flat particle, with the multiplier sign flipped
        between the two pairing conventions."""
        model = particle_model()
        problem = particle_case2_problem()
        lam0, eps = problem.lambda0, problem.epsilon
        rng = np.random.default_rng(7)
        t0, dt, samples = 0.7, 1e-3, 5
        times = t0 + dt * np.arange(samples)
        v1p = Poly([0.5, -0.3, 0.8])
        v2p = Poly([0.4, 0.6, -0.2])
        yp = 0.3 + v1p.integ()
        zp = -0.2 + v2p.integ()
        xp = 0.7 - (yp * v2p).integ()
        lamp = [Poly(rng.normal(size=3)) for _ in range(3)]
        q_s = np.stack([[f(t) for f in (xp, yp, zp)] for t in times])
        v_s = np.stack([[v1p(t), v2p(t)] for t in times])
        lam_s = np.stack([[f(t) for f in lamp] for t in times])

        res = continuous_optimality_residual(
            model, problem, times, q_s, v_s, lam_s
        ).reshape(samples - 2, 8)

        tm = times[2]
        x, y, z = q_s[2]
        v1, v2 = v_s[2]
        L1, L2, L3 = -lam_s[2]
        dL1, dL2, dL3 = -np.array([f.deriv()(tm) for f in lamp])
        v1d, v2d = v1p.deriv()(tm), v2p.deriv()(tm)
        v1dd, v2dd = v1p.deriv(2)(tm), v2p.deriv(2)(tm)
        ref = problem.reference(tm)
        xr, yr, zr = ref.q
        v1r, v2r = ref.v
        w = 1.0 + y * y
        hand_q = np.array([
            dL1 + lam0 * (x - xr),
            dL2 - (
                eps * lam0 * v1 * v2 * (y * y - 1.0)
                * (v2d / w**2 + v1 * v2 * y / w**3)
                + L1 * v2 - lam0 * (y - yr)
            ),
            dL3 + lam0 * (z - zr),
        ])
        hand_v = np.array([
            lam0 * eps * v1dd - (
                lam0 * (v1 - v1r) + L2
                + lam0 * eps * y * v2 * v2d / w
                + lam0 * eps * v1 * (y * v2) ** 2 / w**2
            ),
            lam0 * eps * v2dd - (
                lam0 * (v2 - v2r) - L1 * y + L3
                + lam0 * eps * (
                    (2.0 * y * y - 1.0) * v1 * v1 * v2 / w**2
                    - y * v1d * v2 / w
                )
            ),
        ])
        qdot = np.array([f.deriv()(tm) for f in (xp, yp, zp)])
        hand_adm = qdot - np.array([-y * v2, v1, v2])

        assert np.max(np.abs(res[1, :3] - (-hand_q))) <= 1e-12
        assert np.max(np.abs(res[1, 3:6] - hand_adm)) <= 1e-5
        assert np.max(np.abs(res[1, 6:] - hand_v)) <= 1e-5

    def test_sleigh_reduces_to_componentwise_system(self):
        """The sleigh's control form has no q dependence, so the reduction
        holds on arbitrary smooth data; its multiplier convention matches
        ours directly (no sign flip)."""
        sleigh = sleigh_model(SLEIGH_PARAMS)
        reference = AnalyticReference(
            q_base=[0.2, -0.1, 0.3], q_slope=[0.1, 0.0, 0.2],
            v_base=[0.3, 0.5], v_slope=[0.0, 0.0],
        )
        problem = TrackingProblem(
            reference=reference, horizon_T=4.0, epsilon=2.0, omega=1.0,
            initial_state=AdmissibleState(q=[0.2, -0.1, 0.3], v=[0.3, 0.5]),
            terminal_mode="hard",
        )
        lam0, eps = problem.lambda0, problem.epsilon
        rng = np.random.default_rng(11)
        t0, dt, samples = 0.7, 1e-3, 5
        times = t0 + dt * np.arange(samples)
        polys = [Poly(rng.normal(size=3)) for _ in range(8)]
        q_s = np.stack([[f(t) for f in polys[:3]] for t in times])
        v_s = np.stack([[f(t) for f in polys[3:5]] for t in times])
        lam_s = np.stack([[f(t) for f in polys[5:]] for t in times])

        res = continuous_optimality_residual(
            sleigh, problem, times, q_s, v_s, lam_s
        ).reshape(samples - 2, 8)

        tm = times[2]
        x1, x2, th = q_s[2]
        v1, v2 = v_s[2]
        L1, L2, L3 = lam_s[2]
        dL1, dL2, dL3 = np.array([f.deriv()(tm) for f in polys[5:]])
        v1d, v2d = polys[3].deriv()(tm), polys[4].deriv()(tm)
        v1dd, v2dd = polys[3].deriv(2)(tm), polys[4].deriv(2)(tm)
        ref = problem.reference(tm)
        x1r, x2r, thr = ref.q
        v1r, v2r = ref.v
        u1 = v1d + ETA * v1 * v2
        u2 = v2d - ETA * v1 * v1
        hand_q = np.array([
            dL1 - lam0 * (x1 - x1r),
            dL2 - lam0 * (x2 - x2r),
            dL3 - (
                lam0 * (th - thr)
                + L1 * np.sin(th) / S_M * v2
                - L2 * np.cos(th) / S_M * v2
            ),
        ])
        hand_v = lam0 * eps * np.array([
            v1dd - (
                ETA * v2 * u1 - 2.0 * ETA * v1 * u2
                + (v1 - v1r) / (lam0 * eps)
                - L3 / (lam0 * eps * S_ROT)
                - ETA * v1d * v2 - ETA * v1 * v2d
            ),
            v2dd - (
                2.0 * ETA * v1 * v1d + ETA * v1 * u1
                + (v2 - v2r) / (lam0 * eps)
                - L1 * np.cos(th) / (lam0 * eps * S_M)
                - L2 * np.sin(th) / (lam0 * eps * S_M)
            ),
        ])
        qdot = np.array([f.deriv()(tm) for f in polys[:3]])
        hand_adm = qdot - np.array(
            [np.cos(th) / S_M * v2, np.sin(th) / S_M * v2, v1 / S_ROT]
        )

        assert np.max(np.abs(res[1, :3] - hand_q)) <= 1e-12
        assert np.max(np.abs(res[1, 3:6] - hand_adm)) <= 1e-12
        assert np.max(np.abs(res[1, 6:] - hand_v)) <= 1e-7

    def test_zero_at_equilibrium(self):
        model = particle_model()
        q = np.array([0.4, 1.1, -0.2])
        v = np.zeros(2)
        reference = AnalyticReference(
            q_base=q, q_slope=np.zeros(3), v_base=v, v_slope=np.zeros(2)
        )
        problem = TrackingProblem(
            reference=reference, horizon_T=1.0, epsilon=5.0, omega=1.0,
            initial_state=AdmissibleState(q=q, v=v), terminal_mode="hard",
        )
        times = np.linspace(0.0, 1.0, 9)
        q_s = np.tile(q, (9, 1))
        v_s = np.tile(v, (9, 1))
        lam_s = np.zeros((9, 3))
        res = continuous_optimality_residual(model, problem, times, q_s, v_s, lam_s)
        assert res.shape == ((9 - 2) * 8,)
        assert np.max(np.abs(res)) == 0.0

    def test_too_few_samples(self):
        model = particle_model()
        problem = particle_case2_problem()
        times = np.array([0.0, 0.1])
        with pytest.raises(ValueError, match="at least 3 samples"):
            continuous_optimality_residual(
                model, problem, times, np.zeros((2, 3)), np.zeros((2, 2)),
                np.zeros((2, 3)),
            )

    def test_shape_validation(self):
        model = particle_model()
        problem = particle_case2_problem()
        times = np.linspace(0.0, 0.4, 5)
        with pytest.raises(ValueError, match="shape mismatch"):
            continuous_optimality_residual(
                model, problem, times, np.zeros((5, 2)), np.zeros((5, 2)),
                np.zeros((5, 3)),
            )
        with pytest.raises(ValueError, match="n-vectors"):
            continuous_optimality_residual(
                model, problem, times, np.zeros((5, 3)), np.zeros((5, 2)),
                np.zeros((5, 2)),
            )


# ---------------------------------------------------------------------------
# discrete_constraint


class TestDiscreteConstraint:
    def test_rest_nodes(self):
        model = particle_model()
        node = AdmissibleState(q=[0.2, 1.0, -0.3], v=[0.0, 0.0])
        psi = discrete_constraint(model, node, node, 0.1)
        assert np.all(psi == 0.0)

    def test_particle_compatible_pair(self):
        model = particle_model()
        h = 0.1
        node_k = AdmissibleState(q=[0.0, 1.0, 0.0], v=[0.0, 1.0])
        node_k1 = AdmissibleState(q=[-h, 1.0, h], v=[0.0, 1.0])
        psi = discrete_constraint(model, node_k, node_k1, h)
        assert np.all(psi == 0.0)

    def test_violating_pair_hand_value(self):
        model = particle_model()
        h = 0.25
        node_k = AdmissibleState(q=[0.1, 0.6, -0.4], v=[0.3, -0.2])
        node_k1 = AdmissibleState(q=[0.3, 0.5, 0.1], v=[0.7, 0.4])
        y_mid = 0.55
        v_mid = np.array([0.5, 0.1])
        hand = (node_k1.q - node_k.q) / h - np.array(
            [-y_mid * v_mid[1], v_mid[0], v_mid[1]]
        )
        psi = discrete_constraint(model, node_k, node_k1, h)
        assert np.allclose(psi, hand, atol=1e-14)

    def test_difference_quotient_variant(self):
        model = particle_model()
        h = 0.25
        node_k = AdmissibleState(q=[0.1, 0.6, -0.4], v=[0.3, -0.2])
        node_k1 = AdmissibleState(q=[0.3, 0.5, 0.1], v=[0.7, 0.4])
        y_mid = 0.55
        v_dq = (node_k1.v - node_k.v) / h
        hand = (node_k1.q - node_k.q) / h - np.array(
            [-y_mid * v_dq[1], v_dq[0], v_dq[1]]
        )
        psi = discrete_constraint(
            model, node_k, node_k1, h, psi_variant="difference-quotient"
        )
        assert np.allclose(psi, hand, atol=1e-14)

    def test_invalid_inputs(self):
        model = particle_model()
        node = AdmissibleState(q=[0.0, 1.0, 0.0], v=[0.0, 1.0])
        with pytest.raises(ValueError):
            discrete_constraint(model, node, node, 0.0)
        with pytest.raises(ValueError):
            discrete_constraint(model, node, node, 0.1, psi_variant="simpson")

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-3.0, 3.0), min_size=10, max_size=10))
    def test_step_dependence_is_pure_difference_quotient(self, values):
        """The step enters only through (q_{k+1} - q_k)/h, so halving h with
        power-of-two steps shifts the residual by exactly dq/(2h)."""
        model = particle_model()
        node_k = AdmissibleState(q=values[:3], v=values[3:5])
        node_k1 = AdmissibleState(q=values[5:8], v=values[8:10])
        fine = discrete_constraint(model, node_k, node_k1, 0.125)
        coarse = discrete_constraint(model, node_k, node_k1, 0.25)
        dq = np.asarray(node_k1.q) - np.asarray(node_k.q)
        assert np.allclose(fine - coarse, dq / 0.25, rtol=0.0, atol=1e-13)


# ---------------------------------------------------------------------------
# discrete_lagrangian


class TestDiscreteLagrangian:
    def test_definitional_composition(self):
        model = particle_model()
        problem = particle_case2_problem()
        h = 0.2
        node_k = AdmissibleState(q=[0.1, 0.6, -0.4], v=[0.3, -0.2])
        node_k1 = AdmissibleState(q=[0.3, 0.5, 0.1], v=[0.7, 0.4])
        t_k = 0.6
        direct = h * ocp_lagrangian(
            model, problem, t_k + 0.5 * h,
            0.5 * (node_k.q + node_k1.q), 0.5 * (node_k.v + node_k1.v),
            (node_k1.v - node_k.v) / h,
        )
        assert discrete_lagrangian(model, problem, node_k, node_k1, t_k, h) == direct

    def test_exchange_symmetry_exact_on_dyadic_times(self):
        model = sleigh_model(SLEIGH_PARAMS)
        problem = sleigh_tracking_problem(model, horizon=5.0)
        h, t_k = 0.25, 0.5
        node_k = AdmissibleState(q=[0.1, 0.6, -0.4], v=[0.3, -0.2])
        node_k1 = AdmissibleState(q=[0.3, 0.5, 0.1], v=[0.7, 0.4])
        fwd = discrete_lagrangian(model, problem, node_k, node_k1, t_k, h)
        bwd = discrete_lagrangian(model, problem, node_k1, node_k, t_k + h, -h)
        assert fwd == bwd

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-3.0, 3.0), min_size=10, max_size=10),
        st.floats(0.01, 0.5),
        st.floats(0.0, 3.0),
    )
    def test_exchange_symmetry_generic(self, values, h, t_k):
        model = particle_model()
        problem = particle_case2_problem()
        node_k = AdmissibleState(q=values[:3], v=values[3:5])
        node_k1 = AdmissibleState(q=values[5:8], v=values[8:10])
        fwd = discrete_lagrangian(model, problem, node_k, node_k1, t_k, h)
        bwd = discrete_lagrangian(model, problem, node_k1, node_k, t_k + h, -h)
        assert bwd == pytest.approx(fwd, rel=1e-11, abs=1e-13)

    def test_zero_cost_reference_pair_scaling(self):
        """Node pairs sampled from the tracked arc cost O(h^3) at worst:
        tracking and control mismatches are midpoint truncation errors."""
        sleigh = sleigh_model(SLEIGH_PARAMS)
        problem = sleigh_tracking_problem(sleigh, horizon=2.0)
        t_k = 0.4
        values = {}
        for h in (0.2, 0.1, 0.05):
            node_k = problem.reference(t_k)
            node_k1 = problem.reference(t_k + h)
            values[h] = discrete_lagrangian(
                sleigh, problem, node_k, node_k1, t_k, h
            )
        assert values[0.05] <= 1e-7
        assert values[0.2] / values[0.1] >= 8.0
        assert values[0.1] / values[0.05] >= 8.0

    def test_action_quadrature_is_second_order(self):
        """Summed over a grid along a fixed smooth curve, the discrete action
        converges to the continuous integral at O(h^2): successive halved-h
        differences shrink by about 4."""
        model = particle_model()
        problem = particle_case2_problem(horizon=1.0)

        def curve(t):
            q = np.array([np.sin(t), np.cos(t), 0.5 * t * t])
            v = np.array([np.cos(2.0 * t), np.sin(t) + 0.5])
            return q, v

        def action(steps):
            grid = TimeGrid(0.0, 1.0, steps)
            times = grid.times()
            total = 0.0
            for j in range(steps):
                qk, vk = curve(times[j])
                qk1, vk1 = curve(times[j + 1])
                total += discrete_lagrangian(
                    model, problem,
                    AdmissibleState(q=qk, v=vk), AdmissibleState(q=qk1, v=vk1),
                    float(times[j]), grid.h,
                )
            return total

        a16, a32, a64 = action(16), action(32), action(64)
        ratio = (a16 - a32) / (a32 - a64)
        assert 3.5 <= ratio <= 4.5

    def test_zero_step_rejected(self):
        model = particle_model()
        problem = particle_case2_problem()
        node = AdmissibleState(q=[0.0, 1.0, 0.0], v=[0.0, 1.0])
        with pytest.raises(ValueError):
            discrete_lagrangian(model, problem, node, node, 0.0, 0.0)


# ---------------------------------------------------------------------------
# del_residual as the exact gradient of the extended action


def extended_action(model, problem, times, h, q, v, lam, lam0, settings):
    steps = len(times) - 1
    total = 0.0
    for j in range(steps):
        node_k = AdmissibleState(q=q[j], v=v[j])
        node_k1 = AdmissibleState(q=q[j + 1], v=v[j + 1])
        total += discrete_lagrangian(model, problem, node_k, node_k1,
                                     float(times[j]), h)
        psi = discrete_constraint(model, node_k, node_k1, h, settings.psi_variant)
        if j == 0:
            if lam0 is not None:
                total += float(lam0 @ psi)
        else:
            total += float(lam[j - 1] @ psi)
    return total


def fd_action_gradient(model, problem, times, h, q, v, lam, lam0, settings,
                       step=1e-7):
    """Central differences of the extended action with respect to the
    interior unknowns, stacked in residual order."""
    steps = len(times) - 1
    n, kr = model.n, model.rank

    def act(q_, v_, lam_, lam0_):
        return extended_action(model, problem, times, h, q_, v_, lam_, lam0_,
                               settings)

    rows = []
    if settings.enforce_first_interval:
        for i in range(n):
            lp = lam0.copy(); lp[i] += step
            lm = lam0.copy(); lm[i] -= step
            rows.append((act(q, v, lam, lp) - act(q, v, lam, lm)) / (2 * step))
    for k in range(1, steps):
        for i in range(n):
            qp = q.copy(); qp[k, i] += step
            qm = q.copy(); qm[k, i] -= step
            rows.append((act(qp, v, lam, lam0) - act(qm, v, lam, lam0)) / (2 * step))
        for i in range(kr):
            vp = v.copy(); vp[k, i] += step
            vm = v.copy(); vm[k, i] -= step
            rows.append((act(q, vp, lam, lam0) - act(q, vm, lam, lam0)) / (2 * step))
        for i in range(n):
            lp = lam.copy(); lp[k - 1, i] += step
            lm = lam.copy(); lm[k - 1, i] -= step
            rows.append((act(q, v, lp, lam0) - act(q, v, lm, lam0)) / (2 * step))
    return np.array(rows)


def random_discrete_data(model, grid, rng, enforce):
    steps = grid.steps
    n, kr = model.n, model.rank
    q = rng.normal(size=(steps + 1, n))
    v = rng.normal(size=(steps + 1, kr))
    lam = rng.normal(size=(steps - 1, n))
    lam0 = rng.normal(size=n) if enforce else None
    traj = DiscreteTrajectory(
        h=grid.h, times=grid.times(), q=q, v=v, multipliers=lam,
        controls=np.zeros((steps, kr)), lambda_zero=lam0,
    )
    return traj, q, v, lam, lam0


class TestDelResidual:
    @pytest.mark.parametrize(
        "system,enforce,psi_variant",
        [
            ("particle", False, "midpoint"),
            ("particle", True, "midpoint"),
            ("particle", False, "difference-quotient"),
            ("sleigh", False, "midpoint"),
            ("sleigh", True, "difference-quotient"),
            ("potential", False, "midpoint"),
            ("potential", True, "difference-quotient"),
        ],
    )
    def test_is_gradient_of_extended_action(self, system, enforce, psi_variant):
        """The residual equals central differences of the extended action;
        the potential case checks the u d(potential_grad)/dq term, which
        both built-ins lack."""
        if system != "sleigh":
            make = particle_with_potential if system == "potential" else particle_model
            model, problem = make(), particle_case2_problem(horizon=1.0)
        else:
            model = sleigh_model(SLEIGH_PARAMS)
            problem = mild_sleigh_problem(model)
        settings = DelSettings(
            enforce_first_interval=enforce, psi_variant=psi_variant
        )
        grid = TimeGrid(0.0, 1.0, 5)
        rng = np.random.default_rng(19)
        traj, q, v, lam, lam0 = random_discrete_data(model, grid, rng, enforce)
        residual = del_residual(model, problem, traj, settings)
        fd = fd_action_gradient(
            model, problem, grid.times(), grid.h, q, v, lam, lam0, settings
        )
        rel = np.max(np.abs(residual - fd)) / max(1.0, np.max(np.abs(fd)))
        assert rel <= 1e-5

    def test_symbolic_single_interior_node(self):
        """N = 2 particle: the three residual rows equal a fully symbolic
        expansion of the extended action's partial derivatives."""
        sympy = pytest.importorskip("sympy")

        model = particle_model()
        problem = particle_case2_problem(horizon=0.2)
        grid = TimeGrid(0.0, 0.2, 2)
        h = grid.h
        lam0c, eps = problem.lambda0, problem.epsilon

        rng = np.random.default_rng(23)
        q_num = rng.normal(size=(3, 3))
        v_num = rng.normal(size=(3, 2))
        lam_num = rng.normal(size=(1, 3))
        node0 = problem.initial_state
        nodeN = problem.reference(0.2)
        q_num[0], v_num[0] = node0.q, node0.v
        q_num[2], v_num[2] = nodeN.q, nodeN.v

        x1, y1, z1, a1, b1 = sympy.symbols("x1 y1 z1 a1 b1")
        l1, l2, l3 = sympy.symbols("l1 l2 l3")
        q1s = sympy.Matrix([x1, y1, z1])
        v1s = sympy.Matrix([a1, b1])

        def lagr(t_mid, qk, vk, qk1, vk1):
            qm = (qk + qk1) / 2
            vm = (vk + vk1) / 2
            vd = (vk1 - vk) / h
            ref = problem.reference(float(t_mid))
            y = qm[1]
            u1 = vd[0]
            u2 = vd[1] + y / (1 + y**2) * vm[0] * vm[1]
            track = sum(
                (qm[i] - float(ref.q[i])) ** 2 for i in range(3)
            ) + sum((vm[i] - float(ref.v[i])) ** 2 for i in range(2))
            return h * sympy.Rational(1, 2) * lam0c * (
                track + eps * (u1**2 + u2**2)
            )

        def psi(qk, vk, qk1, vk1):
            qm = (qk + qk1) / 2
            vm = (vk + vk1) / 2
            y = qm[1]
            rho_v = sympy.Matrix([-y * vm[1], vm[0], vm[1]])
            return (qk1 - qk) / h - rho_v

        q0s = sympy.Matrix(q_num[0])
        v0s = sympy.Matrix(v_num[0])
        q2s = sympy.Matrix(q_num[2])
        v2s = sympy.Matrix(v_num[2])
        action = (
            lagr(0.05, q0s, v0s, q1s, v1s)
            + lagr(0.15, q1s, v1s, q2s, v2s)
            + sympy.Matrix(lam_num[0]).dot(psi(q1s, v1s, q2s, v2s))
        )
        subs = {
            x1: q_num[1, 0], y1: q_num[1, 1], z1: q_num[1, 2],
            a1: v_num[1, 0], b1: v_num[1, 1],
        }
        hand = [float(sympy.diff(action, s).subs(subs)) for s in
                (x1, y1, z1, a1, b1)]
        hand += [float(p.subs(subs)) for p in psi(q1s, v1s, q2s, v2s)]

        traj = DiscreteTrajectory(
            h=h, times=grid.times(), q=q_num, v=v_num, multipliers=lam_num,
            controls=np.zeros((2, 2)),
        )
        residual = del_residual(model, problem, traj)
        assert np.max(np.abs(residual - np.array(hand))) <= 1e-9

    def test_residual_small_at_converged_solve(self):
        sleigh = sleigh_model(SLEIGH_PARAMS)
        problem = mild_sleigh_problem(sleigh)
        settings = DelSettings()
        traj, report = solve_del(sleigh, problem, TimeGrid(0.0, 1.0, 10), settings)
        assert report.converged
        residual = del_residual(
            sleigh, problem, traj, settings,
            boundary=(problem.initial_state, problem.reference(1.0)),
        )
        assert np.max(np.abs(residual)) <= settings.newton_tol

    def test_enforce_first_needs_multiplier(self):
        model = particle_model()
        problem = particle_case2_problem(horizon=1.0)
        grid = TimeGrid(0.0, 1.0, 4)
        rng = np.random.default_rng(5)
        traj, *_ = random_discrete_data(model, grid, rng, enforce=False)
        with pytest.raises(ValueError, match="lambda_zero"):
            del_residual(
                model, problem, traj, DelSettings(enforce_first_interval=True)
            )

    def test_non_finite_rejected(self):
        model = particle_model()
        problem = particle_case2_problem(horizon=1.0)
        grid = TimeGrid(0.0, 1.0, 4)
        rng = np.random.default_rng(5)
        traj, q, v, lam, _ = random_discrete_data(model, grid, rng, enforce=False)
        q_bad = q.copy()
        q_bad[2, 1] = np.nan
        bad = DiscreteTrajectory(
            h=traj.h, times=traj.times, q=q_bad, v=v, multipliers=lam,
            controls=traj.controls,
        )
        with pytest.raises(ArithmeticError, match="non-finite"):
            del_residual(model, problem, bad)


# ---------------------------------------------------------------------------
# block-tridiagonal elimination engine


class TestBlockTridiagonal:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(31)
        sizes = 4
        blocks = 6
        diag = rng.normal(size=(blocks, sizes, sizes)) + 4.0 * np.eye(sizes)
        upper = rng.normal(size=(blocks - 1, sizes, sizes))
        rhs = rng.normal(size=(blocks, sizes, 2))

        total = sizes * blocks
        dense = np.zeros((total, total))
        for i in range(blocks):
            sl = slice(i * sizes, (i + 1) * sizes)
            dense[sl, sl] = diag[i]
            if i + 1 < blocks:
                dense[sl, (i + 1) * sizes:(i + 2) * sizes] = upper[i]
                dense[(i + 1) * sizes:(i + 2) * sizes, sl] = upper[i].T
        expected = np.linalg.solve(dense, rhs.reshape(total, 2))
        got = _solve_block_tridiagonal(diag, upper, rhs)
        assert got.shape == (total, 2)
        assert np.allclose(got, expected, atol=1e-10)

    def test_singular_block_raises_regularity_error(self):
        diag = np.stack([np.zeros((2, 2)), np.eye(2)])
        upper = np.eye(2)[None]
        rhs = np.ones((2, 2, 1))
        with pytest.raises(RegularityError, match="M-matrix"):
            _solve_block_tridiagonal(diag, upper, rhs)


def tridiagonal_dense(diag, upper):
    """The block-tridiagonal matrix with diagonal blocks diag, upper
    blocks upper and lower blocks upper[i].T, as one dense array."""
    m, b = diag.shape[:2]
    dense = np.zeros((m * b, m * b))
    for i in range(m):
        dense[i * b:(i + 1) * b, i * b:(i + 1) * b] = diag[i]
    for i in range(m - 1):
        dense[i * b:(i + 1) * b, (i + 1) * b:(i + 2) * b] = upper[i]
        dense[(i + 1) * b:(i + 2) * b, i * b:(i + 1) * b] = upper[i].T
    return dense


@pytest.mark.parametrize("rhs_count", [1, 4])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 399])
def test_cyclic_reduction_matches_dense_solve(m, rhs_count):
    """Every block count, odd or even at each reduction level, and one
    right-hand side or several, against a dense solve; the diagonal blocks
    are not symmetric, so the lower blocks must be carried on their own."""
    rng = np.random.default_rng(m)
    b = 5
    diag = rng.normal(size=(m, b, b)) + 6.0 * np.eye(b)
    assert not np.allclose(diag, diag.swapaxes(1, 2))
    upper = rng.normal(size=(m - 1, b, b))
    rhs = rng.normal(size=(m, b, rhs_count))
    expected = np.linalg.solve(
        tridiagonal_dense(diag, upper), rhs.reshape(m * b, rhs_count)
    )
    got = _solve_block_tridiagonal(diag, upper, rhs)
    assert got.shape == (m * b, rhs_count)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_block_singular_after_one_level_raises_regularity_error():
    """Every diagonal block is regular, but eliminating blocks 0 and 2
    leaves I - I = 0 on block 1."""
    eye = np.eye(2)
    diag = np.stack([eye, eye, eye])
    upper = np.stack([eye, np.zeros((2, 2))])
    with pytest.raises(RegularityError, match="M-matrix"):
        _solve_block_tridiagonal(diag, upper, np.ones((3, 2, 1)))


# ---------------------------------------------------------------------------
# the Newton Jacobian


def dense_jacobian(ws, x):
    """jacobian_blocks at x as one dense matrix: rows in residual order
    (Psi(0) first when enforced), columns in unknown order (lambda^0 last);
    the lower blocks are the transposed upper ones and the Psi(0) rows the
    transposed border column."""
    diag, upper, col = ws.jacobian_blocks(*ws.unpack(x))
    block, w = col.shape
    dense = np.zeros((x.size, x.size))
    for i, d in enumerate(diag):
        r0, c0 = w + i * block, i * block
        dense[r0:r0 + block, c0:c0 + block] = d
        if i < len(upper):
            dense[r0:r0 + block, c0 + block:c0 + 2 * block] = upper[i]
            dense[r0 + block:r0 + 2 * block, c0:c0 + block] = upper[i].T
    dense[w:w + block, len(diag) * block:] = col
    dense[:w, :block] = col.T
    return dense


def newton_workspace(system, enforce, steps, psi_variant="midpoint"):
    if system == "particle":
        model = particle_model()
        problem = particle_case2_problem(horizon=1.0)
    else:
        model = sleigh_model(SLEIGH_PARAMS)
        problem = mild_sleigh_problem(model)
    settings = DelSettings(enforce_first_interval=enforce, psi_variant=psi_variant)
    return _DelWorkspace(model, problem, TimeGrid(0.0, 1.0, steps), settings)


def all_columns_hessian(model, problem, x0, lam, ref, h, psi_variant):
    """Reference interval Hessian: every one of the 2(n + k) slot columns by
    its own central difference of the exact slot gradients, symmetrized."""
    n, nv = model.n, model.n + model.rank

    def gradients(x):
        grads = _interval(
            model, problem, x[..., :n], x[..., n:nv], x[..., nv:nv + n],
            x[..., nv + n:], lam, ref, h, psi_variant,
        )[2]
        return np.concatenate(grads, axis=-1)

    hess = np.empty(x0.shape + (2 * nv,))
    for c in range(2 * nv):
        xp, xm = x0.copy(), x0.copy()
        xp[..., c] += FD_STEP
        xm[..., c] -= FD_STEP
        hess[..., c] = (gradients(xp) - gradients(xm)) / (2 * FD_STEP)
    return 0.5 * (hess + hess.swapaxes(-1, -2))


def particle_with_potential():
    """The particle plus the smooth potential gradient sin(q) P^T, with its
    exact Jacobian."""
    base = particle_model()
    proj = np.array([[0.7, -0.4, 1.1], [0.3, 0.9, -0.6]])
    return dataclasses.replace(
        base,
        potential_grad=lambda q: np.sin(q) @ proj.T,
        potential_grad_jac=lambda q: proj * np.cos(q)[..., None, :],
        name="particle-potential",
    )


class TestNewtonJacobian:
    @pytest.mark.parametrize("psi_variant", PSI_VARIANTS)
    @pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "single"])
    @pytest.mark.parametrize("system", ["particle", "sleigh", "potential"])
    def test_interval_hessian_matches_all_columns_oracle(
        self, system, stacked, psi_variant
    ):
        """At random nodes with random nonzero multipliers the Hessian from
        n paired q probes and the exact v-v blocks equals the all-columns
        central-difference Hessian within 1e-6 relative; the slot
        derivatives are the kernel's own."""
        if system == "sleigh":
            model = sleigh_model(SLEIGH_PARAMS)
            problem = mild_sleigh_problem(model)
        else:
            make = particle_with_potential if system == "potential" else particle_model
            model, problem = make(), particle_case2_problem(horizon=1.0)
        rng = np.random.default_rng(71)
        n, nv = model.n, model.n + model.rank
        lead = (6,) if stacked else ()
        x0 = rng.uniform(-1.5, 1.5, size=lead + (2 * nv,))
        sign = rng.choice([-1.0, 1.0], size=lead + (n,))
        lam = sign * rng.uniform(0.5, 2.0, size=lead + (n,))
        ref = problem.reference(rng.uniform(0.0, 1.0, size=lead))
        h = 0.1
        slots, hess = _interval_hessian(model, problem, x0, lam, ref, h, psi_variant)
        oracle = all_columns_hessian(model, problem, x0, lam, ref, h, psi_variant)
        assert hess.shape == lead + (2 * nv, 2 * nv)
        assert np.max(np.abs(hess - oracle)) <= 1e-6 * np.max(np.abs(oracle))
        kernel_slots = _interval(
            model, problem, x0[..., :n], x0[..., n:nv], x0[..., nv:nv + n],
            x0[..., nv + n:], lam, ref, h, psi_variant,
        )[1]
        for got, want in zip(slots, kernel_slots):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("psi_variant", PSI_VARIANTS)
    @pytest.mark.parametrize("enforce", [False, True])
    @pytest.mark.parametrize("system", ["particle", "sleigh"])
    def test_blocks_match_central_differences_of_residual(
        self, system, enforce, psi_variant
    ):
        """At a perturbed, unconverged iterate the assembled blocks (border
        included, lower blocks and Psi(0) rows as transposes) equal central
        differences of del_residual over the packed unknowns."""
        ws = newton_workspace(system, enforce, 4, psi_variant)
        x0 = ws.initial_guess()
        x = x0 + 0.1 * np.random.default_rng(43).normal(size=x0.size)
        assert np.max(np.abs(ws.evaluate(x)[0])) > 1e-2

        dense = dense_jacobian(ws, x)
        step = 1e-6
        fd = np.empty_like(dense)
        for j in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[j] += step
            xm[j] -= step
            fd[:, j] = (ws.evaluate(xp)[0] - ws.evaluate(xm)[0]) / (2 * step)
        assert np.max(np.abs(dense - fd)) <= 1e-8 * max(1.0, np.max(np.abs(fd)))
        assert ws.jacobian_blocks(*ws.unpack(x))[2].shape[1] == (3 if enforce else 0)

    @pytest.mark.parametrize("enforce", [False, True])
    @pytest.mark.parametrize("system", ["particle", "sleigh"])
    def test_correction_solves_the_assembled_system(self, system, enforce):
        """The Newton step of the bordered block elimination (a zero-width
        border when interval 0 is free) solves the dense Jacobian system."""
        ws = newton_workspace(system, enforce, 6)
        x0 = ws.initial_guess()
        x = x0 + 0.1 * np.random.default_rng(47).normal(size=x0.size)
        r, nodes = ws.evaluate(x)
        delta = ws.correction(x, r, nodes)
        dense = dense_jacobian(ws, x)
        assert delta.shape == x.shape
        assert np.linalg.norm(dense @ delta + r) <= 1e-10 * np.linalg.norm(r)

    def test_a_zero_border_is_a_singular_schur_complement(self, monkeypatch):
        """With interval 0 enforced, a Jacobian whose lambda^0 border is
        zero leaves the w x w Schur complement singular: the correction
        raises the RegularityError that says so, not numpy's LinAlgError."""
        ws = newton_workspace("particle", True, 6)
        x = ws.initial_guess()
        r, nodes = ws.evaluate(x)
        diag, upper, col = ws.jacobian_blocks(*nodes)
        monkeypatch.setattr(
            ws, "jacobian_blocks", lambda *nodes: (diag, upper, np.zeros_like(col))
        )
        with pytest.raises(RegularityError, match="singular first-interval Schur"):
            ws.correction(x, r, nodes)

    def test_kernel_calls_per_jacobian_do_not_grow_with_the_grid(self):
        """The interval Hessians of a whole grid come from stacked kernel
        calls: model.rho runs 2n + 1 times at N = 8 and at N = 16, once per
        paired q probe and once for the slots."""
        base = particle_model()
        problem = particle_case2_problem(horizon=1.0)
        calls = []
        for steps in (8, 16):
            count = [0]

            def rho(q, count=count):
                count[0] += 1
                return base.rho(q)

            ws = _DelWorkspace(
                dataclasses.replace(base, rho=rho), problem,
                TimeGrid(0.0, 1.0, steps), DelSettings(),
            )
            x = ws.initial_guess()
            count[0] = 0
            ws.jacobian_blocks(*ws.unpack(x))
            calls.append(count[0])
        assert calls == [2 * base.n + 1] * 2

    @pytest.mark.parametrize("system", ["particle", "sleigh"])
    def test_a_jacobian_differentiates_the_drift_in_its_probes_only(self, system):
        """christoffel_jac runs once per paired q probe, 2n times: the slot
        derivatives at the nodes come from Psi_d alone, which has no drift."""
        ws = newton_workspace(system, False, 8)
        christoffel_jac, count = ws.model.christoffel_jac, [0]

        def counted(q):
            count[0] += 1
            return christoffel_jac(q)

        ws.model = dataclasses.replace(ws.model, christoffel_jac=counted)
        ws.jacobian_blocks(*ws.unpack(ws.initial_guess()))
        assert count[0] == 2 * ws.model.n


@pytest.mark.parametrize(
    "system, enforce", [("particle", False), ("sleigh", False), ("particle", True)]
)
def test_tridiagonal_solve_of_the_real_jacobian(system, enforce):
    """At the linear-interpolation guess on N = 50, the block solve of the
    Newton correction (residual column plus the w border columns) leaves a
    relative residual of roundoff size against the assembled matrix."""
    ws = newton_workspace(system, enforce, 50)
    x = ws.initial_guess()
    r, nodes = ws.evaluate(x)
    diag, upper, col = ws.jacobian_blocks(*nodes)
    block, w = col.shape
    m = len(diag)
    rhs = np.zeros((m, block, 1 + w))
    rhs[:, :, 0] = -r[w:].reshape(m, block)
    rhs[0, :, 1:] = col
    sol = _solve_block_tridiagonal(diag, upper, rhs)
    dense = dense_jacobian(ws, x)[w:, :m * block]
    assert np.array_equal(dense, tridiagonal_dense(diag, upper))
    flat = rhs.reshape(m * block, 1 + w)
    assert np.linalg.norm(dense @ sol - flat) <= 1e-12 * np.linalg.norm(flat)


def test_newton_path_of_the_bundled_variational_instances():
    """Within a 10 s budget: the bundled particle posed with a hard
    terminal on 400 steps, first interval enforced, converges to 1e-10 in
    at most 4 full steps, and the bundled sleigh in at most 8 iterations at
    N = 50 and at N = 100.  The particle's last residual sits at 72% of its
    tolerance, so a less accurate Hessian costs it a fifth iteration."""
    budget = 10.0
    configs = Path(__file__).resolve().parents[1] / "src" / "nhtrack" / "configs"
    t0 = time.perf_counter()
    cfg = parse_config(configs / "particle-case2.cfg")
    cfg = cfg._replace(problem=cfg.problem._replace(terminal_mode="hard"))
    model = build_model(cfg)
    problem = build_problem(cfg, model)
    _, report = solve_del(
        model, problem, TimeGrid(0.0, problem.horizon_T, 400),
        DelSettings(newton_tol=1e-10, enforce_first_interval=True),
    )
    assert report.converged and report.iterations <= 4
    assert [rec.damping for rec in report.records] == [1.0] * report.iterations

    cfg = parse_config(configs / "sleigh-paper51.cfg")
    model = build_model(cfg)
    problem = build_problem(cfg, model)
    for steps in (50, 100):
        _, report = solve_del(
            model, problem, TimeGrid(0.0, problem.horizon_T, steps),
            DelSettings(newton_tol=cfg.solver.newton_tol),
        )
        assert report.converged and report.iterations <= 8
    assert time.perf_counter() - t0 < budget


def test_a_variational_solve_that_cannot_progress_stalls():
    """The bundled sleigh at N = 800 reaches a point that no step improves:
    the solve ends stalled, well before max_iters and inside a time
    budget, instead of crawling at the smallest step scale to its last
    iteration."""
    configs = Path(__file__).resolve().parents[1] / "src" / "nhtrack" / "configs"
    cfg = parse_config(configs / "sleigh-paper51.cfg")
    cfg = cfg._replace(solver=cfg.solver._replace(steps=800))
    model = build_model(cfg)
    problem = build_problem(cfg, model)
    settings = DelSettings(
        newton_tol=cfg.solver.newton_tol, max_iters=cfg.solver.max_iters
    )
    t0 = time.perf_counter()
    _, report = solve_del(
        model, problem, TimeGrid(0.0, problem.horizon_T, cfg.solver.steps), settings
    )
    elapsed = time.perf_counter() - t0
    assert not report.converged
    assert report.message.startswith("stalled at iteration "), report.message
    assert report.iterations < settings.max_iters
    assert elapsed < 15.0, f"the stalled solve took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# solve_del


class TestSolveDel:
    def test_sleigh_benchmark_run_setup(self):
        """h = 0.1, N = 50, T = 5 sleigh tracking of an uncontrolled rollout:
        converges, pins the terminal node exactly, and satisfies every
        enforced interval constraint to the Newton tolerance."""
        sleigh = sleigh_model(SLEIGH_PARAMS)
        problem = sleigh_tracking_problem(sleigh)
        settings = DelSettings()
        traj, report = solve_del(sleigh, problem, TimeGrid(0.0, 5.0, 50), settings)
        assert report.converged
        assert report.iterations <= 20
        assert report.residual_norm <= settings.newton_tol

        terminal = problem.reference(5.0)
        assert np.array_equal(traj.q[-1], terminal.q)
        assert np.array_equal(traj.v[-1], terminal.v)
        assert np.array_equal(traj.q[0], np.asarray(problem.initial_state.q))

        for k in range(1, 50):
            psi = discrete_constraint(sleigh, traj.node(k), traj.node(k + 1),
                                      traj.h)
            assert np.max(np.abs(psi)) <= 1e-10
        assert traj.lambda_zero is None
        assert traj.multipliers.shape == (49, 3)
        assert traj.controls.shape == (50, 2)

    def test_equilibrium_preconverged(self):
        model = particle_model()
        q = np.array([0.0, 2.0, 0.0])
        v = np.zeros(2)
        reference = AnalyticReference(
            q_base=q, q_slope=np.zeros(3), v_base=v, v_slope=np.zeros(2)
        )
        problem = TrackingProblem(
            reference=reference, horizon_T=1.0, epsilon=2.0, omega=1.0,
            initial_state=AdmissibleState(q=q, v=v), terminal_mode="hard",
        )
        traj, report = solve_del(model, problem, TimeGrid(0.0, 1.0, 5))
        assert report.converged
        assert report.iterations == 0
        assert "within tolerance" in report.message
        assert np.all(traj.controls == 0.0)
        assert np.all(traj.multipliers == 0.0)

    def test_enforce_first_interval(self):
        sleigh = sleigh_model(SLEIGH_PARAMS)
        problem = mild_sleigh_problem(sleigh)
        settings = DelSettings(enforce_first_interval=True)
        traj, report = solve_del(sleigh, problem, TimeGrid(0.0, 1.0, 10), settings)
        assert report.converged
        assert traj.lambda_zero is not None
        psi0 = discrete_constraint(sleigh, traj.node(0), traj.node(1), traj.h)
        assert np.max(np.abs(psi0)) <= 1e-10

    def test_difference_quotient_variant_solve(self):
        sleigh = sleigh_model(SLEIGH_PARAMS)
        problem = mild_sleigh_problem(sleigh)
        settings = DelSettings(psi_variant="difference-quotient")
        traj, report = solve_del(sleigh, problem, TimeGrid(0.0, 1.0, 10), settings)
        assert report.converged
        for k in range(1, 10):
            psi = discrete_constraint(
                sleigh, traj.node(k), traj.node(k + 1), traj.h,
                psi_variant="difference-quotient",
            )
            assert np.max(np.abs(psi)) <= 1e-10

    def test_nonconvergence_reported_not_raised(self):
        sleigh = sleigh_model(SLEIGH_PARAMS)
        problem = sleigh_tracking_problem(sleigh)
        settings = DelSettings(max_iters=1)
        traj, report = solve_del(sleigh, problem, TimeGrid(0.0, 5.0, 50), settings)
        assert not report.converged
        assert "no convergence" in report.message
        assert report.iterations == 1
        assert len(report.records) == 1
        assert report.residual_norm > settings.newton_tol
        assert traj.q.shape == (51, 3)

    def test_brute_force_penalty_minimizer_agrees(self):
        """Independent oracle: drive the interior nodes of a 2-interval
        particle problem by penalty minimization of the discrete action and
        compare against the structured Newton solve."""
        minimize = pytest.importorskip("scipy.optimize").minimize

        model = particle_model()
        problem = particle_case2_problem(horizon=0.2)
        grid = TimeGrid(0.0, 0.2, 2)
        traj, report = solve_del(model, problem, grid)
        assert report.converged

        times = grid.times()
        node0 = problem.initial_state
        nodeN = problem.reference(0.2)

        def objective(x, weight):
            mid = AdmissibleState(q=x[:3], v=x[3:])
            total = discrete_lagrangian(model, problem, node0, mid,
                                        float(times[0]), grid.h)
            total += discrete_lagrangian(model, problem, mid, nodeN,
                                         float(times[1]), grid.h)
            psi = discrete_constraint(model, mid, nodeN, grid.h)
            return total + weight * float(psi @ psi)

        x = np.concatenate([
            0.5 * (np.asarray(node0.q) + nodeN.q),
            0.5 * (np.asarray(node0.v) + nodeN.v),
        ])
        for weight in (1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9):
            result = minimize(
                objective, x, args=(weight,), method="L-BFGS-B",
                options=dict(maxiter=2000, ftol=1e-16, gtol=1e-12),
            )
            x = result.x
        assert np.max(np.abs(x[:3] - traj.q[1])) <= 1e-4
        assert np.max(np.abs(x[3:] - traj.v[1])) <= 1e-4

    def test_rejects_soft_terminal_mode(self):
        model = particle_model()
        problem = particle_case2_problem(terminal_mode="mayer")
        with pytest.raises(ValueError, match="terminal_mode='hard'"):
            solve_del(model, problem, TimeGrid(0.0, 4.0, 10))

    def test_rejects_bad_grid(self):
        model = particle_model()
        problem = particle_case2_problem(horizon=1.0)
        with pytest.raises(ValueError, match="at least 2 intervals"):
            solve_del(model, problem, TimeGrid(0.0, 1.0, 1))
        with pytest.raises(ValueError, match="grid must span"):
            solve_del(model, problem, TimeGrid(0.0, 2.0, 10))


def bundled_del_instance(config, **problem_keys):
    configs = Path(__file__).resolve().parents[1] / "src" / "nhtrack" / "configs"
    cfg = parse_config(configs / config)
    cfg = cfg._replace(problem=cfg.problem._replace(**problem_keys))
    model = build_model(cfg)
    return model, build_problem(cfg, model)


class TestWarmStart:
    @pytest.mark.parametrize("config, problem_keys, settings, steps", [
        # the bundled sleigh, first interval free, as compare solves it
        ("sleigh-paper51.cfg", {}, DelSettings(newton_tol=1e-10), 50),
        # the bundled particle, hard terminal, first interval enforced
        ("particle-case2.cfg", {"terminal_mode": "hard"},
         DelSettings(newton_tol=1e-10, enforce_first_interval=True), 40),
    ], ids=["sleigh-free", "particle-enforced"])
    def test_prolonged_coarse_solution_reaches_the_cold_root(
        self, config, problem_keys, settings, steps
    ):
        """From the prolonged N solution, the 2N solve reaches the root of
        the straight-line start within 1e-12, in no more iterations."""
        model, problem = bundled_del_instance(config, **problem_keys)
        grid = TimeGrid(0.0, problem.horizon_T, 2 * steps)
        coarse, report = solve_del(
            model, problem, TimeGrid(0.0, problem.horizon_T, steps), settings
        )
        assert report.converged
        cold, cold_report = solve_del(model, problem, grid, settings)
        warm, warm_report = solve_del(model, problem, grid, settings, coarse=coarse)
        assert cold_report.converged and warm_report.converged
        assert warm_report.iterations <= cold_report.iterations
        for name in ("q", "v", "multipliers"):
            assert np.max(np.abs(getattr(warm, name) - getattr(cold, name))) <= 1e-12
        if settings.enforce_first_interval:
            assert np.max(np.abs(warm.lambda_zero - cold.lambda_zero)) <= 1e-12

    @pytest.mark.parametrize("enforce", [False, True])
    def test_prolongation(self, enforce):
        """Even nodes are the coarse nodes, odd nodes their midpoints, and
        the multipliers are interpolated in interval-midpoint time and
        halved with h; a free coarse first interval is left out of the
        interpolation, and an enforced one supplies lambda^0."""
        model = particle_model()
        problem = particle_case2_problem(horizon=1.0)
        rng = np.random.default_rng(3)
        coarse = DiscreteTrajectory(
            h=0.25, times=0.25 * np.arange(5),
            q=np.vstack([problem.initial_state.q, rng.normal(size=(3, 3)),
                         problem.reference(1.0).q]),
            v=np.vstack([problem.initial_state.v, rng.normal(size=(3, 2)),
                         problem.reference(1.0).v]),
            multipliers=rng.normal(size=(3, 3)), controls=np.zeros((4, 2)),
            lambda_zero=rng.normal(size=3) if enforce else None,
        )
        ws = _DelWorkspace(
            model, problem, TimeGrid(0.0, 1.0, 8),
            DelSettings(enforce_first_interval=enforce),
        )
        q, v, lam, lam0 = ws.unpack(ws.initial_guess(coarse))
        assert np.array_equal(q[::2], coarse.q) and np.array_equal(v[::2], coarse.v)
        np.testing.assert_allclose(q[1::2], 0.5 * (coarse.q[:-1] + coarse.q[1:]))
        np.testing.assert_allclose(v[1::2], 0.5 * (coarse.v[:-1] + coarse.v[1:]))
        # fine interval i has its midpoint at position i/2 - 1/4 on the coarse
        # intervals' midpoints, held at the first constrained and the last
        first = 0 if enforce else 1
        lam_c = np.vstack([
            np.zeros(3) if coarse.lambda_zero is None else coarse.lambda_zero,
            coarse.multipliers,
        ])
        pos = np.clip(np.arange(1, 8) / 2 - 0.25, first, 3)
        lo = np.minimum(pos.astype(int), 2)
        frac = (pos - lo)[:, None]
        np.testing.assert_allclose(
            lam, 0.5 * ((1 - frac) * lam_c[lo] + frac * lam_c[lo + 1])
        )
        if enforce:
            assert np.array_equal(lam0, 0.5 * coarse.lambda_zero)
        else:
            assert lam0 is None

    def test_rejects_a_coarse_solution_of_another_grid(self):
        model = particle_model()
        problem = particle_case2_problem(horizon=1.0)

        def zero_trajectory(horizon, steps):
            return DiscreteTrajectory(
                h=horizon / steps, times=np.linspace(0.0, horizon, steps + 1),
                q=np.zeros((steps + 1, 3)), v=np.zeros((steps + 1, 2)),
                multipliers=np.zeros((steps - 1, 3)), controls=np.zeros((steps, 2)),
            )

        grid = TimeGrid(0.0, 1.0, 10)
        for coarse in (zero_trajectory(1.0, 4), zero_trajectory(1.0, 10),
                       zero_trajectory(2.0, 5)):
            with pytest.raises(ValueError, match="coarse must span"):
                solve_del(model, problem, grid, coarse=coarse)


# ---------------------------------------------------------------------------
# order of accuracy


def test_order_of_accuracy_under_halving():
    """Midpoint discretization converges at second order.  Measured against
    a fine-grid (N = 128) solution on common nodes, over the middle half of
    the horizon.  The first interval is enforced so that the whole arc
    satisfies the same constraint family at every resolution."""
    sleigh = sleigh_model(SLEIGH_PARAMS)
    problem = mild_sleigh_problem(sleigh)
    settings = DelSettings(enforce_first_interval=True)

    solutions = {}
    for steps in (8, 16, 32, 128):
        traj, report = solve_del(sleigh, problem, TimeGrid(0.0, 1.0, steps),
                                 settings)
        assert report.converged
        solutions[steps] = traj

    fine = solutions[128]

    def error(steps):
        traj = solutions[steps]
        stride = 128 // steps
        errs = []
        for k in range(steps // 4, 3 * steps // 4 + 1):
            dq = traj.q[k] - fine.q[k * stride]
            dv = traj.v[k] - fine.v[k * stride]
            errs.append(max(np.max(np.abs(dq)), np.max(np.abs(dv))))
        return max(errs)

    e8, e16, e32 = error(8), error(16), error(32)
    order_coarse = np.log2(e8 / e16)
    order_fine = np.log2(e16 / e32)
    assert 1.7 <= order_coarse <= 2.3
    assert 1.7 <= order_fine <= 2.3


# ---------------------------------------------------------------------------
# discrete momentum conservation (tracking weights zeroed)


def momentum_series(model, problem, traj, settings=DelSettings()):
    """Discrete Legendre momenta conjugate to v^1 at the interior nodes:
    p+ from the incoming interval, p- from the outgoing one."""

    def slot_gradients(j, lam):
        return _interval(
            model, problem, traj.q[j], traj.v[j], traj.q[j + 1], traj.v[j + 1],
            lam, problem.reference(traj.times[j] + 0.5 * traj.h), traj.h,
            settings.psi_variant,
        )[2]

    steps = traj.steps
    p_plus, p_minus = [], []
    for k in range(1, steps):
        lam_prev = traj.multipliers[k - 2] if k >= 2 else np.zeros(model.n)
        lam_k = traj.multipliers[k - 1]
        p_plus.append(slot_gradients(k - 1, lam_prev)[3][0])
        p_minus.append(-slot_gradients(k, lam_k)[1][0])
    return np.array(p_plus), np.array(p_minus)


class TestDiscreteMomentum:
    def _zero_weight_problem(self, horizon=1.0):
        model = particle_model()
        start = AdmissibleState(q=[2.0, 3.0, 2.0], v=[0.5, 0.4])
        reference = RolloutReference(model=model, start=start, horizon=horizon)
        problem = TrackingProblem(
            reference=reference, horizon_T=horizon, epsilon=1.0, omega=1.0,
            initial_state=start, terminal_mode="hard", state_weight=0.0,
        )
        return model, problem

    def test_matching_identity_at_interior_nodes(self):
        model, problem = self._zero_weight_problem()
        traj, report = solve_del(model, problem, TimeGrid(0.0, 1.0, 20))
        assert report.converged
        p_plus, p_minus = momentum_series(model, problem, traj)
        assert np.max(np.abs(p_plus - p_minus)) <= 1e-12

    def test_momentum_constant_across_nodes(self):
        model, problem = self._zero_weight_problem()
        traj, report = solve_del(model, problem, TimeGrid(0.0, 1.0, 80))
        assert report.converged
        p_plus, _ = momentum_series(model, problem, traj)
        assert np.ptp(p_plus) <= 1e-9

    def test_straight_line_momentum_exact(self):
        """With v^2 = 0 the coupling term is inactive and the uncontrolled
        straight line solves the discrete system: controls and momentum
        variation sit at rounding level, not at truncation level."""
        model = particle_model()
        start = AdmissibleState(q=[0.0, 0.5, 0.0], v=[0.3, 0.0])
        reference = AnalyticReference(
            q_base=[0.0, 0.5, 0.0], q_slope=[0.0, 0.3, 0.0],
            v_base=[0.3, 0.0], v_slope=[0.0, 0.0],
        )
        problem = TrackingProblem(
            reference=reference, horizon_T=1.0, epsilon=1.0, omega=1.0,
            initial_state=start, terminal_mode="hard", state_weight=0.0,
        )
        traj, report = solve_del(model, problem, TimeGrid(0.0, 1.0, 10))
        assert report.converged
        assert np.max(np.abs(traj.controls)) <= 1e-14
        p_plus, p_minus = momentum_series(model, problem, traj)
        assert np.ptp(p_plus) <= 1e-14
        assert np.max(np.abs(p_plus - p_minus)) <= 1e-14


# ---------------------------------------------------------------------------
# regularity_check


class TestRegularityCheck:
    def test_nonsingular_at_random_nodes_with_unit_epsilon(self):
        rng = np.random.default_rng(13)
        for model_factory in (particle_model, lambda: sleigh_model(SLEIGH_PARAMS)):
            model = model_factory()
            reference = AnalyticReference(
                q_base=[0.0, 0.0, 0.0], q_slope=[0.0, 0.0, 0.0],
                v_base=[0.0, 0.0], v_slope=[0.0, 0.0],
            )
            problem = TrackingProblem(
                reference=reference, horizon_T=1.0, epsilon=1.0, omega=1.0,
                initial_state=AdmissibleState(q=[0.0, 0.0, 0.0], v=[0.0, 0.0]),
                terminal_mode="hard",
            )
            for _ in range(10):
                node_k = AdmissibleState(q=rng.normal(size=3), v=rng.normal(size=2))
                node_k1 = AdmissibleState(q=rng.normal(size=3), v=rng.normal(size=2))
                report = regularity_check(model, problem, node_k, node_k1, h=0.1)
                assert report.nonsingular
                assert np.isfinite(report.condition)

    def test_condition_grows_toward_singular_epsilon(self):
        """The one-step matrix degrades as the control-weight vanishes; at a
        probe step h = 5e-4 the condition estimate grows by >= 1e6 from
        eps = 1 to eps = 1e-12 on both benchmarks."""
        node_k = AdmissibleState(q=[0.1, 0.4, -0.2], v=[0.3, 0.7])
        node_k1 = AdmissibleState(q=[0.15, 0.42, -0.1], v=[0.35, 0.65])
        for model_factory in (particle_model, lambda: sleigh_model(SLEIGH_PARAMS)):
            model = model_factory()
            conditions = {}
            for eps in (1.0, 1e-6, 1e-12):
                reference = AnalyticReference(
                    q_base=[0.0, 0.0, 0.0], q_slope=[0.0, 0.0, 0.0],
                    v_base=[0.0, 0.0], v_slope=[0.0, 0.0],
                )
                problem = TrackingProblem(
                    reference=reference, horizon_T=1.0, epsilon=eps, omega=1.0,
                    initial_state=AdmissibleState(q=[0.0, 0.0, 0.0], v=[0.0, 0.0]),
                    terminal_mode="hard",
                )
                report = regularity_check(model, problem, node_k, node_k1, h=5e-4)
                conditions[eps] = report.condition
            assert conditions[1e-6] > conditions[1.0]
            assert conditions[1e-12] / conditions[1.0] >= 1e6

    def test_overflowing_matrix_raises_arithmetic_error(self):
        """At epsilon = 1e308 the one-step matrix overflows: an
        ArithmeticError naming it, with no RuntimeWarning on the way (the
        suite would raise it)."""
        sleigh = sleigh_model(SLEIGH_PARAMS)
        reference = AnalyticReference(
            q_base=[0.0, 0.0, 0.0], q_slope=[0.0, 0.0, 0.0],
            v_base=[0.0, 0.0], v_slope=[0.0, 0.0],
        )
        problem = TrackingProblem(
            reference=reference, horizon_T=1.0, epsilon=1e308, omega=1.0,
            initial_state=AdmissibleState(q=[0.0, 0.0, 0.0], v=[0.0, 0.0]),
            terminal_mode="hard",
        )
        rng = np.random.default_rng(0)
        node_k = AdmissibleState(q=rng.normal(size=3), v=rng.normal(size=2))
        node_k1 = AdmissibleState(q=rng.normal(size=3), v=rng.normal(size=2))
        with pytest.raises(ArithmeticError, match="non-finite one-step matrix"):
            regularity_check(sleigh, problem, node_k, node_k1, h=0.1)

    def test_solved_trajectory_nodes_all_nonsingular(self):
        sleigh = sleigh_model(SLEIGH_PARAMS)
        problem = sleigh_tracking_problem(sleigh)
        traj, report = solve_del(sleigh, problem, TimeGrid(0.0, 5.0, 50))
        assert report.converged
        for k in range(traj.steps):
            lam = traj.multipliers[k - 1] if k >= 1 else None
            check = regularity_check(
                sleigh, problem, traj.node(k), traj.node(k + 1), traj.h,
                t_k=float(traj.times[k]), lam=lam,
            )
            assert check.nonsingular
            assert check.condition < 1e3


# ---------------------------------------------------------------------------
# diagnostics


class TestDiagnostics:
    def test_equilibrium_all_zero_series(self):
        model = particle_model()
        q = np.array([0.0, 2.0, 0.0])
        reference = AnalyticReference(
            q_base=q, q_slope=np.zeros(3), v_base=np.zeros(2), v_slope=np.zeros(2)
        )
        problem = TrackingProblem(
            reference=reference, horizon_T=1.0, epsilon=2.0, omega=1.0,
            initial_state=AdmissibleState(q=q, v=np.zeros(2)),
            terminal_mode="hard",
        )
        traj, _ = solve_del(model, problem, TimeGrid(0.0, 1.0, 5))
        series = diagnostics(model, problem, traj)
        assert np.all(series.cost == 0.0)
        assert np.all(series.action == 0.0)
        assert np.all(series.energy == 0.0)
        assert np.all(series.constraint_residual == 0.0)

    def test_cumulative_action_equals_lagrangian_sum(self):
        sleigh = sleigh_model(SLEIGH_PARAMS)
        problem = mild_sleigh_problem(sleigh)
        traj, report = solve_del(sleigh, problem, TimeGrid(0.0, 1.0, 10))
        assert report.converged
        series = diagnostics(sleigh, problem, traj)
        total = 0.0
        for j in range(traj.steps):
            total += discrete_lagrangian(
                sleigh, problem, traj.node(j), traj.node(j + 1),
                float(traj.times[j]), traj.h,
            )
        assert series.action[-1] == total
        assert series.action[0] == 0.0
        assert np.all(np.diff(series.action) >= 0.0)

    def test_energy_column_is_restricted_energy(self):
        model = particle_model()
        problem = particle_case2_problem(horizon=1.0)
        traj, _ = solve_del(model, problem, TimeGrid(0.0, 1.0, 8))
        series = diagnostics(model, problem, traj)
        for k in (0, 3, 8):
            state = traj.node(k)
            v1, v2 = state.v
            y = state.q[1]
            hand = 0.5 * (v1 * v1 + (1.0 + y * y) * v2 * v2)
            assert series.energy[k] == pytest.approx(hand, rel=1e-12)
            assert series.energy[k] == pytest.approx(
                restricted_energy(model, state), rel=1e-15
            )

    def test_constraint_column_matches_direct_evaluation(self):
        sleigh = sleigh_model(SLEIGH_PARAMS)
        problem = sleigh_tracking_problem(sleigh)
        traj, _ = solve_del(sleigh, problem, TimeGrid(0.0, 5.0, 50))
        series = diagnostics(sleigh, problem, traj)
        for k in (0, 1, 25, 49, 50):
            j = min(k, traj.steps - 1)
            psi = discrete_constraint(sleigh, traj.node(j), traj.node(j + 1),
                                      traj.h)
            assert series.constraint_residual[k] == np.max(np.abs(psi))

    def test_cost_and_action_carry_lambda0(self):
        """The cost column is the lambda0-weighted running cost, like the
        action it sits beside: at lambda0 = 2 both are twice their lambda0 =
        1 values on the same trajectory."""
        sleigh = sleigh_model(SLEIGH_PARAMS)
        problem = mild_sleigh_problem(sleigh)
        traj, report = solve_del(sleigh, problem, TimeGrid(0.0, 1.0, 10))
        assert report.converged
        unit = diagnostics(sleigh, problem, traj)
        double = diagnostics(sleigh, dataclasses.replace(problem, lambda0=2.0), traj)
        assert np.array_equal(double.cost, 2.0 * unit.cost)
        assert np.array_equal(double.action, 2.0 * unit.action)

    def test_psi_variant_passthrough(self):
        sleigh = sleigh_model(SLEIGH_PARAMS)
        problem = mild_sleigh_problem(sleigh)
        settings = DelSettings(psi_variant="difference-quotient")
        traj, report = solve_del(sleigh, problem, TimeGrid(0.0, 1.0, 10), settings)
        assert report.converged
        matched = diagnostics(sleigh, problem, traj,
                              psi_variant="difference-quotient")
        assert np.max(matched.constraint_residual[1:-1]) <= 1e-10
        mismatched = diagnostics(sleigh, problem, traj)
        assert np.max(mismatched.constraint_residual) > 1e-3


# ---------------------------------------------------------------------------
# settings and trajectory containers


class TestContainers:
    def test_settings_validation(self):
        with pytest.raises(ValueError):
            DelSettings(newton_tol=0.0)
        with pytest.raises(ValueError):
            DelSettings(max_iters=0)
        with pytest.raises(ValueError):
            DelSettings(psi_variant="gauss")

    def test_trajectory_validation(self):
        times = np.linspace(0.0, 1.0, 4)
        ok = dict(
            h=1.0 / 3.0, times=times, q=np.zeros((4, 3)), v=np.zeros((4, 2)),
            multipliers=np.zeros((2, 3)), controls=np.zeros((3, 2)),
        )
        traj = DiscreteTrajectory(**ok)
        assert traj.steps == 3
        with pytest.raises(ValueError):
            DiscreteTrajectory(**{**ok, "h": -0.1})
        with pytest.raises(ValueError):
            DiscreteTrajectory(**{**ok, "multipliers": np.zeros((3, 3))})
        with pytest.raises(ValueError):
            DiscreteTrajectory(**{**ok, "controls": np.zeros((4, 2))})
        with pytest.raises(ValueError, match="at least 3 nodes"):
            DiscreteTrajectory(**{**ok, "times": times[:2]})
        for key, nodes in (("q", np.zeros((5, 3))), ("v", np.zeros((3, 2)))):
            with pytest.raises(ValueError, match="node count mismatch"):
                DiscreteTrajectory(**{**ok, key: nodes})

    def test_node_returns_copies(self):
        times = np.linspace(0.0, 1.0, 4)
        traj = DiscreteTrajectory(
            h=1.0 / 3.0, times=times, q=np.zeros((4, 3)), v=np.zeros((4, 2)),
            multipliers=np.zeros((2, 3)), controls=np.zeros((3, 2)),
        )
        node = traj.node(1)
        node.q[0] = 99.0
        assert traj.q[1, 0] == 0.0
