import dataclasses
import math

import numpy as np
import pytest

from cbfrrt.dynamics import CircularObstacle, ControlInput, RobotState, rk4_step
from cbfrrt.planner import PlannerParams
from cbfrrt.safety import barrier_value, constraint_rows, disk_tuple
from oracles import ConstraintRow, barrier_lie1, closed_loop, ecbf_row_reference, is_safe

PARAMS = PlannerParams()  # k1 = 2.0, k2 = 4.0

WORLD1 = (
    CircularObstacle((0.3, 1.2), (0.0, 0.0), 0.2),
    CircularObstacle((1.0, 0.5), (0.0, 0.0), 0.2),
    CircularObstacle((1.7, -0.5), (0.0, 0.0), 0.2),
)


def rows_at(state, v_const, obstacles, t, params):
    """constraint_rows for a RobotState and CircularObstacles, with params'
    gains."""
    x1, x2, theta = state
    return constraint_rows(x1, x2, math.cos(theta), math.sin(theta), v_const,
                           [disk_tuple(ob) for ob in obstacles], t, params.k1, params.k2)


def step(state, control, dt):
    """rk4_step from a RobotState under (v, omega); the new RobotState."""
    x1, x2, theta = state
    return RobotState(*rk4_step(x1, x2, theta, math.cos(theta), math.sin(theta),
                                *control, dt)[:3])


def kernel_row(state, v_const, obstacle, t, params):
    """The kernel's row for a single disk, with the oracle's field names."""
    return ConstraintRow(*rows_at(state, v_const, (obstacle,), t, params)[0])


def test_barrier_value_on_boundary():
    ob = CircularObstacle((0.3, 1.2), (0.0, 0.0), 0.2)
    assert barrier_value(RobotState(0.3, 1.4, 0.0), ob, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_barrier_value_one_meter_out():
    ob = CircularObstacle((0.3, 1.2), (0.0, 0.0), 0.2)
    assert barrier_value(RobotState(1.3, 1.2, 0.0), ob, 0.0) == pytest.approx(0.96)


def test_barrier_value_tracks_moving_center():
    ob = CircularObstacle((1.0, 0.0), (-0.1, 0.3), 0.2)
    # at t=1 the center is at (0.9, 0.3): 0.01 + 0.09 - 0.04
    assert barrier_value(RobotState(1.0, 0.0, 0.0), ob, 1.0) == pytest.approx(0.06)


def test_barrier_lie1_head_on():
    ob = CircularObstacle((1.0, 0.0), (0.0, 0.0), 0.2)
    assert barrier_lie1(RobotState(0.0, 0.0, 0.0), 1.0, ob, 0.0) == pytest.approx(-2.0)


def test_barrier_lie1_tangent_motion():
    ob = CircularObstacle((1.0, 0.0), (0.0, 0.0), 0.2)
    assert barrier_lie1(RobotState(0.0, 0.0, math.pi / 2), 1.0, ob, 0.0) == pytest.approx(
        0.0, abs=1e-15
    )


def test_barrier_lie1_zero_offset():
    ob = CircularObstacle((1.0, 0.0), (1.0, 0.0), 0.2)
    assert barrier_lie1(RobotState(1.0, 0.0, 0.0), 1.0, ob, 0.0) == pytest.approx(0.0)


def test_ecbf_row_lateral_obstacle():
    # obstacle a metre to the left: h=0.96, hdot=0, a = 2*v*d2 = -2
    ob = CircularObstacle((0.0, 1.0), (0.0, 0.0), 0.2)
    row = kernel_row(RobotState(0.0, 0.0, 0.0), 1.0, ob, 0.0, PARAMS)
    assert row.a == pytest.approx(-2.0)
    assert row.b == pytest.approx(3.92)


def test_ecbf_row_head_on_is_unconditionally_infeasible():
    ob = CircularObstacle((1.0, 0.0), (0.0, 0.0), 0.2)
    row = kernel_row(RobotState(0.0, 0.0, 0.0), 1.0, ob, 0.0, PARAMS)
    assert row.a == pytest.approx(0.0, abs=1e-15)
    assert row.b == pytest.approx(-4.08)  # 2 + 2*0.96 - 4*2: no omega can help


def test_ecbf_row_far_field_dominated_by_k1_h():
    # h = 100 exactly (center distance sqrt(100.04)), hdot = 0, rho = (1, 0)
    ob = CircularObstacle((0.0, math.sqrt(100.04)), (0.0, 0.0), 0.2)
    row = kernel_row(RobotState(0.0, 0.0, 0.0), 1.0, ob, 0.0, PARAMS)
    assert row.b == pytest.approx(202.0, abs=1e-9)
    for omega in (-4.25, 0.0, 4.25):
        assert row.a * omega + row.b >= 0.0


def test_constraint_rows_order_and_composition():
    state = RobotState(0.0, 0.0, 0.0)
    assert rows_at(state, 1.0, (), 0.0, PARAMS) == []
    single = rows_at(state, 1.0, WORLD1[:1], 0.0, PARAMS)
    assert single == [ecbf_row_reference(state, 1.0, WORLD1[0], 0.0, PARAMS)]
    rows = rows_at(state, 1.0, WORLD1, 0.0, PARAMS)
    assert len(rows) == 3
    assert [r == ecbf_row_reference(state, 1.0, ob, 0.0, PARAMS)
            for r, ob in zip(rows, WORLD1)] == [
        True,
        True,
        True,
    ]


def test_is_safe():
    assert is_safe(RobotState(0.0, 0.0, 0.0), WORLD1, 0.0)
    assert not is_safe(RobotState(1.0, 0.5, 0.0), WORLD1, 0.0)
    assert is_safe(RobotState(1.0, 0.5, 0.0), (), 0.0)


def _random_config(rng):
    state = RobotState(*rng.uniform(-2.0, 2.0, 2), rng.uniform(-math.pi, math.pi))
    v = float(rng.uniform(0.2, 1.0))
    omega = float(rng.uniform(-4.25, 4.25))
    ob = CircularObstacle(
        tuple(rng.uniform(-2.0, 2.0, 2)),
        tuple(rng.uniform(-0.5, 0.5, 2)) if rng.random() < 0.5 else (0.0, 0.0),
        float(rng.uniform(0.1, 0.5)),
    )
    return state, v, omega, ob


def test_lie1_matches_finite_difference():
    # propagate the constant-control closed-loop both ways and difference h
    rng = np.random.default_rng(7)
    eps = 1e-4
    for _ in range(200):
        state, v, omega, ob = _random_config(rng)
        u = ControlInput(v, omega)
        h_plus = barrier_value(step(state, u, eps), ob, eps)
        h_minus = barrier_value(step(state, u, -eps), ob, -eps)
        fd = (h_plus - h_minus) / (2 * eps)
        assert fd == pytest.approx(barrier_lie1(state, v, ob, 0.0), abs=1e-5)


def test_row_matches_second_finite_difference():
    # hddot from the row: a*omega + 2*rho1^2 + 2*rho2^2, rho re-derived here
    rng = np.random.default_rng(8)
    eps = 1e-4
    for _ in range(200):
        state, v, omega, ob = _random_config(rng)
        u = ControlInput(v, omega)
        h0 = barrier_value(state, ob, 0.0)
        h_plus = barrier_value(step(state, u, eps), ob, eps)
        h_minus = barrier_value(step(state, u, -eps), ob, -eps)
        fd2 = (h_plus - 2 * h0 + h_minus) / (eps * eps)

        row = kernel_row(state, v, ob, 0.0, PARAMS)
        rho1 = v * math.cos(state.theta) - ob.velocity[0]
        rho2 = v * math.sin(state.theta) - ob.velocity[1]
        hddot = row.a * omega + 2 * rho1 * rho1 + 2 * rho2 * rho2
        assert fd2 == pytest.approx(hddot, abs=1e-4)


def test_row_b_decomposition():
    # b = 2|rho|^2 + k1 h + k2 hdot, cross-checked field by field
    rng = np.random.default_rng(9)
    for _ in range(100):
        state, v, _, ob = _random_config(rng)
        row = kernel_row(state, v, ob, 0.0, PARAMS)
        h = barrier_value(state, ob, 0.0)
        hdot = barrier_lie1(state, v, ob, 0.0)
        rho1 = v * math.cos(state.theta) - ob.velocity[0]
        rho2 = v * math.sin(state.theta) - ob.velocity[1]
        expect = 2 * (rho1 * rho1 + rho2 * rho2) + PARAMS.k1 * h + PARAMS.k2 * hdot
        assert row.b == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_translation_equivariance():
    rng = np.random.default_rng(10)
    for _ in range(50):
        state, v, _, ob = _random_config(rng)
        shift = rng.uniform(-5.0, 5.0, 2)
        moved_state = RobotState(state.x1 + shift[0], state.x2 + shift[1], state.theta)
        moved_ob = CircularObstacle(
            (ob.center0[0] + shift[0], ob.center0[1] + shift[1]), ob.velocity, ob.radius
        )
        assert barrier_value(moved_state, moved_ob, 0.3) == pytest.approx(
            barrier_value(state, ob, 0.3), abs=1e-12
        )
        assert barrier_lie1(moved_state, v, moved_ob, 0.3) == pytest.approx(
            barrier_lie1(state, v, ob, 0.3), abs=1e-12
        )
        r0 = kernel_row(state, v, ob, 0.3, PARAMS)
        r1 = kernel_row(moved_state, v, moved_ob, 0.3, PARAMS)
        assert r1.a == pytest.approx(r0.a, abs=1e-12)
        assert r1.b == pytest.approx(r0.b, abs=1e-12)


def test_closed_loop_filter_keeps_moving_disk_world_safe(example2_file):
    # drive the QP-filtered unicycle for 10 s straight through the scenario:
    # every integration node must stay on the safe side of the barrier
    sc = example2_file.scenario
    p = dataclasses.replace(sc.params, t_h=10.0)
    traj = closed_loop(sc.x_init, sc.t_init, sc.obstacles, p)
    assert traj is not None
    worst = min(
        barrier_value(s.state, ob, s.t) for s in traj.samples for ob in sc.obstacles
    )
    assert worst >= -1e-6
