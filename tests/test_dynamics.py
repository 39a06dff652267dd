import math

import numpy as np
import pytest

from cbfrrt.dynamics import (
    CircularObstacle,
    ControlInput,
    RobotState,
    TrajectorySample,
    integrate_closed_loop,
    obstacle_center_at,
    rk4_step,
    step_grid,
)
from cbfrrt.planner import PlannerParams, goal_check
from oracles import trajectory_from_samples, unicycle_vector_field


def step(state, control, dt):
    """rk4_step from a RobotState under (v, omega); the new RobotState."""
    x1, x2, theta = state
    return RobotState(*rk4_step(x1, x2, theta, math.cos(theta), math.sin(theta),
                                *control, dt)[:3])


def integrate(initial, t0, horizon, dt, v, omega_at):
    """integrate_closed_loop at speed v, asking omega_at(t) at each node."""
    return integrate_closed_loop(*initial, t0, horizon, dt, step_grid(horizon, dt), v,
                                 lambda x1, x2, cos_t, sin_t, t: omega_at(t))


def arc_endpoint(state, v, omega, dt):
    """Exact unicycle solution for constant control (sinc form handles omega=0)."""
    half = 0.5 * omega * dt
    chord = v * dt * np.sinc(half / np.pi)
    return RobotState(
        state.x1 + chord * math.cos(state.theta + half),
        state.x2 + chord * math.sin(state.theta + half),
        state.theta + omega * dt,
    )


@pytest.mark.parametrize(
    "theta,v,omega,expected",
    [
        (0.0, 1.0, 0.0, (1.0, 0.0, 0.0)),
        (math.pi / 2, 1.0, 0.0, (0.0, 1.0, 0.0)),
        (0.0, 1.0, 2.0, (1.0, 0.0, 2.0)),
    ],
)
def test_vector_field(theta, v, omega, expected):
    d = unicycle_vector_field(RobotState(0.0, 0.0, theta), ControlInput(v, omega))
    assert d.dx1 == pytest.approx(expected[0], abs=1e-15)
    assert d.dx2 == pytest.approx(expected[1], abs=1e-15)
    assert d.dtheta == expected[2]


def test_obstacle_center_motion():
    moving = CircularObstacle((1.0, 0.0), (-0.1, 0.3), 0.2)
    assert obstacle_center_at(moving, 0.0) == (1.0, 0.0)
    cx, cy = obstacle_center_at(moving, 1.0)
    assert cx == pytest.approx(0.9) and cy == pytest.approx(0.3)
    static = CircularObstacle((1.0, 0.0), (0.0, 0.0), 0.2)
    assert obstacle_center_at(static, 7.0) == (1.0, 0.0)
    assert static.is_static() and not moving.is_static()


def test_rk4_zero_dt_is_identity():
    s = RobotState(0.3, -0.7, 2.1)
    assert step(s, ControlInput(1.0, 3.0), 0.0) == s


def test_rk4_straight_line_exact():
    s = step(RobotState(0.0, 0.0, 0.0), ControlInput(1.0, 0.0), 0.5)
    assert s.x1 == pytest.approx(0.5, abs=1e-15)
    assert s.x2 == 0.0
    assert s.theta == 0.0


def test_rk4_small_arc_matches_closed_form():
    # v=1, omega=1, dt=0.1: exact arc gives (sin 0.1, 1 - cos 0.1, 0.1)
    s = step(RobotState(0.0, 0.0, 0.0), ControlInput(1.0, 1.0), 0.1)
    assert s.x1 == pytest.approx(math.sin(0.1), abs=1e-8)
    assert s.x2 == pytest.approx(1.0 - math.cos(0.1), abs=1e-8)
    assert s.theta == pytest.approx(0.1, abs=1e-15)


def test_rk4_derivative_consistent_with_vector_field():
    # central difference of the step map at dt -> 0 recovers the RHS
    s = RobotState(0.2, -0.4, 0.9)
    u = ControlInput(0.8, -2.0)
    eps = 1e-5
    fwd = step(s, u, eps)
    bwd = step(s, u, -eps)
    d = unicycle_vector_field(s, u)
    assert (fwd.x1 - bwd.x1) / (2 * eps) == pytest.approx(d.dx1, abs=1e-6)
    assert (fwd.x2 - bwd.x2) / (2 * eps) == pytest.approx(d.dx2, abs=1e-6)
    assert (fwd.theta - bwd.theta) / (2 * eps) == pytest.approx(d.dtheta, abs=1e-6)


def test_integrate_straight_line():
    traj = integrate(RobotState(0.0, 0.0, 0.0), 0.0, 0.5, 0.1, 1.0, lambda t: 0.0)
    assert len(traj) == 6
    final = traj.samples[-1].state
    assert final.x1 == pytest.approx(0.5, abs=1e-12)
    assert final.x2 == 0.0
    assert traj.t_end == 0.5


def test_integrate_controller_failure_discards_everything():
    assert integrate(RobotState(0.0, 0.0, 0.0), 0.0, 0.5, 0.1, 1.0, lambda t: None) is None

    def fail_late(t):
        return None if t > 0.25 else 0.0

    assert integrate(RobotState(0.0, 0.0, 0.0), 0.0, 0.5, 0.1, 1.0, fail_late) is None


def test_integrate_remainder_step():
    # horizon 0.5 with dt 0.2 forces steps 0.2, 0.2, 0.1
    traj = integrate(RobotState(0.0, 0.0, 0.0), 0.0, 0.5, 0.2, 1.0, lambda t: 0.0)
    times = [s.t for s in traj.samples]
    assert times == pytest.approx([0.0, 0.2, 0.4, 0.5], abs=1e-12)
    assert traj.t_end == 0.5  # exact, not accumulated


def test_integrate_final_timestamp_exact_with_offset_start():
    traj = integrate(RobotState(0.0, 0.0, 0.0), 0.3, 0.7, 0.02, 1.0, lambda t: 0.0)
    assert traj.t_end - traj.t0 == pytest.approx(0.7, abs=1e-12)
    assert traj.t_end == 1.0


def test_terminal_sample_repeats_last_control():
    def swerve(t):
        return 1.0 if t < 0.3 else -2.0

    traj = integrate(RobotState(0.0, 0.0, 0.0), 0.0, 0.5, 0.1, 1.0, swerve)
    assert traj.samples[-1].control == traj.samples[-2].control
    assert traj.samples[-1].control.omega == -2.0


def test_controller_sees_correct_times():
    seen = []

    def record(t):
        seen.append(t)
        return 0.0

    integrate(RobotState(0.0, 0.0, 0.0), 1.0, 0.4, 0.1, 1.0, record)
    assert seen == pytest.approx([1.0, 1.1, 1.2, 1.3], abs=1e-12)


def test_integrate_rejects_bad_steps():
    ctrl = lambda t: 0.0
    with pytest.raises(ValueError):
        integrate(RobotState(0.0, 0.0, 0.0), 0.0, 0.0, 0.1, 1.0, ctrl)
    with pytest.raises(ValueError):
        integrate(RobotState(0.0, 0.0, 0.0), 0.0, 0.5, -0.1, 1.0, ctrl)


@pytest.mark.parametrize("dt", [0.02, 0.1, 0.25, 1.0])
@pytest.mark.parametrize("ratio", [1.0, 1.0 + 1e-12])
def test_a_horizon_of_one_step_integrates_one_step(dt, ratio):
    # every valid PlannerParams has dt <= t_h, so its grid has a step; at the
    # edge of validity it has exactly one, and the last node is on t0 + t_h
    t_h = dt * ratio
    PlannerParams(t_h=t_h, dt=dt)
    n_full, tail, n_steps = step_grid(t_h, dt)
    assert (n_full, n_steps) == (1, 1)
    traj = integrate(RobotState(0.1, -0.2, 0.3), 0.7, t_h, dt, 1.0, lambda t: 2.0)
    assert len(traj) == 2
    assert traj.t0 == 0.7
    assert traj.t_end == 0.7 + t_h


def test_step_grid_rejects_a_step_longer_than_the_horizon():
    with pytest.raises(ValueError, match="dt must be <= horizon"):
        step_grid(0.02, 0.02 * (1 + 1e-12))


def test_trajectory_metrics():
    traj = integrate(RobotState(0.0, 0.0, 0.0), 0.0, 0.5, 0.1, 1.0, lambda t: 0.0)
    assert traj.path_length() == pytest.approx(0.5, abs=1e-12)
    # the goal check is over the sampled nodes: (0.3, 0) is one of them
    assert goal_check(traj, (0.3, 0.1), 0.1 + 1e-9)
    assert not goal_check(traj, (0.3, 0.1), 0.1 - 1e-9)
    assert not goal_check(traj, (2.0, 2.0), 2.0)


def test_empty_trajectory_is_falsy():
    traj = trajectory_from_samples([])
    assert len(traj) == 0
    assert not traj
    assert traj.path_length() == 0.0
    assert traj.samples == []
    assert len(traj.data) == 0


def test_trajectory_buffer_is_rows_in_csv_column_order():
    sample = TrajectorySample(0.5, RobotState(1.0, 2.0, 3.0), ControlInput(4.0, 5.0))
    traj = trajectory_from_samples([sample])
    assert list(traj.data) == [0.5, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert traj.samples == [sample]


def test_samples_view_round_trips_the_buffer():
    traj = integrate(RobotState(0.1, -0.2, 0.3), 0.4, 0.5, 0.07, 1.0,
                     lambda t: math.sin(7.0 * t))
    samples = traj.samples
    assert len(samples) == len(traj) == 9  # 7 full steps, a 0.01 s tail, the end
    assert all(isinstance(s.state, RobotState) and isinstance(s.control, ControlInput)
               for s in samples)
    again = trajectory_from_samples(samples)
    assert again.data == traj.data  # bit for bit
    assert again.samples == samples


def test_trajectory_metrics_match_the_samples_view():
    traj = integrate(RobotState(0.0, 0.0, 0.5), 1.0, 1.3, 0.1, 1.0, lambda t: 2.5 - t)
    samples = traj.samples
    length = 0.0
    for a, b in zip(samples, samples[1:]):
        length += math.hypot(b.state.x1 - a.state.x1, b.state.x2 - a.state.x2)
    assert traj.path_length() == length  # same summation order, so exact
    assert traj.t_end == samples[-1].t == 2.3
    assert traj.t0 == samples[0].t == 1.0


def test_integration_follows_exact_arc_over_many_steps():
    # accumulated closed-loop error over a full horizon stays tiny
    v, omega = 1.0, 2.5
    traj = integrate(RobotState(0.0, 0.0, 0.5), 0.0, 1.0, 0.02, v, lambda t: omega)
    exact = arc_endpoint(RobotState(0.0, 0.0, 0.5), v, omega, 1.0)
    final = traj.samples[-1].state
    assert final.x1 == pytest.approx(exact.x1, abs=1e-7)
    assert final.x2 == pytest.approx(exact.x2, abs=1e-7)
    assert final.theta == pytest.approx(exact.theta, abs=1e-12)

