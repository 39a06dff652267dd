import math

import numpy as np
import pytest

from cbfrrt import dynamics, planner
from cbfrrt.dynamics import (
    CircularObstacle,
    ControlInput,
    RobotState,
    TrajectorySample,
    obstacle_center_at,
    rk4_step,
    step_grid,
)
from cbfrrt.planner import PlannerParams, goal_check, steer_constants
from cbfrrt.safety import constraint_rows, solve_scalar_qp
from oracles import closed_loop, closed_loop_grid, trajectory_from_samples, unicycle_vector_field


def step(state, control, dt):
    """rk4_step from a RobotState under (v, omega); the new RobotState."""
    x1, x2, theta = state
    return RobotState(*rk4_step(x1, x2, theta, math.cos(theta), math.sin(theta),
                                *control, dt)[:3])


def integrate(initial, t0, horizon, dt, omega_ref, obstacles=()):
    """planner.integrate_closed_loop at speed 1 from initial at t0 over the
    horizon, steering toward omega_ref under the QP of the obstacles' rows;
    with no obstacles omega is omega_ref at every node."""
    params = PlannerParams(t_h=horizon, dt=dt, omega_ref=omega_ref)
    return closed_loop(initial, t0, obstacles, params)


# A disk that moves down the robot's left while the robot steers toward
# omega_ref = 3.0 from the origin at t0 = 1.0: the disk's row binds at every
# node of a 0.4 s horizon (dt 0.1), so each node applies its own omega.
MOVING = (CircularObstacle((1.3, 0.5), (-0.5, 0.0), 0.2),)


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


def test_rk4_straight_step_reuses_the_heading_trig(monkeypatch):
    # omega == 0.0 from a nonzero heading: no stage turns, so no trig call is
    # made and the given cosine and sine are handed on as they are
    cos_t, sin_t = math.cos(0.7), math.sin(0.7)
    want = rk4_step(0.1, -0.2, 0.7, cos_t, sin_t, 1.5, 0.0, 0.02)
    monkeypatch.setattr(dynamics, "math", None)
    assert rk4_step(0.1, -0.2, 0.7, cos_t, sin_t, 1.5, 0.0, 0.02) == want
    assert want[2:] == (0.7, cos_t, sin_t)


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
    traj = integrate(RobotState(0.0, 0.0, 0.0), 0.0, 0.5, 0.1, 0.0)
    assert len(traj) == 6
    final = traj.samples[-1].state
    assert final.x1 == pytest.approx(0.5, abs=1e-12)
    assert final.x2 == 0.0
    assert traj.t_end == 0.5


def test_integrate_controller_failure_discards_everything():
    # head-on at a disk the row's a is exactly 0, so the QP fails outright
    # wherever b < 0: for a radius-0.2 disk, at centre distances 0.2565-3.74
    start = RobotState(0.0, 0.0, 0.0)
    near = (CircularObstacle((0.3, 0.0), (0.0, 0.0), 0.2),)
    assert integrate(start, 0.0, 0.5, 0.1, 0.0, near) is None  # node 0 fails

    # from 4.0 m away, the nodes at 4.0, 3.9 and 3.8 m are feasible and the
    # one at 3.7 m is not
    far = (CircularObstacle((4.0, 0.0), (0.0, 0.0), 0.2),)
    assert len(integrate(start, 0.0, 0.3, 0.1, 0.0, far)) == 4
    assert integrate(start, 0.0, 0.5, 0.1, 0.0, far) is None


def test_integrate_remainder_step():
    # horizon 0.5 with dt 0.2 forces steps 0.2, 0.2, 0.1
    traj = integrate(RobotState(0.0, 0.0, 0.0), 0.0, 0.5, 0.2, 0.0)
    times = list(traj.data[0::6])
    assert times == pytest.approx([0.0, 0.2, 0.4, 0.5], abs=1e-12)
    assert traj.t_end == 0.5  # exact, not accumulated


def test_integrate_final_timestamp_exact_with_offset_start():
    traj = integrate(RobotState(0.0, 0.0, 0.0), 0.3, 0.7, 0.02, 0.0)
    assert traj.t_end - traj.t0 == pytest.approx(0.7, abs=1e-12)
    assert traj.t_end == 1.0


def test_terminal_sample_repeats_last_control():
    traj = integrate(RobotState(0.0, 0.0, 0.0), 1.0, 0.4, 0.1, 3.0, MOVING)
    omegas = list(traj.data[5::6])
    assert len(set(omegas[:-1])) == 4  # every step applies its own omega
    assert traj.samples[-1].control == traj.samples[-2].control
    assert omegas[-1] == omegas[-2] != omegas[0]


def test_controller_sees_correct_times():
    # each applied omega is the QP at its own node's state and time, which
    # the moving disk's row depends on
    traj = integrate(RobotState(0.0, 0.0, 0.0), 1.0, 0.4, 0.1, 3.0, MOVING)
    assert list(traj.data[0::6]) == pytest.approx([1.0, 1.1, 1.2, 1.3, 1.4], abs=1e-12)
    k = steer_constants(MOVING, PlannerParams(t_h=0.4, dt=0.1))
    d = traj.data
    for t, x1, x2, theta, omega in zip(d[0:-6:6], d[1::6], d[2::6], d[3::6], d[5::6]):
        rows = constraint_rows(x1, x2, math.cos(theta), math.sin(theta), k.v, k.disks,
                               t, k.k1, k.k2)
        assert solve_scalar_qp(3.0, k.lo, k.hi, rows) == omega
        late = constraint_rows(x1, x2, math.cos(theta), math.sin(theta), k.v, k.disks,
                               t + 0.1, k.k1, k.k2)
        assert solve_scalar_qp(3.0, k.lo, k.hi, late) != omega


def test_integrate_rejects_bad_steps():
    # the params that set the integration grid refuse them, so step_grid,
    # which trusts its caller, never sees them
    with pytest.raises(ValueError, match="t_h must be > 0"):
        integrate(RobotState(0.0, 0.0, 0.0), 0.0, 0.0, 0.1, 0.0)
    with pytest.raises(ValueError, match="dt must be > 0"):
        integrate(RobotState(0.0, 0.0, 0.0), 0.0, 0.5, -0.1, 0.0)


@pytest.mark.parametrize("dt", [0.02, 0.1, 0.25, 1.0])
@pytest.mark.parametrize("ratio", [1.0, 1.0 + 1e-12])
def test_a_horizon_of_one_step_integrates_one_step(dt, ratio):
    # every valid PlannerParams has dt <= t_h, so its grid has a step; at the
    # edge of validity it has exactly one, and the last node is on t0 + t_h
    t_h = dt * ratio
    PlannerParams(t_h=t_h, dt=dt)
    times, steps = closed_loop_grid(0.0, t_h, dt)
    assert repr(step_grid(t_h, dt)) == repr(tuple(zip(steps, times[1:])))
    assert step_grid(t_h, dt) == ((dt, t_h),)
    traj = integrate(RobotState(0.1, -0.2, 0.3), 0.7, t_h, dt, 2.0)
    assert len(traj) == 2
    assert traj.t0 == 0.7
    assert traj.t_end == 0.7 + t_h


@pytest.mark.parametrize("t_h, dt", [(0.3, 0.1), (0.7, 0.02)])
def test_steps_that_would_round_past_the_horizon_end_on_a_tail(t_h, dt):
    # 3 * 0.1 and 35 * 0.02 round past 0.3 and 0.7: the last of those steps
    # is the shorter tail, so the steps sum to t_h and never past it
    n = round(t_h / dt)
    assert n * dt > t_h
    times, steps = closed_loop_grid(0.0, t_h, dt)
    assert repr(step_grid(t_h, dt)) == repr(tuple(zip(steps, times[1:])))
    *full, (tail, end) = step_grid(t_h, dt)
    assert full == [(dt, k * dt) for k in range(1, n)]
    assert (tail, end) == (t_h - (n - 1) * dt, t_h)
    assert 0.0 < tail < dt
    assert (n - 1) * dt + tail == t_h
    traj = integrate(RobotState(0.1, -0.2, 0.3), 0.7, t_h, dt, 2.0)
    assert len(traj) == n + 1
    assert traj.t_end == 0.7 + t_h


def test_params_reject_a_step_longer_than_the_horizon():
    # one ulp-scale step past the horizon would leave step_grid no step
    with pytest.raises(ValueError, match="dt must be <= t_h"):
        PlannerParams(t_h=0.02, dt=0.02 * (1 + 1e-12))


def test_params_cap_the_steps_of_a_horizon():
    # exactly MAX_STEPS steps of 0.25 s is the longest grid allowed; one ulp
    # more horizon is refused. Neither grid is built.
    t_h = planner.MAX_STEPS * 0.25
    assert PlannerParams(t_h=t_h, dt=0.25).t_h / 0.25 == planner.MAX_STEPS
    with pytest.raises(ValueError, match=r"^dt must be >= t_h / 1,000,000, got dt=0\.25"):
        PlannerParams(t_h=math.nextafter(t_h, math.inf), dt=0.25)


def test_trajectory_metrics():
    traj = integrate(RobotState(0.0, 0.0, 0.0), 0.0, 0.5, 0.1, 0.0)
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
    traj = integrate(RobotState(0.1, -0.2, 0.3), 0.4, 0.5, 0.07, 1.5)
    samples = traj.samples
    assert len(samples) == len(traj) == 9  # 7 full steps, a 0.01 s tail, the end
    assert all(isinstance(s.state, RobotState) and isinstance(s.control, ControlInput)
               for s in samples)
    again = trajectory_from_samples(samples)
    assert again.data == traj.data  # bit for bit
    assert again.samples == samples


def test_trajectory_metrics_match_the_samples_view():
    traj = integrate(RobotState(0.0, 0.0, 0.5), 1.0, 1.3, 0.1, 1.2)
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
    traj = integrate(RobotState(0.0, 0.0, 0.5), 0.0, 1.0, 0.02, omega)
    exact = arc_endpoint(RobotState(0.0, 0.0, 0.5), v, omega, 1.0)
    final = traj.samples[-1].state
    assert final.x1 == pytest.approx(exact.x1, abs=1e-7)
    assert final.x2 == pytest.approx(exact.x2, abs=1e-7)
    assert final.theta == pytest.approx(exact.theta, abs=1e-12)

