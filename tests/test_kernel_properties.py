"""Property tests: the per-node steering kernel against its reference oracles.

The kernel (safety.constraint_rows, safety.solve_scalar_qp, dynamics.rk4_step,
planner.integrate_closed_loop and safe_steer) works on unpacked floats, takes its
per-run constants from planner.steer_constants, and computes each heading's
cosine and sine once, so that one integration node allocates almost nothing.
The planner's artifacts are byte-reproducible, so the kernel must return
exactly the floats the readable oracles on state objects return, not merely
close ones: every comparison below is `==` plus `repr` equality, which also
tells -0.0 from 0.0, or equality of the raw float64 bytes.
"""

import math
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbfrrt.dynamics import (
    CircularObstacle,
    ControlInput,
    RobotState,
    rk4_step,
    step_grid,
)
from cbfrrt.harness import audit_trajectory
from cbfrrt.planner import (
    PlannerParams,
    Scenario,
    goal_check,
    goal_heading,
    plan,
)
from cbfrrt.safety import TOL_ZERO, constraint_rows, disk_tuple, solve_scalar_qp
from oracles import (
    ConstraintRow,
    ScalarQpProblem,
    closed_loop,
    closed_loop_grid,
    constraint_rows_on_state,
    integrate_closed_loop_on_state,
    qp_controller,
    rk4_step_on_state,
    safe_steer_on_state,
    solve_scalar_qp_on_bounds,
    solve_scalar_qp_reference,
    steer,
)

# a per-example deadline would measure how busy the machine is, not the kernel
PROPERTY = settings(max_examples=300, deadline=None)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


states = st.builds(RobotState, _floats(-10.0, 10.0), _floats(-10.0, 10.0),
                   _floats(-20.0, 20.0))
velocities = st.one_of(st.just((0.0, 0.0)),
                       st.tuples(_floats(-1.0, 1.0), _floats(-1.0, 1.0)))
disks = st.builds(CircularObstacle, st.tuples(_floats(-10.0, 10.0), _floats(-10.0, 10.0)),
                  velocities, _floats(0.01, 2.0))
# default params but for the gains k1 and k2
gains = st.builds(PlannerParams, k1=_floats(1e-3, 10.0), k2=_floats(1e-3, 10.0))


def _identical(got, want):
    assert got == want
    assert repr(got) == repr(want)


def _rows(state, v, obstacles, t, k):
    x1, x2, theta = state
    return constraint_rows(x1, x2, math.cos(theta), math.sin(theta), v,
                           [disk_tuple(ob) for ob in obstacles], t, k.k1, k.k2)


@PROPERTY
@given(states, _floats(-2.0, 2.0), st.lists(disks, max_size=4), _floats(0.0, 50.0), gains)
def test_constraint_rows_match_reference_rows(state, v, obstacles, t, k):
    _identical(_rows(state, v, obstacles, t, k),
               constraint_rows_on_state(state, v, obstacles, t, k))


# |a| <= TOL_ZERO rows take the omega-independent branch; include its edges
coefficients = st.one_of(
    _floats(-5.0, 5.0),
    _floats(-TOL_ZERO, TOL_ZERO),
    st.sampled_from([0.0, -0.0, TOL_ZERO, -TOL_ZERO, 2 * TOL_ZERO, -2 * TOL_ZERO]),
)
rows = st.lists(st.builds(ConstraintRow, coefficients, coefficients), max_size=5)


@st.composite
def problems(draw):
    lo = draw(_floats(-10.0, 10.0))
    hi = draw(st.one_of(st.just(lo), _floats(lo, 10.0)))  # ties at lo == hi
    return ScalarQpProblem(draw(_floats(-20.0, 20.0)), (lo, hi), tuple(draw(rows)))


@PROPERTY
@given(problems())
@example(ScalarQpProblem(0.0, (-4.25, 4.25)))
@example(ScalarQpProblem(0.0, (1.0, 1.0)))
@example(ScalarQpProblem(3.0, (-4.25, 4.25), (ConstraintRow(1.0, -1.0),
                                               ConstraintRow(-1.0, 1.0))))
@example(ScalarQpProblem(0.0, (-4.25, 4.25), (ConstraintRow(1.0, -1.0),
                                               ConstraintRow(-1.0, -1.0))))
@example(ScalarQpProblem(0.0, (-4.25, 4.25), (ConstraintRow(TOL_ZERO, -1.0),)))
@example(ScalarQpProblem(0.0, (-4.25, 4.25), (ConstraintRow(-0.0, -TOL_ZERO),)))
@example(ScalarQpProblem(0.0, (-4.25, 4.25), (ConstraintRow(1.0, 0.0),)))
def test_solve_scalar_qp_matches_interval_clamp_oracle(problem):
    solution = solve_scalar_qp_reference(problem)
    want = None if solution is None else solution.omega_star
    got = solve_scalar_qp(problem.omega_ref, *problem.bounds, problem.rows)
    _identical(got, want)
    _identical(got, solve_scalar_qp_on_bounds(*problem))


# step lengths from a zero step to a long tail, of both signs, and both turn
# directions; omega is often +0.0 or -0.0, the straight steps that reuse the
# heading's trig
controls = st.tuples(_floats(-2.0, 2.0),
                     st.one_of(st.sampled_from([0.0, -0.0]), _floats(-10.0, 10.0)),
                     _floats(-0.5, 0.5))


@PROPERTY
@given(states, st.lists(controls, min_size=1, max_size=6))
# from a -0.0 heading a zero omega can turn the heading to +0.0: -0.0 + 0.0 is
# +0.0, so a straight step that kept th would keep the wrong zero
@example(RobotState(0.5, -1.0, -0.0), [(1.0, 0.0, 0.02)])
@example(RobotState(0.5, -1.0, -0.0), [(1.0, -0.0, 0.02)])
@example(RobotState(0.5, -1.0, -0.0), [(1.0, 0.0, -0.02)])
@example(RobotState(0.5, -1.0, -0.0), [(1.0, -0.0, -0.02)])
@example(RobotState(0.5, -1.0, 0.0), [(1.0, -0.0, 0.02), (1.0, 0.0, -0.02)])
def test_rk4_step_carries_the_heading_trig_to_the_next_node(state, steps):
    # each step's (cos4, sin4) is the next step's (cos_t, sin_t), as it is
    # the next node's in integrate_closed_loop; the state-object oracle takes
    # every cosine and sine afresh
    x1, x2, theta = state
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    want = state
    for v, w, step in steps:
        x1, x2, theta, cos_t, sin_t = rk4_step(x1, x2, theta, cos_t, sin_t, v, w, step)
        want = rk4_step_on_state(want, (v, w), step)
        _identical((x1, x2, theta), tuple(want))
        _identical((cos_t, sin_t), (math.cos(theta), math.sin(theta)))


@st.composite
def grids(draw, max_steps=400):
    """(t_h, dt) that PlannerParams accepts, at most max_steps steps per
    horizon; dt either divides t_h up to rounding or leaves a shorter tail."""
    dt = draw(st.one_of(st.sampled_from([0.02, 0.05, 0.1, 0.25]), _floats(1e-3, 1.0)))
    t_h = draw(st.one_of(
        st.integers(1, max_steps).map(lambda n: n * dt),
        _floats(dt, max_steps * dt),
        st.just(dt * (1 + 1e-12)),
    ))
    PlannerParams(t_h=t_h, dt=dt)  # raises unless the pair is valid
    return t_h, dt


@PROPERTY
@given(grids())
@example((0.25, 0.02))
@example((0.5, 0.02))
@example((0.5, 0.2))
@example((0.02, 0.02))
@example((0.3, 0.1))
@example((0.7, 0.02))
def test_hoisted_grid_is_the_per_call_grid(grid):
    t_h, dt = grid
    times, steps = closed_loop_grid(0.0, t_h, dt)
    assert len(steps) >= 1
    _identical(step_grid(t_h, dt), tuple(zip(steps, times[1:])))


@st.composite
def steering_cases(draw, max_steps=50):
    t_h, dt = draw(grids(max_steps))
    params = replace(
        draw(gains), t_h=t_h, dt=dt, v_const=draw(_floats(0.1, 2.0)),
        omega_bounds=draw(st.sampled_from([(-10.0, 10.0), (-4.25, 4.25), (-1.0, 0.5)])))
    near = st.builds(CircularObstacle,
                     st.tuples(_floats(-2.0, 2.0), _floats(-2.0, 2.0)),
                     velocities, _floats(0.05, 0.5))
    obstacles = tuple(draw(st.lists(near, max_size=3)))
    start = RobotState(draw(_floats(-2.0, 2.0)), draw(_floats(-2.0, 2.0)),
                       draw(_floats(-4.0, 4.0)))
    params = replace(params, omega_ref=draw(st.one_of(st.just(0.0), _floats(-2.0, 2.0))))
    return start, draw(_floats(0.0, 10.0)), obstacles, params


def _swerve_case():
    # planner test_safe_steer_swerves_around_offset_obstacle: an accepted edge
    # along which the QP is active
    ob = CircularObstacle((0.5, 0.15), (0.0, 0.0), 0.2)
    return RobotState(0.0, 0.0, 0.0), 0.0, (ob,), PlannerParams()


def _late_failure_case():
    # head-on at a disk 4 m ahead: the QP holds omega at 0.0 until the node at
    # 3.7 m, where the row (a = 0, b < 0) fails it
    ob = CircularObstacle((4.0, 0.0), (0.0, 0.0), 0.2)
    return RobotState(0.0, 0.0, 0.0), 0.0, (ob,), PlannerParams(t_h=0.5, dt=0.1)


@PROPERTY
@given(steering_cases(max_steps=400))
@example(_swerve_case())
@example(_late_failure_case())
@example((RobotState(0.3, -0.2, 1.1), 2.0, (), PlannerParams(t_h=0.5, dt=0.07)))
def test_integrate_closed_loop_matches_the_state_reference(case):
    # the QP at every node, as the oracle's state-feedback controller: the
    # same floats, and None together
    start, t0, obstacles, params = case
    got = closed_loop(start, t0, obstacles, params)
    want = integrate_closed_loop_on_state(
        start, t0, params.t_h, params.dt,
        qp_controller(params.v_const, params.omega_ref, obstacles, params))
    assert (got is None) == (want is None)
    if want is not None:
        assert got.data.tobytes() == want.data.tobytes()
        assert got.t_end == t0 + params.t_h


@PROPERTY
@given(steering_cases())
@example(_swerve_case())
def test_safe_steer_matches_the_state_reference(case):
    _assert_same_edge(case)


def _tangent_case():
    # a straight edge past a disk whose closest point falls halfway between
    # two nodes: each node clears it by 5e-5 m^2, the chord between them
    # enters it by 5e-5 m^2, and only the node margin (1e-4) refuses the edge
    ob = CircularObstacle((0.25, math.sqrt(0.04 - 5e-5)), (0.0, 0.0), 0.2)
    return RobotState(0.0, 0.0, 0.0), 0.0, (ob,), PlannerParams()


@PROPERTY
@given(steering_cases())
@example(_swerve_case())
@example(_tangent_case())
def test_an_accepted_edge_clears_every_disk_along_its_chords(case):
    # steer_constants' margin argument: a chord's barrier dips at most |e|^2/4
    # below its lower end, and |e| <= (v + |v_disk|) * dt, so a node margin of
    # ((v + |v_disk|) * dt)^2 / 4 keeps the whole chord out of the disk
    start, t, obstacles, params = case
    edge = steer(start, t, obstacles, params)
    if edge is not None and obstacles:
        assert audit_trajectory(edge, obstacles)[1] >= -1e-9


def _assert_same_edge(case):
    start, t, obstacles, params = case
    got = steer(start, t, obstacles, params)
    want = safe_steer_on_state(start, t, ControlInput(params.v_const, params.omega_ref),
                               obstacles, params)
    if want is None:
        assert got is None
    else:
        assert got.data.tobytes() == want.data.tobytes()


# --------------------------------------------------------------- reach bounds
#
# safe_steer scans an edge's nodes only for the disks that start within
# reach of it, and plan calls goal_check only on edges that start within
# reach of the goal. The cases below start at about each reach radius: the
# bound is tight for a robot driven straight at a static disk or at the goal,
# and for a disk driven straight back at the robot, so a start a millimetre
# inside the reach must be scanned, and a start a few ulps of the coordinates
# beyond it is decided by the rounding slack alone.


def _travel(t_h, dt):
    """The summed step lengths of one horizon on the oracle's grid, the
    farthest a unit-speed edge can go."""
    return math.fsum(closed_loop_grid(0.0, t_h, dt)[1])


def _off_reach(scale):
    """An offset from a reach radius: none, up to a millimetre, or up to a few
    ulps of coordinates and times of magnitude scale."""
    tiny = 1e-15 * (1.0 + scale)
    return st.one_of(st.just(0.0), _floats(-1e-3, 1e-3), _floats(-tiny, tiny))


def _disk_at(start, t0, bearing, distance, heading, speed, radius):
    """The disk whose centre lies distance from start along bearing at t0,
    moving along heading at speed."""
    velocity = (speed * math.cos(heading), speed * math.sin(heading))
    center = (start[0] + distance * math.cos(bearing),
              start[1] + distance * math.sin(bearing))
    return CircularObstacle((center[0] - velocity[0] * t0, center[1] - velocity[1] * t0),
                            velocity, radius)


@st.composite
def reach_cases(draw):
    """One to three disks, each about its reach radius from the start at t0,
    static, moving straight back at the start or moving any way; the robot
    heads at the first. Coordinates reach 1e6 m and t0 1e4 s."""
    t_h, dt = draw(grids(max_steps=30))
    v = draw(_floats(0.1, 2.0))
    # a small k2 lets the robot drive at a disk until the margin check stops it
    k = draw(st.one_of(st.builds(PlannerParams, k1=_floats(0.1, 10.0), k2=st.just(1e-3)),
                       gains))
    params = replace(k, t_h=t_h, dt=dt, v_const=v)
    scale = draw(st.sampled_from([1.0, 1e3, 1e6]))
    start = (draw(_floats(-scale, scale)), draw(_floats(-scale, scale)))
    t0 = draw(st.one_of(st.just(0.0), _floats(-1e4, 1e4)))
    n = draw(st.integers(1, 3))
    radii = [draw(_floats(0.05, 0.5)) for _ in range(n)]
    speeds = [draw(st.one_of(st.just(0.0), _floats(0.0, 1.0))) for _ in range(n)]
    bearings = [draw(_floats(-math.pi, math.pi)) for _ in range(n)]
    margin = 0.25 * ((v + max(speeds)) * dt) ** 2
    off = _off_reach(abs(start[0]) + abs(start[1]) + abs(t0))
    obstacles = []
    for r, s, bearing in zip(radii, speeds, bearings):
        heading = draw(st.one_of(st.just(bearing + math.pi), _floats(-math.pi, math.pi)))
        distance = math.sqrt(r * r + margin) + (v + s) * _travel(t_h, dt) + draw(off)
        obstacles.append(_disk_at(start, t0, bearing, distance, heading, s, r))
    theta = bearings[0] + draw(st.one_of(st.just(0.0), _floats(-0.05, 0.05)))
    params = replace(params, omega_ref=draw(st.one_of(st.just(0.0), _floats(-1.0, 1.0))))
    return RobotState(*start, theta), t0, tuple(obstacles), params


def _head_on_case(t_h, dt, speed, offset, start=(0.0, 0.0), t0=0.0):
    """The robot driven straight at a radius-0.2 disk that moves straight back
    at it, the disk's centre offset from its reach radius at t0."""
    params = PlannerParams(t_h=t_h, dt=dt, k1=1.0, k2=1e-3, v_const=1.0)
    margin = 0.25 * ((1.0 + speed) * dt) ** 2
    distance = math.sqrt(0.04 + margin) + (1.0 + speed) * _travel(t_h, dt) + offset
    ob = _disk_at(start, t0, 0.5, distance, 0.5 + math.pi, speed, 0.2)
    return RobotState(*start, 0.5), t0, (ob,), params


@PROPERTY
@given(reach_cases())
# a millimetre inside the reach of a static and of an oncoming disk
@example(_head_on_case(0.25, 0.02, 0.0, -1e-3))
@example(_head_on_case(0.25, 0.02, 0.5, -1e-3, start=(1e6, -1e6), t0=1e4))
# 2 * (1 - 1e-10) steps of dt: 2 full ones would go 1e-10 * dt past t_h, so
# step_grid makes the second the tail, and the steps sum to t_h
@example(_head_on_case(0.5 * (1 - 1e-10), 0.25, 0.0, -2e-11))
# beyond the reach by ulps of 1e5-1e6 m coordinates, and rejected at a node
# by rounding alone: only the slack keeps these disks in the scan
@example((RobotState(332371.7608042337, -548798.761388153, -2.4634405334147957),
          7030.407620656315,
          (CircularObstacle((332371.0907722583, -548799.3011723863), (0.0, 0.0), 0.35),),
          PlannerParams(t_h=0.3, dt=0.02, k1=1.0, k2=1e-3, v_const=1.7)))
@example((RobotState(185261.33332287337, 0.0, -2.0712570828163335), -7033.82088603836,
          (CircularObstacle((186947.77057288954, 3083.6248885963873),
                            (0.23991491957475353, 0.4386807852703826), 0.35),),
          PlannerParams(t_h=1.9000000000000001, dt=0.1, k1=1.0, k2=1e-3, v_const=0.5)))
def test_safe_steer_reach_bound_keeps_the_full_scan_verdict(case):
    _assert_same_edge(case)


@st.composite
def goal_cases(draw):
    """A one-iteration plan with no heading noise: its one edge heads
    straight at a goal about the goal reach (epsilon + v * travel) away."""
    t_h, dt = draw(grids(max_steps=30))
    v = draw(_floats(0.1, 2.0))
    epsilon = draw(_floats(0.01, 0.5))
    params = PlannerParams(t_h=t_h, dt=dt, sigma2=0.0, epsilon=epsilon, v_const=v,
                           omega_ref=draw(st.one_of(st.just(0.0), _floats(-1.0, 1.0))),
                           max_iters=1)
    scale = draw(st.sampled_from([1.0, 1e3, 1e6]))
    start = (draw(_floats(-scale, scale)), draw(_floats(-scale, scale)))
    bearing = draw(_floats(-math.pi, math.pi))
    distance = epsilon + v * _travel(t_h, dt) + draw(_off_reach(abs(start[0]) + abs(start[1])))
    goal = (start[0] + distance * math.cos(bearing), start[1] + distance * math.sin(bearing))
    t0 = draw(st.one_of(st.just(0.0), _floats(-1e4, 1e4)))
    return Scenario(RobotState(*start, 0.0), t0, goal, (), params)


@PROPERTY
@given(goal_cases())
# beyond the goal reach by ulps of 1e6 m coordinates, yet its last node is in
# the goal region by rounding alone
@example(Scenario(RobotState(754369.7843131622, 853943.007184872, 0.0), 0.0,
                  (754369.6320383697, 853943.1208175597), (),
                  PlannerParams(t_h=0.14, dt=0.02, sigma2=0.0, epsilon=0.05, max_iters=1)))
def test_goal_pre_test_never_skips_an_edge_that_reaches_the_goal(scenario):
    # sigma2 = 0 draws the goal heading itself, so plan's one edge is this one
    params = scenario.params
    x1, x2, _ = scenario.x_init
    heading = goal_heading((x1, x2), scenario.x_goal)
    edge = steer((x1, x2, heading), scenario.t_init, (), params)
    assert plan(scenario).success == goal_check(edge, scenario.x_goal, params.epsilon)
