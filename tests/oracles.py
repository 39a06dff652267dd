"""Reference implementations the tests compare the package against.

None of these run in the planner or the harness; each is an independent
oracle for a behaviour the package implements another way, except
write_scenario, the inverse of load_scenario, which only tests need, and
steer and closed_loop, through which the tests call the package's
safe_steer and integrate_closed_loop, so that a change to those signatures
is one edit here.
"""

import base64
import itertools
import json
import math
import random
import struct
from array import array
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from cbfrrt.baselines import (BaselineParams, Point, endpoint_collision_check, static_disks,
                              steer_straight)
from cbfrrt.dynamics import (
    CircularObstacle,
    ControlInput,
    RobotState,
    Trajectory,
    TrajectorySample,
    obstacle_center_at,
)
from cbfrrt.harness import AUDIT_TOL, ScenarioFile
from cbfrrt.planner import (PlannerParams, PlanTree, Scenario, in_goal_region,
                            integrate_closed_loop, root_path, safe_steer, steer_constants)
from cbfrrt.safety import TOL_ZERO, barrier_value


@dataclass(frozen=True)
class StateDerivative:
    dx1: float
    dx2: float
    dtheta: float


def unicycle_vector_field(state: RobotState, control: ControlInput) -> StateDerivative:
    """Right-hand side of the unicycle model at (state, control)."""
    return StateDerivative(
        control.v * math.cos(state.theta),
        control.v * math.sin(state.theta),
        control.omega,
    )


def trajectory_from_samples(samples: Sequence[TrajectorySample]) -> Trajectory:
    """The Trajectory whose samples view is `samples`: the rows written into
    one flat buffer in column order."""
    data = array("d")
    for t, (x1, x2, theta), (v, omega) in samples:
        data.extend((t, x1, x2, theta, v, omega))
    return Trajectory(data)


def barrier_lie1(
    state: RobotState, v_const: float, obstacle: CircularObstacle, t: float
) -> float:
    """Total time derivative of the barrier along the robot+obstacle flow.

    Depends only on the fixed translational speed, not on omega (relative
    degree 2).
    """
    cx, cy = obstacle_center_at(obstacle, t)
    d1 = state.x1 - cx
    d2 = state.x2 - cy
    rho1 = v_const * math.cos(state.theta) - obstacle.velocity[0]
    rho2 = v_const * math.sin(state.theta) - obstacle.velocity[1]
    return 2.0 * d1 * rho1 + 2.0 * d2 * rho2


class ConstraintRow(NamedTuple):
    """Half-line constraint on the angular rate: a*omega + b >= 0. Equal to
    the kernel's plain (a, b) pair with the same floats."""

    a: float
    b: float


def ecbf_row_reference(
    state: RobotState,
    v_const: float,
    obstacle: CircularObstacle,
    t: float,
    params: PlannerParams,
) -> ConstraintRow:
    """The exponential-CBF row for one obstacle, written out on the objects.

    The kernel (safety.constraint_rows) must produce the same floats, in the
    same order of operations, from unpacked state and obstacle fields.
    """
    cx, cy = obstacle_center_at(obstacle, t)
    d1 = state.x1 - cx
    d2 = state.x2 - cy
    cos_t = math.cos(state.theta)
    sin_t = math.sin(state.theta)
    rho1 = v_const * cos_t - obstacle.velocity[0]
    rho2 = v_const * sin_t - obstacle.velocity[1]

    h = d1 * d1 + d2 * d2 - obstacle.radius * obstacle.radius
    h_dot = 2.0 * d1 * rho1 + 2.0 * d2 * rho2
    a = 2.0 * v_const * (d2 * cos_t - d1 * sin_t)
    b = 2.0 * (rho1 * rho1 + rho2 * rho2) + params.k1 * h + params.k2 * h_dot
    return ConstraintRow(a, b)


class ScalarQpProblem(NamedTuple):
    """min (omega - omega_ref)^2 s.t. a_i*omega + b_i >= 0 and bounds =
    (lo, hi): safety.solve_scalar_qp(omega_ref, lo, hi, rows)."""

    omega_ref: float
    bounds: tuple[float, float]
    rows: tuple[ConstraintRow, ...] = ()


class QpSolution(NamedTuple):
    omega_star: float
    active_interval: tuple[float, float]


def feasible_interval(problem: ScalarQpProblem) -> Optional[tuple[float, float]]:
    """Intersect the box with every half-line row.

    Returns the (lo, hi) interval, or None when the intersection is empty
    (some row demands an omega outside the bounds, or an omega-independent
    row is violated outright).
    """
    lo, hi = problem.bounds
    for row in problem.rows:
        if abs(row.a) <= TOL_ZERO:
            if row.b < -TOL_ZERO:
                return None
            continue
        bound = -row.b / row.a
        if row.a > 0.0:
            lo = max(lo, bound)
        else:
            hi = min(hi, bound)
        if lo > hi:
            return None
    return (lo, hi)


def solve_scalar_qp_reference(problem: ScalarQpProblem) -> Optional[QpSolution]:
    """Exact minimizer: clamp the reference into the feasible interval."""
    interval = feasible_interval(problem)
    if interval is None:
        return None
    lo, hi = interval
    omega = min(max(problem.omega_ref, lo), hi)
    return QpSolution(omega_star=omega, active_interval=interval)


# -- the steering kernel on state objects ----------------------------------
#
# The same kernel as safety.constraint_rows, safety.solve_scalar_qp,
# dynamics.rk4_step, planner.integrate_closed_loop and planner.safe_steer,
# written on RobotState / CircularObstacle / PlannerParams objects, with every
# per-run constant (squared radii, gains, bounds, step grid, node margin) and
# every heading's cosine and sine recomputed where it is used, a straight
# step's included (rk4_step reuses its heading's cosine and sine when omega
# is 0.0). The QP at each node is qp_controller, a state-feedback controller
# of integrate_closed_loop_on_state. ecbf_row_reference is the reference of
# safety.ecbf_row. The package's float-and-tuple kernel must return exactly
# these floats.


def constraint_rows_on_state(
    state: RobotState,
    v_const: float,
    obstacles: Sequence[CircularObstacle],
    t: float,
    params: PlannerParams,
) -> list[tuple[float, float]]:
    """One ECBF row (a, b) per obstacle, in input order, with params' gains."""
    return [tuple(ecbf_row_reference(state, v_const, ob, t, params)) for ob in obstacles]


def solve_scalar_qp_on_bounds(
    omega_ref: float,
    bounds: tuple[float, float],
    rows: Sequence[tuple[float, float]],
) -> Optional[float]:
    """The scalar QP's minimizer for bounds = (lo, hi), or None when
    infeasible."""
    problem = ScalarQpProblem(omega_ref, bounds, tuple(ConstraintRow(*r) for r in rows))
    solution = solve_scalar_qp_reference(problem)
    return None if solution is None else solution.omega_star


def rk4_step_on_state(state: RobotState, control: tuple[float, float],
                      dt: float) -> RobotState:
    """One RK4 step under zero-order-hold (v, omega), taking every stage's
    cosine and sine afresh."""
    x1, x2, th = state
    v, w = control
    k1x = v * math.cos(th)
    k1y = v * math.sin(th)
    th2 = th + 0.5 * dt * w
    k2x = v * math.cos(th2)
    k2y = v * math.sin(th2)
    th4 = th + dt * w
    k4x = v * math.cos(th4)
    k4y = v * math.sin(th4)
    return RobotState(
        x1 + dt / 6.0 * (k1x + 4.0 * k2x + k4x),
        x2 + dt / 6.0 * (k1y + 4.0 * k2y + k4y),
        th4,
    )


def integrate_closed_loop_on_state(
    initial: RobotState,
    t0: float,
    horizon: float,
    dt: float,
    controller: Callable[[RobotState, float], Optional[tuple[float, float]]],
) -> Optional[Trajectory]:
    """Closed-loop RK4 on closed_loop_grid(t0, horizon, dt), computed on each
    call, under a state-feedback controller returning (v, omega) or None; the
    last node repeats the last control."""
    times, steps = closed_loop_grid(t0, horizon, dt)
    rows: list[float] = []
    state = initial
    for t, step in zip(times, steps):
        control = controller(state, t)
        if control is None:
            return None
        rows += (t, *state, *control)
        state = rk4_step_on_state(state, control, step)
    rows += (times[-1], *state, *control)
    return Trajectory(array("d", rows))


def qp_controller(
    v: float,
    omega_ref: float,
    obstacles: Sequence[CircularObstacle],
    params: PlannerParams,
) -> Callable[[RobotState, float], Optional[tuple[float, float]]]:
    """The per-node safety QP as a controller for
    integrate_closed_loop_on_state: (v, omega), omega the projection of
    omega_ref onto the rows at (state, t) and params.omega_bounds, or None
    when the QP is infeasible."""

    def controller(state, t):
        rows = constraint_rows_on_state(state, v, obstacles, t, params)
        omega = solve_scalar_qp_on_bounds(omega_ref, params.omega_bounds, rows)
        return None if omega is None else (v, omega)

    return controller


def safe_steer_on_state(
    state: RobotState,
    t: float,
    u_ref: ControlInput,
    obstacles: Sequence[CircularObstacle],
    params: PlannerParams,
) -> Optional[Trajectory]:
    """One filtered edge from the state objects: the QP at every node, then
    h >= margin at every node, with margin = 0.25 * ((v + v_obs) * dt)^2."""
    v, omega_ref = u_ref
    edge = integrate_closed_loop_on_state(state, t, params.t_h, params.dt,
                                          qp_controller(v, omega_ref, obstacles, params))
    if edge is None:
        return None
    v_obs = max((math.hypot(*ob.velocity) for ob in obstacles), default=0.0)
    margin = 0.25 * ((v + v_obs) * params.dt) ** 2
    for node in edge.samples:
        for ob in obstacles:
            if barrier_value(node.state, ob, node.t) < margin:
                return None
    return edge


def is_safe(
    state: RobotState, obstacles: Sequence[CircularObstacle], t: float
) -> bool:
    """True iff the state is outside (or on the boundary of) every disk at time t."""
    return all(barrier_value(state, obs, t) >= 0.0 for obs in obstacles)


def node_min_barrier(
    trajectory: Trajectory, obstacles: Sequence[CircularObstacle]
) -> float:
    """The least barrier_value over the trajectory's nodes, each disk taken
    at the node's time: the audit's exact chord minimum can only be at or
    below it, and is below it where a chord dips between two nodes."""
    return min(barrier_value(sample.state, obstacle, sample.t)
               for sample in trajectory.samples for obstacle in obstacles)


def edge_collision_audit(
    p0: Point,
    p1: Point,
    obstacles: Sequence[CircularObstacle],
    resolution: float,
) -> bool:
    """Dense oracle: check points every `resolution` meters along the
    segment, plus both endpoints. True iff every probe is safe."""
    if not resolution > 0.0:
        raise ValueError(f"resolution must be > 0, got {resolution}")
    length = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
    n = int(length / resolution)
    disks = static_disks(obstacles)
    for k in range(n + 1):
        s = k * resolution / length if length > 0.0 else 0.0
        probe = (p0[0] + s * (p1[0] - p0[0]), p0[1] + s * (p1[1] - p0[1]))
        if not endpoint_collision_check(probe, disks):
            return False
    return endpoint_collision_check(p1, disks)


def sampled_chord_barriers(
    trajectory: Trajectory, obstacles: Sequence[CircularObstacle], m: int
) -> list[tuple[float, float]]:
    """Sampling oracle of the audit: one (least, ee) per interval between two
    nodes and per disk. least is the smallest barrier at m + 1 evenly spaced
    points of the interval, both nodes included, with the robot interpolated
    linearly and the disk's centre taken at the interpolated time. ee is e.e,
    e being the change of the robot's offset from the centre over the
    interval: the barrier is ee * s^2 plus lower terms in s, so between two
    samples, 1/m apart, it dips at most ee / (4 m^2) below the nearer one."""
    rows = trajectory.samples
    out = []
    for a, b in zip(rows, rows[1:]):
        for ob in obstacles:
            def offset(s):
                t = a.t + s * (b.t - a.t)
                return (a.state.x1 + s * (b.state.x1 - a.state.x1)
                        - (ob.center0[0] + ob.velocity[0] * t),
                        a.state.x2 + s * (b.state.x2 - a.state.x2)
                        - (ob.center0[1] + ob.velocity[1] * t))
            least = min(math.fsum(d * d for d in offset(j / m)) - ob.radius ** 2
                        for j in range(m + 1))
            (p1, p2), (q1, q2) = offset(0.0), offset(1.0)
            out.append((least, (q1 - p1) ** 2 + (q2 - p2) ** 2))
    return out


def audit_reference(
    trajectory: Trajectory, obstacles: Sequence[CircularObstacle]
) -> tuple[bool, Optional[float]]:
    """harness.audit_trajectory vectorised with numpy, one pass per disk over
    the (n, 6) view of the node buffer: the same nodes and chord minima in
    the same arithmetic, so the same min_barrier bit for bit, the same
    verdict and the same ValueError. The disk's square is r * r, as the
    audit's, which a wide disk overflows to inf rather than raising."""
    if not trajectory:
        raise ValueError("the trajectory has no nodes to audit")
    rows = np.frombuffer(trajectory.data).reshape(-1, 6)
    ts, x1, x2 = rows[:, 0], rows[:, 1], rows[:, 2]
    back = np.flatnonzero(ts[1:] < ts[:-1])
    if back.size:
        k = int(back[0]) + 1
        raise ValueError(f"node {k}: t={float(ts[k])!r} is before the previous "
                         f"node's t={float(ts[k - 1])!r}")
    if not obstacles:
        return True, None
    min_h = math.inf
    with np.errstate(all="ignore"):  # inf and NaN nodes are part of the domain
        for obstacle in obstacles:
            d1 = x1 - (obstacle.center0[0] + obstacle.velocity[0] * ts)
            d2 = x2 - (obstacle.center0[1] + obstacle.velocity[1] * ts)
            e1, e2 = np.diff(d1), np.diff(d2)
            ee = e1 * e1 + e2 * e2
            s = np.divide(-(d1[:-1] * e1 + d2[:-1] * e2), ee,
                          out=np.zeros_like(ee), where=ee > 0.0)
            np.clip(s, 0.0, 1.0, out=s)
            m1 = np.append(d1, d1[:-1] + s * e1)
            m2 = np.append(d2, d2[:-1] + s * e2)
            h = m1 ** 2 + m2 ** 2 - obstacle.radius * obstacle.radius
            # np.minimum keeps a NaN, which then fails the comparison below
            min_h = float(np.minimum(min_h, h.min()))
    return min_h >= AUDIT_TOL, min_h


def sample_point_reference(goal: Point, params: BaselineParams,
                           rng: random.Random) -> Point:
    """One baseline sample drawn call by call: the bias coin as
    rng.random(), drawn whatever goal_bias is, then x and y as
    rng.uniform over sample_bounds (degenerate sides allowed)."""
    if rng.random() < params.goal_bias:
        return goal
    (x_lo, x_hi), (y_lo, y_hi) = params.sample_bounds
    return (rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi))


def sq_dists_reference(points: np.ndarray, point: Point) -> np.ndarray:
    """Squared distances from point to each row of an (n, 2) position array,
    as an einsum over the rows."""
    d = points - np.asarray(point)
    return np.einsum("ij,ij->i", d, d)


def nearest_neighbor_reference(points: np.ndarray, sample: Point) -> int:
    """Id of the nearest of an (n, 2) position array's rows, ties to the
    lowest id."""
    return int(np.argmin(sq_dists_reference(points, sample)))


def near_set_reference(points: np.ndarray, point: Point,
                       radius: float) -> tuple[np.ndarray, np.ndarray]:
    """RRT*'s distances to each row of an (n, 2) position array, and the ids
    within radius (none when radius is 0)."""
    dists = np.sqrt(sq_dists_reference(points, point))
    near = np.flatnonzero(dists <= radius) if radius > 0.0 else np.empty(0, int)
    return dists, near


class GrownTree(NamedTuple):
    """What grow_reference grows: the tree as plain lists, the iterations
    run, and the found path's polyline rows (t, x1, x2, theta, v, omega),
    or None."""

    parents: list
    xs: list
    ys: list
    costs: list
    iterations: int
    path: Optional[list]


def grow_reference(scenario: Scenario, params: BaselineParams, seed: int,
                   rewire: bool) -> GrownTree:
    """The baselines' growth loop written plainly: each iteration draws its
    sample with sample_point_reference from a random.Random(seed) of its
    own, finds the nearest vertex with nearest_neighbor_reference over every
    vertex, steers with the package's steer_straight, tests the end point,
    and then takes x_new's near set from near_set_reference, at radius
    min(rewire_gamma * sqrt(log n / n), delta_d) for RRT* (n vertices) and
    0 for RRT. The new vertex joins the cheapest of its nearest vertex and
    near set (1e-12 slack), then each near vertex moves under it where that
    is cheaper, its subtree's costs shifted with it. RRT returns at its
    first goal vertex, RRT* after the whole budget with its cheapest one."""
    rng = random.Random(seed)
    goal, epsilon = scenario.x_goal, scenario.params.epsilon
    disks = static_disks(scenario.obstacles)
    points = [scenario.x_init.position()]
    parents, costs, children = [None], [0.0], [[]]
    goal_ids, iterations = [], 0
    if in_goal_region(points[0], goal, epsilon):  # a start in the goal region
        goal_ids.append(0)
        rewire = False
    for iteration in range(1, params.max_iters + 1):
        if goal_ids and not rewire:
            break
        iterations = iteration
        sample = sample_point_reference(goal, params, rng)
        rows = np.array(points)
        nn = nearest_neighbor_reference(rows, sample)
        if sample == points[nn]:
            continue
        x_new = steer_straight(points[nn], sample, params.delta_d)
        if not endpoint_collision_check(x_new, disks):
            continue
        n = len(points)
        radius = (min(params.rewire_gamma * math.sqrt(math.log(n) / n), params.delta_d)
                  if rewire else 0.0)
        dists, near = near_set_reference(rows, x_new, radius)
        dists, near = dists.tolist(), near.tolist()
        parent, cost = nn, costs[nn] + dists[nn]
        for j in near:
            if costs[j] + dists[j] < cost - 1e-12:
                parent, cost = j, costs[j] + dists[j]
        vid = len(points)
        points.append(x_new)
        parents.append(parent)
        costs.append(cost)
        children.append([])
        children[parent].append(vid)
        for j in near:
            if j != parent and cost + dists[j] < costs[j] - 1e-12:
                children[parents[j]].remove(j)
                parents[j] = vid
                children[vid].append(j)
                delta = cost + dists[j] - costs[j]
                subtree = [j]
                while subtree:
                    w = subtree.pop()
                    costs[w] += delta
                    subtree += children[w]
        if in_goal_region(x_new, goal, epsilon):
            goal_ids.append(vid)
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    if not goal_ids:
        return GrownTree(parents, xs, ys, costs, iterations, None)
    best = min(goal_ids, key=lambda g: costs[g])
    path = [points[v] for v in root_path(parents, best)]
    v = scenario.params.v_const
    t, heading, rows = scenario.t_init, scenario.x_init.theta, []
    for p, q in zip(path, path[1:]):
        heading = math.atan2(q[1] - p[1], q[0] - p[0])
        rows.append((t, p[0], p[1], heading, v, 0.0))
        t += math.hypot(q[0] - p[0], q[1] - p[1]) / v
    rows.append((t, *path[-1], heading, v if len(path) > 1 else 0.0, 0.0))
    return GrownTree(parents, xs, ys, costs, iterations, rows)


@dataclass(frozen=True)
class BoxQpSolution:
    u_star: tuple[float, ...]
    active_set: tuple[int, ...]


def solve_box_qp(
    u_ref: Sequence[float],
    rows: Sequence[tuple[Sequence[float], float]],
    bounds: Optional[Sequence[tuple[Optional[float], Optional[float]]]] = None,
    feas_tol: float = 1e-9,
) -> Optional[BoxQpSolution]:
    """min ||u - u_ref||^2 s.t. g_j . u + c_j >= 0 for each row and box bounds.

    Exact for dimension <= 3 via exhaustive active-set enumeration: every
    candidate active set (treated as equalities) yields a least-distance
    projection, which is kept if it satisfies all constraints. Candidates are
    visited in (cardinality, lexicographic index) order, so equal-objective
    ties resolve to the smallest active set, then the lowest indices.

    Args:
        u_ref: reference point, dimension n <= 3.
        rows: (coefficient vector, constant) pairs meaning g.u + c >= 0.
        bounds: per-dimension (lo, hi); None entries are unbounded. Box
            constraints are appended after the rows in index order
            (lo before hi per dimension).
        feas_tol: constraint slack tolerance for accepting a candidate.

    Returns:
        BoxQpSolution with the optimizer and the active constraint indices,
        or None when no candidate active set yields a feasible point.
    """
    u_ref = np.asarray(u_ref, dtype=float)
    n = u_ref.shape[0]
    if n > 3:
        raise ValueError(f"solve_box_qp supports dimension <= 3, got {n}")

    g_list: list[np.ndarray] = []
    c_list: list[float] = []
    for coeffs, const in rows:
        g = np.asarray(coeffs, dtype=float)
        if g.shape != (n,):
            raise ValueError(f"row coefficient shape {g.shape} != ({n},)")
        g_list.append(g)
        c_list.append(float(const))
    if bounds is not None:
        for i, (lo, hi) in enumerate(bounds):
            e = np.zeros(n)
            if lo is not None:
                e_lo = e.copy()
                e_lo[i] = 1.0
                g_list.append(e_lo)
                c_list.append(-float(lo))
            if hi is not None:
                e_hi = e.copy()
                e_hi[i] = -1.0
                g_list.append(e_hi)
                c_list.append(float(hi))

    m = len(g_list)
    G = np.array(g_list).reshape(m, n) if m else np.zeros((0, n))
    c = np.array(c_list)

    def residuals(u: np.ndarray) -> np.ndarray:
        return G @ u + c if m else np.zeros(0)

    best: Optional[tuple[float, tuple[int, ...], np.ndarray]] = None
    for k in range(min(n, m) + 1):
        for subset in itertools.combinations(range(m), k):
            if k == 0:
                u = u_ref.copy()
            else:
                Gs = G[list(subset)]
                d = Gs @ u_ref + c[list(subset)]
                try:
                    lam = np.linalg.solve(Gs @ Gs.T, d)
                except np.linalg.LinAlgError:
                    continue  # dependent gradients; an independent subset covers it
                u = u_ref - Gs.T @ lam
            if m and residuals(u).min() < -feas_tol:
                continue
            obj = float(np.dot(u - u_ref, u - u_ref))
            if best is None or obj < best[0] - 1e-15:
                best = (obj, subset, u)
    if best is None:
        return None
    _, subset, u = best
    return BoxQpSolution(u_star=tuple(float(x) for x in u), active_set=subset)


def _edge_buffers(tree: PlanTree) -> list[array]:
    """Every edge's nodes, the root's one node first, read through tree.edge."""
    return [tree.edge(i).data for i in range(len(tree))]


def _plan_tree_vertices(tree: PlanTree) -> list[dict]:
    """A cbf-rrt tree's vertex list: each vertex the last node of its edge."""
    nodes = [data[-6:-2] for data in _edge_buffers(tree)]
    return [{"id": i, "x1": x1, "x2": x2, "theta": theta, "t": t, "parent": parent}
            for i, ((t, x1, x2, theta), parent) in enumerate(zip(nodes, tree.parents))]


def full_tree_json_reference(algorithm: str, tree) -> str:
    """tree.json with every edge node read from the edge's own buffer: the
    document written before schema 2, json.dumps of dicts, each cbf-rrt edge
    a "samples" list of (t, x1, x2, theta, v, omega) rows, and the baseline
    document written before schema 3."""
    if isinstance(tree, PlanTree):
        vertices = _plan_tree_vertices(tree)
        edges = [{"id": i, "parent": parent, "child": i,
                  "samples": [list(data[j:j + 6]) for j in range(0, len(data), 6)]}
                 for i, (parent, data)
                 in enumerate(zip(tree.parents[1:], _edge_buffers(tree)[1:]), 1)]
    else:
        vertices = [{"id": i, "x": x, "y": y, "parent": parent, "cost": cost}
                    for i, x, y, parent, cost in zip(
                        range(len(tree)), tree.xs, tree.ys,
                        tree.parents, tree.costs)]
        edges = [{"parent": parent, "child": i}
                 for i, parent in enumerate(tree.parents[1:], 1)]
    doc = {"algorithm": algorithm, "vertices": vertices, "edges": edges}
    return json.dumps(doc) + "\n"


def pack_f8(values) -> str:
    """base64 of the values packed one by one as little-endian float64."""
    values = list(values)
    return base64.b64encode(struct.pack("<%dd" % len(values), *values)).decode()


def unpack_f8(text: str) -> list[float]:
    """The floats of a base64 '<f8' column; raises on a partial float."""
    raw = base64.b64decode(text, validate=True)
    return list(struct.unpack("<%dd" % (len(raw) // 8), raw))


def tree_json_reference(algorithm: str, tree, params: PlannerParams) -> str:
    """tree.json as json.dumps of its schema-3 document, each float column
    packed value by value with struct; harness._format_tree_json gathers the
    columns with array slices. A cbf-rrt document writes dt, t_h and v_const, the
    parents, each non-root edge's node count, the vertex columns, and over
    those edges theta0, the inner nodes' x1 and x2, and the applied omegas."""
    doc = {"algorithm": algorithm, "schema": 3}
    if not isinstance(tree, PlanTree):
        doc.update(parents=list(tree.parents), xs=pack_f8(tree.xs),
                   ys=pack_f8(tree.ys), costs=pack_f8(tree.costs))
        return json.dumps(doc) + "\n"
    buffers = _edge_buffers(tree)
    edges = buffers[1:]
    doc.update(dt=float(params.dt), t_h=float(params.t_h), v=float(params.v_const),
               parents=list(tree.parents), nodes=[len(data) // 6 for data in edges])
    for key, column in (("t", -6), ("x1", -5), ("x2", -4), ("theta", -3)):
        doc[key] = pack_f8(data[column] for data in buffers)
    doc.update(theta0=pack_f8(data[3] for data in edges),
               inner_x1=pack_f8(x for data in edges for x in data[7:-6:6]),
               inner_x2=pack_f8(x for data in edges for x in data[8:-6:6]),
               omega=pack_f8(x for data in edges for x in data[5:-6:6]))
    return json.dumps(doc) + "\n"


def expand_tree_json(text: str) -> str:
    """The full document (full_tree_json_reference's bytes) rebuilt from a
    schema-3 tree.json. A baseline document needs only its columns unpacked.
    A cbf-rrt edge's dropped floats are recomputed by the rules of
    planner.integrate_closed_loop and rk4_step: the first node's (t, x1, x2)
    is the parent vertex, the last node the child vertex; inner node k's t
    is t0 + k*dt and its theta theta[k-1] + dt*omega[k-1]; every v is
    v_const; the last node repeats the last omega."""
    doc = json.loads(text)
    if doc.get("schema") != 3:
        raise ValueError(f"tree.json schema {doc.get('schema')!r} is not 3")
    parents = doc["parents"]
    if doc["algorithm"] != "cbf-rrt":
        columns = zip(parents, *(unpack_f8(doc[key]) for key in ("xs", "ys", "costs")),
                      strict=True)
        vertices = [{"id": i, "x": x, "y": y, "parent": parent, "cost": cost}
                    for i, (parent, x, y, cost) in enumerate(columns)]
        edges = [{"parent": parent, "child": i}
                 for i, parent in enumerate(parents[1:], 1)]
        doc = {"algorithm": doc["algorithm"], "vertices": vertices, "edges": edges}
        return json.dumps(doc) + "\n"
    dt, v = doc["dt"], doc["v"]
    columns = zip(parents, *(unpack_f8(doc[key]) for key in ("t", "x1", "x2", "theta")),
                  strict=True)
    vertices = [{"id": i, "x1": x1, "x2": x2, "theta": theta, "t": t, "parent": parent}
                for i, (parent, t, x1, x2, theta) in enumerate(columns)]
    theta0s, omegas = unpack_f8(doc["theta0"]), unpack_f8(doc["omega"])
    inner_x1, inner_x2 = unpack_f8(doc["inner_x1"]), unpack_f8(doc["inner_x2"])
    edges = []
    inner = steps = 0
    for child, (parent, n, theta) in enumerate(
            zip(parents[1:], doc["nodes"], theta0s, strict=True), 1):
        first, last = vertices[parent], vertices[child]
        t0, omega = first["t"], omegas[steps:steps + n - 1]
        samples = [[t0, first["x1"], first["x2"], theta, v, omega[0]]]
        for k in range(1, n - 1):
            theta = theta + dt * omega[k - 1]
            samples.append([t0 + k * dt, inner_x1[inner + k - 1],
                            inner_x2[inner + k - 1], theta, v, omega[k]])
        samples.append([last["t"], last["x1"], last["x2"], last["theta"], v,
                        omega[-1]])
        edges.append({"id": child, "parent": parent, "child": child,
                      "samples": samples})
        inner += n - 2
        steps += n - 1
    if (inner, steps) != (len(inner_x1), len(omegas)) or len(inner_x2) != inner:
        raise ValueError("tree.json: edge columns do not match the node counts")
    doc = {"algorithm": doc["algorithm"], "vertices": vertices, "edges": edges}
    return json.dumps(doc) + "\n"


def closed_loop_grid(t0: float, horizon: float, dt: float):
    """Node times and step lengths of planner.integrate_closed_loop over
    [t0, t0 + horizon], counted out from the grid's contract: a dt step
    while the float n * dt after it stays <= horizon, then the remainder as
    one shorter tail step unless it is rounding residue (at most 1e-9 of
    max(1, horizon)), the last node landing on t0 + horizon."""
    n_full = 0
    while (n_full + 1) * dt <= horizon:
        n_full += 1
    remainder = horizon - n_full * dt
    steps = [dt] * n_full
    if remainder > 1e-9 * max(1.0, abs(horizon)):
        steps.append(remainder)
    times = [t0] + [t0 + k * dt for k in range(1, len(steps))] + [t0 + horizon]
    return times, steps


def integration_rule_violations(tree: PlanTree, params: PlannerParams) -> list[str]:
    """What a cbf-rrt tree.json leaves out of each non-root edge, checked
    on the edge's own buffer: t on closed_loop_grid, v == v_const,
    theta[k+1] == theta[k] + step[k]*omega[k], and the last omega repeating
    the one before. Floats are compared by repr, so -0.0 is not 0.0.
    Returns one line per broken rule, empty when every edge obeys them."""
    problems = []
    for vid in range(1, len(tree)):
        edge = tree.edge(vid)
        d = edge.data
        times, steps = closed_loop_grid(d[0], params.t_h, params.dt)
        thetas, omegas = d[3::6], d[5::6]
        if len(steps) != len(edge) - 1:
            problems.append(f"edge {vid}: {len(edge)} nodes for {len(steps)} steps")
            continue
        if list(map(repr, d[0::6])) != list(map(repr, times)):
            problems.append(f"edge {vid}: t off the integration grid")
        if any(repr(v) != repr(params.v_const) for v in d[4::6]):
            problems.append(f"edge {vid}: v is not v_const")
        for k, step in enumerate(steps):
            if repr(thetas[k + 1]) != repr(thetas[k] + step * omegas[k]):
                problems.append(f"edge {vid}: theta[{k + 1}] is not "
                                f"theta[{k}] + step*omega[{k}]")
        if repr(omegas[-1]) != repr(omegas[-2]):
            problems.append(f"edge {vid}: the last omega does not repeat")
    return problems


def extract_path_reference(tree: PlanTree, goal_vertex: int) -> Trajectory:
    """Root-to-vertex path, from the root's one node, that drops a junction
    node only when the earlier edge's last (t, x1, x2) and the later edge's
    first agree to 1e-9; planner.extract_path drops it unconditionally."""
    out = tree.edge(0).data
    for vid in root_path(tree.parents, goal_vertex)[1:]:
        edge = tree.edge(vid).data
        if out and all(abs(p - q) <= 1e-9 for p, q in zip(out[-6:-3], edge[:3])):
            del out[-6:]
        out += edge
    return Trajectory(out)


def write_scenario(scenario_file: ScenarioFile, path):
    """Inverse of harness.load_scenario; round-trips field-for-field."""
    s = scenario_file.scenario
    doc = {
        "schema": 1,
        "x_init": [s.x_init.x1, s.x_init.x2, s.x_init.theta],
        "t_init": s.t_init,
        "x_goal": list(s.x_goal),
        "goal_horizon": scenario_file.goal_horizon,
        "obstacles": [
            {"center": list(o.center0), "radius": o.radius,
             "velocity": list(o.velocity)}
            for o in s.obstacles
        ],
        "planner": asdict(s.params),
        "baseline": asdict(scenario_file.baseline),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def steer(state, t: float, obstacles: Sequence[CircularObstacle],
          params: PlannerParams) -> Optional[Trajectory]:
    """planner.safe_steer from state (x1, x2, theta) at time t, under
    steer_constants(obstacles, params)."""
    return safe_steer(state, t, steer_constants(obstacles, params))


def closed_loop(state, t0: float, obstacles: Sequence[CircularObstacle],
                params: PlannerParams) -> Optional[Trajectory]:
    """planner.integrate_closed_loop from state (x1, x2, theta) at time t0,
    under steer_constants(obstacles, params)."""
    return integrate_closed_loop(state, t0, steer_constants(obstacles, params))
