"""CBF-RRT: grow a time-stamped tree with QP-filtered safe steering.

Each expansion draws a tree vertex uniformly, resamples the free heading
toward the goal, and integrates the closed loop under the per-node safety QP
toward the constant reference omega_ref for one fixed horizon. There is no
nearest-neighbor search anywhere in the loop. Edges are added only when
every QP along the way was feasible and the integrated edge clears every
disk with margin (see safe_steer for why QP feasibility alone is not
enough).

A vertex is the last node of the edge that reached it, so it carries
(state, time): obstacles move, and a vertex is only known to be safe at its
own timestamp. Its heading is the arrival heading; expansion overwrites it
(the heading is a free variable, so edge start states match their parent
vertex in position and time, not heading).

Randomness is a single seeded PCG64 stream per plan() call (rng.pcg64_raw),
consumed in a fixed order (vertex draw, then heading draw, each iteration),
which makes runs bit-reproducible for a given Scenario. The vertex draw reads
the stream's raw 64-bit words (index_draw) and the heading draw is one
ziggurat normal (rng.standard_normal); together they consume the stream
exactly as numpy's default_rng(seed).integers(0, n) and .normal(mean, sd)
would, bit for bit, and the planner loads no numpy.random.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from . import dynamics
from .dynamics import (CircularObstacle, RobotState, Trajectory, check_finite,
                       check_integer, step_grid)
from .rng import pcg64_raw, standard_normal
from .safety import Disk, barrier_value, constraint_rows, disk_tuple, solve_scalar_qp

if TYPE_CHECKING:
    from .baselines import GeomTree


# The most dt steps one horizon may take: an edge of that many nodes already
# holds 48 MB, and step_grid's list of steps must fit in memory.
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class PlannerParams:
    """Tunables of one planning run; every expansion steers toward the constant
    omega_ref. k1 and k2 are the gains of the second-order barrier condition,
    both positive so s^2 + k2*s + k1 is Hurwitz. Construction and replace
    raise ValueError naming a bad field, and leave every float field a
    float or a tuple of floats."""

    t_h: float = 0.5
    dt: float = 0.02
    sigma2: float = 0.6
    epsilon: float = 0.15
    k1: float = 2.0
    k2: float = 4.0
    v_const: float = 1.0
    omega_ref: float = 0.0
    # Wide enough that a near-head-on avoidance maneuver (|omega*| can reach
    # ~5.1 for a disk half a metre ahead and slightly off-axis) stays inside
    # the box; scenario files pin tighter, platform-specific limits.
    omega_bounds: tuple[float, float] = (-10.0, 10.0)
    max_iters: int = 10_000

    def __post_init__(self):
        check_finite(self, "t_h", "dt", "sigma2", "epsilon", "k1", "k2", "v_const",
                     "omega_ref", omega_bounds=(2,))
        check_integer(self.max_iters, "max_iters", 1)
        if not self.t_h > 0.0:
            raise ValueError(f"t_h must be > 0, got {self.t_h}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.dt > self.t_h:
            raise ValueError(f"dt must be <= t_h, got dt={self.dt}, t_h={self.t_h}")
        if self.t_h / self.dt > MAX_STEPS:
            raise ValueError(f"dt must be >= t_h / {MAX_STEPS:,}, "
                             f"got dt={self.dt}, t_h={self.t_h}")
        if self.sigma2 < 0.0:
            raise ValueError(f"sigma2 must be >= 0, got {self.sigma2}")
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not self.k1 > 0.0:
            raise ValueError(f"k1 must be > 0, got {self.k1}")
        if not self.k2 > 0.0:
            raise ValueError(f"k2 must be > 0, got {self.k2}")
        if not self.v_const > 0.0:
            raise ValueError(f"v_const must be > 0, got {self.v_const}")
        if self.omega_bounds[0] > self.omega_bounds[1]:
            raise ValueError(f"omega_bounds reversed: {self.omega_bounds}")


def node_margin(obstacles: Sequence[CircularObstacle], params: PlannerParams) -> float:
    """The barrier every node of an edge, the start included, must keep: the
    worst-case barrier drop of a straight chord between consecutive nodes.
    The relative robot-obstacle displacement over one step is at most
    (v + v_obs) * dt, and the chord midpoint loses at most (L/2)^2 in
    squared distance."""
    v_obs = max((math.hypot(*ob.velocity) for ob in obstacles), default=0.0)
    return 0.25 * ((params.v_const + v_obs) * params.dt) ** 2


@dataclass(frozen=True)
class Scenario:
    """Start, goal, obstacles and parameters; the start, its time and the goal
    are finite, obstacles is a list or tuple of CircularObstacles, params a
    PlannerParams, and the start clears every disk by node_margin at t_init,
    as every node of the root's edges must. Construction and replace leave
    x_init a RobotState of floats, t_init a float, x_goal a tuple of floats
    and obstacles a tuple, so a Scenario built from a list hashes as the
    file's does."""

    x_init: RobotState
    t_init: float
    x_goal: tuple[float, float]
    obstacles: tuple[CircularObstacle, ...]
    params: PlannerParams

    def __post_init__(self):
        check_finite(self, "t_init", x_init=(3,), x_goal=(2,))
        object.__setattr__(self, "x_init", RobotState(*self.x_init))
        if not isinstance(self.obstacles, (list, tuple)):
            raise ValueError(f"obstacles must be a list or tuple, got {self.obstacles!r}")
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        for i, obstacle in enumerate(self.obstacles):
            if not isinstance(obstacle, CircularObstacle):
                raise ValueError(f"obstacles[{i}] must be a CircularObstacle, got {obstacle!r}")
        if not isinstance(self.params, PlannerParams):
            raise ValueError(f"params must be a PlannerParams, got {self.params!r}")
        margin = node_margin(self.obstacles, self.params)
        for i, obstacle in enumerate(self.obstacles):
            if barrier_value(self.x_init, obstacle, self.t_init) < margin:
                raise ValueError(f"x_init lies inside obstacles[{i}] or within its node "
                                 f"margin {margin:.3g} m^2 at t_init")


class PlanTree:
    """Rooted tree that stores each node once, in one array('d'), data: 6
    doubles per node in CSV column order, the root's one node (t_init,
    *x_init, 0.0, 0.0) first, then each added edge's nodes. Every edge but
    the root's has edge_nodes >= 2 nodes, the run's one horizon, so vertex i is
    row i * edge_nodes of data, edge i >= 1 is rows (i - 1) * edge_nodes + 1
    through i * edge_nodes, and edge 0 is row 0. parents[i] is the parent of
    vertex i (None for the root), which is the last node (t, x1, x2, theta)
    of edge i; edge(i) copies edge i out as a Trajectory. Every other edge,
    steered from its parent's last node, starts at the parent's (t, x1, x2)
    floats (tree.json writes those floats once per vertex)."""

    def __init__(self, root_state: RobotState, root_time: float, edge_nodes: int):
        self.parents: list[Optional[int]] = [None]
        self.data = array("d", (root_time, *root_state, 0.0, 0.0))
        self.edge_nodes = edge_nodes

    def __len__(self) -> int:
        return len(self.parents)

    def add_child(self, parent_id: int, edge: Trajectory) -> int:
        """Add the vertex at edge's last node under parent_id; return its id."""
        self.data += edge.data
        self.parents.append(parent_id)
        return len(self.parents) - 1

    def edge(self, i: int) -> Trajectory:
        """Edge i's nodes, copied out of data."""
        i = range(len(self))[i]
        n = self.edge_nodes
        start = (i - 1) * n + 1 if i else 0
        return Trajectory(self.data[6 * start:6 * (i * n + 1)])


@dataclass
class PlanResult:
    """What every planner returns: controls is the path found, None on
    failure, and tree the tree grown (a GeomTree for RRT and RRT*)."""

    success: bool
    tree: PlanTree | GeomTree
    controls: Optional[Trajectory]
    iterations: int


def index_draw(raw: Callable[[], int]) -> Callable[[int], int]:
    """A draw(n) returning a uniform integer in [0, n), for 1 <= n <= 2^32,
    that reads raw(), a PCG64 generator's raw 64-bit words (rng.pcg64_raw,
    or numpy's random_raw), exactly as Generator.integers(0, n) consumes the
    generator, and returns the same integers.

    numpy takes n == 1 without a draw. Otherwise it runs Lemire's method on
    the generator's 32-bit output: x * n for a 32-bit x, whose high word is
    the result unless its low word falls below 2^32 mod n, when x is drawn
    again. The 32-bit output splits each raw 64-bit word, low half first;
    the high half waits in a one-slot buffer, empty at the start as in a
    freshly seeded PCG64. Nothing else may read 32-bit halves of the same
    generator (standard_normal reads whole words), so build one draw per
    seeded generator. A tree never reaches 2^32 vertices."""
    spare = None

    def draw(n: int) -> int:
        nonlocal spare
        if n == 1:
            return 0
        while True:
            if spare is None:
                word = raw()
                x = word & 0xFFFFFFFF
                spare = word >> 32
            else:
                x = spare
                spare = None
            m = x * n
            low = m & 0xFFFFFFFF
            # low >= n is the common case, which skips the modulo.
            if low >= n or low >= (0x100000000 - n) % n:
                return m >> 32

    return draw


def vertices_sample(tree: PlanTree, draw: Callable[[int], int]) -> int:
    """Draw a vertex id uniformly from the tree (probability 1/N each) with
    draw, an index_draw of the run's generator."""
    return draw(len(tree))


def goal_heading(position: tuple[float, float], goal: tuple[float, float]) -> float:
    """Full-quadrant heading from position toward goal; 0 when they coincide."""
    dy = goal[1] - position[1]
    dx = goal[0] - position[0]
    return math.atan2(dy, dx)


def heading_sample(
    position: tuple[float, float],
    goal: tuple[float, float],
    sd: float,
    normal: Callable[[], float],
) -> float:
    """The free heading at position, drawn ~ Normal(goal heading, sd^2);
    sd is the square root of PlannerParams.sigma2 and normal a standard
    normal draw (rng.standard_normal). Generator.normal(mean, sd) computes
    mean + sd * standard_normal(), so on the same stream this is its float,
    bit for bit."""
    return goal_heading(position, goal) + sd * normal()


# The reach bounds' rounding slack, per node, relative to the magnitudes of
# the coordinates, times and radii involved: about 9,000 ulps (2^-53 each),
# where a node's RK4 step, time and offset round by a few.
REACH_SLACK = 1e-12


class SteerConstants(NamedTuple):
    """What safe_steer reads that is fixed for a whole run, built once per
    plan() call by steer_constants. steps is step_grid's schedule of one
    horizon; reach holds, per disk, its reach radius and v + |v_disk|."""

    disks: tuple[Disk, ...]
    v: float
    k1: float
    k2: float
    lo: float
    hi: float
    omega_ref: float
    steps: tuple[tuple[float, float], ...]
    margin: float
    reach: tuple[tuple[float, float], ...]


def steer_constants(
    obstacles: Sequence[CircularObstacle], params: PlannerParams
) -> SteerConstants:
    """The per-run constants of safe_steer: the disks as the kernel reads
    them, the speed, the gains, the omega box, the reference omega_ref, the
    step schedule of one horizon, the node margin and each disk's reach.

    A disk's reach is (sqrt(r^2 + margin) + (v + |v_disk|) * t_h, v + |v_disk|).
    An RK4 step of length s moves the robot by s * v / 6 * |u1 + 4 u2 + u4|
    <= v * s, the u being unit heading vectors, and step_grid's steps sum to
    t_h, so an edge moves it at most v * t_h and the disk's centre moves
    |v_disk| * (t_k - t0) <= |v_disk| * t_h, up to rounding. So an edge that
    starts farther than the reach radius (plus the rounding slack) from the
    disk's centre clears the disk by more than the margin at every node."""
    v = params.v_const
    lo, hi = params.omega_bounds
    margin = node_margin(obstacles, params)
    reach = []
    for ob in obstacles:
        speed = v + math.hypot(*ob.velocity)
        radius = math.sqrt(ob.radius * ob.radius + margin)
        reach.append((radius + speed * params.t_h, speed))
    return SteerConstants(
        disks=tuple(disk_tuple(ob) for ob in obstacles),
        v=v,
        k1=params.k1,
        k2=params.k2,
        lo=lo,
        hi=hi,
        omega_ref=params.omega_ref,
        steps=step_grid(params.t_h, params.dt),
        margin=margin,
        reach=tuple(reach),
    )


def integrate_closed_loop(
    state: tuple[float, float, float],
    t0: float,
    constants: SteerConstants,
) -> Optional[Trajectory]:
    """The closed loop of one edge: RK4 from state (x1, x2, theta) at time t0
    through the schedule constants.steps, each node at t0 plus its time (the
    last at t0 + t_h exactly), at the speed constants.v, with omega at each
    node the scalar QP's projection of constants.omega_ref onto the node's
    ECBF rows and the omega box. Each heading's cosine and sine are computed
    once: dynamics.rk4_step hands the new node's pair to the next node's rows
    and step. Returns the Trajectory of len(steps) + 1 nodes, the last
    repeating the last omega, or None as soon as a QP is infeasible."""
    disks, v, k1, k2, lo, hi, omega_ref, steps, _, _ = constants
    x1, x2, theta = state
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    rows: list[float] = []
    t = t0
    for step, offset in steps:
        omega = solve_scalar_qp(
            omega_ref, lo, hi, constraint_rows(x1, x2, cos_t, sin_t, v, disks, t, k1, k2))
        if omega is None:
            return None
        rows += (t, x1, x2, theta, v, omega)
        x1, x2, theta, cos_t, sin_t = dynamics.rk4_step(
            x1, x2, theta, cos_t, sin_t, v, omega, step)
        t = t0 + offset
    rows += (t, x1, x2, theta, v, omega)
    return Trajectory(array("d", rows))


def safe_steer(
    state: tuple[float, float, float],
    t: float,
    constants: SteerConstants,
) -> Optional[Trajectory]:
    """Steer from state (x1, x2, theta) at time t for one horizon under the
    per-node safety QP; the edge's last node is the new vertex.

    constants = steer_constants(obstacles, params) holds everything fixed
    for the run. integrate_closed_loop rebuilds the barrier rows at every
    integration node for the current state and time, and the scalar QP
    projects omega_ref onto the feasible set; v is held at constants.v
    throughout. Fails (None) as soon as any QP is infeasible — no partial
    edge is ever returned.

    A feasible QP at every node is necessary but not sufficient for the edge
    to stay clear of the disks: the resampled heading can start an edge
    pointed straight at a nearby obstacle (outside the exponential envelope
    the gains certify), and gain pairs with complex characteristic roots
    (k2^2 < 4 k1) let the barrier ring below zero while every row stays
    satisfiable. The edge is therefore accepted only if every node clears
    every disk by constants.margin, large enough that linear interpolation
    between nodes cannot dip below -1e-6; otherwise the expansion fails like
    any other infeasible steering attempt. That check scans the nodes only
    for the disks within reach of the edge's start (see
    _edge_clears_obstacles); it returns what the full scan returns.
    """
    trajectory = integrate_closed_loop(state, t, constants)
    if trajectory is None or not _edge_clears_obstacles(
            trajectory, constants.disks, constants.reach, constants.margin):
        return None
    return trajectory


def _edge_clears_obstacles(
    trajectory: Trajectory,
    disks: Sequence[Disk],
    reach: Sequence[tuple[float, float]],
    margin: float,
) -> bool:
    """Require h >= margin at every node of the trajectory for every disk.

    h is barrier_value's arithmetic, in its order, on the disk tuples. The
    nodes are scanned only for the disks within reach: a disk whose offset
    at the first node (t0, x1, x2), computed as the scan computes it, is
    longer than its reach radius plus a rounding slack clears every node by
    more than the margin (steer_constants gives the argument), so the scan
    could not fail on it. The slack, REACH_SLACK * n_nodes * (1 + |x1| +
    |x2| + |c1(t0)| + |c2(t0)| + reach + (v + |v_disk|) * |t0|), grows with
    every magnitude whose rounding moves a node, a centre or h, and with the
    number of steps that accumulate it; a NaN anywhere keeps the disk in
    the scan."""
    data = trajectory.data
    t0, x1, x2 = data[0], data[1], data[2]
    tol = REACH_SLACK * (len(data) // 6)
    scale = 1.0 + abs(x1) + abs(x2)
    at0 = abs(t0)
    near = []
    for disk, (radius, speed) in zip(disks, reach):
        cx, cy, vx, vy, _ = disk
        c1 = cx + vx * t0
        c2 = cy + vy * t0
        d1 = x1 - c1
        d2 = x2 - c2
        bound = radius + tol * (scale + abs(c1) + abs(c2) + radius + speed * at0)
        if not d1 * d1 + d2 * d2 > bound * bound:
            near.append(disk)
    if not near:
        return True
    for t, x1, x2 in zip(data[0::6], data[1::6], data[2::6]):
        for cx, cy, vx, vy, r2 in near:
            d1 = x1 - (cx + vx * t)
            d2 = x2 - (cy + vy * t)
            if d1 * d1 + d2 * d2 - r2 < margin:
                return False
    return True


def in_goal_region(position: tuple[float, float], goal: tuple[float, float],
                   epsilon: float) -> bool:
    """True iff position lies within epsilon of the goal: every planner's one
    goal-region test (x * x, as ** rounds differently on some floats)."""
    d1 = position[0] - goal[0]
    d2 = position[1] - goal[1]
    return d1 * d1 + d2 * d2 <= epsilon * epsilon


def goal_check(
    trajectory: Trajectory, goal: tuple[float, float], epsilon: float
) -> bool:
    """True iff in_goal_region holds at any trajectory node."""
    data = trajectory.data
    return any(in_goal_region(position, goal, epsilon)
               for position in zip(data[1::6], data[2::6]))


def _goal_in_reach(
    trajectory: Trajectory, goal: tuple[float, float], reach: float
) -> bool:
    """False only when goal_check(trajectory, goal, epsilon) cannot hold,
    reach being epsilon + v * t_h: no node lies more than v * t_h from the
    first, so an edge that starts farther than reach, plus a rounding slack
    that grows with the coordinates and the node count, from the goal ends
    no node within epsilon of it."""
    data = trajectory.data
    x1, x2 = data[1], data[2]
    d1 = x1 - goal[0]
    d2 = x2 - goal[1]
    scale = 1.0 + abs(x1) + abs(x2) + abs(goal[0]) + abs(goal[1]) + reach
    bound = reach + REACH_SLACK * (len(data) // 6) * scale
    return not d1 * d1 + d2 * d2 > bound * bound


def root_path(parents: Sequence[Optional[int]], vid: int) -> list[int]:
    """Vertex ids from the root (whose parent is None) down to vid."""
    ids = [vid]
    while (parent := parents[ids[-1]]) is not None:
        ids.append(parent)
    ids.reverse()
    return ids


def extract_path(tree: PlanTree, goal_vertex: int) -> Trajectory:
    """Concatenate the edges (tree.edge) from the root to goal_vertex. Each
    starts at its parent's node, the last node of the edge before it; that
    junction is dropped from the earlier edge, keeping the child edge's
    copy, which carries the control applied next. A root-only path is the
    root's one node."""
    if not 0 <= goal_vertex < len(tree):
        raise KeyError(f"unknown vertex id {goal_vertex}")
    out = tree.edge(0).data
    for vid in root_path(tree.parents, goal_vertex)[1:]:
        del out[-6:]  # keep the child's control at the junction
        out += tree.edge(vid).data
    return Trajectory(out)


def plan(scenario: Scenario, seed: int = 0) -> PlanResult:
    """Run CBF-RRT on the scenario until the goal region is reached or the
    iteration budget is exhausted.

    Failed expansions (infeasible QP at any node, or an edge that does not
    clear every disk with margin) add nothing to the tree but still consume
    an iteration, so the loop always terminates. A seed must be an int >= 0.
    """
    check_integer(seed, "seed", 0)
    params = scenario.params
    goal = scenario.x_goal
    raw = pcg64_raw(seed)
    draw = index_draw(raw)
    normal = standard_normal(raw)
    constants = steer_constants(scenario.obstacles, params)
    tree = PlanTree(scenario.x_init, scenario.t_init, len(constants.steps) + 1)

    if in_goal_region(scenario.x_init.position(), goal, params.epsilon):
        return PlanResult(True, tree, extract_path(tree, 0), 0)

    goal_reach = params.epsilon + constants.v * params.t_h
    sd = math.sqrt(params.sigma2)
    stride = 6 * tree.edge_nodes

    for iteration in range(1, params.max_iters + 1):
        picked = vertices_sample(tree, draw)
        node = stride * picked
        data = tree.data
        t, x1, x2 = data[node], data[node + 1], data[node + 2]
        theta = heading_sample((x1, x2), goal, sd, normal)
        edge = safe_steer((x1, x2, theta), t, constants)
        if edge is None:
            continue
        child = tree.add_child(picked, edge)
        if (_goal_in_reach(edge, goal, goal_reach)
                and goal_check(edge, goal, params.epsilon)):
            return PlanResult(True, tree, extract_path(tree, child), iteration)
    return PlanResult(False, tree, None, params.max_iters)
