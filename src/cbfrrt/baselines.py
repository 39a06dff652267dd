"""Classic RRT / RRT* baselines with end-point-only collision checks.

These planners work in the 2-D workspace and steer along straight segments,
ignoring the unicycle heading — the comparison is about path-level behavior,
and straight-line steering is not exactly trackable by the unicycle anyway.
Collision checking is deliberately end-point-only: each candidate vertex is
tested against the disks, but the segment reaching it is not. With step sizes
comparable to obstacle size that check is unsound; the harness audit of the
returned path exposes it.

RRT and RRT* are one growth loop: RRT is RRT* with rewiring off, returning
at its first goal vertex. Both return a planner.PlanResult whose controls is
the found path's polyline timed at v_const, the one trajectory the harness
measures, audits and writes, as it does cbf-rrt's. The tree keeps its
positions as two array('d') columns, and each iteration scans them once from
its sample: for the nearest vertex and, when the step reached the sample, for
RRT*'s near set.

Baselines only support static obstacles (the comparison world is static).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Optional, Sequence

import numpy as np

from .dynamics import CircularObstacle, Trajectory, check_finite, check_integer
from .planner import PlanResult, Scenario, in_goal_region, root_path

Point = tuple[float, float]


@dataclass(frozen=True)
class BaselineParams:
    """Tunables of one baseline run; a bad field raises ValueError on build,
    and every float field holds a float or tuples of floats."""

    delta_d: float = 0.25
    max_iters: int = 2_000
    sample_bounds: tuple[tuple[float, float], tuple[float, float]] = (
        (-1.0, 3.0),
        (-1.0, 3.0),
    )
    rewire_gamma: float = 2.0
    goal_bias: float = 0.0

    def __post_init__(self):
        check_finite(self, "delta_d", "rewire_gamma", "goal_bias", sample_bounds=(2, 2))
        check_integer(self.max_iters, "max_iters", 1)
        if not self.delta_d > 0.0:
            raise ValueError(f"delta_d must be > 0, got {self.delta_d}")
        (x_lo, x_hi), (y_lo, y_hi) = self.sample_bounds
        if x_lo > x_hi or y_lo > y_hi:
            raise ValueError(f"sample_bounds reversed: {self.sample_bounds}")
        if not (math.isfinite(x_hi - x_lo) and math.isfinite(y_hi - y_lo)):
            raise ValueError(f"sample_bounds sides must be finite: {self.sample_bounds}")
        if not 0.0 <= self.goal_bias < 1.0:
            raise ValueError(f"goal_bias must be in [0, 1), got {self.goal_bias}")
        if self.rewire_gamma < 0.0:
            raise ValueError(f"rewire_gamma must be >= 0, got {self.rewire_gamma}")


class GeomTree:
    """Workspace tree whose positions are two array('d') columns, xs and ys,
    that grow by append, so a distance scan reads contiguous memory and a
    tree costs what it grows, not its iteration budget."""

    def __init__(self, root: Point):
        self.xs = array("d", (root[0],))
        self.ys = array("d", (root[1],))
        self.parents: list[Optional[int]] = [None]
        self.costs: list[float] = [0.0]
        self.children: list[list[int]] = [[]]

    def __len__(self) -> int:
        return len(self.parents)

    def position(self, vid: int) -> Point:
        return (self.xs[vid], self.ys[vid])

    def sq_dists(self, point: Point) -> np.ndarray:
        """A fresh array of the squared distances from point to each vertex.
        Its column views live only inside the call: an array whose buffer
        is lent out raises BufferError on append."""
        dx = np.frombuffer(self.xs) - point[0]
        dy = np.frombuffer(self.ys) - point[1]
        # dx * dx + dy * dy, in place: the same sums without two more arrays
        dx *= dx
        dy *= dy
        dx += dy
        return dx

    def add(self, position: Point, parent: int, cost: float) -> int:
        vid = len(self.parents)
        self.xs.append(position[0])
        self.ys.append(position[1])
        self.parents.append(parent)
        self.costs.append(cost)
        self.children.append([])
        self.children[parent].append(vid)
        return vid

    def reparent(self, vid: int, new_parent: int, new_cost: float):
        """Move vid under new_parent and propagate the cost delta downward."""
        old_parent = self.parents[vid]
        if old_parent is not None:
            self.children[old_parent].remove(vid)
        self.parents[vid] = new_parent
        self.children[new_parent].append(vid)
        delta = new_cost - self.costs[vid]
        stack = [vid]
        while stack:
            w = stack.pop()
            self.costs[w] += delta
            stack.extend(self.children[w])


# Doubles drawn per rng.random call: enough to amortise the call, few enough
# that an rrt run that stops early draws little it does not use.
SAMPLE_BLOCK = 256


def sample_stream(goal: Point, params: BaselineParams,
                  rng: np.random.Generator) -> Iterator[Point]:
    """The endless samples of a baseline run: the goal with probability
    goal_bias, else a uniform point of sample_bounds (degenerate sides
    allowed).

    The doubles come from rng.random in blocks of SAMPLE_BLOCK and are used
    in the order per-call draws would use them: the bias coin, only when
    goal_bias > 0, so the default stream is pure uniform sampling; then x,
    then y, each as lo + (hi - lo) * u, which is how numpy's uniform maps
    its double. So the samples are bit-identical to rng.uniform's."""
    (x_lo, x_hi), (y_lo, y_hi) = params.sample_bounds
    x_span, y_span = x_hi - x_lo, y_hi - y_lo
    bias = params.goal_bias
    u = chain.from_iterable(iter(lambda: rng.random(SAMPLE_BLOCK).tolist(), None))
    if bias > 0.0:
        for coin in u:
            yield goal if coin < bias else (x_lo + x_span * next(u),
                                            y_lo + y_span * next(u))
    else:
        for ux, uy in zip(u, u):
            yield (x_lo + x_span * ux, y_lo + y_span * uy)


def nearest_neighbor(scan: np.ndarray) -> int:
    """Id of the nearest vertex of a sq_dists scan; ties go to the lowest id
    (argmin order)."""
    return int(scan.argmin())


def near_set(scan: np.ndarray, radius: float) -> list[tuple[int, float]]:
    """The (id, distance) pairs of a sq_dists scan's vertices within radius
    (none when radius is 0), in increasing id order, as Python ints and
    floats: the distance is math.sqrt of the scan value, and a vertex is in
    exactly when that distance is <= radius.

    One numpy pass keeps the scan values <= the bound radius * radius *
    (1 + 2**-40) + 2**-1000, and only those are square rooted. The bound
    loses no vertex: sqrt is correctly rounded, so a value v whose rounded
    root d is <= radius has sqrt(v) <= d(1 + 2**-53), hence
    v <= radius**2 * (1 + 2**-51) (v = 0 included, and d is normal for
    every v > 0). The float bound is no smaller. Where radius**2 > 2**-1001
    it is normal, and the two roundings of the product lose less than the
    2**-40 factor adds; below that, radius**2 * (1 + 2**-51) < 2**-1000,
    which the bound adds on, even where radius * radius underflows to 0.
    math.sqrt and np.sqrt round alike, so the pairs are np.sqrt's distances
    bit for bit."""
    if not radius > 0.0:
        return []
    # the nonzero method, not np.flatnonzero, whose Python wrapper and a list
    # comprehension's call cost more than the few candidates do
    ids = (scan <= radius * radius * (1.0 + 2.0 ** -40) + 2.0 ** -1000).nonzero()[0]
    near = []
    for j, v in zip(ids.tolist(), scan[ids].tolist()):
        d = math.sqrt(v)
        if d <= radius:
            near.append((j, d))
    return near


def steer_straight(x_nn: Point, x_sample: Point, delta_d: float) -> Point:
    """Reached (return the sample) if within delta_d, else advance delta_d
    along the straight line from x_nn toward x_sample."""
    dx = x_sample[0] - x_nn[0]
    dy = x_sample[1] - x_nn[1]
    dist = math.hypot(dx, dy)
    if dist <= delta_d:
        return x_sample
    scale = delta_d / dist
    return (x_nn[0] + scale * dx, x_nn[1] + scale * dy)


def endpoint_collision_check(
    point: Point, obstacles: Sequence[CircularObstacle]
) -> bool:
    """True iff the point is outside (or exactly on) every disk boundary.

    This is the whole collision model of the baselines — the segment that
    reaches the point is never tested.
    """
    for obstacle in obstacles:
        dx = point[0] - obstacle.center0[0]
        dy = point[1] - obstacle.center0[1]
        if dx * dx + dy * dy < obstacle.radius * obstacle.radius:
            return False
    return True


def require_static(obstacles: Sequence[CircularObstacle]):
    """Reject moving obstacles, which the baselines do not model."""
    for i, obstacle in enumerate(obstacles):
        if not obstacle.is_static():
            raise ValueError(
                f"baselines only support static obstacles; obstacles[{i}] moves"
            )


def _polyline_result(scenario: Scenario, tree: GeomTree, vid: int,
                     iterations: int) -> PlanResult:
    """A success whose controls is the tree's path from the root to vid as a
    timed polyline: constant speed v_const along each segment, heading =
    segment direction, time = arclength / v_const from t_init. The last node
    repeats the last segment's control; a root-only path is the start state
    at rest."""
    points = [tree.position(v) for v in root_path(tree.parents, vid)]
    v = scenario.params.v_const
    t, heading = scenario.t_init, scenario.x_init.theta
    data = array("d")
    for p, q in zip(points, points[1:]):
        heading = math.atan2(q[1] - p[1], q[0] - p[0])
        data.extend((t, p[0], p[1], heading, v, 0.0))
        t += math.hypot(q[0] - p[0], q[1] - p[1]) / v
    last = points[-1]
    data.extend((t, last[0], last[1], heading, v if len(points) > 1 else 0.0, 0.0))
    return PlanResult(True, tree, Trajectory(data), iterations)


def rrt_plan(scenario: Scenario, params: BaselineParams, seed: int = 0) -> PlanResult:
    """Classic RRT: sample, nearest, steer, end-point check, add; stop at the
    first vertex within epsilon of the goal. It is rrt_star_plan's growth
    loop without rewiring."""
    return _grow(scenario, params, seed, rewire=False)


def rrt_star_plan(scenario: Scenario, params: BaselineParams,
                  seed: int = 0) -> PlanResult:
    """RRT* (choose-parent + rewire) with the same end-point-only checks.

    Runs the full iteration budget to keep refining cost and returns the
    cheapest path to a goal vertex. Rewire radius is
    min(rewire_gamma * sqrt(log n / n), delta_d), so every edge in the tree
    keeps length <= delta_d.
    """
    return _grow(scenario, params, seed, rewire=True)


def _grow(scenario: Scenario, params: BaselineParams, seed: int,
          rewire: bool) -> PlanResult:
    """The growth loop of both baselines. Each iteration samples, steers
    from the nearest vertex and, when the end point is clear, adds a vertex
    under that nearest vertex. With rewire (RRT*) the new vertex joins the
    cheapest vertex of its near set instead and then reroutes the near set
    through itself where that is cheaper; the loop runs the whole budget and
    returns the cheapest goal vertex. Without it (RRT) the loop returns at
    the first goal vertex and scans no near set."""
    require_static(scenario.obstacles)
    root = scenario.x_init.position()
    goal = scenario.x_goal
    epsilon = scenario.params.epsilon
    tree = GeomTree(root)
    goal_ids: list[int] = []

    if in_goal_region(root, goal, epsilon):
        return _polyline_result(scenario, tree, 0, 0)

    samples = sample_stream(goal, params, np.random.default_rng(seed))
    for iteration, sample in zip(range(1, params.max_iters + 1), samples):
        scan = tree.sq_dists(sample)
        nn = nearest_neighbor(scan)
        x_nn = tree.position(nn)
        if sample == x_nn:
            continue
        x_new = steer_straight(x_nn, sample, params.delta_d)
        if not endpoint_collision_check(x_new, scenario.obstacles):
            continue

        # The nearest vertex's edge, its length as near_set's scan computes it.
        dx = x_nn[0] - x_new[0]
        dy = x_nn[1] - x_new[1]
        parent = nn
        cost = tree.costs[nn] + math.sqrt(dx * dx + dy * dy)
        near: list[tuple[int, float]] = []
        if rewire:
            n = len(tree)
            radius = min(params.rewire_gamma * math.sqrt(math.log(n) / n),
                         params.delta_d) if n > 1 else 0.0
            # a step that reached the sample ends on the point just scanned
            near = near_set(scan if x_new is sample else tree.sq_dists(x_new), radius)
            # choose-parent: cheapest connection among the near set
            for j, d in near:
                c = tree.costs[j] + d
                if c < cost - 1e-12:
                    parent = j
                    cost = c
        vid = tree.add(x_new, parent, cost)

        # rewire: route near vertices through x_new when that is cheaper
        for j, d in near:
            if j == parent:
                continue
            c = cost + d
            if c < tree.costs[j] - 1e-12:
                tree.reparent(j, vid, c)

        if in_goal_region(x_new, goal, epsilon):
            if not rewire:
                return _polyline_result(scenario, tree, vid, iteration)
            goal_ids.append(vid)

    if not goal_ids:
        return PlanResult(False, tree, None, params.max_iters)
    best = min(goal_ids, key=lambda g: tree.costs[g])
    return _polyline_result(scenario, tree, best, params.max_iters)
