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
positions as two array('d') columns and a grid over them, and each iteration
makes one pass over a block of the grid about its sample: for the nearest
vertex and, when the step reached the sample, for RRT*'s near set, which
the pass settles as it goes. The loop's constants are read once per run.

Baselines only support static obstacles (the comparison world is static).
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .dynamics import CircularObstacle, Trajectory, check_finite, check_integer
from .planner import PlanResult, Scenario, in_goal_region, root_path

Point = tuple[float, float]

_SQRT_HALF = math.sqrt(0.5)


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
    that grow by append (a tree costs what it grows, not its iteration
    budget), and a uniform grid over them that answers the nearest-vertex and
    near-set queries.

    The grid's cells are squares whose side is a power of two, 2**e: a vertex
    at (x, y) lies in cell (x // side, y // side). Floor division by a power
    of two is exact for every finite float whose quotient is finite, so a
    vertex binned past a block's upper edge b has x >= b exactly, and one
    binned below its lower edge a has x < a. Rounding is monotone, so such a
    vertex's squared distance from a query point inside the block, rounded
    as dx * dx + dy * dy, is at least gap * gap, gap being the float distance
    from the point to that edge. A query that has examined a block stops once
    its best squared distance and its near-set bound are both below that
    square, so every vertex it has not examined loses to what it has.

    The side is the power of two nearest sqrt(area / n) for the bounding box
    of the tree's n vertices (its longer side / n for a flat box), no smaller
    than keeps every cell index finite; the tree is binned again each time
    it has grown 4 times. The tree also keeps the box of its occupied cells
    (_box: the least and greatest x and y cell index). A query whose first
    block lies wholly outside that box holds no vertex in it, and a query's
    block never holds more cells than the tree has vertices: either way it
    scans every vertex at once. So a point off a small tree, as most of an
    RRT's samples are, costs one scan and no empty grid pass, and a query
    far from the tree, or at extreme magnitudes, costs O(n)."""

    def __init__(self, root: Point):
        self.xs = array("d", (root[0],))
        self.ys = array("d", (root[1],))
        self.parents: list[Optional[int]] = [None]
        self.costs: list[float] = [0.0]
        self.children: list[list[int]] = [[]]
        self._rebin()

    def __len__(self) -> int:
        return len(self.parents)

    def position(self, vid: int) -> Point:
        return (self.xs[vid], self.ys[vid])

    def _rebin(self):
        """Choose the cell side for the vertices so far and bin them all."""
        xs, ys = self.xs, self.ys
        n = len(xs)
        x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
        w, h = x_hi - x_lo, y_hi - y_lo
        side = math.sqrt(w) * math.sqrt(h / n) if w > 0.0 < h else max(w, h) / n
        # side = m * 2**e with 0.5 <= m < 1 when it is finite and positive;
        # frexp gives e = 0 for inf and nan, whose m is not below sqrt(0.5)
        m, e = math.frexp(side)
        e -= m < _SQRT_HALF
        # |coordinate| < 2**fit, so |coordinate| / 2**e stays below 2**1024
        fit = math.frexp(max(-x_lo, x_hi, -y_lo, y_hi))[1]
        side = math.ldexp(1.0, min(max(e, fit - 1024, -1074), 1023))
        rows: dict[int, dict[int, list[tuple[int, float, float]]]] = {}
        for vid, (x, y) in enumerate(zip(xs, ys)):
            rows.setdefault(int(y // side), {}).setdefault(int(x // side), []).append((vid, x, y))
        self._side = side
        self._rows = rows
        self._box = (int(x_lo // side), int(x_hi // side), int(y_lo // side), int(y_hi // side))
        self._rebin_at = 4 * n

    def add(self, position: Point, parent: int, cost: float) -> int:
        vid = len(self.parents)
        x, y = position
        self.xs.append(x)
        self.ys.append(y)
        self.parents.append(parent)
        self.costs.append(cost)
        self.children.append([])
        self.children[parent].append(vid)
        if vid + 1 < self._rebin_at:
            side = self._side
            try:
                ix, iy = int(x // side), int(y // side)
            except OverflowError:  # an index past the float range: a wider side
                pass
            else:
                cell = self._rows.setdefault(iy, {}).setdefault(ix, [])
                if not cell:  # a new cell: the box of occupied cells takes it in
                    x0, x1, y0, y1 = self._box
                    self._box = (min(x0, ix), max(x1, ix), min(y0, iy), max(y1, iy))
                cell.append((vid, x, y))
                return vid
        self._rebin()
        return vid

    def query(self, point: Point, radius: float,
              nearest: bool = True) -> tuple[int, list[tuple[int, float]]]:
        """The nearest vertex to point (-1 unless nearest) and point's near
        set within radius; see nearest_neighbor and near_set. The first
        block holds the cells within radius of point, or with no radius the
        3 x 3 cells about point's own. A pass square-roots each candidate
        and tests it against the radius as it meets it, so the near set is
        settled when the pass ends."""
        px, py = point
        side = self._side
        n = len(self.parents)
        # near_set's candidate bound on the squared distance; see there
        limit = radius * radius * (1.0 + 2.0 ** -40) + 2.0 ** -1000 if radius > 0.0 else -1.0
        reach = radius if radius > 0.0 else side
        rows = self._rows
        cx0, cx1, cy0, cy1 = self._box
        try:
            x0, x1 = int((px - reach) // side), int((px + reach) // side)
            y0, y1 = int((py - reach) // side), int((py + reach) // side)
            if x1 < cx0 or cx1 < x0 or y1 < cy0 or cy1 < y0:  # no vertex in the block
                return self._scan_all(px, py, radius, limit, nearest)
            while (x1 - x0 + 1) * (y1 - y0 + 1) <= n:
                best, nn, near = math.inf, n, []
                for iy in range(y0, y1 + 1):
                    row = rows.get(iy)
                    if row is None:
                        continue
                    cell_at = row.get
                    for ix in range(x0, x1 + 1):
                        cell = cell_at(ix)
                        if cell is None:
                            continue
                        for j, x, y in cell:
                            dx = x - px
                            dy = y - py
                            v = dx * dx + dy * dy
                            if v <= best and (v < best or j < nn):
                                best, nn = v, j
                            if v <= limit and (d := math.sqrt(v)) <= radius:
                                near.append((j, d))
                # the float distance from point to the block's nearest edge
                gap = min(px - x0 * side, (x1 + 1) * side - px,
                          py - y0 * side, (y1 + 1) * side - py)
                bound = gap * gap
                if limit < bound and (best < bound or not nearest):
                    break
                # grow the block over every cell within the distance to settle
                far = best if nearest and best > limit else limit
                if far < math.inf:
                    reach = math.sqrt(far)
                    x0 = min(x0, int((px - reach) // side)) - 1
                    x1 = max(x1, int((px + reach) // side)) + 1
                    y0 = min(y0, int((py - reach) // side)) - 1
                    y1 = max(y1, int((py + reach) // side)) + 1
                else:  # nothing found: double the block
                    wx, wy = x1 - x0 + 1, y1 - y0 + 1
                    x0, x1, y0, y1 = x0 - wx, x1 + wx, y0 - wy, y1 + wy
            else:
                return self._scan_all(px, py, radius, limit, nearest)
        except (OverflowError, ValueError):  # an infinite or NaN cell index
            return self._scan_all(px, py, radius, limit, nearest)
        near.sort()
        return (nn if nearest else -1), near

    def _scan_all(self, px: float, py: float, radius: float, limit: float,
                  nearest: bool) -> tuple[int, list[tuple[int, float]]]:
        """query's answer from every vertex, in id order."""
        scan = [(x - px) * (x - px) + (y - py) * (y - py) for x, y in zip(self.xs, self.ys)]
        nn = scan.index(min(scan)) if nearest else -1
        if limit < 0.0:
            return nn, []
        return nn, [(j, d) for j, v in enumerate(scan)
                    if v <= limit and (d := math.sqrt(v)) <= radius]

    def reparent(self, vid: int, new_parent: int, new_cost: float):
        """Move vid under new_parent and propagate the cost delta downward."""
        old_parent = self.parents[vid]
        if old_parent is not None:
            self.children[old_parent].remove(vid)
        self.parents[vid] = new_parent
        self.children[new_parent].append(vid)
        costs, children = self.costs, self.children
        delta = new_cost - costs[vid]
        subtree = [vid]
        for w in subtree:  # the list grows as it is walked, by each vertex's children
            costs[w] += delta
            subtree.extend(children[w])


def sample_stream(goal: Point, params: BaselineParams,
                  rng: random.Random) -> Iterator[Point]:
    """The endless samples of a baseline run: the goal with probability
    goal_bias, else a uniform point of sample_bounds (degenerate sides
    allowed). Each sample reads rng.random in order: the bias coin, drawn
    even when goal_bias is 0, then, unless the coin picked the goal, x and
    y, each mapped as lo + (hi - lo) * u."""
    (x_lo, x_hi), (y_lo, y_hi) = params.sample_bounds
    x_span, y_span = x_hi - x_lo, y_hi - y_lo
    bias = params.goal_bias
    u = rng.random
    while True:
        yield goal if u() < bias else (x_lo + x_span * u(), y_lo + y_span * u())


def nearest_neighbor(tree: GeomTree, point: Point,
                     radius: float = 0.0) -> tuple[int, list[tuple[int, float]]]:
    """The id of the vertex nearest point, the lowest id of those minimising
    dx * dx + dy * dy (dx = x - point[0], dy = y - point[1]), and point's
    near set within radius (near_set's pairs), from one pass over the grid."""
    return tree.query(point, radius)


def near_set(tree: GeomTree, point: Point, radius: float) -> list[tuple[int, float]]:
    """The (id, distance) pairs of the vertices within radius of point (none
    when radius is 0), in increasing id order, as Python ints and floats:
    the distance is math.sqrt(dx * dx + dy * dy), and a vertex is in exactly
    when that distance is <= radius.

    A query's pass square-roots, as it meets them, only the vertices whose
    squared distance is <= radius * radius * (1 + 2**-40) + 2**-1000. That
    bound loses no vertex: sqrt is correctly rounded, so a value v whose
    rounded root d is <= radius has sqrt(v) <= d(1 + 2**-53), hence v <=
    radius**2 * (1 + 2**-51) (v = 0 included, and d is normal for every v >
    0). The float bound is no smaller. Where radius**2 > 2**-1001 it is
    normal, and the two roundings of the product lose less than the 2**-40
    factor adds; below that, radius**2 * (1 + 2**-51) < 2**-1000, which the
    bound adds on, even where radius * radius underflows to 0."""
    if not radius > 0.0:
        return []
    return tree.query(point, radius, nearest=False)[1]


def steer_straight(x_nn: Point, x_sample: Point, delta_d: float) -> Point:
    """Reached (return the sample) if within delta_d, else advance delta_d
    along the straight line from x_nn toward x_sample (its direction from
    the differences' quarters where the distance overflows to inf)."""
    dx = x_sample[0] - x_nn[0]
    dy = x_sample[1] - x_nn[1]
    dist = math.hypot(dx, dy)
    if dist <= delta_d:
        return x_sample
    if dist == math.inf:  # the distance overflows, a quarter of it does not
        dx = x_sample[0] * 0.25 - x_nn[0] * 0.25
        dy = x_sample[1] * 0.25 - x_nn[1] * 0.25
        dist = math.hypot(dx, dy)
    scale = delta_d / dist
    return (x_nn[0] + scale * dx, x_nn[1] + scale * dy)


def endpoint_collision_check(point: Point, disks: Sequence[tuple[float, float, float]]) -> bool:
    """True iff the point is outside (or exactly on) every disk boundary, the
    disks given as static_disks gives them.

    This is the whole collision model of the baselines — the segment that
    reaches the point is never tested.
    """
    x, y = point
    for cx, cy, rr in disks:
        dx = x - cx
        dy = y - cy
        if dx * dx + dy * dy < rr:
            return False
    return True


def static_disks(obstacles: Sequence[CircularObstacle]) -> list[tuple[float, float, float]]:
    """Each disk as its centre and squared radius, (cx, cy, r * r)."""
    return [(o.center0[0], o.center0[1], o.radius * o.radius) for o in obstacles]


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
    the first goal vertex and scans no near set. The samples come from
    random.Random(seed): CPython keeps its stream for an int seed fixed."""
    check_integer(seed, "seed", 0)
    require_static(scenario.obstacles)
    root = scenario.x_init.position()
    goal = scenario.x_goal
    epsilon = scenario.params.epsilon
    tree = GeomTree(root)
    goal_ids: list[int] = []

    if in_goal_region(root, goal, epsilon):
        return _polyline_result(scenario, tree, 0, 0)

    samples = sample_stream(goal, params, random.Random(seed))
    disks = static_disks(scenario.obstacles)
    delta_d, gamma = params.delta_d, params.rewire_gamma
    xs, ys, costs = tree.xs, tree.ys, tree.costs
    radius = 0.0  # RRT*'s near radius for the tree's vertex count n, 0 at n = 1
    for iteration, sample in zip(range(1, params.max_iters + 1), samples):
        # one pass gives the nearest vertex and the sample's near set
        nn, near = nearest_neighbor(tree, sample, radius)
        x_nn = (xs[nn], ys[nn])
        if sample == x_nn:
            continue
        x_new = steer_straight(x_nn, sample, delta_d)
        if not endpoint_collision_check(x_new, disks):
            continue

        # The nearest vertex's edge, its length as near_set computes it.
        dx = x_nn[0] - x_new[0]
        dy = x_nn[1] - x_new[1]
        parent = nn
        cost = costs[nn] + math.sqrt(dx * dx + dy * dy)
        if rewire:
            # a truncated step ends off the sample: its own near set
            if x_new is not sample:
                near = near_set(tree, x_new, radius)
            # choose-parent: cheapest connection among the near set
            for j, d in near:
                c = costs[j] + d
                if c < cost - 1e-12:
                    parent = j
                    cost = c
        vid = tree.add(x_new, parent, cost)

        # rewire: route near vertices through x_new when that is cheaper
        for j, d in near:
            if j == parent:
                continue
            c = cost + d
            if c < costs[j] - 1e-12:
                tree.reparent(j, vid, c)

        if in_goal_region(x_new, goal, epsilon):
            if not rewire:
                return _polyline_result(scenario, tree, vid, iteration)
            goal_ids.append(vid)
        if rewire:
            n = vid + 1
            radius = min(gamma * math.sqrt(math.log(n) / n), delta_d)

    if not goal_ids:
        return PlanResult(False, tree, None, params.max_iters)
    best = min(goal_ids, key=lambda g: tree.costs[g])
    return _polyline_result(scenario, tree, best, params.max_iters)
