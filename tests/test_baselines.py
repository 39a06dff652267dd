import dataclasses
import math
import random
import time
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbfrrt.baselines import (
    BaselineParams,
    GeomTree,
    endpoint_collision_check,
    near_set,
    nearest_neighbor,
    rrt_plan,
    rrt_star_plan,
    sample_stream,
    static_disks,
    steer_straight,
)
from cbfrrt.dynamics import CircularObstacle, RobotState
from cbfrrt.planner import PlannerParams, Scenario, plan
from oracles import (
    edge_collision_audit,
    grow_reference,
    near_set_reference,
    nearest_neighbor_reference,
    sample_point_reference,
)

WORLD1 = (
    CircularObstacle((0.3, 1.2), (0.0, 0.0), 0.2),
    CircularObstacle((1.0, 0.5), (0.0, 0.0), 0.2),
    CircularObstacle((1.7, -0.5), (0.0, 0.0), 0.2),
)

BOUNDS = ((-1.0, 3.0), (-1.0, 3.0))


def world1_scenario():
    return Scenario(RobotState(-0.5, -0.5, 1.0), 0.0, (2.0, 2.0), WORLD1, PlannerParams())


def baseline_params(**kw):
    defaults = dict(delta_d=0.25, max_iters=2000, sample_bounds=BOUNDS)
    defaults.update(kw)
    return BaselineParams(**defaults)


# ---------------------------------------------------------------- primitives


def samples(params, seed, n, goal=(2.0, 2.0)):
    """The first n samples of a run's stream."""
    return list(islice(sample_stream(goal, params, random.Random(seed)), n))


def test_sample_stream_degenerate_rectangle():
    params = baseline_params(sample_bounds=((0.5, 0.5), (2.0, 2.0)))
    assert samples(params, 0, 3) == [(0.5, 2.0)] * 3


def test_sample_stream_quadrant_frequencies():
    counts = np.zeros(4)
    for x, y in samples(baseline_params(sample_bounds=((0.0, 1.0), (0.0, 1.0))), 1, 10_000):
        counts[(x >= 0.5) * 2 + (y >= 0.5)] += 1
    assert np.all(np.abs(counts - 2500) <= 150)


def test_sample_stream_reproducible():
    # with a bias coin that never and one that sometimes picks the goal
    for bias in (0.0, 0.3):
        params = baseline_params(goal_bias=bias)
        assert samples(params, 7, 1000) == samples(params, 7, 1000)


bound_values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def sides(draw):
    """(lo, hi) with lo <= hi, degenerate (lo == hi) one time in four."""
    lo = draw(bound_values)
    if draw(st.integers(0, 3)) == 0:
        return (lo, lo)
    hi = draw(bound_values)
    return (min(lo, hi), max(lo, hi))


@settings(max_examples=150, deadline=None)
@given(sides(), sides(),
       st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
       st.integers(0, 2**32 - 1))
def test_sample_stream_matches_per_call_draws(x_side, y_side, bias, seed):
    # a twin generator read call by call, coin, x, y per sample, gives the
    # same samples bit for bit; the coin is drawn at bias 0 too
    params = baseline_params(sample_bounds=(x_side, y_side), goal_bias=bias)
    goal = (0.1, -0.2)
    n = 300
    rng = random.Random(seed)
    want = [sample_point_reference(goal, params, rng) for _ in range(n)]
    got = samples(params, seed, n, goal)
    assert got == want
    assert repr(got) == repr(want)


def build_tree(pts):
    """A GeomTree of pts, each vertex under the root."""
    tree = GeomTree(pts[0])
    for p in pts[1:]:
        tree.add(p, 0, 0.0)
    return tree


def test_nearest_neighbor_basic_and_ties():
    tree = build_tree([(0.0, 0.0), (2.0, 0.0)])
    assert nearest_neighbor(tree, (0.4, 0.0)) == (0, [])
    assert nearest_neighbor(tree, (1.9, 0.0)) == (1, [])
    # exact tie at the midpoint goes to the lower id, and so does a tie
    # between a vertex and its duplicate, added later
    assert nearest_neighbor(tree, (1.0, 0.0)) == (0, [])
    tree.add((0.0, 0.0), 1, 4.0)
    assert nearest_neighbor(tree, (0.25, 0.0), 0.25) == (0, [(0, 0.25), (2, 0.25)])
    assert near_set(tree, (1.0, 0.0), 1.0) == [(0, 1.0), (1, 1.0), (2, 1.0)]
    assert near_set(tree, (1.0, 0.0), 0.0) == []


@pytest.mark.parametrize("tied", [[(2.0, 0.0), (0.0, 0.0)], [(0.0, 2.0), (0.0, 0.0)]])
def test_a_tie_across_cells_goes_to_the_lower_id(tied):
    # 16 vertices, so the query at (1, 0) or (0, 1) reads the grid, not every
    # vertex; it reads its block row by row, each row left to right, so it
    # meets vertex 1 before vertex 0, which ties with it from another cell
    tree = build_tree(tied + [(0.1 * k, 5.0) for k in range(14)])
    assert tree._side <= 1.0
    query = (tied[0][0] / 2.0, tied[0][1] / 2.0)
    assert nearest_neighbor(tree, query, 1.0) == (0, [(0, 1.0), (1, 1.0)])


def assert_queries_match(tree, rows, query, radius):
    """nearest_neighbor and near_set on the tree give the numpy oracles'
    nearest id and near set: ids as ints, each with its np.sqrt distance
    bit for bit, as a float."""
    rows = np.array(rows, dtype=float)
    dists, ids = near_set_reference(rows, query, radius)
    want = [(j, dists[j].hex()) for j in ids.tolist()]
    nn, near = nearest_neighbor(tree, query, radius)
    assert type(nn) is int and nn == nearest_neighbor_reference(rows, query)
    for got in (near, near_set(tree, query, radius)):
        assert all(type(j) is int and type(d) is float for j, d in got)
        assert [(j, d.hex()) for j, d in got] == want


coordinates = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
points = st.tuples(coordinates, coordinates)
# ordinary magnitudes, ones whose squares overflow, and ones whose squares
# underflow (tiny, and subnormal coordinates)
huge = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
near_huge = st.one_of(st.floats(1e299, 1e300), st.floats(-1e300, -1e299))
tiny = st.floats(-1e-100, 1e-100, allow_nan=False, allow_infinity=False)
subnormal = st.floats(-2.0 ** -1022, 2.0 ** -1022, allow_nan=False, allow_infinity=False)
scales = st.sampled_from([coordinates, huge, near_huge, tiny, subnormal])


@st.composite
def sample_bounds(draw):
    """A box of one scale whose sides are degenerate (lo == hi) one time in
    three each, so some boxes are segments or points (zero area)."""
    values = draw(scales)
    box = []
    for _ in range(2):
        lo = draw(values)
        hi = lo if draw(st.integers(0, 2)) == 0 else draw(values)
        box.append((min(lo, hi), max(lo, hi)))
    return box


@st.composite
def box_points(draw, box):
    (x_lo, x_hi), (y_lo, y_hi) = box
    return (draw(st.floats(x_lo, x_hi)), draw(st.floats(y_lo, y_hi)))


@st.composite
def trees_and_queries(draw):
    """1-80 vertices drawn in one sample box, some repeated (exact ties), and
    a query point that is free, on a vertex, or midway between two."""
    box = draw(sample_bounds())
    pts = draw(st.lists(box_points(box), min_size=1, max_size=80))
    for i in range(1, len(pts)):
        if draw(st.integers(0, 4)) == 0:
            pts[i] = pts[draw(st.integers(0, i - 1))]
    kind = draw(st.sampled_from(["free", "vertex", "midpoint", "elsewhere"]))
    if kind == "free":
        query = draw(box_points(box))
    elif kind == "vertex":
        query = draw(st.sampled_from(pts))
    elif kind == "midpoint":
        (ax, ay), (bx, by) = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        query = (ax / 2.0 + bx / 2.0, ay / 2.0 + by / 2.0)
    else:
        query = draw(st.tuples(huge, huge))
    return pts, query


@settings(max_examples=400, deadline=None)
@given(trees_and_queries(), st.data())
def test_distance_scans_match_einsum_oracle_bit_for_bit(case, data):
    # the grid answers what the einsum scan over every vertex answers, in
    # trees of ordinary, huge and subnormal coordinates, flat or coincident
    pts, query = case
    tree = build_tree(pts)
    dists = near_set_reference(np.array(pts), query, 0.0)[0].tolist()
    # a radius of 0, one equal to a vertex's distance (the <= boundary), or any
    radius = data.draw(st.one_of(st.just(0.0), st.sampled_from(dists),
                                 st.floats(0.0, 3e3), st.floats(0.0, 1e300)))
    assert_queries_match(tree, pts, query, radius)


@settings(max_examples=300, deadline=None)
@given(trees_and_queries(), st.data())
def test_near_set_keeps_the_vertices_on_its_radius(case, data):
    # the candidate bound on radius**2 must keep a vertex whose distance
    # rounds to the radius, though its squared distance can exceed radius *
    # radius as rounded, so the radii are each vertex's distance and the
    # floats either side of it, in trees whose squares stay normal and in
    # trees whose squares underflow or overflow
    pts, query = case
    tree = build_tree(pts)
    radii = [data.draw(st.floats(0.0, 1e-150)), 0.0]
    for d in near_set_reference(np.array(pts), query, 0.0)[0].tolist():
        radii += [d, math.nextafter(d, math.inf), math.nextafter(d, 0.0)]
    for radius in data.draw(st.permutations(radii))[:12]:
        assert_queries_match(tree, pts, query, radius)


@st.composite
def query_sessions(draw):
    """A sample box, a root and up to 150 steps, each ("add" | "query",
    point, radius), adds three to one so that most sessions grow past a
    rebin or two (at 4, 16 and 64 vertices). The points come from the box
    or from a small pool of its points, so steps often repeat a point or
    one just added, and some queries fall far outside the box."""
    box = draw(sample_bounds())
    pool = draw(st.lists(box_points(box), min_size=1, max_size=4))
    point = st.one_of(box_points(box), st.sampled_from(pool), st.tuples(huge, huge))
    op = st.sampled_from(("add", "add", "add", "query"))
    radius = st.one_of(st.just(0.0), st.floats(0.0, 3e3), st.floats(0.0, 1e300))
    steps = draw(st.lists(st.tuples(op, point, radius), min_size=1, max_size=150))
    return draw(box_points(box)), steps


@settings(max_examples=300, deadline=None)
@given(query_sessions())
def test_queries_between_adds_and_rebins_match_the_oracle(session):
    root, steps = session
    tree = GeomTree(root)
    rows = [root]
    for op, point, radius in steps:
        if op == "add":
            tree.add(point, 0, 0.0)
            rows.append(point)
        else:
            assert_queries_match(tree, rows, point, radius)
    assert list(zip(tree.xs, tree.ys)) == rows


@settings(max_examples=60, deadline=None)
@given(sample_bounds(), st.integers(100, 2000), st.integers(0, 2**32 - 1), st.data())
def test_queries_on_large_trees_match_the_oracle(box, n, seed, data):
    # trees big enough that most queries stop inside their first block:
    # uniform draws in the box as the baselines' sample stream makes them,
    # every fifth vertex a repeat, then queries in and around the box with
    # radii about the cell side and the RRT* radius
    (x_lo, x_hi), (y_lo, y_hi) = box
    rng = random.Random(seed)
    pts = []
    for k in range(n):
        if k and rng.random() < 0.2:
            pts.append(rng.choice(pts))
        else:
            pts.append((x_lo + (x_hi - x_lo) * rng.random(),
                        y_lo + (y_hi - y_lo) * rng.random()))
    tree = build_tree(pts)
    side = tree._side
    for _ in range(20):
        query = rng.choice([data.draw(box_points(box)), rng.choice(pts),
                            (x_lo - side * rng.random(), y_hi + side * rng.random())])
        radius = rng.choice([0.0, side, side * rng.random() * 3.0,
                             2.0 * math.sqrt(math.log(n) / n) * max(x_hi - x_lo, y_hi - y_lo)])
        assert_queries_match(tree, pts, query, radius)


@pytest.mark.parametrize("n", [1, 64])
def test_a_query_far_from_the_tree_returns_promptly(n):
    # 1e9 cells (and 1e300 m) from the tree: a block grown ring by ring would
    # scan about 1e18 empty cells, a scan of every vertex costs n
    tree = build_tree([(0.01 * k, 0.02 * k) for k in range(n)])
    start = time.perf_counter()
    for query in ((1e9 * tree._side, 0.5), (-3e8, 2e8 * tree._side), (1e300, -1e300)):
        assert_queries_match(tree, list(zip(tree.xs, tree.ys)), query, 0.25)
    assert time.perf_counter() - start < 5.0


def test_steer_straight():
    assert steer_straight((0.0, 0.0), (0.1, 0.0), 0.25) == (0.1, 0.0)  # Reached
    x = steer_straight((0.0, 0.0), (1.0, 0.0), 0.25)  # Advanced
    assert x == pytest.approx((0.25, 0.0))
    x = steer_straight((0.0, 0.0), (3.0, 4.0), 1.0)
    assert x == pytest.approx((0.6, 0.8))


@pytest.mark.parametrize("x_nn, x_sample, delta_d", [
    ((1.7e308, 0.0), (-1.65e308, 0.0), 0.25),
    ((1.7e308, -1.0), (-1.65e308, 1.0), 1e307),
    ((0.0, -1.7e308), (1e300, 1.7e308), 1e308),
])
def test_steer_straight_stays_finite_where_the_distance_overflows(x_nn, x_sample, delta_d):
    # hypot(dx, dy) is inf here, and delta_d / inf * inf would be NaN; the
    # step must stay delta_d long (to rounding) and head for the sample
    assert math.hypot(x_sample[0] - x_nn[0], x_sample[1] - x_nn[1]) == math.inf
    x = steer_straight(x_nn, x_sample, delta_d)
    assert all(map(math.isfinite, x))
    ux, uy = x_sample[0] / 4 - x_nn[0] / 4, x_sample[1] / 4 - x_nn[1] / 4
    norm = math.hypot(ux, uy)
    want = (x_nn[0] + delta_d * (ux / norm), x_nn[1] + delta_d * (uy / norm))
    assert x == pytest.approx(want, rel=1e-12, abs=1e-12 * delta_d)


def test_steer_straight_is_the_plain_formula_where_the_distance_is_finite():
    for x_nn, x_sample, delta_d in (((1.0, 2.0), (4.0, -2.0), 0.25),
                                    ((1e308, 0.0), (-5e307, 1.0), 1.0),
                                    ((-0.3, 1e-300), (0.7, -1e-300), 1e-3)):
        dx, dy = x_sample[0] - x_nn[0], x_sample[1] - x_nn[1]
        scale = delta_d / math.hypot(dx, dy)
        want = (x_nn[0] + scale * dx, x_nn[1] + scale * dy)
        assert [c.hex() for c in steer_straight(x_nn, x_sample, delta_d)] == \
            [c.hex() for c in want]


def test_endpoint_check_convention():
    assert endpoint_collision_check((0.0, 0.0), static_disks(WORLD1))
    assert not endpoint_collision_check((1.0, 0.5), static_disks(WORLD1))  # disk centre
    # exactly on the boundary is admitted (h = 0 is safe); radius 0.25 keeps
    # the arithmetic exact in floating point
    quarter = static_disks((CircularObstacle((1.0, 0.5), (0.0, 0.0), 0.25),))
    assert endpoint_collision_check((1.25, 0.5), quarter)
    assert not endpoint_collision_check((1.249, 0.5), quarter)
    assert endpoint_collision_check((5.0, 5.0), ())


def test_edge_audit_catches_what_endpoints_miss():
    # both endpoints clear the (1.0, 0.5) disk, the chord does not
    p0, p1 = (0.7, 0.5), (1.3, 0.5)
    assert endpoint_collision_check(p0, static_disks(WORLD1))
    assert endpoint_collision_check(p1, static_disks(WORLD1))
    assert not edge_collision_audit(p0, p1, WORLD1, 0.01)
    assert edge_collision_audit((0.0, 0.0), (0.5, 0.0), WORLD1, 0.01)
    # crossing a centre is caught at any sane resolution
    assert not edge_collision_audit((0.5, 0.5), (1.5, 0.5), WORLD1, 0.01)


# ---------------------------------------------------------------- rrt


def test_rrt_reaches_adjacent_goal_quickly():
    sc = Scenario(RobotState(0.0, 0.0, 0.0), 0.0, (0.3, 0.0), (), PlannerParams())
    res = rrt_plan(sc, baseline_params(max_iters=200))
    assert res.success
    assert res.iterations < 50


def test_rrt_success_rate_small_steps():
    ok = 0
    for seed in range(50):
        res = rrt_plan(world1_scenario(), baseline_params(), seed)
        ok += res.success
    assert ok >= 45  # >= 0.9 empirically


def test_rrt_edge_lengths_bounded():
    res = rrt_plan(world1_scenario(), baseline_params(), 3)
    tree = res.tree
    for vid in range(1, len(tree)):
        p = tree.position(tree.parents[vid])
        q = tree.position(vid)
        assert math.hypot(q[0] - p[0], q[1] - p[1]) <= 0.25 + 1e-12


def test_rrt_path_endpoints():
    res = rrt_plan(world1_scenario(), baseline_params(), 0)
    assert res.success
    nodes = res.controls.samples
    start = nodes[0].state.position()
    end = nodes[-1].state.position()
    assert start == pytest.approx((-0.5, -0.5))
    assert math.hypot(end[0] - 2.0, end[1] - 2.0) <= 0.15


def test_rrt_deterministic():
    a = rrt_plan(world1_scenario(), baseline_params(), 12)
    b = rrt_plan(world1_scenario(), baseline_params(), 12)
    assert a.iterations == b.iterations
    assert a.controls.data == b.controls.data
    assert len(a.tree) == len(b.tree)


def test_rrt_with_a_huge_budget_allocates_what_it_grows(example1_file):
    # the columns grow with the tree, not with max_iters: a 10^12 budget
    # would need 8 TB per column up front
    sf = dataclasses.replace(example1_file, baseline=dataclasses.replace(
        example1_file.baseline, max_iters=10**12))
    res = rrt_plan(sf.scenario, sf.baseline, 0)
    assert res.success
    assert len(res.tree.xs) == len(res.tree.ys) == len(res.tree)


def test_rrt_rejects_moving_obstacles():
    moving = (CircularObstacle((1.0, 0.5), (-0.1, 0.3), 0.2),)
    sc = Scenario(RobotState(-0.5, -0.5, 1.0), 0.0, (2.0, 2.0), moving, PlannerParams())
    with pytest.raises(ValueError, match=r"obstacles\[0\]"):
        rrt_plan(sc, baseline_params())
    with pytest.raises(ValueError, match=r"obstacles\[0\]"):
        rrt_star_plan(sc, baseline_params())


def test_rrt_goal_bias_shortens_search():
    # bias ~1: nearly every sample is the goal, so the tree walks straight at it
    sc = Scenario(RobotState(0.0, 0.0, 0.0), 0.0, (2.0, 0.0), (), PlannerParams())
    biased = rrt_plan(sc, baseline_params(goal_bias=0.99))
    plain = rrt_plan(sc, baseline_params())
    assert biased.success
    assert biased.iterations < plain.iterations
    assert len(biased.tree) <= math.ceil(2.0 / 0.25) + 3


def test_rrt_goal_bias_validation():
    with pytest.raises(ValueError):
        baseline_params(goal_bias=1.0)
    with pytest.raises(ValueError):
        baseline_params(goal_bias=-0.1)


def test_rrt_exhausts_when_goal_unreachable():
    # goal behind an impassable wall of disks spanning the sampling box
    wall = tuple(
        CircularObstacle((1.0, -1.2 + 0.3 * k), (0.0, 0.0), 0.2) for k in range(15)
    )
    sc = Scenario(RobotState(0.0, 0.0, 0.0), 0.0, (2.5, 0.0), wall, PlannerParams())
    res = rrt_plan(sc, baseline_params(max_iters=300))
    assert not res.success
    assert res.iterations == 300
    assert res.controls is None


@pytest.mark.parametrize("start, inside", [
    # math.hypot puts it within epsilon, its squared distance is just outside
    pytest.param((1.8588713883864583, 2.0508204189675183), False, id="hypot-inside"),
    # d ** 2 puts it outside, d * d inside
    pytest.param((1.9045559705682538, 2.115717056849161), True, id="pow-outside"),
])
def test_planners_agree_on_a_start_at_the_goal_region_boundary(start, inside):
    # all three test the start and every new vertex as d1*d1 + d2*d2 <= eps*eps
    sc = Scenario(RobotState(*start, 0.0), 0.0, (2.0, 2.0), (), PlannerParams(max_iters=50))
    d1, d2 = start[0] - 2.0, start[1] - 2.0
    assert (d1 * d1 + d2 * d2 <= 0.15 * 0.15) is inside
    results = [plan(sc), rrt_plan(sc, baseline_params(max_iters=50)),
               rrt_star_plan(sc, baseline_params(max_iters=50))]
    assert [r.success and r.iterations == 0 for r in results] == [inside] * 3


# ---------------------------------------------------------------- rrt*


def test_rrt_star_free_space_near_optimal():
    sc = Scenario(RobotState(0.0, 0.0, 0.0), 0.0, (1.0, 1.0), (), PlannerParams())
    res = rrt_star_plan(sc, baseline_params(sample_bounds=((-1.0, 2.0), (-1.0, 2.0))))
    assert res.success
    straight = math.sqrt(2.0)
    # stops at the epsilon ball, so the floor is straight - epsilon
    assert straight - 0.15 - 1e-9 <= res.controls.path_length() <= 1.05 * straight


def first_solution(seed, **kw):
    """RRT*'s first solution: rrt and rrt-star add the same positions in the
    same order at a fixed seed (rewiring changes only parents and costs), so
    rrt-star cut off at rrt's iteration count stops right at it. Returns
    (rrt result, that cut-off rrt-star result)."""
    r = rrt_plan(world1_scenario(), baseline_params(**kw), seed)
    cut = rrt_star_plan(world1_scenario(),
                        baseline_params(**{**kw, "max_iters": r.iterations}), seed)
    return r, cut


def test_rrt_star_zero_radius_matches_rrt_first_solution():
    for seed in (0, 1, 2):
        r, s = first_solution(seed, rewire_gamma=0.0)
        assert r.success and s.success
        # one iteration fewer and rrt-star has not reached the goal yet
        earlier = rrt_star_plan(world1_scenario(), baseline_params(
            rewire_gamma=0.0, max_iters=r.iterations - 1), seed)
        assert not earlier.success
        # no near set, so every vertex joins its nearest at rrt's edge cost
        assert s.tree.parents == r.tree.parents
        assert s.tree.xs == r.tree.xs
        assert s.tree.ys == r.tree.ys
        assert s.tree.costs == r.tree.costs
        assert s.controls.data == r.controls.data


def test_rrt_star_runs_full_budget_and_refines():
    res = rrt_star_plan(world1_scenario(), baseline_params(max_iters=1500), 0)
    assert res.success
    assert res.iterations == 1500
    rrt_res, first = first_solution(0, max_iters=1500)
    assert first.success
    assert res.controls.path_length() <= first.controls.path_length() + 1e-12
    # keeps inserting after the first solution instead of stopping there
    assert len(res.tree) > len(rrt_res.tree)


@st.composite
def growth_runs(draw):
    """A seed and the baseline parameters of one run in world1: a sample
    box about it, each side degenerate one time in three (samples on a line
    grow collinear vertices, whose costs tie within the 1e-12 slack), and
    the step, radius gain, goal bias and a budget of at most 300 iterations."""
    def side(lo, hi):
        a = draw(st.floats(lo, hi))
        return (a, a) if draw(st.integers(0, 2)) == 0 else (a, draw(st.floats(a, a + 4.0)))
    params = baseline_params(sample_bounds=(side(-2.0, 1.0), side(-2.0, 1.0)),
                             delta_d=draw(st.floats(0.01, 2.0)),
                             rewire_gamma=draw(st.floats(0.0, 4.0)),
                             goal_bias=draw(st.sampled_from([0.0, 0.05, 0.5])),
                             max_iters=draw(st.integers(1, 300)))
    return draw(st.integers(0, 2**32 - 1)), params


def hex_floats(values):
    return [float(v).hex() for v in values]


@settings(max_examples=100, deadline=None)
@given(growth_runs(), st.sampled_from([(rrt_plan, False), (rrt_star_plan, True)]))
# samples on the line x = 0: collinear vertices whose costs tie within the slack
@example((1, baseline_params(delta_d=2.0, max_iters=7, sample_bounds=((0.0, 0.0), (0.0, 1.0)),
                             rewire_gamma=1.0)), (rrt_star_plan, True))
def test_the_growth_loop_matches_the_plain_reference(run, planner):
    # the grid queries, the hoisted constants and the radius kept between
    # iterations must leave every tree, cost and path bit for bit as the
    # loop written plainly over the numpy oracles grows them
    seed, params = run
    fn, rewire = planner
    got = fn(world1_scenario(), params, seed)
    want = grow_reference(world1_scenario(), params, seed, rewire)
    assert got.tree.parents == want.parents
    assert got.iterations == want.iterations
    for column in ("xs", "ys", "costs"):
        assert hex_floats(getattr(got.tree, column)) == hex_floats(getattr(want, column))
    if want.path is None:
        assert got.controls is None
    else:
        assert hex_floats(got.controls.data) == hex_floats(v for row in want.path for v in row)


def test_rrt_star_cost_bookkeeping():
    res = rrt_star_plan(world1_scenario(), baseline_params(max_iters=800), 4)
    tree = res.tree
    assert tree.costs[0] == 0.0
    for vid in range(1, len(tree)):
        # stored cost equals the recomputed root-path length
        length = 0.0
        cur = vid
        while tree.parents[cur] is not None:
            p = tree.position(tree.parents[cur])
            q = tree.position(cur)
            length += math.hypot(q[0] - p[0], q[1] - p[1])
            cur = tree.parents[cur]
        assert tree.costs[vid] == pytest.approx(length, abs=1e-9)


def test_rrt_star_deterministic():
    a = rrt_star_plan(world1_scenario(), baseline_params(max_iters=600), 9)
    b = rrt_star_plan(world1_scenario(), baseline_params(max_iters=600), 9)
    assert a.controls.data == b.controls.data
    assert len(a.tree) == len(b.tree)


@pytest.mark.parametrize("run", [
    pytest.param(lambda seed: plan(world1_scenario(), seed), id="plan"),
    pytest.param(lambda seed: rrt_plan(world1_scenario(), baseline_params(), seed),
                 id="rrt_plan"),
    pytest.param(lambda seed: rrt_star_plan(world1_scenario(), baseline_params(), seed),
                 id="rrt_star_plan"),
])
@pytest.mark.parametrize("seed, message", [
    pytest.param(None, r"^seed must be an integer, got None$", id="None"),
    pytest.param(True, r"^seed must be an integer, got True$", id="True"),
    pytest.param(-1, r"^seed must be >= 0, got -1$", id="negative"),
    pytest.param(1.5, r"^seed must be an integer, got 1\.5$", id="float"),
])
def test_planners_refuse_a_seed_that_is_not_an_integer_at_least_0(run, seed, message):
    # random.Random would seed from the OS for None, from abs(-1) and from
    # hash(1.5), and True would run as seed 1: none would be reproducible
    # as given
    with pytest.raises(ValueError, match=message):
        run(seed)


def test_baseline_params_validation():
    with pytest.raises(ValueError):
        BaselineParams(delta_d=0.0, max_iters=100, sample_bounds=BOUNDS)
    baseline_params()


@pytest.mark.parametrize(
    "overrides, message",
    [
        pytest.param({"delta_d": 0.0}, r"^delta_d must be > 0", id="delta_d"),
        pytest.param({"max_iters": 0}, r"^max_iters must be >= 1", id="max_iters"),
        pytest.param({"sample_bounds": ((1.0, -1.0), (-1.0, 3.0))},
                     r"^sample_bounds reversed", id="sample_bounds-x"),
        pytest.param({"sample_bounds": ((-1.0, 3.0), (1.0, -1.0))},
                     r"^sample_bounds reversed", id="sample_bounds-y"),
        # a side whose width overflows would map each draw to inf or nan
        pytest.param({"sample_bounds": ((-1.0, 3.0), (-1e308, 1e308))},
                     r"^sample_bounds sides must be finite", id="sample_bounds-width"),
        pytest.param({"goal_bias": 1.0}, r"^goal_bias must be in \[0, 1\)",
                     id="goal_bias"),
        pytest.param({"rewire_gamma": -1.0}, r"^rewire_gamma must be >= 0",
                     id="rewire_gamma"),
        # a bool would run as 1; one row would fail to unpack, naming no field
        pytest.param({"sample_bounds": ((True, 3.0), (-1.0, 3.0))},
                     r"^sample_bounds must hold numbers, "
                     r"got \(\(True, 3\.0\), \(-1\.0, 3\.0\)\)$",
                     id="sample_bounds-bool"),
        pytest.param({"sample_bounds": ((-1.0, 3.0),)},
                     r"^sample_bounds must hold 2 x 2 numbers, got \(\(-1\.0, 3\.0\),\)$",
                     id="sample_bounds-one-row"),
        pytest.param({"sample_bounds": ((-1.0, 3.0), 3.0)},
                     r"^sample_bounds must hold 2 x 2 numbers", id="sample_bounds-scalar-row"),
        pytest.param({"sample_bounds": ((-1.0, math.inf), (-1.0, 3.0))},
                     r"^sample_bounds must be finite, got \(\(-1\.0, inf\)",
                     id="sample_bounds-inf"),
        pytest.param({"delta_d": 10**400}, r"^delta_d must be finite, got 1000",
                     id="delta_d-huge-int"),
    ],
)
def test_baseline_checks_fire_on_construction_and_replace(overrides, message):
    with pytest.raises(ValueError, match=message):
        baseline_params(**overrides)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(baseline_params(), **overrides)
