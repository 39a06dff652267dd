import dataclasses
import math
import pathlib
import types
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cbfrrt import planner
from cbfrrt.baselines import BaselineParams
from cbfrrt.dynamics import CircularObstacle, RobotState
from cbfrrt.harness import load_scenario
from cbfrrt.planner import (
    PlannerParams,
    PlanTree,
    Scenario,
    extract_path,
    goal_check,
    goal_heading,
    heading_sample,
    index_draw,
    integrate_closed_loop,
    plan,
    root_path,
    safe_steer,
    steer_constants,
    vertices_sample,
)
from cbfrrt.safety import barrier_value
from oracles import extract_path_reference, integration_rule_violations


def straight_edge(tree, parent_id, params):
    t, x1, x2, theta = tree.edge(parent_id).data[-6:-2]
    edge = safe_steer((x1, x2, theta), t, 0.0, steer_constants((), params))
    return tree.add_child(parent_id, edge)


# ---------------------------------------------------------------- params


def test_params_validation():
    PlannerParams()
    with pytest.raises(ValueError):
        PlannerParams(t_h=0.0)
    with pytest.raises(ValueError):
        PlannerParams(dt=-0.1)
    with pytest.raises(ValueError):
        PlannerParams(dt=0.6, t_h=0.5)
    with pytest.raises(ValueError):
        PlannerParams(sigma2=-1.0)
    with pytest.raises(ValueError):
        PlannerParams(epsilon=0.0)
    with pytest.raises(ValueError):
        PlannerParams(max_iters=0)
    with pytest.raises(ValueError):
        PlannerParams(omega_bounds=(1.0, -1.0))


SAFE_START = Scenario(RobotState(0.0, 0.0, 0.0), 0.0, (2.0, 2.0),
                      (CircularObstacle((1.0, 1.0), (0.0, 0.0), 0.2),), PlannerParams())
EXAMPLE1 = load_scenario(
    pathlib.Path(planner.__file__).parent / "scenarios" / "example1.json").scenario


@pytest.mark.parametrize(
    "valid, overrides, message",
    [
        pytest.param(PlannerParams(), {"t_h": 0.0}, r"^t_h must be > 0", id="t_h"),
        pytest.param(PlannerParams(), {"dt": -0.1}, r"^dt must be > 0", id="dt"),
        pytest.param(PlannerParams(), {"dt": 0.6}, r"^dt must be <= t_h", id="dt-above-t_h"),
        pytest.param(PlannerParams(), {"sigma2": -1.0}, r"^sigma2 must be >= 0", id="sigma2"),
        pytest.param(PlannerParams(), {"epsilon": 0.0}, r"^epsilon must be > 0",
                     id="epsilon"),
        pytest.param(PlannerParams(), {"v_const": 0.0}, r"^v_const must be > 0",
                     id="v_const"),
        pytest.param(PlannerParams(), {"max_iters": 0}, r"^max_iters must be >= 1",
                     id="max_iters"),
        pytest.param(PlannerParams(), {"omega_bounds": (1.0, -1.0)},
                     r"^omega_bounds reversed", id="omega_bounds"),
        # the file parser refuses these before they reach the params; built in
        # Python they would crash the run (an infinite horizon in step_grid)
        pytest.param(PlannerParams(), {"t_h": math.inf}, r"^t_h must be finite, got inf",
                     id="t_h-inf"),
        pytest.param(PlannerParams(), {"omega_ref": math.nan},
                     r"^omega_ref must be finite, got nan", id="omega_ref-nan"),
        pytest.param(PlannerParams(), {"omega_bounds": (-math.inf, 1.0)},
                     r"^omega_bounds must be finite, got \(-inf, 1\.0\)",
                     id="omega_bounds-inf"),
        pytest.param(PlannerParams(), {"max_iters": 2.5},
                     r"^max_iters must be an integer, got 2\.5", id="max_iters-float"),
        pytest.param(PlannerParams(), {"max_iters": True},
                     r"^max_iters must be an integer, got True", id="max_iters-bool"),
        pytest.param(BaselineParams(), {"delta_d": math.inf},
                     r"^delta_d must be finite, got inf", id="delta_d-inf"),
        pytest.param(BaselineParams(), {"rewire_gamma": math.nan},
                     r"^rewire_gamma must be finite, got nan", id="rewire_gamma-nan"),
        pytest.param(BaselineParams(), {"max_iters": 2.5},
                     r"^max_iters must be an integer, got 2\.5", id="baseline-max_iters-float"),
        pytest.param(PlannerParams(), {"k1": math.inf}, r"^k1 must be finite, got inf",
                     id="k1-inf"),
        # a bool would run as 0 or 1 and a string would crash the run
        pytest.param(PlannerParams(), {"sigma2": True},
                     r"^sigma2 must be a number, got True$", id="sigma2-bool"),
        pytest.param(PlannerParams(), {"omega_bounds": (-1.0, True)},
                     r"^omega_bounds must hold numbers, got \(-1\.0, True\)$",
                     id="omega_bounds-bool"),
        pytest.param(BaselineParams(), {"goal_bias": "0.1"},
                     r"^goal_bias must be a number, got '0\.1'$", id="goal_bias-str"),
        # bad gains never reach the planner
        pytest.param(PlannerParams(), {"k1": 0.0}, r"^k1 must be > 0, got 0\.0$",
                     id="k1-zero"),
        pytest.param(PlannerParams(), {"k2": -1.0}, r"^k2 must be > 0, got -1\.0$",
                     id="k2-negative"),
        pytest.param(SAFE_START, {"x_init": RobotState(0.0, math.nan, 0.0)},
                     r"^x_init must be finite", id="x_init-nan"),
        pytest.param(SAFE_START, {"x_init": RobotState(1.1, 1.0, 0.0)},
                     r"^x_init lies inside obstacles\[0\]", id="x_init-in-disk"),
        pytest.param(SAFE_START,
                     {"obstacles": (CircularObstacle((0.0, 0.1), (0.0, 0.0), 0.2),)},
                     r"^x_init lies inside obstacles\[0\]", id="disk-over-start"),
        # the one number rule judges each field's shape, and its message
        # names the field where an index or an unpacking would not
        pytest.param(PlannerParams(), {"omega_bounds": (-1.0,)},
                     r"^omega_bounds must hold 2 numbers, got \(-1\.0,\)$",
                     id="omega_bounds-short"),
        pytest.param(PlannerParams(), {"omega_bounds": (-1.0, 1.0, 5.0)},
                     r"^omega_bounds must hold 2 numbers, got \(-1\.0, 1\.0, 5\.0\)$",
                     id="omega_bounds-long"),
        pytest.param(PlannerParams(), {"omega_bounds": 5.0},
                     r"^omega_bounds must hold 2 numbers, got 5\.0$",
                     id="omega_bounds-scalar"),
        pytest.param(PlannerParams(), {"t_h": 10**400}, r"^t_h must be finite, got 1000",
                     id="t_h-huge-int"),
        pytest.param(SAFE_START, {"x_goal": (2.0, 2.0, 9.0)},
                     r"^x_goal must hold 2 numbers, got \(2\.0, 2\.0, 9\.0\)$",
                     id="x_goal-long"),
        pytest.param(SAFE_START, {"t_init": 10**400}, r"^t_init must be finite, got 1000",
                     id="t_init-huge-int"),
        # a plain tuple is a start too, held as a RobotState
        pytest.param(SAFE_START, {"x_init": (1.1, 1.0, 0.0)},
                     r"^x_init lies inside obstacles\[0\]", id="x_init-tuple-in-disk"),
        pytest.param(SAFE_START, {"x_init": (0.0, 0.0)},
                     r"^x_init must hold 3 numbers, got \(0\.0, 0\.0\)$", id="x_init-short"),
        pytest.param(CircularObstacle((1.0, 1.0), (0.0, 0.0), 0.2), {"center0": (1.0,)},
                     r"^center0 must hold 2 numbers, got \(1\.0,\)$", id="center0-short"),
        pytest.param(CircularObstacle((1.0, 1.0), (0.0, 0.0), 0.2), {"velocity": [0.0, "1"]},
                     r"^velocity must hold numbers, got \(0\.0, '1'\)$", id="velocity-str"),
        # an obstacle that is not a disk names its index, in a tuple or a list
        pytest.param(SAFE_START, {"obstacles": (SAFE_START.obstacles[0], "disk")},
                     r"^obstacles\[1\] must be a CircularObstacle, got 'disk'$",
                     id="obstacle-str"),
        pytest.param(SAFE_START, {"obstacles": [{"center": (1.0, 1.0), "radius": 0.2}]},
                     r"^obstacles\[0\] must be a CircularObstacle, got \{'center'",
                     id="obstacle-dict-in-list"),
        # no message: a valid rebuild, which must equal and hash as the
        # original; a list of the file's disks is held as the file's tuple
        pytest.param(EXAMPLE1, {"obstacles": list(EXAMPLE1.obstacles)}, None,
                     id="obstacles-list-hashes"),
    ],
)
def test_checks_fire_on_construction_and_replace(valid, overrides, message):
    # valid by construction: building the object and replacing a field of a
    # valid one run the same check, and the message names the field
    fields = {f.name: getattr(valid, f.name) for f in dataclasses.fields(valid)}
    if message is None:
        for rebuilt in (type(valid)(**{**fields, **overrides}),
                        dataclasses.replace(valid, **overrides)):
            assert rebuilt == valid and hash(rebuilt) == hash(valid)
        return
    with pytest.raises(ValueError, match=message):
        type(valid)(**{**fields, **overrides})
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(valid, **overrides)


# ---------------------------------------------------------------- sampling


def test_vertices_sample_single_vertex():
    tree = PlanTree(RobotState(0.0, 0.0, 0.0), 0.0)
    draw = index_draw(np.random.default_rng(0).bit_generator)
    for _ in range(10):
        assert vertices_sample(tree, draw) == 0


def test_vertices_sample_uniform_frequencies():
    params = PlannerParams()
    tree = PlanTree(RobotState(0.0, 0.0, 0.0), 0.0)
    for _ in range(3):
        straight_edge(tree, len(tree) - 1, params)
    draw = index_draw(np.random.default_rng(123).bit_generator)
    counts = np.zeros(4)
    for _ in range(10_000):
        counts[vertices_sample(tree, draw)] += 1
    # binomial 3-sigma band around 2500
    assert np.all(np.abs(counts - 2500) <= 150)


def test_vertices_sample_deterministic():
    params = PlannerParams()
    tree = PlanTree(RobotState(0.0, 0.0, 0.0), 0.0)
    for _ in range(3):
        straight_edge(tree, len(tree) - 1, params)
    draw = index_draw(np.random.default_rng(5).bit_generator)
    seq1 = [vertices_sample(tree, draw) for _ in range(20)]
    draw = index_draw(np.random.default_rng(5).bit_generator)
    seq2 = [vertices_sample(tree, draw) for _ in range(20)]
    assert seq1 == seq2


# 2^31 + 1 rejects about half its 32-bit draws in Lemire's method (2^32 mod n
# is 2^31 - 1), 2^32 - 1 almost none, and 2^32 takes the 32-bit draw as is.
DRAW_SIZES = (1, 2, 3, 7, 1_000, 3_934, 2**31 + 1, 2**32 - 1, 2**32)


def test_index_draw_matches_generator_integers():
    # twin generators, one read through index_draw and one by numpy, with
    # normal draws (whole 64-bit words) between the integer draws, as plan
    # interleaves them; the raw streams must stay in step
    ours, numpys = np.random.default_rng(2024), np.random.default_rng(2024)
    draw = index_draw(ours.bit_generator)
    for i in range(3_000):
        n = DRAW_SIZES[i % len(DRAW_SIZES)]
        assert draw(n) == int(numpys.integers(0, n)), (i, n)
        if i % 3:
            assert ours.normal(0.5, 2.0) == numpys.normal(0.5, 2.0)
        assert ours.bit_generator.state["state"] == numpys.bit_generator.state["state"]


def test_index_draw_rejects_as_lemire_does():
    # near 2^31 the rejection fires on about half the 32-bit draws, so 1,000
    # draws read about 1,000 raw words, where no rejection would read 500
    words = []
    bits = np.random.default_rng(7).bit_generator

    def raw():
        words.append(bits.random_raw())
        return words[-1]

    draw = index_draw(types.SimpleNamespace(random_raw=raw))
    numpys = np.random.default_rng(7)
    for _ in range(1_000):
        assert draw(2**31 + 1) == int(numpys.integers(0, 2**31 + 1))
    assert 900 <= len(words) <= 1_100


def test_index_draw_of_one_reads_nothing():
    rng = np.random.default_rng(11)
    before = rng.bit_generator.state
    draw = index_draw(rng.bit_generator)
    assert [draw(1) for _ in range(5)] == [0] * 5
    assert rng.bit_generator.state == before
    # nor does it touch the buffered half: the next draws still match numpy's
    numpys = np.random.default_rng(11)
    for n in (5, 1, 9, 1, 1, 13):
        assert draw(n) == int(numpys.integers(0, n))


def test_plan_draws_do_not_leak_across_calls(example1_file):
    # each plan call builds its own draw, whose half-word buffer starts empty:
    # a plan run after others equals the same plan run first
    sc = example1_file.scenario
    sc = dataclasses.replace(sc, params=dataclasses.replace(sc.params, max_iters=300))
    fresh = plan(sc, 4)
    for other in (0, 1, 2, 3):
        plan(sc, other)
        again = plan(sc, 4)
        assert (again.iterations, again.tree.parents, again.tree.data) == (
            fresh.iterations, fresh.tree.parents, fresh.tree.data)


def test_heading_sample_matches_generator_normal():
    # Generator.normal(mean, sd) is mean + sd * standard_normal(): the same
    # float bit for bit (hex tells -0.0 apart), sd = 0 included, with integer
    # draws between them as in plan
    ours, numpys = np.random.default_rng(99), np.random.default_rng(99)
    draw = index_draw(ours.bit_generator)
    goal = (2.0, 2.0)
    for i in range(3_000):
        position = (0.001 * i - 1.0, 2.0 - 0.002 * i)
        sd = (0.0, math.sqrt(0.2), math.sqrt(0.6), 3.0)[i % 4]
        got = heading_sample(position, goal, sd, ours)
        want = float(numpys.normal(goal_heading(position, goal), sd))
        assert got.hex() == want.hex(), (i, got, want)
        assert draw(i + 1) == int(numpys.integers(0, i + 1))


def test_goal_heading_quadrants():
    assert goal_heading((0.0, 0.0), (1.0, 1.0)) == pytest.approx(math.pi / 4)
    # genuinely needs the two-argument arctangent
    assert goal_heading((0.0, 0.0), (-1.0, 0.0)) == pytest.approx(math.pi)
    assert goal_heading((0.0, 0.0), (0.0, -2.0)) == pytest.approx(-math.pi / 2)
    assert goal_heading((1.0, 1.0), (1.0, 1.0)) == 0.0


def test_heading_sample_degenerate_variance():
    out = heading_sample((0.0, 0.0), (1.0, 1.0), 0.0, np.random.default_rng(0))
    assert type(out) is float
    assert out == pytest.approx(math.pi / 4)


def test_heading_sample_mean():
    rng = np.random.default_rng(42)
    sd = math.sqrt(0.2)
    draws = [heading_sample((0.0, 0.0), (1.0, 1.0), sd, rng) for _ in range(10_000)]
    band = 3.0 * math.sqrt(0.2 / 10_000)
    assert abs(np.mean(draws) - math.pi / 4) <= band


# ---------------------------------------------------------------- steering


def test_safe_steer_free_space_straight():
    params = PlannerParams()
    x0 = RobotState(0.0, 0.0, 0.0)
    traj = safe_steer(x0, 0.0, 0.0, steer_constants((), params))
    x_new, t_new = traj.samples[-1].state, traj.t_end
    assert x_new.x1 == pytest.approx(0.5, abs=1e-9)
    assert x_new.x2 == pytest.approx(0.0, abs=1e-15)
    assert x_new.theta == 0.0
    assert t_new == 0.5
    assert len(traj) == 26  # 25 steps of 0.02 plus the terminal node


def test_safe_steer_head_on_fails_before_contact():
    params = PlannerParams()
    x0 = RobotState(0.0, 0.0, 0.0)
    ob = CircularObstacle((1.0, 0.0), (0.0, 0.0), 0.2)
    assert safe_steer(x0, 0.0, 0.0, steer_constants((ob,), params)) is None


def test_safe_steer_swerves_around_offset_obstacle():
    params = PlannerParams()
    x0 = RobotState(0.0, 0.0, 0.0)
    ob = CircularObstacle((0.5, 0.15), (0.0, 0.0), 0.2)
    traj = safe_steer(x0, 0.0, 0.0, steer_constants((ob,), params))
    assert traj is not None
    x_new, t_new = traj.samples[-1].state, traj.t_end
    assert x_new.theta != 0.0  # the filter had to steer
    assert min(barrier_value(s.state, ob, s.t) for s in traj.samples) >= 0.0
    assert t_new == 0.5
    # edge starts exactly at the vertex
    assert traj.samples[0].state == x0
    assert traj.samples[0].t == 0.0


def test_safe_steer_rejects_feasible_but_penetrating_edge():
    # with complex characteristic roots (k2^2 < 4 k1) the barrier rings below
    # zero while every per-node QP stays feasible; the raw closed loop drives
    # into the disk and the steering call must refuse the edge
    params = PlannerParams(k1=0.6, k2=1.5, t_h=1.0)
    ob = CircularObstacle((0.6, 0.15), (0.0, 0.0), 0.2)
    x0 = RobotState(0.0, 0.0, 0.0)

    constants = steer_constants((ob,), params)
    raw = integrate_closed_loop(x0, 0.0, 0.0, constants)
    assert raw is not None  # every QP was feasible...
    assert min(barrier_value(s.state, ob, s.t) for s in raw.samples) < 0.0  # ...yet it collides
    assert safe_steer(x0, 0.0, 0.0, constants) is None


def test_safe_steer_rejects_grazing_below_margin():
    # the disk is tangent to the path between two integration nodes: both
    # nodes are safe (h = +4e-5 at x = 0.24 and 0.26) yet the chord midpoint
    # is inside (h = -6e-5 at x = 0.25); only the node margin catches this
    params = PlannerParams()
    ob = CircularObstacle((0.25, 0.19985), (0.0, 0.0), 0.2)
    x0 = RobotState(0.0, 0.0, 0.0)
    assert barrier_value(RobotState(0.24, 0.0, 0.0), ob, 0.0) > 0.0
    assert barrier_value(RobotState(0.25, 0.0, 0.0), ob, 0.0) < 0.0
    assert safe_steer(x0, 0.0, 0.0, steer_constants((ob,), params)) is None



def _exact(*values):
    return tuple(Fraction(x) for x in values)


# grid values make tight chords likely: unit moves, symmetric end nodes
_unit = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0))
# a direction of length <= 1: a pair outside the unit disk is halved (exact
# in floats, and then of length <= sqrt(2)/2), not drawn again, so that the
# test does not discard most of its draws
_move = st.tuples(_unit, _unit).map(
    lambda p: p if p[0] * p[0] + p[1] * p[1] <= 1.0 else (p[0] / 2, p[1] / 2))
_coord = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-5.0, 5.0))
_fill = st.one_of(st.just(1.0), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 2.0)),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), st.floats(1e-3, 1.0),
       st.tuples(_coord, _coord), _move, st.tuples(_coord, _coord), _move, _fill)
# the tight case: h0 = h1 = margin, |delta| = L, minimum exactly 0 at s = 1/2
@example(1.0, 0.0, 1.0, (-0.5, 0.5), (1.0, 0.0), (0.0, 0.0), (0.0, 0.0), 1.0)
def test_node_margin_clears_the_chord_between_nodes(v, v_obs, step, p0, robot,
                                                    c0, disk, fill):
    # steer_constants' node margin claim, in exact arithmetic. Over one step the
    # robot moves at most v*step and the disk at most v_obs*step, so their
    # relative displacement delta is at most L = (v + v_obs)*step. Along the
    # chord h(s) = (1-s)*h0 + s*h1 - s*(1-s)*|delta|^2, so end nodes with h
    # at or above the node margin L^2/4 leave the exact minimum >= 0.
    v, v_obs, step, fill = _exact(v, v_obs, step, fill)
    (a, b), (c, d) = _exact(*robot), _exact(*disk)
    assume(a * a + b * b <= 1 and c * c + d * d <= 1)
    (px, py), (cx, cy) = _exact(*p0), _exact(*c0)
    r0 = (px - cx, py - cy)
    delta = (v * step * a - v_obs * step * c, v * step * b - v_obs * step * d)
    r1 = (r0[0] + delta[0], r0[1] + delta[1])
    length = (v + v_obs) * step
    margin = length * length / 4
    dd = delta[0] ** 2 + delta[1] ** 2
    assert dd <= length * length
    # the disk's squared radius puts the nearer end node between h = margin
    # (fill = 1) and its full clearance (fill = 0)
    room = min(r0[0] ** 2 + r0[1] ** 2, r1[0] ** 2 + r1[1] ** 2) - margin
    assume(room >= 0)
    r2 = fill * room

    def h(s):
        return (r0[0] + s * delta[0]) ** 2 + (r0[1] + s * delta[1]) ** 2 - r2

    h0, h1 = h(0), h(1)
    assert min(h0, h1) >= margin
    s = 0 if dd == 0 else min(max(-(r0[0] * delta[0] + r0[1] * delta[1]) / dd, 0), 1)
    assert h(s) == (1 - s) * h0 + s * h1 - s * (1 - s) * dd
    assert h(s) >= 0


# ---------------------------------------------------------------- goal / path


def test_goal_check():
    params = PlannerParams()
    x0 = RobotState(1.9, 2.0, 0.0)
    traj = safe_steer(x0, 0.0, 0.0, steer_constants((), params))
    assert goal_check(traj, (2.0, 2.0), 0.15)
    assert not goal_check(traj, (5.0, 5.0), 0.15)
    # interior node inside the goal disk counts even if the endpoint leaves it
    x_new = traj.samples[-1].state
    assert math.hypot(x_new.x1 - 2.2, x_new.x2 - 2.0) > 0.15
    assert goal_check(traj, (2.2, 2.0), 0.15)


def test_goal_check_interior_only():
    # straight edge passing through the disk and out the far side
    params = PlannerParams(t_h=1.0)
    x0 = RobotState(0.0, 0.0, 0.0)
    traj = safe_steer(x0, 0.0, 0.0, steer_constants((), params))
    x_new = traj.samples[-1].state
    assert math.hypot(x_new.x1 - 0.5, x_new.x2) > 0.15
    assert goal_check(traj, (0.5, 0.0), 0.15)


def test_extract_path_root_only():
    # the root's one node, as a baseline writes a one-point path
    tree = PlanTree(RobotState(1.0, 2.0, 3.0), 4.0)
    assert extract_path(tree, 0).data == array("d", (4.0, 1.0, 2.0, 3.0, 0.0, 0.0))


def test_extract_path_two_edges():
    params = PlannerParams(dt=0.1)
    tree = PlanTree(RobotState(0.0, 0.0, 0.0), 0.0)
    v1 = straight_edge(tree, 0, params)
    v2 = straight_edge(tree, v1, params)
    path = extract_path(tree, v2)
    # 6 + 6 samples with the junction deduplicated
    assert len(path) == 11
    assert path.t0 == 0.0
    assert path.t_end == pytest.approx(1.0, abs=1e-12)
    ts = [s.t for s in path.samples]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_extract_path_unknown_vertex():
    tree = PlanTree(RobotState(0.0, 0.0, 0.0), 0.0)
    with pytest.raises(KeyError):
        extract_path(tree, 99)


def test_add_child_reads_the_child_from_its_edge():
    params = PlannerParams()
    tree = PlanTree(RobotState(0.0, 0.0, 0.0), 0.0)
    t, x1, x2, theta = tree.edge(0).data[-6:-2]
    edge = safe_steer((x1, x2, theta), t, 0.0, steer_constants((), params))
    # the child is the edge's last node: the edge's nodes follow the root's
    # in the tree's one buffer, and edge(1) gives them back
    assert tree.add_child(0, edge) == 1
    assert tree.edge(1).data == edge.data
    assert tree.data == array("d", (t, x1, x2, theta, 0.0, 0.0)) + edge.data
    assert list(tree.ends) == [1, 1 + len(edge)]
    assert tree.parents == [None, 0]


@pytest.mark.parametrize("scenario_name, t_h", [("example1", 0.25), ("example2", None)])
def test_extract_path_matches_the_junction_testing_reference(request, scenario_name, t_h):
    # the unconditional junction drop equals the old 1e-9 junction test on
    # every root path of plan's trees
    sc = request.getfixturevalue(f"{scenario_name}_file").scenario
    if t_h is not None:
        sc = dataclasses.replace(sc, params=dataclasses.replace(sc.params, t_h=t_h))
    for seed in range(4):
        tree = plan(sc, seed).tree
        for vid in range(len(tree)):
            assert extract_path(tree, vid).data == extract_path_reference(tree, vid).data


# ---------------------------------------------------------------- plan


def test_validate_scenario_rejects_unsafe_start():
    params = PlannerParams()
    ob = CircularObstacle((0.0, 0.0), (0.0, 0.0), 0.2)
    with pytest.raises(ValueError, match=r"obstacles\[0\]"):
        Scenario(RobotState(0.0, 0.0, 0.0), 0.0, (2.0, 2.0), (ob,), params)


def test_plan_reaches_goal_and_tree_is_consistent(example1_file):
    sc = example1_file.scenario
    result = plan(sc)
    assert result.success
    assert result.iterations >= 1
    tree = result.tree

    # single root, connected, acyclic; vertex times follow depth * t_h
    assert len(tree.parents) == len(tree.ends) == len(tree)
    assert len(tree.data) == 6 * tree.ends[-1]
    assert tree.parents[0] is None
    assert tree.edge(0).data == array("d", (sc.t_init, *sc.x_init, 0.0, 0.0))
    for vid in range(1, len(tree)):
        parent = tree.parents[vid]
        assert 0 <= parent < vid
        edge = tree.edge(vid)
        depth = len(root_path(tree.parents, vid)) - 1
        assert edge.t_end == pytest.approx(sc.t_init + depth * sc.params.t_h, abs=1e-9)
        # the edge starts at its parent's (time, position)
        assert edge.data[:3] == tree.edge(parent).data[-6:-3]
        # every applied control respects the box
        lo, hi = sc.params.omega_bounds
        for s in edge.samples:
            assert lo - 1e-12 <= s.control.omega <= hi + 1e-12
            assert s.control.v == sc.params.v_const

    # goal correctness on the extracted path, which runs from the root to
    # the last vertex added
    assert goal_check(result.controls, sc.x_goal, sc.params.epsilon)
    assert result.controls.data[:3] == tree.edge(0).data[:3]
    assert result.controls.data == extract_path(tree, len(tree) - 1).data


def test_plan_edges_stay_safe(example1_file):
    sc = example1_file.scenario
    result = plan(sc)
    worst = min(
        barrier_value(s.state, ob, s.t)
        for vid in range(1, len(result.tree))
        for s in result.tree.edge(vid).samples
        for ob in sc.obstacles
    )
    assert worst >= -1e-6


def test_plan_is_deterministic(example1_file):
    sc = example1_file.scenario
    a = plan(sc)
    b = plan(sc)
    assert a.iterations == b.iterations
    assert len(a.tree) == len(b.tree)
    assert a.tree.parents == b.tree.parents
    assert a.tree.ends == b.tree.ends
    assert a.tree.data == b.tree.data
    assert [s.t for s in a.controls.samples] == [s.t for s in b.controls.samples]


@pytest.mark.parametrize(
    "scenario_name, t_h, seed, iterations, vertices",
    [("example1", 0.25, 2, 3_470, 1_971), ("example2", None, 0, 194, 174)],
)
def test_plan_counts_are_pinned(request, scenario_name, t_h, seed, iterations, vertices):
    # a change to any float of the per-node kernel (ECBF rows, QP clamp, RK4,
    # margin check) moves these counts
    sc = request.getfixturevalue(f"{scenario_name}_file").scenario
    if t_h is not None:
        sc = dataclasses.replace(sc, params=dataclasses.replace(sc.params, t_h=t_h))
    result = plan(sc, seed)
    assert result.success
    assert result.iterations == iterations
    assert len(result.tree) == vertices


def test_budget_exhausted_plan_counts_are_pinned(example1_file, monkeypatch):
    # example1 at t_h = 0.25, seed 1 never reaches the goal; 4 of its edges
    # are integrated and then fail the node margin, the only margin rejects
    # the reach bound of the margin check must keep
    verdicts = []
    clears = planner._edge_clears_obstacles

    def counted(*args):
        verdicts.append(clears(*args))
        return verdicts[-1]

    monkeypatch.setattr(planner, "_edge_clears_obstacles", counted)
    sc = example1_file.scenario
    sc = dataclasses.replace(sc, params=dataclasses.replace(sc.params, t_h=0.25))
    result = plan(sc, 1)
    assert not result.success
    assert result.controls is None
    assert result.iterations == 10_000
    assert len(result.tree) == 3_934
    assert verdicts.count(True) == 3_933
    assert verdicts.count(False) == 4


@pytest.mark.parametrize("scenario_name, t_h", [("example1", 0.25), ("example2", None)])
def test_edges_start_at_parent_and_end_at_child(request, scenario_name, t_h):
    # a cbf-rrt tree.json (schema 2 and 3) writes no edge's first node: it
    # is rebuilt from the parent vertex, its edge's last node, so the two
    # must be bit-equal, not merely close (repr tells -0.0 apart)
    sc = request.getfixturevalue(f"{scenario_name}_file").scenario
    params = dataclasses.replace(sc.params, max_iters=600)
    if t_h is not None:
        params = dataclasses.replace(params, t_h=t_h)
    sc = dataclasses.replace(sc, params=params)
    for seed in range(3):
        tree = plan(sc, seed).tree
        assert len(tree) > 50
        for vid in range(1, len(tree)):
            edge = tree.edge(vid)
            assert len(edge) >= 2
            assert (list(map(repr, edge.data[:3]))
                    == list(map(repr, tree.edge(tree.parents[vid]).data[-6:-3])))


@pytest.mark.parametrize("scenario_name, t_h, dt", [
    ("example1", 0.25, None),
    ("example1", 0.5, None),
    ("example2", None, None),
    # 0.25 = 8 * 0.03 + 0.01: every edge ends on a 0.01 s tail step
    ("example1", 0.25, 0.03),
])
def test_edges_follow_the_integration_rules(request, scenario_name, t_h, dt):
    # a cbf-rrt tree.json (schema 2 and 3) writes no edge's t, v, inner
    # theta or last omega: each must follow from the integration, bit for bit
    sc = request.getfixturevalue(f"{scenario_name}_file").scenario
    params = dataclasses.replace(sc.params, max_iters=600)
    if t_h is not None:
        params = dataclasses.replace(params, t_h=t_h)
    if dt is not None:
        params = dataclasses.replace(params, dt=dt)
    sc = dataclasses.replace(sc, params=params)
    for seed in range(2):
        tree = plan(sc, seed).tree
        assert len(tree) > 20
        assert integration_rule_violations(tree, params) == []


def test_plan_goal_already_reached():
    params = PlannerParams()
    sc = Scenario(RobotState(2.0, 2.05, 0.0), 0.0, (2.0, 2.0), (), params)
    result = plan(sc)
    assert result.success
    assert result.iterations == 0
    assert len(result.tree) == 1
    # the path is the root node
    assert result.controls.data == array("d", (0.0, 2.0, 2.05, 0.0, 0.0, 0.0))


def test_plan_exhausts_budget(example1_file):
    sc = example1_file.scenario
    sc = dataclasses.replace(sc, params=dataclasses.replace(sc.params, max_iters=3))
    result = plan(sc)
    assert not result.success
    assert result.iterations == 3
    assert result.controls is None


def test_failed_expansions_add_nothing():
    # boxed-in start: every expansion fails, the tree stays a lone root
    params = PlannerParams(max_iters=50)
    obstacles = (
        CircularObstacle((0.45, 0.0), (0.0, 0.0), 0.2),
        CircularObstacle((-0.45, 0.0), (0.0, 0.0), 0.2),
        CircularObstacle((0.0, 0.45), (0.0, 0.0), 0.2),
        CircularObstacle((0.0, -0.45), (0.0, 0.0), 0.2),
    )
    sc = Scenario(RobotState(0.0, 0.0, 0.0), 0.0, (2.0, 2.0), obstacles, params)
    result = plan(sc, 1)
    assert not result.success
    assert len(result.tree) == 1
