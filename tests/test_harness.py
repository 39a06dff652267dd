import base64
import collections
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import re
import struct
import subprocess
import sys
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cbfrrt
from cbfrrt import harness, planner
from cbfrrt.baselines import BaselineParams
from cbfrrt.dynamics import (
    CircularObstacle,
    ControlInput,
    RobotState,
    Trajectory,
    TrajectorySample,
)
from cbfrrt.harness import (
    AUDIT_TOL,
    COMPARISON_HEADER,
    ScenarioValidationError,
    _format_tree_json,
    audit_trajectory,
    compare,
    configure,
    execute,
    format_trajectory_csv,
    load_scenario,
    load_sweep,
    read_trajectory_csv,
    run,
)
from cbfrrt.planner import PlannerParams, PlanTree, Scenario
from identity_corpus import MANIFEST, cases, configured
from oracles import (
    audit_reference,
    expand_tree_json,
    full_tree_json_reference,
    integration_rule_violations,
    sampled_chord_barriers,
    trajectory_from_samples,
    tree_json_reference,
    unpack_f8,
    write_scenario,
)

SCENARIO_DIR = pathlib.Path(cbfrrt.__file__).parent / "scenarios"


def small_doc(**overrides):
    doc = {
        "schema": 1,
        "name": "tiny",
        "x_init": [0.0, 0.0, 0.0],
        "t_init": 0.0,
        "x_goal": [2.0, 0.0],
        "goal_horizon": 10.0,
        "obstacles": [{"center": [1.0, 0.8], "radius": 0.2, "velocity": [0.0, 0.0]}],
        "planner": {"max_iters": 500},
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


# ---------------------------------------------------------------- loading


def test_load_bundled_example1(example1_file):
    sc = example1_file.scenario
    assert sc.x_init == RobotState(-0.5, -0.5, 1.0)
    assert sc.x_goal == (2.0, 2.0)
    assert len(sc.obstacles) == 3
    assert all(ob.radius == 0.2 and ob.is_static() for ob in sc.obstacles)
    assert sc.obstacles[0].center0 == (0.3, 1.2)
    assert sc.params.sigma2 == 0.6
    assert (sc.params.k1, sc.params.k2) == (2.0, 4.0)
    assert sc.params.epsilon == 0.15
    assert sc.params.t_h == 0.5
    assert sc.params.v_const == 1.0
    assert example1_file.baseline.delta_d == 0.25


def test_load_bundled_example2(example2_file):
    sc = example2_file.scenario
    assert len(sc.obstacles) == 1
    assert sc.obstacles[0].velocity == (-0.1, 0.3)
    assert (sc.params.k1, sc.params.k2) == (0.6, 1.5)


def test_a_loaded_scenario_file_hashes(example1_file):
    # frozen and holding no dict: the file's metadata is not kept
    assert hash(example1_file) == hash(dataclasses.replace(example1_file))


def test_load_checks_metadata_and_does_not_keep_it(tmp_path):
    # name and metadata document a file; a run reads neither, so files that
    # differ only in them load equal, and a file may leave them out
    sf = load_scenario(write_doc(tmp_path, small_doc(metadata={"note": [1, 2]})))
    assert sf == load_scenario(write_doc(tmp_path, small_doc()))
    with pytest.raises(ScenarioValidationError, match=r"^metadata: expected an object$"):
        load_scenario(write_doc(tmp_path, small_doc(metadata=[1, 2])))
    renamed = load_scenario(write_doc(tmp_path, small_doc(name="other")))
    assert renamed == sf and hash(renamed) == hash(sf)
    unnamed = small_doc()
    del unnamed["name"]
    assert load_scenario(write_doc(tmp_path, unnamed)) == sf
    with pytest.raises(ScenarioValidationError, match=r"^name: expected a string$"):
        load_scenario(write_doc(tmp_path, small_doc(name=[1, 2])))


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_scenario(tmp_path / "nope.json")


def test_load_malformed_json(tmp_path):
    # the one invalid-input class, which except ValueError catches as it
    # catches json.loads's own error; json's parser recurses per level, so
    # 200,000 open brackets raise RecursionError inside it
    p = tmp_path / "bad.json"
    for text in ("{not json", '{"schema": 1,', "[" * 200_000):
        p.write_text(text)
        for load in (load_scenario, load_sweep):
            with pytest.raises(ScenarioValidationError, match="not valid JSON") as caught:
                load(p)
            assert isinstance(caught.value, ValueError)


def test_load_wrong_schema(tmp_path):
    p = write_doc(tmp_path, small_doc(schema=2))
    with pytest.raises(ScenarioValidationError, match="schema"):
        load_scenario(p)


def test_load_negative_radius_names_the_field(tmp_path):
    doc = small_doc()
    doc["obstacles"][0]["radius"] = -1.0
    p = write_doc(tmp_path, doc)
    with pytest.raises(ScenarioValidationError, match=r"obstacles\[0\]\.radius"):
        load_scenario(p)


def test_load_start_inside_obstacle(tmp_path):
    doc = small_doc()
    doc["obstacles"][0]["center"] = [0.0, 0.1]
    p = write_doc(tmp_path, doc)
    with pytest.raises(ScenarioValidationError, match=r"^x_init lies inside obstacles\[0\]"):
        load_scenario(p)


def test_load_goal_crossed_by_moving_obstacle(tmp_path):
    # the disk sweeps straight over the goal within the declared horizon
    doc = small_doc()
    doc["obstacles"][0] = {"center": [4.0, 0.0], "radius": 0.2, "velocity": [-0.5, 0.0]}
    p = write_doc(tmp_path, doc)
    with pytest.raises(ScenarioValidationError,
                       match=r"^obstacles\[0\] enters the goal disk within goal_horizon"):
        load_scenario(p)
    # with a shorter horizon the crossing is outside the checked window
    doc["goal_horizon"] = 2.0
    p = write_doc(tmp_path, doc, "ok.json")
    assert load_scenario(p).goal_horizon == 2.0


def test_load_missing_required_field(tmp_path):
    doc = small_doc()
    del doc["x_goal"]
    p = write_doc(tmp_path, doc)
    with pytest.raises(ScenarioValidationError, match="x_goal"):
        load_scenario(p)


def test_planner_defaults_applied(tmp_path):
    p = write_doc(tmp_path, small_doc())
    sf = load_scenario(p)
    assert sf.scenario.params.dt == 0.02
    assert sf.scenario.params.max_iters == 500  # explicit override kept
    assert sf.baseline == BaselineParams()  # no baseline block: pure defaults


def test_round_trip(tmp_path, example1_file, example2_file):
    for i, sf in enumerate((example1_file, example2_file)):
        out = tmp_path / f"{i}.json"
        write_scenario(sf, out)
        again = load_scenario(out)
        assert again == sf


def test_round_trip_every_block_field(tmp_path, example1_file):
    params = PlannerParams(
        t_h=0.4, dt=0.01, sigma2=0.3, epsilon=0.2, k1=1.5, k2=3.5,
        v_const=0.8, omega_ref=0.1, omega_bounds=(-3.0, 2.0), max_iters=123,
    )
    baseline = BaselineParams(
        delta_d=0.3, max_iters=77, sample_bounds=((-2.0, 4.0), (-1.5, 3.5)),
        rewire_gamma=1.25, goal_bias=0.1,
    )
    # every field is a file field, and each differs from its default
    for obj in (params, baseline):
        default = type(obj)()
        for f in dataclasses.fields(obj):
            assert getattr(obj, f.name) != getattr(default, f.name), f.name
    sf = dataclasses.replace(
        example1_file, baseline=baseline,
        scenario=dataclasses.replace(example1_file.scenario, params=params),
    )
    out = tmp_path / "every_field.json"
    write_scenario(sf, out)
    assert load_scenario(out) == sf


@pytest.mark.parametrize("key", ["k1", "k2"])
def test_load_nonpositive_gain_names_it(tmp_path, key):
    p = write_doc(tmp_path, small_doc(planner={key: 0}))
    with pytest.raises(ScenarioValidationError, match=rf"^planner\.{key} must be > 0"):
        load_scenario(p)


# ---------------------------------------------------------------- auditing


def straight_line_trajectory(x0, x1, n, v=1.0):
    samples = []
    for k in range(n):
        a = k / (n - 1)
        x = (1 - a) * x0[0] + a * x1[0]
        y = (1 - a) * x0[1] + a * x1[1]
        samples.append(
            TrajectorySample(a, RobotState(x, y, 0.0), ControlInput(v, 0.0))
        )
    return trajectory_from_samples(samples)


def test_audit_clean_trajectory():
    traj = straight_line_trajectory((0.0, 2.0), (1.0, 2.0), 11)
    obstacles = (CircularObstacle((0.5, 0.0), (0.0, 0.0), 0.2),)
    ok, min_h = audit_trajectory(traj, obstacles)
    assert ok
    assert min_h == pytest.approx(4.0 - 0.04, abs=1e-9)


def test_audit_interpolates_between_nodes():
    # both nodes are outside the disk; only the chord between them crosses it
    traj = straight_line_trajectory((-1.0, 0.0), (1.0, 0.0), 2)
    obstacles = (CircularObstacle((0.0, 0.0), (0.0, 0.0), 0.2),)
    ok, min_h = audit_trajectory(traj, obstacles)
    assert not ok
    assert min_h == pytest.approx(-0.04, abs=1e-3)


def test_audit_moving_obstacle_times():
    # obstacle arrives at the robot's position exactly at t = 1
    traj = trajectory_from_samples(
        [
            TrajectorySample(0.0, RobotState(0.0, 0.0, 0.0), ControlInput(0.0, 0.0)),
            TrajectorySample(1.0, RobotState(0.0, 0.0, 0.0), ControlInput(0.0, 0.0)),
        ]
    )
    obstacles = (CircularObstacle((1.0, 0.0), (-1.0, 0.0), 0.2),)
    ok, min_h = audit_trajectory(traj, obstacles)
    assert not ok
    assert min_h == pytest.approx(-0.04, abs=1e-9)


def test_audit_empty_and_obstacle_free():
    # every planned path has at least its start node, so no nodes is an error
    with pytest.raises(ValueError, match=r"no nodes"):
        audit_trajectory(trajectory_from_samples([]), ())
    traj = straight_line_trajectory((0.0, 0.0), (1.0, 0.0), 5)
    assert audit_trajectory(traj, ()) == (True, None)


def test_audit_fails_a_nan_barrier(example1_file):
    # a NaN h must fail the certificate, not be skipped by the minimum
    traj = Trajectory(array("d", [0.0, 0.0, 0.0, 0.0, 1.0, 0.0,
                                  1.0, math.nan, 1.0, 0.0, 1.0, 0.0]))
    ok, min_h = audit_trajectory(traj, example1_file.scenario.obstacles)
    assert not ok
    assert math.isnan(min_h)


def test_audit_refuses_a_time_column_that_goes_back():
    # a chord runs forward in time, so a t that goes back is refused: read in
    # t order (0, 1, 2) this path would skip its middle node, which sits on
    # the disk's centre
    nodes = [(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)]
    obstacles = (CircularObstacle((0.0, 0.0), (0.0, 0.0), 0.2),)

    def path(times):
        return trajectory_from_samples(
            [TrajectorySample(t, RobotState(x, y, 0.0), ControlInput(1.0, 0.0))
             for t, (x, y) in zip(times, nodes)])

    with pytest.raises(ValueError, match=r"^node 2: t=1\.0 is before the previous "
                                         r"node's t=2\.0$"):
        audit_trajectory(path((0.0, 2.0, 1.0)), obstacles)
    with pytest.raises(ValueError, match=r"^node 2: "):
        audit_trajectory(path((0.0, 2.0, 1.0)), ())
    ok, min_h = audit_trajectory(path((0.0, 1.0, 2.0)), obstacles)
    assert not ok
    assert min_h == pytest.approx(-0.04, abs=1e-12)
    # a repeated time does not go back
    assert audit_trajectory(path((0.0, 1.0, 1.0)), obstacles)[0] is False


def test_audit_fails_a_segment_that_grazes_the_disk_between_samples():
    # the chord's closest point to the centre is 1e-5 m^2 inside the disk;
    # samples every 0.005 s fall 0.005 m either side of it, and clear the
    # disk by 1.5e-5 m^2
    y0 = math.sqrt(0.04 - 1e-5)
    traj = straight_line_trajectory((-1.005, y0), (0.995, y0), 2)
    obstacles = (CircularObstacle((0.0, 0.0), (0.0, 0.0), 0.2),)
    ok, min_h = audit_trajectory(traj, obstacles)
    assert not ok
    assert min_h == pytest.approx(-1e-5, abs=1e-12)


def test_audit_fails_a_jump_across_the_disk(tmp_path):
    # two rows at t = 1 on either side of the disk: both nodes clear it by
    # 0.21 m^2, and the chord between them runs through its centre
    path = tmp_path / "jump.csv"
    path.write_text("t,x1,x2,theta,v,omega\n"
                    "0.0,-0.5,0.0,0.0,0.0,0.0\n1.0,-0.5,0.0,0.0,0.0,0.0\n"
                    "1.0,0.5,0.0,0.0,0.0,0.0\n2.0,0.5,0.0,0.0,0.0,0.0\n")
    obstacles = (CircularObstacle((0.0, 0.0), (0.0, 0.0), 0.2),)
    ok, min_h = audit_trajectory(read_trajectory_csv(path), obstacles)
    assert not ok
    assert min_h == pytest.approx(-0.04, abs=1e-12)


def _coordinates(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def audit_cases(draw):
    """2-6 nodes at non-decreasing times (a repeat is a jump), 1-3 moving
    disks and a sampling count m."""
    n = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.one_of(st.just(0.0), _coordinates(0.0, 2.0)),
                         min_size=n - 1, max_size=n - 1))
    t = draw(_coordinates(0.0, 5.0))
    rows = array("d")
    for gap in [0.0, *gaps]:
        t += gap
        rows.extend((t, draw(_coordinates(-3.0, 3.0)), draw(_coordinates(-3.0, 3.0)),
                     0.0, 1.0, 0.0))
    disks = st.builds(CircularObstacle,
                      st.tuples(_coordinates(-3.0, 3.0), _coordinates(-3.0, 3.0)),
                      st.tuples(_coordinates(-1.0, 1.0), _coordinates(-1.0, 1.0)),
                      _coordinates(0.05, 1.0))
    obstacles = tuple(draw(st.lists(disks, min_size=1, max_size=3)))
    return Trajectory(rows), obstacles, draw(st.integers(1, 64))


@settings(max_examples=300, deadline=None)
@given(audit_cases())
@example((straight_line_trajectory((-1.005, math.sqrt(0.04 - 1e-5)),
                                   (0.995, math.sqrt(0.04 - 1e-5)), 2),
          (CircularObstacle((0.0, 0.0), (0.0, 0.0), 0.2),), 200))
def test_audit_minimum_is_bracketed_by_dense_sampling(case):
    # the exact minimum is no higher than any sample, and no lower than the
    # most a convex quadratic can dip between two samples
    trajectory, obstacles, m = case
    ok, min_h = audit_trajectory(trajectory, obstacles)
    intervals = sampled_chord_barriers(trajectory, obstacles, m)
    assert min_h <= min(least for least, _ in intervals) + 1e-12
    assert min_h >= min(least - ee / (4 * m * m) for least, ee in intervals) - 1e-12
    assert ok == (min_h >= AUDIT_TOL)


SPECIAL_FLOATS = (math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                  2.0 ** -1030, 1e300, -1e300)


def _node_values():
    return st.one_of(st.sampled_from(SPECIAL_FLOATS), _coordinates(-3.0, 3.0))


@st.composite
def audit_inputs(draw):
    """1-6 nodes whose fields may be NaN, ±0.0, ±inf, subnormal or huge, at
    non-decreasing times with repeats or, now and then, at times that go
    back; 0-3 static or moving disks, some subnormal or wide."""
    n = draw(st.integers(1, 6))
    times = draw(st.lists(st.one_of(st.sampled_from((0.0, 1.0, 1.0)), _node_values()),
                          min_size=n, max_size=n))
    if draw(st.booleans()):
        times.sort(key=lambda t: (t != t, t))  # NaN last
    rows = array("d")
    for t in times:
        rows.extend((t, draw(_node_values()), draw(_node_values()), 0.0, 1.0, 0.0))
    velocity = st.one_of(st.just((0.0, 0.0)),
                         st.tuples(_coordinates(-2.0, 2.0), _coordinates(-2.0, 2.0)))
    radius = st.one_of(st.sampled_from((5e-324, 1e-160, 1e155, 1e200)),
                       _coordinates(0.05, 1.0))
    disks = st.builds(CircularObstacle,
                      st.tuples(_coordinates(-3.0, 3.0), _coordinates(-3.0, 3.0)),
                      velocity, radius)
    return Trajectory(rows), tuple(draw(st.lists(disks, max_size=3)))


def _audit_outcome(audit, trajectory, obstacles):
    try:
        ok, min_h = audit(trajectory, obstacles)
    except Exception as e:
        return type(e), str(e)
    return ok, None if min_h is None else min_h.hex()


@settings(max_examples=500, deadline=None)
@given(audit_inputs())
@example((Trajectory(array("d", [0.0, 1.0, 0.0, 0.0, 1.0, 0.0])),
          (CircularObstacle((0.0, 0.0), (0.0, 0.0), 1.0),)))
@example((Trajectory(array("d", [0.0, math.nan, 0.0, 0.0, 1.0, 0.0,
                                 1.0, 5.0, 0.0, 0.0, 1.0, 0.0])),
          (CircularObstacle((0.0, 0.0), (1.0, 0.0), 0.2),
           CircularObstacle((9.0, 9.0), (0.0, 0.0), 0.2))))
def test_audit_is_the_numpy_reference_bit_for_bit(case):
    # the same min_barrier bits, verdict, and exception type and message
    trajectory, obstacles = case
    assert (_audit_outcome(audit_trajectory, trajectory, obstacles)
            == _audit_outcome(audit_reference, trajectory, obstacles))


def test_audit_fails_a_disk_too_wide_to_square():
    # 1e200 * 1e200 overflows to inf, so every barrier is -inf: no OverflowError
    traj = straight_line_trajectory((0.0, 0.0), (1.0, 0.0), 3)
    obstacles = (CircularObstacle((5.0, 5.0), (0.0, 0.0), 1e200),)
    assert audit_trajectory(traj, obstacles) == (False, -math.inf)


# ---------------------------------------------------------------- serialization


def test_trajectory_csv_round_trip():
    traj = straight_line_trajectory((0.123456789, -0.5), (1.0, 2.0), 7)
    text = format_trajectory_csv(traj)
    assert text.startswith("t,x1,x2,theta,v,omega\n")


def test_trajectory_csv_read_back(tmp_path):
    traj = straight_line_trajectory((0.123456789, -0.5), (1.0, 2.0), 7)
    p = tmp_path / "traj.csv"
    p.write_text(format_trajectory_csv(traj))
    again = read_trajectory_csv(p)
    assert len(again) == len(traj)
    for a, b in zip(traj.samples, again.samples):
        assert a.t == b.t  # repr round-trip is exact
        assert a.state == b.state
        assert a.control == b.control


# ---------------------------------------------------------------- execution


def test_execute_cbf_rrt(example1_file):
    report, trajectory, tree = execute(example1_file, "cbf-rrt", 0)
    assert report.success
    assert report.algorithm == "cbf-rrt"
    assert report.vertices == len(tree)
    assert report.min_barrier is not None and report.min_barrier >= -1e-6
    assert report.path_length == pytest.approx(trajectory.path_length())
    assert report.path_duration == pytest.approx(trajectory.t_end - trajectory.t0)
    assert report.wall_time > 0.0


def test_execute_recomputes_audit_honestly(example1_file):
    # audit_pass must equal an independent re-audit of the returned trajectory
    for algorithm in ("cbf-rrt", "rrt"):
        report, trajectory, _ = execute(example1_file, algorithm, 1)
        if trajectory is None:
            continue
        ok, min_h = audit_trajectory(trajectory, example1_file.scenario.obstacles)
        assert report.audit_pass == ok
        assert report.min_barrier == pytest.approx(min_h, abs=1e-12)


def test_execute_rrt_with_long_step_reports_unsafe_success(example1_file):
    # seed 3 is the lowest whose delta=1 m RRT path cuts a disk: success
    # but audit fail
    sf = dataclasses.replace(
        example1_file,
        baseline=dataclasses.replace(example1_file.baseline, delta_d=1.0),
    )
    report, _, _ = execute(sf, "rrt", 3)
    assert report.success
    assert report.audit_pass is False
    assert report.min_barrier < 0.0


def test_execute_unknown_algorithm(example1_file):
    with pytest.raises(ValueError, match="unknown algorithm"):
        execute(example1_file, "dijkstra", 0)


def test_execute_overrides(example1_file):
    report, _, _ = execute(configure(example1_file, "cbf-rrt", max_iters=1), "cbf-rrt", 0)
    assert not report.success
    assert report.iterations == 1


def test_configure_without_overrides_returns_the_same_file(example1_file):
    for algorithm in harness.ALGORITHMS:
        assert configure(example1_file, algorithm) is example1_file
    with pytest.raises(ValueError, match="unknown algorithm"):
        configure(example1_file, "dijkstra", step=1.0)


@pytest.mark.parametrize("algorithm, overrides", [
    ("rrt", {}),
    ("rrt-star", {"step": 0.5}),
    # the moving disk is judged before the overrides
    ("rrt", {"max_iters": 0}),
])
def test_configure_refuses_a_baseline_on_a_moving_disk(tmp_path, example2_file,
                                                        algorithm, overrides):
    message = r"algorithm: baselines only support static obstacles; obstacles\[0\] moves$"
    with pytest.raises(ScenarioValidationError, match=f"^{message}"):
        configure(example2_file, algorithm, **overrides)
    # execute and compare admit their pairs through configure
    with pytest.raises(ScenarioValidationError, match=f"^{message}"):
        execute(example2_file, algorithm, 0)
    with pytest.raises(ScenarioValidationError, match=rf"^sweep\[1\]\.{message}"):
        compare(example2_file, [("cbf-rrt", 0.5), (algorithm, overrides.get("step"))],
                [0], tmp_path / "c.csv", threads=1)
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("algorithm, overrides, planner, baseline", [
    ("cbf-rrt", dict(step=0.25, max_iters=7), dict(t_h=0.25, max_iters=7), None),
    ("rrt", dict(step=1.0, max_iters=30), None, dict(delta_d=1.0, max_iters=30)),
    ("rrt-star", dict(max_iters=40), None, dict(max_iters=40)),
])
def test_configure_sets_the_algorithms_own_fields(example1_file, algorithm, overrides,
                                                  planner, baseline):
    # step is t_h or delta_d, max_iters the algorithm's own budget; the
    # other algorithm's params stay the file's own object
    sf = configure(example1_file, algorithm, **overrides)
    if planner is None:
        assert sf.scenario is example1_file.scenario
    else:
        assert sf.scenario.params == dataclasses.replace(
            example1_file.scenario.params, **planner)
    if baseline is None:
        assert sf.baseline is example1_file.baseline
    else:
        assert sf.baseline == dataclasses.replace(example1_file.baseline, **baseline)


@pytest.mark.parametrize("algorithm, overrides, message", [
    ("cbf-rrt", dict(step=0.01), r"^step: dt must be <= t_h"),
    # two bad overrides: each is judged on its own, max_iters first
    ("cbf-rrt", dict(step=0.01, max_iters=0), r"^max_iters: max_iters must be >= 1, got 0$"),
    ("cbf-rrt", dict(step=math.inf, max_iters=0), r"^max_iters: max_iters must be >= 1, got 0$"),
    ("cbf-rrt", dict(max_iters=0), r"^max_iters: max_iters must be >= 1"),
    ("rrt", dict(step=-1.0), r"^step: delta_d must be > 0"),
    ("rrt-star", dict(max_iters=0), r"^max_iters: max_iters must be >= 1"),
    ("rrt", dict(step=False, max_iters=0), r"^max_iters: max_iters must be >= 1, got 0$"),
    # the CLI's argparse and the file parser stop these; from Python the
    # params do, before a run can crash on them
    ("cbf-rrt", dict(step=math.inf), r"^step: t_h must be finite, got inf"),
    ("rrt", dict(step=math.inf), r"^step: delta_d must be finite, got inf"),
    ("rrt", dict(max_iters=2.5), r"^max_iters: max_iters must be an integer, got 2\.5"),
    ("cbf-rrt", dict(max_iters=True), r"^max_iters: max_iters must be an integer, got True"),
    # a bool would run as 1 and be written into tree.json as true
    ("cbf-rrt", dict(step=True), r"^step: t_h must be a number, got True$"),
    ("rrt", dict(step=False), r"^step: delta_d must be a number, got False$"),
])
def test_configure_names_the_rejected_override(example1_file, algorithm, overrides,
                                               message):
    with pytest.raises(ScenarioValidationError, match=message):
        configure(example1_file, algorithm, **overrides)


def test_an_integer_step_writes_the_artifacts_of_its_float(tmp_path, example1_file):
    # a step of 1 plans as 1.0 does, and so does example1 built in Python
    # with int fields, lists and a plain tuple start: the dataclasses hold
    # floats, so tree.json writes dt, t_h and v as floats, and the runs'
    # artifacts are byte-identical
    sc = example1_file.scenario
    ints = dataclasses.replace(
        example1_file, goal_horizon=20,
        baseline=dataclasses.replace(example1_file.baseline,
                                     sample_bounds=[[-1, 3], [-1, 3]], rewire_gamma=2),
        scenario=dataclasses.replace(
            sc, x_init=(-0.5, -0.5, 1), t_init=0, x_goal=[2, 2],
            obstacles=tuple(dataclasses.replace(o, velocity=[0, 0]) for o in sc.obstacles),
            params=dataclasses.replace(sc.params, k1=2, k2=4, v_const=1, omega_ref=0,
                                       omega_bounds=[-4.25, 4.25])))
    assert type(ints.scenario.x_init) is RobotState
    # json.dumps writes an int without the ".0" of its float
    assert (json.dumps(dataclasses.asdict(ints))
            == json.dumps(dataclasses.asdict(example1_file)))
    for algorithm in ("cbf-rrt", "rrt"):
        for sf, step in ((ints, 1), (example1_file, 1.0)):
            run(configure(sf, algorithm, step=step), algorithm, 0,
                tmp_path / algorithm / repr(step))
        for name in ("tree.json", "trajectory.csv", "report.json"):
            assert ((tmp_path / algorithm / "1" / name).read_bytes()
                    == (tmp_path / algorithm / "1.0" / name).read_bytes())
    assert json.loads((tmp_path / "cbf-rrt" / "1" / "tree.json").read_bytes())["t_h"] == 1.0


def test_execute_hands_the_planner_the_objects_it_was_given(monkeypatch, example1_file):
    # a run builds no params and repeats no check: the seed is the planner's
    # argument, and the scenario and baseline params go through as they are
    calls = []

    def spy(planner):
        def call(*args):
            calls.append(args)
            return planner(*args)
        return call

    monkeypatch.setattr(harness, "plan", spy(harness.plan))
    monkeypatch.setattr(harness, "rrt_star_plan", spy(harness.rrt_star_plan))
    execute(example1_file, "cbf-rrt", 3)
    sf = configure(example1_file, "rrt-star", max_iters=50)
    execute(sf, "rrt-star", 4)
    assert calls == [(example1_file.scenario, 3), (sf.scenario, sf.baseline, 4)]
    assert calls[0][0] is example1_file.scenario
    assert calls[1][0] is example1_file.scenario and calls[1][1] is sf.baseline


def test_compare_builds_no_params_per_run(tmp_path, monkeypatch, example1_file):
    # configure builds each sweep entry's params once; the runs build none
    built = collections.Counter()
    for cls in (PlannerParams, BaselineParams, Scenario):
        def counted(self, check=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    compare(example1_file, [("cbf-rrt", 1.0), ("rrt", 1.0)], [0, 1], tmp_path / "c.csv",
            threads=1)
    assert built == {"PlannerParams": 1, "Scenario": 1, "BaselineParams": 1}


def test_run_writes_artifacts(tmp_path, example1_file):
    out = tmp_path / "out"
    report = run(example1_file, "cbf-rrt", 0, out)
    assert (out / "trajectory.csv").exists()
    assert (out / "tree.json").exists()
    assert (out / "report.json").exists()
    assert (out / "timing.json").exists()

    on_disk = json.loads((out / "report.json").read_text())
    assert "wall_time" not in on_disk  # volatile field lives in timing.json
    assert on_disk["success"] is True
    assert on_disk["seed"] == 0
    timing = json.loads((out / "timing.json").read_text())
    assert timing["wall_time_s"] == report.wall_time

    tree_doc = json.loads((out / "tree.json").read_text())
    assert len(tree_doc["parents"]) == report.vertices


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_artifacts_take_the_mode_open_would_give(tmp_path, example1_file, umask):
    # each file is written to a temp file that os.open creates with mode
    # 0o666 under the umask, and renamed, which keeps the temp file's mode;
    # an artifact must read as a plain open() would leave it, and the umask
    # as it was
    previous = os.umask(umask)
    try:
        run(example1_file, "rrt", 0, tmp_path / "run")
        compare(example1_file, [("rrt", 1.0)], [0], tmp_path / "c.csv", threads=1)
        assert os.umask(umask) == umask
    finally:
        os.umask(previous)
    paths = sorted((tmp_path / "run").iterdir()) + [tmp_path / "c.csv"]
    assert [(p.name, oct(p.stat().st_mode & 0o777)) for p in paths] == [
        (name, oct(0o666 & ~umask))
        for name in ("report.json", "timing.json", "trajectory.csv", "tree.json", "c.csv")]


def test_artifacts_leave_the_umask_alone(tmp_path, monkeypatch, example1_file):
    # the umask is the whole process's: setting it, even to read it back,
    # would give a file another thread creates meanwhile the wrong mode
    def umask(mask):
        raise AssertionError(f"os.umask({mask:#o}) called")

    monkeypatch.setattr(os, "umask", umask)
    run(example1_file, "rrt", 0, tmp_path / "run")
    compare(example1_file, [("rrt", 1.0)], [0], tmp_path / "c.csv", threads=1)
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "c.csv", "report.json", "run", "timing.json", "trajectory.csv", "tree.json"]


@pytest.mark.parametrize("algorithm", ["cbf-rrt", "rrt", "rrt-star"])
def test_report_measures_the_trajectory_it_writes(tmp_path, example1_file, algorithm):
    # every planner returns its path as the trajectory the harness writes,
    # so report.json's length and duration are that file's, bit for bit
    for seed in range(3):
        out = tmp_path / str(seed)
        run(example1_file, algorithm, seed, out)
        doc = json.loads((out / "report.json").read_text())
        assert doc["success"]
        written = read_trajectory_csv(out / "trajectory.csv")
        assert doc["path_length"] == written.path_length()
        assert doc["path_duration"] == written.t_end - written.t0


def test_run_baseline_tree_artifact(tmp_path, example1_file):
    out = tmp_path / "rrt_out"
    report = run(example1_file, "rrt", 0, out)
    tree_doc = json.loads((out / "tree.json").read_text())
    assert len(tree_doc["parents"]) == report.vertices
    traj = read_trajectory_csv(out / "trajectory.csv")
    assert len(traj) > 0
    # polyline trajectory is timed by arc length at constant speed
    assert traj.t_end == pytest.approx(report.path_duration, abs=1e-9)


# The identity corpus hashes each artifact as formatted in memory; these
# cases hold the files run writes to the same bytes: cbf-rrt on a grid with
# a tail step and on the moving disk, rrt, and rrt-star at both delta_d.
@pytest.mark.parametrize("case_id", [
    "example1/cbf-rrt/t_h=0.25/seed=2",
    "example2/cbf-rrt/seed=0",
    "example1/rrt-star/delta_d=1.0/seed=0",
    "example1/rrt/delta_d=0.25/seed=0",
    "example1/rrt-star/delta_d=0.25/seed=1",
])
def test_run_writes_the_corpus_artifacts(tmp_path, case_id):
    (name, algorithm, step, seed), = [args for cid, *args in cases() if cid == case_id]
    run(configured(name, algorithm, step), algorithm, seed, tmp_path)
    pinned = json.loads(MANIFEST.read_text())[case_id]
    written = {key: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
               for key, file in (("report", "report.json"), ("tree", "tree.json"),
                                 ("trajectory", "trajectory.csv"))}
    assert written == pinned


@pytest.mark.parametrize("name, algorithms", [
    ("example1", ("cbf-rrt", "rrt", "rrt-star")),
    ("example2", ("cbf-rrt",)),
])
def test_tree_json_matches_plain_json_dumps(name, algorithms):
    # the writer is json.dumps of the schema-3 document, its columns packed
    # value by value as struct '<d' (so the bytes do not depend on the
    # host's byte order), and expanding it gives the full document
    sf = load_scenario(SCENARIO_DIR / f"{name}.json")
    params = sf.scenario.params
    for algorithm in algorithms:
        for seed in range(4):
            _, _, tree = execute(sf, algorithm, seed)
            text = b"".join(_format_tree_json(algorithm, tree, params)).decode()
            assert text == tree_json_reference(algorithm, tree, params)
            assert expand_tree_json(text) == full_tree_json_reference(algorithm, tree)


def test_tree_json_of_a_run_with_a_dt_override(tmp_path, example1_file):
    # run writes the params' dt: 0.25 = 8 * 0.03 + 0.01, a 0.01 s tail step
    sc = example1_file.scenario
    sf = dataclasses.replace(example1_file, scenario=dataclasses.replace(
        sc, params=dataclasses.replace(sc.params, t_h=0.25, dt=0.03)))
    run(sf, "cbf-rrt", 0, tmp_path)
    text = (tmp_path / "tree.json").read_text()
    assert json.loads(text)["dt"] == 0.03
    _, _, tree = execute(sf, "cbf-rrt", 0)
    assert expand_tree_json(text) == full_tree_json_reference("cbf-rrt", tree)


def test_tree_json_of_a_hand_built_tree():
    # -0.0, 1e16 and 1e-05 round-trip bit for bit in every column; the root,
    # given as numpy floats and an int, is stored and written as floats. The
    # edges obey the integration rules (two dt steps of 0.25 s), so the
    # expander rebuilds them exactly.
    params = PlannerParams(t_h=0.5, dt=0.25, v_const=1e-05)
    tree = PlanTree(RobotState(np.float64(-0.0), 10**16, np.float64(1e-05)), 0, 3)
    tree.add_child(0, Trajectory(array("d", [
        0.0, -0.0, 1e16, -0.0, 1e-05, -0.0,
        0.25, 1e-05, -1e16, -0.0, 1e-05, 1e16,
        0.5, 1e16, -0.0, 2.5e15, 1e-05, 1e16])))
    theta1 = 1e-05 + 0.25 * 1e-05
    tree.add_child(1, Trajectory(array("d", [
        0.5, 1e16, -0.0, 1e-05, 1e-05, 1e-05,
        0.75, -0.0, 1e16, theta1, 1e-05, -0.0,
        1.0, -1e16, 1e-05, theta1, 1e-05, -0.0])))
    assert integration_rule_violations(tree, params) == []
    text = b"".join(_format_tree_json("cbf-rrt", tree, params)).decode()
    assert text == tree_json_reference("cbf-rrt", tree, params)
    assert expand_tree_json(text) == full_tree_json_reference("cbf-rrt", tree)
    doc = json.loads(text)
    assert (doc["parents"], doc["nodes"]) == ([None, 0, 1], [3, 3])
    columns = {"t": [0.0, 0.5, 1.0], "x1": [-0.0, 1e16, -1e16],
               "x2": [1e16, -0.0, 1e-05], "theta": [1e-05, 2.5e15, theta1],
               "theta0": [-0.0, 1e-05], "inner_x1": [1e-05, -0.0],
               "inner_x2": [-1e16, 1e16], "omega": [-0.0, 1e16, 1e-05, -0.0]}
    for key, values in columns.items():
        assert base64.b64decode(doc[key]) == struct.pack("<%dd" % len(values), *values), key


@pytest.mark.parametrize("algorithm", ["cbf-rrt", "rrt"])
def test_tree_json_of_a_start_at_goal_run(tmp_path, example1_file, algorithm):
    # a root-only tree: every per-edge column is empty and encodes as ""
    sf = dataclasses.replace(example1_file, scenario=dataclasses.replace(
        example1_file.scenario, x_init=RobotState(1.95, 1.95, 0.0)))
    run(sf, algorithm, 0, tmp_path)
    text = (tmp_path / "tree.json").read_text()
    _, _, tree = execute(sf, algorithm, 0)
    assert len(tree) == 1
    assert text == tree_json_reference(algorithm, tree, sf.scenario.params)
    assert expand_tree_json(text) == full_tree_json_reference(algorithm, tree)
    doc = json.loads(text)
    assert doc["parents"] == [None]
    if algorithm == "cbf-rrt":
        assert doc["nodes"] == []
        assert [doc[key] for key in ("theta0", "inner_x1", "inner_x2", "omega")] == [""] * 4
        assert unpack_f8(doc["x1"]) == unpack_f8(doc["x2"]) == [1.95]
    else:
        assert unpack_f8(doc["xs"]) == unpack_f8(doc["ys"]) == [1.95]
        assert unpack_f8(doc["costs"]) == [0.0]


def test_tree_json_of_two_node_edges(example1_file):
    # t_h = dt: an edge is its parent vertex and its child, with no inner
    # node, so both inner columns are empty and omega holds one per edge
    sf = configure(example1_file, "cbf-rrt", step=example1_file.scenario.params.dt)
    params = sf.scenario.params
    _, _, tree = execute(sf, "cbf-rrt", 0)
    assert tree.edge_nodes == 2 and len(tree) > 1
    text = b"".join(_format_tree_json("cbf-rrt", tree, params)).decode()
    assert text == tree_json_reference("cbf-rrt", tree, params)
    assert expand_tree_json(text) == full_tree_json_reference("cbf-rrt", tree)
    doc = json.loads(text)
    assert doc["inner_x1"] == doc["inner_x2"] == ""
    assert len(unpack_f8(doc["omega"])) == len(tree) - 1


@pytest.mark.parametrize("algorithm", ["cbf-rrt", "rrt-star"])
def test_tree_json_is_little_endian_on_either_host(monkeypatch, example1_file, algorithm):
    # the writer swaps each column's bytes when sys.byteorder is "big". With
    # it patched to each order in turn, the host's own order writes the
    # reference, the other differs only in each double's byte order, and
    # neither write changes the tree
    params = example1_file.scenario.params
    _, _, tree = execute(example1_file, algorithm, 0)
    reference = tree_json_reference(algorithm, tree, params)
    text = {}
    for order in ("little", "big"):
        monkeypatch.setattr(sys, "byteorder", order)
        text[order] = b"".join(_format_tree_json(algorithm, tree, params)).decode()
    monkeypatch.undo()
    assert text[sys.byteorder] == reference
    host, other = (json.loads(text[order]) for order in
                   (sys.byteorder, {"little": "big", "big": "little"}[sys.byteorder]))
    assert host.keys() == other.keys()
    for key, value in host.items():
        if key == "algorithm" or not isinstance(value, str):  # not a column
            assert other[key] == value, key
            continue
        raw = base64.b64decode(value)
        swapped = b"".join(raw[i:i + 8][::-1] for i in range(0, len(raw), 8))
        assert base64.b64decode(other[key]) == swapped, key
    assert tree_json_reference(algorithm, tree, params) == reference


def test_tree_json_writer_peak_stays_below_the_tree_nodes(tmp_path, monkeypatch,
                                                          example1_file):
    # the tree stores each node once, in tree.data, and the writer streams
    # one column at a time: its traced peak stays below the tree's own node
    # bytes (example1 at t_h = 0.25, seed 1: 3,934 vertices, 2.64 MB)
    accepted = []
    steer = planner.safe_steer

    def recorded(*args):
        edge = steer(*args)
        if edge is not None:
            accepted.append(edge)
        return edge

    monkeypatch.setattr(planner, "safe_steer", recorded)
    sf = configure(example1_file, "cbf-rrt", step=0.25)
    params = sf.scenario.params
    tree = planner.plan(sf.scenario, 1).tree
    assert len(tree) == len(accepted) + 1 == 3_934
    assert len(tree.data) == 6 * (1 + sum(len(edge) for edge in accepted))
    assert all(tree.edge(i).data == edge.data for i, edge in enumerate(accepted, 1))
    tracemalloc.start()
    try:
        harness._atomic_write(tmp_path / "tree.json",
                              _format_tree_json("cbf-rrt", tree, params))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * len(tree.data)
    text = (tmp_path / "tree.json").read_text()
    assert text == tree_json_reference("cbf-rrt", tree, params)


@pytest.mark.parametrize("previous", [None, b"the previous tree.json"])
def test_a_streamed_write_that_raises_leaves_the_target_as_it_was(tmp_path, previous):
    target = tmp_path / "tree.json"
    if previous is not None:
        target.write_bytes(previous)

    def pieces():
        yield b'{"algorithm": "cbf-rrt", "schema": 3'
        raise RuntimeError("a column failed")

    with pytest.raises(RuntimeError, match="a column failed"):
        harness._atomic_write(target, pieces())
    assert (target.read_bytes() if target.exists() else None) == previous
    assert list(tmp_path.glob(".tree.json.*")) == []


def test_readme_decode_reads_a_fresh_tree_json(tmp_path, monkeypatch, example1_file):
    # the README's numpy decode, run as written, gives the vertices' x1
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    [block] = [b for b in re.findall(r"```python\n(.*?)```", readme, re.S)
               if "b64decode" in b]
    monkeypatch.chdir(tmp_path)
    run(example1_file, "cbf-rrt", 0, "out")
    namespace = {}
    exec(block, namespace)
    _, _, tree = execute(example1_file, "cbf-rrt", 0)
    x1 = [tree.edge(i).data[-5] for i in range(len(tree))]
    assert namespace["x1"].tobytes() == struct.pack("<%dd" % len(x1), *x1)


def test_readme_python_api_block_runs(tmp_path, monkeypatch):
    # the README's Python API block, run as written from a directory whose
    # src/ is the package's parent, so its signatures cannot drift
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    [block] = [b for b in re.findall(r"```python\n(.*?)```", readme, re.S)
               if "configure(" in b and "load_scenario(" in b]
    (tmp_path / "src").symlink_to(SCENARIO_DIR.parents[1], target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(block, namespace)
    assert namespace["result"].success
    assert namespace["coarse"].baseline.delta_d == 1.0
    for out in ("out", "out-coarse"):
        assert json.loads((tmp_path / out / "report.json").read_text())["seed"] == 5


# ---------------------------------------------------------------- compare


def test_compare_single_cell(tmp_path, example1_file):
    out = tmp_path / "cmp.csv"
    table = compare(example1_file, [("rrt", 0.25)], [7], out, threads=1)
    lines = table.strip().splitlines()
    assert lines[0] == COMPARISON_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "rrt"
    assert float(fields[1]) == 0.25
    assert int(fields[2]) == 1  # seeds
    report, _, _ = execute(
        dataclasses.replace(
            example1_file,
            baseline=dataclasses.replace(example1_file.baseline, delta_d=0.25),
        ),
        "rrt",
        7,
    )
    assert int(fields[3]) == int(report.success)  # successes
    assert int(fields[4]) == 0  # errors
    assert int(float(fields[6])) == report.vertices  # median over one run
    assert out.read_text() == table


def test_compare_empty_seeds(tmp_path, example1_file):
    with pytest.raises(ScenarioValidationError, match=r"^seeds: must not be empty$"):
        compare(example1_file, [("rrt", 0.25)], [], tmp_path / "c.csv")
    with pytest.raises(ScenarioValidationError, match=r"^sweep: must not be empty$"):
        compare(example1_file, [], [0], tmp_path / "c.csv")
    assert not (tmp_path / "c.csv").exists()


def test_compare_propagates_run_errors_into_table(tmp_path, monkeypatch, example2_file):
    # a run that raises is counted in the cell's errors, not raised
    def boom(scenario, seed):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(harness, "plan", boom)
    table = compare(example2_file, [("cbf-rrt", 0.25)], [0, 1], tmp_path / "c.csv",
                    threads=1)
    line = table.strip().splitlines()[1]
    fields = line.split(",")
    assert int(fields[3]) == 0  # successes
    assert int(fields[4]) == 2  # errors
    assert fields[6] == ""  # no vertex median to report
    assert fields[7] == ""  # no audit rate either


def test_compare_table_is_what_the_csv_module_writes(tmp_path, monkeypatch,
                                                    example1_file):
    # compare joins each row's cells with commas; read back and written again
    # by the csv module, the table's floats, ints and the empty cells of an
    # entry whose every run raised come out as the same text
    def boom(scenario, seed):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(harness, "plan", boom)
    table = compare(example1_file, [("cbf-rrt", 0.5), ("rrt", 1.0), ("rrt", 0.25)],
                    [0, 1, 2], tmp_path / "c.csv", threads=1)
    rows = list(csv.reader(io.StringIO(table)))
    assert rows[0] == COMPARISON_HEADER.split(",")
    assert rows[1] == ["cbf-rrt", "0.5", "3", "0", "3", "", "", ""]
    for row in rows[2:]:  # every rrt run reaches the goal
        assert [row[0], *row[2:5]] == ["rrt", "3", "3", "0"]
        float(row[5]), float(row[7])  # the median wall time and the audit rate
        assert row[6].isdigit()  # the median of 3 vertex counts is an int
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert buf.getvalue() == table == (tmp_path / "c.csv").read_text()


def test_compare_rows_sorted_and_complete(tmp_path, example1_file):
    sweep = [("rrt", 1.0), ("rrt", 0.25)]
    table = compare(example1_file, sweep, [0, 1, 2], tmp_path / "c.csv", threads=2)
    lines = table.strip().splitlines()[1:]
    steps = [float(l.split(",")[1]) for l in lines]
    assert steps == sorted(steps)
    assert len(lines) == 2


def test_compare_rows_do_not_depend_on_the_thread_count(tmp_path, example1_file):
    # one process or a pool of two: every cell but the median wall time, a
    # timing, is the same
    wall = COMPARISON_HEADER.split(",").index("median_wall_time_s")
    tables = []
    for threads in (1, 2):
        table = compare(example1_file, [("rrt", 1.0), ("rrt-star", 1.0)], [0, 1, 2],
                        tmp_path / f"{threads}.csv", threads=threads)
        tables.append([row[:wall] + row[wall + 1:]
                       for row in csv.reader(io.StringIO(table))])
    assert tables[0] == tables[1]
    assert len(tables[0]) == 3


def test_compare_rejects_a_step_the_scenario_rejects(tmp_path, example1_file, monkeypatch):
    # example1's dt is 0.02: a 0.01 s horizon, or one of more than MAX_STEPS
    # steps, whose every run would fail in step_grid, is refused before any run
    monkeypatch.setattr(harness, "_compare_task", None)
    for step, message in ((0.01, r"dt must be <= t_h"),
                          (1e300, r"dt must be >= t_h / 1,000,000, got dt=0\.02, t_h=1e\+300$")):
        with pytest.raises(ScenarioValidationError, match=rf"^sweep\[1\]\.step: {message}"):
            compare(example1_file, [("rrt", 0.25), ("cbf-rrt", step)], [0],
                    tmp_path / "c.csv", threads=1)
        assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("step", [True, "0.25"])
def test_compare_rejects_a_step_that_is_not_a_number(tmp_path, example1_file, step):
    # float() would have run True as delta_d 1.0 and "0.25" as 0.25
    with pytest.raises(ScenarioValidationError,
                       match=rf"^sweep\[0\]\.step: delta_d must be a number, "
                             rf"got {re.escape(repr(step))}$"):
        compare(example1_file, [("rrt", step)], [0], tmp_path / "c.csv", threads=1)
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("entry, message", [
    # configure judges the algorithm, and compare names the entry
    pytest.param(("rrtx", 0.25), r"^sweep\[1\]\.algorithm: unknown algorithm 'rrtx'; "
                 r"expected one of \('cbf-rrt', 'rrt', 'rrt-star'\)$", id="algorithm"),
    # configure reads a step of None as no override; a sweep entry needs one
    pytest.param(("rrt", None), r"^sweep\[1\]\.step: expected a number, got None$",
                 id="step-none"),
])
def test_compare_names_the_entry_it_rejects(tmp_path, example1_file, entry, message):
    with pytest.raises(ScenarioValidationError, match=message):
        compare(example1_file, [("rrt", 1.0), entry], [0], tmp_path / "c.csv", threads=1)
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("threads", [0, -3])
def test_compare_rejects_a_thread_count_below_1(tmp_path, example1_file, threads):
    # refused before any run, as `cbfrrt compare --threads 0` is
    with pytest.raises(ScenarioValidationError,
                       match=rf"^threads must be >= 1, got {threads}$"):
        compare(example1_file, [("rrt", 0.25)], [0, 1], tmp_path / "c.csv",
                threads=threads)
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("threads", [2.5, True])
def test_compare_rejects_a_thread_count_that_is_not_an_integer(tmp_path, example1_file,
                                                               threads):
    # 2.5 would reach the process pool and True would run as 1 thread
    with pytest.raises(ScenarioValidationError,
                       match=rf"^threads must be an integer, got {threads}$"):
        compare(example1_file, [("rrt", 0.25)], [0, 1], tmp_path / "c.csv",
                threads=threads)
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("sweep, seeds, message", [
    pytest.param([("rrt", 0.25), ("rrt", 0.25)], [0, 1],
                 r"^sweep\[1\]: \(rrt, 0\.25\) duplicates sweep\[0\]$", id="sweep"),
    pytest.param([("rrt", 1.0), ("rrt", 0.25), ("rrt", 1)], [0],
                 r"^sweep\[2\]: \(rrt, 1\) duplicates sweep\[0\]$", id="sweep-int-step"),
    pytest.param([("rrt", 0.25)], [3, 5, 3],
                 r"^seeds\[2\]: 3 duplicates seeds\[0\]$", id="seeds"),
])
def test_compare_rejects_a_repeated_entry_or_seed(tmp_path, example1_file, sweep, seeds,
                                                  message):
    # a repeat would be counted twice in its row; refused before any run
    with pytest.raises(ScenarioValidationError, match=message):
        compare(example1_file, sweep, seeds, tmp_path / "c.csv", threads=1)
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("seed", [1.5, 1.0, True, "1"])
def test_execute_rejects_a_seed_that_is_not_an_integer(example1_file, seed):
    # numpy would raise a TypeError that names no field for 1.5, and run
    # True as seed 1
    with pytest.raises(ScenarioValidationError,
                       match=rf"^seed must be an integer, got {re.escape(repr(seed))}$"):
        execute(example1_file, "rrt", seed)


@pytest.mark.parametrize("seeds, message", [
    pytest.param([1, 1.5], r"^seeds\[1\] must be an integer, got 1\.5$", id="float"),
    pytest.param([0, True], r"^seeds\[1\] must be an integer, got True$", id="bool"),
])
def test_compare_rejects_a_seed_that_is_not_an_integer(tmp_path, example1_file, seeds,
                                                        message):
    # truncated to an int after the repeat check, 1.5 would run seed 1 again
    # and count both runs in one row
    with pytest.raises(ScenarioValidationError, match=message):
        compare(example1_file, [("rrt", 1.0)], seeds, tmp_path / "c.csv", threads=1)
    assert not (tmp_path / "c.csv").exists()


def test_import_leaves_the_process_pool_unloaded():
    # compare imports it on use; every `import cbfrrt` would pay for it
    src = pathlib.Path(cbfrrt.__file__).resolve().parent.parent
    code = ("import sys, cbfrrt; "
            "print('concurrent.futures.process' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_load_sweep_bundled():
    sweep = load_sweep(SCENARIO_DIR / "comparison_sweep.json")
    assert len(sweep) == 6
    assert ("cbf-rrt", 0.25) in sweep
    assert ("rrt-star", 1.0) in sweep


def test_load_sweep_rejects_garbage(tmp_path):
    p = tmp_path / "sweep.json"
    p.write_text(json.dumps({"algorithm": "rrt"}))
    with pytest.raises(ScenarioValidationError):
        load_sweep(p)


@pytest.mark.parametrize("load", [load_scenario, load_sweep])
@pytest.mark.parametrize("text", [b"\xff\xfe[]", b"[" + b"1" * 5000 + b"]"],
                         ids=["not-utf8", "5000-digit-integer"])
def test_loaders_refuse_a_file_json_cannot_read(tmp_path, load, text):
    # both raise ValueError, not JSONDecodeError, from reading the file
    p = tmp_path / "doc.json"
    p.write_bytes(text)
    with pytest.raises(ScenarioValidationError, match="not valid JSON") as caught:
        load(p)
    assert isinstance(caught.value, ValueError)
