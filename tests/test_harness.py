import base64
import collections
import dataclasses
import hashlib
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
    ScenarioParseError,
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
from cbfrrt.planner import PlannerParams, PlanTree, Scenario, safe_steer, steer_constants
from oracles import (
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
    assert example1_file.name == "example1"


def test_load_bundled_example2(example2_file):
    sc = example2_file.scenario
    assert len(sc.obstacles) == 1
    assert sc.obstacles[0].velocity == (-0.1, 0.3)
    assert (sc.params.k1, sc.params.k2) == (0.6, 1.5)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_scenario(tmp_path / "nope.json")


def test_load_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ScenarioParseError):
        load_scenario(p)


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
    for sf in (example1_file, example2_file):
        out = tmp_path / f"{sf.name}.json"
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
    # seed picked so the delta=1 m RRT path cuts a disk: success but audit fail
    sf = dataclasses.replace(
        example1_file,
        baseline=dataclasses.replace(example1_file.baseline, delta_d=1.0),
    )
    report, _, _ = execute(sf, "rrt", 2)
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
    report, trajectory, _ = execute(configure(example1_file, "cbf-rrt", dt=0.01),
                                    "cbf-rrt", 0)
    if trajectory is not None:
        dts = {
            round(b.t - a.t, 9)
            for a, b in zip(trajectory.samples, trajectory.samples[1:])
        }
        assert 0.01 in dts


def test_configure_without_overrides_returns_the_same_file(example1_file):
    for algorithm in harness.ALGORITHMS:
        assert configure(example1_file, algorithm) is example1_file
    with pytest.raises(ValueError, match="unknown algorithm"):
        configure(example1_file, "dijkstra", step=1.0)


@pytest.mark.parametrize("algorithm, overrides, planner, baseline", [
    ("cbf-rrt", dict(step=0.25, dt=0.01, max_iters=7),
     dict(t_h=0.25, dt=0.01, max_iters=7), None),
    ("rrt", dict(step=1.0, max_iters=30), None, dict(delta_d=1.0, max_iters=30)),
    ("rrt-star", dict(max_iters=40), None, dict(max_iters=40)),
    # valid together, though t_h=0.01 alone is below the file's dt of 0.02
    ("cbf-rrt", dict(step=0.01, dt=0.005), dict(t_h=0.01, dt=0.005), None),
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
    ("cbf-rrt", dict(dt=0.9), r"^dt: dt must be <= t_h"),
    ("cbf-rrt", dict(step=0.25, dt=0.3), r"^dt: dt must be <= t_h"),
    ("cbf-rrt", dict(max_iters=0), r"^max_iters: max_iters must be >= 1"),
    ("rrt", dict(step=-1.0), r"^step: delta_d must be > 0"),
    ("rrt-star", dict(max_iters=0), r"^max_iters: max_iters must be >= 1"),
    ("rrt", dict(dt=0.01), r"^dt: overrides the cbf-rrt integration step only"),
    # the CLI's argparse and the file parser stop these; from Python the
    # params do, before a run can crash on them
    ("cbf-rrt", dict(step=math.inf), r"^step: t_h must be finite, got inf"),
    ("rrt", dict(step=math.inf), r"^step: delta_d must be finite, got inf"),
    ("rrt", dict(max_iters=2.5), r"^max_iters: max_iters must be an integer, got 2\.5"),
    ("cbf-rrt", dict(max_iters=True), r"^max_iters: max_iters must be an integer, got True"),
    # a bool would run as 1 and be written into tree.json as true
    ("cbf-rrt", dict(step=True), r"^step: t_h must be a number, got True$"),
    ("rrt", dict(step=False), r"^step: delta_d must be a number, got False$"),
    ("cbf-rrt", dict(dt="0.1"), r"^dt: dt must be a number, got '0\.1'$"),
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
    # each file is written to a mkstemp file, 0o600, and renamed, which keeps
    # the temp file's mode; an artifact must read as a plain open() would
    # leave it, and the umask as it was
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


# sha256 of report.json + tree.json + trajectory.csv, concatenated in that
# order. Pinned from the tuple-per-sample trajectories that preceded the flat
# buffer; a change to any artifact byte must say why where it updates these.
# tree.json is hashed as expand_tree_json rebuilds it: the full document
# written before schema 2 (cbf-rrt) and schema 3 (the baselines), so these
# pins hold unedited. Its raw schema-3 bytes are pinned apart (the last
# column), because the expander's json.loads would hide a change of layout.
GOLDEN_DIGESTS = [
    pytest.param("example1", "cbf-rrt", "t_h", 0.25, 2,
                 "7d04911c2ddbacf7f452a4f3ed0415703ae1b504502e1891131ea7a609ac9a67",
                 "2b61c18c934550be4dd41bcccb813ab9e324e29dd7dc36130240b2b86b0d2a36",
                 id="example1-cbf-rrt-t_h0.25-seed2"),
    pytest.param("example2", "cbf-rrt", None, None, 0,
                 "2694561067c26900e041c0bece4020dff0856476c8c88ae0b01198692e390bd4",
                 "d0c0e3febcd037a125996406a8d4e830942ab58d7f9e79579690378afbb4c39d",
                 id="example2-cbf-rrt-seed0"),
    pytest.param("example1", "rrt-star", "delta_d", 1.0, 0,
                 "4970ed4747a330b150b344b86f90cecffa08e725696711bd751eaebe2faca2cb",
                 "474480ebcfb18db278ae873e20db4758f7535c8a6ade71f05e8631d9a482cf01",
                 id="example1-rrt-star-delta_d1.0-seed0"),
    pytest.param("example1", "rrt", "delta_d", 0.25, 0,
                 "812239b0f28e717d2a4e619d2abbad8e6bb119fdefdcb68de9b7c65b0138ad05",
                 "94a7e2db62373376e099b9119d8b2e46c894802b646ba81d05409d6092597c56",
                 id="example1-rrt-delta_d0.25-seed0"),
    pytest.param("example1", "rrt-star", "delta_d", 0.25, 1,
                 "3eafd5420ce570706711e4d0b33702c54e5808f8c7d2523111eb2260b36b40d0",
                 "2a9eeb86b0cdabdf4d93f974ef8a19a0f00f06e29cb4167a2013fd779a3c2efd",
                 id="example1-rrt-star-delta_d0.25-seed1"),
]


@pytest.mark.parametrize("name, algorithm, field, value, seed, digest, raw_tree_digest",
                         GOLDEN_DIGESTS)
def test_artifacts_match_golden_digests(tmp_path, name, algorithm, field, value,
                                        seed, digest, raw_tree_digest):
    sf = load_scenario(SCENARIO_DIR / f"{name}.json")
    if field == "t_h":
        params = dataclasses.replace(sf.scenario.params, t_h=value)
        sf = dataclasses.replace(
            sf, scenario=dataclasses.replace(sf.scenario, params=params))
    elif field == "delta_d":
        sf = dataclasses.replace(
            sf, baseline=dataclasses.replace(sf.baseline, delta_d=value))
    run(sf, algorithm, seed, tmp_path)
    tree = (tmp_path / "tree.json").read_bytes()
    assert hashlib.sha256(tree).hexdigest() == raw_tree_digest
    blob = b"".join(((tmp_path / "report.json").read_bytes(),
                     expand_tree_json(tree.decode()).encode(),
                     (tmp_path / "trajectory.csv").read_bytes()))
    assert hashlib.sha256(blob).hexdigest() == digest


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
    # run writes the override: 0.25 = 8 * 0.03 + 0.01, a 0.01 s tail step
    sf = configure(example1_file, "cbf-rrt", step=0.25, dt=0.03)
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
    tree = PlanTree(RobotState(np.float64(-0.0), 10**16, np.float64(1e-05)), 0)
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


def test_the_tree_can_grow_once_its_tree_json_is_written(tmp_path):
    # the writer's numpy views of tree.data live only while its pieces are
    # written: an array refuses to resize while a view of it is alive
    params = PlannerParams(t_h=0.5, dt=0.25)
    constants = steer_constants((), params)
    tree = PlanTree(RobotState(0.0, 0.0, 0.0), 0.0)
    tree.add_child(0, safe_steer((0.0, 0.0, 0.0), 0.0, 0.0, constants))
    t, x1, x2, theta = tree.edge(1).data[-6:-2]
    edge = safe_steer((x1, x2, theta), t, 0.0, constants)
    pieces = _format_tree_json("cbf-rrt", tree, params)
    next(pieces)
    with pytest.raises(BufferError):
        tree.add_child(1, edge)
    pieces.close()
    harness._atomic_write(tmp_path / "tree.json",
                          _format_tree_json("cbf-rrt", tree, params))
    assert tree.add_child(1, edge) == 2
    assert tree.edge(2).data == edge.data


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


def test_readme_kernel_block_runs(tmp_path, monkeypatch):
    # the README's steering-kernel block, run as written, agrees with itself
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    [block] = [b for b in re.findall(r"```python\n(.*?)```", readme, re.S)
               if "steer_constants(" in b]
    (tmp_path / "src").symlink_to(SCENARIO_DIR.parents[1], target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(block, namespace)
    assert namespace["rows"][0] == (namespace["a"], namespace["b"])
    assert namespace["omega"] is not None
    assert namespace["edge"] is not None and len(namespace["edge"]) >= 2


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


def test_compare_rows_sorted_and_complete(tmp_path, example1_file):
    sweep = [("rrt", 1.0), ("rrt", 0.25)]
    table = compare(example1_file, sweep, [0, 1, 2], tmp_path / "c.csv", threads=2)
    lines = table.strip().splitlines()[1:]
    steps = [float(l.split(",")[1]) for l in lines]
    assert steps == sorted(steps)
    assert len(lines) == 2


def test_compare_rejects_a_step_the_scenario_rejects(tmp_path, example1_file):
    # example1's dt is 0.02: a 0.01 s horizon is refused before any run
    with pytest.raises(ScenarioValidationError, match=r"^sweep\[1\]\.step: dt must be <= t_h"):
        compare(example1_file, [("rrt", 0.25), ("cbf-rrt", 0.01)], [0],
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
    with pytest.raises(ScenarioParseError, match="not valid JSON"):
        load(p)
