import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

import cbfrrt
from cbfrrt import harness
from cbfrrt.dynamics import CircularObstacle
from cbfrrt.cli import (
    EXIT_AUDIT_FAIL,
    EXIT_EXHAUSTED,
    EXIT_INTERNAL,
    EXIT_INVALID_INPUT,
    EXIT_OK,
    main,
)
from oracles import write_scenario

SCENARIO_DIR = pathlib.Path(cbfrrt.__file__).parent / "scenarios"
EXAMPLE1 = str(SCENARIO_DIR / "example1.json")
EXAMPLE2 = str(SCENARIO_DIR / "example2.json")
SWEEP = str(SCENARIO_DIR / "comparison_sweep.json")
# a 0.01 s cbf-rrt horizon, below example1's dt of 0.02 s
BAD_STEP_SWEEP = str(pathlib.Path(__file__).parent / "data" / "bad_step_sweep.json")


def long_step_scenario(tmp_path, example1_file):
    """example1 with the 1 m baseline step that makes RRT edges cut disks."""
    sf = dataclasses.replace(
        example1_file,
        baseline=dataclasses.replace(example1_file.baseline, delta_d=1.0),
    )
    p = tmp_path / "long_step.json"
    write_scenario(sf, p)
    return str(p)


def example1_with(tmp_path, planner=None, **fields):
    """example1 written with the given top-level and planner fields,
    bypassing the dataclasses, which refuse to hold an out-of-range value."""
    doc = json.loads(pathlib.Path(EXAMPLE1).read_text())
    doc["planner"].update(planner or {})
    doc.update(fields)
    path = tmp_path / "example1_with.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_plan_success_exit_and_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["plan", "--scenario", EXAMPLE1, "--seed", "0", "--out", str(out)])
    assert code == EXIT_OK
    for name in ("trajectory.csv", "tree.json", "report.json", "timing.json"):
        assert (out / name).exists()
    stdout = capsys.readouterr().out
    assert "reached goal" in stdout
    assert "audit pass" in stdout


def test_plan_exhausted_exit(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["plan", "--scenario", EXAMPLE1, "--seed", "0", "--out", str(out),
         "--max-iters", "2"]
    )
    assert code == EXIT_EXHAUSTED
    assert "exhausted" in capsys.readouterr().out
    # artifacts still written for post-mortems
    report = json.loads((out / "report.json").read_text())
    assert report["success"] is False


def test_plan_unsafe_baseline_exit(tmp_path, capsys, example1_file):
    scenario = long_step_scenario(tmp_path, example1_file)
    out = tmp_path / "run"
    code = main(
        ["plan", "--scenario", scenario, "--algorithm", "rrt", "--seed", "2",
         "--out", str(out)]
    )
    assert code == EXIT_AUDIT_FAIL
    assert "audit FAIL" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["success"] is True
    assert report["audit_pass"] is False


@pytest.mark.parametrize("algorithm", ["cbf-rrt", "rrt"])
def test_plan_without_obstacles_prints_na(tmp_path, capsys, algorithm):
    # with no disk the audit has no barrier to report
    scenario = example1_with(tmp_path, obstacles=[])
    code = main(["plan", "--scenario", scenario, "--algorithm", algorithm,
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert "min barrier n/a m^2, audit pass" in capsys.readouterr().out


def test_start_at_goal_runs_agree_across_planners(tmp_path, capsys):
    # a root-only path is the start node, whichever planner found it
    scenario = example1_with(tmp_path, x_init=[1.95, 1.95, 0.0])
    written = []
    for algorithm in harness.ALGORITHMS:
        out = tmp_path / algorithm
        code = main(["plan", "--scenario", scenario, "--algorithm", algorithm,
                     "--out", str(out)])
        assert code == EXIT_OK
        written.append((out / "trajectory.csv").read_text())
    assert written == [f"{harness.TRAJECTORY_HEADER}\n0.0,1.95,1.95,0.0,0.0,0.0\n"] * 3
    code = main(["audit", "--trajectory", str(tmp_path / "cbf-rrt" / "trajectory.csv"),
                 "--scenario", scenario])
    assert code == EXIT_OK
    assert "over 1 nodes" in capsys.readouterr().out


def test_plan_missing_scenario(tmp_path, capsys):
    code = main(
        ["plan", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
    )
    assert code == EXIT_INVALID_INPUT
    assert "error" in capsys.readouterr().err


def test_plan_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code = main(["plan", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert code == EXIT_INVALID_INPUT


def test_plan_bad_overrides(tmp_path):
    code = main(
        ["plan", "--scenario", EXAMPLE1, "--out", str(tmp_path), "--dt", "-0.5"]
    )
    assert code == EXIT_INVALID_INPUT


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["plan", "--scenario", EXAMPLE2, "--algorithm", "rrt"],
                     r"obstacles\[0\] moves", id="rrt-on-moving-disk"),
        pytest.param(["plan", "--scenario", EXAMPLE1, "--dt", "0.9"],
                     r"dt must be <= t_h", id="dt-above-horizon"),
        pytest.param(["plan", "--scenario", EXAMPLE1, "--max-iters", "0"],
                     r"max_iters must be >= 1", id="zero-max-iters"),
        pytest.param(["plan", "--scenario", EXAMPLE1, "--seed", "-1"],
                     r"seed must be >= 0, got -1", id="negative-seed"),
        pytest.param(["compare", "--scenario", EXAMPLE1, "--sweep", SWEEP,
                      "--seeds", "0,-1"], r"seeds\[1\] must be >= 0, got -1",
                     id="negative-seed-in-list"),
        pytest.param(["compare", "--scenario", EXAMPLE1, "--sweep", SWEEP,
                      "--seeds", ","], r"^error: seeds: must not be empty$",
                     id="empty-seed-list"),
        pytest.param(["compare", "--scenario", EXAMPLE1, "--sweep", BAD_STEP_SWEEP,
                      "--seeds", "2", "--threads", "1"],
                     r"sweep\[0\]\.step: dt must be <= t_h", id="sweep-step-below-dt"),
        pytest.param(["compare", "--scenario", EXAMPLE2, "--sweep", SWEEP,
                      "--seeds", "2", "--threads", "1"],
                     r"sweep\[1\]\.algorithm.*obstacles\[0\] moves",
                     id="sweep-baseline-on-moving-disk"),
        pytest.param(["compare", "--scenario", EXAMPLE1, "--sweep", SWEEP,
                      "--seeds", "2", "--threads", "0"],
                     r"threads must be >= 1, got 0", id="zero-threads"),
        pytest.param(["plan", "--scenario", EXAMPLE1, "--algorithm", "rrt",
                      "--dt", "0.5"], r"dt: .*cbf-rrt", id="dt-for-rrt"),
        pytest.param(["plan", "--scenario", EXAMPLE1, "--algorithm", "rrt-star",
                      "--dt", "0.5"], r"dt: .*cbf-rrt", id="dt-for-rrt-star"),
    ],
)
def test_invalid_run_input_exits_3(tmp_path, capsys, argv, message):
    code = main(argv + ["--out", str(tmp_path / "out")])
    assert code == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert re.search(message, err)


@pytest.mark.parametrize("v_const", [0.0, -1.0])
def test_nonpositive_v_const_exits_3(tmp_path, capsys, v_const):
    scenario = example1_with(tmp_path, planner={"v_const": v_const})
    code = main(["plan", "--scenario", scenario, "--algorithm", "rrt",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert re.search(rf"planner\.v_const must be > 0, got {v_const}", err)


def test_reversed_omega_ref_range_exits_3(tmp_path, capsys):
    # the random-reference option is gone: a file that still sets it would
    # otherwise run on the constant omega_ref
    scenario = example1_with(tmp_path, planner={"omega_ref_range": [1.0, -1.0]})
    code = main(["plan", "--scenario", scenario, "--out", str(tmp_path / "out")])
    assert code == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert re.search(r"planner\.omega_ref_range: unknown field", err)


@pytest.mark.parametrize("block, key, path", [
    (None, "goal_horizn", "goal_horizn"),
    ("obstacles[0]", "radiuss", r"obstacles\[0\]\.radiuss"),
    ("planner", "sigma_2", r"planner\.sigma_2"),
    ("baseline", "delta", r"baseline\.delta"),
    ("sweep[0]", "steps", r"sweep\[0\]\.steps"),
])
def test_unknown_field_exits_3_naming_its_path(tmp_path, capsys, block, key, path):
    # a misspelt key would otherwise run on the default of the field it meant
    doc = json.loads(pathlib.Path(EXAMPLE1).read_text())
    sweep = [{"algorithm": "rrt", "step": 1.0}]
    target = {None: doc, "obstacles[0]": doc["obstacles"][0], "planner": doc["planner"],
              "baseline": doc["baseline"], "sweep[0]": sweep[0]}[block]
    target[key] = 0.5
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(json.dumps(sweep))
    code = main(["compare", "--scenario", str(scenario), "--sweep", str(sweep_file),
                 "--seeds", "1", "--threads", "1", "--out", str(tmp_path / "out")])
    assert code == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert re.search(rf"^error: {path}: unknown field$", err, re.M)
    assert not (tmp_path / "out").exists()


def _obstacle(**fields):
    return lambda sf: dataclasses.replace(sf.scenario.obstacles[0], **fields)


def _scenario(**fields):
    return lambda sf: dataclasses.replace(sf.scenario, **fields)


def _planner(**fields):
    return lambda sf: dataclasses.replace(sf.scenario.params, **fields)


def _baseline(**fields):
    return lambda sf: dataclasses.replace(sf.baseline, **fields)


# an integer json.loads reads and float() refuses
HUGE = 10**400


@pytest.mark.parametrize("where, value, build, prefix, message", [
    pytest.param(("scenario", "t_init"), math.inf, _scenario(t_init=math.inf), "",
                 "t_init must be finite, got inf", id="t_init-inf"),
    pytest.param(("scenario", "x_goal"), [math.nan, 2.0],
                 _scenario(x_goal=(math.nan, 2.0)), "",
                 "x_goal must be finite, got (nan, 2.0)", id="x_goal-nan"),
    pytest.param(("scenario", "obstacles", 0, "radius"), -0.2, _obstacle(radius=-0.2),
                 "obstacles[0].", "radius must be > 0, got -0.2", id="radius-negative"),
    pytest.param(("scenario", "obstacles", 0, "radius"), 0, _obstacle(radius=0.0),
                 "obstacles[0].", "radius must be > 0, got 0.0", id="radius-zero"),
    pytest.param(("scenario", "obstacles", 0, "velocity"), [math.inf, 0.0],
                 _obstacle(velocity=(math.inf, 0.0)), "obstacles[0].",
                 "velocity must be finite, got (inf, 0.0)", id="velocity-inf"),
    pytest.param(("scenario", "obstacles", 0, "velocity"), [math.nan, 0.0],
                 _obstacle(velocity=(math.nan, 0.0)), "obstacles[0].",
                 "velocity must be finite, got (nan, 0.0)", id="velocity-nan"),
    pytest.param(("scenario", "obstacles", 0, "center"), [math.nan, 0.5],
                 _obstacle(center0=(math.nan, 0.5)), "obstacles[0].",
                 "center0 must be finite, got (nan, 0.5)", id="center-nan"),
    pytest.param(("scenario", "name"), [1, 2],
                 lambda sf: dataclasses.replace(sf, name=[1, 2]), "",
                 "name must be a str, got [1, 2]", id="name-list"),
    pytest.param(("scenario", "goal_horizon"), 0,
                 lambda sf: dataclasses.replace(sf, goal_horizon=0.0), "",
                 "goal_horizon must be > 0, got 0.0", id="goal_horizon-zero"),
    pytest.param(("scenario", "planner", "v_const"), 0.0,
                 lambda sf: dataclasses.replace(sf.scenario.params, v_const=0.0),
                 "planner.", "v_const must be > 0, got 0.0", id="v_const-zero"),
    pytest.param(("scenario", "planner", "k1"), math.nan,
                 lambda sf: dataclasses.replace(sf.scenario.params, k1=math.nan),
                 "planner.", "k1 must be finite, got nan", id="k1-nan"),
    pytest.param(("scenario", "baseline", "goal_bias"), 1.0,
                 lambda sf: dataclasses.replace(sf.baseline, goal_bias=1.0),
                 "baseline.", "goal_bias must be in [0, 1), got 1.0", id="goal_bias-one"),
    pytest.param(("sweep", 0, "step"), -1,
                 lambda sf: dataclasses.replace(sf.scenario.params, t_h=-1.0),
                 "sweep[0].step: ", "t_h must be > 0, got -1.0", id="step-negative"),
    pytest.param(("sweep", 0, "step"), math.nan,
                 lambda sf: dataclasses.replace(sf.scenario.params, t_h=math.nan),
                 "sweep[0].step: ", "t_h must be finite, got nan", id="step-nan"),
    # a field's shape is its dataclass's rule too, and a message shows a
    # file's list as the tuple the field holds
    pytest.param(("scenario", "obstacles", 0, "center"), [1.0],
                 lambda sf: CircularObstacle((1.0,), (0.0, 0.0), 0.2), "obstacles[0].",
                 "center0 must hold 2 numbers, got (1.0,)", id="center-short"),
    pytest.param(("scenario", "x_goal"), [2.0, 2.0, 9.0], _scenario(x_goal=(2.0, 2.0, 9.0)),
                 "", "x_goal must hold 2 numbers, got (2.0, 2.0, 9.0)", id="x_goal-long"),
    pytest.param(("scenario", "x_init"), [0.0, 0.0], _scenario(x_init=(0.0, 0.0)), "",
                 "x_init must hold 3 numbers, got (0.0, 0.0)", id="x_init-short"),
    pytest.param(("scenario", "planner", "omega_bounds"), [-1.0, 1.0, 5.0],
                 _planner(omega_bounds=(-1.0, 1.0, 5.0)), "planner.",
                 "omega_bounds must hold 2 numbers, got (-1.0, 1.0, 5.0)",
                 id="omega_bounds-long"),
    pytest.param(("scenario", "planner", "omega_bounds"), [-1.0],
                 _planner(omega_bounds=(-1.0,)), "planner.",
                 "omega_bounds must hold 2 numbers, got (-1.0,)", id="omega_bounds-short"),
    pytest.param(("scenario", "planner", "omega_bounds"), 5.0, _planner(omega_bounds=5.0),
                 "planner.", "omega_bounds must hold 2 numbers, got 5.0",
                 id="omega_bounds-scalar"),
    pytest.param(("scenario", "baseline", "sample_bounds"), [[True, 3.0], [-1.0, 3.0]],
                 _baseline(sample_bounds=((True, 3.0), (-1.0, 3.0))), "baseline.",
                 "sample_bounds must hold numbers, got ((True, 3.0), (-1.0, 3.0))",
                 id="sample_bounds-bool"),
    pytest.param(("scenario", "baseline", "sample_bounds"), [[-1.0, 3.0]],
                 _baseline(sample_bounds=((-1.0, 3.0),)), "baseline.",
                 "sample_bounds must hold 2 x 2 numbers, got ((-1.0, 3.0),)",
                 id="sample_bounds-one-row"),
    # an integer too large for a float is not finite
    pytest.param(("scenario", "t_init"), HUGE, _scenario(t_init=HUGE), "",
                 f"t_init must be finite, got {HUGE}", id="t_init-huge"),
    pytest.param(("scenario", "planner", "t_h"), HUGE, _planner(t_h=HUGE), "planner.",
                 f"t_h must be finite, got {HUGE}", id="t_h-huge"),
    pytest.param(("scenario", "obstacles", 0, "center"), [HUGE, 0.5],
                 _obstacle(center0=(HUGE, 0.5)), "obstacles[0].",
                 f"center0 must be finite, got ({HUGE}, 0.5)", id="center-huge"),
    pytest.param(("sweep", 0, "step"), HUGE, _planner(t_h=HUGE), "sweep[0].step: ",
                 f"t_h must be finite, got {HUGE}", id="step-huge"),
    # configure judges a sweep entry's algorithm, from Python as from a file
    pytest.param(("sweep", 0, "algorithm"), "rrtx",
                 lambda sf: harness.configure(sf, "rrtx", step=0.5), "sweep[0].",
                 f"algorithm: unknown algorithm 'rrtx'; expected one of "
                 f"{harness.ALGORITHMS}", id="sweep-algorithm"),
])
def test_value_rule_fires_from_python_and_from_a_file(tmp_path, capsys, example1_file,
                                                      where, value, build, prefix,
                                                      message):
    # one rule, held by the dataclass: built in Python it raises the message,
    # and from a file the message follows the object's dotted path
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(example1_file)
    docs = {"scenario": json.loads(pathlib.Path(EXAMPLE1).read_text()),
            "sweep": [{"algorithm": "cbf-rrt", "step": 0.5}]}
    *parents, last = where
    target = docs
    for key in parents:
        target = target[key]
    # json.dumps writes inf and nan as Infinity and NaN; the dataclass holds
    # an integer as a float, so 0 and -1 give the messages of 0.0 and -1.0
    target[last] = value
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        pathlib.Path(paths[name]).write_text(json.dumps(doc))
    if where[0] == "sweep":
        argv = ["compare", "--sweep", paths["sweep"], "--seeds", "1", "--threads", "1"]
    else:
        argv = ["plan"]
    code = main(argv + ["--scenario", paths["scenario"], "--out", str(tmp_path / "out")])
    assert code == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"error: {prefix}{message}\n"
    assert not (tmp_path / "out").exists()


def test_internal_error_exit(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(harness, "run", boom)
    code = main(["plan", "--scenario", EXAMPLE1, "--out", str(tmp_path)])
    assert code == EXIT_INTERNAL
    assert "RuntimeError" in capsys.readouterr().err


def test_audit_pass_and_fail(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["plan", "--scenario", EXAMPLE1, "--seed", "0", "--out", str(out)]) == EXIT_OK
    traj_csv = out / "trajectory.csv"

    code = main(["audit", "--trajectory", str(traj_csv), "--scenario", EXAMPLE1])
    assert code == EXIT_OK
    assert "audit pass" in capsys.readouterr().out

    # drag one sample into the first disk and re-audit
    lines = traj_csv.read_text().splitlines()
    parts = lines[1].split(",")
    parts[1], parts[2] = "0.3", "1.2"
    lines[1] = ",".join(parts)
    tampered = tmp_path / "tampered.csv"
    tampered.write_text("\n".join(lines) + "\n")
    code = main(["audit", "--trajectory", str(tampered), "--scenario", EXAMPLE1])
    assert code == EXIT_AUDIT_FAIL
    assert "audit FAIL" in capsys.readouterr().out


def test_audit_rejects_garbage_csv(tmp_path, capsys):
    bad = tmp_path / "traj.csv"
    bad.write_text("this,is,not,a,trajectory\n")
    code = main(["audit", "--trajectory", str(bad), "--scenario", EXAMPLE1])
    assert code == EXIT_INVALID_INPUT


@pytest.mark.parametrize(
    "rows, message",
    [
        # crosses the (1.0, 0.5) disk if read in t order; rows are out of order
        pytest.param(["1.0,1.5,0.5,0.0,1.0,0.0", "0.0,0.5,0.5,0.0,1.0,0.0"],
                     r"line 3: t=0\.0 is before", id="t-decreases"),
        pytest.param(["0.0,0.5,nan,0.0,1.0,0.0", "1.0,1.5,0.5,0.0,1.0,0.0"],
                     r"line 2: x2 must be finite", id="nan-coordinate"),
        pytest.param(["0.0,0.5,0.5,0.0,1.0,0.0", "1.0,abc,0.5,0.0,1.0,0.0"],
                     r"line 3: x1 must be a number, got 'abc'", id="non-numeric-field"),
        pytest.param(["0.0,0.5,0.5,0.0,1.0,0.0", "1.0,1.5,0.5,0.0,1.0"],
                     r"line 3: expected 6 columns, got 5$", id="wrong-column-count"),
        # failed runs write a header-only file; there is nothing to certify
        pytest.param([], r"--trajectory: .*no nodes", id="header-only"),
    ],
)
def test_audit_rejects_malformed_rows(tmp_path, capsys, rows, message):
    traj = tmp_path / "traj.csv"
    traj.write_text("\n".join([harness.TRAJECTORY_HEADER, *rows]) + "\n")
    code = main(["audit", "--trajectory", str(traj), "--scenario", EXAMPLE1])
    assert code == EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert re.search(message, err)


def test_audit_fails_a_jump_across_a_disk(tmp_path, capsys):
    # two rows at t = 1 on either side of example1's disk at (1.0, 0.5): each
    # clears it by 0.21 m^2, and the chord between them runs through its centre
    traj = tmp_path / "jump.csv"
    traj.write_text(f"{harness.TRAJECTORY_HEADER}\n"
                    "1.0,0.5,0.5,0.0,1.0,0.0\n1.0,1.5,0.5,0.0,1.0,0.0\n")
    code = main(["audit", "--trajectory", str(traj), "--scenario", EXAMPLE1])
    assert code == EXIT_AUDIT_FAIL
    assert capsys.readouterr().out == "audit FAIL: min barrier -0.040000000 m^2 over 2 nodes\n"


@pytest.mark.parametrize("argv", [
    pytest.param(["audit", "--trajectory", "traj.csv", "--scenario", EXAMPLE1,
                  "--dt-audit", "0.005"], id="unknown-flag"),
    pytest.param(["plan", "--scenario", EXAMPLE1, "--seed", "abc", "--out", "out"],
                 id="bad-type"),
    pytest.param(["plan", "--scenario", EXAMPLE1], id="missing-out"),
])
def test_argument_errors_exit_3(tmp_path, capsys, monkeypatch, argv):
    # argparse's own status, 2, is the exit code of an exhausted budget
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_INVALID_INPUT
    assert capsys.readouterr().err.startswith("usage: cbfrrt ")
    assert not (tmp_path / "out").exists()


def test_help_exits_0(capsys):
    assert main(["audit", "--help"]) == EXIT_OK
    assert "--dt-audit" not in capsys.readouterr().out


def test_compare_writes_table(tmp_path, capsys):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(
        json.dumps(
            [
                {"algorithm": "rrt", "step": 0.25},
                {"algorithm": "rrt", "step": 1.0},
            ]
        )
    )
    out = tmp_path / "cmp"
    code = main(
        ["compare", "--scenario", EXAMPLE1, "--sweep", str(sweep),
         "--seeds", "3", "--out", str(out), "--threads", "2"]
    )
    assert code == EXIT_OK
    table = (out / "comparison.csv").read_text()
    assert table.splitlines()[0] == harness.COMPARISON_HEADER
    assert len(table.strip().splitlines()) == 3
    stdout = capsys.readouterr().out
    assert harness.COMPARISON_HEADER in stdout


def test_compare_seed_list_parsing(tmp_path):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps([{"algorithm": "rrt", "step": 0.25}]))
    out = tmp_path / "cmp"
    code = main(
        ["compare", "--scenario", EXAMPLE1, "--sweep", str(sweep),
         "--seeds", "4,8", "--out", str(out), "--threads", "1"]
    )
    assert code == EXIT_OK
    line = (out / "comparison.csv").read_text().strip().splitlines()[1]
    assert int(line.split(",")[2]) == 2  # two seeds ran


def test_compare_rejects_bad_seeds(tmp_path, capsys):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps([{"algorithm": "rrt", "step": 0.25}]))
    code = main(
        ["compare", "--scenario", EXAMPLE1, "--sweep", str(sweep),
         "--seeds", "zero", "--out", str(tmp_path)]
    )
    assert code == EXIT_INVALID_INPUT
    code = main(
        ["compare", "--scenario", EXAMPLE1, "--sweep", str(sweep),
         "--seeds", "0", "--out", str(tmp_path)]
    )
    assert code == EXIT_INVALID_INPUT


@pytest.mark.parametrize("entries, seeds, message", [
    pytest.param([{"algorithm": "rrt", "step": 0.25}] * 2, "2",
                 r"sweep\[1\]: \(rrt, 0\.25\) duplicates sweep\[0\]", id="sweep"),
    pytest.param([{"algorithm": "rrt", "step": 0.25}], "3,3",
                 r"seeds\[1\]: 3 duplicates seeds\[0\]", id="seeds"),
])
def test_compare_rejects_a_repeated_entry_or_seed(tmp_path, capsys, entries, seeds, message):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(entries))
    out = tmp_path / "cmp"
    code = main(["compare", "--scenario", EXAMPLE1, "--sweep", str(sweep),
                 "--seeds", seeds, "--out", str(out), "--threads", "1"])
    assert code == EXIT_INVALID_INPUT
    assert re.search(message, capsys.readouterr().err)
    assert not (out / "comparison.csv").exists()


def _run_with_stdout_closed(args):
    """Run `python -m cbfrrt.cli args` as a process whose stdout is a pipe
    with no reader left, as under `| head -1` once head has exited; returns
    (exit status, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SCENARIO_DIR.parents[1])] + env.get("PYTHONPATH", "").split(os.pathsep))
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "cbfrrt.cli", *args], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=300)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr.decode()


@pytest.mark.parametrize("args, status", [
    pytest.param(["plan", "--scenario", EXAMPLE1, "--seed", "0"], EXIT_OK, id="plan"),
    pytest.param(["plan", "--scenario", EXAMPLE1, "--max-iters", "1"], EXIT_EXHAUSTED,
                 id="plan-exhausted"),
    pytest.param(["compare", "--scenario", EXAMPLE1, "--sweep", SWEEP, "--seeds", "1",
                  "--threads", "1"], EXIT_OK, id="compare"),
])
def test_a_reader_that_closes_stdout_early_keeps_the_status(tmp_path, args, status):
    code, err = _run_with_stdout_closed([*args, "--out", str(tmp_path / "out")])
    assert "Traceback" not in err
    assert "Exception ignored" not in err
    assert code == status
    written = "comparison.csv" if args[0] == "compare" else "report.json"
    assert (tmp_path / "out" / written).exists()
