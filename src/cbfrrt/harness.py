"""Experiment harness: scenario files, runs, comparisons, safety audits.

A run is (configured scenario file, algorithm, seed): a scenario JSON file
fully describes a problem (start, goal, obstacles, planner and baseline
parameters), configure applies the run's overrides to it, and the seed
comes from the caller so one file drives a whole sweep. The scenario and
sweep file parsers read only JSON structure; every value's type, length and
range is judged by the dataclass that holds it, as it is in Python, and a
sweep entry's algorithm and step by configure. Every run re-audits
its output trajectory against the obstacles, exactly along the linear
interpolation of its nodes — the report's audit_pass is always computed
here, never taken from planner-internal flags.

Reports are split into report.json (deterministic, byte-reproducible for a
fixed (scenario, algorithm, seed)) and timing.json (wall-clock, varies run to
run). All files are written atomically (temp + rename).
"""

from __future__ import annotations

import binascii
import csv
import json
import math
import os
import tempfile
import time
from array import array
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .baselines import BaselineParams, require_static, rrt_plan, rrt_star_plan
from .dynamics import (CircularObstacle, Trajectory, check_finite, check_integer,
                       obstacle_center_at)
from .planner import PlannerParams, PlanTree, Scenario, plan

ALGORITHMS = ("cbf-rrt", "rrt", "rrt-star")

TRAJECTORY_HEADER = ",".join(Trajectory.COLUMNS)

AUDIT_TOL = -1e-6


class ScenarioError(Exception):
    """Base for anything wrong with a scenario file (exit code 3)."""


class ScenarioParseError(ScenarioError):
    """File is not well-formed JSON."""


class ScenarioValidationError(ScenarioError, ValueError):
    """Invalid input; message names the offending field path. A ValueError
    too, as the dataclasses' own rules raise from Python."""


def _point_segment_distance(p: tuple[float, float], a: tuple[float, float],
                            b: tuple[float, float]) -> float:
    """Distance from point p to the segment a-b (closed form)."""
    abx, aby = b[0] - a[0], b[1] - a[1]
    apx, apy = p[0] - a[0], p[1] - a[1]
    denom = abx * abx + aby * aby
    s = 0.0 if denom == 0.0 else max(0.0, min(1.0, (apx * abx + apy * aby) / denom))
    return math.hypot(apx - s * abx, apy - s * aby)


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed scenario document: the planner Scenario plus everything the
    harness needs around it. Construction and replace raise ValueError for a
    name that is not a str, a goal_horizon that is not finite and > 0, or an
    obstacle that enters the goal disk within goal_horizon."""

    scenario: Scenario
    baseline: BaselineParams
    name: str
    goal_horizon: float
    metadata: dict

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a str, got {self.name!r}")
        check_finite(self, "goal_horizon")
        if not self.goal_horizon > 0.0:
            raise ValueError(f"goal_horizon must be > 0, got {self.goal_horizon}")
        sc = self.scenario
        for i, obstacle in enumerate(sc.obstacles):
            clearance = _point_segment_distance(
                sc.x_goal, obstacle_center_at(obstacle, sc.t_init),
                obstacle_center_at(obstacle, sc.t_init + self.goal_horizon))
            reach = sc.params.epsilon + obstacle.radius
            if clearance < reach:
                raise ValueError(f"obstacles[{i}] enters the goal disk within goal_horizon "
                                 f"(clearance {clearance:.4f} m < {reach:.4f} m)")


@dataclass
class RunReport:
    algorithm: str
    seed: int
    success: bool
    wall_time: float
    iterations: int
    vertices: int
    path_length: Optional[float]
    path_duration: Optional[float]
    min_barrier: Optional[float]
    audit_pass: Optional[bool]


# ---------------------------------------------------------------------------
# scenario files


def _fail(path: str, message: str):
    raise ScenarioValidationError(f"{path}: {message}")


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        _fail(f"{where}.{key}" if where else key, "missing required field")
    return doc[key]


def _known(doc: dict, keys, where: str):
    """Refuse a key the parser does not read: a typo must not run on a default."""
    for key in doc:
        if key not in keys:
            _fail(f"{where}.{key}" if where else key, "unknown field")


def _checked(prefix: str, build, *args, **kwargs):
    """build(*args, **kwargs), a ValueError from it raised as
    ScenarioValidationError with prefix, the object's dotted path, before its
    message, which names the field: obstacles[0].radius must be > 0, ..."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        raise ScenarioValidationError(f"{prefix}{e}") from e


def _object(doc, where: str, keys) -> dict:
    """doc, which must be a JSON object of no key but keys."""
    if not isinstance(doc, dict):
        _fail(where, "expected an object")
    _known(doc, keys, where)
    return doc


def _read_json(path: Path):
    """path's JSON document. ScenarioParseError for a file that is not
    UTF-8 JSON or holds an integer longer than the 4300 digits Python
    converts from text (both ValueErrors, as JSONDecodeError is)."""
    try:
        return json.loads(path.read_text())
    except ValueError as e:
        raise ScenarioParseError(f"{path}: not valid JSON ({e})") from e


def load_scenario(path) -> ScenarioFile:
    """Parse a scenario JSON file.

    The parser reads the JSON structure only: objects where objects belong,
    the schema, and missing or unknown keys (metadata is free-form; the
    planner and baseline keys are the fields of PlannerParams and
    BaselineParams). Each value goes as JSON gave it to the dataclass that
    holds it (CircularObstacle, PlannerParams, BaselineParams, Scenario,
    ScenarioFile), whose rules judge its type, length and range, the same
    rules as in Python, and which keeps it as floats. Raises
    ScenarioParseError for malformed JSON and ScenarioValidationError naming
    the field path for either kind of error, a value's as the object's
    dotted path before the dataclass's message.
    """
    path = Path(path)
    doc = _read_json(path)
    if not isinstance(doc, dict):
        _fail(str(path), "top level must be a JSON object")
    schema = doc.get("schema")
    if schema != 1:
        _fail("schema", f"unsupported schema version {schema!r} (expected 1)")
    _known(doc, ("schema", "name", "x_init", "t_init", "x_goal", "goal_horizon",
                 "obstacles", "planner", "baseline", "metadata"), "")
    x_init, x_goal, raw_obstacles = (_require(doc, key, "")
                                     for key in ("x_init", "x_goal", "obstacles"))
    if not isinstance(raw_obstacles, list):
        _fail("obstacles", "expected a list")
    obstacles = []
    for i, entry in enumerate(raw_obstacles):
        where = f"obstacles[{i}]"
        _object(entry, where, ("center", "radius", "velocity"))
        obstacles.append(_checked(f"{where}.", CircularObstacle,
                                  _require(entry, "center", where),
                                  entry.get("velocity", (0.0, 0.0)),
                                  _require(entry, "radius", where)))
    params, baseline = (
        _checked(f"{block}.", cls,
                 **_object(doc.get(block, {}), block, [f.name for f in fields(cls)]))
        for block, cls in (("planner", PlannerParams), ("baseline", BaselineParams)))
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        _fail("metadata", "expected an object")

    scenario = _checked("", Scenario, x_init=x_init, t_init=doc.get("t_init", 0.0),
                        x_goal=x_goal, obstacles=obstacles, params=params)
    return _checked("", ScenarioFile, scenario=scenario, baseline=baseline,
                    name=doc.get("name", path.stem),
                    goal_horizon=doc.get("goal_horizon", 20.0), metadata=metadata)


# ---------------------------------------------------------------------------
# auditing


def audit_trajectory(
    trajectory: Trajectory,
    obstacles: Sequence[CircularObstacle],
    _unused: object = None,
) -> tuple[bool, Optional[float]]:
    """Independently verify a trajectory against the obstacles, exactly.

    Between two nodes the robot moves along their chord and a disk along its
    line, so their offset is d0 + s*e for s in [0, 1] and the barrier, convex
    in s, is least at s* = clamp(-(d0.e)/(e.e), 0, 1), or 0 when e.e = 0.
    min_barrier, the least barrier at every node and every s* of every disk,
    is the minimum over the whole interpolation (two nodes at one t are a
    jump along their chord). Returns (pass, min_barrier), pass meaning
    min_barrier >= AUDIT_TOL, or (True, None) with no obstacles. ValueError
    for a trajectory with no nodes (every planned path has its start) or
    whose t goes back at some node, naming the first. The third parameter
    is ignored: perfbench/worker.py check_run still passes a sampling step.
    """
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
        h = m1 ** 2 + m2 ** 2 - obstacle.radius ** 2
        # np.minimum keeps a NaN, which then fails the comparison below;
        # Python's min would skip it and pass the trajectory.
        min_h = float(np.minimum(min_h, h.min()))
    return min_h >= AUDIT_TOL, min_h


# ---------------------------------------------------------------------------
# running


def _check_algorithm(algorithm):
    if algorithm not in ALGORITHMS:
        _fail("algorithm", f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")


def configure(scenario_file: ScenarioFile, algorithm: str, step: Optional[float] = None,
              dt: Optional[float] = None,
              max_iters: Optional[int] = None) -> ScenarioFile:
    """The scenario file with a run's overrides applied to the algorithm's
    own params, or the same object when there are none: step is t_h (s) for
    cbf-rrt and delta_d (m) for the baselines, and max_iters the algorithm's
    budget. dt overrides the cbf-rrt integration step only, a parameter a
    baseline would ignore. Raises ScenarioValidationError naming algorithm
    when it is not one of ALGORITHMS, or the override (step, dt or
    max_iters) that the algorithm or its params reject."""
    _check_algorithm(algorithm)
    cbf = algorithm == "cbf-rrt"
    if dt is not None and not cbf:
        _fail("dt", f"overrides the cbf-rrt integration step only, not {algorithm}'s")
    overrides = {key: value for key, value in (("t_h" if cbf else "delta_d", step),
                                               ("dt", dt), ("max_iters", max_iters))
                 if value is not None}
    if not overrides:
        return scenario_file
    try:
        params = replace(scenario_file.scenario.params if cbf else scenario_file.baseline,
                         **overrides)
    except ValueError as e:
        # The params judge the overrides together, so t_h=0.01 with dt=0.005
        # is valid. The message begins with the field its rule names; dt <=
        # t_h names dt, which is the step's fault when dt was not overridden.
        field = str(e).split(" ", 1)[0]
        name = field if field in ("dt", "max_iters") and field in overrides else "step"
        raise ScenarioValidationError(f"{name}: {e}") from e
    if not cbf:
        return replace(scenario_file, baseline=params)
    return replace(scenario_file, scenario=replace(scenario_file.scenario, params=params))


def execute(scenario_file: ScenarioFile, algorithm: str, seed: int):
    """Run one planner on the configured scenario file (see configure).
    Returns (RunReport, trajectory, tree) where trajectory is None on failure
    and tree is the planner's tree object. Raises ScenarioValidationError for
    an algorithm not in ALGORITHMS, a seed that is not an integer >= 0 (a
    bool included) or a baseline on a scenario with a moving obstacle."""
    _check_algorithm(algorithm)
    # numpy seeds its generators from non-negative integers only
    _checked("", check_integer, seed, "seed", 0)
    scenario = scenario_file.scenario
    if algorithm != "cbf-rrt":
        _checked("", require_static, scenario.obstacles)

    start = time.perf_counter()
    if algorithm == "cbf-rrt":
        result = plan(scenario, seed)
    else:
        planner = rrt_plan if algorithm == "rrt" else rrt_star_plan
        result = planner(scenario, scenario_file.baseline, seed)
    wall = time.perf_counter() - start

    trajectory = result.controls
    path_length = path_duration = audit_pass = min_barrier = None
    if trajectory is not None:
        path_length = trajectory.path_length()
        path_duration = trajectory.t_end - trajectory.t0
        audit_pass, min_barrier = audit_trajectory(trajectory, scenario.obstacles)
    report = RunReport(
        algorithm=algorithm, seed=seed, success=result.success,
        wall_time=wall, iterations=result.iterations, vertices=len(result.tree),
        path_length=path_length, path_duration=path_duration,
        min_barrier=min_barrier, audit_pass=audit_pass)
    return report, trajectory, result.tree


def run(scenario_file: ScenarioFile, algorithm: str, seed: int, out_dir) -> RunReport:
    """execute() plus artifacts: trajectory.csv, tree.json (streamed), report.json
    (deterministic) and timing.json (wall clock, volatile) in out_dir."""
    report, trajectory, tree = execute(scenario_file, algorithm, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / "trajectory.csv", format_trajectory_csv(trajectory))
    _atomic_write(out / "tree.json",
                  _format_tree_json(algorithm, tree, scenario_file.scenario.params))
    _atomic_write(out / "report.json", format_report_json(report))
    _atomic_write(out / "timing.json",
                  json.dumps({"wall_time_s": report.wall_time}, indent=2) + "\n")
    return report


# ---------------------------------------------------------------------------
# serialization


def _atomic_write(path, content: str | Iterable[bytes]):
    """Write content, a str or bytes pieces written as they come, to a temp
    file renamed over path; if anything raises, path is left as it was. The
    file gets the mode open() would give it, 0o666 less the umask, in place
    of mkstemp's 0o600, which the rename would keep."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as f:
            f.writelines([content.encode()] if isinstance(content, str) else content)
        umask = os.umask(0o022)  # reads the umask; the next line restores it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def format_trajectory_csv(trajectory: Optional[Trajectory]) -> str:
    if not trajectory:
        return TRAJECTORY_HEADER + "\n"
    # %r writes a float with float.__repr__, as f"{x!r}" and json.dumps (for
    # finite values) do: one format call gives the text of formatting each
    # value of the buffer on its own.
    body = "\n".join(["%r,%r,%r,%r,%r,%r"] * len(trajectory))
    return f"{TRAJECTORY_HEADER}\n{body % tuple(trajectory.data)}\n"


def read_trajectory_csv(path) -> Trajectory:
    """Parse a trajectory CSV. Raises ValueError naming the line of a row
    without 6 columns, a non-finite field (and its column) or a t going back."""
    path = Path(path)
    columns = TRAJECTORY_HEADER.split(",")
    with path.open(newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != columns:
            raise ValueError(
                f"{path}: expected header {TRAJECTORY_HEADER!r}, got {header!r}")
        data = array("d")
        for row in reader:
            if not row:
                continue
            where = f"{path}, line {reader.line_num}"
            if len(row) != 6:
                raise ValueError(f"{where}: expected 6 columns, got {len(row)}")
            values = []
            for name, field in zip(columns, row):
                try:
                    values.append(float(field))
                except ValueError:
                    raise ValueError(
                        f"{where}: {name} must be a number, got {field!r}") from None
                if not math.isfinite(values[-1]):
                    raise ValueError(f"{where}: {name} must be finite, got {values[-1]!r}")
            t = values[0]
            if data and t < data[-6]:
                raise ValueError(f"{where}: t={t!r} is before the previous "
                                 f"row's t={data[-6]!r}")
            data.extend(values)
    return Trajectory(data)


def _format_tree_json(algorithm: str, tree, params: PlannerParams) -> Iterator[bytes]:
    """tree.json, schema 3, as bytes pieces for _atomic_write: the header
    JSON, then one column at a time, a base64 string of little-endian
    float64 ('<f8'), every float bit for bit, gathered from a zero-copy
    (n, 6) view of tree.data, which cannot grow until the pieces run out.
    params are the run's effective planner params. parents[i] is vertex i's
    parent (None for the root), and edge i runs from parents[i] to i.

    A baseline document writes the vertex columns xs, ys and costs. A cbf-rrt
    document writes the run's dt, t_h and v (v_const); nodes, the node count
    n of each non-root edge; the vertex columns t, x1, x2 and theta, a vertex
    being the last node of its edge; and, over the non-root edges in order,
    only what the closed-loop integration leaves open: theta0, the resampled
    start heading; inner_x1 and inner_x2, of the n - 2 inner nodes; omega,
    the n - 1 applied controls. The rest of an edge follows bit for bit (see
    planner.integrate_closed_loop and dynamics.rk4_step): its first (t, x1,
    x2) is the parent vertex and its last node the child vertex; inner node
    k sits at t0 + k*dt; every v is v_const; theta[k+1] is theta[k] +
    step*omega[k], the step being dt or the shorter tail (a straight step
    keeps theta[k], which is that sum bit for bit); and the last node
    repeats the last omega.
    """
    if isinstance(tree, PlanTree):
        rows = np.frombuffer(tree.data).reshape(-1, 6)
        ends = np.array(tree.ends)
        last = ends - 1  # each edge's last row, its vertex
        steps = np.ones(len(rows), bool)  # the rows that start a step
        steps[last] = False
        inner = steps.copy()
        inner[ends[:-1]] = False
        head = {"dt": params.dt, "t_h": params.t_h, "v": params.v_const,
                "parents": tree.parents, "nodes": np.diff(ends).tolist()}
        picks = {"t": (last, 0), "x1": (last, 1), "x2": (last, 2), "theta": (last, 3),
                 "theta0": (ends[:-1], 3), "inner_x1": (inner, 1),
                 "inner_x2": (inner, 2), "omega": (steps, 5)}
        columns = ((key, rows[pick]) for key, pick in picks.items())
    else:
        head = {"parents": tree.parents}
        columns = (("xs", tree.xs), ("ys", tree.ys), ("costs", tree.costs))
    yield json.dumps({"algorithm": algorithm, "schema": 3, **head})[:-1].encode()
    # base64 needs no JSON escaping, so a column goes between quotes as it
    # is; json.dumps would spend most of the time scanning its characters.
    # binascii is base64.b64encode's own encoder and is loaded at start-up;
    # importing base64 would add about 0.2 MB to a run's peak RSS.
    for key, column in columns:
        yield b', "%s": "' % key.encode()
        yield binascii.b2a_base64(np.ascontiguousarray(column, dtype="<f8"), newline=False)
        yield b'"'
    yield b"}\n"


def format_report_json(report: RunReport) -> str:
    # wall_time deliberately lives in timing.json: report.json must be
    # byte-identical across repeats of the same (scenario, algorithm, seed).
    doc = asdict(report)
    del doc["wall_time"]
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# comparison sweeps


def _compare_task(scenario_file: ScenarioFile, algorithm: str, step: float,
                  seed: int):
    """One run of the sweep; scenario_file already has the step applied."""
    try:
        report, _, _ = execute(scenario_file, algorithm, seed)
        return (algorithm, step, seed, report, None)
    except Exception as e:  # propagate into the table, not up the stack
        return (algorithm, step, seed, None, f"{type(e).__name__}: {e}")


COMPARISON_HEADER = ("algorithm,step,seeds,successes,errors,"
                     "median_wall_time_s,median_vertices,audit_fail_rate")


def compare(
    scenario_file: ScenarioFile,
    sweep: Sequence[tuple[str, float]],
    seeds: Sequence[int],
    out_path,
    threads: Optional[int] = None,
) -> str:
    """Run the (algorithm, step) x seeds cross-product and write one
    aggregate CSV row per sweep entry.

    Runs may execute in parallel (capped by `threads`, or by the CPU count
    when it is None); rows come out sorted by (algorithm, step), and no count
    or median depends on run order, so the table is deterministic either way.
    Per-run exceptions become the `errors` count instead of aborting the
    sweep. An empty seeds or sweep list (naming seeds or sweep), a seed that
    is not an integer >= 0 or repeats one before it (naming seeds[i]), a
    thread count that is not an integer >= 1 (naming threads), a repeated
    sweep entry (naming sweep[i]), an algorithm not in ALGORITHMS or a
    baseline entry on a scenario with a moving disk (naming
    sweep[i].algorithm), or a step that is None or that the scenario
    rejects (naming sweep[i].step) raises ScenarioValidationError before
    any run starts: a repeat would count its runs twice in one row.
    """
    if not seeds:
        _fail("seeds", "must not be empty")
    if threads is not None:
        _checked("", check_integer, threads, "threads", 1)
    first_seed = {}
    for i, seed in enumerate(seeds):
        _checked("", check_integer, seed, f"seeds[{i}]", 0)
        if seed in first_seed:
            _fail(f"seeds[{i}]", f"{seed} duplicates seeds[{first_seed[seed]}]")
        first_seed[seed] = i
    if not sweep:
        _fail("sweep", "must not be empty")
    stepped = {}
    first_entry = {}
    for i, (algorithm, step) in enumerate(sweep):
        # the entry goes to configure as given, so the params' number rule
        # refuses a bool or a string that float() would have run
        try:
            configured = configure(scenario_file, algorithm, step=step)
        except ScenarioValidationError as e:
            raise ScenarioValidationError(f"sweep[{i}].{e}") from e
        if step is None:  # which configure reads as no override
            _fail(f"sweep[{i}].step", "expected a number, got None")
        key = (algorithm, float(step))
        if key in first_entry:
            _fail(f"sweep[{i}]",
                  f"({algorithm}, {step}) duplicates sweep[{first_entry[key]}]")
        first_entry[key] = i
        stepped[key] = configured
        if algorithm != "cbf-rrt":
            _checked(f"sweep[{i}].algorithm: ", require_static,
                     scenario_file.scenario.obstacles)

    # Imported here, their one user: statistics loads fractions and decimal,
    # which would cost every `import cbfrrt` 3 to 4 ms.
    import io
    import statistics

    tasks = [(algorithm, float(step), seed) for algorithm, step in sweep for seed in seeds]
    if threads is None:
        threads = os.cpu_count() or 1
    files = [stepped[a, st] for a, st, _ in tasks]
    if threads > 1 and len(tasks) > 1:
        # Imported here, its one use: it would cost every `import cbfrrt`.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            results = list(pool.map(_compare_task, files, *zip(*tasks)))
    else:
        results = [_compare_task(f, *task) for f, task in zip(files, tasks)]
    groups = {key: [] for key in sorted(stepped)}
    for result in results:
        groups[result[:2]].append(result)
    rows = []
    for (algorithm, step), group in groups.items():
        reports = [r[3] for r in group if r[3] is not None]
        errors = sum(1 for r in group if r[4] is not None)
        successes = sum(1 for r in reports if r.success)
        audited = [r for r in reports if r.success]
        med_wall = statistics.median(r.wall_time for r in reports) if reports else ""
        med_vertices = statistics.median(r.vertices for r in reports) if reports else ""
        fail_rate = (sum(1 for r in audited if not r.audit_pass) / len(audited)
                     if audited else "")
        rows.append({
            "algorithm": algorithm,
            "step": step,
            "seeds": len(group),
            "successes": successes,
            "errors": errors,
            "median_wall_time_s": med_wall,
            "median_vertices": med_vertices,
            "audit_fail_rate": fail_rate,
        })

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=COMPARISON_HEADER.split(","),
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_path, text)
    return text


def load_sweep(path) -> list[tuple[str, float]]:
    """Sweep file: JSON list of {"algorithm": ..., "step": ...} objects only.

    Reads the JSON structure only, as load_scenario does: a list of objects
    with both keys and no other, each (algorithm, step) pair as JSON gave
    it. compare judges them once, through configure and the params: an
    empty sweep, an algorithm not in ALGORITHMS (naming sweep[i].algorithm)
    and a step the scenario rejects (not a number, not finite, not > 0,
    below dt; naming sweep[i].step)."""
    path = Path(path)
    doc = _read_json(path)
    if not isinstance(doc, list):
        _fail(str(path), "expected a JSON list")
    sweep = []
    for i, entry in enumerate(doc):
        where = f"sweep[{i}]"
        _object(entry, where, ("algorithm", "step"))
        sweep.append((_require(entry, "algorithm", where), _require(entry, "step", where)))
    return sweep
