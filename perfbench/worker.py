"""One fresh interpreter of the benchmark: set up, run a chunk, report.

    python3 perfbench/worker.py --workload NAME --setup-only
    python3 perfbench/worker.py --workload NAME --items JSON [--trace]

Times `import cbfrrt` plus `load_scenario` (setup_s), then runs each
(algorithm, step, planner seed) item through `harness.run` into a temporary
directory, checks the artifacts, and prints one JSON object on stdout. Every
timing is stored with the time of a fixed reference loop measured next to it
(`*ref_s`), from which run.py scales it to a reference host speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

from workloads import OUT, SCENARIOS, SRC, WORKLOADS

# The deterministic artifacts; timing.json holds the wall time and varies.
ARTIFACTS = ("report.json", "tree.json", "trajectory.csv")


def reference_loop():
    """Fixed pure-Python work: calls, float math and small tuples, like the
    planner's inner loop."""
    acc = 0.0
    for i in range(2000):
        p = (math.cos(i * 0.001), math.sin(i * 0.001))
        acc += p[0] * p[1]
    return acc


def reference_s():
    """Median of five timings of reference_loop: the host's current speed."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]


def configure(scenario_file, algorithm, step):
    """The scenario file with the sweep step applied: t_h for cbf-rrt,
    delta_d for the baselines."""
    if step is None:
        return scenario_file
    if algorithm == "cbf-rrt":
        scenario = scenario_file.scenario
        params = replace(scenario.params, t_h=step)
        return replace(scenario_file, scenario=replace(scenario, params=params))
    return replace(scenario_file,
                   baseline=replace(scenario_file.baseline, delta_d=step))


def check_run(harness, audit, scenario_file, algorithm, report, out_dir):
    """Output checks of one run; returns (problems, digest, artifact bytes)."""
    problems = []
    blobs = {name: (out_dir / name).read_bytes() for name in ARTIFACTS}
    digest = hashlib.sha256(b"".join(blobs.values())).hexdigest()
    doc = json.loads(blobs["report.json"])
    if doc["success"] != report.success or doc["audit_pass"] != report.audit_pass:
        problems.append("report.json disagrees with the returned report")
    trajectory = harness.read_trajectory_csv(out_dir / "trajectory.csv")
    if report.success:
        dt_audit = scenario_file.scenario.params.dt / 4.0
        verdict, _ = audit(trajectory, scenario_file.scenario.obstacles, dt_audit)
        if verdict != report.audit_pass:
            problems.append(f"re-audit of trajectory.csv gives {verdict}, "
                            f"report says {report.audit_pass}")
        if algorithm == "cbf-rrt" and not report.audit_pass:
            problems.append("cbf-rrt success failed its audit")
    elif len(trajectory):
        problems.append("failed run wrote a non-empty trajectory.csv")
    return problems, digest, sum(len(b) for b in blobs.values())


def traced_checks(algorithm, report, counters):
    """Counts seen from outside must agree with the report."""
    if algorithm == "cbf-rrt":
        expected = {"planner.safe_steer.calls": report.iterations,
                    "planner.accepted": report.vertices - 1}
    else:
        expected = {"baselines.nearest_neighbor.calls": report.iterations}
    return [f"{key} = {counters.get(key, 0)}, report implies {value}"
            for key, value in expected.items() if counters.get(key, 0) != value]


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--items")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    from cbfrrt import harness
    scenario_file = harness.load_scenario(SCENARIOS / workload.scenario)
    setup_s = time.perf_counter() - start
    out = {"setup_s": setup_s, "setup_ref_s": reference_s()}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    # Bound before tracing starts, so the checks are neither traced nor counted.
    audit = harness.audit_trajectory
    run = harness.run
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    configured = {}
    records = []
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT / "tmp") as tmp:
        for i, (algorithm, step, seed) in enumerate(json.loads(args.items)):
            key = (algorithm, step)
            if key not in configured:
                configured[key] = configure(scenario_file, algorithm, step)
            sf = configured[key]
            out_dir = Path(tmp) / str(i)
            record = {"item": [algorithm, step, seed]}
            before = tracer.work_counters() if tracer else None
            ref_before = reference_s()
            t0 = time.perf_counter()
            try:
                if tracer:
                    report = tracer.span("harness.run", run, sf, algorithm, seed,
                                         out_dir)
                else:
                    report = run(sf, algorithm, seed, out_dir)
            except Exception as e:  # a failed run is counted, not fatal
                record["problems"] = [f"{type(e).__name__}: {e}"]
                record["traceback"] = traceback.format_exc()
                records.append(record)
                continue
            record["latency_s"] = time.perf_counter() - t0
            record["ref_s"] = (ref_before + reference_s()) / 2.0
            problems, digest, nbytes = check_run(harness, audit, sf, algorithm,
                                                 report, out_dir)
            counters = {"iterations": report.iterations,
                        "vertices": report.vertices,
                        "artifact_bytes": nbytes}
            if tracer:
                after = tracer.work_counters()
                counters.update({k: v - before.get(k, 0) for k, v in after.items()})
                problems += traced_checks(algorithm, report, counters)
            record.update(success=report.success, audit_pass=report.audit_pass,
                          digest=digest, counters=counters, problems=problems)
            records.append(record)

    out["records"] = records
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        out["trace"] = tracer.dump()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
