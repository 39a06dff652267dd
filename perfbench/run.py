"""cbfrrt benchmark: the parent process of one invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload closed-loop, one client: worker interpreters are started
one after another, each runs a chunk of `harness.run` calls, and the next
starts when the previous one has ended. Whole passes over the workload's
panel are run while the next one still fits in --seconds (at least one).
--trace 1 instead runs the panel once untraced and once traced, chunk by
chunk, and reports the per-layer metrics plus trace_overhead.

Human-readable lines go to stdout first; the last line is the JSON result.
Everything written stays under perfbench/out/.
"""

from __future__ import annotations

import argparse
import functools
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import OUT, ROOT, SRC, WORKLOADS, chunks, panel

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 3
# Start no chunk after this long, so a much slower build still ends in time;
# a cut pass is reported as truncated.
HARD_STOP_S = 120.0
# Seconds that worker.reference_loop takes at the reference host speed, a
# typical speed of the 2-vCPU Intel Xeon host the benchmark was defined on.
# That host's speed swings up to 1.7x within seconds, for wall and CPU time
# alike, so every end-to-end timing is scaled by REFERENCE_S / (the loop's
# time measured next to it). Wall-clock values are printed beside them.
REFERENCE_S = 0.0006
# A worker still running this long after the start is killed and the
# invocation fails, so it always exits within 180 s.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not measure: no result is printed."""


def env_stamp() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu,
            "loadavg_start": list(os.getloadavg())}


def spawn(workload: str, items=None, trace=False, *, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload]
    cmd += ["--setup-only"] if items is None else ["--items", json.dumps(items)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker timed out after {e.timeout} s") from e
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def at_reference(seconds: float, ref_s: float) -> float:
    return seconds * REFERENCE_S / ref_s


def reference_total(records: list[dict]) -> float:
    return sum(at_reference(r["latency_s"], r["ref_s"])
               for r in records if "latency_s" in r)


def latency_metrics(latencies: list[float]) -> tuple[float, float, float, float]:
    """(runs per second, p50, tail, tail percentile). The tail is the highest
    percentile with at least 10 runs beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    i = max(0, n - 11)
    return (n / sum(ordered), statistics.median(ordered), ordered[i],
            100.0 * (i + 1) / n)


def per(amount: float, units: float, scale: float = 1e6) -> float:
    return amount * scale / units if units else 0.0


class Checks:
    """Output checks across workers: every run's own problems, plus artifact
    digests and work counters that must repeat exactly per (algorithm, step,
    seed), traced or not."""

    def __init__(self):
        self.digests: dict[tuple, str] = {}
        self.counters: dict[tuple, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, record: dict):
        self.attempted += 1
        problems = list(record.get("problems", []))
        if "digest" in record:
            key = tuple(record["item"])
            if self.digests.setdefault(key, record["digest"]) != record["digest"]:
                problems.append("artifacts differ from an earlier repeat")
            known = self.counters.setdefault(key, {})
            changed = {k: (known[k], v) for k, v in record["counters"].items()
                       if known.setdefault(k, v) != v}
            if changed:
                problems.append(f"work counters differ from an earlier repeat "
                                f"(earlier, now): {changed}")
        if problems:
            self.failed += 1
            self.problems.append(f"{record['item']}: {'; '.join(problems)}")


def run_untraced(workload, spawn, items: list, seconds: float, checks: Checks):
    setups = []
    spawn()  # warm-up: bytecode compiled, files cached
    for _ in range(SETUP_PROBES):
        setups.append(spawn())
    records, rss = [], []
    start = time.perf_counter()
    passes = 0
    truncated = False
    while not truncated:
        pass_start = time.perf_counter()
        for chunk in chunks(items, workload.chunk):
            if time.perf_counter() - start > HARD_STOP_S:
                truncated = True
                break
            out = spawn(chunk)
            setups.append(out)
            rss.append(out["rss_mb"])
            records += out["records"]
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > min(seconds, HARD_STOP_S):
            break
    measured_s = time.perf_counter() - start
    if passes == 1:
        # Nothing ran twice: repeat the first chunk for the digest checks.
        for record in spawn(chunks(items, workload.chunk)[0])["records"]:
            checks.add(record)
    for record in records:
        checks.add(record)

    ok = [r for r in records if "latency_s" in r]
    if not ok:
        raise BenchError("no run completed: " + "; ".join(checks.problems[:3]))
    successes = [r for r in ok if r["success"]]
    runs_per_s, p50, tail, tail_pct = latency_metrics(
        [at_reference(r["latency_s"], r["ref_s"]) for r in ok])
    metrics = {
        "setup_s": (statistics.median(
            at_reference(s["setup_s"], s["setup_ref_s"]) for s in setups), "s"),
        "runs_per_s": (runs_per_s, "1/s"),
        "run_s.p50": (p50, "s"),
        "run_s.tail": (tail, "s"),
        "success_rate": (len(successes) / len(records), "ratio"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    wall = latency_metrics([r["latency_s"] for r in ok])
    failed_audits = sum(1 for r in successes if not r["audit_pass"])
    info = {
        "passes": passes, "truncated": truncated, "measured_s": measured_s,
        "runs": len(records),
        "run_s.tail": f"p{tail_pct:.1f} of n={len(ok)}",
        "setup_samples": len(setups),
        "host_speed": f"{statistics.median(REFERENCE_S / r['ref_s'] for r in ok):.3f}"
                      " x reference (median)",
        "wall": (f"setup_s {statistics.median(s['setup_s'] for s in setups):.4g}, "
                 f"runs_per_s {wall[0]:.4g}, run_s.p50 {wall[1]:.4g}, "
                 f"run_s.tail {wall[2]:.4g}"),
        "audit_fail_rate": f"{per(failed_audits, len(successes), 1.0)} "
                           f"({failed_audits} of {len(successes)} successes)",
        "error_rate": f"{per(checks.failed, checks.attempted, 1.0)} "
                      f"({checks.failed} of {checks.attempted} runs)",
        "work_per_pass": {
            key: sum(r["counters"][key] for r in ok) // passes
            for key in ("iterations", "vertices", "artifact_bytes")},
    }
    return metrics, info, records


def run_traced(workload, spawn, items: list, checks: Checks):
    plain, traced, dumps = [], [], []
    start = time.perf_counter()
    truncated = False
    for chunk in chunks(items, workload.chunk):
        if time.perf_counter() - start > HARD_STOP_S:
            truncated = True
            break
        plain += spawn(chunk)["records"]
        out = spawn(chunk, trace=True)
        traced += out["records"]
        dumps.append(out["trace"])
    # Repeat the first chunk traced: every work counter must repeat exactly.
    for record in spawn(chunks(items, workload.chunk)[0], trace=True)["records"]:
        checks.add(record)
    for record in traced:
        checks.add(record)
    for record in plain:
        checks.add(record)

    merged = Tracer()
    for dump in dumps:
        merged.merge(dump)
    totals = merged.totals()
    counts = merged.counts

    def calls(span):
        return totals.get(span, [0, 0.0, 0.0])[0]

    def total(span):
        return totals.get(span, [0, 0.0, 0.0])[1]

    def self_s(span):
        return totals.get(span, [0, 0.0, 0.0])[2]

    def count(key):
        return counts.get(key, 0)

    qp_nodes = calls("qp.solve_scalar_qp")
    expansions = calls("planner.safe_steer")
    artifacts_s = total("harness.run") - total("harness.execute")
    artifact_bytes = sum(r["counters"]["artifact_bytes"] for r in traced
                         if "counters" in r)
    metrics = {
        "qp.solve_scalar_qp.calls": (qp_nodes, "count"),
        "qp.solve_scalar_qp.infeasible": (count("qp.infeasible"), "count"),
        "qp.solve_scalar_qp.infeasible_node0": (count("qp.infeasible_node0"), "count"),
        "qp.solve_scalar_qp.us_per_call": (per(total("qp.solve_scalar_qp"), qp_nodes), "us"),
        "qp.useful_ratio": (per(count("qp.useful_nodes"), qp_nodes, 1.0), "ratio"),
        "safety.ecbf_row.calls": (calls("safety.ecbf_row"), "count"),
        "safety.ecbf_row.us_per_row": (per(total("safety.ecbf_row"),
                                           calls("safety.ecbf_row")), "us"),
        "safety.constraint_rows.self_s": (self_s("safety.constraint_rows"), "s"),
        "dynamics.rk4_step.calls": (calls("dynamics.rk4_step"), "count"),
        "dynamics.rk4_step.us_per_call": (per(total("dynamics.rk4_step"),
                                              calls("dynamics.rk4_step")), "us"),
        "dynamics.integrate_closed_loop.calls": (
            calls("dynamics.integrate_closed_loop"), "count"),
        "dynamics.integrate_closed_loop.self_s": (
            self_s("dynamics.integrate_closed_loop"), "s"),
        "dynamics.integrate_closed_loop.us_per_node": (
            per(self_s("dynamics.integrate_closed_loop"), qp_nodes), "us"),
        "planner.iterations": (count("planner.iterations"), "count"),
        "planner.expansions": (expansions, "count"),
        "planner.accepted": (count("planner.accepted"), "count"),
        "planner.accept_rate": (per(count("planner.accepted"), expansions, 1.0), "ratio"),
        "planner.margin_rejects": (count("planner.margin_rejects"), "count"),
        "planner.us_per_iter": (per(total("planner.plan"),
                                    count("planner.iterations")), "us"),
        "planner.safe_steer.self_s": (self_s("planner.safe_steer"), "s"),
        "planner.margin_check.s": (total("planner.margin_check"), "s"),
        "planner.margin_check.us_per_node": (
            per(total("planner.margin_check"), count("planner.margin_check.nodes")),
            "us"),
        "planner.vertices_sample.s": (total("planner.vertices_sample"), "s"),
        "planner.vertices_sample.us_per_call": (
            per(total("planner.vertices_sample"), calls("planner.vertices_sample")),
            "us"),
        "harness.artifacts.s": (artifacts_s, "s"),
        "harness.artifacts.bytes": (artifact_bytes, "bytes"),
        "harness.artifacts.us_per_kb": (per(artifacts_s, artifact_bytes / 1024.0), "us"),
        "harness.format_trajectory_csv.s": (total("harness.format_trajectory_csv"), "s"),
        "harness.audit_trajectory.calls": (calls("harness.audit_trajectory"), "count"),
        "harness.audit_trajectory.samples": (
            count("harness.audit_trajectory.samples"), "count"),
        "harness.audit_trajectory.us_per_sample": (
            per(total("harness.audit_trajectory"),
                count("harness.audit_trajectory.samples")), "us"),
        "baselines.iterations": (count("baselines.iterations"), "count"),
        "baselines.us_per_iter": (
            per(total("baselines.rrt_plan") + total("baselines.rrt_star_plan"),
                count("baselines.iterations")), "us"),
        "baselines.rrt_star_plan.self_s": (self_s("baselines.rrt_star_plan"), "s"),
        "baselines.nearest_neighbor.calls": (calls("baselines.nearest_neighbor"), "count"),
        "baselines.nearest_neighbor.us_per_call": (
            per(total("baselines.nearest_neighbor"),
                calls("baselines.nearest_neighbor")), "us"),
        "baselines.endpoint_collision_check.calls": (
            calls("baselines.endpoint_collision_check"), "count"),
        "baselines.endpoint_collision_check.rejects": (
            count("baselines.endpoint_collision_check.rejects"), "count"),
        "trace_overhead": (per(reference_total(traced), reference_total(plain), 1.0),
                           "ratio"),
    }
    info = {"runs": len(traced), "truncated": truncated,
            "missing_patch_points": merged.missing}
    return metrics, info, traced, merged.dump()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cbfrrt" / "__init__.py").is_file():
        print(f"perfbench: no cbfrrt package under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    env = env_stamp()
    OUT.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    items = panel(workload, args.seed)
    run_worker = functools.partial(spawn, args.workload, deadline=deadline)
    checks = Checks()
    try:
        if args.trace:
            metrics, info, records, trace_file = run_traced(
                workload, run_worker, items, checks)
            trace_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps(trace_file, indent=1) + "\n")
        else:
            metrics, info, records = run_untraced(
                workload, run_worker, items, args.seconds, checks)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    env["loadavg_end"] = list(os.getloadavg())

    label = f"{args.workload} seed={args.seed} trace={args.trace}"
    print(f"perfbench {label}: {len(items)} runs per pass")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    for name, value in info.items():
        print(f"  {name:<44} {value}")
    for problem in checks.problems[:20]:
        print(f"  FAILED {problem}")
    print("env " + json.dumps(env))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "info": info, "result": result, "records": records,
                    "problems": checks.problems}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
