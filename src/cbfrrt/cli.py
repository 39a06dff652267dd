"""Command-line front end.

Exit codes (stable scripting contract):
  0  success
  1  a safety audit reported a violation (plan and audit subcommands)
  2  planner exhausted its iteration budget without reaching the goal
  3  invalid input (bad scenario/sweep/trajectory file, bad arguments)
  4  internal error
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from pathlib import Path

from . import harness
from .harness import ScenarioValidationError

EXIT_OK = 0
EXIT_AUDIT_FAIL = 1
EXIT_EXHAUSTED = 2
EXIT_INVALID_INPUT = 3
EXIT_INTERNAL = 4

# The largest --seeds count: compare holds a task and a result per (sweep
# entry, seed), and so many seeds already run for hours per entry.
MAX_SEEDS = 100_000


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbfrrt",
        description="CBF-RRT motion planner benchmark: plan with safety-filtered "
                    "steering, compare against RRT/RRT* baselines, audit "
                    "trajectories against obstacle disks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="run one planner on a scenario and write artifacts")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--algorithm", default="cbf-rrt", choices=harness.ALGORITHMS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory for artifacts")
    p.add_argument("--max-iters", type=int, default=None,
                   help="override the iteration budget")

    c = sub.add_parser("compare", help="run an (algorithm, step) x seeds sweep")
    c.add_argument("--scenario", required=True)
    c.add_argument("--sweep", required=True,
                   help="JSON list of {algorithm, step} entries")
    c.add_argument("--seeds", required=True,
                   help="either a count N (seeds 0..N-1) or a comma list like 3,7,9")
    c.add_argument("--out", required=True, help="output directory")
    c.add_argument("--threads", type=int, default=None,
                   help="parallel runs (default: CPU count)")

    a = sub.add_parser("audit", help="re-check a trajectory CSV against a scenario")
    a.add_argument("--trajectory", required=True, help="trajectory CSV file")
    a.add_argument("--scenario", required=True)
    return parser


def _parse_seeds(text: str) -> list[int]:
    text = text.strip()
    try:
        if "," in text:
            return [int(part) for part in text.split(",") if part.strip() != ""]
        count = int(text)
    except ValueError as e:
        raise ScenarioValidationError(
            f"--seeds: expected a count or comma list, got {text!r}") from e
    if count < 0:
        raise ScenarioValidationError(f"--seeds: a count must be >= 0, got {count}")
    if count > MAX_SEEDS:
        raise ScenarioValidationError(f"--seeds: a count must be <= {MAX_SEEDS}, got {count}")
    return list(range(count))


def _at(flag: str, call, *args, **kwargs):
    """call(*args, **kwargs); an OSError it raises comes from the path given
    as flag, and is raised again as a ScenarioValidationError naming flag."""
    try:
        return call(*args, **kwargs)
    except OSError as e:
        raise ScenarioValidationError(f"{flag}: {e}") from e


def _cmd_plan(args) -> tuple[int, str]:
    scenario_file = harness.configure(_at("--scenario", harness.load_scenario, args.scenario),
                                      args.algorithm, max_iters=args.max_iters)
    report = _at("--out", harness.run, scenario_file, args.algorithm, args.seed, args.out)
    written = f"artifacts written to {Path(args.out).resolve()}\n"
    if report.success:
        audit = "pass" if report.audit_pass else "FAIL"
        barrier = "n/a" if report.min_barrier is None else f"{report.min_barrier:.6f}"
        summary = (f"{args.algorithm} seed={args.seed}: reached goal in "
                   f"{report.iterations} iterations ({report.vertices} vertices), "
                   f"path {report.path_length:.3f} m / {report.path_duration:.3f} s, "
                   f"min barrier {barrier} m^2, audit {audit}, "
                   f"wall {report.wall_time:.3f} s\n")
        return (EXIT_OK if report.audit_pass else EXIT_AUDIT_FAIL), summary + written
    summary = (f"{args.algorithm} seed={args.seed}: exhausted after "
               f"{report.iterations} iterations ({report.vertices} vertices), "
               f"wall {report.wall_time:.3f} s\n")
    return EXIT_EXHAUSTED, summary + written


def _cmd_compare(args) -> tuple[int, str]:
    scenario_file = _at("--scenario", harness.load_scenario, args.scenario)
    sweep = _at("--sweep", harness.load_sweep, args.sweep)
    seeds = _parse_seeds(args.seeds)
    out_path = Path(args.out) / "comparison.csv"
    table = _at("--out", harness.compare, scenario_file, sweep, seeds, out_path,
                threads=args.threads)
    return EXIT_OK, f"{table}comparison written to {out_path.resolve()}\n"


def _cmd_audit(args) -> tuple[int, str]:
    scenario_file = _at("--scenario", harness.load_scenario, args.scenario)
    try:
        trajectory = harness.read_trajectory_csv(args.trajectory)
        ok, min_barrier = harness.audit_trajectory(trajectory, scenario_file.scenario.obstacles)
    except (OSError, ValueError) as e:
        raise ScenarioValidationError(f"--trajectory: {e}") from e
    shown = "n/a" if min_barrier is None else f"{min_barrier:.9f}"
    return (EXIT_OK if ok else EXIT_AUDIT_FAIL), (
        f"audit {'pass' if ok else 'FAIL'}: min barrier {shown} m^2 "
        f"over {len(trajectory)} nodes\n")


COMMANDS = {"plan": _cmd_plan, "compare": _cmd_compare, "audit": _cmd_audit}


def main(argv=None) -> int:
    """Run one command; its status is decided before its summary is written,
    so a reader that closes stdout early (`cbfrrt compare ... | head -1`)
    loses only the summary, not the status."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse has written its usage message to stderr and exits 2 on a
        # bad argument, which here would read as "exhausted"; --help exits 0.
        return EXIT_INVALID_INPUT if e.code else EXIT_OK
    try:
        status, output = COMMANDS[args.command](args)
    except ScenarioValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
    try:
        sys.stdout.write(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # The command's files are written. Point stdout at devnull so that
        # the flush at interpreter exit does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
