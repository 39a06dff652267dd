"""A deterministic work meter: the bytecodes each function of cbfrrt runs.

meter(fn, *args) calls fn(*args) once to warm up (a first call may run
one-time work, such as a lazy import), then again
under sys.settrace with frame.f_trace_opcodes set, and returns the bytecodes
run per (module file, function). Only frames whose code lives in the cbfrrt
package are counted: code of another library can run inside any call
(hypothesis's garbage-collection hook, once a @given test has run) and would
add a count that varies from call to call.

Limits: a C call (math.cos, a numpy scan, base64 encoding) counts as one
bytecode, so the meter complements wall time and never stands for it; counts
differ between Python versions, so compare them within one interpreter only.
A metered call runs about 60 times slower.

Print the per-function counts of the fixed runs (cbf-rrt on example1 at
t_h 0.5 seed 0 and on example2 seeds 0 and 3, rrt and rrt-star on example1
at delta_d 0.25 seed 0), and of harness.audit_trajectory on the path of each cbf-rrt
run (labelled `.../audit`), one `run function count` line each, to diff
before and after a change:

    PYTHONPATH=src python tests/meter.py
"""

from __future__ import annotations

import pathlib
import sys
from collections import Counter

import cbfrrt
from cbfrrt import baselines, harness, planner

PACKAGE = pathlib.Path(cbfrrt.__file__).resolve().parent
SCENARIOS = PACKAGE / "scenarios"
# (scenario, algorithm, seed), each at the file's own step
RUNS = (("example1", "cbf-rrt", 0), ("example2", "cbf-rrt", 0),
        ("example2", "cbf-rrt", 3), ("example1", "rrt", 0), ("example1", "rrt-star", 0))
BASELINES = {"rrt": baselines.rrt_plan, "rrt-star": baselines.rrt_star_plan}


def planner_call(name: str, algorithm: str, seed: int):
    """The planner function and its arguments for one run of a bundled
    scenario: planner.plan for cbf-rrt, baselines.rrt_plan for rrt and
    baselines.rrt_star_plan for rrt-star."""
    scenario_file = harness.load_scenario(SCENARIOS / f"{name}.json")
    if algorithm == "cbf-rrt":
        return planner.plan, (scenario_file.scenario, seed)
    return BASELINES[algorithm], (scenario_file.scenario, scenario_file.baseline, seed)


def audit_call(name: str, seed: int):
    """harness.audit_trajectory and its arguments for the path of one
    cbf-rrt run of a bundled scenario, which must reach the goal."""
    fn, args = planner_call(name, "cbf-rrt", seed)
    path = fn(*args).controls
    assert path is not None, f"{name} seed {seed} found no path"
    return harness.audit_trajectory, (path, args[0].obstacles)


def meter(fn, *args) -> dict[tuple[str, str], int]:
    """Bytecodes run per (module file name, function name) by the package's
    code in one call of fn(*args), after one warm-up call."""
    fn(*args)
    package = str(PACKAGE)
    counts = Counter()

    def call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(package):
            return None
        frame.f_trace_opcodes = True

        def local(frame, event, arg):
            if event == "opcode":
                counts[code] += 1
            return local
        return local

    sys.settrace(call)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    out = Counter()
    for code, n in counts.items():
        out[pathlib.Path(code.co_filename).name, code.co_name] += n
    return dict(out)


def main():
    for name, algorithm, seed in RUNS:
        label = f"{name}/{algorithm}/seed={seed}"
        calls = [(label, planner_call(name, algorithm, seed))]
        if algorithm == "cbf-rrt":
            calls.append((f"{label}/audit", audit_call(name, seed)))
        for label, (fn, args) in calls:
            counts = meter(fn, *args)
            for (module, function), n in sorted(counts.items()):
                print(f"{label} {module}:{function} {n}")
            print(f"{label} total {sum(counts.values())}")


if __name__ == "__main__":
    main()
