"""The identity corpus: sha256 of each artifact of a fixed set of runs.

tests/data/identity.json holds, per case, the sha256 of report.json, of the
raw tree.json bytes and of trajectory.csv, each built in memory from
harness.execute and the artifact formatters (no file is written). The
tests read each run through the session fixture corpus_run
(tests/conftest.py), which the acceptance batches share.
tests/test_identity.py compares every case against it, and
tests/test_harness.py::test_run_writes_the_corpus_artifacts holds the files
harness.run writes to it on five cases. It is the one set of artifact pins: a
change that rewrites the manifest says why.

Regenerate with:

    PYTHONPATH=src python tests/identity_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from cbfrrt import harness

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "src" / "cbfrrt" / "scenarios"
DATA = pathlib.Path(__file__).resolve().parent / "data"
MANIFEST = DATA / "identity.json"

# (scenario, algorithm, step or None for the file's own, seeds): the cbf-rrt
# step is t_h, the baselines' delta_d. A scenario is a bundled file or one
# under tests/data. turning is example1 with an omega box that excludes 0,
# so no node steers straight and QPs fail at later nodes, the last included
# (test_turning_reaches_later_qp_failures), on a grid with no tail step
# (t_h 0.5) and on one with a tail step (t_h 0.25). complex_gains is example1
# with omega_ref 0.5 and the complex-root gains k1 4, k2 1, so edges steer
# toward a nonzero reference and the margin check rejects edges on static
# disks; crowded has six disks, two of them moving, at every node
# (test_corpus_reaches_kernel_branches). late_start is example2 from t_init
# 1000, its disk moved back so that it starts where example2's does: every
# node time is t0 + offset with t0 far from 0, where the sum rounds.
GROUPS = (
    ("example1", "cbf-rrt", 0.25, range(6)),
    ("example1", "cbf-rrt", 0.5, range(20)),
    ("example2", "cbf-rrt", None, range(20)),
    ("example1", "rrt", 0.25, range(3)),
    ("example1", "rrt", 1.0, range(3)),
    ("example1", "rrt-star", 0.25, range(3)),
    ("example1", "rrt-star", 1.0, range(3)),
    ("turning", "cbf-rrt", 0.5, range(6)),
    ("turning", "cbf-rrt", 0.25, range(1, 3)),
    ("complex_gains", "cbf-rrt", None, range(6)),
    ("crowded", "cbf-rrt", None, range(6)),
    ("late_start", "cbf-rrt", None, range(6)),
)


def cases() -> list[tuple[str, str, str, float | None, int]]:
    """(case id, scenario, algorithm, step, seed) for every corpus run."""
    out = []
    for name, algorithm, step, seeds in GROUPS:
        for seed in seeds:
            key = "t_h" if algorithm == "cbf-rrt" else "delta_d"
            label = "" if step is None else f"/{key}={step!r}"
            out.append((f"{name}/{algorithm}{label}/seed={seed}",
                        name, algorithm, step, seed))
    return out


def configured(name: str, algorithm: str, step: float | None):
    """The scenario file name, bundled or under tests/data, configured for
    algorithm and step."""
    path = SCENARIOS / f"{name}.json"
    if not path.exists():
        path = DATA / f"{name}.json"
    return harness.configure(harness.load_scenario(path), algorithm, step)


def run_case(name: str, algorithm: str, step: float | None, seed: int):
    """The configured scenario file and harness.execute's (report,
    trajectory, tree) for one corpus run."""
    scenario_file = configured(name, algorithm, step)
    return scenario_file, harness.execute(scenario_file, algorithm, seed)


def digests(algorithm: str, scenario_file, result) -> dict:
    """sha256 of report.json, raw tree.json and trajectory.csv for one
    run_case result."""
    report, trajectory, tree = result
    tree_json = b"".join(harness._format_tree_json(
        algorithm, tree, scenario_file.scenario.params))
    return {
        "report": hashlib.sha256(harness.format_report_json(report).encode()).hexdigest(),
        "tree": hashlib.sha256(tree_json).hexdigest(),
        "trajectory": hashlib.sha256(
            harness.format_trajectory_csv(trajectory).encode()).hexdigest(),
    }


def corpus() -> dict[str, dict]:
    """Case id -> digests, for every case."""
    return {case_id: digests(args[1], *run_case(*args)) for case_id, *args in cases()}


def main():
    MANIFEST.write_text(json.dumps(corpus(), indent=1) + "\n")
    print(f"wrote {MANIFEST.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
