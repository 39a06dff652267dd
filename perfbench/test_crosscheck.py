"""Pinned cross-check of the outside-in counters.

Run with `python3 -m pytest perfbench`. example1 with t_h=0.25 and planner
seed 1 exhausts its 10,000-iteration budget; the counts below were measured
from outside the package and must be reproduced exactly.
"""

import importlib
import sys

from workloads import SCENARIOS, SRC

sys.path.insert(0, str(SRC))

from cbfrrt import harness  # noqa: E402
from tracer import PATCH_POINTS, Tracer  # noqa: E402
from worker import configure  # noqa: E402

EXPECTED = {
    "planner.iterations": 10_000,
    "planner.safe_steer.calls": 10_000,
    "planner.accepted": 3_933,
    "qp.infeasible": 6_063,
    "qp.infeasible_node0": 6_063,
    "planner.margin_rejects": 4,
    "qp.solve_scalar_qp.calls": 57_244,
    "safety.ecbf_row.calls": 171_732,
    "dynamics.rk4_step.calls": 51_181,
}


def test_example1_fine_horizon_seed1_counts():
    scenario_file = configure(harness.load_scenario(SCENARIOS / "example1.json"),
                              "cbf-rrt", 0.25)
    tracer = Tracer()
    tracer.install()
    try:
        report, _, _ = harness.execute(scenario_file, "cbf-rrt", 1)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert not report.success
    assert report.vertices == 3_934
    counters = tracer.work_counters()
    assert {key: counters.get(key) for key in EXPECTED} == EXPECTED


def test_uninstall_restores_every_patch_point():
    modules = {m: importlib.import_module(m) for m, _, _ in PATCH_POINTS}
    originals = {(m, a): getattr(modules[m], a) for m, a, _ in PATCH_POINTS}
    tracer = Tracer()
    tracer.install()
    assert all(getattr(modules[m], a) is not f for (m, a), f in originals.items())
    tracer.uninstall()
    assert all(getattr(modules[m], a) is f for (m, a), f in originals.items())
