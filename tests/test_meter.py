"""The work meter (tests/meter.py) counts the same bytecodes on every call.

No count is pinned: CI runs two Python versions, whose counts differ."""

import pytest

from meter import PACKAGE, audit_call, meter, planner_call


@pytest.mark.parametrize("algorithm, functions", [
    pytest.param("cbf-rrt", (("planner.py", "plan"), ("safety.py", "ecbf_row")),
                 id="cbf-rrt"),
    pytest.param("rrt", (("baselines.py", "_grow"), ("baselines.py", "sample_stream")),
                 id="rrt"),
    pytest.param("rrt-star", (("baselines.py", "_grow"), ("baselines.py", "reparent")),
                 id="rrt-star"),
])
def test_meter_counts_a_plan_the_same_twice(algorithm, functions):
    # the meter runs inside the full suite, after hypothesis has hooked the
    # garbage collector: only the package's own frames may be counted
    fn, args = planner_call("example1", algorithm, 0)
    first = meter(fn, *args)
    assert first == meter(fn, *args)
    assert {module for module, _ in first} <= {p.name for p in PACKAGE.glob("*.py")}
    assert all(first[function] > 0 for function in functions)


def test_meter_counts_an_audit_the_same_twice():
    fn, args = audit_call("example2", 0)
    first = meter(fn, *args)
    assert first == meter(fn, *args)
    assert first[("harness.py", "audit_trajectory")] > 0
