"""The work meter (tests/meter.py) counts the same bytecodes on every call.

No count is pinned: CI runs two Python versions, whose counts differ."""

from cbfrrt import planner
from cbfrrt.harness import load_scenario
from meter import PACKAGE, SCENARIOS, meter


def test_meter_counts_a_plan_the_same_twice():
    # the meter runs inside the full suite, after hypothesis has hooked the
    # garbage collector: only the package's own frames may be counted
    scenario = load_scenario(SCENARIOS / "example1.json").scenario
    assert scenario.params.t_h == 0.5
    first = meter(planner.plan, scenario, 0)
    assert first == meter(planner.plan, scenario, 0)
    assert {module for module, _ in first} <= {p.name for p in PACKAGE.glob("*.py")}
    assert first["planner.py", "plan"] > 0 and first["safety.py", "ecbf_row"] > 0
