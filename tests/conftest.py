import pathlib

import numpy as np
import pytest

import cbfrrt
from cbfrrt import harness

SCENARIO_DIR = pathlib.Path(cbfrrt.__file__).parent / "scenarios"


def pytest_report_header(config):
    # CI installs numpy unpinned; the planner's draws are held to numpy's own
    # Generator.integers and Generator.normal, and the digests to its PCG64.
    return f"numpy {np.__version__}"


@pytest.fixture(scope="session")
def example1_file():
    return harness.load_scenario(SCENARIO_DIR / "example1.json")


@pytest.fixture(scope="session")
def example2_file():
    return harness.load_scenario(SCENARIO_DIR / "example2.json")
