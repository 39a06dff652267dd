import functools
import pathlib

import numpy as np
import pytest

import cbfrrt
import identity_corpus
from cbfrrt import harness

SCENARIO_DIR = pathlib.Path(cbfrrt.__file__).parent / "scenarios"


def pytest_report_header(config):
    # CI installs numpy unpinned; cbf-rrt's draws are held to numpy's own
    # Generator.integers and Generator.normal, and its digests to numpy's
    # PCG64. The baselines draw from random.Random, which no numpy moves.
    return f"numpy {np.__version__}"


@pytest.fixture(scope="session")
def example1_file():
    return harness.load_scenario(SCENARIO_DIR / "example1.json")


@pytest.fixture(scope="session")
def example2_file():
    return harness.load_scenario(SCENARIO_DIR / "example2.json")


@pytest.fixture(scope="session")
def corpus_run():
    """identity_corpus.run_case, each case run once per session: the
    identity test and the acceptance batches (example1 at t_h 0.5 and
    example2, seeds 0-19) read the same runs."""
    return functools.cache(identity_corpus.run_case)
