import functools
import pathlib
import warnings

import numpy as np
import pytest

# hypothesis writes a failing @given test's explicit-example patch with its
# libcst-based patching module, whose first import warns (libcst touches the
# deprecated mypy_extensions.TypedDict). Under -W error that warning is raised
# inside hypothesis's report hook and ends the whole session with an
# INTERNALERROR, so one failing test would hide every later result. Importing
# the module once here, with only that category ignored, keeps the warning
# out of the hook; no other import is affected.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # a hypothesis or libcst without it
        pass

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
