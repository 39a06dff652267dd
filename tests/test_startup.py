"""`import cbfrrt` starts no BLAS thread pool and leaves the environment as
it found it.

numpy's OpenBLAS starts a pool of worker threads as it loads unless
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS says otherwise;
the package makes no BLAS call, so it loads numpy with one thread. Each test
starts a fresh interpreter, as only the first numpy import reads the
variables, and counts its threads through Linux's /proc/self/task.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import cbfrrt

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
UNSET = dict.fromkeys(BLAS_THREADS)
EXAMPLE1 = pathlib.Path(cbfrrt.__file__).parent / "scenarios" / "example1.json"

# the last line each interpreter prints: its thread count, the three
# variables as os.environ holds them, and whether numpy.random is loaded
STATE = ("json.dumps([len(os.listdir('/proc/self/task')), "
         f"{{name: os.environ.get(name) for name in {BLAS_THREADS!r}}}, "
         "'numpy.random' in sys.modules])")

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="counts threads through Linux's /proc/self/task")


def fresh(code: str, **preset: str) -> list:
    """Run code, then print STATE, in a fresh interpreter whose environment
    sets none of BLAS_THREADS but preset; each printed line, parsed."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env.update(preset, PYTHONPATH=str(pathlib.Path(cbfrrt.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", f"import json, os, sys\n{code}\nprint({STATE})"],
        env=env, check=True, capture_output=True, text=True, timeout=120).stdout
    return [json.loads(line) for line in out.splitlines()]


def test_import_leaves_one_thread_and_the_environment_as_it_was():
    [[threads, environ, _]] = fresh("import cbfrrt")
    assert (threads, environ) == (1, UNSET)


def test_a_plan_leaves_one_thread_and_the_environment_as_it_was():
    code = ("from cbfrrt import load_scenario, plan\n"
            f"assert plan(load_scenario({str(EXAMPLE1)!r}).scenario, 0).success")
    assert fresh(code) == [[1, UNSET, True]]


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_preset_thread_count_is_left_as_it_was(name):
    [[_, environ, _]] = fresh("import cbfrrt", **{name: "2"})
    assert environ == {**UNSET, name: "2"}


def test_numpy_imported_first_is_left_alone():
    # numpy already loaded its BLAS with its own thread count; the import
    # adds no thread and sets no variable
    before, after = fresh(f"import numpy\nprint({STATE})\nimport cbfrrt")
    assert before == after
