"""`import cbfrrt`, a plan and a run load no numpy, start no thread and
leave the environment as they found it; with numpy blocked, each algorithm's
run writes its identity-corpus bytes.

CBF-RRT draws from the package's own stream (cbfrrt.rng), the baselines from
random.Random and answer their nearest-vertex and near-set queries from a
grid in plain Python, and the audit and the tree.json writer read
array('d') columns, so the package has no runtime dependency. Each test
starts a fresh interpreter, whose sys.modules and thread count no earlier
test has touched, and counts its threads through Linux's /proc/self/task.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import cbfrrt
from cbfrrt.harness import ALGORITHMS
from identity_corpus import MANIFEST, cases

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
UNSET = dict.fromkeys(BLAS_THREADS)
SCENARIOS = pathlib.Path(cbfrrt.__file__).parent / "scenarios"
EXAMPLE1 = SCENARIOS / "example1.json"
TESTS = pathlib.Path(__file__).resolve().parent

# the last line each interpreter prints: its thread count, the three
# thread-count variables as os.environ holds them, and whether numpy is loaded
STATE = ("json.dumps([len(os.listdir('/proc/self/task')), "
         f"{{name: os.environ.get(name) for name in {BLAS_THREADS!r}}}, "
         "sys.modules.get('numpy') is not None])")

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="counts threads through Linux's /proc/self/task")


def fresh(code: str) -> list:
    """Run code, then print STATE, in a fresh interpreter whose environment
    sets none of BLAS_THREADS; each printed line, parsed."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["PYTHONPATH"] = os.pathsep.join([str(pathlib.Path(cbfrrt.__file__).parents[1]),
                                         str(TESTS)])
    out = subprocess.run(
        [sys.executable, "-c", f"import json, os, sys\n{code}\nprint({STATE})"],
        env=env, check=True, capture_output=True, text=True, timeout=120).stdout
    return [json.loads(line) for line in out.splitlines()]


def test_import_leaves_one_thread_and_the_environment_as_it_was():
    assert fresh("import cbfrrt") == [[1, UNSET, False]]


def test_a_plan_leaves_one_thread_and_the_environment_as_it_was():
    code = ("from cbfrrt import load_scenario, plan\n"
            f"assert plan(load_scenario({str(EXAMPLE1)!r}).scenario, 0).success")
    assert fresh(code) == [[1, UNSET, False]]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_run_with_artifacts_leaves_one_thread_and_loads_no_numpy_random(
        tmp_path, algorithm):
    # no part of numpy loads, numpy.random included; the run must succeed
    # and pass its audit, as a benchmark worker's run does
    code = ("from cbfrrt import load_scenario, run\n"
            f"report = run(load_scenario({str(EXAMPLE1)!r}), {algorithm!r}, 0, "
            f"{str(tmp_path)!r})\n"
            "assert report.success and report.audit_pass")
    assert fresh(code) == [[1, UNSET, False]]
    assert (tmp_path / "tree.json").is_file()


@pytest.mark.parametrize("case_id", [
    "example1/cbf-rrt/t_h=0.5/seed=0",
    "example1/rrt/delta_d=0.25/seed=0",
    "example1/rrt-star/delta_d=1.0/seed=0",
])
def test_a_run_without_numpy_writes_the_corpus_artifacts(tmp_path, case_id):
    # sys.modules["numpy"] = None makes any `import numpy` raise ImportError,
    # as in an environment without numpy installed
    (name, algorithm, step, seed), = [args for cid, *args in cases() if cid == case_id]
    code = ("sys.modules['numpy'] = None\n"
            "from cbfrrt import run\n"
            "from identity_corpus import configured\n"
            f"run(configured({name!r}, {algorithm!r}, {step!r}), {algorithm!r}, {seed!r}, "
            f"{str(tmp_path)!r})")
    assert fresh(code) == [[1, UNSET, False]]
    written = {key: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
               for key, file in (("report", "report.json"), ("tree", "tree.json"),
                                 ("trajectory", "trajectory.csv"))}
    assert written == json.loads(MANIFEST.read_text())[case_id]
