"""CBF-RRT: sampling-based planning with control-barrier-function safe steering.

The planner grows a time-stamped tree for a constant-speed unicycle among
circular obstacles (static or constant-velocity). Edge expansion integrates
the closed loop under a per-step scalar QP that enforces an exponential
barrier constraint; an edge joins the tree only when every QP along it was
feasible and the integrated states clear every disk with margin. There is
no nearest-neighbor search anywhere in the loop. Classic RRT / RRT*
baselines with end-point-only collision checks and a benchmark harness
round out the package.
"""


def _load_numpy_with_one_blas_thread():
    """numpy's OpenBLAS starts a pool of worker threads as it loads, for
    BLAS calls this package never makes: its numpy use is elementwise
    arithmetic, comparisons, reductions, indexing and the PCG64 generator.
    The idle pool slows every later import (about 70 ms of a 0.2 s start-up
    on 2 CPUs), so numpy loads with one BLAS thread, unless it is already
    loaded or OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is
    set. OpenBLAS reads the variable only as it loads, so it is removed
    again: os.environ and child processes see what the user left."""
    import os
    import sys
    if "numpy" in sys.modules or any(
            name in os.environ
            for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_load_numpy_with_one_blas_thread()

from .baselines import rrt_plan, rrt_star_plan
from .harness import audit_trajectory, configure, load_scenario, run
from .planner import integrate_closed_loop, plan, safe_steer, steer_constants
from .safety import constraint_rows, ecbf_row, solve_scalar_qp

__version__ = "0.1.0"

__all__ = [
    "load_scenario", "configure", "plan", "run", "safe_steer", "steer_constants",
    "constraint_rows", "ecbf_row", "solve_scalar_qp", "integrate_closed_loop", "rrt_plan",
    "rrt_star_plan", "audit_trajectory", "__version__",
]
