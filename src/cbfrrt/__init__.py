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

from .baselines import rrt_plan, rrt_star_plan
from .harness import audit_trajectory, configure, load_scenario, run
from .planner import plan

__version__ = "0.1.0"

__all__ = [
    "load_scenario", "configure", "plan", "run", "rrt_plan", "rrt_star_plan",
    "audit_trajectory", "__version__",
]
