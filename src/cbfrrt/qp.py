"""Minimum-perturbation safety QP.

With the translational speed fixed, the per-step QP minimizes
(omega - omega_ref)^2 subject to half-line barrier rows and box bounds,
which reduces to clamping the reference into the intersection interval.

Infeasibility is reported as None, mirroring how steering failures propagate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .safety import ConstraintRow

# Rows with |a| below this are treated as omega-independent: vacuous when
# b >= -TOL_ZERO, infeasible otherwise. Avoids division blow-up near the
# head-on singularity.
TOL_ZERO = 1e-12


@dataclass(frozen=True)
class ScalarQpProblem:
    """min (omega - omega_ref)^2 s.t. a_i*omega + b_i >= 0 and bounds."""

    omega_ref: float
    bounds: tuple[float, float]
    rows: tuple[ConstraintRow, ...] = field(default_factory=tuple)

    def __post_init__(self):
        lo, hi = self.bounds
        if lo > hi:
            raise ValueError(f"bounds must satisfy lo <= hi, got {self.bounds}")


@dataclass(frozen=True)
class QpSolution:
    omega_star: float
    active_interval: tuple[float, float]


def feasible_interval(problem: ScalarQpProblem) -> Optional[tuple[float, float]]:
    """Intersect the box with every half-line row.

    Returns the (lo, hi) interval, or None when the intersection is empty
    (some row demands an omega outside the bounds, or an omega-independent
    row is violated outright).
    """
    lo, hi = problem.bounds
    for row in problem.rows:
        if abs(row.a) <= TOL_ZERO:
            if row.b < -TOL_ZERO:
                return None
            continue
        bound = -row.b / row.a
        if row.a > 0.0:
            lo = max(lo, bound)
        else:
            hi = min(hi, bound)
        if lo > hi:
            return None
    return (lo, hi)


def solve_scalar_qp(problem: ScalarQpProblem) -> Optional[QpSolution]:
    """Exact minimizer: clamp the reference into the feasible interval."""
    interval = feasible_interval(problem)
    if interval is None:
        return None
    lo, hi = interval
    omega = min(max(problem.omega_ref, lo), hi)
    return QpSolution(omega_star=omega, active_interval=interval)

