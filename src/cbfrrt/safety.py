"""The safety filter: barrier functions, exponential-CBF constraint rows for
circular obstacles, and the scalar QP over those rows.

For a disk obstacle with center c(t) and radius r, the barrier is

    h = (x1 - c1)^2 + (x2 - c2)^2 - r^2

and the robot is safe iff h >= 0 for every obstacle. With the translational
speed fixed at v (the angular rate omega is the only decision variable) the
barrier has relative degree 2 in omega, and differentiating h twice along the
combined robot+obstacle flow gives

    dh/dt   = 2*d1*rho1 + 2*d2*rho2
    d2h/dt2 = 2*rho1^2 + 2*rho2^2 + 2*v*(d2*cos(theta) - d1*sin(theta)) * omega

where d = (x - c(t)) is the center offset and rho = (v*cos(theta) - c1dot,
v*sin(theta) - c2dot) the relative velocity. The exponential-CBF condition
d2h/dt2 + k2*dh/dt + k1*h >= 0 is therefore linear in omega and is returned
here as a row (a, b) meaning a*omega + b >= 0.

With the speed fixed, the per-node minimum-perturbation QP minimizes
(omega - omega_ref)^2 subject to those rows and box bounds, which reduces to
clamping the reference into the intersection interval (solve_scalar_qp).
Infeasibility is reported as None, mirroring how steering failures propagate.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .dynamics import CircularObstacle, RobotState, obstacle_center_at


def barrier_value(state: RobotState, obstacle: CircularObstacle, t: float) -> float:
    """Squared-distance margin to the obstacle disk at time t (>= 0 is safe)."""
    cx, cy = obstacle_center_at(obstacle, t)
    d1 = state.x1 - cx
    d2 = state.x2 - cy
    return d1 * d1 + d2 * d2 - obstacle.radius * obstacle.radius


# One disk as the kernel reads it: (cx, cy, vx, vy, r*r), where (cx, cy) is
# the center at t = 0 and (vx, vy) its constant velocity.
Disk = tuple[float, float, float, float, float]


def disk_tuple(obstacle: CircularObstacle) -> Disk:
    """The obstacle's floats as the kernel reads them, the radius squared."""
    return (*obstacle.center0, *obstacle.velocity, obstacle.radius * obstacle.radius)


def ecbf_row(
    x1: float,
    x2: float,
    cos_t: float,
    sin_t: float,
    v_const: float,
    disk: Disk,
    t: float,
    k1: float,
    k2: float,
) -> tuple[float, float]:
    """Build the exponential-CBF row (a, b), meaning a*omega + b >= 0, for one
    disk (cx, cy, vx, vy, r*r) seen from position (x1, x2) with heading
    cosine and sine (cos_t, sin_t) at time t.

    a is the omega coefficient of d2h/dt2; b collects the drift part of
    d2h/dt2 plus k1*h + k2*dh/dt. A row with a ~ 0 and b < 0 (head-on
    geometry) is infeasible for every omega; that verdict is left to the QP.
    """
    cx, cy, vx, vy, r2 = disk
    d1 = x1 - (cx + vx * t)
    d2 = x2 - (cy + vy * t)
    rho1 = v_const * cos_t - vx
    rho2 = v_const * sin_t - vy

    h = d1 * d1 + d2 * d2 - r2
    h_dot = 2.0 * d1 * rho1 + 2.0 * d2 * rho2
    a = 2.0 * v_const * (d2 * cos_t - d1 * sin_t)
    b = 2.0 * (rho1 * rho1 + rho2 * rho2) + k1 * h + k2 * h_dot
    return (a, b)


def constraint_rows(
    x1: float,
    x2: float,
    cos_t: float,
    sin_t: float,
    v_const: float,
    disks: Sequence[Disk],
    t: float,
    k1: float,
    k2: float,
) -> list[tuple[float, float]]:
    """One ECBF row (a, b) per disk, in input order."""
    # A plain loop: on CPython 3.11 a list comprehension costs an extra frame.
    rows = []
    for disk in disks:
        rows.append(ecbf_row(x1, x2, cos_t, sin_t, v_const, disk, t, k1, k2))
    return rows


# Rows with |a| below this are treated as omega-independent: vacuous when
# b >= -TOL_ZERO, infeasible otherwise. Avoids division blow-up near the
# head-on singularity.
TOL_ZERO = 1e-12


def solve_scalar_qp(
    omega_ref: float,
    lo: float,
    hi: float,
    rows: Iterable[tuple[float, float]],
) -> Optional[float]:
    """min (omega - omega_ref)^2 s.t. a*omega + b >= 0 for each row (a, b)
    and lo <= omega <= hi, for box bounds lo <= hi.

    Intersects the box with every half-line row and clamps the reference
    into the result. Returns the minimizer, or None when the intersection is
    empty (some row demands an omega outside the bounds, or an
    omega-independent row is violated outright).
    """
    # `if` comparisons in place of max/min: each keeps the incumbent on a tie,
    # as max/min do, so even the sign of a zero bound is unchanged.
    for a, b in rows:
        if -TOL_ZERO <= a <= TOL_ZERO:
            if b < -TOL_ZERO:
                return None
            continue
        bound = -b / a
        if a > 0.0:
            if bound > lo:
                lo = bound
        elif bound < hi:
            hi = bound
        if lo > hi:
            return None
    omega = omega_ref
    if lo > omega:
        omega = lo
    if hi < omega:
        omega = hi
    return omega
