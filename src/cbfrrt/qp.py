"""Minimum-perturbation safety QP.

With the translational speed fixed, the per-step QP minimizes
(omega - omega_ref)^2 subject to half-line barrier rows and box bounds,
which reduces to clamping the reference into the intersection interval.

Infeasibility is reported as None, mirroring how steering failures propagate.
"""

from __future__ import annotations

from typing import Iterable, Optional

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
