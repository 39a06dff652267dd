import math

import numpy as np
import pytest

from cbfrrt.safety import solve_scalar_qp
from oracles import ConstraintRow, ScalarQpProblem, feasible_interval, solve_box_qp

BOUNDS = (-4.25, 4.25)


def solve(problem):
    """solve_scalar_qp on a ScalarQpProblem."""
    return solve_scalar_qp(problem.omega_ref, *problem.bounds, problem.rows)


def test_interval_no_rows_is_the_box():
    assert feasible_interval(ScalarQpProblem(0.0, BOUNDS)) == BOUNDS


def test_interval_single_upper_row():
    # a=-2, b=3.92 means omega <= 1.96
    prob = ScalarQpProblem(0.0, BOUNDS, (ConstraintRow(-2.0, 3.92),))
    lo, hi = feasible_interval(prob)
    assert lo == -4.25
    assert hi == pytest.approx(1.96)


def test_interval_omega_independent_contradiction():
    prob = ScalarQpProblem(0.0, BOUNDS, (ConstraintRow(0.0, -4.08),))
    assert feasible_interval(prob) is None
    assert solve(prob) is None


def test_interval_vacuous_zero_row():
    prob = ScalarQpProblem(0.0, BOUNDS, (ConstraintRow(0.0, 1.0),))
    assert feasible_interval(prob) == BOUNDS


def test_interval_conflicting_rows():
    # omega >= 1 and omega <= -1
    prob = ScalarQpProblem(
        0.0, BOUNDS, (ConstraintRow(1.0, -1.0), ConstraintRow(-1.0, -1.0))
    )
    assert feasible_interval(prob) is None


def test_interval_row_outside_box():
    # omega >= 10 cannot be met inside the box
    prob = ScalarQpProblem(0.0, BOUNDS, (ConstraintRow(1.0, -10.0),))
    assert feasible_interval(prob) is None


def test_solve_returns_reference_when_feasible():
    assert solve(ScalarQpProblem(0.0, BOUNDS)) == 0.0
    prob = ScalarQpProblem(0.0, BOUNDS, (ConstraintRow(-2.0, 3.92),))
    assert solve(prob) == 0.0


def test_solve_projects_onto_nearest_edge():
    prob = ScalarQpProblem(0.0, BOUNDS, (ConstraintRow(1.0, -1.0),))
    omega_star = solve(prob)
    assert omega_star == pytest.approx(1.0)
    prob = ScalarQpProblem(2.0, BOUNDS, (ConstraintRow(-1.0, 0.5),))
    assert solve(prob) == pytest.approx(0.5)


def test_solution_lies_in_its_interval():
    rng = np.random.default_rng(3)
    for _ in range(300):
        rows = tuple(
            ConstraintRow(float(a), float(b))
            for a, b in rng.uniform(-5.0, 5.0, (int(rng.integers(0, 6)), 2))
        )
        prob = ScalarQpProblem(float(rng.uniform(-5.0, 5.0)), BOUNDS, rows)
        omega_star = solve(prob)
        if omega_star is None:
            continue
        lo, hi = feasible_interval(prob)
        assert BOUNDS[0] <= lo <= omega_star <= hi <= BOUNDS[1]
        for row in rows:
            assert row.a * omega_star + row.b >= -1e-9


def test_solver_agrees_with_grid_search():
    # brute-force argmin on a 1e-3 grid; skip sliver intervals the grid can miss
    rng = np.random.default_rng(11)
    grid = np.arange(-4.25, 4.25 + 5e-4, 1e-3)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(0, 6))
        coeffs = rng.uniform(-5.0, 5.0, (n, 2))
        ref = float(rng.uniform(-5.0, 5.0))
        rows = tuple(ConstraintRow(float(a), float(b)) for a, b in coeffs)
        prob = ScalarQpProblem(ref, BOUNDS, rows)
        interval = feasible_interval(prob)
        if interval is None or interval[1] - interval[0] <= 2e-3:
            continue
        checked += 1
        feas = np.ones_like(grid, dtype=bool)
        for a, b in coeffs:
            feas &= a * grid + b >= 0.0
        assert feas.any()
        candidates = grid[feas]
        star = candidates[np.argmin((candidates - ref) ** 2)]
        assert abs(star - solve(prob)) <= 1e-3
    assert checked > 50


def test_box_qp_matches_scalar_in_one_dimension():
    rng = np.random.default_rng(4)
    for _ in range(100):
        coeffs = rng.uniform(-5.0, 5.0, (int(rng.integers(0, 4)), 2))
        ref = float(rng.uniform(-5.0, 5.0))
        scalar = solve_scalar_qp(
            ref, *BOUNDS, tuple((float(a), float(b)) for a, b in coeffs)
        )
        box = solve_box_qp(
            [ref], [((float(a),), float(b)) for a, b in coeffs], bounds=[BOUNDS]
        )
        if scalar is None:
            assert box is None
        else:
            assert box is not None
            assert box.u_star[0] == pytest.approx(scalar, abs=1e-9)


def test_box_qp_two_dimensional_projections():
    # single bound active
    sol = solve_box_qp([2.0, 0.0], [((-1.0, 0.0), 1.0)])
    assert sol.u_star == pytest.approx((1.0, 0.0))
    # projection onto the plane u1 + u2 >= 1 from the origin
    sol = solve_box_qp([0.0, 0.0], [((1.0, 1.0), -1.0)])
    assert sol.u_star == pytest.approx((0.5, 0.5))
    # interior reference untouched
    sol = solve_box_qp([0.2, -0.3], [((1.0, 1.0), 5.0)])
    assert sol.u_star == pytest.approx((0.2, -0.3))
    assert sol.active_set == ()


def test_box_qp_box_clamping():
    sol = solve_box_qp([5.0, -5.0], [], bounds=[(-1.0, 1.0), (-1.0, 1.0)])
    assert sol.u_star == pytest.approx((1.0, -1.0))


def test_box_qp_infeasible():
    assert solve_box_qp([0.0], [((1.0,), -2.0)], bounds=[(-1.0, 1.0)]) is None
    assert (
        solve_box_qp([0.0, 0.0], [((1.0, 0.0), -1.0), ((-1.0, 0.0), -1.0)]) is None
    )


def test_box_qp_corner_solution():
    # two rows forcing the corner (1, 1)
    sol = solve_box_qp([0.0, 0.0], [((1.0, 0.0), -1.0), ((0.0, 1.0), -1.0)])
    assert sol.u_star == pytest.approx((1.0, 1.0))


def test_box_qp_three_dimensional():
    sol = solve_box_qp([0.0, 0.0, 0.0], [((1.0, 1.0, 1.0), -3.0)])
    assert sol.u_star == pytest.approx((1.0, 1.0, 1.0))
