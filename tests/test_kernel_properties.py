"""Property tests: the per-node steering kernel against its reference oracles.

The kernel (safety.constraint_rows, qp.solve_scalar_qp) works on unpacked
floats so that one integration node allocates almost nothing. The planner's
artifacts are byte-reproducible, so the kernel must return exactly the floats
the readable oracles return, not merely close ones: every comparison below is
`==` plus `repr` equality, which also tells -0.0 from 0.0.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbfrrt.dynamics import CircularObstacle, RobotState
from cbfrrt.qp import TOL_ZERO, solve_scalar_qp
from cbfrrt.safety import EcbfGains, constraint_rows
from oracles import ConstraintRow, ScalarQpProblem, ecbf_row_reference, solve_scalar_qp_reference

# a per-example deadline would measure how busy the machine is, not the kernel
PROPERTY = settings(max_examples=300, deadline=None)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


states = st.builds(RobotState, _floats(-10.0, 10.0), _floats(-10.0, 10.0),
                   _floats(-20.0, 20.0))
velocities = st.one_of(st.just((0.0, 0.0)),
                       st.tuples(_floats(-1.0, 1.0), _floats(-1.0, 1.0)))
disks = st.builds(CircularObstacle, st.tuples(_floats(-10.0, 10.0), _floats(-10.0, 10.0)),
                  velocities, _floats(0.01, 2.0))
gains = st.builds(EcbfGains, _floats(1e-3, 10.0), _floats(1e-3, 10.0))


def _identical(got, want):
    assert got == want
    assert repr(got) == repr(want)


@PROPERTY
@given(states, _floats(-2.0, 2.0), st.lists(disks, max_size=4), _floats(0.0, 50.0), gains)
def test_constraint_rows_match_reference_rows(state, v, obstacles, t, k):
    want = [tuple(ecbf_row_reference(state, v, ob, t, k)) for ob in obstacles]
    _identical(constraint_rows(state, v, obstacles, t, k), want)


# |a| <= TOL_ZERO rows take the omega-independent branch; include its edges
coefficients = st.one_of(
    _floats(-5.0, 5.0),
    _floats(-TOL_ZERO, TOL_ZERO),
    st.sampled_from([0.0, -0.0, TOL_ZERO, -TOL_ZERO, 2 * TOL_ZERO, -2 * TOL_ZERO]),
)
rows = st.lists(st.builds(ConstraintRow, coefficients, coefficients), max_size=5)


@st.composite
def problems(draw):
    lo = draw(_floats(-10.0, 10.0))
    hi = draw(st.one_of(st.just(lo), _floats(lo, 10.0)))  # ties at lo == hi
    return ScalarQpProblem(draw(_floats(-20.0, 20.0)), (lo, hi), tuple(draw(rows)))


@PROPERTY
@given(problems())
@example(ScalarQpProblem(0.0, (-4.25, 4.25)))
@example(ScalarQpProblem(0.0, (1.0, 1.0)))
@example(ScalarQpProblem(3.0, (-4.25, 4.25), (ConstraintRow(1.0, -1.0),
                                               ConstraintRow(-1.0, 1.0))))
@example(ScalarQpProblem(0.0, (-4.25, 4.25), (ConstraintRow(1.0, -1.0),
                                               ConstraintRow(-1.0, -1.0))))
@example(ScalarQpProblem(0.0, (-4.25, 4.25), (ConstraintRow(TOL_ZERO, -1.0),)))
@example(ScalarQpProblem(0.0, (-4.25, 4.25), (ConstraintRow(-0.0, -TOL_ZERO),)))
@example(ScalarQpProblem(0.0, (-4.25, 4.25), (ConstraintRow(1.0, 0.0),)))
def test_solve_scalar_qp_matches_interval_clamp_oracle(problem):
    solution = solve_scalar_qp_reference(problem)
    want = None if solution is None else solution.omega_star
    _identical(solve_scalar_qp(*problem), want)
