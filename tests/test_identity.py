"""Every run of the identity corpus writes the artifacts its manifest pins.

The cases are the 46 cbf-rrt plans of the bundled scenarios (example1 at
t_h 0.25 seeds 0-5 and t_h 0.5 seeds 0-19, example2 seeds 0-19), rrt and
rrt-star on example1 at delta_d 0.25 and 1.0, seeds 0-2, 8 cbf-rrt plans
of tests/data/turning.json (t_h 0.5 seeds 0-5, t_h 0.25 seeds 1-2), whose QPs
fail at later nodes, and seeds 0-5 of tests/data/complex_gains.json (a
nonzero omega_ref, complex-root gains), of tests/data/crowded.json (six
disks, two moving) and of tests/data/late_start.json (example2 from t_init
1000), 84 runs in all. A speed-up that claims byte-identical artifacts holds
here; a change that moves a byte names its cases below and rewrites
tests/data/identity.json with tests/identity_corpus.py, saying why.
"""

import json
import math
from collections import Counter

from cbfrrt import planner
from cbfrrt.dynamics import RobotState
from cbfrrt.safety import barrier_value
from identity_corpus import GROUPS, MANIFEST, cases, configured, digests
from oracles import barrier_lie1, closed_loop_grid


def test_every_case_is_pinned():
    # a case dropped from the manifest (or from the list) would go unchecked
    assert sorted(json.loads(MANIFEST.read_text())) == sorted(c[0] for c in cases())


def test_artifacts_match_identity_corpus(corpus_run):
    pinned = json.loads(MANIFEST.read_text())
    moved = []
    for case_id, *args in cases():
        got = digests(args[1], *corpus_run(*args))
        changed = [key for key in got if got[key] != pinned.get(case_id, {}).get(key)]
        if changed:
            moved.append(f"{case_id}: {', '.join(changed)}")
    assert not moved, "cases that moved:\n" + "\n".join(moved)


def test_turning_reaches_later_qp_failures(monkeypatch):
    # No bundled plan fails a QP after node 0, so only the turning cases reach
    # the node loop's exit at a later node. Each of their grids, one with a
    # tail step and one without, must reach it at some node k >= 1 and at the
    # last node. The nodes are counted as perfbench's tracer counts them: a
    # wrapper of planner.solve_scalar_qp, reset by one of
    # integrate_closed_loop.
    solve, integrate = planner.solve_scalar_qp, planner.integrate_closed_loop
    node, failed = 0, set()

    def counting_solve(*args):
        nonlocal node
        omega = solve(*args)
        if omega is None:
            failed.add(node)
        node += 1
        return omega

    def counting_integrate(*args):
        nonlocal node
        node = 0
        return integrate(*args)

    monkeypatch.setattr(planner, "solve_scalar_qp", counting_solve)
    monkeypatch.setattr(planner, "integrate_closed_loop", counting_integrate)
    tails = set()
    for name, algorithm, step, seeds in GROUPS:
        if name != "turning":
            continue
        scenario = configured(name, algorithm, step).scenario
        steps = closed_loop_grid(0.0, scenario.params.t_h, scenario.params.dt)[1]
        tails.add(steps[-1] != scenario.params.dt)
        failed.clear()
        for seed in seeds:
            planner.plan(scenario, seed)
        assert any(k >= 1 for k in failed), f"t_h={step}: no QP failure after node 0"
        assert len(steps) - 1 in failed, f"t_h={step}: no QP failure at the last node"
    assert tails == {False, True}


def test_corpus_reaches_kernel_branches(monkeypatch):
    # The bundled plans steer toward omega_ref 0, reject on margin only with
    # real-root gains or a moving disk, and have at most three disks, one of
    # them moving. complex_gains and crowded must reach each branch that the
    # kernel rewrites for those cases, counted with wrappers of the names
    # planner reads.
    solve, rows, integrate, steer = (planner.solve_scalar_qp, planner.constraint_rows,
                                     planner.integrate_closed_loop, planner.safe_steer)
    reached = Counter()
    integrated = None

    def counting_solve(omega_ref, lo, hi, node_rows):
        omega = solve(omega_ref, lo, hi, node_rows)
        reached["nonzero omega_ref returned"] += omega_ref != 0.0 and omega == omega_ref
        return omega

    def counting_rows(x1, x2, cos_t, sin_t, v, disks, *args):
        node_rows = rows(x1, x2, cos_t, sin_t, v, disks, *args)
        moving = sum(vx != 0.0 or vy != 0.0 for _, _, vx, vy, _ in disks)
        reached["rows from two moving disks"] += moving >= 2
        reached["six or more rows"] += len(node_rows) >= 6
        return node_rows

    def counting_integrate(*args):
        nonlocal integrated
        integrated = integrate(*args)
        return integrated

    def counting_steer(*args):
        edge = steer(*args)
        reached["margin reject, static disks, complex roots"] += (
            edge is None and integrated is not None and complex_static)
        return edge

    monkeypatch.setattr(planner, "solve_scalar_qp", counting_solve)
    monkeypatch.setattr(planner, "constraint_rows", counting_rows)
    monkeypatch.setattr(planner, "integrate_closed_loop", counting_integrate)
    monkeypatch.setattr(planner, "safe_steer", counting_steer)
    for name, algorithm, step, seeds in GROUPS:
        if name not in ("complex_gains", "crowded"):
            continue
        scenario = configured(name, algorithm, step).scenario
        params = scenario.params
        complex_static = (params.k2 ** 2 < 4.0 * params.k1 and all(
            ob.velocity == (0.0, 0.0) for ob in scenario.obstacles))
        for seed in seeds:
            planner.plan(scenario, seed)
    missing = [branch for branch in ("nonzero omega_ref returned",
                                     "margin reject, static disks, complex roots",
                                     "rows from two moving disks", "six or more rows")
               if not reached[branch]]
    assert missing == []


def test_margin_rejects_start_outside_the_ecbf_envelope(monkeypatch):
    # example1's gains have real roots, so an edge whose first node is inside
    # the exponential-CBF envelope, nu0 = min over disks of dh/dt + p*h >= 0
    # with p = (k2 + sqrt(k2^2 - 4*k1))/2 the faster decay rate, keeps h
    # above h(0)*exp(-p*t) in continuous time. Each edge whose QPs all
    # passed reaches the margin check; the counts below classify them on
    # the corpus's example1 plans.
    check = planner._edge_clears_obstacles
    edges = Counter()

    def classifying_check(trajectory, disks, reach, margin):
        clear = check(trajectory, disks, reach, margin)
        t, x1, x2, theta, v = trajectory.data[:5]
        state = RobotState(x1, x2, theta)
        nu0 = min(barrier_lie1(state, v, ob, t) + p * barrier_value(state, ob, t)
                  for ob in scenario.obstacles)
        edges[step, nu0 >= 0.0, clear] += 1
        return clear

    monkeypatch.setattr(planner, "_edge_clears_obstacles", classifying_check)
    for name, algorithm, step, seeds in GROUPS:
        if (name, algorithm) != ("example1", "cbf-rrt"):
            continue
        scenario = configured(name, algorithm, step).scenario
        k1, k2 = scenario.params.k1, scenario.params.k2
        p = (k2 + math.sqrt(k2 * k2 - 4.0 * k1)) / 2.0
        for seed in seeds:
            planner.plan(scenario, seed)
    assert edges == {(0.25, True, True): 19_678, (0.25, False, True): 301,
                     (0.25, False, False): 8, (0.5, True, True): 3_323,
                     (0.5, False, True): 2}
