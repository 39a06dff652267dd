"""Every run of the identity corpus writes the artifacts its manifest pins.

The cases are the 46 cbf-rrt plans of the bundled scenarios (example1 at
t_h 0.25 seeds 0-5 and t_h 0.5 seeds 0-19, example2 seeds 0-19), rrt and
rrt-star on example1 at delta_d 0.25 and 1.0, seeds 0-2, and 8 cbf-rrt plans
of tests/data/turning.json (t_h 0.5 seeds 0-5, t_h 0.25 seeds 1-2), whose QPs
fail at later nodes. A speed-up that claims byte-identical artifacts holds
here; a change that moves a byte names its cases below and rewrites
tests/data/identity.json with tests/identity_corpus.py, saying why.
"""

import json

from cbfrrt import planner
from identity_corpus import GROUPS, MANIFEST, cases, configured, digests
from oracles import closed_loop_grid


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
