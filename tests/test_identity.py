"""Every run of the identity corpus writes the artifacts its manifest pins.

The cases are the 46 cbf-rrt plans (example1 at t_h 0.25 seeds 0-5 and
t_h 0.5 seeds 0-19, example2 seeds 0-19) and rrt and rrt-star on example1
at delta_d 0.25 and 1.0, seeds 0-2. A speed-up that claims byte-identical
artifacts holds here; a change that moves a byte names its cases below and
rewrites tests/data/identity.json with tests/identity_corpus.py, saying why.
"""

import json

from identity_corpus import MANIFEST, cases, digests


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
