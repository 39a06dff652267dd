"""Workload definitions shared by run.py and its workers.

A workload is a list of cells (scenario, algorithm, step). Each cell runs a
panel of planner seeds: a fixed core (0 .. n_core-1) plus n_drawn seeds
drawn from the workload seed, which also shuffles the order of the runs.
Per-seed cost varies up to 8x on `fine-horizon` (0.25 s to 2.2 s) and
whether a seed reaches the goal is a coin flip, so a panel drawn wholly from
the workload seed would move success_rate and runs_per_s by about 15%
between workload seeds. The fixed core keeps that mix steady; the drawn part
gives every workload seed inputs no earlier run used. `fine-horizon` has no
drawn part: its 22 latencies are spread so thinly (a 0.3 s gap sits at the
median) that each drawn seed moved run_s.p50 by 10-20%.

This module imports only the standard library, so run.py can use it
without importing numpy or cbfrrt.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = SRC / "cbfrrt" / "scenarios"
OUT = Path(__file__).resolve().parent / "out"

# Drawn planner seeds come from [DRAWN_LO, DRAWN_HI), disjoint from every core.
DRAWN_LO = 10_000
DRAWN_HI = 1_000_000


@dataclass(frozen=True)
class Cell:
    algorithm: str
    # t_h for cbf-rrt, delta_d for the baselines; None keeps the scenario's.
    step: float | None
    n_core: int
    n_drawn: int


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    cells: tuple[Cell, ...]
    # Runs per fresh interpreter: a few seconds of work each.
    chunk: int


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fine-horizon", "example1.json",
                 (Cell("cbf-rrt", 0.25, 22, 0),), chunk=2),
        Workload("moving-disk", "example2.json",
                 (Cell("cbf-rrt", None, 44, 12),), chunk=14),
        # Three rrt-star runs (~0.3 s) to each rrt run (~5 ms), so that
        # run_s.p50 and run_s.tail fall inside the rrt-star cluster rather
        # than on the gap between the two.
        Workload("baselines", "example1.json",
                 (Cell("rrt", 0.25, 3, 1), Cell("rrt", 1.0, 3, 1),
                  Cell("rrt-star", 0.25, 10, 2), Cell("rrt-star", 1.0, 10, 2)),
                 chunk=8),
    )
}


def panel(workload: Workload, seed: int) -> list[tuple[str, float | None, int]]:
    """The (algorithm, step, planner seed) runs of one pass, in the order the
    workload seed gives them."""
    rng = random.Random(f"{workload.name}:{seed}")
    items = []
    for cell in workload.cells:
        drawn = rng.sample(range(DRAWN_LO, DRAWN_HI), cell.n_drawn)
        for planner_seed in [*range(cell.n_core), *drawn]:
            items.append((cell.algorithm, cell.step, planner_seed))
    rng.shuffle(items)
    return items


def chunks(items: list, size: int) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]
