"""Ablation: why does Enki's greedy order by *increasing* flexibility?

DESIGN.md calls out the greedy's ordering as a design choice.  This
ablation compares household orderings under identical workloads:

* ``enki-greedy`` — the paper's order (rigid households first);
* ``flexibility-desc`` — flexible households first;
* ``order-random`` — greedy placement in arrival (random) order;
* ``random`` — uniform random placement, for scale.

Expected shape: ascending flexibility wins because rigid households have
no choices anyway, so placing them first lets flexible households fill the
remaining valleys; descending wastes the flexible households' slack early.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..allocation.arrays import CompiledProblem
from ..allocation.base import Allocator
from ..allocation.greedy import GreedyFlexibilityAllocator
from ..allocation.random_alloc import RandomAllocator
from ..sim.engine import SocialWelfareStudy
from ..sim.metrics import SeriesPoint, summarize_records
from ..sim.results import format_table


class ArrivalOrderGreedy(GreedyFlexibilityAllocator):
    """Greedy marginal-cost placement in shuffled (arrival) order.

    Isolates the ordering from the placement rule: placements are still
    cost-minimizing, only the flexibility-based ordering is removed.
    """

    name = "order-random"

    def _order(self, compiled: CompiledProblem, rng: random.Random) -> List[int]:
        order = list(range(len(compiled)))
        rng.shuffle(order)
        return order


class DescendingFlexibilityGreedy(GreedyFlexibilityAllocator):
    """The paper's greedy with the flexibility ordering reversed."""

    name = "flexibility-desc"

    def __init__(self, seed: Optional[int] = None) -> None:
        super().__init__(ascending=False, seed=seed)


@dataclass
class OrderingAblationResult:
    points: List[SeriesPoint]

    def mean_cost(self, allocator: str) -> float:
        """Mean daily cost of one ordering, averaged over populations."""
        cells = [p for p in self.points if p.allocator == allocator]
        if not cells:
            raise KeyError(f"no records for allocator {allocator!r}")
        return sum(p.cost.mean for p in cells) / len(cells)

    def render(self) -> str:
        by_key: Dict[tuple, SeriesPoint] = {
            (p.n_households, p.allocator): p for p in self.points
        }
        populations = sorted({p.n_households for p in self.points})
        allocators = sorted({p.allocator for p in self.points})
        rows = [
            (n, *(f"{by_key[(n, name)].cost.mean:.1f}" for name in allocators))
            for n in populations
        ]
        return format_table(["n"] + list(allocators), rows)


def run(
    populations: Sequence[int] = (10, 20, 30),
    days: int = 5,
    seed: Optional[int] = 2017,
) -> OrderingAblationResult:
    """Run the ordering ablation."""
    allocators: List[Allocator] = [
        GreedyFlexibilityAllocator(ascending=True),
        DescendingFlexibilityGreedy(),
        ArrivalOrderGreedy(),
        RandomAllocator(),
    ]
    study = SocialWelfareStudy(allocators)
    records = study.sweep(populations, days, seed)
    return OrderingAblationResult(points=summarize_records(records))
