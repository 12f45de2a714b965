"""Hill-climbing allocator with restarts.

Repeatedly moves one household's block to its best placement given all
other blocks until no single move improves the cost.  Each sweep strictly
decreases the cost, so the search terminates; restarts from random
allocations escape poor basins.  Used both as a standalone baseline and as
the warm start that gives branch-and-bound a strong initial incumbent.
"""

from __future__ import annotations

import random
import time
from typing import Optional

import numpy as np

from ..core.intervals import HOURS_PER_DAY, Interval
from ..core.types import AllocationMap
from ..pricing.quadratic import QuadraticPricing
from .arrays import compile_problem
from .base import AllocationProblem, AllocationResult, Allocator
from .greedy import GreedyFlexibilityAllocator


def improve_allocation(
    problem: AllocationProblem,
    allocation: AllocationMap,
    rng: random.Random,
    max_sweeps: int = 100,
) -> AllocationMap:
    """Run single-household best-move sweeps until a local optimum.

    Returns a new allocation; the input mapping is not modified.
    """
    current = dict(allocation)
    compiled = compile_problem(problem)
    win_start = compiled.win_start.tolist()
    win_end = compiled.win_end.tolist()
    durations = compiled.duration.tolist()
    ratings = compiled.rating.tolist()
    index_of = compiled.index_of
    loads = np.zeros(HOURS_PER_DAY, dtype=float)
    for item in problem.items:
        placed = current[item.household_id]
        loads[placed.start:placed.end] += item.rating_kw

    pricing = problem.pricing
    quadratic = isinstance(pricing, QuadraticPricing)
    items = list(problem.items)
    for _ in range(max_sweeps):
        improved = False
        rng.shuffle(items)
        for item in items:
            j = index_of[item.household_id]
            rating = ratings[j]
            placed = current[item.household_id]
            loads[placed.start:placed.end] -= rating

            if quadratic:
                window_loads = loads[win_start[j]:win_end[j]]
                sums = np.convolve(window_loads, np.ones(durations[j]), mode="valid")
                best_idx = int(np.argmin(sums))
                best_start = win_start[j] + best_idx
                current_idx = placed.start - win_start[j]
                if sums[best_idx] < sums[current_idx] - 1e-12:
                    improved = True
                else:
                    best_start = placed.start
            else:
                best_start, best_delta = placed.start, _block_delta(
                    pricing, loads, placed.start, item
                )
                for start in range(
                    item.window.start, item.window.end - item.duration + 1
                ):
                    delta = _block_delta(pricing, loads, start, item)
                    if delta < best_delta - 1e-12:
                        best_start, best_delta = start, delta
                        improved = True

            new_block = Interval(best_start, best_start + durations[j])
            current[item.household_id] = new_block
            loads[new_block.start:new_block.end] += rating
        if not improved:
            break
    return current


def _block_delta(pricing, loads: np.ndarray, start: int, item) -> float:
    """Marginal cost of placing ``item`` starting at ``start``.

    Lifting a block off ``loads`` can leave a hair below zero under
    non-binary ratings; the residual is read as the zero it stands for.
    """
    return sum(
        pricing.marginal_cost(max(float(loads[h]), 0.0), item.rating_kw)
        for h in range(start, start + item.duration)
    )


class LocalSearchAllocator(Allocator):
    """Greedy-seeded hill climbing with random restarts."""

    name = "local-search"

    def __init__(self, restarts: int = 3, seed: Optional[int] = None) -> None:
        if restarts < 1:
            raise ValueError(f"need at least one start, got {restarts}")
        self.restarts = restarts
        self._seed = seed

    def solve(
        self, problem: AllocationProblem, rng: Optional[random.Random] = None
    ) -> AllocationResult:
        started_at = time.perf_counter()
        rng = rng if rng is not None else random.Random(self._seed)

        # First start: refine the greedy solution, usually already strong.
        greedy = GreedyFlexibilityAllocator()
        best = improve_allocation(problem, greedy.solve(problem, rng).allocation, rng)
        best_cost = problem.cost(best)

        for _ in range(self.restarts - 1):
            start_alloc: AllocationMap = {}
            for item in problem.items:
                begin = rng.randrange(
                    item.window.start, item.window.end - item.duration + 1
                )
                start_alloc[item.household_id] = Interval(begin, begin + item.duration)
            candidate = improve_allocation(problem, start_alloc, rng)
            cost = problem.cost(candidate)
            if cost < best_cost:
                best, best_cost = candidate, cost

        return self._finish(problem, best, started_at)
