"""Enki's greedy allocator (Section IV-C).

Households are handled in order of *increasing* predicted flexibility
(Eq. 4 computed from reports, assuming truthfulness), breaking ties
randomly.  Each household in turn receives the placement inside its window
that minimally increases the neighborhood cost given the blocks placed so
far.  One pass, O(n log n + n * W * v) — the tractability half of the
paper's Figure 6 comparison.

Every solve path fixes the processing order and hands the placement to
the one scalar sweep, :func:`repro.kernels.placement.place_day` (or
:func:`~repro.kernels.placement.place_batch` for a batch of days):

* :meth:`GreedyFlexibilityAllocator.solve` — the object path over
  ``AllocationItem``s, ordered by a ``sorted`` key of (flexibility,
  random tie key).
* :meth:`GreedyFlexibilityAllocator.solve_columnar` — the large-n path:
  one ``flexibility_vector`` call and one ``np.lexsort`` with the same
  tie keys, drawn in row order.
* :meth:`GreedyFlexibilityAllocator.solve_columnar_batch` — D days fused
  into one ``place_batch`` call.

The two orderings agree, and the sweep is shared, so the object and
columnar paths pick identical placements for any ratings (pinned by
``tests/test_columnar_equivalence.py``).
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.flexibility import flexibility_vector
from ..core.intervals import Interval
from ..core.types import AllocationMap, HouseholdId
from ..kernels import active_backend
from ..kernels.placement import place_batch, place_day
from ..pricing.base import PricingModel
from ..pricing.load_profile import LoadProfile
from .arrays import CompiledProblem, compile_problem
from .base import (
    AllocationProblem,
    AllocationResult,
    Allocator,
    ColumnarAllocationResult,
)


def predicted_flexibility_for_problem(
    problem: AllocationProblem,
    compiled: Optional[CompiledProblem] = None,
) -> Dict[HouseholdId, float]:
    """Predicted flexibility (Eq. 4) of each item from the problem's windows.

    Reuses the problem's :class:`CompiledProblem` start/end/duration
    arrays (compiled once per problem object and shared with the solvers)
    instead of rebuilding them with per-item ``np.fromiter`` passes.
    """
    if compiled is None:
        compiled = compile_problem(problem)
    if len(compiled) == 0:
        return {}
    scores = flexibility_vector(
        compiled.win_start, compiled.win_end, compiled.duration
    )
    return dict(zip(compiled.ids, scores.tolist()))


class GreedyFlexibilityAllocator(Allocator):
    """The Enki greedy allocation of Section IV-C.

    Args:
        ascending: Process least-flexible households first (the paper's
            order).  The ordering ablation flips this to show why the
            inflexible-first order matters: rigid households have few
            choices, so fixing them early lets flexible ones fill valleys.
        seed: Tie-break seed used when ``solve`` is not handed an rng.
    """

    name = "enki-greedy"

    def __init__(self, ascending: bool = True, seed: Optional[int] = None) -> None:
        self.ascending = ascending
        self._seed = seed

    def cache_token(self) -> str:
        """Greedy solves are pure in (problem, rng): memoizable.

        The token pins the processing order and the fallback tie-break
        seed (consulted only when a solve is not handed an rng) — the two
        constructor knobs that change the answer.
        """
        return f"enki-greedy:asc={self.ascending}:seed={self._seed}"

    def solve(
        self, problem: AllocationProblem, rng: Optional[random.Random] = None
    ) -> AllocationResult:
        started_at = time.perf_counter()
        rng = rng if rng is not None else random.Random(self._seed)
        compiled = compile_problem(problem)
        order = self._order(compiled, rng) if len(compiled) else []
        starts_out = np.zeros(len(compiled), dtype=np.intp)
        place_day(
            order,
            compiled.win_start,
            compiled.win_end,
            compiled.duration,
            compiled.rating,
            problem.pricing,
            starts_out,
        )
        starts = starts_out.tolist()
        allocation: AllocationMap = {}
        for i in order:
            item = problem.items[i]
            allocation[item.household_id] = Interval(
                starts[i], starts[i] + item.duration
            )
        return self._finish(problem, allocation, started_at)

    def _order(self, compiled: CompiledProblem, rng: random.Random) -> List[int]:
        """Rows in processing order: by flexibility, random tie key second.

        The tie keys are drawn in row order, one per household.
        """
        scores = flexibility_vector(
            compiled.win_start, compiled.win_end, compiled.duration
        ).tolist()
        if not self.ascending:
            scores = [-score for score in scores]
        return sorted(range(len(scores)), key=lambda i: (scores[i], rng.random()))

    def solve_columnar(
        self,
        compiled: CompiledProblem,
        pricing: PricingModel,
        rng: Optional[random.Random] = None,
    ) -> ColumnarAllocationResult:
        """The large-n greedy kernel: no per-household objects.

        Flexibility scores come from one :func:`flexibility_vector` call;
        the processing order is one stable ``np.lexsort`` over
        ``(tie_key, flexibility)`` with tie keys drawn in row order from
        ``rng`` (the same draw sequence the object path's ``sorted`` key
        function consumes); the ordered-placement sweep itself runs in
        :func:`repro.kernels.placement.place_day`.
        """
        started_at = time.perf_counter()
        rng = rng if rng is not None else random.Random(self._seed)
        n = len(compiled)
        starts_out = np.zeros(n, dtype=np.intp)
        if n == 0:
            return ColumnarAllocationResult(
                starts=starts_out,
                cost=pricing.cost(LoadProfile()),
                wall_time_s=time.perf_counter() - started_at,
                allocator_name=self.name,
                kernel_backend=active_backend(),
            )

        flex = flexibility_vector(
            compiled.win_start, compiled.win_end, compiled.duration
        )
        keys = np.array([rng.random() for _ in range(n)])
        order = np.lexsort((keys, flex if self.ascending else -flex))
        backend = place_day(
            order,
            compiled.win_start,
            compiled.win_end,
            compiled.duration,
            compiled.rating,
            pricing,
            starts_out,
        )

        # Cost through the same difference-array builder the object path's
        # ``problem.cost`` uses, rows in compiled order, so the float
        # accumulation sequence matches bit for bit.
        profile = LoadProfile.from_arrays(
            starts_out, starts_out + compiled.duration, compiled.rating
        )
        return ColumnarAllocationResult(
            starts=starts_out,
            cost=pricing.cost(profile),
            wall_time_s=time.perf_counter() - started_at,
            allocator_name=self.name,
            kernel_backend=backend,
        )

    def solve_columnar_batch(
        self,
        compiled_days: Sequence[CompiledProblem],
        pricing: PricingModel,
        rngs: Sequence[Optional[random.Random]],
    ) -> List[ColumnarAllocationResult]:
        """Fused greedy over a batch of days: one kernel call for all D.

        Per-day work that is inherently day-local stays per-day and in
        day order — flexibility scores (coverage is a day-local
        reduction) and tie keys (each day's rng draws exactly the
        sequence :meth:`solve_columnar` would) — then one global stable
        ``np.lexsort`` with the day index as the most-significant key
        reproduces every day's within-day processing order, and
        :func:`repro.kernels.placement.place_batch` runs all D
        ordered-placement sweeps in a single kernel invocation.  Results
        are bit-identical to D separate :meth:`solve_columnar` calls
        (pinned by ``tests/test_batch_equivalence.py``); each day's
        ``wall_time_s`` is the batch total apportioned evenly, which is
        why equivalence checks exclude that field.
        """
        started_at = time.perf_counter()
        n_days = len(compiled_days)
        if len(rngs) != n_days:
            raise ValueError(
                f"got {len(rngs)} rngs for {n_days} days; need one per day"
            )
        lengths = np.array([len(c) for c in compiled_days], dtype=np.intp)
        offsets = np.zeros(n_days + 1, dtype=np.intp)
        np.cumsum(lengths, out=offsets[1:])
        total = int(offsets[-1])
        starts_out = np.zeros(total, dtype=np.intp)

        flex_parts: List[np.ndarray] = []
        key_parts: List[np.ndarray] = []
        for compiled, rng in zip(compiled_days, rngs):
            n = len(compiled)
            if n == 0:
                # Mirror solve_columnar's empty-day early return: no
                # flexibility pass (it rejects empty coverage) and zero
                # rng draws.
                continue
            rng = rng if rng is not None else random.Random(self._seed)
            flex_parts.append(
                flexibility_vector(
                    compiled.win_start, compiled.win_end, compiled.duration
                )
            )
            key_parts.append(np.array([rng.random() for _ in range(n)]))
        if total:
            flex = np.concatenate(flex_parts)
            keys = np.concatenate(key_parts)
            day_idx = np.repeat(np.arange(n_days, dtype=np.intp), lengths)
            # Day most-significant, then the per-day (flexibility, tie-key)
            # pair: lexsort is stable, so rows of day k land in exactly the
            # order the per-day lexsort would produce.
            order = np.lexsort((keys, flex if self.ascending else -flex, day_idx))
            win_start = np.concatenate([c.win_start for c in compiled_days])
            win_end = np.concatenate([c.win_end for c in compiled_days])
            duration = np.concatenate([c.duration for c in compiled_days])
            rating = np.concatenate([c.rating for c in compiled_days])
            backend = place_batch(
                offsets,
                order,
                win_start,
                win_end,
                duration,
                rating,
                pricing,
                starts_out,
            )
        else:
            backend = active_backend()

        elapsed = time.perf_counter() - started_at
        per_day_s = elapsed / n_days if n_days else elapsed
        results: List[ColumnarAllocationResult] = []
        for k, compiled in enumerate(compiled_days):
            day_starts = starts_out[offsets[k]:offsets[k + 1]].copy()
            if len(compiled) == 0:
                cost = pricing.cost(LoadProfile())
            else:
                profile = LoadProfile.from_arrays(
                    day_starts, day_starts + compiled.duration, compiled.rating
                )
                cost = pricing.cost(profile)
            results.append(
                ColumnarAllocationResult(
                    starts=day_starts,
                    cost=cost,
                    wall_time_s=per_day_s,
                    allocator_name=self.name,
                    kernel_backend=backend,
                )
            )
        return results
