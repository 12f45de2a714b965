"""Enki's greedy allocator (Section IV-C).

Households are handled in order of *increasing* predicted flexibility
(Eq. 4 computed from reports, assuming truthfulness), breaking ties
randomly.  Each household in turn receives the placement inside its window
that minimally increases the neighborhood cost given the blocks placed so
far.  One pass, O(n log n + n * W * v) — the tractability half of the
paper's Figure 6 comparison.

Every solve path fixes the processing order with the one ``_order`` hook
(Eq. 4 once per (window, duration) class, a random tie key per
household drawn in row order in one ``getrandbits`` call, and a sort by
key, then by 16-bit flexibility rank; subclasses such as the ordering
ablation's arrival-order greedy override it) and hands the placement to
:func:`repro.kernels.placement.place_day`.
The flexibility order lays each class of identical households out as
one contiguous run, so a large day takes the kernel's exact run-length
sweep and a small one its scalar sweep; both give the same starts.  The
two solve paths:

* :meth:`GreedyFlexibilityAllocator.solve` — the object path: the
  problem's compiled view, solved as below and materialized.
* :meth:`GreedyFlexibilityAllocator.solve_columnar` — the array path,
  no per-household objects.

Each result records its processing order, so the materialized allocation
map lists households in the order they were placed, on every path.
"""

from __future__ import annotations

import random
import time
from typing import Dict, Optional

import numpy as np

from ..core.flexibility import CLASS_CODES, class_flexibility, flexibility_vector
from ..core.types import HouseholdId
from ..kernels.placement import place_day
from ..pricing.base import PricingModel
from ..pricing.load_profile import LoadProfile
from .arrays import CompiledProblem, compile_problem
from .base import (
    AllocationProblem,
    AllocationResult,
    Allocator,
    ColumnarAllocationResult,
)


def _tie_keys(rng: random.Random, n: int) -> np.ndarray:
    """``[rng.random() for _ in range(n)]`` as an array, bit for bit.

    ``random()`` builds each double from two 32-bit outputs ``w0, w1`` as
    ``((w0 >> 5)·2**26 + (w1 >> 6))·2**-53``.  ``getrandbits(64·n)``
    returns the same 2n outputs, the first in the lowest 32 bits, and
    leaves the generator in the same state, so a plain ``random.Random``
    is read in that one draw.  Any other generator, such as a subclass
    overriding ``random``, is drawn per call.
    """
    if type(rng) is not random.Random:
        return np.array([rng.random() for _ in range(n)], dtype=np.float64)
    words = np.frombuffer(
        rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4"
    )
    high = (words[0::2] >> 5).astype(np.float64)
    low = (words[1::2] >> 6).astype(np.float64)
    return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)


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

        The token pins the allocator's ``name`` (subclasses that override
        :meth:`_order` carry their own), the processing direction and the
        fallback tie-break seed (consulted only when a solve is not handed
        an rng) — everything that changes the answer.
        """
        return f"{self.name}:asc={self.ascending}:seed={self._seed}"

    def _order(self, compiled: CompiledProblem, rng: random.Random) -> np.ndarray:
        """Rows in processing order: by flexibility, random tie key second.

        Exactly ``np.lexsort((keys, flex))`` (``-flex`` when descending) as
        a two-pass least-significant-digit sort.  Eq. 4 takes one value
        per (window, duration) class (:func:`class_flexibility`); its
        distinct values are ranked as ``uint16``, equal values sharing a
        rank.  The tie keys (:func:`_tie_keys`) are argsorted, stably if
        two are equal so that equal keys keep row order, and a stable
        argsort of the ranks in key order, a radix sort, finishes.
        """
        codes, classes, scores = class_flexibility(
            compiled.win_start, compiled.win_end, compiled.duration
        )
        keys = _tie_keys(rng, len(compiled))
        by_score = np.argsort(scores if self.ascending else -scores)
        ranked = scores[by_score]
        # The lowest score keeps rank 0; each new value adds one.
        rank = np.zeros(CLASS_CODES, dtype=np.uint16)
        rank[classes[by_score[1:]]] = np.cumsum(ranked[1:] != ranked[:-1])
        by_key = np.argsort(keys)
        sorted_keys = keys[by_key]
        if (sorted_keys[1:] == sorted_keys[:-1]).any():
            by_key = np.argsort(keys, kind="stable")
        return by_key[np.argsort(rank[codes[by_key]], kind="stable")]

    def _rows_in_order(
        self, compiled: CompiledProblem, rng: Optional[random.Random]
    ) -> np.ndarray:
        """:meth:`_order` as an index vector; an empty day draws nothing."""
        if len(compiled) == 0:
            return np.zeros(0, dtype=np.intp)
        rng = rng if rng is not None else random.Random(self._seed)
        return np.asarray(self._order(compiled, rng), dtype=np.intp)

    def solve(
        self, problem: AllocationProblem, rng: Optional[random.Random] = None
    ) -> AllocationResult:
        compiled = compile_problem(problem)
        return self.solve_columnar(compiled, problem.pricing, rng).to_result(compiled)

    def solve_columnar(
        self,
        compiled: CompiledProblem,
        pricing: PricingModel,
        rng: Optional[random.Random] = None,
    ) -> ColumnarAllocationResult:
        """The greedy on a compiled day: no per-household objects."""
        started_at = time.perf_counter()
        order = self._rows_in_order(compiled, rng)
        starts = np.zeros(len(compiled), dtype=np.intp)
        backend = place_day(
            order,
            compiled.win_start,
            compiled.win_end,
            compiled.duration,
            compiled.rating,
            pricing,
            starts,
        )
        # Cost through the difference-array builder, rows in compiled
        # order: the float accumulation sequence of ``problem.cost``.
        profile = LoadProfile.from_arrays(
            starts, starts + compiled.duration, compiled.rating
        )
        return ColumnarAllocationResult(
            starts=starts,
            cost=pricing.cost(profile),
            wall_time_s=time.perf_counter() - started_at,
            allocator_name=self.name,
            kernel_backend=backend,
            order=order,
        )
