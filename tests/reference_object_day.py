"""Frozen copy of the object mechanism day before it ran on the array core.

The object ``EnkiMechanism.allocate``, ``settle`` and ``run_day``, the
``closest_feasible_consumption``/``default_consumption`` helpers and the
object-path ``AllocationCache.solve`` entry point exactly as they were
committed before ``allocate`` and ``settle`` lowered their maps to arrays,
kept so ``tests/test_object_day_equivalence.py`` can assert the array-core
day reproduces every output bit.  The only edits: the cache entry point is
a module function over the cache instance (its method was deleted) that
keys without the removed ``path="obj"`` namespace, and ``allocate`` calls
it by that name.  Do not optimize this file.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from typing import Mapping, Optional, Tuple

import numpy as np

from repro.allocation.arrays import compile_problem
from repro.allocation.base import AllocationProblem, AllocationResult, Allocator
from repro.allocation.cache import AllocationCache
from repro.core.intervals import Interval
from repro.core.mechanism import DayOutcome, EnkiMechanism, Settlement, truthful_reports
from repro.core.types import (
    AllocationMap,
    ConsumptionMap,
    HouseholdId,
    Neighborhood,
    Report,
    validate_allocation,
    validate_consumption,
)


def closest_feasible_consumption(
    true_window: Interval, duration: int, allocation: Interval
) -> Interval:
    """Consumption inside the true window, as close to the allocation as possible.

    This automates the user study's consumption step ("selecting real
    consumption to be within the subject's true interval and close to his
    allocation").  If the allocation already fits the true window it is
    followed exactly; otherwise the household defects to the in-window
    placement that maximizes overlap with the allocation (earliest on ties).

    Closed form of that earliest maximizer: the overlap is largest from
    the allocation's start when the block fits inside the allocation,
    else from where the block's end meets the allocation's end; clamping
    that target into the window keeps it optimal.  When the window cannot
    hold the block, or even the clamped start overlaps nothing, every
    start ties and the earliest, the window start, wins.
    """
    w0, w1 = true_window.start, true_window.end
    p, q = allocation.start, allocation.end
    start = p if duration <= q - p else q - duration
    start = min(max(start, w0), w1 - duration)
    if start < w0 or min(start + duration, q) <= max(start, p):
        start = w0
    return Interval(start, start + duration)


def default_consumption(
    neighborhood: Neighborhood,
    allocation: AllocationMap,
) -> ConsumptionMap:
    """Closest-feasible consumption for every *allocated* household.

    Households absent from the allocation (quarantined under the
    ``exclude`` policy) consume nothing through the mechanism that day.
    """
    consumption: ConsumptionMap = {}
    for hh in neighborhood:
        if hh.household_id not in allocation:
            continue
        true = hh.true_preference
        consumption[hh.household_id] = closest_feasible_consumption(
            true.window, true.duration, allocation[hh.household_id]
        )
    return consumption


def cached_solve(
    self: AllocationCache,
    allocator: Allocator,
    problem: AllocationProblem,
    rng: Optional[random.Random] = None,
) -> AllocationResult:
    """``allocator.solve`` through the cache (the object-path twin).

    Keys through the problem's compiled view (shared with the
    solvers via :func:`compile_problem`), under a distinct namespace
    from columnar entries — the two result shapes never alias.
    """
    key = self.key_for(allocator, compile_problem(problem), rng)
    if key is None:
        self._stats["bypassed"] += 1
        return allocator.solve(problem, rng)
    started_at = time.perf_counter()
    stored = self._get(key)
    if stored is not None:
        self._stats["hits"] += 1
        return replace(
            stored,
            cache_hit=True,
            wall_time_s=time.perf_counter() - started_at,
        )
    self._stats["misses"] += 1
    result = allocator.solve(problem, rng)
    if allocator.result_cacheable(result):
        self._put(key, result)
    return result


class ReferenceMechanism(EnkiMechanism):
    """``EnkiMechanism`` with the frozen object day."""

    def allocate(
        self,
        neighborhood: Neighborhood,
        reports: Mapping[HouseholdId, Report],
        rng: Optional[random.Random] = None,
        pre_screened: bool = False,
    ) -> AllocationResult:
        """Solve the day's allocation problem for the given reports.

        With a quarantine configured, reports pass through it first — so
        malformed submissions (raw wire values included) are rejected,
        repaired, or dropped per policy instead of raising out of the
        solve.  Callers that already screened (to capture the decisions)
        pass ``pre_screened=True`` to skip the redundant second pass.
        """
        rng = rng if rng is not None else random.Random(self._seed)
        if not pre_screened:
            screened = self.screen_reports(neighborhood, reports)
            if screened is not None:
                reports = screened.accepted
        problem = AllocationProblem.from_reports(reports, neighborhood.households, self.pricing)
        if self.alloc_cache is not None:
            result = cached_solve(self.alloc_cache, self.allocator, problem, rng)
        else:
            result = self.allocator.solve(problem, rng)
        validate_allocation(dict(reports), result.allocation)
        return result

    def settle(
        self,
        neighborhood: Neighborhood,
        reports: Mapping[HouseholdId, Report],
        allocation: AllocationMap,
        consumption: ConsumptionMap,
    ) -> Settlement:
        """Bill a completed day (Eqs. 3-8).

        The whole scoring chain (flexibility, defection, social cost,
        payments, valuations, utilities, overlaps) runs batched over
        parallel numpy arrays — one pass to unpack the intervals, then
        pure array arithmetic — so settlement cost is dominated by O(n)
        array construction rather than per-household Python loops.
        """
        validate_allocation(dict(reports), allocation)
        validate_consumption(neighborhood.households, consumption)

        types = neighborhood.households
        # Settle the allocated households only: under the quarantine's
        # `exclude` policy a dropped household has no s_i and no omega_i,
        # and Theorem 1 holds over any subset because Eq. 7 splits the
        # realized cost of exactly the households being billed.
        ids = [h for h in types if h in allocation]
        n = len(ids)
        alloc_starts = np.fromiter((allocation[h].start for h in ids), np.intp, count=n)
        alloc_ends = np.fromiter((allocation[h].end for h in ids), np.intp, count=n)
        cons_starts = np.fromiter((consumption[h].start for h in ids), np.intp, count=n)
        cons_ends = np.fromiter((consumption[h].end for h in ids), np.intp, count=n)
        ratings = np.fromiter((types[h].rating_kw for h in ids), float, count=n)
        rep_starts = np.fromiter(
            (reports[h].preference.window.start for h in ids), np.intp, count=n
        )
        rep_ends = np.fromiter(
            (reports[h].preference.window.end for h in ids), np.intp, count=n
        )
        rep_durations = np.fromiter(
            (reports[h].preference.duration for h in ids), np.intp, count=n
        )

        true_starts = np.fromiter(
            (types[h].true_preference.window.start for h in ids), np.intp, count=n
        )
        true_ends = np.fromiter(
            (types[h].true_preference.window.end for h in ids), np.intp, count=n
        )
        true_durations = np.fromiter(
            (types[h].true_preference.duration for h in ids), np.intp, count=n
        )
        factors = np.fromiter(
            (types[h].valuation_factor for h in ids), float, count=n
        )

        return self.settle_arrays(
            ids=tuple(ids),
            alloc_starts=alloc_starts,
            alloc_ends=alloc_ends,
            cons_starts=cons_starts,
            cons_ends=cons_ends,
            ratings=ratings,
            rep_starts=rep_starts,
            rep_ends=rep_ends,
            rep_durations=rep_durations,
            true_starts=true_starts,
            true_ends=true_ends,
            true_durations=true_durations,
            factors=factors,
        ).to_settlement()

    def run_day(
        self,
        neighborhood: Neighborhood,
        reports: Optional[Mapping[HouseholdId, Report]] = None,
        consumption: Optional[ConsumptionMap] = None,
        rng: Optional[random.Random] = None,
    ) -> DayOutcome:
        """Run one full day: allocate the reports, realize consumption, settle.

        Args:
            neighborhood: The households and their true types.
            reports: Declared preferences; truthful reports when omitted.
            consumption: Realized consumption; closest-feasible behaviour
                (follow the allocation when it fits the true window) when
                omitted.
            rng: Randomness for allocation tie-breaking.
        """
        reports = dict(reports) if reports is not None else truthful_reports(neighborhood)
        decisions: Tuple = ()
        screened = self.screen_reports(neighborhood, reports)
        if screened is not None:
            reports = screened.accepted
            decisions = tuple(screened.decisions)
        allocation_result = self.allocate(neighborhood, reports, rng, pre_screened=True)
        if consumption is None:
            consumption = default_consumption(neighborhood, allocation_result.allocation)
        settlement = self.settle(
            neighborhood, reports, allocation_result.allocation, consumption
        )
        return DayOutcome(
            reports=reports,
            allocation_result=allocation_result,
            consumption=dict(consumption),
            settlement=settlement,
            quarantine_decisions=decisions,
        )
