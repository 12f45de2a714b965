"""Frozen copy of the object study day before it shared one back half.

The object branch of ``repro.sim.engine._run_study_day`` exactly as it
was committed before both study fronts lowered their reports to one
``CompiledProblem`` and solved every allocator through ``solve_columnar``:
the day's report map becomes an ``AllocationProblem``, every allocator
runs its object ``solve``, and PAR comes from ``LoadProfile.from_schedule``
over the allocation map.  Kept so ``tests/test_study_day_equivalence.py``
can assert the shared back half reproduces every record and payload bit.
The only edits: the branch takes its task fields as arguments, the
columnar dispatch is left out, and :func:`reference_study_run` drives it
over a run's days the way ``SocialWelfareStudy.run`` keys them.  Do not
optimize this file.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.allocation.base import AllocationProblem
from repro.core.types import Report
from repro.pricing.load_profile import LoadProfile
from repro.sim.engine import AllocatorDayRecord, SocialWelfareStudy, StudyDayResult
from repro.sim.profiles import neighborhood_from_profiles
from repro.sim.rng import make_day_rngs, root_entropy, spawn_seed


def reference_study_day(
    study: SocialWelfareStudy, root: int, day: int, n_households: int
) -> StudyDayResult:
    """One object Figures 4-6 day, as the dict-walking study ran it."""
    if study.chaos is not None:
        study.chaos.before_day(day)
    py_rng, np_rng = make_day_rngs(root, day)
    profiles = study.generator.sample_population(np_rng, n_households)
    neighborhood = neighborhood_from_profiles(profiles, study.true_preference)
    reports = {
        hh.household_id: Report(hh.household_id, hh.true_preference)
        for hh in neighborhood
    }
    quarantine_payloads: List[Dict] = []
    if study.chaos is not None:
        reports = study.chaos.corrupt_reports(day, reports)
    if study.quarantine is not None:
        screened = study.quarantine.screen(neighborhood, reports)
        reports = screened.accepted
        quarantine_payloads = [
            decision.as_payload()
            for decision in screened.decisions
            if decision.action != "accepted"
        ]
    problem = AllocationProblem.from_reports(
        reports, neighborhood.households, study.pricing
    )
    records: List[AllocatorDayRecord] = []
    fallback_payloads: List[Dict] = []
    for allocator in study.allocators:
        result = allocator.solve(problem, random.Random(spawn_seed(py_rng)))
        profile = LoadProfile.from_schedule(
            result.allocation, neighborhood.households
        )
        records.append(
            AllocatorDayRecord(
                day=day,
                n_households=n_households,
                allocator=allocator.name,
                par=profile.peak_to_average_ratio(),
                cost=result.cost,
                wall_time_s=result.wall_time_s,
                proven_optimal=result.proven_optimal,
                nodes_explored=result.nodes_explored,
                served_tier=result.served_tier,
                cache_hit=result.cache_hit,
            )
        )
        if result.served_tier > 0:
            fallback_payloads.append(
                {
                    "allocator": allocator.name,
                    "served_tier": result.served_tier,
                    "trail": [record.as_payload() for record in result.fallback_trail],
                }
            )
    return records, quarantine_payloads, fallback_payloads


def reference_study_run(
    study: SocialWelfareStudy,
    n_households: int,
    days: int,
    seed: Optional[int],
) -> List[StudyDayResult]:
    """Every day of a serial ``study.run(n_households, days, seed)``."""
    root = root_entropy(seed)
    return [reference_study_day(study, root, day, n_households) for day in range(days)]
