"""Simulation engines for the Section VI studies.

Two drivers live here:

* :class:`SocialWelfareStudy` — the Figures 4-6 engine: for each day it
  samples a fresh population, gives every allocator the same truthful
  reports, and records peak-to-average ratio, neighborhood cost and
  scheduling time per allocator.
* :class:`NeighborhoodSimulation` — a general multi-day run of the full
  Enki mechanism with pluggable reporting/consumption policies, used by the
  incentive-compatibility experiment, the theory property checkers and the
  examples.

Both engines treat each simulated day as an independent task driven by its
own keyed RNG substream (:func:`repro.sim.rng.make_day_rngs`), so a run is
a pure function of ``(seed, day)`` per day.  The ``workers`` knob fans the
day loop across a process pool (:mod:`repro.sim.parallel`); parallel runs
are bit-identical to serial runs at the same seed because no generator
state crosses a day boundary.

Both engines also plug into the robustness stack: an optional report
``quarantine`` screens each day's submissions, an optional ``chaos``
injector exercises the failure paths deterministically, an optional
``checkpoint`` store persists each day as it completes (and lets a rerun
resume where a killed run stopped), and an optional ``audit`` log receives
structured records for every quarantined report, fallback-served solve and
recovered worker failure.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, fields as dataclass_fields
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..allocation.base import (
    AllocationProblem,
    Allocator,
    ColumnarAllocationResult,
)
from ..core.columnar import (
    ColumnarDayBatch,
    ColumnarNeighborhood,
    ColumnarReports,
)
from ..core.intervals import Interval
from ..core.mechanism import (
    ColumnarDayOutcome,
    DayOutcome,
    EnkiMechanism,
    closest_feasible_consumption,
)
from ..core.types import (
    ConsumptionMap,
    HouseholdId,
    HouseholdType,
    Neighborhood,
    Report,
)
from ..io.audit import AuditEvent, AuditLog
from ..io.serialize import day_outcome_from_dict, day_outcome_to_dict
from ..pricing.base import PricingModel
from ..pricing.load_profile import LoadProfile
from ..pricing.quadratic import QuadraticPricing
from ..robustness.chaos import ChaosInjector
from ..robustness.checkpoint import CheckpointError, CheckpointStore, day_key
from ..robustness.quarantine import Quarantine
from .parallel import DEFAULT_RETRIES, map_tasks
from .profiles import ProfileGenerator, neighborhood_from_profiles
from .rng import make_day_rngs, root_entropy, spawn_seed
from .shm import SharedArena, SharedColumnarDay

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..allocation.cache import AllocationCache


@dataclass(frozen=True)
class AllocatorDayRecord:
    """One allocator's performance on one simulated day.

    ``served_tier`` is non-zero when a fallback chain degraded past its
    primary solver for this day (see :mod:`repro.robustness.fallback`).
    ``cache_hit`` marks a day whose allocation was replayed from an
    :class:`~repro.allocation.cache.AllocationCache` instead of solved.
    """

    day: int
    n_households: int
    allocator: str
    par: float
    cost: float
    wall_time_s: float
    proven_optimal: bool
    nodes_explored: int
    served_tier: int = 0
    cache_hit: bool = False


_RECORD_FIELDS = frozenset(f.name for f in dataclass_fields(AllocatorDayRecord))


def _record_from_dict(document: Dict[str, Any]) -> AllocatorDayRecord:
    """Rebuild a checkpointed record, ignoring unknown/missing extras."""
    return AllocatorDayRecord(
        **{key: value for key, value in document.items() if key in _RECORD_FIELDS}
    )


#: A study worker's per-day result: records, quarantine decision payloads
#: and fallback-trail payloads (the latter two JSON-safe for checkpoints).
StudyDayResult = Tuple[List[AllocatorDayRecord], List[Dict], List[Dict]]


def _run_study_day(
    task: Tuple["SocialWelfareStudy", int, int, int],
) -> StudyDayResult:
    """One Figures 4-6 day: sample a population, run every allocator.

    Module-level so the parallel runtime can pickle it; ``task`` carries
    the study (its allocators, generator and pricing), the root entropy,
    the day index and the population size.
    """
    study, root, day, n_households = task
    if study.chaos is not None:
        study.chaos.before_day(day)
    py_rng, np_rng = make_day_rngs(root, day)
    if study.columnar:
        return _run_study_day_columnar(study, py_rng, np_rng, day, n_households)
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


def _run_study_day_columnar(
    study: "SocialWelfareStudy",
    py_rng: random.Random,
    np_rng,
    day: int,
    n_households: int,
) -> StudyDayResult:
    """The columnar (large-n) study day: no per-household objects.

    Sampling uses :meth:`ProfileGenerator.sample_population_columnar` —
    its own draw sequence on the day's keyed substream — so the columnar
    study's records are reproducible per ``(seed, day)`` and bit-identical
    across worker counts, but are *not* the object study's records at the
    same seed (see ``docs/performance.md``).
    """
    cols = study.generator.sample_population_columnar(np_rng, n_households)
    neighborhood = cols.to_neighborhood(study.true_preference)
    reports = ColumnarReports.truthful(neighborhood)
    quarantine_payloads: List[Dict] = []
    if study.quarantine is not None:
        screened = study.quarantine.screen_columnar(
            neighborhood,
            reports.start.astype(float),
            reports.end.astype(float),
            reports.duration.astype(float),
        )
        quarantine_payloads = [
            decision.as_payload()
            for decision in screened.decisions
            if decision.action != "accepted"
        ]
        neighborhood = neighborhood.take(screened.kept)
        reports = screened.accepted
    compiled = reports.compile(neighborhood, study.pricing)
    records: List[AllocatorDayRecord] = []
    fallback_payloads: List[Dict] = []
    for allocator in study.allocators:
        result = allocator.solve_columnar(
            compiled, study.pricing, random.Random(spawn_seed(py_rng))
        )
        profile = LoadProfile.from_arrays(
            result.starts, result.starts + compiled.duration, compiled.rating
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


def _plan_batches(
    pending: Sequence[int],
    batch_days: int,
    chaos: Optional[ChaosInjector],
) -> List[List[int]]:
    """Chunk pending days into consecutive runs of at most ``batch_days``.

    Chaos crash days always become singleton chunks: a crash must fail
    (and retry, and be audited) at exactly the day granularity of the
    per-day oracle, so failure attribution — ``chunk[0]`` — names the
    crashing day and no sibling day's work rides on the doomed attempt.
    """
    crash = chaos.plan.crash_days if chaos is not None else frozenset()
    chunks: List[List[int]] = []
    current: List[int] = []
    for day in pending:
        if day in crash:
            if current:
                chunks.append(current)
                current = []
            chunks.append([day])
            continue
        if current and (len(current) >= batch_days or day != current[-1] + 1):
            chunks.append(current)
            current = []
        current.append(day)
    if current:
        chunks.append(current)
    return chunks


def _run_study_batch(
    task: Tuple["SocialWelfareStudy", int, List[int], int, Optional["AllocationCache"]],
) -> List[StudyDayResult]:
    """A chunk of Figures 4-6 columnar days as fused array passes.

    The batched twin of per-day :func:`_run_study_day_columnar` calls:
    every day still burns its own keyed substream (sampling draws and
    tie-break seeds are untouched, so outputs are bit-identical to the
    per-day path), but sampling shares one id tuple, screening runs as
    one malformed-mask pass, and greedy allocators place the whole chunk
    through one fused kernel sweep.  With an ``alloc_cache``, each day's
    allocation routes through the cache instead (hits replay stored
    results byte-identically; misses solve per day).
    """
    study, root, chunk, n_households, alloc_cache = task
    day_rngs: List[random.Random] = []
    np_rngs = []
    for day in chunk:
        if study.chaos is not None:
            study.chaos.before_day(day)
        py_rng, np_rng = make_day_rngs(root, day)
        day_rngs.append(py_rng)
        np_rngs.append(np_rng)
    neighborhoods = [
        cols.to_neighborhood(study.true_preference)
        for cols in study.generator.sample_population_columnar_batch(
            np_rngs, n_households
        )
    ]

    quarantine_payloads: List[List[Dict]] = [[] for _ in chunk]
    if study.quarantine is not None:
        batch = ColumnarDayBatch.from_neighborhoods(neighborhoods)
        screened_days = study.quarantine.screen_columnar_batch(
            batch,
            batch.true_start.astype(float),
            batch.true_end.astype(float),
            batch.duration.astype(float),
        )
        compiled_days = []
        for k, screened in enumerate(screened_days):
            quarantine_payloads[k] = [
                decision.as_payload()
                for decision in screened.decisions
                if decision.action != "accepted"
            ]
            kept_neighborhood = neighborhoods[k].take(screened.kept)
            compiled_days.append(
                screened.accepted.compile(kept_neighborhood, study.pricing)
            )
    else:
        compiled_days = [
            ColumnarReports.truthful(neighborhood).compile(
                neighborhood, study.pricing
            )
            for neighborhood in neighborhoods
        ]

    # Tie-break rngs are drawn in (day, allocator) order — exactly the
    # per-day path's draw order on each day's keyed substream — and are
    # drawn unconditionally, so cache hits never shift later draws.
    rngs_by_allocator: List[List[random.Random]] = [[] for _ in study.allocators]
    for py_rng in day_rngs:
        for slot in rngs_by_allocator:
            slot.append(random.Random(spawn_seed(py_rng)))

    results_by_allocator: List[List[ColumnarAllocationResult]] = []
    for allocator, rngs in zip(study.allocators, rngs_by_allocator):
        if alloc_cache is not None:
            results = [
                alloc_cache.solve_columnar(allocator, compiled, study.pricing, rng)
                for compiled, rng in zip(compiled_days, rngs)
            ]
        elif hasattr(allocator, "solve_columnar_batch"):
            results = allocator.solve_columnar_batch(
                compiled_days, study.pricing, rngs
            )
        else:
            results = [
                allocator.solve_columnar(compiled, study.pricing, rng)
                for compiled, rng in zip(compiled_days, rngs)
            ]
        results_by_allocator.append(results)

    out: List[StudyDayResult] = []
    for k, day in enumerate(chunk):
        compiled = compiled_days[k]
        records: List[AllocatorDayRecord] = []
        fallback_payloads: List[Dict] = []
        for allocator, results in zip(study.allocators, results_by_allocator):
            result = results[k]
            profile = LoadProfile.from_arrays(
                result.starts, result.starts + compiled.duration, compiled.rating
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
                        "trail": [
                            record.as_payload() for record in result.fallback_trail
                        ],
                    }
                )
        out.append((records, quarantine_payloads[k], fallback_payloads))
    return out


def _guard_checkpoint_meta(
    checkpoint: CheckpointStore, key: str, context: Dict[str, Any]
) -> None:
    """Refuse to resume a checkpoint written by a different run setup."""
    done = checkpoint.completed()
    if key in done:
        if done[key] != context:
            raise CheckpointError(
                f"checkpoint {checkpoint.path!r} was written by a different "
                f"run: recorded {done[key]}, this run is {context}"
            )
    else:
        checkpoint.append(key, context)


class SocialWelfareStudy:
    """Compare allocators on identical day-ahead instances (Figures 4-6).

    Args:
        allocators: The solvers to compare (e.g. Enki greedy vs optimal).
        generator: Usage-profile generator; Section VI defaults when omitted.
        pricing: Neighborhood pricing; quadratic sigma=0.3 when omitted.
        true_preference: Which window households report — the paper's
            social-welfare study has every household report its wide
            interval as its true preference.
        quarantine: Optional report screen applied to each day's reports
            before the allocators see them (required when ``chaos``
            injects malformed reports).
        chaos: Optional deterministic fault injector
            (:class:`repro.robustness.chaos.ChaosInjector`).
        columnar: Run each day on the columnar (structure-of-arrays) fast
            path: batched sampling, array allocation kernels, no
            per-household objects.  Same study semantics, its own sampling
            substream — records differ from the object path at the same
            seed but stay bit-identical across worker counts.
    """

    def __init__(
        self,
        allocators: Sequence[Allocator],
        generator: Optional[ProfileGenerator] = None,
        pricing: Optional[PricingModel] = None,
        true_preference: str = "wide",
        quarantine: Optional[Quarantine] = None,
        chaos: Optional[ChaosInjector] = None,
        columnar: bool = False,
    ) -> None:
        if not allocators:
            raise ValueError("need at least one allocator to study")
        names = [allocator.name for allocator in allocators]
        if len(set(names)) != len(names):
            raise ValueError(f"allocator names must be unique, got {names}")
        self.allocators = list(allocators)
        self.generator = generator if generator is not None else ProfileGenerator()
        self.pricing = pricing if pricing is not None else QuadraticPricing()
        self.true_preference = true_preference
        self.quarantine = quarantine
        self.chaos = chaos
        self.columnar = columnar
        if (
            chaos is not None
            and chaos.plan.malformed_days
            and quarantine is None
        ):
            raise ValueError(
                "chaos injects malformed reports; configure a quarantine to "
                "absorb them (policy 'clamp' or 'exclude')"
            )
        if columnar and chaos is not None and chaos.plan.malformed_days:
            raise ValueError(
                "chaos report corruption operates on object reports; the "
                "columnar path cannot run days with malformed_days planned"
            )

    def run(
        self,
        n_households: int,
        days: int,
        seed: Optional[int] = None,
        workers: Optional[int] = 1,
        checkpoint: Optional[CheckpointStore] = None,
        checkpoint_prefix: str = "",
        audit: Optional[AuditLog] = None,
        timeout_s: Optional[float] = None,
        retries: int = DEFAULT_RETRIES,
        batch_days: int = 1,
        alloc_cache: Optional["AllocationCache"] = None,
    ) -> List[AllocatorDayRecord]:
        """Simulate ``days`` independent days with ``n_households`` each.

        Args:
            n_households: Population size sampled fresh every day.
            days: Number of independent day instances.
            seed: Master seed; day ``d`` draws from the keyed substream
                ``(seed, d)`` regardless of ``workers``.
            workers: Process count for the day fan-out; ``1`` (default)
                runs serially, ``0`` uses every core.  Results are
                bit-identical across worker counts.
            checkpoint: Persist each day's records as it completes; days
                already in the store are replayed instead of recomputed,
                so a killed run resumes where it stopped with identical
                final results.
            checkpoint_prefix: Key prefix inside the store (used by
                :meth:`sweep` to keep population sizes apart).
            audit: Structured event log; receives ``report_quarantined``,
                ``fallback_served`` and ``worker_failure`` events for the
                days computed in this call.
            timeout_s: Per-round stall detector for the parallel runtime
                (see :func:`repro.sim.parallel.map_tasks`).
            retries: Pool retry budget per failed day before inline rerun.
            batch_days: Columnar-only: run up to this many consecutive
                days per worker task as fused array passes
                (:func:`_run_study_batch`).  ``1`` (default) keeps the
                per-day oracle path; results are bit-identical either
                way (modulo per-call wall times).
            alloc_cache: Columnar-only: route every allocation through a
                digest-keyed :class:`~repro.allocation.cache.
                AllocationCache` — repeated instances replay stored
                results byte-identically instead of re-solving.
        """
        if days < 1:
            raise ValueError(f"days must be >= 1, got {days}")
        if batch_days < 1:
            raise ValueError(f"batch_days must be >= 1, got {batch_days}")
        if (batch_days > 1 or alloc_cache is not None) and not self.columnar:
            raise ValueError(
                "batch_days > 1 and alloc_cache require the columnar path "
                "(construct the study with columnar=True)"
            )
        batched = self.columnar and (batch_days > 1 or alloc_cache is not None)
        root = root_entropy(seed)
        done: Dict[str, Dict[str, Any]] = {}
        if checkpoint is not None:
            _guard_checkpoint_meta(
                checkpoint,
                f"{checkpoint_prefix}meta",
                {"root": root, "days": days, "n_households": n_households},
            )
            done = checkpoint.completed()
        pending = [
            day for day in range(days) if day_key(day, checkpoint_prefix) not in done
        ]
        chunks = (
            _plan_batches(pending, batch_days, self.chaos)
            if batched
            else [[day] for day in pending]
        )

        def _append_day(day: int, value: StudyDayResult) -> None:
            records, quarantined, fallbacks = value
            checkpoint.append(
                day_key(day, checkpoint_prefix),
                {
                    "records": [asdict(record) for record in records],
                    "quarantine": quarantined,
                    "fallback": fallbacks,
                },
            )

        def _log_failure(failure) -> None:
            audit.append(
                AuditEvent(
                    kind="worker_failure",
                    day=chunks[failure.index][0],
                    payload={
                        "attempt": failure.attempt,
                        "cause": failure.cause,
                        "recovered": True,
                    },
                )
            )

        computed: Dict[int, StudyDayResult] = {}
        if batched:
            tasks_b = [
                (self, root, chunk, n_households, alloc_cache) for chunk in chunks
            ]

            def _persist_batch(index: int, value: List[StudyDayResult]) -> None:
                for day, day_result in zip(chunks[index], value):
                    _append_day(day, day_result)

            per_chunk = map_tasks(
                _run_study_batch,
                tasks_b,
                workers,
                timeout_s=timeout_s,
                retries=retries,
                on_result=_persist_batch if checkpoint is not None else None,
                on_failure=_log_failure if audit is not None else None,
            )
            for chunk, chunk_results in zip(chunks, per_chunk):
                computed.update(zip(chunk, chunk_results))
        else:
            tasks = [(self, root, day, n_households) for day in pending]

            def _persist(index: int, value: StudyDayResult) -> None:
                _append_day(pending[index], value)

            per_day = map_tasks(
                _run_study_day,
                tasks,
                workers,
                timeout_s=timeout_s,
                retries=retries,
                on_result=_persist if checkpoint is not None else None,
                on_failure=_log_failure if audit is not None else None,
            )
            computed = dict(zip(pending, per_day))

        out: List[AllocatorDayRecord] = []
        for day in range(days):
            if day in computed:
                records, quarantined, fallbacks = computed[day]
                if audit is not None:
                    for payload in quarantined:
                        audit.append(
                            AuditEvent(kind="report_quarantined", day=day, payload=payload)
                        )
                    for payload in fallbacks:
                        audit.append(
                            AuditEvent(kind="fallback_served", day=day, payload=payload)
                        )
            else:
                payload = done[day_key(day, checkpoint_prefix)]
                records = [_record_from_dict(doc) for doc in payload["records"]]
            out.extend(records)
        return out

    def sweep(
        self,
        populations: Sequence[int],
        days: int,
        seed: Optional[int] = None,
        workers: Optional[int] = 1,
        checkpoint: Optional[CheckpointStore] = None,
        audit: Optional[AuditLog] = None,
        timeout_s: Optional[float] = None,
        retries: int = DEFAULT_RETRIES,
        batch_days: int = 1,
        alloc_cache: Optional["AllocationCache"] = None,
    ) -> List[AllocatorDayRecord]:
        """Run the study across population sizes (the Figures 4-6 x-axis).

        With a ``checkpoint``, each population size keeps its own key
        prefix in the shared store, so a killed sweep resumes mid-sweep.
        ``batch_days``/``alloc_cache`` pass through to each :meth:`run`.
        """
        rng = random.Random(seed)
        records: List[AllocatorDayRecord] = []
        for n_households in populations:
            records.extend(
                self.run(
                    n_households,
                    days,
                    spawn_seed(rng),
                    workers=workers,
                    checkpoint=checkpoint,
                    checkpoint_prefix=f"n{n_households}-",
                    audit=audit,
                    timeout_s=timeout_s,
                    retries=retries,
                    batch_days=batch_days,
                    alloc_cache=alloc_cache,
                )
            )
        return records


#: Decides what a household reports on a given day.
ReportPolicy = Callable[[int, HouseholdType, random.Random], Report]

#: Decides what a household consumes given its report and allocation.
ConsumptionPolicy = Callable[
    [int, HouseholdType, Report, Interval, random.Random], Interval
]


def truthful_report_policy(
    day: int, household: HouseholdType, rng: random.Random
) -> Report:
    """Report the true preference every day."""
    return Report(household.household_id, household.true_preference)


def follow_or_closest_policy(
    day: int,
    household: HouseholdType,
    report: Report,
    allocation: Interval,
    rng: random.Random,
) -> Interval:
    """Follow the allocation if it fits the true window, else defect minimally."""
    true = household.true_preference
    return closest_feasible_consumption(true.window, true.duration, allocation)


def _run_simulation_day(
    task: Tuple["NeighborhoodSimulation", Neighborhood, int, int],
) -> DayOutcome:
    """One full mechanism day: report, allocate, consume, settle.

    Module-level so the parallel runtime can pickle it.  Custom policies
    must themselves be picklable (module-level functions or instances) to
    run with ``workers > 1``.
    """
    simulation, neighborhood, root, day = task
    if simulation.chaos is not None:
        simulation.chaos.before_day(day)
    rng, _ = make_day_rngs(root, day)
    reports: Dict[HouseholdId, Report] = {
        hh.household_id: simulation.report_policy(day, hh, rng)
        for hh in neighborhood
    }
    if simulation.chaos is not None:
        reports = simulation.chaos.corrupt_reports(day, reports)
    decisions: Tuple = ()
    screened = simulation.mechanism.screen_reports(neighborhood, reports)
    if screened is not None:
        reports = screened.accepted
        decisions = tuple(screened.decisions)
    allocation_result = simulation.mechanism.allocate(
        neighborhood, reports, random.Random(spawn_seed(rng)), pre_screened=True
    )
    # Excluded (quarantined) households have no allocation and consume
    # nothing through the mechanism that day.
    consumption: ConsumptionMap = {
        hh.household_id: simulation.consumption_policy(
            day,
            hh,
            reports[hh.household_id],
            allocation_result.allocation[hh.household_id],
            rng,
        )
        for hh in neighborhood
        if hh.household_id in allocation_result.allocation
    }
    settlement = simulation.mechanism.settle(
        neighborhood, reports, allocation_result.allocation, consumption
    )
    return DayOutcome(
        reports=reports,
        allocation_result=allocation_result,
        consumption=consumption,
        settlement=settlement,
        quarantine_decisions=decisions,
    )


def _run_simulation_day_columnar(
    task: Tuple["NeighborhoodSimulation", ColumnarNeighborhood, int, int],
) -> ColumnarDayOutcome:
    """One columnar mechanism day: truthful reports, closest consumption.

    The columnar twin of :func:`_run_simulation_day`, restricted to the
    default policies (enforced at construction) because custom policies
    are written against per-household objects.
    """
    simulation, neighborhood, root, day = task
    if simulation.chaos is not None:
        simulation.chaos.before_day(day)
    rng, _ = make_day_rngs(root, day)
    return simulation.mechanism.run_day_columnar(
        neighborhood, rng=random.Random(spawn_seed(rng))
    )


def _run_simulation_day_shm(
    task: Tuple["NeighborhoodSimulation", SharedColumnarDay, int, int],
) -> ColumnarDayOutcome:
    """The shared-memory twin of :func:`_run_simulation_day_columnar`.

    The task carries a :class:`~repro.sim.shm.SharedColumnarDay`
    descriptor (a few hundred bytes) instead of the neighborhood itself;
    the worker reconstructs zero-copy array views over the parent's
    shared segment.  Everything downstream is the same code, so outcomes
    are bit-identical to the pickle transport and to serial runs.
    """
    simulation, day, root, day_index = task
    if simulation.chaos is not None:
        simulation.chaos.before_day(day_index)
    rng, _ = make_day_rngs(root, day_index)
    return simulation.mechanism.run_day_columnar(
        day.neighborhood(), rng=random.Random(spawn_seed(rng))
    )


def _run_simulation_batch(
    task: Tuple["NeighborhoodSimulation", Any, int, List[int]],
) -> List[ColumnarDayOutcome]:
    """A chunk of columnar mechanism days through one fused batch run.

    The batched twin of :func:`_run_simulation_day_columnar`: each day
    still burns its own keyed substream (chaos firing and tie-break seed
    draw order unchanged), then the whole chunk flows through
    :meth:`~repro.core.mechanism.EnkiMechanism.run_days_columnar` — one
    screen, one compile, one fused placement sweep.  The neighborhood
    reference may be a :class:`~repro.sim.shm.SharedColumnarDay`
    descriptor, reconstructed here as zero-copy views.
    """
    simulation, neighborhood, root, chunk = task
    rngs: List[random.Random] = []
    for day in chunk:
        if simulation.chaos is not None:
            simulation.chaos.before_day(day)
        rng, _ = make_day_rngs(root, day)
        rngs.append(random.Random(spawn_seed(rng)))
    if isinstance(neighborhood, SharedColumnarDay):
        neighborhood = neighborhood.neighborhood()
    return simulation.mechanism.run_days_columnar(neighborhood, rngs)


class NeighborhoodSimulation:
    """Run the full Enki mechanism over multiple days with custom behaviour.

    Args:
        mechanism: The mechanism under study; a default
            :class:`EnkiMechanism` when omitted.  Configure its
            ``quarantine`` to screen reports (required when ``chaos``
            injects malformed ones).
        report_policy: What each household reports every day.
        consumption_policy: What each allocated household consumes.
        chaos: Optional deterministic fault injector.
        columnar: Run each day through
            :meth:`EnkiMechanism.run_day_columnar` — the structure-of-
            arrays fast path.  Requires the default (truthful /
            closest-feasible) policies, and :meth:`run` then returns
            :class:`~repro.core.mechanism.ColumnarDayOutcome` items.
    """

    def __init__(
        self,
        mechanism: Optional[EnkiMechanism] = None,
        report_policy: ReportPolicy = truthful_report_policy,
        consumption_policy: ConsumptionPolicy = follow_or_closest_policy,
        chaos: Optional[ChaosInjector] = None,
        columnar: bool = False,
    ) -> None:
        self.mechanism = mechanism if mechanism is not None else EnkiMechanism()
        self.report_policy = report_policy
        self.consumption_policy = consumption_policy
        self.chaos = chaos
        self.columnar = columnar
        if (
            chaos is not None
            and chaos.plan.malformed_days
            and self.mechanism.quarantine is None
        ):
            raise ValueError(
                "chaos injects malformed reports; configure the mechanism "
                "with a quarantine to absorb them"
            )
        if columnar:
            if (
                report_policy is not truthful_report_policy
                or consumption_policy is not follow_or_closest_policy
            ):
                raise ValueError(
                    "the columnar path supports only the default truthful/"
                    "closest-feasible policies (custom policies are written "
                    "against per-household objects)"
                )
            if chaos is not None and chaos.plan.malformed_days:
                raise ValueError(
                    "chaos report corruption operates on object reports; the "
                    "columnar path cannot run days with malformed_days planned"
                )

    def run(
        self,
        neighborhood: Neighborhood,
        days: int,
        seed: Optional[int] = None,
        workers: Optional[int] = 1,
        checkpoint: Optional[CheckpointStore] = None,
        checkpoint_prefix: str = "",
        audit: Optional[AuditLog] = None,
        timeout_s: Optional[float] = None,
        retries: int = DEFAULT_RETRIES,
        transport: str = "auto",
        batch_days: int = 1,
    ) -> List[DayOutcome]:
        """Simulate ``days`` settled days for a fixed neighborhood.

        Args:
            neighborhood: The households (fixed across days).
            days: Number of independent settled days.
            seed: Master seed; day ``d`` draws from substream ``(seed, d)``.
            workers: Process count for the day fan-out; ``1`` (default)
                runs serially.  Parallel output is bit-identical to serial.
            checkpoint: Persist each day's outcome as it completes and
                replay already-completed days on rerun (``--resume``).
            checkpoint_prefix: Key prefix inside the store.
            audit: Structured event log for quarantine/fallback/worker
                events.
            timeout_s: Stall detector for the parallel runtime.
            retries: Pool retry budget per failed day before inline rerun.
            transport: How columnar day tasks reach workers.  ``"shm"``
                packs the neighborhood once into a shared-memory segment
                and ships a tiny descriptor per day (zero-copy views in
                the workers); ``"pickle"`` serializes the neighborhood
                into every task (the pre-shm behaviour); ``"auto"``
                (default) picks ``"shm"`` whenever the columnar day loop
                fans out to workers.  Outcomes are bit-identical across
                transports.  Non-columnar runs must leave this ``"auto"``
                or ``"pickle"``.
            batch_days: Columnar-only: run up to this many consecutive
                days per worker task through the fused
                :meth:`~repro.core.mechanism.EnkiMechanism.
                run_days_columnar` batch (one screen, one compile, one
                placement sweep).  ``1`` (default) keeps the per-day
                path; outcomes are bit-identical either way (modulo
                per-call wall times).

        On the columnar path (``columnar=True``), ``neighborhood`` may be
        either representation (an object :class:`Neighborhood` is lowered
        once up front), the returned list holds
        :class:`~repro.core.mechanism.ColumnarDayOutcome` items, and
        checkpointing is not supported (outcomes are arrays, not the
        serialized object form).
        """
        if days < 1:
            raise ValueError(f"days must be >= 1, got {days}")
        if batch_days < 1:
            raise ValueError(f"batch_days must be >= 1, got {batch_days}")
        if batch_days > 1 and not self.columnar:
            raise ValueError(
                "batch_days > 1 requires the columnar path (construct the "
                "simulation with columnar=True)"
            )
        if transport not in ("auto", "pickle", "shm"):
            raise ValueError(
                f"transport must be 'auto', 'pickle' or 'shm', got {transport!r}"
            )
        if transport == "shm" and not self.columnar:
            raise ValueError(
                "the shared-memory transport carries columnar arrays; "
                "construct the simulation with columnar=True"
            )
        if self.columnar:
            if checkpoint is not None:
                raise ValueError(
                    "checkpointing is not supported on the columnar path"
                )
            if isinstance(neighborhood, Neighborhood):
                neighborhood = ColumnarNeighborhood.from_objects(neighborhood)
        root = root_entropy(seed)
        done: Dict[str, Dict[str, Any]] = {}
        if checkpoint is not None:
            _guard_checkpoint_meta(
                checkpoint,
                f"{checkpoint_prefix}meta",
                {"root": root, "days": days, "n_households": len(neighborhood)},
            )
            done = checkpoint.completed()
        pending = [
            day for day in range(days) if day_key(day, checkpoint_prefix) not in done
        ]
        batched = self.columnar and batch_days > 1
        chunks = (
            _plan_batches(pending, batch_days, self.chaos)
            if batched
            else [[day] for day in pending]
        )
        day_fn: Callable = (
            _run_simulation_day_columnar if self.columnar else _run_simulation_day
        )
        day_ref: Any = neighborhood
        arena: Optional[SharedArena] = None
        if self.columnar and (
            transport == "shm"
            or (transport == "auto" and workers not in (None, 1))
        ):
            arena = SharedArena()
            day_ref = arena.pack_day(neighborhood)
            day_fn = _run_simulation_day_shm
        if batched:
            day_fn = _run_simulation_batch
            tasks = [(self, day_ref, root, chunk) for chunk in chunks]
        else:
            tasks = [(self, day_ref, root, day) for day in pending]

        def _persist(index: int, outcome: DayOutcome) -> None:
            checkpoint.append(
                day_key(pending[index], checkpoint_prefix),
                day_outcome_to_dict(outcome),
            )

        def _log_failure(failure) -> None:
            audit.append(
                AuditEvent(
                    kind="worker_failure",
                    day=chunks[failure.index][0],
                    payload={
                        "attempt": failure.attempt,
                        "cause": failure.cause,
                        "recovered": True,
                    },
                )
            )

        try:
            computed_list = map_tasks(
                day_fn,
                tasks,
                workers,
                timeout_s=timeout_s,
                retries=retries,
                on_result=_persist if checkpoint is not None else None,
                on_failure=_log_failure if audit is not None else None,
            )
        finally:
            if arena is not None:
                arena.dispose()
        if batched:
            computed = {}
            for chunk, chunk_outcomes in zip(chunks, computed_list):
                computed.update(zip(chunk, chunk_outcomes))
        else:
            computed = dict(zip(pending, computed_list))

        outcomes: List[DayOutcome] = []
        for day in range(days):
            if day in computed:
                outcome = computed[day]
                if audit is not None:
                    for decision in outcome.quarantine_decisions:
                        if decision.action != "accepted":
                            audit.append(
                                AuditEvent(
                                    kind="report_quarantined",
                                    day=day,
                                    payload=decision.as_payload(),
                                )
                            )
                    if outcome.allocation_result.served_tier > 0:
                        audit.append(
                            AuditEvent(
                                kind="fallback_served",
                                day=day,
                                payload={
                                    "served_tier": outcome.allocation_result.served_tier,
                                    "trail": [
                                        record.as_payload()
                                        for record in outcome.allocation_result.fallback_trail
                                    ],
                                },
                            )
                        )
            else:
                outcome = day_outcome_from_dict(
                    done[day_key(day, checkpoint_prefix)]
                )
            outcomes.append(outcome)
        return outcomes
