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
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..allocation.arrays import CompiledProblem
from ..allocation.base import Allocator, ColumnarAllocationResult
from ..core.columnar import ColumnarNeighborhood, ColumnarReports
from ..core.intervals import Interval
from ..core.mechanism import (
    ColumnarDayOutcome,
    ColumnarSettlement,
    DayOutcome,
    EnkiMechanism,
    closest_feasible_consumption,
    compile_reports,
    truthful_reports,
)
from ..core.types import (
    ConsumptionMap,
    HouseholdId,
    HouseholdType,
    Neighborhood,
    Preference,
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
    task: Tuple["SocialWelfareStudy", int, int, int, Optional["AllocationCache"]],
) -> StudyDayResult:
    """One Figures 4-6 day: sample a population, run every allocator.

    Module-level so the parallel runtime can pickle it; ``task`` carries
    the study (its allocators, generator and pricing), the root entropy,
    the day index, the population size and the optional allocation cache.
    The study's front (object or columnar) samples, screens and lowers
    the day's reports to one compiled problem; every allocator solves
    that problem on its own tie-break seed, and PAR is read from the
    begin slots.
    """
    study, root, day, n_households, alloc_cache = task
    if study.chaos is not None:
        study.chaos.before_day(day)
    py_rng, np_rng = make_day_rngs(root, day)
    front = _columnar_study_front if study.columnar else _object_study_front
    compiled, quarantine_payloads = front(study, np_rng, day, n_households)
    records: List[AllocatorDayRecord] = []
    fallback_payloads: List[Dict] = []
    for allocator in study.allocators:
        rng = random.Random(spawn_seed(py_rng))
        if alloc_cache is not None:
            result = alloc_cache.solve_columnar(
                allocator, compiled, study.pricing, rng
            )
        else:
            result = allocator.solve_columnar(compiled, study.pricing, rng)
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


def _quarantine_payloads(decisions) -> List[Dict]:
    """Audit payloads of the reports a screen repaired or dropped."""
    return [
        decision.as_payload()
        for decision in decisions
        if decision.action != "accepted"
    ]


def _object_study_front(
    study: "SocialWelfareStudy", np_rng, day: int, n_households: int
) -> Tuple[CompiledProblem, List[Dict]]:
    """The paper's sampler, chaos corruption and the object quarantine.

    Draws the population household by household (the draw order the
    paper figures depend on) and lowers the screened report map, in its
    order, with :func:`~repro.core.mechanism.compile_reports`.
    """
    profiles = study.generator.sample_population(np_rng, n_households)
    neighborhood = neighborhood_from_profiles(profiles, study.true_preference)
    reports = truthful_reports(neighborhood)
    if study.chaos is not None:
        reports = study.chaos.corrupt_reports(day, reports)
    payloads: List[Dict] = []
    if study.quarantine is not None:
        screened = study.quarantine.screen(neighborhood, reports)
        reports = screened.accepted
        payloads = _quarantine_payloads(screened.decisions)
    return compile_reports(neighborhood, reports, study.pricing), payloads


def _columnar_study_front(
    study: "SocialWelfareStudy", np_rng, day: int, n_households: int
) -> Tuple[CompiledProblem, List[Dict]]:
    """The columnar (large-n) front: no per-household objects.

    Sampling uses :meth:`ProfileGenerator.sample_population_columnar` —
    its own draw sequence on the day's keyed substream — so the columnar
    study's records are reproducible per ``(seed, day)`` and bit-identical
    across worker counts, but are *not* the object study's records at the
    same seed (see ``docs/performance.md``).
    """
    cols = study.generator.sample_population_columnar(np_rng, n_households)
    neighborhood = cols.to_neighborhood(study.true_preference)
    if study.quarantine is None:
        reports = ColumnarReports.truthful(neighborhood)
        payloads: List[Dict] = []
    else:
        screened = study.quarantine.screen_columnar(
            neighborhood, *neighborhood.truthful_wire()
        )
        neighborhood = neighborhood.take(screened.kept)
        reports = screened.accepted
        payloads = _quarantine_payloads(screened.decisions)
    return reports.compile(neighborhood, study.pricing), payloads


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
            alloc_cache: Columnar-only: route every allocation through a
                digest-keyed :class:`~repro.allocation.cache.
                AllocationCache` — repeated instances replay stored
                results byte-identically instead of re-solving.
        """
        if days < 1:
            raise ValueError(f"days must be >= 1, got {days}")
        if alloc_cache is not None and not self.columnar:
            raise ValueError(
                "alloc_cache requires the columnar path "
                "(construct the study with columnar=True)"
            )
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
        tasks = [(self, root, day, n_households, alloc_cache) for day in pending]

        def _persist(index: int, value: StudyDayResult) -> None:
            records, quarantined, fallbacks = value
            checkpoint.append(
                day_key(pending[index], checkpoint_prefix),
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
                    day=pending[failure.index],
                    payload={
                        "attempt": failure.attempt,
                        "cause": failure.cause,
                        "recovered": True,
                    },
                )
            )

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
        alloc_cache: Optional["AllocationCache"] = None,
    ) -> List[AllocatorDayRecord]:
        """Run the study across population sizes (the Figures 4-6 x-axis).

        With a ``checkpoint``, each population size keeps its own key
        prefix in the shared store, so a killed sweep resumes mid-sweep.
        ``alloc_cache`` passes through to each :meth:`run`.
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


class _DayColumns(NamedTuple):
    """An object day on the wire: the arrays its ``DayOutcome`` came from.

    The report columns are the compiled report map (map order, with each
    ``Report.household_id``); the consumption columns are row-aligned
    with the settlement's ``ids``, which are also the consumption map's
    keys in order.
    """

    report_ids: Tuple[HouseholdId, ...]
    report_households: Tuple[HouseholdId, ...]
    report_start: np.ndarray
    report_end: np.ndarray
    report_duration: np.ndarray
    allocation: ColumnarAllocationResult
    consumption_start: np.ndarray
    consumption_end: np.ndarray
    settlement: ColumnarSettlement
    quarantine_decisions: Tuple

    def materialize(self, neighborhood: Neighborhood) -> DayOutcome:
        """Rebuild the worker's ``DayOutcome``, equal field for field.

        A report of a household's true preference shares that frozen
        ``Preference`` from ``neighborhood`` (the day's households, as the
        worker had them), other equal ``Preference``s share one instance,
        and a followed allocation is the same ``Interval`` as its
        consumption, as in the worker.
        """
        households = neighborhood.households
        misreported: Dict[Tuple[int, int, int], Preference] = {}
        reports: Dict[HouseholdId, Report] = {}
        for key, hid, a, b, v in zip(
            self.report_ids,
            self.report_households,
            self.report_start.tolist(),
            self.report_end.tolist(),
            self.report_duration.tolist(),
        ):
            preference = households[key].true_preference
            window = preference.window
            if window.start != a or window.end != b or preference.duration != v:
                preference = misreported.get((a, b, v))
                if preference is None:
                    preference = misreported[a, b, v] = Preference(Interval(a, b), v)
            reports[key] = Report(hid, preference)
        allocation_result = self.allocation.to_result(
            ColumnarReports.from_trusted(
                self.report_ids,
                self.report_start,
                self.report_end,
                self.report_duration,
            )
        )
        allocation = allocation_result.allocation
        consumption: ConsumptionMap = {}
        for hid, a, b in zip(
            self.settlement.ids,
            self.consumption_start.tolist(),
            self.consumption_end.tolist(),
        ):
            placed = allocation[hid]
            followed = placed.start == a and placed.end == b
            consumption[hid] = placed if followed else Interval(a, b)
        return DayOutcome(
            reports=reports,
            allocation_result=allocation_result,
            consumption=consumption,
            settlement=self.settlement.to_settlement(),
            quarantine_decisions=self.quarantine_decisions,
        )


class _ObjectDay:
    """An object day's ``DayOutcome`` plus the arrays it was built from.

    In process the run unwraps ``outcome`` as built.  Pickled, it ships
    only the arrays, as :class:`_DayColumns`, and the parent rebuilds the
    ``DayOutcome`` from them once.  The columns are gathered in
    ``__reduce__``, so a serial run never pays for them.
    """

    __slots__ = ("outcome", "compiled", "solved", "cons_start", "cons_end", "settled")

    def __init__(
        self,
        outcome: DayOutcome,
        compiled: CompiledProblem,
        solved: ColumnarAllocationResult,
        cons_start: np.ndarray,
        cons_end: np.ndarray,
        settled: ColumnarSettlement,
    ) -> None:
        self.outcome = outcome
        self.compiled = compiled
        self.solved = solved
        self.cons_start = cons_start
        self.cons_end = cons_end
        self.settled = settled

    def __reduce__(self):
        compiled = self.compiled
        return _DayColumns, (
            compiled.ids,
            tuple(report.household_id for report in self.outcome.reports.values()),
            compiled.win_start,
            compiled.win_end,
            compiled.duration,
            self.solved,
            self.cons_start,
            self.cons_end,
            self.settled,
            self.outcome.quarantine_decisions,
        )


def _day_outcome(
    value: Any, neighborhood: Neighborhood
) -> Union[DayOutcome, ColumnarDayOutcome]:
    """The outcome a simulation day task returned, unwrapped or rebuilt."""
    if isinstance(value, _ObjectDay):
        return value.outcome
    if isinstance(value, _DayColumns):
        return value.materialize(neighborhood)
    return value


def _own_allocate_and_settle(mechanism: EnkiMechanism) -> bool:
    """True when ``mechanism`` allocates and settles with Enki's own methods.

    Only then are the arrays behind a day at hand.  A subclass that
    replaces ``allocate`` or ``settle`` is run through its own methods,
    and its days cross a process boundary as pickled ``DayOutcome``s.
    """
    cls = type(mechanism)
    return cls.allocate is EnkiMechanism.allocate and cls.settle is EnkiMechanism.settle


def _run_simulation_day(
    simulation: "NeighborhoodSimulation",
    neighborhood: Union[Neighborhood, ColumnarNeighborhood],
    task: Tuple[int, int],
) -> Union[DayOutcome, ColumnarDayOutcome, _ObjectDay]:
    """One full mechanism day: report, allocate, consume, settle.

    ``task`` is ``(root, day)``.  Module-level so the parallel runtime can
    pickle it; a run binds ``simulation`` and ``neighborhood`` once and
    maps the bound function over its days.  Custom policies must themselves be
    picklable (module-level functions or instances) to run with
    ``workers > 1``.  A columnar simulation's day runs through
    :meth:`EnkiMechanism.run_day_columnar` with the default policies.  An
    object day comes back as an :class:`_ObjectDay`, which crosses a
    process boundary as columns.
    """
    root, day = task
    if simulation.chaos is not None:
        simulation.chaos.before_day(day)
    rng, _ = make_day_rngs(root, day)
    if simulation.columnar:
        return simulation.mechanism.run_day_columnar(
            neighborhood, rng=random.Random(spawn_seed(rng))
        )
    reports: Dict[HouseholdId, Report] = {
        hh.household_id: simulation.report_policy(day, hh, rng)
        for hh in neighborhood
    }
    if simulation.chaos is not None:
        reports = simulation.chaos.corrupt_reports(day, reports)
    mechanism = simulation.mechanism
    decisions: Tuple = ()
    screened = mechanism.screen_reports(neighborhood, reports)
    if screened is not None:
        reports = screened.accepted
        decisions = tuple(screened.decisions)
    alloc_rng = random.Random(spawn_seed(rng))
    own_methods = _own_allocate_and_settle(mechanism)
    if own_methods:
        compiled, solved = mechanism._allocate_columns(neighborhood, reports, alloc_rng)
        allocation_result = solved.to_result(compiled)
    else:
        allocation_result = mechanism.allocate(
            neighborhood, reports, alloc_rng, pre_screened=True
        )
    allocation = allocation_result.allocation
    # Excluded (quarantined) households have no allocation and consume
    # nothing through the mechanism that day.
    consumption: ConsumptionMap = {
        hh.household_id: simulation.consumption_policy(
            day, hh, reports[hh.household_id], allocation[hh.household_id], rng
        )
        for hh in neighborhood
        if hh.household_id in allocation
    }
    if own_methods:
        settled, cons_start, cons_end = mechanism._settle_columns(
            neighborhood, reports, allocation, consumption
        )
        settlement = settled.to_settlement()
    else:
        settlement = mechanism.settle(neighborhood, reports, allocation, consumption)
    outcome = DayOutcome(
        reports=reports,
        allocation_result=allocation_result,
        consumption=consumption,
        settlement=settlement,
        quarantine_decisions=decisions,
    )
    if not own_methods:
        return outcome
    return _ObjectDay(outcome, compiled, solved, cons_start, cons_end, settled)


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
    ) -> List[DayOutcome]:
        """Simulate ``days`` settled days for a fixed neighborhood.

        Args:
            neighborhood: The households (fixed across days).
            days: Number of independent settled days.
            seed: Master seed; day ``d`` draws from substream ``(seed, d)``.
            workers: Process count for the day fan-out; ``1`` (default)
                runs serially.  Parallel output is bit-identical to serial.
                The simulation and its neighborhood reach each worker
                process once, and every task carries only its day; an
                object day computed by a worker comes back as arrays and
                is rebuilt here once, as it completes.
            checkpoint: Persist each day's outcome as it completes and
                replay already-completed days on rerun (``--resume``).
            checkpoint_prefix: Key prefix inside the store.
            audit: Structured event log for quarantine/fallback/worker
                events.
            timeout_s: Stall detector for the parallel runtime.
            retries: Pool retry budget per failed day before inline rerun.

        On the columnar path (``columnar=True``), ``neighborhood`` may be
        either representation (an object :class:`Neighborhood` is lowered
        once up front), the returned list holds
        :class:`~repro.core.mechanism.ColumnarDayOutcome` items, and
        checkpointing is not supported (outcomes are arrays, not the
        serialized object form).
        """
        if days < 1:
            raise ValueError(f"days must be >= 1, got {days}")
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
        computed: Dict[int, DayOutcome] = {}

        def _keep(index: int, value: Any) -> None:
            # Each day is unwrapped, or rebuilt from its columns, once,
            # as it completes.
            day = pending[index]
            outcome = computed[day] = _day_outcome(value, neighborhood)
            if checkpoint is not None:
                checkpoint.append(
                    day_key(day, checkpoint_prefix), day_outcome_to_dict(outcome)
                )

        def _log_failure(failure) -> None:
            audit.append(
                AuditEvent(
                    kind="worker_failure",
                    day=pending[failure.index],
                    payload={
                        "attempt": failure.attempt,
                        "cause": failure.cause,
                        "recovered": True,
                    },
                )
            )

        map_tasks(
            partial(_run_simulation_day, self, neighborhood),
            [(root, day) for day in pending],
            workers,
            timeout_s=timeout_s,
            retries=retries,
            on_result=_keep,
            on_failure=_log_failure if audit is not None else None,
        )

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
