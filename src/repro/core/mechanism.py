"""The Enki mechanism: one day of report → allocate → consume → settle.

This module wires the pieces of Section IV together.  Given a neighborhood
and its reports, :class:`EnkiMechanism` produces an allocation with a
pluggable allocator (the paper's greedy by default), accepts realized
consumption, and settles the day: flexibility scores (Eq. 4), defection
scores (Eq. 5), social-cost scores (Eq. 6), payments (Eq. 7), valuations
(Eq. 3) and quasilinear utilities (Eq. 8).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..allocation.cache import AllocationCache

import numpy as np

from ..allocation.arrays import CompiledProblem
from ..allocation.base import (
    AllocationResult,
    Allocator,
    ColumnarAllocationResult,
)
from ..allocation.greedy import GreedyFlexibilityAllocator
from ..pricing.base import PricingModel
from ..pricing.load_profile import LoadProfile
from ..pricing.quadratic import QuadraticPricing
from ..robustness.errors import InvalidReportError
from ..robustness.quarantine import Quarantine
from .columnar import ColumnarNeighborhood, ColumnarReports, id_vector
from .defection import defection_vector
from .flexibility import flexibility_vector
from .intervals import Interval, IntervalError
from .payments import DEFAULT_XI, payments_vector
from .social_cost import DEFAULT_K, social_cost_vector
from .types import (
    AllocationMap,
    ConsumptionMap,
    HouseholdId,
    Neighborhood,
    Preference,
    Report,
    validate_allocation,
    validate_consumption,
)
from .valuation import valuation_vector


def truthful_reports(neighborhood: Neighborhood) -> Dict[HouseholdId, Report]:
    """Every household reports its true preference."""
    return {
        hh.household_id: Report(hh.household_id, hh.true_preference)
        for hh in neighborhood
    }


def closest_feasible_consumption(
    true_window: Interval, duration: int, allocation: Interval
) -> Interval:
    """Consumption inside the true window, as close to the allocation as possible.

    This automates the user study's consumption step ("selecting real
    consumption to be within the subject's true interval and close to his
    allocation").  If the allocation already fits the true window it is
    followed exactly (the allocation object itself is returned, so a day's
    allocation and consumption maps share those intervals); otherwise the
    household defects to the in-window placement that maximizes overlap
    with the allocation (earliest on ties).

    Closed form of that earliest maximizer: the overlap is largest from
    the allocation's start when the block fits inside the allocation,
    else from where the block's end meets the allocation's end; clamping
    that target into the window keeps it optimal.  When the window cannot
    hold the block, or even the clamped start overlaps nothing, every
    start ties and the earliest, the window start, wins.
    """
    w0, w1 = true_window.start, true_window.end
    p, q = allocation.start, allocation.end
    if q - p == duration and w0 <= p and q <= w1:
        return allocation
    start = p if duration <= q - p else q - duration
    start = min(max(start, w0), w1 - duration)
    if start < w0 or min(start + duration, q) <= max(start, p):
        start = w0
    return Interval(start, start + duration)


def closest_feasible_starts(
    alloc_starts: np.ndarray,
    true_start: np.ndarray,
    true_end: np.ndarray,
    duration: np.ndarray,
) -> np.ndarray:
    """:func:`closest_feasible_consumption` for every row, as arrays.

    Consumption shares the allocation's duration here, so the overlap
    with the allocation is ``v - |s - alloc_start|`` and the in-window
    start closest to the allocation maximizes it; when even that overlaps
    nothing, every in-window start ties at zero and the earliest wins.
    """
    starts = np.clip(alloc_starts, true_start, true_end - duration)
    overlap = duration - np.abs(starts - alloc_starts)
    return np.where(overlap > 0, starts, true_start)


def _preference_columns(
    preferences: Sequence[Preference],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Window starts, window ends and durations of ``preferences``."""
    n = len(preferences)
    flat = np.fromiter(
        chain.from_iterable(
            (p.window.start, p.window.end, p.duration) for p in preferences
        ),
        dtype=np.intp,
        count=3 * n,
    )
    starts, ends, durations = flat.reshape(n, 3).T.copy()
    return starts, ends, durations


def _interval_columns(intervals: Sequence[Interval]) -> Tuple[np.ndarray, np.ndarray]:
    """Starts and ends of ``intervals``."""
    n = len(intervals)
    flat = np.fromiter(
        chain.from_iterable((iv.start, iv.end) for iv in intervals),
        dtype=np.intp,
        count=2 * n,
    )
    starts, ends = flat.reshape(n, 2).T.copy()
    return starts, ends


def compile_reports(
    neighborhood: Neighborhood,
    reports: Mapping[HouseholdId, Report],
    pricing: PricingModel,
) -> CompiledProblem:
    """Lower a report map, in its order, into one compiled day.

    Shared by :meth:`EnkiMechanism.allocate` and the object study day
    (:mod:`repro.sim.engine`): the reports supply windows and durations,
    the neighborhood the ratings.

    Raises:
        InvalidReportError: For a report from a household outside the
            neighborhood (the quarantine's ``unknown-household``).
    """
    types = neighborhood.households
    n = len(reports)
    preferences = [report.preference for report in reports.values()]
    try:
        rating = np.fromiter(
            (types[hid].rating_kw for hid in reports), dtype=float, count=n
        )
    except KeyError:
        unknown = next(hid for hid in reports if hid not in types)
        raise InvalidReportError(
            unknown, "unknown-household", "no such household"
        ) from None
    win_start, win_end, duration = _preference_columns(preferences)
    return CompiledProblem.from_arrays(
        ids=tuple(reports),
        win_start=win_start,
        win_end=win_end,
        duration=duration,
        rating=rating,
        pricing=pricing,
    )


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


@dataclass
class Settlement:
    """Everything the center computes when it bills a day."""

    total_cost: float
    flexibility: Dict[HouseholdId, float]
    defection: Dict[HouseholdId, float]
    social_cost: Dict[HouseholdId, float]
    payments: Dict[HouseholdId, float]
    valuations: Dict[HouseholdId, float]
    utilities: Dict[HouseholdId, float]
    overlap_fractions: Dict[HouseholdId, float]
    neighborhood_utility: float
    load_profile: LoadProfile


@dataclass
class ColumnarSettlement:
    """A day's settlement as parallel arrays, one row per billed household.

    The array twin of :class:`Settlement`, produced by
    :meth:`EnkiMechanism.settle_arrays`; :meth:`to_settlement` bridges to
    the dict form (the bridge is how the object path's
    :meth:`EnkiMechanism.settle` is implemented, so the two are the same
    computation by construction).
    """

    ids: Sequence[HouseholdId]
    total_cost: float
    flexibility: np.ndarray
    defection: np.ndarray
    social_cost: np.ndarray
    payments: np.ndarray
    valuations: np.ndarray
    utilities: np.ndarray
    overlap_fractions: np.ndarray
    neighborhood_utility: float
    load_profile: LoadProfile

    def to_settlement(self) -> Settlement:
        """Materialize the per-household dict :class:`Settlement`."""
        ids = list(self.ids)
        return Settlement(
            total_cost=self.total_cost,
            flexibility=dict(zip(ids, self.flexibility.tolist())),
            defection=dict(zip(ids, self.defection.tolist())),
            social_cost=dict(zip(ids, self.social_cost.tolist())),
            payments=dict(zip(ids, self.payments.tolist())),
            valuations=dict(zip(ids, self.valuations.tolist())),
            utilities=dict(zip(ids, self.utilities.tolist())),
            overlap_fractions=dict(zip(ids, self.overlap_fractions.tolist())),
            neighborhood_utility=self.neighborhood_utility,
            load_profile=self.load_profile,
        )


@dataclass
class ColumnarDayOutcome:
    """A full columnar day: surviving rows, allocation and settlement.

    ``kept`` is the boolean mask over the *input* neighborhood rows that
    survived quarantine (all-true without a quarantine); every other
    field is aligned with the kept rows.
    """

    neighborhood: ColumnarNeighborhood
    reports: ColumnarReports
    allocation_result: ColumnarAllocationResult
    consumption_starts: np.ndarray
    settlement: ColumnarSettlement
    kept: np.ndarray
    quarantine_decisions: Tuple = ()

    @property
    def allocation_starts(self) -> np.ndarray:
        return self.allocation_result.starts


@dataclass
class DayOutcome:
    """A full day under Enki: inputs, allocation and settlement.

    ``quarantine_decisions`` records every report the quarantine repaired
    or dropped (empty when no quarantine is configured or the day was
    clean); ``reports`` holds the post-screening reports the mechanism
    actually scheduled.
    """

    reports: Dict[HouseholdId, Report]
    allocation_result: AllocationResult
    consumption: ConsumptionMap
    settlement: Settlement
    quarantine_decisions: Tuple = ()

    @property
    def allocation(self) -> AllocationMap:
        return self.allocation_result.allocation

    def defected(self, household_id: HouseholdId) -> bool:
        """True when the household deviated from its allocation."""
        return self.consumption[household_id] != self.allocation[household_id]


class EnkiMechanism:
    """The tractable, budget-balanced DSM mechanism of the paper.

    Args:
        pricing: Neighborhood pricing model (quadratic, Eq. 1, by default).
        allocator: Allocation strategy (the Section IV-C greedy by default).
        k: Social-cost scaling factor (Eq. 6).
        xi: Payment scaling factor (Eq. 7); ``xi >= 1`` gives Theorem 1.
        seed: Seed for allocation tie-breaking when no rng is provided.
        quarantine: Optional report screen applied in front of every
            allocation (:class:`repro.robustness.quarantine.Quarantine`).
            Without one, the object day trusts typed reports — the
            pre-robustness behaviour — and the columnar day screens its
            rows under ``reject``.
        alloc_cache: Optional
            :class:`repro.allocation.cache.AllocationCache` every solve
            routes through.  Hits replay byte-identical results with
            ``cache_hit`` provenance; allocators without a
            ``cache_token`` pass straight through, so enabling the cache
            never changes an outcome.
    """

    def __init__(
        self,
        pricing: Optional[PricingModel] = None,
        allocator: Optional[Allocator] = None,
        k: float = DEFAULT_K,
        xi: float = DEFAULT_XI,
        seed: Optional[int] = None,
        quarantine: Optional[Quarantine] = None,
        alloc_cache: Optional["AllocationCache"] = None,
    ) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if xi < 1.0:
            raise ValueError(f"xi must be >= 1, got {xi}")
        self.pricing = pricing if pricing is not None else QuadraticPricing()
        self.allocator = allocator if allocator is not None else GreedyFlexibilityAllocator()
        self.k = k
        self.xi = xi
        self._seed = seed
        self.quarantine = quarantine
        self.alloc_cache = alloc_cache

    def screen_reports(
        self,
        neighborhood: Neighborhood,
        reports: Mapping[HouseholdId, Report],
    ):
        """Run the configured quarantine over ``reports``.

        Returns the :class:`~repro.robustness.quarantine.QuarantineResult`,
        or ``None`` when no quarantine is configured.  The screen is
        idempotent, so callers may screen explicitly (to capture the
        decisions) and still pass the accepted reports to
        :meth:`allocate`, which screens again as a no-op.
        """
        if self.quarantine is None:
            return None
        return self.quarantine.screen(neighborhood, reports)

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

        The report map is lowered once into a
        :class:`~repro.allocation.arrays.CompiledProblem` and solved by
        the allocator's columnar entry point (native for the greedy, the
        object bridge for the others); the begin slots are checked
        against the reported windows as one array mask, and only a
        failing mask runs :func:`~repro.core.types.validate_allocation`
        to name the offender.

        Raises:
            InvalidReportError: For a report from a household outside the
                neighborhood (the quarantine's ``unknown-household``).
        """
        if not pre_screened:
            screened = self.screen_reports(neighborhood, reports)
            if screened is not None:
                reports = screened.accepted
        compiled, result = self._allocate_columns(neighborhood, reports, rng)
        return result.to_result(compiled)

    def _allocate_columns(
        self,
        neighborhood: Neighborhood,
        reports: Mapping[HouseholdId, Report],
        rng: Optional[random.Random],
    ) -> Tuple[CompiledProblem, ColumnarAllocationResult]:
        """The array half of :meth:`allocate`: lower, solve, check.

        Returns the compiled report map (its ``win_start``/``win_end``/
        ``duration`` columns are the report windows, in map order) and
        the allocator's begin slots.
        """
        compiled = compile_reports(neighborhood, reports, self.pricing)
        result = self._solve(compiled, rng)
        starts = result.starts
        if bool(np.any(
            (starts < compiled.win_start)
            | (starts + compiled.duration > compiled.win_end)
        )):
            validate_allocation(dict(reports), result.to_result(compiled).allocation)
        return compiled, result

    def _solve(
        self, compiled: CompiledProblem, rng: Optional[random.Random]
    ) -> ColumnarAllocationResult:
        """Solve a compiled day, through the allocation cache when set."""
        rng = rng if rng is not None else random.Random(self._seed)
        if self.alloc_cache is not None:
            return self.alloc_cache.solve_columnar(
                self.allocator, compiled, self.pricing, rng
            )
        return self.allocator.solve_columnar(compiled, self.pricing, rng)

    def settle(
        self,
        neighborhood: Neighborhood,
        reports: Mapping[HouseholdId, Report],
        allocation: AllocationMap,
        consumption: ConsumptionMap,
    ) -> Settlement:
        """Bill a completed day (Eqs. 3-8).

        Each map is lowered to parallel arrays in one pass, the
        :func:`~repro.core.types.validate_allocation` and
        :func:`~repro.core.types.validate_consumption` conditions are
        checked as array masks (the scalar validators run only when a
        mask fails, so the exception names the same first offender), and
        the whole scoring chain runs in :meth:`settle_arrays`.

        Raises:
            IntervalError: When the allocation or consumption violates
                Section III, or the consumption lacks an allocated
                household.
        """
        settlement, _, _ = self._settle_columns(
            neighborhood, reports, allocation, consumption
        )
        return settlement.to_settlement()

    def _settle_columns(
        self,
        neighborhood: Neighborhood,
        reports: Mapping[HouseholdId, Report],
        allocation: AllocationMap,
        consumption: ConsumptionMap,
    ) -> Tuple[ColumnarSettlement, np.ndarray, np.ndarray]:
        """The array half of :meth:`settle`: lower, check, score.

        Returns the :class:`ColumnarSettlement` and the consumption begin
        and end columns it was scored from, row-aligned with its ``ids``
        (the allocated households, in neighborhood order).
        """
        types = neighborhood.households
        # Settle the allocated households only: under the quarantine's
        # `exclude` policy a dropped household has no s_i and no omega_i,
        # and Theorem 1 holds over any subset because Eq. 7 splits the
        # realized cost of exactly the households being billed.
        ids = [h for h in types if h in allocation]
        n = len(ids)
        households = [types[h] for h in ids]
        true_starts, true_ends, true_durations = _preference_columns(
            [hh.true_preference for hh in households]
        )
        alloc_starts, alloc_ends = _interval_columns([allocation[h] for h in ids])
        try:
            rep_starts, rep_ends, rep_durations = _preference_columns(
                [reports[h].preference for h in ids]
            )
            cons_starts, cons_ends = _interval_columns([consumption[h] for h in ids])
            valid = (
                len(reports) == len(allocation) == len(consumption) == n
                and bool(np.all(
                    (alloc_ends - alloc_starts == rep_durations)
                    & (rep_starts <= alloc_starts)
                    & (alloc_ends <= rep_ends)
                    & (cons_ends - cons_starts == true_durations)
                    & (true_starts <= cons_starts)
                    & (cons_ends <= true_ends)
                ))
            )
        except KeyError:
            valid = False
        if not valid:
            # The scalar validators raise on every malformed day but one:
            # consumption lacking an allocated household.  Past them, the
            # lowering above succeeded.
            validate_allocation(dict(reports), allocation)
            validate_consumption(types, consumption)
            missing = [h for h in ids if h not in consumption]
            if missing:
                raise IntervalError(f"consumption missing households: {missing}")

        settlement = self.settle_arrays(
            ids=tuple(ids),
            alloc_starts=alloc_starts,
            alloc_ends=alloc_ends,
            cons_starts=cons_starts,
            cons_ends=cons_ends,
            ratings=np.fromiter((hh.rating_kw for hh in households), float, count=n),
            rep_starts=rep_starts,
            rep_ends=rep_ends,
            rep_durations=rep_durations,
            true_starts=true_starts,
            true_ends=true_ends,
            true_durations=true_durations,
            factors=np.fromiter(
                (hh.valuation_factor for hh in households), float, count=n
            ),
        )
        return settlement, cons_starts, cons_ends

    def settle_arrays(
        self,
        ids: Sequence[HouseholdId],
        alloc_starts: np.ndarray,
        alloc_ends: np.ndarray,
        cons_starts: np.ndarray,
        cons_ends: np.ndarray,
        ratings: np.ndarray,
        rep_starts: np.ndarray,
        rep_ends: np.ndarray,
        rep_durations: np.ndarray,
        true_starts: np.ndarray,
        true_ends: np.ndarray,
        true_durations: np.ndarray,
        factors: np.ndarray,
    ) -> ColumnarSettlement:
        """The Eq. 3-8 scoring chain over parallel arrays.

        The array core shared by :meth:`settle` (which unpacks objects
        into these arrays) and the columnar day (which already has them);
        all inputs are row-aligned over the households being billed.
        """
        profile = LoadProfile.from_arrays(cons_starts, cons_ends, ratings)
        total_cost = self.pricing.cost(profile)

        # Eq. 4: realized flexibility — predicted score gated on compliance.
        followed = (alloc_starts == cons_starts) & (alloc_ends == cons_ends)
        flexibility_arr = np.where(
            followed, flexibility_vector(rep_starts, rep_ends, rep_durations), 0.0
        )
        # Eq. 5 / Eq. 6 / Eq. 7, all batched.
        defection_arr = defection_vector(
            alloc_starts, alloc_ends, cons_starts, cons_ends, ratings, self.pricing
        )
        social_arr = social_cost_vector(flexibility_arr, defection_arr, self.k)
        payments_arr = payments_vector(social_arr, total_cost, self.xi)

        # Eq. 3 against the *true* windows, and Eq. 8 utilities.
        tau = np.clip(
            np.minimum(alloc_ends, true_ends) - np.maximum(alloc_starts, true_starts),
            0,
            None,
        )
        valuations_arr = valuation_vector(tau, true_durations, factors)
        utilities_arr = valuations_arr - payments_arr
        overlaps_arr = np.clip(
            np.minimum(alloc_ends, cons_ends) - np.maximum(alloc_starts, cons_starts),
            0,
            None,
        ) / (alloc_ends - alloc_starts)

        return ColumnarSettlement(
            ids=id_vector(ids),
            total_cost=total_cost,
            flexibility=flexibility_arr,
            defection=defection_arr,
            social_cost=social_arr,
            payments=payments_arr,
            valuations=valuations_arr,
            utilities=utilities_arr,
            overlap_fractions=overlaps_arr,
            neighborhood_utility=float(payments_arr.sum()) - total_cost,
            load_profile=profile,
        )

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


    def run_day_columnar(
        self,
        neighborhood: ColumnarNeighborhood,
        reports: Optional[ColumnarReports] = None,
        rng: Optional[random.Random] = None,
    ) -> ColumnarDayOutcome:
        """Run one full day on the columnar path: allocate, consume, settle.

        The array counterpart of :meth:`run_day` with closest-feasible
        consumption: truthful reports when ``reports`` is omitted, screened
        like wire rows (see :meth:`run_day_columnar_raw`; typed rows pass a
        clean screen unchanged), and the whole Eq. 3-8 settlement batched.
        On a clean day no per-household object is built; with a sampled
        population's :class:`~repro.core.columnar.RowIds` that includes
        the id strings, none of which is ever spelled.
        """
        if reports is None:
            begin, end, duration = neighborhood.truthful_wire()
        else:
            if reports.ids != neighborhood.ids:
                raise ValueError("reports and neighborhood rows are not aligned")
            begin = reports.start.astype(float)
            end = reports.end.astype(float)
            duration = reports.duration.astype(float)
        return self._columnar_day(neighborhood, begin, end, duration, rng)

    def run_day_columnar_raw(
        self,
        neighborhood: ColumnarNeighborhood,
        begin: np.ndarray,
        end: np.ndarray,
        duration: Optional[np.ndarray] = None,
        rng: Optional[random.Random] = None,
    ) -> ColumnarDayOutcome:
        """Run a columnar day from *raw wire arrays* (possibly malformed).

        The service-layer ingestion entry point: ``begin``/``end`` (and
        optionally ``duration``, defaulting to the metered durations) are
        float arrays straight off the wire, aligned with
        ``neighborhood``'s rows — NaN, inverted, off-grid or non-integral
        values included.  With a quarantine configured they are screened
        first (repaired or dropped per policy, decisions recorded);
        without one the first malformed row raises
        :class:`~repro.robustness.errors.InvalidReportError` — the strict
        counterpart of the ``reject`` policy, with the same reasons.
        """
        return self._columnar_day(neighborhood, begin, end, duration, rng)

    def _columnar_day(
        self,
        neighborhood: ColumnarNeighborhood,
        begin: np.ndarray,
        end: np.ndarray,
        duration: Optional[np.ndarray],
        rng: Optional[random.Random],
    ) -> ColumnarDayOutcome:
        """The one columnar day: screen, allocate, consume, settle.

        Without a configured quarantine the rows are screened under
        ``reject``.  The screen leaves every report with its household's
        metered duration, so the blocks allocated are the blocks billed.
        """
        quarantine = self.quarantine
        if quarantine is None:
            quarantine = Quarantine("reject")
        screened = quarantine.screen_columnar(neighborhood, begin, end, duration)
        reports = screened.accepted
        neighborhood = neighborhood.take(screened.kept)
        result = self._solve(reports.compile(neighborhood, self.pricing), rng)

        v = neighborhood.duration
        alloc_starts = result.starts
        bad = (alloc_starts < reports.start) | (alloc_starts + v > reports.end)
        if bool(np.any(bad)):
            i = int(np.argmax(bad))
            raise IntervalError(
                f"allocation [{int(alloc_starts[i])}, "
                f"{int(alloc_starts[i] + v[i])}) for "
                f"{reports.ids[i]!r} violates report window "
                f"[{int(reports.start[i])}, {int(reports.end[i])})"
            )
        cons_starts = closest_feasible_starts(
            alloc_starts, neighborhood.true_start, neighborhood.true_end, v
        )
        settlement = self.settle_arrays(
            ids=neighborhood.ids,
            alloc_starts=alloc_starts,
            alloc_ends=alloc_starts + v,
            cons_starts=cons_starts,
            cons_ends=cons_starts + v,
            ratings=neighborhood.rating,
            rep_starts=reports.start,
            rep_ends=reports.end,
            rep_durations=reports.duration,
            true_starts=neighborhood.true_start,
            true_ends=neighborhood.true_end,
            true_durations=v,
            factors=neighborhood.valuation,
        )
        return ColumnarDayOutcome(
            neighborhood=neighborhood,
            reports=reports,
            allocation_result=result,
            consumption_starts=cons_starts,
            settlement=settlement,
            kept=screened.kept,
            quarantine_decisions=tuple(screened.decisions),
        )
