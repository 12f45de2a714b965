"""Equivalence suite: the object mechanism day on the array core.

``EnkiMechanism.allocate`` and ``settle`` lower their report, allocation
and consumption maps to arrays once and check Section III as array masks.
``tests/reference_object_day.py`` keeps the dict-walking day they replaced;
this suite runs ``run_day`` and a ``NeighborhoodSimulation`` day both ways
(the simulation serially and on two workers, whose days come back as
columns) and requires identical ``DayOutcome``s: every map with the same
keys in the same insertion order, every float with the same bits (compared
by ``float.hex``), and every ``AllocationResult`` field but ``wall_time_s``.

Ratings include non-binary ones (0.3/1.1/1.8/7.2 kW), whose load sums
round, so a change in summation order would show as a changed bit.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.behavior import MisreportBehavior
from repro.allocation.cache import AllocationCache
from repro.allocation.greedy import GreedyFlexibilityAllocator
from repro.allocation.local_search import LocalSearchAllocator
from repro.allocation.optimal import BranchAndBoundAllocator
from repro.core.intervals import Interval
from repro.core.mechanism import EnkiMechanism
from repro.core.types import HouseholdType, Neighborhood, Preference
from repro.experiments.ablation_ordering import ArrivalOrderGreedy
from repro.pricing.piecewise import TwoStepPricing
from repro.pricing.quadratic import QuadraticPricing
from repro.robustness.quarantine import Quarantine, RawReport
from repro.sim.engine import NeighborhoodSimulation, truthful_report_policy

from .outcome_assertions import assert_same_outcome, assert_same_outcomes
from .reference_object_day import ReferenceMechanism, closest_feasible_consumption

_EXACT_RATINGS = (0.5, 1.0, 2.0, 4.0)
_NON_BINARY_RATINGS = (0.3, 1.1, 1.8, 7.2)


# ------------------------------------------------------------------ policies

class Reporter:
    """Truthful or misreporting reports, with garbage under a quarantine.

    Misreporters shift or widen their window (the Theorem 2 deviation) and
    then defect back into their true window at consumption time.
    """

    def __init__(self, misreport: bool, malformed: bool) -> None:
        self.misreport = misreport
        self.malformed = malformed

    def __call__(self, day, household, rng):
        if self.malformed and rng.random() < 0.15:
            return RawReport(
                household.household_id,
                rng.choice((-3, 2.5, float("nan"), 30)),
                rng.choice((25, 4, None)),
                household.duration,
            )
        if self.misreport and rng.random() < 0.5:
            behavior = MisreportBehavior(
                shift=rng.choice((-3, -1, 2)), widen=rng.randint(0, 2)
            )
            return behavior.report(day, household, rng)
        return truthful_report_policy(day, household, rng)


def reference_consumption_policy(day, household, report, allocation, rng):
    """The engine's default consumption policy on the frozen helper."""
    true = household.true_preference
    return closest_feasible_consumption(true.window, true.duration, allocation)


# ---------------------------------------------------------------- strategies

@st.composite
def day_configs(draw):
    """A neighborhood plus every knob the object day has."""
    n = draw(st.integers(min_value=1, max_value=30))
    ratings = draw(st.sampled_from((_EXACT_RATINGS, _NON_BINARY_RATINGS)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    households = []
    for j in range(n):
        start = rng.randint(0, 18)
        length = rng.randint(2, min(10, 24 - start))
        households.append(
            HouseholdType(
                household_id=f"hh{j:03d}",
                true_preference=Preference(
                    Interval(start, start + length), rng.randint(1, length)
                ),
                valuation_factor=rng.choice((0.5, 1.0, 1.5, 2.0)),
                rating_kw=rng.choice(ratings),
            )
        )
    allocator = draw(st.sampled_from(("greedy", "arrival", "local-search", "bnb")))
    # The exact solver bounds quadratic prices only.
    if allocator == "bnb":
        pricing = "quadratic"
    else:
        pricing = draw(st.sampled_from(("quadratic", "two-step")))
    return {
        "neighborhood": Neighborhood.of(*households),
        "allocator": allocator,
        "pricing": pricing,
        "quarantine": draw(st.sampled_from((None, "clamp", "exclude"))),
        "misreport": draw(st.booleans()),
        "cache": draw(st.booleans()),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
    }


def _make_allocator(name):
    return {
        "greedy": lambda: GreedyFlexibilityAllocator(),
        "arrival": lambda: ArrivalOrderGreedy(),
        "local-search": lambda: LocalSearchAllocator(restarts=2, seed=3),
        "bnb": lambda: BranchAndBoundAllocator(time_limit_s=None, node_limit=200),
    }[name]()


def _make_mechanism(cls, config):
    pricing = {
        "quadratic": QuadraticPricing(sigma=0.3),
        "two-step": TwoStepPricing(threshold_kw=6.0, low_rate=1.0, high_rate=4.0),
    }[config["pricing"]]
    quarantine = config["quarantine"]
    return cls(
        pricing=pricing,
        allocator=_make_allocator(config["allocator"]),
        seed=config["seed"],
        quarantine=Quarantine(quarantine) if quarantine else None,
        alloc_cache=AllocationCache() if config["cache"] else None,
    )


# ---------------------------------------------------------------- comparison

def _outcome(run):
    """``run()``'s value, or the type and text of what it raised."""
    try:
        return run(), None
    except Exception as exc:  # compared, not swallowed: see _assert_same_run
        return None, (type(exc), str(exc))


def _assert_same_run(run_ours, run_reference):
    """Both runs return identical outcomes, or raise the same error.

    Under non-binary ratings the hill climber and the defection baseline
    can leave a -1e-16 residual load, which two-step pricing rejects;
    both days must then fail alike.
    """
    got, got_error = _outcome(run_ours)
    want, want_error = _outcome(run_reference)
    assert got_error == want_error
    if want_error is not None:
        return
    if isinstance(want, list):
        assert_same_outcomes(got, want)
    else:
        assert_same_outcome(got, want)


def _reports(config, day_seed):
    """One day's report map from the configured policy."""
    reporter = Reporter(config["misreport"], config["quarantine"] is not None)
    rng = random.Random(day_seed)
    return {
        hh.household_id: reporter(0, hh, rng) for hh in config["neighborhood"]
    }


# --------------------------------------------------------------------- tests

class TestObjectDayMatchesReference:
    @given(day_configs())
    @settings(max_examples=60, deadline=None)
    def test_run_day(self, config):
        ours = _make_mechanism(EnkiMechanism, config)
        reference = _make_mechanism(ReferenceMechanism, config)
        neighborhood = config["neighborhood"]
        reports = _reports(config, config["seed"])
        # The repeat replays the same day, so a configured cache hits.
        seed = config["seed"]
        for _ in range(2):
            _assert_same_run(
                lambda: ours.run_day(neighborhood, reports, rng=random.Random(seed)),
                lambda: reference.run_day(
                    neighborhood, reports, rng=random.Random(seed)
                ),
            )
        if config["cache"]:
            assert ours.alloc_cache.stats() == reference.alloc_cache.stats()

    @given(day_configs())
    @settings(max_examples=40, deadline=None)
    def test_simulation_day(self, config):
        """Serial days and days back from two workers match the reference.

        Each run gets fresh mechanisms: a cache's ``cache_hit`` provenance
        is per process, so a cache warmed by one run would differ.
        """
        reporter = Reporter(config["misreport"], config["quarantine"] is not None)
        neighborhood, seed = config["neighborhood"], config["seed"]
        for workers in (1, 2):
            ours = NeighborhoodSimulation(
                _make_mechanism(EnkiMechanism, config), report_policy=reporter
            )
            reference = NeighborhoodSimulation(
                _make_mechanism(ReferenceMechanism, config),
                report_policy=reporter,
                consumption_policy=reference_consumption_policy,
            )
            _assert_same_run(
                lambda: ours.run(neighborhood, 2, seed=seed, workers=workers),
                lambda: reference.run(neighborhood, 2, seed=seed),
            )


class TestConsumptionSharesAllocation:
    def test_followed_allocation_is_the_same_object(self):
        """A fitting allocation is followed by identity, not a copy."""
        household = HouseholdType("A", Preference.of(16, 24, 2), 1.0)
        mechanism = EnkiMechanism(seed=0)
        outcome = mechanism.run_day(Neighborhood.of(household))
        assert outcome.consumption["A"] is outcome.allocation["A"]

    def test_identity_survives_the_process_boundary(self):
        """A day rebuilt from its columns shares the followed interval too."""
        neighborhood = Neighborhood.of(
            HouseholdType("A", Preference.of(16, 24, 2), 1.0),
            HouseholdType("B", Preference.of(0, 10, 3), 1.5),
        )
        simulation = NeighborhoodSimulation(EnkiMechanism(seed=0))
        outcomes = simulation.run(neighborhood, 2, seed=7, workers=2)
        assert len(outcomes) == 2
        for outcome in outcomes:
            for hid in ("A", "B"):
                assert outcome.consumption[hid] is outcome.allocation[hid]
