"""Equivalence suite: the columnar fast path vs the object path.

The columnar day (``ColumnarNeighborhood`` → ``solve_columnar`` →
``settle_arrays``) must be a pure speedup of the per-household object
path: identical inputs produce bit-identical allocations, costs,
settlements, and quarantine decisions.  As in
``test_optimal_equivalence.py``, the randomized instances use power
ratings that are exact binary floats (the paper's 2 kW default among
them) so every load sum is exactly representable — the regime in which
the vectorized kernels are provably bit-identical to the scalar
arithmetic.  The greedy allocation itself goes further: both paths run
the same scalar placement sweep, so it matches for ratings whose sums
round too.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.arrays import CompiledProblem, compile_problem
from repro.allocation.base import AllocationItem, AllocationProblem
from repro.allocation.greedy import GreedyFlexibilityAllocator
from repro.allocation.optimal import BranchAndBoundAllocator
from repro.core.columnar import ColumnarNeighborhood, ColumnarReports, RowIds
from repro.core.intervals import Interval
from repro.core.mechanism import EnkiMechanism
from repro.core.types import HouseholdType, Neighborhood, Preference
from repro.pricing.base import PricingModel
from repro.pricing.piecewise import TwoStepPricing
from repro.pricing.quadratic import QuadraticPricing
from repro.robustness import ChaosInjector, ChaosPlan
from repro.robustness.errors import InvalidReportError
from repro.robustness.quarantine import Quarantine, RawReport
from repro.sim.engine import NeighborhoodSimulation, SocialWelfareStudy
from repro.sim.profiles import ColumnarProfiles, ProfileGenerator

#: Exactly-representable ratings (binary fractions), the paper's 2.0 among
#: them; keeps all load arithmetic exact so bit-identity is well-defined.
_EXACT_RATINGS = (0.5, 1.0, 2.0, 4.0)

#: Ratings whose load sums round.  The greedy paths share one placement
#: sweep, so their allocations and costs still match bit for bit.
_NON_BINARY_RATINGS = (0.3, 1.1, 1.8, 7.2)

_PRICINGS = (
    QuadraticPricing(sigma=0.3),
    TwoStepPricing(threshold_kw=6.0, low_rate=1.0, high_rate=4.0),
)


# ---------------------------------------------------------------- strategies

@st.composite
def allocation_problems(
    draw, max_households=200, quadratic_only=False, ratings=_EXACT_RATINGS
):
    """Random Eq. 2 instances up to the acceptance bound n = 200."""
    n = draw(st.integers(min_value=1, max_value=max_households))
    pricing = _PRICINGS[0] if quadratic_only else draw(st.sampled_from(_PRICINGS))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    items = []
    for j in range(n):
        start = rng.randint(0, 20)
        length = rng.randint(1, min(8, 24 - start))
        items.append(
            AllocationItem(
                household_id=f"hh{j:04d}",
                window=Interval(start, start + length),
                duration=rng.randint(1, length),
                rating_kw=rng.choice(ratings),
            )
        )
    return AllocationProblem(tuple(items), pricing)


@st.composite
def neighborhoods(draw, max_households=60):
    """Random neighborhoods with exact-binary ratings for full-day runs."""
    n = draw(st.integers(min_value=1, max_value=max_households))
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
                rating_kw=rng.choice(_EXACT_RATINGS),
            )
        )
    return Neighborhood.of(*households)


# ----------------------------------------------------- greedy kernel parity

class TestGreedyColumnarMatchesObject:
    @given(
        st.sampled_from((_EXACT_RATINGS, _NON_BINARY_RATINGS)).flatmap(
            lambda ratings: allocation_problems(ratings=ratings)
        ),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_same_allocation_and_cost(self, problem, seed):
        allocator = GreedyFlexibilityAllocator()
        obj = allocator.solve(problem, random.Random(seed))
        compiled = compile_problem(problem)
        col = allocator.solve_columnar(
            compiled, problem.pricing, random.Random(seed)
        )
        for row, hid in enumerate(compiled.ids):
            assert int(col.starts[row]) == obj.allocation[hid].start
        assert col.cost == obj.cost

    @given(allocation_problems(max_households=12, quadratic_only=True),
           st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=15, deadline=None)
    def test_bridge_allocator_matches_object(self, problem, seed):
        """The default solve_columnar bridge (used by B&B) is faithful."""
        # No time limit: a budgeted solve's proven_optimal verdict is
        # wall-clock-dependent, which hypothesis rightly flags as flaky.
        allocator = BranchAndBoundAllocator(time_limit_s=None, seed=1)
        obj = allocator.solve(problem, random.Random(seed))
        compiled = compile_problem(problem)
        col = allocator.solve_columnar(
            compiled, problem.pricing, random.Random(seed)
        )
        for row, hid in enumerate(compiled.ids):
            assert int(col.starts[row]) == obj.allocation[hid].start
        assert col.cost == obj.cost
        assert col.proven_optimal == obj.proven_optimal

    def test_empty_problem(self):
        compiled = CompiledProblem.from_arrays((), [], [], [], [])
        result = GreedyFlexibilityAllocator().solve_columnar(
            compiled, QuadraticPricing(sigma=0.3), random.Random(0)
        )
        assert result.starts.size == 0
        assert result.cost == 0.0


class TestOrderHook:
    """Every greedy path orders rows through the one ``_order`` hook."""

    @given(
        allocation_problems(max_households=80, ratings=_NON_BINARY_RATINGS),
        st.integers(min_value=0, max_value=2**16),
        st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_base_hook_is_the_sorted_key_order(self, problem, seed, ascending):
        """Same order and same draws as a ``sorted`` (score, tie key) key."""
        from repro.core.flexibility import flexibility_vector

        compiled = compile_problem(problem)
        hook_rng, key_rng = random.Random(seed), random.Random(seed)
        order = GreedyFlexibilityAllocator(ascending=ascending)._order(
            compiled, hook_rng
        )
        scores = flexibility_vector(
            compiled.win_start, compiled.win_end, compiled.duration
        ).tolist()
        if not ascending:
            scores = [-score for score in scores]
        expected = sorted(
            range(len(scores)), key=lambda i: (scores[i], key_rng.random())
        )
        assert order.tolist() == expected
        assert hook_rng.getstate() == key_rng.getstate()

    @given(
        st.sampled_from((_EXACT_RATINGS, _NON_BINARY_RATINGS)).flatmap(
            lambda ratings: allocation_problems(max_households=60, ratings=ratings)
        ),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_arrival_order_columnar_matches_object(self, problem, seed):
        from repro.experiments.ablation_ordering import ArrivalOrderGreedy

        allocator = ArrivalOrderGreedy()
        obj = allocator.solve(problem, random.Random(seed))
        compiled = compile_problem(problem)
        col = allocator.solve_columnar(compiled, problem.pricing, random.Random(seed))
        for row, hid in enumerate(compiled.ids):
            assert int(col.starts[row]) == obj.allocation[hid].start
        assert col.cost == obj.cost
        assert list(col.to_result(compiled).allocation) == list(obj.allocation)

    def test_ordering_variants_have_distinct_cache_tokens(self):
        from repro.experiments.ablation_ordering import (
            ArrivalOrderGreedy,
            DescendingFlexibilityGreedy,
        )

        tokens = {
            GreedyFlexibilityAllocator().cache_token(),
            ArrivalOrderGreedy().cache_token(),
            DescendingFlexibilityGreedy().cache_token(),
        }
        assert len(tokens) == 3
        assert GreedyFlexibilityAllocator().cache_token() == (
            "enki-greedy:asc=True:seed=None"
        )


# ------------------------------------------------------- full-day settlement

class TestDayColumnarMatchesObject:
    @given(neighborhoods(), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_full_day_bit_identical(self, neighborhood, seed):
        mechanism = EnkiMechanism(seed=7)
        obj = mechanism.run_day(neighborhood, rng=random.Random(seed))
        cols = ColumnarNeighborhood.from_objects(neighborhood)
        col = mechanism.run_day_columnar(cols, rng=random.Random(seed))

        settlement = col.settlement.to_settlement()
        assert settlement.total_cost == obj.settlement.total_cost
        assert settlement.payments == obj.settlement.payments
        assert settlement.utilities == obj.settlement.utilities
        assert settlement.flexibility == obj.settlement.flexibility
        assert settlement.neighborhood_utility == (
            obj.settlement.neighborhood_utility
        )
        assert settlement.load_profile == obj.settlement.load_profile
        for row, hid in enumerate(col.neighborhood.ids):
            assert int(col.allocation_starts[row]) == (
                obj.allocation_result.allocation[hid].start
            )
            assert int(col.consumption_starts[row]) == obj.consumption[hid].start

    @given(neighborhoods(), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_theorem1_budget_balance(self, neighborhood, seed):
        """Thm 1 (weak budget balance) holds on the columnar path."""
        mechanism = EnkiMechanism(seed=7)
        cols = ColumnarNeighborhood.from_objects(neighborhood)
        outcome = mechanism.run_day_columnar(cols, rng=random.Random(seed))
        settlement = outcome.settlement
        assert float(settlement.payments.sum()) >= settlement.total_cost - 1e-9
        assert settlement.neighborhood_utility >= -1e-9


# --------------------------------------------------------- quarantine parity

def _raw_reports(neighborhood, begin, end, duration):
    return {
        hid: RawReport(hid, float(b), float(e), float(v))
        for hid, b, e, v in zip(neighborhood.ids, begin, end, duration)
    }


class TestQuarantineColumnarParity:
    def _fixture(self):
        rng = np.random.default_rng(3)
        cols = ProfileGenerator().sample_population_columnar(rng, 12)
        neighborhood = cols.to_neighborhood("wide")
        begin = neighborhood.true_start.astype(float)
        end = neighborhood.true_end.astype(float)
        duration = neighborhood.duration.astype(float)
        # Corrupt three rows in three distinct ways.
        begin[2] = -4.0                    # window escapes the day
        duration[5] = duration[5] + 1.0    # duration disputes the meter
        end[8] = begin[8]                  # empty window
        return neighborhood, begin, end, duration

    @pytest.mark.parametrize("policy", ["clamp", "exclude"])
    def test_decisions_match_object_screen(self, policy):
        neighborhood, begin, end, duration = self._fixture()
        col = Quarantine(policy).screen_columnar(
            neighborhood, begin, end, duration
        )
        obj = Quarantine(policy).screen(
            neighborhood.to_objects(),
            _raw_reports(neighborhood, begin, end, duration),
        )
        assert {d.household_id for d in col.decisions} == {
            d.household_id for d in obj.decisions
        }
        by_id = {d.household_id: d for d in obj.decisions}
        for decision in col.decisions:
            other = by_id[decision.household_id]
            assert decision.action == other.action
            assert decision.reason == other.reason
            assert decision.repaired == other.repaired
        assert col.excluded == obj.excluded
        accepted = col.accepted.to_objects()
        for hid, report in obj.accepted.items():
            assert accepted[hid].preference == report.preference

    def test_reject_raises_like_object_screen(self):
        neighborhood, begin, end, duration = self._fixture()
        with pytest.raises(InvalidReportError):
            Quarantine("reject").screen_columnar(
                neighborhood, begin, end, duration
            )

    def test_clean_reports_pass_through(self):
        neighborhood, *_ = self._fixture()
        reports = ColumnarReports.truthful(neighborhood)
        result = Quarantine("clamp").screen_columnar(
            neighborhood,
            reports.start.astype(float),
            reports.end.astype(float),
            reports.duration.astype(float),
        )
        assert result.n_quarantined == 0
        assert bool(result.kept.all())
        assert result.accepted.ids == neighborhood.ids

    def test_non_finite_rows_are_screened(self):
        neighborhood, begin, end, duration = self._fixture()
        begin[0] = float("nan")
        end[1] = float("inf")
        result = Quarantine("exclude").screen_columnar(
            neighborhood, begin, end, duration
        )
        flagged = {d.household_id for d in result.decisions}
        assert neighborhood.ids[0] in flagged
        assert neighborhood.ids[1] in flagged


class TestStrictColumnarDay:
    """Without a quarantine, a malformed wire row raises as ``reject`` does."""

    @pytest.mark.parametrize(
        "reason, column, value",
        [
            ("duration-mismatch", 2, 3.0),  # metered duration is 2
            ("inverted-window", 1, 19.0),   # window starts at 20
            ("out-of-grid", 1, 25.0),
        ],
    )
    def test_malformed_row_raises_the_reject_reason(self, reason, column, value):
        neighborhood = ProfileGenerator().sample_population_columnar(
            np.random.default_rng(1), 6
        ).to_neighborhood("wide")
        wire = list(neighborhood.truthful_wire())
        wire[column][0] = value
        with pytest.raises(InvalidReportError) as strict:
            EnkiMechanism(seed=1).run_day_columnar_raw(
                neighborhood, *wire, rng=random.Random(0)
            )
        with pytest.raises(InvalidReportError) as rejected:
            Quarantine("reject").screen_columnar(neighborhood, *wire)
        assert strict.value.reason == rejected.value.reason == reason


# --------------------------------------------------------- sampler + bridges

class TestColumnarSampler:
    def test_invariants_and_determinism(self):
        generator = ProfileGenerator()
        a = generator.sample_population_columnar(np.random.default_rng(5), 500)
        b = generator.sample_population_columnar(np.random.default_rng(5), 500)
        assert a.ids == b.ids
        for name in ("narrow_start", "narrow_end", "wide_start", "wide_end",
                     "duration", "rating", "valuation"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.all(a.narrow_start >= 0)
        assert np.all(a.wide_end <= 24)
        assert np.all(a.wide_start <= a.narrow_start)
        assert np.all(a.narrow_end <= a.wide_end)
        assert np.all(a.narrow_end - a.narrow_start >= a.duration)
        assert np.all(a.duration >= 1)

    def test_ids_are_one_recipe_per_prefix_and_size(self):
        generator = ProfileGenerator()

        def ids(seed, size, prefix="hh"):
            return generator.sample_population_columnar(
                np.random.default_rng(seed), size, id_prefix=prefix
            ).ids

        first = ids(1, 50)
        assert isinstance(first, RowIds)
        assert (first.prefix, first.width, first.rows) == ("hh", 2, range(50))
        assert ids(2, 50) == first
        assert ids(3, 50, prefix="s1-hh") != first
        assert ids(4, 51) != first

    def test_round_trip_through_objects(self):
        generator = ProfileGenerator()
        cols = generator.sample_population_columnar(np.random.default_rng(9), 40)
        back = ColumnarProfiles.from_profiles(cols.to_profiles())
        assert back.ids == cols.ids
        assert np.array_equal(back.duration, cols.duration)
        assert np.array_equal(back.wide_start, cols.wide_start)
        assert np.array_equal(back.valuation, cols.valuation)

    def test_neighborhood_round_trip(self):
        cols = ProfileGenerator().sample_population_columnar(
            np.random.default_rng(2), 25
        )
        neighborhood = cols.to_neighborhood("wide")
        rebuilt = ColumnarNeighborhood.from_objects(neighborhood.to_objects())
        assert rebuilt.ids == neighborhood.ids
        assert np.array_equal(rebuilt.true_start, neighborhood.true_start)
        assert np.array_equal(rebuilt.rating, neighborhood.rating)
        assert np.array_equal(rebuilt.valuation, neighborhood.valuation)


# -------------------------------------------------- pricing batch marginals

class _ScalarOnlyPricing(PricingModel):
    """Exercises the default (fromiter) marginal_cost_batch fallback."""

    def hourly_cost(self, load_kw):
        return 2.0 * load_kw

    def cost(self, profile):
        return sum(self.hourly_cost(l) for l in profile.hourly_kw)

    def marginal_cost(self, load_kw, added_kw):
        return self.hourly_cost(load_kw + added_kw) - self.hourly_cost(load_kw)


class TestMarginalCostBatch:
    @pytest.mark.parametrize(
        "pricing", [*_PRICINGS, _ScalarOnlyPricing()],
        ids=["quadratic", "two-step", "scalar-fallback"],
    )
    def test_matches_scalar_elementwise(self, pricing):
        rng = np.random.default_rng(11)
        loads = rng.integers(0, 12, size=64).astype(float) * 0.5
        for added in (0.5, 1.0, 2.0, 4.0):
            batch = pricing.marginal_cost_batch(loads, added)
            for load, value in zip(loads.tolist(), batch.tolist()):
                assert value == pricing.marginal_cost(load, added)


# ----------------------------------------------------------- study-level runs

def _columnar_study_key(records):
    return [
        (r.day, r.n_households, r.allocator, r.par, r.cost, r.served_tier)
        for r in records
    ]


class TestColumnarStudy:
    def test_workers_do_not_change_results(self):
        study = SocialWelfareStudy(
            [GreedyFlexibilityAllocator()], columnar=True
        )
        serial = study.run(30, 4, seed=123, workers=1)
        fanned = study.run(30, 4, seed=123, workers=4)
        assert _columnar_study_key(serial) == _columnar_study_key(fanned)

    def test_quarantined_columnar_study_runs(self):
        study = SocialWelfareStudy(
            [GreedyFlexibilityAllocator()],
            quarantine=Quarantine("clamp"),
            columnar=True,
        )
        records = study.run(15, 2, seed=5)
        assert len(records) == 2
        assert all(r.n_households == 15 for r in records)

    def test_malformed_chaos_rejected_at_init(self, tmp_path):
        plan = ChaosPlan(root=1, malformed_days=frozenset({0}))
        injector = ChaosInjector(plan, fault_dir=str(tmp_path))
        with pytest.raises(ValueError, match="columnar"):
            SocialWelfareStudy(
                [GreedyFlexibilityAllocator()],
                quarantine=Quarantine("clamp"),
                columnar=True,
                chaos=injector,
            )


@pytest.mark.chaos
class TestColumnarChaos:
    """Injected worker crashes leave the columnar study bit-identical."""

    def test_crash_days_recover_bit_identically(self, tmp_path):
        plan = ChaosPlan(root=77, crash_days=frozenset({1, 4}))
        injector = ChaosInjector(plan, fault_dir=str(tmp_path / "faults"))
        chaotic = SocialWelfareStudy(
            [GreedyFlexibilityAllocator()], columnar=True, chaos=injector
        ).run(12, 6, seed=2024, workers=4)
        clean = SocialWelfareStudy(
            [GreedyFlexibilityAllocator()], columnar=True
        ).run(12, 6, seed=2024, workers=1)
        assert _columnar_study_key(chaotic) == _columnar_study_key(clean)


def _sim_outcome_key(outcomes):
    """Everything a ColumnarDayOutcome decides, minus wall-clock time."""
    return [
        (
            o.allocation_starts.tolist(),
            o.consumption_starts.tolist(),
            o.settlement.ids,
            o.settlement.total_cost,
            o.settlement.payments.tolist(),
        )
        for o in outcomes
    ]


def _wide_columnar_neighborhood(n, seed):
    cols = ProfileGenerator().sample_population_columnar(
        np.random.default_rng(seed), n
    )
    return cols.to_neighborhood("wide")


class TestSharedMemoryEquivalence:
    """A run fanned out to workers settles the same bits as a serial run."""

    def test_shm_workers4_matches_pickle_serial(self):
        neighborhood = _wide_columnar_neighborhood(35, seed=9)
        simulation = NeighborhoodSimulation(EnkiMechanism(seed=1), columnar=True)
        serial = simulation.run(neighborhood, days=4, seed=321, workers=1)
        fanned = simulation.run(neighborhood, days=4, seed=321, workers=4)
        assert _sim_outcome_key(serial) == _sim_outcome_key(fanned)


@pytest.mark.chaos
class TestSharedMemoryChaos:
    """A fanned-out columnar run recovers SIGKILLed workers exactly."""

    def test_killed_workers_leak_no_segments(self, tmp_path):
        plan = ChaosPlan(root=31, crash_days=frozenset({0, 2}))
        injector = ChaosInjector(plan, fault_dir=str(tmp_path / "faults"))
        neighborhood = _wide_columnar_neighborhood(30, seed=13)
        chaotic = NeighborhoodSimulation(
            EnkiMechanism(seed=1), chaos=injector, columnar=True
        ).run(neighborhood, days=5, seed=99, workers=4)
        clean = NeighborhoodSimulation(
            EnkiMechanism(seed=1), columnar=True
        ).run(neighborhood, days=5, seed=99, workers=1)
        # Crashed-and-retried days converge to the clean serial outcomes.
        assert _sim_outcome_key(chaotic) == _sim_outcome_key(clean)
