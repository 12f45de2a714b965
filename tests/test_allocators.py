"""Unit tests for the allocator family (greedy, exact, local search, ...)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.base import AllocationItem, AllocationProblem
from repro.allocation.exhaustive import ExhaustiveAllocator
from repro.allocation.arrays import CompiledProblem, compile_problem
from repro.allocation.greedy import (
    GreedyFlexibilityAllocator,
    _tie_keys,
    predicted_flexibility_for_problem,
)
from repro.allocation.local_search import LocalSearchAllocator, improve_allocation
from repro.allocation.optimal import BranchAndBoundAllocator
from repro.allocation.random_alloc import EarliestAllocator, RandomAllocator
from repro.core.columnar import ColumnarReports
from repro.core.flexibility import class_flexibility, flexibility_vector
from repro.core.intervals import HOURS_PER_DAY, Interval
from repro.core.mechanism import truthful_reports
from repro.core.types import HouseholdType, Neighborhood, Preference
from repro.pricing.piecewise import TwoStepPricing
from repro.pricing.quadratic import QuadraticPricing
from repro.sim.profiles import ProfileGenerator, neighborhood_from_profiles


def _example3_problem(pricing):
    neighborhood = Neighborhood.of(
        HouseholdType("A", Preference.of(16, 18, 2), 5.0),
        HouseholdType("B", Preference.of(18, 21, 2), 5.0),
        HouseholdType("C", Preference.of(18, 21, 2), 5.0),
    )
    return AllocationProblem.from_reports(
        truthful_reports(neighborhood), neighborhood.households, pricing
    )


def _random_problem(pricing, n=8, seed=11):
    generator = ProfileGenerator()
    profiles = generator.sample_population(np.random.default_rng(seed), n)
    neighborhood = neighborhood_from_profiles(profiles, "wide")
    return AllocationProblem.from_reports(
        truthful_reports(neighborhood), neighborhood.households, pricing
    )


class TestGreedy:
    def test_example3_reproduces_paper(self, pricing):
        problem = _example3_problem(pricing)
        result = GreedyFlexibilityAllocator(seed=0).solve(problem)
        allocation = result.allocation
        # A always gets its only placement; B and C split (18,20)/(19,21).
        assert allocation["A"] == Interval(16, 18)
        assert {allocation["B"], allocation["C"]} == {
            Interval(18, 20),
            Interval(19, 21),
        }

    def test_processes_least_flexible_first(self, pricing):
        problem = _example3_problem(pricing)
        flexibility = predicted_flexibility_for_problem(problem)
        assert flexibility["A"] > flexibility["B"] == pytest.approx(flexibility["C"])

    def test_feasible_on_random_instances(self, pricing):
        problem = _random_problem(pricing)
        result = GreedyFlexibilityAllocator(seed=1).solve(problem)
        assert problem.is_feasible(result.allocation)
        assert result.cost == pytest.approx(problem.cost(result.allocation))

    def test_nonquadratic_pricing_fallback(self):
        pricing = TwoStepPricing(threshold_kw=4.0, low_rate=1.0, high_rate=10.0)
        problem = _random_problem(pricing, n=5)
        result = GreedyFlexibilityAllocator(seed=1).solve(problem)
        assert problem.is_feasible(result.allocation)

    def test_descending_order_usually_worse_or_equal(self, pricing):
        problem = _random_problem(pricing, n=10, seed=3)
        asc = GreedyFlexibilityAllocator(ascending=True, seed=0).solve(problem)
        desc = GreedyFlexibilityAllocator(ascending=False, seed=0).solve(problem)
        # Not a theorem, but holds on this fixed instance and guards the
        # ordering ablation's expected direction.
        assert asc.cost <= desc.cost + 1e-9


class TestTieKeys:
    @pytest.mark.parametrize("n", [0, 1, 7, 200, 100_000])
    def test_one_draw_equals_per_call_draws(self, n):
        drawn, reference = random.Random(n + 41), random.Random(n + 41)
        keys = _tie_keys(drawn, n)
        expected = np.array([reference.random() for _ in range(n)], dtype=float)
        assert keys.dtype == np.float64
        assert np.array_equal(keys, expected)
        # The generator is left where n random() calls leave it.
        assert drawn.random() == reference.random()

    def test_random_subclass_still_drives_the_order(self, pricing):
        class Reversed(random.Random):
            """Tie keys that flip the base generator's order."""

            def random(self):
                return 1.0 - super().random()

        compiled = compile_problem(_random_problem(pricing, n=40, seed=5))
        n = len(compiled)
        flex = flexibility_vector(
            compiled.win_start, compiled.win_end, compiled.duration
        )
        flipped = 1.0 - _tie_keys(random.Random(9), n)
        allocator = GreedyFlexibilityAllocator()
        order = allocator._rows_in_order(compiled, Reversed(9))
        assert np.array_equal(order, np.lexsort((flipped, flex)))
        # The instance has ties, so the subclass's keys changed the order.
        assert not np.array_equal(
            order, allocator._rows_in_order(compiled, random.Random(9))
        )


def _day(rows):
    """A compiled day of ``(win_start, win_end, duration)`` rows, 2 kW each."""
    columns = np.array(rows, dtype=np.intp).reshape(-1, 3).T
    return CompiledProblem.from_arrays(
        [f"hh{i}" for i in range(columns.shape[1])],
        *columns,
        np.full(columns.shape[1], 2.0),
    )


def _lexsort_order(compiled, keys, ascending):
    """The processing order's oracle: a two-key lexsort on per-row Eq. 4."""
    flex = flexibility_vector(compiled.win_start, compiled.win_end, compiled.duration)
    return np.lexsort((keys, flex if ascending else -flex))


@st.composite
def _class_rows(draw):
    start = draw(st.integers(0, HOURS_PER_DAY - 1))
    end = draw(st.integers(start + 1, HOURS_PER_DAY))
    return start, end, draw(st.integers(1, end - start))


class TestProcessingOrder:
    """``_order`` is the two-key lexsort over (flexibility, tie key)."""

    @given(
        st.lists(_class_rows(), min_size=1, max_size=40).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), max_size=300)
        ),
        st.integers(0, 2**32),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_lexsort(self, rows, seed, ascending):
        compiled = _day(rows)
        rng, reference = random.Random(seed), random.Random(seed)
        order = GreedyFlexibilityAllocator(ascending=ascending)._rows_in_order(
            compiled, rng
        )
        expected = _lexsort_order(compiled, _tie_keys(reference, len(rows)), ascending)
        assert np.array_equal(order, expected)
        assert rng.getstate() == reference.getstate()
        # Each class's score is its rows' per-row Eq. 4 value, bit for bit.
        codes, classes, scores = class_flexibility(
            compiled.win_start, compiled.win_end, compiled.duration
        )
        flex = flexibility_vector(
            compiled.win_start, compiled.win_end, compiled.duration
        )
        assert np.array_equal(scores[np.searchsorted(classes, codes)], flex)

    @pytest.mark.parametrize("ascending", [True, False])
    def test_mirrored_classes_interleave_by_key(self, ascending):
        # Mirror-image windows over a symmetric coverage score alike, so
        # their rows share a rank and are ordered by tie key alone.
        compiled = _day([(0, 4, 2)] * 30 + [(20, 24, 2)] * 30)
        flex = flexibility_vector(
            compiled.win_start, compiled.win_end, compiled.duration
        )
        assert flex[0] == flex[-1]
        order = GreedyFlexibilityAllocator(ascending=ascending)._rows_in_order(
            compiled, random.Random(4)
        )
        keys = _tie_keys(random.Random(4), 60)
        assert np.array_equal(order, np.argsort(keys))
        assert np.count_nonzero(np.diff(order >= 30)) > 1

    @pytest.mark.parametrize("ascending", [True, False])
    def test_duplicate_keys_keep_row_order(self, ascending):
        class Rounded(random.Random):
            """Tie keys on a 0.01 grid: thousands of equal keys."""

            def random(self):
                return round(super().random(), 2)

        n = 5_000
        cols = ProfileGenerator().sample_population_columnar(
            np.random.default_rng(3), n
        )
        neighborhood = cols.to_neighborhood("wide")
        compiled = ColumnarReports.truthful(neighborhood).compile(
            neighborhood, QuadraticPricing()
        )
        codes, classes, scores = class_flexibility(
            compiled.win_start, compiled.win_end, compiled.duration
        )
        # 366 classes carry 363 distinct values, so rows of different
        # classes interleave by key.
        assert len(np.unique(scores)) < len(classes)
        keys = _tie_keys(Rounded(8), n)
        assert len(np.unique(keys)) < n
        order = GreedyFlexibilityAllocator(ascending=ascending)._rows_in_order(
            compiled, Rounded(8)
        )
        assert np.array_equal(order, _lexsort_order(compiled, keys, ascending))

    def test_one_equal_pair_per_key_keeps_row_order(self):
        class Paired(random.Random):
            """Row k and row k + 200 draw the same key; no key thrice."""

            def __init__(self, seed):
                super().__init__(seed)
                draw = super().random
                half = [draw() for _ in range(200)]
                self._keys = iter(half + half)

            def random(self):
                return next(self._keys)

        compiled = _day([(4, 20, 5)] * 400)
        order = GreedyFlexibilityAllocator()._rows_in_order(compiled, Paired(6))
        keys = _tie_keys(Paired(6), 400)
        assert np.array_equal(order, _lexsort_order(compiled, keys, True))
        assert np.all(order[0::2] < 200) and np.all(order[1::2] >= 200)

    @pytest.mark.parametrize(
        "rows",
        [
            [(6, 18, 3)] * 50,
            [(0, 24, 24)] * 7,
            [(0, 24, 24)] * 5 + [(23, 24, 1)] * 5 + [(0, 1, 1)] * 3,
        ],
        ids=["one-class", "full-day", "full-day-and-edges"],
    )
    def test_edge_days(self, rows):
        compiled = _day(rows)
        keys = _tie_keys(random.Random(12), len(rows))
        for ascending in (True, False):
            order = GreedyFlexibilityAllocator(ascending=ascending)._rows_in_order(
                compiled, random.Random(12)
            )
            assert np.array_equal(order, _lexsort_order(compiled, keys, ascending))


class TestExhaustive:
    def test_matches_manual_small_case(self, pricing):
        problem = _example3_problem(pricing)
        result = ExhaustiveAllocator().solve(problem)
        assert result.proven_optimal
        # Optimal: A(16,18); B and C need 4 block-hours within the 3 slots
        # (18,21), so exactly one hour stacks to 4 kW:
        # 0.3 * (4 + 4 + 4 + 16 + 4) = 9.6.
        assert result.cost == pytest.approx(9.6)

    def test_space_limit_enforced(self, pricing):
        problem = _random_problem(pricing, n=8)
        tiny = ExhaustiveAllocator(space_limit=2)
        with pytest.raises(ValueError):
            tiny.solve(problem)

    def test_empty_problem(self, pricing):
        problem = AllocationProblem(items=(), pricing=pricing)
        result = ExhaustiveAllocator().solve(problem)
        assert result.allocation == {}
        assert result.proven_optimal


class TestBranchAndBound:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_exhaustive(self, pricing, seed):
        problem = _random_problem(pricing, n=6, seed=seed)
        if problem.search_space_size() > 200_000:
            pytest.skip("instance too large for exhaustive reference")
        exact = BranchAndBoundAllocator(seed=0).solve(problem)
        reference = ExhaustiveAllocator().solve(problem)
        assert exact.proven_optimal
        assert exact.cost == pytest.approx(reference.cost)

    def test_never_worse_than_greedy(self, pricing):
        problem = _random_problem(pricing, n=12, seed=9)
        exact = BranchAndBoundAllocator(time_limit_s=20.0, seed=0).solve(problem)
        greedy = GreedyFlexibilityAllocator(seed=0).solve(problem)
        assert exact.cost <= greedy.cost + 1e-9

    def test_node_limit_returns_incumbent(self, pricing):
        problem = _random_problem(pricing, n=12, seed=10)
        limited = BranchAndBoundAllocator(node_limit=1, warm_start=True, seed=0)
        result = limited.solve(problem)
        assert problem.is_feasible(result.allocation)

    def test_gap_mode_completes(self, pricing):
        problem = _random_problem(pricing, n=10, seed=12)
        result = BranchAndBoundAllocator(gap=0.05, time_limit_s=20.0, seed=0).solve(
            problem
        )
        assert problem.is_feasible(result.allocation)

    def test_rejects_nonquadratic_pricing(self):
        pricing = TwoStepPricing(threshold_kw=4.0, low_rate=1.0, high_rate=10.0)
        problem = _random_problem(pricing, n=4)
        with pytest.raises(TypeError):
            BranchAndBoundAllocator().solve(problem)

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            BranchAndBoundAllocator(time_limit_s=0.0)
        with pytest.raises(ValueError):
            BranchAndBoundAllocator(node_limit=0)
        with pytest.raises(ValueError):
            BranchAndBoundAllocator(gap=1.0)

    def test_heterogeneous_ratings_supported(self, pricing):
        neighborhood = Neighborhood.of(
            HouseholdType("A", Preference.of(16, 20, 2), 5.0, rating_kw=1.0),
            HouseholdType("B", Preference.of(17, 21, 2), 5.0, rating_kw=3.0),
            HouseholdType("C", Preference.of(18, 22, 2), 5.0, rating_kw=2.0),
        )
        problem = AllocationProblem.from_reports(
            truthful_reports(neighborhood), neighborhood.households, pricing
        )
        exact = BranchAndBoundAllocator(seed=0).solve(problem)
        reference = ExhaustiveAllocator().solve(problem)
        assert exact.proven_optimal
        assert exact.cost == pytest.approx(reference.cost)


class TestLocalSearch:
    def test_improves_random_start(self, pricing, rng):
        problem = _random_problem(pricing, n=10, seed=2)
        start = RandomAllocator(seed=5).solve(problem)
        improved = improve_allocation(problem, start.allocation, rng)
        assert problem.cost(improved) <= start.cost + 1e-9
        assert problem.is_feasible(improved)

    def test_allocator_not_worse_than_greedy(self, pricing):
        problem = _random_problem(pricing, n=10, seed=4)
        local = LocalSearchAllocator(restarts=2, seed=0).solve(problem)
        greedy = GreedyFlexibilityAllocator(seed=0).solve(problem)
        assert local.cost <= greedy.cost + 1e-9

    def test_restart_validation(self):
        with pytest.raises(ValueError):
            LocalSearchAllocator(restarts=0)

    def test_two_step_survives_residual_load(self):
        """Lifting 7.2 kW off 7.2 + 0.1 leaves -3.6e-16 kW under the
        0.1 kW block; two-step pricing must read it as zero, not raise."""
        items = (
            AllocationItem("h0", Interval(0, 4), 2, 7.2),
            AllocationItem("h1", Interval(0, 1), 1, 0.1),
        )
        problem = AllocationProblem(items, TwoStepPricing(6.0, 0.1, 0.5))
        result = LocalSearchAllocator().solve(problem, random.Random(0))
        assert problem.is_feasible(result.allocation)


class TestBaselines:
    def test_random_feasible(self, pricing):
        problem = _random_problem(pricing)
        result = RandomAllocator(seed=3).solve(problem)
        assert problem.is_feasible(result.allocation)

    def test_earliest_puts_everyone_at_window_start(self, pricing):
        problem = _random_problem(pricing, n=5)
        result = EarliestAllocator().solve(problem)
        for item in problem.items:
            assert result.allocation[item.household_id].start == item.window.start
