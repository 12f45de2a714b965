"""Property-based tests (hypothesis) for core invariants."""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.allocation.base import AllocationProblem
from repro.allocation.exhaustive import ExhaustiveAllocator
from repro.allocation.greedy import GreedyFlexibilityAllocator
from repro.allocation.optimal import BranchAndBoundAllocator
from repro.allocation.relaxation import quadratic_waterfill_bound, waterfill_levels
from repro.core.intervals import Interval
from repro.core.mechanism import EnkiMechanism, truthful_reports
from repro.core.payments import payments
from repro.core.social_cost import social_cost_scores
from repro.core.types import HouseholdType, Neighborhood, Preference
from repro.core.valuation import valuation
from repro.pricing.quadratic import QuadraticPricing
from repro.stats.mannwhitney import mann_whitney_u


# ---------------------------------------------------------------- strategies

@st.composite
def intervals(draw):
    start = draw(st.integers(min_value=0, max_value=23))
    end = draw(st.integers(min_value=start, max_value=24))
    return Interval(start, end)


@st.composite
def preferences(draw):
    duration = draw(st.integers(min_value=1, max_value=4))
    start = draw(st.integers(min_value=0, max_value=24 - duration))
    end = draw(st.integers(min_value=start + duration, max_value=24))
    return Preference(Interval(start, end), duration)


@st.composite
def neighborhoods(draw, max_size=6):
    size = draw(st.integers(min_value=1, max_value=max_size))
    households = []
    for index in range(size):
        pref = draw(preferences())
        rho = draw(
            st.floats(min_value=1.0, max_value=10.0, allow_nan=False)
        )
        households.append(HouseholdType(f"hh{index}", pref, rho))
    return Neighborhood.of(*households)


# ------------------------------------------------------------------ intervals

class TestIntervalProperties:
    @given(intervals(), intervals())
    def test_overlap_symmetric_and_bounded(self, a, b):
        assert a.overlap(b) == b.overlap(a)
        assert 0 <= a.overlap(b) <= min(a.length, b.length)

    @given(intervals(), intervals())
    def test_overlap_matches_slot_intersection(self, a, b):
        expected = len(set(a.slots()) & set(b.slots()))
        assert a.overlap(b) == expected

    @given(intervals())
    def test_self_overlap_is_length(self, a):
        assert a.overlap(a) == a.length


# ------------------------------------------------------------------ valuation

class TestValuationProperties:
    @given(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    )
    def test_monotone_and_concave_in_tau(self, duration, rho):
        values = [valuation(float(t), duration, rho) for t in range(duration + 1)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        marginals = [b - a for a, b in zip(values, values[1:])]
        assert all(m2 <= m1 + 1e-12 for m1, m2 in zip(marginals, marginals[1:]))

    @given(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    )
    def test_nonnegative_and_capped(self, duration, rho, tau):
        value = valuation(tau, duration, rho)
        assert 0.0 <= value <= rho * duration / 2.0 + 1e-12


# ----------------------------------------------------------- payments/scores

class TestPaymentProperties:
    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d", "e"]),
            st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
            min_size=1,
        ),
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        st.floats(min_value=1.0, max_value=3.0, allow_nan=False),
    )
    def test_budget_balance_always(self, scores, total_cost, xi):
        pay = payments(scores, total_cost, xi)
        assert sum(pay.values()) == pytest.approx(xi * total_cost)
        assert all(value >= 0.0 for value in pay.values())

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_social_cost_scores_positive_and_bounded(self, pairs):
        flexibility = {f"h{i}": f for i, (f, _) in enumerate(pairs)}
        defection = {f"h{i}": d for i, (_, d) in enumerate(pairs)}
        scores = social_cost_scores(flexibility, defection)
        for value in scores.values():
            assert 1.0 / 3.0 - 1e-9 <= value <= 3.0 + 1e-9


# ------------------------------------------------------------------ waterfill

class TestWaterfillProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
            min_size=24,
            max_size=24,
        ),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    )
    def test_levels_respect_constraints(self, loads, energy):
        loads = np.array(loads)
        caps = np.full(24, 10.0)
        additions = waterfill_levels(loads, energy, caps)
        assert np.all(additions >= -1e-12)
        assert np.all(additions <= caps + 1e-9)
        assert additions.sum() <= energy + 1e-6

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=24,
            max_size=24,
        ),
        st.floats(min_value=0.1, max_value=30.0, allow_nan=False),
    )
    def test_bound_below_uniform_split(self, loads, energy):
        # Any explicit feasible completion costs at least the bound; use
        # the uniform split as one feasible (fractional) completion.
        loads = np.array(loads)
        caps = np.full(24, energy)
        bound = quadratic_waterfill_bound(loads, energy, caps, sigma=0.3)
        uniform = loads + energy / 24.0
        uniform_cost = 0.3 * float(np.dot(uniform, uniform))
        assert bound <= uniform_cost + 1e-6


# ---------------------------------------------------------------- allocation

class TestAllocatorProperties:
    @settings(max_examples=25, deadline=None)
    @given(neighborhoods(max_size=5), st.integers(min_value=0, max_value=2**31))
    def test_greedy_feasible_and_never_beats_exact(self, neighborhood, seed):
        pricing = QuadraticPricing()
        problem = AllocationProblem.from_reports(
            truthful_reports(neighborhood), neighborhood.households, pricing
        )
        assume(problem.search_space_size() <= 20_000)
        greedy = GreedyFlexibilityAllocator().solve(problem, random.Random(seed))
        exact = ExhaustiveAllocator().solve(problem)
        assert problem.is_feasible(greedy.allocation)
        assert exact.cost <= greedy.cost + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(neighborhoods(max_size=5), st.integers(min_value=0, max_value=2**31))
    def test_branch_and_bound_matches_exhaustive(self, neighborhood, seed):
        pricing = QuadraticPricing()
        problem = AllocationProblem.from_reports(
            truthful_reports(neighborhood), neighborhood.households, pricing
        )
        assume(problem.search_space_size() <= 20_000)
        bnb = BranchAndBoundAllocator(seed=0).solve(problem, random.Random(seed))
        exact = ExhaustiveAllocator().solve(problem)
        assert bnb.proven_optimal
        assert bnb.cost == pytest.approx(exact.cost)


# ----------------------------------------------------------------- mechanism

class TestMechanismProperties:
    @settings(max_examples=20, deadline=None)
    @given(neighborhoods(max_size=6), st.integers(min_value=0, max_value=2**31))
    def test_truthful_day_invariants(self, neighborhood, seed):
        mechanism = EnkiMechanism()
        outcome = mechanism.run_day(neighborhood, rng=random.Random(seed))
        settlement = outcome.settlement
        # Theorem 1 identity.
        assert settlement.neighborhood_utility == pytest.approx(
            (mechanism.xi - 1.0) * settlement.total_cost
        )
        # Truthful reports: nobody defects, all defection scores zero.
        for hid in neighborhood.ids():
            assert not outcome.defected(hid)
            assert settlement.defection[hid] == 0.0
            assert settlement.payments[hid] >= 0.0
            # Allocation inside the (true) reported window: tau = v.
            hh = neighborhood[hid]
            assert settlement.valuations[hid] == pytest.approx(
                hh.valuation_factor * hh.duration / 2.0
            )


class TestMechanismUnderDefection:
    @settings(max_examples=15, deadline=None)
    @given(neighborhoods(max_size=5), st.integers(min_value=0, max_value=2**31))
    def test_budget_identity_survives_arbitrary_defection(self, neighborhood, seed):
        """Theorem 1 holds whatever households actually consume."""
        rng = random.Random(seed)
        mechanism = EnkiMechanism()
        reports = truthful_reports(neighborhood)
        allocation = mechanism.allocate(neighborhood, reports, rng).allocation
        # Every household consumes a random placement inside its TRUE window
        # (the only constraint Section III imposes on defection).
        consumption = {}
        for hh in neighborhood:
            window = hh.true_preference.window
            duration = hh.duration
            start = rng.randint(window.start, window.end - duration)
            consumption[hh.household_id] = Interval(start, start + duration)
        settlement = mechanism.settle(neighborhood, reports, allocation, consumption)
        assert sum(settlement.payments.values()) == pytest.approx(
            1.2 * settlement.total_cost
        )
        assert settlement.neighborhood_utility >= -1e-9
        assert all(value > 0 for value in settlement.social_cost.values())
        # Defectors carry zero flexibility, cooperators keep positive scores.
        for hid in neighborhood.ids():
            if consumption[hid] != allocation[hid]:
                assert settlement.flexibility[hid] == 0.0
                assert settlement.defection[hid] >= 0.0
            else:
                assert settlement.flexibility[hid] > 0.0
                assert settlement.defection[hid] == 0.0


# ------------------------------------------------------------- transportation

class TestTransportationProperties:
    @settings(max_examples=20, deadline=None)
    @given(neighborhoods(max_size=4), st.integers(min_value=0, max_value=2**31))
    def test_transportation_bound_below_contiguous_optimum(self, neighborhood, seed):
        from repro.allocation.relaxation import transportation_bound

        pricing = QuadraticPricing()
        problem = AllocationProblem.from_reports(
            truthful_reports(neighborhood), neighborhood.households, pricing
        )
        assume(problem.search_space_size() <= 10_000)
        # The relaxation only applies to uniform ratings (all default 2 kW).
        exact = ExhaustiveAllocator().solve(problem)
        bound = transportation_bound(
            loads=[0.0] * 24,
            windows=[
                list(range(item.window.start, item.window.end))
                for item in problem.items
            ],
            durations=[item.duration for item in problem.items],
            rating=2.0,
            sigma=pricing.sigma,
        )
        assert bound <= exact.cost + 1e-6

    @settings(max_examples=15, deadline=None)
    @given(neighborhoods(max_size=4))
    def test_bound_within_quantum_grid(self, neighborhood):
        from repro.allocation.relaxation import transportation_bound

        pricing = QuadraticPricing()
        problem = AllocationProblem.from_reports(
            truthful_reports(neighborhood), neighborhood.households, pricing
        )
        bound = transportation_bound(
            loads=[0.0] * 24,
            windows=[
                list(range(item.window.start, item.window.end))
                for item in problem.items
            ],
            durations=[item.duration for item in problem.items],
            rating=2.0,
            sigma=pricing.sigma,
        )
        # With uniform ratings the bound is a multiple of the quantum.
        quantum = pricing.sigma * 4.0
        assert bound / quantum == pytest.approx(round(bound / quantum), abs=1e-6)


# ------------------------------------------------------------------ stats

class TestMannWhitneyProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=2,
            max_size=10,
        ),
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=2,
            max_size=10,
        ),
    )
    def test_p_value_in_unit_interval_and_u_bounds(self, sample1, sample2):
        result = mann_whitney_u(sample1, sample2)
        assert 0.0 <= result.p_value <= 1.0
        assert 0.0 <= result.u_statistic <= len(sample1) * len(sample2)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=2,
            max_size=8,
        ),
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=2,
            max_size=8,
        ),
    )
    def test_one_sided_p_values_cover(self, sample1, sample2):
        less = mann_whitney_u(sample1, sample2, alternative="less")
        greater = mann_whitney_u(sample1, sample2, alternative="greater")
        # The two one-sided tests overlap at the observed statistic, so
        # their sum is at least 1 (exact) or close to it (normal approx).
        assert less.p_value + greater.p_value >= 0.95
