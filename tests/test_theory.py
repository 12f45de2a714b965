"""Empirical tests of the Section V theorems via the theory package."""

import pytest

from repro.core.intervals import Interval
from repro.core.types import HouseholdType, Neighborhood, Preference
from repro.theory.bestresponse import best_response_sweep, candidate_windows
from repro.theory.properties import (
    budget_balance_margin,
    find_negative_utility_day,
    pareto_efficiency_ratio,
    participation_gain,
)


class TestBudgetBalance:
    def test_theorem1_on_random_days(self, mechanism, small_random_neighborhood):
        outcome = mechanism.run_day(small_random_neighborhood)
        margin = budget_balance_margin(outcome)
        assert margin >= 0.0
        assert margin == pytest.approx(0.2 * outcome.settlement.total_cost)


class TestParetoEfficiency:
    def test_theorem3_truthful_equilibrium_is_fully_valued(
        self, small_random_neighborhood
    ):
        # With truthful reports every allocation satisfies the true window,
        # so the valuation side of welfare is exactly maximal.
        ratio = pareto_efficiency_ratio(small_random_neighborhood)
        assert ratio == pytest.approx(1.0)


class TestIndividualRationality:
    def test_theorem4_negative_utility_exists(self):
        found = find_negative_utility_day(n_households=20, max_days=30, seed=3)
        assert found is not None
        outcome, household = found
        assert outcome.settlement.utilities[household] < 0.0


class TestParticipation:
    def test_theorem5_and_6_enki_beats_price_taking(self):
        # A peaky neighborhood: everyone wants the same evening hours, so
        # uncoordinated consumption stacks the peak and Enki's greedy wins.
        households = [
            HouseholdType(f"hh{i}", Preference.of(17, 23, 2), 5.0) for i in range(8)
        ]
        neighborhood = Neighborhood.of(*households)
        gain = participation_gain(neighborhood, days=4, seed=1)
        assert gain.mean_gain >= -1e-9  # Theorem 5
        assert gain.flexible_gain >= -1e-9  # Theorem 6

    def test_invalid_days_rejected(self, small_random_neighborhood):
        with pytest.raises(ValueError):
            participation_gain(small_random_neighborhood, days=0)


class TestBestResponse:
    def test_candidate_windows_enumeration(self):
        windows = candidate_windows(2, Interval(16, 20))
        assert (16, 18) in windows
        assert (16, 20) in windows
        assert (18, 20) in windows
        assert all(end - begin >= 2 for begin, end in windows)
        assert len(windows) == 6

    def test_sweep_contains_truthful_window(self):
        households = [
            HouseholdType("T", Preference.of(18, 20, 2), 5.0),
        ] + [
            HouseholdType(f"hh{i}", Preference.of(16 + (i % 3), 22, 2), 5.0)
            for i in range(6)
        ]
        neighborhood = Neighborhood.of(*households)
        result = best_response_sweep(
            neighborhood,
            "T",
            exploration=Interval(16, 22),
            repeats=2,
            seed=0,
        )
        assert result.truthful_window == (18, 20)
        assert (18, 20) in result.utilities
        assert result.regret() >= 0.0

    def test_unknown_target_rejected(self, small_random_neighborhood):
        with pytest.raises(KeyError):
            best_response_sweep(small_random_neighborhood, "nobody", repeats=1)

    def test_invalid_repeats_rejected(self, small_random_neighborhood):
        target = small_random_neighborhood.ids()[0]
        with pytest.raises(ValueError):
            best_response_sweep(small_random_neighborhood, target, repeats=0)

    def test_weak_ic_on_small_world(self):
        # Mini Figure 7: with enough truthful neighbors, truth-telling
        # should be (weakly) close to the best response.
        households = [
            HouseholdType("T", Preference.of(18, 20, 2), 5.0),
        ] + [
            HouseholdType(
                f"hh{i}",
                Preference.of(14 + (i % 5), 20 + (i % 4), 2),
                4.0 + (i % 3),
            )
            for i in range(12)
        ]
        neighborhood = Neighborhood.of(*households)
        result = best_response_sweep(
            neighborhood,
            "T",
            exploration=Interval(16, 22),
            repeats=4,
            seed=2,
        )
        # Truth-telling should leave only a small fraction of utility on
        # the table (weak IC holds in expectation, not pointwise).
        assert result.regret() <= 0.25 * abs(result.best_utility) + 1e-9
