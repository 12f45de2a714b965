"""Unit tests for the allocation problem plumbing."""

import pytest

from repro.allocation.base import AllocationItem, AllocationProblem
from repro.core.intervals import Interval
from repro.core.mechanism import truthful_reports
from repro.core.types import HouseholdType, Neighborhood, Preference


def _problem(pricing):
    neighborhood = Neighborhood.of(
        HouseholdType("A", Preference.of(16, 20, 2), 5.0),
        HouseholdType("B", Preference.of(18, 21, 2), 5.0),
    )
    return AllocationProblem.from_reports(
        truthful_reports(neighborhood), neighborhood.households, pricing
    ), neighborhood


class TestAllocationItem:
    def test_placements_and_counts(self):
        item = AllocationItem("A", Interval(18, 22), 2, 2.0)
        assert item.n_placements == 3
        assert item.energy_kwh == 4.0
        assert item.placements() == (
            Interval(18, 20),
            Interval(19, 21),
            Interval(20, 22),
        )

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError):
            AllocationItem("A", Interval(18, 22), 0, 2.0)

    def test_window_too_small_rejected(self):
        with pytest.raises(ValueError):
            AllocationItem("A", Interval(18, 19), 2, 2.0)

    def test_nonpositive_rating_rejected(self):
        with pytest.raises(ValueError):
            AllocationItem("A", Interval(18, 22), 2, 0.0)


class TestAllocationProblem:
    def test_from_reports(self, pricing):
        problem, _ = _problem(pricing)
        assert len(problem) == 2
        assert problem.search_space_size() == 3 * 2

    def test_duplicate_ids_rejected(self, pricing):
        item = AllocationItem("A", Interval(18, 22), 2, 2.0)
        with pytest.raises(ValueError):
            AllocationProblem(items=(item, item), pricing=pricing)

    def test_cost_evaluates_schedule(self, pricing):
        problem, _ = _problem(pricing)
        allocation = {"A": Interval(16, 18), "B": Interval(19, 21)}
        # Four distinct hours at 2 kW: 4 * 0.3 * 4.
        assert problem.cost(allocation) == pytest.approx(4.8)

    def test_feasibility_checks(self, pricing):
        problem, _ = _problem(pricing)
        assert problem.is_feasible({"A": Interval(16, 18), "B": Interval(18, 20)})
        assert not problem.is_feasible({"A": Interval(16, 18)})
        assert not problem.is_feasible(
            {"A": Interval(14, 16), "B": Interval(18, 20)}
        )
        assert not problem.is_feasible(
            {"A": Interval(16, 19), "B": Interval(18, 20)}
        )
