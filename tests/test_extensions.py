"""Tests for the multi-appliance and coalition extensions."""

import random

import pytest

from repro.core.mechanism import EnkiMechanism
from repro.core.types import HouseholdType, Neighborhood, Preference
from repro.extensions.appliances import (
    ApplianceRequest,
    MultiApplianceEnki,
    MultiApplianceHousehold,
    expand,
    owner_of,
    pseudo_household_id,
)
from repro.extensions.coalitions import (
    Coalition,
    CoalitionEnki,
    compare_with_plain_enki,
    greedy_coalitions,
)


def _home(hid, base_charge=0.0):
    return MultiApplianceHousehold.of(
        hid,
        5.0,
        ApplianceRequest("ev", Preference.of(18, 24, 3), rating_kw=7.2),
        ApplianceRequest("dryer", Preference.of(8, 20, 1), rating_kw=3.0),
        base_charge=base_charge,
    )


class TestApplianceModel:
    def test_expand_creates_pseudo_households(self):
        neighborhood = expand([_home("h1"), _home("h2")])
        assert len(neighborhood) == 4
        assert pseudo_household_id("h1", "ev") in neighborhood
        ev = neighborhood[pseudo_household_id("h1", "ev")]
        assert ev.rating_kw == 7.2
        assert ev.true_preference.duration == 3

    def test_owner_roundtrip(self):
        assert owner_of(pseudo_household_id("h1", "ev")) == "h1"
        with pytest.raises(ValueError):
            owner_of("plain-id")

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiApplianceHousehold.of("h1", 5.0)  # no appliances
        with pytest.raises(ValueError):
            MultiApplianceHousehold.of(
                "h1",
                5.0,
                ApplianceRequest("ev", Preference.of(18, 24, 3)),
                ApplianceRequest("ev", Preference.of(8, 20, 1)),
            )
        with pytest.raises(ValueError):
            ApplianceRequest("", Preference.of(18, 24, 3))
        with pytest.raises(ValueError):
            ApplianceRequest("a::b", Preference.of(18, 24, 3))
        with pytest.raises(ValueError):
            _home("h1", base_charge=-1.0)

    def test_run_day_aggregates_bills(self):
        mechanism = MultiApplianceEnki(EnkiMechanism(seed=0))
        outcome = mechanism.run_day([_home("h1"), _home("h2")])
        assert set(outcome.bills) == {"h1", "h2"}
        bill = outcome.bills["h1"]
        assert set(bill.per_appliance_payment) == {"ev", "dryer"}
        assert bill.payment == pytest.approx(
            sum(bill.per_appliance_payment.values())
        )

    def test_base_charge_added_to_payment(self):
        mechanism = MultiApplianceEnki(EnkiMechanism(seed=0))
        plain = mechanism.run_day([_home("h1"), _home("h2")])
        charged = mechanism.run_day([_home("h1", base_charge=5.0), _home("h2")])
        assert charged.bills["h1"].payment == pytest.approx(
            plain.bills["h1"].payment + 5.0
        )
        assert charged.bills["h1"].utility == pytest.approx(
            plain.bills["h1"].utility - 5.0
        )

    def test_budget_balance_still_holds_per_day(self):
        mechanism = MultiApplianceEnki(EnkiMechanism(seed=0))
        outcome = mechanism.run_day([_home("h1"), _home("h2"), _home("h3")])
        appliance_revenue = sum(
            sum(bill.per_appliance_payment.values())
            for bill in outcome.bills.values()
        )
        assert appliance_revenue == pytest.approx(1.2 * outcome.total_cost)


class TestCoalitions:
    def _neighborhood(self):
        return Neighborhood.of(
            HouseholdType("a", Preference.of(17, 22, 2), 5.0),
            HouseholdType("b", Preference.of(18, 23, 2), 5.0),
            HouseholdType("c", Preference.of(18, 22, 2), 5.0),
            HouseholdType("d", Preference.of(6, 10, 2), 5.0),
        )

    def test_greedy_coalitions_group_overlaps(self):
        coalitions = greedy_coalitions(self._neighborhood(), max_size=3)
        assert sorted(len(c.members) for c in coalitions) == [1, 3]
        lone = next(c for c in coalitions if len(c.members) == 1)
        assert lone.members == ("d",)

    def test_max_size_respected(self):
        coalitions = greedy_coalitions(self._neighborhood(), max_size=2)
        assert all(len(c.members) <= 2 for c in coalitions)

    def test_coalition_reports_are_zero_slack(self):
        neighborhood = self._neighborhood()
        enki = CoalitionEnki(EnkiMechanism(seed=0))
        coalitions = greedy_coalitions(neighborhood)
        reports = enki.coalition_reports(neighborhood, coalitions)
        for hid, report in reports.items():
            assert report.preference.slack == 0
            true = neighborhood[hid].true_preference
            assert true.window.contains(report.preference.window)

    def test_coalition_day_runs_and_nobody_defects(self):
        neighborhood = self._neighborhood()
        enki = CoalitionEnki(EnkiMechanism(seed=0))
        outcome = enki.run_day(neighborhood, rng=random.Random(1))
        # Zero-slack truthful sub-windows: allocations are forced and lie
        # inside true windows, so nobody defects.
        for hid in neighborhood.ids():
            assert not outcome.defected(hid)

    def test_incomplete_coalitions_rejected(self):
        neighborhood = self._neighborhood()
        enki = CoalitionEnki(EnkiMechanism(seed=0))
        with pytest.raises(ValueError):
            enki.coalition_reports(neighborhood, [Coalition(("a", "b"))])

    def test_comparison_reports_flexibility_tension(self):
        comparison = compare_with_plain_enki(self._neighborhood(), seed=0)
        # Narrow committed windows can only lower mean flexibility scores.
        assert (
            comparison.coalition_mean_flexibility
            <= comparison.plain_mean_flexibility + 1e-9
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            Coalition(())
        with pytest.raises(ValueError):
            Coalition(("a", "a"))
        with pytest.raises(ValueError):
            greedy_coalitions(self._neighborhood(), max_size=0)
