"""Tests for the appliance archetype library."""

import numpy as np
import pytest

from repro.core.mechanism import EnkiMechanism
from repro.extensions.appliances import MultiApplianceEnki
from repro.sim.appliance_models import (
    EV_CHARGER,
    STANDARD_ARCHETYPES,
    ApplianceArchetype,
    build_multi_appliance_population,
    population_statistics,
)


class TestArchetypes:
    def test_standard_archetypes_valid(self):
        assert len(STANDARD_ARCHETYPES) == 6
        names = [a.name for a in STANDARD_ARCHETYPES]
        assert len(set(names)) == len(names)

    def test_sample_request_respects_band(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            request = EV_CHARGER.sample_request(rng)
            pref = request.preference
            assert pref.window.start >= EV_CHARGER.earliest_start
            assert pref.window.end <= EV_CHARGER.latest_end
            assert EV_CHARGER.min_duration <= pref.duration <= EV_CHARGER.max_duration
            assert request.rating_kw == EV_CHARGER.rating_kw

    def test_validation(self):
        with pytest.raises(ValueError):
            ApplianceArchetype("x", 0.0, 1, 2, 0, 10, 5)
        with pytest.raises(ValueError):
            ApplianceArchetype("x", 1.0, 3, 2, 0, 10, 5)
        with pytest.raises(ValueError):
            ApplianceArchetype("x", 1.0, 1, 2, 10, 5, 5)
        with pytest.raises(ValueError):
            ApplianceArchetype("x", 1.0, 1, 8, 0, 4, 8)
        with pytest.raises(ValueError):
            ApplianceArchetype("x", 1.0, 1, 2, 0, 10, 1)
        with pytest.raises(ValueError):
            ApplianceArchetype("x", 1.0, 1, 2, 0, 10, 5, adoption_rate=0.0)


class TestPopulationBuilder:
    def test_builds_requested_size(self):
        rng = np.random.default_rng(1)
        homes = build_multi_appliance_population(rng, 25)
        assert len(homes) == 25
        ids = [home.household_id for home in homes]
        assert len(set(ids)) == 25

    def test_every_home_has_an_appliance(self):
        rng = np.random.default_rng(2)
        homes = build_multi_appliance_population(
            rng, 40, archetypes=(EV_CHARGER,)  # 50% adoption
        )
        assert all(len(home.appliances) >= 1 for home in homes)

    def test_adoption_rates_roughly_respected(self):
        rng = np.random.default_rng(3)
        homes = build_multi_appliance_population(rng, 300)
        stats = population_statistics(homes)
        # Washer adoption 0.9 vs pool pump 0.2.
        assert stats["count_washer"] > stats["count_pool_pump"]

    def test_population_statistics_shape(self):
        rng = np.random.default_rng(4)
        homes = build_multi_appliance_population(rng, 10)
        stats = population_statistics(homes)
        assert stats["households"] == 10.0
        assert stats["appliances_per_household"] >= 1.0

    def test_size_validated(self):
        with pytest.raises(ValueError):
            build_multi_appliance_population(np.random.default_rng(0), 0)

    def test_end_to_end_day_with_enki(self):
        rng = np.random.default_rng(5)
        homes = build_multi_appliance_population(rng, 12, base_charge=0.5)
        outcome = MultiApplianceEnki(EnkiMechanism(seed=0)).run_day(homes)
        assert len(outcome.bills) == 12
        # Budget balance on the appliance level plus base charges on top.
        appliance_revenue = sum(
            sum(bill.per_appliance_payment.values())
            for bill in outcome.bills.values()
        )
        assert appliance_revenue == pytest.approx(1.2 * outcome.total_cost)
