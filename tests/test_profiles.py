"""Unit tests for the Section VI usage-profile generator."""

import numpy as np
import pytest

from repro.core.intervals import HOURS_PER_DAY
from repro.core.types import Preference
from repro.sim.profiles import (
    ProfileGenerator,
    ProfileGeneratorConfig,
    UsageProfile,
    neighborhood_from_profiles,
)


class TestUsageProfile:
    def test_wide_must_contain_narrow(self):
        with pytest.raises(ValueError):
            UsageProfile(
                household_id="A",
                narrow=Preference.of(18, 20, 2),
                wide=Preference.of(19, 23, 2),
                valuation_factor=5.0,
            )

    def test_durations_must_match(self):
        with pytest.raises(ValueError):
            UsageProfile(
                household_id="A",
                narrow=Preference.of(18, 20, 2),
                wide=Preference.of(18, 23, 3),
                valuation_factor=5.0,
            )

    def test_as_household_selects_window(self):
        profile = UsageProfile(
            household_id="A",
            narrow=Preference.of(18, 20, 2),
            wide=Preference.of(18, 23, 2),
            valuation_factor=5.0,
        )
        assert profile.as_household("wide").true_preference.end == 23
        assert profile.as_household("narrow").true_preference.end == 20
        with pytest.raises(ValueError):
            profile.as_household("medium")


class TestGeneratorDistributions:
    def test_sample_invariants(self):
        generator = ProfileGenerator()
        rng = np.random.default_rng(0)
        for index in range(300):
            profile = generator.sample(rng, f"hh{index}")
            narrow, wide = profile.narrow, profile.wide
            assert 1 <= profile.duration <= 4
            assert narrow.end == narrow.begin + profile.duration
            # Paper: wide end drawn from [narrow end + 2, 24].
            assert wide.end >= narrow.end + 2
            assert wide.end <= HOURS_PER_DAY
            assert wide.window.contains(narrow.window)
            assert 1.0 <= profile.valuation_factor <= 10.0
            assert profile.rating_kw == 2.0

    def test_begin_times_cluster_near_16(self):
        generator = ProfileGenerator()
        rng = np.random.default_rng(1)
        begins = [generator.sample(rng, f"hh{i}").narrow.begin for i in range(500)]
        mean = sum(begins) / len(begins)
        # Poisson(16) clipped from above: the mean lands just below 16.
        assert 13.0 <= mean <= 16.5

    def test_population_ids_stable_and_unique(self):
        generator = ProfileGenerator()
        rng = np.random.default_rng(2)
        population = generator.sample_population(rng, 12, id_prefix="x")
        ids = [p.household_id for p in population]
        assert len(set(ids)) == 12
        assert ids[0] == "x00"

    def test_population_size_validated(self):
        generator = ProfileGenerator()
        with pytest.raises(ValueError):
            generator.sample_population(np.random.default_rng(0), 0)

    def test_wide_head_slack_variant(self):
        config = ProfileGeneratorConfig(wide_head_slack=3)
        generator = ProfileGenerator(config)
        rng = np.random.default_rng(3)
        saw_earlier_begin = False
        for index in range(200):
            profile = generator.sample(rng, f"hh{index}")
            assert profile.wide.begin <= profile.narrow.begin
            if profile.wide.begin < profile.narrow.begin:
                saw_earlier_begin = True
        assert saw_earlier_begin

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProfileGeneratorConfig(poisson_mean=0.0)
        with pytest.raises(ValueError):
            ProfileGeneratorConfig(min_duration=3, max_duration=2)
        with pytest.raises(ValueError):
            ProfileGeneratorConfig(min_valuation=0.0)
        with pytest.raises(ValueError):
            ProfileGeneratorConfig(wide_end_gap=-1)


class TestNeighborhoodAssembly:
    def test_wide_truths(self):
        generator = ProfileGenerator()
        profiles = generator.sample_population(np.random.default_rng(4), 5)
        neighborhood = neighborhood_from_profiles(profiles, "wide")
        for profile in profiles:
            assert (
                neighborhood[profile.household_id].true_preference == profile.wide
            )

    def test_narrow_truths(self):
        generator = ProfileGenerator()
        profiles = generator.sample_population(np.random.default_rng(4), 5)
        neighborhood = neighborhood_from_profiles(profiles, "narrow")
        for profile in profiles:
            assert (
                neighborhood[profile.household_id].true_preference == profile.narrow
            )
