"""Unit tests for LoadProfile and the PAR metric."""

import numpy as np
import pytest

from repro.core.intervals import Interval
from repro.core.types import HouseholdType, Preference
from repro.pricing.load_profile import LoadProfile
from repro.pricing.piecewise import TwoStepPricing


class TestConstruction:
    def test_empty_profile(self):
        profile = LoadProfile()
        assert profile.total_energy_kwh == 0.0
        assert profile.peak_kw == 0.0

    def test_from_values(self):
        profile = LoadProfile([1.0] * 24)
        assert profile.total_energy_kwh == pytest.approx(24.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            LoadProfile([1.0] * 23)

    def test_negative_load_rejected(self):
        values = [0.0] * 24
        values[3] = -1.0
        with pytest.raises(ValueError):
            LoadProfile(values)


class TestFromArrays:
    def test_rounding_never_leaves_a_negative_load(self):
        # 7.2 + 1.8 - 7.2 - 1.8 rounds to -2.2e-16 in a running sum.
        profile = LoadProfile.from_arrays(
            np.array([3, 4]), np.array([19, 23]), np.array([7.2, 1.8])
        )
        assert profile.as_array().min() >= 0.0
        assert profile[23] == 0.0
        TwoStepPricing(threshold_kw=6.0, low_rate=1.0, high_rate=4.0).cost(profile)


class TestAddRemove:
    def test_add_block(self):
        profile = LoadProfile()
        profile.add(Interval(18, 21), 2.0)
        assert profile[18] == 2.0
        assert profile[20] == 2.0
        assert profile[21] == 0.0
        assert profile.total_energy_kwh == pytest.approx(6.0)

    def test_stacked_blocks(self):
        profile = LoadProfile()
        profile.add(Interval(18, 20), 2.0)
        profile.add(Interval(19, 21), 2.0)
        assert profile[19] == 4.0
        assert profile.peak_kw == 4.0

    def test_remove_restores(self):
        profile = LoadProfile()
        profile.add(Interval(18, 20), 2.0)
        profile.remove(Interval(18, 20), 2.0)
        assert profile.total_energy_kwh == 0.0

    def test_remove_underflow_rejected(self):
        profile = LoadProfile()
        profile.add(Interval(18, 20), 2.0)
        with pytest.raises(ValueError):
            profile.remove(Interval(18, 20), 3.0)

    def test_negative_rating_rejected(self):
        with pytest.raises(ValueError):
            LoadProfile().add(Interval(0, 2), -1.0)

    def test_copy_is_independent(self):
        profile = LoadProfile()
        profile.add(Interval(0, 2), 1.0)
        clone = profile.copy()
        clone.add(Interval(0, 2), 1.0)
        assert profile[0] == 1.0
        assert clone[0] == 2.0


class TestFromSchedule:
    def test_uses_household_ratings(self):
        types = {
            "A": HouseholdType("A", Preference.of(18, 20, 2), 5.0, rating_kw=3.0),
        }
        profile = LoadProfile.from_schedule({"A": Interval(18, 20)}, types)
        assert profile[18] == 3.0

    def test_defaults_to_2kw(self):
        profile = LoadProfile.from_schedule({"A": Interval(18, 20)})
        assert profile[18] == 2.0


class TestPar:
    def test_flat_profile_has_par_one(self):
        assert LoadProfile([2.0] * 24).peak_to_average_ratio() == pytest.approx(1.0)

    def test_single_spike_par(self):
        values = [0.0] * 24
        values[18] = 24.0
        # mean = 1, peak = 24.
        assert LoadProfile(values).peak_to_average_ratio() == pytest.approx(24.0)

    def test_zero_profile_par_is_zero(self):
        assert LoadProfile().peak_to_average_ratio() == 0.0

    def test_active_hours_variant(self):
        values = [0.0] * 24
        values[18] = 4.0
        values[19] = 2.0
        profile = LoadProfile(values)
        assert profile.peak_to_average_ratio(active_hours_only=True) == pytest.approx(
            4.0 / 3.0
        )

    def test_equality(self):
        assert LoadProfile([1.0] * 24) == LoadProfile([1.0] * 24)
        assert LoadProfile([1.0] * 24) != LoadProfile([2.0] * 24)
