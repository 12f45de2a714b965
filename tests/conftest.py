"""Shared fixtures: the paper's worked examples and small random worlds."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.mechanism import EnkiMechanism
from repro.core.types import HouseholdType, Neighborhood, Preference
from repro.pricing.quadratic import QuadraticPricing
from repro.sim.profiles import ProfileGenerator, neighborhood_from_profiles


@pytest.fixture
def pricing() -> QuadraticPricing:
    """The paper's sigma = 0.3 quadratic pricing."""
    return QuadraticPricing(sigma=0.3)


@pytest.fixture
def mechanism() -> EnkiMechanism:
    """Enki with the paper's Section VI parameters (k=1, xi=1.2)."""
    return EnkiMechanism(seed=7)


@pytest.fixture
def example2_neighborhood() -> Neighborhood:
    """Section IV Example 2: A(18,19,1); B, C (18,20,1)."""
    return Neighborhood.of(
        HouseholdType("A", Preference.of(18, 19, 1), 5.0),
        HouseholdType("B", Preference.of(18, 20, 1), 5.0),
        HouseholdType("C", Preference.of(18, 20, 1), 5.0),
    )


@pytest.fixture
def example3_neighborhood() -> Neighborhood:
    """Section IV Example 3: A(16,18,2); B, C (18,21,2)."""
    return Neighborhood.of(
        HouseholdType("A", Preference.of(16, 18, 2), 5.0),
        HouseholdType("B", Preference.of(18, 21, 2), 5.0),
        HouseholdType("C", Preference.of(18, 21, 2), 5.0),
    )


@pytest.fixture
def small_random_neighborhood() -> Neighborhood:
    """Eight §VI-distributed households, wide windows as truths."""
    generator = ProfileGenerator()
    profiles = generator.sample_population(np.random.default_rng(5), 8)
    return neighborhood_from_profiles(profiles, "wide")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)
