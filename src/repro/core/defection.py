"""Defection scores (Eq. 5 and Example 4).

``delta_i = (kappa(s_{-i} ∪ omega_i) - kappa(s)) / e^{o_i}``

where ``kappa(s_{-i} ∪ omega_i)`` is the neighborhood's cost if everyone
except *i* followed their allocation while *i* consumed as it actually did,
``kappa(s)`` is the all-cooperate cost, and ``o_i`` is the overlap fraction
between *i*'s consumption and its allocation.  A household that follows its
allocation has ``delta_i = 0``; a defector pays more the further (and the
more harmfully) it strays.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping

import numpy as np

from ..pricing.base import PricingModel
from ..pricing.load_profile import LoadProfile
from .intervals import HOURS_PER_DAY, Interval
from .types import AllocationMap, ConsumptionMap, HouseholdId, HouseholdType


def overlap_fraction(allocation: Interval, consumption: Interval) -> float:
    """The paper's ``o_i = |s_i ∩ omega_i| / v_i`` in ``[0, 1]``.

    Both intervals have the household's duration, so a full match gives 1
    and disjoint intervals give 0 (e.g. ``s=(14,18)``, ``omega=(15,19)``
    gives ``o = 3/4``).
    """
    if allocation.length != consumption.length:
        raise ValueError(
            f"allocation {allocation} and consumption {consumption} have different durations"
        )
    if allocation.length == 0:
        raise ValueError("cannot take the overlap fraction of empty intervals")
    return allocation.overlap(consumption) / allocation.length


def defection_score(
    household_id: HouseholdId,
    allocation: AllocationMap,
    consumption: ConsumptionMap,
    types: Mapping[HouseholdId, HouseholdType],
    pricing: PricingModel,
    clamp_negative: bool = True,
) -> float:
    """Eq. 5 for one household.

    Args:
        household_id: The household being scored.
        allocation: The full allocation ``s``.
        consumption: The realized consumption ``omega``.
        types: Household types (for per-household power ratings).
        pricing: Neighborhood pricing model for ``kappa``.
        clamp_negative: When True (default, matching the paper's reading
            that ``delta_i > 0`` iff the household misreports and defects),
            a deviation that happens to *lower* cost still scores 0 rather
            than a negative value.

    Returns:
        The (non-negative, unless unclamped) defection score ``delta_i``.
    """
    own_allocation = allocation[household_id]
    own_consumption = consumption[household_id]
    if own_consumption == own_allocation:
        return 0.0

    cooperative_cost = pricing.schedule_cost(allocation, types)
    deviated = dict(allocation)
    deviated[household_id] = own_consumption
    deviated_cost = pricing.schedule_cost(deviated, types)

    overlap = overlap_fraction(own_allocation, own_consumption)
    score = (deviated_cost - cooperative_cost) / math.exp(overlap)
    if clamp_negative:
        score = max(score, 0.0)
    return score


def defection_vector(
    alloc_starts: np.ndarray,
    alloc_ends: np.ndarray,
    cons_starts: np.ndarray,
    cons_ends: np.ndarray,
    ratings: np.ndarray,
    pricing: PricingModel,
    clamp_negative: bool = True,
) -> np.ndarray:
    """Eq. 5 for every household at once from parallel interval arrays.

    Builds the cooperative profile with one difference-array pass, then
    evaluates every defector's unilateral-deviation profile as one batched
    cost call (:meth:`~repro.pricing.base.PricingModel.cost_batch`), so
    settlement does O(1) pricing evaluations instead of one per defector.
    """
    n = len(alloc_starts)
    scores = np.zeros(n, dtype=float)
    if n == 0:
        return scores

    alloc_lengths = alloc_ends - alloc_starts
    cons_lengths = cons_ends - cons_starts
    mismatched = np.flatnonzero(alloc_lengths != cons_lengths)
    if mismatched.size:
        bad = int(mismatched[0])
        raise ValueError(
            f"allocation [{int(alloc_starts[bad])}, {int(alloc_ends[bad])}) and "
            f"consumption [{int(cons_starts[bad])}, {int(cons_ends[bad])}) have "
            "different durations"
        )
    if np.any(alloc_lengths == 0):
        raise ValueError("cannot take the overlap fraction of empty intervals")

    base_profile = LoadProfile.from_arrays(alloc_starts, alloc_ends, ratings)
    cooperative_cost = pricing.cost(base_profile)

    defected = (alloc_starts != cons_starts) | (alloc_ends != cons_ends)
    defectors = np.flatnonzero(defected)
    if defectors.size == 0:
        return scores

    # One difference-array row per defector: move its block from the
    # allocation to the consumption on top of the cooperative baseline.
    rows = np.arange(defectors.size)
    deltas = np.zeros((defectors.size, HOURS_PER_DAY + 1), dtype=float)
    defector_ratings = ratings[defectors]
    np.add.at(deltas, (rows, alloc_starts[defectors]), -defector_ratings)
    np.add.at(deltas, (rows, alloc_ends[defectors]), defector_ratings)
    np.add.at(deltas, (rows, cons_starts[defectors]), defector_ratings)
    np.add.at(deltas, (rows, cons_ends[defectors]), -defector_ratings)
    deviated_loads = base_profile.as_array()[None, :] + np.cumsum(
        deltas[:, :HOURS_PER_DAY], axis=1
    )
    # Moving a block off an hour can leave a hair below zero under
    # non-binary ratings; a load is never negative.
    np.maximum(deviated_loads, 0.0, out=deviated_loads)
    deviated_costs = pricing.cost_batch(deviated_loads)

    overlaps = np.clip(
        np.minimum(alloc_ends[defectors], cons_ends[defectors])
        - np.maximum(alloc_starts[defectors], cons_starts[defectors]),
        0,
        None,
    ) / alloc_lengths[defectors]
    raw = (deviated_costs - cooperative_cost) / np.exp(overlaps)
    scores[defectors] = np.maximum(raw, 0.0) if clamp_negative else raw
    return scores


def defection_scores(
    allocation: AllocationMap,
    consumption: ConsumptionMap,
    types: Mapping[HouseholdId, HouseholdType],
    pricing: PricingModel,
    clamp_negative: bool = True,
) -> Dict[HouseholdId, float]:
    """Eq. 5 for every household, sharing the cooperative-cost baseline.

    Mapping-friendly wrapper around :func:`defection_vector`: unpacks the
    intervals into parallel arrays once and scores all households in a
    single batched pass.
    """
    n = len(allocation)
    if n == 0:
        return {}
    ids = list(allocation)
    alloc_starts = np.fromiter((allocation[h].start for h in ids), np.intp, count=n)
    alloc_ends = np.fromiter((allocation[h].end for h in ids), np.intp, count=n)
    cons_starts = np.fromiter((consumption[h].start for h in ids), np.intp, count=n)
    cons_ends = np.fromiter((consumption[h].end for h in ids), np.intp, count=n)
    ratings = np.fromiter((types[h].rating_kw for h in ids), float, count=n)
    scores = defection_vector(
        alloc_starts,
        alloc_ends,
        cons_starts,
        cons_ends,
        ratings,
        pricing,
        clamp_negative,
    )
    return dict(zip(ids, scores.tolist()))
