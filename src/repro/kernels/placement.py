"""The greedy placement sweep of Section IV-C: one scalar kernel.

Every greedy path places its households here — the object
:meth:`~repro.allocation.greedy.GreedyFlexibilityAllocator.solve` and the
columnar ``solve_columnar`` (and through them the ordering ablation's
arrival-order greedy).  The caller fixes the processing order
(flexibility plus random tie-break keys, or a shuffle); the kernel only
places.

Under quadratic pricing the marginal cost of a block is, up to a
placement-independent constant, proportional to the load already under
it, so each placement reads only the 24-hour aggregate load, kept as a
25-entry prefix-sum list ``prefix`` (``prefix[0] == 0``).  Per household
with window ``[a, b)``, duration ``v`` and rating ``r`` the float
operations are, in this order:

1. the candidate sums ``prefix[t + v] - prefix[t]`` for ``t = a .. b - v``;
2. a first-minimum scan over them (the earliest start wins ties, as
   ``np.argmin`` does);
3. the ramp update ``prefix[k] += r * min(k - s, v)`` for every hour
   ``k > s`` after placing at ``s``.

These are the operations of the NumPy sweep this kernel replaced, element
for element, so its starts are bit-identical to it for any ratings
(``tests/test_kernels.py`` pins this against a verbatim copy); doing them
on Python floats removes the four or five tiny NumPy calls per household
that used to dominate the sweep.

Other pricing models keep the general rule: per household, the batched
per-hour marginal costs of :meth:`~repro.pricing.base.PricingModel.
marginal_cost_batch` over the window, their prefix sum, and the first
minimum of the sliding block sums.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..core.intervals import HOURS_PER_DAY
from ..pricing.base import PricingModel
from ..pricing.quadratic import QuadraticPricing
from . import active_backend


def place_day(
    order: np.ndarray,
    win_start: np.ndarray,
    win_end: np.ndarray,
    duration: np.ndarray,
    rating: np.ndarray,
    pricing: PricingModel,
    starts_out: np.ndarray,
) -> str:
    """Place every row in ``order``, in that order; fill ``starts_out``.

    ``order`` lists row indices into the four columns; ``starts_out[i]``
    receives row ``i``'s begin slot.  The columns are lowered to lists
    once, already permuted into processing order.  Returns the kernel
    backend name recorded on allocation results.
    """
    order = np.asarray(order, dtype=np.intp)
    day = (
        win_start[order].tolist(),
        win_end[order].tolist(),
        duration[order].tolist(),
        rating[order].tolist(),
    )
    if isinstance(pricing, QuadraticPricing):
        starts_out[order] = _sweep_quadratic(*day)
    else:
        starts_out[order] = _sweep_priced(*day, pricing)
    return active_backend()


def _sweep_quadratic(
    starts: Sequence[int],
    ends: Sequence[int],
    durations: Sequence[int],
    ratings: Sequence[float],
) -> List[int]:
    """One day's quadratic sweep; rows already in processing order."""
    prefix = [0.0] * (HOURS_PER_DAY + 1)
    placed: List[int] = []
    append = placed.append
    for a, b, v, r in zip(starts, ends, durations, ratings):
        s = a
        best = prefix[a + v] - prefix[a]
        for t in range(a + 1, b - v + 1):
            load = prefix[t + v] - prefix[t]
            if load < best:
                best = load
                s = t
        append(s)
        # prefix[k] += r * min(k - s, v), split at k = s + v.
        for m in range(1, v):
            prefix[s + m] += r * m
        rv = r * v
        for k in range(s + v, HOURS_PER_DAY + 1):
            prefix[k] += rv
    return placed


def _sweep_priced(
    starts: Sequence[int],
    ends: Sequence[int],
    durations: Sequence[int],
    ratings: Sequence[float],
    pricing: PricingModel,
) -> List[int]:
    """One day's sweep under any pricing model, via its marginal costs."""
    loads = np.zeros(HOURS_PER_DAY, dtype=np.float64)
    window_prefix = np.zeros(HOURS_PER_DAY + 1, dtype=np.float64)
    placed: List[int] = []
    for a, b, v, r in zip(starts, ends, durations, ratings):
        width = b - a
        hourly = pricing.marginal_cost_batch(loads[a:b], r)
        np.cumsum(hourly, out=window_prefix[1:width + 1])
        deltas = window_prefix[v:width + 1] - window_prefix[:width + 1 - v]
        s = a + int(np.argmin(deltas))
        placed.append(s)
        loads[s:s + v] += r
    return placed
