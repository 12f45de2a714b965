"""The greedy placement sweep of Section IV-C: two exact sweeps, one answer.

Every greedy path places its households here; the caller fixes the
processing order.  Under quadratic pricing :func:`_exact_runs` picks the
run sweep (:func:`_sweep_runs`: integer jumps over runs of identical rows)
when a day's runs average :data:`MIN_MEAN_RUN` rows and its float
arithmetic is exact, and otherwise the scalar sweep
(:func:`_sweep_quadratic`: the float operations of the NumPy sweep it
replaced, element for element); both give the same starts.  Other pricing
models take :func:`_sweep_priced`.  ``docs/performance.md``, "Placement
kernel", gives the exactness argument, the jump and cycle rules and the
measured crossover.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.intervals import HOURS_PER_DAY
from ..pricing.base import PricingModel
from ..pricing.quadratic import QuadraticPricing
from . import active_backend

#: The run sweep pays for its per-run set-up once runs of identical rows
#: average this many rows (docs/performance.md, "Placement kernel").
MIN_MEAN_RUN = 12

#: Float64 represents every integer below this exactly.
_EXACT_LIMIT = 2 ** 53

#: The largest quantum exponent ``e`` for which ``_EXACT_LIMIT`` quanta of
#: ``2**e`` stay below the largest finite float.
_MAX_QUANTUM_EXP = sys.float_info.max_exp - 53


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
    receives row ``i``'s begin slot.  The columns are permuted into
    processing order once.  Under quadratic pricing a day of long runs
    with exact arithmetic takes the run sweep, any other day the scalar
    sweep; both give the same starts.  Returns the kernel backend name
    recorded on allocation results.
    """
    order = np.asarray(order, dtype=np.intp)
    day = (win_start[order], win_end[order], duration[order], rating[order])
    quadratic = isinstance(pricing, QuadraticPricing)
    runs = _exact_runs(*day) if quadratic else None
    if runs is not None:
        starts_out[order] = _sweep_runs(*runs)
    elif quadratic:
        starts_out[order] = _sweep_quadratic(*(column.tolist() for column in day))
    else:
        starts_out[order] = _sweep_priced(
            *(column.tolist() for column in day), pricing
        )
    return active_backend()


def _exact_runs(
    starts: np.ndarray,
    ends: np.ndarray,
    durations: np.ndarray,
    ratings: np.ndarray,
) -> Optional[Tuple[List[int], List[int], List[int], List[int], List[int]]]:
    """The day as runs of identical rows, if the run sweep applies.

    Columns in processing order.  Returns per run its start, end,
    duration, rating in quanta and length, one list each, or ``None``
    unless the runs average :data:`MIN_MEAN_RUN` rows, every rating is
    positive and finite, Σ rating·duration is under 2**53 quanta, and
    2**53 quanta are finite.
    """
    n = starts.shape[0]
    if n < MIN_MEAN_RUN:
        return None
    new_run = (
        (starts[1:] != starts[:-1])
        | (ends[1:] != ends[:-1])
        | (durations[1:] != durations[:-1])
        | (ratings[1:] != ratings[:-1])
    )
    heads = np.flatnonzero(np.concatenate(([True], new_run)))
    if n < MIN_MEAN_RUN * heads.shape[0]:
        return None
    head_ratings = ratings[heads].tolist()
    if not all(0.0 < r < math.inf for r in head_ratings):
        return None
    # Each rating is num / den with den a power of two; the quantum 2**e
    # is the lowest set bit among them.
    ratios = {r: r.as_integer_ratio() for r in head_ratings}
    e = min(
        (num & -num).bit_length() - den.bit_length()
        for num, den in ratios.values()
    )
    if e > _MAX_QUANTUM_EXP:
        return None
    quanta = {
        r: (num << max(-e, 0)) // (den << max(e, 0))
        for r, (num, den) in ratios.items()
    }
    units = [quanta[r] for r in head_ratings]
    lengths = np.diff(heads, append=n).tolist()
    head_durations = durations[heads].tolist()
    if sum(map(mul, units, map(mul, lengths, head_durations))) >= _EXACT_LIMIT:
        return None
    return (
        starts[heads].tolist(), ends[heads].tolist(), head_durations,
        units, lengths,
    )


def _sweep_runs(
    starts: Sequence[int],
    ends: Sequence[int],
    durations: Sequence[int],
    units: Sequence[int],
    lengths: Sequence[int],
) -> np.ndarray:
    """The quadratic sweep in integer quanta, one run per pass.

    Takes one entry per run (rating ``u`` in quanta) and returns every
    row's start, in processing order.  ``J`` placements at the first
    minimum ``s`` raise ``c[s] - c[t]`` by ``J·u·min(|t - s|, v)``, so one
    step places the most rows that keep ``s`` the first minimum; once
    ``c - min(c)`` repeats at a segment boundary, the segments since then
    are tiled over the rest of the run.
    """
    load = [0] * HOURS_PER_DAY
    seg_starts: List[int] = []
    seg_counts: List[int] = []
    for a, b, v, u, left in zip(starts, ends, durations, units, lengths):
        prefix = [0, *accumulate(load)]
        c = [prefix[t + v] - prefix[t] for t in range(a, max(a, b - v) + 1)]
        width = len(c)
        # rate[d]: what one row at s adds to c[s] - c[s ± d];
        # wave[d + v - 1]: what it adds to c[s + d].
        rate = [u * (d if d < v else v) for d in range(width)]
        wave = [u * (v - abs(d)) for d in range(1 - v, v)]
        placed = [0] * HOURS_PER_DAY
        seen: Dict[Tuple[int, ...], Tuple[int, int]] = {}
        while left:
            low = min(c)
            s = c.index(low)
            gap = [x - low for x in c]
            # min(c) rises at most u·v per row: a larger gap cannot close
            # before the run ends, so its value does not matter.
            far = u * v * left
            state = tuple([g if g <= far else -1 for g in gap])
            if state in seen:
                first, left_then = seen[state]
                _tile(seg_starts, seg_counts, placed, first, left_then - left, left)
                break
            seen[state] = (len(seg_starts), left)
            # more = J - 1, the least gap over its rate; an earlier
            # candidate must stay strictly above c[s].
            more = left - 1
            for d in range(1, s + 1):
                if not more:
                    break
                k = (gap[s - d] - 1) // rate[d]
                if k < more:
                    more = k
            for d in range(1, width - s):
                if not more:
                    break
                k = gap[s + d] // rate[d]
                if k < more:
                    more = k
            jump = more + 1
            left -= jump
            seg_starts.append(a + s)
            seg_counts.append(jump)
            placed[a + s] += jump
            lo = s - v + 1 if s >= v else 0
            for t in range(lo, s + v if s + v < width else width):
                c[t] += jump * wave[t - s + v - 1]
        for t in range(a, a + width):
            if placed[t]:
                for h in range(t, t + v):
                    load[h] += placed[t] * u
    return np.repeat(
        np.array(seg_starts, dtype=np.intp), np.array(seg_counts, dtype=np.intp)
    )


def _tile(
    seg_starts: List[int],
    seg_counts: List[int],
    placed: List[int],
    first: int,
    period: int,
    left: int,
) -> None:
    """Repeat the segments from index ``first`` on over ``left`` more rows.

    Those segments place ``period`` rows and bring the state back to
    where it was; ``placed`` counts the rows per start.
    """
    cycle = list(zip(seg_starts[first:], seg_counts[first:]))
    laps, rest = divmod(left, period)
    for start, count in cycle:
        placed[start] += laps * count
    seg_starts.extend([start for start, _ in cycle] * laps)
    seg_counts.extend([count for _, count in cycle] * laps)
    for start, count in cycle:
        if not rest:
            break
        count = min(count, rest)
        rest -= count
        placed[start] += count
        seg_starts.append(start)
        seg_counts.append(count)


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
