"""The greedy placement sweep of Section IV-C: two exact sweeps, one answer.

Every greedy path places its households here; the caller fixes the
processing order.  Under quadratic pricing :func:`_exact_runs` picks the
run sweep (:func:`_sweep_runs`: integer jumps over runs of identical rows)
when a day's runs average :data:`MIN_MEAN_RUN` rows and its float
arithmetic is exact, and otherwise the scalar sweep
(:func:`_sweep_quadratic`: the float operations of the NumPy sweep it
replaced, element for element); both give the same starts.  Other pricing
models take :func:`_sweep_priced`.  ``docs/performance.md``, "Placement
kernel", gives the exactness argument, the jump and lap rules and the
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
MIN_MEAN_RUN = 8

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
    step (:func:`_jump`) places the most rows that keep ``s`` the first
    minimum; a run that one step places builds no lap state.  Otherwise
    each step boundary is keyed by its gaps ``c - min(c)``, those above
    ``u·v·J`` masked.  When a key repeats, the steps since its first
    sighting form a lap: the unmasked gaps are back where they were,
    :func:`_safe_laps` bounds how many more laps the masked ones let
    repeat exactly, and those laps are tiled before stepping on.
    """
    load = [0] * HOURS_PER_DAY
    # Rows as (start, count) segments.  A tiled block of laps is one
    # segment, filled in from the lap before it once the rows are laid out:
    # ``tiles`` holds its first row, the lap's rows and the block's rows.
    seg_starts: List[int] = []
    seg_counts: List[int] = []
    tiles: List[Tuple[int, int, int]] = []
    done = 0
    for a, b, v, u, left in zip(starts, ends, durations, units, lengths):
        done += left
        prefix = [0, *accumulate(load)]
        c = [prefix[t + v] - prefix[t] for t in range(a, max(a, b - v) + 1)]
        width = len(c)
        s, jump = _jump(c, u, v, left)
        if jump == left:  # one step places the whole run
            seg_starts.append(a + s)
            seg_counts.append(left)
            for h in range(a + s, a + s + v):
                load[h] += left * u
            continue
        # wave[d + v - 1]: what one row at s adds to c[s + d].
        wave = [u * (v - abs(d)) for d in range(1 - v, v)]
        placed = [0] * HOURS_PER_DAY
        uv = u * v
        # The gaps at each step boundary since the last tiling, and the
        # boundary and rows left at each key's latest sighting.
        trail: List[List[int]] = []
        seen: Dict[Tuple[int, ...], Tuple[int, int]] = {}
        while left:
            s, jump = _jump(c, u, v, left)
            low = c[s]
            gap = [x - low for x in c]
            cut = uv * jump
            key = tuple([g if g <= cut else -1 for g in gap])
            if key in seen:
                first, left_then = seen[key]
                lap = len(trail) - first
                laps = _safe_laps(key, gap, trail[first:], seg_counts[-lap:], uv, left)
                if laps:
                    period = left_then - left
                    rows = min(laps * period, left)
                    tiles.append((done - left, period, rows))
                    _tile(seg_starts, seg_counts, placed, lap, period, rows)
                    left -= rows
                    # Each masked gap moves by its drift per lap.
                    for t, g in enumerate(key):
                        if g < 0:
                            c[t] += laps * (gap[t] - trail[first][t])
                    trail.clear()
                    seen.clear()
                    continue
            seen[key] = (len(trail), left)
            trail.append(gap)
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
    out = np.repeat(
        np.array(seg_starts, dtype=np.intp), np.array(seg_counts, dtype=np.intp)
    )
    for first, period, rows in tiles:
        lap = out[first - period:first]
        full = rows - rows % period
        out[first:first + full].reshape(-1, period)[...] = lap
        out[first + full:first + rows] = lap[:rows - full]
    return out


def _jump(c: List[int], u: int, v: int, left: int) -> Tuple[int, int]:
    """The first minimum ``s`` of ``c`` and the rows one step places there.

    One row at ``s`` raises ``c[s] - c[s ± d]`` by ``u·min(d, v)``;
    ``J - 1`` is the least gap over that rate, capped at ``left - 1``, and
    an earlier candidate must stay strictly above ``c[s]``.
    """
    low = min(c)
    s = c.index(low)
    uv = u * v
    more = left - 1
    for d in range(1, s + 1):
        if not more:
            break
        k = (c[s - d] - low - 1) // (u * d if d < v else uv)
        if k < more:
            more = k
    for d in range(1, len(c) - s):
        if not more:
            break
        k = (c[s + d] - low) // (u * d if d < v else uv)
        if k < more:
            more = k
    return s, more + 1


def _safe_laps(
    key: Tuple[int, ...],
    gap: List[int],
    lap: List[List[int]],
    jumps: List[int],
    uv: int,
    most: int,
) -> int:
    """How many laps after ``lap`` repeat it exactly, at most ``most``.

    ``lap`` holds the gaps at the lap's step boundaries and ``jumps`` the
    rows placed from each; ``gap`` is the state one lap on, equal to
    ``lap[0]`` wherever ``key`` is not masked (-1).  A masked candidate
    with ``gap_t >= u·v·J + 1`` at a boundary can neither be the first
    minimum there nor bound its jump ``J``.  Its margin ``m_t`` is the
    least ``gap_t - u·v·J - 1`` over the lap and its drift ``D_t`` the
    change of its gap over the lap, so ``l`` more laps repeat the lap
    while ``m_t + l·D_t >= 0`` for every masked ``t``.  Returns 0 when a
    margin is negative.
    """
    for t, g in enumerate(key):
        if g < 0:
            margin = min([row[t] - uv * jump for row, jump in zip(lap, jumps)]) - 1
            if margin < 0:
                return 0
            drift = gap[t] - lap[0][t]
            if drift < 0 and margin // -drift < most:
                most = margin // -drift
    return most


def _tile(
    seg_starts: List[int],
    seg_counts: List[int],
    placed: List[int],
    lap: int,
    period: int,
    rows: int,
) -> None:
    """Add ``rows`` rows that repeat the last ``lap`` segments as one block.

    Those segments place ``period`` rows and bring the state back to where
    it was, so the rows take their starts lap after lap, the last lap cut
    short; ``placed`` counts the rows per start.  The block's starts are
    written once the day's rows are laid out.
    """
    cycle = list(zip(seg_starts[-lap:], seg_counts[-lap:]))
    laps, rest = divmod(rows, period)
    for start, count in cycle:
        part = min(count, rest)
        rest -= part
        placed[start] += laps * count + part
    seg_starts.append(cycle[0][0])
    seg_counts.append(rows)


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
