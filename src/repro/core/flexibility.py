"""Flexibility scores (Eq. 4 and Section IV-B3).

``f_i = ((beta_i - alpha_i) / v_i) * (1 / N_i)`` where ``N_i`` is the mean,
over the hours of household *i*'s window, of ``n_h`` — the number of
households whose window covers hour ``h``.  Wider windows and off-peak
windows both raise ``f_i`` (Properties 1 and 2; Examples 2 and 3).

Two variants appear in the paper:

* **Predicted** flexibility assumes every household reported truthfully and
  is computed from the reported windows; the greedy allocator orders
  households by it (Section IV-C).
* **Realized** flexibility feeds the payment: it equals the predicted score
  when the household follows its allocation and is 0 when it defects
  ("f_i = 0 ... when the household misreports and defects").

The batched entry points (:func:`coverage_from_arrays`,
:func:`flexibility_vector`, and :func:`class_flexibility` once per
(window, duration) class) score a whole neighborhood in a handful of
numpy operations; the mapping-based helpers wrap them so scalar and
batched callers share one implementation.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .intervals import HOURS_PER_DAY, Interval
from .types import AllocationMap, ConsumptionMap, HouseholdId, Preference


def coverage_from_arrays(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``n_h`` for each hour from parallel window-bound arrays.

    Difference-array construction: +1 at each window start, -1 at each end,
    then one cumulative sum — O(n + 24) with no per-household Python work.
    """
    delta = np.zeros(HOURS_PER_DAY + 1, dtype=float)
    np.add.at(delta, starts, 1.0)
    np.add.at(delta, ends, -1.0)
    return np.cumsum(delta[:HOURS_PER_DAY])


def window_coverage(windows: Mapping[HouseholdId, Interval]) -> np.ndarray:
    """``n_h`` for each hour: how many windows cover hour ``h``."""
    n = len(windows)
    if n == 0:
        return np.zeros(HOURS_PER_DAY, dtype=float)
    starts = np.fromiter(
        (window.start for window in windows.values()), dtype=np.intp, count=n
    )
    ends = np.fromiter(
        (window.end for window in windows.values()), dtype=np.intp, count=n
    )
    return coverage_from_arrays(starts, ends)


def flexibility_vector(
    starts: np.ndarray,
    ends: np.ndarray,
    durations: np.ndarray,
    coverage: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Eq. 4 for every household at once.

    Args:
        starts: Reported window starts, shape ``(n,)``.
        ends: Reported window ends, shape ``(n,)``.
        durations: Reported durations ``v_i``, shape ``(n,)``.
        coverage: Hourly ``n_h`` counts; derived from the windows
            themselves when omitted (the usual case — every household is
            scored against the population it belongs to).

    Returns:
        ``f_i`` per household: ``(window_length / v_i) / N_i`` with ``N_i``
        the mean coverage over the window, evaluated via a prefix sum of
        ``coverage`` so all windows share one O(24) pass.
    """
    if coverage is None:
        coverage = coverage_from_arrays(starts, ends)
    prefix = np.concatenate(([0.0], np.cumsum(coverage)))
    lengths = (ends - starts).astype(float)
    n_mean = (prefix[ends] - prefix[starts]) / lengths
    if np.any(n_mean <= 0):
        bad = int(np.flatnonzero(n_mean <= 0)[0])
        raise ValueError(
            f"coverage over [{int(starts[bad])}, {int(ends[bad])}) must count "
            f"the household itself (got mean {float(n_mean[bad])})"
        )
    return (lengths / np.asarray(durations, dtype=float)) / n_mean


#: Class codes ``(start·25 + end)·25 + duration`` lie below this.
CLASS_CODES = (HOURS_PER_DAY + 1) ** 3


def class_flexibility(
    starts: np.ndarray, ends: np.ndarray, durations: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eq. 4 once per (window, duration) class of a day.

    Each class present is scored against the whole day's coverage by the
    elementwise float operations of :func:`flexibility_vector`, so its
    score is each of its rows' value, bit for bit.  Returns each row's
    class code, the codes present in increasing order, and their scores.
    """
    base = HOURS_PER_DAY + 1
    codes = (starts * base + ends) * base + durations
    present = np.zeros(CLASS_CODES, dtype=bool)
    present[codes] = True
    classes = present.nonzero()[0]
    windows, class_durations = np.divmod(classes, base)
    class_starts, class_ends = np.divmod(windows, base)
    coverage = coverage_from_arrays(starts, ends)
    scores = flexibility_vector(class_starts, class_ends, class_durations, coverage)
    return codes, classes, scores


def flexibility_score(
    preference: Preference, coverage: np.ndarray
) -> float:
    """Eq. 4 for one household given the hourly coverage counts ``n_h``.

    Args:
        preference: The household's (reported) preference.
        coverage: Per-hour counts ``n_h`` including this household itself.

    Returns:
        ``f_i = (window_length / duration) / N_i`` where ``N_i`` is the mean
        of ``coverage`` over the window's hours.
    """
    window = preference.window
    n_mean = float(coverage[window.start:window.end].mean())
    if n_mean <= 0:
        raise ValueError(
            f"coverage over {window} must count the household itself (got mean {n_mean})"
        )
    return (window.length / preference.duration) / n_mean


def _preference_arrays(
    reports: Mapping[HouseholdId, Preference],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parallel (starts, ends, durations) arrays in ``reports`` order."""
    n = len(reports)
    starts = np.fromiter(
        (pref.window.start for pref in reports.values()), dtype=np.intp, count=n
    )
    ends = np.fromiter(
        (pref.window.end for pref in reports.values()), dtype=np.intp, count=n
    )
    durations = np.fromiter(
        (pref.duration for pref in reports.values()), dtype=np.intp, count=n
    )
    return starts, ends, durations


def predicted_flexibility(
    reports: Mapping[HouseholdId, Preference],
) -> Dict[HouseholdId, float]:
    """Predicted flexibility of every household from reported windows.

    This is the score the greedy allocator sorts by; defectors still get a
    positive predicted score because the center cannot yet know they will
    defect (Section IV-C).
    """
    if not reports:
        return {}
    starts, ends, durations = _preference_arrays(reports)
    scores = flexibility_vector(starts, ends, durations)
    return dict(zip(reports, scores.tolist()))


def realized_flexibility(
    reports: Mapping[HouseholdId, Preference],
    allocation: AllocationMap,
    consumption: ConsumptionMap,
) -> Dict[HouseholdId, float]:
    """Flexibility actually credited at settlement.

    Households that deviate from their allocation forfeit their flexibility
    score entirely; cooperative households keep the Eq. 4 value computed
    from the reported windows.
    """
    if not reports:
        return {}
    starts, ends, durations = _preference_arrays(reports)
    predicted = flexibility_vector(starts, ends, durations)
    followed = np.fromiter(
        (consumption[hid] == allocation[hid] for hid in reports),
        dtype=bool,
        count=len(reports),
    )
    scores = np.where(followed, predicted, 0.0)
    return dict(zip(reports, scores.tolist()))
