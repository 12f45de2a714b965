"""Aggregate hourly load profiles and the peak-to-average ratio metric."""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Tuple

import numpy as np

from ..core.intervals import HOURS_PER_DAY, Interval
from ..core.types import DEFAULT_RATING_KW, HouseholdId, HouseholdType


class LoadProfile:
    """The aggregate load ``l_h`` (kW) for each hour of a day.

    Wraps a length-24 vector with the operations the mechanism needs:
    building profiles from household intervals, incremental add/remove of a
    single household's block (used heavily by the allocators), and the
    evaluation metrics of Section VI (peak-to-average ratio).
    """

    __slots__ = ("_loads",)

    def __init__(self, loads: Optional[Iterable[float]] = None) -> None:
        if loads is None:
            self._loads = np.zeros(HOURS_PER_DAY, dtype=float)
        else:
            arr = np.asarray(list(loads) if not isinstance(loads, np.ndarray) else loads,
                             dtype=float)
            if arr.shape != (HOURS_PER_DAY,):
                raise ValueError(
                    f"load profile needs {HOURS_PER_DAY} hourly values, got {arr.shape}"
                )
            if np.any(arr < 0):
                raise ValueError("hourly loads cannot be negative")
            self._loads = arr.copy()

    @classmethod
    def _wrap(cls, loads: np.ndarray) -> "LoadProfile":
        """Adopt ``loads`` (a length-24 float array) without validation.

        Internal fast path for builders that construct the vector
        themselves; callers must guarantee shape and non-negativity.
        """
        profile = cls.__new__(cls)
        profile._loads = loads
        return profile

    @classmethod
    def from_arrays(
        cls,
        starts: np.ndarray,
        ends: np.ndarray,
        ratings: np.ndarray,
    ) -> "LoadProfile":
        """Build a profile from parallel arrays of block bounds and ratings.

        The vectorized builder behind :meth:`from_schedule` and the
        settlement hot path: each block ``[starts[i], ends[i])`` contributes
        ``ratings[i]`` kW per covered hour.  Implemented as a difference
        array (+rating at start, -rating at end) followed by one cumulative
        sum, so cost is O(n + 24) with no per-household Python work.
        """
        delta = np.zeros(HOURS_PER_DAY + 1, dtype=float)
        np.add.at(delta, starts, ratings)
        np.add.at(delta, ends, -ratings)
        # With ratings such as 1.8 kW the running sum can round to a hair
        # below zero once every block has ended; a load is never negative.
        return cls._wrap(np.maximum(np.cumsum(delta[:HOURS_PER_DAY]), 0.0))

    @classmethod
    def from_intervals(
        cls,
        intervals: Iterable[Tuple[Interval, float]],
    ) -> "LoadProfile":
        """Build a profile from ``(interval, rating_kw)`` pairs."""
        pairs = list(intervals)
        if not pairs:
            return cls()
        for _, rating in pairs:
            if rating < 0:
                raise ValueError("rating must be non-negative")
        starts = np.fromiter(
            (interval.start for interval, _ in pairs), dtype=np.intp, count=len(pairs)
        )
        ends = np.fromiter(
            (interval.end for interval, _ in pairs), dtype=np.intp, count=len(pairs)
        )
        ratings = np.fromiter(
            (rating for _, rating in pairs), dtype=float, count=len(pairs)
        )
        return cls.from_arrays(starts, ends, ratings)

    @classmethod
    def from_schedule(
        cls,
        schedule: Mapping[HouseholdId, Interval],
        types: Optional[Mapping[HouseholdId, HouseholdType]] = None,
    ) -> "LoadProfile":
        """Build a profile from a per-household schedule.

        When ``types`` is given, each household contributes its own rating;
        otherwise the default 2 kW rating applies.
        """
        n = len(schedule)
        if n == 0:
            return cls()
        starts = np.fromiter(
            (interval.start for interval in schedule.values()), dtype=np.intp, count=n
        )
        ends = np.fromiter(
            (interval.end for interval in schedule.values()), dtype=np.intp, count=n
        )
        if types is None:
            ratings = np.full(n, DEFAULT_RATING_KW)
        else:
            ratings = np.fromiter(
                (types[hid].rating_kw for hid in schedule), dtype=float, count=n
            )
        return cls.from_arrays(starts, ends, ratings)

    def add(self, interval: Interval, rating_kw: float) -> None:
        """Add ``rating_kw`` to every hour covered by ``interval`` (in place)."""
        if rating_kw < 0:
            raise ValueError("rating must be non-negative")
        self._loads[interval.start:interval.end] += rating_kw

    def remove(self, interval: Interval, rating_kw: float) -> None:
        """Remove a previously-added block (in place).

        Raises:
            ValueError: If removal would drive any hour negative.
        """
        segment = self._loads[interval.start:interval.end]
        if np.any(segment - rating_kw < -1e-9):
            raise ValueError(f"removing {rating_kw} kW over {interval} underflows the profile")
        segment -= rating_kw
        np.clip(segment, 0.0, None, out=segment)

    def copy(self) -> "LoadProfile":
        """An independent copy of this profile."""
        return LoadProfile(self._loads)

    def as_array(self) -> np.ndarray:
        """The 24 hourly loads as a fresh numpy array."""
        return self._loads.copy()

    def __getitem__(self, hour: int) -> float:
        return float(self._loads[hour])

    def __len__(self) -> int:
        return HOURS_PER_DAY

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LoadProfile):
            return NotImplemented
        return bool(np.allclose(self._loads, other._loads))

    @property
    def peak_kw(self) -> float:
        """The maximum hourly load."""
        return float(self._loads.max())

    @property
    def total_energy_kwh(self) -> float:
        """Total energy over the day (1-hour slots, so kW sums to kWh)."""
        return float(self._loads.sum())

    @property
    def mean_kw(self) -> float:
        """Average load over all 24 hours."""
        return float(self._loads.mean())

    def peak_to_average_ratio(self, active_hours_only: bool = False) -> float:
        """Peak-to-average ratio (PAR), the Figure 4 metric.

        Args:
            active_hours_only: When True, the average is taken over hours
                with nonzero load instead of all 24 hours.

        Returns:
            ``peak / average``; 0.0 for an all-zero profile.
        """
        if self.total_energy_kwh == 0:
            return 0.0
        if active_hours_only:
            active = self._loads[self._loads > 0]
            return float(self._loads.max() / active.mean())
        return float(self._loads.max() / self._loads.mean())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LoadProfile(peak={self.peak_kw:.1f} kW, energy={self.total_energy_kwh:.1f} kWh)"
