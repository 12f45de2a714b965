"""Section VI usage profiles and their generator.

Each simulated household has a *usage profile*: a narrow interval it most
prefers, a wide interval it can tolerate, and a duration.  The paper's
distributions:

* beginning times of the narrow and wide intervals: Poisson with mean 16;
* duration: uniform on {1, ..., 4};
* narrow ending time: beginning + duration;
* wide ending time: uniform on {narrow end + 2, ..., 24};
* power rating: 2 kW (2 kWh per active hour);
* valuation factor rho: uniform on [1, 10].

Sampled beginning times are clipped so the narrow interval ends by hour 22,
keeping the wide-end distribution's support ``[narrow_end + 2, 24]``
nonempty (the paper leaves this boundary case unspecified).  The wide
interval shares the narrow interval's beginning time by default — the wide
window must contain the narrow one and the paper draws "the beginning
times" from one Poisson; set ``wide_head_slack`` to let the wide window
also start earlier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.columnar import ColumnarNeighborhood, RowIds
from ..core.intervals import HOURS_PER_DAY, Interval
from ..core.types import (
    DEFAULT_RATING_KW,
    HouseholdId,
    HouseholdType,
    Neighborhood,
    Preference,
)


@dataclass(frozen=True)
class UsageProfile:
    """One household's simulated demand for a day (Section VI)."""

    household_id: str
    narrow: Preference
    wide: Preference
    valuation_factor: float
    rating_kw: float = DEFAULT_RATING_KW

    def __post_init__(self) -> None:
        if not self.wide.window.contains(self.narrow.window):
            raise ValueError(
                f"wide window {self.wide.window} must contain narrow {self.narrow.window}"
            )
        if self.narrow.duration != self.wide.duration:
            raise ValueError("narrow and wide preferences must share the duration")

    @property
    def duration(self) -> int:
        return self.narrow.duration

    def as_household(self, true_preference: str = "wide") -> HouseholdType:
        """Materialize a :class:`HouseholdType` with the chosen true window.

        Args:
            true_preference: ``"wide"`` (the Figures 4-6 social-welfare
                setting, where households report their wide interval as
                their true preference) or ``"narrow"`` (the Figure 7 and
                user-study setting).
        """
        if true_preference == "wide":
            preference = self.wide
        elif true_preference == "narrow":
            preference = self.narrow
        else:
            raise ValueError(
                f"true_preference must be 'wide' or 'narrow', got {true_preference!r}"
            )
        return HouseholdType(
            household_id=self.household_id,
            true_preference=preference,
            valuation_factor=self.valuation_factor,
            rating_kw=self.rating_kw,
        )


@dataclass(frozen=True)
class ProfileGeneratorConfig:
    """Distribution parameters of the Section VI generator."""

    poisson_mean: float = 16.0
    min_duration: int = 1
    max_duration: int = 4
    wide_end_gap: int = 2
    rating_kw: float = DEFAULT_RATING_KW
    min_valuation: float = 1.0
    max_valuation: float = 10.0
    wide_head_slack: int = 0

    def __post_init__(self) -> None:
        if self.poisson_mean <= 0:
            raise ValueError(f"Poisson mean must be positive, got {self.poisson_mean}")
        if not 1 <= self.min_duration <= self.max_duration:
            raise ValueError(
                f"bad duration range [{self.min_duration}, {self.max_duration}]"
            )
        if self.max_duration + self.wide_end_gap > HOURS_PER_DAY:
            raise ValueError("durations plus wide-end gap exceed the day")
        if self.wide_end_gap < 0:
            raise ValueError(f"wide-end gap cannot be negative, got {self.wide_end_gap}")
        if self.rating_kw <= 0:
            raise ValueError(f"rating must be positive, got {self.rating_kw}")
        if not 0 < self.min_valuation <= self.max_valuation:
            raise ValueError(
                f"bad valuation range [{self.min_valuation}, {self.max_valuation}]"
            )
        if self.wide_head_slack < 0:
            raise ValueError(f"head slack cannot be negative, got {self.wide_head_slack}")


@dataclass(frozen=True)
class ColumnarProfiles:
    """A sampled population as parallel arrays, one row per household.

    The columnar twin of a ``List[UsageProfile]``; rows keep the sampled
    order (ids are ``hh000...``, a :class:`~repro.core.columnar.RowIds`
    when sampled), and the same Section VI distributional
    invariants hold per row.  ``to_neighborhood`` selects the true window
    the way :meth:`UsageProfile.as_household` does.
    """

    ids: Sequence[HouseholdId]
    narrow_start: np.ndarray
    narrow_end: np.ndarray
    wide_start: np.ndarray
    wide_end: np.ndarray
    duration: np.ndarray
    rating: np.ndarray
    valuation: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def to_neighborhood(self, true_preference: str = "wide") -> ColumnarNeighborhood:
        """The columnar neighborhood with the chosen true windows."""
        if true_preference == "wide":
            start, end = self.wide_start, self.wide_end
        elif true_preference == "narrow":
            start, end = self.narrow_start, self.narrow_end
        else:
            raise ValueError(
                f"true_preference must be 'wide' or 'narrow', got {true_preference!r}"
            )
        return ColumnarNeighborhood(
            ids=self.ids,
            true_start=start.copy(),
            true_end=end.copy(),
            duration=self.duration.copy(),
            rating=self.rating.copy(),
            valuation=self.valuation.copy(),
        )

    def to_profiles(self) -> List[UsageProfile]:
        """Materialize the object :class:`UsageProfile` list, same order."""
        return [
            UsageProfile(
                household_id=hid,
                narrow=Preference(Interval(na, nb), v),
                wide=Preference(Interval(wa, wb), v),
                valuation_factor=rho,
                rating_kw=r,
            )
            for hid, na, nb, wa, wb, v, r, rho in zip(
                self.ids,
                self.narrow_start.tolist(),
                self.narrow_end.tolist(),
                self.wide_start.tolist(),
                self.wide_end.tolist(),
                self.duration.tolist(),
                self.rating.tolist(),
                self.valuation.tolist(),
            )
        ]

    @classmethod
    def from_profiles(cls, profiles: Sequence[UsageProfile]) -> "ColumnarProfiles":
        """Lower an object profile list (order kept)."""
        n = len(profiles)
        return cls(
            ids=tuple(p.household_id for p in profiles),
            narrow_start=np.fromiter(
                (p.narrow.window.start for p in profiles), np.intp, count=n
            ),
            narrow_end=np.fromiter(
                (p.narrow.window.end for p in profiles), np.intp, count=n
            ),
            wide_start=np.fromiter(
                (p.wide.window.start for p in profiles), np.intp, count=n
            ),
            wide_end=np.fromiter(
                (p.wide.window.end for p in profiles), np.intp, count=n
            ),
            duration=np.fromiter((p.duration for p in profiles), np.intp, count=n),
            rating=np.fromiter((p.rating_kw for p in profiles), np.float64, count=n),
            valuation=np.fromiter(
                (p.valuation_factor for p in profiles), np.float64, count=n
            ),
        )


class ProfileGenerator:
    """Draws :class:`UsageProfile` populations per Section VI."""

    def __init__(self, config: Optional[ProfileGeneratorConfig] = None) -> None:
        self.config = config if config is not None else ProfileGeneratorConfig()

    def sample(
        self, rng: np.random.Generator, household_id: str
    ) -> UsageProfile:
        """Draw one household's profile."""
        cfg = self.config
        duration = int(rng.integers(cfg.min_duration, cfg.max_duration + 1))

        # Narrow begin: Poisson(16), clipped so that narrow_end + gap <= 24.
        latest_begin = HOURS_PER_DAY - cfg.wide_end_gap - duration
        narrow_begin = int(min(rng.poisson(cfg.poisson_mean), latest_begin))
        narrow_end = narrow_begin + duration

        wide_end = int(rng.integers(narrow_end + cfg.wide_end_gap, HOURS_PER_DAY + 1))
        wide_begin = narrow_begin
        if cfg.wide_head_slack > 0:
            wide_begin = max(0, narrow_begin - int(rng.integers(0, cfg.wide_head_slack + 1)))

        valuation_factor = float(rng.uniform(cfg.min_valuation, cfg.max_valuation))
        return UsageProfile(
            household_id=household_id,
            narrow=Preference(Interval(narrow_begin, narrow_end), duration),
            wide=Preference(Interval(wide_begin, wide_end), duration),
            valuation_factor=valuation_factor,
            rating_kw=cfg.rating_kw,
        )

    def sample_population(
        self,
        rng: np.random.Generator,
        size: int,
        id_prefix: str = "hh",
    ) -> List[UsageProfile]:
        """Draw ``size`` independent profiles with stable ids."""
        if size < 1:
            raise ValueError(f"population size must be >= 1, got {size}")
        width = len(str(size - 1))
        return [
            self.sample(rng, f"{id_prefix}{index:0{width}d}") for index in range(size)
        ]

    def sample_population_columnar(
        self,
        rng: np.random.Generator,
        size: int,
        id_prefix: str = "hh",
    ) -> ColumnarProfiles:
        """Draw ``size`` profiles with batched array draws — the large-n path.

        Same marginal distributions as :meth:`sample_population` (each
        field's draw is the vectorized form of the scalar one, in the same
        per-field order), but the generator is consumed **field by field**
        rather than household by household, so the draw sequence differs:
        this is a distinct sampling path on the day's keyed substream, not
        a reorder of the object path's stream.  Same ``(seed, day)`` gives
        the same columnar population on every run — it just is not the
        object path's population.  Equivalence between the two pipelines
        is established on *identical inputs* via the bridges, not at the
        sampler.

        The ids are :class:`~repro.core.columnar.RowIds` — the object
        path's strings, each spelled only when read.
        """
        if size < 1:
            raise ValueError(f"population size must be >= 1, got {size}")
        cfg = self.config
        duration = rng.integers(
            cfg.min_duration, cfg.max_duration + 1, size=size
        ).astype(np.intp)

        # Narrow begin: Poisson(16), clipped so that narrow_end + gap <= 24.
        latest_begin = HOURS_PER_DAY - cfg.wide_end_gap - duration
        narrow_begin = np.minimum(
            rng.poisson(cfg.poisson_mean, size=size), latest_begin
        ).astype(np.intp)
        narrow_end = narrow_begin + duration

        wide_end = rng.integers(
            narrow_end + cfg.wide_end_gap, HOURS_PER_DAY + 1
        ).astype(np.intp)
        wide_begin = narrow_begin
        if cfg.wide_head_slack > 0:
            wide_begin = np.maximum(
                0, narrow_begin - rng.integers(0, cfg.wide_head_slack + 1, size=size)
            ).astype(np.intp)

        valuation = rng.uniform(cfg.min_valuation, cfg.max_valuation, size=size)
        return ColumnarProfiles(
            ids=RowIds(id_prefix, size),
            narrow_start=narrow_begin,
            narrow_end=narrow_end,
            wide_start=wide_begin,
            wide_end=wide_end,
            duration=duration,
            rating=np.full(size, cfg.rating_kw, dtype=np.float64),
            valuation=valuation,
        )


def neighborhood_from_profiles(
    profiles: Sequence[UsageProfile], true_preference: str = "wide"
) -> Neighborhood:
    """Assemble a :class:`Neighborhood` from sampled profiles."""
    return Neighborhood.of(
        *(profile.as_household(true_preference) for profile in profiles)
    )
