"""Figure 6: time to compute Enki's allocation vs Optimal.

Paper reading: Enki's greedy allocation is effectively instantaneous while
the exact solver's time explodes with population size — "when the number
of households is over 40, Optimal on average takes around 600 times
longer".  The absolute times here come from a pure-Python branch-and-bound
rather than CPLEX, so the slowdown *factor* (reported per row) is the
comparable quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..sim.results import format_table
from .social_welfare import (
    ENKI,
    OPTIMAL,
    PAPER_DAYS,
    PAPER_POPULATIONS,
    SocialWelfareResult,
    run_social_welfare_study,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..allocation.cache import AllocationCache


@dataclass
class Fig6Row:
    """One x-axis point of Figure 6."""

    n_households: int
    enki_ms: float
    optimal_ms: float
    proven_optimal_fraction: float

    @property
    def slowdown(self) -> float:
        """How many times longer Optimal takes than Enki."""
        if self.enki_ms <= 0:
            return float("inf")
        return self.optimal_ms / self.enki_ms


@dataclass
class Fig6Result:
    rows: List[Fig6Row]

    def render(self) -> str:
        return format_table(
            ["n", "Enki (ms)", "Optimal (ms)", "slowdown", "proven-optimal"],
            [
                (
                    row.n_households,
                    f"{row.enki_ms:.2f}",
                    f"{row.optimal_ms:.2f}",
                    f"{row.slowdown:.0f}x",
                    f"{row.proven_optimal_fraction:.0%}",
                )
                for row in self.rows
            ],
        )


def extract(result: SocialWelfareResult) -> Fig6Result:
    """Project a social-welfare run onto Figure 6's series."""
    enki = {p.n_households: p for p in result.series(ENKI)}
    optimal = {p.n_households: p for p in result.series(OPTIMAL)}
    rows = [
        Fig6Row(
            n_households=n,
            enki_ms=enki[n].wall_time_s.mean * 1000.0,
            optimal_ms=optimal[n].wall_time_s.mean * 1000.0,
            proven_optimal_fraction=optimal[n].proven_optimal_fraction,
        )
        for n in sorted(set(enki) & set(optimal))
    ]
    return Fig6Result(rows=rows)


def run(
    populations: Sequence[int] = PAPER_POPULATIONS,
    days: int = PAPER_DAYS,
    seed: Optional[int] = 2017,
    optimal_time_limit_s: float = 60.0,
    workers: Optional[int] = 1,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    columnar: bool = False,
    alloc_cache: Optional["AllocationCache"] = None,
) -> Fig6Result:
    """Regenerate Figure 6 from scratch.

    ``workers`` fans the day instances across processes; scheduling times
    are still measured per-solve inside each worker, so Figure 6's series
    are comparable across worker counts.  ``columnar`` switches each day
    to the structure-of-arrays fast path (the exact solver then bridges
    through its object kernel; timings remain per-solve).
    """
    return extract(
        run_social_welfare_study(
            populations,
            days,
            seed,
            optimal_time_limit_s,
            workers=workers,
            checkpoint_path=checkpoint_path,
            resume=resume,
            columnar=columnar,
            alloc_cache=alloc_cache,
        )
    )
