"""Figure 5: cost to the neighborhood for Enki and Optimal.

Paper reading: the two allocations' costs are close at every population
size, growing to roughly $1500 at 50 households with sigma = 0.3.
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
class Fig5Row:
    """One x-axis point of Figure 5."""

    n_households: int
    enki_cost: float
    enki_ci: float
    optimal_cost: float
    optimal_ci: float

    @property
    def relative_excess(self) -> float:
        """Enki's cost overhead relative to Optimal (expected to be small)."""
        if self.optimal_cost <= 0:
            return 0.0
        return (self.enki_cost - self.optimal_cost) / self.optimal_cost


@dataclass
class Fig5Result:
    rows: List[Fig5Row]

    def render(self) -> str:
        return format_table(
            ["n", "Enki cost ($)", "±95%", "Optimal cost ($)", "±95%", "excess"],
            [
                (
                    row.n_households,
                    f"{row.enki_cost:.1f}",
                    f"{row.enki_ci:.1f}",
                    f"{row.optimal_cost:.1f}",
                    f"{row.optimal_ci:.1f}",
                    f"{row.relative_excess:+.2%}",
                )
                for row in self.rows
            ],
        )


def extract(result: SocialWelfareResult) -> Fig5Result:
    """Project a social-welfare run onto Figure 5's series."""
    enki = {p.n_households: p for p in result.series(ENKI)}
    optimal = {p.n_households: p for p in result.series(OPTIMAL)}
    rows = [
        Fig5Row(
            n_households=n,
            enki_cost=enki[n].cost.mean,
            enki_ci=enki[n].cost.half_width,
            optimal_cost=optimal[n].cost.mean,
            optimal_ci=optimal[n].cost.half_width,
        )
        for n in sorted(set(enki) & set(optimal))
    ]
    return Fig5Result(rows=rows)


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
) -> Fig5Result:
    """Regenerate Figure 5 from scratch."""
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
