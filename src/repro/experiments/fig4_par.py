"""Figure 4: peak-to-average ratio (PAR) for Enki and Optimal.

Paper reading: the PAR of the two allocations are close to each other at
every population size (differences "are not large"), both roughly flat in
the 2-4 band across 10-50 households.
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
class Fig4Row:
    """One x-axis point of Figure 4."""

    n_households: int
    enki_par: float
    enki_ci: float
    optimal_par: float
    optimal_ci: float

    @property
    def gap(self) -> float:
        """Enki PAR minus Optimal PAR (small and nonnegative-ish expected)."""
        return self.enki_par - self.optimal_par


@dataclass
class Fig4Result:
    rows: List[Fig4Row]

    def render(self) -> str:
        """The figure's two series as an aligned table."""
        return format_table(
            ["n", "Enki PAR", "±95%", "Optimal PAR", "±95%", "gap"],
            [
                (
                    row.n_households,
                    f"{row.enki_par:.3f}",
                    f"{row.enki_ci:.3f}",
                    f"{row.optimal_par:.3f}",
                    f"{row.optimal_ci:.3f}",
                    f"{row.gap:+.3f}",
                )
                for row in self.rows
            ],
        )


def extract(result: SocialWelfareResult) -> Fig4Result:
    """Project a social-welfare run onto Figure 4's series."""
    enki = {p.n_households: p for p in result.series(ENKI)}
    optimal = {p.n_households: p for p in result.series(OPTIMAL)}
    rows = [
        Fig4Row(
            n_households=n,
            enki_par=enki[n].par.mean,
            enki_ci=enki[n].par.half_width,
            optimal_par=optimal[n].par.mean,
            optimal_ci=optimal[n].par.half_width,
        )
        for n in sorted(set(enki) & set(optimal))
    ]
    return Fig4Result(rows=rows)


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
) -> Fig4Result:
    """Regenerate Figure 4 from scratch."""
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
