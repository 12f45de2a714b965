"""Descriptive statistics used across the evaluation (means, 95% CIs)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class MeanCI:
    """A sample mean with a symmetric confidence interval."""

    mean: float
    half_width: float
    n: int
    confidence: float = 0.95

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.3f} ± {self.half_width:.3f} (n={self.n})"


def mean_ci(values: Sequence[float], confidence: float = 0.95) -> MeanCI:
    """Sample mean with a Student-t confidence interval.

    The paper plots 95% confidence intervals over 10 simulated days; the
    t-interval is the textbook choice at such small n.  A single-value
    sample gets a zero-width interval.
    """
    if not values:
        raise ValueError("cannot summarize an empty sample")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return MeanCI(mean=mean, half_width=0.0, n=1, confidence=confidence)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    sem = math.sqrt(variance / n)
    # Imported here: loading scipy.stats costs about a second, and every
    # process that imports the simulation package would pay it otherwise.
    from scipy import stats as sps

    t_crit = float(sps.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return MeanCI(mean=mean, half_width=t_crit * sem, n=n, confidence=confidence)


def sample_mean(values: Sequence[float]) -> float:
    """Plain mean with an explicit empty-sample error."""
    if not values:
        raise ValueError("cannot average an empty sample")
    return sum(values) / len(values)


def sample_std(values: Sequence[float]) -> float:
    """Unbiased (n-1) standard deviation."""
    n = len(values)
    if n < 2:
        raise ValueError("standard deviation needs at least two values")
    mean = sample_mean(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
