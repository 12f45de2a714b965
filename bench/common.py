"""Helpers shared by the benchmark runner, its child process and compare."""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List, Sequence

#: The benchmark directory and the repository root that holds it.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

#: Worker processes every parallel workload uses; the runner refuses to
#: start when fewer cores are visible.
WORKERS = 2


def spec() -> Dict:
    """The parsed ``BENCHMARK.json`` at the repository root."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def units(kind: str) -> Dict[str, str]:
    """Metric name → unit for ``kind`` ("end_to_end" or "per_layer")."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return [float(values[0])] * 3
    return [float(q) for q in statistics.quantiles(values, n=4)]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")
