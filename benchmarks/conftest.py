"""Shared benchmark fixtures and result capture.

Each benchmark regenerates one of the paper's tables or figures and saves
the rendered rows/series under ``benchmarks/results/`` so the artifact
survives pytest's output capture.  Scaled-down parameters keep a full
``pytest benchmarks/ --benchmark-only`` run in the minutes range; the
paper-scale runs recorded in EXPERIMENTS.md use the CLI (``enki-repro``)
with default parameters.

Benchmarks that track the perf trajectory additionally record wall-times
through the session-scoped :func:`bench_json` fixture, which merges them
into ``BENCH_core.json`` at the repo root when the session ends — a
machine-readable log of greedy/B&B solve times, settlement latency and
study throughput (serial vs parallel) from this PR onward.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time

import numpy as np
import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Machine-readable perf-trajectory log, at the repo root by design.
BENCH_JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_core.json"


def _cpu_cores() -> int:
    """Cores this process may actually run on (affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _cpu_cores_logical() -> int:
    """Logical cores in the machine, ignoring the affinity mask."""
    return os.cpu_count() or 1


@pytest.fixture(scope="session")
def bench_json():
    """Recorder that persists named wall-time entries to ``BENCH_core.json``.

    Usage: ``bench_json("greedy_solve_n50", seconds=0.0004, n_households=50)``.
    Entries recorded during the session are merged over any existing file
    (so partial benchmark runs refresh only what they measured) together
    with machine metadata.  Pass ``section="robustness"`` to file an entry
    under a different top-level section than ``"benchmarks"`` (used for
    the quarantine/fallback overhead trajectory).

    Every timed entry automatically carries ``kernel_backend`` and
    ``cpu_cores_visible`` (recorders may override them) so each row is
    interpretable on its own — a timing without the backend and core
    count that produced it is not a trajectory point.  The ``"gates"``
    section is exempt; gate rows record bound/reason only.
    """
    entries = {}

    def _record(name: str, section: str = "benchmarks", **fields) -> None:
        if section != "gates":
            from repro.kernels import active_backend

            fields.setdefault("kernel_backend", active_backend())
            fields.setdefault("cpu_cores_visible", _cpu_cores())
        entries.setdefault(section, {})[name] = fields

    yield _record

    if not entries:
        return
    payload = {"meta": {}, "benchmarks": {}}
    if BENCH_JSON_PATH.exists():
        try:
            payload = json.loads(BENCH_JSON_PATH.read_text())
        except (ValueError, OSError):
            pass
    for section, section_entries in entries.items():
        payload.setdefault(section, {}).update(section_entries)
    from repro.kernels import active_backend

    payload["meta"] = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        # ``cpu_cores`` kept for trajectory compatibility; it equals the
        # affinity-visible count, which is what parallel speedups obey.
        "cpu_cores": _cpu_cores(),
        "cpu_cores_visible": _cpu_cores(),
        "cpu_cores_logical": _cpu_cores_logical(),
        "platform": platform.platform(),
        "kernel_backend": active_backend(),
    }
    BENCH_JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def gate_note(bench_json):
    """Recorder for perf-smoke **gate** status, one entry per gate.

    Several perf gates only bind on capable runners (4+ visible cores for
    the service budgets, 2+ cores for the fan-out parallelism).  Every
    gate calls this exactly once per session with whether its assertion
    was enforced and why — recorded under the ``"gates"`` section of
    ``BENCH_core.json`` with ``status`` ``"bound"`` or ``"unverified"``
    (a gate that did not assert is an open question, never a pass), so
    CI prints a per-gate summary line instead of a silently green check
    that never asserted anything.
    """

    def _note(gate: str, bound: bool, reason: str) -> None:
        status = "bound" if bound else "unverified"
        bench_json(gate, section="gates", bound=bound, status=status, reason=reason)
        print(f"\n[gate] {gate}: {status} ({reason})")

    return _note


def time_call(fn, repeats: int = 5, warmup: int = 1) -> float:
    """Best-of-``repeats`` wall-time of ``fn()`` in seconds."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.fixture(scope="session")
def save_result():
    """Writer that persists a rendered experiment table."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, rendered: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(rendered + "\n")
        print(f"\n[{name}]\n{rendered}")

    return _save


@pytest.fixture(scope="session")
def study():
    """One shared user-study run for the Tables II-IV / Figures 8-9 benches."""
    from repro.experiments.user_study_run import run_default_study

    return run_default_study(seed=1720)


@pytest.fixture(scope="session")
def welfare_small():
    """One shared scaled social-welfare run for figs 4-6 extraction benches."""
    from repro.experiments.social_welfare import run_social_welfare_study

    return run_social_welfare_study(
        populations=(10, 20, 30), days=3, seed=2017, optimal_time_limit_s=10.0
    )


def day_problem(n_households: int, seed: int = 2017):
    """A representative §VI day instance for solver benchmarks."""
    from repro.allocation.base import AllocationProblem
    from repro.core.mechanism import truthful_reports
    from repro.pricing.quadratic import QuadraticPricing
    from repro.sim.profiles import ProfileGenerator, neighborhood_from_profiles

    generator = ProfileGenerator()
    profiles = generator.sample_population(
        np.random.default_rng(seed), n_households
    )
    neighborhood = neighborhood_from_profiles(profiles, "wide")
    return AllocationProblem.from_reports(
        truthful_reports(neighborhood), neighborhood.households, QuadraticPricing()
    )
