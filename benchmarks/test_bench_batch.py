"""Perf-smoke gate for the allocation cache.

An A/B bench that asserts bit-identical results before timing anything
(a fast wrong answer is not a speedup):

* ``alloc_cache_warm_fig5`` — the fig5 study (greedy + branch and bound)
  run cold then warm on one shared :class:`AllocationCache`.  The >= 5x
  gate binds only when the cold run proved every exact-solver day AND
  spent real time doing it: anytime (unproven) results are deliberately
  uncacheable, so a runner too slow to prove within the budget re-solves
  those days warm and the ratio measures the time limit — while a runner
  so fast every day proves in milliseconds leaves nothing for the cache
  to amortize and the ratio measures fixed overhead.  Either way the
  timings are recorded and the skip is logged.
"""

import time

import pytest


def _record_key(records):
    """Everything in a record except wall time and cache provenance."""
    return [
        (r.day, r.n_households, r.allocator, r.par, r.cost,
         r.proven_optimal, r.nodes_explored, r.served_tier)
        for r in records
    ]


#: Cache A/B workload: sized (fixed seed, so the instances are
#: deterministic) so the exact solver dominates the cold run yet every
#: day proves within the budget on the reference box with an order of
#: magnitude to spare for slower runners.  B&B hardness is wildly
#: instance-dependent — most sampled days prove in milliseconds, a hard
#: day can outlive any budget — hence the two bind conditions below.
_CACHE_POPULATIONS = (28,)
_CACHE_DAYS = 4
_CACHE_TIME_LIMIT_S = 60.0
_CACHE_SEED = 2017

#: The gate only binds when the cold run's exact solves add up to real
#: work; below this the warm ratio measures fixed overhead, not caching.
_CACHE_MIN_SOLVER_S = 2.0


def test_bench_alloc_cache_warm_fig5(bench_json, gate_note):
    from repro.allocation.cache import AllocationCache
    from repro.experiments.social_welfare import run_social_welfare_study

    cache = AllocationCache()

    def _run():
        return run_social_welfare_study(
            populations=_CACHE_POPULATIONS,
            days=_CACHE_DAYS,
            seed=_CACHE_SEED,
            optimal_time_limit_s=_CACHE_TIME_LIMIT_S,
            columnar=True,
            alloc_cache=cache,
        )

    started = time.perf_counter()
    cold = _run()
    cold_s = time.perf_counter() - started
    started = time.perf_counter()
    warm = _run()
    warm_s = time.perf_counter() - started

    assert _record_key(cold.records) == _record_key(warm.records), (
        "warm-cache replay must be bit-identical to the cold run"
    )
    assert all(not r.cache_hit for r in cold.records)

    bnb = [r for r in cold.records if r.allocator == "optimal-bnb"]
    assert bnb, "fig5 study must exercise the exact solver"
    proven = sum(1 for r in bnb if r.proven_optimal)
    solver_s = sum(r.wall_time_s for r in bnb)
    stats = cache.stats()
    assert stats["hits"] > 0, "warm run must hit the cache"

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    bench_json(
        "alloc_cache_warm_fig5",
        populations=list(_CACHE_POPULATIONS),
        days=_CACHE_DAYS,
        cold_seconds=cold_s,
        warm_seconds=warm_s,
        warm_speedup=speedup,
        cold_bnb_solver_seconds=solver_s,
        proven_bnb_days=proven,
        bnb_days=len(bnb),
        cache_hits=stats["hits"],
        cache_misses=stats["misses"],
    )
    if proven < len(bnb):
        message = (
            f"cold run proved only {proven}/{len(bnb)} exact-solver days "
            f"within {_CACHE_TIME_LIMIT_S:.0f}s; unproven (anytime) results "
            "are uncacheable by design, so the warm ratio measures the "
            f"time limit, not the cache (recorded {speedup:.2f}x)"
        )
        gate_note("alloc_cache_warm_fig5", False, message)
        pytest.skip(message)
    if solver_s < _CACHE_MIN_SOLVER_S:
        message = (
            f"cold exact solves took only {solver_s:.2f}s on this runner "
            f"(< {_CACHE_MIN_SOLVER_S:.0f}s); nothing substantial for the "
            f"cache to amortize, recorded {speedup:.2f}x and skipped the "
            ">=5x gate"
        )
        gate_note("alloc_cache_warm_fig5", False, message)
        pytest.skip(message)
    gate_note(
        "alloc_cache_warm_fig5", True,
        f"all {len(bnb)} exact-solver days proved cold in {solver_s:.1f}s: "
        f"warm replay {speedup:.2f}x",
    )
    assert speedup >= 5.0, (
        f"warm-cache replay is only {speedup:.2f}x the cold run "
        f"({warm_s:.3f}s vs {cold_s:.3f}s); the gate requires 5x"
    )
