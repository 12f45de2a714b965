"""Benchmarks for the supervised shard service (the ``city`` path).

These track what the service layer adds on top of the bare columnar day:
shard transport, supervision, journaling and settlement records.
``city_n10k`` is the CI perf-smoke gate for the service; ``city_n1m`` is
the headline — one million households sharded through the supervised
service — and is ``slow``-marked, recorded into ``BENCH_core.json`` for
the scaling table in ``docs/performance.md``.  Wall-clock budgets only
bind on hosts with 4+ visible cores: below that the pool time-slices and
the numbers measure the scheduler, not the service.

``ingest_n1m`` benches the streaming report-ingestion path of PR 9: one
million reports arriving as interleaved out-of-order chunks, coalesced
through the columnar micro-batch builder and scattered into the shard
job's report arrays.  It documents the ablation that motivates the
design: a naive per-report object path (RawReport construction + scalar
validation + dict routing + scalar scatter, exactly what you would write
without the columnar builder) is >= 10x slower than the micro-batched
ingest.
"""

import time

import numpy as np
import pytest

from repro.mechanisms.enki import serving_mechanism
from repro.service import serve_city
from repro.sim.parallel import available_cores

#: Perf-smoke budget for the 10k-household city on 4+ core hosts.
_CITY_N10K_BUDGET_S = 10.0

#: Acceptance budget for the 1M-household city on 4+ core hosts.
_CITY_N1M_BUDGET_S = 120.0

#: The naive per-report object path must be at least this many times
#: slower than the micro-batched streamed ingest (the ablation).
_INGEST_NAIVE_FACTOR = 10.0


def _serve(n, shards, workers):
    result = serve_city(
        n=n,
        shards=shards,
        workers=workers,
        seed=2017,
        mechanism=serving_mechanism(seed=2017),
    )
    assert result.settled == shards
    assert result.n_households == n
    assert result.degraded == ()
    assert result.all_budget_balanced()
    return result


def test_bench_city_n10k(bench_json, gate_note):
    """Perf-smoke gate: a 10k-household city through the full service."""
    cores = available_cores()
    workers = min(4, cores)
    result = _serve(10_000, shards=8, workers=workers)
    bench_json(
        "city_n10k",
        seconds=result.wall_time_s,
        n_households=10_000,
        shards=8,
        workers=workers,
    )
    if cores < 4:
        gate_note(
            "city_n10k", False,
            f"budget binds on 4+ visible cores, have {cores}",
        )
        return
    gate_note("city_n10k", True, f"{cores} visible cores >= 4")
    assert result.wall_time_s < _CITY_N10K_BUDGET_S


@pytest.mark.slow
def test_bench_city_n1m(bench_json, gate_note):
    """The headline: one million households, supervised, in one run."""
    cores = available_cores()
    workers = min(8, max(1, cores))
    result = _serve(1_000_000, shards=32, workers=workers)
    bench_json(
        "city_n1m",
        seconds=result.wall_time_s,
        n_households=1_000_000,
        shards=32,
        workers=workers,
    )
    if cores < 4:
        gate_note(
            "city_n1m", False,
            f"budget binds on 4+ visible cores, have {cores}",
        )
        return
    gate_note("city_n1m", True, f"{cores} visible cores >= 4")
    assert result.wall_time_s < _CITY_N1M_BUDGET_S


def _naive_per_report_ingest(ids, begin, end, duration, metered, order, rows):
    """The ablation: ingest ``rows`` reports one object at a time.

    What a service without the columnar builder would do per report:
    construct the :class:`RawReport`, run the scalar admission checks
    (the same constraints ``validate_raw_report`` enforces, minus the
    object ``Report`` it would additionally build), route through a
    household-id dictionary, and scatter three scalar stores.  Returns
    the wall seconds for exactly ``rows`` reports.
    """
    from repro.core.intervals import HOURS_PER_DAY
    from repro.robustness.quarantine import RawReport, _as_grid_int

    route = {household_id: i for i, household_id in enumerate(ids.tolist())}
    n = ids.shape[0]
    out_b = np.full(n, np.nan)
    out_e = np.full(n, np.nan)
    out_d = np.full(n, np.nan)
    sub = order[:rows]
    started = time.perf_counter()
    for j in sub.tolist():
        report = RawReport(
            ids[j], float(begin[j]), float(end[j]), float(duration[j])
        )
        row = route.get(report.household_id)
        if row is None:
            continue
        b = _as_grid_int(report.begin)
        e = _as_grid_int(report.end)
        d = _as_grid_int(report.duration)
        if (
            b is None or e is None or d is None or d < 1
            or d != int(metered[row]) or e < b or b < 0
            or e > HOURS_PER_DAY or e - b < d
        ):
            continue
        out_b[row] = b
        out_e[row] = e
        out_d[row] = d
    return time.perf_counter() - started


@pytest.mark.slow
def test_bench_ingest_n1m(bench_json, gate_note):
    """Streamed ingestion of a 1M-report day: throughput and latency.

    Two measured paths over the same traffic:

    * **streamed** — register a job with NaN-filled report arrays, then
      245 interleaved out-of-order 4096-row chunks through the
      micro-batch builder, the verifying id router and the scatter into
      the job's arrays.  Records total seconds, reports/s and the p99
      per-submit admission latency.
    * **naive** — the per-report object ablation (scalar validation +
      dict routing + scalar scatter), timed on a 100k-report subsample
      and scaled linearly (the loop is O(rows) with no warm-up effects).

    Gate (4+ core runners): naive >= 10x the streamed ingest.
    """
    from repro.service import (
        BoundedIngestQueue,
        ReportChunk,
        StreamIngestor,
        sample_shard,
        stream_arrival_order,
    )
    from repro.service.shard import ShardJob
    from repro.sim.rng import root_entropy

    n = 1_000_000
    chunk_rows = 4096
    naive_rows = 100_000
    root = root_entropy(2017)
    # Traffic generation happens OUTSIDE every timed region: the bench
    # times ingestion, not the synthetic load generator.
    neighborhood, shard_seed = sample_shard(root, 0, n)
    ids = np.asarray(neighborhood.ids)
    begin, end, duration = neighborhood.truthful_wire()
    order = stream_arrival_order(root, 0, n)
    chunks = []
    for at in range(0, n, chunk_rows):
        rows = order[at : at + chunk_rows]
        chunks.append(
            ReportChunk(ids[rows], begin[rows], end[rows], duration[rows])
        )

    # Streamed path: register + ingest every chunk + final flush.
    sealed = []
    ingestor = StreamIngestor(
        queue=BoundedIngestQueue(capacity=4),
        enqueue=lambda index, job: sealed.append(index),
        flush_age_s=None,
    )
    job = ShardJob(
        index=0,
        neighborhood=neighborhood,
        seed=shard_seed,
        begin=np.full(n, np.nan),
        end=np.full(n, np.nan),
        duration=np.full(n, np.nan),
    )
    latencies = []
    started = time.perf_counter()
    ingestor.register(0, job, neighborhood.ids)
    for chunk in chunks:
        chunk_started = time.perf_counter()
        ingestor.submit(chunk)
        latencies.append(time.perf_counter() - chunk_started)
    ingestor.flush(reason="final")
    streamed_s = time.perf_counter() - started

    # Exactness before speed: every report landed on its row.
    assert sealed == [0]
    assert ingestor.incomplete() == ()
    assert np.array_equal(job.begin, begin)
    assert np.array_equal(job.end, end)
    assert np.array_equal(job.duration, duration)

    naive_sample_s = _naive_per_report_ingest(
        ids, begin, end, duration, neighborhood.duration, order, naive_rows
    )
    naive_s = naive_sample_s * (n / naive_rows)

    throughput = n / streamed_s
    p99_ms = float(np.percentile(np.asarray(latencies), 99)) * 1e3
    naive_factor = naive_s / streamed_s
    bench_json(
        "ingest_n1m",
        n_reports=n,
        chunk_rows=chunk_rows,
        streamed_seconds=streamed_s,
        naive_seconds=naive_s,
        naive_sampled_rows=naive_rows,
        reports_per_second=throughput,
        p99_submit_ms=p99_ms,
        naive_vs_streamed_ingest=naive_factor,
    )

    cores = available_cores()
    if cores < 4:
        gate_note(
            "ingest_n1m", False,
            f"timing gate binds on 4+ visible cores, have {cores} "
            f"(recorded naive ablation {naive_factor:.1f}x)",
        )
        return
    gate_note(
        "ingest_n1m", True,
        f"{cores} visible cores >= 4: naive {naive_factor:.1f}x streamed ingest",
    )
    assert naive_factor >= _INGEST_NAIVE_FACTOR, (
        f"naive per-report path is only {naive_factor:.1f}x the streamed "
        f"ingest ({naive_s:.2f}s vs {streamed_s:.3f}s); the ablation gate "
        f"requires {_INGEST_NAIVE_FACTOR}x"
    )
