"""Streaming report ingestion: parser, builder, assembler, ingestor.

Bottom-up coverage of :mod:`repro.service.stream` — the verifying
canonical-id parser, the columnar append buffer, exactly-once scatter
semantics (duplicates, late rows, unknown households, non-canonical id
fallback) — and the property that matters at the top: a city ingested as
an arbitrarily interleaved, out-of-order, chunked report stream settles
**digest-identical** to the same city ingested as whole-shard arrays,
including across overload rejection, a supervisor kill and a journal
resume.  No report is lost, none is double-counted.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import ColumnarNeighborhood
from repro.mechanisms.enki import serving_mechanism
from repro.robustness.chaos import ChaosInjector, ChaosPlan, ServiceChaosPlan
from repro.robustness.checkpoint import CheckpointStore
from repro.robustness.errors import ServiceInterrupted, ServiceOverloadError
from repro.robustness.quarantine import RawReport
from repro.service import (
    BoundedIngestQueue,
    ColumnarReportBuilder,
    ReportChunk,
    ShardJob,
    ShardService,
    StreamIngestor,
    parse_canonical_ids,
    sample_shard,
    serve_city,
    shard_sizes,
)
from repro.sim.rng import root_entropy

SEED = 2214


# ----------------------------------------------------------------- parser

class TestCanonicalIdParser:
    def test_parses_generated_scheme(self):
        ids = np.asarray([f"s7-hh{row:03d}" for row in range(120)])
        shard, row, row_d, ok = parse_canonical_ids(ids)
        assert bool(ok.all())
        assert bool((shard == 7).all())
        assert np.array_equal(row, np.arange(120))
        assert bool((row_d == 3).all())

    def test_verifies_rather_than_guesses(self):
        # Every lookalike that does not reconstruct verbatim parses as
        # not-ok (and falls back to dictionary routing) — none misroutes.
        cases = [
            ("s1-hh07", True),   # zero-padded row: legal, width-checked later
            ("s0-hh0", True),    # shortest canonical id
            ("s01-hh7", False),  # zero-padded shard is never generated
            ("x1-hh07", False),  # wrong sigil
            ("s-hh07", False),   # no shard digits
            ("s1-hh", False),    # no row digits
            ("s1-h07", False),   # missing an 'h'
            ("s1-hh07x", False), # trailing junk
            ("s1xhh07", False),  # wrong separator
            ("", False),
        ]
        shard, row, row_d, ok = parse_canonical_ids(
            np.asarray([case[0] for case in cases])
        )
        assert ok.tolist() == [expected for _, expected in cases]
        assert shard[0] == 1 and row[0] == 7 and row_d[0] == 2
        assert shard[1] == 0 and row[1] == 0 and row_d[1] == 1

    def test_non_unicode_input_is_all_not_ok(self):
        _, _, _, ok = parse_canonical_ids(np.asarray([b"s1-hh0"]))
        assert not bool(ok.any())


# ---------------------------------------------------------------- builder

class TestColumnarReportBuilder:
    def test_mixed_appends_drain_in_arrival_order(self):
        builder = ColumnarReportBuilder(capacity=2)
        builder.append(RawReport("a", 1, 5, 2))
        builder.append_columnar(
            np.asarray(["b", "c"]), np.asarray([2.0, 3.0]),
            np.asarray([6.0, 7.0]), np.asarray([2.0, 2.0]),
        )
        builder.append(RawReport("d", 0, 8, 4))
        ids, begin, end, duration = builder.drain()
        assert ids.tolist() == ["a", "b", "c", "d"]
        assert begin.tolist() == [1.0, 2.0, 3.0, 0.0]
        assert end.tolist() == [5.0, 6.0, 7.0, 8.0]
        assert duration.tolist() == [2.0, 2.0, 2.0, 4.0]
        assert builder.drain() is None
        assert len(builder) == 0

    def test_growth_beyond_capacity_preserves_rows(self):
        builder = ColumnarReportBuilder(capacity=1)
        for i in range(100):
            builder.append(RawReport(f"h{i}", i, i + 4, 2))
        ids, begin, _, _ = builder.drain()
        assert begin.tolist() == [float(i) for i in range(100)]
        assert ids.tolist() == [f"h{i}" for i in range(100)]

    def test_non_numeric_fields_lower_to_nan(self):
        # The wire lowering is the same trust boundary as the scalar
        # validator: bools, strings, None all become NaN and are caught
        # by the quarantine, never silently coerced to a grid hour.
        builder = ColumnarReportBuilder()
        builder.append(RawReport("a", True, "noon", None))
        _, begin, end, duration = builder.drain()
        assert np.isnan(begin[0]) and np.isnan(end[0]) and np.isnan(duration[0])

    def test_age_stamp_tracks_oldest_report(self):
        builder = ColumnarReportBuilder()
        assert builder.age_s(10.0) == 0.0
        builder.append(RawReport("a", 1, 5, 2), now=5.0)
        builder.append(RawReport("b", 1, 5, 2), now=6.0)
        assert builder.age_s(7.5) == pytest.approx(2.5)
        builder.drain()
        assert builder.age_s(100.0) == 0.0

    def test_misaligned_chunk_rejected(self):
        builder = ColumnarReportBuilder()
        with pytest.raises(ValueError, match="aligned"):
            builder.append_columnar(
                np.asarray(["a"]), np.asarray([1.0, 2.0]),
                np.asarray([5.0]), np.asarray([2.0]),
            )


# --------------------------------------------------------- service-level

def _service(**kwargs) -> ShardService:
    kwargs.setdefault("mechanism", serving_mechanism(seed=SEED))
    kwargs.setdefault("workers", 1)
    return ShardService(**kwargs)


def _digests(result):
    return {index: record.digest for index, record in result.records.items()}


def _batch_reference(root, sizes):
    """Digests of the same shards settled through the batch entry point."""
    with _service() as service:
        for index, size in enumerate(sizes):
            neighborhood, shard_seed = sample_shard(root, index, size)
            service.submit_shard(index, neighborhood, seed=shard_seed)
        return _digests(service.drain())


class TestStreamIngestion:
    ROOT = root_entropy(SEED)

    def test_whole_shard_stream_settles_identically(self):
        sizes = shard_sizes(40, 2)
        reference = _batch_reference(self.ROOT, sizes)
        with _service() as service:
            for index, size in enumerate(sizes):
                neighborhood, shard_seed = sample_shard(self.ROOT, index, size)
                assert not service.register_stream_shard(
                    index, neighborhood, seed=shard_seed
                )
                begin, end, duration = neighborhood.truthful_wire()
                service.submit_reports(
                    ReportChunk(np.asarray(neighborhood.ids), begin, end, duration)
                )
            assert service.finish_streams() == ()
            assert _digests(service.drain()) == reference

    def test_unknown_household_rejected_not_crashed(self):
        with _service() as service:
            neighborhood, shard_seed = sample_shard(self.ROOT, 0, 20)
            service.register_stream_shard(0, neighborhood, seed=shard_seed)
            service.submit_reports(RawReport("nobody-home", 1, 5, 2))
            service.flush_reports()
            assert service.stream_stats.unknown_rejected == 1
            begin, end, duration = neighborhood.truthful_wire()
            service.submit_reports(
                ReportChunk(np.asarray(neighborhood.ids), begin, end, duration)
            )
            assert service.finish_streams() == ()
            assert service.drain().settled == 1

    def test_duplicates_first_wins_and_late_rows_bounce(self):
        sizes = [20]
        reference = _batch_reference(self.ROOT, sizes)
        with _service() as service:
            neighborhood, shard_seed = sample_shard(self.ROOT, 0, sizes[0])
            service.register_stream_shard(0, neighborhood, seed=shard_seed)
            ids = np.asarray(neighborhood.ids)
            begin, end, duration = neighborhood.truthful_wire()
            # The true rows and a conflicting duplicate of every row (all
            # zeros) land in the SAME micro-batch: first write must win.
            zeros = np.zeros_like(begin)
            service.submit_reports(ReportChunk(ids, begin, end, duration))
            service.submit_reports(ReportChunk(ids, zeros, zeros, zeros))
            service.flush_reports()
            assert service.stream_stats.duplicates == sizes[0]
            # The shard sealed on completion; a whole extra copy now
            # arrives late and must bounce without perturbing anything.
            service.submit_reports(ReportChunk(ids, zeros, zeros, zeros))
            service.flush_reports()
            assert service.stream_stats.late_rows == sizes[0]
            assert service.finish_streams() == ()
            assert _digests(service.drain()) == reference

    def test_exotic_ids_route_through_fallback_dictionary(self):
        # Ids the canonical parser cannot prove — including a canonical
        # *lookalike* — must still route exactly, via the registration
        # dictionary, and settle identically to the batch path.
        neighborhood = ColumnarNeighborhood(
            ids=("meter:alpha", "s0-hh1", "βeta"),
            true_start=np.asarray([1, 2, 3]),
            true_end=np.asarray([9, 10, 11]),
            duration=np.asarray([2, 3, 2]),
            rating=np.asarray([1.0, 1.5, 2.0]),
            valuation=np.asarray([1.0, 1.0, 1.0]),
        )
        with _service() as service:
            service.submit_shard(0, neighborhood, seed=3)
            reference = _digests(service.drain())
        with _service() as service:
            service.register_stream_shard(0, neighborhood, seed=3)
            begin, end, duration = neighborhood.truthful_wire()
            # Out of order, one report at a time.
            for i in (2, 0, 1):
                service.submit_reports(
                    RawReport(
                        neighborhood.ids[i],
                        float(begin[i]), float(end[i]), float(duration[i]),
                    )
                )
            service.flush_reports()
            assert service.finish_streams() == ()
            assert _digests(service.drain()) == reference

    def test_incomplete_shard_is_reported_never_settled(self):
        with _service() as service:
            neighborhood, shard_seed = sample_shard(self.ROOT, 0, 20)
            service.register_stream_shard(0, neighborhood, seed=shard_seed)
            begin, end, duration = neighborhood.truthful_wire()
            ids = np.asarray(neighborhood.ids)
            half = slice(0, 10)
            service.submit_reports(
                ReportChunk(ids[half], begin[half], end[half], duration[half])
            )
            assert service.finish_streams() == (0,)
            assert service.drain().settled == 0

    def test_overload_rejects_all_or_nothing_then_recovers(self):
        # A queue of 2 with 5 single-chunk shards: sealed shards pile up
        # behind backpressure until submit_reports pushes back with
        # exit-16 semantics; pumping and resubmitting the SAME payload
        # settles everything digest-identical — nothing lost, nothing
        # double-ingested.
        sizes = shard_sizes(50, 5)
        reference = _batch_reference(self.ROOT, sizes)
        with _service(queue_capacity=2, low_watermark=0) as service:
            shards = []
            for index, size in enumerate(sizes):
                neighborhood, shard_seed = sample_shard(self.ROOT, index, size)
                service.register_stream_shard(index, neighborhood, seed=shard_seed)
                begin, end, duration = neighborhood.truthful_wire()
                shards.append(
                    ReportChunk(np.asarray(neighborhood.ids), begin, end, duration)
                )
            rejected = 0
            for chunk in shards:
                while True:
                    try:
                        accepted = service.submit_reports(chunk)
                        assert accepted == len(chunk)
                        break
                    except ServiceOverloadError as exc:
                        assert exc.exit_code == 16
                        assert exc.retry_after_s > 0
                        assert exc.depth > 0
                        rejected += 1
                        service.pump(block=True)
                # Seal each shard eagerly so sealed shards pile up behind
                # the tiny queue and backpressure actually fires.
                service.flush_reports()
            assert rejected > 0
            assert service.finish_streams() == ()
            result = service.drain()
            assert _digests(result) == reference
            # One error received, one rejection counted: shards held back
            # inside the ingestor are not rejections.
            assert result.overload_rejections == rejected

    def test_streamed_rejection_latches_until_low_watermark(self):
        # Three sealed one-shard chunks into a capacity-2 queue: the third
        # waits in the ingestor, the client is rejected, and stays
        # rejected while the queue is above its low watermark.
        queue = BoundedIngestQueue(capacity=2, low_watermark=0)
        events = []
        ingestor = StreamIngestor(
            queue=queue,
            enqueue=lambda index, job: queue.submit(job),
            on_event=lambda kind, index, payload: events.append((kind, index)),
            flush_age_s=None,
        )
        empty = ReportChunk(
            np.asarray([], dtype=np.str_), np.zeros(0), np.zeros(0), np.zeros(0)
        )
        for index in range(3):
            neighborhood, shard_seed = sample_shard(self.ROOT, index, 4)
            nan = np.full(len(neighborhood), np.nan)
            job = ShardJob(
                index=index, neighborhood=neighborhood, seed=shard_seed,
                begin=nan.copy(), end=nan.copy(), duration=nan.copy(),
            )
            ingestor.register(index, job, neighborhood.ids)
            begin, end, duration = neighborhood.truthful_wire()
            ingestor.submit(
                ReportChunk(np.asarray(neighborhood.ids), begin, end, duration)
            )
            ingestor.flush()
        assert (queue.depth, ingestor.ready_backlog) == (2, 1)
        assert queue.rejections == 0
        errors = 0
        for _ in range(2):
            with pytest.raises(ServiceOverloadError) as excinfo:
                ingestor.submit(empty)
            errors += 1
            assert excinfo.value.depth == queue.depth + 1
            queue.pop()
        # Drained to the low watermark: the held shard is queued and the
        # client's call goes through.
        assert ingestor.submit(empty) == 0
        assert (queue.depth, ingestor.ready_backlog) == (1, 0)
        assert queue.rejections == errors == 2
        # One audit event per received error, naming the held shard.
        assert [e for e in events if e[0] == "service_overload"] == [
            ("service_overload", 2), ("service_overload", 2),
        ]

    def test_streamed_reports_reach_degraded_tier_intact(self):
        # A streamed shard whose primary settlement is poisoned must
        # settle on the degraded chain from the SAME report arrays the
        # ingestor scattered into, not from stale batch-path arrays.
        sizes = [12]
        with _service(
            mechanism=serving_mechanism(seed=SEED, quarantine_policy=None),
        ) as service:
            neighborhood, shard_seed = sample_shard(self.ROOT, 0, sizes[0])
            service.register_stream_shard(0, neighborhood, seed=shard_seed)
            begin, end, duration = neighborhood.truthful_wire()
            begin[3] = float("nan")  # malformed on the strict primary
            service.submit_reports(
                ReportChunk(np.asarray(neighborhood.ids), begin, end, duration)
            )
            assert service.finish_streams() == ()
            result = service.drain()
            record = result.records[0]
            assert record.served_tier >= 1
            assert record.n_settled + record.n_quarantined == record.n_input
            assert record.budget_balanced


# --------------------------------------------------------------- property

class TestStreamEqualsBatchProperty:
    """Hypothesis: ANY interleaving/chunking/ordering settles identically."""

    N = 45
    SHARDS = 3

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_arbitrary_stream_is_digest_identical(self, data):
        seed = data.draw(st.integers(min_value=0, max_value=2**20))
        root = root_entropy(seed)
        sizes = shard_sizes(self.N, self.SHARDS)
        reference = _batch_reference(root, sizes)

        ids_parts, wire_parts = [], []
        with _service() as service:
            for index, size in enumerate(sizes):
                neighborhood, shard_seed = sample_shard(root, index, size)
                service.register_stream_shard(index, neighborhood, seed=shard_seed)
                begin, end, duration = neighborhood.truthful_wire()
                ids_parts.append(np.asarray(neighborhood.ids))
                wire_parts.append((begin, end, duration))
            ids = np.concatenate(ids_parts)
            begin = np.concatenate([part[0] for part in wire_parts])
            end = np.concatenate([part[1] for part in wire_parts])
            duration = np.concatenate([part[2] for part in wire_parts])

            order = data.draw(st.permutations(range(self.N)))
            at = 0
            while at < self.N:
                take = data.draw(st.integers(min_value=1, max_value=9))
                rows = np.asarray(order[at : at + take])
                at += rows.shape[0]
                if data.draw(st.booleans()):
                    service.submit_reports(
                        ReportChunk(ids[rows], begin[rows], end[rows], duration[rows])
                    )
                else:  # the scalar object path must coalesce identically
                    service.submit_reports(
                        RawReport(
                            ids[row], float(begin[row]), float(end[row]),
                            float(duration[row]),
                        )
                        for row in rows.tolist()
                    )
            assert service.finish_streams() == ()
            assert _digests(service.drain()) == reference


# ------------------------------------------------------------ end-to-end

class TestStreamedCity:
    def test_streamed_city_matches_batch_city(self):
        batch = serve_city(n=300, shards=4, workers=1, seed=SEED)
        streamed = serve_city(
            n=300, shards=4, workers=1, seed=SEED, stream=True, stream_chunk=23
        )
        assert _digests(streamed) == _digests(batch)
        assert streamed.settled == 4

    def test_streamed_city_survives_kill_and_resumes_identically(
        self, tmp_path
    ):
        def injector(tag, kill_after):
            return ChaosInjector(
                plan=ChaosPlan(root=SEED),
                fault_dir=str(tmp_path / f"faults-{tag}"),
                service_plan=ServiceChaosPlan(
                    root=SEED,
                    flood_shards=frozenset({1}),
                    kill_after=kill_after,
                ),
            )

        def run(tag, kill_after, journal):
            return serve_city(
                n=100, shards=4, workers=1, seed=SEED,
                mechanism=serving_mechanism(seed=SEED),
                journal=journal, chaos=injector(tag, kill_after),
                stream=True, stream_chunk=13,
            )

        reference = run(
            "ref", None,
            CheckpointStore(str(tmp_path / "ref.jsonl"), fresh=True),
        )
        assert reference.settled == 4

        path = str(tmp_path / "journal.jsonl")
        with pytest.raises(ServiceInterrupted) as excinfo:
            run("chaos", 2, CheckpointStore(path, fresh=True))
        assert excinfo.value.exit_code == 17

        resumed = run("chaos", 2, CheckpointStore(path))
        assert resumed.settled == 4
        assert resumed.replayed
        assert _digests(resumed) == _digests(reference)
        # ...and the whole streamed+killed+resumed story equals batch.
        batch = run_batch = serve_city(
            n=100, shards=4, workers=1, seed=SEED,
            mechanism=serving_mechanism(seed=SEED),
            chaos=injector("batch", None),
        )
        assert _digests(resumed) == _digests(batch)
