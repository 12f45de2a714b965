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

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import ColumnarNeighborhood, RowIds
from repro.mechanisms.enki import serving_mechanism
from repro.robustness.chaos import ChaosInjector, ChaosPlan, ServiceChaosPlan
from repro.robustness.checkpoint import CheckpointStore
from repro.robustness.errors import ServiceInterrupted, ServiceOverloadError
from repro.robustness.quarantine import RawReport, malformed_mask
from repro.service import (
    BoundedIngestQueue,
    ColumnarReportBuilder,
    ReportChunk,
    ShardAssembler,
    ShardJob,
    ShardService,
    StreamIngestor,
    parse_canonical_ids,
    sample_shard,
    serve_city,
    shard_sizes,
)
from repro.service import stream as stream_module
from repro.sim.rng import root_entropy

SEED = 2214


# ----------------------------------------------------------------- parser

#: What the parser must accept, and nothing else: runs of at most 18
#: ASCII digits, which an int64 holds without wrapping.
_CANONICAL = re.compile(r"s(0|[1-9][0-9]{0,17})-hh([0-9]{1,18})")


def _digit_run(alphabet="0123456789"):
    return st.text(alphabet=alphabet, max_size=20)


_IDS = st.one_of(
    st.builds(
        lambda shard, row, width: f"s{shard}-hh{row:0{width}d}",
        st.integers(0, 10**18 - 1) | st.integers(0, 40),
        st.integers(0, 10**18 - 1) | st.integers(0, 40),
        st.integers(1, 18),
    ),
    # Lookalikes: 19-20 digit runs, leading-zero shards, non-ASCII
    # digits, embedded NULs, stray separators and suffixes.
    st.tuples(
        st.sampled_from(["s", "S", "", "ss"]),
        _digit_run() | _digit_run("01\u0663\uff11"),
        st.sampled_from(["-hh", "-h", "-hhh", "--hh", "\x00-hh", "-h\x00h", "_hh"]),
        _digit_run() | _digit_run("09\u0663\x00"),
        st.sampled_from(["", "\x00", "\x007", "x", "\u0663", "\x00" * 40 + "7"]),
    ).map("".join),
    st.text(max_size=12),
)


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

    @settings(max_examples=200, deadline=None)
    @given(ids=st.lists(_IDS, min_size=1, max_size=30), pad=st.integers(0, 45))
    def test_agrees_with_the_canonical_pattern(self, ids, pad):
        # Mixed layouts and lookalikes in one batch, at itemsizes from
        # the longest id up to past the longest canonical id.
        itemsize = max(1, max(len(text) for text in ids) + pad)
        arr = np.asarray(ids, dtype=(np.str_, itemsize))
        shard, row, row_d, ok = parse_canonical_ids(arr)
        swapped = parse_canonical_ids(arr.astype(arr.dtype.newbyteorder(">")))
        for got, expected in zip(swapped, (shard, row, row_d, ok)):
            np.testing.assert_array_equal(got, expected)
        for i, text in enumerate(arr.tolist()):
            match = _CANONICAL.fullmatch(text)
            if match is None:
                assert (ok[i], shard[i], row[i], row_d[i]) == (False, 0, 0, 0), text
            else:
                assert ok[i], text
                assert (shard[i], row[i], row_d[i]) == (
                    int(match[1]), int(match[2]), len(match[2])
                ), text


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

    def test_wrapping_lookalike_is_unknown_not_misrouted(self):
        # 2**64 + 3 wraps to 3 in int64: a parse summing the digits there
        # stored this report as shard 3's row 5 and then dropped the
        # genuine s3-hh5 as a duplicate.
        sizes = [10] * 4
        reference = _batch_reference(self.ROOT, sizes)
        with _service() as service:
            chunks = []
            for index, size in enumerate(sizes):
                neighborhood, shard_seed = sample_shard(self.ROOT, index, size)
                service.register_stream_shard(index, neighborhood, seed=shard_seed)
                begin, end, duration = neighborhood.truthful_wire()
                chunks.append(
                    ReportChunk(np.asarray(neighborhood.ids), begin, end, duration)
                )
            lookalike = f"s{2**64 + 3}-hh5"
            service.submit_reports(
                RawReport(lookalike, 0.0, 24.0, float(chunks[3].duration[5]))
            )
            for chunk in chunks:
                service.submit_reports(chunk)
            assert service.finish_streams() == ()
            assert service.stream_stats.unknown_rejected == 1
            assert service.stream_stats.duplicates == 0
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


# ----------------------------------------------------------- registration

def test_shard_recipe_registers_without_a_parse(monkeypatch):
    # A shard's own ``s<index>-hh`` RowIds is canonical by construction;
    # any other id vector is parsed, and routes through the dictionary
    # when it is not that shard's scheme.
    parsed = []

    def counting_parse(ids):
        parsed.append(len(ids))
        return parse_canonical_ids(ids)

    monkeypatch.setattr(stream_module, "parse_canonical_ids", counting_parse)
    sealed = []
    ingestor = StreamIngestor(
        queue=BoundedIngestQueue(capacity=4),
        enqueue=lambda index, job: sealed.append(index),
        flush_age_s=None,
    )
    root = root_entropy(SEED)
    chunks = []
    for index, sampled_as in ((3, 3), (5, 4)):
        neighborhood, shard_seed = sample_shard(root, sampled_as, 11)
        nan = np.full(len(neighborhood), np.nan)
        job = ShardJob(
            index=index, neighborhood=neighborhood, seed=shard_seed,
            begin=nan.copy(), end=nan.copy(), duration=nan.copy(),
        )
        ingestor.register(index, job, neighborhood.ids)
        begin, end, duration = neighborhood.truthful_wire()
        chunks.append(ReportChunk(np.asarray(neighborhood.ids), begin, end, duration))
    assert parsed == [11]  # only shard 5's "s4-hh" ids
    for chunk in chunks:
        ingestor.submit(chunk)
    ingestor.flush()
    assert sealed == [3, 5]
    assert ingestor.stats.unknown_rejected == 0


@pytest.mark.parametrize("replayed", [False, True])
def test_empty_id_vector_registers_like_the_empty_recipe(replayed):
    # An empty id vector has nothing to parse: it registers as the empty
    # ``s0-hh`` recipe does, for a live shard and for a replayed one.
    empty = np.zeros(0)
    job = ShardJob(
        index=0,
        neighborhood=ColumnarNeighborhood(
            ids=(), true_start=empty.astype(int), true_end=empty.astype(int),
            duration=empty.astype(int), rating=empty, valuation=empty,
        ),
        seed=0, begin=empty, end=empty, duration=empty,
    )
    neighborhood, shard_seed = sample_shard(root_entropy(SEED), 1, 6)
    nan = np.full(len(neighborhood), np.nan)
    begin, end, duration = neighborhood.truthful_wire()
    chunk = ReportChunk(
        np.asarray([*neighborhood.ids, "s0-hh0", "s0-hh00"]),
        np.append(begin, [1.0, 1.0]),
        np.append(end, [9.0, 9.0]),
        np.append(duration, [2.0, 2.0]),
    )
    stats = []
    for ids in ((), RowIds("s0-hh", 0)):
        ingestor = StreamIngestor(
            queue=BoundedIngestQueue(capacity=4),
            enqueue=lambda index, job: None,
            flush_age_s=None,
        )
        if replayed:
            ingestor.register_replayed(0, ids)
        else:
            ingestor.register(0, job, ids)
        ingestor.register(1, ShardJob(
            index=1, neighborhood=neighborhood, seed=shard_seed,
            begin=nan.copy(), end=nan.copy(), duration=nan.copy(),
        ), neighborhood.ids)
        ingestor.submit(chunk)
        ingestor.flush()
        stats.append(ingestor.stats)
    assert stats[0] == stats[1]
    assert stats[0].unknown_rejected == 2
    assert stats[0].shards_completed == 1


# -------------------------------------------------------------- assembler

class TestShardAssemblerScatter:
    """Fresh, distinct batches are written as they are; any other batch
    goes through ``np.unique``.  Both must keep the first write of every
    row, and the seal counts what the quarantine will flag."""

    N = 12

    @settings(max_examples=60, deadline=None)
    @given(
        batches=st.lists(
            st.lists(st.integers(0, N - 1), max_size=2 * N)
            | st.lists(st.integers(0, N - 1), unique=True, max_size=N)
            | st.permutations(range(N)).map(list),
            max_size=6,
        ),
        malformed=st.sets(st.integers(0, N - 1), max_size=3),
    )
    def test_first_write_wins_on_both_paths(self, batches, malformed):
        neighborhood, shard_seed = sample_shard(root_entropy(SEED), 0, self.N)
        _, end_t, duration_t = neighborhood.truthful_wire()
        nan = np.full(self.N, np.nan)
        job = ShardJob(
            index=0, neighborhood=neighborhood, seed=shard_seed,
            begin=nan.copy(), end=nan.copy(), duration=nan.copy(),
        )
        assembler = ShardAssembler(0, job, width=2)
        first = {}
        arrivals = 0
        for batch in batches + [list(range(self.N))]:
            rows = np.asarray(batch, dtype=np.int64)
            # Arrival k reports begin k, or NaN for a malformed row.
            stamp = np.arange(arrivals, arrivals + rows.shape[0], dtype=float)
            arrivals += rows.shape[0]
            begin = np.where(np.isin(rows, sorted(malformed)), np.nan, stamp)
            end = end_t[rows]
            duration = duration_t[rows]
            new = 0
            for row, value in zip(batch, begin.tolist()):
                if row not in first:
                    first[row] = value
                    new += 1
            assert assembler.scatter(rows, begin, end, duration) == new
            assert assembler.count == len(first)
            assert assembler.duplicates == arrivals - len(first)
        assert assembler.complete
        expected = np.asarray([first[row] for row in range(self.N)])
        np.testing.assert_array_equal(job.begin, expected)
        np.testing.assert_array_equal(job.end, end_t)
        np.testing.assert_array_equal(job.duration, duration_t)
        assembler.seal()
        flagged = malformed_mask(job.begin, job.end, job.duration, neighborhood.duration)
        assert flagged[sorted(malformed)].all()
        assert assembler.suspects == int(np.count_nonzero(flagged))
        with pytest.raises(RuntimeError, match="sealed"):
            assembler.scatter(rows, begin, end, duration)


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

    def test_mixed_layout_city_matches_batch_city(self):
        # Shards 0-9 and 10-11 of 10 or 11 rows: the city's one flush
        # holds ids of four layouts (s0-hh7, s2-hh07, s10-hh7, s11-hh07).
        batch = serve_city(n=125, shards=12, workers=1, seed=SEED)
        streamed = serve_city(
            n=125, shards=12, workers=1, seed=SEED, stream=True, stream_chunk=7
        )
        assert _digests(streamed) == _digests(batch)
        assert streamed.settled == 12

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
