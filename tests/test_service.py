"""The supervised shard service: queue, breaker, supervisor, service, city.

Covers the service layer bottom-up — watermark hysteresis on the
ingestion queue, circuit-breaker state transitions on a fake clock,
supervisor retry/deadline/pool-replacement accounting — and then
end-to-end: clean city runs are deterministic, backpressure rejects and
recovers, sick shards settle on the degraded tier (never dropped), and a
journaled service killed mid-run resumes byte-identically.  The chaos
acceptance gate lives in ``TestServiceChaosAcceptance``.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.columnar import ColumnarNeighborhood
from repro.core.mechanism import EnkiMechanism
from repro.mechanisms.enki import serving_mechanism
from repro.pricing.piecewise import TwoStepPricing
from repro.robustness.chaos import ChaosInjector, ChaosPlan, ServiceChaosPlan
from repro.robustness.checkpoint import CheckpointStore
from repro.robustness.errors import (
    CheckpointError,
    ServiceInterrupted,
    ServiceOverloadError,
)
from repro.robustness.quarantine import Quarantine
from repro.service import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BoundedIngestQueue,
    CircuitBreaker,
    ReportChunk,
    ShardService,
    ShardSettlementRecord,
    ShardSupervisor,
    sample_shard,
    serve_city,
    shard_sizes,
)
from repro.service.shard import settlement_digest
from repro.sim import parallel

SEED = 1107


# ------------------------------------------------------------------ queue

class TestBoundedIngestQueue:
    def test_accepts_to_capacity_then_rejects(self):
        queue = BoundedIngestQueue(capacity=3)
        for item in range(3):
            queue.submit(item)
        with pytest.raises(ServiceOverloadError) as excinfo:
            queue.submit(99)
        assert excinfo.value.depth == 3
        assert excinfo.value.capacity == 3
        assert excinfo.value.retry_after_s > 0
        assert queue.rejections == 1

    def test_hysteresis_rejects_until_low_watermark(self):
        queue = BoundedIngestQueue(capacity=4, low_watermark=2)
        for item in range(4):
            queue.submit(item)
        with pytest.raises(ServiceOverloadError):
            queue.submit(99)
        # One slot free is not enough: the latch holds above the low
        # watermark, so a saturated queue cannot flap accept/reject.
        queue.pop()
        with pytest.raises(ServiceOverloadError):
            queue.submit(99)
        queue.pop()  # depth 2 == low watermark: re-armed
        queue.submit(99)
        assert queue.depth == 3

    def test_retry_hint_scales_with_backlog(self):
        queue = BoundedIngestQueue(capacity=8, low_watermark=2, retry_after_s=0.1)
        for item in range(8):
            queue.submit(item)
        with pytest.raises(ServiceOverloadError) as excinfo:
            queue.submit(99)
        assert excinfo.value.retry_after_s == pytest.approx(0.1 * 6)

    def test_fifo_order(self):
        queue = BoundedIngestQueue(capacity=3)
        for item in ("a", "b", "c"):
            queue.submit(item)
        assert [queue.pop(), queue.pop(), queue.pop()] == ["a", "b", "c"]

    def test_retry_hint_tracks_observed_drain_rate(self):
        # Once the queue has seen pops, the hint is rate-based: a service
        # draining a shard every 50ms asks a blocked client to wait
        # backlog x 50ms, not backlog x the static fallback.
        clock = _FakeClock()
        queue = BoundedIngestQueue(
            capacity=8, low_watermark=2, retry_after_s=0.1, clock=clock
        )
        for item in range(8):
            queue.submit(item)
        assert queue.drain_interval_s is None  # cold: no rate yet
        for _ in range(4):
            queue.pop()
            clock.now += 0.05
        assert queue.drain_interval_s == pytest.approx(0.05)
        for item in range(4):
            queue.submit(item)
        with pytest.raises(ServiceOverloadError) as excinfo:
            queue.submit(99)
        assert excinfo.value.retry_after_s == pytest.approx(0.05 * 6)

    def test_drain_estimator_is_an_ewma(self):
        from repro.service.queue import DRAIN_EWMA_ALPHA

        clock = _FakeClock()
        queue = BoundedIngestQueue(capacity=8, clock=clock)
        for item in range(3):
            queue.submit(item)
        queue.pop()           # arms the estimator (no interval yet)
        clock.now += 0.1
        queue.pop()           # first interval seeds the average
        assert queue.drain_interval_s == pytest.approx(0.1)
        clock.now += 0.2
        queue.pop()           # newest interval enters at the EWMA weight
        expected = 0.1 + DRAIN_EWMA_ALPHA * (0.2 - 0.1)
        assert queue.drain_interval_s == pytest.approx(expected)

    def test_instant_drains_keep_a_positive_hint(self):
        from repro.service.queue import MIN_RETRY_AFTER_S

        clock = _FakeClock()
        queue = BoundedIngestQueue(capacity=4, clock=clock)
        for item in range(3):
            queue.submit(item)
        for _ in range(3):
            queue.pop()       # zero-interval pops: rate is "infinite"
        assert queue.drain_interval_s == 0.0
        assert queue.retry_hint(100) == MIN_RETRY_AFTER_S

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            BoundedIngestQueue(capacity=0)
        with pytest.raises(ValueError):
            BoundedIngestQueue(capacity=4, low_watermark=5)
        with pytest.raises(ValueError):
            BoundedIngestQueue(capacity=4, retry_after_s=0.0)


# ---------------------------------------------------------------- breaker

class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=_FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow_primary()

    def test_trips_open_at_threshold(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=_FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow_primary()

    def test_cooldown_admits_single_half_open_probe(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=10.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow_primary()
        clock.now += 10.0
        assert breaker.state == HALF_OPEN
        assert breaker.allow_primary()  # the probe
        assert not breaker.allow_primary()  # blocked while probe in flight

    def test_probe_success_closes(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        clock.now += 5.0
        assert breaker.allow_primary()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.failures == 0

    def test_probe_failure_reopens_for_fresh_cooldown(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        clock.now += 5.0
        assert breaker.allow_primary()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.now += 4.9
        assert not breaker.allow_primary()
        clock.now += 0.2
        assert breaker.allow_primary()

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=-1.0)


# ----------------------------------------------------------------- record

class TestShardSettlementRecord:
    RECORD = ShardSettlementRecord(
        shard_id=3,
        n_input=100,
        n_settled=97,
        n_quarantined=3,
        served_tier=1,
        allocator_name="fallback",
        degraded="retries exhausted: deadline",
        total_cost=123.5,
        revenue=140.25,
        peak_kw=9.0,
        budget_balanced=True,
        digest="ab" * 32,
        wall_time_s=0.25,
        attempts=3,
    )

    def test_payload_round_trip_is_exact(self):
        clone = ShardSettlementRecord.from_payload(self.RECORD.as_payload())
        assert clone == self.RECORD

    def test_fingerprint_excludes_operational_noise(self):
        slower = self.RECORD.with_attempts(9)
        assert slower.fingerprint() == self.RECORD.fingerprint()
        assert slower != self.RECORD


# ------------------------------------------------------------- supervisor

def _sup_ok(payload):
    return payload * 2


def _sup_cursed(payload):
    raise ValueError(f"payload {payload} is cursed")


def _sup_flaky(payload):
    """Fails once per marker path, then succeeds (transient fault)."""
    marker, value = payload
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return value * 2
    os.close(fd)
    raise RuntimeError("transient fault")


def _sup_sleepy(payload):
    time.sleep(payload)
    return payload


def _drain(supervisor):
    completions = []
    while not supervisor.idle:
        completions.extend(supervisor.step(block=True))
    completions.extend(supervisor.step(block=False))
    return completions


class TestShardSupervisor:
    def test_inline_success(self):
        supervisor = ShardSupervisor(_sup_ok, workers=1)
        supervisor.submit(0, 21)
        (completion,) = supervisor.step(block=False)
        assert completion.ok and completion.value == 42
        assert completion.attempts == 1

    def test_inline_transient_fault_retries(self, tmp_path):
        supervisor = ShardSupervisor(
            _sup_flaky, workers=1, retries=2, backoff_s=0.0
        )
        supervisor.submit(7, (str(tmp_path / "fuse"), 5))
        (completion,) = supervisor.step(block=False)
        assert completion.ok and completion.value == 10
        assert completion.attempts == 2

    def test_inline_exhausted_retries_surface_failure(self):
        supervisor = ShardSupervisor(
            _sup_cursed, workers=1, retries=1, backoff_s=0.0
        )
        supervisor.submit(4, "x")
        (completion,) = supervisor.step(block=False)
        assert not completion.ok
        assert completion.value is None
        assert completion.attempts == 2
        assert "cursed" in completion.cause

    def test_inline_posthoc_deadline_burns_attempts(self):
        supervisor = ShardSupervisor(
            _sup_sleepy, workers=1, deadline_s=0.02, retries=1, backoff_s=0.0
        )
        supervisor.submit(0, 0.08)
        (completion,) = supervisor.step(block=False)
        assert not completion.ok
        assert "deadline" in completion.cause
        assert completion.attempts == 2

    def test_pool_transient_fault_retries(self, tmp_path):
        with ShardSupervisor(
            _sup_flaky, workers=2, retries=2, backoff_s=0.0
        ) as supervisor:
            supervisor.submit(1, (str(tmp_path / "a"), 3))
            supervisor.submit(2, (str(tmp_path / "b"), 4))
            completions = {c.key: c for c in _drain(supervisor)}
        assert completions[1].value == 6
        assert completions[2].value == 8
        assert all(c.attempts == 2 for c in completions.values())

    def test_pool_exhausted_retries_surface_failure(self):
        with ShardSupervisor(
            _sup_cursed, workers=2, retries=1, backoff_s=0.0
        ) as supervisor:
            supervisor.submit(9, "x")
            completions = _drain(supervisor)
        (completion,) = completions
        assert not completion.ok and completion.attempts == 2
        assert "cursed" in completion.cause

    def test_pool_deadline_kills_and_replaces(self):
        with ShardSupervisor(
            _sup_sleepy, workers=2, deadline_s=0.2, retries=0, backoff_s=0.0
        ) as supervisor:
            supervisor.submit(0, 30.0)  # would hang half a minute
            completions = _drain(supervisor)
        (completion,) = completions
        assert not completion.ok
        assert "deadline" in completion.cause
        assert supervisor.pool_replacements >= 1

    def test_queued_shards_do_not_breach_while_waiting(self):
        # Four 0.3 s shards on two workers: the second pair waits 0.3 s
        # for a worker, then runs 0.3 s, inside its 0.5 s deadline.
        with ShardSupervisor(
            _sup_sleepy, workers=2, deadline_s=0.5, retries=2, backoff_s=0.0
        ) as supervisor:
            for key in range(4):
                supervisor.submit(key, 0.3)
            completions = _drain(supervisor)
        assert supervisor.pool_replacements == 0
        assert sorted((c.key, c.ok, c.attempts) for c in completions) == [
            (key, True, 1) for key in range(4)
        ]

    def test_result_arriving_at_a_breach_is_kept(self, monkeypatch):
        # The wait never reports the fast shard, so it is still in flight,
        # already finished, when the slow one breaches and the pool dies.
        real_wait = parallel.wait

        def blind_wait(futures, timeout=None, return_when=None):
            real_wait(futures, timeout=timeout, return_when=return_when)
            return set(), set(futures)

        monkeypatch.setattr(parallel, "wait", blind_wait)
        with ShardSupervisor(
            _sup_sleepy, workers=2, deadline_s=0.5, retries=0
        ) as supervisor:
            supervisor.submit(0, 0.01)
            supervisor.submit(1, 30.0)
            completions = {c.key: c for c in _drain(supervisor)}
        assert completions[0].ok and completions[0].value == 0.01
        assert not completions[1].ok and "deadline" in completions[1].cause

    def test_close_with_work_in_flight_lets_the_process_exit(self):
        script = (
            "import time\n"
            "from repro.service import ShardSupervisor\n"
            "supervisor = ShardSupervisor(time.sleep, workers=2)\n"
            "supervisor.submit(0, 30.0)\n"
            "time.sleep(0.5)\n"
            "supervisor.close()\n"
        )
        started = time.monotonic()
        subprocess.run([sys.executable, "-c", script], check=True, timeout=20)
        assert time.monotonic() - started < 10.0

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            ShardSupervisor(_sup_ok, retries=-1)
        with pytest.raises(ValueError):
            ShardSupervisor(_sup_ok, deadline_s=0.0)


# ---------------------------------------------------------------- service

def _fingerprints(result):
    return {
        index: record.fingerprint() for index, record in result.records.items()
    }


class TestShardService:
    def test_clean_city_settles_every_shard_tier_zero(self):
        result = serve_city(
            n=80, shards=4, workers=1, seed=SEED,
            mechanism=serving_mechanism(seed=SEED),
        )
        assert result.settled == 4
        assert result.n_households == 80
        assert result.degraded == ()
        assert result.all_budget_balanced()
        assert all(r.served_tier == 0 for r in result.records.values())
        assert all(r.n_quarantined == 0 for r in result.records.values())

    def test_city_is_deterministic_across_runs(self):
        kwargs = dict(
            n=60, shards=3, workers=1, seed=SEED,
            mechanism=serving_mechanism(seed=SEED),
        )
        assert _fingerprints(serve_city(**kwargs)) == _fingerprints(
            serve_city(**kwargs)
        )

    def test_backpressure_rejects_then_recovers(self):
        # Queue smaller than the shard count: ingestion must hit the high
        # watermark, push back, and still settle everything.
        result = serve_city(
            n=60, shards=6, workers=1, seed=SEED,
            mechanism=serving_mechanism(seed=SEED),
            queue_capacity=2, low_watermark=1,
        )
        assert result.settled == 6
        assert result.overload_rejections > 0
        assert result.all_budget_balanced()

    def test_pooled_city_prints_no_tracker_traceback(self):
        # A pooled city leaves stderr clean.  A teardown fault once made
        # the multiprocessing resource tracker print a KeyError traceback
        # per shard; the tracker writes to the stderr of the interpreter
        # that started it, so the city runs in a fresh one.
        script = (
            "from repro.service.city import serve_city\n"
            "serve_city(4000, shards=4, workers=2, queue_capacity=1)\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, timeout=120,
        )
        assert "Traceback" not in child.stderr

    def test_overload_error_carries_retry_after(self):
        neighborhood, seed = sample_shard(SEED, 0, 10)
        with ShardService(
            mechanism=serving_mechanism(seed=SEED), queue_capacity=1
        ) as service:
            service.submit_shard(0, neighborhood, seed=seed)
            other, other_seed = sample_shard(SEED, 1, 10)
            with pytest.raises(ServiceOverloadError) as excinfo:
                service.submit_shard(1, other, seed=other_seed)
            assert excinfo.value.retry_after_s > 0
            # The rejected shard was not accepted anywhere.
            assert service.pending == 1

    def test_poisoned_shard_settles_degraded_never_dropped(self, tmp_path):
        # Strict primary (no quarantine) + NaN reports: every primary
        # attempt raises, the breaker trips, and the shard must still
        # settle — on the degraded clamp+fallback tier.
        neighborhood, seed = sample_shard(SEED, 0, 12)
        begin = neighborhood.true_start.astype(float)
        begin[::3] = float("nan")
        with ShardService(
            mechanism=serving_mechanism(seed=SEED, quarantine_policy=None),
            workers=1, retries=1, backoff_s=0.0,
        ) as service:
            service.submit_shard(
                0, neighborhood, begin=begin, seed=seed
            )
            record = service.drain().records[0]
        assert record.served_tier >= 1
        assert record.degraded.startswith("retries exhausted")
        assert record.n_settled == record.n_input  # clamp repaired, not dropped
        assert record.budget_balanced
        assert record.attempts == 3  # two primary attempts + degraded

    def test_open_breaker_routes_straight_to_degraded(self):
        clock = _FakeClock()
        neighborhood, seed = sample_shard(SEED, 0, 10)
        with ShardService(
            mechanism=serving_mechanism(seed=SEED),
            workers=1, failure_threshold=1, clock=clock,
        ) as service:
            # Trip shard 0's breaker before it is ever dispatched.
            service._breaker(0).record_failure()
            service.submit_shard(0, neighborhood, seed=seed)
            record = service.drain().records[0]
        assert record.served_tier >= 1
        assert "circuit-breaker open" in record.degraded

    def test_journal_resume_replays_byte_identically(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        kwargs = dict(
            n=40, shards=4, workers=1, seed=SEED,
            mechanism=serving_mechanism(seed=SEED),
        )
        first = serve_city(
            journal=CheckpointStore(path, fresh=True), **kwargs
        )
        resumed = serve_city(journal=CheckpointStore(path), **kwargs)
        assert resumed.replayed == (0, 1, 2, 3)
        # Replay is verbatim: wall times and attempts included.
        assert resumed.records == first.records

    def test_journal_meta_guard_rejects_other_city(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        serve_city(
            n=20, shards=2, workers=1, seed=SEED,
            mechanism=serving_mechanism(seed=SEED),
            journal=CheckpointStore(path, fresh=True),
        )
        with pytest.raises(CheckpointError):
            serve_city(
                n=20, shards=2, workers=1, seed=SEED + 1,
                mechanism=serving_mechanism(seed=SEED + 1),
                journal=CheckpointStore(path),
            )

    def test_duplicate_shard_rejected(self):
        neighborhood, seed = sample_shard(SEED, 0, 10)
        with ShardService(mechanism=serving_mechanism(seed=SEED)) as service:
            service.submit_shard(0, neighborhood, seed=seed)
            with pytest.raises(ValueError, match="already submitted"):
                service.submit_shard(0, neighborhood, seed=seed)

    def test_audit_trail_records_settlements(self, tmp_path):
        from repro.io.audit import AuditLog

        path = str(tmp_path / "audit.jsonl")
        serve_city(
            n=20, shards=2, workers=1, seed=SEED,
            mechanism=serving_mechanism(seed=SEED),
            audit=AuditLog(path),
        )
        kinds = [event.kind for event in AuditLog(path).events()]
        assert kinds.count("shard_settled") == 2


def _mixed_rating_shard(index, n, rng):
    """A hand-built shard whose households draw 1.1, 2.0 or 7.2 kW.

    ``ProfileGenerator`` gives every household one rating, so sampled
    shards never mix non-binary ratings.
    """
    duration = rng.integers(1, 5, size=n)
    slack = rng.integers(0, 9, size=n)
    start = rng.integers(0, 25 - duration - slack)
    return ColumnarNeighborhood(
        ids=tuple(f"s{index}-hh{row:03d}" for row in range(n)),
        true_start=start,
        true_end=start + duration + slack,
        duration=duration,
        rating=rng.choice([1.1, 2.0, 7.2], size=n),
        valuation=rng.uniform(4.0, 10.0, size=n),
    )


class TestMixedRatingCity:
    """Batch and streamed shards settle as the inline day settles them.

    Mixed non-binary ratings under two-step pricing, at one worker and at
    two: every journaled digest equals the digest of the same shard run
    inline through ``run_day_columnar_raw``.
    """

    SHARDS = 4
    ROWS = 1000

    @staticmethod
    def _mechanism():
        return EnkiMechanism(
            pricing=TwoStepPricing(threshold_kw=400.0, low_rate=1.0, high_rate=4.0),
            seed=SEED,
            quarantine=Quarantine("clamp"),
        )

    def _shards(self):
        rng = np.random.default_rng(SEED)
        return [
            (_mixed_rating_shard(index, self.ROWS, rng), SEED + index)
            for index in range(self.SHARDS)
        ]

    def _inline_digests(self, shards):
        mechanism = self._mechanism()
        return {
            index: settlement_digest(
                mechanism.run_day_columnar_raw(
                    neighborhood,
                    *neighborhood.truthful_wire(),
                    rng=random.Random(seed),
                )
            )
            for index, (neighborhood, seed) in enumerate(shards)
        }

    @staticmethod
    def _stream(service, shards, pieces=3):
        """Every shard's rows, shuffled, dealt round-robin in chunks."""
        chunks = []
        for index, (neighborhood, _) in enumerate(shards):
            ids = np.asarray(neighborhood.ids)
            begin, end, duration = neighborhood.truthful_wire()
            order = np.random.default_rng(index).permutation(len(neighborhood))
            chunks.append([
                ReportChunk(ids[rows], begin[rows], end[rows], duration[rows])
                for rows in np.array_split(order, pieces)
            ])
        for piece in range(pieces):
            for shard_chunks in chunks:
                service.submit_reports(shard_chunks[piece])
        assert service.finish_streams() == ()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("stream", [False, True], ids=["batch", "stream"])
    def test_journaled_digests_equal_inline_days(self, tmp_path, stream, workers):
        shards = self._shards()
        assert len(set(np.concatenate([nb.rating for nb, _ in shards]))) == 3
        path = str(tmp_path / "journal.jsonl")
        with ShardService(
            mechanism=self._mechanism(),
            workers=workers,
            journal=CheckpointStore(path),
        ) as service:
            for index, (neighborhood, seed) in enumerate(shards):
                if stream:
                    service.register_stream_shard(index, neighborhood, seed=seed)
                else:
                    service.submit_shard(index, neighborhood, seed=seed)
            if stream:
                self._stream(service, shards)
            result = service.drain()
        assert result.degraded == ()
        journaled = {
            int(key.split("-")[1]): payload["digest"]
            for key, payload in CheckpointStore(path).completed().items()
            if key.startswith("shard-")
        }
        inline = self._inline_digests(shards)
        assert len(set(inline.values())) == self.SHARDS
        assert journaled == inline


class TestCityHelpers:
    def test_shard_sizes_cover_exactly(self):
        assert sum(shard_sizes(1_000_003, 17)) == 1_000_003
        assert shard_sizes(10, 3) == [3, 3, 4]
        assert shard_sizes(2, 8) == [1, 1]  # never more shards than rows

    def test_shard_sizes_validated(self):
        with pytest.raises(ValueError):
            shard_sizes(0, 4)
        with pytest.raises(ValueError):
            shard_sizes(10, 0)

    def test_sample_shard_is_pure_in_root_and_index(self):
        a_nbhd, a_seed = sample_shard(7, 3, 25)
        b_nbhd, b_seed = sample_shard(7, 3, 25)
        assert a_seed == b_seed
        assert a_nbhd.ids == b_nbhd.ids
        assert np.array_equal(a_nbhd.true_start, b_nbhd.true_start)
        assert np.array_equal(a_nbhd.valuation, b_nbhd.valuation)
        c_nbhd, c_seed = sample_shard(7, 4, 25)
        assert c_seed != a_seed
        assert c_nbhd.ids != a_nbhd.ids


class TestCityCli:
    def test_city_subcommand_smoke(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "city.jsonl")
        argv = [
            "city", "--n", "40", "--shards", "2", "--seed", str(SEED),
            "--checkpoint", path,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "shards settled" in out and "2" in out
        assert "budget balanced (Thm 1)" in out and "yes" in out

        # Resuming replays both shards from the journal.
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "replayed from journal" in out

    def test_city_journal_mismatch_maps_to_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "city.jsonl")
        base = ["city", "--n", "40", "--shards", "2", "--checkpoint", path]
        assert main(base + ["--seed", "1"]) == 0
        capsys.readouterr()
        assert main(base + ["--seed", "2", "--resume"]) == CheckpointError.exit_code


# ----------------------------------------------------- chaos acceptance

@pytest.mark.chaos
class TestServiceChaosAcceptance:
    """The acceptance gate: SIGKILLs, stalls and floods lose nothing.

    One explicit fault plan — a slow shard, a SIGKILL shard, a
    malformed-flood shard — driven through a parallel service with a
    tight deadline and a supervisor-kill fuse.  Every shard must settle
    (degraded tiers recorded, never dropped), Theorem 1 must hold on
    every settled day, and the killed-then-resumed service must
    reproduce the uninterrupted run's settlement records byte-for-byte
    (digest fingerprints).
    """

    SHARDS = 5
    N = 50

    def _plan(self, kill_after):
        return ServiceChaosPlan(
            root=SEED,
            slow_shards=frozenset({1}),
            kill_shards=frozenset({2}),
            flood_shards=frozenset({3}),
            kill_after=kill_after,
        )

    def _run(self, tmp_path, tag, kill_after, journal):
        injector = ChaosInjector(
            plan=ChaosPlan(root=SEED),
            fault_dir=str(tmp_path / f"faults-{tag}"),
            kill=True,
            slow_s=1.2,
            service_plan=self._plan(kill_after),
        )
        return serve_city(
            n=self.N, shards=self.SHARDS, workers=2, seed=SEED,
            mechanism=serving_mechanism(seed=SEED, quarantine_policy=None),
            deadline_s=0.5, retries=2, backoff_s=0.05, jitter=0.0,
            journal=journal, chaos=injector,
        )

    @staticmethod
    def _digests(result):
        return {
            index: record.digest for index, record in result.records.items()
        }

    def test_chaos_run_loses_nothing_and_resumes_identically(self, tmp_path):
        # Reference: same faults, no supervisor kill, its own fuse dir.
        reference = self._run(
            tmp_path, "ref", kill_after=None,
            journal=CheckpointStore(str(tmp_path / "ref.jsonl"), fresh=True),
        )
        assert reference.settled == self.SHARDS

        # The flood shard's corruption was repaired, never silently
        # dropped: settled + quarantined == input, budget still balanced.
        flood = reference.records[3]
        assert flood.n_settled + flood.n_quarantined == flood.n_input
        assert flood.n_settled > 0
        assert flood.budget_balanced

        # The supervised run dies after two settlements...
        path = str(tmp_path / "journal.jsonl")
        with pytest.raises(ServiceInterrupted):
            self._run(
                tmp_path, "chaos", kill_after=2,
                journal=CheckpointStore(path, fresh=True),
            )
        survivors = CheckpointStore(path).completed()
        assert len([k for k in survivors if k.startswith("shard-")]) >= 2

        # ...and the resumed service finishes the city.
        resumed = self._run(
            tmp_path, "chaos", kill_after=2, journal=CheckpointStore(path)
        )
        assert resumed.settled == self.SHARDS
        assert resumed.replayed  # at least the pre-kill settlements

        # Zero lost days; Theorem 1 on every settled shard.
        assert sorted(resumed.records) == list(range(self.SHARDS))
        assert resumed.all_budget_balanced()
        assert reference.all_budget_balanced()

        # The slow shard exhausted its deadline and settled degraded; the
        # flood shard's malformed reports drove it off the strict primary;
        # the SIGKILLed shard recovered onto tier 0 via its one-shot fuse.
        assert resumed.records[1].served_tier >= 1
        assert resumed.records[3].served_tier >= 1
        assert resumed.records[2].served_tier == 0
        assert resumed.pool_replacements + reference.pool_replacements > 0

        # Byte-identical settlement (allocation, consumption, payments):
        # interrupted + resumed == uninterrupted, shard for shard.
        assert self._digests(resumed) == self._digests(reference)


class TestStreamedFlood:
    """Chaos flood corruption applied mid-stream, chunk by chunk.

    The flood shard's corrupted rows must land in the quarantine (counted,
    repaired-or-excluded, never silently settled), the settlement record
    must carry its served tier, the audit trail must show the streamed
    shard completing with its suspect count — and the whole streamed chaos
    run must be digest-identical to the batch run whose corruption was
    applied in one whole-shard pass.
    """

    def _injector(self, tmp_path, tag):
        return ChaosInjector(
            plan=ChaosPlan(root=SEED),
            fault_dir=str(tmp_path / f"faults-{tag}"),
            service_plan=ServiceChaosPlan(
                root=SEED, flood_shards=frozenset({1})
            ),
        )

    def _run(self, tmp_path, tag, audit, stream):
        # "exclude" keeps the quarantine's rejections visible in
        # n_quarantined (clamp would repair them invisibly).
        return serve_city(
            n=90, shards=3, workers=1, seed=SEED,
            mechanism=serving_mechanism(seed=SEED, quarantine_policy="exclude"),
            audit=audit, chaos=self._injector(tmp_path, tag),
            stream=stream, stream_chunk=11,
        )

    def test_mid_stream_corruption_lands_in_quarantine(self, tmp_path):
        from repro.io.audit import AuditLog

        audit_path = str(tmp_path / "stream-audit.jsonl")
        streamed = self._run(
            tmp_path, "stream", AuditLog(audit_path), stream=True
        )
        assert streamed.settled == 3

        flood = streamed.records[1]
        assert flood.n_quarantined > 0  # corrupted rows were caught...
        assert flood.n_settled + flood.n_quarantined == flood.n_input
        assert flood.served_tier == 0   # ...on the primary tier, intact
        assert flood.budget_balanced
        clean = streamed.records[0]
        assert clean.n_quarantined == 0  # corruption never leaks shards

        log = AuditLog(audit_path)
        completions = {
            event.day: event.payload
            for event in log.events("stream_shard_complete")
        }
        assert set(completions) == {0, 1, 2}
        # Counted as the shard sealed: exactly the rows the quarantine took.
        assert completions[1]["suspect_rows"] == flood.n_quarantined
        assert completions[0]["suspect_rows"] == 0
        settled_days = [event.day for event in log.events("shard_settled")]
        assert sorted(settled_days) == [0, 1, 2]

        # Same fault plan, whole-shard corruption: identical settlement.
        batch = self._run(tmp_path, "batch", None, stream=False)
        assert {i: r.digest for i, r in streamed.records.items()} == {
            i: r.digest for i, r in batch.records.items()
        }
