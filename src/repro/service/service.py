"""The supervised shard service: ingest, settle, degrade, journal, resume.

:class:`ShardService` is the long-lived layer that turns the columnar
mechanism into something a city can feed continuously:

* **Ingestion** goes through a :class:`~repro.service.queue.
  BoundedIngestQueue` — a saturated service pushes back with
  :class:`~repro.robustness.errors.ServiceOverloadError` instead of
  buffering without bound.
* **Settlement** runs on a :class:`~repro.sim.parallel.
  ShardSupervisor` pool (a shard travels as its pickled columns), with
  deadlines, jittered retries and pool replacement.
* **Degradation** is per-shard: a :class:`~repro.service.breaker.
  CircuitBreaker` trips after repeated failures and the shard settles
  *inline* on the degraded chain — clamp quarantine in front of a
  :class:`~repro.robustness.fallback.FallbackAllocator` (greedy →
  random) — recorded with ``served_tier >= 1`` and the reason.  A sick
  shard is always settled on *some* tier; it is never silently dropped.
* **Journaling**: every settlement is appended to a
  :class:`~repro.robustness.checkpoint.CheckpointStore` keyed by shard;
  a killed service resumed against the same journal replays those
  records verbatim (byte-identical digests) and settles only the rest.

Theorem 1's weak budget balance is per-day arithmetic (Eq. 7), so it
holds for every settled shard regardless of which tier served it or how
many households the quarantine removed — each record carries its own
``budget_balanced`` witness.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..allocation.greedy import GreedyFlexibilityAllocator
from ..allocation.random_alloc import RandomAllocator
from ..core.columnar import ColumnarNeighborhood
from ..core.mechanism import EnkiMechanism
from ..io.audit import AuditEvent, AuditLog
from ..robustness.checkpoint import CheckpointStore
from ..robustness.errors import CheckpointError, ServiceInterrupted
from ..robustness.fallback import FallbackAllocator
from ..robustness.quarantine import Quarantine
from ..sim.parallel import (
    DEFAULT_BACKOFF_S,
    DEFAULT_JITTER,
    ShardCompletion,
    ShardSupervisor,
)
from .breaker import CircuitBreaker
from .queue import BoundedIngestQueue
from .shard import (
    ShardJob,
    ShardSettlementRecord,
    record_from_outcome,
    settle_shard,
)
from .stream import RawReport, ReportChunk, StreamIngestor, StreamStats

#: Journal key of the run-identity guard record.
META_KEY = "service-meta"


def shard_key(index: int) -> str:
    """The journal key for shard ``index``."""
    return f"shard-{index}"


@dataclass
class ServiceResult:
    """What a drained service hands back."""

    records: Dict[int, ShardSettlementRecord]
    degraded: Tuple[int, ...]
    replayed: Tuple[int, ...]
    overload_rejections: int
    pool_replacements: int
    wall_time_s: float

    @property
    def settled(self) -> int:
        return len(self.records)

    @property
    def n_households(self) -> int:
        return sum(record.n_input for record in self.records.values())

    def all_budget_balanced(self) -> bool:
        """Theorem 1 held on every settled shard."""
        return all(record.budget_balanced for record in self.records.values())


class ShardService:
    """Supervised settlement of many columnar days ("shards").

    Args:
        mechanism: The primary mechanism; default :class:`EnkiMechanism`.
        workers: Worker processes for the primary pool (1 = inline).
        queue_capacity / low_watermark: Ingestion backpressure watermarks
            (:class:`BoundedIngestQueue`).
        deadline_s: Per-shard wall-clock deadline on the primary pool.
        retries: Primary re-attempts before a shard is handed to the
            degraded path.
        failure_threshold: Consecutive failed *attempts* that trip a
            shard's circuit breaker; default ``retries + 1`` so the
            breaker opens exactly when the supervisor gives up.
        cooldown_s: Breaker cooldown before a half-open probe.
        journal: Optional :class:`CheckpointStore`; every settlement is
            appended under :func:`shard_key` and replayed on resubmission.
        journal_meta: Run-identity payload pinned into the journal under
            :data:`META_KEY`; a resumed journal whose meta differs raises
            :class:`CheckpointError` (resuming someone else's journal
            would silently mix two cities).
        audit: Optional :class:`AuditLog` receiving ``shard_settled`` /
            ``shard_degraded`` / ``shard_failure`` / ``service_overload``
            events (the event's ``day`` field carries the shard index).
        chaos: Optional :class:`~repro.robustness.chaos.ChaosInjector`
            with a service plan; workers fire its shard hooks and the
            service honours ``supervisor_kill_due`` by raising
            :class:`ServiceInterrupted` mid-drain (journal intact).
        clock: Monotonic time source for the breakers (injectable).
    """

    def __init__(
        self,
        mechanism: Optional[EnkiMechanism] = None,
        workers: Optional[int] = 1,
        queue_capacity: int = 64,
        low_watermark: Optional[int] = None,
        deadline_s: Optional[float] = None,
        retries: int = 2,
        failure_threshold: Optional[int] = None,
        cooldown_s: float = 30.0,
        backoff_s: float = DEFAULT_BACKOFF_S,
        jitter: float = DEFAULT_JITTER,
        journal: Optional[CheckpointStore] = None,
        journal_meta: Optional[Dict[str, Any]] = None,
        audit: Optional[AuditLog] = None,
        chaos: Optional[Any] = None,
        clock=time.monotonic,
    ) -> None:
        self.mechanism = mechanism if mechanism is not None else EnkiMechanism()
        self.chaos = chaos
        self.journal = journal
        self.audit = audit
        self._clock = clock
        self._failure_threshold = (
            failure_threshold if failure_threshold is not None else retries + 1
        )
        self._cooldown_s = cooldown_s
        self._queue: BoundedIngestQueue[ShardJob] = BoundedIngestQueue(
            queue_capacity, low_watermark
        )
        self._supervisor = ShardSupervisor(
            settle_shard,
            workers=workers,
            deadline_s=deadline_s,
            retries=retries,
            backoff_s=backoff_s,
            jitter=jitter,
        )
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._jobs: Dict[int, ShardJob] = {}
        self._records: Dict[int, ShardSettlementRecord] = {}
        self._degraded: List[int] = []
        self._replayed: List[int] = []
        self._submitted = 0
        self._started_at = time.perf_counter()
        self._degraded_mechanism: Optional[EnkiMechanism] = None
        self._stream: Optional[StreamIngestor] = None
        if journal is not None and journal_meta is not None:
            self._pin_meta(journal, dict(journal_meta))

    @staticmethod
    def _pin_meta(journal: CheckpointStore, meta: Dict[str, Any]) -> None:
        existing = journal.completed().get(META_KEY)
        if existing is None:
            journal.append(META_KEY, meta)
        elif existing != meta:
            raise CheckpointError(
                f"journal belongs to a different run: expected {meta}, "
                f"found {existing}"
            )

    # --------------------------------------------------------- lifecycle

    def __enter__(self) -> "ShardService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release the worker pool."""
        self._supervisor.close()

    # --------------------------------------------------------- ingestion

    @property
    def queue_depth(self) -> int:
        return self._queue.depth

    @property
    def pending(self) -> int:
        """Shards accepted but not yet settled."""
        return self._submitted - len(self._records)

    @property
    def settled(self) -> int:
        return len(self._records)

    def journal_has(self, index: int) -> bool:
        """Whether the journal already holds shard ``index``'s settlement."""
        return self.journal is not None and shard_key(index) in self.journal

    def submit_shard(
        self,
        index: int,
        neighborhood: ColumnarNeighborhood,
        begin: Optional[np.ndarray] = None,
        end: Optional[np.ndarray] = None,
        duration: Optional[np.ndarray] = None,
        seed: int = 0,
    ) -> bool:
        """Offer one shard for settlement.

        ``begin``/``end``/``duration`` are the raw wire report arrays
        (truthful true windows when omitted).  Returns ``True`` when the
        shard was replayed from the journal (already settled in a prior
        life), ``False`` when it was accepted for fresh settlement.

        Raises:
            ServiceOverloadError: Backpressure — the shard was **not**
                accepted; pump the service (or wait ``retry_after_s``)
                and resubmit.
        """
        if index in self._records or index in self._jobs:
            raise ValueError(f"shard {index} already submitted")
        if self.journal is not None:
            payload = self.journal.completed().get(shard_key(index))
            if payload is not None:
                record = ShardSettlementRecord.from_payload(payload)
                self._records[index] = record
                self._replayed.append(index)
                self._submitted += 1
                return True
        if begin is None:
            begin = neighborhood.true_start.astype(float)
        if end is None:
            end = neighborhood.true_end.astype(float)
        if duration is None:
            duration = neighborhood.duration.astype(float)
        job = ShardJob(
            index=index,
            neighborhood=neighborhood,
            seed=seed,
            begin=np.asarray(begin, dtype=float),
            end=np.asarray(end, dtype=float),
            duration=np.asarray(duration, dtype=float),
        )
        try:
            self._queue.submit(job)
        except Exception:
            self._log("service_overload", index, {
                "depth": self._queue.depth,
                "capacity": self._queue.capacity,
            })
            raise
        self._jobs[index] = job
        self._submitted += 1
        return False

    # ------------------------------------------------- streamed ingestion

    def _stream_ingestor(self) -> StreamIngestor:
        if self._stream is None:
            self._stream = StreamIngestor(
                queue=self._queue,
                enqueue=self._enqueue_stream_job,
                on_event=self._log,
                clock=self._clock,
            )
        return self._stream

    def _enqueue_stream_job(self, index: int, job: ShardJob) -> None:
        """Hand a completed streamed shard to the (accepting) queue."""
        self._queue.submit(job)
        self._jobs[index] = job
        self._submitted += 1

    @property
    def stream_stats(self) -> Optional[StreamStats]:
        """Counters of the streaming ingestor (``None`` if never streamed)."""
        return self._stream.stats if self._stream is not None else None

    def register_stream_shard(
        self,
        index: int,
        neighborhood: Optional[ColumnarNeighborhood],
        seed: int = 0,
        assume_canonical_ids: bool = False,
    ) -> bool:
        """Open shard ``index`` for report-stream ingestion.

        Gives the shard's job three NaN-filled report arrays for streamed
        rows to scatter into, and registers the shard's id space with the
        router.  The shard is *not* counted as submitted until its last
        report arrives and the sealed job enters the queue — an
        incomplete stream never blocks :meth:`drain`, and no row is
        written after the job is queued.

        Ids register without a parse when they are the canonical
        ``s<index>-hh<row>`` :class:`~repro.core.columnar.RowIds` that
        :func:`~repro.service.city.sample_shard` draws, or when the caller
        vouches for that scheme with ``assume_canonical_ids``; leave it
        off for ids of unknown provenance.

        Returns ``True`` when the shard was replayed from the journal
        (rows streamed for it will be dropped as already-settled),
        ``False`` when it is open for ingestion.  A replayed shard may be
        registered with ``neighborhood=None`` to skip sampling entirely.
        """
        if index in self._records or index in self._jobs:
            raise ValueError(f"shard {index} already submitted")
        ingestor = self._stream_ingestor()
        if self.journal is not None:
            payload = self.journal.completed().get(shard_key(index))
            if payload is not None:
                record = ShardSettlementRecord.from_payload(payload)
                self._records[index] = record
                self._replayed.append(index)
                self._submitted += 1
                ingestor.register_replayed(
                    index,
                    None if neighborhood is None else neighborhood.ids,
                )
                return True
        if neighborhood is None:
            raise ValueError(
                f"shard {index} is not in the journal; a neighborhood is "
                "required to open it for streaming"
            )
        rows = len(neighborhood)
        job = ShardJob(
            index=index,
            neighborhood=neighborhood,
            seed=seed,
            begin=np.full(rows, np.nan),
            end=np.full(rows, np.nan),
            duration=np.full(rows, np.nan),
        )
        ingestor.register(
            index, job, neighborhood.ids, assume_canonical_ids=assume_canonical_ids
        )
        return False

    def submit_reports(
        self, reports: Union[RawReport, ReportChunk, Iterable[RawReport]]
    ) -> int:
        """Ingest streamed reports (one, an iterable, or a columnar chunk).

        Reports coalesce in the ingestor's columnar micro-batch buffer
        and are routed to their registered shards on flush; a shard whose
        last row arrives is sealed and queued exactly as a batch
        :meth:`submit_shard` would have queued it.  Returns how many
        reports were ingested.

        Raises:
            ServiceOverloadError: Backpressure (queue depth plus sealed
                shards awaiting a slot) — **nothing** from this call was
                ingested; pump the service and resubmit the same payload.
        """
        return self._stream_ingestor().submit(reports)

    def flush_reports(self) -> None:
        """Force the ingestor's buffered micro-batch out (e.g. on idle)."""
        if self._stream is not None:
            self._stream.flush()

    def finish_streams(self) -> Tuple[int, ...]:
        """Close streamed ingestion: flush, queue every sealed shard.

        Pumps the service as needed until no sealed shard is stuck behind
        backpressure.  Returns the indices of registered shards still
        missing rows — those stay unsettled; an empty tuple means every
        streamed shard made it into the settlement pipeline.
        """
        if self._stream is None:
            return ()
        self._stream.flush(reason="final")
        while self._stream.ready_backlog:
            self.pump(block=True)
            self._stream.drain_ready()
        return self._stream.incomplete()

    # ------------------------------------------------------- settlement

    def _breaker(self, index: int) -> CircuitBreaker:
        breaker = self._breakers.get(index)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self._failure_threshold,
                cooldown_s=self._cooldown_s,
                clock=self._clock,
            )
            self._breakers[index] = breaker
        return breaker

    @property
    def _max_inflight(self) -> int:
        return max(2, 2 * self._supervisor.workers)

    def pump(self, block: bool = False) -> int:
        """Advance the service one scheduling round.

        Moves queued shards onto the pool (or straight to the degraded
        path when their breaker is open), collects pool completions, and
        settles/journals them.  Returns how many shards reached a
        terminal record during this call.
        """
        before = len(self._records)
        while len(self._queue) and self._supervisor.load < self._max_inflight:
            job = self._queue.pop()
            if self._breaker(job.index).allow_primary():
                self._supervisor.submit(
                    job.index, (job, self.mechanism, self.chaos)
                )
            else:
                self._settle_degraded(job, cause="circuit-breaker open", attempts=0)
        for completion in self._supervisor.step(block=block):
            self._on_completion(completion)
        return len(self._records) - before

    def drain(self) -> ServiceResult:
        """Settle everything accepted so far and return the result."""
        while self.pending > 0:
            made_progress = self.pump(block=True) > 0
            if (
                not made_progress
                and not len(self._queue)
                and self._supervisor.idle
            ):
                # Nothing queued, nothing in flight, yet shards are owed:
                # only open breakers can be holding jobs back — force the
                # degraded path rather than spin.
                for index in sorted(self._jobs):
                    self._settle_degraded(
                        self._jobs[index], cause="circuit-breaker open", attempts=0
                    )
        return ServiceResult(
            records=dict(self._records),
            degraded=tuple(sorted(self._degraded)),
            replayed=tuple(sorted(self._replayed)),
            overload_rejections=self._queue.rejections,
            pool_replacements=self._supervisor.pool_replacements,
            wall_time_s=time.perf_counter() - self._started_at,
        )

    def _on_completion(self, completion: ShardCompletion) -> None:
        breaker = self._breaker(completion.key)
        if completion.ok:
            breaker.record_success()
            record = completion.value.with_attempts(completion.attempts)
            self._finalize(completion.key, record, kind="shard_settled")
            return
        for _ in range(max(1, completion.attempts)):
            breaker.record_failure()
        self._log("shard_failure", completion.key, {
            "attempts": completion.attempts,
            "cause": completion.cause,
        })
        job = self._jobs[completion.key]
        self._settle_degraded(
            job,
            cause=f"retries exhausted: {completion.cause}",
            attempts=completion.attempts,
        )

    def _degraded_chain(self) -> EnkiMechanism:
        """The inline degraded-tier mechanism (built once, reused).

        Clamp quarantine in front of a greedy → random fallback chain:
        whatever poisoned the primary path — malformed floods included —
        the shard still settles, on a cheaper tier, with the clamp
        repairing what it can.  Seeded deterministically so degraded
        settlements are reproducible across runs and resumes.
        """
        if self._degraded_mechanism is None:
            self._degraded_mechanism = EnkiMechanism(
                pricing=self.mechanism.pricing,
                allocator=FallbackAllocator(
                    tiers=[
                        GreedyFlexibilityAllocator(seed=0),
                        RandomAllocator(seed=0),
                    ]
                ),
                k=self.mechanism.k,
                xi=self.mechanism.xi,
                quarantine=Quarantine("clamp"),
            )
        return self._degraded_mechanism

    def _settle_degraded(self, job: ShardJob, cause: str, attempts: int) -> None:
        """Settle a sick shard inline on the degraded chain — never drop it."""
        started_at = time.perf_counter()
        mechanism = self._degraded_chain()
        outcome = mechanism.run_day_columnar_raw(
            job.neighborhood,
            job.begin,
            job.end,
            job.duration,
            rng=random.Random(job.seed),
        )
        record = record_from_outcome(
            shard_id=job.index,
            n_input=len(job),
            outcome=outcome,
            wall_time_s=time.perf_counter() - started_at,
            # Tier 0 is the primary pool; the fallback chain's tiers sit
            # below it, so its tier t serves as overall tier 1 + t.
            served_tier_offset=1,
            degraded=cause,
        ).with_attempts(attempts + 1)
        self._degraded.append(job.index)
        self._finalize(job.index, record, kind="shard_degraded")

    def _finalize(
        self, index: int, record: ShardSettlementRecord, kind: str
    ) -> None:
        if self.journal is not None:
            self.journal.append(shard_key(index), record.as_payload())
        self._records[index] = record
        self._jobs.pop(index, None)
        self._log(kind, index, record.as_payload())
        if self.chaos is not None and self.chaos.supervisor_kill_due(
            len(self._records)
        ):
            raise ServiceInterrupted(
                settled=len(self._records),
                pending=self.pending,
                cause="chaos supervisor kill",
            )

    def _log(self, kind: str, index: int, payload: Dict[str, Any]) -> None:
        if self.audit is not None:
            self.audit.append(AuditEvent(kind=kind, day=index, payload=payload))
