"""Streaming report ingestion: columnar micro-batching.

The batch service ingests whole-shard arrays; real traffic arrives as
individual :class:`~repro.robustness.quarantine.RawReport`\\ s, interleaved
across shards and out of order.  This module turns that stream back into
the exact columnar shards the batch path produces — digest-identical
settlements — without ever building a per-report object graph:

* :class:`ColumnarReportBuilder` — a preallocated, growable
  structure-of-arrays append buffer.  ``append`` lowers one report's
  fields straight into dtype-stable float64 arrays (Python-object cost
  paid once, at the rim); ``append_columnar`` ingests a whole
  :class:`ReportChunk` at array-slice cost.  The buffer is the
  micro-batch: nothing downstream sees individual reports.
* A vectorized **shard router** — canonical city ids
  (``s<shard>-hh<row>``, zero-padded rows) are parsed in a few array
  passes per id *layout* (dash column and length), yielding
  ``(shard, row)`` for a whole batch, which one stable sort then splits
  by shard.  The parse is *verifying*: digit runs are capped at 18, which
  an int64 holds without wrapping, so an id routes by the parse only if
  it spells a registered canonical row's id exactly.  Every other id
  falls back to a per-shard dictionary built at registration.
* :class:`ShardAssembler` — one per registered shard: scatters routed
  micro-batch rows directly into the report arrays of the shard's
  :class:`~repro.service.shard.ShardJob` (NaN-filled at registration),
  keeping each row's first write, and seals when every row has arrived,
  counting admission suspects with the same
  :func:`~repro.robustness.quarantine.malformed_mask` the settlement
  quarantine applies.
* :class:`StreamIngestor` — the coalescer: flushes the builder on a
  size watermark, an age deadline, or shard completion; hands sealed
  shards' jobs to the service queue.  A job is queued only once sealed,
  so no scatter writes to arrays the pool may be pickling, and nothing
  is copied after the scatter.

Backpressure composes with the bounded queue: when sealed shards are
ready but the queue is not accepting, the next ``submit`` call is
rejected **before ingesting anything** by the queue's own
``check_admission``, with a
:class:`~repro.robustness.errors.ServiceOverloadError` whose depth and
retry hint cover queue depth *plus* the ready backlog — a rejected call
ingested zero reports, so the client can resubmit the same chunk after
pumping, with no loss and no duplication.  The queue counts that error
and latches its watermark hysteresis; holding sealed shards back
meanwhile is neither counted nor latched.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from ..core.columnar import RowIds
from ..robustness.errors import ServiceOverloadError
from ..robustness.quarantine import RawReport, malformed_mask
from .queue import BoundedIngestQueue
from .shard import ShardJob

#: Builder occupancy that triggers a size-watermark flush.
DEFAULT_FLUSH_ROWS = 8192

#: Seconds the oldest buffered report may wait before an age flush.
DEFAULT_FLUSH_AGE_S = 0.25

#: Character codes the id parser matches against.
_ORD_S, _ORD_DASH, _ORD_H, _ORD_0 = 115, 45, 104, 48

#: Longest shard or row digit run the parser accepts: any 18 digits fit an
#: int64, so a longer run can never wrap into a registered index.
_MAX_DIGITS = 18

#: Longest canonical id: ``s``, a shard run, ``-hh`` and a row run.
_MAX_ID_CHARS = 4 + 2 * _MAX_DIGITS


def _wire_value(value: Any) -> float:
    """Lower one report field to its float64 wire form.

    Numeric values pass through; everything else — strings, bools, None,
    objects — becomes NaN, which the downstream quarantine flags exactly
    like the object path's scalar validator rejects non-numeric bounds.
    """
    if isinstance(value, bool) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        return float("nan")
    return float(value)


@dataclass(frozen=True)
class ReportChunk:
    """A pre-columnar slice of the report stream (the bulk wire format).

    ``ids[i]``'s report is ``(begin[i], end[i], duration[i])``.  Chunks
    may interleave shards and arrive in any row order; the router sorts
    it out.  ``ids`` is ideally a numpy unicode array (zero conversion on
    ingest); any sequence of strings is accepted.
    """

    ids: Union[np.ndarray, Sequence[str]]
    begin: np.ndarray
    end: np.ndarray
    duration: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


class ColumnarReportBuilder:
    """Growable SoA append buffer lowering reports into wire arrays.

    The numeric columns are preallocated float64 arrays that double in
    capacity as needed — an ``append`` amortizes to one scalar store per
    field, an ``append_columnar`` to one array copy per field.  Ids are
    kept as the parts they arrived in (arrays from chunks, a list for
    scalar appends) and concatenated once per drain.

    :meth:`drain` returns *views* of the internal buffers and resets the
    row count; the views are valid until the next append, which is all a
    synchronous flush needs — steady-state ingestion allocates nothing
    per batch.
    """

    def __init__(self, capacity: int = 1024) -> None:
        capacity = max(1, int(capacity))
        self._begin = np.empty(capacity, dtype=np.float64)
        self._end = np.empty(capacity, dtype=np.float64)
        self._duration = np.empty(capacity, dtype=np.float64)
        self._id_parts: List[Any] = []
        self._scalar_ids: Optional[List[str]] = None
        self._n = 0
        self._first_at: Optional[float] = None

    def __len__(self) -> int:
        return self._n

    @property
    def occupancy(self) -> int:
        return self._n

    def age_s(self, now: float) -> float:
        """Seconds the oldest buffered report has waited (0 when empty)."""
        if self._first_at is None:
            return 0.0
        return max(0.0, now - self._first_at)

    def _ensure(self, need: int) -> None:
        have = self._begin.shape[0]
        if need <= have:
            return
        grown = max(need, 2 * have)
        for name in ("_begin", "_end", "_duration"):
            old = getattr(self, name)
            new = np.empty(grown, dtype=np.float64)
            new[: self._n] = old[: self._n]
            setattr(self, name, new)

    def _stamp(self, now: Optional[float]) -> None:
        if self._first_at is None and now is not None:
            self._first_at = now

    def append(self, report: RawReport, now: Optional[float] = None) -> None:
        """Lower one raw report into the buffer (the per-report rim)."""
        if self._scalar_ids is None:
            self._scalar_ids = []
            self._id_parts.append(self._scalar_ids)
        self._scalar_ids.append(str(report.household_id))
        i = self._n
        self._ensure(i + 1)
        self._begin[i] = _wire_value(report.begin)
        self._end[i] = _wire_value(report.end)
        self._duration[i] = _wire_value(report.duration)
        self._n = i + 1
        self._stamp(now)

    def append_columnar(
        self,
        ids: Union[np.ndarray, Sequence[str]],
        begin: np.ndarray,
        end: np.ndarray,
        duration: np.ndarray,
        now: Optional[float] = None,
    ) -> int:
        """Bulk-lower a chunk; returns how many rows were buffered."""
        begin = np.asarray(begin, dtype=np.float64)
        end = np.asarray(end, dtype=np.float64)
        duration = np.asarray(duration, dtype=np.float64)
        k = begin.shape[0]
        if end.shape[0] != k or duration.shape[0] != k or len(ids) != k:
            raise ValueError("chunk arrays are not aligned")
        if k == 0:
            return 0
        if isinstance(ids, np.ndarray) and ids.dtype.kind == "U":
            ids_arr: Any = ids
        else:
            ids_arr = np.asarray(ids, dtype=np.str_)
        self._id_parts.append(ids_arr)
        self._scalar_ids = None
        i = self._n
        self._ensure(i + k)
        self._begin[i : i + k] = begin
        self._end[i : i + k] = end
        self._duration[i : i + k] = duration
        self._n = i + k
        self._stamp(now)
        return k

    def drain(
        self,
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Hand the buffered micro-batch over and reset.

        Returns ``(ids, begin, end, duration)`` — the numeric arrays are
        views of the internal buffers, valid until the next append — or
        ``None`` when the buffer is empty.
        """
        n = self._n
        if n == 0:
            return None
        parts = [
            part if isinstance(part, np.ndarray) else np.asarray(part, dtype=np.str_)
            for part in self._id_parts
        ]
        ids = parts[0] if len(parts) == 1 else np.concatenate(parts)
        out = (ids, self._begin[:n], self._end[:n], self._duration[:n])
        self._n = 0
        self._id_parts = []
        self._scalar_ids = None
        self._first_at = None
        return out


def parse_canonical_ids(
    ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized verifying parse of canonical ``s<shard>-hh<row>`` ids.

    Returns ``(shard, row, row_digits, ok)``, zero where not ``ok``.
    ``ok`` marks exactly the ids that match
    ``s(0|[1-9][0-9]{0,17})-hh([0-9]{1,18})``; with the registered row
    width it proves the id reconstructs verbatim, so a lookalike — wrong
    zero-padding, a stray suffix, a digit run an int64 would wrap —
    falls back to dictionary routing.

    Rows are grouped by *layout*, the column of their ``-`` and their
    length, keyed in one ``np.bincount``; each layout is verified on
    code-point columns with three fixed-column compares and one digit
    check per digit column, and its digit runs accumulate column by column.
    """
    n = ids.shape[0]
    shard = np.zeros(n, dtype=np.int64)
    row = np.zeros(n, dtype=np.int64)
    row_d = np.zeros(n, dtype=np.int16)
    ok = np.zeros(n, dtype=bool)
    width = ids.dtype.itemsize // 4 if ids.dtype.kind == "U" else 0
    if n == 0 or width < 6:  # shortest canonical id is "s0-hh0"
        return shard, row, row_d, ok
    chars = np.ascontiguousarray(ids, dtype=(np.str_, width)).view(np.uint32)
    chars = chars.reshape(n, width)
    width = min(width, _MAX_ID_CHARS)
    # One contiguous uint8 vector per column; a code point above 255
    # saturates to 255, which no canonical id holds.
    cols = np.empty((width, n), dtype=np.uint8)
    np.minimum(chars[:, :width].T, 255, out=cols, casting="unsafe")
    digits = cols - _ORD_0  # every non-digit wraps above 9
    dash = np.zeros(n, dtype=np.intp)
    for col in range(2, min(width - 3, _MAX_DIGITS + 2)):
        dash[cols[col] == _ORD_DASH] = col
    # Count NULs from column 6 on: an id with an embedded NUL comes out
    # shorter than its last character, so a column its layout checks
    # holds that NUL and fails.
    length = width - np.count_nonzero(cols[6:] == 0, axis=0)
    if chars.shape[1] > width:  # nothing canonical runs past _MAX_ID_CHARS
        length[np.any(chars[:, width:], axis=1)] = 0
    key = dash * (width + 1) + length
    for layout in np.flatnonzero(np.bincount(key)).tolist():
        d, end = divmod(layout, width + 1)
        if d < 2 or not d + 4 <= end <= d + 3 + _MAX_DIGITS:
            continue
        good = (
            (key == layout)
            & (cols[0] == _ORD_S)
            & (cols[d + 1] == _ORD_H)
            & (cols[d + 2] == _ORD_H)
            & np.all(digits[1:d] <= 9, axis=0)
            & np.all(digits[d + 3 : end] <= 9, axis=0)
        )
        if d > 2:  # a shard of two or more digits has no leading zero
            good &= cols[1] != _ORD_0
        ok |= good
        np.copyto(shard, _digit_value(digits[1:d]), where=good)
        np.copyto(row, _digit_value(digits[d + 3 : end]), where=good)
        np.copyto(row_d, end - d - 3, where=good)
    return shard, row, row_d, ok


def _digit_value(digits: np.ndarray) -> np.ndarray:
    """The numbers spelled by a run of digit columns, most significant first."""
    value = digits[0].astype(np.int64)
    for column in digits[1:]:
        value *= 10
        value += column
    return value


class ShardAssembler:
    """Scatter target for one registered shard's streamed reports.

    Writes routed rows straight into the job's ``begin``/``end``/
    ``duration`` arrays — after the scatter there is no further copy
    before the job is pickled for its worker.  Tracks fill state for
    exactly-once semantics (within-batch and cross-batch duplicates are
    dropped, first write wins) and, on sealing, counts admission
    *suspects* — rows the settlement quarantine will flag — with the same
    vectorized :func:`~repro.robustness.quarantine.malformed_mask`.
    """

    def __init__(self, index: int, job: ShardJob, width: int) -> None:
        self.index = index
        self.job = job
        self.n = len(job)
        #: Zero-padded row-digit count of canonical ids; 0 = dict-routed.
        self.width = width
        self._filled = np.zeros(self.n, dtype=bool)
        self.count = 0
        self.duplicates = 0
        self.suspects = 0
        self.sealed = False

    @property
    def complete(self) -> bool:
        return self.count == self.n

    def scatter(
        self,
        rows: np.ndarray,
        begin: np.ndarray,
        end: np.ndarray,
        duration: np.ndarray,
    ) -> int:
        """Write a routed micro-batch slice; returns rows newly filled."""
        if self.sealed:
            raise RuntimeError(f"shard {self.index} is sealed")
        filled = self._filled
        was = filled[rows]
        filled[rows] = True
        keep, src = rows, slice(None)
        if was.any() or np.count_nonzero(filled) != self.count + rows.shape[0]:
            # A repeated or already-filled row: keep each row's first write.
            filled[rows] = was
            unique_rows, first_seen = np.unique(rows, return_index=True)
            fresh = ~filled[unique_rows]
            keep, src = unique_rows[fresh], first_seen[fresh]
            filled[keep] = True
        self.duplicates += int(rows.shape[0] - keep.shape[0])
        job = self.job
        job.begin[keep] = begin[src]
        job.end[keep] = end[src]
        job.duration[keep] = duration[src]
        self.count += int(keep.shape[0])
        return int(keep.shape[0])

    def seal(self) -> None:
        """Freeze the shard: its job is queue-bound, late rows bounce.

        Every row was written once, so one screen of the sealed arrays
        counts what screening each scattered slice would have summed.
        """
        self.sealed = True
        job = self.job
        flagged = malformed_mask(
            job.begin, job.end, job.duration, job.neighborhood.duration
        )
        self.suspects = int(np.count_nonzero(flagged))


@dataclass
class StreamStats:
    """Operational counters for one ingestor's lifetime."""

    reports_in: int = 0
    chunks_in: int = 0
    flushes: int = 0
    flush_reasons: Dict[str, int] = field(default_factory=dict)
    shards_completed: int = 0
    unknown_rejected: int = 0
    duplicates: int = 0
    late_rows: int = 0
    replay_dropped: int = 0
    suspects: int = 0


class StreamIngestor:
    """The adaptive micro-batch coalescer in front of the shard queue.

    Owns the append buffer, the shard router and the per-shard
    assemblers.  Flush discipline mirrors the ingest queue's hysteresis
    thinking: a *size watermark* bounds per-flush latency, an *age
    deadline* bounds how stale a trickle can get, and *shard completion*
    flushes eagerly so a finished shard reaches the supervisor without
    waiting for unrelated traffic.

    Args:
        queue: The service's bounded queue (admission accounting and
            drain-rate retry hints are shared with the batch path).
        enqueue: Callback handing a sealed shard's job to the service;
            called only while ``queue`` is accepting.
        on_event: Optional audit hook ``(kind, shard_index, payload)``.
        flush_rows: Size watermark.
        flush_age_s: Age deadline (``None`` disables age flushes).
        clock: Monotonic time source (injectable).
    """

    def __init__(
        self,
        queue: BoundedIngestQueue,
        enqueue: Callable[[int, ShardJob], None],
        on_event: Optional[Callable[[str, int, Dict[str, Any]], None]] = None,
        flush_rows: int = DEFAULT_FLUSH_ROWS,
        flush_age_s: Optional[float] = DEFAULT_FLUSH_AGE_S,
        clock=time.monotonic,
    ) -> None:
        if flush_rows < 1:
            raise ValueError(f"flush_rows must be >= 1, got {flush_rows}")
        self._queue = queue
        self._enqueue = enqueue
        self._on_event = on_event
        self.flush_rows = flush_rows
        self.flush_age_s = flush_age_s
        self._clock = clock
        self._builder = ColumnarReportBuilder(capacity=flush_rows)
        self._assemblers: Dict[int, ShardAssembler] = {}
        self._replayed: Set[int] = set()
        self._ready: Deque[int] = deque()
        # Registration lookup arrays indexed by shard: expected row count
        # (0 = unregistered) and canonical row width (0 = dict-routed).
        self._reg_n = np.zeros(0, dtype=np.int64)
        self._reg_w = np.zeros(0, dtype=np.int64)
        self._fallback: Dict[str, Tuple[int, int]] = {}
        self.stats = StreamStats()

    # ------------------------------------------------------ registration

    def _grow_registry(self, index: int) -> None:
        if index < self._reg_n.shape[0]:
            return
        grown_n = np.zeros(index + 1, dtype=np.int64)
        grown_w = np.zeros(index + 1, dtype=np.int64)
        grown_n[: self._reg_n.shape[0]] = self._reg_n
        grown_w[: self._reg_w.shape[0]] = self._reg_w
        self._reg_n = grown_n
        self._reg_w = grown_w

    def _register_id_space(
        self, index: int, ids: Sequence[str], assume_canonical: bool
    ) -> int:
        """Record how shard ``index``'s ids route; returns canonical width.

        The ids are the generated ``s<index>-hh<row>`` scheme without a
        parse when there are none, when the caller vouches for them
        (``assume_canonical``) or when they are that scheme's
        :class:`~repro.core.columnar.RowIds` (prefix ``s<index>-hh``, rows
        ``0..n-1``); otherwise one vectorized parse verifies them, and
        non-canonical shards get a dictionary instead.
        """
        n = len(ids)
        width = len(str(max(1, n) - 1))
        generated = isinstance(ids, RowIds) and ids.prefix == f"s{index}-hh"
        if n and not (assume_canonical or generated and ids == RowIds(ids.prefix, n)):
            arr = np.asarray(ids)
            shard, row, row_d, ok = parse_canonical_ids(arr)
            canonical = (
                bool(ok.all())
                and bool((shard == index).all())
                and bool((row_d == row_d[0]).all())
                and np.array_equal(row, np.arange(n, dtype=np.int64))
            )
            if not canonical:
                for row_index, household_id in enumerate(ids):
                    self._fallback[str(household_id)] = (index, row_index)
                width = 0
            else:
                width = int(row_d[0])
        self._grow_registry(index)
        self._reg_n[index] = n
        self._reg_w[index] = width
        return width

    def register(
        self,
        index: int,
        job: ShardJob,
        ids: Sequence[str],
        assume_canonical_ids: bool = False,
    ) -> None:
        """Open shard ``index`` for streamed ingestion."""
        if index in self._assemblers or index in self._replayed:
            raise ValueError(f"shard {index} already registered")
        width = self._register_id_space(index, ids, assume_canonical_ids)
        self._assemblers[index] = ShardAssembler(index, job, width)

    def register_replayed(
        self, index: int, ids: Optional[Sequence[str]] = None
    ) -> None:
        """Mark shard ``index`` journal-replayed: its rows drop silently.

        With ``ids`` the shard's id space still routes (arriving rows are
        counted as ``replay_dropped``); without it the replay fast path
        skipped sampling, so stray rows for the shard — which a resumed
        driver does not send — are rejected as unknown instead.
        """
        if index in self._assemblers or index in self._replayed:
            raise ValueError(f"shard {index} already registered")
        self._replayed.add(index)
        if ids is not None:
            self._register_id_space(index, ids, assume_canonical=False)

    # -------------------------------------------------------- ingestion

    @property
    def ready_backlog(self) -> int:
        """Sealed shards waiting for a queue slot."""
        return len(self._ready)

    def occupancy(self) -> int:
        """Reports buffered but not yet flushed."""
        return len(self._builder)

    def incomplete(self) -> Tuple[int, ...]:
        """Registered shards still missing rows (post-flush view)."""
        return tuple(
            sorted(
                index
                for index, assembler in self._assemblers.items()
                if not assembler.sealed
            )
        )

    def submit(
        self, reports: Union[RawReport, ReportChunk, Iterable[RawReport]]
    ) -> int:
        """Ingest a report, a chunk, or an iterable of reports.

        All-or-nothing per call: if backpressure applies (sealed shards
        are stuck behind a saturated queue), the call raises **before**
        buffering anything, so resubmitting the same payload after
        pumping neither loses nor duplicates a report.

        Raises:
            ServiceOverloadError: Combined builder/queue backpressure;
                nothing from this call was ingested.
        """
        self.drain_ready()
        if self._ready:
            try:
                self._queue.check_admission(extra_backlog=len(self._ready))
            except ServiceOverloadError as exc:
                self._event("service_overload", self._ready[0], {
                    "depth": exc.depth, "capacity": exc.capacity, "stream": True,
                })
                raise
        now = self._clock()
        if isinstance(reports, ReportChunk):
            accepted = self._builder.append_columnar(
                reports.ids, reports.begin, reports.end, reports.duration, now=now
            )
            self.stats.chunks_in += 1
        elif isinstance(reports, RawReport):
            self._builder.append(reports, now=now)
            accepted = 1
        else:
            accepted = 0
            for report in reports:
                self._builder.append(report, now=now)
                accepted += 1
        self.stats.reports_in += accepted
        if len(self._builder) >= self.flush_rows:
            self.flush(reason="size")
        elif (
            self.flush_age_s is not None
            and len(self._builder)
            and self._builder.age_s(self._clock()) >= self.flush_age_s
        ):
            self.flush(reason="age")
        return accepted

    # ------------------------------------------------------ micro-batch

    def flush(self, reason: str = "explicit") -> None:
        """Route and scatter the buffered micro-batch (synchronous)."""
        drained = self._builder.drain()
        if drained is None:
            self.drain_ready()
            return
        ids, begin, end, duration = drained
        self.stats.flushes += 1
        self.stats.flush_reasons[reason] = (
            self.stats.flush_reasons.get(reason, 0) + 1
        )
        shard, row, row_d, ok = parse_canonical_ids(ids)
        capacity = self._reg_n.shape[0]
        if capacity:
            # The parse never yields a negative shard or row, so a row
            # below its shard's registered count also finds it registered.
            clipped = np.minimum(shard, capacity - 1)
            routed = (
                ok
                & (shard < capacity)
                & (row < self._reg_n[clipped])
                & (row_d == self._reg_w[clipped])
            )
        else:
            routed = np.zeros(ids.shape[0], dtype=bool)
        misses = np.flatnonzero(~routed)
        if misses.size:
            unknown = 0
            for i in misses.tolist():
                hit = self._fallback.get(ids[i])
                if hit is None:
                    unknown += 1
                    continue
                shard[i], row[i] = hit
                routed[i] = True
            if unknown:
                self.stats.unknown_rejected += unknown
                self._event(
                    "stream_reports_rejected",
                    -1,
                    {"count": unknown, "reason": "unknown-household"},
                )
        # One stable split: shards ascending, arrival order kept within a
        # shard, which is what first-write-wins and the seal order read.
        picked = np.flatnonzero(routed)
        keys = shard[picked]
        picked = picked[
            np.argsort(keys.astype(np.min_scalar_type(capacity)), kind="stable")
        ]
        counts = np.bincount(keys, minlength=capacity)
        edges = np.concatenate(([0], np.cumsum(counts))).tolist()
        row, begin, end, duration = (
            row[picked], begin[picked], end[picked], duration[picked]
        )
        for index in np.flatnonzero(counts).tolist():
            lo, hi = edges[index], edges[index + 1]
            count = hi - lo
            if index in self._replayed:
                self.stats.replay_dropped += count
                continue
            assembler = self._assemblers[index]
            if assembler.sealed:
                self.stats.late_rows += count
                self._event(
                    "stream_reports_rejected",
                    index,
                    {"count": count, "reason": "shard-sealed"},
                )
                continue
            fresh = assembler.scatter(
                row[lo:hi], begin[lo:hi], end[lo:hi], duration[lo:hi]
            )
            self.stats.duplicates += count - fresh
            if assembler.complete:
                assembler.seal()
                self._ready.append(index)
                self.stats.shards_completed += 1
                self.stats.suspects += assembler.suspects
                self._event(
                    "stream_shard_complete",
                    index,
                    {
                        "rows": assembler.n,
                        "suspect_rows": assembler.suspects,
                        "duplicate_rows": assembler.duplicates,
                    },
                )
        self.drain_ready()

    def drain_ready(self) -> None:
        """Queue sealed shards while the queue admits them.

        Holding a shard back is not a rejection: only the error a client
        receives from :meth:`submit` is counted.
        """
        while self._ready and self._queue.accepting:
            index = self._ready[0]
            self._enqueue(index, self._assemblers[index].job)
            self._ready.popleft()

    def _event(self, kind: str, index: int, payload: Dict[str, Any]) -> None:
        if self._on_event is not None:
            self._on_event(kind, index, payload)
