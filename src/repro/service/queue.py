"""Bounded ingestion queue with watermark-hysteresis backpressure.

The shard service must never buffer unboundedly: a city feeding days
faster than the pool settles them would otherwise grow the parent's heap
until the OS kills it — the least graceful degradation there is.
:class:`BoundedIngestQueue` instead *rejects* work at a high watermark
with :class:`~repro.robustness.errors.ServiceOverloadError` carrying a
``retry_after_s`` hint, and — crucially — keeps rejecting until the queue
has drained below a *low* watermark.  The gap between the two watermarks
is hysteresis: without it a saturated service would flap between "one
slot free, accept" and "full, reject" on every settlement, and a retrying
client would burn its retries on a queue that frees exactly one slot at a
time.

The ``retry_after_s`` hint scales with the *observed drain rate*: the
queue keeps an exponentially-weighted moving average of the interval
between recent pops and multiplies it by the backlog that must drain
before admission re-arms.  A service settling shards in milliseconds
hands out millisecond hints even when deeply backed up; one grinding
through multi-second shards asks clients to stay away proportionally
longer.  Until the first drain interval is observed (a cold queue has no
rate to measure) the hint falls back to ``retry_after_s × backlog``.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Generic, Optional, TypeVar

from ..robustness.errors import ServiceOverloadError

_T = TypeVar("_T")

#: Fallback retry hint when the queue has not drained anything yet.
DEFAULT_RETRY_AFTER_S = 0.1

#: EWMA weight of the newest observed drain interval.
DRAIN_EWMA_ALPHA = 0.3

#: Floor on rate-based hints: a queue draining "instantly" still asks
#: clients to back off for one scheduling quantum rather than zero.
MIN_RETRY_AFTER_S = 1e-3


class BoundedIngestQueue(Generic[_T]):
    """FIFO queue that applies backpressure instead of growing.

    Args:
        capacity: High watermark — the submission that would push depth
            past this is rejected.
        low_watermark: Depth the queue must drain to before it accepts
            again after a rejection (default ``capacity // 2``, at least
            one below capacity).  Equal watermarks disable hysteresis.
        retry_after_s: Base of the ``retry_after_s`` hint carried by
            rejections *before any drain has been observed*; once pops
            start the hint tracks the EWMA drain interval instead.
        clock: Monotonic time source for the drain-rate estimator
            (injectable for tests).
    """

    def __init__(
        self,
        capacity: int,
        low_watermark: Optional[int] = None,
        retry_after_s: float = DEFAULT_RETRY_AFTER_S,
        clock=time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if low_watermark is None:
            low_watermark = max(0, min(capacity - 1, capacity // 2))
        if not 0 <= low_watermark <= capacity:
            raise ValueError(
                f"low watermark must be in [0, {capacity}], got {low_watermark}"
            )
        if retry_after_s <= 0:
            raise ValueError(f"retry_after_s must be positive, got {retry_after_s}")
        self.capacity = capacity
        self.low_watermark = low_watermark
        self.retry_after_s = retry_after_s
        self._clock = clock
        self._items: Deque[_T] = deque()
        self._accepting = True
        self._last_pop_at: Optional[float] = None
        self._drain_interval_s: Optional[float] = None
        self.rejections = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def depth(self) -> int:
        return len(self._items)

    @property
    def accepting(self) -> bool:
        """Whether the next :meth:`submit` would be admitted."""
        return self._accepting and len(self._items) < self.capacity

    @property
    def drain_interval_s(self) -> Optional[float]:
        """EWMA seconds between recent pops (``None`` before two pops)."""
        return self._drain_interval_s

    def retry_hint(self, backlog: int) -> float:
        """Suggested client wait for ``backlog`` items to drain.

        Rate-based once the drain estimator has a sample — the expected
        time for the backlog to clear at the observed settlement rate —
        with a fixed-per-item fallback while the queue is still cold.
        """
        backlog = max(1, backlog)
        if self._drain_interval_s is not None:
            return max(self._drain_interval_s * backlog, MIN_RETRY_AFTER_S)
        return self.retry_after_s * backlog

    def check_admission(self, extra_backlog: int = 0) -> None:
        """Raise the rejection a :meth:`submit` would raise right now.

        A no-op while the queue is accepting.  Callers with expensive
        payload construction can probe admission first so a rejected
        submission costs nothing.  ``extra_backlog`` folds caller-held
        backlog (the stream ingestor's completed-but-unsubmitted shards)
        into the reported depth and the retry hint.

        Raises:
            ServiceOverloadError: The queue is at its high watermark, or
                still draining toward its low watermark after a previous
                rejection.
        """
        if self.accepting:
            return
        self._accepting = False  # latch: drain to low watermark first
        self.rejections += 1
        backlog = max(1, len(self._items) - self.low_watermark) + max(
            0, extra_backlog
        )
        raise ServiceOverloadError(
            retry_after_s=self.retry_hint(backlog),
            depth=len(self._items) + max(0, extra_backlog),
            capacity=self.capacity,
        )

    def submit(self, item: _T) -> None:
        """Enqueue ``item``, or reject it with backpressure.

        Raises:
            ServiceOverloadError: See :meth:`check_admission`; the
                submission was **not** accepted — resubmit after the
                error's ``retry_after_s``.
        """
        self.check_admission()
        self._items.append(item)

    def pop(self) -> _T:
        """Dequeue the oldest item (FIFO); re-arm admission once drained.

        Each pop feeds the drain-rate estimator: the interval since the
        previous pop enters the EWMA that rate-based retry hints use.
        """
        item = self._items.popleft()
        now = self._clock()
        if self._last_pop_at is not None:
            interval = max(0.0, now - self._last_pop_at)
            if self._drain_interval_s is None:
                self._drain_interval_s = interval
            else:
                self._drain_interval_s += DRAIN_EWMA_ALPHA * (
                    interval - self._drain_interval_s
                )
        self._last_pop_at = now
        if not self._accepting and len(self._items) <= self.low_watermark:
            self._accepting = True
        return item
