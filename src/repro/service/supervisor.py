"""Worker-pool supervision: deadlines, retries, and pool replacement.

:func:`~repro.sim.parallel.map_tasks` is a *batch* primitive — it owns a
fixed payload list and, when retries run out, re-runs payloads inline so
the batch always completes.  A long-lived service needs the opposite
shape: shards arrive incrementally, each has a wall-clock deadline, and a
shard that exhausts its retries must be *surfaced* (so the service can
route it to the degraded tier), never silently re-run on the primary
path it already failed.  :class:`ShardSupervisor` is that shape: an
incremental submit/step loop over one owned
:class:`~concurrent.futures.ProcessPoolExecutor` that

* retries failed attempts with the shared jittered exponential backoff
  (:func:`~repro.sim.parallel.backoff_delay`),
* kills and replaces the pool on ``BrokenProcessPool`` (a SIGKILLed
  worker) without losing any in-flight shard,
* enforces a per-shard deadline: breachers burn an attempt, innocent
  bystanders are resubmitted without penalty, and
* reports every terminal outcome as a :class:`ShardCompletion` — value
  or cause, plus the attempt count — leaving policy to the caller.

``workers=1`` runs inline in the calling process with the same retry
and (post-hoc) deadline accounting, so a serial service degrades the
same shards a parallel one does.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..sim.parallel import (
    DEFAULT_BACKOFF_S,
    DEFAULT_JITTER,
    DEFAULT_RETRIES,
    _kill_pool,
    backoff_delay,
    resolve_workers,
)


@dataclass
class ShardCompletion:
    """One shard's terminal outcome at the supervisor level.

    ``value`` is the worker's return on success and ``None`` on failure,
    in which case ``cause`` says why the *last* attempt failed.
    ``attempts`` counts every attempt made, successful one included.
    """

    key: int
    value: Optional[Any]
    attempts: int
    cause: str = ""

    @property
    def ok(self) -> bool:
        return self.cause == ""


@dataclass
class _Entry:
    """Book-keeping for one submitted shard."""

    key: int
    payload: Any
    attempt: int = 1
    started_at: float = 0.0
    ready_at: float = 0.0
    causes: List[str] = field(default_factory=list)


class ShardSupervisor:
    """Supervises shard attempts on an owned worker pool.

    Args:
        fn: Module-level (picklable) worker function of one payload.
        workers: Pool size (see :func:`~repro.sim.parallel.
            resolve_workers`); ``1`` runs inline.
        deadline_s: Per-shard wall-clock deadline.  In pool mode a breach
            kills the worker processes (a hung solve cannot be preempted
            politely) and costs the breaching shard one attempt; inline
            it is checked after the call returns.  ``None`` disables it.
        retries: Re-attempts after the first failure before the shard is
            surfaced as failed.
        backoff_s / jitter: Retry pacing, shared with
            :func:`~repro.sim.parallel.map_tasks`.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        workers: Optional[int] = 1,
        deadline_s: Optional[float] = None,
        retries: int = DEFAULT_RETRIES,
        backoff_s: float = DEFAULT_BACKOFF_S,
        jitter: float = DEFAULT_JITTER,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries cannot be negative, got {retries}")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline must be positive, got {deadline_s}")
        self.fn = fn
        self.workers = resolve_workers(workers)
        self.deadline_s = deadline_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.jitter = jitter
        self.pool_replacements = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._inflight: Dict[Future, _Entry] = {}
        self._backlog: List[_Entry] = []
        self._completions: List[ShardCompletion] = []

    @property
    def load(self) -> int:
        """Shards the supervisor currently owns (in flight or backing off)."""
        return len(self._inflight) + len(self._backlog)

    @property
    def idle(self) -> bool:
        return self.load == 0

    # ------------------------------------------------------------ pool

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _replace_pool(self) -> None:
        """Kill the current pool's processes and forget it (lazily rebuilt)."""
        if self._pool is not None:
            _kill_pool(self._pool)
            self._pool = None
            self.pool_replacements += 1

    def close(self) -> None:
        """Shut the pool down; in-flight futures are abandoned."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------ submission

    def submit(self, key: int, payload: Any) -> None:
        """Accept a shard for settlement (first attempt dispatches now)."""
        entry = _Entry(key=key, payload=payload)
        if self.workers <= 1:
            self._run_inline(entry)
        else:
            self._dispatch(entry)

    def _dispatch(self, entry: _Entry) -> None:
        while True:
            entry.started_at = time.monotonic()
            try:
                future = self._ensure_pool().submit(self.fn, entry.payload)
            except BrokenProcessPool:
                # A worker died and the executor noticed before we did:
                # submit() itself refuses.  Charge the shards that were in
                # flight on the broken pool (their futures are dead),
                # rebuild, and dispatch this entry — which was never
                # accepted, so it is not charged — on the fresh pool.
                survivors = list(self._inflight.values())
                self._inflight.clear()
                self._replace_pool()
                for other in survivors:
                    self._fail_attempt(other, "process pool broke (worker died)")
                continue
            break
        self._inflight[future] = entry

    def _run_inline(self, entry: _Entry) -> None:
        """Serial mode: the whole retry loop, synchronously."""
        while True:
            started_at = time.monotonic()
            cause = ""
            value = None
            try:
                value = self.fn(entry.payload)
            except Exception as exc:
                cause = f"{type(exc).__name__}: {exc}"
            elapsed = time.monotonic() - started_at
            if (
                cause == ""
                and self.deadline_s is not None
                and elapsed > self.deadline_s
            ):
                # Inline there is no way to preempt, so the deadline is
                # enforced after the fact — the attempt still burns.
                cause = f"deadline exceeded ({elapsed:.3f}s > {self.deadline_s}s)"
            if cause == "":
                self._completions.append(
                    ShardCompletion(entry.key, value, entry.attempt)
                )
                return
            entry.causes.append(cause)
            if entry.attempt > self.retries:
                self._completions.append(
                    ShardCompletion(entry.key, None, entry.attempt, cause)
                )
                return
            time.sleep(backoff_delay(entry.attempt, self.backoff_s, self.jitter))
            entry.attempt += 1

    # ------------------------------------------------------- main loop

    def step(self, block: bool = True) -> List[ShardCompletion]:
        """Advance the supervisor and return newly-terminal shards.

        Dispatches backed-off retries whose delay has elapsed, waits for
        (``block=True``) or polls (``block=False``) the pool, applies
        deadline and crash handling, and drains the completion buffer.
        """
        now = time.monotonic()
        for entry in [e for e in self._backlog if e.ready_at <= now]:
            self._backlog.remove(entry)
            self._dispatch(entry)
        if self._inflight:
            self._await_pool(block)
        elif self._backlog and block:
            # Nothing in flight: sleep out the nearest backoff so a
            # blocking step always makes progress.
            delay = min(e.ready_at for e in self._backlog) - now
            if delay > 0:
                time.sleep(delay)
            return self.step(block=False)
        completions, self._completions = self._completions, []
        return completions

    def _await_pool(self, block: bool) -> None:
        timeout: Optional[float] = 0.0
        if block:
            timeout = None
            if self.deadline_s is not None:
                nearest = min(e.started_at for e in self._inflight.values())
                timeout = max(0.0, nearest + self.deadline_s - time.monotonic())
            if self._backlog:
                ready = min(e.ready_at for e in self._backlog) - time.monotonic()
                ready = max(0.0, ready)
                timeout = ready if timeout is None else min(timeout, ready)
        done, _ = wait(self._inflight, timeout=timeout, return_when=FIRST_COMPLETED)
        broken = False
        for future in done:
            entry = self._inflight.pop(future)
            try:
                value = future.result()
            except BrokenProcessPool:
                broken = True
                self._fail_attempt(entry, "process pool broke (worker died)")
            except Exception as exc:
                self._fail_attempt(entry, f"{type(exc).__name__}: {exc}")
            else:
                self._completions.append(
                    ShardCompletion(entry.key, value, entry.attempt)
                )
        if broken:
            # The pool is unusable: every other in-flight shard failed
            # with it.  Replace the pool and charge them all one attempt
            # (there is no telling whose worker died).
            survivors = list(self._inflight.values())
            self._inflight.clear()
            self._replace_pool()
            for entry in survivors:
                self._fail_attempt(entry, "process pool broke (worker died)")
            return
        self._check_deadlines()

    def _check_deadlines(self) -> None:
        if self.deadline_s is None or not self._inflight:
            return
        now = time.monotonic()
        breached = {
            future
            for future, entry in self._inflight.items()
            if now - entry.started_at > self.deadline_s and not future.done()
        }
        if not breached:
            return
        # A hung worker cannot be preempted politely: kill the pool's
        # processes.  Breachers burn an attempt; bystanders caught in the
        # same pool are resubmitted without penalty.
        bystanders = [
            entry
            for future, entry in self._inflight.items()
            if future not in breached and not future.done()
        ]
        breachers = [self._inflight[future] for future in breached]
        self._inflight.clear()
        self._replace_pool()
        for entry in breachers:
            self._fail_attempt(
                entry, f"deadline exceeded (no result within {self.deadline_s}s)"
            )
        for entry in bystanders:
            self._dispatch(entry)

    def _fail_attempt(self, entry: _Entry, cause: str) -> None:
        entry.causes.append(cause)
        if entry.attempt > self.retries:
            self._completions.append(
                ShardCompletion(entry.key, None, entry.attempt, cause)
            )
            return
        entry.ready_at = time.monotonic() + backoff_delay(
            entry.attempt, self.backoff_s, self.jitter
        )
        entry.attempt += 1
        self._backlog.append(entry)
