"""Deterministic, fault-tolerant process-pool fan-out for day loops.

Every Section VI/VII driver is a loop over *independent* simulated days:
each day samples a fresh population (or replays fixed households) from its
own keyed RNG substream (:func:`repro.sim.rng.make_day_rngs`), so day
instances share no state and can run on any worker in any order.  This
module owns the runtime's one process pool and the two ways to drive it:

:class:`ShardSupervisor` — an incremental submit/step loop over one owned
:class:`~concurrent.futures.ProcessPoolExecutor`.  It retries failed
attempts with jittered exponential backoff (:func:`backoff_delay`), kills
and replaces the pool on ``BrokenProcessPool`` (a SIGKILLed worker)
without losing any in-flight entry, and enforces a per-entry deadline:
breachers burn an attempt, innocent bystanders are resubmitted without
penalty.  Every terminal outcome is a :class:`ShardCompletion` — value or
cause, plus the attempt count — and policy is left to the caller.  The
shard service (:mod:`repro.service`) surfaces a shard that exhausts its
retries so it can route it to the degraded tier.

:func:`map_tasks` — an order-preserving map over payloads that runs inline
for ``workers=1`` (the default everywhere, leaving existing behaviour and
seeds untouched) and otherwise hands its payloads to a supervisor.
Because results are keyed by payload index and each payload's computation
is a pure function of the payload (RNG substreams included), parallel
output is bit-identical to serial output — only wall-clock time changes.

The parallel path ships payloads as contiguous chunks, at most
:data:`CHUNKS_PER_WORKER` per worker, so tiny days pay the pickling and
dispatch cost once per chunk; four per worker balances the tail of uneven
days against that cost.  Chunk lengths differ by at most one payload, and
the longer chunks go first, so the shorter ones fill the tail.  It is
hardened for unattended runs, and attributes every fault to one payload:

* **Crash recovery** — a payload that raises inside a chunk is recorded
  and the rest of its chunk still runs; a worker that dies
  (``BrokenProcessPool``) leaves every chunk in flight unfinished.  Each
  failed or unfinished payload is retried alone, one pool per retry
  round, with exponential backoff, and after ``retries`` attempts
  (counted per payload) re-run inline in the parent.  Purity makes every
  re-run bit-identical, and a payload whose function *deterministically*
  raises still surfaces its original exception from the inline run —
  same semantics as serial mode.
* **Stall detection** — with ``timeout_s`` set, each chunk gets a
  deadline of ``timeout_s`` per payload of the round's largest chunk,
  counted from when a worker could start it.  A chunk that breaches it is
  declared hung: the worker processes are killed, the stalled chunk's
  payloads are charged and retried, and the chunks still waiting are
  resubmitted without charge.  Set it comfortably above the slowest
  expected single task.
* **Streaming results** — ``on_result(index, value)`` fires for each
  payload the first time it completes, when its chunk returns, enabling
  incremental checkpointing; ``on_failure(failure)`` reports every
  :class:`~repro.robustness.errors.WorkerFailure` for the audit trail.

The worker function reaches each worker process once per pool, through
the pool's initializer: a forked worker inherits it, and any other start
method pickles it once per process.  Each submission carries only its
payload, so inputs every payload shares — a neighborhood, a simulation —
belong in the function (a :func:`functools.partial` of a module-level
function), not in the payloads.  Worker functions and payloads must
pickle; all engine day-workers in :mod:`repro.sim.engine` satisfy this.
Custom report/consumption policies that are lambdas or closures only work
in serial mode.
"""

from __future__ import annotations

import logging
import os
import random
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..robustness.errors import WorkerFailure

_P = TypeVar("_P")
_R = TypeVar("_R")

_logger = logging.getLogger(__name__)

#: Sentinel meaning "use every core the machine has".
ALL_CORES = 0

#: Default number of *re*-tries a failed payload gets before running inline.
DEFAULT_RETRIES = 2

#: Default base of the exponential retry backoff, in seconds.
DEFAULT_BACKOFF_S = 0.05

#: The parallel path splits its payloads into at most this many
#: contiguous chunks per worker.
CHUNKS_PER_WORKER = 4

#: Default retry-backoff jitter: each wait is stretched by up to this
#: fraction, drawn uniformly, so a fleet of retrying callers (the shard
#: service's supervisors) desynchronizes instead of thundering back into
#: a struggling pool in lockstep.  Timing-only — results are unaffected.
DEFAULT_JITTER = 0.5

#: Jitter source.  Timing-only randomness, deliberately *not* derived
#: from any simulation seed: retry pacing must never consume (or depend
#: on) the streams that make runs bit-identical.
_jitter_rng = random.Random()


def backoff_delay(
    attempt: int,
    backoff_s: float = DEFAULT_BACKOFF_S,
    jitter: float = DEFAULT_JITTER,
) -> float:
    """The wait before retry ``attempt`` (1-based): exponential + jitter.

    ``backoff_s * 2**(attempt-1)``, stretched by a uniform factor in
    ``[1, 1 + jitter]``.  Shared by :func:`map_tasks` and the shard
    supervisor so every retry loop in the runtime paces the same way.
    """
    if attempt < 1:
        raise ValueError(f"attempt is 1-based, got {attempt}")
    if jitter < 0:
        raise ValueError(f"jitter cannot be negative, got {jitter}")
    delay = backoff_s * (2 ** (attempt - 1))
    if jitter:
        delay *= 1.0 + jitter * _jitter_rng.random()
    return delay

#: Environment variable naming a directory for per-worker cProfile dumps.
#: Set by ``repro --profile`` with ``--workers > 1``; workers accumulate a
#: profile across their chunks and dump ``worker-<pid>.pstats`` at exit.
WORKER_PROFILE_DIR_ENV = "REPRO_WORKER_PROFILE_DIR"

#: Set once the single-visible-core warning has fired (per process).
_single_core_warned = False


def available_cores() -> int:
    """Cores this *process* may run on (affinity-visible; at least 1).

    This is what parallel speedup is bounded by — containers and cpusets
    routinely expose fewer cores than the machine has.  See
    :func:`logical_cores` for the machine-wide count.
    """
    try:
        return len(os.sched_getaffinity(0))  # respects cpusets/containers
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def logical_cores() -> int:
    """The machine's logical CPU count, ignoring affinity masks."""
    return os.cpu_count() or 1


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers`` knob to a concrete positive worker count.

    ``None`` and ``1`` mean serial; ``0`` (:data:`ALL_CORES`) and ``-1``
    mean "all available cores"; any other positive value is taken
    literally (it may exceed the core count — the OS will time-slice).

    Raises:
        ValueError: For any value below ``-1`` — historically these fell
            through to "all cores", silently masking typos like ``-8``.
    """
    if workers is None:
        return 1
    workers = int(workers)
    if workers < -1:
        raise ValueError(
            f"workers must be >= -1 (0 or -1 = all cores), got {workers}"
        )
    if workers in (ALL_CORES, -1):
        return available_cores()
    cores = available_cores()
    if workers > cores:
        _logger.warning(
            "workers=%d exceeds the %d affinity-visible core(s); effective "
            "parallelism is %d (the OS will time-slice the rest)",
            workers, cores, cores,
        )
    if workers > 1 and cores == 1:
        global _single_core_warned
        if not _single_core_warned:
            _single_core_warned = True
            _logger.warning(
                "only one core is visible to this process (affinity mask); "
                "workers=%d will fan out but speedup will be ~1x",
                workers,
            )
    return workers


_worker_profiler = None
_worker_profile_dumped = False


def _ensure_worker_profiler(profile_dir: str):
    """This worker process's accumulating profiler (created on first use).

    A forked worker can inherit the parent's *active* cProfile hook
    (``--profile`` runs); that hook is dropped first — the parent profiler
    cannot observe this process anyway, and two active profilers are an
    error.  The dump is registered both with :mod:`multiprocessing`'s
    finalizers (pool workers skip ``atexit``) and ``atexit`` (inline
    fallback runs in odd hosts), deduplicated by a flag.
    """
    global _worker_profiler
    if _worker_profiler is None:
        import cProfile
        import sys
        from multiprocessing import util as mp_util

        sys.setprofile(None)
        _worker_profiler = cProfile.Profile()
        pid = os.getpid()
        mp_util.Finalize(
            None, _dump_worker_profile, args=(profile_dir, pid), exitpriority=10
        )
        import atexit

        atexit.register(_dump_worker_profile, profile_dir, pid)
    return _worker_profiler


def _dump_worker_profile(profile_dir: str, pid: int) -> None:
    """Write this worker's accumulated profile once (idempotent)."""
    global _worker_profile_dumped
    if _worker_profile_dumped or _worker_profiler is None or os.getpid() != pid:
        return
    _worker_profile_dumped = True
    try:
        os.makedirs(profile_dir, exist_ok=True)
        _worker_profiler.dump_stats(
            os.path.join(profile_dir, f"worker-{pid}.pstats")
        )
    except Exception:  # pragma: no cover - profiling must never fail a run
        _logger.exception("failed to dump worker profile")


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _call_chunk(
    fn: Callable[[_P], _R], chunk: Sequence[_P]
) -> List[Tuple[bool, object]]:
    """Run one chunk in a worker (module-level: picklable).

    Returns one ``(True, value)`` or ``(False, exception text)`` per
    payload, in order: a payload that raises does not stop the rest of
    its chunk.
    """
    profile_dir = os.environ.get(WORKER_PROFILE_DIR_ENV)
    profiler = _ensure_worker_profiler(profile_dir) if profile_dir else None
    if profiler is not None:
        profiler.enable()
    outcomes: List[Tuple[bool, object]] = []
    try:
        for payload in chunk:
            try:
                outcomes.append((True, fn(payload)))
            except Exception as exc:
                outcomes.append((False, _describe(exc)))
    finally:
        if profiler is not None:
            profiler.disable()
    return outcomes


#: The worker function this pool worker process runs, set once per process
#: by :func:`_install`, the pool's initializer.
_installed: Optional[Callable[[Any], Any]] = None


def _install(fn: Callable[[Any], Any]) -> None:
    """Pool initializer: keep ``fn`` for every task this worker runs."""
    global _installed
    _installed = fn


def _call_installed(payload: Any) -> Any:
    """Run the installed worker function on one submitted payload."""
    return _installed(payload)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly terminate a pool's worker processes (hung or broken)."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:  # pragma: no cover - already-dead races
            pass
    pool.shutdown(wait=False, cancel_futures=True)


#: Why every entry in flight on a broken pool is charged.
_BROKEN = "process pool broke (worker died)"


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
    """Book-keeping for one submitted shard.

    ``started_at`` is ``None`` while the entry waits for a worker.
    """

    key: int
    payload: Any
    attempt: int = 1
    started_at: Optional[float] = None
    ready_at: float = 0.0


class ShardSupervisor:
    """Supervises shard attempts on an owned worker pool.

    Args:
        fn: Module-level (picklable) worker function of one payload; it
            reaches each worker process once per pool.
        workers: Pool size (see :func:`resolve_workers`); ``1`` runs
            inline.
        deadline_s: Per-shard wall-clock deadline, counted from when a
            worker could start the shard.  In pool mode a breach kills
            the worker processes (a hung solve cannot be preempted
            politely) and costs the breaching shard one attempt; inline
            it is checked after the call returns.  ``None`` disables it.
        retries: Re-attempts after the first failure before the shard is
            surfaced as failed.
        backoff_s / jitter: Retry pacing, shared with :func:`map_tasks`.
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
            # The worker function travels once per process, as the
            # initializer's argument; submissions carry only payloads.
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_install, initargs=(self.fn,)
            )
        return self._pool

    def _replace_pool(self) -> None:
        """Kill the current pool's processes and forget it (lazily rebuilt)."""
        if self._pool is not None:
            _kill_pool(self._pool)
            self._pool = None
            self.pool_replacements += 1

    def close(self) -> None:
        """Shut the pool down; in-flight shards are abandoned.

        A pool with work still running is killed: shutting it down would
        leave that work running, and the interpreter waits for it at exit
        — forever, for a hung solve.  An idle pool is joined, so its
        workers are gone (and their memory returned) when this returns.
        """
        if self._pool is not None:
            if any(not future.done() for future in self._inflight):
                _kill_pool(self._pool)
            else:
                self._pool.shutdown(wait=True)
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
        entry.started_at = None
        while True:
            try:
                future = self._ensure_pool().submit(_call_installed, entry.payload)
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
                    self._fail_attempt(other, _BROKEN)
                continue
            break
        self._inflight[future] = entry
        self._start_clocks()

    def _start_clocks(self) -> None:
        """Start the deadline clock of every shard a worker may be running.

        The pool runs shards in dispatch order, ``workers`` at a time, so
        only the oldest ``workers`` shards in flight can have started; a
        later shard's clock starts when one of them leaves.  A shard
        queued behind busy workers therefore never breaches for waiting.
        """
        now = time.monotonic()
        for entry in islice(self._inflight.values(), self.workers):
            if entry.started_at is None:
                entry.started_at = now

    def _run_inline(self, entry: _Entry) -> None:
        """Serial mode: the whole retry loop, synchronously."""
        while True:
            started_at = time.monotonic()
            cause = ""
            value = None
            try:
                value = self.fn(entry.payload)
            except Exception as exc:
                cause = _describe(exc)
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
                nearest = min(
                    e.started_at
                    for e in self._inflight.values()
                    if e.started_at is not None
                )
                timeout = max(0.0, nearest + self.deadline_s - time.monotonic())
            if self._backlog:
                ready = min(e.ready_at for e in self._backlog) - time.monotonic()
                ready = max(0.0, ready)
                timeout = ready if timeout is None else min(timeout, ready)
        done, _ = wait(self._inflight, timeout=timeout, return_when=FIRST_COMPLETED)
        if self._collect(done):
            # The pool is unusable: every other in-flight shard failed
            # with it.  Replace the pool and charge them all one attempt
            # (there is no telling whose worker died).
            survivors = list(self._inflight.values())
            self._inflight.clear()
            self._replace_pool()
            for entry in survivors:
                self._fail_attempt(entry, _BROKEN)
            return
        self._start_clocks()
        self._check_deadlines()

    def _collect(self, futures) -> bool:
        """Settle finished futures; ``True`` if one saw the pool break."""
        broken = False
        for future in futures:
            entry = self._inflight.pop(future)
            try:
                value = future.result()
            except BrokenProcessPool:
                broken = True
                self._fail_attempt(entry, _BROKEN)
            except Exception as exc:
                self._fail_attempt(entry, _describe(exc))
            else:
                self._completions.append(
                    ShardCompletion(entry.key, value, entry.attempt)
                )
        return broken

    def _check_deadlines(self) -> None:
        if self.deadline_s is None or not self._inflight:
            return
        now = time.monotonic()
        breached = {
            future
            for future, entry in self._inflight.items()
            if entry.started_at is not None
            and now - entry.started_at > self.deadline_s
            and not future.done()
        }
        if not breached:
            return
        # Results that arrived since the wait are kept, not thrown away
        # with the pool.
        self._collect([f for f in self._inflight if f not in breached and f.done()])
        # A hung worker cannot be preempted politely: kill the pool's
        # processes.  Breachers burn an attempt; bystanders caught in the
        # same pool are resubmitted without penalty.
        breachers = [self._inflight[future] for future in breached]
        bystanders = [
            entry
            for future, entry in self._inflight.items()
            if future not in breached
        ]
        self._inflight.clear()
        self._replace_pool()
        for entry in breachers:
            self._fail_attempt(
                entry,
                f"deadline exceeded: stalled with no result within "
                f"{self.deadline_s}s (presumed hung worker)",
            )
        for entry in bystanders:
            self._dispatch(entry)

    def _fail_attempt(self, entry: _Entry, cause: str) -> None:
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


def _chunks(n: int, n_chunks: int) -> List[Tuple[int, ...]]:
    """Split payload indices ``0 .. n - 1`` into ``n_chunks`` contiguous runs.

    Lengths differ by at most one, the longer runs first: the pool starts
    chunks in submission order, so the short ones even out the tail.  12
    equal days on 2 workers go as four chunks of 2, then four of 1, and
    each worker runs 6.
    """
    size, extra = divmod(n, n_chunks)
    bounds = [c * size + min(c, extra) for c in range(n_chunks + 1)]
    return [tuple(range(bounds[c], bounds[c + 1])) for c in range(n_chunks)]


def map_tasks(
    fn: Callable[[_P], _R],
    payloads: Sequence[_P],
    workers: Optional[int] = 1,
    timeout_s: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
    backoff_s: float = DEFAULT_BACKOFF_S,
    jitter: float = DEFAULT_JITTER,
    on_result: Optional[Callable[[int, _R], None]] = None,
    on_failure: Optional[Callable[[WorkerFailure], None]] = None,
) -> List[_R]:
    """Order-preserving map of ``fn`` over ``payloads``, optionally parallel.

    Args:
        fn: A module-level (picklable) worker function, or a
            :func:`functools.partial` of one; it reaches each worker
            process once per pool, however many chunks that worker runs.
        payloads: Picklable task descriptions; one ``fn`` call each.
        workers: Worker processes (see :func:`resolve_workers`); ``1`` runs
            inline in this process with zero overhead.  More workers split
            the payloads into ``min(len(payloads), 4 * workers)``
            contiguous chunks of near-equal size, longer ones first.
        timeout_s: Per-payload stall detector for the parallel path: a
            chunk that has not returned this long times the payload count
            of the round's largest chunk after a worker could start it is
            presumed hung; the pool's processes are killed, the chunk's
            payloads are retried and the chunks still waiting are
            resubmitted without charge.  ``None`` disables the detector.
        retries: How many pool re-attempts a failed payload gets (with
            exponential backoff) before being re-run inline in the parent.
        backoff_s: Base of the exponential backoff between retry rounds.
        jitter: Uniform stretch factor on each backoff wait (see
            :func:`backoff_delay`); ``0`` gives the bare exponential.
            Timing-only — results are identical for any value.
        on_result: Called as ``on_result(index, value)`` the first time
            each payload completes — as its chunk returns in parallel
            runs, in submission order serially.  Must not raise.
        on_failure: Called with a :class:`WorkerFailure` for every failed
            attempt (crash, stall, or in-task exception); the failure is
            being handled — this hook exists for audit logging.

    Returns:
        ``[fn(p) for p in payloads]`` — same values, same order, regardless
        of ``workers`` and of any recovered faults along the way.
    """
    if retries < 0:
        raise ValueError(f"retries cannot be negative, got {retries}")
    if jitter < 0:
        raise ValueError(f"jitter cannot be negative, got {jitter}")
    n_workers = resolve_workers(workers)
    if n_workers <= 1 or len(payloads) <= 1:
        serial: List[_R] = []
        for index, payload in enumerate(payloads):
            attempt = 0
            while True:
                try:
                    value = fn(payload)
                    break
                except Exception as exc:
                    attempt += 1
                    if on_failure is not None:
                        on_failure(WorkerFailure(index, attempt, _describe(exc)))
                    if attempt > retries:
                        raise
                    time.sleep(backoff_delay(attempt, backoff_s, jitter))
            serial.append(value)
            if on_result is not None:
                on_result(index, value)
        return serial

    n = len(payloads)
    pending = _chunks(n, min(n, CHUNKS_PER_WORKER * n_workers))
    results: Dict[int, _R] = {}
    attempts = [0] * n
    run_chunk = partial(_call_chunk, fn)
    while pending:
        # timeout_s budgets one payload; a chunk runs its payloads in turn.
        deadline_s = (
            None if timeout_s is None else timeout_s * max(map(len, pending))
        )
        failures: List[Tuple[int, str]] = []
        with ShardSupervisor(
            run_chunk, n_workers, deadline_s=deadline_s, retries=0
        ) as supervisor:
            for key, unit in enumerate(pending):
                supervisor.submit(key, [payloads[i] for i in unit])
            settled = 0
            while settled < len(pending):
                for completion in supervisor.step():
                    settled += 1
                    unit = pending[completion.key]
                    if not completion.ok:
                        # Stalled, crashed or unpicklable: nothing in the
                        # chunk came back.
                        failures.extend((index, completion.cause) for index in unit)
                        continue
                    for index, (ok, value) in zip(unit, completion.value):
                        if not ok:
                            failures.append((index, value))
                            continue
                        results[index] = value
                        if on_result is not None:
                            on_result(index, value)
        pending = []
        round_attempts = 0
        for index, cause in failures:
            attempts[index] += 1
            round_attempts = max(round_attempts, attempts[index])
            if on_failure is not None:
                on_failure(WorkerFailure(index, attempts[index], cause))
            if attempts[index] > retries:
                # Last resort: recompute inline.  Purity keeps the value
                # bit-identical; a payload whose fn deterministically
                # raises surfaces its genuine exception here, exactly as
                # a serial run would.
                value = fn(payloads[index])
                results[index] = value
                if on_result is not None:
                    on_result(index, value)
            else:
                pending.append((index,))
        if pending:
            time.sleep(backoff_delay(round_attempts, backoff_s, jitter))
    return [results[index] for index in range(n)]
