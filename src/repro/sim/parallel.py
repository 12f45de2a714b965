"""Deterministic, fault-tolerant process-pool fan-out for day loops.

Every Section VI/VII driver is a loop over *independent* simulated days:
each day samples a fresh population (or replays fixed households) from its
own keyed RNG substream (:func:`repro.sim.rng.make_day_rngs`), so day
instances share no state and can run on any worker in any order.  This
module provides the one primitive they all use:

:func:`map_tasks` — an order-preserving map over payloads that runs inline
for ``workers=1`` (the default everywhere, leaving existing behaviour and
seeds untouched) and fans out across a :class:`~concurrent.futures.
ProcessPoolExecutor` for ``workers>1``.  Because results are keyed by
payload index and each payload's computation is a pure function of the
payload (RNG substreams included), parallel output is bit-identical to
serial output — only wall-clock time changes.

The parallel path ships payloads as contiguous chunks, at most
:data:`CHUNKS_PER_WORKER` per worker, so tiny days pay the pickling and
dispatch cost once per chunk; four per worker balances the tail of uneven
days against that cost.  It is hardened for unattended runs, and
attributes every fault to one payload:

* **Crash recovery** — a payload that raises inside a chunk is recorded
  and the rest of its chunk still runs; a worker that dies
  (``BrokenProcessPool``) leaves its chunk unfinished.  Each failed or
  unfinished payload is retried alone in a fresh pool with exponential
  backoff, and after ``retries`` attempts (counted per payload) re-run
  inline in the parent.  Purity makes every re-run bit-identical, and a
  payload whose function *deterministically* raises still surfaces its
  original exception from the inline run — same semantics as serial mode.
* **Stall detection** — with ``timeout_s`` set, a wait in which *no*
  chunk completes within ``timeout_s`` per payload of the largest chunk in
  flight is declared hung: the worker processes are killed and the
  unfinished payloads recycled through the retry path.  Set it
  comfortably above the slowest expected single task.
* **Streaming results** — ``on_result(index, value)`` fires for each
  payload the first time it completes, when its chunk returns, enabling
  incremental checkpointing; ``on_failure(failure)`` reports every
  :class:`~repro.robustness.errors.WorkerFailure` for the audit trail.

Worker functions must be module-level (picklable) and payloads must pickle;
all engine day-workers in :mod:`repro.sim.engine` satisfy this.  Custom
report/consumption policies that are lambdas or closures only work in
serial mode.
"""

from __future__ import annotations

import logging
import os
import random
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

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


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly terminate a pool's worker processes (hung or broken)."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:  # pragma: no cover - already-dead races
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _pool_round(
    fn: Callable[[_P], _R],
    payloads: Sequence[_P],
    units: Sequence[Tuple[int, ...]],
    n_workers: int,
    timeout_s: Optional[float],
    results: Dict[int, _R],
    on_result: Optional[Callable[[int, _R], None]],
) -> List[Tuple[int, str]]:
    """One attempt at the unresolved chunks; returns the failed payloads."""
    failures: List[Tuple[int, str]] = []
    pool = ProcessPoolExecutor(max_workers=min(n_workers, len(units)))
    killed = False
    try:
        futures = {
            pool.submit(_call_chunk, fn, [payloads[i] for i in unit]): unit
            for unit in units
        }
        not_done = set(futures)
        fatal: Optional[str] = None
        while not_done and fatal is None:
            # timeout_s budgets one payload; a chunk runs its payloads in turn.
            window = None if timeout_s is None else timeout_s * max(
                len(futures[future]) for future in not_done
            )
            done, not_done = wait(
                not_done, timeout=window, return_when=FIRST_COMPLETED
            )
            if not done:
                fatal = (
                    f"stalled: no task completed within {window}s "
                    "(presumed hung worker)"
                )
                break
            for future in done:
                unit = futures[future]
                try:
                    outcomes = future.result()
                except BrokenProcessPool as exc:
                    fatal = f"process pool broke: {exc!r}"
                    break
                except Exception as exc:
                    failures.extend((index, _describe(exc)) for index in unit)
                    continue
                for index, (ok, value) in zip(unit, outcomes):
                    if not ok:
                        failures.append((index, value))
                        continue
                    results[index] = value
                    if on_result is not None:
                        on_result(index, value)
        if fatal is not None:
            failed = {index for index, _ in failures}
            failures.extend(
                (index, fatal)
                for unit in futures.values()
                for index in unit
                if index not in results and index not in failed
            )
            _kill_pool(pool)
            killed = True
    finally:
        if not killed:
            pool.shutdown(wait=True)
    return failures


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
        fn: A module-level (picklable) worker function.
        payloads: Picklable task descriptions; one ``fn`` call each.
        workers: Worker processes (see :func:`resolve_workers`); ``1`` runs
            inline in this process with zero overhead.  More workers split
            the payloads into ``min(len(payloads), 4 * workers)``
            contiguous chunks of near-equal size.
        timeout_s: Per-payload stall detector for the parallel path: if no
            chunk completes within this long times the payload count of
            the largest chunk in flight, the pool is presumed hung, its
            processes are killed and the unfinished payloads retried.
            ``None`` disables the detector.
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
    n_chunks = min(n, CHUNKS_PER_WORKER * n_workers)
    pending: List[Tuple[int, ...]] = [
        tuple(range(n * c // n_chunks, n * (c + 1) // n_chunks))
        for c in range(n_chunks)
    ]
    results: Dict[int, _R] = {}
    attempts = [0] * n
    while pending:
        failures = _pool_round(
            fn, payloads, pending, n_workers, timeout_s, results, on_result
        )
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
