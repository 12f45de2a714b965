"""Digest-keyed allocation memoization (the study-sweep replay cache).

Figure sweeps revisit identical day instances: fig4/5/6 share seeds
across mechanism variants, ablations re-run the same days under one
changed knob, and a warm re-run of a whole study repeats every solve
verbatim.  :class:`AllocationCache` memoizes columnar solves (the object
mechanism day lowers its reports to the columnar path too) under a stable
content key so those replays skip the allocator entirely.

The key has two layers:

* :func:`problem_digest` — a SHA-256 over the :class:`CompiledProblem`'s
  canonical arrays (ids, window bounds, durations as little-endian
  ``int64``, ratings as little-endian ``float64``, sigma).  It depends
  only on instance *content*, so the same problem digests identically in
  the parent and in a spawned or forked worker (pinned by
  ``tests/test_batch_equivalence.py``).
* The full cache key — digest plus the allocator's
  :meth:`~repro.allocation.base.Allocator.cache_token`, the kernel
  backend name (:func:`repro.kernels.active_backend`, a fixed string
  that keeps keys of earlier on-disk stores valid), and a hash of the
  rng's initial state.

Allocators opt in via ``cache_token()`` (``None`` = uncacheable, the
default) and may veto individual results via ``result_cacheable`` — the
branch-and-bound solver stores proven-optimal answers only, because a
deadline-truncated incumbent is a function of the wall clock, not of the
instance.  Hits return a fresh result object sharing the stored arrays,
with ``cache_hit=True`` and the lookup time as ``wall_time_s``; every
other field is byte-identical to the original solve.

The in-memory store is a bounded LRU.  An optional on-disk ``directory``
adds cross-process reuse: entries are pickled under their key with an
atomic rename, so parallel study workers (which each hold their own
in-memory LRU) share warm solves through the filesystem.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
import tempfile
import time
from collections import OrderedDict
from dataclasses import replace
from typing import Any, Dict, Optional

import numpy as np

from ..kernels import active_backend
from ..pricing.base import PricingModel
from .arrays import CompiledProblem
from .base import Allocator, ColumnarAllocationResult


def problem_digest(compiled: CompiledProblem) -> str:
    """Stable SHA-256 hex digest of a compiled instance's content.

    Canonical form: row count, the id vector, the four defining columns
    with forced little-endian width (``<i8`` for the index columns,
    ``<f8`` for ratings — so the digest is identical across platforms
    whatever ``np.intp`` is), and sigma.  Everything else on a
    :class:`CompiledProblem` is derived from these.
    """
    h = hashlib.sha256()
    h.update(str(len(compiled)).encode("ascii"))
    for hid in compiled.ids:
        h.update(b"\x00")
        h.update(str(hid).encode("utf-8"))
    for column in (compiled.win_start, compiled.win_end, compiled.duration):
        h.update(np.ascontiguousarray(column, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(compiled.rating, dtype="<f8").tobytes())
    h.update(repr(compiled.sigma).encode("ascii"))
    return h.hexdigest()


def _rng_token(rng: Optional[random.Random]) -> str:
    """Hash of the rng's *initial* state (the part of the key the solve reads)."""
    if rng is None:
        return "none"
    return hashlib.sha256(repr(rng.getstate()).encode("ascii")).hexdigest()[:16]


class AllocationCache:
    """Bounded LRU (plus optional on-disk store) of allocation results.

    Args:
        capacity: Maximum in-memory entries; the least recently used
            entry is evicted beyond it.
        directory: Optional directory for the cross-process store.  Each
            entry is one pickle named by its key, written with an atomic
            rename; missing directory is created on first store.

    Thread/process notes: the cache itself is process-local.  Pickling a
    cache (shipping it inside a study task to a pool worker) transports
    the configuration but *not* the in-memory entries — workers warm
    their own LRU, and share solves only through ``directory``.
    """

    def __init__(self, capacity: int = 1024, directory: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.directory = os.fspath(directory) if directory is not None else None
        self._memory: "OrderedDict[str, ColumnarAllocationResult]" = OrderedDict()
        self._stats = {"hits": 0, "misses": 0, "bypassed": 0, "stored": 0}

    # -- introspection ------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Counters: ``hits``/``misses``/``bypassed`` lookups, ``stored`` puts."""
        return dict(self._stats)

    def __len__(self) -> int:
        return len(self._memory)

    # -- keying -------------------------------------------------------

    def key_for(
        self,
        allocator: Allocator,
        compiled: CompiledProblem,
        rng: Optional[random.Random],
    ) -> Optional[str]:
        """The full cache key, or ``None`` when the allocator is uncacheable."""
        token = allocator.cache_token()
        if token is None:
            return None
        return "-".join(
            (
                "col",
                problem_digest(compiled),
                hashlib.sha256(token.encode("utf-8")).hexdigest()[:16],
                active_backend(),
                _rng_token(rng),
            )
        )

    # -- the memoized solve -------------------------------------------

    def solve_columnar(
        self,
        allocator: Allocator,
        compiled: CompiledProblem,
        pricing: PricingModel,
        rng: Optional[random.Random] = None,
    ) -> ColumnarAllocationResult:
        """``allocator.solve_columnar`` through the cache."""
        key = self.key_for(allocator, compiled, rng)
        if key is None:
            self._stats["bypassed"] += 1
            return allocator.solve_columnar(compiled, pricing, rng)
        started_at = time.perf_counter()
        stored = self._get(key)
        if stored is not None:
            self._stats["hits"] += 1
            return replace(
                stored,
                cache_hit=True,
                wall_time_s=time.perf_counter() - started_at,
            )
        self._stats["misses"] += 1
        result = allocator.solve_columnar(compiled, pricing, rng)
        if allocator.result_cacheable(result):
            self._put(key, result)
        return result

    # -- storage ------------------------------------------------------

    def _get(self, key: str) -> Optional[ColumnarAllocationResult]:
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            return entry
        if self.directory is not None:
            path = os.path.join(self.directory, f"{key}.pkl")
            try:
                with open(path, "rb") as handle:
                    entry = pickle.load(handle)
            except (OSError, pickle.UnpicklingError, EOFError, ValueError):
                return None
            self._remember(key, entry)
            return entry
        return None

    def _put(self, key: str, result: ColumnarAllocationResult) -> None:
        self._remember(key, result)
        self._stats["stored"] += 1
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp_path, os.path.join(self.directory, f"{key}.pkl"))
            except OSError:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass

    def _remember(self, key: str, result: ColumnarAllocationResult) -> None:
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)

    # -- transport ----------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        """Ship configuration and counters, never the entry payloads."""
        return {
            "capacity": self.capacity,
            "directory": self.directory,
            "_stats": dict(self._stats),
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.capacity = state["capacity"]
        self.directory = state["directory"]
        self._stats = dict(state["_stats"])
        self._memory = OrderedDict()
