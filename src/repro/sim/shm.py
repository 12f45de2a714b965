"""Zero-copy shared-memory transport for columnar days.

The parallel day fan-out used to pickle a whole neighborhood into every
worker task — at 100k households that is megabytes of object graph per
day, and `BENCH_core.json` showed the pool spending its time serializing
rather than computing.  This module ships a day as a handful of ndarrays
backed by :class:`multiprocessing.shared_memory.SharedMemory` instead:

* :class:`SharedArena` — owns the segments for one parallel run.  It
  creates them, tracks them in a process-wide registry
  (:func:`active_segments`), and unlinks them on :meth:`~SharedArena.
  dispose` (also wired to ``atexit`` so a crashed run cannot leak
  ``/dev/shm`` entries from the owning process).  Disposal is idempotent
  and guarded by owner pid, so ``fork``-inherited copies in workers never
  unlink the parent's segments.
* :class:`SharedColumnarDay` — a tiny picklable descriptor (segment name
  + array specs) that reconstructs a read-only
  :class:`~repro.core.columnar.ColumnarNeighborhood` view inside a worker
  without copying a byte.

Worker-side attachments are cached per segment name.  Ownership (and the
unlink responsibility) stays with the creating process.  Pool workers
share their parent's :mod:`multiprocessing` resource tracker, which holds
each segment name once: attaching registers the name again, which changes
nothing, so a worker must never unregister it — that would delete the
parent's own registration, and the tracker would print a ``KeyError``
traceback when the parent later unlinks the segment.  A SIGKILLed
*worker* leaks nothing because it never owned anything; a SIGKILLed
*parent* leaves its segments to the tracker's exit sweep.

Household ids travel as a fixed-width ``S`` byte array inside the segment
when they are ASCII (the generated ``hh000...`` ids always are), with a
pickled-tuple fallback for exotic ids.
"""

from __future__ import annotations

import atexit
import os
import pickle
import secrets
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Tuple

import numpy as np

from ..core.columnar import ColumnarNeighborhood

#: Byte alignment of every array packed into a segment.
_ALIGN = 64

#: Worker-side caches kept per segment name (days in flight are few).
_CACHE_LIMIT = 8

#: Segments owned (created) by this process: name -> (SharedMemory, pid).
_OWNED: Dict[str, Tuple[shared_memory.SharedMemory, int]] = {}

#: Segments attached (not owned) by this process: name -> SharedMemory.
_ATTACHED: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()

#: Reconstructed day state keyed by segment name; each entry is a
#: three-slot list ``[views, neighborhood-or-None, ids-or-None]``.
_DAY_VIEWS: "OrderedDict[str, list]" = OrderedDict()


def active_segments() -> Tuple[str, ...]:
    """Names of shared-memory segments this process currently owns.

    The leak check used by the chaos suite: after every parallel run has
    disposed its arena this must be empty, worker crashes included.
    """
    return tuple(sorted(_OWNED))


def _unregister_tracker(segment: shared_memory.SharedMemory) -> None:
    """Drop ``segment`` from the resource tracker (best effort)."""
    try:
        resource_tracker.unregister(
            getattr(segment, "_name", segment.name), "shared_memory"
        )
    except Exception:  # pragma: no cover - tracker may be absent/shut down
        pass


def _attach(name: str) -> shared_memory.SharedMemory:
    """A SharedMemory handle for ``name``: owned, cached, or freshly opened."""
    owned = _OWNED.get(name)
    if owned is not None:
        return owned[0]
    segment = _ATTACHED.get(name)
    if segment is not None:
        _ATTACHED.move_to_end(name)
        return segment
    segment = shared_memory.SharedMemory(name=name, create=False)
    _ATTACHED[name] = segment
    while len(_ATTACHED) > _CACHE_LIMIT:
        _, stale = _ATTACHED.popitem(last=False)
        _DAY_VIEWS.pop(stale.name, None)
        try:
            stale.close()
        except BufferError:  # pragma: no cover - views still alive
            pass
    return segment


class SharedArena:
    """Owner of the shared-memory segments backing one parallel run.

    Use as a context manager (or call :meth:`dispose` in a ``finally``):
    segments are unlinked exactly once, by the process that created them,
    no matter how many forked workers attached along the way.
    """

    def __init__(self, prefix: str = "enki") -> None:
        self._prefix = prefix
        self._names: list = []
        self._owner_pid = os.getpid()
        self._disposed = False

    def create(self, nbytes: int) -> shared_memory.SharedMemory:
        """A fresh owned segment of at least ``nbytes`` bytes."""
        if self._disposed:
            raise RuntimeError("arena already disposed")
        name = f"{self._prefix}-{os.getpid()}-{secrets.token_hex(4)}"
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=max(int(nbytes), 1)
        )
        _OWNED[segment.name] = (segment, self._owner_pid)
        self._names.append(segment.name)
        return segment

    def pack_day(
        self, neighborhood: ColumnarNeighborhood, report_columns: bool = False
    ) -> "SharedColumnarDay":
        """Copy a columnar neighborhood into one segment, once.

        Returns the descriptor workers use to reconstruct zero-copy views;
        the copy here is the only one the day's transport ever makes.

        With ``report_columns=True`` the segment also carries three
        NaN-filled float64 wire columns (``rep_begin`` / ``rep_end`` /
        ``rep_duration``) the streaming ingestor scatters reports into as
        they arrive — the settled shard then travels with its reports
        embedded, no per-task pickled arrays at all.  NaN is the sentinel
        for "never filled": an unfilled row that slips through lands in
        quarantine as a nan-bound report instead of settling silently.
        """
        encoding, ids_arr = _encode_ids(neighborhood.ids)
        arrays = [
            ("ids", ids_arr),
            ("true_start", neighborhood.true_start),
            ("true_end", neighborhood.true_end),
            ("duration", neighborhood.duration),
            ("rating", neighborhood.rating),
            ("valuation", neighborhood.valuation),
        ]
        if report_columns:
            empty = np.full(len(neighborhood), np.nan, dtype=np.float64)
            arrays += [
                ("rep_begin", empty),
                ("rep_end", empty),
                ("rep_duration", empty),
            ]
        specs = []
        offset = 0
        for key, arr in arrays:
            offset = -(-offset // _ALIGN) * _ALIGN
            specs.append((key, arr.dtype.str, int(arr.shape[0]), offset))
            offset += arr.nbytes
        segment = self.create(offset)
        for (key, arr), (_, dtype, length, at) in zip(arrays, specs):
            dest = np.ndarray(
                (length,), dtype=np.dtype(dtype), buffer=segment.buf, offset=at
            )
            dest[:] = arr
        return SharedColumnarDay(
            segment=segment.name,
            n=len(neighborhood),
            specs=tuple(specs),
            ids_encoding=encoding,
            has_reports=report_columns,
        )

    def dispose(self) -> None:
        """Close and unlink every owned segment (idempotent, pid-guarded).

        Safe to call any number of times and in any order relative to the
        ``atexit`` backstop: a segment that was already unlinked (by an
        earlier ``dispose`` or by :func:`_dispose_all_owned`) is skipped
        silently, with no second unlink attempt and no resource-tracker
        warning.
        """
        if self._disposed:
            return
        self._disposed = True
        if os.getpid() != self._owner_pid:
            # A fork-inherited copy in a worker: the parent owns cleanup.
            return
        names, self._names = self._names, []
        for name in names:
            entry = _OWNED.pop(name, None)
            if entry is None:
                # Already cleaned up (second dispose, or the atexit
                # backstop ran first): nothing left to close or unlink.
                continue
            _unlink_owned(entry[0])

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.dispose()

    def __del__(self) -> None:  # pragma: no cover - backstop only
        try:
            self.dispose()
        except Exception:
            pass


def _unlink_owned(segment: shared_memory.SharedMemory) -> None:
    """Close and unlink one owned segment, tolerating every replay."""
    _DAY_VIEWS.pop(segment.name, None)
    try:
        segment.close()
    except BufferError:  # pragma: no cover - caller kept views alive
        pass
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        # Unlinked out from under us (external cleanup); make sure the
        # resource tracker forgets it too, or its own atexit sweep would
        # warn about (and retry) a segment that no longer exists.
        _unregister_tracker(segment)


@atexit.register
def _dispose_all_owned() -> None:
    """Last-resort unlink of owned segments if a run never disposed.

    Only this process's own segments are touched: fork-inherited entries
    stay in the registry untouched (their owner cleans them up), so a
    worker exiting never unlinks — or even forgets — the parent's
    segments.
    """
    pid = os.getpid()
    for name in list(_OWNED):
        if _OWNED[name][1] != pid:
            continue
        segment, _ = _OWNED.pop(name)
        _unlink_owned(segment)


def _encode_ids(ids: Tuple[str, ...]) -> Tuple[str, np.ndarray]:
    """Lower an id tuple to a packable array: fixed-width bytes or pickle."""
    if ids and all(type(i) is str for i in ids):
        try:
            arr = np.array(ids, dtype="S")
        except UnicodeEncodeError:
            arr = None
        if (
            arr is not None
            and arr.ndim == 1
            and arr.dtype.itemsize > 0
            # Fixed-width 'S' storage strips trailing NULs; such ids (or
            # empty ones) must take the exact pickle route instead.
            and not any((not i) or i[-1] == "\x00" for i in ids)
        ):
            return "bytes", arr
    payload = pickle.dumps(tuple(ids), protocol=pickle.HIGHEST_PROTOCOL)
    return "pickle", np.frombuffer(payload, dtype=np.uint8)


@dataclass(frozen=True)
class SharedColumnarDay:
    """Picklable descriptor of one day's arrays inside a shared segment.

    ``specs`` rows are ``(field, dtype, length, byte_offset)``; the
    descriptor itself is a few hundred bytes no matter how large the
    neighborhood is.  Reconstruction methods cache per segment name, so a
    worker decodes the id vector at most once per day.
    """

    segment: str
    n: int
    specs: Tuple[Tuple[str, str, int, int], ...]
    ids_encoding: str
    #: Whether the segment carries the three streamed report columns
    #: (``rep_begin`` / ``rep_end`` / ``rep_duration``).
    has_reports: bool = False

    def __len__(self) -> int:
        return self.n

    def _entry(self) -> dict:
        cached = _DAY_VIEWS.get(self.segment)
        if cached is not None:
            _DAY_VIEWS.move_to_end(self.segment)
            return cached[0]
        segment = _attach(self.segment)
        views: dict = {}
        for key, dtype, length, offset in self.specs:
            view = np.ndarray(
                (length,), dtype=np.dtype(dtype), buffer=segment.buf, offset=offset
            )
            view.setflags(write=False)
            views[key] = view
        _DAY_VIEWS[self.segment] = [views, None, None]
        while len(_DAY_VIEWS) > _CACHE_LIMIT:
            _DAY_VIEWS.popitem(last=False)
        return views

    def column(self, field: str) -> np.ndarray:
        """A read-only zero-copy view of one packed column by name."""
        views = self._entry()
        if field not in views:
            raise KeyError(f"day segment has no column {field!r}")
        return views[field]

    def report_views(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only views of the embedded report wire columns.

        The worker-side accessor for streamed shards: the reports settle
        straight out of the shared segment, with no per-task arrays.
        """
        if not self.has_reports:
            raise ValueError("day was packed without report columns")
        views = self._entry()
        return views["rep_begin"], views["rep_end"], views["rep_duration"]

    def writable_report_views(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Writable views of the report columns, for the stream ingestor.

        Fresh (uncached) ndarrays over the same shared buffer: the owner
        scatters micro-batches into them while assembling the shard, then
        stops writing before the job is handed to the supervisor.
        """
        if not self.has_reports:
            raise ValueError("day was packed without report columns")
        segment = _attach(self.segment)
        out = []
        for key, dtype, length, offset in self.specs:
            if key in ("rep_begin", "rep_end", "rep_duration"):
                out.append(
                    np.ndarray(
                        (length,),
                        dtype=np.dtype(dtype),
                        buffer=segment.buf,
                        offset=offset,
                    )
                )
        return tuple(out)  # type: ignore[return-value]

    def ids(self) -> Tuple[str, ...]:
        """The full id tuple (decoded once per process per segment)."""
        self._entry()
        cached = _DAY_VIEWS[self.segment]
        if cached[2] is None:
            cached[2] = _decode_ids(cached[0]["ids"], self.ids_encoding)
        return cached[2]

    def neighborhood(self) -> ColumnarNeighborhood:
        """A zero-copy :class:`ColumnarNeighborhood` over the segment.

        The arrays are read-only views of the shared buffer; validation is
        skipped (the packed day was validated at construction).
        """
        self._entry()
        cached = _DAY_VIEWS[self.segment]
        if cached[1] is None:
            views = cached[0]
            cached[1] = ColumnarNeighborhood.from_trusted(
                ids=self.ids(),
                true_start=views["true_start"],
                true_end=views["true_end"],
                duration=views["duration"],
                rating=views["rating"],
                valuation=views["valuation"],
            )
        return cached[1]


def _decode_ids(arr: np.ndarray, encoding: str) -> Tuple[str, ...]:
    if encoding == "bytes":
        return tuple(arr.astype(np.str_).tolist())
    if encoding == "pickle":
        return tuple(pickle.loads(arr.tobytes()))
    raise ValueError(f"unknown ids encoding {encoding!r}")
