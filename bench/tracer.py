"""Outside-in span tracer: per-layer timing without touching the program.

The benchmark measures each layer of ``repro`` by wrapping that layer's
public functions *from outside*, at the place where the caller looks the
name up (e.g. ``repro.allocation.greedy.place_day``, not only
``repro.kernels.placement.place_day``).  Each wrapped call records a span
``(name, start, end, parent, rep, attrs)`` in memory; the spans are
written out only once the workload ends.

Two details keep a traced run equal to an untraced one:

* A wrapped module-level function is installed at its *definition* site
  too, so pickling it by reference (``__module__`` + ``__qualname__``,
  both copied by ``functools.wraps``) finds the wrapper and worker tasks
  still pickle.  A closure installed only at an import site would fail to
  pickle and silently push work onto fallback paths.
* Pool workers are forked while the wrappers are installed and inherit
  them.  The first span a worker records resets its inherited buffer and
  registers a ``multiprocessing.util.Finalize`` flush that runs when the
  worker exits normally.

A hook whose target no longer exists is skipped and reported, so the
benchmark keeps running when the program is refactored; the layer then
simply reads as not called.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import secrets
import time
from dataclasses import dataclass
from multiprocessing import util as mp_util
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter

Attrs = Optional[Callable[[tuple, dict, Any], Dict[str, float]]]


@dataclass(frozen=True)
class Hook:
    """One wrapped function.

    ``site`` is ``"module:Qual.name"`` where the function is defined;
    ``also`` lists import sites that hold the same object and must see
    the wrapper too.  ``attrs`` derives counts from ``(args, kwargs,
    result)``.  ``aggregate`` hooks keep only a call count and total time
    per rep, for functions called once per household.
    """

    span: str
    site: str
    also: Tuple[str, ...] = ()
    attrs: Attrs = None
    aggregate: bool = False


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _quarantine(args, kwargs, result):
    flagged = sum(1 for d in result.decisions if d.action != "accepted")
    return {"rows": len(args[1]), "flagged": flagged}


def _bnb(args, kwargs, result):
    nodes = int(result.nodes_explored)
    return {
        "nodes": nodes,
        "proven": int(bool(result.proven_optimal)),
        "root_certified": int(bool(result.root_bound_matched) and nodes == 1),
    }


def _map(args, kwargs, result):
    workers = kwargs.get("workers", args[2] if len(args) > 2 else 1)
    workers = 1 if workers is None else int(workers)
    return {"tasks": len(args[1]), "workers": workers}


def _pack(args, kwargs, result):
    import numpy as np

    size = max(at + length * np.dtype(dtype).itemsize
               for _, dtype, length, at in result.specs)
    return {"bytes": int(size)}


def _queue_depth(args, kwargs, result):
    return {"depth": int(args[0].depth)}


def _pump(args, kwargs, result):
    block = kwargs.get("block", args[1] if len(args) > 1 else False)
    return {"blocking": int(bool(block))}


def _shard(args, kwargs, result):
    return {"rows": int(result.n_input)}


def _stream(args, kwargs, result):
    return {"rows": int(result)}


def _settle_batch(args, kwargs, result):
    return {"rows": sum(len(s.payments) for s in result)}


def _settle(args, kwargs, result):
    return {"rows": len(result.payments)}


def _place(args, kwargs, result):
    return {"rows": len(args[0])}


def _place_batch(args, kwargs, result):
    return {"rows": len(args[1])}


#: Every layer boundary the benchmark times, named after its module.
HOOKS: Tuple[Hook, ...] = (
    Hook("profiles.sample", "repro.sim.profiles:ProfileGenerator.sample_population", attrs=_rows),
    Hook("profiles.sample", "repro.sim.profiles:ProfileGenerator.sample_population_columnar", attrs=_rows),
    Hook("arrays.compile", "repro.allocation.arrays:compile_problem",
         also=("repro.allocation.greedy:compile_problem",
               "repro.allocation.local_search:compile_problem")),
    Hook("arrays.compile", "repro.allocation.arrays:CompiledProblem.from_items"),
    Hook("arrays.compile", "repro.allocation.arrays:CompiledProblem.from_arrays"),
    Hook("quarantine.screen", "repro.robustness.quarantine:Quarantine.screen", attrs=_quarantine),
    Hook("quarantine.screen", "repro.robustness.quarantine:Quarantine.screen_columnar", attrs=_quarantine),
    Hook("greedy.solve", "repro.allocation.greedy:GreedyFlexibilityAllocator.solve"),
    Hook("greedy.solve", "repro.allocation.greedy:GreedyFlexibilityAllocator.solve_columnar"),
    Hook("greedy.solve", "repro.allocation.greedy:GreedyFlexibilityAllocator.solve_columnar_batch"),
    Hook("placement.place", "repro.kernels.placement:place_day",
         also=("repro.allocation.greedy:place_day",), attrs=_place),
    Hook("placement.place", "repro.kernels.placement:place_batch",
         also=("repro.allocation.greedy:place_batch",), attrs=_place_batch),
    Hook("optimal.solve", "repro.allocation.optimal:BranchAndBoundAllocator.solve", attrs=_bnb),
    Hook("relaxation.bound", "repro.allocation.relaxation:fast_transportation_bound",
         also=("repro.allocation.optimal:fast_transportation_bound",), aggregate=True),
    Hook("relaxation.bound", "repro.allocation.relaxation:transportation_solution",
         also=("repro.allocation.optimal:transportation_solution",), aggregate=True),
    Hook("mechanism.consume", "repro.core.mechanism:closest_feasible_consumption",
         also=("repro.sim.engine:closest_feasible_consumption",), aggregate=True),
    Hook("mechanism.settle", "repro.core.mechanism:EnkiMechanism.settle", attrs=_settle),
    Hook("mechanism.settle", "repro.core.mechanism:EnkiMechanism.settle_arrays", attrs=_settle),
    Hook("mechanism.settle", "repro.core.mechanism:EnkiMechanism.settle_arrays_batch",
         attrs=_settle_batch),
    Hook("parallel.map", "repro.sim.parallel:map_tasks",
         also=("repro.sim.engine:map_tasks",), attrs=_map),
    Hook("parallel.task", "repro.sim.engine:_run_study_day"),
    Hook("parallel.task", "repro.sim.engine:_run_simulation_day"),
    Hook("shm.pack", "repro.sim.shm:SharedArena.pack_day", attrs=_pack),
    Hook("queue.submit", "repro.service.queue:BoundedIngestQueue.submit", attrs=_queue_depth),
    Hook("service.submit", "repro.service.service:ShardService.submit_shard"),
    Hook("service.pump", "repro.service.service:ShardService.pump", attrs=_pump),
    Hook("shard.settle", "repro.service.shard:settle_shard",
         also=("repro.service.service:settle_shard",), attrs=_shard),
    Hook("stream.submit", "repro.service.service:ShardService.submit_reports", attrs=_stream),
    Hook("stream.flush", "repro.service.stream:StreamIngestor.flush"),
    Hook("checkpoint.append", "repro.robustness.checkpoint:CheckpointStore.append"),
)


def _resolve(site: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` for ``"module:Qual.name"``.

    The raw value comes from the owner's ``__dict__`` so classmethods and
    staticmethods are seen as such.  Raises ``LookupError`` when missing.
    """
    module_name, _, qualname = site.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(site) from exc
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(site)
    raw = vars(owner).get(attribute)
    if raw is None:
        raise LookupError(site)
    return owner, attribute, raw


class Tracer:
    """In-memory span recorder shared by a workload process and its forks.

    ``rep`` tags every span with the repetition it belongs to (``-1`` for
    set-up); forked workers inherit the value current when they forked.
    """

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.rep = -1
        self.missing: List[str] = []
        self._pid = os.getpid()
        self._fork_parent = -1
        self._spans: List[list] = []
        self._stack: List[int] = []
        self._totals: Dict[Tuple[str, int], List[float]] = {}
        self._installed: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ spans

    def _own(self) -> None:
        pid = os.getpid()
        if pid == self._pid:
            return
        # First span in a forked worker: drop the parent's inherited
        # buffer, remember which parent span was open at the fork, and
        # flush at worker exit (pool workers skip atexit).
        self._fork_parent = self._stack[-1] if self._stack else -1
        self._pid = pid
        self._spans, self._stack, self._totals = [], [], {}
        mp_util.Finalize(None, self.flush, exitpriority=10)

    def open(self, name: str) -> int:
        self._own()
        index = len(self._spans)
        parent = self._stack[-1] if self._stack else -1
        self._spans.append([name, perf_counter(), 0.0, parent, self.rep, None])
        self._stack.append(index)
        return index

    def close(self, index: int, attrs: Optional[Dict[str, float]] = None) -> None:
        span = self._spans[index]
        span[2] = perf_counter()
        span[5] = attrs
        self._stack.pop()

    def add(self, name: str, seconds: float) -> None:
        """Account one call of an aggregate hook."""
        self._own()
        total = self._totals.setdefault((name, self.rep), [0, 0.0])
        total[0] += 1
        total[1] += seconds

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (used for client calls)."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def flush(self) -> None:
        """Write this process's buffered spans to a file in ``out_dir``."""
        if not self._spans and not self._totals:
            return
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(
            self.out_dir, f"spans-{self._pid}-{secrets.token_hex(4)}.json"
        )
        document = {
            "pid": self._pid,
            "ppid": os.getppid(),
            "fork_parent": self._fork_parent,
            "spans": self._spans,
            "totals": [[name, rep, calls, secs]
                       for (name, rep), (calls, secs) in self._totals.items()],
        }
        with open(path, "w") as handle:
            json.dump(document, handle)
        self._spans, self._totals = [], {}

    # ----------------------------------------------------- installation

    def install(self) -> None:
        """Wrap every hook that still exists; record the ones that do not."""
        if self._installed:
            return
        self.missing = []
        for hook in HOOKS:
            try:
                owner, attribute, raw = _resolve(hook.site)
            except LookupError:
                self.missing.append(hook.site)
                continue
            wrapped = self._wrap(hook, raw)
            self._patch(owner, attribute, raw, wrapped)
            func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            for site in hook.also:
                try:
                    other_owner, other_attr, other_raw = _resolve(site)
                except LookupError:
                    continue
                if other_raw is func:
                    self._patch(other_owner, other_attr, other_raw, wrapped)
                else:
                    self.missing.append(site)

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, raw = self._installed.pop()
            setattr(owner, attribute, raw)

    def _patch(self, owner: Any, attribute: str, raw: Any, wrapped: Any) -> None:
        self._installed.append((owner, attribute, raw))
        setattr(owner, attribute, wrapped)

    def _wrap(self, hook: Hook, raw: Any) -> Any:
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self
        name = hook.span
        attrs = hook.attrs

        if hook.aggregate:
            @functools.wraps(func)
            def traced(*args, **kwargs):
                started = perf_counter()
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer.add(name, perf_counter() - started)
        else:
            @functools.wraps(func)
            def traced(*args, **kwargs):
                index = tracer.open(name)
                values = None
                try:
                    result = func(*args, **kwargs)
                    if attrs is not None:
                        values = attrs(args, kwargs, result)
                    return result
                finally:
                    tracer.close(index, values)

        return kind(traced) if kind is not None else traced


# ------------------------------------------------------------ analysis


def load_spans(out_dir: str) -> List[dict]:
    """Every process's flushed span document in ``out_dir``."""
    documents = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(out_dir, entry)) as handle:
                documents.append(json.load(handle))
    return documents


def layer_totals(documents: List[dict]) -> Dict[int, Dict[str, Dict[str, float]]]:
    """Per rep, per span name: calls, inclusive and self seconds, attr sums.

    Inclusive time counts only the outermost span of a name, so a layer
    entry point that calls another entry point of the same layer (e.g.
    ``compile_problem`` → ``CompiledProblem.from_items``) is not counted
    twice.  Self time subtracts the direct child spans of other names.
    Attributes are summed, except three that need the span's duration or
    a maximum: ``depth`` (kept as ``depth_max``), ``workers`` (summed as
    ``capacity_s`` = duration × workers) and ``blocking`` (summed as
    ``blocking_s``, the duration of blocking calls).
    """
    out: Dict[int, Dict[str, Dict[str, float]]] = {}

    def entry(rep: int, name: str) -> Dict[str, float]:
        return out.setdefault(rep, {}).setdefault(
            name, {"calls": 0, "seconds": 0.0, "self_s": 0.0}
        )

    for document in documents:
        spans = document["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, rep, attrs in spans:
            if parent >= 0 and spans[parent][0] != name:
                child_time[parent] += end - start
        for index, (name, start, end, parent, rep, attrs) in enumerate(spans):
            stats = entry(rep, name)
            stats["calls"] += 1
            duration = end - start
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                stats["seconds"] += duration
                stats["self_s"] += duration - child_time[index]
            for key, value in (attrs or {}).items():
                if key == "depth":
                    stats["depth_max"] = max(stats.get("depth_max", 0), value)
                elif key == "workers":
                    stats["capacity_s"] = stats.get("capacity_s", 0.0) + duration * value
                elif key == "blocking":
                    stats["blocking_s"] = stats.get("blocking_s", 0.0) + duration * value
                else:
                    stats[key] = stats.get(key, 0) + value
        for name, rep, calls, seconds in document["totals"]:
            stats = entry(rep, name)
            stats["calls"] += calls
            stats["seconds"] += seconds
            stats["self_s"] += seconds
    return out
