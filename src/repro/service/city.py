"""The city driver: shard a metropolis and push it through the service.

:func:`serve_city` is the 1M-household entry point behind the
``city`` CLI subcommand and the ``city_*`` benchmarks: it samples one
columnar shard population per shard index from keyed RNG substreams
(each shard is a pure function of ``(root, index)``, independent of
scheduling), submits them through the service's backpressured queue —
pumping the service to drain instead of sleeping whenever it pushes
back — and drains to settlement.  With a chaos plan attached the same
driver doubles as the acceptance harness: flood shards get their wire
arrays mass-corrupted at ingestion, slow/kill shards misbehave inside
the workers, and the supervisor-kill fuse interrupts the run mid-drain
to exercise journal resume.
"""

from __future__ import annotations

from collections import deque
from typing import Any, List, Optional

import numpy as np

from ..core.mechanism import EnkiMechanism
from ..io.audit import AuditLog
from ..robustness.checkpoint import CheckpointStore
from ..robustness.errors import ServiceOverloadError
from ..sim.parallel import DEFAULT_BACKOFF_S, DEFAULT_JITTER
from ..sim.profiles import ProfileGenerator, ProfileGeneratorConfig
from ..sim.rng import make_day_rngs, root_entropy, spawn_seed
from .service import ServiceResult, ShardService
from .stream import ReportChunk

#: Spawn-key tag of the per-shard report *arrival order* substream —
#: distinct from the shard's sampling substream (``spawn_key=(index,)``)
#: so shuffling arrivals can never perturb the sampled population.
_STREAM_ORDER_TAG = 0x53545245414D


def shard_sizes(n: int, shards: int) -> list:
    """Split ``n`` households into ``shards`` near-equal positive slices."""
    if n < 1:
        raise ValueError(f"city size must be >= 1, got {n}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    shards = min(shards, n)
    edges = [n * i // shards for i in range(shards + 1)]
    return [edges[i + 1] - edges[i] for i in range(shards)]


def sample_shard(
    root: int,
    index: int,
    size: int,
    generator: Optional[ProfileGenerator] = None,
):
    """Shard ``index``'s columnar neighborhood and allocator seed.

    Drawn from the shard's keyed substream
    (:func:`~repro.sim.rng.make_day_rngs` keyed by ``(root, index)``), so
    the shard's population is identical no matter when — or in which
    service life — it is sampled.  Ids are prefixed per shard to stay
    city-unique.
    """
    generator = generator if generator is not None else ProfileGenerator()
    py_rng, np_rng = make_day_rngs(root, index)
    profiles = generator.sample_population_columnar(
        np_rng, size, id_prefix=f"s{index}-hh"
    )
    return profiles.to_neighborhood("wide"), spawn_seed(py_rng)


def stream_arrival_order(root: int, index: int, size: int) -> np.ndarray:
    """Shard ``index``'s deterministic streamed-arrival permutation.

    A pure function of ``(root, index)`` on its own keyed substream, so
    the stream scenario is reproducible yet genuinely out-of-order with
    respect to row order.
    """
    seq = np.random.SeedSequence(root, spawn_key=(index, _STREAM_ORDER_TAG))
    return np.random.default_rng(seq).permutation(size)


def _serve_city_stream(
    service: ShardService,
    root: int,
    sizes: List[int],
    generator: ProfileGenerator,
    journal: Optional[CheckpointStore],
    chaos: Optional[Any],
    chunk_rows: int,
) -> ServiceResult:
    """Feed the city to the service as an interleaved report stream.

    Every open shard is registered up front (journal-replayed shards are
    skipped without sampling), then report chunks are dealt round-robin
    across shards in each shard's shuffled arrival order — the most
    adversarial interleaving the router must reassemble exactly.  Chaos
    flood corruption is applied *per chunk* via
    ``corrupt_stream_rows``, which draws the same seed-keyed corruption
    shapes as the batch path's whole-shard corruption.
    """
    if chunk_rows < 1:
        raise ValueError(f"stream chunk must be >= 1, got {chunk_rows}")
    streams = []
    for index, size in enumerate(sizes):
        if journal is not None and service.journal_has(index):
            service.register_stream_shard(index, None)
            continue
        neighborhood, shard_seed = sample_shard(root, index, size, generator)
        service.register_stream_shard(index, neighborhood, seed=shard_seed)
        begin, end, duration = neighborhood.truthful_wire()
        streams.append((
            index,
            np.asarray(neighborhood.ids),
            begin,
            end,
            duration,
            stream_arrival_order(root, index, size),
        ))
    cursors = [0] * len(streams)
    live = deque(range(len(streams)))
    while live:
        k = live.popleft()
        index, ids, begin, end, duration, order = streams[k]
        at = cursors[k]
        rows = order[at : at + chunk_rows]
        cursors[k] = at + rows.shape[0]
        if cursors[k] < order.shape[0]:
            live.append(k)
        chunk_begin = begin[rows]
        chunk_end = end[rows]
        chunk_duration = duration[rows]
        if chaos is not None:
            chunk_begin, chunk_end, chunk_duration = chaos.corrupt_stream_rows(
                index, order.shape[0], rows, chunk_begin, chunk_end, chunk_duration
            )
        chunk = ReportChunk(
            ids=ids[rows],
            begin=chunk_begin,
            end=chunk_end,
            duration=chunk_duration,
        )
        while True:
            try:
                service.submit_reports(chunk)
                break
            except ServiceOverloadError:
                # Same discipline as the batch path: drain, don't sleep.
                service.pump(block=True)
    incomplete = service.finish_streams()
    if incomplete:
        # The generator above sends every row exactly once, so this can
        # only mean rows were rejected/lost — fail loudly, not partially.
        raise RuntimeError(
            f"streamed city left shards incomplete: {incomplete}"
        )
    return service.drain()


def serve_city(
    n: int,
    shards: int,
    workers: Optional[int] = 1,
    seed: Optional[int] = 2017,
    mechanism: Optional[EnkiMechanism] = None,
    config: Optional[ProfileGeneratorConfig] = None,
    queue_capacity: int = 64,
    low_watermark: Optional[int] = None,
    deadline_s: Optional[float] = None,
    retries: int = 2,
    cooldown_s: float = 30.0,
    backoff_s: float = DEFAULT_BACKOFF_S,
    jitter: float = DEFAULT_JITTER,
    journal: Optional[CheckpointStore] = None,
    audit: Optional[AuditLog] = None,
    chaos: Optional[Any] = None,
    stream: bool = False,
    stream_chunk: int = 4096,
) -> ServiceResult:
    """Settle a city of ``n`` households as ``shards`` supervised shards.

    With ``stream=True`` the city arrives as an interleaved, out-of-order
    report stream in ``stream_chunk``-row chunks (see
    :func:`_serve_city_stream`) instead of whole-shard arrays — the
    settlement is digest-identical either way.

    Raises:
        ServiceInterrupted: The chaos supervisor-kill fuse fired; the
            journal holds every shard settled so far, and re-running with
            the same ``journal`` resumes byte-identically.
    """
    root = root_entropy(seed)
    generator = ProfileGenerator(config)
    sizes = shard_sizes(n, shards)
    meta = {"root": root, "n": n, "shards": len(sizes)}
    with ShardService(
        mechanism=mechanism,
        workers=workers,
        queue_capacity=queue_capacity,
        low_watermark=low_watermark,
        deadline_s=deadline_s,
        retries=retries,
        cooldown_s=cooldown_s,
        backoff_s=backoff_s,
        jitter=jitter,
        journal=journal,
        journal_meta=meta,
        audit=audit,
        chaos=chaos,
    ) as service:
        if stream:
            return _serve_city_stream(
                service, root, sizes, generator, journal, chaos, stream_chunk
            )
        for index, size in enumerate(sizes):
            if journal is not None and service.journal_has(index):
                # Resume fast path: replay without sampling or packing.
                service.submit_shard(index, None)  # type: ignore[arg-type]
                continue
            neighborhood, shard_seed = sample_shard(root, index, size, generator)
            begin, end, duration = neighborhood.truthful_wire()
            if chaos is not None:
                begin, end, duration = chaos.corrupt_shard_reports(
                    index, begin, end, duration
                )
            while True:
                try:
                    service.submit_shard(
                        index,
                        neighborhood,
                        begin=begin,
                        end=end,
                        duration=duration,
                        seed=shard_seed,
                    )
                    break
                except ServiceOverloadError:
                    # Backpressure: drain the service instead of sleeping
                    # — the productive response to "come back later".
                    service.pump(block=True)
        return service.drain()
