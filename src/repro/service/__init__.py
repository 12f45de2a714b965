"""Supervised city-scale shard service.

The long-lived layer above the columnar mechanism: shards (columnar
days) enter through a bounded backpressured queue, settle on a
supervised worker pool with deadlines, jittered retries and pool
replacement, degrade per-shard through circuit breakers onto a fallback
tier when sick, and journal every settlement so a killed service resumes
byte-identically.  See ``docs/robustness.md`` ("Service layer").
"""

from ..sim.parallel import ShardCompletion, ShardSupervisor
from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .city import sample_shard, serve_city, shard_sizes, stream_arrival_order
from .queue import BoundedIngestQueue
from .service import META_KEY, ServiceResult, ShardService, shard_key
from .shard import (
    ShardJob,
    ShardSettlementRecord,
    record_from_outcome,
    settle_shard,
    settlement_digest,
)
from .stream import (
    ColumnarReportBuilder,
    ReportChunk,
    ShardAssembler,
    StreamIngestor,
    StreamStats,
    parse_canonical_ids,
)

__all__ = [
    "BoundedIngestQueue",
    "CLOSED",
    "CircuitBreaker",
    "ColumnarReportBuilder",
    "HALF_OPEN",
    "META_KEY",
    "OPEN",
    "ReportChunk",
    "ServiceResult",
    "ShardAssembler",
    "ShardCompletion",
    "ShardJob",
    "ShardService",
    "ShardSettlementRecord",
    "ShardSupervisor",
    "StreamIngestor",
    "StreamStats",
    "parse_canonical_ids",
    "record_from_outcome",
    "sample_shard",
    "serve_city",
    "settle_shard",
    "settlement_digest",
    "shard_key",
    "shard_sizes",
    "stream_arrival_order",
]
