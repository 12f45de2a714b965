"""Shard jobs and settlement records: the units the service moves around.

A *shard* is one :class:`~repro.core.columnar.ColumnarNeighborhood` day
— a slice of the city — travelling as a :class:`ShardJob`: the
neighborhood's columns, the raw wire report arrays and the shard's keyed
seed, pickled on the pool's feeder thread, off the submitting caller's
path.  The worker settles it and sends back a
:class:`ShardSettlementRecord` — a few hundred bytes of summary plus a
SHA-256 digest over the settled arrays — instead of the megabytes of
outcome, so the way back stays thin at city scale and the journal can
replay a settlement byte-identically without storing it.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..core.columnar import ColumnarNeighborhood
from ..core.mechanism import ColumnarDayOutcome, EnkiMechanism


@dataclass(frozen=True)
class ShardJob:
    """One shard's inputs: its neighborhood, seed and raw reports.

    ``begin``/``end``/``duration`` are the *raw* report arrays straight
    off the wire — float64, aligned with the neighborhood's rows,
    possibly malformed (that is the quarantine's problem, not the
    transport's).  A streamed shard's arrays start as NaN and are
    scattered into by the ingestor; a row that never arrives stays NaN
    and lands in quarantine rather than settling silently.
    """

    index: int
    neighborhood: ColumnarNeighborhood
    seed: int
    begin: np.ndarray
    end: np.ndarray
    duration: np.ndarray

    def __len__(self) -> int:
        return len(self.neighborhood)


@dataclass(frozen=True)
class ShardSettlementRecord:
    """The durable summary of one settled shard.

    ``served_tier`` is 0 for the primary mechanism's own allocator and
    ``1 + fallback tier`` for shards settled on the degraded path, with
    ``degraded`` naming why (empty string = healthy primary serve).
    ``digest`` is SHA-256 over the settled begin slots, consumption
    starts and payments — the byte-identity witness the resume test
    compares.  ``wall_time_s`` and ``attempts`` are operational noise:
    :meth:`fingerprint` excludes them so deterministic equality can be
    asserted across runs with different timing.
    """

    shard_id: int
    n_input: int
    n_settled: int
    n_quarantined: int
    served_tier: int
    allocator_name: str
    degraded: str
    total_cost: float
    revenue: float
    peak_kw: float
    budget_balanced: bool
    digest: str
    wall_time_s: float
    attempts: int = 1

    def fingerprint(self) -> Tuple:
        """Everything deterministic — record equality minus timing."""
        return (
            self.shard_id,
            self.n_input,
            self.n_settled,
            self.n_quarantined,
            self.served_tier,
            self.allocator_name,
            self.degraded,
            self.total_cost,
            self.revenue,
            self.peak_kw,
            self.budget_balanced,
            self.digest,
        )

    def as_payload(self) -> Dict[str, Any]:
        """JSON-safe dict for the journal and audit log."""
        return {
            "shard_id": self.shard_id,
            "n_input": self.n_input,
            "n_settled": self.n_settled,
            "n_quarantined": self.n_quarantined,
            "served_tier": self.served_tier,
            "allocator_name": self.allocator_name,
            "degraded": self.degraded,
            "total_cost": self.total_cost,
            "revenue": self.revenue,
            "peak_kw": self.peak_kw,
            "budget_balanced": self.budget_balanced,
            "digest": self.digest,
            "wall_time_s": self.wall_time_s,
            "attempts": self.attempts,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ShardSettlementRecord":
        """Rebuild a record from its journal payload, verbatim."""
        return cls(
            shard_id=int(payload["shard_id"]),
            n_input=int(payload["n_input"]),
            n_settled=int(payload["n_settled"]),
            n_quarantined=int(payload["n_quarantined"]),
            served_tier=int(payload["served_tier"]),
            allocator_name=str(payload["allocator_name"]),
            degraded=str(payload["degraded"]),
            total_cost=float(payload["total_cost"]),
            revenue=float(payload["revenue"]),
            peak_kw=float(payload["peak_kw"]),
            budget_balanced=bool(payload["budget_balanced"]),
            digest=str(payload["digest"]),
            wall_time_s=float(payload["wall_time_s"]),
            attempts=int(payload["attempts"]),
        )

    def with_attempts(self, attempts: int) -> "ShardSettlementRecord":
        return replace(self, attempts=attempts)


def settlement_digest(outcome: ColumnarDayOutcome) -> str:
    """SHA-256 over the arrays that define a settlement's identity."""
    sha = hashlib.sha256()
    sha.update(np.ascontiguousarray(outcome.allocation_starts, np.int64).tobytes())
    sha.update(np.ascontiguousarray(outcome.consumption_starts, np.int64).tobytes())
    sha.update(np.ascontiguousarray(outcome.settlement.payments, np.float64).tobytes())
    return sha.hexdigest()


def record_from_outcome(
    shard_id: int,
    n_input: int,
    outcome: ColumnarDayOutcome,
    wall_time_s: float,
    served_tier_offset: int = 0,
    degraded: str = "",
) -> ShardSettlementRecord:
    """Summarize a settled columnar day into its durable record."""
    result = outcome.allocation_result
    settlement = outcome.settlement
    n_settled = len(outcome.neighborhood)
    revenue = float(settlement.payments.sum())
    return ShardSettlementRecord(
        shard_id=shard_id,
        n_input=n_input,
        n_settled=n_settled,
        n_quarantined=n_input - n_settled,
        served_tier=served_tier_offset + result.served_tier,
        allocator_name=result.allocator_name,
        degraded=degraded,
        total_cost=float(settlement.total_cost),
        revenue=revenue,
        # Theorem 1 (weak budget balance): payments cover the day's cost.
        budget_balanced=bool(revenue - float(settlement.total_cost) >= -1e-9),
        peak_kw=float(settlement.load_profile.peak_kw),
        digest=settlement_digest(outcome),
        wall_time_s=wall_time_s,
    )


def settle_shard(
    task: Tuple[ShardJob, EnkiMechanism, Optional[Any]],
) -> ShardSettlementRecord:
    """Settle one shard on the primary mechanism (module-level: picklable).

    Runs inside a pool worker (or inline for ``workers=1``): fires the
    chaos shard hooks and drives the job's raw wire arrays through
    :meth:`~repro.core.mechanism.EnkiMechanism.run_day_columnar_raw`.
    Pure in ``(job, mechanism)`` — a retried shard settles
    bit-identically.
    """
    job, mechanism, injector = task
    started_at = time.perf_counter()
    if injector is not None:
        injector.before_shard(job.index)
    outcome = mechanism.run_day_columnar_raw(
        job.neighborhood,
        job.begin,
        job.end,
        job.duration,
        rng=random.Random(job.seed),
    )
    return record_from_outcome(
        shard_id=job.index,
        n_input=len(job),
        outcome=outcome,
        wall_time_s=time.perf_counter() - started_at,
    )
