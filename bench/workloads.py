"""The five benchmark workloads, their inputs and their output checks.

Each workload builds its inputs from the run seed in ``setup`` and runs a
fixed amount of work per repetition in ``rep``, timing every call the
client makes into a public entry point of ``repro``.  Every output is
checked against the paper's guarantees before it counts as settled:
Theorem 1 budget balance, allocations inside the reported windows (and
consumption inside the true windows), a proven exact optimum never above
greedy cost, and every city shard served by the primary tier.

Workloads (``WHY`` holds the one-line reason for each):

* ``paper_study`` — the Figs. 4-6 study: greedy vs. exact branch and bound
  (on a node budget, so results repeat exactly) over fresh populations,
  fanned out over days.  Its cost per day depends on how hard the day is
  for the exact solver, so each repetition draws its own days
  (``rep_seed``) and a run averages over many of them.
* ``day_n100k`` — one in-process columnar day at n=100k, where the
  greedy placement sweep dominates.
* ``simulate_n200`` — the object-path mechanism over many tiny days fanned
  out over two workers: per-day orchestration, consumption and settlement.
  Four neighborhoods per repetition, so its cost does not hinge on one
  population.
* ``city_n1m`` — a closed-loop client feeding 1M households as 32 whole
  shards to the supervised shard service, with a queue smaller than the
  shard count so backpressure binds.
* ``city_stream_n1m`` — the same city as interleaved, out-of-order report
  chunks through the streaming ingestor; its shard digests must equal the
  batch city's.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from repro.allocation.greedy import GreedyFlexibilityAllocator
from repro.allocation.optimal import BranchAndBoundAllocator
from repro.core.mechanism import EnkiMechanism
from repro.mechanisms.enki import serving_mechanism
from repro.robustness.checkpoint import CheckpointStore
from repro.robustness.errors import ServiceOverloadError
from repro.service.city import sample_shard, shard_sizes, stream_arrival_order
from repro.service.service import ShardService
from repro.service.shard import settlement_digest
from repro.service.stream import ReportChunk
from repro.sim.engine import NeighborhoodSimulation, SocialWelfareStudy
from repro.sim.profiles import ProfileGenerator, neighborhood_from_profiles
from repro.sim.rng import make_day_rngs, root_entropy, spawn_seed

#: Why each workload is in the benchmark (mirrored in BENCHMARK.json).
WHY = {
    "paper_study": "the paper's Figs. 4-6 study: exact B&B on a node budget is most of the work; big day tasks on 2 workers",
    "day_n100k": "one in-process columnar day at n=100k: the greedy placement sweep is ~88% of the day",
    "simulate_n200": "object-path mechanism over tiny days on 2 workers: fan-out overhead, consumption, settlement",
    "city_n1m": "1M households as 32 shards into the supervised service; queue capacity 8 < 32 so backpressure binds",
    "city_stream_n1m": "the same city as 4096-row out-of-order report chunks through the stream ingestor",
}

#: Sizes per scale.  "full" is the recorded benchmark; "smoke" runs the
#: same code paths at toy sizes to check the harness in seconds.
SCALES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "paper_study": {"populations": (10, 20, 30), "days": 40, "node_limit": 1000},
        "day_n100k": {"n": 100_000, "days": 4},
        "simulate_n200": {"n": 200, "neighborhoods": 4, "days": 60},
        "city_n1m": {"n": 1_000_000, "shards": 32, "queue_capacity": 8},
        "city_stream_n1m": {"n": 1_000_000, "shards": 32, "chunk": 4096},
    },
    "smoke": {
        "paper_study": {"populations": (6, 8), "days": 2, "node_limit": 200},
        "day_n100k": {"n": 2_000, "days": 2},
        "simulate_n200": {"n": 20, "neighborhoods": 2, "days": 4},
        "city_n1m": {"n": 20_000, "shards": 4, "queue_capacity": 2},
        "city_stream_n1m": {"n": 20_000, "shards": 4, "chunk": 1024},
    },
}

#: Relative slack for float comparisons of costs and payments.
_EPS = 1e-9


@dataclass
class Rep:
    """One repetition's fixed work: timings, settled volume and checks.

    ``facts`` are deterministic output properties (equal for equal
    inputs); ``signals`` depend on timing (e.g. overload rejections).
    """

    wall_s: float
    latencies_s: List[float]
    households: int
    units: int
    digest: str
    failures: List[str] = field(default_factory=list)
    facts: Dict[str, Any] = field(default_factory=dict)
    signals: Dict[str, float] = field(default_factory=dict)


class Client:
    """Times each call the benchmark client makes into the program.

    With a tracer, every call is also the root span of what it causes.
    """

    def __init__(self, tracer=None) -> None:
        self.latencies: List[float] = []
        self._tracer = tracer

    def call(self, name: str, fn: Callable, *args, **kwargs):
        started = perf_counter()
        if self._tracer is None:
            result = fn(*args, **kwargs)
        else:
            with self._tracer.span(f"client.{name}"):
                result = fn(*args, **kwargs)
        self.latencies.append(perf_counter() - started)
        return result


def _sha(parts: Sequence[str]) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part.encode())
        sha.update(b"\n")
    return sha.hexdigest()


def rep_seed(seed: int, rep: int) -> int:
    """A repetition's own seed, a pure function of ``(seed, rep)``."""
    return random.Random(f"{seed}:{rep}").getrandbits(63)


def _budget_ok(revenue: float, cost: float) -> bool:
    """Theorem 1: payments cover the day's cost."""
    return revenue - cost >= -_EPS * max(1.0, abs(cost))


def check_columnar_day(outcome, label: str) -> List[str]:
    """Thm 1 and window checks recomputed from a columnar day's arrays."""
    failures = []
    settlement = outcome.settlement
    if not _budget_ok(float(settlement.payments.sum()), float(settlement.total_cost)):
        failures.append(f"{label}: budget not balanced")
    reports = outcome.reports
    starts = outcome.allocation_starts
    outside = (starts < reports.start) | (starts + reports.duration > reports.end)
    if bool(np.any(outside)):
        failures.append(f"{label}: {int(outside.sum())} allocations outside reported windows")
    nbhd = outcome.neighborhood
    cons = outcome.consumption_starts
    stray = (cons < nbhd.true_start) | (cons + nbhd.duration > nbhd.true_end)
    if bool(np.any(stray)):
        failures.append(f"{label}: {int(stray.sum())} consumptions outside true windows")
    return failures


# ------------------------------------------------------------ workloads


class PaperStudy:
    """Figs. 4-6: greedy vs. exact B&B on fresh populations per day.

    The exact solver runs on a node budget instead of a wall clock, so a
    repetition's result is a pure function of its seed.
    """

    name = "paper_study"
    #: Each repetition draws its own days, so repetitions differ in output.
    rep_keyed = True

    def __init__(self, populations, days, node_limit, workers, workdir) -> None:
        self.populations = tuple(populations)
        self.days = days
        self.node_limit = node_limit
        self.workers = workers

    def setup(self, seed: int):
        study = SocialWelfareStudy(
            [
                GreedyFlexibilityAllocator(),
                BranchAndBoundAllocator(time_limit_s=None, node_limit=self.node_limit),
            ]
        )
        return {"seed": seed, "study": study}

    def rep(self, inputs, rep: int, client: Client) -> Rep:
        records = client.call(
            "sweep",
            inputs["study"].sweep,
            self.populations,
            self.days,
            rep_seed(inputs["seed"], rep),
            workers=self.workers,
        )
        days: Dict[tuple, Dict[str, Any]] = {}
        for record in records:
            days.setdefault((record.n_households, record.day), {})[record.allocator] = record
        failures = []
        nodes = proven = certified = 0
        for (n, day), pair in sorted(days.items()):
            greedy, exact = pair.get("enki-greedy"), pair.get("optimal-bnb")
            label = f"n={n} day={day}"
            if greedy is None or exact is None:
                failures.append(f"{label}: missing allocator record")
                continue
            # A search cut by the node budget keeps its incumbent, which
            # was warm-started by greedy under another tie-break draw; only
            # a proven optimum must beat this day's greedy record.
            if exact.proven_optimal and exact.cost > greedy.cost + _EPS * max(1.0, abs(greedy.cost)):
                failures.append(f"{label}: proven exact cost {exact.cost} > greedy {greedy.cost}")
            if greedy.served_tier or exact.served_tier:
                failures.append(f"{label}: served by a fallback tier")
            nodes += exact.nodes_explored
            proven += int(exact.proven_optimal)
            certified += int(exact.proven_optimal and exact.nodes_explored == 1)
        digest = _sha(
            f"{r.n_households}|{r.day}|{r.allocator}|{float(r.cost).hex()}|"
            f"{float(r.par).hex()}|{int(r.proven_optimal)}|{r.nodes_explored}|{r.served_tier}"
            for r in records
        )
        expected = len(self.populations) * self.days
        if len(days) != expected:
            failures.append(f"expected {expected} days, got {len(days)}")
        return Rep(
            wall_s=client.latencies[-1],
            latencies_s=client.latencies,
            households=sum(n for n, _ in days),
            units=expected,
            digest=digest,
            failures=failures,
            facts={"days": len(days), "nodes": nodes, "proven": proven,
                   "root_certified": certified},
        )


class DayN100k:
    """Columnar days at n=100k, pre-sampled; one in-process call per day."""

    name = "day_n100k"
    rep_keyed = False

    def __init__(self, n, days, workers, workdir) -> None:
        self.n = n
        self.days = days

    def setup(self, seed: int):
        root = root_entropy(seed)
        generator = ProfileGenerator()
        days = []
        for day in range(self.days):
            py_rng, np_rng = make_day_rngs(root, day)
            profiles = generator.sample_population_columnar(np_rng, self.n)
            days.append((profiles.to_neighborhood("wide"), spawn_seed(py_rng)))
        return days

    def rep(self, inputs, rep: int, client: Client) -> Rep:
        failures: List[str] = []
        digests = []
        for day, (neighborhood, tie_seed) in enumerate(inputs):
            outcome = client.call(
                "run_day_columnar",
                lambda: serving_mechanism(tie_seed).run_day_columnar(neighborhood),
            )
            failures += check_columnar_day(outcome, f"day {day}")
            digests.append(settlement_digest(outcome))
            del outcome
        return Rep(
            wall_s=sum(client.latencies),
            latencies_s=client.latencies,
            households=self.n * len(inputs),
            units=len(inputs),
            digest=_sha(digests),
            failures=failures,
        )


class SimulateN200:
    """The object-path mechanism on fixed neighborhoods, many days each.

    A repetition simulates several neighborhoods, so its cost does not
    hinge on one population's windows.
    """

    name = "simulate_n200"
    rep_keyed = False

    def __init__(self, n, neighborhoods, days, workers, workdir) -> None:
        self.n = n
        self.neighborhoods = neighborhoods
        self.days = days
        self.workers = workers

    def setup(self, seed: int):
        generator = ProfileGenerator()
        root = root_entropy(seed)
        runs = []
        for index in range(self.neighborhoods):
            py_rng, np_rng = make_day_rngs(root, index)
            profiles = generator.sample_population(np_rng, self.n)
            sim_seed = spawn_seed(py_rng)
            runs.append((
                neighborhood_from_profiles(profiles, "wide"),
                NeighborhoodSimulation(EnkiMechanism(seed=sim_seed)),
                sim_seed,
            ))
        return runs

    def rep(self, inputs, rep: int, client: Client) -> Rep:
        failures: List[str] = []
        parts = []
        days = 0
        for index, (neighborhood, simulation, sim_seed) in enumerate(inputs):
            outcomes = client.call(
                "run", simulation.run, neighborhood, self.days,
                seed=sim_seed, workers=self.workers,
            )
            if len(outcomes) != self.days:
                failures.append(f"neighborhood {index}: {len(outcomes)} of {self.days} days")
            days += len(outcomes)
            ids = neighborhood.ids()
            for day, outcome in enumerate(outcomes):
                label = f"neighborhood {index} day {day}"
                settlement = outcome.settlement
                if not _budget_ok(sum(settlement.payments.values()), settlement.total_cost):
                    failures.append(f"{label}: budget not balanced")
                outside = stray = 0
                for hid, placed in outcome.allocation.items():
                    if not outcome.reports[hid].preference.admits(placed):
                        outside += 1
                    if not neighborhood[hid].true_preference.admits(outcome.consumption[hid]):
                        stray += 1
                if outside:
                    failures.append(f"{label}: {outside} allocations outside reported windows")
                if stray:
                    failures.append(f"{label}: {stray} consumptions outside true windows")
                parts.append(
                    ";".join(
                        f"{outcome.allocation[h].start},{outcome.consumption[h].start},"
                        f"{float(settlement.payments[h]).hex()}"
                        for h in ids
                    )
                )
        return Rep(
            wall_s=sum(client.latencies),
            latencies_s=client.latencies,
            households=self.n * days,
            units=self.neighborhoods * self.days,
            digest=_sha(parts),
            failures=failures,
        )


class _City:
    """Shared set-up and checks of the two city workloads."""

    name = ""
    rep_keyed = False

    def __init__(self, n, shards, workers, workdir, queue_capacity=64, chunk=4096) -> None:
        self.n = n
        self.shards = shards
        self.workers = workers
        self.queue_capacity = queue_capacity
        self.chunk = chunk
        self.journal_path = os.path.join(workdir, f"journal-{self.name}.jsonl")

    def setup(self, seed: int):
        root = root_entropy(seed)
        generator = ProfileGenerator()
        shards = []
        for index, size in enumerate(shard_sizes(self.n, self.shards)):
            neighborhood, shard_seed = sample_shard(root, index, size, generator)
            shards.append((neighborhood, shard_seed, neighborhood.truthful_wire()))
        return {"seed": seed, "root": root, "shards": shards}

    def _service(self, inputs) -> ShardService:
        journal = CheckpointStore(self.journal_path, fresh=True)
        return ShardService(
            mechanism=serving_mechanism(seed=inputs["seed"]),
            workers=self.workers,
            queue_capacity=self.queue_capacity,
            journal=journal,
            journal_meta={"root": inputs["root"], "n": self.n, "shards": self.shards},
        )

    def _finish(self, inputs, result, started: float, client: Client,
                failures: List[str], signals: Dict[str, float]) -> Rep:
        wall = perf_counter() - started
        if result.settled != self.shards:
            failures.append(f"settled {result.settled} of {self.shards} shards")
        digests = []
        for index in range(self.shards):
            record = result.records.get(index)
            if record is None:
                failures.append(f"shard {index}: not settled")
                continue
            if not record.budget_balanced:
                failures.append(f"shard {index}: budget not balanced")
            if record.served_tier != 0 or record.degraded:
                failures.append(f"shard {index}: served at tier {record.served_tier}")
            if record.n_settled + record.n_quarantined != record.n_input:
                failures.append(f"shard {index}: rows do not add up")
            digests.append(record.digest)
        signals.update(
            overload_rejections=result.overload_rejections,
            pool_replacements=result.pool_replacements,
            degraded_shards=len(result.degraded),
            checkpoint_bytes=os.path.getsize(self.journal_path),
        )
        return Rep(
            wall_s=wall,
            latencies_s=client.latencies,
            households=result.n_households,
            units=self.shards,
            digest=_sha(digests),
            failures=failures,
            facts={"shard_digests": digests},
            signals=signals,
        )

    def oracle_checks(self, inputs, reps: List[Rep]) -> List[str]:
        """Settle the first and last shard inline and compare with the service.

        Windows and budget balance are recomputed from the inline arrays,
        and the inline digest must equal what the service journaled —
        which ties batch and stream settlements to one reference.
        """
        failures = []
        indices = sorted({0, self.shards - 1})
        for index in indices:
            neighborhood, shard_seed, (begin, end, duration) = inputs["shards"][index]
            outcome = serving_mechanism(seed=inputs["seed"]).run_day_columnar_raw(
                neighborhood, begin, end, duration, rng=random.Random(shard_seed)
            )
            failures += check_columnar_day(outcome, f"shard {index} (inline)")
            expected = settlement_digest(outcome)
            for number, rep in enumerate(reps):
                got = rep.facts["shard_digests"]
                if index >= len(got) or got[index] != expected:
                    failures.append(f"rep {number} shard {index}: digest differs from inline settlement")
        return failures


class CityBatch(_City):
    """Closed-loop client submitting whole shards, pumping on overload."""

    name = "city_n1m"

    def rep(self, inputs, rep: int, client: Client) -> Rep:
        failures: List[str] = []
        started = perf_counter()
        with self._service(inputs) as service:

            def submit(index, neighborhood, shard_seed, wire):
                begin, end, duration = wire
                while True:
                    try:
                        return service.submit_shard(
                            index, neighborhood, begin=begin, end=end,
                            duration=duration, seed=shard_seed,
                        )
                    except ServiceOverloadError:
                        service.pump(block=True)

            for index, (neighborhood, shard_seed, wire) in enumerate(inputs["shards"]):
                client.call("submit_shard", submit, index, neighborhood, shard_seed, wire)
            result = service.drain()
        return self._finish(inputs, result, started, client, failures, {})


class CityStream(_City):
    """Closed-loop client streaming interleaved, out-of-order report chunks."""

    name = "city_stream_n1m"

    def setup(self, seed: int):
        inputs = super().setup(seed)
        streams = []
        for index, (neighborhood, _, (begin, end, duration)) in enumerate(inputs["shards"]):
            order = stream_arrival_order(inputs["root"], index, len(neighborhood))
            streams.append((np.asarray(neighborhood.ids), begin, end, duration, order))
        # Deal chunks round-robin across shards, each in its own shuffled
        # arrival order — the interleaving ``serve_city(stream=True)`` uses.
        chunks = []
        cursors = [0] * len(streams)
        live = list(range(len(streams)))
        while live:
            still = []
            for k in live:
                ids, begin, end, duration, order = streams[k]
                rows = order[cursors[k]:cursors[k] + self.chunk]
                cursors[k] += rows.shape[0]
                chunks.append(ReportChunk(
                    ids=ids[rows], begin=begin[rows], end=end[rows], duration=duration[rows]
                ))
                if cursors[k] < order.shape[0]:
                    still.append(k)
            live = still
        inputs["chunks"] = chunks
        return inputs

    def rep(self, inputs, rep: int, client: Client) -> Rep:
        failures: List[str] = []
        started = perf_counter()
        with self._service(inputs) as service:
            for index, (neighborhood, shard_seed, _) in enumerate(inputs["shards"]):
                service.register_stream_shard(
                    index, neighborhood, seed=shard_seed, assume_canonical_ids=True
                )

            def submit(chunk):
                while True:
                    try:
                        return service.submit_reports(chunk)
                    except ServiceOverloadError:
                        service.pump(block=True)

            for chunk in inputs["chunks"]:
                client.call("submit_reports", submit, chunk)
            incomplete = service.finish_streams()
            result = service.drain()
            stats = service.stream_stats
        if incomplete:
            failures.append(f"streams left incomplete: {list(incomplete)}")
        odd = stats.late_rows + stats.duplicates + stats.unknown_rejected
        if odd:
            failures.append(f"{odd} streamed rows late, duplicated or unknown")
        return self._finish(inputs, result, started, client, failures,
                            {"rows_late_or_dup": stats.late_rows + stats.duplicates})


_CLASSES = {cls.name: cls for cls in (PaperStudy, DayN100k, SimulateN200, CityBatch, CityStream)}

#: Workload names in benchmark order.
NAMES = tuple(_CLASSES)


def make(name: str, scale: str, workers: int, workdir: str):
    """Instantiate workload ``name`` at ``scale`` ("full" or "smoke")."""
    return _CLASSES[name](workers=workers, workdir=workdir, **SCALES[scale][name])

