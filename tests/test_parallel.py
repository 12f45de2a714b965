"""Determinism regressions for the parallel simulation runtime.

Four guarantees are pinned here:

* seeded runs are reproducible — the same seed twice yields identical
  records;
* parallel runs (``workers=4``) are record-for-record identical to serial
  runs (``workers=1``) at the same seed, for both engines.  Instances are
  sized so branch-and-bound always proves optimality within its budget —
  a *deadline-cut* anytime search is wall-clock dependent by design and
  belongs in the benchmarks, not here;
* an object simulation day leaves a worker as arrays, not as pickled
  ``Report``/``Interval``/``DayOutcome`` graphs;
* the worker-resolution helpers behave as documented.

Wall times are excluded from every comparison: they legitimately vary
between runs and carry no scheduling information.
"""

import io
import os
import pickle
import time

import numpy as np
import pytest

from repro.allocation.greedy import GreedyFlexibilityAllocator
from repro.allocation.optimal import BranchAndBoundAllocator
from repro.core.mechanism import EnkiMechanism
from repro.io.audit import AuditLog
from repro.robustness import ChaosInjector, ChaosPlan
from repro.sim import parallel as parallel_mod
from repro.sim.engine import (
    NeighborhoodSimulation,
    SocialWelfareStudy,
    _run_simulation_day,
)
from repro.sim.parallel import available_cores, map_tasks, resolve_workers
from repro.sim.profiles import ProfileGenerator, neighborhood_from_profiles
from repro.sim.rng import make_day_rngs, root_entropy

from .outcome_assertions import assert_same_outcomes

SEED = 2017


def _study():
    return SocialWelfareStudy(
        allocators=[
            GreedyFlexibilityAllocator(),
            # Small enough (n=8) that the search always completes, so the
            # result is a pure function of (seed, day) — no anytime cutoff.
            BranchAndBoundAllocator(time_limit_s=60.0),
        ]
    )


def _study_key(records):
    return [
        (r.day, r.n_households, r.allocator, r.par, r.cost, r.proven_optimal,
         r.nodes_explored)
        for r in records
    ]


def _neighborhood(n=10, seed=3):
    generator = ProfileGenerator()
    profiles = generator.sample_population(np.random.default_rng(seed), n)
    return neighborhood_from_profiles(profiles, "wide")


class TestSameSeedReproducibility:
    def test_study_same_seed_twice_is_identical(self):
        study = _study()
        first = study.run(8, days=3, seed=SEED)
        second = study.run(8, days=3, seed=SEED)
        assert _study_key(first) == _study_key(second)
        assert all(r.proven_optimal for r in first if r.allocator != "enki-greedy")

    def test_simulation_same_seed_twice_is_identical(self):
        simulation = NeighborhoodSimulation(EnkiMechanism(seed=0))
        neighborhood = _neighborhood()
        first = simulation.run(neighborhood, days=3, seed=SEED)
        second = simulation.run(neighborhood, days=3, seed=SEED)
        assert_same_outcomes(first, second)

    def test_different_seeds_differ(self):
        study = _study()
        assert _study_key(study.run(8, days=2, seed=1)) != _study_key(
            study.run(8, days=2, seed=2)
        )


class TestParallelBitIdentity:
    def test_study_parallel_matches_serial(self):
        study = _study()
        serial = study.run(8, days=4, seed=SEED, workers=1)
        parallel = study.run(8, days=4, seed=SEED, workers=4)
        assert _study_key(serial) == _study_key(parallel)

    def test_study_sweep_parallel_matches_serial(self):
        study = SocialWelfareStudy(allocators=[GreedyFlexibilityAllocator()])
        serial = study.sweep((6, 10), days=2, seed=SEED, workers=1)
        parallel = study.sweep((6, 10), days=2, seed=SEED, workers=4)
        assert _study_key(serial) == _study_key(parallel)

    def test_simulation_parallel_matches_serial(self):
        simulation = NeighborhoodSimulation(EnkiMechanism(seed=0))
        neighborhood = _neighborhood()
        serial = simulation.run(neighborhood, days=4, seed=SEED, workers=1)
        parallel = simulation.run(neighborhood, days=4, seed=SEED, workers=4)
        assert_same_outcomes(parallel, serial)

    def test_all_cores_sentinel_matches_serial(self):
        study = SocialWelfareStudy(allocators=[GreedyFlexibilityAllocator()])
        serial = study.run(8, days=3, seed=SEED, workers=1)
        all_cores = study.run(8, days=3, seed=SEED, workers=0)
        assert _study_key(serial) == _study_key(all_cores)


class TestDaySubstreams:
    def test_day_rngs_are_pure_functions_of_seed_and_day(self):
        rng_a, np_a = make_day_rngs(SEED, 5)
        rng_b, np_b = make_day_rngs(SEED, 5)
        assert rng_a.random() == rng_b.random()
        assert np_a.random() == np_b.random()

    def test_day_rngs_differ_across_days(self):
        rng_a, np_a = make_day_rngs(SEED, 0)
        rng_b, np_b = make_day_rngs(SEED, 1)
        assert rng_a.random() != rng_b.random()
        assert np_a.random() != np_b.random()


class _RecordingUnpickler(pickle.Unpickler):
    """Loads a pickle and records the name of every class it resolves."""

    def __init__(self, data):
        super().__init__(io.BytesIO(data))
        self.resolved = set()

    def find_class(self, module, name):
        self.resolved.add(name)
        return super().find_class(module, name)


class TestObjectDayWire:
    def test_object_day_crosses_as_arrays(self):
        """A worker's object day pickles as columns, not as object graphs."""
        neighborhood = _neighborhood(n=200)
        simulation = NeighborhoodSimulation(EnkiMechanism(seed=0))
        value = _run_simulation_day(
            simulation, neighborhood, (root_entropy(SEED), 0)
        )
        wire = pickle.dumps(value)
        loader = _RecordingUnpickler(wire)
        loader.load()
        assert not loader.resolved & {
            "Report", "Preference", "Interval", "HouseholdType", "DayOutcome"
        }
        (outcome,) = simulation.run(neighborhood, days=1, seed=SEED)
        assert len(wire) < len(pickle.dumps(outcome))


def _double(x):
    return 2 * x


class _PickleCountingDouble:
    """Doubles its payload and counts how often it is pickled."""

    def __init__(self):
        self.reductions = 0

    def __call__(self, x):
        return 2 * x

    def __reduce__(self):
        self.reductions += 1
        return (_PickleCountingDouble, ())


class TestWorkerPlumbing:
    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) == available_cores()
        assert resolve_workers(-1) == available_cores()

    def test_resolve_workers_warns_on_oversubscription(self, caplog):
        cores = available_cores()
        with caplog.at_level("WARNING", logger="repro.sim.parallel"):
            assert resolve_workers(cores + 3) == cores + 3
        assert any(
            "exceeds" in record.getMessage() for record in caplog.records
        ), "oversubscribed workers should log a one-line warning"

    def test_resolve_workers_silent_within_core_count(self, caplog):
        with caplog.at_level("WARNING", logger="repro.sim.parallel"):
            resolve_workers(1)
            resolve_workers(available_cores())
        assert not caplog.records

    def test_map_tasks_preserves_order(self):
        payloads = list(range(12))
        assert map_tasks(_double, payloads, workers=1) == [2 * x for x in payloads]
        assert map_tasks(_double, payloads, workers=3) == [2 * x for x in payloads]

    def test_worker_function_crosses_once_per_worker(self):
        # Sixteen payloads at two workers make eight chunks; the function
        # must not travel with each of them.
        fn = _PickleCountingDouble()
        payloads = list(range(16))
        assert map_tasks(fn, payloads, workers=2) == [2 * x for x in payloads]
        assert fn.reductions <= 2

    def test_map_tasks_empty(self):
        assert map_tasks(_double, [], workers=4) == []

    def test_engine_rejects_zero_days(self):
        with pytest.raises(ValueError):
            _study().run(8, days=0, seed=SEED)

    def test_single_visible_core_warns_once(self, caplog, monkeypatch):
        monkeypatch.setattr(parallel_mod, "available_cores", lambda: 1)
        monkeypatch.setattr(parallel_mod, "_single_core_warned", False)
        with caplog.at_level("WARNING", logger="repro.sim.parallel"):
            resolve_workers(4)
            resolve_workers(4)
        single_core = [
            record
            for record in caplog.records
            if "only one core is visible" in record.getMessage()
        ]
        assert len(single_core) == 1, "single-core hint must log exactly once"


def _columnar_neighborhood(n=40, seed=11):
    cols = ProfileGenerator().sample_population_columnar(
        np.random.default_rng(seed), n
    )
    return cols.to_neighborhood("wide")


def _columnar_outcome_key(outcomes):
    """Everything a ColumnarDayOutcome decides, minus wall-clock time."""
    return [
        (
            o.allocation_starts.tolist(),
            o.consumption_starts.tolist(),
            o.kept.tolist(),
            o.settlement.ids,
            o.settlement.total_cost,
            o.settlement.payments.tolist(),
            o.settlement.valuations.tolist(),
        )
        for o in outcomes
    ]


class TestSharedMemoryTransport:
    """A columnar run fanned out to workers must be invisible in the results."""

    def test_shm_workers4_bit_identical_and_leak_free(self):
        neighborhood = _columnar_neighborhood()
        simulation = NeighborhoodSimulation(EnkiMechanism(seed=0), columnar=True)
        serial = simulation.run(neighborhood, days=4, seed=SEED, workers=1)
        fanned = simulation.run(neighborhood, days=4, seed=SEED, workers=4)
        assert _columnar_outcome_key(serial) == _columnar_outcome_key(fanned)

    def test_auto_transport_uses_shm_for_parallel_columnar(self):
        # Columnar days cross to workers as pickled arrays; a two-worker
        # fan-out of a small population must match the serial run.
        neighborhood = _columnar_neighborhood(n=20)
        simulation = NeighborhoodSimulation(EnkiMechanism(seed=0), columnar=True)
        serial = simulation.run(neighborhood, days=2, seed=SEED, workers=1)
        fanned = simulation.run(neighborhood, days=2, seed=SEED, workers=2)
        assert len(fanned) == 2
        assert _columnar_outcome_key(serial) == _columnar_outcome_key(fanned)


# ----------------------------------------------------- retry backoff pacing

_PARENT_PID = os.getpid()


def _triples_in_parent_only(value):
    """Hangs forever in pool workers, succeeds inline in the parent."""
    if os.getpid() != _PARENT_PID:
        time.sleep(60.0)
    return value * 3


def _raises_in_children(value):
    """Deterministically fails in pool workers, succeeds in the parent."""
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("child-only fault")
    return value * 3


class TestBackoffDelay:
    def test_zero_jitter_is_bare_exponential(self):
        base = 0.05
        for attempt in range(1, 6):
            expected = base * 2 ** (attempt - 1)
            assert parallel_mod.backoff_delay(attempt, base, jitter=0.0) == expected

    def test_jitter_stretches_within_bounds(self):
        base, jitter = 0.05, 0.5
        for attempt in (1, 2, 3):
            floor = base * 2 ** (attempt - 1)
            draws = [
                parallel_mod.backoff_delay(attempt, base, jitter)
                for _ in range(200)
            ]
            assert all(floor <= d <= floor * (1.0 + jitter) for d in draws)
            # 200 draws from a uniform stretch collapsing to one value
            # would mean the jitter is not actually applied.
            assert len(set(draws)) > 1

    def test_knobs_validated(self):
        with pytest.raises(ValueError):
            parallel_mod.backoff_delay(0)
        with pytest.raises(ValueError):
            parallel_mod.backoff_delay(1, jitter=-0.1)
        with pytest.raises(ValueError):
            map_tasks(_triples_in_parent_only, [1], jitter=-0.1)


class TestStallAndInlineRerun:
    def test_stall_detector_kills_and_recovers_inline(self):
        # Workers hang forever: with the stall detector armed and no
        # retries, the pool is killed and every payload re-runs inline in
        # the parent — the batch still completes with the right values.
        failures = []
        result = map_tasks(
            _triples_in_parent_only,
            [1, 2],
            workers=2,
            timeout_s=0.5,
            retries=0,
            backoff_s=0.0,
            jitter=0.0,
            on_failure=failures.append,
        )
        assert result == [3, 6]
        assert failures and all("stalled" in f.cause for f in failures)

    def test_deterministic_child_failure_reruns_inline(self):
        # A payload that fails on *every* pool attempt exhausts its
        # retries and is recomputed inline — same semantics as serial.
        failures = []
        result = map_tasks(
            _raises_in_children,
            [4, 5],
            workers=2,
            retries=1,
            backoff_s=0.0,
            jitter=0.0,
            on_failure=failures.append,
        )
        assert result == [12, 15]
        assert sorted(f.attempt for f in failures) == [1, 1, 2, 2]
        assert all("child-only fault" in f.cause for f in failures)


def _counted_square(task):
    """Squares ``index``, counting calls per payload; payload ``fuse`` raises once."""
    directory, index, fuse = task
    with open(os.path.join(directory, f"calls-{index}"), "a") as handle:
        handle.write(".")
    if index == fuse:
        try:
            fd = os.open(
                os.path.join(directory, "fuse"), os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            pass
        else:
            os.close(fd)
            raise RuntimeError(f"fuse blown on payload {index}")
    return index * index


def _sleepy(value):
    time.sleep(0.4)
    return value


def _hangs_once(task):
    """Hangs the first time payload ``index`` runs if it is in ``hang``."""
    directory, index, hang = task
    if index in hang:
        try:
            fd = os.open(
                os.path.join(directory, f"fuse-{index}"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            pass
        else:
            os.close(fd)
            time.sleep(60.0)
    return index * index


class TestChunkedFanOut:
    """40 payloads on 2 workers travel as 8 chunks of 5 payloads each."""

    def test_longer_chunks_go_first(self):
        # 12 days on 2 workers: four chunks of 2, then four of 1, so equal
        # days leave each worker 6.
        assert parallel_mod._chunks(12, 8) == [
            (0, 1), (2, 3), (4, 5), (6, 7), (8,), (9,), (10,), (11,)
        ]
        assert parallel_mod._chunks(40, 8) == [
            tuple(range(5 * c, 5 * c + 5)) for c in range(8)
        ]
        for n in range(1, 50):
            for n_chunks in range(1, n + 1):
                chunks = parallel_mod._chunks(n, n_chunks)
                lengths = [len(chunk) for chunk in chunks]
                assert [i for chunk in chunks for i in chunk] == list(range(n))
                assert lengths == sorted(lengths, reverse=True)
                assert lengths[0] - lengths[-1] <= 1

    def test_chunks_keep_order_and_stream_each_payload_once(self, tmp_path):
        tasks = [(str(tmp_path), i, None) for i in range(40)]
        seen = []
        out = map_tasks(
            _counted_square, tasks, workers=2,
            on_result=lambda i, v: seen.append((i, v)),
        )
        assert out == [i * i for i in range(40)]
        assert sorted(seen) == [(i, i * i) for i in range(40)]

    def test_failure_mid_chunk_names_its_payload_and_spares_the_rest(
        self, tmp_path
    ):
        # Payload 17 sits in the middle of the chunk holding payloads 15-19.
        tasks = [(str(tmp_path), i, 17) for i in range(40)]
        failures = []
        out = map_tasks(
            _counted_square, tasks, workers=2, backoff_s=0.0,
            on_failure=failures.append,
        )
        assert out == [i * i for i in range(40)]
        assert [(f.index, f.attempt) for f in failures] == [(17, 1)]
        assert "fuse blown on payload 17" in failures[0].cause
        calls = {i: len((tmp_path / f"calls-{i}").read_text()) for i in range(40)}
        assert calls == {i: 2 if i == 17 else 1 for i in range(40)}

    def test_stall_window_scales_with_chunk_length(self):
        # 16 payloads on 2 workers make chunks of 2.  A chunk takes 0.8 s,
        # longer than timeout_s but inside the 2 x 0.5 s window it earns.
        failures = []
        out = map_tasks(
            _sleepy, list(range(16)), workers=2, timeout_s=0.5,
            on_failure=failures.append,
        )
        assert out == list(range(16))
        assert failures == []

    def test_stall_charges_only_the_stalled_chunks(self, tmp_path):
        # 16 payloads on 2 workers make chunks of 2.  Payloads 0 and 2 hang
        # the chunks [0, 1] and [2, 3]; the six chunks queued behind them
        # never started, so they go again without a charge.
        tasks = [(str(tmp_path), i, (0, 2)) for i in range(16)]
        failures = []
        out = map_tasks(
            _hangs_once, tasks, workers=2, timeout_s=0.5, backoff_s=0.0,
            on_failure=failures.append,
        )
        assert out == [i * i for i in range(16)]
        assert sorted((f.index, f.attempt) for f in failures) == [
            (0, 1), (1, 1), (2, 1), (3, 1)
        ]
        assert all("stalled" in f.cause for f in failures)


@pytest.mark.chaos
class TestChunkedChaos:
    """Crashes inside multi-day chunks of an object-path simulation."""

    DAYS = 40

    def _run(self, tmp_path, kill, audit=None):
        plan = ChaosPlan(root=5, crash_days=frozenset({13, 27}))
        injector = ChaosInjector(
            plan, fault_dir=str(tmp_path / "faults"), kill=kill
        )
        simulation = NeighborhoodSimulation(EnkiMechanism(seed=0), chaos=injector)
        return simulation.run(
            _neighborhood(), days=self.DAYS, seed=SEED, workers=2, audit=audit
        )

    def test_crash_is_attributed_to_its_day(self, tmp_path):
        audit = AuditLog(str(tmp_path / "audit.jsonl"))
        self._run(tmp_path, kill=False, audit=audit)
        crashes = list(audit.events(kind="worker_failure"))
        assert sorted(e.day for e in crashes) == [13, 27]

    def test_killed_chunk_recovers_to_the_serial_outcomes(self, tmp_path):
        chaotic = self._run(tmp_path, kill=True)
        clean = NeighborhoodSimulation(EnkiMechanism(seed=0)).run(
            _neighborhood(), days=self.DAYS, seed=SEED
        )
        assert_same_outcomes(chaotic, clean)
