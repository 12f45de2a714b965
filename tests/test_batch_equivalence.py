"""Equivalence suite: the batched multi-day engine and the allocation cache.

The batched engine (``batch_days > 1``) and the digest-keyed
:class:`~repro.allocation.cache.AllocationCache` are pure replumbings of
the per-day columnar path: this module pins that a study or simulation
run batched, warm-cached, or both is **bit-identical** to the per-day
loop — records, settlements, quarantine decisions, checkpoint stores —
with only ``wall_time_s`` and the ``cache_hit`` provenance bit allowed
to differ.  Also pinned here: the digest layer's stability contract
(same problem content → same digest in the parent and in a spawned
interpreter, whatever the kernel backend name; one flipped rating bit →
a different digest) and the compile cache's hit-rate counters.
"""

import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.arrays import (
    compile_cache_stats,
    compile_problem,
    reset_compile_cache,
)
from repro.allocation.base import AllocationProblem
from repro.allocation.cache import AllocationCache, problem_digest
from repro.allocation.greedy import GreedyFlexibilityAllocator
from repro.allocation.optimal import BranchAndBoundAllocator
from repro.core.columnar import ColumnarDayBatch, ColumnarReports
from repro.core.mechanism import EnkiMechanism
from repro.pricing.quadratic import QuadraticPricing
from repro.robustness import ChaosInjector, ChaosPlan
from repro.robustness.quarantine import Quarantine
from repro.sim.engine import NeighborhoodSimulation, SocialWelfareStudy
from repro.sim.profiles import ProfileGenerator


def _record_key(records):
    """Everything in a study record except wall time and cache provenance."""
    return [
        (r.day, r.n_households, r.allocator, r.par, r.cost,
         r.proven_optimal, r.nodes_explored, r.served_tier)
        for r in records
    ]


def _outcome_key(outcomes):
    """Everything a simulation day decides, minus wall-clock time."""
    return [
        (
            o.allocation_starts.tolist(),
            o.consumption_starts.tolist(),
            o.settlement.ids,
            o.settlement.total_cost,
            o.settlement.payments.tolist(),
        )
        for o in outcomes
    ]


def _wide_neighborhood(n, seed):
    cols = ProfileGenerator().sample_population_columnar(
        np.random.default_rng(seed), n
    )
    return cols.to_neighborhood("wide")


# ------------------------------------------------------- batched study runs

class TestBatchedStudyEquivalence:
    @given(
        n=st.integers(min_value=1, max_value=200),
        days=st.integers(min_value=1, max_value=16),
        batch_days=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_batched_matches_per_day(self, n, days, batch_days, seed):
        study = SocialWelfareStudy(
            [GreedyFlexibilityAllocator()], columnar=True
        )
        per_day = study.run(n, days, seed=seed, workers=1)
        batched = study.run(
            n, days, seed=seed, workers=1, batch_days=batch_days
        )
        assert _record_key(per_day) == _record_key(batched)

    def test_batched_with_quarantine_matches_per_day(self):
        study = SocialWelfareStudy(
            [GreedyFlexibilityAllocator()],
            quarantine=Quarantine("clamp"),
            columnar=True,
        )
        per_day = study.run(40, 6, seed=11, workers=1)
        batched = study.run(40, 6, seed=11, workers=1, batch_days=3)
        assert _record_key(per_day) == _record_key(batched)

    def test_batched_with_exact_solver_matches_per_day(self):
        study = SocialWelfareStudy(
            [GreedyFlexibilityAllocator(),
             BranchAndBoundAllocator(time_limit_s=None, seed=1)],
            columnar=True,
        )
        per_day = study.run(10, 4, seed=3, workers=1)
        batched = study.run(10, 4, seed=3, workers=1, batch_days=4)
        assert _record_key(per_day) == _record_key(batched)

    def test_batched_workers_match_serial(self):
        study = SocialWelfareStudy(
            [GreedyFlexibilityAllocator()], columnar=True
        )
        serial = study.run(30, 8, seed=17, workers=1, batch_days=3)
        fanned = study.run(30, 8, seed=17, workers=4, batch_days=3)
        assert _record_key(serial) == _record_key(fanned)

    def test_batched_checkpoint_matches_per_day(self, tmp_path):
        from repro.robustness.checkpoint import CheckpointStore

        study = SocialWelfareStudy(
            [GreedyFlexibilityAllocator()], columnar=True
        )
        per_day = study.run(
            25, 5, seed=7,
            checkpoint=CheckpointStore(str(tmp_path / "per_day.jsonl")),
        )
        store = str(tmp_path / "batched.jsonl")
        batched = study.run(
            25, 5, seed=7, checkpoint=CheckpointStore(store), batch_days=5
        )
        assert _record_key(per_day) == _record_key(batched)
        # A rerun over the same store replays every checkpointed day.
        resumed = study.run(
            25, 5, seed=7, checkpoint=CheckpointStore(store), batch_days=5
        )
        assert _record_key(resumed) == _record_key(per_day)

    def test_batch_days_validation(self):
        columnar = SocialWelfareStudy(
            [GreedyFlexibilityAllocator()], columnar=True
        )
        with pytest.raises(ValueError, match=">= 1"):
            columnar.run(10, 2, seed=1, batch_days=0)
        object_path = SocialWelfareStudy([GreedyFlexibilityAllocator()])
        with pytest.raises(ValueError, match="columnar"):
            object_path.run(10, 2, seed=1, batch_days=4)


@pytest.mark.chaos
class TestBatchedChaos:
    """Crash days become singleton chunks and recover bit-identically."""

    def test_crash_days_recover_bit_identically(self, tmp_path):
        plan = ChaosPlan(root=55, crash_days=frozenset({2, 5}))
        injector = ChaosInjector(plan, fault_dir=str(tmp_path / "faults"))
        chaotic = SocialWelfareStudy(
            [GreedyFlexibilityAllocator()], columnar=True, chaos=injector
        ).run(15, 8, seed=41, workers=4, batch_days=4)
        clean = SocialWelfareStudy(
            [GreedyFlexibilityAllocator()], columnar=True
        ).run(15, 8, seed=41, workers=1)
        assert _record_key(chaotic) == _record_key(clean)


# -------------------------------------------------- batched simulation runs

class TestBatchedSimulationEquivalence:
    def test_batched_matches_per_day(self):
        neighborhood = _wide_neighborhood(30, seed=5)
        simulation = NeighborhoodSimulation(EnkiMechanism(seed=2), columnar=True)
        per_day = simulation.run(neighborhood, days=7, seed=13, workers=1)
        batched = simulation.run(
            neighborhood, days=7, seed=13, workers=1, batch_days=3
        )
        assert _outcome_key(per_day) == _outcome_key(batched)

    def test_run_days_columnar_matches_loop(self):
        neighborhood = _wide_neighborhood(25, seed=8)
        mechanism = EnkiMechanism(seed=4)
        rngs = [random.Random(1000 + day) for day in range(5)]
        batched = mechanism.run_days_columnar(neighborhood, rngs)
        per_day = [
            mechanism.run_day_columnar(neighborhood, rng=random.Random(1000 + day))
            for day in range(5)
        ]
        assert _outcome_key(per_day) == _outcome_key(batched)


# ------------------------------------------------------ batched quarantine

class TestBatchedScreen:
    def test_screen_batch_matches_per_day_with_malformed_rows(self):
        neighborhoods = [_wide_neighborhood(12, seed=s) for s in (1, 2, 3)]
        batch = ColumnarDayBatch.from_neighborhoods(neighborhoods)
        begin = batch.true_start.astype(float)
        end = batch.true_end.astype(float)
        duration = batch.duration.astype(float)
        # Corrupt one row in each day, three distinct ways.
        begin[2] = -4.0
        end[batch.day_slice(1)][3] = float("nan")
        duration[batch.day_slice(2).start + 5] += 1.0
        quarantine = Quarantine("clamp")
        batched = quarantine.screen_columnar_batch(batch, begin, end, duration)
        assert len(batched) == 3
        for k, neighborhood in enumerate(neighborhoods):
            sl = batch.day_slice(k)
            single = quarantine.screen_columnar(
                neighborhood, begin[sl], end[sl], duration[sl]
            )
            one = batched[k]
            assert np.array_equal(one.kept, single.kept)
            assert one.excluded == single.excluded
            assert [
                (d.household_id, d.action, d.reason) for d in one.decisions
            ] == [
                (d.household_id, d.action, d.reason) for d in single.decisions
            ]
            assert one.accepted.ids == single.accepted.ids
            assert np.array_equal(one.accepted.start, single.accepted.start)
            assert np.array_equal(one.accepted.end, single.accepted.end)


# ------------------------------------------------------- allocation cache

class TestAllocationCache:
    def test_warm_study_replay_is_bit_identical(self):
        cache = AllocationCache()
        study = SocialWelfareStudy(
            [GreedyFlexibilityAllocator(),
             BranchAndBoundAllocator(time_limit_s=None, seed=1)],
            columnar=True,
        )
        cold = study.run(12, 4, seed=9, alloc_cache=cache, batch_days=4)
        warm = study.run(12, 4, seed=9, alloc_cache=cache, batch_days=4)
        assert _record_key(cold) == _record_key(warm)
        assert all(not r.cache_hit for r in cold)
        # With no time limit every B&B day proves, so every warm solve
        # (greedy and exact) replays from the cache.
        assert all(r.cache_hit for r in warm)
        assert cache.stats()["hits"] == len(warm)

    def test_warm_run_matches_uncached_run(self):
        cache = AllocationCache()
        study = SocialWelfareStudy(
            [GreedyFlexibilityAllocator()], columnar=True
        )
        plain = study.run(20, 3, seed=21)
        study.run(20, 3, seed=21, alloc_cache=cache)
        warm = study.run(20, 3, seed=21, alloc_cache=cache)
        assert _record_key(plain) == _record_key(warm)

    def test_different_seed_never_false_hits(self):
        cache = AllocationCache()
        study = SocialWelfareStudy(
            [GreedyFlexibilityAllocator()], columnar=True
        )
        study.run(20, 3, seed=21, alloc_cache=cache)
        study.run(20, 3, seed=22, alloc_cache=cache)
        assert cache.stats()["hits"] == 0

    def test_disk_store_shares_across_instances(self, tmp_path):
        study = SocialWelfareStudy(
            [GreedyFlexibilityAllocator()], columnar=True
        )
        first = AllocationCache(directory=str(tmp_path / "store"))
        cold = study.run(15, 3, seed=33, alloc_cache=first)
        second = AllocationCache(directory=str(tmp_path / "store"))
        warm = study.run(15, 3, seed=33, alloc_cache=second)
        assert _record_key(cold) == _record_key(warm)
        assert second.stats()["hits"] > 0
        assert second.stats()["misses"] == 0

    def test_unproven_bnb_results_are_not_cached(self):
        cache = AllocationCache()
        allocator = BranchAndBoundAllocator(time_limit_s=1e-6, seed=1)
        neighborhood = _wide_neighborhood(40, seed=2)
        pricing = QuadraticPricing()
        compiled = ColumnarReports.truthful(neighborhood).compile(
            neighborhood, pricing
        )
        result = cache.solve_columnar(
            allocator, compiled, pricing, random.Random(0)
        )
        assert not result.proven_optimal
        assert cache.stats()["stored"] == 0
        again = cache.solve_columnar(
            allocator, compiled, pricing, random.Random(0)
        )
        assert not again.cache_hit


# --------------------------------------------------------- digest stability

def _digest_for(seed=123, n=40):
    neighborhood = _wide_neighborhood(n, seed=seed)
    pricing = QuadraticPricing()
    compiled = ColumnarReports.truthful(neighborhood).compile(
        neighborhood, pricing
    )
    return compiled, problem_digest(compiled)


_CHILD_DIGEST_SCRIPT = """
import numpy as np
from repro.allocation.cache import problem_digest
from repro.core.columnar import ColumnarReports
from repro.pricing.quadratic import QuadraticPricing
from repro.sim.profiles import ProfileGenerator

cols = ProfileGenerator().sample_population_columnar(
    np.random.default_rng(123), 40
)
neighborhood = cols.to_neighborhood("wide")
compiled = ColumnarReports.truthful(neighborhood).compile(
    neighborhood, QuadraticPricing()
)
print(problem_digest(compiled))
"""


class TestDigestStability:
    def test_same_content_same_digest(self):
        _, a = _digest_for()
        _, b = _digest_for()
        assert a == b

    def test_digest_survives_pickle_round_trip(self):
        import pickle

        compiled, digest = _digest_for()
        clone = pickle.loads(pickle.dumps(compiled))
        assert problem_digest(clone) == digest

    def test_fresh_interpreter_same_digest(self):
        """A spawned worker keys the same problem identically."""
        _, parent = _digest_for()
        child = subprocess.run(
            [sys.executable, "-c", _CHILD_DIGEST_SCRIPT],
            capture_output=True, text=True, check=True,
        )
        assert child.stdout.strip() == parent

    def test_digest_is_backend_independent(self, monkeypatch):
        """The digest reads instance content only, never the backend name."""
        import repro.kernels

        compiled, digest = _digest_for()
        monkeypatch.setattr(repro.kernels, "active_backend", lambda: "other")
        assert problem_digest(compiled) == digest

    def test_one_rating_bit_flip_changes_digest(self):
        compiled, digest = _digest_for()
        rating = compiled.rating.copy()
        rating[0] = np.nextafter(rating[0], np.inf)
        from repro.allocation.arrays import CompiledProblem

        flipped = CompiledProblem.from_arrays(
            compiled.ids,
            compiled.win_start,
            compiled.win_end,
            compiled.duration,
            rating,
            QuadraticPricing(),
        )
        assert problem_digest(flipped) != digest

    def test_full_key_separates_backends_and_rngs(self, monkeypatch):
        import repro.allocation.cache as cache_mod

        compiled, _ = _digest_for()
        cache = AllocationCache()
        allocator = GreedyFlexibilityAllocator()
        key_a = cache.key_for(allocator, compiled, random.Random(0))
        key_b = cache.key_for(allocator, compiled, random.Random(1))
        assert key_a != key_b
        assert "-python-" in key_a
        monkeypatch.setattr(cache_mod, "active_backend", lambda: "other")
        assert cache.key_for(allocator, compiled, random.Random(0)) != key_a


# ----------------------------------------------------- compile cache stats

class TestCompileCacheStats:
    def test_exact_solver_warm_start_hits_the_problem_cache(self):
        """One lowering per problem object, shared by every solver on it."""
        reset_compile_cache()
        neighborhood = _wide_neighborhood(8, seed=6).to_objects()
        from repro.core.mechanism import truthful_reports

        problem = AllocationProblem.from_reports(
            truthful_reports(neighborhood), neighborhood.households, QuadraticPricing()
        )
        compiled = compile_problem(problem)
        assert compile_problem(problem) is compiled
        # The exact solver's warm start (greedy, then hill climbing) reads
        # the same view instead of lowering the items again.
        BranchAndBoundAllocator(time_limit_s=None, node_limit=50).solve(
            problem, random.Random(0)
        )
        stats = compile_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] >= 3
        # A rebuilt problem is a new object: it lowers once more.
        rebuilt = AllocationProblem.from_reports(
            truthful_reports(neighborhood), neighborhood.households, QuadraticPricing()
        )
        compile_problem(rebuilt)
        assert compile_cache_stats()["misses"] == 2
        reset_compile_cache()
        assert compile_cache_stats() == {"hits": 0, "misses": 0}
