"""Equivalence suite: the digest-keyed allocation cache.

The :class:`~repro.allocation.cache.AllocationCache` is a pure
replumbing of the per-day columnar study: this module pins that a study
run warm-cached is **bit-identical** to the uncached run, with only
``wall_time_s`` and the ``cache_hit`` provenance bit allowed to differ.
Also pinned here: the digest layer's stability contract (same problem
content → same digest in the parent and in a spawned interpreter,
whatever the kernel backend name; one flipped rating bit → a different
digest) and the compile cache's hit-rate counters.
"""

import random
import subprocess
import sys

import numpy as np

from repro.allocation.arrays import (
    compile_cache_stats,
    compile_problem,
    reset_compile_cache,
)
from repro.allocation.base import AllocationProblem
from repro.allocation.cache import AllocationCache, problem_digest
from repro.allocation.greedy import GreedyFlexibilityAllocator
from repro.allocation.optimal import BranchAndBoundAllocator
from repro.core.columnar import ColumnarReports
from repro.pricing.quadratic import QuadraticPricing
from repro.sim.engine import SocialWelfareStudy
from repro.sim.profiles import ProfileGenerator


def _record_key(records):
    """Everything in a study record except wall time and cache provenance."""
    return [
        (r.day, r.n_households, r.allocator, r.par, r.cost,
         r.proven_optimal, r.nodes_explored, r.served_tier)
        for r in records
    ]


def _wide_neighborhood(n, seed):
    cols = ProfileGenerator().sample_population_columnar(
        np.random.default_rng(seed), n
    )
    return cols.to_neighborhood("wide")


# ------------------------------------------------------- allocation cache

class TestAllocationCache:
    def test_warm_study_replay_is_bit_identical(self):
        cache = AllocationCache()
        study = SocialWelfareStudy(
            [GreedyFlexibilityAllocator(),
             BranchAndBoundAllocator(time_limit_s=None, seed=1)],
            columnar=True,
        )
        cold = study.run(12, 4, seed=9, alloc_cache=cache)
        warm = study.run(12, 4, seed=9, alloc_cache=cache)
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
