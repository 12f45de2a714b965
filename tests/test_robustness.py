"""Tests for the fault-tolerant mechanism pipeline.

Covers the robustness stack end to end: the error taxonomy, the report
quarantine (with hypothesis properties showing malformed reports never
escape and Theorem 1 survives every policy), the allocator fallback
chain, the hardened parallel runtime, day-level checkpoint/resume, and
the deterministic chaos harness (``-m chaos`` selects the fault-injection
acceptance tests).
"""

import math
import os
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.allocation.base import AllocationResult, Allocator
from repro.allocation.greedy import GreedyFlexibilityAllocator
from repro.core.intervals import HOURS_PER_DAY, Interval
from repro.core.mechanism import EnkiMechanism
from repro.core.types import Report
from repro.io.audit import AuditLog
from repro.robustness import (
    ChaosInjector,
    ChaosPlan,
    CheckpointError,
    CheckpointStore,
    FallbackAllocator,
    InvalidReportError,
    Quarantine,
    RawReport,
    ReproError,
    SolverBudgetError,
    WorkerFailure,
    day_key,
    exit_code_for,
    plan_faults,
    validate_raw_report,
)
from repro.robustness.errors import InfeasibleAllocationError
from repro.sim.engine import NeighborhoodSimulation, SocialWelfareStudy
from repro.sim.parallel import map_tasks, resolve_workers
from repro.sim.profiles import ProfileGenerator, neighborhood_from_profiles


def small_neighborhood(n=6, seed=0):
    profiles = ProfileGenerator().sample_population(np.random.default_rng(seed), n)
    return neighborhood_from_profiles(profiles, "wide")


def truthful(neighborhood):
    return {
        hh.household_id: Report(hh.household_id, hh.true_preference)
        for hh in neighborhood
    }


def study_key(records):
    """Record identity minus the inherently nondeterministic wall times."""
    return [
        (
            r.day,
            r.n_households,
            r.allocator,
            r.par,
            r.cost,
            r.proven_optimal,
            r.nodes_explored,
            r.served_tier,
        )
        for r in records
    ]


# ------------------------------------------------------------------- errors

class TestErrorTaxonomy:
    def test_distinct_exit_codes(self):
        codes = [
            ReproError.exit_code,
            InvalidReportError.exit_code,
            InfeasibleAllocationError.exit_code,
            SolverBudgetError.exit_code,
            WorkerFailure.exit_code,
            CheckpointError.exit_code,
        ]
        assert len(set(codes)) == len(codes)
        assert all(code >= 10 for code in codes)

    def test_exit_code_for(self):
        assert exit_code_for(InvalidReportError("hh0", "bad-duration")) == (
            InvalidReportError.exit_code
        )
        assert exit_code_for(ValueError("nope")) is None

    def test_invalid_report_carries_structure(self):
        exc = InvalidReportError("hh3", "inverted-window", "[9, 4)")
        assert exc.household_id == "hh3"
        assert exc.reason == "inverted-window"
        assert isinstance(exc, ReproError)


# --------------------------------------------------------------- quarantine

class TestQuarantine:
    def setup_method(self):
        self.neighborhood = small_neighborhood()
        self.reports = truthful(self.neighborhood)
        self.victim = sorted(self.reports)[0]
        self.household = self.neighborhood.households[self.victim]

    def test_clean_reports_pass_every_policy(self):
        for policy in ("reject", "clamp", "exclude"):
            result = Quarantine(policy).screen(self.neighborhood, self.reports)
            assert result.accepted == self.reports
            assert result.n_quarantined == 0

    def test_reject_raises_with_reason(self):
        self.reports[self.victim] = RawReport(
            self.victim, 20, 4, self.household.duration
        )
        with pytest.raises(InvalidReportError) as excinfo:
            Quarantine("reject").screen(self.neighborhood, self.reports)
        assert excinfo.value.reason == "inverted-window"

    def test_clamp_repairs_onto_grid(self):
        self.reports[self.victim] = RawReport(
            self.victim, -7, 90, self.household.duration
        )
        result = Quarantine("clamp").screen(self.neighborhood, self.reports)
        repaired = result.accepted[self.victim]
        window = repaired.preference.window
        assert 0 <= window.start < window.end <= HOURS_PER_DAY
        assert repaired.preference.duration == self.household.duration
        (decision,) = [d for d in result.decisions if d.action != "accepted"]
        assert decision.action == "clamped"
        assert decision.reason == "out-of-grid"
        assert decision.repaired is not None

    def test_clamp_nan_falls_back_to_true_window(self):
        self.reports[self.victim] = RawReport(self.victim, float("nan"), 24, 3)
        result = Quarantine("clamp").screen(self.neighborhood, self.reports)
        repaired = result.accepted[self.victim]
        assert repaired.preference.window == self.household.true_preference.window

    def test_exclude_drops_household(self):
        self.reports[self.victim] = RawReport(self.victim, 3, 9, 999)
        result = Quarantine("exclude").screen(self.neighborhood, self.reports)
        assert self.victim not in result.accepted
        assert result.excluded[self.victim] == "duration-mismatch"

    def test_unknown_household_never_clamped(self):
        self.reports["ghost"] = RawReport("ghost", 0, 24, 3)
        result = Quarantine("clamp").screen(self.neighborhood, self.reports)
        assert "ghost" not in result.accepted
        assert result.excluded["ghost"] == "unknown-household"

    def test_screen_is_idempotent(self):
        self.reports[self.victim] = RawReport(self.victim, 90, -7, 2)
        quarantine = Quarantine("clamp")
        once = quarantine.screen(self.neighborhood, self.reports)
        twice = quarantine.screen(self.neighborhood, once.accepted)
        assert twice.accepted == once.accepted
        assert twice.n_quarantined == 0

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            Quarantine("ignore")

    def test_decision_payload_is_json_safe(self):
        import json

        self.reports[self.victim] = RawReport(self.victim, float("nan"), None, 3)
        result = Quarantine("exclude").screen(self.neighborhood, self.reports)
        for decision in result.decisions:
            json.dumps(decision.as_payload(), allow_nan=False)


#: Arbitrary wire garbage for one field of a raw report.
garbage = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=5),
)


class TestQuarantineProperties:
    @given(begin=garbage, end=garbage, duration=garbage)
    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    def test_malformed_reports_never_escape(self, begin, end, duration):
        """Whatever arrives, everything accepted re-validates cleanly."""
        neighborhood = small_neighborhood(n=3)
        reports = truthful(neighborhood)
        victim = sorted(reports)[0]
        reports[victim] = RawReport(victim, begin, end, duration)
        for policy in ("clamp", "exclude"):
            result = Quarantine(policy).screen(neighborhood, reports)
            for hid, report in result.accepted.items():
                assert isinstance(report, Report)
                # Re-validation never raises: nothing malformed got through.
                validate_raw_report(
                    RawReport.from_report(report), neighborhood.households[hid]
                )
            if policy == "clamp":
                assert set(result.accepted) == set(reports)
        try:
            Quarantine("reject").screen(neighborhood, reports)
        except InvalidReportError as exc:
            assert exc.household_id == victim

    @given(begin=garbage, end=garbage, duration=garbage, policy=st.sampled_from(["clamp", "exclude"]))
    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    def test_budget_balance_survives_quarantine(self, begin, end, duration, policy):
        """Theorem 1 over the settled subset, whatever the screen decided."""
        neighborhood = small_neighborhood(n=4, seed=1)
        reports = truthful(neighborhood)
        victim = sorted(reports)[0]
        reports[victim] = RawReport(victim, begin, end, duration)
        mechanism = EnkiMechanism(quarantine=Quarantine(policy), seed=7)
        outcome = mechanism.run_day(neighborhood, reports)
        settlement = outcome.settlement
        assert math.isclose(
            sum(settlement.payments.values()),
            mechanism.xi * settlement.total_cost,
            rel_tol=1e-9,
            abs_tol=1e-9,
        )
        if policy == "exclude":
            assert set(settlement.payments) == set(outcome.allocation)


# ----------------------------------------------------------------- fallback

class RaisingAllocator(Allocator):
    name = "raising"

    def solve(self, problem, rng=None):
        raise RuntimeError("solver exploded")


class InfeasibleAllocator(Allocator):
    name = "infeasible"

    def solve(self, problem, rng=None):
        allocation = {
            item.household_id: Interval(0, item.duration) for item in problem.items
        }
        # Shift one block outside its window if possible to break feasibility.
        item = problem.items[0]
        bad_start = (item.window.start + 1) % HOURS_PER_DAY
        allocation[item.household_id] = Interval(bad_start, bad_start + item.duration + 1) \
            if bad_start + item.duration + 1 <= HOURS_PER_DAY else Interval(0, item.duration + 1)
        return AllocationResult(
            allocation=allocation,
            cost=0.0,
            wall_time_s=0.0,
            allocator_name=self.name,
        )


class TestFallbackAllocator:
    def setup_method(self):
        neighborhood = small_neighborhood(n=5, seed=2)
        from repro.allocation.base import AllocationProblem
        from repro.pricing.quadratic import QuadraticPricing

        self.problem = AllocationProblem.from_reports(
            truthful(neighborhood), neighborhood.households, QuadraticPricing()
        )

    def test_primary_serves_tier_zero(self):
        chain = FallbackAllocator([GreedyFlexibilityAllocator()])
        result = chain.solve(self.problem, random.Random(0))
        assert result.served_tier == 0
        assert result.fallback_trail[-1].status == "served"
        assert self.problem.is_feasible(result.allocation)

    def test_raising_tier_degrades_to_next(self):
        chain = FallbackAllocator([RaisingAllocator(), GreedyFlexibilityAllocator()])
        result = chain.solve(self.problem, random.Random(0))
        assert result.served_tier == 1
        assert [r.status for r in result.fallback_trail] == ["error", "served"]
        assert "solver exploded" in result.fallback_trail[0].detail

    def test_infeasible_tier_is_caught_post_solve(self):
        chain = FallbackAllocator(
            [InfeasibleAllocator(), GreedyFlexibilityAllocator()]
        )
        result = chain.solve(self.problem, random.Random(0))
        assert result.served_tier == 1
        assert result.fallback_trail[0].status == "infeasible"
        assert self.problem.is_feasible(result.allocation)

    def test_all_tiers_failing_raises_budget_error(self):
        chain = FallbackAllocator([RaisingAllocator(), InfeasibleAllocator()])
        with pytest.raises(SolverBudgetError):
            chain.solve(self.problem, random.Random(0))

    def test_budget_clamps_anytime_tiers(self):
        from repro.allocation.optimal import BranchAndBoundAllocator

        chain = FallbackAllocator(
            [BranchAndBoundAllocator(time_limit_s=500.0)], tier_budget_s=0.5
        )
        assert chain.tiers[0].time_limit_s == 0.5

    def test_default_chain_shape(self):
        chain = FallbackAllocator.default_chain(tier_budget_s=1.0, seed=3)
        assert [t.name for t in chain.tiers] == [
            "optimal-bnb",
            "enki-greedy",
            "random",
        ]
        result = chain.solve(self.problem, random.Random(0))
        assert result.served_tier == 0

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            FallbackAllocator([])

    def test_study_records_served_tier(self):
        study = SocialWelfareStudy(
            [FallbackAllocator([RaisingAllocator(), GreedyFlexibilityAllocator()])]
        )
        records = study.run(8, 2, seed=5)
        assert all(r.served_tier == 1 for r in records)


# ------------------------------------------------------------- parallel map

def _flaky_once(task):
    """Fails the first time per marker path, then succeeds (picklable)."""
    marker, value = task
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return value * 2
    os.close(fd)
    raise RuntimeError("transient fault")


def _always_fails(task):
    raise ValueError(f"payload {task} is cursed")


class TestHardenedMapTasks:
    def test_resolve_workers_rejects_below_minus_one(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)
        assert resolve_workers(-1) >= 1

    def test_serial_retry_recovers_transient_fault(self, tmp_path):
        tasks = [(str(tmp_path / f"m{i}"), i) for i in range(4)]
        failures = []
        out = map_tasks(
            _flaky_once, tasks, workers=1, backoff_s=0.0, on_failure=failures.append
        )
        assert out == [0, 2, 4, 6]
        assert len(failures) == 4
        assert all(isinstance(f, WorkerFailure) for f in failures)

    def test_serial_exhausted_retries_reraise(self):
        with pytest.raises(ValueError, match="cursed"):
            map_tasks(_always_fails, [1], workers=1, retries=1, backoff_s=0.0)

    def test_parallel_retry_recovers_transient_fault(self, tmp_path):
        tasks = [(str(tmp_path / f"m{i}"), i) for i in range(6)]
        failures = []
        out = map_tasks(
            _flaky_once, tasks, workers=2, backoff_s=0.0, on_failure=failures.append
        )
        assert out == [0, 2, 4, 6, 8, 10]
        assert failures

    def test_parallel_deterministic_exception_propagates(self):
        with pytest.raises(ValueError, match="cursed"):
            map_tasks(
                _always_fails, [1, 2, 3], workers=2, retries=1, backoff_s=0.0
            )

    def test_on_result_streams_every_payload_once(self, tmp_path):
        tasks = [(str(tmp_path / f"m{i}"), i) for i in range(5)]
        seen = {}
        map_tasks(
            _flaky_once,
            tasks,
            workers=2,
            backoff_s=0.0,
            on_result=lambda i, v: seen.__setitem__(i, v),
        )
        assert seen == {0: 0, 1: 2, 2: 4, 3: 6, 4: 8}

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            map_tasks(_always_fails, [], retries=-1)


# --------------------------------------------------------------- checkpoint

class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        store = CheckpointStore(path)
        store.append(day_key(0), {"x": 1})
        store.append(day_key(1, "n20-"), {"x": 2})
        reloaded = CheckpointStore(path)
        assert reloaded.completed() == {"day-0": {"x": 1}, "n20-day-1": {"x": 2}}
        assert "day-0" in reloaded
        assert len(reloaded) == 2

    def test_truncated_tail_is_dropped(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        store = CheckpointStore(path)
        store.append("day-0", {"x": 1})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "day-1", "payl')  # kill mid-write
        reloaded = CheckpointStore(path)
        assert set(reloaded.completed()) == {"day-0"}

    def test_torn_tail_is_physically_truncated(self, tmp_path):
        # Loading past a torn tail must also *repair* the file: a later
        # append lands on a clean line boundary instead of concatenating
        # onto the garbage half-line.
        path = str(tmp_path / "ck.jsonl")
        store = CheckpointStore(path)
        store.append("day-0", {"x": 1})
        clean_size = os.path.getsize(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "day-1", "payl')  # kill mid-append
        resumed = CheckpointStore(path)
        assert set(resumed.completed()) == {"day-0"}
        assert os.path.getsize(path) == clean_size  # tail removed on disk
        resumed.append("day-1", {"x": 2})
        replayed = CheckpointStore(path)
        assert replayed.completed() == {"day-0": {"x": 1}, "day-1": {"x": 2}}

    def test_midfile_corruption_is_not_forgiven(self, tmp_path):
        # A bad line with intact records after it cannot come from a kill
        # mid-append — that is real corruption and must raise, not be
        # silently skipped like a torn tail.
        path = str(tmp_path / "ck.jsonl")
        store = CheckpointStore(path)
        store.append("day-0", {"x": 1})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "day-1", "payl\n')
        CheckpointStore(path).append("day-2", {"x": 3})
        with pytest.raises(CheckpointError, match="not a torn tail"):
            CheckpointStore(path).completed()

    def test_malformed_record_raises(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"not-a-key": 1}\n')
        with pytest.raises(CheckpointError):
            CheckpointStore(path).completed()

    def test_fresh_discards_existing(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        CheckpointStore(path).append("day-0", {})
        assert len(CheckpointStore(path, fresh=True)) == 0

    def test_study_meta_guard_rejects_other_seed(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        study = SocialWelfareStudy([GreedyFlexibilityAllocator()])
        study.run(8, 2, seed=1, checkpoint=CheckpointStore(path, fresh=True))
        with pytest.raises(CheckpointError):
            study.run(8, 2, seed=2, checkpoint=CheckpointStore(path))

    def test_study_resume_replays_wall_times_exactly(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        study = SocialWelfareStudy([GreedyFlexibilityAllocator()])
        first = study.run(8, 3, seed=1, checkpoint=CheckpointStore(path, fresh=True))
        second = study.run(8, 3, seed=1, checkpoint=CheckpointStore(path))
        assert first == second  # wall_time_s included: replay is verbatim

    def test_simulation_resume_matches_uninterrupted(self, tmp_path):
        neighborhood = small_neighborhood(n=6, seed=3)
        sim = NeighborhoodSimulation()
        clean = sim.run(neighborhood, 3, seed=9)
        # On two workers the checkpoint persists days that came back
        # across a process boundary.
        for workers in (1, 2):
            path = str(tmp_path / f"sim-{workers}.jsonl")
            sim.run(
                neighborhood, 3, seed=9, workers=workers,
                checkpoint=CheckpointStore(path, fresh=True),
            )
            resumed = sim.run(
                neighborhood, 3, seed=9, workers=workers,
                checkpoint=CheckpointStore(path),
            )
            assert len(resumed) == len(clean)
            for a, b in zip(clean, resumed):
                assert a.reports == b.reports
                assert a.allocation == b.allocation
                assert a.consumption == b.consumption
                assert a.settlement.payments == b.settlement.payments
                assert a.settlement.load_profile == b.settlement.load_profile


# -------------------------------------------------------------------- chaos

class TestChaosPlanning:
    def test_plan_is_deterministic_in_root(self):
        a = plan_faults(42, 50, crash_rate=0.3, slow_rate=0.2, malformed_rate=0.3)
        b = plan_faults(42, 50, crash_rate=0.3, slow_rate=0.2, malformed_rate=0.3)
        assert a == b
        c = plan_faults(43, 50, crash_rate=0.3, slow_rate=0.2, malformed_rate=0.3)
        assert a != c

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            plan_faults(1, 5, crash_rate=1.5)

    def test_zero_rates_mean_no_faults(self):
        plan = plan_faults(42, 50)
        assert not plan.crash_days and not plan.slow_days and not plan.malformed_days

    def test_corruption_is_deterministic(self, tmp_path):
        plan = ChaosPlan(root=11, malformed_days=frozenset({0}))
        injector = ChaosInjector(plan, fault_dir=str(tmp_path))
        reports = truthful(small_neighborhood(n=5))
        first = injector.corrupt_reports(0, reports)
        second = injector.corrupt_reports(0, reports)
        assert first == second
        raws = [r for r in first.values() if isinstance(r, RawReport)]
        assert len(raws) == 1

    def test_untouched_day_passes_through(self, tmp_path):
        plan = ChaosPlan(root=11, malformed_days=frozenset({3}))
        injector = ChaosInjector(plan, fault_dir=str(tmp_path))
        reports = truthful(small_neighborhood(n=5))
        assert injector.corrupt_reports(0, reports) == reports

    def test_crash_fuse_fires_once(self, tmp_path):
        plan = ChaosPlan(root=11, crash_days=frozenset({2}))
        injector = ChaosInjector(plan, fault_dir=str(tmp_path))
        with pytest.raises(WorkerFailure):
            injector.before_day(2)
        injector.before_day(2)  # fuse blown: second call is clean

    def test_malformed_chaos_requires_quarantine(self, tmp_path):
        plan = ChaosPlan(root=1, malformed_days=frozenset({0}))
        injector = ChaosInjector(plan, fault_dir=str(tmp_path))
        with pytest.raises(ValueError, match="quarantine"):
            SocialWelfareStudy([GreedyFlexibilityAllocator()], chaos=injector)


@pytest.mark.chaos
class TestChaosAcceptance:
    """The ISSUE's acceptance scenario: injected faults, identical results."""

    DAYS = 8
    N = 10
    SEED = 2024

    def _clean_records(self):
        return SocialWelfareStudy([GreedyFlexibilityAllocator()]).run(
            self.N, self.DAYS, seed=self.SEED
        )

    def _chaos_study(self, tmp_path, kill):
        plan = ChaosPlan(
            root=77,
            crash_days=frozenset({1, 4}),
            malformed_days=frozenset({2, 6}),
        )
        injector = ChaosInjector(plan, fault_dir=str(tmp_path / "faults"), kill=kill)
        study = SocialWelfareStudy(
            [GreedyFlexibilityAllocator()],
            quarantine=Quarantine("clamp"),
            chaos=injector,
        )
        return plan, study

    def test_crashes_and_malformed_reports_recover(self, tmp_path):
        plan, study = self._chaos_study(tmp_path, kill=False)
        audit = AuditLog(str(tmp_path / "audit.jsonl"))
        records = study.run(self.N, self.DAYS, seed=self.SEED, workers=4, audit=audit)
        clean = dict(zip(study_key(self._clean_records()), range(10**6)))
        for key in study_key(records):
            if key[0] not in plan.affected_days:
                assert key in clean
        quarantined = list(audit.events(kind="report_quarantined"))
        assert {e.day for e in quarantined} == set(plan.malformed_days)
        crashes = list(audit.events(kind="worker_failure"))
        assert {e.day for e in crashes} == set(plan.crash_days)
        assert all(e.payload["recovered"] for e in crashes)

    def test_sigkill_broken_pool_recovery(self, tmp_path):
        plan, study = self._chaos_study(tmp_path, kill=True)
        records = study.run(self.N, self.DAYS, seed=self.SEED, workers=4)
        clean = study_key(self._clean_records())
        chaos = study_key(records)
        for clean_key, chaos_key in zip(clean, chaos):
            if clean_key[0] not in plan.affected_days:
                assert clean_key == chaos_key

    def test_kill_then_resume_is_identical(self, tmp_path):
        """--resume after a mid-study crash equals an uninterrupted run."""
        path = str(tmp_path / "ck.jsonl")
        plan = ChaosPlan(root=77, crash_days=frozenset({5}))
        injector = ChaosInjector(plan, fault_dir=str(tmp_path / "faults"))
        study = SocialWelfareStudy(
            [GreedyFlexibilityAllocator()], chaos=injector
        )
        # retries=0 turns the injected crash into a fatal driver error —
        # the moral equivalent of kill -9 halfway through the study.
        with pytest.raises(WorkerFailure):
            study.run(
                self.N,
                self.DAYS,
                seed=self.SEED,
                checkpoint=CheckpointStore(path, fresh=True),
                retries=0,
            )
        partial = CheckpointStore(path)
        assert 0 < len(partial.completed()) < self.DAYS + 1
        resumed = study.run(
            self.N, self.DAYS, seed=self.SEED, checkpoint=CheckpointStore(path)
        )
        assert study_key(resumed) == study_key(self._clean_records())


# ------------------------------------------------------------ CLI exit codes

class TestCliErrorMapping:
    def test_checkpoint_mismatch_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "ck.jsonl")
        base = ["fig4", "--days", "1", "--populations", "10", "--checkpoint", path]
        assert main(base + ["--seed", "1"]) == 0
        capsys.readouterr()
        code = main(base + ["--seed", "2", "--resume"])
        assert code == CheckpointError.exit_code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "CheckpointError" in err

    def test_debug_reraises(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "ck.jsonl")
        base = ["fig4", "--days", "1", "--populations", "10", "--checkpoint", path]
        assert main(base + ["--seed", "1"]) == 0
        with pytest.raises(CheckpointError):
            main(base + ["--seed", "2", "--resume", "--debug"])

    def test_resume_requires_checkpoint(self, capsys):
        from repro.cli import main

        assert main(["fig4", "--resume"]) == 2
