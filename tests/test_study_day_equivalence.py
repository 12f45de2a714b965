"""Equivalence suite: the study day's one back half.

Both fronts of ``repro.sim.engine._run_study_day`` lower the day's reports
to one ``CompiledProblem`` and end in one loop that solves every allocator
through ``solve_columnar`` and reads PAR from the begin slots.
``tests/reference_study_day.py`` keeps the object branch this replaced
(``AllocationProblem.from_reports`` → ``allocator.solve`` →
``LoadProfile.from_schedule``).  This suite requires ``SocialWelfareStudy.
run`` records, and the quarantine and fallback payloads it audits, to
equal the reference's: cost and PAR by ``float.hex``, every other field
exactly, leaving out only ``wall_time_s``.

Each study draws one constant rating: the paper's 2.0 kW, or 1.1, 0.3 or
7.2 kW, whose load sums round.  Under two-step pricing the exact solver
rejects the instance, so the default fallback chain serves every day from
its greedy tier and audits the trail.
"""

import json

import pytest

from repro.allocation.greedy import GreedyFlexibilityAllocator
from repro.allocation.local_search import LocalSearchAllocator
from repro.allocation.optimal import BranchAndBoundAllocator
from repro.experiments.ablation_ordering import ArrivalOrderGreedy
from repro.io.audit import AuditLog
from repro.pricing.piecewise import TwoStepPricing
from repro.pricing.quadratic import QuadraticPricing
from repro.robustness import ChaosInjector, ChaosPlan, FallbackAllocator
from repro.robustness.quarantine import Quarantine
from repro.sim.engine import SocialWelfareStudy
from repro.sim.profiles import ProfileGenerator, ProfileGeneratorConfig

from .reference_study_day import reference_study_run

N_HOUSEHOLDS = 8
DAYS = 3
SEED = 2017

_RATINGS = (2.0, 1.1, 0.3, 7.2)
_PRICINGS = {
    "quadratic": QuadraticPricing(sigma=0.3),
    "two-step": TwoStepPricing(threshold_kw=6.0, low_rate=1.0, high_rate=4.0),
}
#: No screen, or a screen absorbing chaos-corrupted reports.
_SCREENS = ("none", "clamp", "exclude")


def _study(rating, pricing, screen, fault_dir):
    allocators = [
        GreedyFlexibilityAllocator(),
        ArrivalOrderGreedy(),
        LocalSearchAllocator(restarts=2),
    ]
    if pricing == "quadratic":
        allocators.append(BranchAndBoundAllocator(time_limit_s=None, node_limit=200))
    allocators.append(FallbackAllocator.default_chain())
    quarantine = chaos = None
    if screen != "none":
        quarantine = Quarantine(screen)
        chaos = ChaosInjector(
            ChaosPlan(root=5, malformed_days=frozenset({0, 2})),
            fault_dir=str(fault_dir),
        )
    return SocialWelfareStudy(
        allocators,
        generator=ProfileGenerator(ProfileGeneratorConfig(rating_kw=rating)),
        pricing=_PRICINGS[pricing],
        quarantine=quarantine,
        chaos=chaos,
    )


def _record_key(record):
    return (
        record.day,
        record.n_households,
        record.allocator,
        float(record.par).hex(),
        float(record.cost).hex(),
        record.proven_optimal,
        record.nodes_explored,
        record.served_tier,
        record.cache_hit,
    )


def _payload_key(payload):
    """The payload as the audit log stores it, tier wall times left out."""
    document = json.loads(json.dumps(payload, sort_keys=True))
    for record in document.get("trail", ()):
        del record["wall_time_s"]
    return document


def _assert_matches_reference(study, workers, tmp_path):
    audit = AuditLog(str(tmp_path / "audit.jsonl"))
    records = study.run(N_HOUSEHOLDS, DAYS, seed=SEED, workers=workers, audit=audit)
    reference = reference_study_run(study, N_HOUSEHOLDS, DAYS, SEED)

    assert [_record_key(r) for r in records] == [
        _record_key(r) for day_records, _, _ in reference for r in day_records
    ]
    for kind, slot in (("report_quarantined", 1), ("fallback_served", 2)):
        logged = [
            (event.day, _payload_key(event.payload)) for event in audit.events(kind)
        ]
        expected = [
            (day, _payload_key(payload))
            for day, result in enumerate(reference)
            for payload in result[slot]
        ]
        assert logged == expected
    return audit


@pytest.mark.parametrize("screen", _SCREENS)
@pytest.mark.parametrize("pricing", sorted(_PRICINGS))
@pytest.mark.parametrize("rating", _RATINGS)
def test_serial_study_matches_reference(rating, pricing, screen, tmp_path):
    study = _study(rating, pricing, screen, tmp_path / "faults")
    audit = _assert_matches_reference(study, 1, tmp_path)
    # Each configuration exercises the payload it claims to.
    assert any(audit.events("report_quarantined")) == (screen != "none")
    assert any(audit.events("fallback_served")) == (pricing == "two-step")


@pytest.mark.parametrize("screen", _SCREENS)
@pytest.mark.parametrize("pricing", sorted(_PRICINGS))
def test_fanned_out_study_matches_reference(pricing, screen, tmp_path):
    study = _study(1.1, pricing, screen, tmp_path / "faults")
    _assert_matches_reference(study, 2, tmp_path)
