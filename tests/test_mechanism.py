"""Integration-style tests of the EnkiMechanism day cycle."""

import random

import numpy as np
import pytest

from repro.core.intervals import Interval
from repro.core.mechanism import (
    EnkiMechanism,
    closest_feasible_consumption,
    closest_feasible_starts,
    default_consumption,
    truthful_reports,
)
from repro.core.types import HouseholdType, Neighborhood, Preference, Report


class TestTruthfulReports:
    def test_everyone_reports_their_truth(self, example3_neighborhood):
        reports = truthful_reports(example3_neighborhood)
        for hid, report in reports.items():
            assert report.preference == example3_neighborhood[hid].true_preference


class TestClosestFeasibleConsumption:
    def test_allocation_inside_true_window_is_followed(self):
        result = closest_feasible_consumption(Interval(16, 24), 2, Interval(18, 20))
        assert result == Interval(18, 20)

    def test_allocation_outside_snaps_to_nearest_edge(self):
        # True window (18, 20), allocation (14, 16): only placement is (18, 20).
        result = closest_feasible_consumption(Interval(18, 20), 2, Interval(14, 16))
        assert result == Interval(18, 20)

    def test_partial_overlap_maximized(self):
        # True window (17, 21), allocation (15, 19): placements are
        # (17,19),(18,20),(19,21) with overlaps 2,1,0 -> picks (17, 19).
        result = closest_feasible_consumption(Interval(17, 21), 2, Interval(15, 19))
        assert result == Interval(17, 19)

    @staticmethod
    def _scan(w0, w1, duration, p, q):
        """The scan the closed form replaced: earliest overlap maximizer.

        Every in-window start in turn, ``Interval.overlap`` inlined.
        """
        best_start, best_overlap = w0, -1
        for start in range(w0, w1 - duration + 1):
            overlap = max(0, min(start + duration, q) - max(start, p))
            if overlap > best_overlap:
                best_start, best_overlap = start, overlap
        return best_start

    def test_closed_form_matches_the_scan_on_every_grid_case(self):
        """All 845,000 (window, duration, allocation) cases of one day.

        Windows hold the block; allocations are any interval, empty and
        longer-than-the-block ones included.
        """
        allocations = [Interval(p, q) for p in range(25) for q in range(p, 25)]
        checked = 0
        for w0 in range(25):
            for w1 in range(w0 + 1, 25):
                window = Interval(w0, w1)
                for duration in range(1, w1 - w0 + 1):
                    got = [
                        closest_feasible_consumption(window, duration, alloc).start
                        for alloc in allocations
                    ]
                    expected = [
                        self._scan(w0, w1, duration, alloc.start, alloc.end)
                        for alloc in allocations
                    ]
                    assert got == expected, (window, duration)
                    checked += len(got)
        assert checked == 845_000

    def test_window_too_short_falls_back_to_its_start(self):
        result = closest_feasible_consumption(Interval(3, 4), 2, Interval(10, 12))
        assert result == Interval(3, 5)

    def test_array_form_matches_the_scalar_rule(self):
        """``closest_feasible_starts`` on every same-duration grid case."""
        rows = [
            (w0, w1, v, s)
            for w0 in range(25)
            for w1 in range(w0 + 1, 25)
            for v in range(1, w1 - w0 + 1)
            for s in range(0, 25 - v)
        ]
        w0, w1, v, s = (np.array(col, dtype=np.intp) for col in zip(*rows))
        got = closest_feasible_starts(s, w0, w1, v)
        expected = [
            closest_feasible_consumption(Interval(a, b), d, Interval(t, t + d)).start
            for a, b, d, t in rows
        ]
        assert got.tolist() == expected


class TestRunDay:
    def test_truthful_day_nobody_defects(self, mechanism, example3_neighborhood):
        outcome = mechanism.run_day(example3_neighborhood)
        for hid in example3_neighborhood.ids():
            assert not outcome.defected(hid)
            assert outcome.settlement.defection[hid] == 0.0
            assert outcome.settlement.flexibility[hid] > 0.0

    def test_budget_balance_theorem1(self, mechanism, small_random_neighborhood):
        outcome = mechanism.run_day(small_random_neighborhood)
        settlement = outcome.settlement
        expected = (mechanism.xi - 1.0) * settlement.total_cost
        assert settlement.neighborhood_utility == pytest.approx(expected)
        assert settlement.neighborhood_utility >= 0.0

    def test_payments_sum_to_scaled_cost(self, mechanism, small_random_neighborhood):
        outcome = mechanism.run_day(small_random_neighborhood)
        assert sum(outcome.settlement.payments.values()) == pytest.approx(
            mechanism.xi * outcome.settlement.total_cost
        )

    def test_truthful_allocation_maximizes_valuation(
        self, mechanism, example3_neighborhood
    ):
        outcome = mechanism.run_day(example3_neighborhood)
        for hh in example3_neighborhood:
            # tau = v -> valuation = rho * v / 2.
            expected = hh.valuation_factor * hh.duration / 2.0
            assert outcome.settlement.valuations[hh.household_id] == pytest.approx(
                expected
            )

    def test_misreporting_defector_settlement(self, mechanism):
        # Theorem 2 scenario: A's truth is (18, 20, 2) but reports (14, 20, 2).
        neighborhood = Neighborhood.of(
            HouseholdType("A", Preference.of(18, 20, 2), 5.0),
            HouseholdType("B", Preference.of(14, 20, 2), 5.0),
            HouseholdType("C", Preference.of(14, 20, 2), 5.0),
        )
        reports = dict(truthful_reports(neighborhood))
        reports["A"] = Report("A", Preference.of(14, 20, 2))
        outcome = mechanism.run_day(neighborhood, reports)
        if outcome.defected("A"):
            assert outcome.settlement.flexibility["A"] == 0.0
            assert outcome.settlement.defection["A"] >= 0.0

    def test_explicit_consumption_is_respected(self, mechanism):
        pref = Preference.of(18, 20, 1)
        neighborhood = Neighborhood.of(
            HouseholdType("A", pref, 5.0), HouseholdType("B", pref, 5.0)
        )
        reports = truthful_reports(neighborhood)
        allocation = mechanism.allocate(neighborhood, reports).allocation
        defector = "A" if allocation["A"] == Interval(19, 20) else "B"
        consumption = dict(allocation)
        other_hour = Interval(18, 19) if allocation[defector].start == 19 else Interval(19, 20)
        consumption[defector] = other_hour
        settlement = mechanism.settle(neighborhood, reports, allocation, consumption)
        cooperator = "B" if defector == "A" else "A"
        # Property 3: the defector pays more than the identical cooperator.
        assert settlement.payments[defector] > settlement.payments[cooperator]

    def test_determinism_under_fixed_rng(self, example3_neighborhood):
        m = EnkiMechanism()
        out1 = m.run_day(example3_neighborhood, rng=random.Random(3))
        out2 = m.run_day(example3_neighborhood, rng=random.Random(3))
        assert out1.allocation == out2.allocation
        assert out1.settlement.payments == pytest.approx(out2.settlement.payments)

    def test_default_consumption_defects_only_when_forced(
        self, example3_neighborhood, mechanism
    ):
        reports = truthful_reports(example3_neighborhood)
        allocation = mechanism.allocate(example3_neighborhood, reports).allocation
        consumption = default_consumption(example3_neighborhood, allocation)
        assert consumption == allocation


class TestMechanismValidation:
    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            EnkiMechanism(k=0.0)

    def test_bad_xi_rejected(self):
        with pytest.raises(ValueError):
            EnkiMechanism(xi=0.9)

    def test_settle_rejects_inconsistent_allocation(
        self, mechanism, example3_neighborhood
    ):
        reports = truthful_reports(example3_neighborhood)
        with pytest.raises(Exception):
            mechanism.settle(
                example3_neighborhood,
                reports,
                {"A": Interval(0, 2)},
                {"A": Interval(0, 2)},
            )

    def test_report_from_unknown_household_is_an_invalid_report(
        self, mechanism, example3_neighborhood
    ):
        """No quarantine: the same error the reject policy raises."""
        from repro.robustness.errors import InvalidReportError

        reports = truthful_reports(example3_neighborhood)
        reports["ghost"] = Report("ghost", Preference.of(2, 6, 2))
        with pytest.raises(InvalidReportError) as raised:
            mechanism.allocate(example3_neighborhood, reports)
        assert raised.value.household_id == "ghost"
        assert raised.value.reason == "unknown-household"
        assert raised.value.exit_code == 11
        with pytest.raises(InvalidReportError):
            mechanism.run_day(example3_neighborhood, reports)

    def test_consumption_missing_an_allocated_household_names_it(
        self, mechanism, example3_neighborhood
    ):
        from repro.core.intervals import IntervalError

        reports = truthful_reports(example3_neighborhood)
        allocation = mechanism.allocate(example3_neighborhood, reports).allocation
        missing = sorted(allocation)[-1]
        consumption = {h: iv for h, iv in allocation.items() if h != missing}
        with pytest.raises(IntervalError, match=repr(missing)):
            mechanism.settle(example3_neighborhood, reports, allocation, consumption)


class TestSettleValidationParity:
    """The array masks defer to the scalar validators' exact error."""

    def _day(self, mechanism, neighborhood):
        reports = truthful_reports(neighborhood)
        allocation = mechanism.allocate(neighborhood, reports).allocation
        return reports, allocation, default_consumption(neighborhood, allocation)

    def _messages(self, mechanism, neighborhood, reports, allocation, consumption):
        """The settle error next to the scalar validators' own error."""
        from repro.core.intervals import IntervalError
        from repro.core.types import validate_allocation, validate_consumption

        with pytest.raises(IntervalError) as settled:
            mechanism.settle(neighborhood, reports, allocation, consumption)
        with pytest.raises(IntervalError) as scalar:
            validate_allocation(dict(reports), allocation)
            validate_consumption(neighborhood.households, consumption)
        return str(settled.value), str(scalar.value)

    def test_allocation_outside_report_window(self, mechanism, small_random_neighborhood):
        reports, allocation, consumption = self._day(mechanism, small_random_neighborhood)
        for hid in list(allocation)[1:3]:
            window = reports[hid].preference.window
            v = reports[hid].preference.duration
            start = window.end - v + 1 if window.end < 24 else window.start - 1
            allocation[hid] = Interval(start, start + v)
        got, want = self._messages(
            mechanism, small_random_neighborhood, reports, allocation, consumption
        )
        assert got == want

    def test_consumption_of_wrong_length(self, mechanism, small_random_neighborhood):
        reports, allocation, consumption = self._day(mechanism, small_random_neighborhood)
        hid = list(consumption)[2]
        block = consumption[hid]
        consumption[hid] = Interval(block.start, block.end - 1)
        got, want = self._messages(
            mechanism, small_random_neighborhood, reports, allocation, consumption
        )
        assert got == want

    def test_extra_allocation_and_unknown_consumption(
        self, mechanism, small_random_neighborhood
    ):
        reports, allocation, consumption = self._day(mechanism, small_random_neighborhood)
        allocation["ghost"] = Interval(0, 1)
        got, want = self._messages(
            mechanism, small_random_neighborhood, reports, allocation, consumption
        )
        assert got == want
        del allocation["ghost"]
        consumption["ghost"] = Interval(0, 1)
        got, want = self._messages(
            mechanism, small_random_neighborhood, reports, allocation, consumption
        )
        assert got == want
