"""Unit tests for household agents, behaviours, ECC and the controller."""

import pytest

from repro.agents.behavior import (
    FixedReportBehavior,
    MisreportBehavior,
    NarrowingBehavior,
    StubbornBehavior,
    TruthfulBehavior,
)
from repro.agents.ecc import EccBehavior, EccUnit
from repro.agents.forecasting import (
    EwmaForecaster,
    HistogramForecaster,
    backtest_accuracy,
)
from repro.agents.household import HouseholdAgent, HouseholdDayLog
from repro.agents.neighborhood import NeighborhoodController
from repro.core.intervals import Interval
from repro.core.mechanism import EnkiMechanism
from repro.core.types import HouseholdType, Preference, Report


def _household(hid="A", begin=18, end=22, duration=2):
    return HouseholdType(hid, Preference.of(begin, end, duration), 5.0)


class TestBehaviors:
    def test_truthful_reports_truth(self, rng):
        hh = _household()
        report = TruthfulBehavior().report(0, hh, rng)
        assert report.preference == hh.true_preference

    def test_truthful_follows_in_window_allocation(self, rng):
        hh = _household()
        consumed = TruthfulBehavior().consume(
            0, hh, Report("A", hh.true_preference), Interval(19, 21), rng
        )
        assert consumed == Interval(19, 21)

    def test_misreport_shifts_window(self, rng):
        hh = _household()
        behavior = MisreportBehavior(shift=-4)
        report = behavior.report(0, hh, rng)
        assert report.preference.begin == 14
        assert report.preference.duration == hh.duration

    def test_misreport_clamps_to_day(self, rng):
        hh = _household(begin=0, end=4)
        report = MisreportBehavior(shift=-5).report(0, hh, rng)
        assert report.preference.begin >= 0

    def test_misreporter_defects_back_into_true_window(self, rng):
        hh = _household(begin=18, end=20, duration=2)
        behavior = MisreportBehavior(shift=-4)
        consumed = behavior.consume(
            0, hh, Report("A", Preference.of(14, 16, 2)), Interval(14, 16), rng
        )
        assert consumed == Interval(18, 20)

    def test_narrowing_stays_inside_truth(self, rng):
        hh = _household(begin=16, end=24, duration=2)
        behavior = NarrowingBehavior(keep_hours=3)
        for _ in range(20):
            report = behavior.report(0, hh, rng)
            assert hh.true_preference.window.contains(report.preference.window)
            assert report.preference.window.length == 3

    def test_fixed_report(self, rng):
        hh = _household()
        behavior = FixedReportBehavior(Preference.of(10, 14, 2))
        assert behavior.report(0, hh, rng).preference.begin == 10

    def test_fixed_report_duration_must_match(self, rng):
        hh = _household()
        behavior = FixedReportBehavior(Preference.of(10, 14, 3))
        with pytest.raises(ValueError):
            behavior.report(0, hh, rng)

    def test_stubborn_ignores_allocation(self, rng):
        hh = _household(begin=18, end=22, duration=2)
        behavior = StubbornBehavior()
        consumed = behavior.consume(
            0, hh, Report("A", hh.true_preference), Interval(20, 22), rng
        )
        assert consumed == Interval(18, 20)


class TestForecasting:
    def test_histogram_learns_stable_pattern(self):
        forecaster = HistogramForecaster(margin=1)
        for _ in range(20):
            forecaster.update(18, 2)
        predicted = forecaster.predict()
        assert predicted.duration == 2
        assert predicted.window.contains_slot(18)

    def test_histogram_quantile_window_covers_spread(self):
        forecaster = HistogramForecaster(low_quantile=0.0, high_quantile=1.0, margin=0)
        for start in (16, 17, 18, 19, 20):
            forecaster.update(start, 2)
        predicted = forecaster.predict()
        assert predicted.window.start <= 16
        assert predicted.window.end >= 22

    def test_predict_before_data_raises(self):
        with pytest.raises(RuntimeError):
            HistogramForecaster().predict()
        with pytest.raises(RuntimeError):
            EwmaForecaster().predict()

    def test_ewma_tracks_shift(self):
        forecaster = EwmaForecaster(alpha=0.5, half_width=1)
        for _ in range(10):
            forecaster.update(10, 2)
        for _ in range(10):
            forecaster.update(20, 2)
        predicted = forecaster.predict()
        assert predicted.window.contains_slot(19) or predicted.window.contains_slot(20)

    def test_invalid_observations_rejected(self):
        forecaster = HistogramForecaster()
        with pytest.raises(ValueError):
            forecaster.update(24, 2)
        with pytest.raises(ValueError):
            forecaster.update(10, 0)

    def test_backtest_accuracy_on_stable_history(self):
        history = [(18, 2)] * 15
        accuracy = backtest_accuracy(HistogramForecaster(), history)
        assert accuracy == pytest.approx(1.0)

    def test_backtest_empty_history(self):
        assert backtest_accuracy(HistogramForecaster(), []) == 0.0


class TestEcc:
    def test_cold_start_uses_true_preference(self):
        ecc = EccUnit("A")
        report = ecc.report(true_preference=Preference.of(18, 22, 2))
        assert report.preference == Preference.of(18, 22, 2)

    def test_cold_start_uses_fallback(self):
        ecc = EccUnit("A", fallback=Preference.of(10, 14, 2))
        assert ecc.report().preference.begin == 10

    def test_cold_start_without_anything_raises(self):
        with pytest.raises(RuntimeError):
            EccUnit("A").report()

    def test_learns_from_observations(self):
        ecc = EccUnit("A")
        for _ in range(10):
            ecc.observe(Interval(18, 20))
        report = ecc.report()
        assert report.preference.window.contains_slot(18)

    def test_ecc_behavior_enforces_owner(self, rng):
        behavior = EccBehavior(EccUnit("A"))
        wrong = _household("B")
        with pytest.raises(ValueError):
            behavior.report(0, wrong, rng)

    def test_ecc_behavior_clamps_duration_to_truth(self, rng):
        ecc = EccUnit("A")
        for _ in range(6):
            ecc.observe(Interval(18, 21))  # 3-hour observations
        behavior = EccBehavior(ecc)
        hh = _household("A", begin=16, end=24, duration=2)
        report = behavior.report(0, hh, rng)
        assert report.preference.duration == 2


class TestHouseholdAgentAndController:
    def test_agent_accumulates_history(self):
        agent = HouseholdAgent(_household())
        agent.record(
            HouseholdDayLog(
                day=0,
                report=Report("A", _household().true_preference),
                allocation=Interval(18, 20),
                consumption=Interval(18, 20),
                payment=1.0,
                utility=4.0,
            )
        )
        agent.record(
            HouseholdDayLog(
                day=1,
                report=Report("A", _household().true_preference),
                allocation=Interval(18, 20),
                consumption=Interval(20, 22),
                payment=2.0,
                utility=3.0,
            )
        )
        assert agent.total_utility() == pytest.approx(7.0)
        assert agent.defection_rate() == pytest.approx(0.5)

    def test_controller_runs_days_and_logs(self):
        agents = [
            HouseholdAgent(_household("A", 16, 20)),
            HouseholdAgent(_household("B", 18, 22)),
            HouseholdAgent(_household("C", 17, 23), StubbornBehavior()),
        ]
        controller = NeighborhoodController(agents, EnkiMechanism())
        outcomes = controller.run_days(3, seed=0)
        assert len(outcomes) == 3
        for agent in agents:
            assert len(agent.history) == 3

    def test_controller_with_ecc_agent_learns(self):
        ecc_agent = HouseholdAgent(
            _household("A", 16, 22), EccBehavior(EccUnit("A"))
        )
        controller = NeighborhoodController(
            [ecc_agent, HouseholdAgent(_household("B", 18, 22))],
            EnkiMechanism(),
        )
        controller.run_days(4, seed=1)
        assert ecc_agent.behavior.ecc.forecaster.n_observations == 4

    def test_duplicate_agents_rejected(self):
        with pytest.raises(ValueError):
            NeighborhoodController(
                [HouseholdAgent(_household("A")), HouseholdAgent(_household("A"))]
            )

    def test_empty_controller_rejected(self):
        with pytest.raises(ValueError):
            NeighborhoodController([])

    def test_invalid_days_rejected(self):
        controller = NeighborhoodController([HouseholdAgent(_household())])
        with pytest.raises(ValueError):
            controller.run_days(0)
