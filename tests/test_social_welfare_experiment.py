"""Unit tests for the shared social-welfare driver and its extractors."""

import pytest

from repro.experiments.social_welfare import (
    ENKI,
    OPTIMAL,
    run_social_welfare_study,
)
from repro.experiments import fig4_par, fig5_cost, fig6_time


@pytest.fixture(scope="module")
def tiny_run():
    return run_social_welfare_study(
        populations=(5,), days=2, seed=9, optimal_time_limit_s=5.0
    )


class TestDriver:
    def test_records_shape(self, tiny_run):
        assert len(tiny_run.records) == 2 * 2  # 2 allocators x 2 days
        assert {r.allocator for r in tiny_run.records} == {ENKI, OPTIMAL}

    def test_series_accessor(self, tiny_run):
        enki_series = tiny_run.series(ENKI)
        assert len(enki_series) == 1
        assert enki_series[0].n_households == 5

    def test_optimal_never_costs_more(self, tiny_run):
        by_day = {}
        for record in tiny_run.records:
            by_day.setdefault(record.day, {})[record.allocator] = record
        for day, cell in by_day.items():
            assert cell[OPTIMAL].cost <= cell[ENKI].cost + 1e-9


class TestExtractors:
    def test_fig4_gap_definition(self, tiny_run):
        row = fig4_par.extract(tiny_run).rows[0]
        assert row.gap == pytest.approx(row.enki_par - row.optimal_par)

    def test_fig5_excess_definition(self, tiny_run):
        row = fig5_cost.extract(tiny_run).rows[0]
        expected = (row.enki_cost - row.optimal_cost) / row.optimal_cost
        assert row.relative_excess == pytest.approx(expected)

    def test_fig6_slowdown_definition(self, tiny_run):
        row = fig6_time.extract(tiny_run).rows[0]
        assert row.slowdown == pytest.approx(row.optimal_ms / row.enki_ms)

    def test_renders_nonempty(self, tiny_run):
        for module in (fig4_par, fig5_cost, fig6_time):
            assert module.extract(tiny_run).render()
