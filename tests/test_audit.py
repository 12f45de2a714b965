"""Tests for the audit trail and the simulate CLI command."""

import json

import pytest

from repro.cli import main
from repro.core.mechanism import EnkiMechanism
from repro.io.audit import AuditEvent, AuditLog, summarize_audit
from repro.sim import engine


class TestAuditLog:
    def test_append_and_replay(self, tmp_path):
        log = AuditLog(str(tmp_path / "audit.jsonl"))
        log.append(AuditEvent(kind="note", day=0, payload={"x": 1}))
        log.append(AuditEvent(kind="note", day=1, payload={"x": 2}))
        events = list(log.events())
        assert [e.day for e in events] == [0, 1]
        assert events[1].payload == {"x": 2}

    def test_kind_filter(self, tmp_path):
        log = AuditLog(str(tmp_path / "audit.jsonl"))
        log.append(AuditEvent(kind="a", day=0, payload={}))
        log.append(AuditEvent(kind="b", day=0, payload={}))
        assert len(list(log.events(kind="a"))) == 1

    def test_missing_file_is_empty(self, tmp_path):
        log = AuditLog(str(tmp_path / "missing.jsonl"))
        assert list(log.events()) == []

    def test_log_day_and_summary(self, tmp_path, small_random_neighborhood):
        log = AuditLog(str(tmp_path / "days.jsonl"))
        mechanism = EnkiMechanism(seed=0)
        for day in range(3):
            outcome = mechanism.run_day(small_random_neighborhood)
            log.log_day(day, outcome)
        summary = summarize_audit(log)
        assert summary.days == 3
        assert summary.budget_balanced_every_day
        assert summary.total_revenue == pytest.approx(1.2 * summary.total_cost)
        assert summary.total_defections == 0

    def test_lines_are_valid_json(self, tmp_path, small_random_neighborhood):
        path = tmp_path / "days.jsonl"
        log = AuditLog(str(path))
        outcome = EnkiMechanism(seed=0).run_day(small_random_neighborhood)
        log.log_day(0, outcome)
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert record["kind"] == "day_settled"


class TestSimulateCommand:
    def test_simulate_prints_ledger(self, capsys):
        assert main(["simulate", "--n", "6", "--days", "2", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "surplus ($)" in out
        assert out.count("\n") >= 4

    def test_simulate_writes_audit(self, capsys, tmp_path):
        path = tmp_path / "log.jsonl"
        code = main(
            [
                "simulate", "--n", "5", "--days", "2", "--seed", "4",
                "--audit", str(path),
            ]
        )
        assert code == 0
        summary = summarize_audit(AuditLog(str(path)))
        assert summary.days == 2
        assert summary.budget_balanced_every_day

    def test_simulate_audits_its_recovered_worker_failure(
        self, capsys, tmp_path, monkeypatch
    ):
        """The run's own events reach the file, not only the settled days."""
        real_day = engine._run_simulation_day
        failed = []

        def fails_day_0_once(simulation, neighborhood, task):
            if task[1] == 0 and not failed:
                failed.append(True)
                raise RuntimeError("injected day-0 fault")
            return real_day(simulation, neighborhood, task)

        monkeypatch.setattr(engine, "_run_simulation_day", fails_day_0_once)
        path = tmp_path / "log.jsonl"
        code = main(
            [
                "simulate", "--n", "5", "--days", "2", "--seed", "4",
                "--audit", str(path),
            ]
        )
        assert code == 0
        log = AuditLog(str(path))
        failures = list(log.events(kind="worker_failure"))
        assert [(e.day, e.payload["attempt"], e.payload["recovered"])
                for e in failures] == [(0, 1, True)]
        assert "injected day-0 fault" in failures[0].payload["cause"]
        assert summarize_audit(log).days == 2
