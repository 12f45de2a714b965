"""Tests for the persistence layer (JSON round-trips, CSV export)."""

import json

import pytest

from repro.core.intervals import Interval
from repro.core.mechanism import EnkiMechanism
from repro.core.types import HouseholdType, Preference, Report
from repro.io.csvout import rows_to_csv, table_text_to_csv, write_csv
from repro.io.serialize import (
    SerializationError,
    day_outcome_from_dict,
    day_outcome_to_dict,
    household_from_dict,
    household_to_dict,
    interval_from_dict,
    interval_to_dict,
    load_neighborhood,
    neighborhood_from_dict,
    neighborhood_to_dict,
    preference_from_dict,
    preference_to_dict,
    report_from_dict,
    report_to_dict,
    save_day_outcome,
    save_neighborhood,
)
from repro.sim.results import format_table


class TestRoundTrips:
    def test_interval(self):
        interval = Interval(18, 22)
        assert interval_from_dict(interval_to_dict(interval)) == interval

    def test_preference(self):
        preference = Preference.of(16, 22, 3)
        assert preference_from_dict(preference_to_dict(preference)) == preference

    def test_household(self):
        household = HouseholdType("A", Preference.of(16, 22, 3), 5.5, rating_kw=3.3)
        clone = household_from_dict(household_to_dict(household))
        assert clone == household

    def test_household_rating_defaults(self):
        document = household_to_dict(
            HouseholdType("A", Preference.of(16, 22, 3), 5.5)
        )
        del document["rating_kw"]
        assert household_from_dict(document).rating_kw == 2.0

    def test_neighborhood(self, small_random_neighborhood):
        document = neighborhood_to_dict(small_random_neighborhood)
        clone = neighborhood_from_dict(document)
        assert clone.ids() == small_random_neighborhood.ids()
        for hid in clone.ids():
            assert clone[hid] == small_random_neighborhood[hid]

    def test_report(self):
        report = Report("A", Preference.of(16, 22, 3))
        assert report_from_dict(report_to_dict(report)) == report

    def test_json_is_stable(self, small_random_neighborhood):
        document = neighborhood_to_dict(small_random_neighborhood)
        encoded = json.dumps(document, sort_keys=True)
        assert json.dumps(neighborhood_to_dict(
            neighborhood_from_dict(json.loads(encoded))
        ), sort_keys=True) == encoded


class TestErrors:
    def test_missing_key(self):
        with pytest.raises(SerializationError):
            interval_from_dict({"start": 1})

    def test_wrong_schema_version(self, small_random_neighborhood):
        document = neighborhood_to_dict(small_random_neighborhood)
        document["schema_version"] = 99
        with pytest.raises(SerializationError):
            neighborhood_from_dict(document)


class TestFiles:
    def test_neighborhood_file_roundtrip(self, tmp_path, small_random_neighborhood):
        path = tmp_path / "neighborhood.json"
        save_neighborhood(small_random_neighborhood, str(path))
        clone = load_neighborhood(str(path))
        assert clone.ids() == small_random_neighborhood.ids()

    def test_day_outcome_archive(self, tmp_path, small_random_neighborhood):
        outcome = EnkiMechanism(seed=0).run_day(small_random_neighborhood)
        path = tmp_path / "day.json"
        save_day_outcome(outcome, str(path))
        document = json.loads(path.read_text())
        assert document["schema_version"] == 1
        assert set(document["allocation"]) == set(
            small_random_neighborhood.ids()
        )
        assert document["settlement"]["total_cost"] == pytest.approx(
            outcome.settlement.total_cost
        )
        assert len(document["settlement"]["load_profile"]) == 24

    def test_root_bound_matched_round_trips(self, small_random_neighborhood):
        outcome = EnkiMechanism(seed=0).run_day(small_random_neighborhood)
        document = day_outcome_to_dict(outcome)
        assert document["allocator"]["root_bound_matched"] in (True, False)
        document["allocator"]["root_bound_matched"] = True
        restored = day_outcome_from_dict(document)
        assert restored.allocation_result.root_bound_matched is True
        # Pre-acceleration archives lack the key and default to False.
        del document["allocator"]["root_bound_matched"]
        restored = day_outcome_from_dict(document)
        assert restored.allocation_result.root_bound_matched is False


class TestCsv:
    def test_rows_to_csv(self):
        text = rows_to_csv(["a", "b"], [(1, 2), (3, 4)])
        assert text == "a,b\n1,2\n3,4\n"

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rows_to_csv(["a", "b"], [(1, 2, 3)])

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(str(path), ["x"], [(1,), (2,)])
        assert path.read_text() == "x\n1\n2\n"

    def test_table_text_roundtrip(self):
        rendered = format_table(
            ["n", "cost ($)", "note"],
            [(10, "59.9", "ok"), (20, "242.9", "also ok")],
        )
        csv_text = table_text_to_csv(rendered)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "n,cost ($),note"
        assert lines[1] == "10,59.9,ok"
        assert lines[2] == "20,242.9,also ok"

    def test_non_table_text_rejected(self):
        with pytest.raises(ValueError):
            table_text_to_csv("just some prose\nwithout a rule")
