"""Tests for warehouse provenance: tracing answer probabilities back to
the updates that introduced their events."""

import pytest

from repro import InsertOperation, Session, UpdateTransaction
from repro.tpwj.parser import parse_pattern
from repro.trees import tree
from repro.warehouse import Warehouse
from repro.workloads import ExtractionScenario


@pytest.fixture
def warehouse(tmp_path, slide12_doc):
    with Warehouse.create(tmp_path / "wh", slide12_doc) as wh:
        yield wh


class TestProvenance:
    def test_update_event_is_traceable(self, warehouse):
        tx = UpdateTransaction(
            parse_pattern("C[$c]"), [InsertOperation("c", tree("N", "x"))], 0.5
        )
        report = warehouse._commit_update(tx)
        entry = warehouse.provenance(report.confidence_event)
        assert entry is not None
        assert entry["confidence"] == 0.5
        assert "xu:insert" in entry["transaction"]

    def test_preexisting_event_has_no_origin(self, warehouse):
        assert warehouse.provenance("w1") is None

    def test_unknown_event_has_no_origin(self, warehouse):
        assert warehouse.provenance("nothing") is None

    def test_each_update_gets_its_own_event(self, warehouse):
        events = []
        for confidence in (0.5, 0.6):
            tx = UpdateTransaction(
                parse_pattern("C[$c]"), [InsertOperation("c", tree("N"))], confidence
            )
            events.append(warehouse._commit_update(tx).confidence_event)
        assert len(set(events)) == 2
        for event, confidence in zip(events, (0.5, 0.6)):
            assert warehouse.provenance(event)["confidence"] == confidence


class TestExplain:
    def test_explains_answer_events(self, warehouse):
        tx = UpdateTransaction(
            parse_pattern("C[$c]"), [InsertOperation("c", tree("N", "x"))], 0.5
        )
        report = warehouse._commit_update(tx)
        rows = Session(warehouse).query("//N").all()
        assert len(rows) == 1
        records = rows[0].explain()
        by_event = {r["event"]: r for r in records}
        assert report.confidence_event in by_event
        origin = by_event[report.confidence_event]["origin"]
        assert origin is not None and origin["confidence"] == 0.5
        assert by_event[report.confidence_event]["probability"] == pytest.approx(0.5)

    def test_initial_events_marked_unoriginated(self, warehouse):
        row = Session(warehouse).query("//D").first()  # depends on w2 from the initial doc
        records = row.explain()
        assert any(r["event"] == "w2" and r["origin"] is None for r in records)

    def test_explain_over_module_stream(self, tmp_path):
        scenario = ExtractionScenario(seed=3, n_people=2)
        with Warehouse.create(tmp_path / "wh", scenario.initial_document()) as wh:
            for tx in scenario.stream(10):
                wh._commit_update(tx)
            for row in Session(wh).query("/directory { person { //email } }"):
                records = row.explain()
                # Every event in a stream-built document must trace back
                # to a committed update.
                assert records
                for record in records:
                    assert record["origin"] is not None
                    assert 0.0 < record["probability"] <= 1.0
