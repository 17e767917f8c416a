"""The warehouse's document measurements and the hot-path counters on
the process registry."""

import repro
from repro import find_matches
from repro.obs.metrics import process_registry
from repro.tpwj.parser import parse_pattern


class TestCounters:
    def test_global_counters_track_matching(self, slide12_doc):
        process_registry.reset()
        find_matches(parse_pattern("//D"), slide12_doc.root)
        assert process_registry.counter("match.found") == 1
        assert process_registry.counter("engine.actual_candidates") >= 1
        process_registry.reset()


class TestFuzzyStats:
    def test_slide12_measurements(self, slide12_doc, tmp_path):
        with repro.connect(tmp_path / "wh", create=True, document=slide12_doc) as session:
            stats = session.stats()
        assert stats["nodes"] == 4
        assert stats["height"] == 2
        assert stats["declared_events"] == 2
        assert stats["used_events"] == 2
        assert stats["condition_literals"] == 3
        assert stats["max_condition_size"] == 2
        assert stats["conditioned_nodes"] == 2

    def test_as_dict_round(self, slide12_doc, tmp_path):
        with repro.connect(tmp_path / "wh", create=True, document=slide12_doc) as session:
            info = session.stats()
        assert info["nodes"] == 4 and "condition_literals" in info
