"""Unit tests for document measurements (repro.analysis) and the
hot-path counters on the process registry."""

import pytest

from repro.analysis import (
    distribution_entropy,
    fuzzy_stats,
    tree_stats,
)
from repro import PossibleWorlds, find_matches
from repro.obs.metrics import process_registry
from repro.tpwj.parser import parse_pattern
from repro.trees import tree


class TestCounters:
    def test_global_counters_track_matching(self, slide12_doc):
        process_registry.reset()
        find_matches(parse_pattern("//D"), slide12_doc.root)
        assert process_registry.counter("match.found") == 1
        assert process_registry.counter("engine.actual_candidates") >= 1
        process_registry.reset()


class TestFuzzyStats:
    def test_slide12_measurements(self, slide12_doc):
        stats = fuzzy_stats(slide12_doc)
        assert stats.nodes == 4
        assert stats.height == 2
        assert stats.declared_events == 2
        assert stats.used_events == 2
        assert stats.condition_literals == 3
        assert stats.max_condition_size == 2
        assert stats.conditioned_nodes == 2

    def test_as_dict_round(self, slide12_doc):
        info = fuzzy_stats(slide12_doc).as_dict()
        assert info["nodes"] == 4 and "condition_literals" in info


class TestTreeStats:
    def test_counts(self):
        doc = tree("A", tree("B", "x"), tree("B", "y"), tree("C", tree("D")))
        stats = tree_stats(doc)
        assert stats["nodes"] == 5
        assert stats["leaves"] == 3
        assert stats["labels"] == {"A": 1, "B": 2, "C": 1, "D": 1}


class TestEntropy:
    def test_uniform_two_worlds_is_one_bit(self):
        worlds = PossibleWorlds([(tree("A"), 0.5), (tree("B"), 0.5)])
        assert distribution_entropy(worlds) == pytest.approx(1.0)

    def test_certain_world_is_zero_bits(self):
        worlds = PossibleWorlds([(tree("A"), 1.0)])
        assert distribution_entropy(worlds) == 0.0

    def test_empty_set(self):
        assert distribution_entropy(PossibleWorlds([])) == 0.0
