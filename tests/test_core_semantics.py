"""Unit tests for fuzzy-tree semantics and expressiveness
(repro.core.semantics) — the slide-12 theorem."""

import pytest

from repro.errors import ReproError
from repro import (
    Condition,
    EventTable,
    FuzzyNode,
    FuzzyTree,
    PossibleWorlds,
    from_possible_worlds,
    to_possible_worlds,
)
from repro.trees import tree


class TestToPossibleWorlds:
    def test_slide12_worlds_exact(self, slide12_doc):
        worlds = to_possible_worlds(slide12_doc)
        assert len(worlds) == 3
        assert worlds.probability_of(tree("A", tree("C"))) == pytest.approx(0.06)
        assert worlds.probability_of(
            tree("A", tree("C", tree("D")))
        ) == pytest.approx(0.70)
        assert worlds.probability_of(
            tree("A", tree("B"), tree("C"))
        ) == pytest.approx(0.24)
        worlds.check_distribution()

    def test_certain_document_has_one_world(self):
        doc = FuzzyTree(FuzzyNode("A", children=[FuzzyNode("B")]), EventTable())
        worlds = to_possible_worlds(doc)
        assert len(worlds) == 1
        assert worlds.worlds[0].probability == pytest.approx(1.0)

    def test_unused_events_do_not_multiply_worlds(self):
        events = EventTable({"w1": 0.5, "unused": 0.5})
        doc = FuzzyTree(
            FuzzyNode("A", children=[FuzzyNode("B", condition=Condition.of("w1"))]),
            events,
        )
        assert len(to_possible_worlds(doc)) == 2

    def test_event_with_probability_one(self):
        events = EventTable({"sure": 1.0})
        doc = FuzzyTree(
            FuzzyNode("A", children=[FuzzyNode("B", condition=Condition.of("sure"))]),
            events,
        )
        worlds = to_possible_worlds(doc)
        assert len(worlds) == 1
        assert worlds.probability_of(tree("A", tree("B"))) == pytest.approx(1.0)

    def test_enumeration_guard(self):
        events = EventTable({f"e{i}": 0.5 for i in range(30)})
        root = FuzzyNode("A")
        for i in range(30):
            root.add_child(FuzzyNode("B", condition=Condition.of(f"e{i}")))
        doc = FuzzyTree(root, events)
        # A small cap: the guard is the same at 1 000 classes as at the
        # 200 000 default, minus the seconds spent enumerating up to it.
        with pytest.raises(ReproError, match="refusing to enumerate"):
            to_possible_worlds(doc, max_worlds=1_000)


class TestFromPossibleWorlds:
    def test_roundtrip_two_worlds(self):
        worlds = PossibleWorlds(
            [(tree("A", tree("B")), 0.3), (tree("A", tree("C")), 0.7)]
        )
        fuzzy = from_possible_worlds(worlds)
        assert to_possible_worlds(fuzzy).same_distribution(worlds)

    def test_roundtrip_slide12(self, slide12_doc):
        worlds = to_possible_worlds(slide12_doc)
        rebuilt = from_possible_worlds(worlds)
        assert to_possible_worlds(rebuilt).same_distribution(worlds)

    def test_single_world(self):
        worlds = PossibleWorlds([(tree("A", tree("B")), 1.0)])
        fuzzy = from_possible_worlds(worlds)
        assert len(fuzzy.events) == 0  # last world needs no selector event
        assert to_possible_worlds(fuzzy).same_distribution(worlds)

    def test_world_count_preserved(self):
        worlds = PossibleWorlds(
            [
                (tree("A", tree("B")), 0.2),
                (tree("A", tree("C")), 0.3),
                (tree("A", tree("D")), 0.5),
            ]
        )
        fuzzy = from_possible_worlds(worlds)
        assert len(to_possible_worlds(fuzzy)) == 3

    def test_valued_roots_supported_when_equal(self):
        worlds = PossibleWorlds([(tree("A", "same"), 1.0)])
        fuzzy = from_possible_worlds(worlds)
        assert fuzzy.root.value == "same"

    def test_mismatched_roots_rejected(self):
        worlds = PossibleWorlds([(tree("A"), 0.5), (tree("B"), 0.5)])
        with pytest.raises(ReproError, match="share the root"):
            from_possible_worlds(worlds)

    def test_non_distribution_rejected(self):
        worlds = PossibleWorlds([(tree("A"), 0.4)])
        with pytest.raises(ReproError, match="sum to"):
            from_possible_worlds(worlds)

    def test_empty_rejected(self):
        with pytest.raises(ReproError, match="empty"):
            from_possible_worlds(PossibleWorlds([]))

    def test_selector_prefix(self):
        worlds = PossibleWorlds([(tree("A", tree("B")), 0.5), (tree("A"), 0.5)])
        fuzzy = from_possible_worlds(worlds, prefix="sel")
        assert all(name.startswith("sel") for name in fuzzy.events.names())

    @pytest.mark.parametrize("seed", range(5))
    def test_random_roundtrips(self, seed):
        """Expressiveness on random world sets sharing a root label."""
        import random

        rng = random.Random(seed)
        count = rng.randint(2, 6)
        raw = [rng.random() for _ in range(count)]
        total = sum(raw)
        worlds = []
        from repro.trees import RandomTreeConfig, random_tree

        for p in raw:
            subtree = random_tree(rng, RandomTreeConfig(max_nodes=6))
            worlds.append((tree("root", subtree), p / total))
        world_set = PossibleWorlds(worlds)
        # Normalization may merge duplicates; renormalise expectations.
        fuzzy = from_possible_worlds(world_set)
        assert to_possible_worlds(fuzzy).same_distribution(world_set, 1e-9)
