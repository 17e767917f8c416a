"""Unit tests for fuzzy trees (repro.core.fuzzy_tree)."""

import pytest

from repro.errors import ReproError, TreeError, UnknownEventError
from repro import Condition, EventTable, FuzzyNode, FuzzyTree
from repro.engine import AncestorConditionIndex
from repro.trees import Node, tree


class TestFuzzyNode:
    def test_default_condition_is_true(self):
        assert FuzzyNode("A").condition.is_true

    def test_condition_type_checked(self):
        with pytest.raises(TreeError):
            FuzzyNode("A", condition="w1")  # type: ignore[arg-type]
        node = FuzzyNode("A")
        with pytest.raises(TreeError):
            node.condition = "w1"  # type: ignore[assignment]

    def test_clone_preserves_conditions(self):
        node = FuzzyNode(
            "A", children=[FuzzyNode("B", condition=Condition.of("w1"))]
        )
        copy = node.clone()
        assert isinstance(copy, FuzzyNode)
        assert copy.children[0].condition == Condition.of("w1")

    def test_canonical_includes_condition(self):
        plain = FuzzyNode("A")
        conditioned = FuzzyNode("A", condition=Condition.of("w1"))
        # Note: conditioned roots are invalid *documents* but fine as nodes.
        assert plain.canonical() != conditioned.canonical()

    def test_canonical_condition_order_independent(self):
        first = FuzzyNode("A", condition=Condition.of("w1", "!w2"))
        second = FuzzyNode("A", condition=Condition.of("!w2", "w1"))
        assert first.canonical() == second.canonical()

    def test_path_condition(self):
        # A node's existence condition: its own and its ancestors' literals.
        child = FuzzyNode("C", condition=Condition.of("w2"))
        root = FuzzyNode("A", children=[FuzzyNode("B", condition=Condition.of("w1"), children=[child])])
        closed = AncestorConditionIndex.build(root).closed_condition(child)
        assert closed == Condition.of("w1", "w2")

    def test_path_condition_or_none_detects_conflict(self):
        child = FuzzyNode("C", condition=Condition.of("!w1"))
        root = FuzzyNode("A", children=[FuzzyNode("B", condition=Condition.of("w1"), children=[child])])
        assert not AncestorConditionIndex.build(root).closed_condition(child).is_consistent

    def test_from_plain(self):
        plain = tree("A", tree("B", "x"))
        fuzzy = FuzzyNode.from_plain(plain, condition=Condition.of("w1"))
        assert fuzzy.condition == Condition.of("w1")
        assert fuzzy.children[0].condition.is_true
        assert fuzzy.children[0].value == "x"

    def test_pretty_shows_conditions(self):
        node = FuzzyNode("A", children=[FuzzyNode("B", condition=Condition.of("w1"))])
        assert "¬" not in node.pretty()
        assert "[w1]" in node.pretty()


class TestFuzzyTree:
    def test_valid_document(self, slide12_doc):
        assert slide12_doc.size() == 4
        assert slide12_doc.used_events() == {"w1", "w2"}

    def test_root_condition_must_be_true(self):
        root = FuzzyNode("A", condition=Condition.of("w1"))
        with pytest.raises(ReproError, match="root"):
            FuzzyTree(root, EventTable({"w1": 0.5}))

    def test_conditions_must_reference_declared_events(self):
        root = FuzzyNode("A", children=[FuzzyNode("B", condition=Condition.of("w9"))])
        with pytest.raises(UnknownEventError):
            FuzzyTree(root, EventTable())

    def test_plain_nodes_rejected(self):
        root = FuzzyNode("A")
        root.add_child(Node("B"))
        with pytest.raises(ReproError, match="plain node"):
            FuzzyTree(root, EventTable())

    def test_root_must_be_detached(self):
        parent = FuzzyNode("A")
        child = parent.add_child(FuzzyNode("B"))
        with pytest.raises(ReproError):
            FuzzyTree(child, EventTable())

    def test_condition_literal_count(self, slide12_doc):
        assert slide12_doc.condition_literal_count() == 3

    def test_clone_independent(self, slide12_doc):
        copy = slide12_doc.clone()
        copy.root.children[0].detach()
        copy.events.declare("extra", 0.5)
        assert slide12_doc.size() == 4
        assert "extra" not in slide12_doc.events


class TestWorldSelection:
    def test_world_keeps_satisfied_nodes(self, slide12_doc):
        world = slide12_doc.world({"w1": True, "w2": False})
        assert world.canonical() == "A(B,C)"

    def test_world_is_plain_tree(self, slide12_doc):
        world = slide12_doc.world({"w1": True, "w2": True})
        assert type(world) is Node

    def test_ancestor_gating(self):
        # D's condition holds but its parent C is dropped: D disappears.
        events = EventTable({"w1": 0.5})
        root = FuzzyNode(
            "A",
            children=[
                FuzzyNode(
                    "C",
                    condition=Condition.of("w1"),
                    children=[FuzzyNode("D")],
                )
            ],
        )
        doc = FuzzyTree(root, events)
        assert doc.world({"w1": False}).canonical() == "A"
        assert doc.world({"w1": True}).canonical() == "A(C(D))"

    def test_all_worlds_of_slide12(self, slide12_doc):
        expected = {
            (False, False): "A(C)",
            (False, True): "A(C(D))",
            (True, False): "A(B,C)",
            (True, True): "A(C(D))",
        }
        for (w1, w2), canonical in expected.items():
            assert slide12_doc.world({"w1": w1, "w2": w2}).canonical() == canonical
