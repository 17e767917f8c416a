"""Unit tests for the tree construction helpers (repro.trees.builder)."""

import pytest

from repro.errors import TreeError
from repro.trees import tree


class TestTreeLiteral:
    def test_leaf(self):
        node = tree("A")
        assert node.label == "A" and node.is_leaf and node.value is None

    def test_leaf_with_value(self):
        node = tree("A", "foo")
        assert node.value == "foo"

    def test_nested(self):
        node = tree("A", tree("B", "x"), tree("C"))
        assert [c.label for c in node.children] == ["B", "C"]

    def test_two_values_rejected(self):
        with pytest.raises(TreeError, match="two text values"):
            tree("A", "x", "y")

    def test_value_plus_children_rejected(self):
        with pytest.raises(TreeError, match="no mixed content"):
            tree("A", "x", tree("B"))

    def test_bad_argument_type_rejected(self):
        with pytest.raises(TreeError):
            tree("A", 42)  # type: ignore[arg-type]

