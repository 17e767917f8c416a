"""Unit tests for the unordered data-tree substrate (repro.trees.node)."""

import pytest

from repro.errors import TreeError
from repro.trees import Node, tree


class TestConstruction:
    def test_label_only(self):
        node = Node("A")
        assert node.label == "A"
        assert node.value is None
        assert node.children == ()
        assert node.is_leaf and node.parent is None

    def test_with_value(self):
        node = Node("B", value="foo")
        assert node.value == "foo"

    def test_with_children(self):
        child = Node("B")
        parent = Node("A", children=[child])
        assert parent.children == (child,)
        assert child.parent is parent

    def test_empty_label_rejected(self):
        with pytest.raises(TreeError):
            Node("")

    def test_non_string_label_rejected(self):
        with pytest.raises(TreeError):
            Node(42)  # type: ignore[arg-type]

    @pytest.mark.parametrize("bad", ["a b", "a(b)", "a{b}", 'a"b', "a,b", "a/b", "a[b]"])
    def test_reserved_characters_rejected(self, bad):
        with pytest.raises(TreeError):
            Node(bad)

    def test_non_string_value_rejected(self):
        with pytest.raises(TreeError):
            Node("A", value=3)  # type: ignore[arg-type]

    def test_value_and_children_rejected(self):
        with pytest.raises(TreeError):
            Node("A", value="x", children=[Node("B")])


class TestMixedContentInvariant:
    def test_add_child_to_valued_node_rejected(self):
        node = Node("A", value="x")
        with pytest.raises(TreeError, match="no mixed content"):
            node.add_child(Node("B"))

    def test_set_value_on_internal_node_rejected(self):
        node = Node("A", children=[Node("B")])
        with pytest.raises(TreeError, match="no mixed content"):
            node.value = "x"

    def test_value_can_be_cleared_and_reset(self):
        node = Node("A", value="x")
        node.value = None
        node.add_child(Node("B"))
        assert node.value is None


class TestMutation:
    def test_add_child_returns_child(self):
        parent = Node("A")
        child = Node("B")
        assert parent.add_child(child) is child

    def test_add_attached_child_rejected(self):
        parent = Node("A")
        child = parent.add_child(Node("B"))
        with pytest.raises(TreeError, match="already has a parent"):
            Node("C").add_child(child)

    def test_cycle_rejected(self):
        a = Node("A")
        b = a.add_child(Node("B"))
        with pytest.raises(TreeError, match="cycle"):
            b.add_child(a)

    def test_self_cycle_rejected(self):
        a = Node("A")
        with pytest.raises(TreeError, match="cycle"):
            a.add_child(a)

    def test_remove_child(self):
        parent = Node("A")
        child = parent.add_child(Node("B"))
        parent.remove_child(child)
        assert parent.children == ()
        assert child.parent is None

    def test_remove_non_child_rejected(self):
        with pytest.raises(TreeError, match="not a child"):
            Node("A").remove_child(Node("B"))

    def test_remove_matches_identity_not_value(self):
        parent = Node("A")
        first = parent.add_child(Node("B"))
        second = parent.add_child(Node("B"))
        parent.remove_child(second)
        assert parent.children == (first,)

    def test_detach(self):
        parent = Node("A")
        child = parent.add_child(Node("B"))
        assert child.detach() is child
        assert child.parent is None and parent.children == ()

    def test_detach_root_is_noop(self):
        node = Node("A")
        assert node.detach() is node

    def test_reattach_after_detach(self):
        a, b = Node("A"), Node("B")
        child = a.add_child(Node("C"))
        child.detach()
        b.add_child(child)
        assert child.parent is b


class TestTraversal:
    @pytest.fixture
    def doc(self):
        # Slide 5 example document.
        return tree(
            "A",
            tree("B", "foo"),
            tree("B", "foo"),
            tree("E", tree("C", "bar")),
            tree("D", tree("F", "nee")),
        )

    def test_preorder(self, doc):
        labels = [node.label for node in doc.iter()]
        assert labels == ["A", "B", "B", "E", "C", "D", "F"]

    def test_iter_dunder(self, doc):
        assert [n.label for n in doc] == [n.label for n in doc.iter()]

    def test_leaves(self, doc):
        assert [leaf.value for leaf in doc.leaves()] == ["foo", "foo", "bar", "nee"]

    def test_ancestors(self, doc):
        c = next(n for n in doc.iter() if n.label == "C")
        assert [a.label for a in c.ancestors()] == ["E", "A"]
        assert [a.label for a in c.ancestors(include_self=True)] == ["C", "E", "A"]

    def test_root(self, doc):
        c = next(n for n in doc.iter() if n.label == "C")
        assert c.root() is doc

    def test_depth(self, doc):
        assert doc.depth() == 0
        c = next(n for n in doc.iter() if n.label == "C")
        assert c.depth() == 2

    def test_size_and_height(self, doc):
        assert doc.size() == 7
        assert doc.height() == 2
        assert Node("X").height() == 0


class TestCanonical:
    def test_sibling_order_irrelevant(self):
        first = tree("A", tree("B"), tree("C"))
        second = tree("A", tree("C"), tree("B"))
        assert first.canonical() == second.canonical()
        assert first.equals(second)

    def test_values_distinguish(self):
        assert not tree("A", "x").equals(tree("A", "y"))
        assert not tree("A", "x").equals(tree("A"))

    def test_multiset_of_children_matters(self):
        two = tree("A", tree("B"), tree("B"))
        one = tree("A", tree("B"))
        assert not two.equals(one)

    def test_deep_unordered_equality(self):
        first = tree("A", tree("B", tree("D"), tree("E")), tree("C"))
        second = tree("A", tree("C"), tree("B", tree("E"), tree("D")))
        assert first.equals(second)

    def test_canonical_is_injective_on_labels(self):
        # Labels cannot contain structural characters, so these differ.
        assert tree("AB").canonical() != tree("A", tree("B")).canonical()

    def test_equality_stays_identity_based(self):
        first, second = tree("A"), tree("A")
        assert first != second and first == first
        assert first.equals(second)


class TestClone:
    def test_clone_is_deep_and_detached(self):
        doc = tree("A", tree("B", "foo"), tree("C", tree("D")))
        copy = doc.clone()
        assert copy is not doc
        assert copy.equals(doc)
        assert copy.parent is None
        # Mutating the copy leaves the original untouched.
        copy.children[0].detach()
        assert doc.size() == 4 and copy.size() == 3

    def test_clone_of_subtree_detaches(self):
        doc = tree("A", tree("B"))
        copy = doc.children[0].clone()
        assert copy.parent is None


class TestDisplay:
    def test_repr_mentions_label(self):
        assert "A" in repr(Node("A"))
        assert "foo" in repr(Node("A", value="foo"))

    def test_pretty_shows_structure(self):
        doc = tree("A", tree("B", "foo"))
        text = doc.pretty()
        assert text.splitlines()[0] == "A"
        assert "B = 'foo'" in text
