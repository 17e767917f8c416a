"""Unit tests for tree algorithms (repro.trees.algorithms)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fuzzy_tree import FuzzyNode
from repro.errors import TreeError
from repro.events.condition import Condition
from repro.trees import (
    Node,
    minimal_subtree,
    node_at_path,
    node_path,
    restrict,
    tree,
)


def find_first(root, label):
    """First node of *root*'s subtree (pre-order) labelled *label*."""
    return next((node for node in root.iter() if node.label == label), None)


@pytest.fixture
def doc():
    return tree(
        "A",
        tree("B", "foo"),
        tree("E", tree("C", "bar"), tree("C", "baz")),
        tree("D", tree("F", tree("G"))),
    )


class TestMinimalSubtree:
    def test_single_target_keeps_root_path(self, doc):
        g = find_first(doc, "G")
        answer = minimal_subtree(doc, [g])
        assert answer.canonical() == "A(D(F(G)))"

    def test_multiple_targets_union_of_paths(self, doc):
        b = find_first(doc, "B")
        g = find_first(doc, "G")
        answer = minimal_subtree(doc, [g, b])
        assert answer.canonical() == "A(B='foo',D(F(G)))"

    def test_root_target_gives_root_only(self, doc):
        answer = minimal_subtree(doc, [doc])
        assert answer.canonical() == "A"

    def test_result_is_a_fresh_tree(self, doc):
        b = find_first(doc, "B")
        answer = minimal_subtree(doc, [b])
        assert answer is not doc
        answer.children[0].detach()
        assert find_first(doc, "B") is not None  # original untouched

    def test_foreign_target_rejected(self, doc):
        with pytest.raises(TreeError):
            minimal_subtree(doc, [tree("X")])

    def test_duplicate_targets_are_fine(self, doc):
        g = find_first(doc, "G")
        answer = minimal_subtree(doc, [g, g])
        assert answer.canonical() == "A(D(F(G)))"


class TestRestrict:
    def test_keeps_connected_component_of_root(self, doc):
        d = find_first(doc, "D")
        g = find_first(doc, "G")
        # G kept but its parent F is not: G is dropped.
        kept = {id(doc), id(d), id(g)}
        result = restrict(doc, kept)
        assert result.canonical() == "A(D)"

    def test_root_must_be_kept(self, doc):
        with pytest.raises(TreeError, match="root itself"):
            restrict(doc, set())


# ----------------------------------------------------------------------
# Differential checks: the iterative routines against literal references
# ----------------------------------------------------------------------


def reference_restrict(root, keep_ids):
    """The kept nodes connected to *root*, copied recursively."""
    if id(root) not in keep_ids:
        raise TreeError("the root itself must be kept")

    def copy(node):
        fresh = Node(node.label, node.value)
        for child in node.children:
            if id(child) in keep_ids:
                fresh.add_child(copy(child))
        return fresh

    return copy(root)


def reference_minimal_subtree(root, targets):
    """Slide 6 literally: the union of the targets' root paths."""
    keep = {id(root)}
    for target in targets:
        if target.root() is not root:
            raise TreeError("target node does not belong to the given tree")
        keep.update(id(node) for node in target.ancestors(include_self=True))
    return reference_restrict(root, keep)


def reference_canonical(node):
    own = node.label if node.value is None else f"{node.label}={node.value!r}"
    if node.is_leaf:
        return own
    return f"{own}({','.join(sorted(reference_canonical(c) for c in node.children))})"


def layout(root):
    """Pre-order ``(depth, label, value)``: the ordered tree, exactly."""
    out, stack = [], [(root, 0)]
    while stack:
        node, depth = stack.pop()
        out.append((depth, node.label, node.value))
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return out


def assert_same_copy(result, expected, source):
    assert result.canonical() == expected.canonical()
    assert layout(result) == layout(expected)
    originals = {id(node) for node in source.iter()}
    assert result.parent is None
    for node in result.iter():
        assert id(node) not in originals
        assert all(child.parent is node for child in node.children)


#: Values exercise the canonical form's quoting: quotes, commas, brackets.
VALUES = st.none() | st.text(alphabet="ab,'\"()= ", max_size=4)


@st.composite
def documents(draw, max_nodes=30):
    """A random tree and its nodes in creation order; leaves may carry
    values, and labels repeat so distinct subtrees can collide."""
    root = Node(draw(st.sampled_from("ABC")))
    nodes = [root]
    for _ in range(draw(st.integers(0, max_nodes - 1))):
        parent = draw(st.sampled_from([n for n in nodes if n.value is None]))
        nodes.append(parent.add_child(Node(draw(st.sampled_from("ABC")), draw(VALUES))))
    return root, nodes


relaxed = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestAgainstReferences:
    @relaxed
    @given(st.data())
    def test_minimal_subtree(self, data):
        root, nodes = data.draw(documents())
        targets = data.draw(st.lists(st.sampled_from(nodes), max_size=8))  # repeats allowed
        expected = reference_minimal_subtree(root, targets)
        assert_same_copy(minimal_subtree(root, targets), expected, root)
        assert_same_copy(minimal_subtree(root, iter(targets)), expected, root)

    @relaxed
    @given(st.data())
    def test_foreign_target_is_rejected(self, data):
        root, nodes = data.draw(documents())
        _, other_nodes = data.draw(documents(max_nodes=5))
        targets = data.draw(st.lists(st.sampled_from(nodes), max_size=5))
        foreign = data.draw(st.sampled_from(other_nodes))
        targets.insert(data.draw(st.integers(0, len(targets))), foreign)
        with pytest.raises(TreeError):
            reference_minimal_subtree(root, targets)
        with pytest.raises(TreeError, match="does not belong"):
            minimal_subtree(root, targets)

    @relaxed
    @given(st.data())
    def test_restrict(self, data):
        root, nodes = data.draw(documents())
        kept = data.draw(st.lists(st.sampled_from(nodes), max_size=20))
        keep_ids = {id(root)} | {id(node) for node in kept}  # may be disconnected
        assert_same_copy(
            restrict(root, keep_ids), reference_restrict(root, keep_ids), root
        )

    @relaxed
    @given(st.data())
    def test_canonical(self, data):
        root, nodes = data.draw(documents())
        for node in (root, data.draw(st.sampled_from(nodes))):
            assert node.canonical() == reference_canonical(node)

    def test_canonical_of_quoted_values(self):
        node = tree("A", tree("B", "it's, \"x\""), tree("B", "a,b"), tree("C", tree("B", "'")))
        assert node.canonical() == reference_canonical(node)
        assert node.canonical() == r"""A(B='a,b',B='it\'s, "x"',C(B="'"))"""

    def test_canonical_defers_to_a_subclass_override(self):
        """A fuzzy child under a plain node is encoded by its own method,
        condition included — as the recursive form always did."""
        parent = Node("A")
        parent.add_child(FuzzyNode("B", condition=Condition.of("w")))
        assert parent.canonical() == f"A({parent.children[0].canonical()})"
        assert "[w]" in parent.canonical()


class TestFastPathsStayFast:
    """Structural guards, not timers: each fails if the cost it guards
    against comes back."""

    def test_copy_never_scans_siblings(self, monkeypatch):
        """A 10 000-child root with one target grandchild: the copy
        visits kept nodes only, so ``Node.children`` (a tuple copy of
        every sibling) is never read."""
        root = Node("R")
        for i in range(10_000):
            root.add_child(Node("P", str(i)) if i != 5_000 else Node("P"))
        target = root.children[5_000].add_child(Node("T", "t"))

        def no_sibling_scan(self):
            raise AssertionError("a sibling tuple was copied")

        monkeypatch.setattr(Node, "children", property(no_sibling_scan))
        answer = minimal_subtree(root, [target, target])
        monkeypatch.undo()
        assert answer.canonical() == "R(P(T='t'))"


class TestPaths:
    def test_roundtrip_for_every_node(self, doc):
        for node in doc.iter():
            assert node_at_path(doc, node_path(node)) is node

    def test_root_path_is_empty(self, doc):
        assert node_path(doc) == ()

    def test_bad_path_rejected(self, doc):
        with pytest.raises(TreeError):
            node_at_path(doc, (9, 9))

