"""Unordered data trees (paper, slide 5).

The paper's data model is a finite, *unordered*, labelled tree:

* no distinction between attribute and element nodes;
* no mixed content — a node carries either a text value (leaf) or
  children, never both;
* sibling order is irrelevant: two trees are equal when they are
  isomorphic as unordered trees.

:class:`Node` is the single building block.  A "tree" is simply its root
node.  Nodes are mutable (updates attach and detach subtrees) and carry a
parent pointer so ancestor walks — needed by the minimal-subtree answer
construction of TPWJ queries — are O(depth).

Unordered equality and hashing go through :meth:`Node.canonical`, a
canonical string encoding in which child encodings are sorted.  Computing
it is O(n log n) over the subtree; it is *not* cached, because updates
mutate nodes in place and would silently stale a cached ancestor's.
Whole-subtree routines run on the explicit-stack primitives of
:mod:`repro.trees.algorithms`; a node supplies per-node hooks only.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import TreeError
from repro.trees import algorithms

__all__ = ["Node"]

#: Characters a label may not contain: the structural characters of the
#: text syntaxes, quotes and whitespace.
_RESERVED = frozenset("(){}[]<>,\"'/ \t\n")


def _check_label(label: str) -> str:
    if not isinstance(label, str) or not label:
        raise TreeError(f"node label must be a non-empty string, got {label!r}")
    if not _RESERVED.isdisjoint(label):
        raise TreeError(f"node label contains a reserved character: {label!r}")
    return label


class Node:
    """A node of an unordered data tree.

    Parameters
    ----------
    label:
        Element name.  Non-empty; must not contain structural characters
        (brackets, quotes, whitespace) so labels round-trip through the
        text syntaxes unambiguously.
    value:
        Optional text value.  Only leaves may carry a value ("no mixed
        content"); attaching a child to a valued node raises
        :class:`~repro.errors.TreeError`.
    children:
        Initial children, attached in order of iteration (order is not
        semantically meaningful).
    """

    __slots__ = ("label", "_value", "_children", "_parent")

    def __init__(
        self,
        label: str,
        value: str | None = None,
        children: Iterable["Node"] = (),
    ) -> None:
        self.label = _check_label(label)
        if value is not None and not isinstance(value, str):
            raise TreeError(f"node value must be a string or None, got {value!r}")
        self._value = value
        self._children: list[Node] = []
        self._parent: Node | None = None
        for child in children:
            self.add_child(child)

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------

    @property
    def value(self) -> str | None:
        """The text value, or None for an internal or empty node."""
        return self._value

    @value.setter
    def value(self, new_value: str | None) -> None:
        if new_value is not None:
            if not isinstance(new_value, str):
                raise TreeError(f"node value must be a string or None, got {new_value!r}")
            if self._children:
                raise TreeError(
                    f"cannot set a value on node {self.label!r}: it has children "
                    "(no mixed content)"
                )
        self._value = new_value

    @property
    def children(self) -> tuple["Node", ...]:
        """The children as a tuple (mutate via add_child / remove_child)."""
        return tuple(self._children)

    @property
    def parent(self) -> "Node | None":
        """The parent node, or None for a root."""
        return self._parent

    @property
    def is_leaf(self) -> bool:
        return not self._children

    @property
    def is_root(self) -> bool:
        return self._parent is None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_child(self, child: "Node") -> "Node":
        """Attach *child* under this node and return it.

        The child must be a detached root, this node must not carry a
        value, and the attachment must not create a cycle.
        """
        if not isinstance(child, Node):
            raise TreeError(f"child must be a Node, got {type(child).__name__}")
        if self._value is not None:
            raise TreeError(
                f"cannot attach a child to valued node {self.label!r} (no mixed content)"
            )
        if child._parent is not None:
            raise TreeError(
                f"node {child.label!r} already has a parent; detach it first"
            )
        ancestor: Node | None = self
        while ancestor is not None:
            if ancestor is child:
                raise TreeError("attaching this child would create a cycle")
            ancestor = ancestor._parent
        self._children.append(child)
        child._parent = self
        return child

    def remove_child(self, child: "Node") -> "Node":
        """Detach *child* (matched by identity) from this node and return it."""
        for index, existing in enumerate(self._children):
            if existing is child:
                del self._children[index]
                child._parent = None
                return child
        raise TreeError(f"node {child.label!r} is not a child of {self.label!r}")

    def detach(self) -> "Node":
        """Detach this node from its parent (no-op on roots); return self."""
        if self._parent is not None:
            self._parent.remove_child(self)
        return self

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def iter(self) -> Iterator["Node"]:
        """Pre-order traversal of the subtree rooted here."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            # Reversed so traversal visits children in attachment order.
            stack.extend(reversed(node._children))

    __iter__ = iter

    def leaves(self) -> Iterator["Node"]:
        """All leaves of this subtree, in pre-order."""
        for node in self.iter():
            if node.is_leaf:
                yield node

    def ancestors(self, include_self: bool = False) -> Iterator["Node"]:
        """Walk from (optionally) this node up to the root."""
        node: Node | None = self if include_self else self._parent
        while node is not None:
            yield node
            node = node._parent

    def root(self) -> "Node":
        """The root of the tree containing this node."""
        node = self
        while node._parent is not None:
            node = node._parent
        return node

    def depth(self) -> int:
        """Number of edges from the root to this node (root: 0)."""
        return sum(1 for _ in self.ancestors())

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------

    def size(self) -> int:
        """Number of nodes in this subtree."""
        return sum(1 for _ in self.iter())

    def height(self) -> int:
        """Number of edges on the longest downward path from this node."""
        return algorithms._fold(
            self, lambda node, heights: 1 + max(heights) if heights else 0
        )

    # ------------------------------------------------------------------
    # Unordered equality
    # ------------------------------------------------------------------

    def canonical(self) -> str:
        """Canonical string encoding of this subtree.

        Two subtrees have equal encodings iff they are isomorphic as
        unordered labelled trees (same label, same value, same multiset
        of child subtrees).  Labels cannot contain the structural
        characters used here, so the encoding is injective.

        Each node encodes itself with :meth:`_encode_self` (``FuzzyNode``
        adds its condition), then its sorted child encodings.
        """
        return algorithms._fold(self, _encode)

    def equals(self, other: "Node") -> bool:
        """Unordered tree equality (isomorphism of labelled trees)."""
        if not isinstance(other, Node):
            return NotImplemented
        return self.canonical() == other.canonical()

    # Note: ``==`` stays identity-based on purpose.  Matching and update
    # application address nodes by *position* in a specific tree, and a
    # value-based ``__eq__`` would silently merge distinct positions in
    # sets and dict keys.  Use :meth:`equals` / :meth:`canonical` for
    # value comparison.

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------

    def clone(self) -> "Node":
        """Deep copy of this subtree, detached from any parent."""
        return algorithms._copy_tree(self, lambda node: node._copy_self())

    # Per-node hooks of clone, canonical and pretty (FuzzyNode overrides).

    def _copy_self(self, cls: type | None = None) -> "Node":
        """Fresh childless copy as a *cls* (default Node), unchecked."""
        copy = object.__new__(cls or Node)
        copy.label, copy._value, copy._children, copy._parent = self.label, self._value, [], None
        return copy

    def _encode_self(self) -> str:
        return self.label if self._value is None else f"{self.label}={self._value!r}"

    def _pretty_suffix(self) -> str:
        return "" if self._value is None else f" = {self._value!r}"

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        if self._value is not None:
            return f"Node({self.label!r}, value={self._value!r})"
        return f"Node({self.label!r}, {len(self._children)} children)"

    def pretty(self, indent: str = "  ") -> str:
        """Multi-line ASCII rendering of the subtree (children indented)."""
        lines: list[str] = []
        algorithms._walk(self, lambda node, depth: lines.append(
            f"{indent * depth}{node.label}{node._pretty_suffix()}"
        ))
        return "\n".join(lines)


def _encode(node: Node, parts) -> str:
    own = node._encode_self()
    if not parts:
        return own
    parts.sort()
    return f"{own}({','.join(parts)})"
