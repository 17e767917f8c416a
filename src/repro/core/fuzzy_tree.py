"""Fuzzy trees — the paper's primary contribution (slide 12).

A *fuzzy tree* is a data tree in which every node carries an *event
condition* (a conjunction of probabilistic event literals), together
with an event table assigning each event an independent probability.
The document root's condition must be true: a document always has its
root, and the possible worlds of a fuzzy tree are the restrictions of
the tree to the nodes whose conditions hold (a node needs its whole
ancestor chain to survive).

:class:`FuzzyNode` extends the plain :class:`~repro.trees.node.Node`
with a condition, so every tree algorithm (matching, minimal subtrees,
canonical forms of the *underlying* tree) applies unchanged.
:class:`FuzzyTree` pairs the root with its :class:`EventTable`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.errors import ReproError, TreeError
from repro.events.condition import TRUE, Condition
from repro.events.table import EventTable
from repro.trees.algorithms import _copy_tree
from repro.trees.node import Node

__all__ = ["FuzzyNode", "FuzzyTree"]


class FuzzyNode(Node):
    """A data-tree node guarded by an event condition."""

    __slots__ = ("_condition",)

    def __init__(
        self,
        label: str,
        value: str | None = None,
        condition: Condition = TRUE,
        children: Iterable["FuzzyNode"] = (),
    ) -> None:
        self.condition = condition
        super().__init__(label, value=value, children=children)

    @property
    def condition(self) -> Condition:
        return self._condition

    @condition.setter
    def condition(self, condition: Condition) -> None:
        if not isinstance(condition, Condition):
            raise TreeError(f"condition must be a Condition, got {type(condition).__name__}")
        self._condition = condition

    # Per-node hooks; ``clone``, ``canonical`` and ``pretty`` are Node's.

    def _copy_self(self) -> "FuzzyNode":
        copy = Node._copy_self(self, FuzzyNode)
        copy._condition = self._condition
        return copy

    def _encode_self(self) -> str:
        """With the condition: fuzzy-tree equality compares conditions too."""
        own, condition = Node._encode_self(self), str(self._condition)
        return own if condition == "true" else f"{own}[{condition}]"

    def _pretty_suffix(self) -> str:
        suffix, condition = Node._pretty_suffix(self), self._condition
        return suffix if condition.is_true else f"{suffix}  [{condition.pretty()}]"

    @staticmethod
    def from_plain(node: Node, condition: Condition = TRUE) -> "FuzzyNode":
        """Deep-convert a plain tree; *condition* guards the new root only."""
        root = _copy_tree(node, lambda source: FuzzyNode(source.label, source._value))
        root.condition = condition
        return root


class FuzzyTree:
    """A fuzzy document: a :class:`FuzzyNode` root plus its event table."""

    __slots__ = ("root", "events")

    def __init__(self, root: FuzzyNode, events: EventTable | None = None) -> None:
        if not isinstance(root, FuzzyNode):
            raise ReproError(f"fuzzy root must be a FuzzyNode, got {type(root).__name__}")
        if root.parent is not None:
            raise ReproError("fuzzy root must not have a parent")
        self.root = root
        self.events = events if events is not None else EventTable()
        self.validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check the structural invariants of a fuzzy document.

        * the root's condition is true (a document always has a root);
        * every condition only references declared events;
        * every node is a :class:`FuzzyNode`.
        """
        if not self.root.condition.is_true:
            raise ReproError(
                "the document root must have the true condition "
                f"(found {self.root.condition})"
            )
        for node in self.root.iter():
            if not isinstance(node, FuzzyNode):
                raise ReproError(
                    f"fuzzy tree contains a plain node: {node.label!r}"
                )
            self.events.check_condition(node.condition)

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------

    def size(self) -> int:
        return self.root.size()

    def condition_literal_count(self) -> int:
        """Total number of literals across all node conditions."""
        return sum(len(node.condition) for node in self.iter_nodes())

    def used_events(self) -> frozenset[str]:
        """Events referenced by at least one node condition."""
        used: set[str] = set()
        for node in self.iter_nodes():
            used |= node.condition.events()
        return frozenset(used)

    def iter_nodes(self) -> Iterable[FuzzyNode]:
        return self.root.iter()  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Worlds
    # ------------------------------------------------------------------

    def world(self, assignment: Mapping[str, bool]) -> Node:
        """The ordinary tree selected by a truth assignment.

        Keeps exactly the nodes whose condition is satisfied and whose
        ancestors are all kept; returns a plain tree.
        """
        return _copy_tree(self.root, Node._copy_self, lambda node: [
            c for c in node._children if c._condition.satisfied_by(assignment)
        ])

    # ------------------------------------------------------------------
    # Copies
    # ------------------------------------------------------------------

    def clone(self) -> "FuzzyTree":
        return FuzzyTree(self.root.clone(), self.events.copy())

    def __repr__(self) -> str:
        return (
            f"FuzzyTree({self.size()} nodes, {len(self.events)} events, "
            f"{len(self.used_events())} used)"
        )
