"""Tree-Pattern-With-Join (TPWJ) queries — the paper's query class.

Slide 6: queries are tree patterns (a standard subset of XQuery) with

* child and descendant edges,
* label tests (or wildcard),
* value tests on leaves,
* value *joins*: distinct pattern nodes constrained to map to data
  nodes carrying the same text value,

and the answer to a match is the minimal subtree of the document
containing all the nodes mapped by the query.

A :class:`PatternNode` may carry a *variable* (``$x``).  A variable
serves two purposes:

* **join**: when the same variable appears on several pattern nodes,
  their images must carry equal (non-null) text values — the "join by
  value" of slide 6;
* **binding**: update operations (:mod:`repro.updates`) refer to the
  pattern node they anchor at through its variable.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import QueryError
from repro.trees.algorithms import _walk

__all__ = ["PatternNode", "Pattern"]


class PatternNode:
    """One node of a TPWJ pattern.

    Parameters
    ----------
    label:
        Required element label, or None for the wildcard ``*``.
    value:
        Exact value test (the image must be a leaf with this value).
    variable:
        Optional variable name (without the ``$``).
    descendant:
        True when the edge from this node's *parent* is a descendant
        edge (``//``), False for a child edge.  Ignored on the root,
        where anchoring is controlled by :attr:`Pattern.anchored`.
    negated:
        True marks a *negated* subpattern (the paper's slide-19
        "negation" extension): the parent's image must have **no**
        embedding of this subtree under the declared axis.  Negated
        subpatterns contribute no mapped nodes and may not carry
        variables or nested negation.
    children:
        Sub-patterns.
    """

    __slots__ = (
        "label",
        "value",
        "variable",
        "descendant",
        "negated",
        "_children",
        "_parent",
    )

    def __init__(
        self,
        label: str | None,
        value: str | None = None,
        variable: str | None = None,
        descendant: bool = False,
        negated: bool = False,
        children: Iterable["PatternNode"] = (),
    ) -> None:
        if label is not None and (not isinstance(label, str) or not label):
            raise QueryError(f"pattern label must be a non-empty string or None, got {label!r}")
        if value is not None and not isinstance(value, str):
            raise QueryError(f"pattern value must be a string or None, got {value!r}")
        if variable is not None and (not isinstance(variable, str) or not variable):
            raise QueryError(f"pattern variable must be a non-empty string, got {variable!r}")
        self.label = label
        self.value = value
        self.variable = variable
        self.descendant = bool(descendant)
        self.negated = bool(negated)
        self._children: list[PatternNode] = []
        self._parent: PatternNode | None = None
        for child in children:
            self.add_child(child)
        if self.value is not None and self._children:
            raise QueryError("a pattern node with a value test cannot have children")

    @property
    def children(self) -> tuple["PatternNode", ...]:
        return tuple(self._children)

    @property
    def parent(self) -> "PatternNode | None":
        return self._parent

    def add_child(self, child: "PatternNode") -> "PatternNode":
        if not isinstance(child, PatternNode):
            raise QueryError(f"pattern child must be a PatternNode, got {type(child).__name__}")
        if child._parent is not None:
            raise QueryError("pattern node already has a parent")
        if self.value is not None:
            raise QueryError("a pattern node with a value test cannot have children")
        self._children.append(child)
        child._parent = self
        return child

    def iter(self) -> Iterator["PatternNode"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node._children))

    def __repr__(self) -> str:
        label = self.label if self.label is not None else "*"
        bits = [label]
        if self.variable:
            bits.append(f"${self.variable}")
        if self.value is not None:
            bits.append(f"={self.value!r}")
        return f"PatternNode({' '.join(bits)}, {len(self._children)} children)"


class Pattern:
    """A complete TPWJ query: a pattern tree plus anchoring mode.

    Parameters
    ----------
    root:
        Root pattern node.
    anchored:
        When True the root pattern node must map to the document root
        (text syntax prefix ``/``); otherwise it may map to any node
        (prefix ``//`` or none).
    """

    __slots__ = ("root", "anchored")

    def __init__(self, root: PatternNode, anchored: bool = False) -> None:
        if not isinstance(root, PatternNode):
            raise QueryError(f"pattern root must be a PatternNode, got {type(root).__name__}")
        if root.parent is not None:
            raise QueryError("pattern root must not have a parent")
        self.root = root
        self.anchored = bool(anchored)
        self._validate()

    def _validate(self) -> None:
        if self.root.negated:
            raise QueryError("the pattern root cannot be negated")
        # Negation rules: negated subpatterns bind nothing, so variables
        # (and nested negation) inside them are meaningless.
        for node in self.root.iter():
            if not node.negated:
                continue
            for inner in node.iter():
                if inner.variable is not None:
                    raise QueryError(
                        f"variable ${inner.variable} appears inside a negated "
                        "subpattern; negated subpatterns bind nothing"
                    )
                if inner is not node and inner.negated:
                    raise QueryError("nested negation is not supported")
        seen_vars: dict[str, list[PatternNode]] = {}
        for node in self.positive_nodes():
            if node.variable is not None:
                seen_vars.setdefault(node.variable, []).append(node)
        # A variable used by several nodes is a value join; each joined
        # node must be able to carry a value, i.e. must be a pattern leaf
        # (its image must be a data leaf).
        for variable, nodes in seen_vars.items():
            if len(nodes) > 1:
                for node in nodes:
                    if node.children:
                        raise QueryError(
                            f"join variable ${variable} appears on a non-leaf pattern "
                            "node; joined nodes must map to valued leaves"
                        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def nodes(self) -> list[PatternNode]:
        return list(self.root.iter())

    def positive_nodes(self) -> list[PatternNode]:
        """Pattern nodes outside any negated subpattern (the mapped ones)."""
        result: list[PatternNode] = []
        # A negated node's subtree is skipped (a true return), the rest kept.
        _walk(self.root, lambda node, depth: node.negated or result.append(node))
        return result

    def negated_constraints(self) -> list[PatternNode]:
        """The roots of the negated subpatterns, in pre-order."""
        return [node for node in self.root.iter() if node.negated]

    def has_negation(self) -> bool:
        return any(node.negated for node in self.root.iter())

    def size(self) -> int:
        return sum(1 for _ in self.root.iter())

    def variables(self) -> dict[str, list[PatternNode]]:
        """Map variable name -> pattern nodes carrying it."""
        result: dict[str, list[PatternNode]] = {}
        for node in self.positive_nodes():
            if node.variable is not None:
                result.setdefault(node.variable, []).append(node)
        return result

    def join_variables(self) -> dict[str, list[PatternNode]]:
        """Variables appearing on at least two nodes (true joins)."""
        return {var: nodes for var, nodes in self.variables().items() if len(nodes) > 1}

    def node_for_variable(self, variable: str) -> PatternNode:
        """The unique pattern node carrying *variable* (for update anchors)."""
        nodes = self.variables().get(variable, [])
        if not nodes:
            raise QueryError(f"no pattern node carries variable ${variable}")
        if len(nodes) > 1:
            raise QueryError(
                f"variable ${variable} is a join variable (appears {len(nodes)} times); "
                "update operations need a uniquely-bound variable"
            )
        return nodes[0]

    def __str__(self) -> str:
        from repro.tpwj.parser import format_pattern

        return format_pattern(self)

    def __repr__(self) -> str:
        return f"Pattern({str(self)!r})"
