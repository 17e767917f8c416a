"""Concise construction helpers for data trees.

The tests, examples and benchmarks build many small trees; writing nested
:class:`~repro.trees.node.Node` constructors is noisy.  :func:`tree`
provides a compact literal syntax::

    from repro.trees import tree as t

    doc = t("A",
            t("B", "foo"),          # leaf with a value
            t("B", "foo"),
            t("E", t("C", "bar")),  # internal node
            t("D", t("F", "nee")))

which is the example document from slide 5 of the paper.

:func:`from_spec` builds a tree from a plain nested structure (label,
value-or-children) — convenient for table-driven tests and for workload
generators that assemble specs programmatically.
"""

from __future__ import annotations

from repro.errors import TreeError
from repro.trees.algorithms import _copy_tree, _fold
from repro.trees.node import Node

__all__ = ["tree", "from_spec", "to_spec"]


def tree(label: str, *parts: "Node | str") -> Node:
    """Build a node from a label and a mix of child nodes / a text value.

    String arguments set the node's value; node arguments become
    children.  Supplying both, several strings, or a string alongside
    children violates the "no mixed content" rule and raises
    :class:`~repro.errors.TreeError`.
    """
    value: str | None = None
    children: list[Node] = []
    for part in parts:
        if isinstance(part, Node):
            children.append(part)
        elif isinstance(part, str):
            if value is not None:
                raise TreeError(f"node {label!r} given two text values")
            value = part
        else:
            raise TreeError(
                f"tree() arguments must be Node or str, got {type(part).__name__}"
            )
    if value is not None and children:
        raise TreeError(f"node {label!r} given both a value and children (no mixed content)")
    return Node(label, value=value, children=children)


def from_spec(spec: object) -> Node:
    """Build a tree from a nested plain-Python specification.

    Accepted forms::

        "A"                          -> leaf labelled A, no value
        ("A", "foo")                 -> leaf labelled A with value "foo"
        ("A", [child_spec, ...])     -> internal node labelled A

    Children are given as a list of specs of the same shape.
    """
    return _copy_tree(spec, _spec_node, lambda spec: (
        spec[1] if isinstance(spec, tuple) and isinstance(spec[1], list) else ()
    ))


def _spec_node(spec: object) -> Node:
    if isinstance(spec, str):
        return Node(spec)
    if isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], str):
        if spec[1] is None or isinstance(spec[1], (str, list)):
            return Node(spec[0], value=spec[1] if isinstance(spec[1], str) else None)
    raise TreeError(f"invalid tree spec: {spec!r}")


def to_spec(node: Node) -> object:
    """Inverse of :func:`from_spec` (children in attachment order)."""
    return _fold(node, _spec)


def _spec(node: Node, children) -> object:
    if node.value is not None:
        return (node.label, node.value)
    return (node.label, children) if children else node.label
