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
"""

from __future__ import annotations

from repro.errors import TreeError
from repro.trees.node import Node

__all__ = ["tree"]


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
