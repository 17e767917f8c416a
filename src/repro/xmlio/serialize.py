"""Serialization of fuzzy documents to the probabilistic XML dialect.

The paper's implementation stores fuzzy trees as XML files (slide 16).
This reproduction uses an equivalent dialect:

* every data node becomes an element of the same name;
* a leaf value becomes the element's text;
* a node condition is carried in a ``p:cond`` attribute holding the
  literal conjunction (``"w1 !w2"``);
* the event table is a ``<p:events>`` header of ``<p:event name=".."
  prob=".."/>`` entries, and the whole document is wrapped in
  ``<p:document>``.

``p:`` attributes use an explicit XML namespace so probabilistic
metadata can never collide with data labels.

Both dialects (this one and :mod:`repro.xmlio.xupdate`) are written by
one iterative emitter, :func:`_to_string`, producing exactly the text of
``ET.tostring`` (after ``ET.indent``), whose writer recurses per element.
"""

from __future__ import annotations

from xml.etree import ElementTree as ET
from xml.etree.ElementTree import _escape_attrib, _escape_cdata  # ET.tostring's own

from repro.core.fuzzy_tree import FuzzyNode, FuzzyTree
from repro.trees.algorithms import _walk
from repro.trees.node import Node

__all__ = [
    "NAMESPACE",
    "fuzzy_to_element",
    "fuzzy_to_string",
    "plain_to_element",
    "plain_to_string",
]

#: Namespace of the probabilistic annotations.
NAMESPACE = "urn:repro:probabilistic-xml"
XUPDATE_NAMESPACE = "urn:repro:xupdate"
_COND = f"{{{NAMESPACE}}}cond"
_DOCUMENT = f"{{{NAMESPACE}}}document"
_EVENTS = f"{{{NAMESPACE}}}events"
_EVENT = f"{{{NAMESPACE}}}event"

#: Namespace -> prefix, in prefix order (ElementTree declares them so).
_PREFIXES = {NAMESPACE: "p", XUPDATE_NAMESPACE: "xu"}
for _uri, _prefix in _PREFIXES.items():
    ET.register_namespace(_prefix, _uri)


class _Markup:
    """A dialect element around the data (``p:document``, ``xu:insert``,
    …), walked together with the data nodes."""

    __slots__ = ("label", "attributes", "_children")

    def __init__(self, label: str, attributes=(), children=()) -> None:
        self.label, self.attributes, self._children = label, attributes, list(children)


def _parts(node) -> tuple:
    """``(attributes, text)`` of *node*'s element; its tag is the label."""
    if type(node) is _Markup:
        return node.attributes, None
    if isinstance(node, FuzzyNode) and not node.condition.is_true:
        return ((_COND, str(node.condition)),), node.value
    return (), node.value


def _to_element(root) -> ET.Element:
    builder = ET.TreeBuilder()  # the stdlib's own iterative builder

    def enter(node, depth: int) -> None:
        attributes, text = _parts(node)
        builder.start(node.label, dict(attributes))
        if text is not None:
            builder.data(text)

    _walk(root, enter, lambda node, depth: builder.end(node.label))
    return builder.close()


def _to_string(root, indent: bool) -> str:
    """``ET.tostring(_to_element(root), encoding="unicode")``, after
    ``ET.indent`` when *indent*, written straight from the walk."""
    out: list[str] = []
    used: set[str] = set()  # namespace prefixes, declared on the root

    def qualified(name: str) -> str:
        if name[0] != "{":
            return name
        uri, local = name[1:].split("}")
        used.add(_PREFIXES[uri])
        return f"{_PREFIXES[uri]}:{local}"

    def enter(node, depth: int) -> None:
        attributes, text = _parts(node)
        if indent and depth:
            out.append("\n" + "  " * depth)
        tag = qualified(node.label)
        out.append("<" + tag)
        for name, value in attributes:
            out.append(f' {qualified(name)}="{_escape_attrib(value)}"')
        if node._children:
            out.append(">")
        else:
            out.append(f">{_escape_cdata(text)}</{tag}>" if text else " />")

    def leave(node, depth: int) -> None:
        if node._children:
            close = f"</{qualified(node.label)}>"
            out.append("\n" + "  " * depth + close if indent else close)

    _walk(root, enter, leave)
    # Declared right after the root's "<tag", as ElementTree does.
    out.insert(1, "".join(f' xmlns:{p}="{u}"' for u, p in _PREFIXES.items() if p in used))
    return "".join(out)


def _document(fuzzy: FuzzyTree) -> _Markup:
    events = [
        _Markup(_EVENT, (("name", name), ("prob", repr(probability))))
        for name, probability in fuzzy.events.items()
    ]
    return _Markup(_DOCUMENT, (), (_Markup(_EVENTS, (), events), fuzzy.root))


def fuzzy_to_element(fuzzy: FuzzyTree) -> ET.Element:
    """Serialize a fuzzy document into a ``<p:document>`` element tree."""
    return _to_element(_document(fuzzy))


def fuzzy_to_string(fuzzy: FuzzyTree, indent: bool = True) -> str:
    """Serialize a fuzzy document to an XML string."""
    return _to_string(_document(fuzzy), indent)


def plain_to_element(root: Node) -> ET.Element:
    """Serialize an ordinary data tree (e.g. a query answer) to XML."""
    return _to_element(root)


def plain_to_string(root: Node, indent: bool = True) -> str:
    return _to_string(root, indent)
