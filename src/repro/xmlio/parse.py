"""Parsing of the probabilistic XML dialect back into fuzzy documents.

Inverse of :mod:`repro.xmlio.serialize`; every structural rule of the
data model is enforced at parse time with precise
:class:`~repro.errors.XMLFormatError` messages (mixed content, unknown
events, malformed probabilities), so a corrupted warehouse file cannot
produce a silently-wrong document.
"""

from __future__ import annotations

from xml.etree import ElementTree as ET

from repro.errors import EventError, TreeError, XMLFormatError
from repro.events.condition import Condition
from repro.events.table import EventTable
from repro.core.fuzzy_tree import FuzzyNode, FuzzyTree
from repro.trees.algorithms import _copy_tree
from repro.trees.node import Node
from repro.xmlio.serialize import _COND, _DOCUMENT, _EVENT, _EVENTS

__all__ = ["fuzzy_from_element", "fuzzy_from_string", "plain_from_element", "plain_from_string"]


def _fromstring(text: str) -> ET.Element:
    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        raise XMLFormatError(f"not well-formed XML: {exc}") from exc


def fuzzy_from_string(text: str) -> FuzzyTree:
    """Parse a serialized fuzzy document."""
    return fuzzy_from_element(_fromstring(text))


def fuzzy_from_element(document: ET.Element) -> FuzzyTree:
    if document.tag != _DOCUMENT:
        raise XMLFormatError(
            f"expected root element p:document, got {document.tag!r}"
        )
    children = list(document)
    if len(children) != 2 or children[0].tag != _EVENTS:
        raise XMLFormatError(
            "p:document must contain exactly a p:events header followed by the data root"
        )
    events = _parse_events(children[0])
    root = _read(children[1], _fuzzy_node)
    try:
        return FuzzyTree(root, events)
    except Exception as exc:  # invariant violations become format errors
        raise XMLFormatError(f"invalid fuzzy document: {exc}") from exc


def _parse_events(header: ET.Element) -> EventTable:
    events = EventTable()
    for entry in header:
        if entry.tag != _EVENT:
            raise XMLFormatError(f"unexpected element in p:events: {entry.tag!r}")
        name = entry.get("name")
        prob = entry.get("prob")
        if name is None or prob is None:
            raise XMLFormatError("p:event requires both name and prob attributes")
        try:
            probability = float(prob)
        except ValueError:
            raise XMLFormatError(f"invalid probability {prob!r} for event {name!r}") from None
        try:
            events.declare(name, probability)
        except EventError as exc:
            raise XMLFormatError(str(exc)) from exc
    return events


def _read(element: ET.Element, make) -> Node:
    """The data tree under *element*, for both dialects: ``make(element,
    value)`` checks attributes and builds one node; the structural checks
    are shared, and the copy primitive keeps it iterative."""

    def build(element: ET.Element) -> Node:
        if element.tag.startswith("{"):
            raise XMLFormatError(f"data elements must not be namespaced: {element.tag!r}")
        return make(element, (element.text or "").strip() or None)

    def checked_children(element: ET.Element) -> list[ET.Element]:
        children = list(element)
        if children and (element.text or "").strip():
            raise XMLFormatError(
                f"element {element.tag!r} has both text and children (no mixed content)"
            )
        for child in children:
            tail = (child.tail or "").strip()
            if tail:
                raise XMLFormatError(
                    f"element {element.tag!r} has mixed content (trailing text {tail!r})"
                )
        return children

    try:
        return _copy_tree(element, build, checked_children)
    except TreeError as exc:
        raise XMLFormatError(str(exc)) from exc


def _fuzzy_node(element: ET.Element, value: str | None) -> FuzzyNode:
    condition_text = element.get(_COND, "")
    try:
        condition = Condition.parse(condition_text)
    except EventError as exc:
        raise XMLFormatError(
            f"invalid condition {condition_text!r} on element {element.tag!r}: {exc}"
        ) from exc
    for attribute in element.keys():
        if attribute != _COND:
            raise XMLFormatError(
                f"unexpected attribute {attribute!r} on element {element.tag!r} "
                "(the dialect has no data attributes)"
            )
    return FuzzyNode(element.tag, value=value, condition=condition)


def _plain_node(element: ET.Element, value: str | None) -> Node:
    if element.keys():
        raise XMLFormatError(
            f"unexpected attributes on element {element.tag!r} "
            "(plain trees carry no attributes)"
        )
    return Node(element.tag, value=value)


def plain_from_string(text: str) -> Node:
    """Parse an ordinary (non-probabilistic) data tree from XML."""
    return plain_from_element(_fromstring(text))


def plain_from_element(element: ET.Element) -> Node:
    return _read(element, _plain_node)
