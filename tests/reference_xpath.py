"""An independent engine for the matcher to agree with: ElementTree.

:func:`to_elementtree_xpath` compiles a TPWJ pattern to the restricted
XPath dialect :mod:`xml.etree.ElementTree` accepts (child-only
predicates, no nesting, no negation);
:func:`root_images_via_elementtree` runs it on a serialized copy of the
document and counts the pattern-root images it selects, which must
agree with :func:`repro.tpwj.match.find_matches`.
"""

from __future__ import annotations

from xml.etree import ElementTree as ET

from repro.errors import QueryError
from repro.xmlio.serialize import plain_to_element


def to_elementtree_xpath(pattern) -> str:
    """Compile to the XPath subset :mod:`xml.etree.ElementTree` accepts.

    Restrictions (violations raise :class:`~repro.errors.QueryError`):
    no joins, no negation, no descendant edges below the root, no
    grandchildren (ElementTree predicates cannot nest), and value tests
    only on the root or its direct children.
    """
    if pattern.join_variables():
        raise QueryError("joins are not expressible in ElementTree's XPath subset")
    root = pattern.root
    if pattern.has_negation():
        raise QueryError("negation is not expressible in ElementTree's XPath subset")

    predicates: list[str] = []
    if root.value is not None:
        predicates.append(f".='{_et_literal(root.value)}'")
    for child in root.children:
        if child.descendant:
            raise QueryError(
                "descendant edges are not expressible in ElementTree predicates"
            )
        if child.children:
            raise QueryError("ElementTree predicates cannot nest")
        if child.label is None:
            raise QueryError("wildcard children are not expressible in predicates")
        if child.value is not None:
            predicates.append(f"{child.label}='{_et_literal(child.value)}'")
        else:
            predicates.append(child.label)

    name = root.label if root.label is not None else "*"
    axis = "./" if pattern.anchored else ".//"
    return axis + name + "".join(f"[{p}]" for p in predicates)


def _et_literal(value: str) -> str:
    if "'" in value:
        raise QueryError("ElementTree XPath literals cannot contain single quotes")
    return value


def root_images_via_elementtree(pattern, root) -> int:
    """Count the pattern-root images by running the compiled expression
    through ElementTree on a serialized copy of the document."""
    expression = to_elementtree_xpath(pattern)
    wrapper = ET.Element("wrapper")
    wrapper.append(plain_to_element(root))
    return len(wrapper.findall(expression))
