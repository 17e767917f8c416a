"""The definition of a TPWJ match (slide 13), executed literally.

The independent check on the engine's operators: no label index, no
interval numbering, no semi-join, no plan.  Every assignment of data
nodes to the positive pattern nodes is tried in lexicographic order and
kept iff it respects labels, values, edges, anchoring, value joins and
negated subpatterns.  The only economy is *when* a predicate is tested:
a pattern node's own predicates mention just its image and its parent's,
both chosen by the time the node is reached in pre-order, so a doomed
prefix is dropped there instead of being extended into millions of
doomed tuples — the same set, in the same order, as filtering the full
Cartesian product.  It shares no code with ``repro.engine.executor``;
negated subpatterns go through ``find_embeddings``, the library's other
(direct, index-free) search.
"""

from __future__ import annotations

from repro.tpwj.match import find_embeddings


def reference_matches(pattern, root) -> list[tuple]:
    """Every match of *pattern* in the tree at *root*.

    A match is returned as the tuple of its images along the positive
    pattern nodes in declaration pre-order (``pattern.positive_nodes()``
    order); matches come in lexicographic order of the images' document
    pre-order positions — the order the fixed pre-order plan emits.
    """
    positive = []
    pending = [pattern.root]
    while pending:
        node = pending.pop()
        positive.append(node)
        pending.extend(c for c in reversed(node.children) if not c.negated)
    occurrences: dict[str, list] = {}
    for node in positive:
        if node.variable is not None:
            occurrences.setdefault(node.variable, []).append(node)
    joins = [nodes for nodes in occurrences.values() if len(nodes) > 1]
    document = list(root.iter())  # pre-order

    def respects(p, d, image) -> bool:
        """Slide 13's per-node conditions for mapping *p* to *d*."""
        if p.label is not None and p.label != d.label:
            return False
        if p.value is not None and d.value != p.value:
            return False
        if p.parent is None:
            if pattern.anchored and d is not root:
                return False
        elif p.descendant:
            if not any(a is image[p.parent] for a in d.ancestors()):
                return False
        elif d.parent is not image[p.parent]:
            return False
        return not any(c.negated and find_embeddings(c, d) for c in p.children)

    def joined(image) -> bool:
        for nodes in joins:
            values = {image[p].value for p in nodes}
            if len(values) != 1 or None in values:
                return False
        return True

    matches: list[tuple] = []

    def extend(image: dict) -> None:
        if len(image) == len(positive):
            if joined(image):
                matches.append(tuple(image[p] for p in positive))
            return
        p = positive[len(image)]
        for d in document:
            if respects(p, d, image):
                image[p] = d
                extend(image)
                del image[p]

    extend({})
    return matches
