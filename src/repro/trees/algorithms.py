"""Tree algorithms shared by the query engine, updates and semantics.

Every whole-subtree routine runs on two explicit-stack primitives, so
depth is not bounded by the recursion limit: :func:`_copy_tree` and the
enter/leave walk :func:`_walk` (with :func:`_fold`, its bottom-up form).

The central operation is :func:`minimal_subtree`: the answer to a TPWJ
query is "the minimal subtree containing all the nodes mapped by the
query" (paper, slide 6).  For a rooted tree this is the union of the
root-paths of the mapped nodes; we materialise it as a fresh tree
restricted to those nodes and their ancestors: :func:`kept_nodes`
captures them with one upward walk per target, and :func:`kept_tree`
copies the kept nodes only — never their other siblings — so neither a
wide node nor a deep document costs more than the answer itself.
:func:`kept_canonical` is the copy's key, computed without copying.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable

from repro.errors import TreeError
from repro.trees.node import Node

__all__ = [
    "minimal_subtree",
    "restrict",
    "label_counts",
    "label_index",
    "find_all",
    "find_first",
    "lowest_common_ancestor",
    "same_tree",
    "multiset_equal",
    "node_path",
    "node_at_path",
]


def minimal_subtree(root: Node, targets: Iterable[Node]) -> Node:
    """The minimal subtree of *root* containing every node in *targets*.

    Returns a fresh tree (a restricted copy).  Every target must belong
    to the tree rooted at *root*; targets may repeat.  The result always
    includes *root* itself, matching the paper's convention that an
    answer is a subtree of the document (hence rooted at the document
    root).  Children keep the document's attachment order.
    """
    return kept_tree(kept_nodes(root, targets))


def kept_nodes(root: Node, targets: Iterable[Node]) -> dict[Node, list[Node]]:
    """What :func:`minimal_subtree` keeps: kept node -> its kept children
    in attachment order, *root* first."""
    # A walk stops at the first node already kept; one that runs off
    # the top of a tree without meeting *root* started outside it.
    kept: dict[Node, list[Node]] = {root: []}
    forks = []
    for node in targets:
        below = None
        while (siblings := kept.get(node)) is None:
            kept[node] = [] if below is None else [below]
            below, node = node, node._parent
            if node is None:
                raise TreeError("target node does not belong to the given tree")
        if below is not None:
            siblings.append(below)
            if len(siblings) == 2:
                forks.append(node)
    for node in forks:  # discovery order is not attachment order: rescan
        kept[node] = [child for child in node._children if child in kept]
    return kept


def kept_tree(kept: dict[Node, list[Node]]) -> Node:
    """The fresh plain tree a :func:`kept_nodes` capture describes."""
    return _copy_tree(next(iter(kept)), Node._copy_self, kept.__getitem__)


def kept_canonical(kept: dict[Node, list[Node]]) -> str:
    """``kept_tree(kept).canonical()``, folded over the capture: no copy."""
    encode, keys, stack = Node._encode_self, [], [next(iter(kept))]  # plain, as the copy
    while stack:
        node = stack.pop()
        if node is None:
            node = stack.pop()
            count = len(kept[node])
            parts = keys[-count:]
            del keys[-count:]
            parts.sort()
            keys.append(f"{encode(node)}({','.join(parts)})")
        elif children := kept[node]:
            stack.append(node)
            stack.append(None)
            stack.extend(children)  # child keys are sorted: any order
        else:
            keys.append(encode(node))
    return keys[0]


def restrict(root: Node, keep_ids: set[int]) -> Node:
    """Copy of *root* keeping exactly the nodes whose id() is in *keep_ids*.

    A kept node whose parent is not kept is dropped along with its
    subtree (subtrees must be connected to the root to survive).  The
    root must be kept.
    """
    if id(root) not in keep_ids:
        raise TreeError("the root itself must be kept")
    return _copy_tree(
        root, Node._copy_self, lambda node: [c for c in node._children if id(c) in keep_ids]
    )


def _copy_tree(root, make: Callable, kept_children: Callable | None = None) -> Node:
    """``make(root)``, and under each copy ``make(child)`` for every child
    in ``kept_children(source)`` (default: a Node's children), in order.

    The source may be any tree *kept_children* lists (a spec, an XML
    element); readers check it there, so the fresh copies are linked
    without :meth:`Node.add_child`'s O(depth) cycle walk.
    """
    fresh_root = make(root)
    stack = [(root, fresh_root)]
    while stack:
        source, fresh = stack.pop()
        for child in source._children if kept_children is None else kept_children(source):
            copy = make(child)
            copy._parent = fresh
            fresh._children.append(copy)
            stack.append((child, copy))
    return fresh_root


def _walk(root, enter: Callable | None = None, leave: Callable | None = None) -> None:
    """``enter(node, depth)`` in pre-order and ``leave(node, depth)`` in
    post-order, *depth* 0 at *root*.  Children are read after ``enter``,
    which may detach some; a true return skips the subtree and ``leave``.
    """
    stack = [root]
    depth = 0
    while stack:
        node = stack.pop()
        if node is None:
            depth -= 1
            node = stack.pop()
            if leave is not None:
                leave(node, depth)
        elif enter is None or not enter(node, depth):
            children = node._children
            if children:
                stack.append(node)
                stack.append(None)
                stack.extend(reversed(children))
                depth += 1
            elif leave is not None:
                leave(node, depth)


def _fold(root: Node, combine: Callable):
    """Root's value, ``combine(node, values)`` taking the children's values
    in order (a fresh list, or ``()`` at a leaf)."""
    values: list = []

    def leave(node, depth):
        count = len(node._children)
        if count:
            below = values[-count:]
            del values[-count:]
            values.append(combine(node, below))
        else:
            values.append(combine(node, ()))

    _walk(root, None, leave)
    return values[0]


def label_counts(root: Node) -> Counter:
    """Multiset of labels in the subtree (used by workload stats)."""
    return Counter(node.label for node in root.iter())


def label_index(root: Node) -> dict[str, list[Node]]:
    """Map label -> nodes with that label, in pre-order.

    The TPWJ matcher uses this to enumerate candidates per pattern node
    instead of scanning the whole document for every pattern node.
    """
    index: dict[str, list[Node]] = {}
    for node in root.iter():
        index.setdefault(node.label, []).append(node)
    return index


def find_all(root: Node, label: str) -> list[Node]:
    """All nodes of the subtree with the given label, in pre-order."""
    return [node for node in root.iter() if node.label == label]


def find_first(root: Node, label: str) -> Node | None:
    """First node (pre-order) with the given label, or None."""
    for node in root.iter():
        if node.label == label:
            return node
    return None


def lowest_common_ancestor(first: Node, second: Node) -> Node:
    """LCA of two nodes of the same tree."""
    seen = {id(node) for node in first.ancestors(include_self=True)}
    for node in second.ancestors(include_self=True):
        if id(node) in seen:
            return node
    raise TreeError("nodes do not belong to the same tree")


def same_tree(first: Node, second: Node) -> bool:
    """True when both nodes belong to the same tree instance."""
    return first.root() is second.root()


def multiset_equal(first: Iterable[Node], second: Iterable[Node]) -> bool:
    """Compare two collections of trees as multisets (unordered equality)."""
    return Counter(node.canonical() for node in first) == Counter(
        node.canonical() for node in second
    )


def node_path(node: Node) -> tuple[int, ...]:
    """Positional path of *node* from its root (child indexes, top-down).

    Positions refer to the current attachment order; they are stable as
    long as the tree is not mutated, which is how the update executor
    transfers match positions onto cloned trees.
    """
    path: list[int] = []
    walk = node
    while walk.parent is not None:
        parent = walk.parent
        for index, child in enumerate(parent.children):
            if child is walk:
                path.append(index)
                break
        else:  # pragma: no cover - defensive; parent links are maintained by Node
            raise TreeError("corrupt parent link")
        walk = parent
    path.reverse()
    return tuple(path)


def node_at_path(root: Node, path: tuple[int, ...]) -> Node:
    """Inverse of :func:`node_path` relative to *root*."""
    node = root
    for index in path:
        children = node.children
        if index >= len(children):
            raise TreeError(f"path {path!r} does not exist in this tree")
        node = children[index]
    return node
